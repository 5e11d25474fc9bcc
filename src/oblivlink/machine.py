"""The data-oblivious abstract machine.

Values live behind opaque handles (:class:`PrivateScalar`,
:class:`PrivateVector`, :class:`PrivateMatrix`) whose shapes are public
metadata and whose contents are only reachable through ``dec`` with a valid
:class:`~oblivlink.backends.base.DecryptionAuthority`.  Branching on a handle
raises :class:`~oblivlink.errors.TaintViolation` so that host control flow
can never depend on private contents.

:class:`Machine` exposes the primitive operator family (Add/Sub/Mul and the
element-wise variants, DotProduct, LShift/RShift, Size, Transpose, Enc/Dec)
plus the derived operators built from them: the arithmetic ternary selectors
``choose*``, one-hot mask generation, private vector/matrix lookup and
update, element-wise private equality (native gate or the arithmetic
reciprocal workaround), and ordering tests.  Every operator executes a
primitive sequence that depends only on public shapes.
"""

from __future__ import annotations

import math

import numpy as np

# XI_DEFAULT and EQ_BIT_ERROR, the approximate equality's offset and bit
# error, are defined with the backend that runs it and re-exported here.
from .backends.base import EQ_BIT_ERROR, XI_DEFAULT, Backend  # noqa: F401
from .errors import (CapabilityError, ContextMismatchError, DomainError, ShapeError,
                     TaintViolation)

TAU_BOOL = 2 * XI_DEFAULT
TAU_NUM = 1e-6


def slot_runs(sizes, bound: int) -> list[range]:
    """Consecutive runs of items whose slot counts, summed coordinate by
    coordinate, stay within ``bound``; an item above the bound alone is a
    run of its own.  Batched stages use it to keep each batch's temporaries
    within a public budget; sizes are public, so the runs are too."""
    runs: list[range] = []
    start, totals = 0, None
    for k, size in enumerate(sizes):
        grown = None if totals is None else [t + s for t, s in zip(totals, size)]
        if grown is not None and max(grown) <= bound:
            totals = grown
            continue
        if totals is not None:
            runs.append(range(start, k))
        start, totals = k, list(size)
    if totals is not None:
        runs.append(range(start, len(sizes)))
    return runs


class _PrivateValue:
    """Base handle: context-tagged payload, public shape, no inspection."""

    __slots__ = ("ctx", "payload")

    def __init__(self, ctx: Backend, payload: np.ndarray):
        self.ctx = ctx
        self.payload = payload

    @property
    def domain(self) -> str:
        return self.ctx.domain

    def _taint(self, what: str):
        raise TaintViolation(
            f"{what} on a private value would leak its contents; "
            "use the oblivious operators or dec() with an authority",
            operation=what)

    def __bool__(self):
        self._taint("truth test")

    def __int__(self):
        self._taint("int conversion")

    def __float__(self):
        self._taint("float conversion")

    def __index__(self):
        self._taint("index conversion")

    def __eq__(self, other):
        self._taint("equality comparison")

    def __ne__(self, other):
        self._taint("inequality comparison")

    def __lt__(self, other):
        self._taint("ordering comparison")

    def __le__(self, other):
        self._taint("ordering comparison")

    def __gt__(self, other):
        self._taint("ordering comparison")

    def __ge__(self, other):
        self._taint("ordering comparison")

    __hash__ = object.__hash__


class PrivateScalar(_PrivateValue):
    def __repr__(self):
        return f"PrivateScalar(ctx={self.ctx.context_id}, domain={self.domain})"


class PrivateVector(_PrivateValue):
    @property
    def length(self) -> int:
        return int(self.payload.shape[0])

    def __len__(self):
        return self.length

    def __repr__(self):
        return f"PrivateVector(len={self.length}, ctx={self.ctx.context_id})"


class PrivateMatrix(_PrivateValue):
    @property
    def rows(self) -> int:
        return int(self.payload.shape[0])

    @property
    def cols(self) -> int:
        return int(self.payload.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __repr__(self):
        return f"PrivateMatrix(shape={self.shape}, ctx={self.ctx.context_id})"


# A private boolean is a 0/1 private scalar: the ternary operators consume it
# arithmetically, so no distinct backend type is warranted.
PrivateBool = PrivateScalar


class Machine:
    """Operator set over one backend context."""

    def __init__(self, backend: Backend):
        self.b = backend

    # -- helpers -----------------------------------------------------------

    def _check_ctx(self, *values):
        for v in values:
            if v.ctx is not self.b:
                raise ContextMismatchError(
                    f"handle from context {v.ctx.context_id} used in context "
                    f"{self.b.context_id}")

    def _same_shape(self, a, b):
        if a.payload.shape != b.payload.shape:
            raise ShapeError(f"shape mismatch: {a.payload.shape} vs {b.payload.shape}")

    def _wrap(self, payload: np.ndarray):
        if payload.ndim == 0:
            return PrivateScalar(self.b, payload)
        if payload.ndim == 1:
            return PrivateVector(self.b, payload)
        return PrivateMatrix(self.b, payload)

    # -- Enc / Dec -----------------------------------------------------------

    def enc(self, value):
        """Encrypt a public scalar, vector, or matrix.  Any other shape is
        refused before the backend records, sends or stores anything."""
        if np.ndim(value) > 2:
            raise ShapeError("only scalars, vectors, and matrices are supported")
        return self._wrap(self.b.enc(value))

    def enc_runs(self, flat, lengths) -> list[PrivateVector]:
        """Encrypt consecutive runs of a flat public vector in one backend
        call: vector k holds the next ``lengths[k]`` values.  The ledger and
        trace record one ``enc`` per run, as the same runs passed to ``enc``
        one at a time do.  Malformed runs are refused before the backend
        records, sends or stores anything.  The backend coerces ``flat``
        itself, as ``enc`` does, so 64-bit values stay exact."""
        shape = np.shape(flat)
        lengths = [int(n) for n in lengths]
        if len(shape) != 1 or min(lengths, default=0) < 0 or shape[0] != sum(lengths):
            raise ShapeError(f"runs of lengths {lengths} over a flat value of shape "
                             f"{shape}")
        return [PrivateVector(self.b, p) for p in self.b.enc_runs(flat, lengths)]

    def dec(self, value, authority):
        """Decrypt under a valid authority; exact backends round-trip
        exactly, approximate ones within TAU_NUM."""
        self._check_ctx(value)
        self.b.check_authority(authority)
        return self.b.dec(value.payload)

    # -- primitive arithmetic ----------------------------------------------

    def add(self, a, b):
        self._check_ctx(a, b)
        self._same_shape(a, b)
        return self._wrap(self.b.add(a.payload, b.payload))

    def sub(self, a, b):
        self._check_ctx(a, b)
        self._same_shape(a, b)
        return self._wrap(self.b.sub(a.payload, b.payload))

    def mul(self, a, b):
        """Scalar product, or matrix product when both operands are
        matrices (element-wise multiplication is ``emul``)."""
        self._check_ctx(a, b)
        if isinstance(a, PrivateMatrix) and isinstance(b, PrivateMatrix):
            if a.cols != b.rows:
                raise ShapeError(f"matrix product mismatch: {a.shape} x {b.shape}")
            return self._wrap(self.b.matmul(a.payload, b.payload))
        if isinstance(a, PrivateVector) and isinstance(b, PrivateMatrix):
            if a.length != b.rows:
                raise ShapeError(f"vector-matrix mismatch: {a.length} x {b.shape}")
            return self._wrap(self.b.vecmat(a.payload, b.payload))
        self._same_shape(a, b)
        return self._wrap(self.b.mul(a.payload, b.payload))

    def eadd(self, a, b):
        return self.add(a, b)

    def esub(self, a, b):
        return self.sub(a, b)

    def emul(self, a, b):
        self._check_ctx(a, b)
        self._same_shape(a, b)
        return self._wrap(self.b.mul(a.payload, b.payload))

    def dot(self, v1: PrivateVector, v2: PrivateVector) -> PrivateScalar:
        """Dot product of equal-length vectors (a.k.a. inner product)."""
        self._check_ctx(v1, v2)
        self._same_shape(v1, v2)
        return PrivateScalar(self.b, self.b.dot(v1.payload, v2.payload))

    def rshift(self, v: PrivateVector, k: int = 1, cyclic: bool = True, fill=0):
        """Shift right by a public amount; cyclic rotation by default, or
        fill vacated slots with a public sentinel when ``cyclic=False``."""
        self._check_ctx(v)
        return PrivateVector(self.b, self.b.rotate(v.payload, int(k), bool(cyclic), fill))

    def lshift(self, v: PrivateVector, k: int = 1, cyclic: bool = True, fill=0):
        self._check_ctx(v)
        return PrivateVector(self.b, self.b.rotate(v.payload, -int(k), bool(cyclic), fill))

    def size(self, value):
        """Public size: length of a vector, (rows, cols) of a matrix."""
        self._check_ctx(value)
        self.b._record("size", value.payload.shape)
        if isinstance(value, PrivateVector):
            return value.length
        if isinstance(value, PrivateMatrix):
            return value.shape
        return 1

    def transpose(self, value):
        self._check_ctx(value)
        if isinstance(value, PrivateMatrix):
            return PrivateMatrix(self.b, self.b.transpose(value.payload))
        # Vector transpose is orientation bookkeeping only.
        self.b._record("transpose", value.payload.shape)
        return value

    # -- structure helpers (public shapes) ------------------------------------

    def concat(self, first: PrivateVector, *rest: PrivateVector) -> PrivateVector:
        """The vectors joined end to end."""
        parts = (first,) + rest
        self._check_ctx(*parts)
        return PrivateVector(self.b, self.b.concat(*(p.payload for p in parts)))

    def tile(self, v: PrivateVector, times: int) -> PrivateVector:
        """The whole vector repeated ``times`` times."""
        self._check_ctx(v)
        return PrivateVector(self.b, self.b.tile(v.payload, int(times)))

    def repeat_each(self, v: PrivateVector, times: int) -> PrivateVector:
        """Each element repeated ``times`` times, in place."""
        self._check_ctx(v)
        return PrivateVector(self.b, self.b.repeat_each(v.payload, int(times)))

    def take(self, v, idx):
        """Gather at public indices: slot k of the result is slot ``idx[k]``
        of ``v`` read in row-major order, so the result has idx's shape.
        ``tile`` and ``repeat_each`` are the special cases of a fixed index
        pattern.  The trace holds the two shapes, never the index."""
        self._check_ctx(v)
        idx = np.asarray(idx, dtype=np.int64)
        size = math.prod(v.payload.shape)
        # one pass: a negative index viewed as uint64 is at least 2^63
        if idx.ndim > 2 or (idx.size and idx.view(np.uint64).max() >= size):
            raise ShapeError(f"gather of index shape {idx.shape} out of {size} slots")
        return self._wrap(self.b.take(v.payload, idx))

    def slice(self, v: PrivateVector, lo: int, hi: int) -> PrivateVector:
        """Slots lo to hi - 1, for public bounds 0 <= lo <= hi <= len(v);
        others are refused before the backend records anything."""
        self._check_ctx(v)
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= v.length:
            raise ShapeError(f"slice [{lo}:{hi}] of a vector of {v.length} slots")
        return PrivateVector(self.b, self.b.slice(v.payload, lo, hi))

    def vget(self, v: PrivateVector, i: int) -> PrivateScalar:
        """Element at a public index (the index is not protected)."""
        self._check_ctx(v)
        return PrivateScalar(self.b, self.b.vget(v.payload, int(i)))

    def segment_sum(self, v: PrivateVector, width: int, lengths) -> PrivateMatrix:
        """Read ``v`` as rows of ``width`` slots; row k of the result sums the
        next ``lengths[k]`` rows (zero rows for a length of 0).  Linear, so
        local on every backend; width and lengths are public."""
        self._check_ctx(v)
        width = int(width)
        lengths = [int(n) for n in lengths]
        if width < 0 or min(lengths, default=0) < 0 or v.length != sum(lengths) * width:
            raise ShapeError(f"segment sum of {v.length} slots into rows of {width} "
                             f"with run lengths {lengths}")
        return PrivateMatrix(self.b, self.b.segment_sum(v.payload, width, lengths))

    def broadcast(self, s: PrivateScalar, n: int) -> PrivateVector:
        self._check_ctx(s)
        return PrivateVector(self.b, self.b.broadcast(s.payload, (int(n),)))

    def broadcast_mat(self, s: PrivateScalar, shape) -> PrivateMatrix:
        self._check_ctx(s)
        return PrivateMatrix(self.b, self.b.broadcast(s.payload, tuple(int(n) for n in shape)))

    def stack(self, first: PrivateScalar, *rest: PrivateScalar) -> PrivateVector:
        """The scalars joined into one vector."""
        parts = (first,) + rest
        self._check_ctx(*parts)
        return PrivateVector(self.b, self.b.stack([p.payload for p in parts]))

    # -- equality and ordering gates --------------------------------------------

    def eeq(self, seq: PrivateVector, idx: PrivateVector) -> PrivateVector:
        """Element-wise equality: slot i is 1 iff seq[i] == idx[i].

        Uses the native equality gate when the backend has one; otherwise
        the backend's ``approx_eq`` runs, as one call, the arithmetic
        workaround ``(seq-idx) * (-1/(seq-idx+xi)) + 1`` with the one offset
        ``XI_DEFAULT`` and its reciprocal through ``masked_reciprocal``.
        Its output is exact for equal integer inputs and within
        ``EQ_BIT_ERROR`` of 0 for unequal ones; the ledger and trace hold
        the workaround's thirteen entries (see ``intersect._eq_ops``).
        """
        self._check_ctx(seq, idx)
        self._same_shape(seq, idx)
        if self.b.caps.native_eq:
            return PrivateVector(self.b, self.b.eq(seq.payload, idx.payload))
        if not self.b.caps.division:
            raise CapabilityError(
                "equality needs a native gate or division for the workaround")
        return PrivateVector(self.b, self.b.approx_eq(seq.payload, idx.payload))

    def eeq_scalar(self, a: PrivateScalar, b: PrivateScalar) -> PrivateScalar:
        self._check_ctx(a, b)
        if self.b.caps.native_eq:
            return PrivateScalar(self.b, self.b.eq(a.payload, b.payload))
        va = PrivateVector(self.b, self.b.broadcast(a.payload, (1,)))
        vb = PrivateVector(self.b, self.b.broadcast(b.payload, (1,)))
        return self.vget(self.eeq(va, vb), 0)

    def gt(self, a, b, bound: int) -> PrivateScalar:
        """1 iff a > b (signed), computed by the backend's comparison gate.

        ``bound`` is the caller's public bound on |a - b|; every caller
        states one.  A backend whose gate keeps the sign only for
        differences under its ``compare_bound`` refuses, before the gate, a
        bound that reaches it."""
        self._check_ctx(a, b)
        self._same_shape(a, b)
        limit = self.b.compare_bound
        if limit is not None and bound >= limit:
            raise DomainError(f"comparison operands bounded by {bound} reach the "
                              f"gate's bound {limit}")
        return self._wrap(self.b.gt(a.payload, b.payload))

    def masked_reciprocal(self, x, helper_role: str = "P3"):
        """1/x via the owner-randomness masking protocol; the helper party
        observes only r*x."""
        self._check_ctx(x)
        return self._wrap(self.b.masked_reciprocal(x.payload, helper_role))

    def sort_vec(self, v: PrivateVector) -> PrivateVector:
        """Obliviously sorted copy (backend sort capability)."""
        self._check_ctx(v)
        return PrivateVector(self.b, self.b.sort(v.payload))

    def join_counts(self, enc1: list[PrivateVector], enc2: list[PrivateVector],
                    cells) -> PrivateVector:
        """Equality-join cardinality of enc1[i] and enc2[j], unique-entry
        vectors, for every public cell (i, j), as one vector (backend join
        capability).  One backend call; the ledger and trace record one
        ``join`` per cell, in cell order.  Every handle in both lists must
        belong to this context, whether a cell names it or not."""
        self._check_ctx(*enc1, *enc2)
        p1, p2 = [v.payload for v in enc1], [v.payload for v in enc2]
        pairs = [(p1[i], p2[j])
                 for i, j in np.asarray(cells, dtype=np.int64).reshape(-1, 2).tolist()]
        return PrivateVector(self.b, self.b.join_counts(pairs))

    def join_count(self, v1: PrivateVector, v2: PrivateVector) -> PrivateScalar:
        """The one-pair case of ``join_counts``."""
        return PrivateScalar(self.b, self.join_counts([v1], [v2], [(0, 0)]).payload.reshape(()))

    # -- ternary operators ----------------------------------------------------

    def choose(self, cond: PrivateScalar, n1: PrivateScalar, n2: PrivateScalar) -> PrivateScalar:
        """cond * (n1 - n2) + n2 : n1 when cond=1, n2 when cond=0."""
        return self.add(self.mul(cond, self.sub(n1, n2)), n2)

    def choose_vec(self, cond: PrivateVector, v1: PrivateVector, v2: PrivateVector) -> PrivateVector:
        """Slot-wise selection by a 0/1 mask vector."""
        return self.eadd(self.emul(cond, self.esub(v1, v2)), v2)

    def choose_vec_ext(self, cond: PrivateScalar, v1: PrivateVector, v2: PrivateVector) -> PrivateVector:
        return self.choose_vec(self.broadcast(cond, v1.length), v1, v2)

    def choose_mat(self, cond: PrivateMatrix, m1: PrivateMatrix, m2: PrivateMatrix) -> PrivateMatrix:
        return self.eadd(self.emul(cond, self.esub(m1, m2)), m2)

    def choose_mat_ext(self, cond: PrivateScalar, m1: PrivateMatrix, m2: PrivateMatrix) -> PrivateMatrix:
        return self.choose_mat(self.broadcast_mat(cond, m1.shape), m1, m2)

    # -- private matrix manipulation ---------------------------------------------

    def mask_gen(self, size: int, idx: PrivateScalar) -> PrivateVector:
        """One-hot vector of a public size with the 1 at a private index."""
        self._check_ctx(idx)
        size = int(size)
        seq = self.enc(list(range(size)))
        return self.eeq(seq, self.broadcast(idx, size))

    def vector_lookup(self, vec: PrivateVector, idx: PrivateScalar) -> PrivateScalar:
        """vec[idx] with an access pattern independent of idx."""
        mask = self.mask_gen(vec.length, idx)
        return self.dot(vec, self.transpose(mask))

    def vector_update(self, vec: PrivateVector, idx: PrivateScalar, val: PrivateScalar) -> PrivateVector:
        """Rewrite the whole vector so that slot idx becomes val."""
        mask = self.mask_gen(vec.length, idx)
        return self.choose_vec(mask, self.broadcast(val, vec.length), vec)

    def matrix_lookup(self, mat: PrivateMatrix, row: PrivateScalar, col: PrivateScalar) -> PrivateScalar:
        mask = self.mask_gen(mat.rows, row)
        row_vec = PrivateVector(self.b, self.b.vecmat(mask.payload, mat.payload))
        return self.vector_lookup(row_vec, col)

    def matrix_update(self, mat: PrivateMatrix, row: PrivateScalar, col: PrivateScalar,
                      val: PrivateScalar) -> PrivateMatrix:
        row_mask = self.mask_gen(mat.rows, row)
        col_mask = self.mask_gen(mat.cols, col)
        mask = PrivateMatrix(self.b, self.b.outer(row_mask.payload, col_mask.payload))
        return self.choose_mat(mask, self.broadcast_mat(val, mat.shape), mat)
