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

Each primitive is defined here, once for every backend: it checks its
handles, the backend's capability and domain, records its ledger and trace
entries, and runs one of the backend's three kernel hooks.  A backend
supplies enc/dec, those hooks and its own protocols for the optional
primitives; it only computes, and this module records every entry.
"""

from __future__ import annotations

import math

import numpy as np

# XI_DEFAULT, EQ_BIT_ERROR (the approximate equality's offset and bit error)
# and slot_runs are defined with the backends that use them, re-exported here.
from .backends.base import APPROX, EQ_BIT_ERROR, XI_DEFAULT, Backend, slot_runs  # noqa: F401
from .errors import (CapabilityError, ContextMismatchError, DomainError, ShapeError,
                     TaintViolation)

TAU_BOOL = 2 * XI_DEFAULT
TAU_NUM = 1e-6

# The machine-level chains that the backend's one-call masked reciprocal
# and approximate equality stand for, each entry over the operand's shape.
# The entries up to the host's dec of r·x are recorded before the backend
# runs, the rest after it returns, as a refused zero leaves the chain.
RECIPROCAL_OPEN = ("enc", "mul", "dec")
RECIPROCAL_CLOSE = ("enc", "mul")
APPROX_EQ_OPEN = ("sub", "enc", "add") + RECIPROCAL_OPEN
APPROX_EQ_CLOSE = RECIPROCAL_CLOSE + ("enc", "mul", "mul", "enc", "add")


# The least slot budget a batched stage's run gets, whatever the matrix's
# shape: a run's fixed cost (one equality gate, its gathers and sums, and on
# mpc one dealer exchange) then spreads over at least this many slots.  On
# linkbench's mpc-n100 (20x80 records, 1,600 cells; 2-core VM) the floor
# cuts a linkage from 201 rounds to 30, and peak RSS goes from 43.2 MB to
# 45.5 MB at 2^14, 48.4 MB at 2^15 and 54.7 MB at 2^16: mpc holds about
# 200 B per slot of a run alive, and the benchmark bounds RSS growth at 15%.
# 2^14 is also the slot count of one CKKS ciphertext at logN = 15.
MIN_RUN_SLOTS = 1 << 14


def run_slots(shape: tuple[int, int]) -> int:
    """The slot budget of one run of a batched stage over a rows x cols
    candidate matrix: the matrix's own size, but never under
    ``MIN_RUN_SLOTS``.  It depends on the public shape alone."""
    rows, cols = shape
    return max(rows * cols, MIN_RUN_SLOTS)


def _count(n) -> int:
    """A public repetition count or side as a Python int; a negative one is
    refused, before anything is recorded."""
    n = int(n)
    if n < 0:
        raise ShapeError(f"negative count {n}")
    return n


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


class Runs:
    """One private vector, an upload pass's, read as consecutive runs of
    public lengths that sum to its length (by default one run of all of it):
    run k is the ``lengths[k]`` slots from ``starts[k]``.  Stages batch over
    the runs at public offsets of ``values``; ``run(k)`` is one run alone."""

    __slots__ = ("values", "lengths", "starts")

    def __init__(self, values: PrivateVector, lengths=None):
        self.values = values
        self.lengths = np.asarray([values.length] if lengths is None else lengths,
                                  dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths

    def __len__(self):
        return len(self.lengths)

    def run(self, k: int) -> PrivateVector:
        """Run k as one ``slice`` of the vector."""
        lo = int(self.starts[k])
        return Machine(self.values.ctx).slice(self.values, lo, lo + int(self.lengths[k]))


def run_cells(runs1: Runs, runs2: Runs, cells) -> np.ndarray:
    """The public cells (i, j), run i of ``runs1`` and run j of ``runs2``,
    as an ``(n, 2)`` int64 array; a cell outside len(runs1) x len(runs2) is
    refused with ``ShapeError``."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    # one pass per side: a negative index viewed as uint64 is at least 2^63
    if len(cells) and (cells[:, 0].view(np.uint64).max() >= len(runs1)
                       or cells[:, 1].view(np.uint64).max() >= len(runs2)):
        raise ShapeError(f"cells outside {len(runs1)} x {len(runs2)} runs")
    return cells


class Machine:
    """Operator set over one backend context, and the one definition of
    each primitive: the only place that records ledger and trace entries."""

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
        payload = self.b.enc(value)
        self.b._record("enc", payload.shape)
        return self._wrap(payload)

    def enc_runs(self, flat, lengths) -> Runs:
        """Encrypt a flat public vector as consecutive runs, in one backend
        ``enc``: run k is the next ``lengths[k]`` values.  The ledger and
        trace record one ``enc`` per run, as the same runs passed to ``enc``
        one at a time do.  Malformed runs are refused before the backend
        records, sends or stores anything.  The backend coerces ``flat``
        itself, as ``enc`` does, so 64-bit values stay exact."""
        shape = np.shape(flat)
        lengths = [int(n) for n in lengths]
        if len(shape) != 1 or min(lengths, default=0) < 0 or shape[0] != sum(lengths):
            raise ShapeError(f"runs of lengths {lengths} over a flat value of shape "
                             f"{shape}")
        values = PrivateVector(self.b, self.b.enc(flat))
        self.b._record_each("enc", len(lengths), (((n,),) for n in lengths))
        return Runs(values, lengths)

    def reveal(self, value, authority) -> np.ndarray:
        """Decrypt under a valid authority, as a fresh array of the value's
        shape: signed int64 on exact backends, which round-trip exactly,
        float64 on approximate ones, within TAU_NUM.  Records one ``dec``."""
        self._check_ctx(value)
        self.b.check_authority(authority)
        self.b._record("dec", value.payload.shape)
        return self.b.dec(value.payload)

    def dec(self, value, authority):
        """``reveal`` as Python numbers: a number for a scalar, nested lists
        for a vector or matrix."""
        return self.reveal(value, authority).tolist()

    # -- primitive arithmetic ----------------------------------------------
    # Each primitive checks its handles, then the backend's capability, then
    # records its op and public metadata, and only then runs the backend's
    # kernel hook: a refusal leaves the ledger and trace as they were.

    def _product(self, op: str, a, b, *meta):
        self.b._record(op, *meta)
        return self.b._bilinear(op, a.payload, b.payload)

    def add(self, a, b):
        self._check_ctx(a, b)
        self._same_shape(a, b)
        self.b._record("add", a.payload.shape)
        return self._wrap(self.b._linear("add", (a.payload, b.payload)))

    def sub(self, a, b):
        self._check_ctx(a, b)
        self._same_shape(a, b)
        self.b._record("sub", a.payload.shape)
        return self._wrap(self.b._linear("sub", (a.payload, b.payload)))

    def mul(self, a, b):
        """Scalar product, or matrix product when both operands are
        matrices (element-wise multiplication is ``emul``)."""
        self._check_ctx(a, b)
        if isinstance(a, PrivateMatrix) and isinstance(b, PrivateMatrix):
            if a.cols != b.rows:
                raise ShapeError(f"matrix product mismatch: {a.shape} x {b.shape}")
            return PrivateMatrix(self.b, self._product("matmul", a, b, a.payload.shape,
                                                       b.payload.shape))
        if isinstance(a, PrivateVector) and isinstance(b, PrivateMatrix):
            if a.length != b.rows:
                raise ShapeError(f"vector-matrix mismatch: {a.length} x {b.shape}")
            return PrivateVector(self.b, self._product("vecmat", a, b, a.payload.shape,
                                                       b.payload.shape))
        self._same_shape(a, b)
        return self._wrap(self._product("mul", a, b, a.payload.shape))

    def eadd(self, a, b):
        return self.add(a, b)

    def esub(self, a, b):
        return self.sub(a, b)

    def emul(self, a, b):
        self._check_ctx(a, b)
        self._same_shape(a, b)
        return self._wrap(self._product("mul", a, b, a.payload.shape))

    def dot(self, v1: PrivateVector, v2: PrivateVector) -> PrivateScalar:
        """Dot product of equal-length vectors (a.k.a. inner product)."""
        self._check_ctx(v1, v2)
        self._same_shape(v1, v2)
        return PrivateScalar(self.b, self._product("dot", v1, v2, v1.payload.shape))

    def outer(self, col: PrivateVector, row: PrivateVector) -> PrivateMatrix:
        """Outer product: cell (i, j) is col[i]·row[j]."""
        self._check_ctx(col, row)
        if not (isinstance(col, PrivateVector) and isinstance(row, PrivateVector)):
            raise ShapeError(f"outer product of {col!r} and {row!r}")
        return PrivateMatrix(self.b, self._product("outer", col, row, col.payload.shape,
                                                   row.payload.shape))

    def rshift(self, v: PrivateVector, k: int = 1):
        """Cyclic rotation right by a public amount (left for negative k)."""
        return self._shift(v, int(k))

    def lshift(self, v: PrivateVector, k: int = 1):
        return self._shift(v, -int(k))

    def _shift(self, v: PrivateVector, k: int) -> PrivateVector:
        self._check_ctx(v)
        self.b.require("rotation")
        n = v.length
        shift = k % n if n else 0  # k may be any int, however large
        return self._gather("rotate", v, (np.arange(n) - shift) % n, k)

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
            rows, cols = value.shape
            # slot (j, i) of the result reads slot (i, j)
            idx = np.arange(rows) * cols + np.arange(cols)[:, None]
            return self._gather("transpose", value, idx)
        # Vector transpose is orientation bookkeeping only.
        self.b._record("transpose", value.payload.shape)
        return value

    # -- structure helpers (public shapes) ------------------------------------

    def concat(self, first: PrivateVector, *rest: PrivateVector) -> PrivateVector:
        """The vectors joined end to end."""
        parts = (first,) + rest
        self._check_ctx(*parts)
        payloads = [p.payload for p in parts]
        self.b._record("concat", *(p.shape for p in payloads))
        return PrivateVector(self.b, self.b._linear("concat", payloads))

    def _gather(self, op: str, v, idx, *args):
        """Record ``op`` over v's shape and its public arguments, then run it
        as a ``take`` at the public index ``idx`` built from them."""
        self.b._record(op, v.payload.shape, *args)
        return self._wrap(self.b._linear("take", (v.payload,), idx))

    def tile(self, v: PrivateVector, times: int) -> PrivateVector:
        """The whole vector repeated ``times`` times."""
        self._check_ctx(v)
        times = _count(times)
        return self._gather("tile", v, np.tile(np.arange(v.length), times), times)

    def repeat_each(self, v: PrivateVector, times: int) -> PrivateVector:
        """Each element repeated ``times`` times, in place."""
        self._check_ctx(v)
        times = _count(times)
        return self._gather("repeat_each", v, np.repeat(np.arange(v.length), times), times)

    def take(self, v, idx):
        """Gather at public indices: slot k of the result is slot ``idx[k]``
        of ``v`` read in row-major order, so the result has idx's shape; the
        other structural primitives are gathers at fixed index patterns.  The
        index is public: every party knows it, and the trace holds the two
        shapes, never the index."""
        self._check_ctx(v)
        idx = np.asarray(idx, dtype=np.int64)
        size = math.prod(v.payload.shape)
        # one pass: a negative index viewed as uint64 is at least 2^63
        if idx.ndim > 2 or (idx.size and idx.view(np.uint64).max() >= size):
            raise ShapeError(f"gather of index shape {idx.shape} out of {size} slots")
        return self._gather("take", v, idx, idx.shape)

    def slice(self, v: PrivateVector, lo: int, hi: int) -> PrivateVector:
        """Slots lo to hi - 1, for public bounds 0 <= lo <= hi <= len(v);
        others are refused before the backend records anything."""
        self._check_ctx(v)
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= v.length:
            raise ShapeError(f"slice [{lo}:{hi}] of a vector of {v.length} slots")
        return self._gather("slice", v, np.arange(lo, hi), lo, hi)

    def vget(self, v: PrivateVector, i: int) -> PrivateScalar:
        """Element at a public index 0 <= i < len(v) (the index is not
        protected); others are refused before the backend records anything."""
        self._check_ctx(v)
        i = int(i)
        if not 0 <= i < v.length:
            raise ShapeError(f"element {i} of a vector of {v.length} slots")
        return self._gather("get", v, i, i)

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
        self.b._record("segment_sum", v.payload.shape, (len(lengths), width), lengths)
        return PrivateMatrix(self.b, self.b._linear("segment_sum", (v.payload,), width,
                                                    np.asarray(lengths, dtype=np.int64)))

    def _broadcast(self, s: PrivateScalar, shape: tuple):
        self._check_ctx(s)
        shape = tuple(_count(n) for n in shape)
        self.b._record("broadcast", shape)
        return self._wrap(self.b._linear("take", (s.payload,), np.zeros(shape, dtype=np.int64)))

    def broadcast(self, s: PrivateScalar, n: int) -> PrivateVector:
        """The scalar in each of n slots, for a public n >= 0."""
        return self._broadcast(s, (n,))

    def broadcast_mat(self, s: PrivateScalar, shape) -> PrivateMatrix:
        """The scalar in every cell of a public shape of no negative side."""
        return self._broadcast(s, shape)

    def stack(self, first: PrivateScalar, *rest: PrivateScalar) -> PrivateVector:
        """The scalars joined into one vector."""
        parts = (first,) + rest
        self._check_ctx(*parts)
        self.b._record("stack", (len(parts),))
        return PrivateVector(self.b, self.b._linear("stack", [p.payload for p in parts]))

    # -- equality and ordering gates --------------------------------------------

    def _eq(self, a, b):
        """The native gate; the callers have checked ``native_eq``."""
        self.b._record("eq", a.payload.shape)
        return self.b._compare("eq", a.payload, b.payload)

    def eeq(self, seq: PrivateVector, idx: PrivateVector) -> PrivateVector:
        """Element-wise equality: slot i is 1 iff seq[i] == idx[i].

        Uses the native equality gate when the backend has one; otherwise
        the backend's ``approx_eq`` runs, as one call, the arithmetic
        workaround ``(seq-idx) * (-1/(seq-idx+xi)) + 1`` with the one offset
        ``XI_DEFAULT`` and its reciprocal through ``masked_reciprocal``.
        Its output is exact for equal integer inputs and within
        ``EQ_BIT_ERROR`` of 0 for unequal ones; the ledger and trace hold
        the workaround's thirteen entries, ``APPROX_EQ_OPEN`` and
        ``APPROX_EQ_CLOSE``.
        """
        self._check_ctx(seq, idx)
        self._same_shape(seq, idx)
        if self.b.caps.native_eq:
            return PrivateVector(self.b, self._eq(seq, idx))
        if not self.b.caps.division:
            raise CapabilityError(
                "equality needs a native gate or division for the workaround")
        self.b.require_domain(APPROX, "masked reciprocal")
        shape, record = seq.payload.shape, self.b._record
        for op in APPROX_EQ_OPEN:
            record(op, shape)
        bits = self.b.approx_eq(seq.payload, idx.payload)
        for op in APPROX_EQ_CLOSE:
            record(op, shape)
        return PrivateVector(self.b, bits)

    def eeq_scalar(self, a: PrivateScalar, b: PrivateScalar) -> PrivateScalar:
        self._check_ctx(a, b)
        if self.b.caps.native_eq:
            return PrivateScalar(self.b, self._eq(a, b))
        return self.vget(self.eeq(self.broadcast(a, 1), self.broadcast(b, 1)), 0)

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
        self.b._record("gt", a.payload.shape)
        return self._wrap(self.b._compare("gt", a.payload, b.payload))

    # -- optional primitives: the backend runs its own protocol ------------------

    def masked_reciprocal(self, x):
        """1/x via the owner-randomness masking protocol; the host (P3),
        which inverts the masked value, observes only r*x.  The ledger and
        trace hold ``RECIPROCAL_OPEN`` and ``RECIPROCAL_CLOSE``."""
        self._check_ctx(x)
        self.b.require("division")
        self.b.require_domain(APPROX, "masked reciprocal")
        shape, record = x.payload.shape, self.b._record
        for op in RECIPROCAL_OPEN:
            record(op, shape)
        recip = self.b.masked_reciprocal(x.payload)
        for op in RECIPROCAL_CLOSE:
            record(op, shape)
        return self._wrap(recip)

    def sort_vec(self, v: PrivateVector) -> PrivateVector:
        """Obliviously sorted copy (backend sort capability)."""
        self._check_ctx(v)
        self.b.require("sort")
        self.b._record("sort", v.payload.shape)
        return PrivateVector(self.b, self.b.sort(v.payload))

    def join_counts(self, runs1: Runs, runs2: Runs, cells) -> PrivateVector:
        """Equality-join cardinality of run i of ``runs1`` and run j of
        ``runs2``, unique-entry runs, for every public cell (i, j), as one
        vector (backend join capability).  One backend call over the two
        flat payloads, their run lengths and the ``(n, 2)`` cell array; the
        ledger and trace record one ``join`` per cell, in cell order.  A
        cell outside the runs is refused before anything is recorded."""
        self._check_ctx(runs1.values, runs2.values)
        self.b.require("join")
        cells = run_cells(runs1, runs2, cells)
        # the pairs' shapes enter the trace only while tracing
        len1, len2 = runs1.lengths.tolist(), runs2.lengths.tolist()
        metas = ([((len1[i],), (len2[j],)) for i, j in cells.tolist()]
                 if self.b.trace_enabled else ())
        self.b._record_each("join", len(cells), metas)
        return PrivateVector(self.b, self.b.join_counts(
            runs1.values.payload, runs1.lengths, runs2.values.payload, runs2.lengths, cells))

    def join_count(self, v1: PrivateVector, v2: PrivateVector) -> PrivateScalar:
        """The one-pair case of ``join_counts``."""
        counts = self.join_counts(Runs(v1), Runs(v2), [(0, 0)])
        return PrivateScalar(self.b, counts.payload.reshape(()))

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
        return self.vector_lookup(self.mul(mask, mat), col)

    def matrix_update(self, mat: PrivateMatrix, row: PrivateScalar, col: PrivateScalar,
                      val: PrivateScalar) -> PrivateMatrix:
        row_mask = self.mask_gen(mat.rows, row)
        col_mask = self.mask_gen(mat.cols, col)
        return self.choose_mat(self.outer(row_mask, col_mask),
                               self.broadcast_mat(val, mat.shape), mat)
