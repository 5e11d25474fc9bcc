"""Backend contexts for the oblivious machine.

A backend runs the primitives that ``Machine`` defines over opaque
payloads: it supplies encrypt/decrypt, the kernels of the shared primitives
(linear, rotation among them, bilinear, comparison gates) and its own
protocols for the optional ones.  It only computes; ``Machine`` records
every entry.  Every backend carries:

  * a capability table that strategy selection consults,
  * an operation-cost ledger (counts per pipeline stage and primitive),
  * an optional execution trace used to assert data-oblivious behaviour,
  * a transcript of role-visible observations used for leakage audits,
  * the decryption authorities it issues and checks.

Two numeric domains exist: ``exact-integer-64`` (wrapping 64-bit integers)
and ``approximate-fixed-point`` (floating point with small tolerances).
"""

from __future__ import annotations

import itertools
import zlib
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import AuthorityError, CapabilityError, DomainError, TaintViolation

MASK64 = (1 << 64) - 1

EXACT = "exact-integer-64"
APPROX = "approximate-fixed-point"
APPROX_EXACT_BITS = 53  # float64 holds every integer of up to 53 bits exactly

# The linkage's roles: the two data owners and the computation host.
ROLE_OWNER_1 = "P1"
ROLE_OWNER_2 = "P2"
ROLE_HOST = "P3"

# Offset of every approximate equality (the arithmetic workaround that
# ``LocalBackend.approx_eq`` runs).  On integer inputs a slot whose
# difference d is not 0 yields xi/(d+xi), so its bit errs by at most
# EQ_BIT_ERROR = xi/(1-xi) (at d = -1); the approximate-domain guards of
# merge and of the Jaccard count bound their sums of bits with it.
XI_DEFAULT = 1e-6
EQ_BIT_ERROR = XI_DEFAULT / (1 - XI_DEFAULT)

_context_counter = itertools.count(1)


def to_u64(value) -> np.ndarray:
    """Coerce python/numpy numbers to a wrapping uint64 array (two's
    complement for negatives)."""
    arr = np.asarray(value)
    if arr.dtype == np.uint64:
        return arr.copy()
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False).view(np.uint64).copy()
    try:
        return np.asarray(value, dtype=np.uint64)
    except (OverflowError, ValueError, TypeError):
        pass
    try:
        return np.asarray(value, dtype=np.int64).view(np.uint64)
    except (OverflowError, ValueError, TypeError):
        flat = [int(v) & MASK64 for v in np.asarray(value, dtype=object).ravel()]
        return np.array(flat, dtype=np.uint64).reshape(np.asarray(value, dtype=object).shape)


def segment_sum(v: np.ndarray, width: int, lengths) -> np.ndarray:
    """Read ``v`` as consecutive rows of ``width`` slots and sum each run of
    ``lengths[k]`` rows into row k of a ``(len(lengths), width)`` result; an
    empty run gives a zero row.  Linear, so it applies to additive shares
    as it does to values (uint64 sums wrap).

    A 2-D ``np.add.reduceat`` pays for every (run, column) pair, about 8 ns
    each, which dominates when rows are wide and runs short, as merge's
    one-hot rows are.  Wrapping uint64 sums are exact in any order, so
    there the run heads are gathered in one pass and each further row depth
    is added to the runs that reach it, at about 10 us of calls per depth;
    float64 sums keep reduceat's summation order.  Width 1 is one 1-D
    reduceat, bit for bit the 2-D one.  The choice reads only the dtype and
    the shapes, both public."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1]) if len(ends) else 0
    rows = v.reshape(total) if width == 1 else v.reshape(total, width)
    if width > 1 and v.dtype == np.uint64:
        depth = int(lengths.max()) if len(lengths) else 0
        if len(lengths) * width > 1250 * (depth - 1):
            return _depth_sums(rows, starts, lengths, depth)
    if len(lengths) and lengths.all():
        # no run is empty: one reduceat gives every row
        with np.errstate(over="ignore"):
            sums = np.add.reduceat(rows, starts, axis=0)
    else:
        sums = np.zeros((len(lengths),) + rows.shape[1:], dtype=v.dtype)
        full = lengths > 0
        if full.any():
            with np.errstate(over="ignore"):
                sums[full] = np.add.reduceat(rows, starts[full], axis=0)
    return sums.reshape(len(lengths), width)


def _depth_sums(rows: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                depth: int) -> np.ndarray:
    """``segment_sum`` of uint64 rows, the longest run ``depth`` rows long:
    the run heads in one gather, then row d of every run longer than d
    added to its sum, for d = 1 .. depth - 1."""
    live = np.flatnonzero(lengths)
    if len(live) == len(lengths):
        out = rows[starts]
    else:
        out = np.zeros((len(lengths), rows.shape[1]), dtype=rows.dtype)
        out[live] = rows[starts[live]]
    for d in range(1, depth):
        live = np.flatnonzero(lengths > d)
        out[live] += rows[starts[live] + d]
    return out


# numpy has no integer BLAS, so an exact uint64 product runs on float BLAS
# over 16-bit limbs.  One limb product term is below 2^32, so a sum of up to
# _INNER_CHUNK terms stays below 2^53, where float64 holds every integer
# exactly; longer inner dimensions are summed chunk by chunk.  When the
# operands' largest limbs bound every sum below 2^24, as merge's 0/1
# indicators do, float32 holds them exactly and its BLAS takes half the
# time.  Below 2^53 a summed term converts to uint64 exactly through int64,
# which numpy does far faster than float64 -> uint64.  The output is made
# one column block at a time, so that neither that block nor v's limbs for
# it exceed _BLOCK_ELEMS elements (where the operands' outer dimensions
# allow); a block's first term, the only one of a one-limb product, is
# written into it, and the others are shifted and added.  Below
# _LIMB_MIN_MACS multiply-adds numpy's own (exact, wrapping) integer loop is
# faster than the limb path's fixed cost of up to ten BLAS calls and their
# conversions: on a 2-core VM with one BLAS thread, an mpc Beaver product of
# 20x11 by 11x80 shares takes 28 us that way and 161 us over limbs.
_LIMB_BITS = 16
_INNER_CHUNK = 1 << 21
_BLOCK_ELEMS = 1 << 16
_LIMB_MIN_MACS = 1 << 17


def _limb_count(top: int) -> int:
    """16-bit limbs up to the highest nonzero one of an operand whose
    largest value is ``top`` (at least one)."""
    return max(1, -(-top.bit_length() // _LIMB_BITS))


def _limb(m: np.ndarray, i: int, count: int, ftype) -> np.ndarray:
    """Limb i of an operand of ``count`` limbs, as ``ftype``; a limb is
    below 2^16, so it converts through int64."""
    if i:
        m = m >> np.uint64(_LIMB_BITS * i)
    if i < count - 1:
        m = m & np.uint64(0xFFFF)
    return m.view(np.int64).astype(ftype)


def _matmul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D operands.  On uint64 operands it is exact
    mod 2^64: the sum over limb pairs i+j < 4 of limb_i(u)·limb_j(v), each a
    float BLAS product, shifted left by 16(i+j) bits; pairs with i+j >= 4
    vanish mod 2^64, and all-zero high limbs are skipped, so a 0/1 operand
    costs one product where uniform ones cost ten.  Small uint64 products
    and other dtypes (the approximate domain's float64) take ``np.matmul``."""
    if (u.dtype != np.uint64 or v.dtype != np.uint64
            or u.size * v.shape[1] < _LIMB_MIN_MACS):
        return np.matmul(np.ascontiguousarray(u), np.ascontiguousarray(v))
    out = np.empty((u.shape[0], v.shape[1]), dtype=np.uint64)
    utop = int(u.max()) if u.size else 0
    vtop = int(v.max()) if v.size else 0
    ulimbs, vlimbs = _limb_count(utop), _limb_count(vtop)
    # every partial sum of limb products is a nonnegative integer of at most
    # this bound, whatever order BLAS sums in
    bound = u.shape[1] * min(utop, 0xFFFF) * min(vtop, 0xFFFF)
    ftype = np.float32 if bound < 1 << 24 else np.float64
    # one chunk even of an empty inner dimension, whose product writes zeros
    for k0 in range(0, max(u.shape[1], 1), _INNER_CHUNK):
        uk, vk = u[:, k0:k0 + _INNER_CHUNK], v[k0:k0 + _INNER_CHUNK]
        a = [_limb(uk, i, ulimbs, ftype) for i in range(ulimbs)]
        width = max(1, _BLOCK_ELEMS // max(1, len(uk), len(vk)))
        for c0 in range(0, v.shape[1], width):
            block = out[:, c0:c0 + width]
            for j in range(vlimbs):
                b = _limb(vk[:, c0:c0 + width], j, vlimbs, ftype)
                for i in range(min(ulimbs, 4 - j)):
                    term = np.matmul(a[i], b)
                    if not (k0 or i or j):
                        block.view(np.int64)[...] = term
                        continue
                    term = term.astype(np.int64).view(np.uint64)
                    term <<= np.uint64(_LIMB_BITS * (i + j))
                    block += term
    return out


# The numpy kernel of every primitive that is linear in each operand (the
# structural ones included) or bilinear in two (mul, dot, outer, vecmat,
# matmul).  Applied to additive shares, a linear kernel computes shares of
# its result, so the local backends run the kernels on values, the mpc
# parties on their share components and Beaver multiplication on its
# openings.  On uint64 payloads the kernels wrap without overflow warnings.
KERNELS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "dot": lambda u, v: np.asarray((u * v).sum()),
    "outer": lambda u, v: u[:, None] * v[None, :],
    "vecmat": lambda u, v: (u[:, None] * v).sum(axis=0),
    "matmul": _matmul,
    "transpose": lambda m: m.T.copy(),
    "rotate": np.roll,
    "tile": np.tile,
    "repeat_each": np.repeat,
    "take": lambda v, idx: v.reshape(-1)[idx],
    "concat": lambda *parts: np.concatenate(parts),
    "segment_sum": segment_sum,
    "slice": lambda v, lo, hi: v[lo:hi].copy(),
    "get": lambda v, i: np.asarray(v[i]),
    "broadcast": lambda s, shape: np.broadcast_to(s, shape).copy(),
    "stack": lambda *rows: np.stack(rows),
}

# The result shape of each bilinear form, from its operands' shapes: public,
# so a backend and the mpc dealer derive it before any payload exists.
PRODUCT_SHAPES = {
    "mul": lambda sa, sb: sa,
    "dot": lambda sa, sb: (),
    "outer": lambda sa, sb: (sa[0], sb[0]),
    "vecmat": lambda sa, sb: (sb[1],),
    "matmul": lambda sa, sb: (sa[0], sb[1]),
}


def tagged_rng(tag: str, seed) -> np.random.Generator:
    """Independent generator for one purpose: the tag namespaces the seed so
    subsystems sharing a master seed never share a stream."""
    parts = seed if isinstance(seed, tuple) else (seed,)
    ints = tuple(int(p) % (1 << 63) if isinstance(p, int) else zlib.crc32(str(p).encode())
                 for p in parts)
    return np.random.default_rng((zlib.crc32(tag.encode()),) + ints)


@dataclass(frozen=True)
class Capabilities:
    """Primitive features a backend declares; strategies require subsets."""

    native_eq: bool = True
    rotation: bool = True
    sort: bool = True
    join: bool = True
    division: bool = True


CAPS_ALL = Capabilities()
# Mirrors a SIMD/slot-packing HE platform: rotations and slot replication are
# cheap, no native equality/sort/join, division via the masked-reciprocal
# protocol only.
CAPS_SIMD = Capabilities(native_eq=False, rotation=True, sort=False, join=False,
                         division=True)
# Mirrors an MPC platform with native comparison protocols, gather-style
# element repetition, sorting, and an oblivious table join; no slot rotation.
CAPS_SHAREMIND = Capabilities(native_eq=True, rotation=False, sort=True, join=True,
                              division=False)


class OpCostLedger:
    """Primitive-operation counts keyed by (pipeline stage, primitive)."""

    def __init__(self):
        self.counts: dict[tuple[str, str], int] = {}

    def tick(self, stage: str, op: str, n: int = 1):
        key = (stage, op)
        self.counts[key] = self.counts.get(key, 0) + n

    def by_op(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_, op), n in self.counts.items():
            out[op] = out.get(op, 0) + n
        return out

    def by_stage(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (stage, _), n in self.counts.items():
            out[stage] = out.get(stage, 0) + n
        return out

    def total(self) -> float:
        return float(sum(self.counts.values()))

    def rows(self) -> list[tuple[str, str, int]]:
        return sorted((stage, op, n) for (stage, op), n in self.counts.items())

    def to_csv(self) -> str:
        lines = ["stage,primitive,count"]
        lines += [f"{s},{o},{n}" for s, o, n in self.rows()]
        return "\n".join(lines) + "\n"


@dataclass
class Observation:
    """One role-visible fact recorded in the transcript."""
    role: str
    kind: str
    value: object


class Transcript(Sequence):
    """The role-visible observations of one context, in the order made.

    Besides single observations it holds batches: for each index k, one
    observation per ``(kind, columns)`` group, in group order, whose value
    is the k-th item of the group's one column, or the tuple of the k-th
    items of its columns.  Reading yields the same ``Observation`` sequence
    that the equivalent ``append`` calls give, so a stage that observes one
    fact per record or per key records them in one call."""

    def __init__(self):
        self._parts: list = []  # Observation, or (role, groups, items per group)
        self._len = 0

    def append(self, obs: Observation):
        self._parts.append(obs)
        self._len += 1

    def append_batch(self, role: str, groups):
        """Columns are sequences of one length holding the values as they
        are to be read (Python numbers, not numpy scalars); they are copied."""
        groups = tuple((kind, tuple(tuple(col) for col in columns))
                       for kind, columns in groups)
        sizes = {len(col) for _, columns in groups for col in columns}
        if len(sizes) > 1 or not all(columns for _, columns in groups):
            raise ValueError("a transcript batch needs one or more columns of one length")
        n = sizes.pop() if sizes else 0
        self._parts.append((role, groups, n))
        self._len += n * len(groups)

    def copy(self) -> Transcript:
        """A snapshot: observations made later are not in it."""
        out = Transcript()
        out._parts, out._len = list(self._parts), self._len
        return out

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for part in self._parts:
            if isinstance(part, Observation):
                yield part
                continue
            role, groups, _ = part
            kinds = [kind for kind, _ in groups]
            streams = [cols[0] if len(cols) == 1 else zip(*cols) for _, cols in groups]
            for values in zip(*streams):
                for kind, value in zip(kinds, values):
                    yield Observation(role, kind, value)

    def __getitem__(self, i):
        return list(self)[i]


class DecryptionAuthority:
    """Token naming who may decrypt values from one backend context."""

    def __init__(self, context_id: int, name: str, holder: str):
        self.context_id = context_id
        self.name = name
        self.holder = holder
        self.active = True

    def revoke(self):
        self.active = False

    def __repr__(self):
        state = "active" if self.active else "revoked"
        return f"DecryptionAuthority({self.name!r}, holder={self.holder!r}, {state})"


def assert_oblivious(trace_a: list, trace_b: list):
    """Twin-trace check: two runs over identical public shapes must perform
    the identical primitive sequence regardless of private contents."""
    if len(trace_a) != len(trace_b):
        raise TaintViolation(
            f"trace lengths differ ({len(trace_a)} vs {len(trace_b)}): "
            "operation count depended on private contents")
    for i, (a, b) in enumerate(zip(trace_a, trace_b)):
        if a != b:
            raise TaintViolation(
                f"trace diverges at step {i}: {a} vs {b}", operation=a[0], site=i)


class Backend:
    """Common machinery (identity, ledger, trace, transcript, authorities)
    of a backend context.

    ``Machine`` defines each primitive once: it checks the handles, the
    capability and the domain, records the op and its public metadata here,
    and then calls one of three kernel hooks that a concrete backend
    supplies: ``_linear(op, srcs, *args)`` for linear and structural
    kernels, rotation among them, ``_bilinear(op, a, b)`` for products and
    ``_compare(op, a, b)`` for the ``eq``/``gt`` gates.  A hook reads its
    result's shape off its payloads.  Public arguments (indices, counts,
    widths, shapes) arrive as Python ints, which ``Machine`` makes them.

    Besides the hooks, a backend supplies ``enc`` and ``dec`` (which
    returns a fresh signed int64, or float64, array) and its own
    protocols for the optional primitives it has the capability
    for (sort, join, masked reciprocal, approximate equality).  It only
    computes: ``Machine`` records every entry, so every backend records the
    same ledger and trace.  No backend can read a payload outside ``dec``:
    the cleartext reference is the ``generic`` profile, an ordinary backend
    with every capability.
    """

    kind = "abstract"
    profile = "generic"
    # largest |a - b| the comparison gate keeps the sign of; None when any
    # difference in the domain is compared correctly
    compare_bound: int | None = None

    def __init__(self, caps: Capabilities, domain: str, seed: int = 0):
        self.context_id = next(_context_counter)
        self.caps = caps
        self.domain = domain
        self.rng = np.random.default_rng(seed)
        self.ledger = OpCostLedger()
        self.trace: list[tuple] = []
        self.trace_enabled = False
        self.transcript = Transcript()
        self._stage = "main"

    # -- accounting ------------------------------------------------------

    @contextmanager
    def stage(self, name: str):
        prev, self._stage = self._stage, name
        try:
            yield self
        finally:
            self._stage = prev

    def _record(self, op: str, *meta):
        self.ledger.tick(self._stage, op)
        if self.trace_enabled:
            self.trace.append((op,) + meta)

    def _record_each(self, op: str, count: int, metas):
        """``_record(op, *meta)`` for each of ``count`` meta tuples, in order:
        one ledger tick by the count, and ``metas`` (an iterable of the
        tuples) read only while tracing."""
        if count:
            self.ledger.tick(self._stage, op, count)
        if self.trace_enabled:
            self.trace.extend((op,) + meta for meta in metas)

    def enable_trace(self, on: bool = True):
        self.trace_enabled = on
        if on:
            self.trace = []

    def observe(self, role: str, kind: str, value):
        self.transcript.append(Observation(role, kind, value))

    def observe_batch(self, role: str, *groups):
        """Observe, for each index k and each ``(kind, columns)`` group in
        turn, the k-th value of the group (see ``Transcript``)."""
        self.transcript.append_batch(role, groups)

    def observations(self, role: str) -> list[Observation]:
        return [o for o in self.transcript if o.role == role]

    # -- authorities -----------------------------------------------------

    def issue_authority(self, name: str, holder: str) -> DecryptionAuthority:
        return DecryptionAuthority(self.context_id, name, holder)

    def check_authority(self, authority):
        if not isinstance(authority, DecryptionAuthority):
            raise AuthorityError("decryption requires a DecryptionAuthority token")
        if authority.context_id != self.context_id:
            raise AuthorityError(
                f"authority {authority.name!r} was issued by another context")
        if not authority.active:
            raise AuthorityError(f"authority {authority.name!r} has been revoked")

    # -- capability gating -----------------------------------------------

    def require(self, capability: str):
        if not getattr(self.caps, capability):
            raise CapabilityError(
                f"backend {self.kind}/{self.profile} lacks capability {capability!r}")

    def require_domain(self, domain: str, why: str):
        if self.domain != domain:
            raise DomainError(f"{why} requires {domain} domain, backend is {self.domain}")
