"""Backend contexts for the oblivious machine.

A backend runs the primitives that ``Machine`` defines over opaque
payloads: it supplies encrypt/decrypt, the kernels of the shared primitives
(linear, the one structural gather among them, bilinear, comparison gates)
and its own protocols for the optional ones.  It only computes; ``Machine``
records every entry.  Every backend carries:

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
# EQ_BIT_ERROR = xi/(1-xi) (at d = -1); the Jaccard count's
# approximate-domain guard bounds its sums of bits with it.
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

    A 2-D ``np.add.reduceat`` pays for every (run, column) pair, so one run
    of wide rows, as merge's bands are, is one sum down its rows.  Width 1
    is one 1-D reduceat, bit for bit the 2-D one.  The choice reads only
    the shapes, which are public."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1]) if len(ends) else 0
    rows = v.reshape(total) if width == 1 else v.reshape(total, width)
    if width > 1 and len(lengths) == 1:
        with np.errstate(over="ignore"):
            return rows.sum(axis=0, dtype=v.dtype).reshape(1, width)
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


def band_outer(op, a: np.ndarray, b: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``op(a[i, c], b[j, c])`` for each column c of ``columns`` in turn,
    then each row i of ``a`` and each row j of ``b``: one flat vector in
    (c, i, j) order.  The columns are gathered, len(columns) x rows on each
    side, and broadcast against each other, so no index array of the
    result's size is built.  A linear ``op`` (a difference) applies to
    additive shares as it does to values."""
    return op(a.T[columns][:, :, None], b.T[columns][:, None, :]).ravel()


def slot_runs(sizes, bound: int) -> list[range]:
    """Consecutive runs of items whose slot counts sum to at most ``bound``;
    an item above the bound alone is a run of its own.  Each run is one
    search of the running sums.  Batched stages and kernels use it to keep
    each batch's temporaries within a public budget; sizes are public, so
    the runs are too."""
    ends = np.cumsum(np.asarray(sizes, dtype=np.int64))
    runs: list[range] = []
    lo, first = 0, 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, first + bound, side="right")))
        runs.append(range(lo, hi))
        lo, first = hi, int(ends[hi - 1])
    return runs


# The numpy kernel of every primitive that is linear in each operand (the
# one structural kernel, the gather ``take``, among them; it returns an array
# for a 0-d index too) or bilinear in two (mul, dot, outer, vecmat, matmul).
# Applied to additive shares, a linear kernel computes shares of its result,
# so the local backends run the kernels on values, the mpc parties on their
# share components and Beaver multiplication on its openings.  On uint64
# payloads the kernels wrap without overflow warnings; numpy's integer
# matmul is exact mod 2^64.
KERNELS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "dot": lambda u, v: np.asarray((u * v).sum()),
    "outer": lambda u, v: u[:, None] * v[None, :],
    "vecmat": lambda u, v: (u[:, None] * v).sum(axis=0),
    "matmul": np.matmul,
    "take": lambda v, idx: np.asarray(v.ravel()[idx]),
    "concat": lambda *parts: np.concatenate(parts),
    "segment_sum": segment_sum,
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
    and then calls one of four kernel hooks that a concrete backend
    supplies: ``_linear(op, srcs, *args)`` for linear kernels, the gather
    ``take`` among them, ``_bilinear(op, a, b)`` for products,
    ``_compare(op, a, b)`` for the ``eq``/``gt`` gates and ``band_eq(a,
    b, columns)`` for the equality of two matrices' columns in
    ``band_outer``'s layout (the ``eq`` gate, or the approximate equality
    on a backend without one).  A hook reads its result's shape off its
    payloads.  Public arguments arrive as Python ints or int64 arrays,
    which ``Machine`` makes them.

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
        self.transcript: list[Observation] = []
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

    def _record_each(self, ops: tuple, count: int, metas):
        """``_record(op, *meta)`` for each of ``count`` meta tuples, in order,
        and for each op of ``ops``, in order: one ledger tick per op by the
        count, and ``metas`` (an iterable of the tuples) read only while
        tracing."""
        if count:
            for op in ops:
                self.ledger.tick(self._stage, op, count)
        if self.trace_enabled:
            self.trace.extend((op,) + meta for meta in metas for op in ops)

    def enable_trace(self, on: bool = True):
        self.trace_enabled = on
        if on:
            self.trace = []

    def observe(self, role: str, kind: str, value):
        """Append one observation of ``role`` to the transcript, a plain
        list of ``Observation``s in the order made.  The value is kept as
        given: a Python value, or a numpy array that nothing writes to
        later."""
        self.transcript.append(Observation(role, kind, value))

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
