"""Private set-intersection-size strategies and the Jaccard match decision.

Five interchangeable ways to compute |set(v1) ∩ set(v2)| over private
vectors with unique entries, differing in which backend capabilities they
lean on:

  PJ  pairwise join: serial scalar equality over every pair.
  VR  vector rotation: pad to a common length, rotate one operand slot by
      slot and count zero differences (private-set-intersection style).
  VE  vector extension: tile one vector, repeat the other element-wise, and
      count zeros of a single difference.
  SO  sorting: merge, oblivious sort, count equal adjacent slots.
  MJ  matrix join: one oblivious equality-join gate.

All strategies decrypt to the same cardinality; their primitive-operation
footprints differ and are what the cost ledger measures.  The match
decision runs over many record pairs at once (``jaccard_cells``): VE packs
every pair into gathered vectors, MJ joins every pair in one call, and one
threshold gate decides them all.
The record sizes and the threshold are public, so the gate compares
2·inter against a public integer cut per cell, the same expression on
every backend and domain.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .backends.base import APPROX
from .backends.local import LocalBackend
from .errors import CapabilityError, DomainError
from .machine import (EQ_BIT_ERROR, Machine, PrivateScalar, PrivateVector, Runs, run_cells,
                      run_slots, slot_runs)

# Public padding value for VR.  No owner's container equals it: it lies
# outside pack 1's 16 bits, and as a pack-4 container it would repeat the
# code 0xFFFF, so ``validate_uploads`` refuses an upload that holds it.
PAD_SENTINEL = (1 << 63) - 1


class Strategy(enum.Enum):
    PJ = "pj"
    VR = "vr"
    VE = "ve"
    SO = "so"
    MJ = "mj"


def strategy_supported(strategy: Strategy, caps) -> bool:
    """Capability table: which strategies a backend can execute."""
    if strategy in (Strategy.PJ, Strategy.VE):
        return caps.native_eq or caps.division
    if strategy is Strategy.VR:
        return caps.rotation and (caps.native_eq or caps.division)
    if strategy is Strategy.SO:
        return caps.sort
    if strategy is Strategy.MJ:
        return caps.join
    raise ValueError(strategy)


def supported_strategies(caps) -> list[Strategy]:
    return [s for s in Strategy if strategy_supported(s, caps)]


@functools.cache
def _dry_run_ops(strategy: Strategy, m: int, n: int, caps) -> tuple[tuple[str, int], ...]:
    """The ledger entries, as sorted ``(primitive, count)`` pairs, of one
    intersection of an m-slot and an n-slot vector: measured by running it
    on a scratch backend with the capabilities ``caps``.  The entries
    depend on the public sizes and capabilities alone, so one run per key
    serves every later call.  The scratch backend is on the approximate
    domain, which every capability set's program runs on (the division
    workaround refuses the exact one), and has its own rng, ledger and
    transcript."""
    scratch = LocalBackend(caps, APPROX)
    mach = Machine(scratch)
    v1, v2 = mach.enc(np.arange(m)), mach.enc(np.arange(m, m + n))
    scratch.ledger.counts.clear()
    intersection_size(mach, v1, v2, strategy)
    return tuple(sorted(scratch.ledger.by_op().items()))


def estimated_cost(strategy: Strategy, m: int, n: int, caps) -> float:
    """Ledger total of one intersection of an m-slot and an n-slot vector,
    every primitive costing one unit as ``OpCostLedger.total`` counts it;
    used by auto strategy selection."""
    return float(sum(count for _, count in _dry_run_ops(strategy, m, n, caps)))


def pick_strategy(caps, m: int, n: int) -> Strategy:
    """Cheapest supported strategy by ``estimated_cost``."""
    options = supported_strategies(caps)
    if not options:
        raise CapabilityError("backend supports no intersection strategy")
    return min(options, key=lambda s: estimated_cost(s, m, n, caps))


def zero_count(mach: Machine, diff: PrivateVector) -> PrivateScalar:
    """Private count of zero slots: equality against broadcast zero, then a
    dot product with all-ones."""
    n = diff.length
    zero = mach.enc(0)
    bits = mach.eeq(diff, mach.broadcast(zero, n))
    ones = mach.enc([1] * n)
    return mach.dot(bits, ones)


def isect_pj(mach: Machine, v1: PrivateVector, v2: PrivateVector) -> PrivateScalar:
    """Pairwise join: |v1| * |v2| serial scalar equality gates."""
    count = mach.enc(0)
    for i in range(v1.length):
        a = mach.vget(v1, i)
        for j in range(v2.length):
            bit = mach.eeq_scalar(a, mach.vget(v2, j))
            count = mach.add(count, bit)
    return count


def _pad_to(mach: Machine, v: PrivateVector, length: int, pad) -> PrivateVector:
    if v.length >= length:
        return v
    return mach.concat(v, mach.enc([pad] * (length - v.length)))


def vr_diff_sequence(mach: Machine, v1: PrivateVector, v2: PrivateVector,
                     pad=PAD_SENTINEL) -> list[PrivateVector]:
    """The per-rotation difference vectors VR counts zeros over.

    The shorter input is padded with the public sentinel to the common
    length L; the first difference uses the unrotated second operand, and
    the running operand is right-rotated once per step (L rotations, L
    subtractions in total).
    """
    length = max(v1.length, v2.length)
    v1p = _pad_to(mach, v1, length, pad)
    v2p = _pad_to(mach, v2, length, pad)
    diffs = []
    for _ in range(length):
        diffs.append(mach.esub(v1p, v2p))
        v2p = mach.rshift(v2p, 1)
    return diffs


def isect_vr(mach: Machine, v1: PrivateVector, v2: PrivateVector) -> PrivateScalar:
    """Vector rotation: rotate max(|v1|,|v2|) times, accumulating the zero
    count of each difference; the rotation count intentionally covers the
    padded length so every slot pairing is visited exactly once."""
    total = mach.enc(0)
    for diff in vr_diff_sequence(mach, v1, v2):
        total = mach.add(total, zero_count(mach, diff))
    return total


def ve_extend(mach: Machine, v1: PrivateVector, v2: PrivateVector):
    """VE intermediates: v1 tiled |v2| times, each v2 element repeated |v1|
    times.  The reference layout that ``_ve_counts`` gathers."""
    return mach.tile(v1, v2.length), mach.repeat_each(v2, v1.length)


def _ve_counts(mach: Machine, runs1: Runs, runs2: Runs, cells: np.ndarray,
               max_slots: int) -> PrivateVector:
    """VE over many cells at once.  A public gather from each side's flat
    vector lays out every cell's tiled and repeated operands (the layout of
    ``ve_extend``), one equality gate compares them and a width-1 segment
    sum counts each cell's equal slots.  Cells go in runs of at most
    ``max_slots`` slots (a cell above it is a run of its own);
    ``jaccard_cells`` passes ``run_slots`` of the matrix's shape, and the
    one-cell case its own slot count."""
    len1, len2 = runs1.lengths, runs2.lengths
    off1, off2 = runs1.starts, runs2.starts
    i, j = cells[:, 0], cells[:, 1]
    slots = len1[i] * len2[j]
    parts = []
    for run in slot_runs(slots, max_slots):
        r = slice(run.start, run.stop)
        n = slots[r]
        # A cell's slots are one block per v2 element, |v1| slots wide, that
        # pairs the element with each of v1 in turn.  A cell with an empty
        # v1 has no blocks, so no array here outgrows the run's slots.
        width = len1[i[r]]
        blocks = np.where(width > 0, len2[j[r]], 0)
        first = np.cumsum(blocks) - blocks
        block_width = np.repeat(width, blocks)
        block_start = np.cumsum(block_width) - block_width
        elem2 = np.arange(len(block_width)) + np.repeat(off2[j[r]] - first, blocks)
        idx1 = (np.arange(int(n.sum()))
                + np.repeat(np.repeat(off1[i[r]], blocks) - block_start, block_width))
        idx2 = np.repeat(elem2, block_width)
        bits = mach.eeq(mach.take(runs1.values, idx1), mach.take(runs2.values, idx2))
        counts = mach.segment_sum(bits, 1, n.tolist())
        parts.append(mach.take(counts, np.arange(len(n))))
    return parts[0] if len(parts) == 1 else mach.concat(*parts)


def isect_ve(mach: Machine, v1: PrivateVector, v2: PrivateVector) -> PrivateScalar:
    """Vector extension: the one-cell case of the batched count."""
    counts = _ve_counts(mach, Runs(v1), Runs(v2), np.zeros((1, 2), dtype=np.int64),
                        v1.length * v2.length)
    return mach.vget(counts, 0)


def so_adjacent_diff(mach: Machine, v1: PrivateVector, v2: PrivateVector) -> PrivateVector:
    """SO intermediate: head minus tail of the sorted merge."""
    merged = mach.sort_vec(mach.concat(v1, v2))
    total = merged.length
    head = mach.slice(merged, 0, total - 1)
    tail = mach.slice(merged, 1, total)
    return mach.esub(head, tail)


def isect_so(mach: Machine, v1: PrivateVector, v2: PrivateVector) -> PrivateScalar:
    """Sorting: equal adjacent slots of the sorted merge straddle the two
    unique-entry inputs, so counting them counts the overlap."""
    if v1.length + v2.length <= 1:
        return mach.enc(0)
    return zero_count(mach, so_adjacent_diff(mach, v1, v2))


def isect_mj(mach: Machine, v1: PrivateVector, v2: PrivateVector) -> PrivateScalar:
    """Matrix join: one oblivious equality-join gate."""
    return mach.join_count(v1, v2)


_DISPATCH = {
    Strategy.PJ: isect_pj,
    Strategy.VR: isect_vr,
    Strategy.VE: isect_ve,
    Strategy.SO: isect_so,
    Strategy.MJ: isect_mj,
}


def require_strategy(backend, strategy: Strategy):
    """Refuse, with ``CapabilityError``, a strategy the backend cannot run."""
    if not strategy_supported(strategy, backend.caps):
        raise CapabilityError(
            f"strategy {strategy.value} unsupported on {backend.kind}/{backend.profile}")


def intersection_size(mach: Machine, v1: PrivateVector, v2: PrivateVector,
                      strategy: Strategy) -> PrivateScalar:
    require_strategy(mach.b, strategy)
    return _DISPATCH[strategy](mach, v1, v2)


@dataclass
class JaccardParams:
    """Match threshold as an exact rational; a pair matches when its
    similarity lies strictly above it, on every backend."""

    threshold: Fraction

    def __post_init__(self):
        self.threshold = Fraction(self.threshold)
        if not 0 < self.threshold < 1:
            raise ValueError("jaccard threshold must lie strictly between 0 and 1")


def _over_threshold(mach: Machine, inter: PrivateVector, sums: np.ndarray,
                    params: JaccardParams) -> PrivateVector:
    """Slot k: inter[k]/(sums[k]-inter[k]) above the threshold num/den.

    With s = sums[k] public, the test is (den+num)·inter > num·s, so it holds
    exactly when inter reaches c = ⌊num·s/(den+num)⌋ + 1, a public integer.
    One gate compares 2·inter with the odd cut 2c-1: exact on integer
    domains, and on the approximate one whenever each count lies within 1/2
    of its integer.  The cuts are Python integers, so num may be any size.
    """
    num, den = params.threshold.numerator, params.threshold.denominator
    cut = [2 * (num * s // (den + num)) + 1 for s in sums.tolist()]
    # 2·inter lies in [0, 2s] and the cut in [1, s+1]
    return mach.gt(mach.add(inter, inter), mach.enc(cut), bound=2 * int(sums.max()) + 1)


def jaccard_cells(mach: Machine, runs1: Runs, runs2: Runs, cells, params: JaccardParams,
                  strategy: Strategy) -> PrivateVector:
    """Private match bits of the public cells ``(i, j)``: bit k is 1 iff the
    similarity of runs1's run i and runs2's run j lies above the threshold.

    VE runs batched over all cells (see ``_ve_counts``), in runs of at most
    ``run_slots`` of the len(runs1) x len(runs2) matrix's shape; MJ joins
    every cell in one backend call; the other strategies count each pair
    of ``slice``s and join the counts with one ``stack``.
    One threshold gate then decides every cell.  ``cells`` must not be
    empty, and a cell outside the runs is refused with ``ShapeError``.  On
    the approximate domain a count sums at most n² equality bits, n the
    longest record's container count, each off by up to ``EQ_BIT_ERROR``;
    cells for which that sum reaches 1/2 are refused.  Either refusal comes
    before any machine work.
    """
    require_strategy(mach.b, strategy)
    cells = run_cells(runs1, runs2, cells)
    len1, len2 = runs1.lengths[cells[:, 0]], runs2.lengths[cells[:, 1]]
    if mach.b.domain == APPROX:
        longest = int(max(len1.max(), len2.max()))
        worst = longest * longest * EQ_BIT_ERROR
        if worst >= 0.5:
            raise DomainError(
                f"a count over records of {longest} containers may err by {worst:.3g}, "
                "not under the 1/2 the threshold gate tolerates")
    if strategy is Strategy.VE:
        inter = _ve_counts(mach, runs1, runs2, cells, run_slots((len(runs1), len(runs2))))
    elif strategy is Strategy.MJ:
        inter = mach.join_counts(runs1, runs2, cells)
    else:
        inter = mach.stack(*(_DISPATCH[strategy](mach, runs1.run(i), runs2.run(j))
                             for i, j in cells.tolist()))
    return _over_threshold(mach, inter, len1 + len2, params)


def jaccard_match(mach: Machine, r1: PrivateVector, r2: PrivateVector,
                  params: JaccardParams, strategy: Strategy) -> PrivateScalar:
    """Private bit: similarity inter/(|r1|+|r2|-inter) above the threshold;
    the one-cell case of ``jaccard_cells``."""
    bits = jaccard_cells(mach, Runs(r1), Runs(r2), [(0, 0)], params, strategy)
    return mach.vget(bits, 0)
