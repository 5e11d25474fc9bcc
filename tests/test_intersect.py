"""Set-intersection-size strategies and the Jaccard match decision."""

from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oblivlink import (CapabilityError, ContextMismatchError, JaccardParams, Machine, ShapeError,
                       Strategy, intersection_size, jaccard_match,
                       pick_strategy, supported_strategies, zero_count)
from oblivlink.backends import CAPS_ALL, CAPS_SIMD, local
from oblivlink.intersect import (_dry_run_ops, _ve_counts, estimated_cost, isect_so, isect_vr,
                                 so_adjacent_diff, ve_extend, vr_diff_sequence)
from oblivlink.machine import Runs, slot_runs

from conftest import (ALL_BACKENDS, LOCAL_EXACT, dec_round, open_machine, reference_ve_indices,
                      upload_runs)


def _oracle(v1, v2):
    return len(set(v1) & set(v2))


# -- zero count ----------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_zero_count_examples(spec):
    mach, auth, _ = open_machine(spec)
    assert dec_round(mach, auth, zero_count(mach, mach.enc([-1, 0, -3]))) == 1
    assert dec_round(mach, auth, zero_count(mach, mach.enc([0, 0, 0]))) == 3


def test_zero_count_random_oracle(clear_machine):
    mach, auth = clear_machine
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.integers(-3, 4, size=int(rng.integers(0, 20))).tolist()
        assert mach.dec(zero_count(mach, mach.enc(v)), auth) == v.count(0)


# -- worked examples -----------------------------------------------------------


def test_pj_examples(clear_machine):
    mach, auth = clear_machine
    assert mach.dec(intersection_size(mach, mach.enc([7]), mach.enc([7]), Strategy.PJ), auth) == 1
    assert mach.dec(intersection_size(mach, mach.enc([1, 2, 4]), mach.enc([2, 3]), Strategy.PJ), auth) == 1


def test_vr_first_iteration_diff_matches_worked_example(clear_machine):
    # inputs [1,2] padded with 0 against [2,2,3]; first difference is the
    # unrotated subtraction
    mach, auth = clear_machine
    diffs = vr_diff_sequence(mach, mach.enc([1, 2]), mach.enc([2, 2, 3]), pad=0)
    assert len(diffs) == 3
    assert mach.dec(diffs[0], auth) == [-1, 0, -3]


def test_vr_disjoint_and_oracle(clear_machine):
    mach, auth = clear_machine
    assert mach.dec(isect_vr(mach, mach.enc([1, 2]), mach.enc([3, 4, 5])), auth) == 0
    rng = np.random.default_rng(11)
    for _ in range(40):
        v1 = list(dict.fromkeys(rng.integers(0, 60, size=int(rng.integers(1, 16))).tolist()))
        v2 = list(dict.fromkeys(rng.integers(0, 60, size=int(rng.integers(1, 16))).tolist()))
        got = mach.dec(isect_vr(mach, mach.enc(v1), mach.enc(v2)), auth)
        assert got == _oracle(v1, v2)


def test_ve_intermediates_match_worked_example(clear_machine):
    mach, auth = clear_machine
    v1e, v2e = ve_extend(mach, mach.enc([1, 2, 4]), mach.enc([2, 3]))
    assert mach.dec(v1e, auth) == [1, 2, 4, 1, 2, 4]
    assert mach.dec(v2e, auth) == [2, 2, 2, 3, 3, 3]
    diff = mach.esub(v1e, v2e)
    assert mach.dec(diff, auth) == [-1, 0, 2, -2, -1, 1]
    assert mach.dec(zero_count(mach, diff), auth) == 1


def test_ve_singleton(clear_machine):
    mach, auth = clear_machine
    assert mach.dec(intersection_size(mach, mach.enc([5]), mach.enc([5]), Strategy.VE), auth) == 1


def test_so_intermediate_matches_worked_example(clear_machine):
    mach, auth = clear_machine
    diff = so_adjacent_diff(mach, mach.enc([1, 2, 4]), mach.enc([2, 3]))
    assert mach.dec(diff, auth) == [-1, 0, -1, -1]
    got = mach.dec(intersection_size(mach, mach.enc([1, 2, 4]), mach.enc([2, 3]), Strategy.SO), auth)
    assert got == 1


def test_so_empty_inputs(clear_machine):
    mach, auth = clear_machine
    assert mach.dec(isect_so(mach, mach.enc([]), mach.enc([])), auth) == 0


def test_mj_examples(clear_machine):
    mach, auth = clear_machine
    assert mach.dec(intersection_size(mach, mach.enc([1, 2, 4]), mach.enc([2, 3]), Strategy.MJ), auth) == 1
    same = [3, 1, 4, 15, 9]
    assert mach.dec(intersection_size(mach, mach.enc(same), mach.enc(same), Strategy.MJ), auth) == 5


_TOKEN_SETS = st.lists(st.sets(st.integers(0, 30), max_size=8), min_size=1, max_size=4)


@pytest.mark.parametrize("spec", LOCAL_EXACT)
@given(rows=_TOKEN_SETS, cols=_TOKEN_SETS, data=st.data())
def test_join_counts_equal_set_intersections(spec, rows, cols, data):
    cells = data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                         st.integers(0, len(cols) - 1)), max_size=8))
    mach, auth, b = open_machine(spec)
    enc1, enc2 = upload_runs(mach, rows), upload_runs(mach, cols)
    b.enable_trace()
    counts = mach.join_counts(enc1, enc2, cells)
    # one join per cell, in cell order, as many one-pair joins record
    assert b.trace == [("join", (len(rows[i]),), (len(cols[j]),)) for i, j in cells]
    assert b.ledger.counts.get(("main", "join")) == (len(cells) or None)
    assert dec_round(mach, auth, counts) == [len(rows[i] & cols[j]) for i, j in cells]


def _per_cell_join(rows, cols, cells):
    """MJ's join as it was before one array pass: one ``np.intersect1d``
    per cell."""
    return [len(np.intersect1d(np.array(rows[i], dtype=np.uint64),
                               np.array(cols[j], dtype=np.uint64), assume_unique=True))
            for i, j in cells]


# 64-bit containers, pack-4 ones at and above 2^63 among them, drawn from a
# small pool as well so that vectors share some
_CONTAINERS = st.one_of(st.sampled_from([0, 1, 7, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]),
                        st.integers(0, (1 << 64) - 1))


@pytest.mark.parametrize("spec", LOCAL_EXACT)
@given(rows=st.lists(st.lists(_CONTAINERS, max_size=6, unique=True), min_size=1, max_size=4),
       cols=st.lists(st.lists(_CONTAINERS, max_size=6, unique=True), min_size=1, max_size=4),
       chunk=st.integers(1, 12), data=st.data())
def test_join_counts_equal_per_cell_intersect1d(spec, rows, cols, chunk, data):
    # unsorted, empty and shared vectors; no cells, or cells repeated and in
    # any order; a chunk budget small enough that most calls run several
    cells = data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                         st.integers(0, len(cols) - 1)), max_size=10))
    mach, auth, b = open_machine(spec)
    enc1, enc2 = upload_runs(mach, rows), upload_runs(mach, cols)
    with mock.patch.object(local, "_JOIN_CHUNK", chunk):
        counts = mach.join_counts(enc1, enc2, cells)
    assert b.ledger.counts.get(("main", "join"), 0) == len(cells)
    assert mach.dec(counts, auth) == _per_cell_join(rows, cols, cells)


@pytest.mark.parametrize("cells", [[(2, 0)], [(0, 1)], [(-1, 0)], [(0, 0), (0, -1)]])
def test_join_counts_refuse_a_cell_outside_the_lists(cells):
    mach, _, b = open_machine("clear")
    runs1, runs2 = upload_runs(mach, [[1, 2], [1, 2]]), upload_runs(mach, [[1, 2]])
    b.enable_trace()
    with pytest.raises(ShapeError):
        mach.join_counts(runs1, runs2, cells)
    assert b.trace == [] and not b.ledger.by_op().get("join")


def test_join_counts_refuses_a_foreign_handle_in_either_list():
    # runs of another context are refused on either side
    mach, _, b = open_machine("clear")
    other, _, _ = open_machine("clear")
    v, foreign = upload_runs(mach, [[1, 2]]), upload_runs(other, [[2]])
    b.enable_trace()
    for enc1, enc2 in ((foreign, v), (v, foreign)):
        with pytest.raises(ContextMismatchError):
            mach.join_counts(enc1, enc2, [(0, 0)])
    assert b.trace == []


@pytest.mark.parametrize("spec", ["sim:generic", "sim:simd", "mpc"])
@given(rows=_TOKEN_SETS, cols=_TOKEN_SETS, data=st.data())
def test_ve_gathers_the_slot_formula_layout(spec, rows, cols, data):
    # records of 0, 1 and many tokens; cells may repeat
    cells = data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                         st.integers(0, len(cols) - 1)),
                               min_size=1, max_size=8))
    len1, len2 = [len(s) for s in rows], [len(s) for s in cols]
    slots = [len1[i] * len2[j] for i, j in cells]
    # a run bound below one cell's slots splits runs down to single cells
    max_slots = data.draw(st.integers(1, 2 * max(slots) + 1))
    mach, auth, _ = open_machine(spec)
    enc1 = upload_runs(mach, [sorted(s) for s in rows])
    enc2 = upload_runs(mach, [sorted(s) for s in cols])
    taken, take = [], Machine.take

    def capture(mach, v, idx):
        taken.append(np.asarray(idx))
        return take(mach, v, idx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Machine, "take", capture)
        counts = _ve_counts(mach, enc1, enc2, np.array(cells), max_slots)
    runs = slot_runs(slots, max_slots)
    # per run: the two operand gathers, then the counts' flattening
    assert len(taken) == 3 * len(runs)
    for run, idx1, idx2 in zip(runs, taken[0::3], taken[1::3]):
        want1, want2 = reference_ve_indices(len1, len2, cells[run.start:run.stop])
        assert idx1.tolist() == want1.tolist() and idx2.tolist() == want2.tolist()
    assert dec_round(mach, auth, counts) == [len(rows[i] & cols[j]) for i, j in cells]


@pytest.mark.parametrize("spec", ["mpc", "sim:simd"])
def test_join_counts_refused_without_the_join_capability(spec):
    mach, _, b = open_machine(spec)
    v1, v2 = mach.enc([1, 2]), mach.enc([2, 3])
    with b.stage("filter_er"):
        with pytest.raises(CapabilityError):
            mach.join_counts(Runs(v1), Runs(v2), [(0, 0)])
    assert not b.ledger.by_stage().get("filter_er")


# -- agreement / symmetry / capability ------------------------------------------


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_strategy_agreement_random(spec):
    mach, auth, b = open_machine(spec, seed=3)
    rng = np.random.default_rng(13)
    strategies = supported_strategies(b.caps)
    for _ in range(25):
        v1 = list(dict.fromkeys(rng.integers(0, 5000, size=int(rng.integers(1, 12))).tolist()))
        v2 = list(dict.fromkeys(rng.integers(0, 5000, size=int(rng.integers(1, 12))).tolist()))
        expected = _oracle(v1, v2)
        e1, e2 = mach.enc(v1), mach.enc(v2)
        for strat in strategies:
            assert dec_round(mach, auth, intersection_size(mach, e1, e2, strat)) == expected


def test_symmetry(clear_machine):
    mach, auth = clear_machine
    rng = np.random.default_rng(19)
    for _ in range(20):
        v1 = list(dict.fromkeys(rng.integers(0, 99, size=int(rng.integers(1, 10))).tolist()))
        v2 = list(dict.fromkeys(rng.integers(0, 99, size=int(rng.integers(1, 10))).tolist()))
        for strat in Strategy:
            a = mach.dec(intersection_size(mach, mach.enc(v1), mach.enc(v2), strat), auth)
            c = mach.dec(intersection_size(mach, mach.enc(v2), mach.enc(v1), strat), auth)
            assert a == c


def test_capability_gating():
    mach, _, b = open_machine("sim:simd")
    with pytest.raises(CapabilityError):
        intersection_size(mach, mach.enc([1.0]), mach.enc([2.0]), Strategy.SO)
    mach, _, b = open_machine("mpc")
    with pytest.raises(CapabilityError):
        intersection_size(mach, mach.enc([1]), mach.enc([2]), Strategy.MJ)
    _, _, b = open_machine("sim:sharemind")
    assert Strategy.MJ in supported_strategies(b.caps)
    assert Strategy.VR not in supported_strategies(b.caps)


def test_auto_picks_cheapest_supported():
    _, _, generic = open_machine("sim:generic")
    assert pick_strategy(generic.caps, 8, 8) == Strategy.MJ  # one idealized gate
    _, _, simd = open_machine("sim:simd")
    assert pick_strategy(simd.caps, 8, 8) == Strategy.VE
    _, _, mpc = open_machine("mpc")
    assert pick_strategy(mpc.caps, 8, 8) == Strategy.VE


def test_estimated_cost_ordering():
    _, _, b = open_machine("sim:generic")
    for n in (4, 8, 16):
        pj = estimated_cost(Strategy.PJ, n, n, b.caps)
        assert pj > estimated_cost(Strategy.VR, n, n, b.caps)
        assert pj > estimated_cost(Strategy.VE, n, n, b.caps)


def test_ve_estimate_equals_its_ledger():
    # auto selection reads the dry run's counts; they must equal, primitive
    # by primitive, the ops one intersection of every strategy records on
    # every backend and domain
    for spec in ALL_BACKENDS:
        mach, _, b = open_machine(spec)
        for strategy in supported_strategies(b.caps):
            for m, n in ((1, 1), (3, 5), (5, 3), (4, 4), (2, 1)):
                v1, v2 = mach.enc(list(range(m))), mach.enc(list(range(2, 2 + n)))
                b.ledger.counts.clear()
                intersection_size(mach, v1, v2, strategy)
                assert b.ledger.by_op() == dict(_dry_run_ops(strategy, m, n, b.caps)), \
                    (spec, strategy, m, n)


# The estimates that the hand-counted formula gave before the dry run
# replaced it: a change in what a strategy records moves them, and auto's
# choice with them.
_ESTIMATE_PINS = [
    (CAPS_ALL, 8, 8, {Strategy.PJ: 201, Strategy.VR: 65, Strategy.VE: 6, Strategy.SO: 10,
                      Strategy.MJ: 1}),
    (CAPS_SIMD, 8, 8, {Strategy.PJ: 1161, Strategy.VR: 161, Strategy.VE: 18}),
    (CAPS_ALL, 30, 35, {Strategy.PJ: 3181}),
    (CAPS_SIMD, 30, 35, {Strategy.PJ: 18931}),
]


def test_estimated_cost_pins():
    for caps, m, n, costs in _ESTIMATE_PINS:
        assert {s: estimated_cost(s, m, n, caps) for s in costs} == costs, (caps, m, n)


def _readme_strategy_table() -> dict[str, list[str]]:
    """README's strategy table: backend spec -> the strategies it marks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("| ")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    table = {}
    for line in lines[1:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        table[cells[0].replace(" ", ":")] = [h for h, c in zip(header[1:], cells[1:]) if c]
    return table


_AUTO_AT_42 = {"clear": Strategy.MJ, "sim:generic": Strategy.MJ, "sim:simd": Strategy.VE,
               "sim:sharemind": Strategy.MJ, "mpc": Strategy.VE}


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_strategy_table_and_auto_choice(spec):
    # the table is README's; 42 containers is the workloads' mean record size
    _, _, b = open_machine(spec)
    assert [s.value for s in supported_strategies(b.caps)] == _readme_strategy_table()[spec]
    assert pick_strategy(b.caps, 42, 42) is _AUTO_AT_42[spec]
    if spec == "mpc":
        assert pick_strategy(b.caps, 1, 1) is Strategy.PJ


# -- jaccard -------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_jaccard_examples(spec):
    mach, auth, b = open_machine(spec)
    strat = supported_strategies(b.caps)[0]
    v1, v2 = mach.enc([1, 2, 4]), mach.enc([2, 3])
    # inter=1, sizes 3+2: similarity 1/4; 0.25 <= 0.3 so no match
    assert dec_round(mach, auth, jaccard_match(mach, v1, v2, JaccardParams(Fraction(3, 10)), strat)) == 0
    # 5*1 > 1*4 under t=1/5
    assert dec_round(mach, auth, jaccard_match(mach, v1, v2, JaccardParams(Fraction(1, 5)), strat)) == 1
    same = mach.enc([10, 20, 30])
    assert dec_round(mach, auth, jaccard_match(mach, same, same, JaccardParams(Fraction(99, 100)), strat)) == 1


def test_jaccard_params_validation():
    with pytest.raises(ValueError):
        JaccardParams(Fraction(0))
    with pytest.raises(ValueError):
        JaccardParams(Fraction(1))


def test_division_free_equivalence_exhaustive():
    # oracle: exact rational comparison; division-free form: den*inter >
    # num*(s1+s2-inter); the gate's cut form: 2*inter > 2*floor(num*s/(den+num))+1
    # with s = s1+s2; checked for all inter <= min(s1,s2) <= 64, t=k/100
    ks = np.arange(1, 100)
    for s1 in range(1, 65):
        for s2 in range(1, 65):
            inters = np.arange(0, min(s1, s2) + 1)
            union = s1 + s2 - inters
            lhs = 100 * inters[:, None] > ks[None, :] * union[:, None]
            cut = 2 * (ks * (s1 + s2) // (100 + ks)) + 1
            cut_form = 2 * inters[:, None] > cut[None, :]
            assert np.array_equal(cut_form, lhs)
            for i, inter in enumerate(inters):
                frac = Fraction(int(inter), int(s1 + s2 - inter))
                true_count = sum(1 for k in (25, 50, 75) if frac > Fraction(k, 100))
                fast_count = int(lhs[i, [24, 49, 74]].sum())
                assert true_count == fast_count
            # full-resolution spot check via cross-multiplied exact oracle
            exact = np.array([[Fraction(int(i), int(s1 + s2 - i)) > Fraction(int(k), 100)
                               for k in (1, 33, 66, 99)] for i in inters])
            assert np.array_equal(lhs[:, [0, 32, 65, 98]], exact)
            assert np.array_equal(cut_form[:, [0, 32, 65, 98]], exact)

def test_jaccard_threshold_monotonicity(clear_machine):
    mach, auth = clear_machine
    rng = np.random.default_rng(43)
    pairs = []
    for _ in range(15):
        v1 = list(dict.fromkeys(rng.integers(0, 30, size=8).tolist()))
        v2 = list(dict.fromkeys(rng.integers(0, 30, size=8).tolist()))
        pairs.append((v1, v2))
    previous = None
    for t in (Fraction(8, 10), Fraction(5, 10), Fraction(2, 10)):
        matched = set()
        for i, (v1, v2) in enumerate(pairs):
            bit = mach.dec(jaccard_match(mach, mach.enc(v1), mach.enc(v2),
                                         JaccardParams(t), Strategy.VE), auth)
            if bit:
                matched.add(i)
        if previous is not None:
            assert previous <= matched  # lowering t never removes a match
        previous = matched
