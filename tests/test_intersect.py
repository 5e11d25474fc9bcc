"""Set-intersection-size strategies and the Jaccard match decision."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oblivlink import (CapabilityError, ContextMismatchError, JaccardParams, Machine, Strategy,
                       intersection_size, jaccard_match,
                       pick_strategy, supported_strategies, zero_count)
from oblivlink.intersect import (_ve_counts, estimated_cost, isect_so, isect_vr,
                                 so_adjacent_diff, ve_extend, vr_diff_sequence)
from oblivlink.machine import slot_runs

from conftest import ALL_BACKENDS, LOCAL_EXACT, dec_round, open_machine, reference_ve_indices


def _oracle(v1, v2):
    return len(set(v1) & set(v2))


# -- zero count ----------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_zero_count_examples(spec):
    mach, auth, b = open_machine(spec)
    assert dec_round(mach, auth, zero_count(mach, mach.enc([-1, 0, -3]))) == 1
    assert dec_round(mach, auth, zero_count(mach, mach.enc([0, 0, 0]))) == 3
    b.close()


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


def test_vr_sentinel_collision_checked(clear_machine):
    mach, _ = clear_machine
    with pytest.raises(ValueError):
        isect_vr(mach, mach.enc([1]), mach.enc([2]), pad=5, token_range=(0, 1 << 16))


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
    enc1, enc2 = [mach.enc(list(s)) for s in rows], [mach.enc(list(s)) for s in cols]
    b.enable_trace()
    counts = mach.join_counts(enc1, enc2, cells)
    # one join per cell, in cell order, as many one-pair joins record
    assert b.trace == [("join", (len(rows[i]),), (len(cols[j]),)) for i, j in cells]
    assert b.ledger.counts.get(("main", "join")) == (len(cells) or None)
    assert dec_round(mach, auth, counts) == [len(rows[i] & cols[j]) for i, j in cells]
    b.close()


def test_join_counts_refuses_a_foreign_handle_in_either_list():
    # each list is checked whole, whether a cell names the handle or not
    mach, _, b = open_machine("clear")
    other, _, other_b = open_machine("clear")
    v, foreign = mach.enc([1, 2]), other.enc([2])
    b.enable_trace()
    for enc1, enc2 in (([v, foreign], [v]), ([v], [v, foreign])):
        with pytest.raises(ContextMismatchError):
            mach.join_counts(enc1, enc2, [(0, 0)])
    assert b.trace == []
    b.close()
    other_b.close()


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
    mach, auth, b = open_machine(spec)
    enc1, enc2 = [mach.enc(sorted(s)) for s in rows], [mach.enc(sorted(s)) for s in cols]
    taken, take = [], Machine.take

    def capture(mach, v, idx):
        taken.append(np.asarray(idx))
        return take(mach, v, idx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Machine, "take", capture)
        counts = _ve_counts(mach, enc1, enc2, np.array(cells), max_slots)
    runs = slot_runs([(n,) for n in slots], max_slots)
    # per run: the two operand gathers, then the counts' flattening
    assert len(taken) == 3 * len(runs)
    for run, idx1, idx2 in zip(runs, taken[0::3], taken[1::3]):
        want1, want2 = reference_ve_indices(len1, len2, cells[run.start:run.stop])
        assert idx1.tolist() == want1.tolist() and idx2.tolist() == want2.tolist()
    assert dec_round(mach, auth, counts) == [len(rows[i] & cols[j]) for i, j in cells]
    b.close()


@pytest.mark.parametrize("spec", ["mpc", "sim:simd"])
def test_join_counts_refused_without_the_join_capability(spec):
    mach, _, b = open_machine(spec)
    v1, v2 = mach.enc([1, 2]), mach.enc([2, 3])
    with b.stage("filter_er"):
        with pytest.raises(CapabilityError):
            mach.join_counts([v1], [v2], [(0, 0)])
    assert not b.ledger.by_stage().get("filter_er")
    b.close()


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
    b.close()


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
    b.close()
    mach, _, b = open_machine("mpc")
    with pytest.raises(CapabilityError):
        intersection_size(mach, mach.enc([1]), mach.enc([2]), Strategy.MJ)
    b.close()
    _, _, b = open_machine("sim:sharemind")
    assert Strategy.MJ in supported_strategies(b.caps)
    assert Strategy.VR not in supported_strategies(b.caps)
    b.close()


def test_auto_picks_cheapest_supported():
    _, _, generic = open_machine("sim:generic")
    assert pick_strategy(generic.caps, 8, 8) == Strategy.MJ  # one idealized gate
    generic.close()
    _, _, simd = open_machine("sim:simd")
    assert pick_strategy(simd.caps, 8, 8) == Strategy.VE
    simd.close()
    _, _, mpc = open_machine("mpc")
    assert pick_strategy(mpc.caps, 8, 8) == Strategy.VE
    mpc.close()


def test_estimated_cost_ordering():
    _, _, b = open_machine("sim:generic")
    for n in (4, 8, 16):
        pj = estimated_cost(Strategy.PJ, n, n, b.caps)
        assert pj > estimated_cost(Strategy.VR, n, n, b.caps)
        assert pj > estimated_cost(Strategy.VE, n, n, b.caps)
    b.close()


# a distinct weight per primitive, so a miscounted primitive shows in the total
_PRIME_WEIGHTS = dict(zip(
    ("enc", "get", "add", "eq", "sub", "mul", "dec", "broadcast", "dot", "rotate",
     "concat", "take", "segment_sum", "sort", "slice", "join"),
    (3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0, 37.0, 41.0, 43.0, 47.0,
     53.0, 59.0)))


def test_ve_estimate_equals_its_ledger():
    # auto selection reads the estimate; it must price, primitive by
    # primitive, the ops one intersection of every strategy records
    for spec in ALL_BACKENDS:
        mach, _, b = open_machine(spec)
        for strategy in supported_strategies(b.caps):
            for m, n in ((1, 1), (3, 5), (5, 3), (4, 4), (2, 1)):
                v1, v2 = mach.enc(list(range(m))), mach.enc(list(range(2, 2 + n)))
                b.ledger.counts.clear()
                intersection_size(mach, v1, v2, strategy)
                for weights in (None, _PRIME_WEIGHTS):
                    assert b.ledger.total(weights) == \
                        estimated_cost(strategy, m, n, b.caps, weights), \
                        (spec, strategy, m, n, weights)
        b.close()


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
    b.close()


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
