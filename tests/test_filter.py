"""Batched filter/resolve: every revealed cell against an exact oracle,
obliviousness of the batch, and the comparison gate's declared bound."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oblivlink import (DomainError, JaccardParams, MinHasher, PipelineConfig, Runs, Strategy,
                       assert_oblivious, generate_dataset, jaccard_cells, optimal_band_plan,
                       plain_blocked_pairs, plain_matches, run_pper, supported_strategies)
from oblivlink.pipeline import filter_and_resolve

from conftest import ALL_BACKENDS, dec_round, open_machine, upload_runs

MAX_LEN = 5  # tokens per record, so a union holds at most 2 * MAX_LEN
# Reachable ratios i/u with u <= 10 lie at least 1/90 apart, so a ratio
# moved by OFFSET is never reachable.  Every backend decides a threshold at
# a reachable ratio, a tie, exactly too: the gate compares twice the count
# with a public odd cut, and on the simd profile a count errs by under
# MAX_LEN² · EQ_BIT_ERROR, far below the 1/2 that would move it across.
OFFSET = Fraction(1, 200)


def _strategies(spec):
    _, _, b = open_machine(spec)
    return supported_strategies(b.caps)


CASES = [(spec, s) for spec in ALL_BACKENDS for s in _strategies(spec)]


def _jaccard(a, b):
    return Fraction(len(set(a) & set(b)), len(set(a) | set(b)))


@st.composite
def filter_inputs(draw):
    """Records drawn from one small token pool, so that pairs overlap, a
    revealed mask, and the cell, side and tie flag that place the threshold
    (see ``_threshold``)."""
    pool = draw(st.lists(st.integers(0, (1 << 16) - 1), min_size=1, max_size=8, unique=True))
    record = st.lists(st.sampled_from(pool), min_size=1, max_size=MAX_LEN, unique=True)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    recs1 = [draw(record) for _ in range(rows)]
    recs2 = [draw(record) for _ in range(cols)]
    bits = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    obfu = np.array(bits, dtype=bool).reshape(rows, cols)
    pick = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)),
            draw(st.booleans()), draw(st.booleans()))
    return recs1, recs2, obfu, pick


def _threshold(recs1, recs2, pick) -> Fraction:
    """A threshold next to one cell's ratio: the ratio itself when ``tie`` is
    set (a tie must not match), else the ratio moved by OFFSET up or down,
    staying inside (0, 1)."""
    i, j, above, tie = pick
    ratio = _jaccard(recs1[i], recs2[j])
    if tie and 0 < ratio < 1:
        return ratio
    if ratio == 1 or (ratio > 0 and not above):
        return ratio - OFFSET
    return ratio + OFFSET


@pytest.mark.parametrize("spec,strategy", CASES, ids=[f"{s}-{t.value}" for s, t in CASES])
@given(inputs=filter_inputs())
def test_filter_equals_exact_jaccard_oracle(spec, strategy, inputs):
    recs1, recs2, obfu, pick = inputs
    mach, auth, _ = open_machine(spec)
    t = _threshold(recs1, recs2, pick)
    results, evaluated = filter_and_resolve(
        mach, upload_runs(mach, recs1), upload_runs(mach, recs2), obfu,
        JaccardParams(t), strategy)
    got = dec_round(mach, auth, results)
    want = [[int(bool(obfu[i, j]) and _jaccard(r1, r2) > t) for j, r2 in enumerate(recs2)]
            for i, r1 in enumerate(recs1)]
    assert evaluated == int(obfu.sum())
    assert got == want


TWIN_SPECS = [(spec, s) for spec in ("sim:simd", "mpc") for s in _strategies(spec)]


@pytest.mark.parametrize("spec,strategy", TWIN_SPECS,
                         ids=[f"{s}-{t.value}" for s, t in TWIN_SPECS])
def test_filter_twin_traces_identical(spec, strategy):
    # same record lengths and revealed mask; the first twin's records share
    # most tokens, the second twin's share none
    lengths1, lengths2 = [3, 1, 4], [2, 5]
    obfu = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
    shared = [[7, 8, 9], [8], [6, 7, 8, 9]], [[8, 9], [5, 6, 7, 8, 9]]
    rng = np.random.default_rng(9)
    tokens = rng.choice(60000, size=sum(lengths1) + sum(lengths2), replace=False) + 100
    cut = sum(lengths1)
    disjoint = (np.split(tokens[:cut], np.cumsum(lengths1)[:-1]),
                np.split(tokens[cut:], np.cumsum(lengths2)[:-1]))

    def trace(recs):
        mach, _, b = open_machine(spec)
        b.enable_trace()
        filter_and_resolve(mach, upload_runs(mach, recs[0]), upload_runs(mach, recs[1]), obfu,
                           JaccardParams(Fraction(1, 2)), strategy)
        out = list(b.trace)
        return out

    assert_oblivious(trace(shared), trace(disjoint))


# -- the comparison gate's bound ---------------------------------------------------


@pytest.mark.parametrize("spec", ["clear", "mpc"])
def test_gt_refuses_a_bound_at_the_gate_limit(spec):
    mach, auth, b = open_machine(spec)
    a, c = mach.enc([5, 1]), mach.enc([1, 5])
    assert mach.dec(mach.gt(a, c, bound=(1 << 32) - 1), auth) == [1, 0]
    if spec == "mpc":
        with pytest.raises(DomainError):
            mach.gt(a, c, bound=1 << 32)
    else:  # exact local gates compare the whole domain
        assert mach.dec(mach.gt(a, c, bound=1 << 62), auth) == [1, 0]
    assert b.ledger.by_op()["gt"] == (1 if spec == "mpc" else 2)  # the refused gate never ran


def test_fine_threshold_denominator_links_the_oracle_on_every_backend():
    # the cut is public, so the gate's bound 2 * max(s1 + s2) + 1 does not
    # grow with den = 2^34, and mpc's 2^32 gate decides this threshold too
    d1, d2, _ = generate_dataset(seed=0, size=60)
    t = Fraction(2 ** 33 - 1, 2 ** 34)
    oracle = plain_blocked_pairs(d1, d2, optimal_band_plan(0.5), MinHasher(128, 0)) \
        & plain_matches(d1, d2, t)
    assert oracle
    for spec in ("clear", "mpc", "sim:simd"):
        kind, _, profile = spec.partition(":")
        config = PipelineConfig(backend=kind, profile=profile or "generic", strategy="ve",
                                rho=0.05, t_jaccard=t)
        assert set(run_pper(d1, d2, config).matches) == oracle, spec


def test_simd_cell_past_the_count_error_bound_raises_before_any_work():
    # 710² equality bits may err by 710² · EQ_BIT_ERROR > 1/2 in one count,
    # which could move it across the cut; 700² stays under 1/2 and links
    for size, refused in ((710, True), (700, False)):
        mach, auth, b = open_machine("sim:simd")
        r1, r2 = mach.enc(list(range(size))), mach.enc(list(range(1, size + 1)))
        b.ledger.counts.clear()
        params = JaccardParams(Fraction(1, 2))
        if refused:
            with pytest.raises(DomainError):
                jaccard_cells(mach, Runs(r1), Runs(r2), [(0, 0)], params, Strategy.VE)
            assert b.ledger.total() == 0
        else:
            bits = jaccard_cells(mach, Runs(r1), Runs(r2), [(0, 0)], params, Strategy.VE)
            assert dec_round(mach, auth, bits) == [1]  # 699/701 > 1/2
