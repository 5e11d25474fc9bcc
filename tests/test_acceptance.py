"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured evidence.  Criterion 4 audits the band/rows optimizer
against the reference band counts (blocking keys per record)."""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from oblivlink import (JaccardParams, MinHasher, PipelineConfig,
                       Strategy, TaintViolation, assert_oblivious,
                       generate_dataset, intersection_size, jaccard_match,
                       make_backend, optimal_band_plan, performance_sweep,
                       plain_blocked_pairs, plain_matches, run_pper,
                       supported_strategies, zero_count)
from oblivlink.blocking import _weighted_error
from oblivlink.intersect import so_adjacent_diff, ve_extend, vr_diff_sequence
from oblivlink.mpc import reconstruct3, share3
from oblivlink.mpc.sharing import rand_u64

from conftest import ALL_BACKENDS, dec_round, open_machine

SEED = 0
BACKENDS = ALL_BACKENDS


def _report(criterion, status, detail):
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")


# -- 1: worked-example fixtures ------------------------------------------------


def test_criterion_1_worked_example_fixtures():
    start = time.perf_counter()
    mach, auth, _ = open_machine("clear")

    v1e, v2e = ve_extend(mach, mach.enc([1, 2, 4]), mach.enc([2, 3]))
    assert mach.dec(v1e, auth) == [1, 2, 4, 1, 2, 4]
    assert mach.dec(v2e, auth) == [2, 2, 2, 3, 3, 3]
    ve_count = mach.dec(zero_count(mach, mach.esub(v1e, v2e)), auth)
    assert ve_count == 1

    so_diff = so_adjacent_diff(mach, mach.enc([1, 2, 4]), mach.enc([2, 3]))
    assert mach.dec(so_diff, auth) == [-1, 0, -1, -1]
    so_count = mach.dec(intersection_size(mach, mach.enc([1, 2, 4]),
                                          mach.enc([2, 3]), Strategy.SO), auth)
    assert so_count == 1

    # [1,2] padded with the arbitrary absent value 0 against [2,2,3]
    vr_first = vr_diff_sequence(mach, mach.enc([1, 2]), mach.enc([2, 2, 3]), pad=0)[0]
    assert mach.dec(vr_first, auth) == [-1, 0, -3]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "PASS", f"VE/SO/VR intermediates exact, {elapsed:.3f}s")


# -- 2: strategy/oracle equivalence ----------------------------------------------


def test_criterion_2_strategy_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    pairs = []
    for _ in range(1000):
        n1 = int(rng.integers(1, 33))
        n2 = int(rng.integers(1, 33))
        v1 = rng.choice(1 << 16, size=n1, replace=False).tolist()
        v2 = rng.choice(1 << 16, size=n2, replace=False).tolist()
        pairs.append((v1, v2, len(set(v1) & set(v2))))

    checked = 0
    for spec in BACKENDS:
        mach, auth, b = open_machine(spec, seed=SEED)
        strategies = supported_strategies(b.caps)
        for v1, v2, expected in pairs:
            e1, e2 = mach.enc(v1), mach.enc(v2)
            for strat in strategies:
                got = dec_round(mach, auth, intersection_size(mach, e1, e2, strat))
                assert got == expected, (spec, strat, v1, v2, got, expected)
                checked += 1
    elapsed = time.perf_counter() - start
    _report(2, "PASS", f"{checked} strategy evaluations across {len(BACKENDS)} "
                       f"backends agree with brute force, {elapsed:.1f}s")


# -- 3: end-to-end oracle equivalence ----------------------------------------------


def test_criterion_3_end_to_end_oracle_equivalence():
    start = time.perf_counter()
    d1, d2, _ = generate_dataset(seed=SEED, size=100, split=0.2)
    hasher = MinHasher(128, SEED)
    runs = 0
    for t_jaccard, t_block in ((Fraction(1, 5), 0.2), (Fraction(1, 2), 0.5),
                               (Fraction(4, 5), 0.8)):
        plan = optimal_band_plan(t_block)
        oracle = plain_blocked_pairs(d1, d2, plan, hasher) & plain_matches(d1, d2, t_jaccard)
        oracle_csv = "\n".join(f"{a},{b}" for a, b in sorted(oracle))
        for spec in BACKENDS:
            kind, _, profile = spec.partition(":")
            for rho in (0.0, 0.05):
                cfg = PipelineConfig(backend=kind, profile=profile or "generic",
                                     strategy="auto", t_jaccard=t_jaccard,
                                     t_block=t_block, rho=rho, seed=SEED)
                result = run_pper(d1, d2, cfg)
                got_csv = "\n".join(f"{a},{b}" for a, b in result.matches)
                assert got_csv == oracle_csv, (spec, str(t_jaccard), rho)
                runs += 1
    elapsed = time.perf_counter() - start
    _report(3, "PASS", f"{runs} pipeline runs byte-identical to the blocking+ER "
                       f"oracle, {elapsed:.1f}s")


# -- 4: band/range optimizer vs reference key sizes ----------------------------------


def test_criterion_4_band_range_optimizer():
    """The reference figures {28, 25, 9} for thresholds {0.2, 0.5, 0.8} are
    band counts: the number of blocking keys per record (``BandPlan.bands``),
    not the key size (``BandPlan.rows``).  Each is audited against the
    exhaustive argmin of the weighted false-positive/false-negative objective.
    Where the computed band count differs, the reference count is forced and
    the best key size for it is searched; the criterion fails if that plan's
    objective is more than 1% worse than the argmin's."""
    reference = {0.2: 28, 0.5: 25, 0.8: 9}
    lines = []
    failures = []
    for threshold, expected_bands in reference.items():
        plan = optimal_band_plan(threshold)
        if plan.bands == expected_bands:
            knee = (1 / plan.bands) ** (1 / plan.rows)
            lines.append(f"t={threshold}: (bands={plan.bands}, rows={plan.rows}) "
                         f"objective={plan.objective:.5f}, S-curve near {knee:.2f}, "
                         f"matches the reference")
            continue
        # best achievable objective with the reference value forced as bands
        forced = min(
            (_weighted_error(threshold, expected_bands, rows,
                             plan.fp_weight, plan.fn_weight), rows)
            for rows in range(1, 128 // expected_bands + 1))
        gap = (forced[0] - plan.objective) / plan.objective
        lines.append(
            f"t={threshold}: computed (bands={plan.bands}, rows={plan.rows}) "
            f"objective={plan.objective:.5f}; forcing bands={expected_bands} "
            f"(best rows={forced[1]}) gives {forced[0]:.5f}, gap={gap * 100:.1f}%")
        if gap > 0.01:
            failures.append(threshold)
    analysis = (
        "the reference figures count bands (keys per record), not rows "
        "(signature slots per key)")
    detail = "; ".join(lines) + " | " + analysis
    if failures:
        _report(4, "FAIL", detail)
        pytest.fail(
            "optimizer argmin differs from the reference band counts beyond the "
            "1% objective gap: " + detail)
    _report(4, "PASS", detail)


# -- 5: metrics trend -----------------------------------------------------------------


def test_criterion_5_metrics_trend():
    d1, d2, gold = generate_dataset(seed=SEED, size=100, split=0.2)
    rows = performance_sweep(d1, d2, gold, minhash_seed=SEED)
    pcs = [r["report"].pairs_completeness for r in rows]
    rrs = [r["report"].reduction_ratio for r in rows]
    thresholds = [r["threshold"] for r in rows]

    for t, pc in zip(thresholds, pcs):
        if t <= 0.5:
            assert pc == 1.0, (t, pc)
    assert all(pcs[i] >= pcs[i + 1] - 1e-12 for i in range(len(pcs) - 1))
    assert all(rrs[i] <= rrs[i + 1] + 1e-12 for i in range(len(rrs) - 1))

    plateau = [r["threshold"] for r in rows
               if 0.4 <= r["threshold"] <= 0.6
               and r["report"].precision == 1.0 and r["report"].recall == 1.0]
    assert plateau, "no threshold in [0.4, 0.6] reaches precision=recall=1.0"
    _report(5, "PASS", f"PC=1.0 up to t=0.5, monotone PC/RR, "
                       f"precision=recall=1.0 at t in {plateau}")


# -- 6: obliviousness --------------------------------------------------------------


def _machine_op_trace(seed_tokens):
    mach, auth, b = open_machine("sim:generic", seed=SEED)
    b.enable_trace()
    t = seed_tokens
    s1, s2 = mach.enc(t[0]), mach.enc(t[1])
    v1, v2 = mach.enc(t[2:8]), mach.enc(t[8:14])
    m1 = mach.enc([t[2:5], t[5:8]])
    m2 = mach.enc([t[8:11], t[11:14]])
    mach.add(s1, s2); mach.sub(s1, s2); mach.mul(s1, s2)
    mach.eadd(v1, v2); mach.esub(v1, v2); mach.emul(v1, v2)
    mach.dot(v1, v2); mach.rshift(v1, 2); mach.lshift(v1, 1)
    mach.transpose(m1); mach.mul(m1, mach.transpose(m2))
    # both twins draw their tokens from [0, 10000), which bounds every gap
    mach.eeq(v1, v2); mach.eeq_scalar(s1, s2); mach.gt(s1, s2, bound=10_000)
    mach.choose(mach.gt(s1, s2, bound=10_000), s1, s2)
    mach.choose_vec(mach.eeq(v1, v2), v1, v2)
    mach.choose_vec_ext(mach.gt(s1, s2, bound=10_000), v1, v2)
    mach.choose_mat(mach.emul(m1, mach.enc([[0] * 3] * 2)), m1, m2)
    mach.choose_mat_ext(mach.gt(s1, s2, bound=10_000), m1, m2)
    mach.mask_gen(6, mach.enc(3))
    mach.vector_lookup(v1, mach.enc(2))
    mach.vector_update(v1, mach.enc(1), s1)
    mach.matrix_lookup(m1, mach.enc(1), mach.enc(0))
    mach.matrix_update(m1, mach.enc(0), mach.enc(2), s2)
    mach.sort_vec(v1); mach.join_count(v1, v2)
    for strat in Strategy:
        intersection_size(mach, v1, v2, strat)
    jaccard_match(mach, v1, v2, JaccardParams(Fraction(1, 2)), Strategy.VE)
    trace = list(b.trace)
    return trace


def test_criterion_6_obliviousness():
    rng = np.random.default_rng(3)
    tokens_a = rng.choice(5000, size=14, replace=False).tolist()
    tokens_b = (rng.choice(5000, size=14, replace=False) + 5000).tolist()
    assert_oblivious(_machine_op_trace(tokens_a), _machine_op_trace(tokens_b))

    # full pipeline twins: same shapes and digests, different contents
    from test_pipeline import _twin_uploads
    from oblivlink import run_pper_from_uploads

    def pipeline_trace(shift):
        u1, u2 = _twin_uploads(shift)
        backend = make_backend("sim", "generic", seed=SEED)
        backend.enable_trace()
        cfg = PipelineConfig(backend="sim", strategy="ve",
                             t_jaccard=Fraction(1, 2), rho=0.0, seed=SEED)
        result = run_pper_from_uploads(u1, u2, cfg, backend=backend)
        return result.trace

    assert_oblivious(pipeline_trace(0), pipeline_trace(13))

    mach, _, _ = open_machine("sim:generic")
    secret = mach.enc(1)
    with pytest.raises(TaintViolation):
        if secret:
            pass
    _report(6, "PASS", "machine-op and full-pipeline twin traces identical; "
                       "leaky gadget raises TaintViolation")


# -- 7: mpc backend ----------------------------------------------------------------


def test_criterion_7_mpc_backend():
    rng = np.random.default_rng(SEED)
    values = rand_u64(rng, (10_000,))
    assert np.array_equal(reconstruct3(share3(values, rng)), values)

    mach, auth, b = open_machine("mpc", seed=SEED)
    xs = rng.integers(0, 1 << 62, size=10_000, dtype=np.uint64)
    ys = rng.integers(0, 1 << 62, size=10_000, dtype=np.uint64)
    got = mach.dec(mach.emul(mach.enc(xs), mach.enc(ys)), auth)
    with np.errstate(over="ignore"):
        expected = (xs * ys).view(np.int64).tolist()
    assert got == expected

    before = b.round_stats().rounds
    mach.mul(mach.enc(6), mach.enc(7))
    assert b.round_stats().rounds - before == 1

    secret = np.full(10_000, 0xDEADBEEF, dtype=np.uint64)
    parts = share3(secret, np.random.default_rng(SEED + 1))
    worst_p = 1.0
    for a, c in ((parts[0], parts[1]), (parts[0], parts[2]), (parts[1], parts[2])):
        joint = ((a & np.uint64(0xF)) << np.uint64(4)) | (c & np.uint64(0xF))
        buckets = np.bincount(joint.astype(np.int64), minlength=256)
        p = stats.chisquare(buckets).pvalue
        worst_p = min(worst_p, p)
        assert p > 0.01
    _report(7, "PASS", f"1e4 share and Beaver round trips exact, 1 round per "
                       f"multiplication, chi-squared min p={worst_p:.3f}")


# -- 8: cost-model ordering -----------------------------------------------------------


def test_criterion_8_cost_model_ordering():
    def pair_total(strategy):
        mach, _, b = open_machine("sim:generic", seed=SEED)
        v1 = mach.enc([11, 22, 33, 44])
        v2 = mach.enc([22, 55, 66, 77])
        b.ledger.counts.clear()
        jaccard_match(mach, v1, v2, JaccardParams(Fraction(1, 2)), strategy)
        total = b.ledger.total()
        return total

    pj, vr, ve = (pair_total(s) for s in (Strategy.PJ, Strategy.VR, Strategy.VE))
    assert pj > vr and pj > ve

    d1, d2, _ = generate_dataset(seed=SEED, size=100, split=0.2)
    hasher = MinHasher(128, SEED)
    counts = [len(plain_blocked_pairs(d1, d2, optimal_band_plan(t), hasher))
              for t in (0.2, 0.5, 0.8)]
    assert counts[0] > counts[1] > counts[2]
    _report(8, "PASS", f"per-pair ledger PJ={pj:.0f} > VR={vr:.0f}, VE={ve:.0f}; "
                       f"candidates {counts[0]} > {counts[1]} > {counts[2]} "
                       f"as blocking threshold rises")


# -- 9: leakage budget --------------------------------------------------------------


def test_criterion_9_leakage_budget_scan():
    d1, d2, _ = generate_dataset(seed=SEED, size=100, split=0.2)
    tokens = set()
    containers = set()
    for r in d1 + d2:
        tokens |= r.token_set().tokens
        containers |= set(r.token_set().sorted_tokens())

    allowed = {"dataset_size", "record_container_count", "obfu_pairs", "authority_grant",
               "masked_value"}
    scanned = 0
    for profile in ("generic", "simd"):
        cfg = PipelineConfig(backend="sim", profile=profile, strategy="auto",
                             t_jaccard=Fraction(1, 2), t_block=0.5, rho=0.05,
                             seed=SEED)
        result = run_pper(d1, d2, cfg)
        p3 = [o for o in result.transcript if o.role == "P3"]
        kinds = {o.kind for o in p3}
        assert kinds <= allowed, kinds - allowed
        for need in ("dataset_size", "record_container_count", "obfu_pairs"):
            assert need in kinds
        for obs in p3:
            values = []
            if obs.kind == "obfu_pairs":
                values = list(np.asarray(obs.value).ravel())
            elif obs.kind == "record_container_count":
                values = [obs.value[-1]]
            elif obs.kind == "masked_value":
                values = list(np.atleast_1d(np.asarray(obs.value, dtype=np.float64)))
            for v in values:
                scanned += 1
                assert float(v) not in tokens and float(v) not in containers
        assert profile == "simd" or not [o for o in p3 if o.kind == "masked_value"]
    _report(9, "PASS", f"P3 transcript limited to the declared budget; "
                       f"{scanned} observed values carry no record content")
