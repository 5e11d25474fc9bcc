"""Stage-level pipeline behaviour and full-run properties."""

import itertools
import json
import os
import re
import shutil
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oblivlink import (CapabilityError, JaccardParams, Machine, MinHasher, ObfuscationPolicy,
                       PartyUpload, PipelineConfig, StageError, Strategy, assert_oblivious,
                       generate_dataset, make_backend, OblivLinkError, optimal_band_plan,
                       plain_blocked_pairs, plain_matches, run_pper,
                       run_pper_from_uploads, read_party_dir, write_party_dir,
                       prepare_upload)
from oblivlink import intersect, machine, pipeline
from oblivlink.machine import MIN_RUN_SLOTS, PrivateScalar, Runs, run_slots, slot_runs
from oblivlink.mpc import BeaverTriple
from oblivlink.intersect import PAD_SENTINEL
from oblivlink.blocking import BandPlan, digest_index
from oblivlink.evalkit import shared_key_pairs
from oblivlink.pipeline import (digest_limbs, finalize, filter_and_resolve, merge_and_dedup,
                                obfuscate, validate_uploads)

from conftest import (ALL_BACKENDS, LOCAL_EXACT, open_machine, reference_eeq, reference_merge,
                      reference_ve_indices, upload_runs)


def _enc_digests(mach, digests):
    """One owner's digest matrix as upload encrypts it for the backend."""
    return mach.enc(digest_limbs(np.asarray(digests, dtype=np.uint64), mach.b.domain))


def _block_digests(mach, plain1, plain2, shape):
    """Both sides' encrypted digests for the block dicts ``plain1`` and
    ``plain2``: band b stands for the b-th key of either side, in key
    order; a row of the key's block holds the key's digest in that band,
    and every other row a digest of its own side and row, so two rows
    agree on a band exactly when both lie in its key's block."""
    keys = sorted(set(plain1) | set(plain2))
    out = []
    for side, (plain, rows) in enumerate(zip((plain1, plain2), shape)):
        digests = np.array([[(side + 1) << 62 | r << 16 | b for b in range(len(keys))]
                            for r in range(rows)], dtype=np.uint64).reshape(rows, len(keys))
        for b, key in enumerate(keys):
            digests[plain.get(key, []), b] = (1 << 64) - 1 - b
        out.append(_enc_digests(mach, digests))
    return out


def _merge_blocks(mach, plain1, plain2, shape):
    return merge_and_dedup(mach, *_block_digests(mach, plain1, plain2, shape))


def _upload_of(records, digests, ids, manifest=None) -> PartyUpload:
    """An upload of the given records' containers, in the one flat layout."""
    records = [list(rec) for rec in records]
    return PartyUpload(np.array([c for rec in records for c in rec], dtype=np.uint64),
                       np.array([len(rec) for rec in records], dtype=np.int64),
                       digests, ids, {} if manifest is None else manifest)


def _records_of(up) -> list[list[int]]:
    """Each record's containers of an upload, as Python ints."""
    values, ends = np.asarray(up.containers).tolist(), np.cumsum(up.lengths).tolist()
    return [values[hi - n:hi] for n, hi in zip(np.asarray(up.lengths).tolist(), ends)]


# -- merge and dedup -----------------------------------------------------------


def test_merge_hand_trace_single_pair_under_two_keys():
    mach, auth, _ = open_machine("clear")
    cand = _merge_blocks(mach, {"k1": [0], "k2": [0]}, {"k1": [3], "k2": [3]}, (1, 4))
    assert mach.dec(cand, auth) == [[0, 0, 0, 1]]


def test_merge_no_shared_keys_all_false():
    mach, auth, _ = open_machine("clear")
    cand = _merge_blocks(mach, {"ka": [0]}, {"kb": [1]}, (2, 2))
    assert mach.dec(cand, auth) == [[0, 0], [0, 0]]


def test_merge_hand_trace_one_to_many():
    mach, auth, _ = open_machine("clear")
    cand = _merge_blocks(mach, {"k": [0, 1]}, {"k": [2]}, (2, 3))
    assert mach.dec(cand, auth) == [[0, 0, 1], [0, 0, 1]]


def test_merge_ignores_empty_vectors():
    mach, auth, _ = open_machine("clear")
    cand = _merge_blocks(mach, {"k": []}, {"k": [0]}, (1, 1))
    assert mach.dec(cand, auth) == [[0]]


@pytest.mark.parametrize("spec", ["sim:generic", "sim:simd", "mpc"])
def test_merge_matches_clear_backend(spec):
    plain1 = {"k1": [0, 2], "k2": [1]}
    plain2 = {"k1": [3], "k2": [0, 1]}

    def run(backend_spec):
        mach, auth, _ = open_machine(backend_spec)
        cand = _merge_blocks(mach, plain1, plain2, (3, 4))
        got = np.rint(np.asarray(mach.dec(cand, auth), dtype=np.float64)).astype(int)
        return got.tolist()

    assert run(spec) == run("clear")


def test_simd_merge_of_a_block_past_the_old_error_bound_is_exact():
    # 600 x 600 cross pairs of one key: a merge that summed one-hot
    # products erred by up to 1/2 per cell here and refused it; a cell now
    # sums one limb product per band
    mach, auth, _ = open_machine("sim:simd")
    ids = list(range(600))
    cand = _merge_blocks(mach, {"k": ids}, {"k": ids}, (600, 600))
    assert (np.rint(mach.reveal(cand, auth)) == 1).all()


# the 32-bit limbs that the drawn digests combine: 0 and 2^64-1 among the
# digests, and pairs that share only the high limb or only the low one
_LIMBS = (0, 1, 0x9E3779B9, (1 << 32) - 1)
_DIGEST = st.one_of(st.sampled_from([h << 32 | lo for h in _LIMBS for lo in _LIMBS]),
                    st.integers(0, (1 << 64) - 1))
_DIGESTS = st.integers(1, 4).flatmap(lambda bands: st.tuples(st.just(bands), *(
    st.lists(st.lists(_DIGEST, min_size=bands, max_size=bands), max_size=4)
    for _ in range(2))))


@pytest.mark.parametrize("spec", ALL_BACKENDS)
@given(digests=_DIGESTS)
@example(digests=(2, [], [[0, (1 << 64) - 1]]))
@example(digests=(1, [[5 << 32 | 7]], [[5 << 32 | 8], [6 << 32 | 7], [5 << 32 | 7]]))
def test_digest_merge_equals_the_plain_blocking_oracle(spec, digests):
    # a cell is a candidate exactly when the oracle's dict index pairs its
    # rows under one key; sides of zero rows included
    bands, side1, side2 = digests
    d1, d2 = (np.array(side, dtype=np.uint64).reshape(len(side), bands)
              for side in (side1, side2))
    mach, auth, _ = open_machine(spec)
    cand = np.rint(mach.reveal(merge_and_dedup(mach, _enc_digests(mach, d1),
                                               _enc_digests(mach, d2)), auth))
    assert cand.shape == (len(d1), len(d2)) and ((cand == 0) | (cand == 1)).all()
    want = shared_key_pairs(digest_index(d1), digest_index(d2))
    assert {(int(i), int(j)) for i, j in np.argwhere(cand == 1)} == want


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_digest_merge_of_a_corpus_equals_plain_blocked_pairs(spec):
    d1, d2, _ = generate_dataset(seed=3, size=100)
    cfg = PipelineConfig()
    mach, auth, _ = open_machine(spec)
    cand = merge_and_dedup(mach, _enc_digests(mach, prepare_upload(d1, cfg).digests),
                           _enc_digests(mach, prepare_upload(d2, cfg).digests))
    got = {(d1[i].record_id, d2[j].record_id)
           for i, j in np.argwhere(np.rint(mach.reveal(cand, auth)) == 1)}
    assert got == plain_blocked_pairs(d1, d2, cfg.band_plan(), MinHasher(128, 0))


@pytest.mark.parametrize("t_block,t_jaccard", [(0.8, Fraction(4, 5)), (0.5, Fraction(1, 2))])
def test_simd_decides_jaccard_ties_as_clear_does(t_block, t_jaccard):
    # corpus with pairs whose similarity equals the threshold exactly; an
    # approximate quotient with a slack once matched (rec-009-dup-0,
    # rec-009-dup-2) and (rec-119-org, rec-020-org) on simd only
    d1, d2, _ = generate_dataset(seed=2, size=400)

    def matches(backend, profile):
        return run_pper(d1, d2, PipelineConfig(backend=backend, profile=profile,
                                               t_block=t_block, t_jaccard=t_jaccard,
                                               rho=0.25)).matches

    assert matches("sim", "simd") == matches("clear", "generic")


@pytest.mark.parametrize("seed", [17, 42])
def test_simd_merge_equals_clear_at_n400(seed):
    # corpora on which per-pair private id lookups once marked wrong cells
    d1, d2, _ = generate_dataset(seed=seed, size=400)
    cfg = PipelineConfig()
    k1, k2 = prepare_upload(d1, cfg).digests, prepare_upload(d2, cfg).digests

    def run(spec):
        mach, auth, _ = open_machine(spec)
        cand = merge_and_dedup(mach, _enc_digests(mach, k1), _enc_digests(mach, k2))
        got = np.rint(np.asarray(mach.dec(cand, auth), dtype=np.float64)).astype(int)
        return got.tolist()

    assert run("sim:simd") == run("clear")


def _plain(value):
    """A payload value as plain data: an array by its dtype, shape and
    bytes, a Beaver triple by its three arrays, anything else as it is."""
    if isinstance(value, BeaverTriple):
        return tuple(_plain(x) for x in (value.a, value.b, value.c))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def _merge_outputs(spec, merge, d1, d2, floor):
    """One ``merge`` of the digest matrices d1 and d2 on a fresh backend of
    ``spec``, its run floor ``floor``: the revealed candidates, the ledger,
    the trace, each observation and, on mpc, every envelope of the message
    log, all as plain data."""
    mach, auth, backend = open_machine(spec)
    backend.enable_trace()
    if backend.kind == "mpc":
        backend.net.record_log = True
    with mock.patch.object(machine, "MIN_RUN_SLOTS", floor):
        cand = merge(mach, _enc_digests(mach, d1), _enc_digests(mach, d2))
    revealed = _plain(mach.reveal(cand, auth))
    observed = [(o.role, o.kind, _plain(o.value)) for o in backend.transcript]
    log = backend.net.log if backend.kind == "mpc" else []
    envelopes = [(e.src, e.dst, e.kind, e.tag, e.nbytes,
                  [(key, _plain(e.payload[key])) for key in sorted(e.payload)]) for e in log]
    return revealed, backend.ledger.rows(), backend.trace, observed, envelopes


def _merge_equals_the_gathers(spec, d1, d2, floor):
    assert (_merge_outputs(spec, merge_and_dedup, d1, d2, floor)
            == _merge_outputs(spec, reference_merge, d1, d2, floor))


_MERGE_SHAPES = st.tuples(st.integers(1, 5), st.integers(0, 4), st.integers(0, 5),
                          st.sampled_from([0, 7, MIN_RUN_SLOTS]))


def _drawn_merge(spec, shape, data):
    bands, rows, cols, floor = shape
    d1, d2 = (np.array(data.draw(st.lists(_DIGEST, min_size=n * bands, max_size=n * bands)),
                       dtype=np.uint64).reshape(n, bands) for n in (rows, cols))
    if rows and cols and data.draw(st.booleans()):
        d2[0] = d1[-1]  # a candidate on every band
    _merge_equals_the_gathers(spec, d1, d2, floor)


@pytest.mark.parametrize("spec", LOCAL_EXACT + ["sim:simd"])
@settings(max_examples=25)
@given(shape=_MERGE_SHAPES, data=st.data())
def test_band_eq_merge_equals_the_materialized_gathers(spec, shape, data):
    _drawn_merge(spec, shape, data)


@settings(max_examples=8)
@given(shape=_MERGE_SHAPES, data=st.data())
def test_band_eq_merge_equals_the_materialized_gathers_on_mpc(shape, data):
    _drawn_merge("mpc", shape, data)


@pytest.mark.parametrize("spec", ALL_BACKENDS)
@pytest.mark.parametrize("bands, rows, cols, floor, runs", [
    (3, 2, 3, MIN_RUN_SLOTS, [3]),  # one run of several bands
    (3, 2, 3, 0, [1, 1, 1]),        # runs of one band each
    (3, 1, 3, 7, [2, 1]),           # runs of two bands and of one
    (2, 0, 3, 0, []),               # a side of no row
    (2, 3, 0, 7, []),
    (2, 1, 1, MIN_RUN_SLOTS, [2]),  # sides of one row
    (4, 1, 1, 0, [1, 1, 1, 1]),
])
def test_band_eq_merge_equals_the_materialized_gathers_at_set_shapes(spec, bands, rows, cols,
                                                                     floor, runs):
    cells = rows * cols
    if cells:
        assert [len(r) for r in slot_runs([cells] * bands, max(cells, floor))] == runs
    # digests whose high and low limbs each take one of four values, so
    # that rows agree on whole digests and on one limb alone
    rng = np.random.default_rng([bands, rows, cols, floor])
    values = np.array([h << 32 | lo for h in _LIMBS for lo in _LIMBS], dtype=np.uint64)
    d1, d2 = (rng.choice(values, size=(n, bands)) for n in (rows, cols))
    _merge_equals_the_gathers(spec, d1, d2, floor)


@pytest.mark.parametrize("spec", ["mpc", "sim:simd"])
def test_band_eq_merge_is_byte_identical_to_the_gathers_over_three_runs(spec):
    # mpc-n100's shape: 20 x 80 records and 25 bands go in three runs, so
    # the message log and P3's openings are compared across run boundaries
    d1, d2, _ = generate_dataset(seed=0, size=100)
    cfg = PipelineConfig()
    k1, k2 = prepare_upload(d1, cfg).digests, prepare_upload(d2, cfg).digests
    assert k1.shape == (20, 25) and k2.shape == (80, 25)
    assert len(slot_runs([20 * 80] * 25, run_slots((20, 80)))) == 3
    got, want = (_merge_outputs(spec, merge, k1, k2, MIN_RUN_SLOTS)
                 for merge in (merge_and_dedup, reference_merge))
    assert got == want
    revealed, _, _, observed, envelopes = got
    dtype, _, cand = revealed
    assert np.frombuffer(cand, dtype=dtype).any()  # some cell is a candidate
    if spec == "mpc":
        # three eq gates, each one masked difference of 16,000 or 8,000
        # slots per party
        masked = [dict(e[5]) for e in envelopes if e[2] == "masked"]
        assert [m["fragment"][1] for m in masked if m["op"] == "eq"] == \
            [(16_000,)] * 6 + [(8_000,)] * 3
    else:
        # two limbs per run, each one opening of the run's slots
        shapes = [value[1] for _, kind, value in observed if kind == "masked_value"]
        assert shapes == [(16_000,)] * 4 + [(8_000,)] * 2


# -- obfuscation -------------------------------------------------------------------


def test_obfuscate_rate_zero_reveals_candidates_exactly():
    mach, auth, b = open_machine("clear")
    cand = _merge_blocks(mach, {"k": [0]}, {"k": [1]}, (2, 2))
    reveal = b.issue_authority("reveal", "P3")
    obfu = obfuscate(mach, cand, ObfuscationPolicy(0.0), np.random.default_rng(1), reveal)
    assert obfu.tolist() == [[False, True], [False, False]]


def test_obfuscate_rate_one_floods_matrix():
    mach, auth, b = open_machine("clear")
    cand = Machine(b).enc(np.zeros((3, 4), dtype=np.int64))
    reveal = b.issue_authority("reveal", "P3")
    obfu = obfuscate(mach, cand, ObfuscationPolicy(1.0), np.random.default_rng(1), reveal)
    assert obfu.all()


def test_obfuscate_noise_counts_binomial():
    # 20x80 all-false candidates, rho=0.05: aggregate added noise over 100
    # seeds stays within 3 sigma of the binomial expectation
    total_added = 0
    n_seeds = 100
    cells = 20 * 80
    for seed in range(n_seeds):
        mach, _, b = open_machine("clear")
        cand = mach.enc(np.zeros((20, 80), dtype=np.int64))
        reveal = b.issue_authority("reveal", "P3")
        obfu = obfuscate(mach, cand, ObfuscationPolicy(0.05),
                         np.random.default_rng(seed), reveal)
        total_added += int(obfu.sum())
    expectation = n_seeds * cells * 0.05
    sigma = (n_seeds * cells * 0.05 * 0.95) ** 0.5
    assert abs(total_added - expectation) <= 3 * sigma


def test_obfuscation_never_removes_candidates():
    mach, auth, b = open_machine("clear")
    cand = _merge_blocks(mach, {"k": [0, 1]}, {"k": [0, 1]}, (2, 2))
    truth = np.asarray(mach.dec(cand, auth), dtype=bool)
    reveal = b.issue_authority("reveal", "P3")
    obfu = obfuscate(mach, cand, ObfuscationPolicy(0.3), np.random.default_rng(3), reveal)
    assert (obfu | ~truth).all() and (obfu >= truth).all()


def test_obfuscation_policy_validation():
    with pytest.raises(ValueError):
        ObfuscationPolicy(rate=1.5)


# -- filtering and finalize -----------------------------------------------------------


def _tiny_records(mach):
    enc1 = upload_runs(mach, [[1, 2, 3], [7, 8, 9]])
    enc2 = upload_runs(mach, [[1, 2, 3], [50, 60, 70]])
    return enc1, enc2


def test_filter_all_false_runs_zero_evaluations():
    mach, auth, _ = open_machine("clear")
    enc1, enc2 = _tiny_records(mach)
    results, evaluated = filter_and_resolve(mach, enc1, enc2,
                                            np.zeros((2, 2), dtype=bool),
                                            JaccardParams(Fraction(1, 2)), Strategy.VE)
    assert evaluated == 0
    assert mach.dec(results, auth) == [[0, 0], [0, 0]]


def test_filter_all_true_runs_full_cartesian():
    mach, auth, _ = open_machine("clear")
    enc1, enc2 = _tiny_records(mach)
    results, evaluated = filter_and_resolve(mach, enc1, enc2,
                                            np.ones((2, 2), dtype=bool),
                                            JaccardParams(Fraction(1, 2)), Strategy.VE)
    assert evaluated == 4
    assert mach.dec(results, auth) == [[1, 0], [0, 0]]


def test_noise_only_cell_with_dissimilar_records_stays_false():
    mach, auth, _ = open_machine("clear")
    enc1, enc2 = _tiny_records(mach)
    obfu = np.zeros((2, 2), dtype=bool)
    obfu[1, 1] = True  # noise cell: records dissimilar
    results, evaluated = filter_and_resolve(mach, enc1, enc2, obfu,
                                            JaccardParams(Fraction(1, 2)), Strategy.VE)
    assert evaluated == 1
    assert mach.dec(results, auth)[1][1] == 0


def test_finalize_masks_noise_induced_results():
    mach, auth, _ = open_machine("clear")
    cand = mach.enc([[0, 0], [0, 0]])
    results = mach.enc([[1, 1], [1, 1]])  # everything noise-born
    dummies = mach.enc([[0, 0], [0, 0]])
    assert mach.dec(finalize(mach, results, dummies, cand), auth) == [[0, 0], [0, 0]]
    cand2 = mach.enc([[1, 0], [0, 1]])
    assert mach.dec(finalize(mach, cand2, dummies, cand2), auth) == [[1, 0], [0, 1]]


# -- full runs ---------------------------------------------------------------------


def _oracle_matches(d1, d2, t_jaccard, t_block, seed):
    hasher = MinHasher(128, seed)
    plan = optimal_band_plan(t_block)
    return plain_blocked_pairs(d1, d2, plan, hasher) & plain_matches(d1, d2, t_jaccard)


def test_run_pper_equals_oracle_small_corpus():
    d1, d2, _ = generate_dataset(seed=0, size=40, split=0.25)
    oracle = _oracle_matches(d1, d2, Fraction(1, 2), 0.5, seed=0)
    cfg = PipelineConfig(backend="sim", strategy="ve", t_jaccard=Fraction(1, 2),
                         t_block=0.5, rho=0.05, seed=0)
    result = run_pper(d1, d2, cfg)
    assert set(result.matches) == oracle


# Each example links one corpus on all five backends, about half a second in
# all, so the examples are capped to keep the suite quick.
@settings(max_examples=16)
@given(seed=st.integers(0, 10_000), size=st.integers(20, 60),
       rho=st.sampled_from([0.0, 0.05, 0.25]),
       t_jaccard=st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(4, 5)]))
def test_run_pper_equals_oracle_on_every_backend(seed, size, rho, t_jaccard):
    d1, d2, _ = generate_dataset(seed=seed, size=size)
    oracle = _oracle_matches(d1, d2, t_jaccard, 0.5, seed=seed)
    for spec in ALL_BACKENDS:
        kind, _, profile = spec.partition(":")
        cfg = PipelineConfig(backend=kind, profile=profile or "generic", t_jaccard=t_jaccard,
                             t_block=0.5, rho=rho, seed=seed)
        assert set(run_pper(d1, d2, cfg).matches) == oracle, spec


_GOLDEN = Path(__file__).parent / "golden"


# every golden run, from the golden owner files with the golden link's config
@pytest.mark.parametrize("run", sorted(p.name for p in _GOLDEN.iterdir()
                                       if p.is_dir() and p.name not in ("blocks", "__pycache__")))
def test_the_ledger_is_the_trace_counted(run):
    kind, profile, strategy = run.split("-")
    u1, u2 = (read_party_dir(str(_GOLDEN / "blocks" / party)) for party in ("p1", "p2"))
    cfg = PipelineConfig(backend=kind, profile=profile, strategy=strategy, seed=0)
    backend = make_backend(kind, profile, seed=cfg.seed)
    backend.enable_trace()
    traced = run_pper_from_uploads(u1, u2, cfg, backend=backend)
    assert Counter(entry[0] for entry in traced.trace) == traced.ledger.by_op()
    # tracing changes no count
    assert run_pper_from_uploads(u1, u2, cfg).ledger.counts == traced.ledger.counts


def test_obfuscation_neutrality():
    d1, d2, _ = generate_dataset(seed=0, size=40, split=0.25)
    outputs = []
    for rho in (0.0, 0.05, 0.5):
        cfg = PipelineConfig(backend="sim", strategy="ve", t_jaccard=Fraction(1, 2),
                             t_block=0.5, rho=rho, seed=0)
        outputs.append(run_pper(d1, d2, cfg).matches)
    assert outputs[0] == outputs[1] == outputs[2]


def test_threshold_monotonicity_of_matches():
    d1, d2, _ = generate_dataset(seed=0, size=40, split=0.25)
    base = PipelineConfig(backend="clear", strategy="ve", t_block=0.5, rho=0.0, seed=0)
    low = run_pper(d1, d2, PipelineConfig(**{**base.__dict__, "t_jaccard": Fraction(1, 2)}))
    high = run_pper(d1, d2, PipelineConfig(**{**base.__dict__, "t_jaccard": Fraction(99, 100)}))
    assert set(high.matches) <= set(low.matches)


def test_empty_d1_yields_empty_output():
    d1, d2, _ = generate_dataset(seed=0, size=40, split=0.25)
    cfg = PipelineConfig(backend="clear", strategy="ve", seed=0)
    result = run_pper([], d2, cfg)
    assert result.matches == []
    assert result.shape[0] == 0


def test_candidate_count_bounded_by_obfuscation():
    d1, d2, _ = generate_dataset(seed=0, size=100, split=0.2)
    hasher = MinHasher(128, 0)
    plan = optimal_band_plan(0.5)
    t_prime = len(plain_blocked_pairs(d1, d2, plan, hasher))
    cfg = PipelineConfig(backend="sim", strategy="ve", t_jaccard=Fraction(1, 2),
                         t_block=0.5, rho=0.05, seed=0)
    result = run_pper(d1, d2, cfg)
    assert t_prime <= result.obfu_count <= 1600


def test_stage_errors_carry_the_failing_stage():
    # one candidate cell of two 710-container records: on simd its count
    # may err past 1/2, and jaccard_cells refuses it inside filter_er, whose
    # name the diagnostic carries
    cfg = PipelineConfig(backend="sim", profile="simd", strategy="ve", seed=0)

    def upload(first):
        return _upload_of([range(first, first + 710)],
                          np.zeros((1, cfg.band_plan().bands), dtype=np.uint64), ["r"])
    with pytest.raises(StageError) as excinfo:
        run_pper_from_uploads(upload(0), upload(1), cfg)
    assert excinfo.value.stage == "filter_er"
    assert str(excinfo.value).startswith("[filter_er] a count over records of 710")


def test_stage_ledger_covers_pipeline_stages():
    d1, d2, _ = generate_dataset(seed=0, size=30, split=0.3)
    cfg = PipelineConfig(backend="sim", strategy="ve", seed=0)
    result = run_pper(d1, d2, cfg)
    stages = {stage for stage, _, _ in result.ledger.rows()}
    assert {"upload", "merge_dedup", "obfuscate", "filter_er", "finalize"} <= stages


_TWIN_BANDS = PipelineConfig().band_plan().bands


def _twin_digests(*rows):
    """A digest matrix whose row r holds ``rows[r]`` in every band."""
    return np.repeat(np.array(rows, dtype=np.uint64)[:, None], _TWIN_BANDS, axis=1)


def _twin_uploads(token_shift, digests1=None):
    # identical shapes; token contents differ, and so do the digests when
    # digests1 is given
    enc1 = [(1000 + token_shift, 2000, 3000), (1500, 2500 + token_shift, 3500)]
    enc2 = [(1000, 2000, 3000 + token_shift), (9000, 9100, 9200)]
    digests1 = _twin_digests(7, 8) if digests1 is None else digests1
    u1 = _upload_of(enc1, digests1, ["a0", "a1"])
    u2 = _upload_of(enc2, _twin_digests(7, 8), ["b0", "b1"])
    return u1, u2


def test_full_run_twin_traces_identical():
    def run(shift):
        u1, u2 = _twin_uploads(shift)
        backend = make_backend("sim", "generic", seed=0)
        backend.enable_trace()
        cfg = PipelineConfig(backend="sim", strategy="ve", t_jaccard=Fraction(1, 2),
                             rho=0.0, seed=0)
        result = run_pper_from_uploads(u1, u2, cfg, backend=backend)
        trace = result.trace
        return trace

    assert_oblivious(run(0), run(7))


@pytest.mark.parametrize("spec", ["sim:generic", "sim:simd", "mpc"])
def test_full_run_twin_traces_independent_of_digests(spec):
    # rho=1 reveals every cell, so only merge could make the traces differ
    def run(digests1):
        u1, u2 = _twin_uploads(0, digests1)
        kind, _, profile = spec.partition(":")
        backend = make_backend(kind, profile or "generic", seed=0)
        backend.enable_trace()
        cfg = PipelineConfig(backend=kind, strategy="ve", t_jaccard=Fraction(1, 2),
                             rho=1.0, seed=0)
        result = run_pper_from_uploads(u1, u2, cfg, backend=backend)
        return result.trace

    assert_oblivious(run(_twin_digests(7, 7)), run(_twin_digests(1 << 63, (1 << 64) - 1)))


# container counts of each side's records
_SHAPES = st.tuples(*(st.lists(st.integers(0, 4), min_size=2, max_size=4) for _ in range(2)))


def _random_upload(data, counts, side):
    """An upload of the given public shape with drawn contents and digests;
    digests from a pool of three, so that which cells they flag varies."""
    rows = len(counts)
    records = [data.draw(st.lists(st.integers(0, (1 << 16) - 1), min_size=n, max_size=n,
                                  unique=True)) for n in counts]
    digests = data.draw(st.lists(st.sampled_from([0, 1 << 40, (1 << 64) - 1]),
                                 min_size=rows * _TWIN_BANDS, max_size=rows * _TWIN_BANDS))
    return _upload_of(records, np.array(digests, dtype=np.uint64).reshape(rows, _TWIN_BANDS),
                      [f"{side}{r}" for r in range(rows)])


# Each example links two twins on three backends, about 50 ms in all.
@settings(max_examples=12)
@given(shapes=_SHAPES, data=st.data())
def test_twin_traces_of_random_uploads_identical(shapes, data):
    # the generalized _twin_uploads: same container counts, drawn contents
    # and digests; rho=1 reveals every cell, so the candidates the contents
    # make cannot steer the work
    counts1, counts2 = shapes
    twins = [(_random_upload(data, counts1, 0), _random_upload(data, counts2, 1))
             for _ in range(2)]
    for spec in ("sim:generic", "sim:simd", "mpc"):
        kind, _, profile = spec.partition(":")
        cfg = PipelineConfig(backend=kind, profile=profile or "generic",
                             t_jaccard=Fraction(1, 2), rho=1.0, seed=0)
        traces = []
        for u1, u2 in twins:
            backend = make_backend(kind, profile or "generic", seed=0)
            backend.enable_trace()
            traces.append(run_pper_from_uploads(u1, u2, cfg, backend=backend).trace)
        assert_oblivious(*traces)


def _csv_rows(csv: str) -> list[list[str]]:
    return [line.split(",") for line in csv.splitlines()]


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_batched_upload_and_join_link_as_the_per_item_calls_did(spec, monkeypatch):
    d1, d2, _ = generate_dataset(seed=0, size=60)
    kind, _, profile = spec.partition(":")
    cfg = PipelineConfig(backend=kind, profile=profile or "generic", seed=0)
    u1, u2 = prepare_upload(d1, cfg), prepare_upload(d2, cfg)
    # what the upload before batching encrypted, one enc each, in its order
    per_value = [rec for up in (u1, u2) for rec in _records_of(up)]
    encrypted = []

    def per_value_upload(mach, flat, lengths):
        # one enc per run, the runs then joined into the pass's one vector
        out, lo = [], 0
        for n in lengths:
            encrypted.append(np.asarray(flat[lo:lo + n]).tolist())
            out.append(mach.enc(flat[lo:lo + n]))
            lo += n
        return Runs(mach.concat(*out), lengths)

    batched_join = Machine.join_counts

    def per_cell_join(mach, runs1, runs2, cells):
        # MJ before batching: one one-pair join per cell, then one stack
        return mach.stack(*(PrivateScalar(mach.b, batched_join(
            mach, runs1, runs2, [(i, j)]).payload.reshape(()))
            for i, j in np.asarray(cells).tolist()))

    outputs = []
    for reference in (True, False):
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(Machine, "enc_runs", per_value_upload)
                patch.setattr(Machine, "join_counts", per_cell_join)
            backend = make_backend(kind, profile or "generic", seed=0)
            backend.enable_trace()
            result = run_pper_from_uploads(u1, u2, cfg, backend=backend)
            transcript = [(o.role, o.kind, np.asarray(o.value).tolist())
                          for o in result.transcript]
            rounds = backend.round_stats().to_csv() if kind == "mpc" else None
            outputs.append((result.matches, transcript, result.trace, rounds,
                            backend.ledger.rows()))
    assert encrypted == per_value
    (matches, transcript, trace, rounds, ledger), batched = outputs
    # the reference joins each of the two passes (D1's and D2's records)
    # with one concat in upload, its first stage
    cuts = np.cumsum([0, len(u1.lengths), len(u2.lengths)])
    concats = [k for k, e in enumerate(trace) if e[0] == "concat"][:2]
    assert [trace[k] for k in concats] == [
        ("concat",) + tuple((len(v),) for v in per_value[lo:hi])
        for lo, hi in zip(cuts, cuts[1:])]
    assert ("upload", "concat", 2) in ledger
    trace = [e for k, e in enumerate(trace) if k not in concats]
    ledger = [row for row in ledger if row[:2] != ("upload", "concat")]
    if rounds is not None:
        # the one difference in rounds.csv: an enc_runs pass sends each party
        # one store envelope, so upload messages count the two passes (D1's
        # and D2's records), not the runs; the digests are one enc per side
        rows, got = _csv_rows(rounds), _csv_rows(batched[3])
        cells = {tuple(row[:2]): row for row in rows}
        assert cells["stage", "upload"][3] == str(3 * (len(per_value) + 2))
        saved = 3 * len(per_value) - 2 * 3
        for key in (("total", "all"), ("stage", "upload"), ("op", "enc")):
            cells[key][3] = str(int(cells[key][3]) - saved)
        assert got == rows
        rounds = batched[3]
    assert matches  # the corpus links some pairs
    if result.strategy is Strategy.MJ:
        # the one difference: MJ's counts no longer pass through a stack
        assert [e for e in trace if e[0] == "stack"] == [("stack", (result.evaluated_cells,))]
        trace = [e for e in trace if e[0] != "stack"]
        ledger = [row for row in ledger if row[:2] != ("filter_er", "stack")]
    assert batched == (matches, transcript, trace, rounds, ledger)


def _reference_ve_counts(mach, runs1, runs2, cells, max_slots):
    """VE's batched count with each run's gather indices by the slot formula."""
    len1, len2 = runs1.lengths.tolist(), runs2.lengths.tolist()
    all1, all2 = runs1.values, runs2.values
    slots = [len1[i] * len2[j] for i, j in cells.tolist()]
    parts = []
    for run in slot_runs(slots, max_slots):
        idx1, idx2 = reference_ve_indices(len1, len2, cells[run.start:run.stop])
        bits = mach.eeq(mach.take(all1, idx1), mach.take(all2, idx2))
        counts = mach.segment_sum(bits, 1, slots[run.start:run.stop])
        parts.append(mach.take(counts, np.arange(len(run))))
    return parts[0] if len(parts) == 1 else mach.concat(*parts)


@pytest.mark.parametrize("spec, size, rho, t_jaccard, strategy", [
    ("sim:simd", 200, 0.25, Fraction(397, 796), "auto"),
    ("mpc", 60, 0.05, Fraction(1, 2), "ve"),
])
def test_fused_equality_and_ve_layout_link_as_the_machine_chain_did(
        spec, size, rho, t_jaccard, strategy, monkeypatch):
    d1, d2, _ = generate_dataset(seed=0, size=size)
    kind, _, profile = spec.partition(":")
    cfg = PipelineConfig(backend=kind, profile=profile or "generic", seed=0, rho=rho,
                         t_jaccard=t_jaccard, strategy=strategy)
    u1, u2 = prepare_upload(d1, cfg), prepare_upload(d2, cfg)
    outputs = []
    for reference in (True, False):
        with monkeypatch.context() as patch:
            backend = make_backend(kind, profile or "generic", seed=0)
            if reference:
                patch.setattr(intersect, "_ve_counts", _reference_ve_counts)
                if not backend.caps.native_eq:
                    patch.setattr(Machine, "eeq", reference_eeq)
            backend.enable_trace()
            result = run_pper_from_uploads(u1, u2, cfg, backend=backend)
            transcript = [(o.role, o.kind, np.asarray(o.value).tobytes())
                          for o in result.transcript]
            rounds = backend.round_stats().to_csv() if kind == "mpc" else None
            # each VE run makes one equality: a gate, or one masked reciprocal
            ve_runs = backend.ledger.counts[
                ("filter_er", "eq" if backend.caps.native_eq else "dec")]
            outputs.append((result.strategy, result.matches, backend.ledger.to_csv(),
                            result.trace, transcript, rounds))
    assert outputs[0][0] is Strategy.VE and outputs[0][1]  # VE links some pairs
    assert ve_runs > 1  # the layouts are compared across run boundaries
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("strategy", ["ve", "auto"])
@pytest.mark.parametrize("spec", ["clear", "sim:simd", "sim:sharemind", "mpc"])
def test_run_slot_floor_changes_no_result_and_sets_the_runs(spec, strategy, monkeypatch):
    # 20 x 80 records: rows*cols is under MIN_RUN_SLOTS, so the floor binds;
    # a floor of 0 is the rule of runs of at most rows*cols slots
    d1, d2, _ = generate_dataset(seed=0, size=100)
    kind, _, profile = spec.partition(":")
    cfg = PipelineConfig(backend=kind, profile=profile or "generic", seed=0, rho=0.05,
                         strategy=strategy)
    u1, u2 = prepare_upload(d1, cfg), prepare_upload(d2, cfg)
    rows, cols = len(u1.lengths), len(u2.lengths)
    assert rows * cols < MIN_RUN_SLOTS
    len1, len2 = u1.lengths, u2.lengths
    band_slots = [rows * cols] * cfg.band_plan().bands
    outputs, runs = [], {}
    for floor in (0, MIN_RUN_SLOTS):
        monkeypatch.setattr(machine, "MIN_RUN_SLOTS", floor)
        backend = make_backend(kind, profile or "generic", seed=0)
        result = run_pper_from_uploads(u1, u2, cfg, backend=backend)
        seen = list(result.transcript)
        reveal = [o.kind for o in seen].index("obfu_pairs")
        filter_masked = b"".join(np.asarray(o.value).tobytes() for o in seen[reveal:]
                                 if o.kind == "masked_value")
        outputs.append((result.strategy, result.matches, result.obfu_count,
                        result.evaluated_cells, filter_masked))
        # each run makes one equality per digest limb (two on simd) or per
        # cell batch: a gate, or on simd one masked reciprocal
        counts = backend.ledger.counts
        made, limbs = ("eq", 1) if backend.caps.native_eq else ("dec", 2)
        budget = max(rows * cols, MIN_RUN_SLOTS if floor else 0)
        runs[floor] = [len(slot_runs(band_slots, budget))]
        assert counts[("merge_dedup", made)] == limbs * runs[floor][0]
        if result.strategy is Strategy.VE:
            cells = np.argwhere(np.array(seen[reveal].value, dtype=bool))
            runs[floor].append(len(slot_runs(
                (len1[cells[:, 0]] * len2[cells[:, 1]]).tolist(), budget)))
            assert counts[("filter_er", made)] == runs[floor][1]
    assert outputs[0][1] and outputs[1] == outputs[0]
    if spec == "sim:simd":
        assert outputs[0][4]  # the filter's openings are compared
    # both rules split both stages, the floor into fewer runs
    assert all(by_rows > by_floor >= 2 for by_rows, by_floor in zip(runs[0], runs[MIN_RUN_SLOTS]))


def test_leakage_budget_p3_transcript():
    d1, d2, _ = generate_dataset(seed=0, size=40, split=0.25)
    cfg = PipelineConfig(backend="sim", strategy="ve", t_jaccard=Fraction(1, 2),
                         t_block=0.5, rho=0.05, seed=0)
    result = run_pper(d1, d2, cfg)
    allowed = {"dataset_size", "record_container_count", "obfu_pairs", "authority_grant",
               "masked_value"}
    kinds = {o.kind for o in result.transcript if o.role == "P3"}
    assert kinds <= allowed
    assert "dataset_size" in kinds and "obfu_pairs" in kinds
    # nothing content-bearing: no P3 value contains a raw token container
    tokens = set()
    for r in d1 + d2:
        tokens |= r.token_set().tokens
    for obs in result.transcript:
        if obs.role != "P3":
            continue
        flat = np.asarray(obs.value).ravel().tolist() if obs.kind == "obfu_pairs" else [obs.value]
        for v in flat:
            if isinstance(v, (int, np.integer)):
                assert int(v) not in tokens


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_p3_observes_no_blocking_key_or_block_size(spec):
    # P3 holds the MinHash seed and the band plan, so it can compute the
    # band keys of any text it guesses; with D1's keys in view it once
    # confirmed 20 of 20 guessed D1 records.  Merge now compares the
    # digests privately, so no key, block size or digest reaches P3.
    d1, d2, _ = generate_dataset(seed=0, size=100)
    kind, _, profile = spec.partition(":")
    cfg = PipelineConfig(backend=kind, profile=profile or "generic")
    u1, u2 = prepare_upload(d1, cfg), prepare_upload(d2, cfg)
    p3 = [o for o in run_pper_from_uploads(u1, u2, cfg).transcript if o.role == "P3"]
    assert p3 and not {"block_key", "block_size"} & {o.kind for o in p3}
    secret = set(u1.index) | set(u2.index) | set(u1.digests.ravel().tolist()) \
        | set(u2.digests.ravel().tolist())
    for obs in p3:
        assert not secret & set(np.asarray(obs.value, dtype=object).ravel().tolist())


# -- upload validation ---------------------------------------------------------------


def _refused_upload(u1, u2, cfg):
    """The StageError of linking u1 and u2, checked to come before any
    machine work.  An upload given as a directory is read inside the
    check."""
    backend = make_backend("clear")
    with pytest.raises(StageError) as excinfo:
        u1, u2 = (read_party_dir(str(u)) if isinstance(u, os.PathLike) else u
                  for u in (u1, u2))
        run_pper_from_uploads(u1, u2, cfg, backend=backend)
    assert excinfo.value.stage == "upload"
    assert backend.ledger.total() == 0 and not backend.transcript
    return str(excinfo.value)


def test_run_result_transcript_is_a_snapshot_of_python_values(monkeypatch):
    d1, d2, _ = generate_dataset(seed=0, size=40, split=0.25)
    backend = make_backend("clear")
    returned = []
    monkeypatch.setattr(pipeline, "obfuscate",
                        lambda *args: returned.append(obfuscate(*args)) or returned[-1])
    result = run_pper(d1, d2, PipelineConfig(rho=0.05), backend=backend)
    seen = list(result.transcript)
    assert result.transcript is not backend.transcript and seen == list(backend.transcript)
    backend.observe("P3", "late", 1)
    assert list(result.transcript) == seen and len(result.transcript) == len(seen)
    counts = [o.value for o in seen if o.kind == "record_container_count"]
    assert [row for _, row, _ in counts] == list(range(10)) + list(range(30))
    for value in counts:
        assert type(value[0]) is str and type(value[-1]) is int
    assert all(type(row) is int for _, row, _ in counts)
    # P3's view of the reveal is the bool matrix, kept apart from the one
    # that obfuscate hands to the filter
    (pairs,) = [o.value for o in seen if o.kind == "obfu_pairs"]
    assert pairs.dtype == bool and pairs.shape == result.shape
    assert int(pairs.sum()) == result.obfu_count
    kept = pairs.copy()
    returned[0][:] = ~returned[0]
    assert np.array_equal(pairs, kept)


def _changed(records: dict):
    """A change of an upload that gives record k the containers
    ``records[k](containers of record k)``, as Python ints that numpy puts
    in the one array type that holds them all."""
    def change(up):
        recs = _records_of(up)
        for k, rewrite in records.items():
            recs[k] = rewrite(recs[k])
        return np.array([c for rec in recs for c in rec]), np.array([len(r) for r in recs])
    return change


def _doubled(rec):
    return rec * 2


def _widened(rec):
    return rec + [1 << 16]


def _padded(rec):
    return rec + [PAD_SENTINEL]


def _shifted_length(lengths):
    # a negative length whose record's containers move to the next record
    lengths = lengths.copy()
    lengths[1] += lengths[0] + 1
    lengths[0] = -1
    return lengths


# (pack, change of D1's (containers, lengths), the refusal); D1 holds 20
# records, 836 containers at pack 1
MALFORMED_RECORDS = {
    # row 19 (rec-012-org) with its containers doubled once linked quietly
    # to the false match (rec-012-org, rec-005-dup-3)
    "a repeated container": (1, _changed({19: _doubled}), "D1 record 19 repeats a container"),
    "a container past the packing": (1, _changed({3: _widened}),
                                     "D1 record 3 holds a container outside [0, 2^16)"),
    "a negative container": (1, _changed({3: lambda rec: rec + [-1]}),
                             "D1 record 3 holds a container outside [0, 2^16)"),
    "a negative container at pack 4": (4, _changed({3: lambda rec: rec + [-1]}),
                                       "D1 record 3 holds a container outside [0, 2^64)"),
    "the padding at pack 1": (1, _changed({3: _padded}),
                              "D1 record 3 holds a container outside [0, 2^16)"),
    # VR's padding 2^63-1 lies inside pack 4's 64 bits; VR once counted such
    # a container equal to the padding, and linked records sharing no container
    "the padding at pack 4": (4, _changed({3: _padded}), "D1 record 3 holds VR's padding 2^63-1"),
    # two faulty records: the lower one is named, whatever its fault
    "a padding before a repeat": (4, _changed({3: _padded, 7: _doubled}),
                                  "D1 record 3 holds VR's padding 2^63-1"),
    "a repeat before a padding": (4, _changed({3: _doubled, 7: _padded}),
                                  "D1 record 3 repeats a container"),
    "a value outside before a repeat": (1, _changed({3: _widened, 7: _doubled}),
                                        "D1 record 3 holds a container outside [0, 2^16)"),
    "a repeat before a value outside": (1, _changed({3: _doubled, 7: _widened}),
                                        "D1 record 3 repeats a container"),
    # a record that repeats a container and holds one outside is said to repeat
    "a repeat and a value outside": (1, _changed({3: lambda rec: _widened(_doubled(rec))}),
                                     "D1 record 3 repeats a container"),
    "float containers": (1, lambda up: (up.containers.astype(np.float64), up.lengths),
                         "D1 containers are not a 1-D array of integers"),
    "bool containers": (1, lambda up: (up.containers > 0, up.lengths),
                        "D1 containers are not a 1-D array of integers"),
    "object containers": (1, lambda up: (up.containers.astype(object), up.lengths),
                          "D1 containers are not a 1-D array of integers"),
    "2-D containers": (1, lambda up: (up.containers[:, None], up.lengths),
                       "D1 containers are not a 1-D array of integers"),
    "float lengths": (1, lambda up: (up.containers, up.lengths.astype(np.float64)),
                      "D1 record lengths are not a 1-D array of integers"),
    "2-D lengths": (1, lambda up: (up.containers, up.lengths[:, None]),
                    "D1 record lengths are not a 1-D array of integers"),
    "a negative length": (1, lambda up: (up.containers, _shifted_length(up.lengths)),
                          "D1 record lengths hold a negative length"),
    "lengths short of the containers": (1, lambda up: (up.containers[:-1], up.lengths),
                                        "D1 record lengths sum to 836, not its 835 containers"),
    "lengths past the containers": (1, lambda up: (up.containers, up.lengths + 1),
                                    "D1 record lengths sum to 856, not its 836 containers"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_records_are_refused_at_upload(case):
    pack, change, message = MALFORMED_RECORDS[case]
    d1, d2, _ = generate_dataset(seed=0, size=100)
    cfg = PipelineConfig(pack=pack, strategy="ve", rho=1.0)
    u1, u2 = prepare_upload(d1, cfg), prepare_upload(d2, cfg)
    u1.containers, u1.lengths = change(u1)
    assert _refused_upload(u1, u2, cfg) == f"[upload] {message}"


def test_upload_refusal_names_the_first_fault_in_order():
    d1, d2, _ = generate_dataset(seed=0, size=100)
    cfg = PipelineConfig()
    u1, u2 = prepare_upload(d1, cfg), prepare_upload(d2, cfg)
    # records before digests
    sound = u2.containers, u2.lengths
    u2.containers, u2.lengths = _changed({3: _doubled})(u2)
    u2.digests = u2.digests[:, :-1]
    assert _refused_upload(u1, u2, cfg) == "[upload] D2 record 3 repeats a container"
    u2.containers, u2.lengths = sound
    assert _refused_upload(u1, u2, cfg) == "[upload] D2 digests hold 24 bands, not 25"
    # D1 before D2
    u1.digests = u1.digests[:-1]
    assert _refused_upload(u1, u2, cfg) == "[upload] D1 digests hold 19 rows for 20 records"
    # the manifests first
    u1.manifest["seed"] = 1
    assert "manifests disagree on seed" in _refused_upload(u1, u2, cfg)


def _set_oracle(records: list, bits: int) -> str | None:
    """The refusal of records, one Python ``set`` per record."""
    for k, rec in enumerate(records):
        if len(set(rec)) < len(rec):
            return f"record {k} repeats a container"
        if not all(0 <= c < 1 << bits for c in rec):
            return f"record {k} holds a container outside [0, 2^{bits})"
        if bits == 64 and PAD_SENTINEL in rec:
            return f"record {k} holds VR's padding 2^63-1"
    return None


# values about each bound: repeats, both ends of 16 bits, the padding, 2^64-1
_NEAR_BOUNDS = st.sampled_from([-1, 0, 1, 2, 5, (1 << 16) - 1, 1 << 16, PAD_SENTINEL - 1,
                                PAD_SENTINEL, (1 << 64) - 1])
_NOT_INTEGERS = "containers are not a 1-D array of integers"


@given(records=st.lists(st.lists(_NEAR_BOUNDS, max_size=5), max_size=6),
       pack=st.sampled_from([1, 4]),
       layout=st.sampled_from(["int", "float64", "bool", "2-D", "lengths short",
                               "lengths long"]))
def test_record_check_equals_a_per_record_set_oracle(records, pack, layout):
    values = [c for rec in records for c in rec]
    lengths = np.array([len(rec) for rec in records], dtype=np.int64)
    if min(values, default=0) < 0 <= max(values, default=0) - (1 << 63):
        containers = np.array(values, dtype=object)  # no integer array holds them
        message = _NOT_INTEGERS
    else:
        containers = np.array(values, dtype=np.int64 if min(values, default=0) < 0
                              else np.uint64)
        message = _set_oracle(records, 16 * pack)
    if layout in ("float64", "bool", "2-D"):
        containers = {"float64": containers.astype(np.float64), "bool": containers > 0,
                      "2-D": containers[:, None]}[layout]
        message = _NOT_INTEGERS
    elif layout.startswith("lengths") and message != _NOT_INTEGERS:
        lengths = np.append(lengths, 1) if layout == "lengths long" else lengths[:-1]
        if lengths.sum() != len(values):
            message = f"record lengths sum to {lengths.sum()}, not its {len(values)} containers"
    cfg = PipelineConfig(pack=pack)
    bands = cfg.band_plan().bands
    up = PartyUpload(containers, lengths, np.zeros((len(lengths), bands), dtype=np.uint64),
                     [str(k) for k in range(len(lengths))], {})
    sound = _upload_of([], np.zeros((0, bands), dtype=np.uint64), [])
    if message is None:
        validate_uploads(up, sound, cfg, cfg.band_plan())
    else:
        assert _refused_upload(up, sound, cfg) == f"[upload] D1 {message}"


def test_upload_manifests_must_agree_with_each_other_and_the_config():
    d1, d2, _ = generate_dataset(seed=0, size=100)
    cfg = PipelineConfig()
    u1 = prepare_upload(d1, cfg)
    # owners hashing with different seeds share no blocking key
    assert "seed" in _refused_upload(u1, prepare_upload(d2, PipelineConfig(seed=1)), cfg)
    u2 = prepare_upload(d2, cfg)
    assert "seed" in _refused_upload(u1, u2, PipelineConfig(seed=1))
    # another blocking threshold gives another band layout
    assert "bands" in _refused_upload(u1, u2, PipelineConfig(t_block=0.8))
    assert "pack" in _refused_upload(u1, u2, PipelineConfig(pack=4))


# changes of D1's digests, and the refusal
MALFORMED_DIGESTS = {
    "a row short": (lambda d: d[:-1], "D1 digests hold 19 rows for 20 records"),
    "a row too many": (lambda d: np.vstack([d, d[:1]]), "D1 digests hold 21 rows for 20 records"),
    "a band short": (lambda d: d[:, :-1], "D1 digests hold 24 bands, not 25"),
    "a band too many": (lambda d: np.hstack([d, d[:, :1]]), "D1 digests hold 26 bands, not 25"),
    "not a matrix": (lambda d: d[0], "D1 digests are not a matrix"),
    "ragged rows": (lambda d: [[1, 2], [3]], "D1 digests are not a matrix"),
    "float digests": (lambda d: d.astype(np.float64),
                      "D1 digests hold a value that is not an integer"),
    "bool digests": (lambda d: d > 0, "D1 digests hold a value that is not an integer"),
    "a negative digest": (lambda d: np.where(np.arange(d.size).reshape(d.shape) == 7, -1,
                                             d.astype(np.int64)),
                          "D1 digests hold a value outside [0, 2^64)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DIGESTS))
def test_malformed_digests_are_refused_at_upload(case):
    change, message = MALFORMED_DIGESTS[case]
    d1, d2, _ = generate_dataset(seed=0, size=100)
    cfg = PipelineConfig()
    u1, u2 = prepare_upload(d1, cfg), prepare_upload(d2, cfg)
    u1.digests = change(u1.digests)
    assert _refused_upload(u1, u2, cfg) == f"[upload] {message}"


def _party_dirs(tmp_path, cfg, size):
    d1, d2, _ = generate_dataset(seed=0, size=size)
    dirs = tmp_path / "p1", tmp_path / "p2"
    for path, records in zip(dirs, (d1, d2)):
        write_party_dir(str(path), prepare_upload(records, cfg))
    return dirs


def test_upload_id_map_rows_out_of_order_are_refused(tmp_path):
    cfg = PipelineConfig()
    p1, p2 = _party_dirs(tmp_path, cfg, 60)
    assert len(run_pper_from_uploads(read_party_dir(str(p1)), read_party_dir(str(p2)),
                                     cfg).matches) == 25
    lines = (p1 / "records.enc").read_text().splitlines(keepends=True)
    # a record and its digests dropped from the end leave the id map a row
    # too many
    digests = (p1 / "digests.enc").read_text().splitlines(keepends=True)
    (p1 / "records.enc").write_text("".join(lines[:-1]))
    (p1 / "digests.enc").write_text("".join(digests[:-1]))
    assert _refused_upload(p1, p2, cfg) == "[upload] D1 id map holds 12 rows for 11 records"
    (p1 / "records.enc").write_text("".join(lines))
    (p1 / "digests.enc").write_text("".join(digests))
    rows = (p2 / "idmap.csv").read_text().splitlines(keepends=True)
    (p2 / "idmap.csv").write_text("".join(rows[:3] + [rows[4], rows[3]] + rows[5:]))
    assert _refused_upload(p1, p2, cfg).endswith("idmap.csv entry 2 holds row 3, not 2")


def test_upload_id_map_of_another_length_is_refused(tmp_path):
    # an id map three rows short once failed only in finalize, after all
    # machine work
    cfg = PipelineConfig()
    p1, p2 = _party_dirs(tmp_path, cfg, 60)
    rows = (p1 / "idmap.csv").read_text().splitlines(keepends=True)
    (p1 / "idmap.csv").write_text("".join(rows[:-3]))
    assert _refused_upload(p1, p2, cfg) == "[upload] D1 id map holds 9 rows for 12 records"
    (p1 / "idmap.csv").write_text("".join(rows))
    u1, u2 = read_party_dir(str(p1)), read_party_dir(str(p2))
    u2.id_map.append("extra")
    assert _refused_upload(u1, u2, cfg) == "[upload] D2 id map holds 49 rows for 48 records"


@pytest.mark.parametrize("change", [
    {"t_jaccard": Fraction(3, 2)}, {"t_block": 1.5}, {"num_perm": 0}, {"rho": 2.0},
    {"strategy": "foo"}])
def test_bad_config_is_refused_before_a_passed_backend_is_used(change):
    # rho was refused only in obfuscate, after upload and merge
    d1, d2, _ = generate_dataset(seed=0, size=60)
    cfg = PipelineConfig()
    u1, u2 = prepare_upload(d1, cfg), prepare_upload(d2, cfg)
    backend = make_backend("clear")
    with pytest.raises(OblivLinkError) as excinfo:
        run_pper_from_uploads(u1, u2, PipelineConfig(**change), backend=backend)
    assert str(excinfo.value).startswith("bad config: ")
    assert backend.ledger.total() == 0 and not backend.transcript


@pytest.mark.parametrize("spec, strategy", [
    ("mpc", "so"), ("mpc", "mj"), ("sim:simd", "so"), ("sim:simd", "mj"),
    ("sim:sharemind", "vr")])
def test_unsupported_strategy_is_refused_before_any_work(spec, strategy):
    # mpc SO was refused only in filter_er, after upload, merge and obfuscate
    d1, d2, _ = generate_dataset(seed=0, size=60)
    kind, _, profile = spec.partition(":")
    cfg = PipelineConfig(backend=kind, profile=profile or "generic", strategy=strategy)
    backend = make_backend(kind, cfg.profile)
    with pytest.raises(CapabilityError) as excinfo:
        run_pper(d1, d2, cfg, backend=backend)
    assert str(excinfo.value) == \
        f"strategy {strategy} unsupported on {backend.kind}/{backend.profile}"
    assert backend.ledger.total() == 0 and not backend.transcript
    if kind == "mpc":
        assert backend.round_stats().messages == 0


def _mutate_line(name, k, change):
    """A mutation of one party directory that rewrites entry k of the JSON
    lines file ``name`` with ``change``."""
    def mutate(path):
        lines = (path / name).read_text().splitlines(keepends=True)
        lines[k] = change(lines[k])
        (path / name).write_text("".join(lines))
    return mutate


def _mutate_first(name, k, value):
    """Entry k of the JSON array lines file ``name`` with its first value
    made ``value``."""
    def rewrite(line):
        row = json.loads(line)
        return json.dumps([value] + row[1:]) + "\n"
    return _mutate_line(name, k, rewrite)


def _mutate_record(k, value):
    return _mutate_first("records.enc", k, value)


def _mutate_digest(k, value):
    return _mutate_first("digests.enc", k, value)


MALFORMED_PARTY_FILES = {
    "record not json": (_mutate_line("records.enc", 2, lambda line: line[:-3] + "\n"),
                        "records.enc entry 2 is not a JSON array"),
    "record an object": (_mutate_line("records.enc", 2, lambda line: '{"containers": [1]}\n'),
                         "records.enc entry 2 is not a JSON array"),
    "record a number": (_mutate_line("records.enc", 2, lambda line: "7\n"),
                        "records.enc entry 2 is not a JSON array"),
    "container off its integer": (_mutate_record(2, 0.5),
                                  "records.enc entry 2 holds a value that is not an integer"),
    "container a bool": (_mutate_record(2, True),
                         "records.enc entry 2 holds a value that is not an integer"),
    "container negative": (_mutate_record(2, -1),
                           "records.enc entry 2 holds a value outside [0, 2^64)"),
    "container past 64 bits": (_mutate_record(2, 1 << 64),
                               "records.enc entry 2 holds a value outside [0, 2^64)"),
    "container past the packing": (_mutate_record(2, 1 << 16),
                                   "D1 record 2 holds a container outside [0, 2^16)"),
    "container repeated": (_mutate_line("records.enc", 2,
                                        lambda line: json.dumps(json.loads(line) * 2) + "\n"),
                           "D1 record 2 repeats a container"),
    "records a row short": (_mutate_line("records.enc", 3, lambda line: ""),
                            "D1 id map holds 12 rows for 11 records"),
    "digest not an integer": (_mutate_digest(3, 1.5),
                              "digests.enc entry 3 holds a value that is not an integer"),
    "digest a bool": (_mutate_digest(3, False),
                      "digests.enc entry 3 holds a value that is not an integer"),
    "digest true": (_mutate_digest(3, True),
                    "digests.enc entry 3 holds a value that is not an integer"),
    "digest a string": (_mutate_digest(3, "3"),
                        "digests.enc entry 3 holds a value that is not an integer"),
    "digest negative": (_mutate_digest(3, -1),
                        "digests.enc entry 3 holds a value outside [0, 2^64)"),
    "digest past 64 bits": (_mutate_digest(3, 1 << 64),
                            "digests.enc entry 3 holds a value outside [0, 2^64)"),
    "digests a band short": (_mutate_line("digests.enc", 3,
                                          lambda line: json.dumps(json.loads(line)[1:]) + "\n"),
                             "digests.enc entry 3 holds 24 bands, not 25"),
    "every digest row a band short": (
        lambda path: (path / "digests.enc").write_text("".join(
            json.dumps(json.loads(line)[1:]) + "\n"
            for line in (path / "digests.enc").read_text().splitlines())),
        "D1 digests hold 24 bands, not 25"),
    "digests a row short": (_mutate_line("digests.enc", 3, lambda line: ""),
                            "D1 digests hold 11 rows for 12 records"),
    "digests a row too many": (_mutate_line("digests.enc", 3, lambda line: line * 2),
                               "D1 digests hold 13 rows for 12 records"),
    "digests not json": (_mutate_line("digests.enc", 3, lambda line: line[:-3] + "\n"),
                         "digests.enc entry 3 is not a JSON array"),
    "manifest not json": (lambda path: (path / "manifest").write_text("pack=1"),
                          "manifest is not a JSON object"),
    "id map row without id": (_mutate_line("idmap.csv", 3, lambda line: "2\n"),
                              "idmap.csv entry 2 holds no record id"),
    "manifest missing": (lambda path: (path / "manifest").unlink(),
                         "p1/manifest cannot be read: No such file or directory"),
    "records missing": (lambda path: (path / "records.enc").unlink(),
                        "p1/records.enc cannot be read: No such file or directory"),
    "digests missing": (lambda path: (path / "digests.enc").unlink(),
                        "p1/digests.enc cannot be read: No such file or directory"),
    "id map missing": (lambda path: (path / "idmap.csv").unlink(),
                       "p1/idmap.csv cannot be read: No such file or directory"),
    "other party missing": (lambda path: shutil.rmtree(path.parent / "p2"),
                            "p2/manifest cannot be read: No such file or directory"),
    "record not utf-8": (lambda path: (path / "records.enc").write_bytes(
        (path / "records.enc").read_bytes() + b"\xff"),
                         "p1/records.enc is not UTF-8 text"),
}


@pytest.fixture(scope="module")
def party_blocks(tmp_path_factory):
    """generate --size 60 --seed 0, then block: the directory of p1 and p2."""
    from oblivlink.cli import main
    root = tmp_path_factory.mktemp("corpus")
    assert main(["generate", "--out", str(root / "data"), "--size", "60", "--seed", "0"]) == 0
    assert main(["block", "--data", str(root / "data"), "--out", str(root / "blocks"),
                 "--seed", "0"]) == 0
    return root / "blocks"


@pytest.mark.parametrize("case", sorted(MALFORMED_PARTY_FILES))
def test_malformed_party_files_are_refused_at_upload(case, party_blocks, tmp_path, capsys):
    from oblivlink.cli import main
    mutate, message = MALFORMED_PARTY_FILES[case]
    blocks = tmp_path / "blocks"
    shutil.copytree(party_blocks, blocks)
    mutate(blocks / "p1")
    got = _refused_upload(blocks / "p1", blocks / "p2", PipelineConfig())
    assert got.startswith("[upload] ") and message in got
    assert main(["link", "--blocks", str(blocks), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [upload] ") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_PARTY_FILES = ("manifest", "records.enc", "digests.enc", "idmap.csv")


def _placed(rows: list, values: list) -> list | None:
    """``values`` placed by their rows, which must name 0..n-1 once each."""
    place = {str(row): value for row, value in zip(rows, values)}
    if len(place) != len(rows) or set(place) != {str(k) for k in range(len(rows))}:
        return None
    return [place[str(k)] for k in range(len(rows))]


def _read_side(files: dict) -> tuple | None:
    """(containers, digests, ids) of one party's files, with records and
    digests placed by their lines and id-map rows by their ``row``
    fields; None when the files do not say one thing."""
    def lines(name):
        out = files[name].decode("utf-8").split("\n")
        return out[:-1] if out[-1] == "" else out
    try:
        containers = [json.loads(line) for line in lines("records.enc")]
        digests = [json.loads(line) for line in lines("digests.enc")]
        id_rows = [line.split(",", 1) for line in lines("idmap.csv")[1:]]
        ids = _placed([r[0] for r in id_rows], [r[1] for r in id_rows])
        bands = PipelineConfig().band_plan().bands
        valid = (ids is not None and len(ids) == len(containers)
                 and all(type(rec) is list for rec in containers)
                 and all(type(c) is int and 0 <= c < 1 << 16 for rec in containers for c in rec)
                 and all(len(set(rec)) == len(rec) for rec in containers)
                 and len(digests) == len(containers)
                 and all(type(row) is list and len(row) == bands for row in digests)
                 and all(type(d) is int and 0 <= d < 1 << 64 for row in digests for d in row))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, IndexError,
            AttributeError):
        return None
    return (containers, digests, ids) if valid else None


def _links_as_read(files: dict) -> list | None:
    """The matches that the default config links from the parties' files,
    computed in the clear over what ``_read_side`` reads."""
    sides = [_read_side(files[party]) for party in ("p1", "p2")]
    if None in sides:
        return None
    (c1, k1, id1), (c2, k2, id2) = sides
    t = PipelineConfig().jaccard_params().threshold
    matches = set()
    for i, j in itertools.product(range(len(c1)), range(len(c2))):
        if any(a == b for a, b in zip(k1[i], k2[j])):
            inter = len(set(c1[i]) & set(c2[j]))
            if (t.denominator + t.numerator) * inter > t.numerator * (len(c1[i]) + len(c2[j])):
                matches.add((id1[i], id2[j]))
    return sorted(matches)


def _mutated(text: str, kind: str, a: int, b: int) -> str:
    """``text`` with one mutation, at positions a and b taken modulo what
    the text holds: two lines swapped, a line dropped or repeated, an
    integer perturbed or given another type, or a JSON key renamed."""
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    i, j = a % len(lines), b % len(lines)
    if kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        pattern = r'"\w+"(?=\s*:)' if kind == "key" else r"-?\d+"
        found = list(re.finditer(pattern, text))
        if not found:
            return text
        hit = found[a % len(found)]
        v = hit.group()
        if kind == "key":
            options = [v[:-1] + '_x"', '"pack"', '"bands"', '"seed"']
        elif kind == "number":
            v = int(v)
            options = [v + 1, v - 1, v + 7, v + (1 << 16), -v - 1]
        else:
            options = [f"{v}.5", f"{v}.0", f'"{v}"', "true", "null", f"[{v}]"]
        return text[:hit.start()] + str(options[b % len(options)]) + text[hit.end():]
    return "".join(lines)


_MUTATION = st.tuples(st.sampled_from(["p1", "p2"]), st.sampled_from(_PARTY_FILES),
                      st.sampled_from(["swap", "drop", "repeat", "number", "type", "key"]),
                      st.integers(0, 1 << 16), st.integers(0, 1 << 16))


@pytest.fixture(scope="module")
def party_files(party_blocks):
    return {party: {name: (party_blocks / party / name).read_bytes() for name in _PARTY_FILES}
            for party in ("p1", "p2")}


@settings(max_examples=150)
@given(st.lists(_MUTATION, min_size=1, max_size=2))
@example([("p1", "records.enc", "swap", 0, 1)])
@example([("p1", "idmap.csv", "swap", 1, 2)])
def test_mutated_party_files_are_refused_or_link_as_they_read(party_files, mutations):
    # a reader that placed id-map rows by their lines would link a swap
    # quietly wrong; the oracle places them by their row fields
    files = {party: dict(named) for party, named in party_files.items()}
    for party, name, kind, a, b in mutations:
        files[party][name] = _mutated(files[party][name].decode("utf-8"), kind, a,
                                      b).encode("utf-8")
    backend = make_backend("clear")
    with tempfile.TemporaryDirectory() as root:
        for party, named in files.items():
            os.mkdir(os.path.join(root, party))
            for name, data in named.items():
                with open(os.path.join(root, party, name), "wb") as fh:
                    fh.write(data)
        try:
            uploads = [read_party_dir(os.path.join(root, party)) for party in ("p1", "p2")]
            result = run_pper_from_uploads(*uploads, PipelineConfig(), backend=backend)
        except StageError as exc:
            assert exc.stage == "upload", exc
            assert backend.ledger.total() == 0 and not backend.transcript
            return
    assert result.matches == _links_as_read(files)


# -- transport ------------------------------------------------------------------------


def _assert_same_upload(loaded: PartyUpload, upload: PartyUpload):
    assert loaded.containers.dtype == np.uint64 and loaded.lengths.dtype == np.int64
    assert loaded.digests.dtype == np.uint64
    assert loaded.containers.tolist() == np.asarray(upload.containers).tolist()
    assert loaded.lengths.tolist() == np.asarray(upload.lengths).tolist()
    assert loaded.digests.tolist() == upload.digests.tolist()
    assert loaded.id_map == upload.id_map and loaded.manifest == upload.manifest


@pytest.mark.parametrize("pack", [1, 4])
def test_party_dir_round_trip(tmp_path, pack):
    d1, _, _ = generate_dataset(seed=1, size=30, split=0.5)
    cfg = PipelineConfig(seed=1, pack=pack)
    upload = prepare_upload(d1, cfg)
    write_party_dir(str(tmp_path / "p1"), upload)
    loaded = read_party_dir(str(tmp_path / "p1"))
    _assert_same_upload(loaded, upload)
    assert loaded.index == upload.index
    assert loaded.manifest["pack"] == pack


@given(records=st.lists(st.lists(st.one_of(st.integers(0, (1 << 16) - 1),
                                           st.integers(0, (1 << 64) - 1),
                                           st.just((1 << 64) - 1)), max_size=4), max_size=5),
       pack=st.sampled_from([1, 4]), bands=st.integers(1, 3), data=st.data())
def test_party_dir_round_trips_the_flat_layout(records, pack, bands, data):
    # zero records, empty records, 2^64-1 and either packing: what is written
    # reads back as the same arrays, and links or is refused alike
    digests = np.array(data.draw(st.lists(st.integers(0, (1 << 64) - 1),
                                          min_size=len(records) * bands,
                                          max_size=len(records) * bands)),
                       dtype=np.uint64).reshape(len(records), bands)
    upload = _upload_of(records, digests, [f"id{k},x" for k in range(len(records))],
                        {"pack": pack})
    with tempfile.TemporaryDirectory() as root:
        write_party_dir(root, upload)
        loaded = read_party_dir(root)
    _assert_same_upload(loaded, upload)
    if records:
        assert loaded.digests.shape == upload.digests.shape
    cfg = PipelineConfig(pack=pack)
    plan = BandPlan(bands, 1)
    verdicts = []
    for up in (upload, loaded):
        try:
            validate_uploads(up, up, cfg, plan)
            verdicts.append(None)
        except StageError as exc:
            verdicts.append(str(exc))
    assert verdicts[0] == verdicts[1]


def test_run_from_transport_equals_in_memory(tmp_path):
    d1, d2, _ = generate_dataset(seed=0, size=40, split=0.25)
    cfg = PipelineConfig(backend="clear", strategy="ve", seed=0)
    direct = run_pper(d1, d2, cfg)
    write_party_dir(str(tmp_path / "p1"), prepare_upload(d1, cfg))
    write_party_dir(str(tmp_path / "p2"), prepare_upload(d2, cfg))
    via_files = run_pper_from_uploads(read_party_dir(str(tmp_path / "p1")),
                                      read_party_dir(str(tmp_path / "p2")), cfg)
    assert via_files.matches == direct.matches
