"""Backend capability table, cost ledger, and obliviousness trace checks."""

from fractions import Fraction

import numpy as np
import pytest

from oblivlink import (CapabilityError, JaccardParams, PipelineConfig, Strategy,
                       TaintViolation, assert_oblivious, generate_dataset, jaccard_match,
                       intersection_size, make_backend, run_pper)
from oblivlink.backends import (CAPS_ALL, CAPS_SHAREMIND, CAPS_SIMD, EXACT, Backend,
                                SimBackend)
from oblivlink.backends.local import LocalBackend
from oblivlink.mpc import MpcBackend

from conftest import EXACT_BACKENDS, open_machine


def test_profile_capability_tables():
    assert CAPS_SIMD.rotation and CAPS_SIMD.repeat_elements and CAPS_SIMD.division
    assert not (CAPS_SIMD.native_eq or CAPS_SIMD.sort or CAPS_SIMD.join)
    assert CAPS_SHAREMIND.native_eq and CAPS_SHAREMIND.sort and CAPS_SHAREMIND.join
    assert not CAPS_SHAREMIND.rotation and not CAPS_SHAREMIND.division


def test_unknown_kind_and_profile_rejected():
    with pytest.raises(ValueError):
        make_backend("quantum")
    with pytest.raises(ValueError):
        make_backend("sim", profile="exotic")


def test_clear_is_the_generic_simulator():
    b = make_backend("clear", profile="simd")
    assert (b.caps, b.domain) == (CAPS_ALL, EXACT)
    b.close()
    d1, d2, _ = generate_dataset(seed=0, size=100)
    runs = []
    for kind in ("clear", "sim"):
        backend = make_backend(kind, "generic", seed=0)
        backend.enable_trace()
        result = run_pper(d1, d2, PipelineConfig(backend=kind, seed=0), backend=backend)
        transcript = [(o.role, o.kind, np.asarray(o.value).tolist())
                      for o in result.transcript]
        runs.append((result.matches, result.ledger.to_csv(), result.trace, transcript,
                     result.strategy))
        backend.close()
    assert runs[0][0]  # the corpus links some pairs
    assert runs[0] == runs[1]


def test_clear_backend_equals_plain_arithmetic():
    mach, auth, b = open_machine("clear", seed=1)
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.integers(-10**6, 10**6, size=6).tolist()
        y = rng.integers(-10**6, 10**6, size=6).tolist()
        ex, ey = mach.enc(x), mach.enc(y)
        assert mach.dec(mach.eadd(ex, ey), auth) == [a + c for a, c in zip(x, y)]
        assert mach.dec(mach.esub(ex, ey), auth) == [a - c for a, c in zip(x, y)]
        assert mach.dec(mach.emul(ex, ey), auth) == [a * c for a, c in zip(x, y)]
        assert mach.dec(mach.dot(ex, ey), auth) == sum(a * c for a, c in zip(x, y))
    b.close()


# -- ledger -------------------------------------------------------------------


def test_pj_ledger_counts_mn_equality_gates():
    for m, n in ((3, 5), (4, 4), (1, 7)):
        mach, _, b = open_machine("sim:generic")
        v1 = mach.enc(list(range(m)))
        v2 = mach.enc(list(range(100, 100 + n)))
        b.ledger.counts.clear()
        intersection_size(mach, v1, v2, Strategy.PJ)
        assert b.ledger.by_op()["eq"] == m * n
        b.close()


def test_vr_ledger_counts_rotations_and_subtractions():
    for m, n in ((4, 4), (2, 6), (5, 3)):
        big = max(m, n)
        mach, _, b = open_machine("sim:generic")
        v1 = mach.enc(list(range(m)))
        v2 = mach.enc(list(range(100, 100 + n)))
        b.ledger.counts.clear()
        intersection_size(mach, v1, v2, Strategy.VR)
        ops = b.ledger.by_op()
        assert ops["rotate"] == big
        assert ops["sub"] == big
        b.close()


def test_ledger_depends_only_on_public_shapes():
    def run(values1, values2):
        mach, _, b = open_machine("sim:generic")
        intersection_size(mach, mach.enc(values1), mach.enc(values2), Strategy.VE)
        jaccard_match(mach, mach.enc(values1), mach.enc(values2),
                      JaccardParams(Fraction(1, 2)), Strategy.VR)
        rows = b.ledger.rows()
        b.close()
        return rows

    first = run([1, 2, 3], [9, 8])
    second = run([70, 5, 41], [3, 3000])
    assert first == second


def test_ledger_csv_export():
    mach, _, b = open_machine("sim:generic")
    with b.stage("demo"):
        mach.eadd(mach.enc([1]), mach.enc([2]))
    csv = b.ledger.to_csv()
    assert csv.splitlines()[0] == "stage,primitive,count"
    assert "demo,add,1" in csv
    b.close()


def test_per_pair_cost_ordering_pj_dominates():
    # ledger totals per candidate pair: PJ > VR and PJ > VE at >= 4 tokens
    def total_for(strategy, spec="sim:generic"):
        mach, _, b = open_machine(spec)
        v1 = mach.enc([11, 22, 33, 44])
        v2 = mach.enc([22, 55, 66, 77])
        b.ledger.counts.clear()
        jaccard_match(mach, v1, v2, JaccardParams(Fraction(1, 2)), strategy)
        total = b.ledger.total()
        b.close()
        return total

    assert total_for(Strategy.PJ) > total_for(Strategy.VR)
    assert total_for(Strategy.PJ) > total_for(Strategy.VE)


# -- trace / obliviousness ---------------------------------------------------------


def _trace_of(callable_, spec="sim:generic"):
    mach, auth, b = open_machine(spec)
    b.enable_trace()
    callable_(mach, auth)
    trace = list(b.trace)
    b.close()
    return trace


def test_choose_twin_traces_identical():
    def run(x, y, c):
        def body(mach, auth):
            mach.choose(mach.enc(c), mach.enc(x), mach.enc(y))
        return _trace_of(body)

    assert_oblivious(run(5, 9, 1), run(700, -3, 0))


def test_machine_ops_twin_traces_identical():
    def run(seedval):
        rng = np.random.default_rng(seedval)
        values = rng.integers(0, 100, size=6).tolist()
        idx = int(rng.integers(0, 6))

        def body(mach, auth):
            vec = mach.enc(values)
            mach.vector_update(vec, mach.enc(idx), mach.enc(int(rng.integers(0, 9))))
            mach.matrix_update(mach.enc([[0] * 3] * 3), mach.enc(idx % 3),
                               mach.enc(idx % 3), mach.enc(1))
            intersection_size(mach, vec, mach.enc(values[::-1]), Strategy.VE)
        return _trace_of(body)

    assert_oblivious(run(1), run(99))


def test_leaky_gadget_triggers_taint_violation():
    mach, _, b = open_machine("sim:generic")
    secret = mach.enc(1)
    with pytest.raises(TaintViolation):
        if secret:  # content-dependent branch: the negative control
            pass
    b.close()


def test_diverging_traces_detected():
    def run(n):
        def body(mach, auth):
            for _ in range(n):
                mach.enc(0)
        return _trace_of(body)

    with pytest.raises(TaintViolation):
        assert_oblivious(run(2), run(3))


def test_simd_profile_rejects_sort_supports_rotation():
    mach, _, b = open_machine("sim:simd")
    with pytest.raises(CapabilityError):
        mach.sort_vec(mach.enc([3.0, 1.0]))
    mach.rshift(mach.enc([1.0, 2.0]), 1)
    b.close()


def test_sharemind_profile_supports_join_rejects_rotation():
    mach, _, b = open_machine("sim:sharemind")
    mach.join_count(mach.enc([1, 2]), mach.enc([2, 3]))
    with pytest.raises(CapabilityError):
        mach.rshift(mach.enc([1, 2]), 1)
    b.close()


def test_cost_weights_influence_auto_choice():
    from oblivlink import pick_strategy
    _, _, b = open_machine("sim:generic")
    assert pick_strategy(b.caps, 8, 8) == Strategy.MJ
    assert pick_strategy(b.caps, 8, 8, weights={"join": 10_000.0}) != Strategy.MJ
    b.close()


def test_transcript_batches_read_as_the_single_observations():
    single, batched = make_backend("clear"), make_backend("clear")
    keys, sizes = ["000-aa", "001-bb", "002-cc"], np.array([3, 1, 2])
    single.observe("P3", "dataset_size", ("D1", 3))
    for row, n in enumerate(sizes.tolist()):
        single.observe("P3", "record_container_count", ("D1", row, n))
    for key, n in zip(keys, sizes.tolist()):
        single.observe("P3", "block_key", key)
        single.observe("P3", "block_size", ("D1", key, n))
    single.observe("P1", "note", "last")

    assert not batched.transcript
    batched.observe("P3", "dataset_size", ("D1", 3))
    batched.observe_batch("P3", ("record_container_count",
                                 (["D1"] * 3, range(3), sizes.tolist())))
    batched.observe_batch("P3", ("block_key", (keys,)),
                          ("block_size", (["D1"] * 3, keys, sizes.tolist())))
    batched.observe_batch("P3", ("block_key", ([],)))
    batched.observe("P1", "note", "last")

    read = list(batched.transcript)
    assert read == list(single.transcript)
    assert len(batched.transcript) == len(read) == 11 and batched.transcript
    assert batched.transcript[1] == read[1] and batched.transcript[-1] == read[-1]
    assert batched.observations("P3") == single.observations("P3") == read[:-1]
    assert batched.observations("P1") == [read[-1]]
    # values keep their Python types
    types = {"record_container_count": [str, int, int], "block_size": [str, str, int]}
    for obs in read:
        if obs.kind in types:
            assert [type(v) for v in obs.value] == types[obs.kind]
    with pytest.raises(ValueError):
        batched.observe_batch("P3", ("block_size", (["D1"], keys, sizes.tolist())))
    assert len(batched.transcript) == 11


def test_transcript_copy_is_a_snapshot():
    backend = make_backend("clear")
    backend.observe("P3", "dataset_size", ("D1", 2))
    backend.observe_batch("P3", ("block_key", (["000-aa", "001-bb"],)))
    copy = backend.transcript.copy()
    backend.observe("P3", "late", 1)
    backend.observe_batch("P3", ("block_key", (["002-cc"],)))
    assert len(copy) == 3 and [o.kind for o in copy] == ["dataset_size", "block_key", "block_key"]
    assert len(backend.transcript) == 5


# -- one definition per primitive ----------------------------------------------------

SHARED_PRIMITIVES = ("add", "sub", "mul", "dot", "matmul", "vecmat", "outer", "transpose",
                     "rotate", "tile", "repeat_each", "take", "concat", "segment_sum",
                     "slice", "vget", "broadcast", "stack", "eq", "gt")


def test_shared_primitives_are_defined_once_on_backend():
    assert all(name in vars(Backend) for name in SHARED_PRIMITIVES)
    for cls in (LocalBackend, SimBackend, MpcBackend):
        assert not set(SHARED_PRIMITIVES) & set(vars(cls)), cls
    # mpc lacks these capabilities, and inherits the refusal
    assert not {"sort", "join_counts", "masked_reciprocal", "approx_eq"} & set(vars(MpcBackend))


def _public_arguments(i, lo, hi, times, n):
    def body(mach, auth):
        v = mach.enc([3, 1, 4, 1, 5])
        s = mach.enc(7)
        mach.vget(v, i)
        mach.slice(v, lo, hi)
        mach.tile(v, times)
        mach.repeat_each(v, times)
        mach.broadcast(s, n)
        mach.broadcast_mat(s, (2, n))
        mach.stack(s, mach.vget(v, i))
        mach.dot(mach.emul(mach.sub(mach.add(v, v), v), v), v)
    return body


def test_one_program_records_one_trace_on_every_exact_backend():
    base = (0, 1, 3, 2, 2)
    traces = {spec: _trace_of(_public_arguments(*base), spec) for spec in EXACT_BACKENDS}
    assert all(trace == traces["clear"] for trace in traces.values())
    # the twin check sees a different index, slice bound, count or size on
    # every backend alike
    for k, changed in enumerate((3, 0, 2, 3, 4)):
        args = base[:k] + (changed,) + base[k + 1:]
        for spec in EXACT_BACKENDS:
            with pytest.raises(TaintViolation):
                assert_oblivious(traces[spec], _trace_of(_public_arguments(*args), spec))
