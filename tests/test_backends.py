"""Backend capability table, cost ledger, and obliviousness trace checks."""

from fractions import Fraction

import numpy as np
import pytest

from oblivlink import (CapabilityError, DomainError, JaccardParams, Machine, PipelineConfig,
                       Strategy, TaintViolation, assert_oblivious, generate_dataset,
                       jaccard_match, intersection_size, make_backend, prepare_upload,
                       run_pper, run_pper_from_uploads, Runs)
from oblivlink.backends import (CAPS_ALL, CAPS_SHAREMIND, CAPS_SIMD, EXACT, Backend,
                                Observation, SimBackend)
from oblivlink.backends.base import KERNELS, band_outer, to_u64
from oblivlink.backends.local import LocalBackend
from oblivlink.mpc import MpcBackend

from conftest import EXACT_BACKENDS, open_machine


def test_profile_capability_tables():
    assert CAPS_SIMD.rotation and CAPS_SIMD.division
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
    assert runs[0][0]  # the corpus links some pairs
    assert runs[0] == runs[1]


def test_clear_backend_equals_plain_arithmetic():
    mach, auth, _ = open_machine("clear", seed=1)
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.integers(-10**6, 10**6, size=6).tolist()
        y = rng.integers(-10**6, 10**6, size=6).tolist()
        ex, ey = mach.enc(x), mach.enc(y)
        assert mach.dec(mach.eadd(ex, ey), auth) == [a + c for a, c in zip(x, y)]
        assert mach.dec(mach.esub(ex, ey), auth) == [a - c for a, c in zip(x, y)]
        assert mach.dec(mach.emul(ex, ey), auth) == [a * c for a, c in zip(x, y)]
        assert mach.dec(mach.dot(ex, ey), auth) == sum(a * c for a, c in zip(x, y))


# -- ledger -------------------------------------------------------------------


def test_pj_ledger_counts_mn_equality_gates():
    for m, n in ((3, 5), (4, 4), (1, 7)):
        mach, _, b = open_machine("sim:generic")
        v1 = mach.enc(list(range(m)))
        v2 = mach.enc(list(range(100, 100 + n)))
        b.ledger.counts.clear()
        intersection_size(mach, v1, v2, Strategy.PJ)
        assert b.ledger.by_op()["eq"] == m * n


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


def test_ledger_depends_only_on_public_shapes():
    def run(values1, values2):
        mach, _, b = open_machine("sim:generic")
        intersection_size(mach, mach.enc(values1), mach.enc(values2), Strategy.VE)
        jaccard_match(mach, mach.enc(values1), mach.enc(values2),
                      JaccardParams(Fraction(1, 2)), Strategy.VR)
        rows = b.ledger.rows()
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


def test_per_pair_cost_ordering_pj_dominates():
    # ledger totals per candidate pair: PJ > VR and PJ > VE at >= 4 tokens
    def total_for(strategy, spec="sim:generic"):
        mach, _, b = open_machine(spec)
        v1 = mach.enc([11, 22, 33, 44])
        v2 = mach.enc([22, 55, 66, 77])
        b.ledger.counts.clear()
        jaccard_match(mach, v1, v2, JaccardParams(Fraction(1, 2)), strategy)
        total = b.ledger.total()
        return total

    assert total_for(Strategy.PJ) > total_for(Strategy.VR)
    assert total_for(Strategy.PJ) > total_for(Strategy.VE)


# -- trace / obliviousness ---------------------------------------------------------


def _trace_of(callable_, spec="sim:generic"):
    mach, auth, b = open_machine(spec)
    b.enable_trace()
    callable_(mach, auth)
    trace = list(b.trace)
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
    mach, _, _ = open_machine("sim:generic")
    secret = mach.enc(1)
    with pytest.raises(TaintViolation):
        if secret:  # content-dependent branch: the negative control
            pass


def test_diverging_traces_detected():
    def run(n):
        def body(mach, auth):
            for _ in range(n):
                mach.enc(0)
        return _trace_of(body)

    with pytest.raises(TaintViolation):
        assert_oblivious(run(2), run(3))


def test_simd_profile_rejects_sort_supports_rotation():
    mach, _, _ = open_machine("sim:simd")
    with pytest.raises(CapabilityError):
        mach.sort_vec(mach.enc([3.0, 1.0]))
    mach.rshift(mach.enc([1.0, 2.0]), 1)


def test_sharemind_profile_supports_join_rejects_rotation():
    mach, _, _ = open_machine("sim:sharemind")
    mach.join_count(mach.enc([1, 2]), mach.enc([2, 3]))
    with pytest.raises(CapabilityError):
        mach.rshift(mach.enc([1, 2]), 1)


def test_transcript_batches_read_as_the_single_observations():
    # upload observes each record's container count on its own: the P3 view
    # of a side's lengths is one observation per record, in row order
    d1, d2, _ = generate_dataset(seed=1, size=30, split=0.3)
    config = PipelineConfig(rho=0.05)
    u1, u2 = prepare_upload(d1, config), prepare_upload(d2, config)
    backend = make_backend("clear")
    result = run_pper_from_uploads(u1, u2, config, backend=backend)
    assert isinstance(backend.transcript, list)
    assert all(type(o) is Observation for o in backend.transcript)
    expected = [("D1", row, n) for row, n in enumerate(u1.lengths.tolist())]
    expected += [("D2", row, n) for row, n in enumerate(u2.lengths.tolist())]
    counts = [o.value for o in backend.transcript if o.kind == "record_container_count"]
    assert counts == expected and len(counts) == sum(result.shape)
    for value in counts:
        assert [type(v) for v in value] == [str, int, int]
    assert backend.observations("P3") == [o for o in backend.transcript if o.role == "P3"]
    # single observe calls keep their order and their roles apart
    single = make_backend("clear")
    single.observe("P3", "dataset_size", ("D1", 2))
    single.observe("P1", "note", "first")
    single.observe("P3", "label", [])
    assert [o.kind for o in single.observations("P3")] == ["dataset_size", "label"]
    assert single.observations("P1") == [Observation("P1", "note", "first")]
    assert single.transcript[-1].value == []


def test_transcript_copy_is_a_snapshot():
    d1, d2, _ = generate_dataset(seed=0, size=20, split=0.25)
    backend = make_backend("clear")
    result = run_pper(d1, d2, PipelineConfig(rho=0.05), backend=backend)
    seen = list(backend.transcript)
    assert result.transcript == seen and result.transcript is not backend.transcript
    # later observations and edits on either side stay on that side
    backend.observe("P3", "late", 1)
    assert result.transcript == seen
    result.transcript.append(Observation("P3", "extra", 2))
    assert backend.transcript[-1] == Observation("P3", "late", 1)
    assert len(backend.transcript) == len(seen) + 1
    backend.transcript.clear()
    assert result.transcript[:-1] == seen


# -- one definition per primitive ----------------------------------------------------

SHARED_PRIMITIVES = ("add", "sub", "mul", "dot", "matmul", "vecmat", "outer", "transpose",
                     "rotate", "tile", "repeat_each", "take", "concat", "segment_sum",
                     "slice", "vget", "broadcast", "stack", "eq", "gt")


def test_shared_primitives_are_defined_once_on_machine():
    for cls in (Backend, LocalBackend, SimBackend, MpcBackend):
        assert not set(SHARED_PRIMITIVES + ("_product", "_rotate")) & set(vars(cls)), cls
    # mpc lacks these capabilities; Machine refuses them before any call
    assert not {"sort", "join_counts", "masked_reciprocal", "approx_eq"} & set(vars(MpcBackend))


@pytest.mark.parametrize("spec, call, error", [
    ("sim:sharemind", lambda mach, v: mach.rshift(v, 1), CapabilityError),
    ("mpc", lambda mach, v: mach.sort_vec(v), CapabilityError),
    ("mpc", lambda mach, v: mach.join_counts(Runs(v), Runs(v), [(0, 0)]), CapabilityError),
    ("mpc", lambda mach, v: mach.masked_reciprocal(v), CapabilityError),
    ("clear", lambda mach, v: mach.masked_reciprocal(v), DomainError),
])
def test_a_capability_refusal_records_nothing(spec, call, error):
    mach, _, b = open_machine(spec, seed=3)
    v = mach.enc([2, 1])
    b.enable_trace()
    before = b.ledger.rows()
    with pytest.raises(error):
        call(mach, v)
    assert b.ledger.rows() == before and b.trace == []


class _BareBackend(Backend):
    """Only what a backend must supply, over numpy values: enc, dec, the
    four kernel hooks, sort and join_counts.  It records nothing."""

    kind = "bare"

    def __init__(self):
        super().__init__(CAPS_ALL, EXACT)

    def enc(self, value):
        return to_u64(value)

    def dec(self, payload):
        return payload.view(np.int64).copy()

    def _linear(self, op, srcs, *args):
        return KERNELS[op](*srcs, *args)

    def _bilinear(self, op, a, b):
        return KERNELS[op](a, b)

    def _compare(self, op, a, b):
        bit = a == b if op == "eq" else a.view(np.int64) > b.view(np.int64)
        return bit.astype(np.uint64)

    def band_eq(self, a, b, columns):
        return band_outer(np.equal, a, b, columns).astype(np.uint64)

    def sort(self, v):
        return np.sort(v.view(np.int64)).view(np.uint64)

    def join_counts(self, v1, len1, v2, len2, cells):
        p1, p2 = np.split(v1, np.cumsum(len1)[:-1]), np.split(v2, np.cumsum(len2)[:-1])
        return to_u64([len(np.intersect1d(p1[i], p2[j], assume_unique=True))
                       for i, j in cells.tolist()])


def test_a_backend_that_only_computes_records_what_clear_records():
    def run(backend):
        mach = Machine(backend)
        auth = backend.issue_authority("owners", "P1")
        backend.enable_trace()
        v = mach.enc([5, -3, 9, 1])
        runs = mach.enc_runs([4, 9, 7, 1, 5], [2, 3])
        out = [mach.rshift(v, 1), mach.lshift(v, 3), mach.sort_vec(v),
               mach.join_counts(runs, Runs(v), [(0, 0), (1, 0)]), mach.eeq(v, mach.sort_vec(v)),
               mach.band_eq(mach.enc([[1, 2], [3, 4]]), mach.enc([[1, 4], [5, 2], [3, 2]]),
                            [1, 0])]
        values = [mach.dec(x, auth) for x in out]
        return values, backend.ledger.rows(), list(backend.trace)

    want = run(make_backend("clear"))
    assert want[0] == [[1, 5, -3, 9], [1, 5, -3, 9], [-3, 1, 5, 9], [1, 2], [0, 0, 0, 0],
                       [0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1]]
    assert run(_BareBackend()) == want


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
