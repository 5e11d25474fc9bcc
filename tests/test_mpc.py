"""Three-party secret-sharing backend: share algebra, Beaver multiplication,
dealer gates, round accounting, and transcript hygiene."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from oblivlink import (DomainError, JaccardParams, Machine, PipelineConfig, ShapeError, Strategy,
                       generate_dataset, jaccard_match, run_pper)
from oblivlink.backends import base
from oblivlink.backends.base import KERNELS
from oblivlink.mpc import MpcBackend, reconstruct3, share3
from oblivlink.mpc.sharing import BeaverTriple, beaver_combine, make_triples, rand_u64

from conftest import ALL_BACKENDS, EXACT_BACKENDS, dec_round, open_machine

MASK64 = (1 << 64) - 1


# -- share algebra ------------------------------------------------------------


def test_share_reconstruct_examples():
    rng = np.random.default_rng(1)
    parts = share3(np.asarray(42, dtype=np.uint64), rng)
    assert int(reconstruct3(parts)) == 42
    zero_parts = share3(np.asarray(0, dtype=np.uint64), rng)
    assert any(int(p) != 0 for p in zero_parts)
    assert int(reconstruct3(zero_parts)) == 0


def test_share_round_trip_10k_values():
    rng = np.random.default_rng(2)
    values = rand_u64(rng, (10_000,))
    parts = share3(values, rng)
    assert np.array_equal(reconstruct3(parts), values)


def test_local_add_sub_match_wrapping_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        y = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        xs = share3(np.asarray(x, dtype=np.uint64), rng)
        ys = share3(np.asarray(y, dtype=np.uint64), rng)
        with np.errstate(over="ignore"):
            added = [a + b for a, b in zip(xs, ys)]
            subbed = [a - b for a, b in zip(xs, ys)]
            back = [a - b for a, b in zip(added, ys)]
        assert int(reconstruct3(added)) == (x + y) & MASK64
        assert int(reconstruct3(subbed)) == (x - y) & MASK64
        assert int(reconstruct3(back)) == x


def test_beaver_combine_oracle():
    rng = np.random.default_rng(4)
    for _ in range(300):
        x, y = int(rng.integers(0, 1 << 32)), int(rng.integers(0, 1 << 32))
        xs = share3(np.asarray(x, dtype=np.uint64), rng)
        ys = share3(np.asarray(y, dtype=np.uint64), rng)
        triples = make_triples("mul", (), (), rng)
        with np.errstate(over="ignore"):
            d = reconstruct3([xs[i] - triples[i].a for i in range(3)])
            e = reconstruct3([ys[i] - triples[i].b for i in range(3)])
        z = reconstruct3([beaver_combine("mul", i, triples[i], d, e) for i in range(3)])
        assert int(z) == (x * y) & MASK64


def _five_draw_triples(op, shape_a, shape_b, rng):
    """Triple generation in five draws (a, b, then one per sharing), kept as
    the reference for the one-draw ``make_triples``."""
    a = rand_u64(rng, shape_a)
    b = rand_u64(rng, shape_b)
    c = KERNELS[op](a, b)
    a_parts, b_parts, c_parts = share3(a, rng), share3(b, rng), share3(c, rng)
    return [BeaverTriple(a_parts[i], b_parts[i], c_parts[i]) for i in range(3)]


@pytest.mark.parametrize("op, shape_a, shape_b", [
    ("mul", (), ()), ("mul", (5,), (5,)), ("mul", (2, 3), (2, 3)), ("mul", (0,), (0,)),
    ("dot", (4,), (4,)), ("dot", (0,), (0,)), ("outer", (3,), (4,)),
    ("vecmat", (3,), (3, 2)), ("matmul", (2, 3), (3, 4)),
])
def test_one_draw_triples_equal_five_draws(op, shape_a, shape_b):
    rngs = np.random.default_rng(19), np.random.default_rng(19)
    got = make_triples(op, shape_a, shape_b, rngs[0])
    want = _five_draw_triples(op, shape_a, shape_b, rngs[1])
    for g, w in zip(got, want):
        for x, y in ((g.a, w.a), (g.b, w.b), (g.c, w.c)):
            assert type(x) is type(y) and np.shape(x) == np.shape(y)
            assert np.array_equal(x, y)
    # the streams stay aligned for the next triple
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_bilinear_forms_match_numpy():
    rng = np.random.default_rng(5)
    u = rand_u64(rng, (4,))
    v = rand_u64(rng, (4,))
    with np.errstate(over="ignore"):
        assert np.array_equal(KERNELS["mul"](u, v), u * v)
        assert int(KERNELS["dot"](u, v)) == int((u * v).sum())
        assert np.array_equal(KERNELS["outer"](u, v), u[:, None] * v[None, :])
        # wrapping products of a transposed (non-contiguous) operand
        a, b = rand_u64(rng, (5, 3)).T, rand_u64(rng, (5, 4))
        assert np.array_equal(KERNELS["matmul"](a, b),
                              (a[:, :, None] * b[None, :, :]).sum(axis=1))


def _operand(rng, shape, kind):
    if kind == "uniform":  # all four 16-bit limbs live
        return rand_u64(rng, shape)
    if kind == "max":
        return np.full(shape, MASK64, dtype=np.uint64)
    if kind == "bits":
        return rng.integers(0, 2, size=shape, dtype=np.uint64)
    return rng.integers(0, 1 << 20, size=shape, dtype=np.uint64)  # small: two limbs


OPERAND_KINDS = ("uniform", "max", "bits", "small")


@given(shape=st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
       kinds=st.tuples(st.sampled_from(OPERAND_KINDS), st.sampled_from(OPERAND_KINDS)),
       transposed=st.tuples(st.booleans(), st.booleans()), seed=st.integers(0, 2 ** 32 - 1))
def test_matmul_kernel_wraps_exactly(shape, kinds, transposed, seed):
    rng = np.random.default_rng(seed)
    m, k, n = shape
    a = _operand(rng, (k, m), kinds[0]).T if transposed[0] else _operand(rng, (m, k), kinds[0])
    b = _operand(rng, (n, k), kinds[1]).T if transposed[1] else _operand(rng, (k, n), kinds[1])
    with np.errstate(over="ignore"):
        want = (a[:, :, None] * b[None, :, :]).sum(axis=1)
    # products this small take numpy's integer loop; force the limb path too
    for floor in (base._LIMB_MIN_MACS, 0):
        with mock.patch.object(base, "_LIMB_MIN_MACS", floor):
            got = KERNELS["matmul"](a, b)
        assert got.dtype == np.uint64 and got.shape == (m, n)
        assert np.array_equal(got, want)


def test_matmul_kernel_sums_past_the_float64_integer_range():
    # (2^16-1)^2 per limb term: one float64 sum of 2^21+129 of them passes
    # 2^53 and rounds, so the inner dimension must be summed in chunks
    k = (1 << 21) + 129
    a = np.full((1, k), MASK64, dtype=np.uint64)
    b = np.full((k, 1), MASK64, dtype=np.uint64)
    with np.errstate(over="ignore"):
        want = (a[:, :, None] * b[None, :, :]).sum(axis=1)
    assert int(want[0, 0]) == k  # (2^64-1)^2 = 1 mod 2^64
    assert np.array_equal(KERNELS["matmul"](a, b), want)


def test_matmul_kernel_keeps_float64_products():
    rng = np.random.default_rng(8)
    a, b = rng.random((6, 5)), rng.random((5, 3))
    assert np.array_equal(KERNELS["matmul"](a, b), np.matmul(a, b))
    assert np.array_equal(KERNELS["matmul"](a.T.copy().T, b), np.matmul(a, b))


# -- machine-level protocol runs --------------------------------------------------


def test_beaver_mul_through_actors():
    mach, auth, b = open_machine("mpc", seed=6)
    assert mach.dec(mach.mul(mach.enc(6), mach.enc(7)), auth) == 42
    assert mach.dec(mach.mul(mach.enc(0), mach.enc(12345)), auth) == 0
    b.close()


def test_beaver_mul_is_one_round():
    mach, _, b = open_machine("mpc", seed=7)
    x, y = mach.enc(6), mach.enc(7)
    before = b.round_stats().rounds
    mach.mul(x, y)
    assert b.round_stats().rounds - before == 1


def test_beaver_mul_10k_round_trips_exact():
    mach, auth, b = open_machine("mpc", seed=8)
    rng = np.random.default_rng(8)
    xs = rng.integers(0, 1 << 62, size=10_000, dtype=np.uint64)
    ys = rng.integers(0, 1 << 62, size=10_000, dtype=np.uint64)
    got = mach.dec(mach.emul(mach.enc(xs), mach.enc(ys)), auth)
    with np.errstate(over="ignore"):
        expected = (xs * ys).view(np.int64).tolist()
    assert got == expected
    for _ in range(50):  # scalar gates too, not just the batched path
        x, y = int(rng.integers(0, 1 << 31)), int(rng.integers(0, 1 << 31))
        assert mach.dec(mach.mul(mach.enc(x), mach.enc(y)), auth) == x * y
    b.close()


def test_opened_beaver_maskings_look_uniform():
    # the same (x, y) multiplied 100 times opens fresh-looking d, e values
    b = MpcBackend(seed=9, record_messages=True)
    mach = Machine(b)
    x, y = mach.enc(123), mach.enc(456)
    for _ in range(100):
        mach.mul(x, y)
    b.net.pump()
    opened = [int(np.asarray(env.payload["d"])) for env in b.net.log if env.kind == "open"]
    buckets = np.bincount([v >> 61 for v in opened], minlength=8)
    assert stats.chisquare(buckets).pvalue > 0.01
    b.close()


@pytest.mark.parametrize("op", ["enc", "enc_runs", "mul", "eeq", "gt", "take"])
def test_primitive_has_finished_when_it_returns(op):
    # run-to-completion: the result is in every party's store and nothing
    # is left in flight, so per-stage time and traffic belong to the caller
    mach, auth, b = open_machine("mpc", seed=19)
    x, y = mach.enc([3, 9, 4]), mach.enc([3, 1, 5])
    out = {"enc": lambda: [mach.enc([7, 8])],
           "enc_runs": lambda: mach.enc_runs([7, 8, 6], [2, 0, 1]),
           "mul": lambda: [mach.mul(x, y)],
           "eeq": lambda: [mach.eeq(x, y)],
           "gt": lambda: [mach.gt(x, y, bound=8)],
           "take": lambda: [mach.take(x, [2, 0])]}[op]()
    assert all(v.payload.hid in p.store for v in out for p in b.parties)
    assert len(b.net.queue) == 0
    want = {"enc": [[7, 8]], "enc_runs": [[7, 8], [], [6]], "mul": [[9, 9, 20]],
            "eeq": [[1, 0, 0]], "gt": [[0, 1, 0]], "take": [[4, 3]]}[op]
    assert [mach.dec(v, auth) for v in out] == want
    b.close()


def _enc_each_run(mach, flat, lengths):
    out, lo = [], 0
    for n in lengths:
        out.append(mach.enc(flat[lo:lo + n]))
        lo += n
    return out


@pytest.mark.parametrize("spec", ALL_BACKENDS)
@given(lengths=st.lists(st.integers(0, 6), max_size=6), data=st.data())
def test_enc_runs_equals_enc_one_run_at_a_time(spec, lengths, data):
    total = sum(lengths)
    flat = data.draw(st.lists(st.integers(0, (1 << 40) - 1), min_size=total, max_size=total))
    seen = []
    for encrypt in (_enc_each_run, Machine.enc_runs):
        mach, auth, b = open_machine(spec, seed=31)
        b.enable_trace()
        vectors = encrypt(mach, flat, lengths)
        ledger, trace = b.ledger.rows(), list(b.trace)
        stats = b.round_stats().to_csv() if spec == "mpc" else None
        shares = ([[p.store[v.payload.hid].tolist() for p in b.parties] for v in vectors]
                  if spec == "mpc" else None)
        seen.append((ledger, trace, stats, shares, [dec_round(mach, auth, v) for v in vectors]))
        b.close()
    assert seen[0] == seen[1]
    starts = np.cumsum([0] + lengths).tolist()
    assert seen[1][-1] == [flat[lo:hi] for lo, hi in zip(starts, starts[1:])]


@pytest.mark.parametrize("spec", EXACT_BACKENDS)
def test_enc_runs_keeps_64_bit_values_exact(spec):
    # a list mixing small values and values of 2^63 or more once became
    # float64 on its way to the backend, and the large ones lost their low bits
    mach, auth, b = open_machine(spec, seed=33)
    flat = [1, (1 << 63) + 5, (1 << 64) - 1]
    vectors = mach.enc_runs(flat, [1, 2])
    assert [[v % (1 << 64) for v in mach.dec(vec, auth)] for vec in vectors] == [flat[:1], flat[1:]]
    b.close()


@pytest.mark.parametrize("spec", ALL_BACKENDS)
@pytest.mark.parametrize("flat, lengths", [
    (5, [1]),                    # not a vector
    ([[1, 2], [3, 4]], [2, 2]),  # not a vector
    ([1, 2], [3, -1]),           # a negative length
    ([1, 2, 3], [1, 1]),         # lengths that do not cover the value
    ([1, 2], [2, 1]),            # lengths that overrun it
])
def test_enc_runs_refuses_malformed_runs_before_the_backend_acts(spec, flat, lengths):
    mach, _, b = open_machine(spec, seed=32)
    b.enable_trace()
    with pytest.raises(ShapeError):
        mach.enc_runs(flat, lengths)
    assert b.ledger.rows() == [] and b.trace == []
    if spec == "mpc":
        st = b.round_stats()
        assert (st.rounds, st.messages, st.bytes) == (0, 0, 0)
        assert all(not p.store for p in b.parties)
    b.close()


def test_enc_refuses_three_dimensions_before_the_backend_acts():
    mach, _, b = open_machine("mpc", seed=24)
    b.enable_trace()
    with pytest.raises(ShapeError):
        mach.enc(np.zeros((2, 2, 2)))
    st = b.round_stats()
    assert b.ledger.rows() == [] and b.trace == []
    assert (st.rounds, st.messages, st.bytes) == (0, 0, 0)
    assert all(not p.store for p in b.parties)
    b.close()


# -- share lifetime ----------------------------------------------------------------


def test_dropped_intermediate_leaves_every_store():
    mach, auth, b = open_machine("mpc", seed=25)
    x, y = mach.enc([1, 2]), mach.enc([10, 20])
    assert mach.dec(mach.add(mach.add(x, y), y), auth) == [21, 42]
    kept = {x.payload.hid, y.payload.hid}
    assert all(set(p.store) == kept for p in b.parties)
    del x
    assert all(set(p.store) == {y.payload.hid} for p in b.parties)
    b.close()


class _KeepEveryShare(MpcBackend):
    """An mpc backend that holds a handle to every result it makes, so no
    share is ever freed."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.kept = []

    def _new_ref(self, shape):
        ref = super()._new_ref(shape)
        self.kept.append(ref)
        return ref


def test_linkage_frees_every_share_and_changes_no_count():
    d1, d2, _ = generate_dataset(seed=0, size=40)
    cfg = PipelineConfig(backend="mpc", t_jaccard=Fraction(1, 2), t_block=0.5,
                         rho=0.05, seed=0)
    outputs, stored = {}, {}
    for name, backend in (("freed", MpcBackend(seed=0)), ("kept", _KeepEveryShare(seed=0))):
        backend.enable_trace()
        result = run_pper(d1, d2, cfg, backend=backend)
        outputs[name] = (result.matches, result.trace, backend.ledger.to_csv(),
                         backend.round_stats().to_csv())
        stored[name] = [len(p.store) for p in backend.parties]
        backend.close()
    assert stored["freed"] == [0, 0, 0]
    assert min(stored["kept"]) > 1000
    assert outputs["freed"][0]  # the corpus links some pairs
    assert outputs["freed"] == outputs["kept"]


def test_dealer_equality_gate_exhaustive():
    mach, auth, b = open_machine("mpc", seed=10)
    for x in range(8):
        for y in range(8):
            bit = mach.dec(mach.eeq_scalar(mach.enc(x), mach.enc(y)), auth)
            assert bit == (1 if x == y else 0)
    b.close()


def test_dealer_compare_gate_signed():
    mach, auth, b = open_machine("mpc", seed=11)
    cases = [(5, 3, 1), (3, 5, 0), (4, 4, 0), (-2, -7, 1), (-7, -2, 0), (0, -1, 1)]
    for x, y, want in cases:
        assert mach.dec(mach.gt(mach.enc(x), mach.enc(y), bound=5), auth) == want
    b.close()


def test_compare_gate_refuses_a_true_bound_past_its_reach():
    # the masked comparison keeps the sign only under 2^32: these gaps of up
    # to 2^63 would come back [0, 1, 0, 1] where clear gives [1, 0, 1, 0]
    x, y = [1 << 40, -(1 << 40), 1 << 62, 5], [0, 0, -(1 << 62), 1 << 35]
    clr, clr_auth, clr_b = open_machine("clear")
    assert clr.dec(clr.gt(clr.enc(x), clr.enc(y), bound=1 << 63), clr_auth) == [1, 0, 1, 0]
    clr_b.close()
    mach, _, b = open_machine("mpc", seed=11)
    a, c = mach.enc(x), mach.enc(y)
    with pytest.raises(DomainError):
        mach.gt(a, c, bound=1 << 63)
    assert "gt" not in b.ledger.by_op()
    b.close()


def test_two_component_marginals_uniform_chi_squared():
    rng = np.random.default_rng(12)
    secret = np.full(10_000, 777, dtype=np.uint64)
    s0, s1, s2 = share3(secret, rng)
    for a, b_ in ((s0, s1), (s0, s2), (s1, s2)):
        joint = ((a & np.uint64(0xF)) << np.uint64(4)) | (b_ & np.uint64(0xF))
        buckets = np.bincount(joint.astype(np.int64), minlength=256)
        assert stats.chisquare(buckets).pvalue > 0.01


def test_communication_depends_only_on_shapes():
    def run(values):
        mach, auth, b = open_machine("mpc", seed=13)
        v = mach.enc(values)
        mach.dec(mach.dot(v, v), auth)
        st = b.round_stats()
        out = (st.rounds, st.messages, st.bytes)
        b.close()
        return out

    assert run([1, 2, 3, 4]) == run([900, 17, 0, 55])


def test_jaccard_on_shares_equals_clear_backend():
    params = JaccardParams(Fraction(1, 2))
    v1 = [28773, 25972, 29797, 25970]
    v2 = [28773, 25972, 29797, 30000]
    results = {}
    for spec in ("clear", "mpc"):
        mach, auth, b = open_machine(spec, seed=15)
        bit = jaccard_match(mach, mach.enc(v1), mach.enc(v2), params, Strategy.VR)
        results[spec] = dec_round(mach, auth, bit)
        b.close()
    assert results["clear"] == results["mpc"] == 1


def test_no_party_message_carries_raw_secrets():
    tokens1 = [28773, 25972, 29797, 25970]
    tokens2 = [28773, 25972, 29797, 30000]
    b = MpcBackend(seed=16, record_messages=True)
    mach = Machine(b)
    auth = b.issue_authority("owners", "P1+P2")
    bit = jaccard_match(mach, mach.enc(tokens1), mach.enc(tokens2),
                        JaccardParams(Fraction(1, 2)), Strategy.VE)
    mach.dec(bit, auth)
    b.net.pump()
    secrets = set(tokens1) | set(tokens2)
    inter = len(set(tokens1) & set(tokens2))
    secrets.add(inter)
    for env in b.net.log:
        if env.kind == "revealed":  # authorized output reconstruction
            continue
        for value in env.payload.values():
            if isinstance(value, np.ndarray):
                leaked = secrets & set(np.asarray(value, dtype=np.uint64).ravel().tolist())
                assert not leaked, (env.src, env.dst, env.kind, leaked)
    b.close()


def test_every_machine_primitive_matches_clear_backend():
    rng = np.random.default_rng(20)
    mpc_m, mpc_auth, mpc_b = open_machine("mpc", seed=20)
    clr_m, clr_auth, clr_b = open_machine("clear", seed=20)

    def both(op):
        got = dec_round(mpc_m, mpc_auth, op(mpc_m))
        want = dec_round(clr_m, clr_auth, op(clr_m))
        assert got == want, op

    for _ in range(60):
        x = rng.integers(0, 1 << 20, size=5).tolist()
        y = rng.integers(0, 1 << 20, size=5).tolist()
        grid = rng.integers(0, 1 << 10, size=(2, 3)).tolist()
        grid2 = rng.integers(0, 1 << 10, size=(3, 2)).tolist()
        k = int(rng.integers(0, 5))
        i = int(rng.integers(0, 5))
        both(lambda m: m.eadd(m.enc(x), m.enc(y)))
        both(lambda m: m.esub(m.enc(x), m.enc(y)))
        both(lambda m: m.emul(m.enc(x), m.enc(y)))
        both(lambda m: m.dot(m.enc(x), m.enc(y)))
        both(lambda m: m.rshift(m.enc(x), k))
        both(lambda m: m.tile(m.enc(x), 2))
        both(lambda m: m.repeat_each(m.enc(x), 3))
        both(lambda m: m.concat(m.enc(x), m.enc(y)))
        both(lambda m: m.slice(m.enc(x), 1, 4))
        both(lambda m: m.vget(m.enc(x), i))
        both(lambda m: m.broadcast(m.enc(x[0]), 4))
        both(lambda m: m.transpose(m.enc(grid)))
        both(lambda m: m.mul(m.enc(grid), m.enc(grid2)))
        both(lambda m: m.eeq(m.enc(x), m.enc(y)))
        both(lambda m: m.gt(m.enc(x[0]), m.enc(y[0]), bound=1 << 20))
        both(lambda m: m.vector_lookup(m.enc(x), m.enc(i)))
        both(lambda m: m.matrix_update(m.enc(grid), m.enc(0), m.enc(2), m.enc(7)))
    mpc_b.close()
    clr_b.close()


@pytest.mark.parametrize("spec", ["sim:simd", "mpc"])
def test_segment_sum_and_concat_match_clear_backend(spec):
    mach, auth, b = open_machine(spec, seed=21)
    clr_m, clr_auth, clr_b = open_machine("clear", seed=21)

    def both(op):
        got = dec_round(mach, auth, op(mach))
        want = dec_round(clr_m, clr_auth, op(clr_m))
        assert got == want, op
        return want

    assert both(lambda m: m.segment_sum(m.enc([1, 2, 3, 4, 5, 6]), 2, [0, 2, 1])) == \
        [[0, 0], [4, 6], [5, 6]]
    rng = np.random.default_rng(21)
    for _ in range(20):
        lengths = rng.integers(0, 3, size=5).tolist()
        width = int(rng.integers(1, 5))
        # negative values are wrapped near 2^64 on the exact backends
        x = rng.integers(-50, 50, size=sum(lengths) * width).tolist()
        rows = np.asarray(x, dtype=np.int64).reshape(-1, width)
        ends = np.cumsum(lengths)
        want = [rows[e - n:e].sum(axis=0).tolist() for n, e in zip(lengths, ends)]
        assert both(lambda m: m.segment_sum(m.enc(x), width, lengths)) == want
        cut = sorted(rng.integers(0, len(x) + 1, size=2).tolist())
        assert both(lambda m: m.concat(m.enc(x[:cut[0]]), m.enc(x[cut[0]:cut[1]]),
                                       m.enc(x[cut[1]:]))) == x
    assert both(lambda m: m.segment_sum(m.enc([]), 3, [0, 0])) == [[0, 0, 0], [0, 0, 0]]
    assert both(lambda m: m.concat(m.enc([]), m.enc([4]), m.enc([]))) == [4]
    with pytest.raises(ShapeError):
        mach.segment_sum(mach.enc([1, 2, 3]), 2, [1])
    if spec == "mpc":  # sums that wrap past 2^64, compared without rounding
        big = [MASK64, (1 << 63) + 5, 13, (1 << 63) + 7]
        for m, a in ((mach, auth), (clr_m, clr_auth)):
            assert m.dec(m.segment_sum(m.enc(big), 2, [2, 0]), a) == [[12, 12], [0, 0]]
            assert m.dec(m.concat(m.enc(big[:1]), m.enc(big[1:])), a) == \
                [-1, 5 - (1 << 63), 13, 7 - (1 << 63)]
    b.close()
    clr_b.close()


@pytest.mark.parametrize("spec", ["sim:generic", "sim:simd", "sim:sharemind", "mpc"])
def test_take_and_stack_match_clear_backend(spec):
    mach, auth, b = open_machine(spec, seed=22)
    clr_m, clr_auth, clr_b = open_machine("clear", seed=22)

    def both(op):
        got = dec_round(mach, auth, op(mach))
        want = dec_round(clr_m, clr_auth, op(clr_m))
        assert got == want, op
        return want

    x = [5, -3, 8, 0, 11]
    assert both(lambda m: m.take(m.enc(x), [4, 0, 0, 2])) == [11, 5, 5, 8]
    # a matrix index gives a matrix; a matrix source is read row-major
    assert both(lambda m: m.take(m.enc(x), [[1, 1], [3, 4]])) == [[-3, -3], [0, 11]]
    assert both(lambda m: m.take(m.enc([[1, 2], [3, 4]]), [3, 0])) == [4, 1]
    assert both(lambda m: m.take(m.enc(x), np.zeros(0, dtype=np.int64))) == []
    # tile and repeat_each are fixed index patterns
    assert both(lambda m: m.take(m.enc(x[:2]), [0, 1, 0, 1])) == \
        both(lambda m: m.tile(m.enc(x[:2]), 2))
    assert both(lambda m: m.take(m.enc(x[:2]), [0, 0, 1, 1])) == \
        both(lambda m: m.repeat_each(m.enc(x[:2]), 2))
    assert both(lambda m: m.stack(m.enc(4), m.enc(-2), m.enc(9))) == [4, -2, 9]
    for bad in ([5], [-1], [[[0]]]):
        with pytest.raises(ShapeError):
            mach.take(mach.enc(x), bad)
    b.close()
    clr_b.close()


def test_take_trace_holds_shapes_not_indices():
    def trace(idx):
        mach, _, b = open_machine("mpc", seed=23)
        b.enable_trace()
        mach.take(mach.enc([1, 2, 3]), idx)
        out = list(b.trace)
        b.close()
        return out

    assert trace([2, 0]) == trace([1, 1]) == [("enc", (3,)), ("take", (3,), (2,))]


def _payload_bytes(payload: dict) -> int:
    """The receiver-side scan of every payload that the runtime made before
    senders passed the byte count, kept as the reference."""
    total = 0
    for v in payload.values():
        if isinstance(v, (np.ndarray, np.generic)):
            total += v.nbytes
        elif isinstance(v, BeaverTriple):
            total += v.a.nbytes + v.b.nbytes + v.c.nbytes
    return total


def test_senders_count_each_message_and_the_tags_give_rounds_csv():
    d1, d2, _ = generate_dataset(0, 60)
    b = MpcBackend(seed=0, record_messages=True)
    run_pper(d1, d2, PipelineConfig(backend="mpc"), backend=b)
    # per tag: messages, bytes, and the round-closing messages of each
    # primitive (a Beaver product's one control request, a gate's three
    # masked fragments, a reveal's three components)
    rows: dict[tuple, list] = {}
    for env in b.net.log:
        row = rows.setdefault(env.tag, [0, 0, 0])
        if not env.data:
            assert env.kind == "make_triple" and env.nbytes is None
            row[0] += 1
            continue
        assert env.nbytes == _payload_bytes(env.payload), (env.kind, env.tag)
        row[1] += 1
        row[2] += env.nbytes
        if env.kind in ("masked", "revealed"):
            row[0] += Fraction(1, 3)
    assert {"store", "triple", "open", "masked", "gate_result", "revealed"} <= \
        {env.kind for env in b.net.log}

    def sums(part):
        out: dict[str, list] = {}
        for tag, row in rows.items():
            total = out.setdefault(tag[part], [0, 0, 0])
            for k in range(3):
                total[k] += row[k]
        return sorted(out.items())

    totals = [sum(row[k] for row in rows.values()) for k in range(3)]
    lines = ["scope,key,rounds,messages,bytes", "total,all," + ",".join(map(str, totals))]
    for scope, part in (("stage", 0), ("op", 1)):
        lines += [f"{scope},{key},{r},{m},{n}" for key, (r, m, n) in sums(part)]
    assert b.round_stats().to_csv() == "\n".join(lines) + "\n"
    b.close()


def test_rounds_csv_export():
    mach, auth, b = open_machine("mpc", seed=17)
    with b.stage("demo"):
        mach.dec(mach.mul(mach.enc(2), mach.enc(3)), auth)
    csv = b.round_stats().to_csv()
    assert csv.splitlines()[0] == "scope,key,rounds,messages,bytes"
    assert any(line.startswith("stage,demo,") for line in csv.splitlines())
    assert any(line.startswith("op,mul,") for line in csv.splitlines())
    b.close()


def test_mpc_rejects_sort_join_division():
    from oblivlink import CapabilityError
    mach, _, b = open_machine("mpc", seed=18)
    with pytest.raises(CapabilityError):
        mach.sort_vec(mach.enc([2, 1]))
    with pytest.raises(CapabilityError):
        mach.join_count(mach.enc([1]), mach.enc([1]))
    with pytest.raises(CapabilityError):
        mach.masked_reciprocal(mach.enc(4))
    b.close()
