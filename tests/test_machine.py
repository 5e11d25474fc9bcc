"""Machine value types and the primitive/derived operator set."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oblivlink import (AuthorityError, ContextMismatchError, Machine, ShapeError,
                       TaintViolation, TAU_BOOL, TAU_NUM, XI_DEFAULT, make_backend)
from oblivlink.backends.base import KERNELS
from oblivlink.machine import slot_runs

from conftest import (ALL_BACKENDS, EXACT_BACKENDS, LOCAL_EXACT, dec_round, open_machine,
                      reference_eeq)


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_enc_dec_round_trip(spec):
    mach, auth, _ = open_machine(spec)
    assert dec_round(mach, auth, mach.enc(42)) == 42
    assert dec_round(mach, auth, mach.enc([0, 1, 7])) == [0, 1, 7]
    assert dec_round(mach, auth, mach.enc([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]


def test_enc_dec_approx_tolerance():
    mach, auth, _ = open_machine("sim:simd")
    assert abs(mach.dec(mach.enc(0.25), auth) - 0.25) <= TAU_NUM


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_dec_requires_valid_authority(spec):
    mach, auth, _ = open_machine(spec)
    value = mach.enc([0, 1])
    with pytest.raises(AuthorityError):
        mach.dec(value, None)
    foreign = make_backend("clear").issue_authority("other", "P1")
    with pytest.raises(AuthorityError):
        mach.dec(value, foreign)
    auth.revoke()
    with pytest.raises(AuthorityError):
        mach.dec(value, auth)


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_dec_is_reveal_as_python_numbers(spec):
    mach, auth, b = open_machine(spec)
    exact = spec != "sim:simd"
    b.enable_trace()
    for value, shape in ((-7, ()), ([3, -1, 0], (3,)), ([[1, -2], [3, 4]], (2, 2))):
        v = mach.enc(value)
        revealed = mach.reveal(v, auth)
        assert revealed.dtype == (np.int64 if exact else np.float64)
        assert revealed.shape == shape
        assert np.allclose(revealed, value, rtol=0, atol=0 if exact else TAU_NUM)
        listed = mach.dec(v, auth)
        assert listed == revealed.tolist()
        revealed[...] = 99  # the array is the caller's own
        assert mach.dec(v, auth) == listed
    # each reveal and each dec records one dec
    decs = [entry for entry in b.trace if entry[0] == "dec"]
    assert decs == [("dec", shape) for shape in ((), (3,), (2, 2)) for _ in range(3)]
    assert b.ledger.by_op()["dec"] == 9
    # a refused reveal records nothing
    v = mach.enc([1, 2])
    foreign = make_backend("clear").issue_authority("other", "P1")
    auth.revoke()
    before = (list(b.trace), b.ledger.rows())
    for bad in (auth, foreign, None):
        for read in (mach.reveal, mach.dec):
            with pytest.raises(AuthorityError):
                read(v, bad)
    assert (b.trace, b.ledger.rows()) == before


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_primitive_arithmetic_examples(spec):
    mach, auth, _ = open_machine(spec)
    assert dec_round(mach, auth, mach.eadd(mach.enc([1, 2, 3]), mach.enc([10, 20, 30]))) == [11, 22, 33]
    assert dec_round(mach, auth, mach.dot(mach.enc([1, 0, 1]), mach.enc([5, 7, 9]))) == 14
    assert dec_round(mach, auth, mach.esub(mach.enc([1, 2]), mach.enc([5, 1]))) == [-4, 1]


@pytest.mark.parametrize("spec", ["clear", "sim:generic", "sim:simd", "mpc"])
def test_rshift_is_cyclic_rotation(spec):
    mach, auth, _ = open_machine(spec)
    v = mach.enc([2, 2, 3])
    assert dec_round(mach, auth, mach.rshift(v, 1)) == [3, 2, 2]
    assert dec_round(mach, auth, mach.lshift(mach.rshift(v, 1), 1)) == [2, 2, 3]


def test_mul_is_matrix_product_emul_elementwise(clear_machine):
    mach, auth = clear_machine
    a = mach.enc([[1, 2], [3, 4]])
    bm = mach.enc([[5, 6], [7, 8]])
    assert mach.dec(mach.mul(a, bm), auth) == [[19, 22], [43, 50]]
    assert mach.dec(mach.emul(a, bm), auth) == [[5, 12], [21, 32]]
    assert mach.dec(mach.transpose(a), auth) == [[1, 3], [2, 4]]


@pytest.mark.parametrize("spec", ALL_BACKENDS)
@pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 5)])
def test_slice_refuses_bounds_outside_the_vector(spec, lo, hi):
    # the backends derive a slice's shape as hi - lo, which only holds inside
    mach, auth, b = open_machine(spec)
    v = mach.enc([1, 2, 3, 4])
    b.enable_trace()
    with pytest.raises(ShapeError):
        mach.slice(v, lo, hi)
    assert b.trace == []
    assert dec_round(mach, auth, mach.slice(v, 1, 3)) == [2, 3]


def test_size_is_public(clear_machine):
    mach, auth = clear_machine
    assert mach.size(mach.enc([1, 2, 3])) == 3
    assert mach.size(mach.enc([[1, 2, 3], [4, 5, 6]])) == (2, 3)
    assert mach.size(mach.enc(9)) == 1


def test_cross_context_rejected():
    mach1, _, _ = open_machine("clear")
    mach2, _, _ = open_machine("clear")
    with pytest.raises(ContextMismatchError):
        mach1.add(mach1.enc(1), mach2.enc(2))


def test_shape_mismatch_rejected(clear_machine):
    mach, _ = clear_machine
    with pytest.raises(ShapeError):
        mach.eadd(mach.enc([1, 2]), mach.enc([1, 2, 3]))
    with pytest.raises(ShapeError):
        mach.mul(mach.enc([[1, 2]]), mach.enc([[1, 2]]))


def test_wrapping_64bit_semantics(clear_machine):
    mach, auth = clear_machine
    assert mach.dec(mach.sub(mach.enc(3), mach.enc(10)), auth) == -7
    big = (1 << 63) - 1
    wrapped = mach.dec(mach.add(mach.enc(big), mach.enc(1)), auth)
    assert wrapped == -(1 << 63)


# -- equality ------------------------------------------------------------------


@pytest.mark.parametrize("spec", EXACT_BACKENDS)
def test_eeq_definition(spec):
    mach, auth, _ = open_machine(spec)
    seq = mach.enc([0, 1, 2])
    idx = mach.broadcast(mach.enc(1), 3)
    assert dec_round(mach, auth, mach.eeq(seq, idx)) == [0, 1, 0]


def test_eeq_empty(clear_machine):
    mach, auth = clear_machine
    out = mach.eeq(mach.enc([]), mach.broadcast(mach.enc(5), 0))
    assert mach.dec(out, auth) == []


def _eeq_workaround_oracle(seq, idx, xi):
    # the arithmetic workaround evaluated in plain float arithmetic
    return [(s - idx) * (-1.0 / (s - idx + xi)) + 1.0 for s in seq]


def test_eeq_workaround_accuracy():
    mach, auth, _ = open_machine("sim:simd")
    seq = [0, 1, 2]
    expected = _eeq_workaround_oracle(seq, 1, XI_DEFAULT)
    out = mach.dec(mach.eeq(mach.enc(seq), mach.broadcast(mach.enc(1), 3)), auth)
    for got, want, bit in zip(out, expected, [0, 1, 0]):
        assert abs(got - bit) <= TAU_BOOL
        assert abs(got - want) <= 1e-9


def test_eeq_workaround_random_integer_inputs():
    mach, auth, _ = open_machine("sim:simd")
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 24))
        seq = rng.integers(0, 40, size=n).tolist()
        pivot = int(rng.integers(0, 40))
        out = mach.dec(mach.eeq(mach.enc(seq), mach.broadcast(mach.enc(pivot), n)), auth)
        for got, s in zip(out, seq):
            assert abs(got - (1 if s == pivot else 0)) <= TAU_BOOL


def _equality_run(eeq, seq, idx):
    """Everything one equality leaves behind on a fresh simd context: the
    bits (or the exception), ledger, trace, P3's openings and the rng."""
    mach, auth, b = open_machine("sim:simd", seed=7)
    b.enable_trace()
    try:
        bits = np.asarray(mach.dec(eeq(mach, mach.enc(seq), mach.enc(idx)), auth)).tobytes()
    except ZeroDivisionError as exc:
        bits = repr(exc)
    opened = [(o.role, o.kind, np.asarray(o.value).tobytes()) for o in b.transcript]
    out = (bits, b.ledger.rows(), b.trace, opened, b.rng.bit_generator.state)
    return out


_TOKENS = st.lists(st.integers(0, (1 << 16) - 1), max_size=24)


@given(seq=_TOKENS, data=st.data())
def test_approx_eq_is_the_machine_chain(seq, data):
    # idx repeats seq's values in some slots, so both bits occur
    slot = st.sampled_from(seq) | st.integers(0, (1 << 16) - 1) if seq else st.nothing()
    idx = data.draw(st.lists(slot, min_size=len(seq), max_size=len(seq)))
    assert _equality_run(Machine.eeq, seq, idx) == _equality_run(reference_eeq, seq, idx)


def test_approx_eq_refuses_an_offset_cancelling_difference_as_the_chain_did():
    # d = -xi makes d + xi exactly 0, which the masked reciprocal refuses
    fused = _equality_run(Machine.eeq, [0.0], [XI_DEFAULT])
    assert fused[0].startswith("ZeroDivisionError")
    assert fused == _equality_run(reference_eeq, [0.0], [XI_DEFAULT])
    assert [e[0] for e in fused[2]] == ["enc", "enc", "sub", "enc", "add", "enc", "mul", "dec"]


# -- masked reciprocal -------------------------------------------------------------


def test_masked_reciprocal_values():
    mach, auth, _ = open_machine("sim:simd")
    assert abs(mach.dec(mach.masked_reciprocal(mach.enc(4.0)), auth) - 0.25) <= TAU_NUM
    assert abs(mach.dec(mach.masked_reciprocal(mach.enc(1.0)), auth) - 1.0) <= TAU_NUM


def test_masked_reciprocal_zero_rejected():
    mach, _, _ = open_machine("sim:simd")
    with pytest.raises(ZeroDivisionError):
        mach.masked_reciprocal(mach.enc(0.0))


def test_masked_reciprocal_helper_sees_only_masked_value():
    mach, auth, b = open_machine("sim:simd", seed=11)
    n = 4.0
    mach.masked_reciprocal(mach.enc(n))
    observed = [o.value for o in b.observations("P3") if o.kind == "masked_value"]
    assert len(observed) == 1
    masked = float(np.asarray(observed[0]))
    assert masked != n  # the mask hides the operand
    assert abs(masked / n) != 1.0


# -- ternary operators -------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_choose_examples(spec):
    mach, auth, _ = open_machine(spec)
    assert dec_round(mach, auth, mach.choose(mach.enc(1), mach.enc(5), mach.enc(9))) == 5
    assert dec_round(mach, auth, mach.choose(mach.enc(0), mach.enc(5), mach.enc(9))) == 9
    x = 1234
    assert dec_round(mach, auth, mach.choose(mach.enc(1), mach.enc(x), mach.enc(x))) == x


def test_choose_vec_mask_selection(clear_machine):
    mach, auth = clear_machine
    out = mach.choose_vec(mach.enc([1, 0, 1]), mach.enc([9, 9, 9]), mach.enc([0, 0, 0]))
    assert mach.dec(out, auth) == [9, 0, 9]


def test_choose_vec_ext_broadcasts_scalar_condition(clear_machine):
    mach, auth = clear_machine
    v1, v2 = mach.enc([1, 2, 3]), mach.enc([7, 8, 9])
    assert mach.dec(mach.choose_vec_ext(mach.enc(1), v1, v2), auth) == [1, 2, 3]
    assert mach.dec(mach.choose_vec_ext(mach.enc(0), v1, v2), auth) == [7, 8, 9]


def test_choose_mat_ext_broadcast(clear_machine):
    mach, auth = clear_machine
    rng = np.random.default_rng(3)
    m = rng.integers(0, 100, size=(3, 4)).tolist()
    z = np.zeros((3, 4), dtype=int).tolist()
    assert mach.dec(mach.choose_mat_ext(mach.enc(1), mach.enc(m), mach.enc(z)), auth) == m
    assert mach.dec(mach.choose_mat_ext(mach.enc(0), mach.enc(m), mach.enc(z)), auth) == z


@pytest.mark.parametrize("spec", LOCAL_EXACT)
def test_choose_selection_law_randomized(spec):
    # dec(choose*(c,a,b)) = a if c else b, 1000 random instances per shape
    mach, auth, _ = open_machine(spec, seed=2)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        c = int(rng.integers(0, 2))
        x, y = int(rng.integers(-500, 500)), int(rng.integers(-500, 500))
        got = mach.dec(mach.choose(mach.enc(c), mach.enc(x), mach.enc(y)), auth)
        assert got == (x if c else y)
    for _ in range(1000):
        c = rng.integers(0, 2, size=4).tolist()
        x = rng.integers(-500, 500, size=4).tolist()
        y = rng.integers(-500, 500, size=4).tolist()
        got = mach.dec(mach.choose_vec(mach.enc(c), mach.enc(x), mach.enc(y)), auth)
        assert got == [xi if ci else yi for ci, xi, yi in zip(c, x, y)]
    for _ in range(1000):
        c = int(rng.integers(0, 2))
        x = rng.integers(-500, 500, size=(2, 3)).tolist()
        y = rng.integers(-500, 500, size=(2, 3)).tolist()
        got = mach.dec(mach.choose_mat_ext(mach.enc(c), mach.enc(x), mach.enc(y)), auth)
        assert got == (x if c else y)


# -- private matrix manipulation ---------------------------------------------------


@pytest.mark.parametrize("spec", EXACT_BACKENDS)
def test_mask_gen_examples(spec):
    mach, auth, _ = open_machine(spec)
    assert dec_round(mach, auth, mach.mask_gen(5, mach.enc(2))) == [0, 0, 1, 0, 0]
    assert dec_round(mach, auth, mach.mask_gen(1, mach.enc(0))) == [1]
    assert mach.mask_gen(0, mach.enc(0)).length == 0


def test_mask_gen_one_hot_exhaustive(clear_machine):
    mach, auth = clear_machine
    for n in range(1, 17):
        for k in range(n):
            mask = mach.dec(mach.mask_gen(n, mach.enc(k)), auth)
            assert sum(mask) == 1
            assert mask[k] == 1


def test_mask_gen_one_hot_law_to_32(clear_machine):
    mach, auth = clear_machine
    for n in range(1, 33):
        for k in range(n):
            mask = mach.dec(mach.mask_gen(n, mach.enc(k)), auth)
            assert mask[k] == 1 and sum(mask) == 1


@pytest.mark.parametrize("spec", EXACT_BACKENDS)
def test_vector_lookup_examples(spec):
    mach, auth, _ = open_machine(spec)
    assert dec_round(mach, auth, mach.vector_lookup(mach.enc([4, 8, 15]), mach.enc(2))) == 15
    assert dec_round(mach, auth, mach.vector_lookup(mach.enc([7]), mach.enc(0))) == 7


def test_vector_lookup_exhaustive_oracle(clear_machine):
    mach, auth = clear_machine
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        values = rng.integers(-50, 50, size=n).tolist()
        vec = mach.enc(values)
        for idx in range(n):
            assert mach.dec(mach.vector_lookup(vec, mach.enc(idx)), auth) == values[idx]


def test_vector_lookup_randomized_large(clear_machine):
    mach, auth = clear_machine
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(1, 65))
        values = rng.integers(0, 1000, size=n).tolist()
        idx = int(rng.integers(0, n))
        assert mach.dec(mach.vector_lookup(mach.enc(values), mach.enc(idx)), auth) == values[idx]


@pytest.mark.parametrize("spec", EXACT_BACKENDS)
def test_vector_update_examples(spec):
    mach, auth, _ = open_machine(spec)
    out = mach.vector_update(mach.enc([4, 8, 15]), mach.enc(1), mach.enc(99))
    assert dec_round(mach, auth, out) == [4, 99, 15]
    again = mach.vector_lookup(out, mach.enc(1))
    assert dec_round(mach, auth, again) == 99


def test_vector_update_random_oracle(clear_machine):
    mach, auth = clear_machine
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 65))
        values = rng.integers(0, 1000, size=n).tolist()
        idx = int(rng.integers(0, n))
        val = int(rng.integers(0, 1000))
        expected = list(values)
        expected[idx] = val
        got = mach.dec(mach.vector_update(mach.enc(values), mach.enc(idx), mach.enc(val)), auth)
        assert got == expected


@pytest.mark.parametrize("spec", EXACT_BACKENDS)
def test_matrix_lookup_examples(spec):
    mach, auth, _ = open_machine(spec)
    m = mach.enc([[1, 2], [3, 4]])
    assert dec_round(mach, auth, mach.matrix_lookup(m, mach.enc(1), mach.enc(0))) == 3
    assert dec_round(mach, auth, mach.matrix_lookup(mach.enc([[7]]), mach.enc(0), mach.enc(0))) == 7


def test_matrix_lookup_exhaustive_3x3(clear_machine):
    mach, auth = clear_machine
    rng = np.random.default_rng(37)
    values = rng.integers(-100, 100, size=(3, 3)).tolist()
    m = mach.enc(values)
    for r in range(3):
        for c in range(3):
            assert mach.dec(mach.matrix_lookup(m, mach.enc(r), mach.enc(c)), auth) == values[r][c]


@pytest.mark.parametrize("spec", EXACT_BACKENDS)
def test_matrix_update_examples(spec):
    mach, auth, _ = open_machine(spec)
    z = mach.enc([[0, 0], [0, 0]])
    out = mach.matrix_update(z, mach.enc(0), mach.enc(1), mach.enc(1))
    assert dec_round(mach, auth, out) == [[0, 1], [0, 0]]
    twice = mach.matrix_update(out, mach.enc(0), mach.enc(1), mach.enc(5))
    assert dec_round(mach, auth, twice) == [[0, 5], [0, 0]]


def test_matrix_update_random_sequences_4x4(clear_machine):
    mach, auth = clear_machine
    rng = np.random.default_rng(41)
    expected = np.zeros((4, 4), dtype=int)
    m = mach.enc(expected.tolist())
    for _ in range(25):
        r, c = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        v = int(rng.integers(0, 100))
        m = mach.matrix_update(m, mach.enc(r), mach.enc(c), mach.enc(v))
        expected[r, c] = v
        assert mach.dec(m, auth) == expected.tolist()


# -- taint -------------------------------------------------------------------------


def test_taint_on_host_inspection(clear_machine):
    mach, _ = clear_machine
    value = mach.enc(1)
    with pytest.raises(TaintViolation):
        bool(value)
    with pytest.raises(TaintViolation):
        int(value)
    with pytest.raises(TaintViolation):
        value == 1
    with pytest.raises(TaintViolation):
        value < 2
    with pytest.raises(TaintViolation):
        [0, 1][value]


def test_handle_repr_hides_contents(clear_machine):
    mach, _ = clear_machine
    assert "1234" not in repr(mach.enc(1234))
    assert "1234" not in repr(mach.enc([1234, 1234]))


def test_slot_runs_greedy_within_bound():
    assert slot_runs([2, 3, 4, 9, 1], 6) == [range(0, 2), range(2, 3), range(3, 4),
                                             range(4, 5)]
    # an item above the bound runs alone; empty items join a run
    assert slot_runs([1, 5, 7, 0, 2], 6) == [range(0, 2), range(2, 3), range(3, 5)]
    assert slot_runs([3, 3, 3], 6) == [range(0, 2), range(2, 3)]
    assert slot_runs([], 6) == []


def _slot_runs_reference(sizes, bound):
    """The per-item greedy loop ``slot_runs`` ran before it searched the
    running sums, kept as the reference."""
    runs = []
    start, total = 0, None
    for k, size in enumerate(sizes):
        if total is not None and total + size <= bound:
            total += size
            continue
        if total is not None:
            runs.append(range(start, k))
        start, total = k, size
    if total is not None:
        runs.append(range(start, len(sizes)))
    return runs


@given(sizes=st.lists(st.one_of(st.just(0), st.integers(0, 30)), max_size=30),
       bound=st.integers(0, 25), as_array=st.booleans())
def test_slot_runs_equals_the_per_item_greedy_loop(sizes, bound, as_array):
    # zero sizes, and items above the bound, in lists and int64 arrays
    arg = np.asarray(sizes, dtype=np.int64) if as_array else sizes
    assert slot_runs(arg, bound) == _slot_runs_reference(sizes, bound)


def _components(b, value):
    """The arrays that hold a value: its payload, or each mpc party's share
    component of it."""
    if b.kind == "mpc":
        return [store[value.payload.hid] for store in b._stores]
    return [value.payload]


def _assert_reveals(mach, auth, value, want):
    got = mach.reveal(value, auth)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("spec", ["clear", "sim:simd", "mpc"])
@given(values=st.lists(st.integers(-1000, 1000), max_size=5),
       k=st.one_of(st.integers(-12, 12), st.integers(-(1 << 70), 1 << 70)),
       times=st.integers(0, 3), rows=st.integers(0, 3), cols=st.integers(0, 3),
       data=st.data())
def test_structural_primitives_equal_their_numpy_kernels(spec, values, k, times, rows, cols,
                                                         data):
    # the seven kernels each primitive ran before it became a gather are the
    # reference: empty and one-slot vectors, shifts beyond ±n, zero counts
    # and matrices with a zero side
    mach, auth, b = open_machine(spec)
    x = np.array(values, dtype=np.int64)
    n = len(x)
    v = mach.enc(x)
    _assert_reveals(mach, auth, mach.rshift(v, k), np.roll(x, k))
    _assert_reveals(mach, auth, mach.lshift(v, k), np.roll(x, -k))
    _assert_reveals(mach, auth, mach.tile(v, times), np.tile(x, times))
    _assert_reveals(mach, auth, mach.repeat_each(v, times), np.repeat(x, times))
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    _assert_reveals(mach, auth, mach.slice(v, lo, hi), x[lo:hi].copy())
    if n:
        i = data.draw(st.integers(0, n - 1))
        got = mach.vget(v, i)
        assert all(type(c) is np.ndarray and c.shape == () for c in _components(b, got))
        _assert_reveals(mach, auth, got, np.asarray(x[i]))
    m = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols) * 3 - 4
    _assert_reveals(mach, auth, mach.transpose(mach.enc(m)), m.T.copy())
    s = mach.enc(k % 1000)
    _assert_reveals(mach, auth, mach.broadcast(s, times),
                    np.broadcast_to(np.int64(k % 1000), (times,)).copy())
    _assert_reveals(mach, auth, mach.broadcast_mat(s, (rows, cols)),
                    np.broadcast_to(np.int64(k % 1000), (rows, cols)).copy())


@pytest.mark.parametrize("spec", ["clear", "sim:simd", "mpc"])
@pytest.mark.parametrize("op, operand, arg", [
    ("vget", "v", 3), ("vget", "v", -1), ("tile", "v", -1), ("repeat_each", "v", -1),
    ("broadcast", "s", -1), ("broadcast_mat", "s", (2, -1)), ("broadcast_mat", "s", (-1, 0)),
])
def test_structural_primitives_refuse_bad_public_arguments_before_recording(spec, op, operand,
                                                                            arg):
    mach, _, b = open_machine(spec)
    handles = {"v": mach.enc([1, 2, 3]), "s": mach.enc(7)}
    b.enable_trace()
    ledger = dict(b.ledger.counts)
    with pytest.raises(ShapeError):
        getattr(mach, op)(handles[operand], arg)
    assert b.trace == [] and b.ledger.counts == ledger


def _take_refused_reference(idx, size):
    """The two-pass bounds check ``Machine.take`` made before it scanned the
    index once, kept as the reference."""
    idx = np.asarray(idx, dtype=np.int64)
    return bool(idx.ndim > 2 or (idx.size and (idx.min() < 0 or idx.max() >= size)))


@pytest.mark.parametrize("source, idx", [
    ([5, 6, 7, 8, 9], [4]),                         # the last slot, size - 1
    ([5, 6, 7, 8, 9], [5]),                         # one past it
    ([5, 6, 7, 8, 9], [-1]),
    ([5, 6, 7, 8, 9], [0, -(1 << 63)]),             # the most negative index
    ([5, 6, 7, 8, 9], [(1 << 63) - 1]),
    ([5, 6, 7, 8, 9], [[0, 4], [4, 0]]),
    ([5, 6, 7, 8, 9], [[[0]]]),                     # three dimensions
    ([5, 6, 7, 8, 9], np.zeros((0,), dtype=np.int64)),
    ([5, 6, 7, 8, 9], np.zeros((0, 3), dtype=np.int64)),
    ([5, 6, 7, 8, 9], np.zeros((0, 0, 0), dtype=np.int64)),
    ([[1, 2, 3], [4, 5, 6]], [5, 0]),               # a matrix is read row-major
    ([[1, 2, 3], [4, 5, 6]], [6]),
    ([], [0]),
    ([], np.zeros((0,), dtype=np.int64)),
])
def test_take_bounds_check_refuses_what_the_two_pass_check_refused(clear_machine,
                                                                   source, idx):
    mach, auth = clear_machine
    v = mach.enc(source)
    size = int(np.asarray(source).size)
    if _take_refused_reference(idx, size):
        with pytest.raises(ShapeError):
            mach.take(v, idx)
    else:
        flat = np.asarray(source, dtype=np.int64).reshape(-1)
        assert mach.dec(mach.take(v, idx), auth) == flat[np.asarray(idx, dtype=np.int64)].tolist()


def _segment_sum_reference(v, width, lengths):
    """The segment-sum kernel as it was before its one-reduceat case: a
    zero matrix, filled at the nonempty runs."""
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = v.reshape(int(lengths.sum()), width)
    out = np.zeros((len(lengths), width), dtype=v.dtype)
    full = lengths > 0
    if full.any():
        starts = np.cumsum(lengths) - lengths
        with np.errstate(over="ignore"):
            out[full] = np.add.reduceat(rows, starts[full], axis=0)
    return out


@given(runs=st.integers(0, 40), longest=st.integers(0, 12), empty=st.booleans(),
       width=st.sampled_from([0, 1, 2, 5, 300]), seed=st.integers(0, 2 ** 32 - 1))
def test_segment_sum_kernel_equals_reduceat_over_long_and_wide_runs(runs, longest, empty,
                                                                     width, seed):
    # uint64 sums that wrap, in one run or many, deep and wide, with or
    # without empty runs; float64 width 1 in runs long enough for
    # reduceat's pairwise summation, bit for bit
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0 if empty else min(1, longest), longest + 1, size=runs).tolist()
    n = sum(lengths) * width
    words = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    floats = rng.standard_normal(sum(lengths)) * 10.0 ** rng.integers(-8, 9, size=sum(lengths))
    for v, w in ((words, width), (floats, 1)):
        got = KERNELS["segment_sum"](v, w, np.array(lengths, dtype=np.int64))
        want = _segment_sum_reference(v, w, lengths)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(lengths=st.lists(st.integers(0, 4), max_size=6), width=st.integers(0, 3),
       use_float=st.booleans(), data=st.data())
def test_segment_sum_kernel_equals_the_zero_matrix_kernel(lengths, width, use_float, data):
    # empty runs or none, width 0, 1 and above, uint64 sums that wrap past
    # 2^64 and float64 sums in the kernel's own order
    n = sum(lengths) * width
    if use_float:
        elems = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
        v = np.array(data.draw(st.lists(elems, min_size=n, max_size=n)), dtype=np.float64)
    else:
        elems = st.integers(0, (1 << 64) - 1)
        v = np.array(data.draw(st.lists(elems, min_size=n, max_size=n)), dtype=np.uint64)
    got = KERNELS["segment_sum"](v, width, lengths)
    want = _segment_sum_reference(v, width, lengths)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
