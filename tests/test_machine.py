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
    mach, auth, b = open_machine(spec)
    assert dec_round(mach, auth, mach.enc(42)) == 42
    assert dec_round(mach, auth, mach.enc([0, 1, 7])) == [0, 1, 7]
    assert dec_round(mach, auth, mach.enc([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]
    b.close()


def test_enc_dec_approx_tolerance():
    mach, auth, b = open_machine("sim:simd")
    assert abs(mach.dec(mach.enc(0.25), auth) - 0.25) <= TAU_NUM
    b.close()


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_dec_requires_valid_authority(spec):
    mach, auth, b = open_machine(spec)
    value = mach.enc([0, 1])
    with pytest.raises(AuthorityError):
        mach.dec(value, None)
    foreign = make_backend("clear").issue_authority("other", "P1")
    with pytest.raises(AuthorityError):
        mach.dec(value, foreign)
    auth.revoke()
    with pytest.raises(AuthorityError):
        mach.dec(value, auth)
    b.close()


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_primitive_arithmetic_examples(spec):
    mach, auth, b = open_machine(spec)
    assert dec_round(mach, auth, mach.eadd(mach.enc([1, 2, 3]), mach.enc([10, 20, 30]))) == [11, 22, 33]
    assert dec_round(mach, auth, mach.dot(mach.enc([1, 0, 1]), mach.enc([5, 7, 9]))) == 14
    assert dec_round(mach, auth, mach.esub(mach.enc([1, 2]), mach.enc([5, 1]))) == [-4, 1]
    b.close()


@pytest.mark.parametrize("spec", ["clear", "sim:generic", "sim:simd", "mpc"])
def test_rshift_is_cyclic_rotation(spec):
    mach, auth, b = open_machine(spec)
    v = mach.enc([2, 2, 3])
    assert dec_round(mach, auth, mach.rshift(v, 1)) == [3, 2, 2]
    assert dec_round(mach, auth, mach.lshift(mach.rshift(v, 1), 1)) == [2, 2, 3]
    b.close()


@pytest.mark.parametrize("spec", ["clear", "mpc"])
def test_shift_noncyclic_fill_mode(spec):
    mach, auth, b = open_machine(spec)
    v = mach.enc([4, 5, 6])
    assert dec_round(mach, auth, mach.rshift(v, 1, cyclic=False, fill=0)) == [0, 4, 5]
    assert dec_round(mach, auth, mach.lshift(v, 1, cyclic=False, fill=9)) == [5, 6, 9]
    assert dec_round(mach, auth, mach.rshift(v, 0, cyclic=False, fill=7)) == [4, 5, 6]
    assert dec_round(mach, auth, mach.rshift(v, 3, cyclic=False, fill=7)) == [7, 7, 7]
    assert dec_round(mach, auth, mach.rshift(v, 5, cyclic=False, fill=7)) == [7, 7, 7]
    b.close()


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
    b.close()


def test_size_is_public(clear_machine):
    mach, auth = clear_machine
    assert mach.size(mach.enc([1, 2, 3])) == 3
    assert mach.size(mach.enc([[1, 2, 3], [4, 5, 6]])) == (2, 3)
    assert mach.size(mach.enc(9)) == 1


def test_cross_context_rejected():
    mach1, _, b1 = open_machine("clear")
    mach2, _, b2 = open_machine("clear")
    with pytest.raises(ContextMismatchError):
        mach1.add(mach1.enc(1), mach2.enc(2))
    b1.close()
    b2.close()


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
    mach, auth, b = open_machine(spec)
    seq = mach.enc([0, 1, 2])
    idx = mach.broadcast(mach.enc(1), 3)
    assert dec_round(mach, auth, mach.eeq(seq, idx)) == [0, 1, 0]
    b.close()


def test_eeq_empty(clear_machine):
    mach, auth = clear_machine
    out = mach.eeq(mach.enc([]), mach.broadcast(mach.enc(5), 0))
    assert mach.dec(out, auth) == []


def _eeq_workaround_oracle(seq, idx, xi):
    # the arithmetic workaround evaluated in plain float arithmetic
    return [(s - idx) * (-1.0 / (s - idx + xi)) + 1.0 for s in seq]


def test_eeq_workaround_accuracy():
    mach, auth, b = open_machine("sim:simd")
    seq = [0, 1, 2]
    expected = _eeq_workaround_oracle(seq, 1, XI_DEFAULT)
    out = mach.dec(mach.eeq(mach.enc(seq), mach.broadcast(mach.enc(1), 3)), auth)
    for got, want, bit in zip(out, expected, [0, 1, 0]):
        assert abs(got - bit) <= TAU_BOOL
        assert abs(got - want) <= 1e-9
    b.close()


def test_eeq_workaround_random_integer_inputs():
    mach, auth, b = open_machine("sim:simd")
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 24))
        seq = rng.integers(0, 40, size=n).tolist()
        pivot = int(rng.integers(0, 40))
        out = mach.dec(mach.eeq(mach.enc(seq), mach.broadcast(mach.enc(pivot), n)), auth)
        for got, s in zip(out, seq):
            assert abs(got - (1 if s == pivot else 0)) <= TAU_BOOL
    b.close()


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
    b.close()
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
    mach, auth, b = open_machine("sim:simd")
    assert abs(mach.dec(mach.masked_reciprocal(mach.enc(4.0)), auth) - 0.25) <= TAU_NUM
    assert abs(mach.dec(mach.masked_reciprocal(mach.enc(1.0)), auth) - 1.0) <= TAU_NUM
    b.close()


def test_masked_reciprocal_zero_rejected():
    mach, _, b = open_machine("sim:simd")
    with pytest.raises(ZeroDivisionError):
        mach.masked_reciprocal(mach.enc(0.0))
    b.close()


def test_masked_reciprocal_helper_sees_only_masked_value():
    mach, auth, b = open_machine("sim:simd", seed=11)
    n = 4.0
    mach.masked_reciprocal(mach.enc(n), helper_role="P3")
    observed = [o.value for o in b.observations("P3") if o.kind == "masked_value"]
    assert len(observed) == 1
    masked = float(np.asarray(observed[0]))
    assert masked != n  # the mask hides the operand
    assert abs(masked / n) != 1.0
    b.close()


# -- ternary operators -------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_BACKENDS)
def test_choose_examples(spec):
    mach, auth, b = open_machine(spec)
    assert dec_round(mach, auth, mach.choose(mach.enc(1), mach.enc(5), mach.enc(9))) == 5
    assert dec_round(mach, auth, mach.choose(mach.enc(0), mach.enc(5), mach.enc(9))) == 9
    x = 1234
    assert dec_round(mach, auth, mach.choose(mach.enc(1), mach.enc(x), mach.enc(x))) == x
    b.close()


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
    mach, auth, b = open_machine(spec, seed=2)
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
    b.close()


# -- private matrix manipulation ---------------------------------------------------


@pytest.mark.parametrize("spec", EXACT_BACKENDS)
def test_mask_gen_examples(spec):
    mach, auth, b = open_machine(spec)
    assert dec_round(mach, auth, mach.mask_gen(5, mach.enc(2))) == [0, 0, 1, 0, 0]
    assert dec_round(mach, auth, mach.mask_gen(1, mach.enc(0))) == [1]
    assert mach.mask_gen(0, mach.enc(0)).length == 0
    b.close()


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
    mach, auth, b = open_machine(spec)
    assert dec_round(mach, auth, mach.vector_lookup(mach.enc([4, 8, 15]), mach.enc(2))) == 15
    assert dec_round(mach, auth, mach.vector_lookup(mach.enc([7]), mach.enc(0))) == 7
    b.close()


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
    mach, auth, b = open_machine(spec)
    out = mach.vector_update(mach.enc([4, 8, 15]), mach.enc(1), mach.enc(99))
    assert dec_round(mach, auth, out) == [4, 99, 15]
    again = mach.vector_lookup(out, mach.enc(1))
    assert dec_round(mach, auth, again) == 99
    b.close()


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
    mach, auth, b = open_machine(spec)
    m = mach.enc([[1, 2], [3, 4]])
    assert dec_round(mach, auth, mach.matrix_lookup(m, mach.enc(1), mach.enc(0))) == 3
    assert dec_round(mach, auth, mach.matrix_lookup(mach.enc([[7]]), mach.enc(0), mach.enc(0))) == 7
    b.close()


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
    mach, auth, b = open_machine(spec)
    z = mach.enc([[0, 0], [0, 0]])
    out = mach.matrix_update(z, mach.enc(0), mach.enc(1), mach.enc(1))
    assert dec_round(mach, auth, out) == [[0, 1], [0, 0]]
    twice = mach.matrix_update(out, mach.enc(0), mach.enc(1), mach.enc(5))
    assert dec_round(mach, auth, twice) == [[0, 5], [0, 0]]
    b.close()


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
    assert slot_runs([(2,), (3,), (4,), (9,), (1,)], 6) == [range(0, 2), range(2, 3),
                                                           range(3, 4), range(4, 5)]
    # every coordinate stays within the bound; an item above it runs alone
    assert slot_runs([(1, 5), (1, 2), (7, 0), (0, 2)], 6) == [range(0, 1), range(1, 2),
                                                             range(2, 3), range(3, 4)]
    assert slot_runs([(1, 2), (2, 1), (4, 3)], 6) == [range(0, 2), range(2, 3)]
    assert slot_runs([], 6) == []


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
