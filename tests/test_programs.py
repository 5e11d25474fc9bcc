"""Random primitive programs inside the declared domains: every exact
backend computes the same values and records the same ledger and trace."""

import math

from hypothesis import given, settings, strategies as st

from oblivlink.machine import PrivateMatrix

from conftest import EXACT_BACKENDS, open_machine

VALUE = 40         # inputs lie in [-VALUE, VALUE]
GT_BOUND = 1 << 32  # the mpc gate's compare_bound: gt only below it


@st.composite
def programs(draw):
    """A list of steps ``(name, sources, args)`` over a pool of values, each
    with its public shape and a bound on its magnitude.  ``enc`` makes a
    value from ``args``; every other name is a ``Machine`` method applied to
    the sources and then the args (``outer`` is the backend's)."""
    pool, steps = [], []

    def add(step, shape, bound):
        steps.append(step)
        pool.append((shape, bound))

    def fresh(shape):
        values = draw(st.lists(st.integers(-VALUE, VALUE), min_size=math.prod(shape),
                               max_size=math.prod(shape)))
        rows = [values[k:k + shape[1]] for k in range(0, len(values), shape[1])] \
            if len(shape) == 2 else values
        add(("enc", (), rows if shape else values[0]), shape, VALUE)
        return len(pool) - 1

    def pick(pred, shape):
        """A pool value whose shape passes ``pred``, or a fresh one of
        ``shape``, which must pass it."""
        ks = [k for k, (s, _) in enumerate(pool) if pred(s)]
        return draw(st.sampled_from(ks)) if ks else fresh(shape)

    def new_shape():
        return draw(st.sampled_from([(), (draw(st.integers(0, 4)),),
                                     (draw(st.integers(1, 3)), draw(st.integers(1, 3)))]))

    vector = lambda s: len(s) == 1  # noqa: E731
    scalar = lambda s: s == ()  # noqa: E731
    for _ in range(draw(st.integers(1, 3))):
        fresh(new_shape())
    for _ in range(draw(st.integers(3, 12))):
        op = draw(st.sampled_from([
            "enc", "add", "sub", "emul", "gt", "dot", "matmul", "vecmat", "outer",
            "transpose", "rshift", "tile", "repeat_each", "take", "concat", "segment_sum",
            "slice", "vget", "broadcast", "broadcast_mat", "stack", "eeq", "eeq_scalar"]))
        if op == "enc":
            fresh(new_shape())
            continue
        if op in ("add", "sub", "emul", "gt", "dot", "eeq", "eeq_scalar"):
            want = {"dot": vector, "eeq": vector, "eeq_scalar": scalar}.get(op)
            x = pick(want or (lambda s: True), (3,) if want is vector else ())
            shape, bx = pool[x]
            if op == "gt":
                y = pick(lambda s: s == shape, shape)
                if bx + pool[y][1] >= GT_BOUND:
                    continue
                add(("gt", (x, y), (bx + pool[y][1],)), shape, 1)
                continue
            y = pick(lambda s: s == shape, shape)
            by = pool[y][1]
            if op in ("add", "sub"):
                add((op, (x, y), ()), shape, bx + by)
            elif op == "emul":
                add((op, (x, y), ()), shape, bx * by)
            elif op == "dot":
                add((op, (x, y), ()), (), shape[0] * bx * by)
            else:
                add((op, (x, y), ()), shape, 1)
        elif op in ("matmul", "vecmat"):
            x = pick(lambda s: len(s) == (2 if op == "matmul" else 1) and s[0] > 0,
                     (2, 3) if op == "matmul" else (3,))
            inner = pool[x][0][-1]
            y = pick(lambda s: len(s) == 2 and s[0] == inner, (inner, draw(st.integers(1, 3))))
            (sx, bx), (sy, by) = pool[x], pool[y]
            add(("mul", (x, y), ()), sx[:-1] + sy[1:], inner * bx * by)
        elif op == "outer":
            x, y = (pick(lambda s: vector(s) and s[0], (k,)) for k in (2, 3))
            add(("outer", (x, y), ()), (pool[x][0][0], pool[y][0][0]), pool[x][1] * pool[y][1])
        elif op == "transpose":
            x = pick(lambda s: len(s) == 2, (2, 3))
            add(("transpose", (x,), ()), pool[x][0][::-1], pool[x][1])
        elif op in ("rshift", "tile", "repeat_each", "slice", "vget", "segment_sum"):
            x = pick(vector, (4,))
            (n,), bx = pool[x]
            if op == "rshift":
                k, cyclic = draw(st.integers(-n - 1, n + 1)), draw(st.booleans())
                fill = draw(st.integers(-VALUE, VALUE))
                add((op, (x,), (k, cyclic, fill)), (n,), max(bx, abs(fill)))
            elif op in ("tile", "repeat_each"):
                times = draw(st.integers(0, 3))
                add((op, (x,), (times,)), (n * times,), bx)
            elif op == "slice":
                lo = draw(st.integers(0, n))
                hi = draw(st.integers(lo, n))
                add((op, (x,), (lo, hi)), (hi - lo,), bx)
            elif op == "vget":
                if n:
                    add((op, (x,), (draw(st.integers(0, n - 1)),)), (), bx)
            else:
                width = draw(st.sampled_from([w for w in range(1, n + 1) if n % w == 0]
                                             or [1, 2]))
                cuts = sorted(draw(st.lists(st.integers(0, n // width), max_size=3)))
                lengths = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n // width])]
                add((op, (x,), (width, lengths)), (len(lengths), width), bx * max(lengths))
        elif op == "take":
            x = pick(lambda s: math.prod(s) > 0, (4,))
            size = math.prod(pool[x][0])
            shape = draw(st.sampled_from([(draw(st.integers(0, 5)),),
                                          (draw(st.integers(1, 3)), draw(st.integers(1, 3)))]))
            flat = draw(st.lists(st.integers(0, size - 1), min_size=math.prod(shape),
                                 max_size=math.prod(shape)))
            idx = [flat[k:k + shape[1]] for k in range(0, len(flat), shape[1])] \
                if len(shape) == 2 else flat
            add((op, (x,), (idx,)), shape, pool[x][1])
        elif op in ("concat", "stack"):
            want, shape = (vector, (2,)) if op == "concat" else (scalar, ())
            parts = [pick(want, shape) for _ in range(draw(st.integers(1, 3)))]
            length = sum(pool[k][0][0] for k in parts) if op == "concat" else len(parts)
            add((op, tuple(parts), ()), (length,), max(pool[k][1] for k in parts))
        else:  # broadcast, broadcast_mat
            x = pick(scalar, ())
            shape = (draw(st.integers(0, 4)),) if op == "broadcast" else \
                (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
            add((op, (x,), (shape[0],) if op == "broadcast" else (shape,)), shape, pool[x][1])
    return steps


def _run(spec, program):
    """Every value the program makes, decrypted, then the ledger and trace."""
    mach, auth, b = open_machine(spec, seed=5)
    b.enable_trace()
    values = []
    for name, srcs, args in program:
        xs = [values[k] for k in srcs]
        if name == "enc":
            values.append(mach.enc(args))
        elif name == "outer":
            values.append(PrivateMatrix(b, b.outer(xs[0].payload, xs[1].payload)))
        else:
            values.append(getattr(mach, name)(*xs, *args))
    out = ([mach.dec(v, auth) for v in values], b.ledger.rows(), list(b.trace))
    b.close()
    return out


@settings(max_examples=100)
@given(program=programs())
def test_random_programs_agree_on_every_exact_backend(program):
    # the sharemind profile has no rotation
    rotates = any(name == "rshift" for name, _, _ in program)
    specs = [s for s in EXACT_BACKENDS if not (rotates and s == "sim:sharemind")]
    want = _run(specs[0], program)
    for spec in specs[1:]:
        got = _run(spec, program)
        assert got[0] == want[0], spec
        assert got[1] == want[1], spec
        assert got[2] == want[2], spec
