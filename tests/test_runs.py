"""One upload pass as one vector of runs: ``enc_runs`` and ``Runs`` against
the layout they replace, one vector per run, on every backend."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oblivlink import JaccardParams, intersection_size, jaccard_cells, supported_strategies

from conftest import ALL_BACKENDS, dec_round, open_machine, upload_runs

# unique-entry runs, empty ones among them, and no run at all
_SIDE = st.lists(st.lists(st.integers(0, 12), unique=True, max_size=5), max_size=5)


# Each example decrypts every run and links each drawn cell with every
# strategy twice, batched and alone: all 50 take under 0.5 s on mpc.
@pytest.mark.parametrize("spec", ALL_BACKENDS)
@given(side1=_SIDE, side2=_SIDE, data=st.data())
def test_runs_equal_one_vector_per_run(spec, side1, side2, data):
    mach, auth, b = open_machine(spec)
    runs1, runs2 = upload_runs(mach, side1), upload_runs(mach, side2)

    # the pass decrypts to its flat values, and run k to the k-th run
    for runs, side in ((runs1, side1), (runs2, side2)):
        assert len(runs) == len(side)
        assert dec_round(mach, auth, runs.values) == [x for run in side for x in run]
        assert [dec_round(mach, auth, runs.run(k)) for k in range(len(side))] == side

    # one gather of a group of runs at their public offsets is the concat
    # of their vectors
    if side1:
        group = data.draw(st.lists(st.integers(0, len(side1) - 1), unique=True, min_size=1))
        gathered = mach.take(runs1.values, [int(runs1.starts[k]) + t for k in group
                                            for t in range(int(runs1.lengths[k]))])
        joined = mach.concat(*(mach.enc(side1[k]) for k in group))
        assert dec_round(mach, auth, gathered) == dec_round(mach, auth, joined)

    # the batched match bits are the per-cell intersections against the threshold
    if side1 and side2:
        cells = data.draw(st.lists(st.tuples(st.integers(0, len(side1) - 1),
                                             st.integers(0, len(side2) - 1)),
                                   min_size=1, max_size=4))
        t = Fraction(data.draw(st.integers(1, 9)), 10)
        for strategy in supported_strategies(b.caps):
            bits = jaccard_cells(mach, runs1, runs2, cells, JaccardParams(t), strategy)
            want = []
            for i, j in cells:
                inter = dec_round(mach, auth, intersection_size(
                    mach, mach.enc(side1[i]), mach.enc(side2[j]), strategy))
                union = len(side1[i]) + len(side2[j]) - inter
                want.append(int(union > 0 and Fraction(inter, union) > t))
            assert dec_round(mach, auth, bits) == want, strategy
