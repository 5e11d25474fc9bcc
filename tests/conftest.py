"""Shared helpers: backend construction across kinds/profiles."""

import numpy as np
import pytest
from hypothesis import settings

from oblivlink import XI_DEFAULT, Machine, make_backend
from oblivlink.machine import APPROX, run_slots, slot_runs

# Property tests draw the same examples on every run, and a fixed number of
# them, so they are reproducible and their run time is bounded.
settings.register_profile("oblivlink", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("oblivlink")

ALL_BACKENDS = ["clear", "sim:generic", "sim:simd", "sim:sharemind", "mpc"]
EXACT_BACKENDS = ["clear", "sim:generic", "sim:sharemind", "mpc"]
LOCAL_EXACT = ["clear", "sim:generic", "sim:sharemind"]


def open_machine(spec: str, seed: int = 0, **kwargs):
    """Build (machine, decrypt-authority, backend) from 'kind[:profile]'."""
    kind, _, profile = spec.partition(":")
    backend = make_backend(kind, profile or "generic", seed=seed, **kwargs)
    authority = backend.issue_authority("test-owners", "P1+P2")
    return Machine(backend), authority, backend


@pytest.fixture
def clear_machine():
    mach, auth, _ = open_machine("clear")
    return mach, auth


def dec_round(mach, auth, value):
    """Decrypt and round to nearest integer(s); approximate backends carry
    small tolerances on integral data."""
    out = mach.dec(value, auth)
    return np.rint(np.asarray(out, dtype=np.float64)).astype(np.int64).tolist()


def upload_runs(mach, vectors):
    """The vectors as one upload pass: ``enc_runs`` of their values, run
    after run."""
    vectors = [list(v) for v in vectors]
    return mach.enc_runs([x for v in vectors for x in v], [len(v) for v in vectors])


def reference_eeq(mach, seq, idx):
    """``Machine.eeq`` without a native gate, as machine-level calls: the
    arithmetic workaround ``(seq-idx) * (-1/(seq-idx+xi)) + 1``, one call
    per step.  The reference the one-call ``approx_eq`` must reproduce."""
    n = seq.length
    d = mach.sub(seq, idx)
    shifted = mach.add(d, mach.enc(np.full(n, XI_DEFAULT)))
    recip = mach.masked_reciprocal(shifted)
    neg = mach.emul(recip, mach.enc(np.full(n, -1.0)))
    term = mach.emul(d, neg)
    return mach.add(term, mach.enc(np.full(n, 1.0)))


def reference_ve_indices(len1, len2, cells):
    """VE's gather indices of ``cells`` by the slot formula: slot p of a cell
    pairs v1[p % |v1|] with v2[p // |v1|], every vector at its offset in its
    side's joined vector."""
    len1, len2 = np.asarray(len1, dtype=np.int64), np.asarray(len2, dtype=np.int64)
    off1, off2 = np.cumsum(len1) - len1, np.cumsum(len2) - len2
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    i, j = cells[:, 0], cells[:, 1]
    n = len1[i] * len2[j]
    p = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
    width = np.repeat(len1[i], n)
    return (np.repeat(off1[i], n) + p % width, np.repeat(off2[j], n) + p // width)


def reference_merge(mach, digests1, digests2):
    """``merge_and_dedup`` with its band-major layout materialized: per run
    of bands and per limb, one ``take`` per side at an index of every
    (band, i, j) slot, then ``eeq``.  The reference that ``band_eq``'s
    outer form must reproduce, entry for entry and bit for bit."""
    rows, cols = digests1.rows, digests2.rows
    limbs = 2 if mach.b.domain == APPROX else 1
    bands = digests1.cols // limbs
    cells = rows * cols
    if not cells:
        return mach.enc(np.zeros((rows, cols), dtype=np.int64))
    # slot (i, j) of a band reads row i of side 1 and row j of side 2
    base1 = np.repeat(np.arange(rows) * digests1.cols, cols)
    base2 = np.tile(np.arange(cols) * digests2.cols, rows)
    counts = None
    for run in slot_runs([cells] * bands, run_slots((rows, cols))):
        bits = None
        for limb in range(limbs):
            column = np.arange(run.start, run.stop)[:, None] + limb * bands
            eq = mach.eeq(mach.take(digests1, (base1 + column).ravel()),
                          mach.take(digests2, (base2 + column).ravel()))
            bits = eq if bits is None else mach.emul(bits, eq)
        part = mach.segment_sum(bits, cells, [len(run)])
        counts = part if counts is None else mach.add(counts, part)
    counts = mach.take(counts, np.arange(cells).reshape(rows, cols))
    cut = 0.5 if limbs == 2 else 0
    return mach.gt(counts, mach.enc(np.full((rows, cols), cut)), bound=bands)
