"""Shared helpers: backend construction across kinds/profiles."""

import numpy as np
import pytest
from hypothesis import settings

from oblivlink import Machine, make_backend

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
    mach, auth, backend = open_machine("clear")
    yield mach, auth
    backend.close()


def dec_round(mach, auth, value):
    """Decrypt and round to nearest integer(s); approximate backends carry
    small tolerances on integral data."""
    out = mach.dec(value, auth)
    return np.rint(np.asarray(out, dtype=np.float64)).astype(np.int64).tolist()
