"""Backend construction and shared backend types."""

from __future__ import annotations

from .base import (APPROX, CAPS_ALL, CAPS_SHAREMIND, CAPS_SIMD, EXACT,
                   Backend, Capabilities, DecryptionAuthority, Observation,
                   OpCostLedger, assert_oblivious, tagged_rng)
from .local import SimBackend

KINDS = ("clear", "sim", "mpc")


def make_backend(kind: str, profile: str = "generic", seed: int = 0) -> Backend:
    """Build a machine context: the cleartext reference (the simulator's
    ``generic`` profile, whatever ``profile`` says), the oblivious simulator
    with a capability profile, or the simulated three-party secret-sharing
    backend."""
    if kind == "clear":
        return SimBackend(seed=seed)
    if kind == "sim":
        return SimBackend(profile=profile, seed=seed)
    if kind == "mpc":
        from ..mpc.backend import MpcBackend
        return MpcBackend(seed=seed)
    raise ValueError(f"unknown backend kind {kind!r}; pick one of {KINDS}")


__all__ = [
    "APPROX", "EXACT", "Backend", "Capabilities", "DecryptionAuthority",
    "Observation", "OpCostLedger", "SimBackend",
    "CAPS_ALL", "CAPS_SIMD", "CAPS_SHAREMIND", "KINDS", "make_backend",
    "assert_oblivious", "tagged_rng",
]
