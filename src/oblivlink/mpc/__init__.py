"""Simulated three-party additive-secret-sharing backend."""

from .backend import CAPS_MPC, MpcBackend, ShareRef
from .runtime import DealerActor, Network, PartyActor, RoundStats
from .sharing import BeaverTriple, make_triples, reconstruct3, share3

__all__ = [
    "CAPS_MPC", "MpcBackend", "ShareRef", "Network", "PartyActor",
    "DealerActor", "RoundStats", "BeaverTriple", "make_triples",
    "reconstruct3", "share3",
]
