"""Backend that executes machine primitives over the three-party runtime.

Values are handles into the parties' share stores.  ``Machine`` defines
each primitive and records every ledger and trace entry; this backend only
computes.  It supplies enc/dec and the three kernel hooks that run the
primitives: linear operations (the structural gather included)
party-locally, products on dealer Beaver triples (one exchange round), and
equality/ordering on the dealer gates over masked differences.  Every
primitive runs to completion: it sends its messages hop by hop, pumping
the network after each, so its result is in every party's store and no
message is in flight when it returns.  Sorting, joins, and
division are not provided, so the SO and MJ intersection strategies are
unavailable here.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..backends.base import (EXACT, KERNELS, PRODUCT_SHAPES, Backend, Capabilities,
                             tagged_rng, to_u64)
from .runtime import COORD, DEALER, PARTIES, Collector, DealerActor, Network, PartyActor
from .sharing import reconstruct3, share3

CAPS_MPC = Capabilities(native_eq=True, rotation=True, sort=False, join=False,
                        division=False)


class ShareRef:
    """Public-shape handle to a value held as shares by the parties.

    Each handle owns its hid: when the last reference to it dies, its share
    leaves every party's store.  Every primitive has finished by the time it
    returns, so no reader can still be waiting for the share.  Freeing sends
    no message and enters neither the trace nor the ledger.  ``shape`` is
    a tuple of Python ints: a numpy shape, or a ``PRODUCT_SHAPES`` result
    over such shapes."""

    __slots__ = ("hid", "shape", "_stores")

    def __init__(self, hid: int, shape: tuple, stores: tuple):
        self.hid = hid
        self.shape = shape
        self._stores = stores

    def __del__(self):
        for store in self._stores:
            store.pop(self.hid, None)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __repr__(self):
        return f"ShareRef(#{self.hid}, shape={self.shape})"


class MpcBackend(Backend):
    """Shares in three party stores; ``enc`` and ``dec`` move them, and the
    three hooks compute on them."""

    kind = "mpc"
    profile = "3party-dealer"

    # the comparison gate preserves sign only for bounded differences
    compare_bound = 1 << 32

    def __init__(self, seed: int = 0, record_messages: bool = False):
        super().__init__(CAPS_MPC, EXACT, seed)
        self.net = Network(record_log=record_messages)
        self.parties = [PartyActor(pid, self.net, mask_seed=seed) for pid in range(3)]
        self.dealer = DealerActor(self.net, seed)
        self.collector = Collector()
        self.net.actors = {p.name: p for p in self.parties}
        self.net.actors[DEALER] = self.dealer
        self.net.actors[COORD] = self.collector
        self.share_rng = tagged_rng("share", seed)
        self._ids = itertools.count(1)
        # the store dicts, not the backend, so a handle forms no cycle
        self._stores = tuple(p.store for p in self.parties)

    # -- plumbing -----------------------------------------------------------

    def _new_ref(self, shape) -> ShareRef:
        return ShareRef(next(self._ids), shape, self._stores)

    # -- the shared primitives' hooks ------------------------------------------

    def _linear(self, op: str, srcs, *args) -> ShareRef:
        """Party-local: each party applies the kernel to its own components;
        no message is sent.  The result's shape is that of party 0's."""
        kernel = KERNELS[op]
        hids = [s.hid for s in srcs]
        with np.errstate(over="ignore"):
            parts = [kernel(*[store[h] for h in hids], *args) for store in self._stores]
        out = self._new_ref(parts[0].shape)
        for store, part in zip(self._stores, parts):
            store[out.hid] = part
        return out

    def _bilinear(self, op: str, a: ShareRef, b: ShareRef) -> ShareRef:
        """A Beaver product: one dealer triple and one exchange round."""
        tag = (self._stage, op)
        net, parties = self.net, self.parties
        # one errstate for every hop: the actors' share arithmetic wraps
        with np.errstate(over="ignore"):
            net.send(COORD, DEALER, "make_triple",
                     {"op": op, "shape_a": a.shape, "shape_b": b.shape}, tag, None)
            net.pump()
            for p in parties:
                p.beaver_open(a.hid, b.hid, tag)
            net.pump()
            out = self._new_ref(PRODUCT_SHAPES[op](a.shape, b.shape))
            for p in parties:
                p.beaver_close(op, out.hid)
        net.stats.add_round(tag)
        return out

    def _compare(self, op: str, a: ShareRef, b: ShareRef) -> ShareRef:
        """The dealer gate over the parties' masked differences."""
        tag = (self._stage, op)
        net, parties = self.net, self.parties
        with np.errstate(over="ignore"):
            for p in parties:
                p.gate_mask(op, a.hid, b.hid, tag)
            net.pump()
            out = self._new_ref(a.shape)
            for p in parties:
                p.gate_close(out.hid)
        net.stats.add_round(tag)
        return out

    # -- enc / dec ------------------------------------------------------------

    def enc(self, value) -> ShareRef:
        """Upload one value, a pass's whole flat vector included: each party
        gets its share component in one ``store`` envelope under its hid."""
        arr = to_u64(value)
        out = self._new_ref(arr.shape)
        tag = (self._stage, "enc")
        for name, part in zip(PARTIES, share3(arr, self.share_rng)):
            self.net.send(COORD, name, "store", {"component": part, "hid": out.hid}, tag,
                          part.nbytes)
        self.net.pump()
        return out

    def dec(self, payload: ShareRef) -> np.ndarray:
        tag = (self._stage, "dec")
        for p in self.parties:
            part = p.store[payload.hid]
            self.net.send(p.name, COORD, "revealed", {"component": part}, tag, part.nbytes)
        self.net.pump()
        self.net.stats.add_round(tag)
        parts, self.collector.revealed = self.collector.revealed, []
        # a scalar's parts sum to a numpy scalar, so make it an array
        return np.asarray(reconstruct3(parts)).reshape(payload.shape).view(np.int64)

    # -- stats ----------------------------------------------------------------------

    def round_stats(self):
        return self.net.stats
