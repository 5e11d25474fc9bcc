"""Backend that executes machine primitives over the three-party runtime.

Values are handles into the parties' share stores.  The primitives, with
their ledger and trace entries, are defined once on ``Backend``; this
backend supplies the hooks that run them: linear and structural operations
party-locally, products on dealer Beaver triples (one exchange round), and
equality/ordering on the dealer gates over masked differences.  Every
primitive runs to completion: it sends its messages hop by hop, pumping the
network after each, so its result is in every party's store and no message
is in flight when it returns.  Sorting, joins, and division are not
provided, so the SO and MJ intersection strategies are unavailable here.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..backends.base import EXACT, KERNELS, Backend, Capabilities, lift_signed, tagged_rng, to_u64
from .runtime import COORD, DEALER, PARTIES, Collector, DealerActor, Network, PartyActor
from .sharing import rand_u64, reconstruct3, share3

CAPS_MPC = Capabilities(native_eq=True, rotation=True, repeat_elements=True,
                        sort=False, join=False, division=False, compare=True)


class ShareRef:
    """Public-shape handle to a value held as shares by the parties.

    Each handle owns its hid: when the last reference to it dies, its share
    leaves every party's store.  Every primitive has finished by the time it
    returns, so no reader can still be waiting for the share.  Freeing sends
    no message and enters neither the trace nor the ledger.  ``shape`` is
    a tuple of Python ints, as numpy shapes are; the backend builds every
    other shape from ints."""

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
    """Shares in three party stores; ``enc``, ``enc_runs`` and ``dec`` move
    them, and the four hooks compute on them."""

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

    def _linear(self, op: str, srcs, shape, *args) -> ShareRef:
        """Party-local: each party applies the kernel to its own components;
        no message is sent."""
        out = self._new_ref(shape)
        kernel = KERNELS[op]
        hids = [s.hid for s in srcs]
        with np.errstate(over="ignore"):
            for store in self._stores:
                store[out.hid] = kernel(*[store[h] for h in hids], *args)
        return out

    def _bilinear(self, op: str, a: ShareRef, b: ShareRef, shape) -> ShareRef:
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
            out = self._new_ref(shape)
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

    def _rotate(self, v: ShareRef, k: int, cyclic: bool, fill) -> ShareRef:
        out = self._new_ref(v.shape)
        # a public fill is party 0's component of it; the others fill zeros
        fills = (to_u64(0 if fill is None else int(fill)), np.uint64(0), np.uint64(0))
        for p, part in zip(self.parties, fills):
            p.store[out.hid] = KERNELS["rotate"](p.store[v.hid], k, cyclic, part)
        return out

    # -- enc / dec ------------------------------------------------------------

    def _store(self, shape, parts, tag) -> ShareRef:
        """Upload one value: each party receives its share component.  The
        caller records the ``enc``."""
        out = self._new_ref(shape)
        send = self.net.send
        for name, part in zip(PARTIES, parts):
            send(COORD, name, "store", {"dst": out.hid, "component": part}, tag, part.nbytes)
        self.net.pump()
        return out

    def enc(self, value) -> ShareRef:
        arr = to_u64(value)
        self._record("enc", arr.shape)
        return self._store(arr.shape, share3(arr, self.share_rng), (self._stage, "enc"))

    def enc_runs(self, flat, lengths: list[int]) -> list[ShareRef]:
        arr = to_u64(flat)
        # Full-range draws split the stream exactly, so in one draw of two
        # words per value, run k's two random components are the words
        # share3 would draw for that run alone, after the runs before it.
        words = rand_u64(self.share_rng, 2 * len(arr))
        self._record_each("enc", len(lengths), (((n,),) for n in lengths))
        # flat value j, in a run of n values from lo, has its random
        # components at words lo + j and lo + n + j: one subtraction gives
        # every run's third component
        counts = np.asarray(lengths, dtype=np.int64)
        first = np.arange(len(arr)) + np.repeat(np.cumsum(counts) - counts, counts)
        with np.errstate(over="ignore"):
            s2 = arr - words[first] - words[first + np.repeat(counts, counts)]
        tag = (self._stage, "enc")
        refs, lo = [], 0
        for n in lengths:
            s0, s1 = words[2 * lo:2 * lo + n], words[2 * lo + n:2 * (lo + n)]
            refs.append(self._store((n,), (s0, s1, s2[lo:lo + n]), tag))
            lo += n
        return refs

    def dec(self, payload: ShareRef):
        self._record("dec", payload.shape)
        tag = (self._stage, "dec")
        for p in self.parties:
            part = p.store[payload.hid]
            self.net.send(p.name, COORD, "revealed", {"component": part}, tag, part.nbytes)
        self.net.pump()
        self.net.stats.add_round(tag)
        parts, self.collector.revealed = self.collector.revealed, []
        return lift_signed(reconstruct3(parts).reshape(payload.shape))

    # -- stats ----------------------------------------------------------------------

    def round_stats(self):
        return self.net.stats
