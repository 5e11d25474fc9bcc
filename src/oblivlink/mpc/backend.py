"""Backend that executes machine primitives over the three-party runtime.

Values are handles into the parties' share stores; linear and structural
operations run party-locally, multiplications consume dealer Beaver triples
(one exchange round), and equality/ordering use the dealer gates over
masked differences.  Every primitive runs to completion: it sends its
messages hop by hop, pumping the network after each, so its result is in
every party's store and no message is in flight when it returns.  Sorting,
joins, and division are not provided, so the SO and MJ intersection
strategies are unavailable here.
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
    no message and enters neither the trace nor the ledger."""

    __slots__ = ("hid", "shape", "_stores")

    def __init__(self, hid: int, shape: tuple, stores: tuple):
        self.hid = hid
        self.shape = tuple(int(s) for s in shape)
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
    kind = "mpc"
    profile = "3party-dealer"
    is_oracle = False

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

    def _tag(self, op: str) -> tuple:
        return (self._stage, op)

    def _new_ref(self, shape) -> ShareRef:
        return ShareRef(next(self._ids), shape, self._stores)

    def _local(self, op: str, srcs: list[ShareRef], shape, *args, meta: tuple = ()):
        """A linear primitive: each party applies the kernel to its own
        components; no message is sent."""
        self._record(op, *(s.shape for s in srcs), *meta)
        out = self._new_ref(shape)
        kernel = KERNELS[op]
        with np.errstate(over="ignore"):
            for p in self.parties:
                p.store[out.hid] = kernel(*(p.store[s.hid] for s in srcs), *args)
        return out

    def _beaver(self, op: str, a: ShareRef, b: ShareRef, shape):
        self._record(op, a.shape, b.shape)
        tag = self._tag(op)
        self.net.send(COORD, DEALER, "make_triple",
                      {"op": op, "shape_a": a.shape, "shape_b": b.shape}, tag, data=False)
        self.net.pump()
        for p in self.parties:
            p.beaver_open(a.hid, b.hid, tag)
        self.net.pump()
        out = self._new_ref(shape)
        for p in self.parties:
            p.beaver_close(op, out.hid)
        self.net.stats.add_round(tag)
        return out

    def _gate(self, op: str, a: ShareRef, b: ShareRef):
        self._record(op, a.shape)
        tag = self._tag(op)
        for p in self.parties:
            p.gate_mask(op, a.hid, b.hid, tag)
        self.net.pump()
        out = self._new_ref(a.shape)
        for p in self.parties:
            p.gate_close(out.hid)
        self.net.stats.add_round(tag)
        return out

    # -- enc / dec ------------------------------------------------------------

    def _store(self, shape, parts) -> ShareRef:
        """Upload one value: each party receives its share component.  The
        caller records the ``enc``."""
        out = self._new_ref(shape)
        tag = self._tag("enc")
        for name, part in zip(PARTIES, parts):
            self.net.send(COORD, name, "store", {"dst": out.hid, "component": part}, tag)
        self.net.pump()
        return out

    def enc(self, value) -> ShareRef:
        arr = to_u64(value)
        self._record("enc", arr.shape)
        return self._store(arr.shape, share3(arr, self.share_rng))

    def enc_runs(self, flat, lengths: list[int]) -> list[ShareRef]:
        arr = to_u64(flat)
        # Full-range draws split the stream exactly, so in one draw of two
        # words per value, run k's two random components are the words
        # share3 would draw for that run alone, after the runs before it.
        words = rand_u64(self.share_rng, 2 * len(arr))
        self._record_runs("enc", lengths)
        refs, lo = [], 0
        for n in lengths:
            s0, s1 = words[2 * lo:2 * lo + n], words[2 * lo + n:2 * (lo + n)]
            with np.errstate(over="ignore"):
                s2 = arr[lo:lo + n] - s0 - s1
            refs.append(self._store((n,), (s0, s1, s2)))
            lo += n
        return refs

    def dec(self, payload: ShareRef):
        self._record("dec", payload.shape)
        tag = self._tag("dec")
        for p in self.parties:
            self.net.send(p.name, COORD, "revealed", {"component": p.store[payload.hid]}, tag)
        self.net.pump()
        self.net.stats.add_round(tag)
        parts, self.collector.revealed = self.collector.revealed, []
        return lift_signed(reconstruct3(parts).reshape(payload.shape))

    # -- arithmetic --------------------------------------------------------------

    def add(self, a, b):
        return self._local("add", [a, b], a.shape)

    def sub(self, a, b):
        return self._local("sub", [a, b], a.shape)

    def mul(self, a, b):
        return self._beaver("mul", a, b, a.shape)

    def dot(self, a, b):
        return self._beaver("dot", a, b, ())

    def matmul(self, a, b):
        return self._beaver("matmul", a, b, (a.shape[0], b.shape[1]))

    def vecmat(self, v, m):
        return self._beaver("vecmat", v, m, (m.shape[1],))

    def outer(self, col, row):
        return self._beaver("outer", col, row, (col.shape[0], row.shape[0]))

    def transpose(self, m):
        return self._local("transpose", [m], tuple(reversed(m.shape)))

    # -- structure -----------------------------------------------------------------

    def rotate(self, v, k, cyclic=True, fill=None):
        self.require("rotation")
        k, cyclic = int(k), bool(cyclic)
        self._record("rotate", v.shape, k, cyclic)
        out = self._new_ref(v.shape)
        # a public fill is party 0's component of it; the others fill zeros
        fills = (to_u64(0 if fill is None else int(fill)), np.uint64(0), np.uint64(0))
        for p, part in zip(self.parties, fills):
            p.store[out.hid] = KERNELS["rotate"](p.store[v.hid], k, cyclic, part)
        return out

    def tile(self, v, times):
        self.require("repeat_elements")
        return self._local("tile", [v], (v.shape[0] * times,), int(times))

    def repeat_each(self, v, times):
        self.require("repeat_elements")
        return self._local("repeat_each", [v], (v.shape[0] * times,), int(times))

    def take(self, v, idx):
        # the index is public: the parties know it, it is never sent as data
        self.require("repeat_elements")
        return self._local("take", [v], idx.shape, idx, meta=(idx.shape,))

    def concat(self, *parts):
        return self._local("concat", list(parts), (sum(p.shape[0] for p in parts),))

    def segment_sum(self, v, width, lengths):
        return self._local("segment_sum", [v], (len(lengths), width), width, list(lengths),
                           meta=((len(lengths), width), list(lengths)))

    def slice(self, v, lo, hi):
        return self._local("slice", [v], (hi - lo,), int(lo), int(hi))

    def vget(self, v, i):
        return self._local("get", [v], (), int(i))

    def broadcast(self, s, shape):
        shape = tuple(int(x) for x in shape)
        return self._local("broadcast", [s], shape, shape)

    def stack(self, rows):
        inner = rows[0].shape
        return self._local("stack", list(rows), (len(rows),) + inner)

    # -- gates ------------------------------------------------------------------------

    def eq(self, a, b):
        self.require("native_eq")
        return self._gate("eq", a, b)

    def gt(self, a, b):
        self.require("compare")
        return self._gate("gt", a, b)

    def sort(self, v):
        self.require("sort")

    def join_counts(self, pairs):
        self.require("join")

    def masked_reciprocal(self, x, helper_role: str = "P3"):
        self.require("division")

    def approx_eq(self, a, b):
        self.require("division")

    # -- stats ----------------------------------------------------------------------

    def round_stats(self):
        return self.net.stats
