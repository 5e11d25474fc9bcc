"""Backend that executes machine primitives over the three-party runtime.

Values are handles into the parties' share stores; linear and structural
operations run party-locally, multiplications consume dealer Beaver triples
(one exchange round), and equality/ordering use the dealer gates over
masked differences.  Sorting, joins, and division are not provided, so the
SO and MJ intersection strategies are unavailable here.
"""

from __future__ import annotations

import itertools

from ..backends.base import EXACT, Backend, Capabilities, lift_signed, tagged_rng, to_u64
from .runtime import COORD, DEALER, PARTIES, Collector, DealerActor, LatencyModel, Network, PartyActor
from .sharing import reconstruct3, share3

CAPS_MPC = Capabilities(native_eq=True, rotation=True, repeat_elements=True,
                        sort=False, join=False, division=False, compare=True)


class ShareRef:
    """Public-shape handle to a value held as shares by the parties."""

    __slots__ = ("hid", "shape")

    def __init__(self, hid: int, shape: tuple):
        self.hid = hid
        self.shape = tuple(int(s) for s in shape)

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

    def __init__(self, seed: int = 0, latency: LatencyModel | None = None,
                 record_messages: bool = False):
        super().__init__(CAPS_MPC, EXACT, seed)
        self.latency = latency
        self.net = Network(latency, record_log=record_messages)
        self.parties = [PartyActor(pid, self.net, mask_seed=seed) for pid in range(3)]
        self.dealer = DealerActor(self.net, seed)
        self.collector = Collector()
        self.net.actors = {p.name: p for p in self.parties}
        self.net.actors[DEALER] = self.dealer
        self.net.actors[COORD] = self.collector
        self.share_rng = tagged_rng("share", seed)
        self._ids = itertools.count(1)
        self._clones = 0

    # -- plumbing -----------------------------------------------------------

    def _tag(self, op: str) -> tuple:
        return (self._stage, op)

    def _new_ref(self, shape) -> ShareRef:
        return ShareRef(next(self._ids), shape)

    def _instr(self, tag, kind: str, common: dict):
        for name in PARTIES:
            self.net.send(COORD, name, kind, common, tag, data=False)

    def _local(self, opname: str, local_op: str, srcs: list[ShareRef], shape,
               params: dict | None = None, meta: tuple = ()):
        self._record(opname, *(s.shape for s in srcs), *meta)
        out = self._new_ref(shape)
        self._instr(self._tag(opname), "local",
                    {"op": local_op, "dst": out.hid, "srcs": [s.hid for s in srcs],
                     "params": params or {}})
        return out

    def _beaver(self, opname: str, bilinear_op: str, a: ShareRef, b: ShareRef, shape):
        self._record(opname, a.shape, b.shape)
        tag = self._tag(opname)
        tid = next(self._ids)
        oid = next(self._ids)
        self.net.send(COORD, DEALER, "make_triple",
                      {"tid": tid, "op": bilinear_op, "shape_a": a.shape, "shape_b": b.shape},
                      tag, data=False)
        out = self._new_ref(shape)
        self._instr(tag, "beaver", {"op": bilinear_op, "dst": out.hid,
                                    "h1": a.hid, "h2": b.hid, "tid": tid, "oid": oid})
        self.net.stats.add_round(tag)
        return out

    def _gate(self, opname: str, gate_op: str, a: ShareRef, b: ShareRef):
        self._record(opname, a.shape)
        tag = self._tag(opname)
        gid = next(self._ids)
        out = self._new_ref(a.shape)
        self._instr(tag, "gate", {"op": gate_op, "dst": out.hid,
                                  "h1": a.hid, "h2": b.hid, "gid": gid})
        self.net.stats.add_round(tag)
        return out

    # -- enc / dec ------------------------------------------------------------

    def enc(self, value) -> ShareRef:
        arr = to_u64(value)
        self._record("enc", arr.shape)
        out = self._new_ref(arr.shape)
        parts = share3(arr, self.share_rng)
        tag = self._tag("enc")
        for pid, name in enumerate(PARTIES):
            self.net.send(COORD, name, "store",
                          {"dst": out.hid, "component": parts[pid]}, tag)
        return out

    def dec(self, payload: ShareRef):
        self._record("dec", payload.shape)
        tag = self._tag("dec")
        rid = next(self._ids)
        self._instr(tag, "reveal", {"h": payload.hid, "rid": rid})
        self.net.stats.add_round(tag)
        self.net.pump()
        parts = self.collector.revealed.pop(rid)
        return lift_signed(reconstruct3(parts).reshape(payload.shape))

    # -- arithmetic --------------------------------------------------------------

    def add(self, a, b):
        return self._local("add", "add", [a, b], a.shape)

    def sub(self, a, b):
        return self._local("sub", "sub", [a, b], a.shape)

    def mul(self, a, b):
        return self._beaver("mul", "mul", a, b, a.shape)

    def dot(self, a, b):
        return self._beaver("dot", "dot", a, b, ())

    def matmul(self, a, b):
        return self._beaver("matmul", "matmul", a, b, (a.shape[0], b.shape[1]))

    def vecmat(self, v, m):
        return self._beaver("vecmat", "vecmat", v, m, (m.shape[1],))

    def outer(self, col, row):
        return self._beaver("outer", "outer", col, row, (col.shape[0], row.shape[0]))

    def transpose(self, m):
        return self._local("transpose", "transpose", [m], tuple(reversed(m.shape)))

    # -- structure -----------------------------------------------------------------

    def rotate(self, v, k, cyclic=True, fill=None):
        self.require("rotation")
        fill_value = 0 if fill is None else int(fill)
        return self._local("rotate", "rotate", [v], v.shape,
                           {"k": int(k), "cyclic": bool(cyclic), "fill": fill_value},
                           meta=(int(k), bool(cyclic)))

    def tile(self, v, times):
        self.require("repeat_elements")
        return self._local("tile", "tile", [v], (v.shape[0] * times,), {"times": int(times)})

    def repeat_each(self, v, times):
        self.require("repeat_elements")
        return self._local("repeat_each", "repeat_each", [v], (v.shape[0] * times,),
                           {"times": int(times)})

    def take(self, v, idx):
        # the index is public: it travels with the instruction, not as data
        self.require("repeat_elements")
        return self._local("take", "take", [v], idx.shape, {"idx": idx}, meta=(idx.shape,))

    def concat(self, *parts):
        return self._local("concat", "concat", list(parts), (sum(p.shape[0] for p in parts),))

    def segment_sum(self, v, width, lengths):
        return self._local("segment_sum", "segment_sum", [v], (len(lengths), width),
                           {"width": width, "lengths": list(lengths)},
                           meta=((len(lengths), width), list(lengths)))

    def slice(self, v, lo, hi):
        return self._local("slice", "slice", [v], (hi - lo,), {"lo": int(lo), "hi": int(hi)})

    def vget(self, v, i):
        return self._local("get", "get", [v], (), {"i": int(i)})

    def broadcast(self, s, shape):
        return self._local("broadcast", "broadcast", [s], tuple(shape),
                           {"shape": tuple(int(x) for x in shape)})

    def stack(self, rows):
        inner = rows[0].shape
        return self._local("stack", "stack", list(rows), (len(rows),) + inner)

    # -- gates ------------------------------------------------------------------------

    def eq(self, a, b):
        self.require("native_eq")
        return self._gate("eq", "eq", a, b)

    def gt(self, a, b):
        self.require("compare")
        return self._gate("gt", "gt", a, b)

    def sort(self, v):
        self.require("sort")

    def join_count(self, a, b):
        self.require("join")

    def masked_reciprocal(self, x, helper_role: str = "P3"):
        self.require("division")

    # -- stats / lifecycle ----------------------------------------------------------

    def round_stats(self):
        self.net.pump()
        return self.net.stats

    def message_log(self):
        self.net.pump()
        return self.net.log

    def clone(self):
        self._clones += 1
        base = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        child = MpcBackend(seed=base + (self._clones,), latency=self.latency,
                           record_messages=self.net.record_log)
        child.trace_enabled = self.trace_enabled
        return child

    def close(self):
        self.net.pump()
