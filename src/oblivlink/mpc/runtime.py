"""Message-passing runtime for the simulated three-party computation.

Three party actors and a dealer actor exchange envelopes through a virtual
network with a deterministic clock.  Channels are in-order; optional
per-message latency (fixed plus seeded jitter) advances the virtual clock
without affecting results.  Every protocol step has a fixed message
schedule, so any machine program drains to quiescence without deadlock.

Each party is strictly sequential: coordinator instructions execute in
arrival order, and an instruction awaiting protocol input (a Beaver triple,
peer openings, a dealer gate result) blocks the party's instruction queue
while data messages keep being absorbed.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..backends.base import segment_sum, tagged_rng
from .sharing import BeaverTriple, beaver_combine, make_triples, share3

PARTIES = ("party0", "party1", "party2")
DEALER = "dealer"
COORD = "coord"


@dataclass
class LatencyModel:
    """Fixed per-message delay plus uniform jitter, in microseconds."""
    fixed_us: float = 0.0
    jitter_us: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self._rng = tagged_rng("latency", self.seed)

    def sample(self) -> float:
        if self.jitter_us:
            return self.fixed_us + float(self._rng.uniform(0.0, self.jitter_us))
        return self.fixed_us


@dataclass
class Envelope:
    deliver_at: float
    seq: int
    src: str
    dst: str
    kind: str
    payload: dict
    tag: tuple  # (stage, op) for accounting
    data: bool  # protocol data vs. coordinator control


class RoundStats:
    """Rounds, messages, and bytes, totalled and broken down by pipeline
    stage and by operation kind."""

    def __init__(self):
        self.rounds = 0
        self.messages = 0
        self.bytes = 0
        self.time_us = 0.0
        self.per_stage: dict[str, dict[str, float]] = {}
        self.per_op: dict[str, dict[str, float]] = {}

    def _bucket(self, table, key):
        if key not in table:
            table[key] = {"rounds": 0, "messages": 0, "bytes": 0}
        return table[key]

    def add_round(self, tag, n: int = 1):
        stage, op = tag
        self.rounds += n
        self._bucket(self.per_stage, stage)["rounds"] += n
        self._bucket(self.per_op, op)["rounds"] += n

    def add_message(self, tag, nbytes: int):
        stage, op = tag
        self.messages += 1
        self.bytes += nbytes
        for table, key in ((self.per_stage, stage), (self.per_op, op)):
            bucket = self._bucket(table, key)
            bucket["messages"] += 1
            bucket["bytes"] += nbytes

    def to_csv(self) -> str:
        lines = ["scope,key,rounds,messages,bytes"]
        lines.append(f"total,all,{self.rounds},{self.messages},{self.bytes}")
        for stage, b in sorted(self.per_stage.items()):
            lines.append(f"stage,{stage},{b['rounds']},{b['messages']},{b['bytes']}")
        for op, b in sorted(self.per_op.items()):
            lines.append(f"op,{op},{b['rounds']},{b['messages']},{b['bytes']}")
        return "\n".join(lines) + "\n"


def _payload_bytes(payload: dict) -> int:
    total = 0
    for v in payload.values():
        if isinstance(v, (np.ndarray, np.generic)):
            total += v.nbytes
        elif isinstance(v, BeaverTriple):
            total += v.a.nbytes + v.b.nbytes + v.c.nbytes
    return total


class Network:
    """Virtual-clock router with in-order channels and cost accounting."""

    def __init__(self, latency: LatencyModel | None = None, record_log: bool = False):
        self.latency = latency
        self.stats = RoundStats()
        self.record_log = record_log
        self.log: list[Envelope] = []
        self.clock = 0.0
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, Envelope]] = []
        self._fifo: deque[Envelope] = deque()
        self._channel_clock: dict[tuple[str, str], float] = {}
        self.actors: dict[str, object] = {}

    def send(self, src: str, dst: str, kind: str, payload: dict, tag: tuple,
             data: bool = True):
        env = Envelope(0.0, next(self._seq), src, dst, kind, payload, tag, data)
        if data:
            self.stats.add_message(tag, _payload_bytes(payload))
        if self.record_log:
            self.log.append(env)
        if self.latency is None:
            self._fifo.append(env)
            return
        at = self.clock + self.latency.sample()
        key = (src, dst)
        at = max(at, self._channel_clock.get(key, 0.0))  # in-order channel
        self._channel_clock[key] = at
        env.deliver_at = at
        heapq.heappush(self._heap, (at, env.seq, env))

    def pump(self):
        """Deliver until quiescent."""
        if self.latency is None:
            while self._fifo:
                env = self._fifo.popleft()
                self.actors[env.dst].handle(env)
            return
        while self._heap:
            at, _, env = heapq.heappop(self._heap)
            self.clock = max(self.clock, at)
            self.actors[env.dst].handle(env)
        self.stats.time_us = self.clock


class PartyActor:
    """One computation party: a share store and sequential instruction
    execution with protocol buffering."""

    def __init__(self, pid: int, net: Network, mask_seed):
        self.pid = pid
        self.name = PARTIES[pid]
        self.net = net
        self.store: dict[int, np.ndarray] = {}
        # Mask randomness shared by all parties (never by the dealer); the
        # identical instruction order keeps the streams aligned.
        self.mask_rng = tagged_rng("party-mask", mask_seed)
        self._instrs: deque[dict] = deque()
        self._triples: dict[int, BeaverTriple] = {}
        self._opens: dict[int, list] = {}
        self._gate_results: dict[int, np.ndarray] = {}
        self._started: dict[int, tuple] = {}

    @property
    def peers(self):
        return [p for p in PARTIES if p != self.name]

    def handle(self, env: Envelope):
        kind = env.kind
        if env.src == COORD:
            self._instrs.append({"kind": kind, "tag": env.tag, **env.payload})
        elif kind == "triple":
            self._triples[env.payload["tid"]] = env.payload["triple"]
        elif kind == "open":
            self._opens.setdefault(env.payload["oid"], []).append(
                (env.payload["d"], env.payload["e"]))
        elif kind == "gate_result":
            self._gate_results[env.payload["gid"]] = env.payload["share"]
        else:
            raise RuntimeError(f"party {self.name}: unexpected message {kind}")
        self._advance()

    # -- instruction execution -------------------------------------------

    def _advance(self):
        while self._instrs:
            instr = self._instrs[0]
            if not self._step(instr):
                return
            self._instrs.popleft()

    def _step(self, instr) -> bool:
        kind = instr["kind"]
        if kind == "store":
            self.store[instr["dst"]] = instr["component"]
            return True
        if kind == "local":
            self._local(instr)
            return True
        if kind == "beaver":
            return self._beaver(instr)
        if kind == "gate":
            return self._gate(instr)
        if kind == "reveal":
            self.net.send(self.name, COORD, "revealed",
                          {"rid": instr["rid"], "component": self.store[instr["h"]]},
                          instr["tag"])
            return True
        raise RuntimeError(f"party {self.name}: unknown instruction {kind}")

    def _local(self, instr):
        op = instr["op"]
        args = [self.store[h] for h in instr["srcs"]]
        p = instr.get("params", {})
        with np.errstate(over="ignore"):
            if op == "add":
                out = args[0] + args[1]
            elif op == "sub":
                out = args[0] - args[1]
            elif op == "rotate":
                out = self._rotate(args[0], p["k"], p["cyclic"], p["fill"])
            elif op == "tile":
                out = np.tile(args[0], p["times"])
            elif op == "repeat_each":
                out = np.repeat(args[0], p["times"])
            elif op == "take":
                out = args[0].reshape(-1)[p["idx"]]
            elif op == "concat":
                out = np.concatenate(args)
            elif op == "segment_sum":
                out = segment_sum(args[0], p["width"], p["lengths"])
            elif op == "slice":
                out = args[0][p["lo"]:p["hi"]].copy()
            elif op == "get":
                out = np.asarray(args[0][p["i"]])
            elif op == "broadcast":
                out = np.broadcast_to(args[0], p["shape"]).copy()
            elif op == "stack":
                out = np.stack(args)
            elif op == "transpose":
                out = args[0].T.copy()
            else:
                raise RuntimeError(f"unknown local op {op}")
        self.store[instr["dst"]] = out

    def _rotate(self, v, k, cyclic, fill):
        if cyclic:
            return np.roll(v, k)
        if k == 0 or len(v) == 0:
            return v.copy()
        # public fill: party 0 contributes the value, the others zero
        fill_c = np.uint64(fill & ((1 << 64) - 1)) if self.pid == 0 else np.uint64(0)
        out = np.full_like(v, fill_c)
        if 0 < k < len(v):
            out[k:] = v[:-k]
        elif -len(v) < k < 0:
            out[:k] = v[-k:]
        return out

    def _beaver(self, instr) -> bool:
        oid = instr["oid"]
        if oid not in self._started:
            triple = self._triples.pop(instr["tid"], None)
            if triple is None:
                return False
            with np.errstate(over="ignore"):
                d = self.store[instr["h1"]] - triple.a
                e = self.store[instr["h2"]] - triple.b
            for peer in self.peers:
                self.net.send(self.name, peer, "open", {"oid": oid, "d": d, "e": e},
                              instr["tag"])
            self._started[oid] = (triple, d, e)
        parts = self._opens.get(oid, [])
        if len(parts) < 2:
            return False
        triple, d, e = self._started.pop(oid)
        del self._opens[oid]
        with np.errstate(over="ignore"):
            for pd, pe in parts:
                d = d + pd
                e = e + pe
        self.store[instr["dst"]] = beaver_combine(instr["op"], self.pid, triple, d, e)
        return True

    def _gate(self, instr) -> bool:
        gid = instr["gid"]
        if gid not in self._started:
            with np.errstate(over="ignore"):
                diff = self.store[instr["h1"]] - self.store[instr["h2"]]
            shape = diff.shape
            if instr["op"] == "eq":
                # odd multiplicative mask: r*diff == 0 iff diff == 0
                r = (self.mask_rng.integers(0, 1 << 63, size=shape, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
            else:
                # bounded positive mask keeps the sign of small differences
                r = self.mask_rng.integers(1, 1 << 30, size=shape, dtype=np.uint64)
            with np.errstate(over="ignore"):
                masked = r * diff
            self.net.send(self.name, DEALER, "masked",
                          {"gid": gid, "op": instr["op"], "fragment": masked},
                          instr["tag"])
            self._started[gid] = True
        share = self._gate_results.pop(gid, None)
        if share is None:
            return False
        del self._started[gid]
        self.store[instr["dst"]] = share
        return True


class DealerActor:
    """Trusted dealer: Beaver triples on request, and the idealized
    equality / comparison gates over masked differences."""

    def __init__(self, net: Network, seed):
        self.name = DEALER
        self.net = net
        self.rng = tagged_rng("dealer", seed)
        self._fragments: dict[int, list] = {}

    def handle(self, env: Envelope):
        if env.kind == "make_triple":
            p = env.payload
            triples = make_triples(p["op"], p["shape_a"], p["shape_b"], self.rng)
            for pid, name in enumerate(PARTIES):
                self.net.send(self.name, name, "triple",
                              {"tid": p["tid"], "triple": triples[pid]}, env.tag)
            return
        if env.kind == "masked":
            gid = env.payload["gid"]
            frags = self._fragments.setdefault(gid, [])
            frags.append((env.payload["op"], env.payload["fragment"]))
            if len(frags) < 3:
                return
            del self._fragments[gid]
            op = frags[0][0]
            with np.errstate(over="ignore"):
                total = np.asarray(frags[0][1] + frags[1][1] + frags[2][1])
            if op == "eq":
                bit = np.asarray(total == 0, dtype=np.uint64)
            else:
                signed = total.view(np.int64)
                bit = np.asarray(signed > 0, dtype=np.uint64)
            parts = share3(bit, self.rng)
            for pid, name in enumerate(PARTIES):
                self.net.send(self.name, name, "gate_result",
                              {"gid": gid, "share": parts[pid]}, env.tag)
            return
        raise RuntimeError(f"dealer: unexpected message {env.kind}")


class Collector:
    """Coordinator-side sink for revealed share components."""

    def __init__(self):
        self.revealed: dict[int, list] = {}

    def handle(self, env: Envelope):
        if env.kind != "revealed":
            raise RuntimeError(f"coordinator: unexpected message {env.kind}")
        self.revealed.setdefault(env.payload["rid"], []).append(env.payload["component"])
