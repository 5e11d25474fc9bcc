"""Message-passing runtime for the simulated three-party computation.

Three party actors, a dealer actor and the coordinator's collector exchange
envelopes through an in-order network that counts rounds, messages and
bytes.  Execution is run-to-completion: the backend drives each protocol
step hop by hop and pumps the network to quiescence after every hop, so a
primitive has finished, and nothing is left in flight, when it returns.
Party-local operations need no messages at all; the backend applies their
kernels to the three share stores directly.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from ..backends.base import tagged_rng
from .sharing import beaver_combine, make_triples, rand_u64, share3

PARTIES = ("party0", "party1", "party2")
DEALER = "dealer"
COORD = "coord"


@dataclass(slots=True)
class Envelope:
    src: str
    dst: str
    kind: str
    payload: dict
    tag: tuple  # (stage, op) for accounting
    nbytes: int | None  # payload bytes of protocol data; None for control

    @property
    def data(self) -> bool:
        """Protocol data, as opposed to coordinator control."""
        return self.nbytes is not None


def _zero_row() -> list[int]:
    return [0, 0, 0]  # rounds, messages, bytes


class RoundStats:
    """Rounds, messages, and bytes: running totals, and one counter row per
    ``(stage, op)`` tag, from which the per-stage and per-operation
    breakdowns are derived."""

    def __init__(self):
        self.rounds = 0
        self.messages = 0
        self.bytes = 0
        self.rows: defaultdict[tuple, list[int]] = defaultdict(_zero_row)

    def add_round(self, tag):
        self.rounds += 1
        self.rows[tag][0] += 1

    def add_message(self, tag, nbytes: int):
        self.messages += 1
        self.bytes += nbytes
        row = self.rows[tag]
        row[1] += 1
        row[2] += nbytes

    def _view(self, part: int) -> dict[str, dict[str, int]]:
        table: dict[str, dict[str, int]] = {}
        for tag, (rounds, messages, nbytes) in self.rows.items():
            bucket = table.setdefault(tag[part], {"rounds": 0, "messages": 0, "bytes": 0})
            bucket["rounds"] += rounds
            bucket["messages"] += messages
            bucket["bytes"] += nbytes
        return table

    @property
    def per_stage(self) -> dict[str, dict[str, int]]:
        return self._view(0)

    @property
    def per_op(self) -> dict[str, dict[str, int]]:
        return self._view(1)

    def to_csv(self) -> str:
        lines = ["scope,key,rounds,messages,bytes"]
        lines.append(f"total,all,{self.rounds},{self.messages},{self.bytes}")
        for stage, b in sorted(self.per_stage.items()):
            lines.append(f"stage,{stage},{b['rounds']},{b['messages']},{b['bytes']}")
        for op, b in sorted(self.per_op.items()):
            lines.append(f"op,{op},{b['rounds']},{b['messages']},{b['bytes']}")
        return "\n".join(lines) + "\n"


class Network:
    """In-order router with cost accounting."""

    def __init__(self, record_log: bool = False):
        self.stats = RoundStats()
        self.record_log = record_log
        self.log: list[Envelope] = []
        self.queue: deque[Envelope] = deque()
        self.actors: dict[str, object] = {}

    def send(self, src: str, dst: str, kind: str, payload: dict, tag: tuple,
             nbytes: int | None):
        """Queue one message.  The sender gives a data message's payload
        size in bytes, which the stats count; control messages pass None."""
        env = Envelope(src, dst, kind, payload, tag, nbytes)
        if nbytes is not None:
            self.stats.add_message(tag, nbytes)
        if self.record_log:
            self.log.append(env)
        self.queue.append(env)

    def pump(self):
        """Deliver until quiescent."""
        queue, actors = self.queue, self.actors
        while queue:
            env = queue.popleft()
            actors[env.dst].handle(env)


class PartyActor:
    """One computation party: a share store, and its side of the Beaver
    multiplication and of the dealer gates.  An upload reaches it as one
    ``store`` envelope, a share component and the hid it is kept under.
    Protocol data that arrives during a hop waits in ``inbox`` until the
    party's next step reads it.
    The backend runs each Beaver or gate primitive, all its hops included,
    inside one ``np.errstate(over="ignore")``, so share arithmetic here
    wraps without warnings."""

    def __init__(self, pid: int, net: Network, mask_seed):
        self.pid = pid
        self.name = PARTIES[pid]
        self.peers = tuple(p for p in PARTIES if p != self.name)
        self.net = net
        self.store: dict[int, np.ndarray] = {}
        # Mask randomness shared by all parties (never by the dealer); the
        # identical operation order keeps the streams aligned.
        self.mask_rng = tagged_rng("party-mask", mask_seed)
        self.inbox: list[dict] = []
        self._masking: tuple | None = None

    def handle(self, env: Envelope):
        if env.kind == "store":
            self.store[env.payload["hid"]] = env.payload["component"]
        elif env.kind in ("triple", "open", "gate_result"):
            self.inbox.append(env.payload)
        else:
            raise RuntimeError(f"party {self.name}: unexpected message {env.kind}")

    def _received(self) -> list[dict]:
        received, self.inbox = self.inbox, []
        return received

    def beaver_open(self, h1: int, h2: int, tag):
        """Mask both operands with the dealer's triple and send the maskings
        d = x - a, e = y - b to the peers."""
        (msg,) = self._received()
        triple = msg["triple"]
        d = self.store[h1] - triple.a
        e = self.store[h2] - triple.b
        nbytes = d.nbytes + e.nbytes
        for peer in self.peers:
            self.net.send(self.name, peer, "open", {"d": d, "e": e}, tag, nbytes)
        self._masking = (triple, d, e)

    def beaver_close(self, op: str, dst: int):
        """Sum the peers' maskings into the opened d, e and combine."""
        triple, d, e = self._masking
        self._masking = None
        for msg in self._received():
            d = d + msg["d"]
            e = e + msg["e"]
        self.store[dst] = beaver_combine(op, self.pid, triple, d, e)

    def gate_mask(self, op: str, diff: np.ndarray, tag):
        """Send the dealer this party's share of the masked difference, from
        ``diff``, its share of the gate operands' difference."""
        if op == "eq":
            # odd multiplicative mask: r*diff == 0 iff diff == 0.  It equals
            # integers(0, 2^63) << 1 | 1 word for word, at a quarter of the
            # cost: Lemire's method over a range of 2^63 never rejects and
            # returns each raw 64-bit word x as x >> 1, one word per slot, so
            # (x >> 1) << 1 | 1 == x | 1 and the stream ends in the same state.
            r = rand_u64(self.mask_rng, diff.shape) | np.uint64(1)
        else:
            # bounded positive mask keeps the sign of small differences
            r = self.mask_rng.integers(1, 1 << 30, size=diff.shape, dtype=np.uint64)
        masked = r * diff
        self.net.send(self.name, DEALER, "masked", {"op": op, "fragment": masked}, tag,
                      masked.nbytes)

    def gate_close(self, dst: int):
        (msg,) = self._received()
        self.store[dst] = msg["share"]


class DealerActor:
    """Trusted dealer: Beaver triples on request, and the idealized
    equality / comparison gates over masked differences.  It runs inside
    the requesting primitive's ``np.errstate``, as the parties do."""

    def __init__(self, net: Network, seed):
        self.name = DEALER
        self.net = net
        self.rng = tagged_rng("dealer", seed)
        self._fragments: list[np.ndarray] = []

    def handle(self, env: Envelope):
        if env.kind == "make_triple":
            p = env.payload
            triples = make_triples(p["op"], p["shape_a"], p["shape_b"], self.rng)
            t = triples[0]
            nbytes = t.a.nbytes + t.b.nbytes + t.c.nbytes
            for name, triple in zip(PARTIES, triples):
                self.net.send(self.name, name, "triple", {"triple": triple}, env.tag, nbytes)
            return
        if env.kind == "masked":
            self._fragments.append(env.payload["fragment"])
            if len(self._fragments) < 3:
                return
            frags, self._fragments = self._fragments, []
            total = np.asarray(frags[0] + frags[1] + frags[2])
            if env.payload["op"] == "eq":
                bit = np.asarray(total == 0, dtype=np.uint64)
            else:
                signed = total.view(np.int64)
                bit = np.asarray(signed > 0, dtype=np.uint64)
            parts = share3(bit, self.rng)
            nbytes = parts[0].nbytes
            for name, part in zip(PARTIES, parts):
                self.net.send(self.name, name, "gate_result", {"share": part}, env.tag, nbytes)
            return
        raise RuntimeError(f"dealer: unexpected message {env.kind}")


class Collector:
    """Coordinator-side sink for revealed share components."""

    def __init__(self):
        self.revealed: list[np.ndarray] = []

    def handle(self, env: Envelope):
        if env.kind != "revealed":
            raise RuntimeError(f"coordinator: unexpected message {env.kind}")
        self.revealed.append(env.payload["component"])
