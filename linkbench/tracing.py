"""Per-layer tracing of linkages, done from outside the package.

While a :class:`Tracer` is installed it replaces public functions and
methods of the package with timing wrappers, and it restores the originals
when it is removed, so untraced linkages in the same process run the
package's own code.  It records two kinds of data:

* spans, one per layer boundary: the linkage, each owner's encoding
  (``prepare_upload``), the band plan search, each pipeline stage
  (``Backend.stage``) and each Jaccard decision (``jaccard_match``).  A span
  holds its name, start, end, parent and the linkage's identifier; spans
  are kept in memory and written out when the run ends;
* time and call totals for the boundaries crossed too often for one span
  per call (up to about 10^5 calls per linkage): MinHash signatures, backend
  primitives, ``Machine`` methods and the mpc runtime's actors.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns

import oblivlink.blocking as blocking
import oblivlink.machine as machine
import oblivlink.pipeline as pipeline
from oblivlink.backends.base import Backend
from oblivlink.backends.local import LocalBackend
from oblivlink.mpc import backend as mpc_backend
from oblivlink.mpc import runtime as mpc_runtime

STAGES = ("upload", "merge_dedup", "obfuscate", "filter_er", "finalize")
# largest ledger entries over the three workloads
LEDGER_OPS = ("enc", "mul", "add", "sub", "eq", "gt", "dot", "outer",
              "broadcast", "transpose", "tile", "join", "dec")
MPC_OPS = ("mul", "eq", "gt", "outer", "vecmat", "dot")
BACKEND_PRIMITIVES = (
    "enc", "dec", "add", "sub", "mul", "dot", "matmul", "vecmat", "outer",
    "transpose", "rotate", "tile", "repeat_each", "concat", "slice", "vget",
    "broadcast", "stack", "eq", "gt", "sort", "join_count",
    "masked_reciprocal", "masked_round")
SPAN_NAMES = ("linkage", "encode", "band_plan") + tuple(
    f"stage.{s}" for s in STAGES) + ("intersect",)
MB = 1e6


def unit_of(name: str) -> str:
    if name in ("blocking.distinct_ratio", "trace.overhead"):
        return "ratio"
    if name == "intersect.ops_per_call":
        return "ops/call"
    if name.endswith("_s") or name == "intersect.s" or ".party_s." in name:
        return "s"
    if name.endswith("_mb") or name == "mpc.mb" or name.startswith("mpc.mb."):
        return "MB"
    return "count"


def _payload_bytes(payload: dict) -> int:
    total = 0
    for value in payload.values():
        if hasattr(value, "nbytes"):
            total += value.nbytes
        elif all(hasattr(value, part) for part in "abc"):  # a Beaver triple
            total += value.a.nbytes + value.b.nbytes + value.c.nbytes
    return total


def _elements(entries) -> int:
    """Sizes of the shape arguments of trace entries ``(op, *meta)``."""
    total = 0
    for entry in entries:
        for meta in entry[1:]:
            if isinstance(meta, tuple):
                size = 1
                for dim in meta:
                    size *= dim
                total += size
    return total


class _Counters:
    """Totals of one traced linkage."""

    def __init__(self):
        self.ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.stage_trace: list[tuple[str, int, int]] = []
        self.intersect_ops = 0
        self.delivered = 0
        self.peak_inflight = 0

    def add(self, key: str, ns: int):
        self.ns[key] = self.ns.get(key, 0) + ns
        self.calls[key] = self.calls.get(key, 0) + 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (linkage, name, start_ns, end_ns, parent)
        self._open: list[int] = []
        self._linkage = -1
        self._first_span = 0
        self._backend = None
        self._c = _Counters()
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append((self._linkage, name, perf_counter_ns(), 0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int):
        self._open.pop()
        linkage, name, start, _, parent = self.spans[index]
        self.spans[index] = (linkage, name, start, perf_counter_ns(), parent)

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return wrapper

    def _span_ns(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Total time, self time (the duration minus the part its child spans
        cover) and count of each span name in the linkage traced last."""
        spans = self.spans[self._first_span:]
        base = self._first_span
        total = {name: 0 for name in SPAN_NAMES}
        own = dict(total)
        count = dict.fromkeys(SPAN_NAMES, 0)
        for _, name, start, end, parent in spans:
            total[name] += end - start
            own[name] += end - start
            count[name] += 1
            if parent >= base:
                own[spans[parent - base][1]] -= end - start
        return total, own, count

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, key: str, fn, group: str | None = None):
        """Wrapper adding to ``key`` the time of the calls that no other call
        of the same ``group`` encloses."""
        group = group or key
        self._depth.setdefault(group, 0)
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[group] += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[group] -= 1
                if not depth[group]:
                    self._c.add(key, perf_counter_ns() - t0)
        return wrapper

    def _install(self):
        tracer = self

        def make_backend(*args, **kwargs):
            backend = orig_make_backend(*args, **kwargs)
            backend.enable_trace()
            tracer._backend = backend
            return backend
        orig_make_backend = pipeline.make_backend
        self._patch(pipeline, "make_backend", make_backend)

        self._patch(pipeline, "prepare_upload",
                    self._span_wrapper("encode", pipeline.prepare_upload))
        self._patch(pipeline, "optimal_band_plan",
                    self._span_wrapper("band_plan", pipeline.optimal_band_plan))
        self._patch(blocking.MinHasher, "signature",
                    self._timed("minhash", blocking.MinHasher.signature))

        orig_stage = Backend.stage

        @contextmanager
        def stage(backend, name):
            index = tracer._enter(f"stage.{name}")
            first = len(backend.trace)
            try:
                with orig_stage(backend, name):
                    yield backend
            finally:
                tracer._exit(index)
                tracer._c.stage_trace.append((name, first, len(backend.trace)))
        self._patch(Backend, "stage", stage)

        orig_match = pipeline.jaccard_match

        def jaccard_match(mach, *args, **kwargs):
            index = tracer._enter("intersect")
            first = len(mach.b.trace)
            try:
                return orig_match(mach, *args, **kwargs)
            finally:
                tracer._exit(index)
                tracer._c.intersect_ops += len(mach.b.trace) - first
        self._patch(pipeline, "jaccard_match", jaccard_match)

        for cls in (LocalBackend, mpc_backend.MpcBackend):
            for name in BACKEND_PRIMITIVES:
                if name in cls.__dict__:
                    key = f"backend.{name}"
                    self._patch(cls, name, self._timed(key, cls.__dict__[name], "backend"))
        for name, fn in list(vars(machine.Machine).items()):
            if callable(fn) and not name.startswith("_"):
                self._patch(machine.Machine, name, self._timed("machine", fn, "machine"))

        self._patch(mpc_runtime.Network, "pump",
                    self._timed("mpc.pump", mpc_runtime.Network.pump))
        for cls, key in ((mpc_runtime.PartyActor, "party"),
                         (mpc_runtime.DealerActor, "dealer"),
                         (mpc_runtime.Collector, "collector")):
            self._patch(cls, "handle", self._actor_handle(cls.handle, key))

    def _actor_handle(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def handle(actor, env):
            c = tracer._c
            # nothing is delivered between two handle calls, so the bytes in
            # flight peak just before one
            inflight = tracer._backend.net.stats.bytes - c.delivered
            if inflight > c.peak_inflight:
                c.peak_inflight = inflight
            if env.data:
                c.delivered += _payload_bytes(env.payload)
            if key == "dealer" and env.kind == "make_triple":
                c.add("mpc.triples", 0)
            t0 = perf_counter_ns()
            try:
                return fn(actor, env)
            finally:
                ns = perf_counter_ns() - t0
                c.add(f"mpc.{key}", ns)
                if key == "party":
                    c.add(f"mpc.party.{env.tag[0]}", ns)
        return handle

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- one traced linkage -------------------------------------------------------

    @contextmanager
    def linkage(self, linkage: int):
        """Trace the linkage run inside the block."""
        self._linkage = linkage
        self._first_span = len(self.spans)
        self._c = _Counters()
        self._install()
        index = self._enter("linkage")
        try:
            yield self
        finally:
            self._exit(index)
            self._uninstall()
            self._backend = None

    def metrics(self, result, expected) -> dict[str, float]:
        """Per-layer figures of the linkage traced last."""
        c = self._c
        span_s, self_ns, span_count = self._span_ns()
        s = lambda key: c.ns.get(key, 0) / 1e9  # noqa: E731
        m = {
            "blocking.encode_s": span_s["encode"] / 1e9,
            "blocking.band_plan_s": span_s["band_plan"] / 1e9,
            "blocking.minhash_s": s("minhash"),
            "blocking.keys": expected.keys,
            "blocking.shared_keys": expected.shared_keys,
            "blocking.cross_pairs": expected.cross_pairs,
            "blocking.distinct_ratio": (expected.candidates / expected.cross_pairs
                                        if expected.cross_pairs else 0.0),
        }
        for name in STAGES:
            m[f"stage.{name}_s"] = span_s[f"stage.{name}"] / 1e9
        m["pipeline.candidates"] = expected.candidates
        m["pipeline.evaluated"] = result.evaluated_cells
        m["pipeline.matches"] = len(result.matches)

        calls = span_count["intersect"]
        m["intersect.calls"] = calls
        m["intersect.s"] = span_s["intersect"] / 1e9
        m["intersect.ops_per_call"] = c.intersect_ops / calls if calls else 0.0

        by_stage = result.ledger.by_stage()
        by_op = result.ledger.by_op()
        m["machine.ops"] = sum(by_op.values())
        for name in STAGES:
            m[f"machine.ops.{name}"] = by_stage.get(name, 0)
        for op in LEDGER_OPS:
            m[f"machine.ops.{op}"] = by_op.get(op, 0)
        m["machine.elements"] = _elements(result.trace)
        for name, first, last in c.stage_trace:
            m[f"machine.elements.{name}"] = _elements(result.trace[first:last])
        backend_ns = sum(ns for key, ns in c.ns.items() if key.startswith("backend."))
        m["backends.s"] = backend_ns / 1e9
        m["machine.overhead_s"] = (c.ns.get("machine", 0) - backend_ns) / 1e9

        stats = result.round_stats
        per_stage = stats.per_stage if stats else {}
        per_op = stats.per_op if stats else {}
        m["mpc.rounds"] = stats.rounds if stats else 0
        m["mpc.messages"] = stats.messages if stats else 0
        m["mpc.mb"] = stats.bytes / MB if stats else 0.0
        for name in STAGES:
            bucket = per_stage.get(name, {})
            m[f"mpc.rounds.{name}"] = bucket.get("rounds", 0)
            m[f"mpc.messages.{name}"] = bucket.get("messages", 0)
            m[f"mpc.mb.{name}"] = bucket.get("bytes", 0) / MB
        for op in MPC_OPS:
            bucket = per_op.get(op, {})
            m[f"mpc.rounds.{op}"] = bucket.get("rounds", 0)
            m[f"mpc.mb.{op}"] = bucket.get("bytes", 0) / MB
        m["mpc.pump_s"] = s("mpc.pump")
        m["mpc.party_s"] = s("mpc.party")
        for name in STAGES:
            m[f"mpc.party_s.{name}"] = s(f"mpc.party.{name}")
        m["mpc.dealer_s"] = s("mpc.dealer")
        m["mpc.triples"] = c.calls.get("mpc.triples", 0)
        m["mpc.peak_inflight_mb"] = c.peak_inflight / MB

        m["approx.reciprocals"] = c.calls.get("backend.masked_reciprocal", 0)
        m["approx.roundings"] = c.calls.get("backend.masked_round", 0)
        m["approx.helper_opens"] = sum(
            1 for o in result.transcript if o.role == "P3" and o.kind == "masked_value")

        for name, ns in self_ns.items():
            m[f"self.{name}_s"] = ns / 1e9
        return m
