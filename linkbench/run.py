"""Linkage benchmark: wall time, memory and per-layer costs of ``run_pper``.

Usage (from the repository root)::

    python3 linkbench/run.py --workload clear-n800 --seed 0 --seconds 25 --trace 0

A run generates its corpora from ``--seed``, then links them one after the
other, in whole rounds over the same corpora, and stops at the round
boundary nearest to ``--seconds``.  Every linkage's matches are checked against the expectation that
``check.py`` computes apart from the pipeline.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` each round links every corpus once untraced and once traced,
the metrics are the per-layer ones, and the spans are written to
``linkbench/out/``.  The package is imported from ``src/`` of the checkout
the script sits in; nothing is installed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from check import expected_linkage, linkage_faults

# One process, no added threads: keep BLAS from starting a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    size: int
    pool: int  # corpora linked per round
    config: dict = field(default_factory=dict)


# t_jaccard 397/796 lies strictly between 99/199 and 1/2, so no pair whose
# bigram union is under 200 can score exactly the threshold: the approximate
# profile decides a tie by rounding error.  At n=400 its private lookups in
# merge_dedup snap some block ids to a neighbouring id, so simd runs at n=200.
WORKLOADS = {
    "clear-n800": Workload(800, 4, {"backend": "clear", "rho": 0.05}),
    "mpc-n100": Workload(100, 12, {"backend": "mpc", "rho": 0.05}),
    "simd-n200-noisy": Workload(200, 12, {"backend": "sim", "profile": "simd", "rho": 0.25,
                                         "t_jaccard": Fraction(397, 796)}),
}
COMMON = {"t_block": 0.5, "t_jaccard": Fraction(1, 2), "strategy": "auto"}


def corpus_seeds(seed: int, pool: int) -> list[int]:
    return [seed * pool + k for k in range(pool)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Linker:
    """Runs and checks linkages of a fixed pool of corpora."""

    def __init__(self, corpora, config, run_pper, prepare_upload):
        self.corpora = corpora
        self.config = config
        self.run_pper = run_pper
        self.prepare_upload = prepare_upload
        self.expected = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def expectation(self, k: int):
        if k not in self.expected:
            d1, d2, _ = self.corpora[k]
            index1 = self.prepare_upload(d1, self.config).index
            index2 = self.prepare_upload(d2, self.config).index
            self.expected[k] = expected_linkage(d1, d2, index1, index2,
                                                self.config.t_jaccard)
        return self.expected[k]

    def link(self, k: int):
        """One timed, checked linkage: (seconds, result), or None when it
        raised.  A wrong result is counted and still timed."""
        d1, d2, _ = self.corpora[k]
        self.attempted += 1
        # The mpc backend's actors form reference cycles; free the previous
        # linkage's state now so that neither its memory nor its collection
        # lands in this linkage.
        gc.collect()
        start = time.perf_counter()
        try:
            result = self.run_pper(d1, d2, self.config)
        except Exception:  # a failed linkage is counted; the run carries on
            traceback.print_exc()
            self.failed += 1
            return None
        seconds = time.perf_counter() - start
        faults = linkage_faults(result, self.expectation(k))
        if faults:
            print(f"corpus {k}: " + "; ".join(faults), file=sys.stderr)
            self.failed += 1
            self.wrong += 1
        return seconds, result


def run(args) -> dict:
    if not (SRC / "oblivlink").is_dir():
        raise SystemExit(f"package source not found at {SRC}/oblivlink")
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from oblivlink import PipelineConfig, generate_dataset, prepare_upload, run_pper
    import_s = time.perf_counter() - t0

    seeds = corpus_seeds(args.seed, wl.pool)
    generate_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpora = [generate_dataset(s, wl.size, split=0.2) for s in seeds]
        generate_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(generate_s)

    config = PipelineConfig(**{**COMMON, **wl.config})
    linker = Linker(corpora, config, run_pper, prepare_upload)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    link_s, traced_s, layers = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for k in range(len(corpora)):
            done = linker.link(k)
            if done:
                link_s.append(done[0])
            if tracer is None:
                continue
            with tracer.linkage(len(traced_s)):
                done = linker.link(k)
            if done:
                traced_s.append(done[0])
                layers.append(tracer.metrics(done[1], linker.expectation(k)))
        rounds += 1
        elapsed = time.perf_counter() - start
        # stop at the round boundary nearest to --seconds
        if elapsed + elapsed / rounds / 2 >= args.seconds:
            break

    if not link_s or (tracer is not None and not layers):
        raise SystemExit(f"no linkage of {args.workload} completed")
    if tracer is None:
        metrics = {
            "link_s": (statistics.median(link_s), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = per_layer(layers, link_s, traced_s)
        write_spans(args, tracer, metrics)
    return {
        "correct": linker.wrong == 0,
        "attempted": linker.attempted,
        "failed": linker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def per_layer(layers, link_s, traced_s) -> dict:
    """Median of each per-layer figure over the traced linkages, and the
    tracing overhead against the untraced linkages of the same run."""
    from tracing import unit_of
    metrics = {name: (statistics.median(x[name] for x in layers), unit_of(name))
               for name in layers[0]}
    traced, untraced = statistics.median(traced_s), statistics.median(link_s)
    metrics["trace.link_s"] = (traced, "s")
    metrics["trace.overhead"] = (traced / untraced - 1.0, "ratio")
    return metrics


def write_spans(args, tracer, metrics):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["linkage", "name", "start_ns", "end_ns", "parent"],
            "spans": tracer.spans,
            "metrics": {name: value for name, (value, _) in metrics.items()},
        }, fh)
    print(f"spans -> {path}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
