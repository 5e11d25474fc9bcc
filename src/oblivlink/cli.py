"""Operator command suite: generate, block, link, bench, eval.

Every command reads/writes only its declared files and drops a flat
``run.config`` (key=value) next to its outputs so any run can be reproduced
byte for byte.  A config file supplies defaults; command-line flags override
file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import fields

from .blocking import MinHasher, optimal_band_plan
from .errors import OblivLinkError, StageError
from .evalkit import (GoldStandard, Record, compute_metrics, generate_dataset,
                      performance_sweep, plain_blocked_pairs)
from .pipeline import (PipelineConfig, prepare_upload, read_party_dir,
                       run_pper_from_uploads, write_party_dir)

_BACKENDS = ["clear", "sim", "mpc"]
_PROFILES = ["generic", "simd", "sharemind"]
_STRATEGIES = ["pj", "vr", "ve", "so", "mj", "auto"]


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _build_config(args) -> PipelineConfig:
    config = PipelineConfig()
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag_name, key, cast, current):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return cast(flag)
        if key in file_values:
            return cast(file_values[key])
        return current

    types = typing.get_type_hints(PipelineConfig)
    for f in fields(PipelineConfig):
        # the strategy's flag keeps its historical name; its file key is the
        # field name that run.config writes
        flag_name = "isect" if f.name == "strategy" else f.name
        setattr(config, f.name,
                pick(flag_name, f.name, types[f.name], getattr(config, f.name)))
    return config


def _write_run_config(out_dir: str, config: PipelineConfig, extra=()):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.config"), "w") as fh:
        for key, value in list(config.flat_items()) + list(extra):
            fh.write(f"{key}={value}\n")


def _load_records(path: str) -> list[Record]:
    records = []
    with open(path) as fh:
        for line in fh:
            item = json.loads(line)
            records.append(Record(item["id"], item["fields"], entity=-1))
    return records


def _load_pairs(path: str) -> set:
    pairs = set()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                a, b = line.split(",", 1)
                pairs.add((a, b))
    return pairs


def _write_pairs(path: str, pairs):
    with open(path, "w") as fh:
        for a, b in sorted(pairs):
            fh.write(f"{a},{b}\n")


# -- commands -------------------------------------------------------------


def cmd_generate(args) -> int:
    config = _build_config(args)
    d1, d2, gold = generate_dataset(seed=config.seed, size=args.size,
                                    split=args.split)
    os.makedirs(args.out, exist_ok=True)
    for name, records in (("d1.jsonl", d1), ("d2.jsonl", d2)):
        with open(os.path.join(args.out, name), "w") as fh:
            for r in records:
                fh.write(r.to_json() + "\n")
    _write_pairs(os.path.join(args.out, "gold.csv"), gold.pairs)
    _write_run_config(args.out, config,
                      extra=[("size", args.size), ("split", args.split)])
    print(f"generated {len(d1)}+{len(d2)} records, {len(gold)} true pairs -> {args.out}")
    return 0


def cmd_block(args) -> int:
    config = _build_config(args)
    d1 = _load_records(os.path.join(args.data, "d1.jsonl"))
    d2 = _load_records(os.path.join(args.data, "d2.jsonl"))
    for party, records in (("p1", d1), ("p2", d2)):
        upload = prepare_upload(records, config)
        write_party_dir(os.path.join(args.out, party), upload)
    _write_run_config(args.out, config)
    plan = optimal_band_plan(config.t_block, config.num_perm,
                             config.fp_weight, config.fn_weight)
    print(f"blocked with {plan.bands} bands x {plan.rows} rows -> {args.out}")
    return 0


def cmd_link(args) -> int:
    config = _build_config(args)
    u1 = read_party_dir(os.path.join(args.blocks, "p1"))
    u2 = read_party_dir(os.path.join(args.blocks, "p2"))
    result = run_pper_from_uploads(u1, u2, config)
    os.makedirs(args.out, exist_ok=True)
    _write_pairs(os.path.join(args.out, "matches.csv"), result.matches)
    with open(os.path.join(args.out, "ledger.csv"), "w") as fh:
        fh.write(result.ledger.to_csv())
    if result.round_stats is not None:
        with open(os.path.join(args.out, "rounds.csv"), "w") as fh:
            fh.write(result.round_stats.to_csv())
    _write_run_config(args.out, config,
                      extra=[("strategy_resolved", result.strategy.value),
                             ("obfu_count", result.obfu_count),
                             ("evaluated_cells", result.evaluated_cells)])
    print(f"{len(result.matches)} matches via {result.strategy.value} "
          f"on {config.backend}/{config.profile} -> {args.out}")
    return 0


def _bench_cell(u1, u2, base: PipelineConfig, backend: str, profile: str,
                strategy: str, t_block: float):
    config = PipelineConfig(**{**base.__dict__, "backend": backend,
                               "profile": profile, "strategy": strategy,
                               "t_block": t_block, "rho": 0.0})
    result = run_pper_from_uploads(u1, u2, config)
    row = {
        "backend": backend, "profile": profile, "strategy": result.strategy.value,
        "t_block": t_block, "candidates": result.obfu_count,
        "evaluated": result.evaluated_cells, "matches": len(result.matches),
        "ops_total": int(result.ledger.total()),
        "rounds": result.round_stats.rounds if result.round_stats else 0,
    }
    return row


def cmd_bench(args) -> int:
    config = _build_config(args)
    d1 = _load_records(os.path.join(args.data, "d1.jsonl"))
    d2 = _load_records(os.path.join(args.data, "d2.jsonl"))
    thresholds = [float(t) for t in args.t_blocks.split(",")]
    backends = args.backends.split(",")
    strategies = args.strategies.split(",")

    uploads: dict[float, tuple] = {}
    for t in thresholds:
        cfg_t = PipelineConfig(**{**config.__dict__, "t_block": t})
        uploads[t] = (prepare_upload(d1, cfg_t), prepare_upload(d2, cfg_t))
    rows = []
    for backend in backends:
        profile = config.profile if backend != "clear" else "generic"
        for strategy in strategies:
            for t in thresholds:
                rows.append(_bench_cell(*uploads[t], config, backend, profile, strategy, t))

    os.makedirs(args.out, exist_ok=True)
    header = ["backend", "profile", "strategy", "t_block", "candidates",
              "evaluated", "matches", "ops_total", "rounds"]
    with open(os.path.join(args.out, "bench.csv"), "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(row[k]) for k in header) + "\n")
    _write_run_config(args.out, config,
                      extra=[("grid_backends", args.backends),
                             ("grid_strategies", args.strategies),
                             ("grid_t_blocks", args.t_blocks)])
    print(f"{len(rows)} bench rows -> {args.out}/bench.csv")
    return 0


def cmd_eval(args) -> int:
    config = _build_config(args)
    d1 = _load_records(os.path.join(args.data, "d1.jsonl"))
    d2 = _load_records(os.path.join(args.data, "d2.jsonl"))
    gold = GoldStandard(frozenset(_load_pairs(os.path.join(args.data, "gold.csv"))))
    os.makedirs(args.out, exist_ok=True)

    if args.sweep:
        rows = performance_sweep(d1, d2, gold, num_perm=config.num_perm,
                                 minhash_seed=config.seed)
        with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
            fh.write("threshold,bands,rows," + rows[0]["report"].CSV_HEADER + "\n")
            for row in rows:
                fh.write(f"{row['threshold']},{row['bands']},{row['rows']},"
                         f"{row['report'].csv_row()}\n")
        print(f"sweep over {len(rows)} thresholds -> {args.out}/sweep.csv")

    matched = _load_pairs(args.matches) if args.matches else set()
    hasher = MinHasher(config.num_perm, config.seed)
    plan = optimal_band_plan(config.t_block, config.num_perm,
                             config.fp_weight, config.fn_weight)
    blocked = plain_blocked_pairs(d1, d2, plan, hasher)
    report = compute_metrics(gold, blocked, matched, len(d1) * len(d2))
    with open(os.path.join(args.out, "metrics.csv"), "w") as fh:
        fh.write(report.CSV_HEADER + "\n" + report.csv_row() + "\n")
    _write_run_config(args.out, config)
    print(f"PC={report.pairs_completeness:.4f} RR={report.reduction_ratio:.4f} "
          f"precision={report.precision:.4f} recall={report.recall:.4f} "
          f"-> {args.out}/metrics.csv")
    return 0


# -- parser ---------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--backend", choices=_BACKENDS)
    parser.add_argument("--profile", choices=_PROFILES)
    parser.add_argument("--isect", choices=_STRATEGIES)
    parser.add_argument("--t-jaccard", dest="t_jaccard", metavar="P/Q",
                        help="jaccard threshold as an exact rational, e.g. 1/2")
    parser.add_argument("--t-block", dest="t_block", type=float)
    parser.add_argument("--num-perm", dest="num_perm", type=int)
    parser.add_argument("--fp-weight", dest="fp_weight", type=float)
    parser.add_argument("--fn-weight", dest="fn_weight", type=float)
    parser.add_argument("--pack", type=int, choices=(1, 4))
    parser.add_argument("--rho", type=float)
    parser.add_argument("--noise-source", dest="noise_source", choices=("host", "owner"))
    parser.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oblivlink",
        description="privacy-preserving entity resolution over an oblivious machine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a corpus with gold standard")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--split", type=float, default=0.2)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("block", help="encode records and build per-party blocks")
    p.add_argument("--data", required=True, help="corpus directory from generate")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("link", help="run private linkage over party uploads")
    p.add_argument("--blocks", required=True, help="directory from block")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("bench", help="cost grid across strategies/backends/thresholds")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backends", default="clear,sim")
    p.add_argument("--strategies", default="auto")
    p.add_argument("--t-blocks", dest="t_blocks", default="0.2,0.5,0.8")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", help="blocking and matching metrics vs the gold standard")
    p.add_argument("--data", required=True)
    p.add_argument("--matches", help="matches.csv from link")
    p.add_argument("--out", required=True)
    p.add_argument("--sweep", action="store_true", help="emit threshold sweep table")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OblivLinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
