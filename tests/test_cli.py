"""Command suite: end-to-end runs, reproducibility, and flag handling."""

import argparse
import os
import re
from pathlib import Path

import pytest

from oblivlink.cli import build_parser, main


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_generate_block_link_eval_round_trip(tmp_path):
    data = str(tmp_path / "data")
    blocks = str(tmp_path / "blocks")
    out = str(tmp_path / "link")
    ev = str(tmp_path / "eval")
    assert main(["generate", "--out", data, "--size", "60", "--seed", "0"]) == 0
    assert main(["block", "--data", data, "--out", blocks, "--t-block", "0.5",
                 "--seed", "0"]) == 0
    assert main(["link", "--blocks", blocks, "--out", out, "--backend", "sim",
                 "--isect", "ve", "--t-jaccard", "1/2", "--seed", "0"]) == 0
    assert main(["eval", "--data", data, "--matches", os.path.join(out, "matches.csv"),
                 "--out", ev, "--t-block", "0.5", "--seed", "0", "--sweep"]) == 0
    for f in ("d1.jsonl", "d2.jsonl", "gold.csv", "run.config"):
        assert os.path.exists(os.path.join(data, f))
    for party in ("p1", "p2"):
        for f in ("records.enc", "blocks.enc", "manifest", "idmap.csv"):
            assert os.path.exists(os.path.join(blocks, party, f))
    assert os.path.exists(os.path.join(out, "matches.csv"))
    assert os.path.exists(os.path.join(out, "ledger.csv"))
    assert os.path.exists(os.path.join(ev, "metrics.csv"))
    assert os.path.exists(os.path.join(ev, "sweep.csv"))


def test_link_outputs_byte_identical_across_backends(tmp_path):
    data = str(tmp_path / "data")
    blocks = str(tmp_path / "blocks")
    main(["generate", "--out", data, "--size", "60", "--seed", "0"])
    main(["block", "--data", data, "--out", blocks, "--seed", "0"])
    results = {}
    for backend in ("clear", "sim", "mpc"):
        out = str(tmp_path / backend)
        assert main(["link", "--blocks", blocks, "--out", out, "--backend", backend,
                     "--t-jaccard", "1/2", "--rho", "0.05", "--seed", "0"]) == 0
        results[backend] = _read(os.path.join(out, "matches.csv"))
    assert results["clear"] == results["sim"] == results["mpc"]
    assert results["clear"]  # non-empty


def test_rerun_is_byte_identical(tmp_path):
    data = str(tmp_path / "data")
    blocks = str(tmp_path / "blocks")
    main(["generate", "--out", data, "--size", "60", "--seed", "3"])
    main(["block", "--data", data, "--out", blocks, "--seed", "3"])
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (first, second):
        main(["link", "--blocks", blocks, "--out", out, "--backend", "sim",
              "--isect", "ve", "--seed", "3"])
    for name in ("matches.csv", "ledger.csv", "run.config"):
        assert _read(os.path.join(first, name)) == _read(os.path.join(second, name))
    assert _read(os.path.join(data, "d1.jsonl"))  # corpus written


def test_run_config_fed_back_keeps_the_strategy(tmp_path):
    data = str(tmp_path / "data")
    blocks = str(tmp_path / "blocks")
    main(["generate", "--out", data, "--size", "40", "--seed", "0"])
    main(["block", "--data", data, "--out", blocks, "--seed", "0"])
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["link", "--blocks", blocks, "--out", first, "--backend", "sim",
                 "--isect", "ve", "--seed", "0"]) == 0
    assert main(["link", "--blocks", blocks, "--out", second,
                 "--config", os.path.join(first, "run.config")]) == 0
    for name in ("run.config", "ledger.csv", "matches.csv"):
        assert _read(os.path.join(first, name)) == _read(os.path.join(second, name))
    assert b"strategy_resolved=ve" in _read(os.path.join(second, "run.config"))


def test_unknown_strategy_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["link", "--blocks", str(tmp_path), "--out", str(tmp_path / "o"),
              "--isect", "bogus"])
    assert excinfo.value.code != 0


def test_config_file_supplies_defaults_flags_override(tmp_path):
    data = str(tmp_path / "data")
    main(["generate", "--out", data, "--size", "40", "--seed", "1"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_block=0.8\nseed=1\nbackend=sim\n")
    blocks = str(tmp_path / "blocks")
    assert main(["block", "--data", data, "--out", blocks, "--config", str(cfg)]) == 0
    with open(os.path.join(blocks, "run.config")) as fh:
        values = dict(line.strip().split("=", 1) for line in fh)
    assert values["t_block"] == "0.8"
    blocks2 = str(tmp_path / "blocks2")
    assert main(["block", "--data", data, "--out", blocks2, "--config", str(cfg),
                 "--t-block", "0.3"]) == 0
    with open(os.path.join(blocks2, "run.config")) as fh:
        values = dict(line.strip().split("=", 1) for line in fh)
    assert values["t_block"] == "0.3"


def test_config_with_the_retired_jobs_key_still_loads(tmp_path):
    # run.config files written while bench had a --jobs flag hold jobs=N
    data, blocks, out = (str(tmp_path / d) for d in ("data", "blocks", "link"))
    main(["generate", "--out", data, "--size", "40", "--seed", "0"])
    main(["block", "--data", data, "--out", blocks, "--seed", "0"])
    cfg = tmp_path / "old.config"
    cfg.write_text("backend=sim\nstrategy=ve\nseed=0\njobs=4\n")
    assert main(["link", "--blocks", blocks, "--out", out, "--config", str(cfg)]) == 0
    with open(os.path.join(out, "run.config")) as fh:
        values = dict(line.strip().split("=", 1) for line in fh)
    assert values["backend"] == "sim" and values["strategy"] == "ve"
    assert "jobs" not in values


def test_bench_candidates_decrease_with_threshold(tmp_path):
    data = str(tmp_path / "data")
    out = str(tmp_path / "bench")
    main(["generate", "--out", data, "--size", "60", "--seed", "0"])
    assert main(["bench", "--data", data, "--out", out, "--backends", "sim",
                 "--strategies", "ve", "--t-blocks", "0.2,0.5,0.8",
                 "--seed", "0"]) == 0
    rows = {}
    with open(os.path.join(out, "bench.csv")) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            row = dict(zip(header, line.strip().split(",")))
            rows[float(row["t_block"])] = int(row["candidates"])
    assert rows[0.2] > rows[0.5] > rows[0.8]


def test_readme_flags_are_the_common_flags():
    # README's Flags paragraph documents every flag all commands share
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Flags:"))
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph))
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices.values()
    common = set.intersection(*({o for a in p._actions for o in a.option_strings}
                                for p in commands)) - {"-h", "--help"}
    assert documented == common
