"""Command suite: end-to-end runs, reproducibility, and flag handling."""

import argparse
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

from oblivlink import PipelineConfig
from oblivlink import cli
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
        for f in ("records.enc", "digests.enc", "manifest", "idmap.csv"):
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
    # run.config files written while bench had a --jobs flag hold jobs=N,
    # and those written while link had a --noise-source flag
    # noise_source=host or owner
    data, blocks, out = (str(tmp_path / d) for d in ("data", "blocks", "link"))
    main(["generate", "--out", data, "--size", "40", "--seed", "0"])
    main(["block", "--data", data, "--out", blocks, "--seed", "0"])
    cfg = tmp_path / "old.config"
    cfg.write_text("backend=sim\nstrategy=ve\nseed=0\njobs=4\nnoise_source=owner\n")
    assert main(["link", "--blocks", blocks, "--out", out, "--config", str(cfg)]) == 0
    with open(os.path.join(out, "run.config")) as fh:
        values = dict(line.strip().split("=", 1) for line in fh)
    assert values["backend"] == "sim" and values["strategy"] == "ve"
    assert "jobs" not in values and "noise_source" not in values


def test_every_commands_run_config_loads_back(tmp_path):
    # each command's own flags, then the common flags that its run.config
    # supplies on the second run
    data, blocks = str(tmp_path / "data"), str(tmp_path / "blocks")
    runs = {
        "generate": (["--out", data, "--size", "40"], ["--seed", "2"]),
        "block": (["--data", data, "--out", blocks], ["--seed", "2", "--pack", "4"]),
        "link": (["--blocks", blocks, "--out", str(tmp_path / "link")],
                 ["--seed", "2", "--pack", "4", "--isect", "ve", "--rho", "0.1"]),
        "bench": (["--data", data, "--out", str(tmp_path / "bench"), "--backends", "clear",
                   "--t-blocks", "0.5"], ["--seed", "2"]),
        "eval": (["--data", data, "--out", str(tmp_path / "eval")], ["--seed", "2"]),
    }
    for command, (own, common) in runs.items():
        assert main([command] + own + common) == 0, command
        out = own[own.index("--out") + 1]
        again = [out + "-again" if arg == out else arg for arg in own]
        assert main([command] + again + ["--config", os.path.join(out, "run.config")]) == 0, \
            command
        assert _read(os.path.join(out, "run.config")) == \
            _read(os.path.join(out + "-again", "run.config")), command


def test_config_with_an_unknown_key_is_refused(tmp_path, capsys):
    # a misspelt rho once linked with the default 0.05
    data, blocks = str(tmp_path / "data"), str(tmp_path / "blocks")
    main(["generate", "--out", data, "--size", "40", "--seed", "0"])
    main(["block", "--data", data, "--out", blocks, "--seed", "0"])
    capsys.readouterr()
    cfg = tmp_path / "typo.config"
    cfg.write_text("backend=sim\nrh0=0.5\n")
    out = tmp_path / "link"
    assert main(["link", "--blocks", blocks, "--out", str(out), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config file {cfg} holds unknown key 'rh0'\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def blocks_60(tmp_path_factory):
    """generate --size 60 --seed 0, then block: the blocks directory."""
    root = tmp_path_factory.mktemp("corpus")
    assert main(["generate", "--out", str(root / "data"), "--size", "60", "--seed", "0"]) == 0
    assert main(["block", "--data", str(root / "data"), "--out", str(root / "blocks"),
                 "--seed", "0"]) == 0
    return root / "blocks"


WEIGHTS = "bad config: band plan weights must be finite, non-negative and not both 0"
# (flags, config file lines, what the error line says); each once printed a
# traceback, or failed only after upload and merge had run
BAD_CONFIG_VALUES = [
    (["--t-jaccard", "3/2"], "", "bad config: jaccard threshold must lie strictly between"),
    (["--t-jaccard", "abc"], "", "config value t_jaccard=abc is not a Fraction"),
    (["--t-block", "1.5"], "", "bad config: blocking threshold must lie strictly between"),
    (["--rho", "2"], "", "bad config: noise rate must lie in [0, 1]"),
    (["--num-perm", "0"], "", "bad config: num_perm must be at least 1"),
    ([], "rho=abc", "config value rho=abc is not a float"),
    ([], "backend=foo", "bad config: unknown backend kind 'foo'"),
    ([], "backend=sim\nprofile=x", "bad config: unknown profile 'x'"),
    ([], "strategy=foo", "bad config: 'foo' is not a valid Strategy"),
    ([], "pack=2", "bad config: packing factor must be one of (1, 4), not 2"),
    # float64 slots compared pack-4 containers that differ in their low bits
    # equal, and linked extra pairs
    (["--pack", "4"], "backend=sim\nprofile=simd",
     "pack 4 containers of 64 bits do not fit the 53 bits that sim/simd holds exactly"),
    # a NaN, infinite or negative weight, or two zero ones, once gave a 1 x 1
    # or a 128 x 1 band plan that block wrote and link linked on
    (["--fp-weight", "nan"], "", WEIGHTS),
    (["--fp-weight", "inf"], "", WEIGHTS),
    ([], "fn_weight=-1", WEIGHTS),
    (["--fp-weight", "0", "--fn-weight", "0"], "", WEIGHTS),
    # a negative seed once failed with numpy's "expected non-negative integer"
    (["--seed", "-1"], "", "bad config: seed must be at least 0, not -1"),
    ([], "seed=-3", "bad config: seed must be at least 0, not -3"),
    # an unsupported strategy once failed only after the owners had encoded
    (["--backend", "mpc", "--isect", "so"], "", "strategy so unsupported on mpc/3party-dealer"),
    (["--isect", "mj"], "backend=sim\nprofile=simd", "strategy mj unsupported on sim/simd"),
]


@pytest.mark.parametrize("command", ["link", "block", "eval"])
@pytest.mark.parametrize("flags, lines, message", BAD_CONFIG_VALUES)
def test_bad_config_values_are_refused_before_any_work(command, flags, lines, message,
                                                       blocks_60, tmp_path, capsys):
    cfg = tmp_path / "bad.config"
    cfg.write_text(lines + "\n")
    out = tmp_path / command
    source = (["--blocks", str(blocks_60)] if command == "link"
              else ["--data", str(blocks_60.parent / "data")])
    assert main([command, *source, "--out", str(out), "--config", str(cfg)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--t-blocks", "0.5,1.5"], "bad config: blocking threshold must lie strictly between"),
    (["--backends", "clear,sim", "--profile", "simd", "--pack", "4"],
     "pack 4 containers of 64 bits do not fit"),
    (["--fp-weight", "-1"], WEIGHTS),
    (["--seed", "-1"], "bad config: seed must be at least 0, not -1"),
    # the clear cells once linked, after six owner encodings, before the
    # mpc cell was refused
    (["--backends", "clear,mpc", "--strategies", "so"],
     "strategy so unsupported on mpc/3party-dealer"),
    (["--profile", "simd", "--strategies", "mj"], "strategy mj unsupported on sim/simd"),
])
def test_bench_refuses_a_bad_grid_config_before_any_work(flags, message, blocks_60,
                                                         tmp_path, capsys, monkeypatch):
    # a bad grid threshold once printed a traceback from the owners' encoding
    encoded = []
    monkeypatch.setattr(cli, "prepare_upload", lambda *args: encoded.append(args))
    out = tmp_path / "bench"
    assert main(["bench", "--data", str(blocks_60.parent / "data"), "--out", str(out)]
                + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert not out.exists() and not encoded


def test_link_refuses_a_bad_config_before_reading_the_party_dirs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["link", "--blocks", str(tmp_path / "missing"), "--out", str(out),
                 "--backend", "mpc", "--isect", "mj"]) == 1
    assert capsys.readouterr().err == "error: strategy mj unsupported on mpc/3party-dealer\n"
    assert not out.exists()


def _corpus_without(blocks_60, tmp_path, missing, d1_line=None):
    """A copy of the 60-record corpus without the files in ``missing``, its
    d1.jsonl cut to one line ``d1_line`` when that is given."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("d1.jsonl", "d2.jsonl", "gold.csv"):
        if name not in missing:
            (data / name).write_bytes((blocks_60.parent / "data" / name).read_bytes())
    if d1_line is not None:
        (data / "d1.jsonl").write_text(d1_line + "\n")
    return str(data)


# (command and flags, files the corpus lacks, its one d1 line, what the
# error line says); each once printed a traceback, or, for generate, quietly
# wrote 0+0 or 10+0 records
BAD_INPUTS = [
    (["link", "--config", "{tmp}/missing.config"], (), None,
     "missing.config: No such file or directory"),
    (["block"], ("d1.jsonl",), None, "d1.jsonl: No such file or directory"),
    (["eval"], ("d2.jsonl",), None, "d2.jsonl: No such file or directory"),
    (["bench"], ("d1.jsonl", "d2.jsonl"), None, "d1.jsonl: No such file or directory"),
    (["eval"], ("gold.csv",), None, "gold.csv: No such file or directory"),
    (["block"], (), "not json", "d1.jsonl line 1 is not a JSON object with a string id"),
    (["eval"], (), '["a", {}]', "d1.jsonl line 1 is not a JSON object with a string id"),
    (["bench"], (), '{"id": "a"}', "d1.jsonl line 1 is not a JSON object with a string id"),
    (["block"], (), '{"fields": {}}', "d1.jsonl line 1 is not a JSON object with a string id"),
    (["eval", "--matches", "{tmp}/missing.csv"], (), None,
     "missing.csv: No such file or directory"),
    (["eval", "--matches", "{tmp}/one-id.csv"], (), None,
     "one-id.csv holds a line that is not an a,b pair: 'rec-000-org'"),
    (["bench", "--t-blocks", "abc"], (), None,
     "--t-blocks abc is not a comma-separated list of numbers"),
    (["generate", "--size", "-5"], (), None, "--size must be at least 0, not -5"),
    (["generate", "--split", "1.5"], (), None, "--split must lie in [0, 1], not 1.5"),
    (["generate", "--seed", "-1"], (), None, "bad config: seed must be at least 0, not -1"),
]


@pytest.mark.parametrize("argv, missing, d1_line, message", BAD_INPUTS)
def test_bad_inputs_are_refused_with_one_line(argv, missing, d1_line, message, blocks_60,
                                              tmp_path, capsys):
    (tmp_path / "one-id.csv").write_text("rec-000-org\n")
    data = _corpus_without(blocks_60, tmp_path, missing, d1_line)
    command, *flags = [a.format(tmp=tmp_path) for a in argv]
    source = {"link": ["--blocks", str(blocks_60)], "generate": []}.get(
        command, ["--data", data])
    out = tmp_path / "out"
    assert main([command, *source, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert not out.exists()


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


def test_each_config_field_is_set_by_one_common_flag():
    # the flags that every command shares, bar --config and --out, are the
    # config surface: each sets one field (the strategy's flag keeps its
    # historical name), and one flag sets each field
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    common = set.intersection(*({a.dest for a in p._actions} for p in commands.values()))
    flags = [a.dest for a in commands["link"]._actions
             if a.dest in common - {"config", "out", "help"}]
    set_fields = ["strategy" if dest == "isect" else dest for dest in flags]
    assert sorted(set_fields) == sorted(f.name for f in fields(PipelineConfig))
