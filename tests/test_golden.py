"""The committed golden outputs of ``tests/golden`` against a fresh run of
their regeneration script: every file byte for byte, with a unified diff of
each one that moved, and by name each trace or transcript digest that moved.
An output changed on purpose is committed by rerunning
``PYTHONPATH=src python tests/golden/regenerate.py``."""

import difflib
import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def _regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root: Path) -> dict:
    # every output: the run directories, blocks/, bench.csv and the digests
    return {p.relative_to(root).as_posix(): p.read_text()
            for p in root.rglob("*")
            if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts}


def _digests(text: str) -> dict:
    return {name: digest for digest, _, name in
            (line.partition("  ") for line in text.splitlines())}


def test_golden_outputs_regenerate_byte_identical(tmp_path):
    regenerate = _regenerate()
    regenerate.regenerate(str(tmp_path))
    want, got = _files(GOLDEN), _files(tmp_path)
    runs = {f"{kind}-{profile}-{strategy}" for kind, profile, strategy in regenerate.runs()}
    assert {name.split("/")[0] for name in want} == \
        runs | {"blocks", "bench.csv", regenerate.DIGESTS}
    diff = []
    for name in sorted(want.keys() | got.keys()):
        if name == regenerate.DIGESTS:
            continue
        if want.get(name) != got.get(name):
            diff += difflib.unified_diff(want.get(name, "").splitlines(keepends=True),
                                         got.get(name, "").splitlines(keepends=True),
                                         f"golden/{name}", f"regenerated/{name}")
    old, new = (_digests(files.get(regenerate.DIGESTS, "")) for files in (want, got))
    moved = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    if moved:
        diff.append("trace and transcript digests moved: " + ", ".join(moved) + "\n")
    if diff:
        pytest.fail("golden outputs moved:\n" + "".join(diff), pytrace=False)
