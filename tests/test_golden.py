"""The committed golden outputs of ``tests/golden`` against a fresh run of
their regeneration script: every file byte for byte, with a unified diff of
each one that moved.  An output changed on purpose is committed by
rerunning ``PYTHONPATH=src python tests/golden/regenerate.py``."""

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
    # one directory per run, named backend-profile-strategy
    return {p.relative_to(root).as_posix(): p.read_text()
            for p in root.glob("*-*-*/*") if p.is_file()}


def test_golden_outputs_regenerate_byte_identical(tmp_path):
    regenerate = _regenerate()
    regenerate.regenerate(str(tmp_path))
    want, got = _files(GOLDEN), _files(tmp_path)
    runs = {f"{kind}-{profile}-{strategy}" for kind, profile, strategy in regenerate.runs()}
    assert {name.split("/")[0] for name in want} == runs
    diff = []
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            diff += difflib.unified_diff(want.get(name, "").splitlines(keepends=True),
                                         got.get(name, "").splitlines(keepends=True),
                                         f"golden/{name}", f"regenerated/{name}")
    if diff:
        pytest.fail("golden outputs moved:\n" + "".join(diff), pytrace=False)
