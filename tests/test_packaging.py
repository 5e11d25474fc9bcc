"""The package imports no third-party module that an install lacks, and
loads nothing at import that a linkage does not need."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oblivlink"


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    # scipy and hypothesis are test extras: a src import of either would
    # break a numpy-only install, and import-time work shows in setup time
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    third_party = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _top_level_imports(path) - set(sys.stdlib_module_names) - {"oblivlink"}:
            third_party.setdefault(name, path.relative_to(ROOT).as_posix())
    assert "numpy" in third_party  # the scan reaches the package's imports
    undeclared = {name: where for name, where in third_party.items() if name not in declared}
    assert not undeclared, f"imported but not in pyproject dependencies: {undeclared}"


def test_importing_the_package_loads_no_runtime_cli_or_test_module():
    # linkbench's setup_s times the import: the mpc runtime and the CLI load
    # on first use, and test libraries never
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, oblivlink; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        check=True, timeout=60).stdout.split()
    assert "oblivlink.machine" in loaded
    unwanted = {"oblivlink.mpc", "oblivlink.cli", "argparse", "scipy", "hypothesis", "pytest"}
    assert not unwanted & set(loaded), sorted(unwanted & set(loaded))
