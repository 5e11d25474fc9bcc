"""The benchmark's traced mode on the package as it stands.

``linkbench/run.py --trace 1`` wraps ``Machine``'s public methods, the mpc
actors' ``handle`` and ``pipeline.jaccard_match`` from outside the package,
so a change to any of them can break the traced run while every untraced
linkage still passes.  Each workload runs one traced round here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


# one to two seconds a workload
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_traced_round_links_correctly(workload, tmp_path):
    # a copy of linkbench/ next to a link to src/, so that the run's spans
    # go under tmp_path and nothing is written in the tree
    shutil.copytree(ROOT / "linkbench", tmp_path / "linkbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "linkbench" / "run.py"), "--workload", workload,
         "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert (tmp_path / "linkbench" / "out" / f"{workload}-seed0.trace.json").is_file()
