"""Regenerate the golden linkage outputs.

Runs ``generate --size 40 --seed 0`` and ``block --seed 0``, then ``link``
on every backend and profile with ``auto`` and every strategy that
backend supports, and keeps each link's ``matches.csv``, ``ledger.csv``,
``rounds.csv`` (mpc only) and ``run.config`` under ``<backend>-<profile>-
<strategy>/``.

    PYTHONPATH=src python tests/golden/regenerate.py            # rewrite tests/golden
    PYTHONPATH=src python tests/golden/regenerate.py OUT_DIR    # write elsewhere
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

from oblivlink.backends import make_backend
from oblivlink.cli import main
from oblivlink.intersect import supported_strategies

BACKENDS = (("clear", "generic"), ("sim", "generic"), ("sim", "simd"),
            ("sim", "sharemind"), ("mpc", "generic"))
KEPT = ("matches.csv", "ledger.csv", "rounds.csv", "run.config")


def runs() -> list[tuple[str, str, str]]:
    """Every (backend, profile, strategy) the golden set covers."""
    return [(kind, profile, strategy)
            for kind, profile in BACKENDS
            for strategy in ["auto"] + [s.value for s in supported_strategies(
                make_backend(kind, profile).caps)]]


def regenerate(out: str):
    """Write every golden run directory under ``out``."""
    with tempfile.TemporaryDirectory() as work:
        data, blocks = os.path.join(work, "data"), os.path.join(work, "blocks")
        for argv in (["generate", "--out", data, "--size", "40", "--seed", "0"],
                     ["block", "--data", data, "--out", blocks, "--seed", "0"]):
            if main(argv):
                raise SystemExit(f"{argv[0]} failed")
        for kind, profile, strategy in runs():
            link = os.path.join(work, "link")
            if main(["link", "--blocks", blocks, "--out", link, "--backend", kind,
                     "--profile", profile, "--isect", strategy, "--seed", "0"]):
                raise SystemExit(f"link {kind}/{profile}/{strategy} failed")
            target = os.path.join(out, f"{kind}-{profile}-{strategy}")
            os.makedirs(target, exist_ok=True)
            for name in KEPT:
                if os.path.exists(os.path.join(link, name)):
                    shutil.copyfile(os.path.join(link, name), os.path.join(target, name))
            shutil.rmtree(link)


if __name__ == "__main__":
    regenerate(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.abspath(__file__)))
