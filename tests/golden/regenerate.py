"""Regenerate the golden outputs.

Runs ``generate --size 40 --seed 0`` and ``block --seed 0``, and keeps the
four files ``block`` writes per party under ``blocks/p1`` and ``blocks/p2``.
Then runs ``link`` on every backend and profile with ``auto`` and every
strategy that backend supports, and keeps each link's ``matches.csv``,
``ledger.csv``, ``rounds.csv`` (mpc only) and ``run.config`` under
``<backend>-<profile>-<strategy>/``.  ``bench --backends clear,sim,mpc``
gives ``bench.csv``.  Each ``link`` runs with its backend's trace on, and
``digests.sha256`` holds the sha256 of that trace, of each role's
transcript and, on mpc, of the message log, which are too large to commit.

    PYTHONPATH=src python tests/golden/regenerate.py            # rewrite tests/golden
    PYTHONPATH=src python tests/golden/regenerate.py OUT_DIR    # write elsewhere
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from unittest import mock

import numpy as np

from oblivlink import cli
from oblivlink.backends import make_backend
from oblivlink.backends.base import ROLE_HOST, ROLE_OWNER_1, ROLE_OWNER_2
from oblivlink.intersect import supported_strategies
from oblivlink.mpc import BeaverTriple
from oblivlink.pipeline import run_pper_from_uploads

BACKENDS = (("clear", "generic"), ("sim", "generic"), ("sim", "simd"),
            ("sim", "sharemind"), ("mpc", "generic"))
KEPT = ("matches.csv", "ledger.csv", "rounds.csv", "run.config")
PARTY_FILES = ("records.enc", "digests.enc", "manifest", "idmap.csv")
ROLES = (ROLE_OWNER_1, ROLE_OWNER_2, ROLE_HOST)
DIGESTS = "digests.sha256"


def runs() -> list[tuple[str, str, str]]:
    """Every (backend, profile, strategy) the golden set covers."""
    return [(kind, profile, strategy)
            for kind, profile in BACKENDS
            for strategy in ["auto"] + [s.value for s in supported_strategies(
                make_backend(kind, profile).caps)]]


def sha256_of(items) -> str:
    """sha256 of a canonical encoding that covers every element: an array
    by its dtype, shape and bytes, anything else by its ``repr``, with numpy
    printing every element of an array nested in it exactly."""
    digest = hashlib.sha256()
    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        for item in items:
            if isinstance(item, np.ndarray):
                digest.update(f"{item.dtype.str}{item.shape}:".encode())
                digest.update(np.ascontiguousarray(item).tobytes())
            else:
                digest.update(repr(item).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def traced_link(argv: list[str]):
    """Run ``link`` with its backend's trace on, and on mpc its message log;
    returns the linkage's ``RunResult`` and its backend."""
    results = []

    def traced(u1, u2, config, backend):
        backend.enable_trace()
        if backend.kind == "mpc":
            backend.net.record_log = True
        results.append((run_pper_from_uploads(u1, u2, config, backend=backend), backend))
        return results[-1][0]

    with mock.patch.object(cli, "run_pper_from_uploads", traced):
        if cli.main(["link"] + argv):
            raise SystemExit(f"link {' '.join(argv)} failed")
    return results[0]


def message_items(log):
    """Every envelope of an mpc message log, in send order: its ``src``,
    ``dst``, ``kind``, ``tag`` and ``nbytes``, then its payload values in key
    order, a Beaver triple as its ``a``, ``b`` and ``c`` arrays."""
    for env in log:
        yield from (env.src, env.dst, env.kind, env.tag, env.nbytes)
        for key in sorted(env.payload):
            value = env.payload[key]
            if isinstance(value, BeaverTriple):
                yield from (value.a, value.b, value.c)
            else:
                yield value


def digest_lines(run: str, result, backend) -> list[str]:
    """``<sha256>  <run>/<name>`` lines for one run's trace, each role's
    transcript and, on mpc, the message log."""
    lines = [f"{sha256_of(result.trace)}  {run}/trace"]
    for role in ROLES:
        items = (x for o in result.transcript if o.role == role for x in (o.kind, o.value))
        lines.append(f"{sha256_of(items)}  {run}/transcript.{role}")
    if backend.kind == "mpc":
        lines.append(f"{sha256_of(message_items(backend.net.log))}  {run}/messages")
    return lines


def regenerate(out: str):
    """Write every golden file under ``out``."""
    with tempfile.TemporaryDirectory() as work:
        data, blocks = os.path.join(work, "data"), os.path.join(work, "blocks")
        bench = os.path.join(work, "bench")
        for argv in (["generate", "--out", data, "--size", "40", "--seed", "0"],
                     ["block", "--data", data, "--out", blocks, "--seed", "0"],
                     ["bench", "--data", data, "--out", bench, "--backends", "clear,sim,mpc",
                      "--seed", "0"]):
            if cli.main(argv):
                raise SystemExit(f"{argv[0]} failed")
        for party in ("p1", "p2"):
            os.makedirs(os.path.join(out, "blocks", party), exist_ok=True)
            for name in PARTY_FILES:
                shutil.copyfile(os.path.join(blocks, party, name),
                                os.path.join(out, "blocks", party, name))
        shutil.copyfile(os.path.join(bench, "bench.csv"), os.path.join(out, "bench.csv"))
        digests = []
        for kind, profile, strategy in runs():
            link = os.path.join(work, "link")
            run = f"{kind}-{profile}-{strategy}"
            result, backend = traced_link(["--blocks", blocks, "--out", link, "--backend", kind,
                                           "--profile", profile, "--isect", strategy,
                                           "--seed", "0"])
            target = os.path.join(out, run)
            os.makedirs(target, exist_ok=True)
            for name in KEPT:
                if os.path.exists(os.path.join(link, name)):
                    shutil.copyfile(os.path.join(link, name), os.path.join(target, name))
            shutil.rmtree(link)
            digests += digest_lines(run, result, backend)
        with open(os.path.join(out, DIGESTS), "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in digests)


if __name__ == "__main__":
    regenerate(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.abspath(__file__)))
