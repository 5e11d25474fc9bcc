"""End-to-end private entity resolution across party roles.

Stages (each accounted separately in the cost ledger):

  encode_block  owners tokenize, encode, and index their records
  upload        encoded records and block-id vectors enter the backend
  merge_dedup   shared-key id pairs privately flag the candidate matrix
  obfuscate     noise is unioned in, then the matrix is revealed to the host
                under an explicitly granted, logged authority
  filter_er     Jaccard matching runs on revealed candidate cells only
  finalize      the candidate mask arithmetically erases noise-born results

The computation host (P3) observes dataset sizes, per-record container
counts, blocking keys, per-block sizes, and the obfuscated candidate
matrix; all of it is logged to the transcript so leakage audits can diff
against that budget.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .backends import make_backend
from .backends.base import APPROX, Transcript, tagged_rng
from .blocking import (TOKEN_BITS, EncodedRecord, MinHasher, bigram_codes, block_index,
                       encrypt_blocks, flat_column, optimal_band_plan, pack_records)
from .errors import DomainError, StageError
# jaccard_match stays importable from here for callers that wrap it
from .intersect import (JaccardParams, Strategy, jaccard_cells, jaccard_match,  # noqa: F401
                        pick_strategy)
from .machine import EQ_BIT_ERROR, Machine, PrivateMatrix, PrivateVector, slot_runs

ROLE_OWNER_1 = "P1"
ROLE_OWNER_2 = "P2"
ROLE_HOST = "P3"


@dataclass
class ObfuscationPolicy:
    """Noise unioned into the candidate matrix before it is revealed; noise
    only ever adds cells.  Source is the host RNG or an owner-encrypted
    noise matrix."""
    rate: float = 0.05
    source: str = "host"

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("noise rate must lie in [0, 1]")
        if self.source not in ("host", "owner"):
            raise ValueError("noise source must be 'host' or 'owner'")


@dataclass
class PipelineConfig:
    backend: str = "clear"
    profile: str = "generic"
    strategy: str = "auto"
    t_jaccard: Fraction = Fraction(1, 2)
    t_block: float = 0.5
    num_perm: int = 128
    fp_weight: float = 0.5
    fn_weight: float = 0.5
    pack: int = 1
    rho: float = 0.05
    noise_source: str = "host"
    seed: int = 0

    def jaccard_params(self) -> JaccardParams:
        return JaccardParams(Fraction(self.t_jaccard))

    def flat_items(self) -> list[tuple[str, str]]:
        items = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "t_jaccard":
                value = Fraction(value)
                value = f"{value.numerator}/{value.denominator}"
            items.append((f.name, str(value)))
        return items


@dataclass
class PartyUpload:
    """What one data owner ships: encoded records, the blocking index over
    0-based upload rows, and the owner-side row-to-external-id map."""
    encoded: list[EncodedRecord]
    index: dict[str, list[int]]
    id_map: list[str]
    manifest: dict = field(default_factory=dict)


@dataclass
class RunResult:
    matches: list[tuple[str, str]]
    strategy: Strategy
    obfu_count: int
    evaluated_cells: int
    shape: tuple[int, int]
    ledger: object
    round_stats: object | None
    transcript: Transcript
    trace: list


def prepare_upload(records, config: PipelineConfig) -> PartyUpload:
    """Owner-side encoding and blocking (no machine operations), for all
    records at once."""
    ids = [r.record_id for r in records]
    codes, lengths = bigram_codes([r.text() for r in records], ids)
    encoded = pack_records(ids, codes, lengths, config.pack)
    plan = optimal_band_plan(config.t_block, config.num_perm,
                             config.fp_weight, config.fn_weight)
    hasher = MinHasher(config.num_perm, config.seed)
    index = block_index(hasher.signatures(codes, lengths), plan)
    manifest = {
        "size": len(records), "pack": config.pack, "t_block": config.t_block,
        "num_perm": config.num_perm, "bands": plan.bands, "rows": plan.rows,
        "seed": config.seed,
    }
    return PartyUpload(encoded, index, ids, manifest)


def validate_uploads(u1: PartyUpload, u2: PartyUpload, config: PipelineConfig):
    """Refuse, before any machine work, uploads that would link to a quietly
    wrong answer: owners that hashed, banded or packed differently from each
    other or from the link config, records whose containers repeat or do
    not fit the packing's pack·16 bits, and blocks whose ids lie outside
    their owner's rows or repeat.  A manifest that omits a field is not
    checked on it."""
    plan = optimal_band_plan(config.t_block, config.num_perm,
                             config.fp_weight, config.fn_weight)
    wanted = {"num_perm": config.num_perm, "bands": plan.bands, "rows": plan.rows,
              "seed": config.seed, "pack": config.pack}
    for key, want in wanted.items():
        got1, got2 = u1.manifest.get(key, want), u2.manifest.get(key, want)
        if got1 != got2:
            raise StageError("upload", f"the owners' manifests disagree on {key}: "
                                       f"{got1} vs {got2}")
        if got1 != want:
            raise StageError("upload", f"the manifests' {key} {got1} disagrees with "
                                       f"the link config's {want}")
    bits = TOKEN_BITS * config.pack
    for role, up in (("D1", u1), ("D2", u2)):
        fault = _first_fault([rec.containers for rec in up.encoded], 1 << bits)
        if fault:
            row, repeats = fault
            raise StageError("upload", f"{role} record {row} repeats a container" if repeats
                             else f"{role} record {row} holds a container outside [0, 2^{bits})")
        size = len(up.encoded)
        fault = _first_fault(list(up.index.values()), size)
        if fault:
            key, repeats = list(up.index)[fault[0]], fault[1]
            raise StageError("upload", f"{role} block {key} repeats an id" if repeats
                             else f"{role} block {key} holds an id outside [0, {size})")


def _first_fault(runs: list, limit: int) -> tuple[int, bool] | None:
    """The first run that repeats a value or holds one outside [0, limit),
    and whether it repeats one (a run that does both repeats); None when
    every run is sound.  A run in ascending order, as owners upload
    them, repeats a value exactly where two neighbours are equal; when some
    run is out of order, one stable sort by (run, value) makes that so."""
    values = flat_column(runs)
    run = np.repeat(np.arange(len(runs)), [len(r) for r in runs])
    if not np.all((values[1:] > values[:-1]) | (run[1:] != run[:-1])):
        order = np.lexsort((values, run))
        values, run = values[order], run[order]
    repeats = run[1:][(values[1:] == values[:-1]) & (run[1:] == run[:-1])]
    outside = run[(values < 0) | (values >= limit)]
    first = min(repeats.min(initial=len(runs)), outside.min(initial=len(runs)))
    if first == len(runs):
        return None
    return int(first), bool(first in repeats)


# -- machine-level stages ----------------------------------------------------


def _indicator(mach: Machine, blocks: list[PrivateVector], width: int) -> PrivateMatrix:
    """len(blocks) x width matrix whose row k is 1 at the ids in blocks[k]."""
    ids = mach.concat(*blocks)
    onehot = mach.eeq(mach.repeat_each(ids, width),
                      mach.tile(mach.enc(np.arange(width)), ids.length))
    return mach.segment_sum(onehot, width, [b.length for b in blocks])


def merge_and_dedup(mach: Machine, b1: dict[str, PrivateVector],
                    b2: dict[str, PrivateVector], shape: tuple[int, int]) -> PrivateMatrix:
    """Block merge: every cross id pair of a key present on both sides is a
    candidate.  With the shared keys' id indicators stacked as U (keys x
    rows) and V (keys x cols), cell (i, j) of Uᵀ·V counts the keys that
    rows i and j share, so one matrix product per key group plus one
    comparison gate flags, and deduplicates, the candidate matrix."""
    keys = [k for k in sorted(b1) if k in b2 and b1[k].length and b2[k].length]
    approx = mach.b.domain == APPROX
    if approx:
        # each one-hot slot errs by at most e = EQ_BIT_ERROR, so each cross
        # pair's product term by e(2+e); the sum must stay under 1/2
        cross_pairs = sum(b1[k].length * b2[k].length for k in keys)
        worst = cross_pairs * EQ_BIT_ERROR * (2 + EQ_BIT_ERROR)
        if worst >= 0.5:
            raise DomainError(
                f"merge of {cross_pairs} cross pairs may err by {worst:.3g} per cell, "
                "not under the 1/2 the candidate threshold tolerates")
    rows, cols = shape
    # side 1's one-hot holds rows slots per id, side 2's cols; a group's
    # one-hots stay within the rows*cols slots of the matrix merge returns
    sizes = [(b1[k].length * rows, b2[k].length * cols) for k in keys]
    counts = None
    for run in slot_runs(sizes, rows * cols):
        group = keys[run.start:run.stop]
        u = _indicator(mach, [b1[k] for k in group], rows)
        v = _indicator(mach, [b2[k] for k in group], cols)
        part = mach.mul(mach.transpose(u), v)
        counts = part if counts is None else mach.add(counts, part)
    if counts is None:
        return mach.enc(np.zeros(shape, dtype=np.int64))
    # a cell counts at most every shared key
    return mach.gt(counts, mach.enc(np.full(shape, 0.5 if approx else 0)), bound=len(keys))


def obfuscate(mach: Machine, cand: PrivateMatrix, policy: ObfuscationPolicy,
              noise_rng: np.random.Generator, authority) -> np.ndarray:
    """Union random true cells into the candidate matrix, then reveal it to
    the host under the granted authority."""
    shape = (cand.rows, cand.cols)
    noise_bits = (noise_rng.random(shape) < policy.rate).astype(np.int64)
    noise = mach.enc(noise_bits)
    ones = mach.enc(np.ones(shape, dtype=np.int64))
    noisy = mach.choose_mat(noise, ones, cand)
    revealed = np.asarray(mach.dec(noisy, authority), dtype=np.float64).reshape(shape)
    obfu = revealed > 0.5
    mach.b.observe(ROLE_HOST, "obfu_pairs", tuple(map(tuple, obfu.astype(int).tolist())))
    return obfu


def filter_and_resolve(mach: Machine, enc1: list[PrivateVector], enc2: list[PrivateVector],
                       obfu: np.ndarray, params: JaccardParams,
                       strategy: Strategy):
    """Evaluate the match bit exactly where the revealed matrix is true;
    every other cell stays encrypted false.  All revealed cells go through
    one batched pass; one public gather then places each bit in the matrix,
    pointing every other cell at an appended zero.  The work done depends
    on the revealed matrix and the public record lengths alone."""
    cells = np.argwhere(obfu)
    if not len(cells):
        return mach.enc(np.zeros(obfu.shape, dtype=np.int64)), 0
    rows, cols = obfu.shape
    bits = jaccard_cells(mach, enc1, enc2, cells, params, strategy, rows * cols)
    place = np.full(obfu.shape, len(cells), dtype=np.int64)
    place[cells[:, 0], cells[:, 1]] = np.arange(len(cells))
    return mach.take(mach.concat(bits, mach.enc([0])), place), len(cells)


def finalize(mach: Machine, results: PrivateMatrix, dummies: PrivateMatrix,
             cand: PrivateMatrix) -> PrivateMatrix:
    """Arithmetic selection against the candidate mask removes every
    noise-induced result."""
    return mach.choose_mat(cand, results, dummies)


# -- full run -------------------------------------------------------------------


def _run_stage(backend, name, body):
    try:
        with backend.stage(name):
            return body()
    except StageError:
        raise
    except Exception as exc:  # tag the failing stage for diagnostics
        raise StageError(name, str(exc)) from exc


def run_pper_from_uploads(u1: PartyUpload, u2: PartyUpload, config: PipelineConfig,
                          backend=None) -> RunResult:
    validate_uploads(u1, u2, config)
    own_backend = backend is None
    if backend is None:
        backend = make_backend(config.backend, config.profile, seed=config.seed)
    mach = Machine(backend)
    shape = (len(u1.encoded), len(u2.encoded))
    params = config.jaccard_params()

    sizes1 = [len(r.containers) for r in u1.encoded]
    sizes2 = [len(r.containers) for r in u2.encoded]
    if config.strategy == "auto":
        mean1 = int(np.mean(sizes1)) if sizes1 else 1
        mean2 = int(np.mean(sizes2)) if sizes2 else 1
        strategy = pick_strategy(backend.caps, mean1, mean2)
    else:
        strategy = Strategy(config.strategy)

    def upload():
        # records before blocks, D1 before D2: the order mpc draws the shares in
        backend.observe(ROLE_HOST, "dataset_size", ("D1", shape[0]))
        backend.observe(ROLE_HOST, "dataset_size", ("D2", shape[1]))
        records = []
        for role, up, sizes in (("D1", u1, sizes1), ("D2", u2, sizes2)):
            backend.observe_batch(ROLE_HOST, ("record_container_count",
                                              ([role] * len(sizes), range(len(sizes)), sizes)))
            records.append(mach.enc_runs(flat_column([rec.containers for rec in up.encoded]),
                                         sizes))
        blocks = []
        for role, up in (("D1", u1), ("D2", u2)):
            blocks.append(encrypt_blocks(up.index, mach))
            keys = list(blocks[-1])
            backend.observe_batch(ROLE_HOST, ("block_key", (keys,)),
                                  ("block_size", ([role] * len(keys), keys,
                                                  [len(up.index[k]) for k in keys])))
        return (*records, *blocks)

    enc1, enc2, b1, b2 = _run_stage(backend, "upload", upload)
    cand = _run_stage(backend, "merge_dedup",
                      lambda: merge_and_dedup(mach, b1, b2, shape))

    def reveal_obfuscated():
        policy = ObfuscationPolicy(config.rho, config.noise_source)
        noise_tag = "noise" if policy.source == "host" else "noise-owner"
        noise_rng = tagged_rng(noise_tag, config.seed)
        reveal_auth = backend.issue_authority("obfuscation-reveal", ROLE_HOST)
        backend.observe(ROLE_HOST, "authority_grant", "obfuscation-reveal")
        revealed = obfuscate(mach, cand, policy, noise_rng, reveal_auth)
        reveal_auth.revoke()
        return revealed

    obfu = _run_stage(backend, "obfuscate", reveal_obfuscated)
    results, evaluated = _run_stage(
        backend, "filter_er",
        lambda: filter_and_resolve(mach, enc1, enc2, obfu, params, strategy))

    def finish():
        dummies = mach.enc(np.zeros(shape, dtype=np.int64))
        final = finalize(mach, results, dummies, cand)
        owner_auth = backend.issue_authority("owners", f"{ROLE_OWNER_1}+{ROLE_OWNER_2}")
        bits = np.asarray(mach.dec(final, owner_auth), dtype=np.float64).reshape(shape)
        return sorted(
            (u1.id_map[i], u2.id_map[j])
            for i, j in zip(*np.nonzero(bits > 0.5)))

    matches = _run_stage(backend, "finalize", finish)

    stats = backend.round_stats() if hasattr(backend, "round_stats") else None
    result = RunResult(
        matches=matches, strategy=strategy,
        obfu_count=int(obfu.sum()), evaluated_cells=evaluated, shape=shape,
        ledger=backend.ledger, round_stats=stats,
        transcript=backend.transcript.copy(),
        trace=list(backend.trace) if backend.trace_enabled else [],
    )
    if own_backend:
        backend.close()
    return result


def run_pper(d1_records, d2_records, config: PipelineConfig, backend=None) -> RunResult:
    """Full staged run from raw records: encode/block owner-side, upload,
    merge, obfuscate, filter, finalize.  Matches come back as sorted
    external-id pairs."""
    u1 = prepare_upload(d1_records, config)
    u2 = prepare_upload(d2_records, config)
    return run_pper_from_uploads(u1, u2, config, backend=backend)


# -- transport files ------------------------------------------------------------


def write_party_dir(path: str, upload: PartyUpload):
    """Serialize one owner's upload: records.enc, blocks.enc, manifest, and
    the owner-side id map."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "records.enc"), "w") as fh:
        for row, rec in enumerate(upload.encoded):
            fh.write(json.dumps({"row": row, "containers": list(rec.containers),
                                 "pack": rec.pack}) + "\n")
    with open(os.path.join(path, "blocks.enc"), "w") as fh:
        json.dump({k: v for k, v in sorted(upload.index.items())}, fh, indent=0)
    with open(os.path.join(path, "manifest"), "w") as fh:
        json.dump(upload.manifest, fh, indent=2, sort_keys=True)
    with open(os.path.join(path, "idmap.csv"), "w") as fh:
        fh.write("row,record_id\n")
        for row, rid in enumerate(upload.id_map):
            fh.write(f"{row},{rid}\n")


def read_party_dir(path: str) -> PartyUpload:
    encoded = []
    with open(os.path.join(path, "records.enc")) as fh:
        for line in fh:
            item = json.loads(line)
            encoded.append(EncodedRecord(str(item["row"]), tuple(item["containers"]),
                                         item.get("pack", 1)))
    with open(os.path.join(path, "blocks.enc")) as fh:
        index = {k: list(map(int, v)) for k, v in json.load(fh).items()}
    with open(os.path.join(path, "manifest")) as fh:
        manifest = json.load(fh)
    id_map = []
    with open(os.path.join(path, "idmap.csv")) as fh:
        next(fh)
        for line in fh:
            row, rid = line.rstrip("\n").split(",", 1)
            id_map.append(rid)
    return PartyUpload(encoded, index, id_map, manifest)
