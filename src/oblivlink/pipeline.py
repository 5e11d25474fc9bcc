"""End-to-end private entity resolution across party roles.

Stages (each accounted separately in the cost ledger):

  encode_block  owners tokenize, encode, and MinHash their records into
                one FNV-1a digest per LSH band
  upload        encoded records and each owner's rows x bands digest matrix
                enter the backend
  merge_dedup   per-band digest equality privately flags the candidate matrix
  obfuscate     noise is unioned in, then the matrix is revealed to the host
                under an explicitly granted, logged authority
  filter_er     Jaccard matching runs on revealed candidate cells only
  finalize      the candidate mask arithmetically erases noise-born results

The computation host (P3) observes dataset sizes, per-record container
counts and the obfuscated candidate matrix; all of it is logged to the
transcript so leakage audits can diff against that budget.  Blocking keys
never reach it: merge's work depends on the public shapes alone.
"""

from __future__ import annotations

import io
import itertools
import json
import os
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .backends import make_backend
from .backends.base import (APPROX, APPROX_EXACT_BITS, ROLE_HOST, ROLE_OWNER_1, ROLE_OWNER_2,
                            Observation, tagged_rng)
from .blocking import (PACKS, TOKEN_BITS, BandPlan, MinHasher, band_digests, bigram_codes,
                       digest_index, optimal_band_plan, pack_records)
from .errors import DomainError, OblivLinkError, StageError
# jaccard_match stays importable from here for callers that wrap it
from .intersect import (PAD_SENTINEL, JaccardParams, Strategy, jaccard_cells,  # noqa: F401
                        jaccard_match, pick_strategy, require_strategy)
from .machine import Machine, PrivateMatrix, Runs, run_slots, slot_runs


@dataclass
class ObfuscationPolicy:
    """Noise unioned into the candidate matrix before it is revealed; noise
    only ever adds cells, each with probability ``rate``.  A linkage draws
    the noise from ``tagged_rng("noise", seed)`` over the public link
    ``seed``, so the host (P3) can recompute it and the noise hides only the
    candidates it happens to cover; a noise secret that P3 does not hold is
    ROADMAP item 2."""
    rate: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("noise rate must lie in [0, 1]")


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
    seed: int = 0

    def jaccard_params(self) -> JaccardParams:
        return JaccardParams(Fraction(self.t_jaccard))

    def band_plan(self) -> BandPlan:
        return optimal_band_plan(self.t_block, self.num_perm, self.fp_weight, self.fn_weight)

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
    """What one data owner ships: its encoded records as one flat column,
    every record's containers record after record (uint64), with each
    record's public container count (``lengths``, int64); the records x
    bands matrix of band digests (uint64); and the owner-side
    row-to-external-id map."""
    containers: np.ndarray
    lengths: np.ndarray
    digests: np.ndarray
    id_map: list[str]
    manifest: dict = field(default_factory=dict)

    @property
    def index(self) -> dict[str, list[int]]:
        """The digests as a blocking key -> rows index (``digest_index``),
        derived on each read for clear-text checks; a linkage never
        builds it."""
        return digest_index(self.digests)


@dataclass
class RunResult:
    """One linkage's outcome.  ``transcript`` is a list of the backend's
    observations at the end of the run, not changed by later ones; P3's
    ``obfu_pairs`` among them is its own copy of the revealed bool
    matrix."""
    matches: list[tuple[str, str]]
    strategy: Strategy
    obfu_count: int
    evaluated_cells: int
    shape: tuple[int, int]
    ledger: object
    round_stats: object | None
    transcript: list[Observation]
    trace: list


def prepare_upload(records, config: PipelineConfig) -> PartyUpload:
    """Owner-side encoding and blocking (no machine operations), for all
    records at once."""
    ids = [r.record_id for r in records]
    codes, lengths = bigram_codes([r.text() for r in records], ids)
    containers, counts = pack_records(codes, lengths, config.pack)
    plan = config.band_plan()
    hasher = MinHasher(config.num_perm, config.seed)
    digests = band_digests(hasher.signatures(codes, lengths), plan)
    manifest = {
        "size": len(records), "pack": config.pack, "t_block": config.t_block,
        "num_perm": config.num_perm, "bands": plan.bands, "rows": plan.rows,
        "seed": config.seed,
    }
    return PartyUpload(containers, counts, digests, ids, manifest)


def validate_uploads(u1: PartyUpload, u2: PartyUpload, config: PipelineConfig,
                     plan: BandPlan):
    """Refuse, before any machine work, uploads that would link to a quietly
    wrong answer: owners that hashed, banded or packed differently from each
    other or from the link config and its band ``plan``, containers and
    lengths that do not split into records (see ``_record_fault``), records
    whose containers repeat, do not fit the packing's pack·16 bits or equal
    VR's padding ``PAD_SENTINEL``, and digests that are not a records x
    ``plan.bands`` matrix of integers in [0, 2^64).  A manifest that omits a
    field is not checked on it, and an id map must hold one row per
    record."""
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
        fault = _record_fault(up.containers, up.lengths, bits)
        if fault:
            raise StageError("upload", f"{role} {fault}")
        records = len(up.lengths)
        if len(up.id_map) != records:
            raise StageError("upload", f"{role} id map holds {len(up.id_map)} rows "
                                       f"for {records} records")
        fault = _digest_fault(up.digests, records, plan.bands)
        if fault:
            raise StageError("upload", f"{role} digests {fault}")


def _digest_fault(digests, rows: int, bands: int) -> str | None:
    """Why ``digests`` is not a rows x bands matrix of integers in
    [0, 2^64), or None when it is one.  A boolean, float or object array is
    not one of integers; a matrix without rows may have any width."""
    try:
        digests = np.asarray(digests)
    except ValueError:  # rows of different widths
        return "are not a matrix"
    if digests.ndim != 2:
        return "are not a matrix"
    if len(digests) != rows:
        return f"hold {len(digests)} rows for {rows} records"
    if rows and digests.shape[1] != bands:
        return f"hold {digests.shape[1]} bands, not {bands}"
    if digests.dtype.kind not in "iu":
        return "hold a value that is not an integer"
    if digests.dtype.kind == "i" and digests.size and digests.min() < 0:
        return "hold a value outside [0, 2^64)"
    return None


def _record_fault(containers, lengths, bits: int) -> str | None:
    """Why ``containers`` split by ``lengths`` are not records of distinct
    containers in [0, 2^bits) other than VR's padding ``PAD_SENTINEL``, or
    None when they are.  Both must be 1-D integer arrays, the lengths
    non-negative and summing to the containers.  One pass over the column
    names the first faulty record, whatever its fault, and a record that
    repeats a container is said to repeat it.  Records in ascending order,
    as owners upload them, repeat a value exactly where two neighbours in
    one record are equal; when some record is out of order, one stable sort
    by (record, value) makes that so."""
    values, lengths = np.asarray(containers), np.asarray(lengths)
    if values.ndim != 1 or values.dtype.kind not in "iu":
        return "containers are not a 1-D array of integers"
    if lengths.ndim != 1 or lengths.dtype.kind not in "iu":
        return "record lengths are not a 1-D array of integers"
    if lengths.size and lengths.min() < 0:
        return "record lengths hold a negative length"
    if lengths.sum() != len(values):
        return f"record lengths sum to {lengths.sum()}, not its {len(values)} containers"
    record = np.repeat(np.arange(len(lengths)), lengths)
    if not np.all((values[1:] > values[:-1]) | (record[1:] != record[:-1])):
        order = np.lexsort((values, record))
        values, record = values[order], record[order]
    repeats = record[1:][(values[1:] == values[:-1]) & (record[1:] == record[:-1])]
    outside = record[(values < 0) | (values >= 1 << bits)]
    # pack 4 only; pack 1's range check excludes the padding
    padding = record[values == PAD_SENTINEL] if PAD_SENTINEL < 1 << bits else record[:0]
    first = min(rows.min(initial=len(lengths)) for rows in (repeats, outside, padding))
    if first == len(lengths):
        return None
    if first in repeats:
        return f"record {first} repeats a container"
    if first in outside:
        return f"record {first} holds a container outside [0, 2^{bits})"
    return f"record {first} holds VR's padding 2^63-1"


# -- machine-level stages ----------------------------------------------------


def digest_limbs(digests: np.ndarray, domain: str) -> np.ndarray:
    """A records x bands digest matrix in the form a backend of ``domain``
    compares exactly: whole on the exact domain; on the approximate one,
    whose float64 holds 53 bits exactly, as every band's high 32-bit limb,
    then every band's low one (records x 2·bands).  A digest is never
    truncated: a collision would add a candidate that blocking lacks."""
    if domain != APPROX:
        return digests
    return np.hstack([digests >> np.uint64(32), digests & np.uint64(0xFFFFFFFF)])


def merge_and_dedup(mach: Machine, digests1: PrivateMatrix,
                    digests2: PrivateMatrix) -> PrivateMatrix:
    """LSH blocking as private equality: cell (i, j) is a candidate exactly
    when records i and j agree on some band's digest, that is when
    Σ_b eq(K1[i, b], K2[j, b]) > 0 over the owners' digest matrices as
    ``digest_limbs`` uploads them.  Bands go in runs of at most
    ``run_slots`` slots.  Per run, one band-major gather per side and limb
    lays out every (band, i, j) slot, one equality gate per limb compares
    them (the limbs' bits multiplied), and one segment sum adds the run's
    bands into the counts.  The work depends on the public shapes alone."""
    rows, cols = digests1.rows, digests2.rows
    limbs = 2 if mach.b.domain == APPROX else 1
    bands = digests1.cols // limbs
    cells = rows * cols
    if not cells:
        return mach.enc(np.zeros((rows, cols), dtype=np.int64))
    # slot (i, j) of a band reads row i of side 1 and row j of side 2
    base1 = np.repeat(np.arange(rows) * digests1.cols, cols)
    base2 = np.tile(np.arange(cols) * digests2.cols, rows)
    counts = None
    for run in slot_runs([cells] * bands, run_slots((rows, cols))):
        bits = None
        for limb in range(limbs):
            column = np.arange(run.start, run.stop)[:, None] + limb * bands
            eq = mach.eeq(mach.take(digests1, (base1 + column).ravel()),
                          mach.take(digests2, (base2 + column).ravel()))
            bits = eq if bits is None else mach.emul(bits, eq)
        part = mach.segment_sum(bits, cells, [len(run)])
        counts = part if counts is None else mach.add(counts, part)
    counts = mach.take(counts, np.arange(cells).reshape(rows, cols))
    # a cell sums at most `bands` bits, each off by at most e(2+e) on the
    # approximate domain (e = EQ_BIT_ERROR), so by far under the 1/2 that
    # its threshold tolerates
    cut = 0.5 if limbs == 2 else 0
    return mach.gt(counts, mach.enc(np.full((rows, cols), cut)), bound=bands)


def obfuscate(mach: Machine, cand: PrivateMatrix, policy: ObfuscationPolicy,
              noise_rng: np.random.Generator, authority) -> np.ndarray:
    """Union random true cells into the candidate matrix, then reveal it to
    the host under the granted authority."""
    shape = (cand.rows, cand.cols)
    noise_bits = (noise_rng.random(shape) < policy.rate).astype(np.int64)
    noise = mach.enc(noise_bits)
    ones = mach.enc(np.ones(shape, dtype=np.int64))
    noisy = mach.choose_mat(noise, ones, cand)
    obfu = mach.reveal(noisy, authority) > 0.5
    mach.b.observe(ROLE_HOST, "obfu_pairs", obfu.copy())
    return obfu


def filter_and_resolve(mach: Machine, records1: Runs, records2: Runs, obfu: np.ndarray,
                       params: JaccardParams, strategy: Strategy):
    """Evaluate the match bit exactly where the revealed matrix is true;
    every other cell stays encrypted false.  All revealed cells go through
    one batched pass; one public gather then places each bit in the matrix,
    pointing every other cell at an appended zero.  The work done depends
    on the revealed matrix and the public record lengths alone."""
    cells = np.argwhere(obfu)
    if not len(cells):
        return mach.enc(np.zeros(obfu.shape, dtype=np.int64)), 0
    bits = jaccard_cells(mach, records1, records2, cells, params, strategy)
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


def checked_config(config: PipelineConfig, backend=None):
    """Every object a linkage builds from its config: the Jaccard
    parameters, the obfuscation policy, the band plan, the strategy (None
    for ``auto``) and the backend (``backend`` when one is passed).  A
    value that one of them refuses, a negative seed, a packing wider than
    the backend's domain holds exactly, or a strategy the backend cannot
    run, is refused with one ``OblivLinkError`` before any work; ``link``,
    ``block``, ``eval`` and ``bench`` call this first, so every command
    refuses a bad config alike, before it reads or encodes anything."""
    try:
        if config.seed < 0:
            raise ValueError(f"seed must be at least 0, not {config.seed}")
        if config.pack not in PACKS:
            raise ValueError(f"packing factor must be one of {PACKS}, not {config.pack}")
        params = config.jaccard_params()
        policy = ObfuscationPolicy(config.rho)
        plan = config.band_plan()
        strategy = None if config.strategy == "auto" else Strategy(config.strategy)
        if backend is None:
            backend = make_backend(config.backend, config.profile, seed=config.seed)
    except ValueError as exc:
        raise OblivLinkError(f"bad config: {exc}") from exc
    if backend.domain == APPROX and TOKEN_BITS * config.pack > APPROX_EXACT_BITS:
        raise DomainError(f"pack {config.pack} containers of {TOKEN_BITS * config.pack} bits "
                          f"do not fit the {APPROX_EXACT_BITS} bits that "
                          f"{backend.kind}/{backend.profile} holds exactly")
    if strategy is not None:
        require_strategy(backend, strategy)
    return params, policy, plan, strategy, backend


def run_pper_from_uploads(u1: PartyUpload, u2: PartyUpload, config: PipelineConfig,
                          backend=None) -> RunResult:
    # a bad config value is refused before the uploads are checked or a
    # backend is used
    params, policy, plan, strategy, backend = checked_config(config, backend)
    validate_uploads(u1, u2, config, plan)
    mach = Machine(backend)
    shape = (len(u1.lengths), len(u2.lengths))
    if strategy is None:
        means = [int(np.mean(up.lengths)) if len(up.lengths) else 1 for up in (u1, u2)]
        strategy = pick_strategy(backend.caps, *means)

    def upload():
        # records before digests, D1 before D2: the order mpc draws the shares in
        backend.observe(ROLE_HOST, "dataset_size", ("D1", shape[0]))
        backend.observe(ROLE_HOST, "dataset_size", ("D2", shape[1]))
        records = []
        for role, up in (("D1", u1), ("D2", u2)):
            lengths = np.asarray(up.lengths).tolist()
            for row, n in enumerate(lengths):
                backend.observe(ROLE_HOST, "record_container_count", (role, row, n))
            records.append(mach.enc_runs(up.containers, lengths))
        digests = [mach.enc(digest_limbs(np.asarray(up.digests, dtype=np.uint64),
                                         backend.domain)) for up in (u1, u2)]
        return (*records, *digests)

    enc1, enc2, k1, k2 = _run_stage(backend, "upload", upload)
    cand = _run_stage(backend, "merge_dedup", lambda: merge_and_dedup(mach, k1, k2))

    def reveal_obfuscated():
        noise_rng = tagged_rng("noise", config.seed)
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
        bits = mach.reveal(final, owner_auth)
        return sorted(
            (u1.id_map[i], u2.id_map[j])
            for i, j in zip(*np.nonzero(bits > 0.5)))

    matches = _run_stage(backend, "finalize", finish)

    stats = backend.round_stats() if hasattr(backend, "round_stats") else None
    return RunResult(
        matches=matches, strategy=strategy,
        obfu_count=int(obfu.sum()), evaluated_cells=evaluated, shape=shape,
        ledger=backend.ledger, round_stats=stats,
        transcript=list(backend.transcript),
        trace=list(backend.trace) if backend.trace_enabled else [],
    )


def run_pper(d1_records, d2_records, config: PipelineConfig, backend=None) -> RunResult:
    """Full staged run from raw records: encode/block owner-side, upload,
    merge, obfuscate, filter, finalize.  Matches come back as sorted
    external-id pairs."""
    u1 = prepare_upload(d1_records, config)
    u2 = prepare_upload(d2_records, config)
    return run_pper_from_uploads(u1, u2, config, backend=backend)


# -- transport files ------------------------------------------------------------


def write_party_dir(path: str, upload: PartyUpload):
    """Serialize one owner's upload: records.enc (record k's containers as
    one JSON array on line k), digests.enc (record k's band digests, the
    same way), manifest, and the owner-side id map."""
    os.makedirs(path, exist_ok=True)
    values, lengths = np.asarray(upload.containers).tolist(), np.asarray(upload.lengths)
    ends = np.cumsum(lengths).tolist()
    with open(os.path.join(path, "records.enc"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(values[hi - n:hi]) + "\n"
                      for n, hi in zip(lengths.tolist(), ends))
    with open(os.path.join(path, "digests.enc"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in upload.digests.tolist())
    with open(os.path.join(path, "manifest"), "w", encoding="utf-8") as fh:
        json.dump(upload.manifest, fh, indent=2, sort_keys=True)
    with open(os.path.join(path, "idmap.csv"), "w", encoding="utf-8") as fh:
        fh.write("row,record_id\n")
        for row, rid in enumerate(upload.id_map):
            fh.write(f"{row},{rid}\n")


def _upload_error(path: str, name: str, what: str) -> StageError:
    return StageError("upload", f"{os.path.join(path, name)} {what}")


def _read_text(path: str, name: str) -> str:
    """The UTF-8 text of file ``name``; a file that cannot be read or
    decoded is refused."""
    try:
        with open(os.path.join(path, name), encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _upload_error(path, name, f"cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise _upload_error(path, name, "is not UTF-8 text") from None


def _read_rows(path: str, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The JSON arrays of file ``name``, one per line, as one uint64 column,
    line after line, and each line's count (int64).  A line that is not an
    array of integers in [0, 2^64) (JSON's true and false are not integers)
    is refused."""
    rows = []
    for k, line in enumerate(io.StringIO(_read_text(path, name))):
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            row = None
        if type(row) is not list:
            raise _upload_error(path, name, f"entry {k} is not a JSON array")
        if not all(type(v) is int for v in row):
            raise _upload_error(path, name, f"entry {k} holds a value that is not an integer")
        if not all(0 <= v < 1 << 64 for v in row):
            raise _upload_error(path, name, f"entry {k} holds a value outside [0, 2^64)")
        rows.append(row)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    values = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.uint64,
                         count=int(lengths.sum()))
    return values, lengths


def read_party_dir(path: str) -> PartyUpload:
    """Load what ``write_party_dir`` wrote.  What cannot become the upload's
    arrays is refused with ``StageError("upload", …)``: a file that cannot
    be read or parsed, a records.enc or digests.enc line that is not a JSON
    array of integers in [0, 2^64) (JSON's true and false included),
    digest lines of different widths, and id-map rows out of order or
    without a record id.  ``validate_uploads`` judges the rest: the record
    and digest counts, the band width, and the containers."""
    try:
        manifest = json.loads(_read_text(path, "manifest"))
    except json.JSONDecodeError:
        manifest = None
    if not isinstance(manifest, dict):
        raise _upload_error(path, "manifest", "is not a JSON object")
    containers, lengths = _read_rows(path, "records.enc")
    values, widths = _read_rows(path, "digests.enc")
    ragged = np.flatnonzero(widths != widths[:1])
    if len(ragged):
        raise _upload_error(path, "digests.enc", f"entry {ragged[0]} holds {widths[ragged[0]]} "
                                                 f"bands, not {widths[0]}")
    digests = values.reshape(len(widths), int(widths[0]) if len(widths) else 0)
    id_map = []
    lines = io.StringIO(_read_text(path, "idmap.csv"))
    next(lines, None)
    for k, line in enumerate(lines):
        row, comma, rid = line.rstrip("\n").partition(",")
        if not comma:
            raise _upload_error(path, "idmap.csv", f"entry {k} holds no record id")
        if row != str(k):
            raise _upload_error(path, "idmap.csv", f"entry {k} holds row {row}, not {k}")
        id_map.append(rid)
    return PartyUpload(containers, lengths, digests, id_map, manifest)
