"""Synthetic census-style corpus generation and the evaluation metrics.

The generator produces original records and zipf-distributed duplicates with
bounded typo/ocr/phonetic corruption, splits them 20/80 across the two data
owners, and keeps the generation lineage as the gold standard.  The metric
suite covers pairs completeness, reduction ratio, their F-score, and
match precision/recall, all against that gold standard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .backends.base import tagged_rng
from .blocking import (BandPlan, MinHasher, TokenSet, build_block_index, normalize_text,
                       optimal_band_plan, tokenize_bigrams)

DEFAULT_FIELDS = ["given_name", "surname", "street_number", "address",
                  "suburb", "postcode", "state"]

_GIVEN_NAMES = [
    "peter", "bruce", "tony", "amelia", "sophie", "lucas", "oliver", "mia",
    "jack", "grace", "noah", "ruby", "ethan", "chloe", "liam", "zoe",
    "henry", "isla", "leo", "evie", "max", "freya", "oscar", "poppy",
    "samuel", "daisy", "toby", "alice", "felix", "clara", "hugo", "nina",
    "rory", "tessa", "angus", "marta", "cedric", "ingrid", "basil", "vera",
]

_SURNAMES = [
    "smith", "jones", "williams", "brown", "wilson", "taylor", "johnson",
    "white", "martin", "anderson", "thompson", "nguyen", "ryan", "walker",
    "harris", "lewis", "clarke", "robinson", "kelly", "young", "baker",
    "hill", "wright", "scott", "green", "adams", "carter", "turner",
    "phillips", "campbell", "mitchell", "stewart", "morris", "murphy",
    "cook", "rogers", "bennett", "gray", "james", "watson",
]

_STREETS = [
    "acacia avenue", "banksia street", "coolabah road", "derby lane",
    "eucalypt drive", "fern court", "grevillea place", "hakea crescent",
    "ironbark way", "jacaranda terrace", "kurrajong street", "lilly pilly road",
    "melaleuca drive", "nandina court", "olearia street", "paperbark lane",
    "quandong place", "rosella road", "sheoak avenue", "telopea street",
    "waratah crescent", "wattle grove", "yarran way", "boronia close",
]

_SUBURBS = [
    "ashfield", "belmont", "carlton", "dapto", "emerald", "fairfield",
    "glenroy", "hurstville", "ivanhoe", "jannali", "kingswood", "lakemba",
    "mitcham", "northcote", "oatley", "penrith", "queanbeyan", "richmond",
    "stanmore", "toorak",
]

_STATES = ["nsw", "vic", "qld", "wa", "sa", "tas", "act", "nt"]

_QWERTY_NEIGHBOURS = {
    "a": "qwsz", "b": "vghn", "c": "xdfv", "d": "serfcx", "e": "wsdr",
    "f": "drtgvc", "g": "ftyhbv", "h": "gyujnb", "i": "ujko", "j": "huikmn",
    "k": "jiolm", "l": "pok", "m": "njk", "n": "bhjm", "o": "iklp",
    "p": "ol", "q": "wsa", "r": "edft", "s": "wedxza", "t": "rfgy",
    "u": "yhji", "v": "cfgb", "w": "qase", "x": "zsdc", "y": "tghu",
    "z": "asx",
}

_OCR_CONFUSIONS = {
    "o": "0", "0": "o", "s": "5", "5": "s", "l": "1", "1": "l",
    "b": "8", "8": "b", "z": "2", "2": "z",
}

_PHONETIC_REWRITES = [
    ("ph", "f"), ("ck", "k"), ("gh", "g"), ("th", "t"), ("sh", "s"),
    ("mb", "m"), ("ee", "i"), ("oo", "u"),
]


@dataclass
class CorruptionProfile:
    """dsgen-style corruption bounds.

    Duplicate counts per original follow a truncated zipf; the number of
    modifications per duplicate is zipf-shaped as well (light corruption is
    the common case, the per-record maximum the rare one).
    """
    max_duplicates: int = 5
    max_mods_per_field: int = 5
    max_mods_per_record: int = 5
    zipf_exponent: float = 1.0
    mod_zipf_exponent: float = 2.0
    kinds: tuple[str, ...] = ("typo", "ocr", "phonetic")


@dataclass(frozen=True)
class Record:
    record_id: str
    fields: dict
    entity: int  # generation lineage, not visible to the linkage pipeline

    def text(self) -> str:
        return normalize_text(self.fields, DEFAULT_FIELDS)

    def token_set(self) -> TokenSet:
        return tokenize_bigrams(self.text(), self.record_id)

    def to_json(self) -> str:
        return json.dumps({"id": self.record_id, "fields": self.fields}, sort_keys=True)


@dataclass(frozen=True)
class GoldStandard:
    """True cross-dataset pairs, derived from lineage."""
    pairs: frozenset

    def __len__(self):
        return len(self.pairs)


# -- corruption operators ---------------------------------------------------

def _typo(value: str, rng) -> str:
    if not value:
        return value
    action = rng.choice(["substitute", "insert", "delete", "transpose"])
    i = int(rng.integers(0, len(value)))
    ch = value[i]
    if action == "transpose" and len(value) >= 2:
        i = min(i, len(value) - 2)
        return value[:i] + value[i + 1] + value[i] + value[i + 2:]
    if action == "delete" and len(value) >= 2:
        return value[:i] + value[i + 1:]
    if ch.isdigit():
        repl = str(rng.integers(0, 10))
    else:
        pool = _QWERTY_NEIGHBOURS.get(ch.lower(), "abcdefghijklmnopqrstuvwxyz")
        repl = pool[int(rng.integers(0, len(pool)))]
    if action == "insert":
        return value[:i] + repl + value[i:]
    return value[:i] + repl + value[i + 1:]


def _ocr(value: str, rng) -> str | None:
    spots = [i for i, ch in enumerate(value) if ch in _OCR_CONFUSIONS]
    if not spots:
        return None
    i = spots[int(rng.integers(0, len(spots)))]
    return value[:i] + _OCR_CONFUSIONS[value[i]] + value[i + 1:]


def _phonetic(value: str, rng) -> str | None:
    options = [(pat, rep) for pat, rep in _PHONETIC_REWRITES if pat in value]
    if not options:
        return None
    pat, rep = options[int(rng.integers(0, len(options)))]
    return value.replace(pat, rep, 1)


def _zipf_truncated(max_value: int, exponent: float, rng) -> int:
    ks = np.arange(1, max_value + 1)
    weights = 1.0 / ks ** exponent
    return int(rng.choice(ks, p=weights / weights.sum()))


def _corrupt_record(fields: dict, profile: CorruptionProfile, rng) -> dict:
    out = dict(fields)
    per_field: dict[str, int] = {}
    total = _zipf_truncated(profile.max_mods_per_record, profile.mod_zipf_exponent, rng)
    applied = 0
    attempts = 0
    names = list(out)
    while applied < total and attempts < 10 * total:
        attempts += 1
        name = names[int(rng.integers(0, len(names)))]
        if per_field.get(name, 0) >= profile.max_mods_per_field:
            continue
        kind = profile.kinds[int(rng.integers(0, len(profile.kinds)))]
        if kind == "typo":
            new = _typo(out[name], rng)
        elif kind == "ocr":
            new = _ocr(out[name], rng)
        else:
            new = _phonetic(out[name], rng)
        if new is None or new == out[name]:
            continue
        out[name] = new
        per_field[name] = per_field.get(name, 0) + 1
        applied += 1
    return out


def _zipf_duplicates(profile: CorruptionProfile, rng) -> int:
    return _zipf_truncated(profile.max_duplicates, profile.zipf_exponent, rng)


def _fresh_entity(rng, used: set) -> dict:
    while True:
        fields = {
            "given_name": _GIVEN_NAMES[int(rng.integers(0, len(_GIVEN_NAMES)))],
            "surname": _SURNAMES[int(rng.integers(0, len(_SURNAMES)))],
            "street_number": str(int(rng.integers(1, 1000))),
            "address": _STREETS[int(rng.integers(0, len(_STREETS)))],
            "suburb": _SUBURBS[int(rng.integers(0, len(_SUBURBS)))],
            "postcode": str(int(rng.integers(2000, 8000))),
            "state": _STATES[int(rng.integers(0, len(_STATES)))],
        }
        key = (fields["given_name"], fields["surname"], fields["address"], fields["suburb"])
        if key not in used:
            used.add(key)
            return fields


def generate_dataset(seed: int = 0, size: int = 100, split: float = 0.2,
                     profile: CorruptionProfile | None = None,
                     with_modifications: bool = True):
    """Originals plus corrupted duplicates, split across two owners.

    Returns (d1_records, d2_records, gold) where gold holds every true
    cross-dataset pair by lineage.  ``with_modifications=False`` emits
    duplicates identical to their originals.
    """
    profile = profile or CorruptionProfile()
    rng = tagged_rng("dataset", seed)
    used: set = set()
    records: list[Record] = []
    entity = 0
    while len(records) < size:
        fields = _fresh_entity(rng, used)
        records.append(Record(f"rec-{entity:03d}-org", fields, entity))
        n_dup = _zipf_duplicates(profile, rng)
        for j in range(n_dup):
            if len(records) >= size:
                break
            dup_fields = _corrupt_record(fields, profile, rng) if with_modifications else dict(fields)
            records.append(Record(f"rec-{entity:03d}-dup-{j}", dup_fields, entity))
        entity += 1
    records = records[:size]
    order = rng.permutation(len(records))
    n1 = int(round(size * split))
    d1 = [records[i] for i in order[:n1]]
    d2 = [records[i] for i in order[n1:]]
    # the gold pairs: each D1 record with every D2 record of its entity
    by_entity: dict[int, list[str]] = {}
    for b in d2:
        by_entity.setdefault(b.entity, []).append(b.record_id)
    pairs = frozenset((a.record_id, b_id) for a in d1 for b_id in by_entity.get(a.entity, ()))
    return d1, d2, GoldStandard(pairs)


# -- cleartext oracle --------------------------------------------------------

def jaccard_fraction(t1: TokenSet, t2: TokenSet) -> Fraction:
    inter = len(t1.tokens & t2.tokens)
    union = len(t1.tokens | t2.tokens)
    return Fraction(inter, union) if union else Fraction(0)


def plain_matches(d1: list[Record], d2: list[Record], threshold: Fraction) -> set:
    """Non-private ER oracle: exact rational Jaccard with strict >."""
    threshold = Fraction(threshold)
    t1 = [r.token_set() for r in d1]
    t2 = [r.token_set() for r in d2]
    return {
        (a.record_id, b.record_id)
        for a, ta in zip(d1, t1) for b, tb in zip(d2, t2)
        if jaccard_fraction(ta, tb) > threshold
    }


def plain_blocked_pairs(d1: list[Record], d2: list[Record], plan: BandPlan,
                        hasher: MinHasher) -> set:
    """Non-private blocking oracle: cross pairs sharing at least one key."""
    def index(records):
        rows = build_block_index([r.token_set() for r in records], plan, hasher)
        return {key: [records[row].record_id for row in ids] for key, ids in rows.items()}

    return shared_key_pairs(index(d1), index(d2))


def shared_key_pairs(index1: dict, index2: dict) -> set:
    """Every cross pair (a, b) of two inverted indexes that lists a and b
    under one key."""
    pairs = set()
    for key, ids1 in index1.items():
        ids2 = index2.get(key)
        if not ids2:
            continue
        for a in ids1:
            for b in ids2:
                pairs.add((a, b))
    return pairs


# -- metrics -------------------------------------------------------------------

@dataclass
class MetricsReport:
    pairs_completeness: float
    reduction_ratio: float
    fscore: float
    precision: float
    recall: float
    total_pairs: int
    blocked_pairs: int
    matched_pairs: int
    true_pairs: int

    def csv_row(self) -> str:
        return (f"{self.pairs_completeness:.6f},{self.reduction_ratio:.6f},"
                f"{self.fscore:.6f},{self.precision:.6f},{self.recall:.6f},"
                f"{self.total_pairs},{self.blocked_pairs},{self.matched_pairs},"
                f"{self.true_pairs}")

    CSV_HEADER = ("pairs_completeness,reduction_ratio,fscore,precision,recall,"
                  "total_pairs,blocked_pairs,matched_pairs,true_pairs")


def compute_metrics(gold: GoldStandard, blocked: set, matched: set,
                    total_pairs: int) -> MetricsReport:
    """PC = |M∩T'|/|M|, RR = 1 - |T'|/|T|, F their harmonic mean, plus
    match precision/recall against the gold standard."""
    m = len(gold.pairs)
    pc = len(gold.pairs & blocked) / m if m else 1.0
    rr = 1.0 - (len(blocked) / total_pairs if total_pairs else 0.0)
    fscore = 2 * pc * rr / (pc + rr) if (pc + rr) else 0.0
    tp = len(matched & gold.pairs)
    precision = tp / len(matched) if matched else 0.0
    recall = tp / m if m else 0.0
    return MetricsReport(pc, rr, fscore, precision, recall,
                         total_pairs, len(blocked), len(matched), m)


def performance_sweep(d1: list[Record], d2: list[Record], gold: GoldStandard,
                      thresholds=None, num_perm: int = 128,
                      minhash_seed: int = 1) -> list[dict]:
    """Cleartext blocking + ER sweep; one row per threshold."""
    thresholds = thresholds if thresholds is not None else [round(0.1 * k, 1) for k in range(1, 10)]
    hasher = MinHasher(num_perm, minhash_seed)
    total = len(d1) * len(d2)
    rows = []
    for t in thresholds:
        plan = optimal_band_plan(t, num_perm)
        blocked = plain_blocked_pairs(d1, d2, plan, hasher)
        matched = plain_matches(d1, d2, Fraction(t).limit_denominator(1000))
        report = compute_metrics(gold, blocked, matched, total)
        rows.append({"threshold": t, "bands": plan.bands, "rows": plan.rows,
                     "report": report})
    return rows
