"""Data-owner-side encoding and MinHashLSH blocking.

Records are normalized, tokenized into distinct overlapping character
bigrams (8-bit characters, so each token is a 16-bit code), optionally
packed four-to-a-container, MinHash-signed with 128 seeded universal
hashes, and reduced to one FNV-1a-64 digest per band: the records x bands
digest matrix that an owner uploads encrypted.  Two records share a
blocking key exactly when they agree on some band's digest; the key ->
rows index (``block_index``) is the same relation in the clear, for the
non-private oracle.  An owner's records go through each step together, as
whole-array passes; the one-record functions are their one-item cases.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .backends.base import slot_runs, tagged_rng

TOKEN_BITS = 16
PACKS = (1, 4)  # the packing factors: codes per container
PAD_CHAR = " "

# universal-hash modulus: prime above 2^32, keeps a*x+b inside uint64
_MERSENNE_PRIME = 4294967311
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# owner-side temporaries stay within _CHUNK_ELEMS elements: MinHash signs
# spans of up to _SPAN_TOKENS tokens, _CHUNK_ELEMS // _SPAN_TOKENS = 16
# permutations at a time (fewer for one larger set), so a small corpus's
# temporaries stay small too
_CHUNK_ELEMS = 1 << 19
_SPAN_TOKENS = 1 << 15


@dataclass(frozen=True)
class TokenSet:
    """A record id plus its distinct 16-bit bigram codes."""
    record_id: str
    tokens: frozenset[int]

    def sorted_tokens(self) -> list[int]:
        return sorted(self.tokens)


def normalize_text(fields: dict[str, str], order: list[str]) -> str:
    """Lowercased concatenation of the configured fields, space separated."""
    return " ".join(str(fields.get(name, "")).lower() for name in order)


def bigram_codes(texts: list[str], record_ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct overlapping bigrams of many normalized texts at once: every
    record's codes in ascending order, record after record (uint64), and
    each record's count (int64).

    Characters must fit 8 bits; a bigram code is first*256 + second.  Empty
    or single-character text yields one space-padded bigram.  A text with a
    wider character raises ``ValueError`` naming the first such record.
    All texts are encoded as one latin-1 byte string; the pairs that cross
    a record boundary are dropped, and one sort of row<<16 | code orders
    every record's codes and puts its repeats side by side."""
    padded = [t if len(t) >= 2 else (t + PAD_CHAR * 2)[:2] for t in texts]
    joined = "".join(padded)
    try:
        data = np.frombuffer(joined.encode("latin-1"), dtype=np.uint8)
    except UnicodeEncodeError as exc:
        # padding only appends, so the first wide character is in the
        # first record whose padded text reaches past exc.start
        row = bisect.bisect_right(list(itertools.accumulate(map(len, padded))), exc.start)
        raise ValueError(f"non-8-bit character {joined[exc.start]!r} in "
                         f"{record_ids[row] or texts[row]!r}") from None
    lengths = np.fromiter(map(len, padded), dtype=np.int64, count=len(padded))
    pairs = (data[:-1].astype(np.int64) << 8) | data[1:]
    rows = np.repeat(np.arange(len(padded), dtype=np.int64), lengths - 1)
    inside = np.ones(len(pairs), dtype=bool)
    inside[np.cumsum(lengths)[:-1] - 1] = False
    keys = np.sort((rows << TOKEN_BITS) | pairs[inside])
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    codes = (keys & ((1 << TOKEN_BITS) - 1)).astype(np.uint64)
    return codes, np.bincount(keys >> TOKEN_BITS, minlength=len(padded))


def tokenize_bigrams(text: str, record_id: str = "") -> TokenSet:
    """Distinct overlapping bigrams of one normalized text (see
    ``bigram_codes``)."""
    codes, _ = bigram_codes([text], [record_id])
    return TokenSet(record_id, frozenset(codes.tolist()))


def pack_records(codes: np.ndarray, lengths, pack: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Encode many records at once from their ascending token codes, record
    after record (as ``bigram_codes`` gives them): every record's
    containers, record after record (uint64), and each record's count
    ceil(lengths[k]/pack) (int64).  pack=4 packs four codes big-endian per
    container (zero padded); pack=1 keeps exact set semantics."""
    if pack not in PACKS:
        raise ValueError(f"packing factor must be one of {PACKS}, not {pack}")
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    counts = -(-lengths // pack)
    if pack == 1:
        return codes, counts
    # code j of a record lands in slot j of its record's first container
    shift = np.cumsum(lengths - pack * counts) - (lengths - pack * counts)
    slots = np.zeros((int(counts.sum()), pack), dtype=np.uint64)
    slots.reshape(-1)[np.arange(len(codes)) - np.repeat(shift, lengths)] = codes
    containers = slots[:, 0]
    for j in range(1, pack):
        containers = (containers << np.uint64(TOKEN_BITS)) | slots[:, j]
    return containers, counts


def pack_tokens(tokens: TokenSet, pack: int = 1) -> tuple[int, ...]:
    """The ceil(|tokens|/k) containers of one record's ascending token codes
    (see ``pack_records``)."""
    codes = tokens.sorted_tokens()
    return tuple(pack_records(codes, [len(codes)], pack)[0].tolist())


class MinHasher:
    """128 seeded universal hashes (a*x + b mod p); the signature keeps the
    minimum of each hash over the token codes."""

    def __init__(self, num_perm: int = 128, seed: int = 1):
        self.num_perm = num_perm
        self.seed = seed
        rng = tagged_rng("minhash", seed)
        self.a = rng.integers(1, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)

    def signatures(self, codes, lengths) -> np.ndarray:
        """Signatures of many token sets at once, as a (sets, num_perm)
        uint64 array: set k is the next ``lengths[k]`` values of the flat
        ``codes``.  Only the distinct codes of a span of sets are hashed;
        the hashes are gathered per token and reduced per set.  Spans and
        permutation chunks keep every temporary within _CHUNK_ELEMS
        elements (a span holds at most _SPAN_TOKENS tokens, or one larger
        set).  An empty set signs as p-1 in every slot."""
        codes = np.asarray(codes, dtype=np.uint64)
        lengths = np.asarray(lengths, dtype=np.int64)
        out = np.full((self.num_perm, len(lengths)), _MERSENNE_PRIME - 1, dtype=np.uint64)
        ends = np.cumsum(lengths)
        for run in slot_runs(lengths, _SPAN_TOKENS):
            lo, hi = run.start, run.stop
            first = int(ends[lo] - lengths[lo])
            full = np.flatnonzero(lengths[lo:hi]) + lo
            if len(full):
                distinct, inv = np.unique(codes[first:int(ends[hi - 1])], return_inverse=True)
                starts = (ends[full] - lengths[full]) - first
                step = max(1, _CHUNK_ELEMS // max(_SPAN_TOKENS, len(inv)))
                for p in range(0, self.num_perm, step):
                    a, b = self.a[p:p + step, None], self.b[p:p + step, None]
                    table = (a * distinct + b) % np.uint64(_MERSENNE_PRIME)
                    out[p:p + step, full] = np.minimum.reduceat(
                        np.take(table, inv, axis=1), starts, axis=1)
        return np.ascontiguousarray(out.T)

    def signature(self, tokens) -> np.ndarray:
        """Signature of one token set (see ``signatures``)."""
        values = tokens.tokens if isinstance(tokens, TokenSet) else tokens
        codes = np.fromiter(values, dtype=np.uint64)
        return self.signatures(codes, [len(codes)])[0]

    def estimate_similarity(self, sig1: np.ndarray, sig2: np.ndarray) -> float:
        return float((sig1 == sig2).mean())


@dataclass(frozen=True)
class BandPlan:
    """LSH layout.  ``bands`` is the number of blocking keys per record;
    ``rows`` is the number of signature slots hashed into each key (the
    blocking key size).  The reference figures 28/25/9 for thresholds
    0.2/0.5/0.8 are ``bands``; the matching ``rows`` are 2/5/13."""
    bands: int
    rows: int
    num_perm: int = 128
    fp_weight: float = 0.5
    fn_weight: float = 0.5
    objective: float = 0.0

    def __post_init__(self):
        if self.bands < 1 or self.rows < 1:
            raise ValueError("bands and rows must be positive")
        if self.bands * self.rows > self.num_perm:
            raise ValueError("bands*rows exceeds the number of permutations")


def collision_probability(similarity: float, plan: BandPlan) -> float:
    """Chance two records of the given Jaccard similarity share a key."""
    return 1.0 - (1.0 - similarity ** plan.rows) ** plan.bands


# midpoint rule over the LSH S-curve, matching the step the band plan
# figures were produced with
_CURVE_STEP = 0.001


def _weighted_error(threshold: float, bands: int, rows: int,
                    fp_weight: float, fn_weight: float) -> float:
    s = np.arange(_CURVE_STEP / 2, 1.0, _CURVE_STEP)
    p = 1.0 - (1.0 - s ** float(rows)) ** float(bands)
    below = s < threshold
    fp = p[below].sum() * _CURVE_STEP
    fn = (1.0 - p[~below]).sum() * _CURVE_STEP
    return fp_weight * fp + fn_weight * fn


@functools.lru_cache
def optimal_band_plan(threshold: float, num_perm: int = 128,
                      fp_weight: float = 0.5, fn_weight: float = 0.5) -> BandPlan:
    """Exhaustive (bands, rows) search with bands*rows <= num_perm,
    minimizing the weighted false-positive/false-negative area.  The search
    is a pure function of its arguments, so it runs once per process and
    argument tuple; callers share the frozen plan."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("blocking threshold must lie strictly between 0 and 1")
    if num_perm < 1:
        raise ValueError("num_perm must be at least 1")
    # a NaN, infinite or negative weight, or two zero ones, once picked a
    # degenerate plan (1 x 1, or 128 x 1) that blocked and linked on it
    weights = (fp_weight, fn_weight)
    if not all(math.isfinite(w) and w >= 0 for w in weights) or sum(weights) == 0:
        raise ValueError(f"band plan weights must be finite, non-negative and not both 0, "
                         f"not {fp_weight} and {fn_weight}")
    best = None
    for bands in range(1, num_perm + 1):
        for rows in range(1, num_perm // bands + 1):
            err = _weighted_error(threshold, bands, rows, fp_weight, fn_weight)
            if best is None or err < best[0]:
                best = (err, bands, rows)
    err, bands, rows = best
    return BandPlan(bands, rows, num_perm, fp_weight, fn_weight, objective=err)


def band_digests(signatures: np.ndarray, plan: BandPlan) -> np.ndarray:
    """FNV-1a-64 of each band's signature slots, read as their native bytes,
    for a C-contiguous (records, slots) signature stack: a (records, bands)
    uint64 array.  The hash steps through the byte columns of all records
    and bands at once (uint64 products wrap, as FNV-1a's do mod 2^64)."""
    width = plan.rows * signatures.itemsize
    data = signatures.view(np.uint8)[:, :plan.bands * width].reshape(
        len(signatures), plan.bands, width)
    digest = np.full(data.shape[:2], _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for col in range(width):
        digest ^= data[:, :, col]
        digest *= prime
    return digest


def digest_index(digests: np.ndarray) -> dict[str, list[int]]:
    """Inverted index of a (records, bands) digest matrix: blocking key ->
    0-based record rows (the row order is the upload order), keys in the
    order they first occur, record by record and band by band.  A key is
    the band index plus the band's digest, hex encoded."""
    index: dict[str, list[int]] = {}
    for row, digests_of_row in enumerate(np.asarray(digests, dtype=np.uint64).tolist()):
        for band, digest in enumerate(digests_of_row):
            index.setdefault(f"{band:03d}-{digest:016x}", []).append(row)
    return index


def block_index(signatures: np.ndarray, plan: BandPlan) -> dict[str, list[int]]:
    """Owner-side inverted index from a (records, slots) signature stack
    (see ``digest_index``)."""
    return digest_index(band_digests(np.ascontiguousarray(signatures), plan))


def band_keys(signature: np.ndarray, plan: BandPlan) -> list[str]:
    """One public key per band, in band order (see ``block_index``)."""
    return list(block_index(np.asarray(signature)[None, :], plan))


def build_block_index(token_sets: list[TokenSet], plan: BandPlan,
                      hasher: MinHasher) -> dict[str, list[int]]:
    """Owner-side inverted index of token sets (see ``block_index``)."""
    codes = np.fromiter(itertools.chain.from_iterable(t.tokens for t in token_sets),
                        dtype=np.uint64)
    return block_index(hasher.signatures(codes, [len(t.tokens) for t in token_sets]), plan)
