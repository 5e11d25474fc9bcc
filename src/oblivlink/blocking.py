"""Data-owner-side encoding and MinHashLSH blocking.

Records are normalized, tokenized into distinct overlapping character
bigrams (8-bit characters, so each token is a 16-bit code), optionally
packed four-to-a-container, MinHash-signed with 128 seeded universal
hashes, and indexed under per-band blocking keys.  Blocking keys are public
by design; the record-id vectors they map to are encrypted before leaving
the owner.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .backends.base import tagged_rng
from .machine import Machine, PrivateVector

TOKEN_BITS = 16
TOKEN_RANGE = (0, 1 << TOKEN_BITS)
PAD_CHAR = " "

# universal-hash modulus: prime above 2^32, keeps a*x+b inside uint64
_MERSENNE_PRIME = 4294967311
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


@dataclass(frozen=True)
class TokenSet:
    """A record id plus its distinct 16-bit bigram codes."""
    record_id: str
    tokens: frozenset[int]

    def sorted_tokens(self) -> list[int]:
        return sorted(self.tokens)


@dataclass(frozen=True)
class EncodedRecord:
    """Token codes packed into 64-bit containers (k tokens per container)."""
    record_id: str
    containers: tuple[int, ...]
    pack: int


def normalize_text(fields: dict[str, str], order: list[str], sep: str = " ") -> str:
    """Lowercased concatenation of the configured fields."""
    return sep.join(str(fields.get(name, "")).lower() for name in order)


def tokenize_bigrams(text: str, record_id: str = "") -> TokenSet:
    """Distinct overlapping bigrams of normalized text.

    Characters must fit 8 bits; a bigram code is first*256 + second.  Empty
    or single-character text yields one space-padded bigram.
    """
    for ch in text:
        if ord(ch) > 0xFF:
            raise ValueError(f"non-8-bit character {ch!r} in {record_id or text!r}")
    if len(text) < 2:
        text = (text + PAD_CHAR * 2)[:2]
    codes = {(ord(text[i]) << 8) | ord(text[i + 1]) for i in range(len(text) - 1)}
    return TokenSet(record_id, frozenset(codes))


def pack_tokens(tokens: TokenSet, pack: int = 1) -> EncodedRecord:
    """ceil(|tokens|/k) containers from the ascending token codes; k=4 packs
    four codes big-endian per container (zero padded), k=1 keeps exact
    set semantics."""
    if pack not in (1, 4):
        raise ValueError("packing factor must be 1 or 4")
    codes = tokens.sorted_tokens()
    if pack == 1:
        return EncodedRecord(tokens.record_id, tuple(codes), 1)
    containers = []
    for i in range(0, len(codes), pack):
        chunk = codes[i:i + pack]
        value = 0
        for j in range(pack):
            value = (value << TOKEN_BITS) | (chunk[j] if j < len(chunk) else 0)
        containers.append(value)
    return EncodedRecord(tokens.record_id, tuple(containers), pack)


class MinHasher:
    """128 seeded universal hashes (a*x + b mod p); the signature keeps the
    minimum of each hash over the token codes."""

    def __init__(self, num_perm: int = 128, seed: int = 1):
        self.num_perm = num_perm
        self.seed = seed
        rng = tagged_rng("minhash", seed)
        self.a = rng.integers(1, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)

    def signature(self, tokens) -> np.ndarray:
        values = tokens.tokens if isinstance(tokens, TokenSet) else tokens
        if not values:
            return np.full(self.num_perm, _MERSENNE_PRIME - 1, dtype=np.uint64)
        x = np.fromiter(values, dtype=np.uint64)
        hashed = (self.a[:, None] * x[None, :] + self.b[:, None]) % np.uint64(_MERSENNE_PRIME)
        return hashed.min(axis=1)

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


def _weighted_error(threshold: float, bands: int, rows: int,
                    fp_weight: float, fn_weight: float, step: float = 0.001) -> float:
    # midpoint rule over the LSH S-curve, matching the step the band plan
    # figures were produced with
    s = np.arange(step / 2, 1.0, step)
    p = 1.0 - (1.0 - s ** float(rows)) ** float(bands)
    below = s < threshold
    fp = p[below].sum() * step
    fn = (1.0 - p[~below]).sum() * step
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
    best = None
    for bands in range(1, num_perm + 1):
        for rows in range(1, num_perm // bands + 1):
            err = _weighted_error(threshold, bands, rows, fp_weight, fn_weight)
            if best is None or err < best[0]:
                best = (err, bands, rows)
    err, bands, rows = best
    return BandPlan(bands, rows, num_perm, fp_weight, fn_weight, objective=err)


def _band_digests(signatures: np.ndarray, plan: BandPlan) -> np.ndarray:
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


def _keys(digests: np.ndarray) -> list[str]:
    return [f"{band:03d}-{digest:016x}" for band, digest in enumerate(digests.tolist())]


def band_keys(signature: np.ndarray, plan: BandPlan) -> list[str]:
    """One public key per band: band index plus a stable 64-bit hash of the
    band's signature slots, hex encoded."""
    return _keys(_band_digests(np.ascontiguousarray(signature)[None, :], plan)[0])


def build_block_index(token_sets: list[TokenSet], plan: BandPlan,
                      hasher: MinHasher) -> dict[str, list[int]]:
    """Owner-side inverted index: blocking key -> 0-based record rows (the
    row order is the upload order)."""
    signatures = np.empty((len(token_sets), hasher.num_perm), dtype=np.uint64)
    for row, tokens in enumerate(token_sets):
        signatures[row] = hasher.signature(tokens)
    index: dict[str, list[int]] = {}
    for row, digests in enumerate(_band_digests(signatures, plan)):
        for key in _keys(digests):
            index.setdefault(key, []).append(row)
    return index


def encrypt_blocks(index: dict[str, list[int]], mach: Machine) -> dict[str, PrivateVector]:
    """Encrypt each key's record-id vector before it leaves the owner: all
    keys in one pass, in key order, one ``enc`` per key in the ledger."""
    keys = sorted(index)
    vectors = mach.enc_runs([row for key in keys for row in index[key]],
                            [len(index[key]) for key in keys])
    return dict(zip(keys, vectors))


def build_blocks(token_sets: list[TokenSet], plan: BandPlan, hasher: MinHasher,
                 mach: Machine) -> dict[str, PrivateVector]:
    return encrypt_blocks(build_block_index(token_sets, plan, hasher), mach)
