"""Additive 3-way secret sharing over wrapping 64-bit integers.

A secret x splits into components (s0, s1, s2) with s0+s1+s2 = x (mod 2^64);
any two components are uniform and independent of x.  Multiplication uses
dealer-generated Beaver triples (a, b, c=a*b): parties open the masked
values d = x-a and e = y-b and combine c + d*b + e*a + d*e share-locally,
for each bilinear form (mul, dot, outer, vecmat, matmul) of the backends'
kernel table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.base import KERNELS

U64 = np.uint64
FULL_RANGE = 1 << 64


def rand_u64(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, FULL_RANGE, size=shape, dtype=np.uint64)


def share3(value: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two uniform components plus the correcting third."""
    value = np.asarray(value, dtype=np.uint64)
    s0 = rand_u64(rng, value.shape)
    s1 = rand_u64(rng, value.shape)
    with np.errstate(over="ignore"):
        s2 = value - s0 - s1
    return s0, s1, s2


def reconstruct3(components) -> np.ndarray:
    with np.errstate(over="ignore"):
        total = np.zeros_like(np.asarray(components[0], dtype=np.uint64))
        for c in components:
            total = total + np.asarray(c, dtype=np.uint64)
    return total


@dataclass
class BeaverTriple:
    """Per-party triple components; consumed by exactly one multiplication."""
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def make_triples(op: str, shape_a, shape_b, rng: np.random.Generator) -> list[BeaverTriple]:
    """Dealer-side triple generation for one bilinear operation."""
    a = rand_u64(rng, shape_a)
    b = rand_u64(rng, shape_b)
    c = KERNELS[op](a, b)
    a_parts = share3(a, rng)
    b_parts = share3(b, rng)
    c_parts = share3(c, rng)
    return [BeaverTriple(a_parts[i], b_parts[i], c_parts[i]) for i in range(3)]


def beaver_combine(op: str, pid: int, triple: BeaverTriple,
                   d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Party-local share of x*y from the opened maskings d = x-a, e = y-b."""
    with np.errstate(over="ignore"):
        form = KERNELS[op]
        z = triple.c + form(d, triple.b) + form(triple.a, e)
        if pid == 0:
            z = z + form(d, e)
    return z
