"""Additive 3-way secret sharing over wrapping 64-bit integers.

A secret x splits into components (s0, s1, s2) with s0+s1+s2 = x (mod 2^64);
any two components are uniform and independent of x.  Multiplication uses
dealer-generated Beaver triples (a, b, c=a*b): parties open the masked
values d = x-a and e = y-b and combine c + d*b + e*a + d*e share-locally,
for each bilinear form (mul, dot, outer, vecmat, matmul) of the backends'
kernel table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..backends.base import KERNELS, PRODUCT_SHAPES

U64 = np.uint64
FULL_RANGE = 1 << 64


def rand_u64(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, FULL_RANGE, size=shape, dtype=np.uint64)


def share3(value: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two uniform components plus the correcting third.  Both random
    components come from one draw: full-range draws split the stream
    exactly, so they are the words two draws of the value's shape give."""
    value = np.asarray(value, dtype=np.uint64)
    words = rand_u64(rng, (2,) + value.shape)
    s0, s1 = words[0, ...], words[1, ...]
    # ufuncs wrap mod 2^64 without overflow warnings, even on scalars
    s2 = np.subtract(np.subtract(value, s0), s1)
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
    """Dealer-side triple generation for one bilinear operation.  All its
    randomness is one draw: full-range draws split the stream exactly, so
    the words are those of drawing a, then b, then sharing a, b and c with
    ``share3`` in turn."""
    shapes = (shape_a, shape_b, PRODUCT_SHAPES[op](shape_a, shape_b))
    na, nb, nc = (math.prod(s) for s in shapes)
    words = rand_u64(rng, 3 * na + 3 * nb + 2 * nc)
    a = words[:na].reshape(shape_a)
    b = words[na:na + nb].reshape(shape_b)
    parts, lo = [], na + nb
    for value, shape, n in zip((a, b, KERNELS[op](a, b)), shapes, (na, nb, nc)):
        s0 = words[lo:lo + n].reshape(shape)
        s1 = words[lo + n:lo + 2 * n].reshape(shape)
        parts.append((s0, s1, np.subtract(np.subtract(value, s0), s1)))
        lo += 2 * n
    return [BeaverTriple(*(p[i] for p in parts)) for i in range(3)]


def beaver_combine(op: str, pid: int, triple: BeaverTriple,
                   d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Party-local share of x*y from the opened maskings d = x-a, e = y-b.
    The sums are ufunc calls, which wrap without overflow warnings."""
    form = KERNELS[op]
    z = np.add(np.add(triple.c, form(d, triple.b)), form(triple.a, e))
    if pid == 0:
        z = np.add(z, form(d, e))
    return z
