"""The in-process backend over numpy payloads.

``SimBackend`` is the cost-accounting oblivious simulator, with capabilities
set by a platform profile.  Its ``generic`` profile has every capability and
exact results; it is the cleartext reference (the ``clear`` kind) that every
other backend and profile must match.  It performs no real encryption;
opacity is enforced at the machine layer and audited via trace/transcript.
``Machine`` defines each shared primitive and records every ledger and
trace entry; this backend only computes.  It supplies enc/dec, the three
kernel hooks, which apply the numpy kernels to the values themselves, and
its own protocols for sort, join, the masked reciprocal and approximate
equality.
"""

from __future__ import annotations

import numpy as np

from .base import (APPROX, CAPS_ALL, CAPS_SHAREMIND, CAPS_SIMD, EXACT, KERNELS, ROLE_HOST,
                   XI_DEFAULT, Backend, slot_runs, to_u64)

# The join counts its cells in ``slot_runs`` chunks of at most this many
# second-side elements, or one cell's when that is more, which bounds the
# chunk's index temporaries, about 40 bytes per element, whatever the number
# of cells; the chunks read the public lengths alone.
_JOIN_CHUNK = 1 << 15


class LocalBackend(Backend):
    """The kernel hooks over numpy values, and the optional primitives
    (sort, join, masked reciprocal, approximate equality); ``Machine`` has
    checked the capability and domain of each, and records its entries.

    Exact domain payloads are wrapping ``uint64`` arrays (two's complement
    view for signed semantics); approximate domain payloads are ``float64``.
    """

    # -- payload coercion --------------------------------------------------

    def _coerce(self, value) -> np.ndarray:
        if self.domain == EXACT:
            return to_u64(value)
        return np.asarray(value, dtype=np.float64)

    def _bits(self, bit: np.ndarray) -> np.ndarray:
        """A gate's boolean result as a payload, in one conversion."""
        return bit.astype(np.uint64 if self.domain == EXACT else np.float64)

    def _signed(self, payload: np.ndarray) -> np.ndarray:
        if self.domain == EXACT:
            return np.asarray(payload).view(np.int64)
        return payload

    # -- enc / dec -----------------------------------------------------------

    def enc(self, value) -> np.ndarray:
        return self._coerce(value)

    def dec(self, payload: np.ndarray) -> np.ndarray:
        return np.array(self._signed(payload))

    # -- the shared primitives' hooks ------------------------------------------
    # uint64 ufuncs wrap without warnings, so a linear kernel runs bare; the
    # products also silence float64 overflow, where values square

    def _linear(self, op: str, srcs, *args) -> np.ndarray:
        return KERNELS[op](*srcs, *args)

    def _bilinear(self, op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return KERNELS[op](a, b)

    def _compare(self, op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if op == "eq":
            return self._bits(a == b)
        return self._bits(self._signed(a) > self._signed(b))

    # -- optional primitives ---------------------------------------------------

    def sort(self, v: np.ndarray) -> np.ndarray:
        if self.domain == EXACT:
            return np.sort(self._signed(v)).view(np.uint64)
        return np.sort(v)

    def join_counts(self, v1: np.ndarray, len1: np.ndarray, v2: np.ndarray,
                    len2: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """|run i of v1 ∩ run j of v2| for each row (i, j) of the ``(n, 2)``
        cells, each side a flat payload cut into runs of the public lengths
        ``len1`` and ``len2``, in one array pass: side 1's distinct values
        rank every container, one boolean table marks each side-1 run's
        ranks, and each cell's side-2 ranks are looked up in its side-1 row
        and summed.  Exact for unique-entry runs in any order; cells may
        repeat and come in any order."""
        counts = np.zeros(len(cells), dtype=np.int64)
        if not len(cells):
            return self._coerce(counts)
        values, rank1 = np.unique(v1, return_inverse=True)
        # a side-2 value that side 1 lacks takes the extra, all-false rank
        distinct2, inverse2 = np.unique(v2, return_inverse=True)
        at = np.searchsorted(values, distinct2)
        if len(values):
            at[values.take(at, mode="clip") != distinct2] = len(values)
        rank2 = at[inverse2]
        width = len(values) + 1
        table = np.zeros((len(len1), width), dtype=bool)
        table[np.repeat(np.arange(len(len1)), len1), rank1] = True
        table = table.ravel()
        off2 = np.cumsum(len2) - len2
        i, j = cells[:, 0], cells[:, 1]
        n = len2[j]
        ends = np.cumsum(n)
        for run in slot_runs(n, _JOIN_CHUNK):
            lo, hi = run.start, run.stop
            nk, first = n[lo:hi], ends[lo:hi] - n[lo:hi]
            live = nk > 0
            if not live.any():
                continue
            first -= first[0]
            # flat table index of each of the chunk's side-2 elements
            key = np.repeat(off2[j[lo:hi]] - first, nk)
            key += np.arange(len(key))
            key = rank2[key]
            key += np.repeat(i[lo:hi] * width, nk)
            counts[lo:hi][live] = np.add.reduceat(table[key], first[live], dtype=np.int64)
        return self._coerce(counts)

    # -- masked reciprocal protocol ---------------------------------------------

    def masked_reciprocal(self, x: np.ndarray) -> np.ndarray:
        """Reciprocal of a private value without a division gate.

        A data owner contributes fresh randomness r; the host (P3) decrypts
        only the product r*x, inverts it in clear, and the re-encrypted
        inverse is multiplied by enc(r) again.  The host's transcript
        therefore holds r*x, never x.  Approximate domain only.
        """
        r = self.rng.uniform(0.5, 2.0, size=x.shape)
        with np.errstate(over="ignore"):
            masked = x * r
        # the host decrypts r*x; the transcript keeps the array it reads
        self.observe(ROLE_HOST, "masked_value", masked)
        if not masked.all():
            raise ZeroDivisionError("masked reciprocal of zero")
        recip = np.divide(1.0, masked)
        with np.errstate(over="ignore"):
            recip *= r
        return recip

    def approx_eq(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise equality without a native gate, by the arithmetic
        workaround ``1 - d·(1/(d+xi))``, d = a - b, with the reciprocal
        taken by ``masked_reciprocal``.  One call in a few numpy passes,
        standing for the machine-level chain whose entries ``Machine.eeq``
        records.  ``d·(-q) + 1`` and ``1 - d·q`` are the same float64
        value, so the bits equal the chain's."""
        with np.errstate(over="ignore"):
            d = a - b
            shifted = d + XI_DEFAULT
        bits = self.masked_reciprocal(shifted)
        with np.errstate(over="ignore"):
            bits *= d
            return np.subtract(1.0, bits, out=bits)


class SimBackend(LocalBackend):
    """Oblivious simulator: profile-restricted capabilities plus cost,
    trace, and transcript accounting."""

    kind = "sim"
    # each profile's capabilities and numeric domain
    PROFILES = {
        "generic": (CAPS_ALL, EXACT),
        "simd": (CAPS_SIMD, APPROX),
        "sharemind": (CAPS_SHAREMIND, EXACT),
    }

    def __init__(self, profile: str = "generic", seed: int = 0):
        if profile not in self.PROFILES:
            raise ValueError(f"unknown profile {profile!r}; pick one of {sorted(self.PROFILES)}")
        caps, domain = self.PROFILES[profile]
        super().__init__(caps, domain, seed)
        self.profile = profile
