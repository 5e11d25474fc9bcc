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

import itertools

import numpy as np

from .base import (APPROX, CAPS_ALL, CAPS_SHAREMIND, CAPS_SIMD, EXACT, KERNELS, ROLE_HOST,
                   XI_DEFAULT, Backend, lift_signed, to_u64)


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

    def enc_runs(self, flat, lengths: list[int]) -> list[np.ndarray]:
        # one coercion; each run's payload is a slice of it
        payload = self._coerce(flat)
        ends = list(itertools.accumulate(lengths))
        return [payload[hi - n:hi] for n, hi in zip(lengths, ends)]

    def dec(self, payload: np.ndarray):
        if self.domain == EXACT:
            return lift_signed(payload)
        return payload.tolist()

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

    def join_counts(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        return self._coerce([len(np.intersect1d(a, b, assume_unique=True)) for a, b in pairs])

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
