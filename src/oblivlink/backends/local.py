"""The in-process backend over numpy payloads.

``SimBackend`` is the cost-accounting oblivious simulator, with capabilities
set by a platform profile.  Its ``generic`` profile has every capability and
exact results; it is the cleartext reference (the ``clear`` kind) that every
other backend and profile must match.  It performs no real encryption;
opacity is enforced at the machine layer and audited via trace/transcript.
The primitives it shares with every backend are defined on ``Backend``; here
their hooks apply the numpy kernels to the values themselves.
"""

from __future__ import annotations

import itertools

import numpy as np

from .base import (APPROX, CAPS_ALL, CAPS_SHAREMIND, CAPS_SIMD, EXACT, KERNELS,
                   XI_DEFAULT, Backend, lift_signed, to_u64)


class LocalBackend(Backend):
    """The primitive layer over numpy values, and the optional primitives
    (sort, join, masked reciprocal, approximate equality).

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
        payload = self._coerce(value)
        self._record("enc", payload.shape)
        return payload

    def enc_runs(self, flat, lengths: list[int]) -> list[np.ndarray]:
        # one coercion; each run's payload is a slice of it
        payload = self._coerce(flat)
        self._record_each("enc", len(lengths), (((n,),) for n in lengths))
        ends = list(itertools.accumulate(lengths))
        return [payload[hi - n:hi] for n, hi in zip(lengths, ends)]

    def dec(self, payload: np.ndarray):
        self._record("dec", payload.shape)
        if self.domain == EXACT:
            return lift_signed(payload)
        return payload.tolist()

    # -- the shared primitives' hooks ------------------------------------------
    # uint64 ufuncs wrap without warnings, so a linear kernel runs bare; the
    # products also silence float64 overflow, where values square

    def _linear(self, op: str, srcs, shape, *args) -> np.ndarray:
        return KERNELS[op](*srcs, *args)

    def _bilinear(self, op: str, a: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
        with np.errstate(over="ignore"):
            return KERNELS[op](a, b)

    def _compare(self, op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if op == "eq":
            return self._bits(a == b)
        return self._bits(self._signed(a) > self._signed(b))

    def _rotate(self, v: np.ndarray, k: int, cyclic: bool, fill) -> np.ndarray:
        return KERNELS["rotate"](v, k, cyclic, None if cyclic else self._coerce(fill))

    # -- optional primitives ---------------------------------------------------

    def sort(self, v: np.ndarray) -> np.ndarray:
        self.require("sort")
        self._record("sort", v.shape)
        if self.domain == EXACT:
            return np.sort(self._signed(v)).view(np.uint64)
        return np.sort(v)

    def join_counts(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        self.require("join")
        self._record_each("join", len(pairs), ((a.shape, b.shape) for a, b in pairs))
        return self._coerce([len(np.intersect1d(a, b, assume_unique=True)) for a, b in pairs])

    # -- masked reciprocal protocol ---------------------------------------------

    def masked_reciprocal(self, x: np.ndarray, helper_role: str = "P3") -> np.ndarray:
        """Reciprocal of a private value without a division gate.

        A data owner contributes fresh randomness r; the helper decrypts only
        the product r*x, inverts it in clear, and the re-encrypted inverse is
        multiplied by enc(r) again.  The helper's transcript therefore holds
        r*x, never x.
        """
        self.require("division")
        self.require_domain(APPROX, "masked reciprocal")
        r = self.rng.uniform(0.5, 2.0, size=x.shape)
        # the ledger and trace hold enc(r), mul, dec, enc(1/(r*x)), mul
        self._record("enc", r.shape)
        self._record("mul", x.shape)
        with np.errstate(over="ignore"):
            masked = x * r
        # the helper decrypts r*x; the transcript keeps the array it reads
        self._record("dec", masked.shape)
        self.observe(helper_role, "masked_value", masked)
        if not masked.all():
            raise ZeroDivisionError("masked reciprocal of zero")
        self._record("enc", masked.shape)
        self._record("mul", masked.shape)
        recip = np.divide(1.0, masked)
        with np.errstate(over="ignore"):
            recip *= r
        return recip

    def approx_eq(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise equality without a native gate, by the arithmetic
        workaround ``1 - d·(1/(d+xi))``, d = a - b, with the reciprocal
        taken by ``masked_reciprocal``.  One call in a few numpy passes; the
        ledger and trace hold the machine-level chain it stands for, in its
        order: sub, enc(xi), add, the reciprocal's enc, mul, dec, enc, mul,
        then enc(-1), mul, mul, enc(1), add.  ``d·(-q) + 1`` and ``1 - d·q``
        are the same float64 value, so the bits equal the chain's."""
        self.require("division")
        shape = a.shape
        self._record("sub", shape)
        self._record("enc", shape)
        self._record("add", shape)
        with np.errstate(over="ignore"):
            d = a - b
            shifted = d + XI_DEFAULT
        bits = self.masked_reciprocal(shifted)
        for op in ("enc", "mul", "mul", "enc", "add"):
            self._record(op, shape)
        with np.errstate(over="ignore"):
            bits *= d
            return np.subtract(1.0, bits, out=bits)


_PROFILES = {
    "generic": (CAPS_ALL, EXACT),
    "simd": (CAPS_SIMD, APPROX),
    "sharemind": (CAPS_SHAREMIND, EXACT),
}


class SimBackend(LocalBackend):
    """Oblivious simulator: profile-restricted capabilities plus cost,
    trace, and transcript accounting."""

    kind = "sim"

    def __init__(self, profile: str = "generic", seed: int = 0):
        if profile not in _PROFILES:
            raise ValueError(f"unknown profile {profile!r}; pick one of {sorted(_PROFILES)}")
        caps, domain = _PROFILES[profile]
        super().__init__(caps, domain, seed)
        self.profile = profile
