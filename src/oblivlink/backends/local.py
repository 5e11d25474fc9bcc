"""In-process backends over numpy payloads.

``ClearBackend`` is the cleartext oracle: every capability, exact results,
and (uniquely) a ``peek`` hook so debug-mode precondition checks can inspect
payloads.  ``SimBackend`` is the cost-accounting oblivious simulator: same
numerics, but capabilities restricted by profile and leakage surfaced through
the transcript.  Neither performs real encryption; opacity is enforced at the
machine layer and audited via trace/transcript.
"""

from __future__ import annotations

import itertools

import numpy as np

from .base import (APPROX, CAPS_ALL, CAPS_SHAREMIND, CAPS_SIMD, EXACT, KERNELS,
                   XI_DEFAULT, Backend, lift_signed, to_u64)


class LocalBackend(Backend):
    """Shared numpy implementation of the primitive layer.

    Exact domain payloads are wrapping ``uint64`` arrays (two's complement
    view for signed semantics); approximate domain payloads are ``float64``.
    """

    is_oracle = False

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
        self._record_runs("enc", lengths)
        ends = list(itertools.accumulate(lengths))
        return [payload[hi - n:hi] for n, hi in zip(lengths, ends)]

    def dec(self, payload: np.ndarray):
        self._record("dec", payload.shape)
        if self.domain == EXACT:
            return lift_signed(payload)
        return payload.tolist()

    # -- element-wise arithmetic ----------------------------------------------

    def _ew(self, op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._record(op, a.shape)
        with np.errstate(over="ignore"):
            return KERNELS[op](a, b)

    def add(self, a, b):
        return self._ew("add", a, b)

    def sub(self, a, b):
        return self._ew("sub", a, b)

    def mul(self, a, b):
        return self._ew("mul", a, b)

    # -- linear algebra ------------------------------------------------------

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._record("dot", a.shape)
        with np.errstate(over="ignore"):
            return KERNELS["dot"](a, b)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._record("matmul", a.shape, b.shape)
        with np.errstate(over="ignore"):
            return KERNELS["matmul"](a, b)

    def vecmat(self, v: np.ndarray, m: np.ndarray) -> np.ndarray:
        self._record("vecmat", v.shape, m.shape)
        with np.errstate(over="ignore"):
            return KERNELS["vecmat"](v, m)

    def outer(self, col: np.ndarray, row: np.ndarray) -> np.ndarray:
        self._record("outer", col.shape, row.shape)
        with np.errstate(over="ignore"):
            return KERNELS["outer"](col, row)

    def transpose(self, m: np.ndarray) -> np.ndarray:
        self._record("transpose", m.shape)
        return KERNELS["transpose"](m)

    # -- vector structure ------------------------------------------------------

    def rotate(self, v: np.ndarray, k: int, cyclic: bool = True, fill=None) -> np.ndarray:
        self.require("rotation")
        self._record("rotate", v.shape, k, cyclic)
        return KERNELS["rotate"](v, k, cyclic, None if cyclic else self._coerce(fill))

    def tile(self, v: np.ndarray, times: int) -> np.ndarray:
        self.require("repeat_elements")
        self._record("tile", v.shape, times)
        return KERNELS["tile"](v, times)

    def repeat_each(self, v: np.ndarray, times: int) -> np.ndarray:
        self.require("repeat_elements")
        self._record("repeat_each", v.shape, times)
        return KERNELS["repeat_each"](v, times)

    def take(self, v: np.ndarray, idx: np.ndarray) -> np.ndarray:
        self.require("repeat_elements")
        self._record("take", v.shape, idx.shape)
        return KERNELS["take"](v, idx)

    def concat(self, *parts: np.ndarray) -> np.ndarray:
        self._record("concat", *(p.shape for p in parts))
        return KERNELS["concat"](*parts)

    def segment_sum(self, v: np.ndarray, width: int, lengths: list[int]) -> np.ndarray:
        self._record("segment_sum", v.shape, (len(lengths), width), list(lengths))
        return KERNELS["segment_sum"](v, width, lengths)

    def slice(self, v: np.ndarray, lo: int, hi: int) -> np.ndarray:
        self._record("slice", v.shape, lo, hi)
        return KERNELS["slice"](v, lo, hi)

    def vget(self, v: np.ndarray, i: int) -> np.ndarray:
        self._record("get", v.shape, i)
        return KERNELS["get"](v, i)

    def broadcast(self, s: np.ndarray, shape) -> np.ndarray:
        self._record("broadcast", tuple(shape))
        return KERNELS["broadcast"](s, shape)

    def stack(self, rows) -> np.ndarray:
        self._record("stack", (len(rows),))
        return KERNELS["stack"](*rows)

    # -- gates ---------------------------------------------------------------

    def eq(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.require("native_eq")
        self._record("eq", a.shape)
        return self._bits(a == b)

    def gt(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.require("compare")
        self._record("gt", a.shape)
        return self._bits(self._signed(a) > self._signed(b))

    def sort(self, v: np.ndarray) -> np.ndarray:
        self.require("sort")
        self._record("sort", v.shape)
        if self.domain == EXACT:
            return np.sort(self._signed(v)).view(np.uint64)
        return np.sort(v)

    def join_counts(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        self.require("join")
        for a, b in pairs:
            self._record("join", a.shape, b.shape)
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


class ClearBackend(LocalBackend):
    """Cleartext oracle: all capabilities, plain arithmetic, peek allowed."""

    kind = "clear"
    profile = "generic"
    is_oracle = True

    def __init__(self, seed: int = 0):
        super().__init__(CAPS_ALL, EXACT, seed)

    def peek(self, payload: np.ndarray):
        """Debug-only payload inspection; exists on the oracle alone."""
        return lift_signed(payload)


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
