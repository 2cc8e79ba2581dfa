"""Per-channel power-of-two refinement over a shared layer-wise scale.

All channels share one scale and zero point; each channel c additionally gets
an integer exponent alpha_c in {0..K} so its effective step is 2^alpha_c * s.
The exponents are chosen per channel by exhaustively minimizing the L2
round-trip reconstruction error, and can be folded into the weight matrix so
the integer GEMM stays layer-wise scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizers import (
    SCALE_EPS,
    AffineParams,
    CodeRange,
    KindMismatchError,
    QuantError,
    QuantTensor,
    _round,
)
from .tensor_store import as_tensor2d


@dataclass(frozen=True)
class TripParams:
    base: AffineParams
    alphas: np.ndarray  # one exponent per channel, each in 0..cap
    cap: int

    def __post_init__(self):
        if self.cap < 0:
            raise QuantError("cap must be >= 0")
        if np.any(self.alphas < 0) or np.any(self.alphas > self.cap):
            raise QuantError("channel exponents must lie in 0..cap")

    @property
    def range(self) -> CodeRange:
        """The activation code range, as on :class:`AffineParams`."""
        return self.base.range

    @property
    def scale(self) -> float:
        """The shared layer-wise scale, as on :class:`AffineParams`."""
        return self.base.scale

    @property
    def zero_point(self) -> int:
        """The shared zero point, as on :class:`AffineParams`."""
        return self.base.zero_point

    @property
    def steps(self) -> np.ndarray:
        """Effective per-channel step sizes 2^alpha_c * s."""
        return np.exp2(self.alphas.astype(np.float64)) * self.base.scale


def _roundtrip_err(col: np.ndarray, step: float, zp: int, lo: int, hi: int) -> float:
    codes = np.clip(_round(col / step) + zp, lo, hi)
    recon = (codes - zp) * step
    return float(np.linalg.norm(col - recon))


def fit_trip(x, bits: int, cap: int) -> TripParams:
    """Fit the shared scale/zero-point plus per-channel exponents.

    The shared base scale is anchored at the coarsest refinement: the full
    range maps onto (2^bits - 1) * 2^cap base steps, so alpha_c = cap
    reproduces the plain layer-wise affine quantizer and smaller alpha_c give
    finer steps for inlier channels. Ties in the per-channel argmin break
    toward the smaller exponent.
    """
    x = as_tensor2d(x)
    if x.size == 0:
        raise QuantError("cannot fit quantizer on empty tensor")
    if cap < 0:
        raise QuantError("cap must be >= 0")
    rng = CodeRange(bits, signed=False)
    lo, hi = float(x.min()), float(x.max())
    scale = max(hi - lo, SCALE_EPS) / ((2**bits - 1) * 2**cap)
    coarse = 2**cap * scale
    zp = int(np.clip(_round(np.float64(-lo) / coarse), rng.lo, rng.hi))
    base = AffineParams(range=rng, scale=float(scale), zero_point=zp)

    # x / (2^a * s) is exactly (x / s) * 2^-a, so divide by s once; codes are
    # kept shifted by -zp, and one buffer holds them, the residual and its square
    base_steps = x.astype(np.float64)
    base_steps /= scale
    r = np.empty_like(base_steps)
    alphas = np.zeros(x.shape[1], dtype=np.int64)
    best = np.full(x.shape[1], np.inf)
    for a in range(cap + 1):
        step = 2**a * scale
        np.multiply(base_steps, 2.0**-a, out=r)
        np.clip(_round(r, out=r), rng.lo - zp, rng.hi - zp, out=r)
        r *= step
        np.subtract(x, r, out=r)
        np.square(r, out=r)
        err = np.sqrt(np.add.reduce(r, axis=0))  # what np.linalg.norm(axis=0) computes
        better = err < best  # strict: ties keep the smaller exponent
        alphas[better] = a
        best[better] = err[better]
    return TripParams(base=base, alphas=alphas, cap=cap)


def quantize_trip(x, p: TripParams) -> QuantTensor:
    x = as_tensor2d(x)
    if x.shape[1] != len(p.alphas):
        raise QuantError(
            f"channel count {x.shape[1]} != exponent count {len(p.alphas)}"
        )
    rng = p.base.range
    codes = _round(x.astype(np.float64) / p.steps[None, :]) + p.base.zero_point
    codes = np.clip(codes, rng.lo, rng.hi).astype(np.int32)
    return QuantTensor(codes=codes, params=p, kind="trip")


def dequantize_trip(q: QuantTensor) -> np.ndarray:
    if q.kind != "trip":
        raise KindMismatchError(f"expected trip tensor, got {q.kind}")
    p = q.params
    out = (q.codes.astype(np.float64) - p.base.zero_point) * p.steps[None, :]
    return out.astype(np.float32)


def fold_trip_into_weights(w, p: TripParams) -> np.ndarray:
    """Scale weight row c by 2^alpha_c so the per-channel factors vanish
    from the activation path: ((codes - zp) @ folded_w) * s equals
    dequantize_trip(q) @ w in exact arithmetic.
    """
    w = as_tensor2d(w)
    if w.shape[0] != len(p.alphas):
        raise QuantError(
            f"weight rows {w.shape[0]} != exponent count {len(p.alphas)}"
        )
    return (w.astype(np.float64) * np.exp2(p.alphas.astype(np.float64))[:, None]).astype(
        np.float32
    )
