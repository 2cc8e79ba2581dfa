"""Per-channel power-of-two refinement over a shared layer-wise scale.

All channels share one scale and zero point; each channel c additionally gets
an integer exponent alpha_c in {0..K} so its effective step is 2^alpha_c * s.
So ``TripParams`` is an ``AffineParams`` (code range, s, zero point) plus the
exponents and their cap K, fitted and validated as one object.
The exponents are chosen per channel by exhaustively minimizing the L2
round-trip reconstruction error, every exponent at once, in row bands of at
most 2^15 elements per exponent (a single channel is one band): one
(cap+1, rows, C) buffer, reused from band to band, whose column sums carry
over so that rows add in the order of a per-exponent loop over the whole
input. Each band passes through float64 once: its one widened copy feeds
both the division by the scale and the residual. The pipeline applies the
exponents as exact integer work on the plain 4-bit weight codes: an 8-bit
site shifts weight row c left by alpha_c, and a 4-bit site counts channel c
2^(alpha_c - min alpha) times in the lane GEMM. At cap 0 every exponent is
0 and TRIP is the layer-wise affine quantizer.
``fold_trip_into_weights`` scales float weights instead, as a float reference
for that identity. Input is validated as in ``quantizers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .quantizers import (
    AffineParams,
    QuantError,
    QuantTensor,
    _codes,
    _fit_range,
    _reconstruct,
)
from .tensor_store import as_tensor2d

MAX_TRIP_CAP = 6  # largest channel exponent, as in the run-config schema
# Elements per exponent in one band of the exponent search: at cap 3 its
# (cap+1, rows, C) float64 buffer is 1 MiB, in a per-core L2.
_BAND_ELEMENTS = 2**15


@dataclass(frozen=True)
class TripParams(AffineParams):
    kind: ClassVar[str] = "trip"
    alphas: np.ndarray  # one exponent per channel, each in 0..cap
    cap: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.cap <= MAX_TRIP_CAP:
            raise QuantError(f"cap must be in 0..{MAX_TRIP_CAP}, got {self.cap}")
        a = self.alphas
        if a.size and (a.min() < 0 or a.max() > self.cap):
            raise QuantError("channel exponents must lie in 0..cap")

    @property
    def base(self) -> AffineParams:
        """The shared layer-wise quantizer without the exponents."""
        return AffineParams(self.range, self.scale, self.zero_point)

    @property
    def steps(self) -> np.ndarray:
        """Effective per-channel step sizes 2^alpha_c * s."""
        return np.exp2(self.alphas.astype(np.float64)) * self.scale


def fit_trip(x, bits: int, cap: int) -> TripParams:
    return _fit_trip(as_tensor2d(x), bits, cap)


def _fit_trip(x: np.ndarray, bits: int, cap: int) -> TripParams:
    """Fit the shared scale/zero-point plus per-channel exponents.

    The shared base scale is anchored at the coarsest refinement: the full
    range maps onto (2^bits - 1) * 2^cap base steps, so alpha_c = cap
    reproduces the plain layer-wise affine quantizer and smaller alpha_c give
    finer steps for inlier channels. Ties in the per-channel argmin break
    toward the smaller exponent. At cap 0 the one exponent is 0 and no
    search runs.
    """
    if not 0 <= cap <= MAX_TRIP_CAP:
        raise QuantError(f"cap must be in 0..{MAX_TRIP_CAP}, got {cap}")
    rng, scales, zps = _fit_range(x[None], bits, cap)
    scale, zp = float(scales[0]), int(zps[0])
    if cap == 0:
        return TripParams(rng, scale, zp, alphas=np.zeros(x.shape[1], dtype=np.int64), cap=0)

    # x / (2^a * s) is exactly (x / s) * 2^-a, so divide by s once; codes are
    # kept shifted by -zp, and one band buffer holds them, the residuals and
    # squares. Each band adds the column sums so far into its first row:
    # numpy then sums the band's rows in order (for C >= 2; one column is
    # summed pairwise, so it stays one band), the rounding of one pass.
    t, c = x.shape
    rows = t if c == 1 else max(1, _BAND_ELEMENTS // c)
    a = np.arange(cap + 1)[:, None, None]
    inv_steps, steps = np.ldexp(1.0, -a), np.ldexp(scale, a)
    buf = np.empty((cap + 1, min(rows, t), c))
    err = None
    for r0 in range(0, t, rows):
        xb = x[r0:r0 + rows].astype(np.float64)
        r = np.multiply(xb / scale, inv_steps, out=buf[:, :len(xb)])
        np.clip(np.rint(r, out=r), rng.lo - zp, rng.hi - zp, out=r)
        r *= steps
        np.subtract(xb, r, out=r)
        np.square(r, out=r)
        if err is not None:
            r[:, 0] += err
        err = np.add.reduce(r, axis=1)  # row a: channel errors at exponent a
    np.sqrt(err, out=err)  # what np.linalg.norm(axis=0) computes
    alphas = err.argmin(axis=0).astype(np.int64)  # first minimum: ties keep the smaller exponent
    return TripParams(rng, scale, zp, alphas=alphas, cap=cap)


def quantize_trip(x, p: TripParams) -> QuantTensor:
    return _quantize_trip(as_tensor2d(x), p)


def _quantize_trip(x: np.ndarray, p: TripParams) -> QuantTensor:
    if x.shape[1] != len(p.alphas):
        raise QuantError(
            f"channel count {x.shape[1]} != exponent count {len(p.alphas)}"
        )
    return QuantTensor(codes=_codes(x, p.steps, p.zero_point, p.range), params=p)


def dequantize_trip(q: QuantTensor) -> np.ndarray:
    if q.kind != "trip":
        raise QuantError(f"expected trip tensor, got {q.kind}")
    return _reconstruct(q.codes, q.params.zero_point, q.params.steps)


def fold_trip_into_weights(w, p: TripParams) -> np.ndarray:
    """Scale weight row c by 2^alpha_c so the per-channel factors vanish
    from the activation path: ((codes - zp) @ folded_w) * s equals
    dequantize_trip(q) @ w in exact arithmetic.

    A float reference only: folded weights would need a 4-bit re-fit and
    re-quantization on every call, so the pipeline shifts the integer weight
    codes (8-bit sites) or repeats lane channels (4-bit sites) instead.
    """
    w = as_tensor2d(w)
    if w.shape[0] != len(p.alphas):
        raise QuantError(
            f"weight rows {w.shape[0]} != exponent count {len(p.alphas)}"
        )
    return (w.astype(np.float64) * np.exp2(p.alphas.astype(np.float64))[:, None]).astype(
        np.float32
    )
