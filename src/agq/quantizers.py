"""Base quantizers: uniform affine and log2, with exact dequantizers.

Activations use unsigned code ranges with a zero point; weights use signed
symmetric ranges per output channel. All rounding is round-half-to-even
(``np.rint``) so ties are deterministic across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor_store import as_tensor2d

SCALE_EPS = 1e-8


class QuantError(Exception):
    pass


class KindMismatchError(QuantError):
    """QuantTensor passed to a dequantizer of the wrong kind."""


@dataclass(frozen=True)
class CodeRange:
    bits: int
    signed: bool

    def __post_init__(self):
        if not 2 <= self.bits <= 8:
            raise QuantError(f"bits must be in 2..8, got {self.bits}")

    @property
    def lo(self) -> int:
        return -(2 ** (self.bits - 1)) if self.signed else 0

    @property
    def hi(self) -> int:
        return 2 ** (self.bits - 1) - 1 if self.signed else 2**self.bits - 1


@dataclass(frozen=True)
class AffineParams:
    range: CodeRange
    scale: float
    zero_point: int

    def __post_init__(self):
        if not self.scale > 0:
            raise QuantError(f"scale must be positive, got {self.scale}")
        if not self.range.lo <= self.zero_point <= self.range.hi:
            raise QuantError(f"zero point {self.zero_point} outside code range")


@dataclass(frozen=True)
class Log2Params:
    bits: int
    max_abs: float

    def __post_init__(self):
        if not 2 <= self.bits <= 8:
            raise QuantError(f"bits must be in 2..8, got {self.bits}")
        if self.max_abs < 0:
            raise QuantError("max_abs must be non-negative")

    @property
    def code_hi(self) -> int:
        return 2 ** (self.bits - 1) - 1


@dataclass(frozen=True)
class QuantTensor:
    codes: np.ndarray  # integer codes, shape (rows, cols)
    params: object  # AffineParams, Log2Params, or TripParams
    kind: str  # "affine" | "log2" | "trip"
    signs: np.ndarray | None = field(default=None)  # log2 only: -1/0/+1

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]


def _round(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.rint(x, out=out)


def fit_affine(x, bits: int) -> AffineParams:
    """Layer-wise unsigned affine parameters from the min/max of ``x``."""
    x = as_tensor2d(x)
    if x.size == 0:
        raise QuantError("cannot fit quantizer on empty tensor")
    rng = CodeRange(bits, signed=False)
    lo, hi = float(x.min()), float(x.max())
    scale = max(hi - lo, SCALE_EPS) / (2**bits - 1)
    zp = int(np.clip(_round(np.float64(-lo) / scale), rng.lo, rng.hi))
    return AffineParams(range=rng, scale=float(scale), zero_point=zp)


def quantize_affine(x, p: AffineParams) -> QuantTensor:
    x = as_tensor2d(x)
    codes = _round(x.astype(np.float64) / p.scale) + p.zero_point
    codes = np.clip(codes, p.range.lo, p.range.hi).astype(np.int32)
    return QuantTensor(codes=codes, params=p, kind="affine")


def dequantize_affine(q: QuantTensor) -> np.ndarray:
    if q.kind != "affine":
        raise KindMismatchError(f"expected affine tensor, got {q.kind}")
    p = q.params
    return ((q.codes.astype(np.float64) - p.zero_point) * p.scale).astype(np.float32)


def quantize_log2(x, bits: int) -> QuantTensor:
    """Quantize magnitudes to negated power-of-two exponents of max(|x|).

    Exact zeros get the max code with sign 0 so they dequantize to exactly 0.
    An all-zero tensor yields max_abs = 0 and all-zero codes (not an error).
    """
    x = as_tensor2d(x)
    if x.size == 0:
        raise QuantError("cannot fit quantizer on empty tensor")
    p = Log2Params(bits=bits, max_abs=float(np.abs(x).max()))
    signs = np.sign(x).astype(np.int8)
    if p.max_abs == 0.0:
        codes = np.zeros_like(x, dtype=np.int32)
        return QuantTensor(codes=codes, params=p, kind="log2", signs=signs)
    nonzero = signs != 0
    e = x.astype(np.float64)  # one buffer: |x| / max_abs -> -log2 -> code
    np.abs(e, out=e)
    e /= p.max_abs
    np.log2(e, out=e, where=nonzero)  # zeros take code_hi below, never log2(0)
    np.negative(e, out=e)
    np.clip(_round(e, out=e), 0, p.code_hi, out=e)
    codes = e.astype(np.int32)
    codes[~nonzero] = p.code_hi
    return QuantTensor(codes=codes, params=p, kind="log2", signs=signs)


def dequantize_log2(q: QuantTensor) -> np.ndarray:
    if q.kind != "log2":
        raise KindMismatchError(f"expected log2 tensor, got {q.kind}")
    p = q.params
    out = q.signs * p.max_abs
    np.ldexp(out, -q.codes, out=out)  # times 2^-code, exact: a power of two
    return out.astype(np.float32)


@dataclass(frozen=True)
class ChannelSymmetricParams:
    """Signed symmetric per-output-channel weight quantization."""

    range: CodeRange
    scales: np.ndarray  # one positive scale per output column

    def __post_init__(self):
        if np.any(self.scales <= 0):
            raise QuantError("all channel scales must be positive")


def fit_weight_symmetric(w, bits: int = 4) -> ChannelSymmetricParams:
    """Per-output-column symmetric scales: step = max|w_col| / hi."""
    w = as_tensor2d(w)
    if w.size == 0:
        raise QuantError("cannot fit quantizer on empty tensor")
    rng = CodeRange(bits, signed=True)
    max_abs = np.abs(w).max(axis=0)
    scales = np.maximum(max_abs, SCALE_EPS) / rng.hi
    return ChannelSymmetricParams(range=rng, scales=scales.astype(np.float64))


def quantize_weight_symmetric(w, p: ChannelSymmetricParams) -> QuantTensor:
    w = as_tensor2d(w)
    codes = _round(w.astype(np.float64) / p.scales[None, :])
    codes = np.clip(codes, p.range.lo, p.range.hi).astype(np.int32)
    return QuantTensor(codes=codes, params=p, kind="weight")


def dequantize_weight_symmetric(q: QuantTensor) -> np.ndarray:
    if q.kind != "weight":
        raise KindMismatchError(f"expected weight tensor, got {q.kind}")
    return (q.codes.astype(np.float64) * q.params.scales[None, :]).astype(np.float32)
