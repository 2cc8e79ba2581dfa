"""Base quantizers: uniform affine and log2, with exact dequantizers.

Activations use unsigned code ranges with a zero point; weights use signed
symmetric ranges per output channel. Affine rounding is round-half-to-even
(``np.rint``) so ties are deterministic across platforms; log2 codes are
read off ``np.frexp``, which rounds -log2 exactly for float32 inputs, where
no tie occurs. Every activation scale and zero point comes from
``_fit_range`` over a (heads, rows, cols) stack (one tensor ``x`` is
``x[None]``), kept as one ``QuantTensor`` with (heads, 1, 1) params, and
every affine, TRIP and weight code from ``_codes``. Public functions check
input with ``as_tensor2d``; the forward pass calls their private cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .tensor_store import as_tensor2d

SCALE_EPS = 1e-8
F32_MAX = float(np.finfo(np.float32).max)


class QuantError(Exception):
    pass


@dataclass(frozen=True)
class CodeRange:
    bits: int
    signed: bool
    shift: int = 0  # codes of ``bits`` bits, each shifted left by 0..shift places

    def __post_init__(self):
        if not 2 <= self.bits <= 8:
            raise QuantError(f"bits must be in 2..8, got {self.bits}")
        if self.shift < 0:
            raise QuantError(f"shift must be non-negative, got {self.shift}")
        # the code bounds, set once: kernels read them on every call
        half = 2 ** (self.bits - 1)
        lo, hi = (-half, half - 1) if self.signed else (0, 2 * half - 1)
        object.__setattr__(self, "lo", lo << self.shift)
        object.__setattr__(self, "hi", hi << self.shift)


@dataclass(frozen=True)
class AffineParams:
    kind: ClassVar[str] = "affine"
    range: CodeRange
    scale: float  # or (heads, 1, 1) arrays of both
    zero_point: int

    def __post_init__(self):
        scale, lo, hi = self.scale, self.zero_point, self.zero_point
        if isinstance(scale, np.ndarray) or isinstance(lo, np.ndarray):  # per head
            if np.shape(scale) != np.shape(lo):
                raise QuantError(f"{np.shape(scale)} scales for {np.shape(lo)} zero points")
            scale, lo, hi = np.min(scale), np.min(lo), np.max(lo)
        if not scale > 0:
            raise QuantError(f"scale must be positive, got {self.scale}")
        if not self.range.lo <= lo <= hi <= self.range.hi:
            raise QuantError(f"zero point {self.zero_point} outside code range")


@dataclass(frozen=True)
class Log2Params:
    kind: ClassVar[str] = "log2"
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
    codes: np.ndarray  # integer codes, shape (rows, cols) or (heads, rows, cols)
    params: object  # AffineParams, Log2Params, TripParams or ChannelSymmetricParams
    signs: np.ndarray | None = field(default=None)  # log2 only: -1/0/+1

    @property
    def kind(self) -> str:
        """The params type's kind: "affine", "log2", "trip" or "weight"."""
        return self.params.kind

    @property
    def rows(self) -> int:
        return self.codes.shape[-2]

    @property
    def cols(self) -> int:
        return self.codes.shape[-1]


def _clip(x: np.ndarray, lo, hi) -> np.ndarray:
    """In-place ``np.clip``, equal to it for NaN-free ``x``."""
    np.maximum(x, lo, out=x)
    return np.minimum(x, hi, out=x)


def _fit_range(heads: np.ndarray, bits: int, cap: int = 0):
    """Min/max fit of each head ``heads[h]`` of a (heads, rows, cols) stack
    to unsigned ``bits``-bit codes, reduced along the rows of the stack
    flattened to (heads, rows * cols), which copies a transposed stack once
    (min and max are exact in any order). Returns the code range, the
    scales over 2^cap (exact this far above the subnormals) and the zero
    points (floats) of the cap-0 scales, so a TRIP base shares the affine
    zero point."""
    if heads.size == 0:
        raise QuantError("cannot fit quantizer on empty tensor")
    rng = CodeRange(bits, signed=False)
    flat = heads.reshape(len(heads), -1)
    lo = flat.min(axis=1).astype(np.float64)
    scale = np.maximum(flat.max(axis=1) - lo, SCALE_EPS) / (2**bits - 1)
    zp = _clip(np.rint(-lo / scale), rng.lo, rng.hi)
    return rng, scale / 2**cap, zp


def _codes(x: np.ndarray, steps, zero_point, rng: CodeRange) -> np.ndarray:
    """``x / steps`` rounded half to even, plus ``zero_point``, clipped to
    ``rng``, as int32; ``steps`` and ``zero_point`` broadcast against ``x``."""
    codes = np.divide(x, steps, dtype=np.float64)
    np.rint(codes, out=codes)
    codes += zero_point
    return _clip(codes, rng.lo, rng.hi).astype(np.int32)


def _reconstruct(codes: np.ndarray, zero_point, steps) -> np.ndarray:
    """``(codes - zero_point) * steps`` in float64, narrowed to float32. The
    rounded zero point can put the top or bottom code a fraction of a step
    past float32's largest value; that saturates at +-F32_MAX, not +-inf."""
    out = codes.astype(np.float64) - zero_point
    out *= steps
    return _clip(out, -F32_MAX, F32_MAX).astype(np.float32)


def fit_affine(x, bits: int) -> AffineParams:
    """Layer-wise unsigned affine parameters from the min/max of ``x``."""
    rng, scale, zp = _fit_range(as_tensor2d(x)[None], bits)
    return AffineParams(range=rng, scale=float(scale[0]), zero_point=int(zp[0]))


def quantize_affine(x, p: AffineParams) -> QuantTensor:
    return QuantTensor(codes=_codes(as_tensor2d(x), p.scale, p.zero_point, p.range), params=p)


def _quantize_heads(x: np.ndarray, groups: int, n_heads: int, bits: int) -> list[QuantTensor]:
    """``groups`` stacks (Q, K, V) of ``n_heads`` heads of ``x``'s column blocks,
    head h as ``quantize_affine(x_h, fit_affine(x_h, bits))``, in one rint and clip."""
    heads = x.reshape(x.shape[0], groups * n_heads, -1).transpose(1, 0, 2)
    rng, scale, zp = _fit_range(heads, bits)
    scale, zp = (a.reshape(groups, n_heads, 1, 1) for a in (scale, zp.astype(np.int64)))
    codes = _codes(heads.reshape(groups, n_heads, *heads.shape[1:]), scale, zp, rng)
    return [QuantTensor(c, AffineParams(rng, s, z)) for c, s, z in zip(codes, scale, zp)]


def dequantize_affine(q: QuantTensor) -> np.ndarray:
    if q.kind != "affine":
        raise QuantError(f"expected affine tensor, got {q.kind}")
    return _reconstruct(q.codes, q.params.zero_point, q.params.scale)


def quantize_log2(x, bits: int) -> QuantTensor:
    """Log2 codes of ``x`` relative to its own max(|x|)."""
    x = as_tensor2d(x)
    if x.size == 0:
        raise QuantError("cannot fit quantizer on empty tensor")
    # + 0.0 turns a -0.0 maximum (all zeros) into +0.0
    return _quantize_log2(x, bits, float(max(x.max(), -x.min())) + 0.0)


def _quantize_log2(x: np.ndarray, bits: int, max_abs: float) -> QuantTensor:
    """Quantize magnitudes to negated power-of-two exponents of ``max_abs``,
    which bounds every |x|, of a matrix or a (heads, rows, cols) stack under
    one Log2Params. Codes are elementwise, so a row band of an attention map
    quantizes as it would inside the whole map given the map's maximum.

    A code is -log2(|x| / max_abs) rounded to the nearest integer, read off
    ``frexp`` of the ratio floored at 2^-code_hi: m * 2^ex with m in
    [0.5, 1) has -log2 = -ex - log2(m), which rounds to -ex + 1 exactly when
    m < 2^-0.5, so codes lie in [0, code_hi]. That is exact, with no tie,
    for float32 ``x`` and ``max_abs``: no quotient of two 24-bit mantissas
    lies within float64 rounding of 2^-0.5 times a power of two. At max_abs
    1.0 the ratio is |x| itself, in x's dtype, and the test m < 2^-0.5
    runs in that dtype too. Exact zeros take code_hi with
    sign 0, so they dequantize to exactly 0; max_abs = 0 (an all-zero ``x``)
    gives all-zero codes.
    """
    p = Log2Params(bits=bits, max_abs=max_abs)
    if x.min() >= 0:  # a softmax band: one pass; -0.0 gets sign 0 either way
        signs = (x > 0).view(np.int8)
    else:
        signs = np.subtract(x > 0, x < 0, dtype=np.int8)
    if max_abs == 1.0:
        ratio = np.abs(x)
    else:
        ratio = np.abs(x, dtype=np.float64)
        ratio /= max_abs or 1.0
    # the floor 1.0 (code 0) serves max_abs = 0, where every ratio is 0
    np.maximum(ratio, 2.0**-p.code_hi if max_abs else 1.0, out=ratio)
    m, ex = np.frexp(ratio, out=(ratio, None))
    if m.dtype == np.float32:  # float32 rounds 2^-0.5 down, to a mantissa below it
        codes = (m <= np.float32(2**-0.5)) - ex
    else:  # float64 rounds it up past every float32 below it
        codes = (m < 2**-0.5) - ex
    return QuantTensor(codes=codes, params=p, signs=signs)


def dequantize_log2(q: QuantTensor) -> np.ndarray:
    if q.kind != "log2":
        raise QuantError(f"expected log2 tensor, got {q.kind}")
    p = q.params
    out = q.signs * p.max_abs
    np.ldexp(out, -q.codes, out=out)  # times 2^-code, exact: a power of two
    return out.astype(np.float32)


@dataclass(frozen=True)
class ChannelSymmetricParams:
    """Signed symmetric per-output-channel weight quantization."""

    kind: ClassVar[str] = "weight"
    range: CodeRange
    scales: np.ndarray  # one positive scale per output column

    def __post_init__(self):
        if (self.scales <= 0).any():
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
    return QuantTensor(codes=_codes(as_tensor2d(w), p.scales, 0, p.range), params=p)


def dequantize_weight_symmetric(q: QuantTensor) -> np.ndarray:
    if q.kind != "weight":
        raise QuantError(f"expected weight tensor, got {q.kind}")
    return (q.codes.astype(np.float64) * q.params.scales[None, :]).astype(np.float32)
