"""Matrix-multiplication back ends.

Four paths: an FP32 reference GEMM, an integer GEMM of zero-point-centred
codes for 8-bit activations against 4-bit per-channel weights, a bit-exact
model of the byte-lane-packed 4-bit multiplier (two weight nibbles per byte,
two isolated 8-bit products per 16-bit multiply, dual 16-bit sub-lane
accumulation), and a shift-based GEMM for log2 probabilities. The FP32,
affine and log2 GEMMs also multiply (heads, rows, cols) stacks, per head.

The integer paths run as BLAS matmuls of integer codes, centred on their
zero points except in the lane model. A float GEMM of integers is exact, in
any summation order and with FMA, while every partial sum is an integer the
float holds: below 2^24 in magnitude for float32, below 2^53 for float64.
``check_exact`` bounds that sum from the params' code ranges and zero points
(every head's), not from the data, and picks the narrowest exact width;
beyond 2^53 it raises ``KernelError``. The affine and log2 GEMMs run in that
width, chosen per call, and scale their sums in float64. The bound holds
only for integer codes inside their params' range: float codes raise
``KernelError``, and codes outside the range were never supported. The lane
GEMM's register words stay in float64; the packed epilogue subtracts its
row-sum and weight-sum corrections as float64 vectors.

The packed path ships two implementations: a scalar per-element model that is
the semantic reference, and the default, which must be bit-identical to it.
The default models the packed 32-bit register word itself: under the
256-addition budget, accumulating spread lane products without carries is
one GEMM of the activations against the widened word ``w_lo + 2^16 * w_hi``
per 256-wide group. Each word stays below 2^32 (``PackedInt4Matrix`` holds
only uint8 cells), so it casts to little-endian uint32 exactly, and read as
uint16 pairs its low and high halves are the two sub-lanes, output rows 2p
and 2p + 1, added into the int64 sums in one pass.

Per-kernel calls, MACs, self time and GMAC/s come from the traced benchmark
runs in ``agqbench/``; nothing here times itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .quantizers import QuantTensor
from .tensor_store import as_tensor2d

MAX_LANE_ADDITIONS = 256  # 256 * 225 = 57600 < 2^16 keeps sub-lanes isolated
EXACT_F32_LIMIT = 2**24  # every integer of smaller magnitude is a float32
EXACT_F64_LIMIT = 2**53  # every integer of smaller magnitude is a float64


class KernelError(Exception):
    pass


class AccumulatorBudgetError(KernelError):
    """More than 256 additions on one lane accumulator."""


def check_exact(k: int, max_a: int, max_b: int) -> type:
    """The narrowest float dtype in which a GEMM of integers is exact: inner
    dimension ``k`` and operand magnitudes at most ``max_a`` and ``max_b``
    bound every partial sum by ``k * max_a * max_b``. That is float32 below
    2^24 and float64 below 2^53; past 2^53 raise ``KernelError``.
    """
    bound = k * max_a * max_b
    if bound < EXACT_F32_LIMIT:
        return np.float32
    if bound >= EXACT_F64_LIMIT:
        raise KernelError(
            f"float64 accumulation not exact: k={k} x {max_a} x {max_b} reaches 2^53"
        )
    return np.float64


def _integer(codes: np.ndarray, what: str) -> None:
    """Raise ``KernelError`` unless ``codes`` has an integer dtype."""
    if codes.dtype.kind not in "iu":
        raise KernelError(f"{what} must be integers, got {codes.dtype}")


def _nibbles(codes, what: str) -> np.ndarray:
    """``codes`` as a 2-D integer array of 4-bit codes, else ``KernelError``."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise KernelError(f"expected 2-D {what}")
    _integer(codes, what)
    if codes.size and (codes.min() < 0 or codes.max() > 15):
        raise KernelError(f"{what} outside nibble range 0..15")
    return codes


def _inner(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ``KernelError`` unless ``a @ b``'s inner dims and stacks' head counts agree."""
    if a.shape[-1] != b.shape[-2] or a.ndim == b.ndim and a.shape[:-2] != b.shape[:-2]:
        raise KernelError(f"inner dims or head counts differ: {a.shape} @ {b.shape}")


def _max_centred(q: QuantTensor, zp) -> int:
    """Largest |code - zp| over ``q``'s range and each head's ``zp``, in Python ints."""
    if isinstance(zp, np.ndarray) and zp.shape != q.codes.shape[:-2] + (1, 1):
        raise KernelError(f"per-head params {zp.shape} for codes {q.codes.shape}")
    lo, hi = (int(zp.min()), int(zp.max())) if isinstance(zp, np.ndarray) else (zp, zp)
    return max(hi - q.params.range.lo, q.params.range.hi - lo)


def gemm_f32(a, w) -> np.ndarray:
    """Reference GEMM of matrices or stacks: float64 sums narrowed to float32."""
    a, w = (np.ascontiguousarray(x, dtype=np.float32) for x in (a, w))
    for x in (a, w):  # a stack is checked as the matrix of its rows
        as_tensor2d(x.reshape(-1, x.shape[-1]) if x.ndim == 3 else x)
    _inner(a, w)
    return (a.astype(np.float64) @ w.astype(np.float64)).astype(np.float32)


# ---------------------------------------------------------------------------
# Affine-corrected integer GEMM (W4A8 sites)
# ---------------------------------------------------------------------------


def gemm_int_affine(aq: QuantTensor, wq: QuantTensor) -> np.ndarray:
    """Integer GEMM of zero-point-centred codes, scaled back to FP32.

    ``aq`` carries unsigned activation codes (plain affine, or refined codes
    read at their shared scale and zero point). ``wq`` is either a signed
    per-output-channel weight tensor (kind "weight": zero point 0, per-column
    scales) or a second affine tensor (kind "affine", used for
    activation-activation products such as Q @ K^T). One GEMM computes
    ``(a - zp_a) @ (b - zp_b)``, scaled once. For refined codes the pipeline
    passes weight codes shifted left by each row's exponent, with a
    ``CodeRange`` shift that bounds them; the exact integer sum, scaled once,
    is then dequantize_trip(aq) @ w_deq in exact arithmetic. The GEMM runs
    in ``check_exact``'s width (float32 while k times the largest centred
    codes stays below 2^24) and its integer sum is scaled in float64.
    """
    if aq.kind not in ("affine", "trip"):
        raise KernelError(f"activation side must be affine/trip codes, got {aq.kind}")
    if wq.kind not in ("weight", "affine"):
        raise KernelError(f"unsupported weight-side kind {wq.kind}")
    _inner(aq.codes, wq.codes)
    zp_a = aq.params.zero_point
    if wq.kind == "weight":
        zp_b, s_b = 0, wq.params.scales
    else:
        zp_b, s_b = wq.params.zero_point, wq.params.scale
    _integer(aq.codes, "activation codes")
    _integer(wq.codes, "weight-side codes")
    dt = check_exact(aq.cols, _max_centred(aq, zp_a), _max_centred(wq, zp_b))
    raw = np.subtract(aq.codes, zp_a, dtype=dt) @ np.subtract(wq.codes, zp_b, dtype=dt)
    raw = raw.astype(np.float64, copy=False)
    raw *= aq.params.scale * s_b
    return raw.astype(np.float32)


# ---------------------------------------------------------------------------
# Packed INT4 lane multiplier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedInt4Matrix:
    """4-bit codes packed two-per-byte along adjacent rows.

    ``rows``/``cols`` are the logical (unpacked) shape; an odd row count is
    zero-padded to the next even row. ``data[p, j]`` holds row ``2p`` of
    column ``j`` in the low nibble and row ``2p + 1`` in the high nibble.
    For the packed GEMM the logical rows are output channels, so the two
    nibbles of one byte share each activation value.
    """

    rows: int
    cols: int
    data: np.ndarray  # uint8, shape (ceil(rows / 2), cols)

    def __post_init__(self):
        # O(1), no scan of the data: uint8 cells keep every lane word below 2^32
        dtype = getattr(self.data, "dtype", type(self.data).__name__)
        if dtype != np.uint8:
            raise KernelError(f"packed data must be a uint8 array, got {dtype}")
        rows, cols, shape = self.rows, self.cols, self.data.shape
        if not (isinstance(rows, (int, np.integer)) and isinstance(cols, (int, np.integer))
                and rows >= 0 and shape == ((rows + 1) // 2, cols)):
            raise KernelError(f"packed data of shape {shape} for {rows} x {cols} codes")


def pack_int4(codes) -> PackedInt4Matrix:
    codes = _nibbles(codes, "codes")
    rows, cols = codes.shape
    c = codes.astype(np.uint8)
    if rows % 2:
        c = np.vstack([c, np.zeros((1, cols), dtype=np.uint8)])
    data = c[0::2] | (c[1::2] << 4)
    return PackedInt4Matrix(rows=rows, cols=cols, data=data)


def unpack_int4(p: PackedInt4Matrix) -> np.ndarray:
    lo = p.data & 0x0F
    hi = p.data >> 4
    out = np.empty((p.data.shape[0] * 2, p.cols), dtype=np.uint8)
    out[0::2] = lo
    out[1::2] = hi
    return out[: p.rows]


def lane_multiply(cell: int, act_code: int) -> int:
    """One 16-bit multiply producing two isolated 8-bit nibble products.

    The byte cell is widened so its low nibble sits at bit 0 and its high
    nibble at bit 8; multiplying by a 4-bit activation then yields
    ``w_lo * a`` in the low byte and ``w_hi * a`` in the high byte with no
    cross-byte carry (each product is at most 225 < 256).
    """
    try:  # as Python ints, which a numpy uint8 cell's shift would wrap
        cell, act_code = operator.index(cell), operator.index(act_code)
    except TypeError as e:
        raise KernelError(f"cell and activation code must be integers: {e}") from e
    if not 0 <= act_code <= 15:
        raise KernelError(f"activation code {act_code} outside 0..15")
    if not 0 <= cell <= 255:
        raise KernelError(f"cell {cell} outside byte range")
    widened = (cell & 0x0F) | ((cell >> 4) << 8)
    return widened * act_code


class LaneAccumulator:
    """32-bit accumulator holding two independent 16-bit sub-lanes.

    Each 16-bit product is spread so its low byte lands in bits [0, 16) and
    its high byte in bits [16, 32); 256 additions of the maximum product
    (225 per byte) stay below 2^16 per sub-lane, so the lanes never carry
    into each other. The 257th addition raises instead of silently wrapping.
    """

    __slots__ = ("value", "additions_done")

    def __init__(self):
        self.value = 0
        self.additions_done = 0

    def add(self, product: int) -> "LaneAccumulator":
        if self.additions_done >= MAX_LANE_ADDITIONS:
            raise AccumulatorBudgetError(
                f"lane accumulator budget of {MAX_LANE_ADDITIONS} additions exceeded"
            )
        spread = (product & 0xFF) | ((product >> 8) << 16)
        self.value = (self.value + spread) & 0xFFFFFFFF
        self.additions_done += 1
        return self

    @property
    def sublanes(self) -> tuple[int, int]:
        return self.value & 0xFFFF, self.value >> 16


@dataclass(frozen=True)
class Int4GemmParams:
    act_scale: float
    act_zero_point: int
    weight_scales: np.ndarray  # per logical output row of the packed matrix
    weight_zero_point: ClassVar[int] = 8  # signed code + 8 -> unsigned nibble

    def __post_init__(self):
        if not 0 < self.act_scale < np.inf:
            raise KernelError(f"act_scale must be finite and positive, got {self.act_scale}")
        zp = self.act_zero_point
        if not isinstance(zp, (int, np.integer)) or not 0 <= zp <= 15:
            raise KernelError(f"act_zero_point must be an integer in 0..15, got {zp!r}")


def pack_weights_for_gemm(weight_nibbles) -> PackedInt4Matrix:
    """Pack a (k x n) unsigned-nibble weight matrix output-major, so each
    byte pairs two adjacent output channels that share every activation."""
    w = np.asarray(weight_nibbles)
    return pack_int4(w.T)


def gemm_int4_raw(a_codes, packed: PackedInt4Matrix, impl: str = "vector") -> np.ndarray:
    """Raw integer product of activation nibbles against packed weights.

    Returns the (m x rows) int64 matrix of sums a[i, :] . w[r, :]; inner
    dimensions longer than 256 are split into lane-budget-sized groups whose
    sub-lane results are combined in wider integers.
    """
    a = _nibbles(a_codes, "activation codes")
    if a.shape[1] != packed.cols:
        raise KernelError(f"inner dims differ: {a.shape[1]} vs {packed.cols}")
    m, k = a.shape
    pairs = packed.data.shape[0]
    out = np.zeros((m, 2 * pairs), dtype=np.int64)
    group_bounds = list(range(0, k, MAX_LANE_ADDITIONS)) + [k]

    if impl == "vector":
        # register word per cell: low nibble at bit 0, high nibble at bit 16
        widened = (packed.data & 0x0F) + 65536.0 * (packed.data >> 4)  # (pairs, k)
        a64 = a.astype(np.float64)
        for lo, hi in zip(group_bounds, group_bounds[1:]):
            acc = (a64[:, lo:hi] @ widened[:, lo:hi].T).astype("<u4")
            out += acc.view("<u2")  # sub-lanes, low half first: rows 2p, 2p + 1
    elif impl == "scalar":
        for i in range(m):
            for p in range(pairs):
                lane_lo = 0
                lane_hi = 0
                for lo, hi in zip(group_bounds, group_bounds[1:]):
                    acc = LaneAccumulator()
                    for j in range(lo, hi):
                        acc.add(lane_multiply(int(packed.data[p, j]), int(a[i, j])))
                    sub_lo, sub_hi = acc.sublanes
                    lane_lo += sub_lo
                    lane_hi += sub_hi
                out[i, 2 * p] = lane_lo
                out[i, 2 * p + 1] = lane_hi
    else:
        raise KernelError(f"unknown impl {impl!r}")
    return out[:, : packed.rows]


def gemm_int4_packed(a_codes, packed: PackedInt4Matrix, params: Int4GemmParams):
    """Packed-nibble GEMM scaled back to FP32. The lane GEMM keeps unsigned
    nibbles, as the hardware does; the epilogue centres its sum exactly, in
    place in float64: ``raw - zp_w * rowsum(a) - zp_a * signed weight sums``."""
    a, scales = np.asarray(a_codes), np.asarray(params.weight_scales)
    if scales.shape != (packed.rows,):
        raise KernelError(f"{scales.shape} weight scales for {packed.rows} output rows")
    acc = gemm_int4_raw(a, packed).astype(np.float64)
    zp_w = params.weight_zero_point
    # signed weight row sums from the nibble planes, in row order 2p, 2p + 1
    planes = np.stack([packed.data & 0x0F, packed.data >> 4], axis=1)  # (pairs, 2, k)
    w_sums = planes.sum(axis=2, dtype=np.int64).ravel()[: packed.rows] - a.shape[1] * zp_w
    acc -= np.multiply(a.sum(axis=1, dtype=np.int64), zp_w, dtype=np.float64)[:, None]
    acc -= np.multiply(w_sums, params.act_zero_point, dtype=np.float64)
    acc *= params.act_scale * scales
    return acc.astype(np.float32)


# ---------------------------------------------------------------------------
# Log2 attention-value GEMM
# ---------------------------------------------------------------------------

def gemm_log2_attnv(probs_q: QuantTensor, vq: QuantTensor) -> np.ndarray:
    """Shift-semantics GEMM for log2-quantized probabilities against an
    affine-quantized value matrix.

    Each probability dequantizes to sign * max_abs * 2^-code; the products
    are accumulated as integer v_code * 2^(Ks - code) with Ks the max code,
    then scaled once by max_abs * s_v * 2^-Ks in float64. The bound on the
    integer sum is k * 2^Ks times the largest centred value code: the GEMM
    runs in float32 below 2^24 (k <= 514 for 4-bit log2, Ks = 7, against
    8-bit values) and in float64 below 2^53 (any k at Ks = 7).
    """
    if probs_q.kind != "log2":
        raise KernelError(f"expected log2 probabilities, got {probs_q.kind}")
    if vq.kind != "affine":
        raise KernelError(f"expected affine values, got {vq.kind}")
    _inner(probs_q.codes, vq.codes)
    _integer(probs_q.codes, "log2 codes")
    _integer(probs_q.signs, "log2 signs")
    _integer(vq.codes, "value codes")
    ks = probs_q.params.code_hi
    dt = check_exact(probs_q.cols, 2**ks, _max_centred(vq, vq.params.zero_point))
    lhs = np.ldexp(probs_q.signs.astype(dt), ks - probs_q.codes)
    acc = lhs @ np.subtract(vq.codes, vq.params.zero_point, dtype=dt)
    acc = acc.astype(np.float64, copy=False)
    acc *= probs_q.params.max_abs * vq.params.scale * 2.0**-ks
    return acc.astype(np.float32)
