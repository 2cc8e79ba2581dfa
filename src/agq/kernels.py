"""Matrix-multiplication back ends.

Four paths: an FP32 reference GEMM, an integer GEMM of zero-point-centred
codes for 8-bit activations against 4-bit per-channel weights, a bit-exact
model of the byte-lane-packed 4-bit multiplier (two weight nibbles per byte,
two isolated 8-bit products per 16-bit multiply, dual 16-bit sub-lane
accumulation), and a shift-based GEMM for log2-quantized attention
probabilities.

The integer paths run as float64 BLAS matmuls of integer codes, centred on
their zero points except in the lane model. That is exact while every
partial sum is an integer below 2^53 in magnitude: ``check_exact`` bounds it
from the code ranges and zero points in the quantization params (not from
the data) and raises ``KernelError`` beyond it.

The packed path ships two implementations: a scalar per-element model that is
the semantic reference, and the default, which must be bit-identical to it.
The default models the packed 32-bit register word itself: under the
256-addition budget, accumulating spread lane products without carries is
one GEMM of the activations against the widened word ``w_lo + 2^16 * w_hi``
per 256-wide group (each word stays below 2^32), whose low and high 16 bits
are the two sub-lanes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .quantizers import (
    QuantTensor,
    fit_affine,
    fit_weight_symmetric,
    quantize_affine,
    quantize_weight_symmetric,
)
from .tensor_store import as_tensor2d

MAX_LANE_ADDITIONS = 256  # 256 * 225 = 57600 < 2^16 keeps sub-lanes isolated
EXACT_F64_LIMIT = 2**53  # every integer of smaller magnitude is a float64


class KernelError(Exception):
    pass


class AccumulatorBudgetError(KernelError):
    """More than 256 additions on one lane accumulator."""


def check_exact(k: int, max_a: int, max_b: int) -> None:
    """Raise ``KernelError`` unless a float64 GEMM is exact: inner dimension
    ``k`` and operand magnitudes at most ``max_a`` and ``max_b``. Every
    partial sum is then an integer below 2^53, in any summation order.
    """
    if k * max_a * max_b >= EXACT_F64_LIMIT:
        raise KernelError(
            f"float64 accumulation not exact: k={k} x {max_a} x {max_b} reaches 2^53"
        )


def _max_centred(rng, zp: int) -> int:
    """Largest magnitude of a ``CodeRange`` code minus the zero point ``zp``."""
    return max(zp - rng.lo, rng.hi - zp)


def gemm_f32(a, w) -> np.ndarray:
    """Reference GEMM: float64 accumulation narrowed to float32."""
    a = as_tensor2d(a)
    w = as_tensor2d(w)
    if a.shape[1] != w.shape[0]:
        raise KernelError(f"inner dims differ: {a.shape[1]} vs {w.shape[0]}")
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
    is then dequantize_trip(aq) @ w_deq in exact arithmetic.
    """
    if aq.kind not in ("affine", "trip"):
        raise KernelError(f"activation side must be affine/trip codes, got {aq.kind}")
    if wq.kind not in ("weight", "affine"):
        raise KernelError(f"unsupported weight-side kind {wq.kind}")
    if aq.cols != wq.rows:
        raise KernelError(f"inner dims differ: {aq.cols} vs {wq.rows}")
    zp_a = aq.params.zero_point
    if wq.kind == "weight":
        zp_b, s_b = 0, wq.params.scales
    else:
        zp_b, s_b = wq.params.zero_point, wq.params.scale
    check_exact(aq.cols, _max_centred(aq.params.range, zp_a),
                _max_centred(wq.params.range, zp_b))
    raw = (aq.codes - np.float64(zp_a)) @ (wq.codes - np.float64(zp_b))
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


def pack_int4(codes) -> PackedInt4Matrix:
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise KernelError("expected a 2-D code matrix")
    if codes.size and (codes.min() < 0 or codes.max() > 15):
        raise KernelError("codes outside nibble range 0..15")
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
    a = np.asarray(a_codes)
    if a.ndim != 2:
        raise KernelError("expected 2-D activation codes")
    if a.size and (a.min() < 0 or a.max() > 15):
        raise KernelError("activation codes outside nibble range 0..15")
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
            acc = (a64[:, lo:hi] @ widened[:, lo:hi].T).astype(np.int64)
            out[:, 0::2] += acc & 0xFFFF
            out[:, 1::2] += acc >> 16
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
    a = np.asarray(a_codes)
    acc = gemm_int4_raw(a, packed).astype(np.float64)
    zp_w = params.weight_zero_point
    # signed weight row sums from the nibble planes, in row order 2p, 2p + 1
    planes = np.stack([packed.data & 0x0F, packed.data >> 4], axis=1)  # (pairs, 2, k)
    w_sums = planes.sum(axis=2, dtype=np.int64).ravel()[: packed.rows] - a.shape[1] * zp_w
    acc -= zp_w * a.sum(axis=1, dtype=np.int64)[:, None]
    acc -= params.act_zero_point * w_sums
    acc *= params.act_scale * np.asarray(params.weight_scales)
    return acc.astype(np.float32)


# ---------------------------------------------------------------------------
# Log2 attention-value GEMM
# ---------------------------------------------------------------------------

def gemm_log2_attnv(probs_q: QuantTensor, vq: QuantTensor) -> np.ndarray:
    """Shift-semantics GEMM for log2-quantized probabilities against an
    affine-quantized value matrix.

    Each probability dequantizes to sign * max_abs * 2^-code; the products
    are accumulated as integer v_code * 2^(Ks - code) with Ks the max code,
    then scaled once by max_abs * s_v * 2^-Ks. Exact while k * 2^Ks times
    the largest centred value code stays below 2^53 (any k for 4-bit log2,
    Ks = 7).
    """
    if probs_q.kind != "log2":
        raise KernelError(f"expected log2 probabilities, got {probs_q.kind}")
    if vq.kind != "affine":
        raise KernelError(f"expected affine values, got {vq.kind}")
    if probs_q.cols != vq.rows:
        raise KernelError(f"inner dims differ: {probs_q.cols} vs {vq.rows}")
    ks = probs_q.params.code_hi
    check_exact(probs_q.cols, 2**ks, _max_centred(vq.params.range, vq.params.zero_point))
    lhs = np.ldexp(probs_q.signs.astype(np.float64), ks - probs_q.codes)
    acc = lhs @ (vq.codes - np.float64(vq.params.zero_point))
    scale = probs_q.params.max_abs * vq.params.scale * 2.0**-ks
    return (acc * scale).astype(np.float32)


# ---------------------------------------------------------------------------
# Benchmark harness (informational only)
# ---------------------------------------------------------------------------

BENCH_KERNELS = ("f32", "int8", "int4")


def bench_gemm(m: int, k: int, n: int, kernel: str, repeats: int, seed: int = 0) -> dict:
    """Time one GEMM kernel on seeded inputs; medians are informational and
    never asserted against platform-dependent thresholds."""
    if kernel not in BENCH_KERNELS:
        raise KernelError(f"unknown kernel {kernel!r}; choose from {BENCH_KERNELS}")
    if repeats < 3:
        raise KernelError("repeats must be >= 3")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    w = rng.standard_normal((k, n)).astype(np.float32)
    checksum = hashlib.sha256(a.tobytes() + w.tobytes()).hexdigest()[:16]

    if kernel == "f32":
        run = lambda: gemm_f32(a, w)
    elif kernel == "int8":
        aq = quantize_affine(a, fit_affine(a, 8))
        wq = quantize_weight_symmetric(w, fit_weight_symmetric(w, 4))
        run = lambda: gemm_int_affine(aq, wq)
    else:
        aq = quantize_affine(a, fit_affine(a, 4))
        wq = quantize_weight_symmetric(w, fit_weight_symmetric(w, 4))
        packed = pack_weights_for_gemm(
            (wq.codes + Int4GemmParams.weight_zero_point).astype(np.uint8))
        params = Int4GemmParams(
            act_scale=aq.params.scale,
            act_zero_point=aq.params.zero_point,
            weight_scales=wq.params.scales,
        )
        run = lambda: gemm_int4_packed(aq.codes, packed, params)

    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        run()
        samples.append(time.perf_counter_ns() - t0)
    return {
        "kernel": kernel,
        "m": m,
        "k": k,
        "n": n,
        "median_ns": int(np.median(samples)),
        "p10_ns": int(np.percentile(samples, 10)),
        "p90_ns": int(np.percentile(samples, 90)),
        "repeats": repeats,
        "input_checksum": checksum,
    }
