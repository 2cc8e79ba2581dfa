"""Reference checks for agq's integer kernels.

``gemm_int4_raw`` must equal a naive int64 matmul of the unpacked nibbles bit
for bit. The scaled kernels (``gemm_int_affine``, ``gemm_int4_packed``,
``gemm_log2_attnv``) must match dequantize-then-float64-matmul references
within float32 rounding of the exact result. The references here use only
numpy and the tensors' public fields, never agq's own helpers.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from tracer import Patch

# The kernels round an exact integer result to float32 once; the float64
# reference adds at most k * 2^-53 relative error per term magnitude.
REL_TOL = 2.0**-22
MAG_TOL = 2.0**-40


def unpack_nibbles(data: np.ndarray, rows: int) -> np.ndarray:
    """(ceil(rows/2), k) bytes -> (rows, k) int64: low nibble is row 2p."""
    out = np.empty((data.shape[0] * 2, data.shape[1]), dtype=np.int64)
    out[0::2] = data & 0x0F
    out[1::2] = data >> 4
    return out[:rows]


def _act_dequant(q) -> np.ndarray:
    """Activation codes at the layer-wise scale and zero point (refined
    codes carry their per-channel factors in the folded weights)."""
    p = q.params.base if q.kind == "trip" else q.params
    return (q.codes.astype(np.float64) - p.zero_point) * p.scale


def _close(out, a: np.ndarray, b: np.ndarray) -> bool:
    ref = a @ b
    mag = np.abs(a) @ np.abs(b)
    out = np.asarray(out, dtype=np.float64)
    return out.shape == ref.shape and bool(
        np.all(np.abs(out - ref) <= REL_TOL * np.abs(ref) + MAG_TOL * mag))


def check_int4_raw(out, a_codes, packed, *_args, **_kwargs) -> bool:
    ref = np.asarray(a_codes).astype(np.int64) @ unpack_nibbles(packed.data, packed.rows).T
    return out.dtype == np.int64 and out.shape == ref.shape and bool(np.array_equal(out, ref))


def check_int_affine(out, aq, wq) -> bool:
    if wq.kind == "weight":
        w = wq.codes.astype(np.float64) * wq.params.scales[None, :]
    else:
        w = _act_dequant(wq)
    return _close(out, _act_dequant(aq), w)


def check_int4_packed(out, a_codes, packed, params, *_args, **kwargs) -> bool:
    if not isinstance(out, np.ndarray):  # requantized output: not checked
        return True
    a = (np.asarray(a_codes).astype(np.float64) - params.act_zero_point) * params.act_scale
    w = unpack_nibbles(packed.data, packed.rows).astype(np.float64) - params.weight_zero_point
    w *= np.asarray(params.weight_scales, dtype=np.float64)[:, None]
    return _close(out, a, w.T)


def check_log2_attnv(out, probs_q, vq) -> bool:
    p = probs_q.signs.astype(np.float64) * probs_q.params.max_abs * np.exp2(
        -probs_q.codes.astype(np.float64))
    v = (vq.codes.astype(np.float64) - vq.params.zero_point) * vq.params.scale
    return _close(out, p, v)


CHECKS = {
    "gemm_int4_raw": check_int4_raw,
    "gemm_int_affine": check_int_affine,
    "gemm_int4_packed": check_int4_packed,
    "gemm_log2_attnv": check_log2_attnv,
}


class OracleCheck:
    """Wraps the checked kernels; counts calls checked and mismatches."""

    def __init__(self):
        self.checked: Counter = Counter()
        self.mismatches: Counter = Counter()
        self.missing: list[str] = []
        self._patch: Patch | None = None

    def _factory(self, name: str, check):
        def factory(fn):
            def checked(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.checked[name] += 1
                if not check(out, *args, **kwargs):
                    self.mismatches[name] += 1
                return out
            return checked
        return factory

    def install(self) -> None:
        self._patch = Patch()
        for name, check in CHECKS.items():
            self._patch.wrap("kernels", name, self._factory(name, check))
        self.missing = list(self._patch.missing)

    def uninstall(self) -> None:
        if self._patch is not None:
            self._patch.restore()
            self._patch = None

    @property
    def total_mismatches(self) -> int:
        return sum(self.mismatches.values())
