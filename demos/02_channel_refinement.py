"""Per-channel power-of-two refinement for outlier-channel activations.

A handful of channels in transformer activations carry values an order of
magnitude larger than the rest. A single shared scale then wastes most of the
code range on the quiet channels. The refinement keeps one shared scale but
lets each channel pick a power-of-two multiplier (a cheap shift), chosen by
exhaustive L2 search. At the next matmul the multipliers stay integer work:
weight row c's plain 4-bit codes are shifted left by alpha_c, so the
product needs no re-quantized weights.
"""

import numpy as np

import agq

rng = np.random.default_rng(1)
t, d = 128, 8

x = rng.standard_normal((t, d)).astype(np.float32)
x[:, 2] *= 12.0  # one loud channel
x[:, 5] *= 25.0  # one louder channel

params = agq.fit_trip(x, bits=8, cap=3)
print("per-channel exponents (0 = finest step, cap = coarsest):")
print(f"  alphas = {params.alphas.tolist()}")
print(f"  steps  = {[f'{s:.4g}' for s in params.steps]}")

q = agq.quantize_trip(x, params)
refined = agq.dequantize_trip(q)

plain_params = agq.fit_affine(x, 8)
plain = agq.dequantize_affine(agq.quantize_affine(x, plain_params))

for c in range(d):
    e_ref = np.linalg.norm(x[:, c] - refined[:, c])
    e_pln = np.linalg.norm(x[:, c] - plain[:, c])
    tag = " <- outlier channel" if c in (2, 5) else ""
    print(f"  channel {c}: refined L2 {e_ref:8.4f}   plain L2 {e_pln:8.4f}{tag}")

# --- shifts: the exponents act on the integer weight codes ---------------
w = rng.standard_normal((d, 4)).astype(np.float32)
wq = agq.quantize_weight_symmetric(w, agq.fit_weight_symmetric(w, 4))
shifted = wq.codes.astype(np.int64) << params.alphas[:, None]
raw = (q.codes.astype(np.int64) - params.zero_point) @ shifted  # exact int64
lhs = raw * (params.scale * wq.params.scales)
# dequantize_trip's values before its float32 cast, times the dequantized weights
w_deq = wq.codes * wq.params.scales
rhs = ((q.codes - params.zero_point) * params.steps) @ w_deq
rel = np.abs(lhs - rhs).max() / np.abs(rhs).max()
print(f"\nshifted integer product vs dequantize_trip(q) @ w_deq: relative gap {rel:.3g}")

# the kernel takes the shifted codes with a code range that bounds them
shift_params = agq.ChannelSymmetricParams(
    range=agq.CodeRange(4, signed=True, shift=params.cap), scales=wq.params.scales)
out = agq.gemm_int_affine(q, agq.QuantTensor(shifted, shift_params))
print(f"gemm_int_affine on shifted codes equals it in float32: "
      f"{np.array_equal(out, lhs.astype(np.float32))}")
