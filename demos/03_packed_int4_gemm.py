"""Bit-exact model of a byte-lane-packed 4-bit integer GEMM.

Two 4-bit weight codes for adjacent output channels share one byte. Widening
that byte so the nibbles sit 8 bits apart turns a single 16-bit multiply into
two isolated 8-bit products (each at most 15 * 15 = 225 < 256). A 32-bit
accumulator then holds two 16-bit sub-lanes, good for exactly 2^8 additions
before a sub-lane could overflow; longer inner dimensions split into groups.
"""

import numpy as np

import agq

# --- one multiply, two products -------------------------------------------
cell = 0x53  # low nibble 3, high nibble 5: two weights in one byte
act = 7
prod = agq.lane_multiply(cell, act)
print(f"cell 0x{cell:02X} * act {act} -> {prod}"
      f"  (low byte {prod & 0xFF} = 3*7, high byte {prod >> 8} = 5*7)")

# --- the accumulation budget ----------------------------------------------
acc = agq.LaneAccumulator()
worst = agq.lane_multiply(0xFF, 15)
for _ in range(256):
    acc.add(worst)
print(f"256 worst-case adds -> sub-lanes {acc.sublanes} (no cross-lane carry)")
try:
    acc.add(worst)
except agq.AccumulatorBudgetError as e:
    print(f"257th add refused: {e}")

# --- a full quantized matmul, checked against FP32 -------------------------
rng = np.random.default_rng(2)
m, k, n = 8, 300, 6  # k > 256 exercises the group split
x = rng.standard_normal((m, k)).astype(np.float32)
w = rng.standard_normal((k, n)).astype(np.float32)

aq = agq.quantize_affine(x, agq.fit_affine(x, 4))
wq = agq.quantize_weight_symmetric(w, agq.fit_weight_symmetric(w, 4))
zp = agq.Int4GemmParams.weight_zero_point  # signed code + 8 -> unsigned nibble
packed = agq.pack_weights_for_gemm((wq.codes + zp).astype(np.uint8))
params = agq.Int4GemmParams(
    act_scale=aq.params.scale,
    act_zero_point=aq.params.zero_point,
    weight_scales=wq.params.scales,
)

out = agq.gemm_int4_packed(aq.codes, packed, params)
ref = agq.gemm_f32(x, w)
print(f"\nW4A4 GEMM ({m}x{k} @ {k}x{n}, grouped accumulation)")
print(f"  cosine vs FP32: {agq.cosine_similarity(out, ref):.4f}")

scalar = agq.gemm_int4_raw(aq.codes, packed, impl="scalar")
vector = agq.gemm_int4_raw(aq.codes, packed, impl="vector")
print(f"  scalar model == vectorized model: {np.array_equal(scalar, vector)}")
