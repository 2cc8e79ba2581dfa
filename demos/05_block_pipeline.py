"""End-to-end quantized decoder block: precision presets and diagnostics.

Runs one toy causal decoder block (attention + gated MLP) in FP32, W4A8
(8-bit activations everywhere, 4-bit log2 softmax output), and W4A4 (the
post-attention projection and FC1 inputs additionally at 4-bit through the
packed lane GEMM), and prints per-site quantization MSE plus the divergence
of each preset from the FP32 reference. The FP32 reference is the same
block with every site at the default FP32 config, and the MSEs come from the
trace list ``forward_block`` fills when one is passed. Also shows the two
analysis passes: per-channel outlier counts and the attention locality index,
read off the attention statistics each block pass returns.
"""

from dataclasses import replace

import numpy as np

import agq

seed = 1
rng = np.random.default_rng(seed + 100)
x = rng.standard_normal((16, 64)).astype(np.float32)

for mode in ("w4a8", "w4a4"):
    cfg = agq.BlockConfig(sites=agq.preset_sites(mode), seed=seed)
    block = agq.init_block(cfg)
    records = []
    out, _ = agq.forward_block(block, x, trace=records)
    fp_out, _ = agq.forward_block(block, x, replace(cfg, sites={}))
    print(f"{mode}: cosine vs FP32 = {agq.cosine_similarity(out, fp_out):.4f}")
    # attn_v records one entry per head; print their mean, one line per site
    by_site = {}
    for entry in records:
        by_site.setdefault((entry["site"], entry["act_bits"]), []).append(entry["mse"])
    for (site, bits), mses in by_site.items():
        heads = f"  (mean of {len(mses)} heads)" if len(mses) > 1 else ""
        print(f"  {site:>16s}  A{bits}  mse {np.mean(mses):.3g}{heads}")

# --- outlier analysis on an injected fixture --------------------------------
x_out = agq.make_outlier_input(t=32, d=64, outlier_channels=(3, 4, 5),
                               outlier_tokens=range(20, 32), seed=seed)
report = agq.analyze_outliers(x_out, k_sigma=3.0)
print(f"\noutlier channels (injected 3, 4, 5): "
      f"top ranked = {report.ranked_channels[:3].tolist()}")

# --- locality shift under quantization ---------------------------------------
cfg = agq.BlockConfig(sites=agq.preset_sites("w4a8", act_quantizer="affine"),
                      seed=seed)
block = agq.init_block(cfg)
stripe = agq.make_stripe_input(block, t=16, seed=seed + 1000)
_, fp_stats = agq.forward_block(block, stripe, replace(cfg, sites={}))
_, q_stats = agq.forward_block(block, stripe, cfg)
print(f"\nstart-token-stripe fixture, locality index "
      f"(mass on the two previous positions):")
print(f"  FP32:      {agq.attention_locality(fp_stats):.4f}")
print(f"  quantized: {agq.attention_locality(q_stats):.4f}  "
      f"(outliers crush the stripe, attention turns local)")
