"""Toy causal decoder block wiring quantizers, refinement, pruning, kernels.

One block = causal self-attention (one fused QKV linear transform, scaled QK,
softmax, AttnV, output projection, residual) followed by layernorm, an MLP
with a sigmoid-gated linear unit, and a second residual. The four weight
sites (linear_transform = [wq | wk | wv], projection, fc1, fc2) each hold one
weight matrix, so each site input is quantized once per block. Matmul sites
are individually configurable: FP32 reference, 8-bit affine/refined
activations against 4-bit weights, 4-bit activations through the packed lane
GEMM, and log2-quantized softmax probabilities through the shift GEMM. Nonlinear
operators (softmax, layernorm, the gate) always stay FP32.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import (
    Int4GemmParams,
    gemm_f32,
    gemm_int4_packed,
    gemm_int_affine,
    gemm_log2_attnv,
    pack_weights_for_gemm,
)
from .pruning import (
    AttentionMap,
    PruneSchedule,
    prune_step,
    score_tokens,
    sparsity,
    validate_map,
)
from .quantizers import (
    QuantTensor,
    dequantize_affine,
    dequantize_log2,
    fit_affine,
    fit_weight_symmetric,
    quantize_affine,
    quantize_log2,
    quantize_weight_symmetric,
)
from .tensor_store import as_tensor2d, slice_rows
from .trip import dequantize_trip, fit_trip, fold_trip_into_weights, quantize_trip

SITES = ("linear_transform", "qk", "attn_v", "projection", "fc1", "fc2")
# Sites whose inputs come after the self-attention product and may run 4-bit.
POST_ATTENTION_SITES = frozenset({"attn_v", "projection", "fc1", "fc2"})


class PipelineError(Exception):
    pass


@dataclass(frozen=True)
class SiteConfig:
    act_bits: int = 32  # 4, 8, or 32 (32 = FP passthrough; else 4-bit weights)
    act_quantizer: str = "affine"  # "affine" | "trip" | "log2"
    trip_cap: int = 3

    def __post_init__(self):
        if self.act_bits not in (4, 8, 32):
            raise PipelineError(f"act_bits must be 4, 8 or 32, got {self.act_bits}")
        if self.act_quantizer not in ("affine", "trip", "log2"):
            raise PipelineError(f"unknown activation quantizer {self.act_quantizer!r}")
        if not 0 <= self.trip_cap <= 6:
            raise PipelineError(f"trip_cap must be in 0..6, got {self.trip_cap}")


@dataclass(frozen=True)
class BlockConfig:
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    sites: dict[str, SiteConfig] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise PipelineError("d_model must be divisible by n_heads")
        unknown = set(self.sites) - set(SITES)
        if unknown:
            raise PipelineError(f"unknown sites {sorted(unknown)}")
        for name in SITES:
            sc = self.site(name)
            if sc.act_bits == 4 and name not in POST_ATTENTION_SITES:
                raise PipelineError(
                    f"4-bit activations are restricted to post-attention sites, not {name}"
                )
        attn_v = self.site("attn_v")
        if attn_v.act_bits < 32 and attn_v.act_quantizer != "log2":
            raise PipelineError("quantized softmax output must use the log2 quantizer")
        if attn_v.act_bits == 8:
            raise PipelineError("softmax probabilities quantize to 4-bit log2 or FP32")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def site(self, name: str) -> SiteConfig:
        return self.sites.get(name, SiteConfig())


def preset_sites(mode: str, act_quantizer: str = "trip", trip_cap: int = 3):
    """Site maps for the three named regimes: fp32, w4a8, w4a4.

    w4a8 quantizes every matmul with 8-bit activations (softmax output 4-bit
    log2); w4a4 additionally drops the projection and FC1 inputs to 4-bit.
    """
    if mode == "fp32":
        return {}
    if mode not in ("w4a8", "w4a4"):
        raise PipelineError(f"unknown preset {mode!r}")
    a8 = SiteConfig(act_bits=8, act_quantizer=act_quantizer, trip_cap=trip_cap)
    sites = {
        "linear_transform": a8,
        "qk": SiteConfig(act_bits=8, act_quantizer="affine"),
        "attn_v": SiteConfig(act_bits=4, act_quantizer="log2"),
        "projection": a8,
        "fc1": a8,
        "fc2": a8,
    }
    if mode == "w4a4":
        cap4 = min(trip_cap, 2)  # smaller shift budget at 4-bit
        for name in ("projection", "fc1"):
            sites[name] = replace(a8, act_bits=4, trip_cap=cap4)
    return sites


@dataclass
class Block:
    cfg: BlockConfig
    weights: dict[str, np.ndarray]  # keyed by weight site; linear_transform = [wq|wk|wv]
    weight_q: dict[str, QuantTensor]  # plain per-channel 4-bit codes per weight site


def init_block(cfg: BlockConfig) -> Block:
    """Deterministic scaled-normal weights plus precomputed 4-bit codes.

    Draws wq, wk, wv, wo, w1, w2 in that order; the first three are stored
    as the one fused (d, 3d) linear-transform weight.
    """
    rng = np.random.default_rng(cfg.seed)
    d, f = cfg.d_model, cfg.d_ff
    scale = 1.0 / np.sqrt(d)
    draw = lambda shape: (rng.standard_normal(shape) * scale).astype(np.float32)
    weights = {"linear_transform": np.hstack([draw((d, d)) for _ in range(3)])}
    weights.update(projection=draw((d, d)), fc1=draw((d, f)), fc2=draw((f, d)))
    weight_q = {
        name: quantize_weight_symmetric(w, fit_weight_symmetric(w, 4))
        for name, w in weights.items()
    }
    return Block(cfg=cfg, weights=weights, weight_q=weight_q)


def init_stack(cfg: BlockConfig, n_blocks: int) -> list[Block]:
    return [init_block(replace(cfg, seed=cfg.seed + i)) for i in range(n_blocks)]


def _layernorm(x: np.ndarray) -> np.ndarray:
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=1, keepdims=True)
    var = x64.var(axis=1, keepdims=True)
    return ((x64 - mu) / np.sqrt(var + 1e-5)).astype(np.float32)


def _silu(x: np.ndarray) -> np.ndarray:
    x64 = x.astype(np.float64)
    return (x64 / (1.0 + np.exp(-x64))).astype(np.float32)


def _softmax_causal(scores: np.ndarray, past: np.ndarray) -> np.ndarray:
    """Row softmax over the ``past`` entries (the lower triangle, diagonal
    included); the future entries are exactly 0 and never reach ``exp``."""
    row_max = scores.max(axis=1, keepdims=True, where=past, initial=-np.inf)
    e = np.zeros(scores.shape)
    np.subtract(scores, row_max, out=e, where=past, dtype=np.float64)
    np.exp(e, out=e, where=past)
    e /= e.sum(axis=1, keepdims=True)
    return e.astype(np.float32)


def _quantize_act(x: np.ndarray, sc: SiteConfig):
    if sc.act_quantizer == "trip":
        return quantize_trip(x, fit_trip(x, sc.act_bits, sc.trip_cap))
    return quantize_affine(x, fit_affine(x, sc.act_bits))


def _mse(x: np.ndarray, dequant: np.ndarray) -> float:
    """Mean squared quantization error, in float64."""
    d = x.astype(np.float64)
    d -= dequant
    np.square(d, out=d)
    return float(d.mean())


def _site_matmul(block: Block, cfg: BlockConfig, name: str, x: np.ndarray,
                 diagnostics: list) -> np.ndarray:
    """Run weight site ``name`` on ``x`` at the site's configured precision."""
    sc, w, wq = cfg.site(name), block.weights[name], block.weight_q[name]
    if sc.act_bits == 32:
        return gemm_f32(x, w)
    aq = _quantize_act(x, sc)
    dequant = dequantize_trip(aq) if aq.kind == "trip" else dequantize_affine(aq)
    diagnostics.append({"site": name, "act_bits": sc.act_bits, "mse": _mse(x, dequant)})
    if aq.kind == "trip":
        folded = fold_trip_into_weights(w, aq.params)
        wq = quantize_weight_symmetric(folded, fit_weight_symmetric(folded, 4))
    if sc.act_bits == 8:
        return gemm_int_affine(aq, wq)
    # 4-bit activations: packed lane GEMM on unsigned nibbles
    packed = pack_weights_for_gemm((wq.codes + 8).astype(np.uint8))
    params = Int4GemmParams(act_scale=aq.params.scale, act_zero_point=aq.params.zero_point,
                            weight_scales=wq.params.scales)
    return gemm_int4_packed(aq.codes.astype(np.uint8), packed, params)


def _qk_matmul(qh: np.ndarray, kh: np.ndarray, sc: SiteConfig) -> np.ndarray:
    """Q @ K^T, either FP32 or as an 8-bit affine-affine integer product."""
    if sc.act_bits == 32:
        return gemm_f32(qh, kh.T)
    kt = kh.T
    q_q = quantize_affine(qh, fit_affine(qh, sc.act_bits))
    return gemm_int_affine(q_q, quantize_affine(kt, fit_affine(kt, sc.act_bits)))


def _attnv_matmul(probs: np.ndarray, vh: np.ndarray, sc: SiteConfig,
                  diagnostics: list) -> np.ndarray:
    if sc.act_bits == 32:
        return gemm_f32(probs, vh)
    probs_q = quantize_log2(probs, sc.act_bits)
    diagnostics.append({
        "site": "attn_v",
        "act_bits": sc.act_bits,
        "mse": _mse(probs, dequantize_log2(probs_q)),
    })
    vq = quantize_affine(vh, fit_affine(vh, 8))
    return gemm_log2_attnv(probs_q, vq)


def _finite(x: np.ndarray, stage: str) -> np.ndarray:
    """Pass ``x`` on, or raise if a stage overflowed float32 into Inf/NaN."""
    if not np.isfinite(x).all():
        raise PipelineError(f"non-finite activations after {stage}")
    return x


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported by _finite
def forward_block(block: Block, x, cfg: BlockConfig | None = None):
    """One decoder block pass; returns (output, AttentionMap, diagnostics).

    Raises ``PipelineError`` naming the stage whose output is not finite.
    """
    cfg = cfg or block.cfg
    x = as_tensor2d(x)
    t, d = x.shape
    if d != cfg.d_model:
        raise PipelineError(f"input width {d} != d_model {cfg.d_model}")
    diagnostics: list[dict] = []
    dh, nh = cfg.d_head, cfg.n_heads

    qkv = _site_matmul(block, cfg, "linear_transform", x, diagnostics)
    q, k, v = np.hsplit(_finite(qkv, "linear_transform"), 3)

    probs = np.empty((nh, t, t), dtype=np.float32)
    ctx = np.empty((t, d), dtype=np.float32)
    past = np.tri(t, dtype=bool)  # T changes between blocks when pruning
    for h in range(nh):
        sl = slice(h * dh, (h + 1) * dh)
        scores = _qk_matmul(q[:, sl], k[:, sl], cfg.site("qk"))
        scores /= np.float32(np.sqrt(dh))
        probs[h] = _softmax_causal(_finite(scores, "qk"), past)
        ctx[:, sl] = _attnv_matmul(probs[h], v[:, sl], cfg.site("attn_v"), diagnostics)

    proj = _site_matmul(block, cfg, "projection", _finite(ctx, "attn_v"), diagnostics)
    h1 = _finite(x + proj, "projection")
    a1 = _site_matmul(block, cfg, "fc1", _layernorm(h1), diagnostics)
    m2 = _site_matmul(block, cfg, "fc2", _silu(_finite(a1, "fc1")), diagnostics)
    out = _finite(h1 + m2, "fc2")
    return out, AttentionMap(probs=probs), diagnostics


def forward_fp(block: Block, x):
    """FP32 reference pass: every site forced to the FP32 kernel."""
    fp_cfg = replace(block.cfg, sites={})
    out, amap, _ = forward_block(block, x, fp_cfg)
    return out, [amap]


def forward_quant(block: Block, x, cfg: BlockConfig | None = None):
    """Configured pass; diagnostics carry per-site MSE and FP divergence."""
    cfg = cfg or block.cfg
    out, amap, site_diags = forward_block(block, x, cfg)
    fp_out, fp_maps = forward_fp(block, x)
    diagnostics = {
        "sites": site_diags,
        "cosine": cosine_similarity(out, fp_out),
        "locality_fp": attention_locality(fp_maps[0]),
        "locality_q": attention_locality(amap),
    }
    return out, diagnostics


def forward_stack(blocks: list[Block], x, cfg: BlockConfig | None = None,
                  schedule: PruneSchedule | None = None,
                  forced_keeps: dict[int, list[int]] | None = None):
    """Run a block stack, pruning at schedule layers from each layer's own
    attention map (re-scored at every prune layer).

    ``forced_keeps`` replays a previous run's kept indices, which lets an
    FP reference see exactly the tokens a quantized pruned run saw. Returns
    (output, info) with per-layer kept indices, kept fractions, sparsity,
    attention maps, and per-site diagnostics.
    """
    x = as_tensor2d(x)
    t0 = x.shape[0]
    kept_global = list(range(t0))
    info = {"keeps": [], "kept_fractions": [], "maps": [], "sites": []}
    for i, block in enumerate(blocks):
        try:
            x, amap, diags = forward_block(block, x, cfg or block.cfg)
        except PipelineError as e:
            raise PipelineError(f"block {i}: {e}") from e
        info["maps"].append(amap)
        info["sites"].extend(diags)
        if forced_keeps is not None and i in forced_keeps:
            local = forced_keeps[i]
            x = slice_rows(x, local)
            kept_global = [kept_global[j] for j in local]
            info["keeps"].append(local)
        elif schedule is not None and i in schedule.prune_layers:
            scores = score_tokens(amap)
            x, local = prune_step(x, scores, schedule.per_layer_ratio)
            kept_global = [kept_global[j] for j in local]
            info["keeps"].append(local)
        else:
            info["keeps"].append(list(range(x.shape[0])))
        info["kept_fractions"].append(x.shape[0] / t0)
    info["kept_global"] = kept_global
    info["sparsity"] = sparsity(info["kept_fractions"], len(blocks))
    return x, info


def cosine_similarity(a, b) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 1.0 if np.array_equal(a, b) else 0.0
    return float(np.dot(a, b) / denom)


# ---------------------------------------------------------------------------
# Analysis passes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutlierReport:
    counts: np.ndarray  # per-channel outlier counts
    threshold: float  # |x| above this counts as an outlier
    k_sigma: float
    ranked_channels: np.ndarray  # channels sorted by count, descending


def analyze_outliers(x, k_sigma: float) -> OutlierReport:
    """Count, per channel, elements with |x| > mean(|x|) + k_sigma * std(|x|)."""
    x = as_tensor2d(x)
    if x.size == 0:
        raise PipelineError("cannot analyze empty tensor")
    if k_sigma <= 0:
        raise PipelineError("k_sigma must be positive")
    mag = np.abs(x.astype(np.float64))
    threshold = float(mag.mean() + k_sigma * mag.std())
    counts = (mag > threshold).sum(axis=0)
    order = np.lexsort((np.arange(len(counts)), -counts))
    return OutlierReport(
        counts=counts.astype(np.int64),
        threshold=threshold,
        k_sigma=k_sigma,
        ranked_channels=order,
    )


LOCALITY_WINDOW = 2


def attention_locality(m: AttentionMap) -> float:
    """Mean probability mass on the two immediately previous positions.

    High values indicate the local/triangular pattern; a start-token stripe
    drives the index toward zero for tokens beyond the window.
    """
    validate_map(m)
    t = m.tokens
    if t < 2:
        return 1.0
    total = 0.0
    for i in range(1, t):
        lo = max(0, i - LOCALITY_WINDOW)
        total += float(m.probs[:, i, lo:i].sum(axis=1).mean())
    return total / (t - 1)


def make_outlier_input(t: int, d: int, outlier_channels, outlier_tokens,
                       amplitude: float = 16.0, seed: int = 0) -> np.ndarray:
    """Synthetic activations: bounded inliers plus large fixed-channel
    outliers injected into the given (intended low-importance) tokens."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(t, d)).astype(np.float32)
    for tok in outlier_tokens:
        for ch in outlier_channels:
            x[tok, ch] = amplitude
    return x


def make_stripe_input(block: Block, t: int = 16, outlier_channels=(3, 4, 5),
                      outlier_tokens=None, amplitude: float = 2000.0,
                      anchor_gain: float = 2.0, noise: float = 0.1,
                      seed: int = 0) -> np.ndarray:
    """Synthetic hidden states with a start-token attention stripe plus
    fixed-channel outliers in the late tokens.

    All tokens share one base vector so their queries agree; the start token
    additionally carries a key-space anchor (solved through the block's
    query/key weights) that makes every query attend to position 0 in FP32.
    The injected outliers inflate the activation quantization range until the
    anchor signal falls below one quantization step, which flattens the
    quantized attention toward adjacent positions.
    """
    rng = np.random.default_rng(seed)
    d = block.cfg.d_model
    g = rng.standard_normal(d).astype(np.float32)
    x = g[None, :] + noise * rng.standard_normal((t, d)).astype(np.float32)
    wq, wk, _ = np.hsplit(block.weights["linear_transform"], 3)
    q_shared = g @ wq
    anchor = q_shared @ np.linalg.pinv(wk)
    x[0] = g + anchor_gain * anchor.astype(np.float32)
    if outlier_tokens is None:
        outlier_tokens = range(t // 2, t)
    for tok in outlier_tokens:
        x[tok, list(outlier_channels)] = amplitude
    return x.astype(np.float32)
