"""Toy causal decoder block wiring quantizers, refinement, pruning, kernels.

One block = causal self-attention (one fused QKV linear transform, scaled QK,
softmax, AttnV, output projection, residual) followed by layernorm, an MLP
with a sigmoid-gated linear unit, and a second residual. The four weight
sites (linear_transform = [wq | wk | wv], projection, fc1, fc2) each hold one
weight matrix, so each site input is quantized once per block. A site's
config sets only its precision and TRIP cap; the site fixes the quantizer.
Weight-site inputs are TRIP-refined (cap 0 is plain affine) against 4-bit
weights, at 8 bits or at 4 bits through the packed lane GEMM; Q/K/V are
per-head affine; softmax probabilities are log2 codes through the shift
GEMM. Nonlinear operators (softmax, layernorm, the gate) always stay FP32.
Weight codes are quantized and packed once, in ``init_block``; refined
activations reach them as exact integer shifts (8-bit) or repeated lane
channels (4-bit), never as a per-call weight re-quantization. Q, K and V are
(n_heads, T, d_head) views of the fused output: one call per block codes
them as three stacks, one fit per head; every per-head operand is a stack.

The attention chain (qk product, causal softmax, log2 quantizer, attn_v
product) is one loop over causal row bands, at every site precision: one qk
and one attn_v call per band, all heads, through the public kernels. Bands
of BAND_ROWS query rows ``[r0, r1)`` read key columns ``[0, r1)`` only, so
the scores right of a band's diagonal block are never computed, and those
above the diagonal inside it are zeroed before the qk finiteness check: only
causal scores can make a block raise, and each output row depends only on
its own and earlier rows. Bands run bottom band first, so later, smaller
temporaries reuse the first ones' memory. No (heads, T, T) map is kept: each
band writes its rows of the ``AttentionStats`` (the probabilities on token 0
and on the two previous tokens) from its own softmax. Bands give the bytes
of a whole-map pass: the integer qk and attn_v sums are exact in any order,
``gemm_f32`` adds exact float32 products in float64 in k order, softmax row
i sums over BAND_ROWS * (i // BAND_ROWS + 1) columns, zero-padded, whatever
T is (numpy's pairwise sum depends on the row length), and the log2
quantizer takes the map's maximum, which is exactly 1.0: row 0 is exp(0) /
1, and no rounded quotient of non-negative numbers exceeds it. Per-site MSE
records are made only for a caller that passes a ``trace`` list, which runs
the same bands; the attn_v record needs each head's whole (T, T) error, so
only a traced quantized pass holds a (heads, T, T) buffer. The FP32
reference pass is ``forward_block`` with ``replace(cfg, sites={})``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import (
    Int4GemmParams,
    PackedInt4Matrix,
    gemm_f32,
    gemm_int4_packed,
    gemm_int_affine,
    gemm_log2_attnv,
    pack_weights_for_gemm,
)
from .pruning import (
    AttentionStats,
    PruneSchedule,
    prune_step,
    score_tokens,
    sparsity,
    validate_map,
)
from .quantizers import (
    ChannelSymmetricParams,
    CodeRange,
    QuantTensor,
    _quantize_heads,
    _quantize_log2,
    dequantize_log2,
    fit_weight_symmetric,
    quantize_weight_symmetric,
)
from .tensor_store import as_tensor2d, slice_rows
from .trip import MAX_TRIP_CAP, _fit_trip, _quantize_trip, dequantize_trip

SITES = ("linear_transform", "qk", "attn_v", "projection", "fc1", "fc2")
# Sites whose inputs come after the self-attention product and may run 4-bit.
POST_ATTENTION_SITES = frozenset({"attn_v", "projection", "fc1", "fc2"})
BAND_ROWS = 64  # causal row band height of the attention chain
_FUTURE = np.triu(np.ones((BAND_ROWS, BAND_ROWS), dtype=bool), 1)  # above a band's diagonal


class PipelineError(Exception):
    pass


def _integer(name: str, value, ok, says: str) -> int:
    """``value`` as a Python int (numpy's narrow ones overflow later); raise
    on a bool, a float or a value ``ok`` refuses."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not ok(value):
        raise PipelineError(f"{name} must be {says}, got {value!r}")
    return int(value)


def _int_field(cfg, name: str, ok, says: str) -> None:
    """Keep field ``name`` of the frozen ``cfg`` as a checked Python int."""
    object.__setattr__(cfg, name, _integer(name, getattr(cfg, name), ok, says))


@dataclass(frozen=True)
class SiteConfig:
    """One matmul site's precision. The site fixes the quantizer: weight-site
    inputs are TRIP-refined (cap 0 = layer-wise affine), Q/K/V per-head
    affine, softmax outputs log2."""

    act_bits: int = 32  # 4, 8, or 32 (32 = FP passthrough; else 4-bit weights)
    trip_cap: int = 0  # largest TRIP channel exponent; weight sites only

    def __post_init__(self):
        _int_field(self, "act_bits", lambda v: v in (4, 8, 32), "4, 8 or 32")
        _int_field(self, "trip_cap", lambda v: 0 <= v <= MAX_TRIP_CAP, f"in 0..{MAX_TRIP_CAP}")


_FP32_SITE = SiteConfig()  # a site the config does not name


@dataclass(frozen=True)
class BlockConfig:
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    sites: dict[str, SiteConfig] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        for name, low in (("d_model", 1), ("n_heads", 1), ("d_ff", 1), ("seed", 0)):
            _int_field(self, name, lambda v: v >= low, f"an integer >= {low}")
        if self.d_model % self.n_heads:
            raise PipelineError("d_model must be divisible by n_heads")
        unknown = set(self.sites) - set(SITES)
        if unknown:
            raise PipelineError(f"unknown sites {sorted(unknown)}")
        for name in SITES:
            sc = self.site(name)
            if not isinstance(sc, SiteConfig):
                raise PipelineError(f"site {name} must be a SiteConfig, got {sc!r}")
            if sc.act_bits == 4 and name not in POST_ATTENTION_SITES:
                raise PipelineError(
                    f"4-bit activations are restricted to post-attention sites, not {name}"
                )
            if sc.trip_cap and name in ("qk", "attn_v"):
                raise PipelineError(f"trip_cap applies to weight sites only, not {name}")
        if self.site("attn_v").act_bits == 8:
            raise PipelineError("softmax probabilities quantize to 4-bit log2 or FP32")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def site(self, name: str) -> SiteConfig:
        return self.sites.get(name, _FP32_SITE)


def preset_sites(mode: str, act_quantizer: str = "trip", trip_cap: int = 3):
    """Site maps for the three named regimes: fp32, w4a8, w4a4.

    w4a8 quantizes every matmul with 8-bit activations (softmax output 4-bit
    log2); w4a4 additionally drops the projection and FC1 inputs to 4-bit.
    ``act_quantizer="affine"`` is TRIP at cap 0 on the weight sites.
    """
    if act_quantizer not in ("affine", "trip"):
        raise PipelineError(f"unknown activation quantizer {act_quantizer!r}")
    if mode == "fp32":
        return {}
    if mode not in ("w4a8", "w4a4"):
        raise PipelineError(f"unknown preset {mode!r}")
    a8 = SiteConfig(act_bits=8, trip_cap=trip_cap)  # checks the cap for both quantizers
    if act_quantizer == "affine":
        a8 = SiteConfig(act_bits=8)
    sites = {
        "linear_transform": a8,
        "qk": SiteConfig(act_bits=8),
        "attn_v": SiteConfig(act_bits=4),
        "projection": a8,
        "fc1": a8,
        "fc2": a8,
    }
    if mode == "w4a4":
        cap4 = min(a8.trip_cap, 2)  # smaller shift budget at 4-bit
        for name in ("projection", "fc1"):
            sites[name] = SiteConfig(act_bits=4, trip_cap=cap4)
    return sites


@dataclass
class Block:
    cfg: BlockConfig
    weights: dict[str, np.ndarray]  # keyed by weight site; linear_transform = [wq|wk|wv]
    # Plain per-channel 4-bit codes per weight site, made once: TRIP exponents
    # shift these codes (8-bit sites) or repeat lane channels (4-bit sites).
    weight_q: dict[str, QuantTensor]
    packed: dict[str, PackedInt4Matrix]  # weight_q codes + weight_zero_point, output-major
    shifted: dict[str, tuple[ChannelSymmetricParams, ...]]  # _shifted_params of weight_q params


def init_block(cfg: BlockConfig) -> Block:
    """Deterministic scaled-normal weights plus their 4-bit codes, quantized
    and packed, and their code ranges shifted for each TRIP cap, once here
    and never per call.

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
    zp = Int4GemmParams.weight_zero_point
    packed = {name: pack_weights_for_gemm((wq.codes + zp).astype(np.uint8))
              for name, wq in weight_q.items()}
    shifted = {name: _shifted_params(wq.params) for name, wq in weight_q.items()}
    return Block(cfg=cfg, weights=weights, weight_q=weight_q, packed=packed, shifted=shifted)


def _shifted_params(p: ChannelSymmetricParams) -> tuple[ChannelSymmetricParams, ...]:
    """``p`` with its code range shifted left by c, at index c in
    0..MAX_TRIP_CAP: the params of an 8-bit TRIP site's shifted weights."""
    bits, signed = p.range.bits, p.range.signed
    return (p,) + tuple(ChannelSymmetricParams(CodeRange(bits, signed, shift=c), p.scales)
                        for c in range(1, MAX_TRIP_CAP + 1))


def init_stack(cfg: BlockConfig, n_blocks: int) -> list[Block]:
    n_blocks = _integer("n_blocks", n_blocks, lambda v: v >= 1, "an integer >= 1")
    return [init_block(replace(cfg, seed=cfg.seed + i)) for i in range(n_blocks)]


def _layernorm(x: np.ndarray) -> np.ndarray:
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=1, keepdims=True)
    var = x64.var(axis=1, keepdims=True)
    x64 -= mu
    x64 /= np.sqrt(var + 1e-5)
    return x64.astype(np.float32)


def _silu(x: np.ndarray) -> np.ndarray:
    d = x.astype(np.float64)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    np.divide(x, d, out=d)  # float32 x widens exactly
    return d.astype(np.float32)


def _softmax_causal(scores: np.ndarray, r0: int) -> None:
    """Causal row softmax, in place, of ``scores``: rows ``[r0, r0 + n)`` of
    a (T, T) map or an (H, T, T) stack against key columns ``[0, r0 + n)``,
    r0 a multiple of BAND_ROWS and n <= BAND_ROWS. The future entries, all
    in the last n columns, go to ``exp`` as ``-inf`` and come out +0.0.

    Each row sums over r0 + BAND_ROWS columns of a contiguous float64
    buffer, zero-padded past its own: row i's width BAND_ROWS * (i //
    BAND_ROWS + 1) is fixed by its index, not by T, as numpy's pairwise sum
    depends on the row length.
    """
    n = scores.shape[-2]
    e = np.zeros(scores.shape[:-1] + (r0 + BAND_ROWS,))
    e_band = e[..., :r0 + n]  # the rest stays zero
    np.copyto(e_band, scores)  # exact; float64 loops run faster than mixed ones
    np.copyto(e_band[..., r0:], -np.inf, where=_FUTURE[:n, :n])
    e_band -= e_band.max(axis=-1, keepdims=True)
    np.exp(e_band, out=e_band)
    np.divide(e_band, e.sum(axis=-1, keepdims=True), out=scores)


def _mse(x: np.ndarray, dequant: np.ndarray) -> float:
    """Mean squared quantization error, in float64."""
    d = x.astype(np.float64)
    d -= dequant
    np.square(d, out=d)
    return float(d.mean())


def _site_product(aq: QuantTensor, wq: QuantTensor, packed: PackedInt4Matrix,
                  shifted: tuple[ChannelSymmetricParams, ...]) -> np.ndarray:
    """Quantized activations ``aq`` times a site's 4-bit weight codes ``wq``,
    which ``packed`` holds as nibbles. TRIP exponents act on integers only,
    exactly: 8-bit codes meet weight row c shifted left by alpha_c, under
    the params ``shifted[cap]`` (``shifted`` is ``_shifted_params(wq.params)``),
    and 4-bit codes stay nibbles in the lane GEMM, with channel c counted
    2^(alpha_c - min alpha) times and the scale times 2^min alpha. At cap 0
    the exponents are all 0 and the codes meet the weights as they are."""
    p = aq.params
    if p.range.bits == 8:
        if p.cap:
            wq = QuantTensor(wq.codes << p.alphas.astype(np.int32)[:, None], shifted[p.cap])
        return gemm_int_affine(aq, wq)
    codes, scale = aq.codes.astype(np.uint8), p.scale
    if p.cap:
        low = int(p.alphas.min())
        cols = np.repeat(np.arange(aq.cols), 1 << (p.alphas - low))
        codes = codes[:, cols]
        packed = replace(packed, cols=len(cols), data=packed.data[:, cols])
        scale *= 2.0**low
    params = Int4GemmParams(act_scale=scale, act_zero_point=p.zero_point,
                            weight_scales=wq.params.scales)
    return gemm_int4_packed(codes, packed, params)


def _site_matmul(block: Block, cfg: BlockConfig, name: str, x: np.ndarray,
                 trace: list | None) -> np.ndarray:
    """Run weight site ``name`` on ``x`` at the site's configured precision."""
    sc = cfg.site(name)
    if sc.act_bits == 32:
        return gemm_f32(x, block.weights[name])
    aq = _quantize_trip(x, _fit_trip(x, sc.act_bits, sc.trip_cap))
    if trace is not None:
        trace.append({"site": name, "act_bits": sc.act_bits,
                      "mse": _mse(x, dequantize_trip(aq))})
    return _site_product(aq, block.weight_q[name], block.packed[name], block.shifted[name])


def _finite(x: np.ndarray, stage: str) -> np.ndarray:
    """Pass ``x`` on, or raise if a stage overflowed float32 into Inf/NaN."""
    if not np.isfinite(x).all():
        raise PipelineError(f"non-finite activations after {stage}")
    return x


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported by _finite
def forward_block(block: Block, x, cfg: BlockConfig | None = None,
                  trace: list | None = None):
    """One decoder block pass; returns (output, AttentionStats): per head, each
    query row's softmax probability on token 0 and on the two previous tokens.

    Each quantized site appends a ``{"site", "act_bits", "mse"}`` record
    (attn_v one per head, over its whole map) to ``trace``, if given, in pass order.
    Raises ``PipelineError`` on an empty input and names any non-finite stage.
    """
    cfg = cfg or block.cfg
    x = as_tensor2d(x)  # the one input check; _finite checks each stage
    t, d = x.shape
    if t == 0:
        raise PipelineError("input has no rows")
    if d != cfg.d_model:
        raise PipelineError(f"input width {d} != d_model {cfg.d_model}")
    dh, nh = cfg.d_head, cfg.n_heads
    qk_sc, av_sc = cfg.site("qk"), cfg.site("attn_v")

    qkv = _finite(_site_matmul(block, cfg, "linear_transform", x, trace), "linear_transform")
    q, k, v = qkv.reshape(t, 3, nh, dh).transpose(1, 2, 0, 3)  # (nh, T, dh) views
    if qk_sc.act_bits < 32 or av_sc.act_bits < 32:  # qk runs 8-bit or FP32
        qq, kq, vq = _quantize_heads(qkv, 3, nh, 8)  # one 8-bit fit per head of q, k, v

    ctx = np.empty((t, nh, dh), dtype=np.float32).transpose(1, 0, 2)  # heads of a (T, d) buffer
    stats = np.zeros((3, nh, t), dtype=np.float32)
    start, prev1, prev2 = stats
    err = np.zeros((nh, t, t)) if trace is not None and av_sc.act_bits < 32 else None
    for r0 in reversed(range(0, t, BAND_ROWS)):
        r1 = min(r0 + BAND_ROWS, t)
        # all heads' scores in one call, later replaced in place by their softmax
        scores = (gemm_f32(q[:, r0:r1], k[:, :r1].swapaxes(1, 2)) if qk_sc.act_bits == 32
                  else gemm_int_affine(QuantTensor(qq.codes[:, r0:r1], qq.params),
                                       QuantTensor(kq.codes[:, :r1].swapaxes(1, 2), kq.params)))
        scores /= np.float32(np.sqrt(dh))
        np.copyto(scores[..., r0:], 0, where=_FUTURE[:r1 - r0, :r1 - r0])  # read by no output
        _finite(scores, "qk")
        _softmax_causal(scores, r0)
        start[:, r0:r1] = scores[..., 0]
        prev1[:, max(r0, 1):r1] = scores.diagonal(r0 - 1, 1, 2)
        prev2[:, max(r0, 2):r1] = scores.diagonal(r0 - 2, 1, 2)
        if av_sc.act_bits == 32:
            ctx[:, r0:r1] = gemm_f32(scores, v[:, :r1])
            continue
        # each map's maximum is exactly 1.0 (see the module docstring)
        probs_q = _quantize_log2(scores, av_sc.act_bits, 1.0)
        if err is not None:
            np.subtract(scores, dequantize_log2(probs_q), out=err[:, r0:r1, :r1], dtype=np.float64)
        ctx[:, r0:r1] = gemm_log2_attnv(probs_q, QuantTensor(vq.codes[:, :r1], vq.params))
        del probs_q  # it would hold the band's log2 codes through the MLP
    if err is not None:  # each head's mean over its whole map, as _mse takes it
        np.square(err, out=err)
        trace.extend({"site": "attn_v", "act_bits": av_sc.act_bits,
                      "mse": float(err[h].mean())} for h in range(nh))

    ctx = _finite(ctx.transpose(1, 0, 2).reshape(t, d), "attn_v")  # the buffer, no copy
    proj = _site_matmul(block, cfg, "projection", ctx, trace)
    h1 = _finite(x + proj, "projection")
    a1 = _site_matmul(block, cfg, "fc1", _layernorm(h1), trace)
    m2 = _site_matmul(block, cfg, "fc2", _silu(_finite(a1, "fc1")), trace)
    out = _finite(h1 + m2, "fc2")
    return out, AttentionStats(*stats)


def forward_stack(blocks: list[Block], x, cfg: BlockConfig | None = None,
                  schedule: PruneSchedule | None = None,
                  forced_keeps: dict[int, list[int]] | None = None,
                  trace: list | None = None, resume: tuple | None = None):
    """Run a block stack, pruning at schedule layers from each layer's own
    attention statistics (re-scored at every prune layer).

    ``forced_keeps`` replays a previous run's kept indices, which lets an
    FP reference see exactly the tokens a quantized pruned run saw; a prune
    or forced-keep layer outside the stack is an error, and so is a forced
    keep index past the rows its block has. Returns (output, info) with
    per-layer kept indices, kept fractions, sparsity and ``AttentionStats``
    (``info["attention"]``); ``trace`` gets every block's site records.

    ``resume=(hidden, stats)`` skips blocks ``0..len(stats)-1``, run unpruned
    on ``x`` with output ``hidden``, but prunes after the last; indices stay global.
    """
    x = as_tensor2d(x)
    t0 = x.shape[0]
    done = []
    layers = set(forced_keeps or ()).union(schedule.prune_layers if schedule else ())
    if not layers <= set(range(len(blocks))):
        raise PipelineError(f"prune layers {sorted(layers)} outside 0..{len(blocks) - 1}")
    if resume is not None:
        x, done = as_tensor2d(resume[0]), list(resume[1])
        last = len(done) - 1
        if (not 0 <= last < len(blocks) or min(layers, default=last) < last
                or x.shape != (t0, (cfg or blocks[last].cfg).d_model)):
            raise PipelineError(f"cannot resume after block {last}")
    kept_global = list(range(t0))
    info = {"keeps": [], "kept_fractions": [], "attention": []}
    for i, block in enumerate(blocks):
        local = (forced_keeps or {}).get(i)
        try:
            x, stats = ((x, done[i]) if i < len(done) else
                        forward_block(block, x, cfg or block.cfg, trace=trace))
            if local is not None:
                x = slice_rows(x, local)
        except (PipelineError, ValueError) as e:  # ValueError: slice_rows refused a keep
            raise PipelineError(f"block {i}: {e}") from e
        info["attention"].append(stats)
        if local is None:
            local = list(range(x.shape[0]))
            if schedule is not None and i in schedule.prune_layers:
                x, local = prune_step(x, score_tokens(stats), schedule.per_layer_ratio)
        kept_global = [kept_global[j] for j in local]
        info["keeps"].append(local)
        info["kept_fractions"].append(x.shape[0] / t0)
    info["kept_global"] = kept_global
    info["sparsity"] = sparsity(info["kept_fractions"], len(blocks))
    return x, info


def cosine_similarity(a, b) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise PipelineError(f"cosine_similarity inputs must be the same size, "
                            f"got {a.size} and {b.size}")
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
    ranked_channels: np.ndarray  # channels sorted by count, descending


def analyze_outliers(x, k_sigma: float) -> OutlierReport:
    """Count, per channel, elements with |x| > mean(|x|) + k_sigma * std(|x|),
    a threshold that must be finite."""
    x = as_tensor2d(x)
    if x.size == 0:
        raise PipelineError("cannot analyze empty tensor")
    if not k_sigma > 0:
        raise PipelineError("k_sigma must be positive")
    mag = np.abs(x.astype(np.float64))
    threshold = float(mag.mean()) + k_sigma * float(mag.std())  # Python floats: no warning
    if not np.isfinite(threshold):
        raise PipelineError(f"outlier threshold overflows at k_sigma {k_sigma}")
    counts = (mag > threshold).sum(axis=0)
    order = np.lexsort((np.arange(len(counts)), -counts))
    return OutlierReport(
        counts=counts.astype(np.int64),
        threshold=threshold,
        ranked_channels=order,
    )


def attention_locality(s: AttentionStats) -> float:
    """Mean probability mass on the two immediately previous positions.

    High values indicate the local/triangular pattern; a start-token stripe
    drives the index toward zero for tokens beyond the window.
    """
    validate_map(s)
    t = s.tokens
    if t < 2:
        return 1.0
    # in row order, as np.sum rounds otherwise
    near = np.ascontiguousarray((s.prev1[:, 1:] + s.prev2[:, 1:]).T)
    total = 0.0
    for mean in near.mean(axis=1).tolist():
        total += mean
    return total / (t - 1)


def make_outlier_input(t: int, d: int, outlier_channels, outlier_tokens,
                       amplitude: float = 16.0, seed: int = 0) -> np.ndarray:
    """Synthetic activations: bounded inliers plus large fixed-channel
    outliers injected into the given (intended low-importance) tokens, each
    index within the rows or columns it names."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(t, d)).astype(np.float32)
    index = lambda name, i, n: _integer(name, i, lambda v: 0 <= v < n, f"an index in 0..{n - 1}")
    tokens = [index("outlier_tokens", i, t) for i in outlier_tokens]
    channels = [index("outlier_channels", i, d) for i in outlier_channels]
    for tok in tokens:
        for ch in channels:
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
