"""Shared oracles and fixtures for the test suite."""

import functools
from dataclasses import replace

import numpy as np

import agq
from agq.quantizers import SCALE_EPS, _fit_range
from agq.tensor_store import as_tensor2d
from agq.trip import _BAND_ELEMENTS

# Seeds frozen after an oracle scan: on these, the pruned quantized run
# diverges less from its FP reference than the unpruned one does, and
# pruning removes outlier mass (see PRUNE_FIXTURE below).
PRUNE_SEEDS = [0, 1, 3, 4, 5, 7, 8, 10, 11, 13, 15, 17, 18, 22, 23, 24, 25, 26, 27, 28]

PRUNE_FIXTURE = dict(t=24, n_outlier_tokens=4, beta=0.18, n_blocks=4)


# The reference grid: lengths of one band and of several (with their model
# width and head count), every mode, and both activation quantizers. The
# "fp32-" modes are w4a8 with that one site at FP32.
GRID_SHAPES = [
    (1, 16, 8), (7, 24, 1), (33, 64, 4),  # one band holds every row
    (65, 32, 2),  # the shortest banded length: a bottom band of 1 row
    (129, 64, 4),  # 3 bands, the bottom one of 1 row
    (191, 64, 4),  # 3 bands, the bottom one of 63 rows
    (192, 32, 2),  # 3 full bands
    (255, 64, 4),
    (256, 64, 4),  # the benchmark's geometry: 4 bands
    (257, 64, 8),  # a one-row band, 8 heads
    (300, 64, 4),  # a 44-row band
]
GRID_MODES = ["fp32", "w4a8", "w4a4", "fp32-qk", "fp32-attn_v"]
GRID_QUANTIZERS = ["trip", "affine"]


def grid_case(mode, act_quantizer, t, d_model, n_heads):
    """The block config and input of one reference-grid case: seeded by T,
    with one large input channel."""
    base, _, fp_site = mode.partition("-")
    sites = agq.preset_sites("w4a8" if fp_site else base, act_quantizer=act_quantizer)
    if fp_site:
        sites[fp_site] = agq.SiteConfig()
    cfg = agq.BlockConfig(d_model=d_model, n_heads=n_heads, d_ff=32, seed=t, sites=sites)
    x = np.random.default_rng(t).standard_normal((t, d_model)).astype(np.float32)
    x[:, 1] *= 20.0
    return cfg, x


def naive_trip_argmin(x, bits, cap):
    """Brute-force per-channel exponent search, independent of fit_trip."""
    lo, hi = float(x.min()), float(x.max())
    s = max(hi - lo, 1e-8) / ((2**bits - 1) * 2**cap)
    zp = int(np.clip(np.rint(-lo / (2**cap * s)), 0, 2**bits - 1))
    alphas = []
    errors = []
    for c in range(x.shape[1]):
        col = x[:, c].astype(np.float64)
        errs = []
        for a in range(cap + 1):
            step = 2**a * s
            codes = np.clip(np.rint(col / step) + zp, 0, 2**bits - 1)
            errs.append(float(np.linalg.norm(col - (codes - zp) * step)))
        alphas.append(int(np.argmin(errs)))  # argmin takes the first minimum
        errors.append(errs)
    return np.array(alphas), errors, s, zp


def ref_softmax_causal(scores):
    """The ``-inf``/``triu_indices`` formulation of the causal row softmax:
    future entries are set to ``-inf`` and go through ``exp`` to 0. Row i
    sums over the 64 * (i // 64 + 1) entries of its zero-padded row, a width
    fixed by its index, not by T."""
    t = scores.shape[0]
    masked = scores.astype(np.float64)
    masked[np.triu_indices(t, k=1)] = -np.inf
    masked -= masked.max(axis=1, keepdims=True)
    e = np.exp(masked)
    padded = np.zeros((t, t + 64))
    padded[:, :t] = e
    sums = [padded[i, :64 * (i // 64 + 1)].sum() for i in range(t)]
    return (e / np.array(sums)[:, None]).astype(np.float32)


def ref_layernorm(x):
    """Row-wise layernorm, out of place in float64, narrowed to float32."""
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=1, keepdims=True)
    var = x64.var(axis=1, keepdims=True)
    return ((x64 - mu) / np.sqrt(var + 1e-5)).astype(np.float32)


def ref_silu(x):
    """``x / (1 + exp(-x))``, out of place in float64, narrowed to float32."""
    x64 = x.astype(np.float64)
    return (x64 / (1.0 + np.exp(-x64))).astype(np.float32)


def ref_forward_block(block, x, cfg, trace=None):
    """``forward_block`` with a per-head attention loop: each head fits and
    quantizes its own q, k^T and v slices through the public quantizers and
    runs its own softmax and log2 quantization on the whole (T, T) map,
    raising as the pipeline does if a causal qk score (on or below the
    diagonal) is not finite; no output reads the others. The weight sites
    and MSE are the pipeline's own, layernorm and gate are ``ref_layernorm``
    and ``ref_silu``; ``trace`` gets the same records."""
    from agq.pipeline import _mse, _site_matmul

    site = functools.partial(_site_matmul, block, cfg, trace=trace)
    t, d = x.shape
    dh, qk, av = cfg.d_head, cfg.site("qk"), cfg.site("attn_v")
    q, k, v = np.hsplit(site("linear_transform", x), 3)
    probs = np.empty((cfg.n_heads, t, t), dtype=np.float32)
    ctx = np.empty((t, d), dtype=np.float32)
    for h in range(cfg.n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kt, vh = q[:, sl], k[:, sl].T, v[:, sl]
        if qk.act_bits == 32:
            scores = agq.gemm_f32(qh, kt)
        else:
            scores = agq.gemm_int_affine(
                agq.quantize_affine(qh, agq.fit_affine(qh, qk.act_bits)),
                agq.quantize_affine(kt, agq.fit_affine(kt, qk.act_bits)))
        scores /= np.float32(np.sqrt(dh))
        if not np.isfinite(np.tril(scores)).all():
            raise agq.PipelineError("non-finite activations after qk")
        probs[h] = ref_softmax_causal(scores)
        if av.act_bits == 32:
            ctx[:, sl] = agq.gemm_f32(probs[h], vh)
            continue
        probs_q = agq.quantize_log2(probs[h], av.act_bits)
        if trace is not None:
            trace.append({"site": "attn_v", "act_bits": av.act_bits,
                          "mse": _mse(probs[h], agq.dequantize_log2(probs_q))})
        ctx[:, sl] = agq.gemm_log2_attnv(probs_q,
                                         agq.quantize_affine(vh, agq.fit_affine(vh, 8)))
    h1 = x + site("projection", ctx)
    return h1 + site("fc2", ref_silu(site("fc1", ref_layernorm(h1)))), probs


def stats_of(probs):
    """The ``AttentionStats`` of a (heads, T, T) map, read entry by entry:
    row i's column 0, column i - 1 and column i - 2, 0 where that column does
    not exist."""
    heads, t, _ = probs.shape
    start, prev1, prev2 = np.zeros((3, heads, t), dtype=probs.dtype)
    for i in range(t):
        start[:, i] = probs[:, i, 0]
        if i >= 1:
            prev1[:, i] = probs[:, i, i - 1]
        if i >= 2:
            prev2[:, i] = probs[:, i, i - 2]
    return agq.AttentionStats(start, prev1, prev2)


def stats_bytes(s):
    """The bytes of all three statistics, to compare two passes exactly."""
    return b"".join(a.tobytes() for a in (s.start, s.prev1, s.prev2))


def ref_attention_locality(probs):
    """The per-row loop formulation of ``attention_locality`` on a (heads,
    T, T) map: each row's window is summed per head, averaged over heads and
    added as a float."""
    t = probs.shape[1]
    if t < 2:
        return 1.0
    total = 0.0
    for i in range(1, t):
        lo = max(0, i - 2)
        total += float(probs[:, i, lo:i].sum(axis=1).mean())
    return total / (t - 1)


def ref_eval_cmd(config_path, in_path, seed):
    """The four-pass body of ``agq eval``: FP32, quantized, quantized-pruned
    and forced-keep FP32, each a full ``forward_stack`` from block 0. Install
    it as ``agq.cli.eval_cmd.callback`` to run it behind the real CLI."""
    from agq import cli, pipeline

    cfg = cli.load_config(config_path)
    if seed is not None:
        cfg["seed"] = seed
    block_cfg = cli._block_config(cfg)
    if in_path:
        x = cli._store_input(in_path, "input")
    else:
        rng = np.random.default_rng(cfg.get("seed", 0) + 1)
        x = rng.standard_normal((cfg.get("sequence_length", 32), block_cfg.d_model))
        x = x.astype(np.float32)

    blocks = pipeline.init_stack(block_cfg, cli._n_blocks(cfg))
    schedule = cli._schedule(cfg)
    fp_cfg = replace(block_cfg, sites={})
    fp_out, fp_info = pipeline.forward_stack(blocks, x, fp_cfg)
    records = []
    q_sites = []
    q_out, q_info = pipeline.forward_stack(blocks, x, block_cfg, trace=q_sites)
    records.append(cli._eval_record("no_prune", q_out, q_info, q_sites, fp_out, fp_info))
    if schedule is not None:
        qp_sites = []
        qp_out, qp_info = pipeline.forward_stack(blocks, x, block_cfg, schedule=schedule,
                                                 trace=qp_sites)
        keeps = {i: qp_info["keeps"][i] for i in schedule.prune_layers}
        fpp_out, fpp_info = pipeline.forward_stack(blocks, x, fp_cfg, forced_keeps=keeps)
        rec = cli._eval_record("prune", qp_out, qp_info, qp_sites, fpp_out, fpp_info)
        rec["schedule"] = {
            "beta": schedule.final_ratio,
            "m": len(schedule.prune_layers),
            "gamma": schedule.per_layer_ratio,
            "prune_layers": list(schedule.prune_layers),
        }
        records.append(rec)

    cli._emit({"records": records}, cfg)
    min_cosine = cfg.get("thresholds", {}).get("min_cosine")
    if min_cosine is not None:
        for rec in records:
            if rec["cosine"] < min_cosine:
                raise cli.ThresholdError(
                    f"cosine {rec['cosine']:.6f} < {min_cosine} ({rec['name']})")


def ref_quantize_log2(x, bits):
    """The out-of-place formulation of ``quantize_log2``: ``-log2`` of every
    ratio, zeros included (``-inf`` with the divide warning silenced)."""
    x = as_tensor2d(x)
    p = agq.Log2Params(bits=bits, max_abs=float(np.abs(x).max()))
    signs = np.sign(x).astype(np.int8)
    if p.max_abs == 0.0:
        codes = np.zeros_like(x, dtype=np.int32)
        return agq.QuantTensor(codes=codes, params=p, signs=signs)
    ratio = np.abs(x.astype(np.float64)) / p.max_abs
    with np.errstate(divide="ignore"):
        exponents = -np.log2(ratio)
    codes = np.clip(np.rint(exponents), 0, p.code_hi).astype(np.int32)
    codes[signs == 0] = p.code_hi
    return agq.QuantTensor(codes=codes, params=p, signs=signs)


def ref_dequantize_log2(q):
    """The ``exp2``-of-float-codes formulation of ``dequantize_log2``."""
    p = q.params
    out = q.signs.astype(np.float64) * p.max_abs * np.exp2(-q.codes.astype(np.float64))
    return out.astype(np.float32)


def ref_fit_trip(x, bits, cap):
    """The ``np.linalg.norm`` formulation of ``fit_trip``: every exponent
    divides by its own step and shifts codes by the zero point and back."""
    x = as_tensor2d(x)
    rng = agq.CodeRange(bits, signed=False)
    lo, hi = float(x.min()), float(x.max())
    scale = max(hi - lo, SCALE_EPS) / ((2**bits - 1) * 2**cap)
    zp = int(np.clip(np.rint(np.float64(-lo) / (2**cap * scale)), rng.lo, rng.hi))
    cols = x.astype(np.float64)
    alphas = np.zeros(x.shape[1], dtype=np.int64)
    best = np.full(x.shape[1], np.inf)
    for a in range(cap + 1):
        step = 2**a * scale
        codes = np.clip(np.rint(cols / step) + zp, rng.lo, rng.hi)
        err = np.linalg.norm(cols - (codes - zp) * step, axis=0)
        better = err < best  # strict: ties keep the smaller exponent
        alphas[better] = a
        best[better] = err[better]
    return agq.TripParams(rng, float(scale), zp, alphas=alphas, cap=cap)


def ref_trip_error_sums(x, bits, cap):
    """The (cap+1, C) squared-error sums that the banded TRIP fit hands to
    ``np.sqrt``, by its mixed-width formulation: each band widened to
    float64 and divided by the scale in place, codes clipped by
    ``np.maximum`` then ``np.minimum``, and the float32 band minus its
    float64 reconstruction. ``cap`` >= 1."""
    rng, scales, zps = _fit_range(x[None], bits, cap)
    scale, zp = float(scales[0]), int(zps[0])
    t, c = x.shape
    rows = t if c == 1 else max(1, _BAND_ELEMENTS // c)
    a = np.arange(cap + 1)[:, None, None]
    inv_steps, steps = np.ldexp(1.0, -a), np.ldexp(scale, a)
    buf = np.empty((cap + 1, min(rows, t), c))
    err = None
    for r0 in range(0, t, rows):
        xb = x[r0:r0 + rows]
        base_steps = xb.astype(np.float64)
        base_steps /= scale
        r = np.multiply(base_steps, inv_steps, out=buf[:, :len(xb)])
        np.maximum(np.rint(r, out=r), rng.lo - zp, out=r)
        np.minimum(r, rng.hi - zp, out=r)
        r *= steps
        np.subtract(xb, r, out=r)
        np.square(r, out=r)
        if err is not None:
            r[:, 0] += err
        err = np.add.reduce(r, axis=1)
    return err


def naive_int_gemm(a_codes, w_codes_rows_by_k):
    """Unpack-free integer oracle: plain int64 matmul of nibble codes."""
    return a_codes.astype(np.int64) @ w_codes_rows_by_k.astype(np.int64).T


def int64_gemm_int_affine(aq, wq):
    """The int64 formulation of ``gemm_int_affine``: exact integer matmul and
    zero-point corrections, then one scale to float32. Operands may be
    (heads, rows, cols) stacks with per-head (heads, 1, 1) params."""
    s_a, zp_a = aq.params.scale, aq.params.zero_point
    a = aq.codes.astype(np.int64)
    b = wq.codes.astype(np.int64)
    if wq.kind == "weight":
        raw = a @ b - zp_a * b.sum(axis=-2, keepdims=True)
        return (raw.astype(np.float64) * (s_a * wq.params.scales)).astype(np.float32)
    s_b, zp_b = wq.params.scale, wq.params.zero_point
    raw = (a @ b - zp_a * b.sum(axis=-2, keepdims=True) - zp_b * a.sum(axis=-1, keepdims=True)
           + a.shape[-1] * zp_a * zp_b)
    return (raw.astype(np.float64) * (s_a * s_b)).astype(np.float32)


def int64_gemm_int4_packed(a_codes, packed, params):
    """The three-term int64 formulation of ``gemm_int4_packed``: the raw lane
    product of unsigned nibbles minus ``zp_a * colsum(w)`` and
    ``zp_w * rowsum(a)``, plus ``k * zp_a * zp_w``, then one scale to float32."""
    a = np.asarray(a_codes)
    raw = agq.gemm_int4_raw(a, packed)
    zp_a, zp_w = params.act_zero_point, params.weight_zero_point
    w_sums = agq.unpack_int4(packed).sum(axis=1, dtype=np.int64)
    corrected = (raw - zp_a * w_sums[None, :] - zp_w * a.sum(axis=1, dtype=np.int64)[:, None]
                 + a.shape[1] * zp_a * zp_w)
    return (corrected.astype(np.float64)
            * (params.act_scale * np.asarray(params.weight_scales)[None, :])).astype(np.float32)


def ref_trip_product(aq, wq):
    """The int64 formulation of a TRIP site's product: sum_c (a_c - zp) *
    2^alpha_c * w_cj exactly in int64, then one scale to float32."""
    p = aq.params
    a = (aq.codes.astype(np.int64) - p.zero_point) << p.alphas.astype(np.int64)[None, :]
    raw = a @ wq.codes.astype(np.int64)
    return (raw.astype(np.float64) * (p.scale * wq.params.scales[None, :])).astype(
        np.float32)


def int64_gemm_log2_attnv(probs_q, vq):
    """The int64 formulation of ``gemm_log2_attnv``: sign * 2^(Ks - code)
    times (v_code - zp) accumulated in int64, then one scale to float32.
    Operands may be (heads, rows, cols) stacks with per-head value params."""
    ks = probs_q.params.code_hi
    shifts = np.left_shift(np.int64(1), ks - probs_q.codes.astype(np.int64))
    acc = (probs_q.signs.astype(np.int64) * shifts) @ (
        vq.codes.astype(np.int64) - vq.params.zero_point)
    scale = probs_q.params.max_abs * vq.params.scale * 2.0**-ks
    return (acc.astype(np.float64) * scale).astype(np.float32)


def head(q, h):
    """Head h of a (heads, rows, cols) ``QuantTensor`` stack as a tensor of
    its own, its per-head (heads, 1, 1) affine params read as Python scalars."""
    p = q.params
    if p.kind == "affine" and isinstance(p.scale, np.ndarray):
        p = agq.AffineParams(p.range, float(p.scale[h, 0, 0]), int(p.zero_point[h, 0, 0]))
    return agq.QuantTensor(q.codes[h], p, None if q.signs is None else q.signs[h])


def naive_block_forward(weights, x, n_heads):
    """Independent FP32 decoder-block reference written against the same
    weight dict, using explicit loops and a separate softmax/layernorm.
    ``linear_transform`` is read as its three column blocks wq, wk, wv."""
    x = np.asarray(x, dtype=np.float64)
    t, d = x.shape
    dh = d // n_heads
    w_lt = weights["linear_transform"].astype(np.float64)
    q = x @ w_lt[:, :d]
    k = x @ w_lt[:, d:2 * d]
    v = x @ w_lt[:, 2 * d:]
    ctx = np.zeros((t, d))
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(t):
            scores = np.array(
                [q[i, sl] @ k[j, sl] / np.sqrt(dh) for j in range(i + 1)]
            )
            e = np.exp(scores - scores.max())
            probs = e / e.sum()
            for j in range(i + 1):
                ctx[i, sl] += probs[j] * v[j, sl]
    h1 = x + ctx @ weights["projection"].astype(np.float64)
    mu = h1.mean(axis=1, keepdims=True)
    var = h1.var(axis=1, keepdims=True)
    u = (h1 - mu) / np.sqrt(var + 1e-5)
    a1 = u @ weights["fc1"].astype(np.float64)
    g = a1 / (1.0 + np.exp(-a1))
    return h1 + g @ weights["fc2"].astype(np.float64)


def prune_benefit_trial(seed):
    """One run of the frozen synthetic pruning family; returns the pieces
    the pruning criteria assert on."""
    fx = PRUNE_FIXTURE
    cfg = agq.BlockConfig(sites=agq.preset_sites("w4a8", act_quantizer="affine"),
                          seed=seed)
    fp_cfg = replace(cfg, sites={})
    blocks = agq.init_stack(cfg, fx["n_blocks"])
    t = fx["t"]
    x = agq.make_stripe_input(
        blocks[0], t=t, outlier_tokens=range(t - fx["n_outlier_tokens"], t),
        seed=seed + 1000,
    )
    schedule = agq.make_schedule(fx["n_blocks"], 0, fx["beta"], 1)
    fp_out, _ = agq.forward_stack(blocks, x, fp_cfg)
    q_out, _ = agq.forward_stack(blocks, x, cfg)
    qp_out, qp_info = agq.forward_stack(blocks, x, cfg, schedule=schedule)
    keeps = {i: qp_info["keeps"][i] for i in schedule.prune_layers}
    fpp_out, _ = agq.forward_stack(blocks, x, fp_cfg, forced_keeps=keeps)
    return {
        "x": x,
        "kept_global": qp_info["kept_global"],
        "keeps": qp_info["keeps"],
        "div_noprune": 1.0 - agq.cosine_similarity(q_out, fp_out),
        "div_prune": 1.0 - agq.cosine_similarity(qp_out, fpp_out),
    }


def locality_trial(seed):
    """FP vs quantized locality on the stripe fixture (one block)."""
    cfg = agq.BlockConfig(sites=agq.preset_sites("w4a8", act_quantizer="affine"),
                          seed=seed)
    block = agq.init_block(cfg)
    x = agq.make_stripe_input(block, t=16, seed=seed + 1000)
    _, fp_stats = agq.forward_block(block, x, replace(cfg, sites={}))
    _, q_stats = agq.forward_block(block, x, cfg)
    return agq.attention_locality(fp_stats), agq.attention_locality(q_stats)
