import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    GRID_MODES,
    GRID_QUANTIZERS,
    GRID_SHAPES,
    grid_case,
    head,
    int64_gemm_int_affine,
    int64_gemm_log2_attnv,
    locality_trial,
    naive_block_forward,
    prune_benefit_trial,
    ref_attention_locality,
    ref_forward_block,
    ref_layernorm,
    ref_silu,
    ref_softmax_causal,
    stats_bytes,
    stats_of,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agq
from agq.pipeline import (
    BAND_ROWS,
    Block,
    BlockConfig,
    PipelineError,
    SiteConfig,
    _layernorm,
    _silu,
    _softmax_causal,
    analyze_outliers,
    attention_locality,
    cosine_similarity,
    forward_block,
    forward_stack,
    init_block,
    init_stack,
    make_outlier_input,
    preset_sites,
)
from agq.pruning import PruneError, PruneSchedule
from agq.quantizers import _quantize_heads, fit_affine, quantize_affine


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(PipelineError):
            BlockConfig(d_model=10, n_heads=4)
        assert BlockConfig(d_model=8, n_heads=2).d_head == 4

    def test_unknown_site_rejected(self):
        with pytest.raises(PipelineError):
            BlockConfig(sites={"embedding": SiteConfig()})

    def test_4bit_restricted_to_post_attention(self):
        with pytest.raises(PipelineError):
            BlockConfig(sites={
                "linear_transform": SiteConfig(act_bits=4)
            })
        BlockConfig(sites={"fc1": SiteConfig(act_bits=4)})

    @pytest.mark.parametrize("name,site", [("qk", SiteConfig(8, trip_cap=1)),
                                           ("attn_v", SiteConfig(4, trip_cap=1))])
    def test_trip_cap_only_on_weight_sites(self, name, site):
        """Q/K and softmax outputs have fixed quantizers with no exponents."""
        with pytest.raises(PipelineError, match=f"weight sites only, not {name}"):
            BlockConfig(sites={name: site})
        BlockConfig(sites={name: replace(site, trip_cap=0)})

    @pytest.mark.parametrize("mode", ["fp32", "w4a8", "w4a4"])
    @pytest.mark.parametrize("act_quantizer", ["log2", "TRIP", "", None])
    def test_preset_quantizer_is_affine_or_trip(self, mode, act_quantizer):
        with pytest.raises(PipelineError, match="unknown activation quantizer"):
            preset_sites(mode, act_quantizer=act_quantizer)

    @pytest.mark.parametrize("mode", ["fp32", "w4a8", "w4a4"])
    @pytest.mark.parametrize("cap", range(7))
    def test_affine_preset_is_trip_at_cap_zero(self, mode, cap):
        assert preset_sites(mode, "affine", cap) == preset_sites(mode, "trip", 0)

    def test_presets(self):
        assert preset_sites("fp32") == {}
        w4a8 = preset_sites("w4a8")
        assert set(w4a8) == set(agq.SITES)
        assert w4a8["qk"] == SiteConfig(8) and w4a8["attn_v"] == SiteConfig(4)
        assert w4a8["fc2"] == SiteConfig(8, trip_cap=3)
        w4a4 = preset_sites("w4a4")
        assert w4a4["projection"].act_bits == 4
        assert w4a4["fc1"].act_bits == 4
        assert w4a4["fc2"].act_bits == 8
        with pytest.raises(PipelineError):
            preset_sites("w8a8")

    @pytest.mark.parametrize("make", [
        lambda: SiteConfig(act_bits=8.0),
        lambda: SiteConfig(act_bits=True),
        lambda: SiteConfig(act_bits=8, trip_cap=2.0),
        lambda: SiteConfig(act_bits=8, trip_cap=True),
        lambda: BlockConfig(n_heads=0),
        lambda: BlockConfig(n_heads=-4),
        lambda: BlockConfig(d_model=64.0),
        lambda: BlockConfig(d_model=0, n_heads=1),
        lambda: BlockConfig(d_ff=0),
        lambda: BlockConfig(d_ff=np.float32(256)),
        lambda: BlockConfig(seed=-1),
        lambda: BlockConfig(seed=1.0),
        lambda: BlockConfig(seed=False),
        lambda: BlockConfig(sites={"qk": 8}),
        lambda: BlockConfig(sites={"qk": None}),
        lambda: BlockConfig(sites={"qk": {"act_bits": 8}}),
        lambda: init_stack(BlockConfig(), -1),
        lambda: init_stack(BlockConfig(), 1.5),
        lambda: make_outlier_input(4, 4, [9], [0]),
        lambda: make_outlier_input(4, 4, [-1], [0]),
        lambda: make_outlier_input(4, 4, [0], [4]),
    ])
    def test_non_integer_or_out_of_range_fields_rejected(self, make):
        """Each is refused when the config or stack is built, not by a raw
        TypeError, ValueError or ZeroDivisionError in a later forward pass, an
        IndexError, an empty stack or a negative index read from the end."""
        with pytest.raises(PipelineError, match="must be"):
            make()

    def test_numpy_integers_accepted(self):
        cfg = BlockConfig(d_model=np.int64(16), n_heads=np.int32(2), d_ff=np.uint8(8),
                          seed=np.int64(3), sites={"fc1": SiteConfig(np.int64(8),
                                                                     np.int8(2))})
        assert type(cfg.d_ff) is int and type(cfg.site("fc1").trip_cap) is int
        assert forward_block(init_block(cfg), np.ones((3, 16), np.float32))[0].shape == (3, 16)

    # "log2": SiteConfig(8, "log2") passes a quantizer name as the cap
    @pytest.mark.parametrize("cap", [-1, 7, 200, "log2"])
    def test_trip_cap_outside_0_to_6_rejected(self, cap):
        with pytest.raises(PipelineError, match="trip_cap must be in 0..6"):
            SiteConfig(act_bits=8, trip_cap=cap)
        for act_quantizer in ("trip", "affine"):
            with pytest.raises(PipelineError, match="trip_cap must be in 0..6"):
                preset_sites("w4a8", act_quantizer, trip_cap=cap)


config_fields = st.one_of(st.integers(-2, 9), st.sampled_from([
    0.0, 4.0, 8.0, True, False, None, "8", np.int64(4), np.int8(-1), np.float64(2.0)]))


@settings(max_examples=150, deadline=None)
@given(act_bits=config_fields, trip_cap=config_fields, d_model=config_fields,
       n_heads=config_fields, d_ff=config_fields, seed=config_fields)
def test_config_builds_a_runnable_block_or_raises(act_bits, trip_cap, d_model, n_heads,
                                                  d_ff, seed):
    """A config with any of these field values either runs a forward pass or
    refuses to be built with a ``PipelineError``: nothing crashes later."""
    try:
        cfg = BlockConfig(d_model=d_model, n_heads=n_heads, d_ff=d_ff, seed=seed,
                          sites={"fc1": SiteConfig(act_bits, trip_cap)})
    except PipelineError:
        return
    x = np.random.default_rng(0).standard_normal((3, cfg.d_model)).astype(np.float32)
    out, stats = forward_block(init_block(cfg), x)
    assert out.shape == x.shape and stats.start.shape == (cfg.n_heads, 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-30, 1e-3, 1.0, 30.0, 1e3, 1e30, 3e38]), st.booleans(),
       st.sampled_from([None, 1, 2, 3]), st.lists(st.integers(0, 4), max_size=5))
@example(300, 1, 1.0, False, 2, [0, 1, 2, 3, 4])
@example(256, 2, 30.0, True, None, [2, 3])
@example(16, 3, 1.0, True, 4, [0])
def test_softmax_equals_minus_inf_oracle(t, seed, amp, ties, heads, cuts):
    """The in-place band softmax equals the -inf/triu_indices formulation
    bit for bit, on one (T, T) map (``heads`` None) or on an (H, T, T) stack,
    head by head; ``ties`` draws scores from {-amp, 0, amp}, so most rows
    have several equal maxima. The whole map runs band by band, in place in
    a zeroed map; the causal row bands
    ``[r0, r1)`` that start at the multiples of BAND_ROWS in ``cuts`` (the
    last one short when BAND_ROWS does not divide T) give the oracle's rows
    r0..r1 on their own, given only their first r1 columns. The zeros above
    the diagonal are +0.0, every map's maximum is exactly 1.0 (row 0), and
    no band entry exceeds it."""
    rng = np.random.default_rng(seed)
    shape = (t, t) if heads is None else (heads, t, t)
    if ties:
        scores = rng.integers(-1, 2, shape) * np.float32(amp)
    else:
        scores = np.clip(rng.standard_normal(shape), -4, 4) * (amp / 4)
    scores = scores.astype(np.float32)
    want = np.stack([ref_softmax_causal(m) for m in scores.reshape(-1, t, t)]).reshape(shape)
    probs = np.zeros_like(scores)
    for r0 in range(0, t, BAND_ROWS):
        band = probs[..., r0:r0 + BAND_ROWS, :r0 + BAND_ROWS]
        band[...] = scores[..., r0:r0 + BAND_ROWS, :r0 + BAND_ROWS]
        _softmax_causal(band, r0)
    assert probs.dtype == np.float32
    assert probs.tobytes() == want.tobytes()
    assert not np.signbit(probs).any()
    assert (probs.reshape(-1, t, t).max(axis=(1, 2)) == 1.0).all()  # the log2 maximum
    for r0 in sorted({c * BAND_ROWS for c in cuts if c * BAND_ROWS < t}):
        r1 = min(r0 + BAND_ROWS, t)
        band = scores[..., r0:r1, :r1].copy()
        _softmax_causal(band, r0)
        assert band.tobytes() == want[..., r0:r1, :r1].tobytes()
        assert (band <= 1.0).all()


@pytest.mark.parametrize("shape", [(1, 64), (37, 256), (1024, 2048)])
def test_nonlinearities_equal_out_of_place_oracles(shape):
    """The in-place layernorm and SiLU equal their out-of-place formulas bit
    for bit, on random rows of every magnitude and on extreme and constant
    rows."""
    rng = np.random.default_rng(shape[0])
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    x[0, :6] = [0.0, -0.0, 90.0, -90.0, 1e4, -1e4]
    for value in (0.0, -0.0, 90.0, -90.0, 1e4, -1e4)[:len(x) - 1]:
        x[1 + int(rng.integers(len(x) - 1))] = value  # constant rows
    x = x.astype(np.float32)
    with np.errstate(over="ignore"):  # exp(1e4) is inf in both, as in forward_block
        assert _layernorm(x).tobytes() == ref_layernorm(x).tobytes()
        assert _silu(x).tobytes() == ref_silu(x).tobytes()


@settings(max_examples=100, deadline=None)
@given(t=st.integers(1, 40), n_heads=st.sampled_from([1, 2, 4, 8]), d_head=st.integers(1, 6),
       bits=st.sampled_from([4, 8]), seed=st.integers(0, 2**32 - 1),
       const_head=st.booleans(), outliers=st.booleans())
@example(t=1, n_heads=8, d_head=3, bits=8, seed=0, const_head=True, outliers=True)
@example(t=5, n_heads=4, d_head=2, bits=8, seed=1, const_head=True, outliers=False)
def test_quantize_heads_equals_per_head_affine(t, n_heads, d_head, bits, seed,
                                               const_head, outliers):
    """One pass over all heads of the K block of a fused QKV output (a
    strided column view) equals fitting and quantizing each head on its own,
    and a head's transposed codes equal quantizing K^T. The K stack of the
    whole output's Q, K and V stacks is the same stack. ``const_head`` makes
    one head constant (the ``SCALE_EPS`` fit); ``outliers`` plants +-1e30."""
    rng = np.random.default_rng(seed)
    d = n_heads * d_head
    qkv = rng.standard_normal((t, 3 * d)).astype(np.float32)
    if const_head:
        lo = d + d_head * int(rng.integers(n_heads))
        qkv[:, lo:lo + d_head] = np.float32(rng.standard_normal())
    if outliers:
        qkv[rng.integers(t, size=2), d + rng.integers(d, size=2)] = [1e30, -1e30]
    _, k, _ = np.hsplit(qkv, 3)
    assert t == 1 or not k.flags.c_contiguous
    (stack,) = _quantize_heads(k, 1, n_heads, bits)
    _, k_stack, _ = _quantize_heads(qkv, 3, n_heads, bits)
    assert stack.codes.shape == (n_heads, t, d_head)
    assert stack.params.scale.shape == stack.params.zero_point.shape == (n_heads, 1, 1)
    np.testing.assert_array_equal(k_stack.codes, stack.codes)
    for h in range(n_heads):
        got, kh = head(stack, h), k[:, h * d_head:(h + 1) * d_head]
        assert head(k_stack, h).params == got.params
        want = quantize_affine(kh, fit_affine(kh, bits))
        assert got.kind == want.kind == "affine"
        assert got.params == want.params
        assert got.codes.dtype == want.codes.dtype
        np.testing.assert_array_equal(got.codes, want.codes)
        want_t = quantize_affine(kh.T, fit_affine(kh.T, bits))
        assert want_t.params == got.params
        np.testing.assert_array_equal(got.codes.T, want_t.codes)



def _reference_grid(test):
    """Every mode and quantizer, at lengths of one band and of several."""
    for mark in (
        pytest.mark.parametrize("t,d_model,n_heads", GRID_SHAPES),
        pytest.mark.parametrize("act_quantizer", GRID_QUANTIZERS),
        pytest.mark.parametrize("mode", GRID_MODES),
    ):
        test = mark(test)
    return test


def _equals_per_head_reference(mode, act_quantizer, t, d_model, n_heads, traced):
    cfg, x = grid_case(mode, act_quantizer, t, d_model, n_heads)
    block = init_block(cfg)
    trace, ref_trace = ([], []) if traced else (None, None)
    out, stats = forward_block(block, x, trace=trace)
    ref_out, ref_probs = ref_forward_block(block, x, cfg, trace=ref_trace)
    assert out.tobytes() == ref_out.tobytes()
    assert stats_bytes(stats) == stats_bytes(stats_of(ref_probs))
    assert (stats.start[:, 0] == 1.0).all()  # the log2 quantizer's maximum
    assert trace == ref_trace
    if traced:
        assert [r["site"] for r in trace].count("attn_v") == (
            n_heads if cfg.site("attn_v").act_bits < 32 else 0)


@_reference_grid
def test_forward_block_equals_per_head_reference(mode, act_quantizer, t, d_model, n_heads):
    """One Q/K/V quantization per block and banded softmax and log2
    quantization of all heads at once give the bytes and trace records of a
    loop that quantizes every head's slices and runs every head's softmax on
    its whole map, and that map's attention statistics. A trace runs the same bands as a bare pass, and its
    attn_v records, over each whole map, are the reference's. The ``fp32-``
    modes are w4a8 with that one site at FP32."""
    _equals_per_head_reference(mode, act_quantizer, t, d_model, n_heads, traced=True)


@_reference_grid
def test_untraced_forward_block_equals_per_head_reference(mode, act_quantizer, t, d_model,
                                                          n_heads):
    """Without a trace too, qk and attn_v sites at every precision run in
    causal row bands past BAND_ROWS, and still give the reference's bytes."""
    _equals_per_head_reference(mode, act_quantizer, t, d_model, n_heads, traced=False)


@pytest.mark.parametrize("amp", [1e18, 1e19, 3e19])
def test_qk_scores_run_in_bands_at_every_amplitude(monkeypatch, amp):
    """At T=256 a block runs 4 bands at every input amplitude, one qk call
    of all heads each, since bands never compute the qk scores above the
    diagonal and only causal scores are checked: up to 1e19 it gives the
    whole-map reference's bytes, and at 3e19 it raises on the overflowing
    causal scores as the reference does."""
    cfg = BlockConfig(sites=preset_sites("w4a4"), seed=256)
    block = init_block(cfg)
    x = np.random.default_rng(256).standard_normal((256, cfg.d_model)).clip(-4, 4)
    x = x.astype(np.float32) * np.float32(amp / 4)
    qk_calls = []
    kernel = agq.pipeline.gemm_int_affine

    def spy(aq, wq):
        if wq.kind == "affine":
            qk_calls.append(aq.codes.shape)
        return kernel(aq, wq)

    monkeypatch.setattr(agq.pipeline, "gemm_int_affine", spy)
    try:
        out, stats = forward_block(block, x)
    except PipelineError as e:
        out, error = None, str(e)
    assert set(qk_calls) == {(cfg.n_heads, BAND_ROWS, cfg.d_head)}  # each band's queries
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow under test
        if amp > 1e19:
            assert out is None and error == "non-finite activations after qk"
            with pytest.raises(PipelineError, match="non-finite activations after qk"):
                ref_forward_block(block, x, cfg)
        else:
            ref_out, ref_probs = ref_forward_block(block, x, cfg)
            assert out.tobytes() == ref_out.tobytes()
            assert stats_bytes(stats) == stats_bytes(stats_of(ref_probs))
            assert len(qk_calls) == 4


@pytest.mark.parametrize("qk_bits", [8, 32])
@pytest.mark.parametrize("t", [2, 64, 200])
def test_only_causal_qk_scores_are_checked(monkeypatch, qk_bits, t):
    """A non-finite qk score above the diagonal of a band's diagonal block
    changes nothing, as no output reads it; a -inf on the diagonal raises,
    although its softmax probability would come out 0 like a future one's.
    The spy writes into the last head of every qk product, a stack of all
    heads: ``gemm_int_affine`` at an 8-bit qk site, ``gemm_f32`` (the one
    call with d_head inner columns) at FP32."""
    sites = preset_sites("w4a8")
    if qk_bits == 32:
        sites = {**sites, "qk": SiteConfig(), "attn_v": SiteConfig()}
    cfg = BlockConfig(sites=sites, seed=3)
    block = init_block(cfg)
    x = np.random.default_rng(t).standard_normal((t, cfg.d_model)).astype(np.float32)
    want, want_stats = forward_block(block, x)
    name = "gemm_f32" if qk_bits == 32 else "gemm_int_affine"
    kernel = getattr(agq.pipeline, name)

    def spying(value, causal):
        def spy(a, b):
            out = kernel(a, b)
            if (b.kind == "affine") if qk_bits == 8 else (a.shape[-1] == cfg.d_head):
                heads, n, r1 = out.shape
                assert heads == cfg.n_heads
                out[-1, 0, r1 - n + (0 if causal else 1)] = value  # row r0's key r0 or r0 + 1
            return out
        return spy

    for value in (np.inf, -np.inf, np.nan):
        monkeypatch.setattr(agq.pipeline, name, spying(value, causal=False))
        out, stats = forward_block(block, x)
        assert out.tobytes() == want.tobytes()
        assert stats_bytes(stats) == stats_bytes(want_stats)
    monkeypatch.setattr(agq.pipeline, name, spying(-np.inf, causal=True))
    with pytest.raises(PipelineError, match="non-finite activations after qk"):
        forward_block(block, x)


def test_fp32_stack_memory_stays_in_bands():
    """A 4-block FP32 stack at T=1024 holds one (heads, 64, T) band per block,
    not a (heads, T, T) map per block (29.7 MiB peak when it did)."""
    cfg = BlockConfig(seed=0)
    blocks = init_stack(cfg, 4)
    x = np.random.default_rng(0).standard_normal((1024, cfg.d_model)).astype(np.float32)
    tracemalloc.start()
    try:
        forward_stack(blocks, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


class TestInit:
    def test_keys_are_weight_sites(self):
        cfg = BlockConfig(d_model=8, n_heads=2, d_ff=12, seed=5)
        b = init_block(cfg)
        sites = {"linear_transform", "projection", "fc1", "fc2"}
        assert set(b.weights) == set(b.weight_q) == sites
        # wq, wk, wv are the first three (d, d) draws, fused column-wise
        rng = np.random.default_rng(5)
        draws = [(rng.standard_normal((8, 8)) * (1.0 / np.sqrt(8))).astype(np.float32)
                 for _ in range(3)]
        np.testing.assert_array_equal(b.weights["linear_transform"], np.hstack(draws))
        assert b.weights["projection"].shape == (8, 8)
        assert b.weights["fc1"].shape == (8, 12)
        assert b.weights["fc2"].shape == (12, 8)

    def test_determinism(self):
        b1 = init_block(BlockConfig(seed=7))
        b2 = init_block(BlockConfig(seed=7))
        for name in b1.weights:
            np.testing.assert_array_equal(b1.weights[name], b2.weights[name])
            np.testing.assert_array_equal(
                b1.weight_q[name].codes, b2.weight_q[name].codes
            )

    def test_weight_halfstep_property(self):
        b = init_block(BlockConfig(seed=0))
        for name, w in b.weights.items():
            q = b.weight_q[name]
            recon = q.codes.astype(np.float64) * q.params.scales[None, :]
            assert np.all(np.abs(w - recon) <= q.params.scales[None, :] / 2 + 1e-6)

    def test_packed_unpacks_to_codes_plus_8(self):
        b = init_block(BlockConfig(d_model=8, n_heads=2, d_ff=12, seed=5))
        assert set(b.packed) == set(b.weight_q)
        for name, wq in b.weight_q.items():
            np.testing.assert_array_equal(agq.unpack_int4(b.packed[name]).T, wq.codes + 8)

    def test_stack_seeds_differ(self):
        blocks = init_stack(BlockConfig(seed=0), 3)
        assert not np.array_equal(blocks[0].weights["linear_transform"],
                                  blocks[1].weights["linear_transform"])


def _small_stack(sites, t=8, n_blocks=2):
    cfg = BlockConfig(d_model=16, n_heads=2, d_ff=32, sites=sites, seed=3)
    x = np.random.default_rng(3).standard_normal((t, 16)).astype(np.float32)
    x[:, [1, 6]] *= 20.0  # outlier channels: exponents spread over 0..cap
    return init_stack(cfg, n_blocks), x


def _lane_sites(cap):
    """w4a8 with every post-attention weight site at 4-bit TRIP, cap ``cap``."""
    sites = preset_sites("w4a8", trip_cap=cap)
    sites.update(dict.fromkeys(("projection", "fc1", "fc2"), SiteConfig(4, cap)))
    return sites


@pytest.mark.parametrize("sites,cap", [(preset_sites(mode, trip_cap=cap), cap)
                                       for mode in ("w4a8", "w4a4") for cap in range(7)]
                         + [(_lane_sites(6), 6)])
def test_every_trip_cap_runs_with_true_weight_range(sites, cap, monkeypatch):
    """Shifted weight codes reach +-8 * 2^cap, past an 8-bit range from cap 5
    on; the range gemm_int_affine receives still bounds every code."""
    seen = []
    kernel = agq.pipeline.gemm_int_affine

    def spy(aq, wq):
        if wq.kind == "weight":
            seen.append((aq.kind, wq.params.range, int(wq.codes.min()), int(wq.codes.max())))
        return kernel(aq, wq)

    monkeypatch.setattr(agq.pipeline, "gemm_int_affine", spy)
    blocks, x = _small_stack(sites)
    out, _ = forward_stack(blocks, x)
    assert np.isfinite(out).all()
    assert seen and {kind for kind, *_ in seen} == {"trip"}
    for _, rng, lo, hi in seen:
        assert (rng.lo, rng.hi) == (-8 * 2**cap, 7 * 2**cap)
        assert rng.lo <= lo and hi <= rng.hi
    if cap:  # some channel took an exponent above 0
        assert max(hi for *_, hi in seen) > 7


def test_forward_picks_each_gemm_width_and_stays_exact(monkeypatch):
    """A w4a8 pass at TRIP cap 6, d_ff 256 and T = 600 runs its integer
    GEMMs at both widths: fc2's bound 256 * 255 * 512 and attn_v's bands
    reaching r1 >= 515 need float64, the other sites fit float32. Every
    kernel call equals its int64 oracle bit for bit."""
    widths = []
    calls = dict.fromkeys(("gemm_int_affine", "gemm_log2_attnv"), 0)
    check_exact = agq.kernels.check_exact

    def spy(*args):
        widths.append(check_exact(*args))
        return widths[-1]

    def checked(name, kernel, oracle):
        def wrapper(*args):
            out = kernel(*args)
            np.testing.assert_array_equal(out, oracle(*args))
            calls[name] += 1
            return out
        return wrapper

    monkeypatch.setattr(agq.kernels, "check_exact", spy)
    for name, oracle in (("gemm_int_affine", int64_gemm_int_affine),
                         ("gemm_log2_attnv", int64_gemm_log2_attnv)):
        monkeypatch.setattr(agq.pipeline, name,
                            checked(name, getattr(agq.pipeline, name), oracle))
    cfg = BlockConfig(d_ff=256, sites=preset_sites("w4a8", trip_cap=6), seed=3)
    x = np.random.default_rng(3).standard_normal((600, cfg.d_model)).astype(np.float32)
    out, _ = forward_block(init_block(cfg), x)
    assert np.isfinite(out).all()
    # 4 weight sites, 10 bands of qk and of attn_v, each call all 4 heads
    assert calls == {"gemm_int_affine": 4 + 10, "gemm_log2_attnv": 10}
    assert len(widths) == 24 and set(widths) == {np.float32, np.float64}
    # linear_transform's 64 * 255 * 512 < 2^24 <= fc2's 256 * 128 * 512
    assert widths[0] is np.float32 and widths[-1] is np.float64


@pytest.mark.parametrize("sites", [preset_sites("w4a8"), preset_sites("w4a4"),
                                   preset_sites("w4a4", act_quantizer="affine"),
                                   _lane_sites(6)])
def test_forward_does_no_weight_work(sites, monkeypatch):
    """Weights are fitted, quantized and packed in init_block only; a forward
    pass never folds, re-fits, re-quantizes or re-packs them."""
    names = ("fold_trip_into_weights", "fit_weight_symmetric",
             "quantize_weight_symmetric", "pack_weights_for_gemm")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (agq.kernels, agq.quantizers, agq.trip, agq.pipeline):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    blocks, x = _small_stack(sites)
    assert calls["quantize_weight_symmetric"] == calls["pack_weights_for_gemm"] == 8
    calls.update(dict.fromkeys(names, 0))
    forward_stack(blocks, x)
    assert calls == dict.fromkeys(names, 0)


@pytest.mark.parametrize("cap", range(1, 7))
def test_shifted_weight_params_made_in_init_block(cap, monkeypatch):
    """Every cap's shifted weight params are made by init_block, so a pass
    at any cap, even one the block was not built with, builds none."""
    block = init_block(BlockConfig(sites=preset_sites("w4a8", trip_cap=0), seed=cap))
    x = np.random.default_rng(cap).standard_normal((8, 64)).astype(np.float32)
    cfg = replace(block.cfg, sites=preset_sites("w4a8", trip_cap=cap))
    want, _ = forward_block(block, x, cfg)
    built = []
    monkeypatch.setattr(agq.pipeline, "ChannelSymmetricParams",
                        lambda *args, **kwargs: built.append(args))
    got, _ = forward_block(block, x, cfg)
    assert built == [] and got.tobytes() == want.tobytes()


def fp_pass(b, x):
    """The FP32 reference pass: every site forced to the FP32 kernel."""
    return forward_block(b, x, replace(b.cfg, sites={}))


class TestForwardFP:
    def test_single_token_map(self):
        b = init_block(BlockConfig(seed=0))
        x = np.random.default_rng(0).standard_normal((1, 64)).astype(np.float32)
        _, stats = fp_pass(b, x)
        assert stats_bytes(stats) == stats_bytes(stats_of(np.ones((4, 1, 1), np.float32)))

    def test_matches_naive_reference(self):
        b = init_block(BlockConfig(seed=2))
        x = np.random.default_rng(2).standard_normal((4, 64)).astype(np.float32)
        out, _ = fp_pass(b, x)
        expect = naive_block_forward(b.weights, x, n_heads=4)
        np.testing.assert_allclose(out, expect, atol=1e-5)

    def test_causality_by_perturbation(self):
        b = init_block(BlockConfig(seed=3))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 64)).astype(np.float32)
        out, _ = fp_pass(b, x)
        x2 = x.copy()
        x2[5:] += rng.standard_normal((3, 64)).astype(np.float32)
        out2, _ = fp_pass(b, x2)
        np.testing.assert_array_equal(out[:5], out2[:5])

    def test_shape_mismatch(self):
        b = init_block(BlockConfig(seed=0))
        with pytest.raises(PipelineError):
            fp_pass(b, np.zeros((4, 32), dtype=np.float32))

    @pytest.mark.parametrize("mode", ["fp32", "w4a8", "w4a4"])
    def test_input_without_rows_rejected(self, mode):
        cfg = BlockConfig(sites=preset_sites(mode), seed=0)
        empty = np.zeros((0, 64), dtype=np.float32)
        with pytest.raises(PipelineError, match="^input has no rows$"):
            forward_block(init_block(cfg), empty)
        with pytest.raises(PipelineError, match="^block 0: input has no rows$"):
            forward_stack(init_stack(cfg, 2), empty)


class TestQuantizedPass:
    """A configured pass with a trace, compared against the FP32 pass."""

    def test_all_fp_bit_identical(self):
        b = init_block(BlockConfig(seed=4))
        x = np.random.default_rng(4).standard_normal((12, 64)).astype(np.float32)
        fp_out, _ = fp_pass(b, x)
        records = []
        q_out, _ = forward_block(b, x, BlockConfig(seed=4, sites={}), trace=records)
        np.testing.assert_array_equal(q_out, fp_out)
        assert cosine_similarity(q_out, fp_out) == 1.0
        assert records == []

    def test_w4a8_cosine_on_fixed_seed(self):
        # threshold fixed after an oracle scan over seeds; seed 1 measured 0.985
        cfg = BlockConfig(sites=preset_sites("w4a8"), seed=1)
        b = init_block(cfg)
        x = np.random.default_rng(101).standard_normal((16, 64)).astype(np.float32)
        out, _ = forward_block(b, x)
        assert cosine_similarity(out, fp_pass(b, x)[0]) >= 0.98

    @pytest.mark.parametrize("seed", range(20))
    def test_w4a4_divergence_at_least_w4a8(self, seed):
        cfg8 = BlockConfig(sites=preset_sites("w4a8"), seed=seed)
        cfg4 = BlockConfig(sites=preset_sites("w4a4"), seed=seed)
        b = init_block(cfg8)
        x = np.random.default_rng(seed + 100).standard_normal((16, 64)).astype(np.float32)
        fp_out, _ = fp_pass(b, x)
        cos8 = cosine_similarity(forward_block(b, x, cfg8)[0], fp_out)
        cos4 = cosine_similarity(forward_block(b, x, cfg4)[0], fp_out)
        assert 1.0 - cos4 >= 1.0 - cos8

    @pytest.mark.parametrize("seed", range(10))
    def test_trip_sites_mse_at_most_affine(self, seed):
        b = init_block(BlockConfig(seed=seed))
        x = make_outlier_input(16, 64, outlier_channels=(3, 4), outlier_tokens=(5, 9),
                               seed=seed)
        cfg_t = BlockConfig(sites=preset_sites("w4a8", act_quantizer="trip"), seed=seed)
        cfg_a = BlockConfig(sites=preset_sites("w4a8", act_quantizer="affine"), seed=seed)
        dt, da = [], []
        forward_block(b, x, cfg_t, trace=dt)
        forward_block(b, x, cfg_a, trace=da)
        # the first trace record is the shared linear-transform input,
        # identical activations under both configs
        assert dt[0]["site"] == da[0]["site"] == "linear_transform"
        assert dt[0]["mse"] <= da[0]["mse"] + 1e-12

    def test_trace_record_fields(self):
        cfg = BlockConfig(sites=preset_sites("w4a8"), seed=0)
        b = init_block(cfg)
        x = np.random.default_rng(0).standard_normal((8, 64)).astype(np.float32)
        records = []
        out, stats = forward_block(b, x, trace=records)
        fp_out, fp_stats = fp_pass(b, x)
        assert records
        for entry in records:
            assert {"site", "act_bits", "mse"} <= set(entry)
            assert entry["mse"] >= 0
        assert -1.0 <= cosine_similarity(out, fp_out) <= 1.0
        assert 0.0 <= attention_locality(fp_stats) <= 1.0
        assert 0.0 <= attention_locality(stats) <= 1.0


class TestForwardStack:
    def test_no_schedule_keeps_everything(self):
        blocks = init_stack(BlockConfig(seed=0), 3)
        x = np.random.default_rng(0).standard_normal((10, 64)).astype(np.float32)
        out, info = forward_stack(blocks, x)
        assert out.shape == (10, 64)
        assert info["kept_global"] == list(range(10))
        assert info["sparsity"] == 0.0

    def test_schedule_prunes_and_accounts(self):
        blocks = init_stack(BlockConfig(seed=1), 4)
        x = np.random.default_rng(1).standard_normal((20, 64)).astype(np.float32)
        schedule = agq.make_schedule(4, 1, 0.3, 2)
        out, info = forward_stack(blocks, x, schedule=schedule)
        assert out.shape[0] == len(info["kept_global"])
        assert out.shape[0] < 20
        assert 0 in info["kept_global"]
        assert info["sparsity"] > 0
        # nested kept sets across the cascade
        expect = 1.0 - np.mean(info["kept_fractions"])
        assert info["sparsity"] == pytest.approx(expect, abs=1e-12)

    def test_one_linear_transform_record_per_block(self):
        cfg = BlockConfig(sites=preset_sites("w4a8"), seed=3)
        blocks = init_stack(cfg, 3)
        x = np.random.default_rng(3).standard_normal((10, 64)).astype(np.float32)
        records = []
        forward_stack(blocks, x, trace=records)
        sites = [r["site"] for r in records]
        assert sites.count("linear_transform") == 3
        assert sites.count("attn_v") == 3 * cfg.n_heads
        for name in ("projection", "fc1", "fc2"):
            assert sites.count(name) == 3

    def test_forced_keeps_replay(self):
        blocks = init_stack(BlockConfig(seed=2), 3)
        x = np.random.default_rng(2).standard_normal((12, 64)).astype(np.float32)
        schedule = agq.make_schedule(3, 0, 0.25, 2)
        _, info = forward_stack(blocks, x, schedule=schedule)
        keeps = {i: info["keeps"][i] for i in schedule.prune_layers}
        _, replay = forward_stack(blocks, x, forced_keeps=keeps)
        assert replay["kept_global"] == info["kept_global"]

    @pytest.mark.parametrize("keywords,match", [
        (dict(schedule=agq.make_schedule(8, 2, 0.5, 2)), "outside 0..3"),  # layers (2, 7)
        (dict(schedule=PruneSchedule(prune_layers=(-1, 3), final_ratio=0.5)), "outside 0..3"),
        (dict(forced_keeps={9: [0, 1]}), "outside 0..3"),
        (dict(forced_keeps={-1: [0, 1]}), "outside 0..3"),
        (dict(forced_keeps={1: [9]}), "^block 1: row index 9 out of range for 6 rows$"),
        (dict(forced_keeps={0: [0, 1.5, 3]}), "^block 0: keep indices must be integers"),
        (dict(forced_keeps={0: [False, True]}), "^block 0: keep indices must be integers"),
    ], ids=["schedule-past-end", "schedule-negative", "keep-past-end", "keep-negative",
            "keep-row-past-end", "keep-float", "keep-bool"])
    def test_prune_layers_outside_the_stack_rejected(self, keywords, match):
        """A prune or forced-keep layer that no block has is an error, not
        silently skipped; so is a forced keep of a row its block does not
        have, named by its block as a failing block is."""
        blocks = init_stack(BlockConfig(d_model=16, n_heads=2, d_ff=16, seed=4), 4)
        x = np.random.default_rng(4).standard_normal((6, 16)).astype(np.float32)
        with pytest.raises(PipelineError, match=match):
            forward_stack(blocks, x, **keywords)


def _assert_same_run(got, want):
    """Two ``forward_stack`` results agree bit for bit."""
    (out, info), (want_out, want_info) = got, want
    assert out.tobytes() == want_out.tobytes()
    assert [stats_bytes(s) for s in info["attention"]] == [
        stats_bytes(s) for s in want_info["attention"]]
    for key in ("keeps", "kept_global", "kept_fractions", "sparsity"):
        assert info[key] == want_info[key], key


class TestResume:
    """``resume=(hidden, stats)`` continues after the blocks that made
    ``stats``; the result equals the unresumed pass bit for bit."""

    N_BLOCKS = 4

    def _stack(self, mode, act_quantizer):
        cfg = BlockConfig(d_model=32, n_heads=2, d_ff=48,
                          sites=preset_sites(mode, act_quantizer=act_quantizer), seed=5)
        x = np.random.default_rng(5).standard_normal((11, 32)).astype(np.float32)
        return init_stack(cfg, self.N_BLOCKS), x, cfg

    @pytest.mark.parametrize("start,m", [(1, 2), (3, 1)], ids=["mid", "last-block"])
    @pytest.mark.parametrize("mode", ["fp32", "w4a8", "w4a4"])
    @pytest.mark.parametrize("act_quantizer", ["trip", "affine"])
    def test_resumed_equals_unresumed(self, mode, act_quantizer, start, m):
        blocks, x, cfg = self._stack(mode, act_quantizer)
        schedule = agq.make_schedule(self.N_BLOCKS, start, 0.5, m)
        split = schedule.prune_layers[0] + 1
        records = []
        want = forward_stack(blocks, x, schedule=schedule, trace=records)
        prefix_records = []
        pre_out, pre_info = forward_stack(blocks[:split], x, trace=prefix_records)
        state = (pre_out, pre_info["attention"])
        resumed_records = list(prefix_records)
        got = forward_stack(blocks, x, schedule=schedule, trace=resumed_records, resume=state)
        _assert_same_run(got, want)
        assert resumed_records == records
        assert got[1]["kept_global"] != list(range(len(x)))  # the resumed pass pruned
        # the unpruned rest, and forced keeps replayed on an FP32 prefix
        _assert_same_run(forward_stack(blocks, x, resume=state), forward_stack(blocks, x))
        keeps = {i: want[1]["keeps"][i] for i in schedule.prune_layers}
        fp_cfg = replace(cfg, sites={})
        fp_out, fp_info = forward_stack(blocks[:split], x, fp_cfg)
        _assert_same_run(
            forward_stack(blocks, x, fp_cfg, forced_keeps=keeps,
                          resume=(fp_out, fp_info["attention"])),
            forward_stack(blocks, x, fp_cfg, forced_keeps=keeps))

    # name -> forward_stack keywords, given the state after blocks 0..2
    INVALID = {
        "prune-layer-skipped": lambda out, stats: dict(
            schedule=agq.make_schedule(4, 1, 0.5, 2), resume=(out, stats)),
        "forced-keep-skipped": lambda out, stats: dict(
            forced_keeps={1: [0, 1]}, resume=(out, stats)),
        "more-stats-than-blocks": lambda out, stats: dict(resume=(out, stats + stats[:2])),
        "no-stats": lambda out, stats: dict(resume=(out, [])),
        "too-few-rows": lambda out, stats: dict(resume=(out[:-1], stats)),
        "wrong-width": lambda out, stats: dict(resume=(np.hstack([out, out]), stats)),
    }

    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_invalid_state_rejected(self, name):
        blocks, x, _ = self._stack("w4a8", "affine")
        out, info = forward_stack(blocks[:3], x)
        with pytest.raises(PipelineError, match="resume"):
            forward_stack(blocks, x, **self.INVALID[name](out, info["attention"]))

    def test_decision_layer_may_be_the_last_resumed_block(self):
        blocks, x, _ = self._stack("w4a8", "affine")
        schedule = agq.make_schedule(4, 1, 0.5, 2)  # prune layers (1, 3)
        out, info = forward_stack(blocks[:2], x)
        _assert_same_run(
            forward_stack(blocks, x, schedule=schedule, forced_keeps={3: [0]},
                          resume=(out, info["attention"])),
            forward_stack(blocks, x, schedule=schedule, forced_keeps={3: [0]}))

    def test_errors_number_blocks_globally(self, monkeypatch):
        blocks, x, _ = self._stack("w4a8", "affine")
        out, info = forward_stack(blocks[:2], x)

        def fail(*args, **kwargs):
            raise PipelineError("stage failed")

        monkeypatch.setattr(agq.pipeline, "forward_block", fail)
        with pytest.raises(PipelineError, match="^block 2: stage failed$"):
            forward_stack(blocks, x, resume=(out, info["attention"]))


class TestAnalyzeOutliers:
    def test_constant_input_no_outliers(self):
        r = analyze_outliers(np.full((8, 4), 2.5, dtype=np.float32), 3.0)
        np.testing.assert_array_equal(r.counts, 0)

    def test_direct_construction(self):
        x = np.zeros((20, 8), dtype=np.float32)
        x[:10, 3] = 100.0
        r = analyze_outliers(x, 3.0)
        assert r.counts[3] == 10
        assert r.counts.sum() == 10
        assert r.ranked_channels[0] == 3

    def test_token_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 6)).astype(np.float32)
        x[::4, 2] = 50.0
        r1 = analyze_outliers(x, 2.0)
        r2 = analyze_outliers(x[rng.permutation(30)], 2.0)
        np.testing.assert_array_equal(r1.counts, r2.counts)
        np.testing.assert_array_equal(r1.ranked_channels, r2.ranked_channels)

    def test_errors(self):
        with pytest.raises(PipelineError):
            analyze_outliers(np.empty((0, 3), dtype=np.float32), 3.0)
        with pytest.raises(PipelineError):
            analyze_outliers(np.ones((2, 2), dtype=np.float32), 0.0)
        with pytest.raises(PipelineError):
            analyze_outliers(np.ones((2, 2), dtype=np.float32), float("nan"))
        x = np.random.default_rng(0).standard_normal((8, 4)).astype(np.float32)
        with pytest.raises(PipelineError, match="overflows"):
            analyze_outliers(x * 10, 1e308)


class TestAttentionLocality:
    def test_one_hot_previous(self):
        t = 6
        p = np.zeros((1, t, t))
        p[0, 0, 0] = 1.0
        for i in range(1, t):
            p[0, i, i - 1] = 1.0
        assert attention_locality(stats_of(p)) == pytest.approx(1.0)

    def test_stripe_extreme(self):
        t = 8
        p = np.zeros((1, t, t))
        p[0, :, 0] = 1.0
        # only i = 1, 2 have column 0 inside the window
        assert attention_locality(stats_of(p)) == pytest.approx(2 / (t - 1))

    def test_uniform_causal_closed_form(self):
        t = 8
        p = np.tril(np.ones((1, t, t)))
        p /= p.sum(axis=2, keepdims=True)
        expect = np.mean([min(2, i) / (i + 1) for i in range(1, t)])
        assert attention_locality(stats_of(p)) == pytest.approx(expect)

    def test_single_token(self):
        assert attention_locality(stats_of(np.ones((2, 1, 1)))) == 1.0

    def test_nan_map_rejected(self):
        p = np.tril(np.ones((1, 4, 4)))
        p /= p.sum(axis=2, keepdims=True)
        p[0, 2, 1] = np.nan
        with pytest.raises(PruneError, match=r"outside \[0, 1\]"):
            attention_locality(stats_of(p))

    def test_negative_map_rejected(self):
        # rows sum to 1, yet without the check the locality would read 2.0
        p = np.array([[[1.0, 0, 0], [2, -1, 0], [3, -1, -1]]])
        with pytest.raises(PruneError, match=r"outside \[0, 1\]"):
            attention_locality(stats_of(p))


@settings(max_examples=150, deadline=None)
@given(t=st.integers(1, 80), heads=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       sparse=st.booleans(), f64=st.booleans())
def test_locality_equals_row_loop(t, heads, seed, sparse, f64):
    """The locality of a map's statistics equals the per-row loop over the
    map bit for bit; ``sparse`` zeroes most entries, so many rows are near
    one-hot."""
    rng = np.random.default_rng(seed)
    w = rng.exponential(size=(heads, t, t)) * np.tri(t)
    if sparse:
        w *= rng.random((heads, t, t)) < 0.2
        w[:, np.arange(t), np.arange(t)] += 1e-3
    p = w / w.sum(axis=2, keepdims=True)
    p = p if f64 else p.astype(np.float32)
    assert attention_locality(stats_of(p)) == ref_attention_locality(p)


class TestEmpiricalRegressions:
    @pytest.mark.parametrize("seed", range(20))
    def test_quantized_locality_exceeds_fp(self, seed):
        lf, lq = locality_trial(seed)
        assert lq >= lf

    def test_prune_benefit_on_frozen_seed(self):
        from helpers import PRUNE_SEEDS

        r = prune_benefit_trial(PRUNE_SEEDS[0])
        assert 0 in r["kept_global"]
        assert r["div_prune"] <= r["div_noprune"]


def test_cosine_similarity_edges():
    assert cosine_similarity(np.zeros(3), np.zeros(3)) == 1.0
    assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([1, 2], [2, 4]) == pytest.approx(1.0)
    with pytest.raises(PipelineError, match="must be the same size, got 3 and 4"):
        cosine_similarity(np.ones(3), np.ones(4))
