import numpy as np
import pytest
from helpers import (
    locality_trial,
    naive_block_forward,
    prune_benefit_trial,
    ref_softmax_causal,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import agq
from agq.pipeline import (
    Block,
    BlockConfig,
    PipelineError,
    SiteConfig,
    _softmax_causal,
    analyze_outliers,
    attention_locality,
    cosine_similarity,
    forward_block,
    forward_fp,
    forward_quant,
    forward_stack,
    init_block,
    init_stack,
    make_outlier_input,
    preset_sites,
)
from agq.pruning import AttentionMap


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

    def test_softmax_site_must_be_log2(self):
        with pytest.raises(PipelineError):
            BlockConfig(sites={
                "attn_v": SiteConfig(act_bits=4, act_quantizer="affine")
            })

    def test_presets(self):
        assert preset_sites("fp32") == {}
        w4a8 = preset_sites("w4a8")
        assert set(w4a8) == set(agq.SITES)
        assert w4a8["attn_v"].act_quantizer == "log2"
        w4a4 = preset_sites("w4a4")
        assert w4a4["projection"].act_bits == 4
        assert w4a4["fc1"].act_bits == 4
        assert w4a4["fc2"].act_bits == 8
        with pytest.raises(PipelineError):
            preset_sites("w8a8")

    @pytest.mark.parametrize("cap", [-1, 200])
    def test_trip_cap_outside_0_to_6_rejected(self, cap):
        with pytest.raises(PipelineError, match="trip_cap must be in 0..6"):
            SiteConfig(act_bits=8, act_quantizer="trip", trip_cap=cap)
        with pytest.raises(PipelineError, match="trip_cap must be in 0..6"):
            preset_sites("w4a8", trip_cap=cap)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-30, 1e-3, 1.0, 30.0, 1e3, 1e30, 3e38]), st.booleans())
def test_softmax_equals_minus_inf_oracle(t, seed, amp, ties):
    """The masked in-place softmax equals the -inf/triu_indices formulation
    bit for bit; ``ties`` draws scores from {-amp, 0, amp}, so most rows
    have several equal maxima."""
    rng = np.random.default_rng(seed)
    if ties:
        scores = rng.integers(-1, 2, (t, t)) * np.float32(amp)
    else:
        scores = np.clip(rng.standard_normal((t, t)), -4, 4) * (amp / 4)
    scores = scores.astype(np.float32)
    probs = _softmax_causal(scores, np.tri(t, dtype=bool))
    assert probs.dtype == np.float32
    assert probs.tobytes() == ref_softmax_causal(scores).tobytes()


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

    def test_stack_seeds_differ(self):
        blocks = init_stack(BlockConfig(seed=0), 3)
        assert not np.array_equal(blocks[0].weights["linear_transform"],
                                  blocks[1].weights["linear_transform"])


class TestForwardFP:
    def test_single_token_map(self):
        b = init_block(BlockConfig(seed=0))
        x = np.random.default_rng(0).standard_normal((1, 64)).astype(np.float32)
        _, maps = forward_fp(b, x)
        np.testing.assert_array_equal(maps[0].probs, np.ones((4, 1, 1)))

    def test_rows_normalized(self):
        b = init_block(BlockConfig(seed=1))
        x = np.random.default_rng(1).standard_normal((9, 64)).astype(np.float32)
        _, maps = forward_fp(b, x)
        np.testing.assert_allclose(maps[0].probs.sum(axis=2), 1.0, atol=1e-5)

    def test_matches_naive_reference(self):
        b = init_block(BlockConfig(seed=2))
        x = np.random.default_rng(2).standard_normal((4, 64)).astype(np.float32)
        out, _ = forward_fp(b, x)
        expect = naive_block_forward(b.weights, x, n_heads=4)
        np.testing.assert_allclose(out, expect, atol=1e-5)

    def test_causality_by_perturbation(self):
        b = init_block(BlockConfig(seed=3))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 64)).astype(np.float32)
        out, _ = forward_fp(b, x)
        x2 = x.copy()
        x2[5:] += rng.standard_normal((3, 64)).astype(np.float32)
        out2, _ = forward_fp(b, x2)
        np.testing.assert_array_equal(out[:5], out2[:5])

    def test_shape_mismatch(self):
        b = init_block(BlockConfig(seed=0))
        with pytest.raises(PipelineError):
            forward_fp(b, np.zeros((4, 32), dtype=np.float32))


class TestForwardQuant:
    def test_all_fp_bit_identical(self):
        b = init_block(BlockConfig(seed=4))
        x = np.random.default_rng(4).standard_normal((12, 64)).astype(np.float32)
        fp_out, _ = forward_fp(b, x)
        q_out, diags = forward_quant(b, x, BlockConfig(seed=4, sites={}))
        np.testing.assert_array_equal(q_out, fp_out)
        assert diags["cosine"] == 1.0
        assert diags["sites"] == []

    def test_w4a8_cosine_on_fixed_seed(self):
        # threshold fixed after an oracle scan over seeds; seed 1 measured 0.985
        cfg = BlockConfig(sites=preset_sites("w4a8"), seed=1)
        b = init_block(cfg)
        x = np.random.default_rng(101).standard_normal((16, 64)).astype(np.float32)
        _, diags = forward_quant(b, x)
        assert diags["cosine"] >= 0.98

    @pytest.mark.parametrize("seed", range(20))
    def test_w4a4_divergence_at_least_w4a8(self, seed):
        cfg8 = BlockConfig(sites=preset_sites("w4a8"), seed=seed)
        cfg4 = BlockConfig(sites=preset_sites("w4a4"), seed=seed)
        b = init_block(cfg8)
        x = np.random.default_rng(seed + 100).standard_normal((16, 64)).astype(np.float32)
        _, d8 = forward_quant(b, x, cfg8)
        _, d4 = forward_quant(b, x, cfg4)
        assert 1.0 - d4["cosine"] >= 1.0 - d8["cosine"]

    @pytest.mark.parametrize("seed", range(10))
    def test_trip_sites_mse_at_most_affine(self, seed):
        b = init_block(BlockConfig(seed=seed))
        x = make_outlier_input(16, 64, outlier_channels=(3, 4), outlier_tokens=(5, 9),
                               seed=seed)
        cfg_t = BlockConfig(sites=preset_sites("w4a8", act_quantizer="trip"), seed=seed)
        cfg_a = BlockConfig(sites=preset_sites("w4a8", act_quantizer="affine"), seed=seed)
        _, dt = forward_quant(b, x, cfg_t)
        _, da = forward_quant(b, x, cfg_a)
        # the first diagnostic entry is the shared linear-transform input,
        # identical activations under both configs
        assert dt["sites"][0]["site"] == da["sites"][0]["site"] == "linear_transform"
        assert dt["sites"][0]["mse"] <= da["sites"][0]["mse"] + 1e-12

    def test_diagnostics_fields(self):
        cfg = BlockConfig(sites=preset_sites("w4a8"), seed=0)
        b = init_block(cfg)
        x = np.random.default_rng(0).standard_normal((8, 64)).astype(np.float32)
        _, diags = forward_quant(b, x)
        assert {"sites", "cosine", "locality_fp", "locality_q"} <= set(diags)
        for entry in diags["sites"]:
            assert {"site", "act_bits", "mse"} <= set(entry)
            assert entry["mse"] >= 0


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
        _, info = forward_stack(blocks, x)
        sites = [r["site"] for r in info["sites"]]
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


class TestAttentionLocality:
    def test_one_hot_previous(self):
        t = 6
        p = np.zeros((1, t, t))
        p[0, 0, 0] = 1.0
        for i in range(1, t):
            p[0, i, i - 1] = 1.0
        assert attention_locality(AttentionMap(probs=p)) == pytest.approx(1.0)

    def test_stripe_extreme(self):
        t = 8
        p = np.zeros((1, t, t))
        p[0, :, 0] = 1.0
        # only i = 1, 2 have column 0 inside the window
        assert attention_locality(AttentionMap(probs=p)) == pytest.approx(2 / (t - 1))

    def test_uniform_causal_closed_form(self):
        t = 8
        p = np.tril(np.ones((1, t, t)))
        p /= p.sum(axis=2, keepdims=True)
        expect = np.mean([min(2, i) / (i + 1) for i in range(1, t)])
        assert attention_locality(AttentionMap(probs=p)) == pytest.approx(expect)

    def test_single_token(self):
        assert attention_locality(AttentionMap(probs=np.ones((2, 1, 1)))) == 1.0


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
