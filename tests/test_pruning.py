import numpy as np
import pytest
from hypothesis import given, settings
from helpers import stats_of
from hypothesis import strategies as st

from agq.pruning import (
    AttentionStats,
    PruneError,
    PruneSchedule,
    default_start_layer,
    make_schedule,
    prune_step,
    score_tokens,
    sparsity,
    validate_map,
)


def uniform_causal(t, heads=1):
    p = np.tril(np.ones((t, t)))
    p /= p.sum(axis=1, keepdims=True)
    return stats_of(np.broadcast_to(p, (heads, t, t)))


class TestScoreTokens:
    def test_uniform_causal(self):
        scores = score_tokens(uniform_causal(4))
        np.testing.assert_allclose(scores, [1, 1 / 2, 1 / 3, 1 / 4])

    def test_one_hot_column_zero(self):
        t = 5
        p = np.zeros((1, t, t))
        p[:, :, 0] = 1.0
        scores = score_tokens(stats_of(p))
        np.testing.assert_array_equal(scores, 1.0)

    def test_direct_readoff(self):
        p = np.array(
            [[[1.0, 0.0, 0.0], [0.6, 0.4, 0.0], [0.2, 0.3, 0.5]]]
        )
        scores = score_tokens(stats_of(p))
        np.testing.assert_allclose(scores, [1.0, 0.6, 0.2])

    def test_start_score_is_one(self):
        scores = score_tokens(uniform_causal(7, heads=3))
        assert scores[0] == 1.0

    def test_head_permutation_covariant(self):
        rng = np.random.default_rng(0)
        t, h = 6, 4
        p = np.tril(rng.uniform(0.1, 1.0, (h, t, t)))
        p /= p.sum(axis=2, keepdims=True)
        m = stats_of(p)
        perm = stats_of(p[[2, 0, 3, 1]])
        np.testing.assert_allclose(score_tokens(m), score_tokens(perm))

    def test_rejects_unnormalized(self):
        """Each of the three statistics is checked: an entry above 1 or NaN
        is refused, as neither is a probability."""
        for field in ("start", "prev1", "prev2"):
            for bad in (1.5, np.nan):
                s = uniform_causal(3)
                getattr(s, field)[0, 2] = bad
                with pytest.raises(PruneError, match=r"outside \[0, 1\]"):
                    validate_map(s)
        validate_map(stats_of(np.ones((1, 1, 1))))  # 1 itself is a probability

    def test_rejects_negative_probabilities(self):
        # causal rows that sum to 1 through negative entries
        neg = stats_of(np.array([[[1.0, 0, 0], [2, -1, 0], [3, -1, -1]]]))
        for check in (validate_map, score_tokens):
            with pytest.raises(PruneError, match=r"outside \[0, 1\]"):
                check(neg)

    def test_rejects_mismatched_shapes(self):
        s = uniform_causal(3)
        with pytest.raises(PruneError, match="three"):
            AttentionStats(s.start, s.prev1[:, :2], s.prev2)
        with pytest.raises(PruneError, match="three"):
            AttentionStats(s.start[0], s.prev1[0], s.prev2[0])


class TestMakeSchedule:
    def test_gamma_example(self):
        s = make_schedule(8, 2, 0.3, 4)
        assert s.per_layer_ratio == pytest.approx(1 - 0.7**0.25, abs=1e-12)
        assert s.per_layer_ratio == pytest.approx(0.08531, abs=1e-5)

    def test_beta_zero(self):
        assert make_schedule(4, 0, 0.0, 2).per_layer_ratio == 0.0

    def test_gamma_derived_from_beta_and_m(self):
        """gamma is the one float expression of beta and m, not a stored copy."""
        for beta in (0.0, 0.3, 0.5, 0.99):
            for layers in ((1,), (1, 2), (0, 3, 5, 7)):
                s = PruneSchedule(prune_layers=layers, final_ratio=beta)
                assert s.per_layer_ratio == 1.0 - (1.0 - beta) ** (1.0 / len(layers))

    def test_single_stage_collapse(self):
        assert make_schedule(4, 1, 0.25, 1).per_layer_ratio == pytest.approx(0.25)

    def test_layers_spaced_from_start(self):
        s = make_schedule(8, 2, 0.3, 4)
        assert s.prune_layers[0] >= 2
        assert s.prune_layers[-1] == 7
        assert len(s.prune_layers) == 4
        assert list(s.prune_layers) == sorted(set(s.prune_layers))

    def test_schedule_algebra_grid(self):
        for beta in np.arange(0.05, 0.501, 0.05):
            for m in range(1, 9):
                g = make_schedule(10, 0, float(beta), m).per_layer_ratio
                assert abs((1 - g) ** m - (1 - beta)) <= 1e-9

    def test_errors(self):
        """make_schedule and a directly built PruneSchedule refuse the same
        final ratios and an empty layer list."""
        for layers, beta in (((), 0.5), ((1,), 1.0), ((1,), -0.1), ((1,), np.nan)):
            with pytest.raises(PruneError):
                PruneSchedule(prune_layers=layers, final_ratio=beta)
        with pytest.raises(PruneError):
            make_schedule(4, 0, 1.0, 1)
        with pytest.raises(PruneError):
            make_schedule(4, 0, 0.3, -1)
        with pytest.raises(PruneError):
            make_schedule(4, 0, 0.3, 0)
        with pytest.raises(PruneError):
            make_schedule(4, 3, 0.3, 2)
        for args in ((4, -1, 0.5, 2), (4.5, 1, 0.5, 2), (4, 1.0, 0.5, 2), (4, 1, 0.5, 2.0),
                     (4, 1, 0.5, True), (True, 0, 0.5, 1), (4, False, 0.5, 1)):
            with pytest.raises(PruneError):
                make_schedule(*args)

    def test_every_valid_schedule_has_m_distinct_layers(self):
        """Exhaustively for n <= 64: m distinct increasing layers from
        start_layer to the last, as the spacing (n - 1 - start) / (m - 1)
        is at least 1."""
        for n in range(1, 65):
            for start in range(n):
                for m in range(1, n - start + 1):
                    layers = make_schedule(n, start, 0.5, m).prune_layers
                    assert len(layers) == m
                    assert all(type(layer) is int for layer in layers)
                    assert layers[0] == start and layers[-1] == (n - 1 if m > 1 else start)
                    assert all(a < b for a, b in zip(layers, layers[1:]))

    def test_default_start_layer(self):
        assert default_start_layer(4) == 1
        assert default_start_layer(12) == 3
        assert default_start_layer(2) == 1
        assert default_start_layer(1) == 1
        for bad in ("4", 4.0, True, 0, -3):
            with pytest.raises(PruneError, match="^n must be"):
                default_start_layer(bad)


class TestPruneStep:
    def test_gamma_zero_identity(self):
        x = np.arange(10, dtype=np.float32).reshape(5, 2)
        out, kept = prune_step(x, np.ones(5), 0.0)
        np.testing.assert_array_equal(out, x)
        assert kept == [0, 1, 2, 3, 4]

    def test_drop_two_lowest(self):
        x = np.arange(10, dtype=np.float32).reshape(5, 2)
        scores = np.array([1.0, 0.9, 0.1, 0.5, 0.3])
        out, kept = prune_step(x, scores, 0.5)
        assert kept == [0, 1, 3]
        np.testing.assert_array_equal(out, x[[0, 1, 3]])

    def test_tie_breaks_drop_later_positions(self):
        x = np.zeros((5, 1), dtype=np.float32)
        scores = np.array([1.0, 0.2, 0.2, 0.2, 0.2])
        _, kept = prune_step(x, scores, 0.5)  # drop 2, latest ties first
        assert kept == [0, 1, 2]

    def test_start_token_always_kept(self):
        x = np.zeros((6, 1), dtype=np.float32)
        scores = np.array([1.0, 0.9, 0.9, 0.9, 0.9, 0.9])
        _, kept = prune_step(x, scores, 0.99)
        assert 0 in kept

    def test_length_mismatch(self):
        with pytest.raises(PruneError):
            prune_step(np.zeros((4, 2), dtype=np.float32), np.ones(3), 0.5)

    @pytest.mark.parametrize("scores,gamma", [
        (np.ones(5), float("nan")),
        (np.ones(5), float("inf")),
        (np.ones(5), 2.0),  # would drop every token but the start
        (np.ones(5), 1.0),
        (np.ones(5), -0.5),  # would keep every token silently
        ([0, np.nan, 1, np.nan, 0.5], 0.5),  # NaN scores order arbitrarily
        ([0, 1, np.inf, 1, 0.5], 0.5),
        (np.ones((5, 2)), 0.5),  # one score per token, not a row of them
        (np.ones((5, 1)), 0.5),
    ])
    def test_unusable_ratio_or_scores(self, scores, gamma):
        with pytest.raises(PruneError):
            prune_step(np.zeros((5, 2), dtype=np.float32), scores, gamma)

    def test_survivors_keep_order(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 3)).astype(np.float32)
        scores = np.concatenate([[1.0], rng.uniform(0, 1, 11)])
        _, kept = prune_step(x, scores, 0.4)
        assert kept == sorted(kept)


class TestCascade:
    def test_nested_kept_sets(self):
        rng = np.random.default_rng(2)
        t = 32
        x = rng.standard_normal((t, 4)).astype(np.float32)
        scores = np.concatenate([[1.0], rng.uniform(0, 1, t - 1)])
        gamma = make_schedule(6, 0, 0.4, 3).per_layer_ratio
        kept_global = list(range(t))
        prev = set(kept_global)
        for _ in range(3):
            x, kept_local = prune_step(x, scores[kept_global], gamma)
            kept_global = [kept_global[i] for i in kept_local]
            assert set(kept_global) <= prev
            assert 0 in kept_global
            prev = set(kept_global)

    def test_cumulative_survivors_match_beta(self):
        # survivor count after m floor-based steps stays within one token
        # per step of the exact (1 - beta) fraction
        beta, m, t = 0.3, 4, 101
        gamma = make_schedule(m, 0, beta, m).per_layer_ratio
        remaining = t
        for _ in range(m):
            remaining -= int(np.floor(gamma * (remaining - 1)))
        exact = t * (1 - beta)
        assert abs(remaining - exact) <= m + 1


class TestSparsity:
    def test_no_pruning(self):
        assert sparsity([1.0, 1.0, 1.0], 3) == 0.0

    def test_direct_example(self):
        assert sparsity([1.0, 0.8], 2) == pytest.approx(0.1)

    def test_errors(self):
        with pytest.raises(PruneError):
            sparsity([], 0)
        with pytest.raises(PruneError):
            sparsity([0.0, 1.0], 2)
        with pytest.raises(PruneError):
            sparsity([1.5], 1)
        with pytest.raises(PruneError):
            sparsity([0.5, np.nan], 2)
        for n in (0, 1, 3):  # one fraction per layer
            with pytest.raises(PruneError):
                sparsity([0.5, 1.0], n)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.0, 0.95),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.integers(3, 40),
)
def test_prune_step_properties(gamma, heads, seed, t):
    rng = np.random.default_rng(seed)
    p = np.tril(rng.uniform(0.01, 1.0, (heads, t, t)))
    p /= p.sum(axis=2, keepdims=True)
    scores = score_tokens(stats_of(p))
    assert scores[0] == pytest.approx(1.0)
    assert scores.min() >= 0 and scores.max() <= 1
    x = rng.standard_normal((t, 3)).astype(np.float32)
    out, kept = prune_step(x, scores, gamma)
    assert 0 in kept
    assert len(kept) == t - int(np.floor(gamma * (t - 1)))
    assert out.shape == (len(kept), 3)
