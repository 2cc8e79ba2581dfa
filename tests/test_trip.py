import numpy as np
import pytest
from helpers import naive_trip_argmin, ref_fit_trip
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.quantizers import QuantError, fit_affine, quantize_affine
from agq.trip import (
    dequantize_trip,
    fit_trip,
    fold_trip_into_weights,
    quantize_trip,
)


def test_cap_zero_collapses_to_affine():
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 5, (16, 8)).astype(np.float32)
    p = fit_trip(x, 8, cap=0)
    pa = fit_affine(x, 8)
    assert p.base.scale == pa.scale
    assert p.base.zero_point == pa.zero_point
    assert np.all(p.alphas == 0)
    np.testing.assert_array_equal(
        quantize_trip(x, p).codes, quantize_affine(x, pa).codes
    )


def test_outlier_channel_gets_bigger_exponent():
    rng = np.random.default_rng(1)
    x = np.empty((64, 2), dtype=np.float32)
    x[:, 0] = rng.uniform(-1, 1, 64)
    x[:, 1] = rng.uniform(-8, 8, 64)
    p = fit_trip(x, 8, cap=3)
    assert p.alphas[0] < p.alphas[1]
    oracle_alphas, _, _, _ = naive_trip_argmin(x, 8, 3)
    np.testing.assert_array_equal(p.alphas, oracle_alphas)


def test_single_channel_matches_oracle():
    rng = np.random.default_rng(2)
    x = rng.uniform(-4, 4, (32, 1)).astype(np.float32)
    p = fit_trip(x, 8, cap=4)
    oracle_alphas, _, _, _ = naive_trip_argmin(x, 8, 4)
    np.testing.assert_array_equal(p.alphas, oracle_alphas)


@pytest.mark.parametrize("seed", range(20))
def test_argmin_matches_bruteforce(seed):
    rng = np.random.default_rng(seed + 10)
    tokens = int(rng.integers(2, 129))
    channels = int(rng.integers(1, 33))
    cap = int(rng.integers(0, 5))
    x = rng.standard_normal((tokens, channels)).astype(np.float32)
    # inject outliers into a random subset of channels
    for c in rng.choice(channels, size=max(1, channels // 4), replace=False):
        x[:, c] *= float(rng.uniform(4, 16))
    p = fit_trip(x, 8, cap)
    oracle_alphas, errors, _, _ = naive_trip_argmin(x, 8, cap)
    np.testing.assert_array_equal(p.alphas, oracle_alphas)
    for c, errs in enumerate(errors):
        assert errs[p.alphas[c]] <= min(errs) + 1e-12


def test_quantize_collapse_and_saturation():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 4, (8, 3)).astype(np.float32)
    p = fit_trip(x, 8, cap=0)
    pa = fit_affine(x, 8)
    np.testing.assert_array_equal(quantize_trip(x, p).codes, quantize_affine(x, pa).codes)
    big = np.full((1, 3), 1e6, dtype=np.float32)
    assert np.all(quantize_trip(big, p).codes == 255)
    assert np.all(quantize_trip(-big, p).codes == 0)


def test_roundtrip_fixed_point():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 6, (32, 4)).astype(np.float32)
    p = fit_trip(x, 8, cap=2)
    q = quantize_trip(x, p)
    again = quantize_trip(dequantize_trip(q), p)
    np.testing.assert_array_equal(q.codes, again.codes)


def test_dequantize_examples():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (8, 2)).astype(np.float32)
    p = fit_trip(x, 8, cap=1)
    q = quantize_trip(np.zeros_like(x), p)
    # codes at the zero point dequantize to zero
    zero_codes = np.full_like(q.codes, p.base.zero_point)
    q0 = type(q)(codes=zero_codes, params=p, kind="trip")
    np.testing.assert_array_equal(dequantize_trip(q0), 0.0)
    # per-channel half-step bound
    recon = dequantize_trip(quantize_trip(x, p))
    steps = p.steps
    assert np.all(np.abs(x - recon) <= steps[None, :] / 2 + 1e-6)


def test_dequantize_direct_values():
    from agq.quantizers import AffineParams, CodeRange
    from agq.trip import TripParams
    from agq.quantizers import QuantTensor

    base = AffineParams(range=CodeRange(8, signed=False), scale=0.1, zero_point=0)
    p = TripParams(base=base, alphas=np.array([0, 1]), cap=1)
    q = QuantTensor(codes=np.array([[1, 1]]), params=p, kind="trip")
    np.testing.assert_allclose(dequantize_trip(q), [[0.1, 0.2]], rtol=1e-7)


def test_dominance_over_plain_quantizer():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((64, 16)).astype(np.float32)
    x[:, 3] *= 20.0
    cap = 3
    p = fit_trip(x, 8, cap)
    _, errors, _, _ = naive_trip_argmin(x, 8, cap)
    for c, errs in enumerate(errors):
        assert errs[p.alphas[c]] <= errs[cap] + 1e-12


class TestFolding:
    def test_identity_when_no_refinement(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (8, 4)).astype(np.float32)
        p = fit_trip(x, 8, cap=0)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        np.testing.assert_array_equal(fold_trip_into_weights(w, p), w)

    def test_single_channel_doubling(self):
        from agq.quantizers import AffineParams, CodeRange
        from agq.trip import TripParams

        base = AffineParams(range=CodeRange(8, signed=False), scale=0.5, zero_point=0)
        p = TripParams(base=base, alphas=np.array([1]), cap=1)
        w = np.array([[1.0, -2.0, 3.0]], dtype=np.float32)
        np.testing.assert_array_equal(fold_trip_into_weights(w, p), 2 * w)

    @pytest.mark.parametrize("seed", range(10))
    def test_dual_path_equivalence(self, seed):
        rng = np.random.default_rng(seed + 20)
        x = rng.standard_normal((8, 4)).astype(np.float32)
        x[:, 0] *= 10.0
        p = fit_trip(x, 8, cap=3)
        q = quantize_trip(x, p)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        folded = fold_trip_into_weights(w, p)
        via_fold = (
            (q.codes.astype(np.float64) - p.base.zero_point) @ folded.astype(np.float64)
        ) * p.base.scale
        via_dequant = dequantize_trip(q).astype(np.float64) @ w.astype(np.float64)
        denom = max(np.abs(via_dequant).max(), 1e-12)
        assert np.abs(via_fold - via_dequant).max() / denom <= 1e-4

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (4, 4)).astype(np.float32)
        p = fit_trip(x, 8, cap=1)
        with pytest.raises(QuantError):
            fold_trip_into_weights(np.zeros((5, 2), dtype=np.float32), p)
        with pytest.raises(QuantError):
            quantize_trip(np.zeros((3, 5), dtype=np.float32), p)


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.integers(1, 40), st.integers(1, 40)), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30, 3e38]), st.integers(2, 8),
       st.integers(0, 6), st.booleans())
def test_fit_equals_norm_loop_oracle(shape, seed, amp, bits, cap, on_grid):
    """The whole TripParams (scale, zero point, exponents) equals the
    np.linalg.norm formulation bit for bit, outlier channels and exact ties
    (values on a coarse grid) included."""
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal(shape) + rng.uniform(-2, 2), -4, 4) / 4
    if on_grid:
        x = np.rint(x * 4) / 4
    gains = 2.0 ** -rng.integers(0, 8, shape[1])  # per-channel magnitudes, <= 1
    x = (x * gains * amp).astype(np.float32)
    p, ref = fit_trip(x, bits, cap), ref_fit_trip(x, bits, cap)
    assert (p.cap, p.base) == (ref.cap, ref.base)
    assert p.alphas.dtype == ref.alphas.dtype
    np.testing.assert_array_equal(p.alphas, ref.alphas)
