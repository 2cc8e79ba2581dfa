import numpy as np
import pytest
from helpers import ref_dequantize_log2, ref_quantize_log2
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.quantizers import (
    AffineParams,
    CodeRange,
    KindMismatchError,
    Log2Params,
    QuantError,
    dequantize_affine,
    dequantize_log2,
    dequantize_weight_symmetric,
    fit_affine,
    fit_weight_symmetric,
    quantize_affine,
    quantize_log2,
    quantize_weight_symmetric,
)


def t2d(values):
    return np.atleast_2d(np.asarray(values, dtype=np.float32))


class TestFitAffine:
    def test_hand_example(self):
        p = fit_affine(t2d([-1.0, 0.5, 2.0]), 8)
        assert p.scale == pytest.approx(3 / 255, rel=1e-6)
        assert p.zero_point == 85

    def test_constant_tensor(self):
        p = fit_affine(t2d([4.2, 4.2, 4.2]), 8)
        assert p.scale == pytest.approx(1e-8 / 255)
        # positive constant: zero point clips to 0, codes saturate high
        q = quantize_affine(t2d([4.2]), p)
        assert p.zero_point == 0
        assert q.codes[0, 0] == 255

    def test_constant_zero_tensor(self):
        p = fit_affine(np.zeros((2, 2), dtype=np.float32), 8)
        recon = dequantize_affine(quantize_affine(np.zeros((2, 2), dtype=np.float32), p))
        np.testing.assert_array_equal(recon, 0.0)

    def test_unit_range_4bit(self):
        p = fit_affine(t2d([0.0, 1.0]), 4)
        assert p.scale == pytest.approx(1 / 15)
        assert p.zero_point == 0

    def test_empty_tensor(self):
        with pytest.raises(QuantError):
            fit_affine(np.empty((0, 3), dtype=np.float32), 8)


class TestQuantizeAffine:
    def test_round_half_even_tie(self):
        # 0.5 / (1/15) = 7.5, which rounds to the even code 8
        p = AffineParams(range=CodeRange(4, signed=False), scale=1 / 15, zero_point=0)
        q = quantize_affine(t2d([0.5]), p)
        assert q.codes[0, 0] == 8

    def test_min_maps_to_zero_when_zp_unclipped(self):
        x = t2d([-1.0, 0.5, 2.0])
        p = fit_affine(x, 8)
        q = quantize_affine(x, p)
        assert q.codes[0, 0] == 0

    def test_saturation(self):
        p = fit_affine(t2d([0.0, 1.0]), 4)
        q = quantize_affine(t2d([100.0]), p)
        assert q.codes[0, 0] == 15

    def test_scalar_reference(self):
        # 25 scattered values against a python-scalar round-half-even model
        rng = np.random.default_rng(7)
        x = t2d(rng.uniform(-2, 2, 25))
        p = fit_affine(x, 8)
        q = quantize_affine(x, p)
        for val, code in zip(x.ravel(), q.codes.ravel()):
            expected = min(max(round(float(val) / p.scale) + p.zero_point, 0), 255)
            assert code == expected


class TestDequantizeAffine:
    def test_zero_point_identity(self):
        p = AffineParams(range=CodeRange(8, signed=False), scale=0.1, zero_point=100)
        q = quantize_affine(t2d([0.0]), p)
        assert dequantize_affine(q)[0, 0] == 0.0

    def test_half_step_bound(self):
        rng = np.random.default_rng(3)
        x = t2d(rng.uniform(-5, 5, 1000))
        p = fit_affine(x, 8)
        recon = dequantize_affine(quantize_affine(x, p))
        assert np.max(np.abs(x - recon)) <= p.scale / 2 + 1e-6

    def test_from_fit_example(self):
        p = AffineParams(range=CodeRange(8, signed=False), scale=3 / 255, zero_point=85)
        q = quantize_affine(t2d([2.0]), p)
        assert q.codes[0, 0] == 255
        assert dequantize_affine(q)[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_kind_mismatch(self):
        q = quantize_log2(t2d([1.0, 0.5]), 4)
        with pytest.raises(KindMismatchError):
            dequantize_affine(q)


class TestLog2:
    def test_hand_example(self):
        q = quantize_log2(t2d([0.8, -0.4, 0.1]), 4)
        np.testing.assert_array_equal(q.codes, [[0, 1, 3]])
        np.testing.assert_array_equal(q.signs, [[1, -1, 1]])
        np.testing.assert_allclose(dequantize_log2(q), [[0.8, -0.4, 0.1]], rtol=1e-6)

    def test_exact_zero(self):
        q = quantize_log2(t2d([1.0, 0.0]), 4)
        out = dequantize_log2(q)
        assert out[0, 1] == 0.0

    def test_max_elements_code_zero(self):
        q = quantize_log2(t2d([1.0, 1.0]), 4)
        np.testing.assert_array_equal(q.codes, [[0, 0]])

    def test_all_zero_tensor(self):
        q = quantize_log2(np.zeros((2, 2), dtype=np.float32), 4)
        assert q.params.max_abs == 0.0
        np.testing.assert_array_equal(q.codes, 0)
        np.testing.assert_array_equal(dequantize_log2(q), 0.0)

    def test_identity_at_max(self):
        q = quantize_log2(t2d([0.8, 0.2]), 4)
        assert dequantize_log2(q)[0, 0] == pytest.approx(0.8, rel=1e-6)

    def test_deep_code(self):
        q = quantize_log2(t2d([1.0, 2.0**-7]), 4)
        assert q.codes[0, 1] == 7
        assert dequantize_log2(q)[0, 1] == pytest.approx(2.0**-7)

    def test_dyadic_exactness(self):
        bits = 4
        max_code = 2 ** (bits - 1) - 1
        vals = [0.75 * 2.0**-k for k in range(max_code + 1)]
        q = quantize_log2(t2d(vals), bits)
        np.testing.assert_array_equal(q.codes, [list(range(max_code + 1))])
        np.testing.assert_array_equal(dequantize_log2(q), t2d(vals))

    def test_kind_mismatch(self):
        q = quantize_affine(t2d([1.0]), fit_affine(t2d([0.0, 1.0]), 8))
        with pytest.raises(KindMismatchError):
            dequantize_log2(q)

    @pytest.mark.parametrize("bits", [0, 1, 9, 16, -1])
    def test_bits_outside_2_to_8_rejected(self, bits):
        with pytest.raises(QuantError, match="bits must be in 2..8"):
            Log2Params(bits=bits, max_abs=1.0)
        with pytest.raises(QuantError, match="bits must be in 2..8"):
            quantize_log2(t2d([1.0, 0.5]), bits)


# Magnitudes from the smallest float32 subnormal to near float32 max.
log2_amplitudes = st.sampled_from([1.4e-45, 1e-40, 1e-30, 1e-3, 1.0, 1e3, 3e38])


def _rounding_boundaries(max_abs, bits):
    """The float32 values nearest max_abs * 2^-(k + 1/2), where the code
    rounds from k to k + 1, and their neighbours on both sides."""
    mid = np.float32(max_abs) * 2.0 ** -(np.arange(2 ** (bits - 1)) + 0.5)
    mid = mid.astype(np.float32)
    return np.concatenate([np.nextafter(mid, np.float32(0)), mid,
                           np.nextafter(mid, np.float32(np.inf))])


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.integers(1, 9), st.integers(1, 300)), st.integers(0, 2**32 - 1),
       log2_amplitudes, st.integers(2, 8), st.sampled_from([0.0, 0.3, 1.0]),
       st.booleans())
def test_log2_equals_out_of_place_oracle(shape, seed, amp, bits, zero_frac, boundaries):
    """Codes, signs, max_abs and dequantized values equal the out-of-place
    formulation bit for bit: negatives, +0.0 and -0.0, subnormals, all zeros,
    and values at the rounding boundaries between two codes."""
    rng = np.random.default_rng(seed)
    x = (np.clip(rng.standard_normal(shape), -4, 4) * (amp / 4)).astype(np.float32)
    if boundaries:
        x.flat[0] = amp
        b = _rounding_boundaries(amp, bits)[: x.size - 1]
        x.flat[1 : 1 + b.size] = b * rng.choice([-1, 1], b.size)
    zeros = rng.random(shape) < zero_frac
    x[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    q, ref = quantize_log2(x, bits), ref_quantize_log2(x, bits)
    assert q.params == ref.params
    assert q.codes.dtype == ref.codes.dtype and q.codes.tobytes() == ref.codes.tobytes()
    assert q.signs.dtype == ref.signs.dtype and q.signs.tobytes() == ref.signs.tobytes()
    assert dequantize_log2(q).tobytes() == ref_dequantize_log2(ref).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_affine_codes_in_range(seed, bits):
    rng = np.random.default_rng(seed)
    x = t2d(rng.uniform(-100, 100, (4, 5)))
    p = fit_affine(x, bits)
    q = quantize_affine(x, p)
    assert q.codes.min() >= 0
    assert q.codes.max() <= 2**bits - 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_log2_codes_in_range_and_monotone(seed, bits):
    rng = np.random.default_rng(seed)
    x = t2d(rng.standard_normal((3, 6)))
    q = quantize_log2(x, bits)
    hi = 2 ** (bits - 1) - 1
    assert q.codes.min() >= 0 and q.codes.max() <= hi
    mags = np.abs(x).ravel()
    codes = q.codes.ravel()
    for i in range(len(mags)):
        for j in range(len(mags)):
            if mags[i] >= mags[j] and mags[j] > 0:
                assert codes[i] <= codes[j]


def test_weight_symmetric_roundtrip():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((8, 6)).astype(np.float32)
    p = fit_weight_symmetric(w, 4)
    q = quantize_weight_symmetric(w, p)
    assert q.codes.min() >= -8 and q.codes.max() <= 7
    recon = dequantize_weight_symmetric(q)
    # per-channel half-step bound
    assert np.all(np.abs(w - recon) <= p.scales[None, :] / 2 + 1e-6)
