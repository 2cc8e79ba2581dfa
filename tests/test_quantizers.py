import numpy as np
import pytest
from helpers import head, ref_dequantize_log2, ref_quantize_log2
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.quantizers import (
    SCALE_EPS,
    AffineParams,
    CodeRange,
    Log2Params,
    QuantError,
    QuantTensor,
    _codes,
    _fit_range,
    _quantize_log2,
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


amplitudes = st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30, 3e38])


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.tuples(st.integers(1, 20), st.integers(1, 20)),
       st.integers(0, 2**32 - 1), amplitudes, st.integers(2, 8), st.integers(0, 6),
       st.booleans())
def test_fit_range_equals_per_head_scalar_fit(heads, shape, seed, amp, bits, cap, constant):
    """Each head's scale and zero point equal the scalar min/max fit at step
    ``r / (N * 2^cap)``, with the zero point of the cap-0 step, and at cap 0
    they are ``fit_affine`` of that head alone; one head may be constant."""
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal((heads, shape[0], shape[1])) + rng.uniform(-2, 2), -4, 4)
    x = (x * (amp / 4)).astype(np.float32)
    if constant:
        x[rng.integers(heads)] = x.flat[0]
    code_range, scales, zps = _fit_range(x, bits, cap)
    assert code_range == CodeRange(bits, signed=False)
    assert scales.shape == zps.shape == (heads,)
    for h in range(heads):
        lo, hi = float(x[h].min()), float(x[h].max())
        scale = max(hi - lo, SCALE_EPS) / ((2**bits - 1) * 2**cap)
        zp = min(max(np.rint(-lo / (2**cap * scale)), 0), 2**bits - 1)
        assert (float(scales[h]), float(zps[h])) == (scale, zp)
        p = fit_affine(x[h], bits)
        assert (p.scale, p.zero_point) == (float(scales[h]) * 2**cap, int(zps[h]))


def test_fit_range_empty_rejected():
    for shape in ((2, 0, 3), (2, 4, 0), (0, 4, 3)):
        with pytest.raises(QuantError, match="empty tensor"):
            _fit_range(np.empty(shape, dtype=np.float32), 8)


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.integers(1, 20), st.integers(1, 20)), st.integers(0, 2**32 - 1),
       st.integers(2, 8), st.booleans(), st.booleans(), st.booleans())
def test_codes_equal_out_of_place_oracle(shape, seed, bits, signed, per_column, ties):
    """``_codes`` is ``clip(rint(x / steps) + zero_point)`` as int32 bit for
    bit, with scalar or per-column steps, values exactly on half-step ties and
    far outside the range, and leaves ``x`` as it was."""
    rng = np.random.default_rng(seed)
    code_range = CodeRange(bits, signed=signed)
    size = shape[1] if per_column else None
    if ties:  # power-of-two steps, so (n +- 1/2) * step is exact in float32
        steps = 2.0 ** rng.integers(-6, 2, size)
    else:
        steps = rng.uniform(0.01, 2.0, size)
    zp = 0 if signed else int(rng.integers(code_range.lo, code_range.hi + 1))
    x = rng.uniform(-2.0, 2.0, shape) * 2**bits * np.max(steps)
    if ties:
        x = (np.rint(x / steps) + rng.choice([-0.5, 0.5], shape)) * steps
    x = x.astype(np.float32)
    before = x.copy()
    got = _codes(x, steps, zp, code_range)
    want = np.clip(np.rint(x.astype(np.float64) / steps) + zp, code_range.lo, code_range.hi)
    assert got.dtype == np.int32 and got.tobytes() == want.astype(np.int32).tobytes()
    assert x.tobytes() == before.tobytes()


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
        with pytest.raises(QuantError, match="^expected affine tensor, got log2$"):
            dequantize_affine(q)

    def test_per_head_params(self):
        """(heads, 1, 1) scales and zero points: every head is checked as a
        scalar pair is, and the two arrays must have one shape."""
        rng8 = CodeRange(8, signed=False)
        scale, zp = np.full((3, 1, 1), 0.5), np.array([0, 128, 255]).reshape(3, 1, 1)
        p = AffineParams(rng8, scale, zp)
        codes = np.arange(3 * 2 * 2, dtype=np.int32).reshape(3, 2, 2)
        np.testing.assert_array_equal(dequantize_affine(QuantTensor(codes, p)),
                                      ((codes - zp) * 0.5).astype(np.float32))
        for bad_scale, bad_zp, match in (
            (np.array([0.5, 0.0, 0.5]).reshape(3, 1, 1), zp, "scale must be positive"),
            (np.array([0.5, np.nan, 0.5]).reshape(3, 1, 1), zp, "scale must be positive"),
            (scale, np.array([0, 256, 1]).reshape(3, 1, 1), "outside code range"),
            (scale, np.array([-1, 0, 1]).reshape(3, 1, 1), "outside code range"),
            (scale, zp[:2], "zero points"),
            (scale, 0, "zero points"),
            (0.5, zp, "zero points"),
        ):
            with pytest.raises(QuantError, match=match):
                AffineParams(rng8, bad_scale, bad_zp)


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
        for zero in (0.0, -0.0):  # max_abs is +0.0 whatever the zeros' sign
            q = quantize_log2(np.full((2, 2), zero, dtype=np.float32), 4)
            assert q.params.max_abs == 0.0 and not np.signbit(q.params.max_abs)
            np.testing.assert_array_equal(q.codes, 0)
            np.testing.assert_array_equal(q.signs, 0)
            assert not np.signbit(dequantize_log2(q)).any()

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
        with pytest.raises(QuantError, match="^expected log2 tensor, got affine$"):
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
       st.booleans(), st.sampled_from([None, 0.0, -0.0]))
def test_log2_equals_out_of_place_oracle(shape, seed, amp, bits, zero_frac, boundaries,
                                         zero_fill):
    """Codes, signs, max_abs and dequantized values equal the out-of-place
    formulation bit for bit: negatives, +0.0 and -0.0, subnormals, all zeros
    (mixed or, for ``zero_fill``, all of one sign: max_abs is +0.0 and every
    code 0), and values at the rounding boundaries between two codes."""
    rng = np.random.default_rng(seed)
    x = (np.clip(rng.standard_normal(shape), -4, 4) * (amp / 4)).astype(np.float32)
    if boundaries:
        x.flat[0] = amp
        b = _rounding_boundaries(amp, bits)[: x.size - 1]
        x.flat[1 : 1 + b.size] = b * rng.choice([-1, 1], b.size)
    zeros = rng.random(shape) < zero_frac
    x[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    if zero_fill is not None:
        x[:] = zero_fill
    q, ref = quantize_log2(x, bits), ref_quantize_log2(x, bits)
    assert q.params == ref.params
    assert q.codes.dtype == ref.codes.dtype and q.codes.tobytes() == ref.codes.tobytes()
    assert q.signs.dtype == ref.signs.dtype and q.signs.tobytes() == ref.signs.tobytes()
    assert dequantize_log2(q).tobytes() == ref_dequantize_log2(ref).tobytes()
    if not x.any():
        assert q.params.max_abs == 0.0 and not np.signbit(q.params.max_abs)
        assert not q.codes.any()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.tuples(st.integers(1, 40), st.integers(1, 40)),
       st.integers(0, 2**32 - 1), log2_amplitudes, st.integers(2, 8))
def test_log2_head_stack_equals_per_head(heads, shape, seed, amp, bits):
    """The (heads, rows, cols) core, given the heads' shared maximum
    magnitude, gives every head the codes, signs and params of
    ``quantize_log2`` and of the out-of-place oracle on that head alone.
    Each head peaks at +-amp and has scattered +0.0 and -0.0 entries."""
    rng = np.random.default_rng(seed)
    x = (np.clip(rng.standard_normal((heads, *shape)), -4, 4) * (amp / 4)).astype(np.float32)
    zeros = rng.random(x.shape) < 0.2
    x[zeros] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zeros]
    x[:, 0, 0] = amp * rng.choice([-1, 1], heads)
    stack = _quantize_log2(x, bits, float(np.float32(amp)))
    assert stack.codes.shape == stack.signs.shape == x.shape
    for h in range(heads):
        q = head(stack, h)
        for want in (quantize_log2(x[h], bits), ref_quantize_log2(x[h], bits)):
            assert q.params == want.params
            assert q.codes.dtype == want.codes.dtype
            assert q.codes.tobytes() == want.codes.tobytes()
            assert q.signs.dtype == want.signs.dtype
            assert q.signs.tobytes() == want.signs.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 300), st.integers(0, 2**32 - 1), log2_amplitudes,
       st.integers(2, 8), st.lists(st.integers(1, 299), max_size=4))
def test_log2_bands_with_the_head_maximum(heads, t, seed, amp, bits, cuts):
    """Row bands ``[r0, r1)`` of a (heads, T, T) stack whose every head peaks
    at row 0, as a causal softmax map does, each quantized with that maximum,
    give the params of the whole stack and its codes and signs in rows
    r0..r1, columns 0..r1; the whole stack quantizes each head as
    ``quantize_log2`` on that head alone."""
    rng = np.random.default_rng(seed)
    x = (np.tril(rng.random((heads, t, t))) * amp).astype(np.float32)
    x[:, 0, 0] = amp
    max_abs = float(np.float32(amp))
    whole = _quantize_log2(x, bits, max_abs)
    for h in range(heads):
        alone = quantize_log2(x[h], bits)
        assert alone.params == whole.params
        assert alone.codes.tobytes() == whole.codes[h].tobytes()
    bounds = [0, *sorted({c for c in cuts if c < t}), t]
    for r0, r1 in zip(bounds, bounds[1:]):
        got = _quantize_log2(x[:, r0:r1, :r1], bits, max_abs)
        assert got.params == whole.params
        assert got.codes.tobytes() == whole.codes[:, r0:r1, :r1].tobytes()
        assert got.signs.tobytes() == whole.signs[:, r0:r1, :r1].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["non-negative", "mixed", "+0.0", "-0.0", "+-0.0"])
def test_log2_signs_on_either_path(kind, dtype):
    """Signs are int8 ``np.sign(x)``, -0.0 giving 0, whether the input is
    all non-negative (one comparison) or not (two and a subtraction): a
    softmax band with scattered +-0.0, mixed signs, and all-zero input."""
    rng = np.random.default_rng(len(kind))
    x = rng.random((2, 9, 11)).astype(dtype)
    zeros = rng.random(x.shape) < 0.3
    x[zeros] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zeros]
    if kind == "mixed":
        x[rng.random(x.shape) < 0.5] *= -1
    elif kind != "non-negative":
        x[:] = {"+0.0": 0.0, "-0.0": -0.0, "+-0.0": np.where(zeros, -0.0, 0.0)}[kind]
    q = _quantize_log2(x, 4, 1.0)
    assert q.signs.dtype == np.int8
    assert q.signs.tobytes() == np.sign(x).astype(np.int8).tobytes()
    assert (q.signs[np.signbit(x) & (x == 0)] == 0).all()


@pytest.mark.parametrize("bits", range(2, 9))
def test_log2_codes_near_every_rounding_midpoint(bits):
    """At max_abs 1.0, the pipeline's constant, the ``frexp`` codes and the
    signs equal the ``np.log2`` rule's over the 2000 float32 values on each
    side of every midpoint 2^-(k + 1/2) between two codes, k = 0..code_hi,
    with both signs; the largest magnitude is exactly 1.0."""
    k = np.arange(2 ** (bits - 1))
    mid = np.float32(2.0 ** -(k + 0.5)).view(np.int32)
    near = (mid[:, None] + np.arange(-2000, 2001)).view(np.float32)
    x = np.concatenate([[1.0], near.ravel(), -near.ravel()]).astype(np.float32)[None]
    q, ref = quantize_log2(x, bits), ref_quantize_log2(x, bits)
    assert q.params == ref.params and q.params.max_abs == 1.0
    assert q.codes.dtype == ref.codes.dtype and q.codes.tobytes() == ref.codes.tobytes()
    assert q.signs.tobytes() == ref.signs.tobytes()


@pytest.mark.parametrize("bits", [4, 8])
def test_log2_float32_threshold_equals_float64_on_every_float32(bits):
    """The float32 ratios' mantissa test (``m <= float32(2^-0.5)``) gives the
    float64 test's codes on every float32 in [2^-9, 1], 75,497,473 values:
    each exponent's whole mantissa range, and the floor 2^-7 at 4 bits."""
    lo = int(np.float32(2.0**-9).view(np.uint32))
    hi = int(np.float32(1.0).view(np.uint32)) + 1
    step = 1 << 22
    for a in range(lo, hi, step):
        x = np.arange(a, min(a + step, hi), dtype=np.uint32).view(np.float32)[None, None]
        q32 = _quantize_log2(x, bits, 1.0)
        q64 = _quantize_log2(x.astype(np.float64), bits, 1.0)
        np.testing.assert_array_equal(q32.codes, q64.codes)


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
