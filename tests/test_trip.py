import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from helpers import naive_trip_argmin, ref_fit_trip, ref_trip_error_sums, ref_trip_product
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agq import kernels
from agq.kernels import pack_weights_for_gemm
from agq.pipeline import _shifted_params, _site_product
from agq.quantizers import (
    ChannelSymmetricParams,
    CodeRange,
    QuantError,
    QuantTensor,
    dequantize_affine,
    fit_affine,
    quantize_affine,
)
from agq.trip import (
    TripParams,
    dequantize_trip,
    fit_trip,
    fold_trip_into_weights,
    quantize_trip,
)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 24), st.integers(1, 12)), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30, 3e38]), st.integers(2, 8),
       st.booleans(), st.booleans())
@example((1, 1), 0, 1.0, 8, False, False)
@example((6, 4), 1, 3e38, 2, True, True)
def test_cap_zero_collapses_to_affine(shape, seed, amp, bits, const_col, on_grid):
    """TRIP at cap 0 is the layer-wise affine quantizer: equal params, codes
    and dequantized bytes (trace MSEs are computed from the latter).
    ``const_col`` makes one channel constant; ``on_grid`` puts values on a
    coarse grid, so many land exactly on rounding ties."""
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal(shape) + rng.uniform(-2, 2), -4, 4) / 4
    if on_grid:
        x = np.rint(x * 4) / 4
    if const_col:
        x[:, rng.integers(shape[1])] = rng.uniform(-1, 1)
    x = (x * amp).astype(np.float32)
    p, pa = fit_trip(x, bits, cap=0), fit_affine(x, bits)
    assert p.base == pa
    assert p.alphas.dtype == np.int64 and not p.alphas.any()
    q, qa = quantize_trip(x, p), quantize_affine(x, pa)
    assert q.codes.dtype == qa.codes.dtype
    np.testing.assert_array_equal(q.codes, qa.codes)
    assert dequantize_trip(q).tobytes() == dequantize_affine(qa).tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cap", [0, 3])
def test_dequantize_saturates_at_float32_max(seed, cap):
    """At 2 bits the rounded zero point of a 3e38 input puts the top or bottom
    code a fraction of a step past float32's largest value. Both dequantizers
    saturate there, not at +-inf (an overflow warning, which this suite
    turns into an error); every other value is the plain float32 cast."""
    x = (np.random.default_rng(seed).uniform(-1, 1, (12, 12)) * 3e38).astype(np.float32)
    pa = fit_affine(x, 2)
    p = fit_trip(x, 2, cap)
    big = np.finfo(np.float32).max
    for q, steps in ((quantize_affine(x, pa), pa.scale), (quantize_trip(x, p), p.steps)):
        exact = (q.codes - np.float64(q.params.zero_point)) * steps
        assert np.abs(exact).max() > big  # the case this guards
        got = (dequantize_affine if q.kind == "affine" else dequantize_trip)(q)
        assert np.isfinite(got).all()
        inside = np.abs(exact) <= big
        np.testing.assert_array_equal(got[inside], exact[inside].astype(np.float32))
        np.testing.assert_array_equal(got[~inside], np.sign(exact[~inside]) * big)


@pytest.mark.parametrize("cap", range(7))
def test_base_is_affine_fit_over_2_to_the_cap(cap):
    """The base step is the affine step divided by 2^cap, exactly, and the
    base zero point is the affine one."""
    rng = np.random.default_rng(cap)
    x = (rng.uniform(-3, 5, (16, 8)) * 10.0 ** rng.integers(-20, 20, 8)).astype(np.float32)
    for bits in range(2, 9):
        p, pa = fit_trip(x, bits, cap), fit_affine(x, bits)
        assert p.base.scale == pa.scale / 2**cap
        assert p.base.zero_point == pa.zero_point


def test_cap_checked_before_empty_input():
    empty = np.empty((0, 3), dtype=np.float32)
    with pytest.raises(QuantError, match="^cap must be in 0..6, got 7$"):
        fit_trip(empty, 8, cap=7)
    with pytest.raises(QuantError, match="empty tensor"):
        fit_trip(empty, 8, cap=2)


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
    q0 = type(q)(codes=zero_codes, params=p)
    np.testing.assert_array_equal(dequantize_trip(q0), 0.0)
    # per-channel half-step bound
    recon = dequantize_trip(quantize_trip(x, p))
    steps = p.steps
    assert np.all(np.abs(x - recon) <= steps[None, :] / 2 + 1e-6)


def test_dequantize_direct_values():
    from agq.quantizers import CodeRange
    from agq.trip import TripParams
    from agq.quantizers import QuantTensor

    p = TripParams(CodeRange(8, signed=False), 0.1, 0, alphas=np.array([0, 1]), cap=1)
    q = QuantTensor(codes=np.array([[1, 1]]), params=p)
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


@pytest.mark.parametrize("cap", [-1, 7, 200])
def test_cap_outside_0_to_6_rejected(cap):
    """Exponents past the schema's 6 are refused where they are made; a cap
    of 200 used to fit, and folding its exponents overflowed float32."""
    x = np.ones((8, 4), dtype=np.float32)
    x[:, 0] = 1e6
    with pytest.raises(QuantError, match="cap must be in 0..6"):
        fit_trip(x, 8, cap)
    base = fit_affine(x, 8)
    with pytest.raises(QuantError, match="cap must be in 0..6"):
        TripParams(base.range, base.scale, base.zero_point,
                   alphas=np.zeros(4, dtype=np.int64), cap=cap)


class TestFolding:
    def test_identity_when_no_refinement(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (8, 4)).astype(np.float32)
        p = fit_trip(x, 8, cap=0)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        np.testing.assert_array_equal(fold_trip_into_weights(w, p), w)

    def test_single_channel_doubling(self):
        from agq.quantizers import CodeRange
        from agq.trip import TripParams

        p = TripParams(CodeRange(8, signed=False), 0.5, 0, alphas=np.array([1]), cap=1)
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


def _fit_input(shape, seed, amp, on_grid):
    """Seeded float32 input for a fit: channels of magnitudes 2^-0..2^-7
    times ``amp``, offset from 0, on a coarse grid of exact ties if
    ``on_grid``."""
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal(shape) + rng.uniform(-2, 2), -4, 4) / 4
    if on_grid:
        x = np.rint(x * 4) / 4
    gains = 2.0 ** -rng.integers(0, 8, shape[1])  # per-channel magnitudes, <= 1
    return (x * gains * amp).astype(np.float32)


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.integers(1, 40), st.integers(1, 40)), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30, 3e38]), st.integers(2, 8),
       st.integers(0, 6), st.booleans())
def test_fit_equals_norm_loop_oracle(shape, seed, amp, bits, cap, on_grid):
    """The whole TripParams (scale, zero point, exponents) equals the
    np.linalg.norm formulation bit for bit, outlier channels and exact ties
    (values on a coarse grid) included."""
    x = _fit_input(shape, seed, amp, on_grid)
    p, ref = fit_trip(x, bits, cap), ref_fit_trip(x, bits, cap)
    assert (p.cap, p.base) == (ref.cap, ref.base)
    assert p.alphas.dtype == ref.alphas.dtype
    np.testing.assert_array_equal(p.alphas, ref.alphas)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 700), st.sampled_from([1, 2, 3, 130, 256, 700]), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30, 3e38]), st.integers(2, 8),
       st.integers(0, 6), st.booleans())
@example(700, 700, 0, 1.0, 4, 6, False)  # 46-row bands, a 10-row last one
@example(700, 130, 1, 3e38, 8, 3, True)  # 252-row bands
@example(257, 256, 2, 1e-30, 4, 3, True)  # 128-row bands, a 1-row last one
@example(700, 1, 3, 1.0, 8, 6, False)  # one column: one band, summed pairwise
@example(40000, 1, 4, 1e3, 4, 6, False)  # past 2^15 rows, still one band
def test_banded_fit_equals_norm_loop_oracle(t, c, seed, amp, bits, cap, on_grid):
    """Fits past one band of 2^15 elements per exponent carry their column
    sums from band to band and still equal the oracle bit for bit."""
    test_fit_equals_norm_loop_oracle.hypothesis.inner_test((t, c), seed, amp, bits, cap,
                                                           on_grid)


# (T, C): one band and several, around each band boundary (2^15 // C rows),
# single columns (one pairwise-summed band) and one-row bands (C > 2^15).
_SUM_SHAPES = [
    (1, 1), (16, 1), (700, 1), (1024, 1),
    (17, 2), (1024, 2),
    (5, 3), (256, 3), (1024, 3),
    (1, 64), (16, 64), (128, 64), (256, 64), (512, 64), (513, 64), (1024, 64),
    (16, 130), (252, 130), (253, 130), (700, 130), (757, 130),
    (16, 256), (128, 256), (129, 256), (256, 256), (257, 256), (384, 256),
    (1, 700), (46, 700), (47, 700), (140, 700),
    (1, 2048), (16, 2048), (17, 2048), (48, 2048),
    (1, 40000), (2, 40000),
]


@pytest.mark.parametrize("shape", _SUM_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_fit_error_sums_equal_the_mixed_width_loop(shape, monkeypatch):
    """The per-channel error sums that the fit hands to ``np.sqrt`` are
    byte-identical to the mixed-width, two-pass-clip formulation's
    (``helpers.ref_trip_error_sums``), not only their argmin: at caps 1, 3
    and 6, 4 and 8 bits, amplitudes 1e-30, 1 and 3e38, with and without
    exact ties, 36 fits per shape."""
    seen = []
    sqrt = np.sqrt

    def spy(err, out=None):
        seen.append(err.copy())
        return sqrt(err, out=out)

    for cap, bits, amp, on_grid in itertools.product((1, 3, 6), (4, 8), (1e-30, 1.0, 3e38),
                                                     (False, True)):
        x = _fit_input(shape, cap + bits, amp, on_grid)
        with monkeypatch.context() as m:
            m.setattr(np, "sqrt", spy)
            fit_trip(x, bits, cap)
        assert len(seen) == 1
        assert seen.pop().tobytes() == ref_trip_error_sums(x, bits, cap).tobytes()


@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("c", [1, 2, 3, 130])
def test_numpy_sums_rows_in_order(c, contiguous):
    """The banded fit relies on this: for C >= 2, ``np.add.reduce(r,
    axis=1)`` over an (A, n, C) array, contiguous or a row slice, adds the
    rows in order, so a running sum added into a band's first row rounds
    as one pass. A single column is summed pairwise instead."""
    rng = np.random.default_rng(c)
    r = rng.standard_normal((4, 705, c)) * 10.0 ** rng.integers(-8, 8, (4, 705, c))
    r = np.ascontiguousarray(r[:, :700]) if contiguous else r[:, :700]
    in_order = r[:, 0].copy()
    for row in r[:, 1:].transpose(1, 0, 2):
        in_order += row
    assert np.array_equal(np.add.reduce(r, axis=1), in_order) == (c >= 2)


def test_fit_memory_stays_in_one_band():
    """A (1024, 256) fit at cap 3 holds one 1 MiB band buffer, not the whole
    8 MiB (cap+1, T, C) float64 stack."""
    x = np.random.default_rng(0).standard_normal((1024, 256)).astype(np.float32)
    tracemalloc.start()
    try:
        fit_trip(x, 4, cap=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _trip_site(m, k, n, bits, cap, seed, alphas=None):
    """Random TRIP activation codes against random 4-bit weight codes, as
    (aq, wq, packed) for ``_site_product``."""
    rng = np.random.default_rng(seed)
    hi = 2**bits - 1
    scale, zp = float(rng.uniform(1e-3, 10.0)), int(rng.integers(0, hi + 1))
    if alphas is None:
        alphas = rng.integers(0, cap + 1, k)
    aq = QuantTensor(rng.integers(0, hi + 1, (m, k)).astype(np.int32),
                     TripParams(CodeRange(bits, signed=False), scale, zp,
                                alphas=np.asarray(alphas), cap=cap))
    w_codes = rng.integers(-8, 8, (k, n)).astype(np.int32)
    wq = QuantTensor(w_codes, ChannelSymmetricParams(CodeRange(4, signed=True),
                                                     rng.uniform(1e-3, 1.0, n)))
    return aq, wq, pack_weights_for_gemm((w_codes + 8).astype(np.uint8))


class TestShiftedProduct:
    """A TRIP site's product applies each exponent as an exact integer
    shift (8-bit) or channel repeat (4-bit) of the plain weight codes."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 70), st.integers(1, 6), st.sampled_from([4, 8]),
           st.integers(0, 6), st.integers(0, 2**32 - 1))
    @example(m=3, k=70, n=5, bits=4, cap=6, seed=0)  # repeated k far past 256
    def test_equals_int64_oracle(self, m, k, n, bits, cap, seed):
        aq, wq, packed = _trip_site(m, k, n, bits, cap, seed)
        got = _site_product(aq, wq, packed, _shifted_params(wq.params))
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, ref_trip_product(aq, wq))

    @pytest.mark.parametrize("cap", [4, 6])
    def test_repeats_split_into_lane_groups(self, cap, monkeypatch):
        # half the channels at exponent 0 and half at cap: k repeats to
        # 20 + 20 * 2^cap, more than one 256-addition lane group
        aq, wq, packed = _trip_site(4, 40, 6, 4, cap, cap, alphas=[0, cap] * 20)
        inner = []
        raw = kernels.gemm_int4_raw
        monkeypatch.setattr(kernels, "gemm_int4_raw",
                            lambda a, p, **kw: inner.append(p.cols) or raw(a, p, **kw))
        got = _site_product(aq, wq, packed, _shifted_params(wq.params))
        assert inner == [20 + 20 * 2**cap] and inner[0] > kernels.MAX_LANE_ADDITIONS
        np.testing.assert_array_equal(got, ref_trip_product(aq, wq))

    def test_lane_path_equals_scalar_lane_model(self, monkeypatch):
        aq, wq, packed = _trip_site(2, 5, 3, 4, 2, 9, alphas=[2, 0, 1, 2, 1])
        vector = _site_product(aq, wq, packed, _shifted_params(wq.params))
        monkeypatch.setattr(kernels, "gemm_int4_raw",
                            functools.partial(kernels.gemm_int4_raw, impl="scalar"))
        scalar = _site_product(aq, wq, packed, _shifted_params(wq.params))
        np.testing.assert_array_equal(scalar, vector)
        np.testing.assert_array_equal(scalar, ref_trip_product(aq, wq))

    def test_shifted_range_bounds_every_cap(self):
        for cap in range(7):
            rng = CodeRange(4, signed=True, shift=cap)
            assert (rng.lo, rng.hi) == (-8 * 2**cap, 7 * 2**cap)
        with pytest.raises(QuantError, match="bits must be in 2..8"):
            CodeRange(9, signed=True)
        with pytest.raises(QuantError, match="shift must be non-negative"):
            CodeRange(4, signed=True, shift=-1)


def test_exponent_check_messages_and_empty():
    base = fit_affine(np.zeros((1, 1), dtype=np.float32), 8)
    affine = (base.range, base.scale, base.zero_point)
    assert TripParams(*affine, alphas=np.zeros(0, dtype=np.int64), cap=0).alphas.size == 0
    for alphas in ([0, -1], [0, 4]):
        with pytest.raises(QuantError, match="^channel exponents must lie in 0..cap$"):
            TripParams(*affine, alphas=np.array(alphas), cap=3)
