import dataclasses

import numpy as np
import pytest
from helpers import (
    head,
    int64_gemm_int4_packed,
    int64_gemm_int_affine,
    int64_gemm_log2_attnv,
    naive_int_gemm,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import agq
from agq.kernels import (
    EXACT_F32_LIMIT,
    EXACT_F64_LIMIT,
    MAX_LANE_ADDITIONS,
    AccumulatorBudgetError,
    Int4GemmParams,
    KernelError,
    LaneAccumulator,
    check_exact,
    gemm_f32,
    gemm_int4_packed,
    gemm_int4_raw,
    gemm_int_affine,
    gemm_log2_attnv,
    lane_multiply,
    pack_int4,
    pack_weights_for_gemm,
    unpack_int4,
)
from agq.quantizers import (
    AffineParams,
    ChannelSymmetricParams,
    CodeRange,
    QuantTensor,
    _quantize_heads,
    _quantize_log2,
    fit_affine,
    fit_weight_symmetric,
    quantize_affine,
    quantize_log2,
    quantize_weight_symmetric,
)
from agq.trip import fit_trip, fold_trip_into_weights, quantize_trip

# Inputs for the kernel properties: shape, seed and an amplitude that spans
# tiny to near-float32-max values (the codes, not the values, bound the sums).
shapes = st.tuples(st.integers(1, 9), st.integers(1, 300), st.integers(1, 9))
amplitudes = st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30, 3e38])


@pytest.fixture
def widths(monkeypatch):
    """The dtypes ``check_exact`` returns to the kernels, in call order."""
    seen = []

    def spy(*args):
        seen.append(check_exact(*args))
        return seen[-1]

    monkeypatch.setattr(agq.kernels, "check_exact", spy)
    return seen


def _normal(rng, shape, amplitude):
    """Normal values clipped to |x| <= amplitude, so 3e38 stays finite in float32."""
    return (np.clip(rng.standard_normal(shape), -4, 4) * (amplitude / 4)).astype(np.float32)


class TestGemmF32:
    def test_matches_float64_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 11)).astype(np.float32)
        w = rng.standard_normal((11, 5)).astype(np.float32)
        expect = (a.astype(np.float64) @ w.astype(np.float64)).astype(np.float32)
        np.testing.assert_array_equal(gemm_f32(a, w), expect)

    def test_dim_mismatch(self):
        with pytest.raises(KernelError):
            gemm_f32(np.zeros((2, 3), dtype=np.float32), np.zeros((4, 2), dtype=np.float32))


class TestGemmIntAffine:
    @pytest.mark.parametrize("seed", range(10))
    def test_weight_side_close_to_fp(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 16)).astype(np.float32)
        w = rng.standard_normal((16, 6)).astype(np.float32)
        aq = quantize_affine(a, fit_affine(a, 8))
        wq = quantize_weight_symmetric(w, fit_weight_symmetric(w, 4))
        got = gemm_int_affine(aq, wq)
        # exact vs a dequantize-then-matmul oracle
        a_hat = (aq.codes.astype(np.float64) - aq.params.zero_point) * aq.params.scale
        w_hat = wq.codes.astype(np.float64) * wq.params.scales[None, :]
        np.testing.assert_allclose(got, a_hat @ w_hat, rtol=1e-5, atol=1e-5)

    def test_affine_affine_dual_zero_point(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 12)).astype(np.float32)
        b = rng.standard_normal((12, 5)).astype(np.float32)
        aq = quantize_affine(a, fit_affine(a, 8))
        bq = quantize_affine(b, fit_affine(b, 8))
        got = gemm_int_affine(aq, bq)
        a_hat = (aq.codes.astype(np.float64) - aq.params.zero_point) * aq.params.scale
        b_hat = (bq.codes.astype(np.float64) - bq.params.zero_point) * bq.params.scale
        np.testing.assert_allclose(got, a_hat @ b_hat, rtol=1e-5, atol=1e-5)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 3)).astype(np.float32)
        w = rng.standard_normal((4, 2)).astype(np.float32)
        aq = quantize_affine(a, fit_affine(a, 8))
        wq = quantize_weight_symmetric(w, fit_weight_symmetric(w, 4))
        with pytest.raises(KernelError):
            gemm_int_affine(aq, wq)

    @settings(max_examples=60, deadline=None)
    @given(shapes, st.integers(0, 2**32 - 1), amplitudes,
           st.sampled_from(["affine", "trip"]), st.sampled_from([4, 8]))
    def test_weight_side_equals_int64_oracle(self, shape, seed, amp, quantizer, bits):
        m, k, n = shape
        rng = np.random.default_rng(seed)
        a = _normal(rng, (m, k), amp)
        w = _normal(rng, (k, n), 1.0)
        if quantizer == "trip":
            aq = quantize_trip(a, fit_trip(a, bits, 3))
            w = fold_trip_into_weights(w, aq.params)
        else:
            aq = quantize_affine(a, fit_affine(a, bits))
        wq = quantize_weight_symmetric(w, fit_weight_symmetric(w, 4))
        with np.errstate(over="ignore"):  # sums near 3e38 are Inf on both sides
            got, expect = gemm_int_affine(aq, wq), int64_gemm_int_affine(aq, wq)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expect)

    @settings(max_examples=60, deadline=None)
    @given(shapes, st.integers(0, 2**32 - 1), amplitudes, amplitudes)
    def test_affine_affine_equals_int64_oracle(self, shape, seed, amp_a, amp_b):
        m, k, n = shape
        rng = np.random.default_rng(seed)
        a = _normal(rng, (m, k), amp_a)
        b = _normal(rng, (k, n), amp_b)
        aq = quantize_affine(a, fit_affine(a, 8))
        bq = quantize_affine(b, fit_affine(b, 8))
        with np.errstate(over="ignore"):  # 3e38 x 3e38 is Inf on both sides
            got, expect = gemm_int_affine(aq, bq), int64_gemm_int_affine(aq, bq)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expect)

    @settings(max_examples=60, deadline=None)
    @given(shapes, st.integers(0, 2**32 - 1), amplitudes,
           st.sampled_from(["affine", "trip"]))
    def test_fused_columns_equal_per_third_products(self, shape, seed, amp, quantizer):
        # the fused QKV site: x @ [wq | wk | wv] must equal the three products
        # bit for bit, since folding, weight quantization and the zero-point
        # column sums are each independent per column
        m, k, n = shape
        rng = np.random.default_rng(seed)
        a = _normal(rng, (m, k), amp)
        w = _normal(rng, (k, 3 * n), 1.0)
        if quantizer == "trip":
            aq = quantize_trip(a, fit_trip(a, 8, 3))
        else:
            aq = quantize_affine(a, fit_affine(a, 8))

        def int_product(w):
            if quantizer == "trip":
                w = fold_trip_into_weights(w, aq.params)
            return gemm_int_affine(aq, quantize_weight_symmetric(w, fit_weight_symmetric(w, 4)))

        thirds = np.hsplit(w, 3)
        with np.errstate(over="ignore"):  # sums near 3e38 are Inf on both sides
            np.testing.assert_array_equal(
                int_product(w), np.hstack([int_product(wt) for wt in thirds]))
            np.testing.assert_array_equal(
                gemm_f32(a, w), np.hstack([gemm_f32(a, wt) for wt in thirds]))

    def test_extreme_codes_equal_int64_oracle(self, monkeypatch):
        # every centred product at its largest: codes 0/255, zp 0/255, and
        # weights shifted by up to ``cap`` at codes -8 * 2^cap and 7 * 2^cap;
        # check_exact is handed the centred bounds of the code ranges
        bounds = []

        def spy(*args):
            bounds.append(args)
            return check_exact(*args)

        monkeypatch.setattr(agq.kernels, "check_exact", spy)
        k = 1000
        rng8 = CodeRange(8, signed=False)
        a = np.tile(np.array([[0, 255], [255, 0]], dtype=np.int32), (1, k // 2))
        sides = [(QuantTensor(np.full((k, 3), 255 - zp_b, dtype=np.int32),
                              AffineParams(rng8, 1.0, zp_b)), 255) for zp_b in (0, 255)]
        for cap in range(7):
            w_rng = CodeRange(4, signed=True, shift=cap)
            w = np.tile(np.array([[w_rng.lo, w_rng.hi, w_rng.lo]], dtype=np.int32), (k, 1))
            w[1::2, 0] = w_rng.hi
            sides.append((QuantTensor(w, ChannelSymmetricParams(range=w_rng, scales=np.ones(3))),
                          8 * 2**cap))
        for zp_a in (0, 1, 128, 255):
            aq = QuantTensor(a, AffineParams(rng8, 1.0, zp_a))
            for bq, max_b in sides:
                bounds.clear()
                np.testing.assert_array_equal(gemm_int_affine(aq, bq),
                                              int64_gemm_int_affine(aq, bq))
                assert bounds == [(k, max(zp_a, 255 - zp_a), max_b)]

    def test_float_codes_rejected(self):
        # a float GEMM of these returned [[nan]]: no integer bound holds
        rng8 = CodeRange(8, signed=False)
        aq = QuantTensor(np.array([[0.5, 2.25]]), AffineParams(rng8, 1.0, 0))
        bq = QuantTensor(np.array([[1.5], [np.nan]]), AffineParams(rng8, 1.0, 0))
        int_a = QuantTensor(np.array([[1, 2]], dtype=np.int32), aq.params)
        int_b = QuantTensor(np.array([[1], [2]], dtype=np.int32), bq.params)
        for a, b in ((aq, bq), (aq, int_b), (int_a, bq)):
            with pytest.raises(KernelError, match="integers"):
                gemm_int_affine(a, b)
        w = QuantTensor(np.ones((2, 1)), ChannelSymmetricParams(CodeRange(4, signed=True),
                                                                 np.ones(1)))
        with pytest.raises(KernelError, match="integers"):
            gemm_int_affine(int_a, w)

    @pytest.mark.parametrize("k,width", [(258, np.float32), (259, np.float64)])
    def test_worst_case_sums_at_the_float32_bound(self, k, width, widths):
        """Affine against affine with zero points 0 and 255: every centred
        code at magnitude 255, so k * 255^2 is reached exactly. It is below
        2^24 at k = 258 and past it at k = 259, where the odd sum 16,841,475
        has no float32. Rows of one sign and rows alternating between full
        magnitude and 0 match the int64 oracle bit for bit."""
        rng8 = CodeRange(8, signed=False)
        assert (k * 255 * 255 < EXACT_F32_LIMIT) == (width is np.float32)
        a = np.full((3, k), 255, dtype=np.int32)
        a[1, 1::2] = 0
        a[2, 0::2] = 0
        b = np.full((k, 3), 255, dtype=np.int32)
        b[::2, 1] = 0
        b[k // 2:, 2] = 0
        for zp_a in (0, 255):
            for zp_b in (0, 255):
                aq = QuantTensor(a if zp_a == 0 else 255 - a, AffineParams(rng8, 0.5, zp_a))
                bq = QuantTensor(b if zp_b == 0 else 255 - b, AffineParams(rng8, 0.25, zp_b))
                got = gemm_int_affine(aq, bq)
                np.testing.assert_array_equal(got, int64_gemm_int_affine(aq, bq))
                sign = 1 if zp_a == zp_b else -1
                assert got[0, 0] == np.float32(sign * k * 255 * 255 * 0.125)
        assert widths == [width] * 4


class TestPacking:
    def test_pair_layout(self):
        codes = np.array([[3], [5]], dtype=np.uint8)
        p = pack_int4(codes)
        assert p.data[0, 0] == 0x53  # low nibble row 0, high nibble row 1
        np.testing.assert_array_equal(unpack_int4(p), codes)

    def test_odd_rows_zero_padded(self):
        codes = np.array([[7, 1], [2, 9], [15, 0]], dtype=np.uint8)
        p = pack_int4(codes)
        assert p.data.shape == (2, 2)
        assert p.data[1, 0] == 15  # high nibble of the pad row is zero
        np.testing.assert_array_equal(unpack_int4(p), codes)

    def test_out_of_range_codes(self):
        with pytest.raises(KernelError):
            pack_int4(np.array([[16]]))
        with pytest.raises(KernelError):
            pack_int4(np.array([[-1]]))
        for codes in ([[1.7, 2.2]], np.array([[1.0, 2.0]]), np.array([[np.nan]]),
                      np.array([[True]])):
            with pytest.raises(KernelError, match="integers"):
                pack_int4(codes)

    def test_non_integer_activation_codes(self):
        packed = pack_int4([[3], [1]])
        for codes in ([[1.5]], np.array([[1.0]]), np.array([[np.nan]])):
            with pytest.raises(KernelError, match="integers"):
                gemm_int4_raw(codes, packed)
            with pytest.raises(KernelError, match="integers"):
                gemm_int4_packed(codes, packed, Int4GemmParams(1.0, 0, np.ones(2)))
        np.testing.assert_array_equal(gemm_int4_raw(np.array([[2]], np.uint8), packed),
                                      [[6, 2]])

    @pytest.mark.parametrize("rows, data", [
        (2, np.full((1, 2), 0x1FF, np.int16)),  # vector gave [[675, 1395], ...]
        (2, np.full((1, 2), -1, np.int64)),  # vector gave [[675, -45], ...]
        (2, np.full((1, 2), 2.5)),  # scalar truncated 2.5 to 2
        (2, np.full((1, 2), True)),
        (2, [[3, 3]]),
        (5, np.full((1, 2), 3, np.uint8)),  # gave 2 output rows
        (1, np.full((2, 2), 3, np.uint8)),
        (2, np.full((1, 3), 3, np.uint8)),
        (2, np.full(2, 3, np.uint8)),
        (2, np.full((1, 2, 1), 3, np.uint8)),
        (-1, np.full((0, 2), 3, np.uint8)),
        (2.0, np.full((1, 2), 3, np.uint8)),
    ])
    def test_malformed_data_rejected(self, rows, data):
        """Packed data must be a uint8 array of shape (ceil(rows / 2), cols):
        anything else raises ``KernelError`` at construction, where the two
        lane implementations used to disagree or misread it."""
        with pytest.raises(KernelError, match="packed data"):
            agq.PackedInt4Matrix(rows=rows, cols=2, data=data)

    @pytest.mark.parametrize("rows", [0, 1, 2, 5])
    def test_well_formed_data_accepted(self, rows):
        data = np.full(((rows + 1) // 2, 3), 0x1F, np.uint8)
        p = agq.PackedInt4Matrix(rows=np.int64(rows), cols=3, data=data)
        assert unpack_int4(p).shape == (rows, 3)
        sub = dataclasses.replace(p, cols=2, data=data[:, [0, 2]])  # as _site_product does
        assert sub.data.shape == ((rows + 1) // 2, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 16, (int(rng.integers(1, 20)), int(rng.integers(1, 20))))
        np.testing.assert_array_equal(unpack_int4(pack_int4(codes)), codes)


class TestLaneMultiply:
    def test_hand_example(self):
        # cell 0x53 holds nibbles (3, 5); times 7 -> 21 in the low byte,
        # 35 in the high byte: 21 + 35 * 256 = 8981
        assert lane_multiply(0x53, 7) == 8981

    def test_zero_activation(self):
        assert lane_multiply(0xFF, 0) == 0

    def test_max_products_fit_bytes(self):
        prod = lane_multiply(0xFF, 15)
        assert prod & 0xFF == 225
        assert (prod >> 8) & 0xFF == 225

    def test_exhaustive_against_nibble_oracle(self):
        for cell in range(256):
            lo, hi = cell & 0x0F, cell >> 4
            for a in range(16):
                prod = lane_multiply(cell, a)
                assert prod & 0xFF == lo * a
                assert prod >> 8 == hi * a

    def test_range_errors(self):
        with pytest.raises(KernelError):
            lane_multiply(0x53, 16)
        with pytest.raises(KernelError):
            lane_multiply(256, 1)
        for cell, act in ((17, 2.5), (17.0, 2), (17, np.float32(2))):
            with pytest.raises(KernelError, match="integers"):
                lane_multiply(cell, act)
        assert lane_multiply(np.uint8(0x53), np.int64(7)) == 8981


class TestLaneAccumulator:
    def test_sublane_isolation_at_budget(self):
        acc = LaneAccumulator()
        prod = lane_multiply(0xFF, 15)  # 225 per byte, worst case
        for _ in range(MAX_LANE_ADDITIONS):
            acc.add(prod)
        assert acc.sublanes == (225 * 256, 225 * 256)

    def test_budget_exceeded(self):
        acc = LaneAccumulator()
        for _ in range(MAX_LANE_ADDITIONS):
            acc.add(0)
        with pytest.raises(AccumulatorBudgetError):
            acc.add(0)

    def test_mixed_products(self):
        acc = LaneAccumulator()
        acc.add(lane_multiply(0x53, 7))
        acc.add(lane_multiply(0x21, 3))
        assert acc.sublanes == (21 + 3, 35 + 6)


class TestGemmInt4:
    @pytest.mark.parametrize("seed", range(25))
    def test_raw_matches_int_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        k = int(rng.integers(1, 64))
        n = int(rng.integers(1, 12))
        a = rng.integers(0, 16, (m, k))
        w = rng.integers(0, 16, (n, k))  # logical rows = output channels
        raw = gemm_int4_raw(a, pack_int4(w))
        np.testing.assert_array_equal(raw, naive_int_gemm(a, w))

    def test_group_split_beyond_budget(self):
        rng = np.random.default_rng(99)
        k = 3 * MAX_LANE_ADDITIONS + 17
        a = rng.integers(0, 16, (4, k))
        w = rng.integers(0, 16, (6, k))
        raw = gemm_int4_raw(a, pack_int4(w))
        np.testing.assert_array_equal(raw, naive_int_gemm(a, w))

    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_equals_vector(self, seed):
        rng = np.random.default_rng(seed + 50)
        a = rng.integers(0, 16, (3, 40))
        w = rng.integers(0, 16, (5, 40))
        p = pack_int4(w)
        np.testing.assert_array_equal(
            gemm_int4_raw(a, p, impl="scalar"), gemm_int4_raw(a, p, impl="vector")
        )

    @pytest.mark.parametrize("k", [MAX_LANE_ADDITIONS, MAX_LANE_ADDITIONS + 1,
                                   3 * MAX_LANE_ADDITIONS + 17])
    def test_worst_case_at_lane_budget(self, k):
        # all-15 codes: every sub-lane reaches 256 * 225 = 57600 per group
        a = np.full((2, k), 15, dtype=np.uint8)
        w = np.full((3, k), 15, dtype=np.uint8)
        p = pack_int4(w)
        expect = naive_int_gemm(a, w)
        assert expect[0, 0] == 225 * k
        vector = gemm_int4_raw(a, p)
        assert vector.dtype == np.int64
        np.testing.assert_array_equal(vector, expect)
        np.testing.assert_array_equal(gemm_int4_raw(a, p, impl="scalar"), expect)

    @pytest.mark.parametrize("k", [0, 1, 257, 513])
    @pytest.mark.parametrize("rows", [1, 5, 6])
    def test_lane_halves_in_row_order(self, k, rows):
        """Each register word's low 16 bits are row 2p and its high 16 bits
        row 2p + 1. The first pair's cells are 0x1F (row 0 reads 15, row 1
        reads 1), the rest random, and odd ``rows`` leave a zero pad nibble:
        the vector model, the scalar model and the int64 oracle agree, and
        would not with the halves swapped."""
        rng = np.random.default_rng(k + rows)
        w = rng.integers(0, 16, (rows, k))
        w[:2] = [[15], [1]][:rows]
        a = rng.integers(0, 16, (3, k)).astype(np.uint8)
        a[0] = 15
        p = pack_int4(w)
        if k:
            assert p.data[0, 0] == (0x1F if rows > 1 else 0x0F)
        want = naive_int_gemm(a, w)
        vector = gemm_int4_raw(a, p)
        assert vector.dtype == np.int64 and vector.shape == (3, rows)
        np.testing.assert_array_equal(vector, want)
        np.testing.assert_array_equal(gemm_int4_raw(a, p, impl="scalar"), want)
        if k and rows > 1:
            assert vector[0, 0] == 225 * k and vector[0, 1] == 15 * k

    @pytest.mark.parametrize("scale, zp", [
        (-1.0, 5), (0.0, 5), (np.nan, 5), (np.inf, 5), (-np.inf, 5),
        (1.0, 5.5), (1.0, -1), (1.0, 16), (1.0, "3"), (1.0, np.float64(3.0)),
    ])
    def test_unusable_params_rejected(self, scale, zp):
        """act_scale must be finite and positive and act_zero_point an integer
        in 0..15: ``Int4GemmParams(-1.0, 5.5, ...)`` used to give 199.5
        everywhere."""
        with pytest.raises(KernelError, match="act_"):
            Int4GemmParams(act_scale=scale, act_zero_point=zp, weight_scales=np.ones(2))

    @pytest.mark.parametrize("scale, zp", [(1e-30, 0), (3e38, 15), (np.float32(0.5), np.int64(8)),
                                           (1.0, np.uint8(15))])
    def test_usable_params_accepted(self, scale, zp):
        packed = pack_weights_for_gemm(np.full((4, 2), 8, dtype=np.uint8))
        params = Int4GemmParams(act_scale=scale, act_zero_point=zp, weight_scales=np.ones(2))
        a = np.full((1, 4), zp, dtype=np.uint8)
        np.testing.assert_array_equal(gemm_int4_packed(a, packed, params), 0.0)

    def test_all_codes_at_zero_point_gives_zero(self):
        k, n = 20, 6
        a = np.full((3, k), 8, dtype=np.uint8)
        w_nibbles = np.full((k, n), 8, dtype=np.uint8)
        packed = pack_weights_for_gemm(w_nibbles)
        params = Int4GemmParams(
            act_scale=0.1, act_zero_point=8, weight_scales=np.full(n, 0.2)
        )
        out = gemm_int4_packed(a, packed, params)
        np.testing.assert_array_equal(out, 0.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 600), st.integers(1, 6), st.integers(1, 9), st.integers(0, 15),
           st.sampled_from([None, 0, 15]), st.sampled_from([None, 0, 15]),
           st.integers(0, 2**32 - 1))
    def test_packed_equals_int64_oracle(self, k, m, n, zp_a, a_fill, w_fill, seed):
        # one to three lane groups; all-0/all-15 codes put every sum at an end
        rng = np.random.default_rng(seed)

        def codes(shape, fill):
            c = rng.integers(0, 16, shape) if fill is None else np.full(shape, fill)
            return c.astype(np.uint8)

        a = codes((m, k), a_fill)
        packed = pack_weights_for_gemm(codes((k, n), w_fill))
        params = Int4GemmParams(act_scale=float(rng.uniform(1e-3, 2.0)),
                                act_zero_point=zp_a, weight_scales=rng.uniform(1e-3, 2.0, n))
        got = gemm_int4_packed(a, packed, params)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, int64_gemm_int4_packed(a, packed, params))

    @pytest.mark.parametrize("scales", [np.full(5, 0.2), np.full(7, 0.2), np.full((6, 1), 0.2),
                                        0.2])
    def test_one_weight_scale_per_output_row(self, scales):
        """Weight scales that are not one per packed output row (6 here) raise
        ``KernelError``, not a numpy broadcast error or a silent broadcast."""
        packed = pack_weights_for_gemm(np.full((4, 6), 8, dtype=np.uint8))
        params = Int4GemmParams(act_scale=0.1, act_zero_point=8, weight_scales=scales)
        with pytest.raises(KernelError, match="weight scales for 6 output rows"):
            gemm_int4_packed(np.full((3, 4), 8, dtype=np.uint8), packed, params)

    @pytest.mark.parametrize("seed", range(10))
    def test_packed_matches_dequant_oracle(self, seed):
        rng = np.random.default_rng(seed + 70)
        m, k, n = 6, 32, 5
        x = rng.standard_normal((m, k)).astype(np.float32)
        w = rng.standard_normal((k, n)).astype(np.float32)
        aq = quantize_affine(x, fit_affine(x, 4))
        wq = quantize_weight_symmetric(w, fit_weight_symmetric(w, 4))
        packed = pack_weights_for_gemm((wq.codes + 8).astype(np.uint8))
        params = Int4GemmParams(
            act_scale=aq.params.scale,
            act_zero_point=aq.params.zero_point,
            weight_scales=wq.params.scales,
        )
        got = gemm_int4_packed(aq.codes, packed, params)
        a_hat = (aq.codes.astype(np.float64) - aq.params.zero_point) * aq.params.scale
        w_hat = wq.codes.astype(np.float64) * wq.params.scales[None, :]
        np.testing.assert_allclose(got, a_hat @ w_hat, rtol=1e-4, atol=1e-4)


class TestGemmLog2AttnV:
    def test_one_hot_rows_select_values(self):
        probs = np.eye(3, dtype=np.float32)
        v = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
        pq = quantize_log2(probs, 4)
        vq = quantize_affine(v, fit_affine(v, 8))
        got = gemm_log2_attnv(pq, vq)
        v_hat = (vq.codes.astype(np.float64) - vq.params.zero_point) * vq.params.scale
        np.testing.assert_allclose(got, v_hat, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dequant_oracle(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((6, 6))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        v = rng.standard_normal((6, 8)).astype(np.float32)
        pq = quantize_log2(probs.astype(np.float32), 4)
        vq = quantize_affine(v, fit_affine(v, 8))
        got = gemm_log2_attnv(pq, vq)
        from agq.quantizers import dequantize_affine, dequantize_log2

        oracle = dequantize_log2(pq).astype(np.float64) @ dequantize_affine(vq).astype(
            np.float64
        )
        np.testing.assert_allclose(got, oracle, rtol=1e-5, atol=1e-6)

    def test_all_zero_probs(self):
        pq = quantize_log2(np.zeros((2, 3), dtype=np.float32), 4)
        v = np.ones((3, 2), dtype=np.float32)
        vq = quantize_affine(v, fit_affine(v, 8))
        np.testing.assert_array_equal(gemm_log2_attnv(pq, vq), 0.0)

    def test_kind_checks(self):
        v = np.ones((3, 2), dtype=np.float32)
        vq = quantize_affine(v, fit_affine(v, 8))
        with pytest.raises(KernelError):
            gemm_log2_attnv(vq, vq)

    @settings(max_examples=60, deadline=None)
    @given(shapes, st.integers(0, 2**32 - 1), amplitudes, st.integers(2, 6))
    def test_equals_int64_oracle(self, shape, seed, amp, bits):
        m, k, n = shape
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((m, k)) * 4
        probs = np.exp(logits) * rng.choice([-1.0, 0.0, 1.0], size=(m, k))
        pq = quantize_log2(probs.astype(np.float32), bits)
        v = _normal(rng, (k, n), amp)
        vq = quantize_affine(v, fit_affine(v, 8))
        with np.errstate(over="ignore"):  # 3e30 x 3e38 is Inf on both sides
            got, expect = gemm_log2_attnv(pq, vq), int64_gemm_log2_attnv(pq, vq)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expect)

    def test_float_codes_and_signs_rejected(self):
        # a float GEMM against these value codes returned [[1.75]]
        pq = quantize_log2(np.ones((1, 2), dtype=np.float32), 4)
        rng8 = CodeRange(8, signed=False)
        vq = QuantTensor(np.array([[0.5], [1.25]]), AffineParams(rng8, 1.0, 0))
        int_v = QuantTensor(np.array([[1], [2]], dtype=np.int32), vq.params)
        float_codes = QuantTensor(pq.codes.astype(np.float64), pq.params, pq.signs)
        float_signs = QuantTensor(pq.codes, pq.params, pq.signs.astype(np.float32))
        for p, v in ((pq, vq), (float_codes, int_v), (float_signs, int_v)):
            with pytest.raises(KernelError, match="integers"):
                gemm_log2_attnv(p, v)

    @pytest.mark.parametrize("k,width", [(514, np.float32), (515, np.float64)])
    def test_worst_case_sums_at_the_float32_bound(self, k, width, widths):
        """4-bit log2 (Ks = 7) at code 0 against value codes 255 from zero
        point 0: every term is 2^7 * 255, and k * 2^7 * 255 is below 2^24 at
        k = 514, past it at k = 515. Rows of one sign and rows of alternating
        signs match the int64 oracle bit for bit."""
        assert (k * 2**7 * 255 < EXACT_F32_LIMIT) == (width is np.float32)
        probs = np.ones((4, k), dtype=np.float32)
        probs[1] = -1.0
        probs[2, 1::2] = -1.0
        probs[3, : k // 2] *= -1.0
        pq = quantize_log2(probs, 4)
        assert pq.params.code_hi == 7 and not pq.codes.any()
        codes = np.full((k, 3), 255, dtype=np.int32)
        codes[1::2, 1] = 0
        codes[: k // 3, 2] = 0
        for zp in (0, 255):
            vq = QuantTensor(codes if zp == 0 else 255 - codes,
                             AffineParams(CodeRange(8, signed=False), 0.5, zp))
            got = gemm_log2_attnv(pq, vq)
            np.testing.assert_array_equal(got, int64_gemm_log2_attnv(pq, vq))
            sign = 1 if zp == 0 else -1
            assert got[0, 0] == np.float32(sign * k * 255 * 0.5)
        assert widths == [width] * 2

    # 6-bit log2 codes reach Ks = 31: exact in float64 while k * 2^31 * 255 < 2^53
    K_EXACT_6BIT = (EXACT_F64_LIMIT - 1) // (2**31 * 255)

    def _six_bit_worst_case(self, k):
        probs = np.ones((2, k), dtype=np.float32)
        probs[1, 1::2] = -1.0  # cancelling signs at full magnitude
        pq = quantize_log2(probs, 6)
        assert pq.params.code_hi == 31 and not pq.codes.any()
        codes = np.full((k, 2), 255, dtype=np.int32)
        codes[::3, 1] = 0
        vq = QuantTensor(codes, AffineParams(CodeRange(8, signed=False), 0.5, 0))
        return pq, vq

    def test_six_bit_just_below_bound_matches_int64(self):
        k = self.K_EXACT_6BIT
        assert k * 2**31 * 255 < EXACT_F64_LIMIT <= (k + 1) * 2**31 * 255
        pq, vq = self._six_bit_worst_case(k)
        got = gemm_log2_attnv(pq, vq)
        np.testing.assert_array_equal(got, int64_gemm_log2_attnv(pq, vq))
        assert got[0, 0] == np.float32(k * 255 * 0.5)

    @pytest.mark.parametrize("bits", [7, 8])
    def test_wider_log2_raises_at_any_k(self, bits):
        # Ks = 63 or 127: even k = 1 leaves no float64 headroom
        pq = quantize_log2(np.ones((1, 1), dtype=np.float32), bits)
        vq = quantize_affine(np.ones((1, 2), dtype=np.float32),
                             fit_affine(np.ones((1, 2), dtype=np.float32), 8))
        with pytest.raises(KernelError):
            gemm_log2_attnv(pq, vq)

    def test_six_bit_past_bound_raises(self):
        pq, vq = self._six_bit_worst_case(self.K_EXACT_6BIT + 1)
        with pytest.raises(KernelError, match="2\\^53"):
            gemm_log2_attnv(pq, vq)


def _stack(rng, heads, rows, cols, amplitude, positive=False):
    """A (heads, rows, cols) stack of 8-bit affine codes, one fit per head.
    Non-negative values put every zero point at 0: centred codes up to 255."""
    x = _normal(rng, (rows, heads * cols), amplitude)
    (q,) = _quantize_heads(np.abs(x) if positive else x, 1, heads, 8)
    return q


def _centred(q) -> int:
    """The largest |code - zero point| of an 8-bit affine stack's range."""
    zp = q.params.zero_point
    return int(max(zp.max(), 255 - zp.min()))


class TestStackedCalls:
    """A (heads, rows, cols) operand with per-head params multiplies as its
    heads would one by one; the operand's ndim picks the stacked call."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1),
           amplitudes, st.sampled_from([np.float32, np.float64]))
    def test_int_affine_equals_per_head_calls(self, heads, m, n, seed, amp, width):
        """Bit for bit, at both GEMM widths, a stack against a stack and a
        stack against one shared weight matrix."""
        rng = np.random.default_rng(seed)
        # k <= 200 keeps 200 * 255 * 255 below 2^24; 300 * 255 * 255 is past it
        k = int(rng.integers(1, 201) if width is np.float32 else rng.integers(300, 601))
        a = _stack(rng, heads, m, k, amp, positive=width is np.float64)
        b = _stack(rng, heads, k, n, amp, positive=width is np.float64)
        assert check_exact(k, _centred(a), _centred(b)) is width
        w = rng.standard_normal((k, n)).astype(np.float32)
        wq = quantize_weight_symmetric(w, fit_weight_symmetric(w, 4))
        with np.errstate(over="ignore"):  # 3e38 x 3e38 is Inf on both sides
            stacked, shared = gemm_int_affine(a, b), gemm_int_affine(a, wq)
            heads_alone = [(gemm_int_affine(head(a, h), head(b, h)),
                            gemm_int_affine(head(a, h), wq)) for h in range(heads)]
            assert stacked.tobytes() == int64_gemm_int_affine(a, b).tobytes()
        assert stacked.shape == shared.shape == (heads, m, n)
        for h, (alone, alone_shared) in enumerate(heads_alone):
            assert stacked[h].tobytes() == alone.tobytes()
            assert shared[h].tobytes() == alone_shared.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1),
           amplitudes, st.sampled_from([np.float32, np.float64]))
    def test_log2_attnv_equals_per_head_calls(self, heads, m, n, seed, amp, width):
        """Bit for bit, at both GEMM widths: log2 probabilities sharing one
        maximum against per-head value params."""
        rng = np.random.default_rng(seed)
        # 4-bit log2 (Ks = 7) against codes centred up to 255: float32 to k = 514
        k = int(rng.integers(1, 301) if width is np.float32 else rng.integers(515, 701))
        probs = rng.random((heads, m, k)).astype(np.float32)
        pq = _quantize_log2(probs, 4, 1.0)
        vq = _stack(rng, heads, k, n, amp, positive=width is np.float64)
        assert check_exact(k, 2**7, _centred(vq)) is width
        with np.errstate(over="ignore"):  # sums near 3e38 are Inf on both sides
            got = gemm_log2_attnv(pq, vq)
            heads_alone = [gemm_log2_attnv(head(pq, h), head(vq, h)) for h in range(heads)]
            assert got.tobytes() == int64_gemm_log2_attnv(pq, vq).tobytes()
        assert got.shape == (heads, m, n)
        for h, alone in enumerate(heads_alone):
            assert got[h].tobytes() == alone.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 70), st.integers(1, 130), st.integers(1, 70),
           st.integers(0, 2**32 - 1), st.sampled_from([1e-30, 1e-3, 1.0, 1e3]))
    def test_f32_equals_per_head_calls(self, heads, m, k, n, seed, amp):
        """The same bytes as per-head calls, for a contiguous stack against
        a transposed view, as the pipeline passes queries and keys."""
        rng = np.random.default_rng(seed)
        a = _normal(rng, (heads, m, k), amp)
        w = _normal(rng, (heads, n, k), amp).transpose(0, 2, 1)
        got = gemm_f32(a, w)
        assert got.dtype == np.float32 and got.shape == (heads, m, n)
        for h in range(heads):
            assert got[h].tobytes() == gemm_f32(a[h], w[h]).tobytes()

    def test_head_count_mismatch_raises(self):
        """Codes and params, or two stacks, of different head counts raise
        ``KernelError`` rather than broadcast; so do 4-D codes."""
        rng = np.random.default_rng(0)
        a, b = _stack(rng, 3, 4, 5, 1.0), _stack(rng, 3, 5, 2, 1.0)
        pq = _quantize_log2(rng.random((3, 4, 5)).astype(np.float32), 4, 1.0)
        per_head = r"per-head params \(3, 1, 1\)"
        cases = [
            (gemm_int_affine, a, _stack(rng, 2, 5, 2, 1.0), "head counts differ"),
            (gemm_int_affine, QuantTensor(a.codes[:2], a.params), head(b, 0), per_head),
            (gemm_int_affine, QuantTensor(a.codes[0], a.params), head(b, 0), per_head),
            (gemm_int_affine, head(a, 0), QuantTensor(b.codes[0], b.params), per_head),
            (gemm_log2_attnv, head(pq, 0), QuantTensor(b.codes[:1], b.params), per_head),
            (gemm_log2_attnv, pq, _stack(rng, 2, 5, 2, 1.0), "head counts differ"),
            (gemm_int_affine, QuantTensor(a.codes[None], a.params), b, per_head),
            (gemm_f32, np.zeros((3, 4, 5)), np.zeros((2, 5, 2)), "head counts differ"),
        ]
        for kernel, lhs, rhs, match in cases:
            with pytest.raises(KernelError, match=match):
                kernel(lhs, rhs)
        with pytest.raises(ValueError, match="4-D"):  # as_tensor2d's float check
            gemm_f32(np.zeros((1, 3, 4, 5)), np.zeros((5, 2)))


class TestCheckExact:
    def test_boundary(self):
        check_exact(2**20, 2**16, 2**16)  # 2^52
        with pytest.raises(KernelError):
            check_exact(2**21, 2**16, 2**16)  # 2^53

    def test_narrowest_exact_width(self):
        assert EXACT_F32_LIMIT == 2**24 and EXACT_F64_LIMIT == 2**53
        assert check_exact(0, 255, 255) is np.float32
        assert check_exact(1, 1, 2**24 - 1) is np.float32  # just below 2^24
        assert check_exact(258, 255, 255) is np.float32  # 16,776,450
        assert check_exact(1, 1, 2**24) is np.float64  # at 2^24
        assert check_exact(2**8, 2**8, 2**8) is np.float64
        assert check_exact(1, 1, 2**53 - 1) is np.float64  # just below 2^53
        with pytest.raises(KernelError, match="2\\^53"):
            check_exact(1, 1, 2**53)  # at 2^53
        with pytest.raises(KernelError, match="2\\^53"):
            check_exact(2**27, 2**13, 2**13)
