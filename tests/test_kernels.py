import numpy as np
import pytest
from helpers import (
    int64_gemm_int4_packed,
    int64_gemm_int_affine,
    int64_gemm_log2_attnv,
    naive_int_gemm,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import agq
from agq.kernels import (
    EXACT_F64_LIMIT,
    MAX_LANE_ADDITIONS,
    AccumulatorBudgetError,
    Int4GemmParams,
    KernelError,
    LaneAccumulator,
    bench_gemm,
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


class TestCheckExact:
    def test_boundary(self):
        check_exact(2**20, 2**16, 2**16)  # 2^52
        with pytest.raises(KernelError):
            check_exact(2**21, 2**16, 2**16)  # 2^53


class TestBench:
    def test_result_fields(self):
        r = bench_gemm(8, 8, 8, "f32", repeats=3)
        assert r["kernel"] == "f32"
        assert r["repeats"] == 3
        assert r["median_ns"] > 0
        assert r["p10_ns"] <= r["median_ns"] <= r["p90_ns"]
        assert len(r["input_checksum"]) == 16

    def test_checksum_seed_stable(self):
        r1 = bench_gemm(8, 16, 8, "int4", repeats=3, seed=5)
        r2 = bench_gemm(8, 16, 8, "int4", repeats=3, seed=5)
        assert r1["input_checksum"] == r2["input_checksum"]

    def test_validation(self):
        with pytest.raises(KernelError):
            bench_gemm(8, 8, 8, "f32", repeats=1)
        with pytest.raises(KernelError):
            bench_gemm(8, 8, 8, "fp16", repeats=3)
