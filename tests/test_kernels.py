import numpy as np
import pytest
from helpers import naive_int_gemm

from agq.kernels import (
    MAX_LANE_ADDITIONS,
    AccumulatorBudgetError,
    Int4GemmParams,
    KernelError,
    LaneAccumulator,
    bench_gemm,
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
    fit_affine,
    fit_weight_symmetric,
    quantize_affine,
    quantize_log2,
    quantize_weight_symmetric,
)


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
