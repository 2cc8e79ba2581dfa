"""End-to-end acceptance gate: one test per contract criterion.

Each test prints a single PASS/FAIL line so a full run reads as a checklist.
"""

import numpy as np
from helpers import (
    PRUNE_SEEDS,
    locality_trial,
    naive_int_gemm,
    naive_trip_argmin,
    prune_benefit_trial,
)

import agq


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok


def test_01_lane_multiplier_exhaustive():
    ok = True
    for cell in range(256):
        lo, hi = cell & 0x0F, cell >> 4
        for a in range(16):
            prod = agq.lane_multiply(cell, a)
            if prod & 0xFF != lo * a or prod >> 8 != hi * a:
                ok = False
    report("lane multiplier exact on all 4096 nibble triples", ok)


def test_02_overflow_budget():
    acc = agq.LaneAccumulator()
    prod = agq.lane_multiply(0xFF, 15)
    for _ in range(256):
        acc.add(prod)
    ok = acc.sublanes == (57600, 57600)
    try:
        acc.add(prod)
        ok = False
    except agq.AccumulatorBudgetError:
        pass
    report("256-add budget exact, 257th add raises", ok)


def test_03_packed_gemm_oracle():
    rng = np.random.default_rng(2024)
    ok = True
    for i in range(1000):
        m = int(rng.integers(1, 65))
        k = 300 if i % 50 == 0 else int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        a = rng.integers(0, 16, (m, k))
        w = rng.integers(0, 16, (n, k))
        got = agq.gemm_int4_raw(a, agq.pack_int4(w))
        if not np.array_equal(got, naive_int_gemm(a, w)):
            ok = False
            break
    report("1000 packed GEMM instances bit-exact vs unpacked oracle", ok)


def test_04_quantizer_contracts():
    rng = np.random.default_rng(7)
    x = rng.uniform(-10, 10, (1000, 100)).astype(np.float32)
    p = agq.fit_affine(x, 8)
    q = agq.quantize_affine(x, p)
    recon = agq.dequantize_affine(q)
    ok = bool(np.max(np.abs(x - recon)) <= p.scale / 2 + 1e-6)
    ok &= q.codes.min() >= 0 and q.codes.max() <= 255
    dyadic = np.atleast_2d([0.75 * 2.0**-c for c in range(8)]).astype(np.float32)
    lq = agq.quantize_log2(dyadic, 4)
    ok &= bool(np.array_equal(agq.dequantize_log2(lq), dyadic))
    ok &= lq.codes.min() >= 0 and lq.codes.max() <= 7
    report("affine half-step bound on 1e5 samples; log2 dyadic exactness", ok)


def test_05_trip_argmin_optimality():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        t = int(rng.integers(2, 129))
        c = int(rng.integers(1, 33))
        cap = int(rng.integers(0, 5))
        x = rng.standard_normal((t, c)).astype(np.float32)
        x[:, rng.integers(0, c)] *= float(rng.uniform(2, 20))
        p = agq.fit_trip(x, 8, cap)
        oracle_alphas, errors, _, _ = naive_trip_argmin(x, 8, cap)
        if not np.array_equal(p.alphas, oracle_alphas):
            ok = False
            break
        for ch, errs in enumerate(errors):
            if errs[p.alphas[ch]] > min(errs) + 1e-12:
                ok = False
    report("100 refinement instances match brute-force exponent search", ok)


def test_06_folding_equivalence():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(100):
        t, d, n = int(rng.integers(2, 33)), int(rng.integers(1, 17)), int(rng.integers(1, 17))
        x = rng.standard_normal((t, d)).astype(np.float32)
        x[:, rng.integers(0, d)] *= 10.0
        p = agq.fit_trip(x, 8, cap=3)
        q = agq.quantize_trip(x, p)
        w = rng.standard_normal((d, n)).astype(np.float32)
        folded = agq.fold_trip_into_weights(w, p)
        via_fold = (
            (q.codes.astype(np.float64) - p.base.zero_point) @ folded.astype(np.float64)
        ) * p.base.scale
        via_dequant = agq.dequantize_trip(q).astype(np.float64) @ w.astype(np.float64)
        denom = max(float(np.abs(via_dequant).max()), 1e-12)
        if float(np.abs(via_fold - via_dequant).max()) / denom > 1e-4:
            ok = False
            break
    report("100 weight-folding instances agree with dequantized path (1e-4)", ok)


def test_07_trip_dominance():
    rng = np.random.default_rng(77)
    ok = True
    checked = 0
    for _ in range(100):
        t, c = int(rng.integers(8, 65)), int(rng.integers(2, 17))
        x = rng.standard_normal((t, c)).astype(np.float32)
        for ch in rng.choice(c, size=max(1, c // 4), replace=False):
            x[:, ch] *= float(rng.uniform(8, 32))
        cap = 3
        p = agq.fit_trip(x, 8, cap)
        _, errors, _, _ = naive_trip_argmin(x, 8, cap)
        for ch, errs in enumerate(errors):
            checked += 1
            if errs[p.alphas[ch]] > errs[cap] + 1e-12:
                ok = False
    report(f"refined error <= uncapped-exponent error in {checked}/{checked} channels", ok)


def test_08_schedule_algebra():
    ok = True
    for beta in np.arange(0.05, 0.501, 0.05):
        for m in range(1, 9):
            g = agq.make_schedule(10, 0, float(beta), m).per_layer_ratio
            if abs((1 - g) ** m - (1 - beta)) > 1e-9:
                ok = False
    g = agq.make_schedule(8, 0, 0.3, 4).per_layer_ratio
    ok &= abs(g - 0.08531) <= 1e-5
    report("schedule algebra holds on the beta x m grid; gamma(0.3, 4) = 0.08531", ok)


def test_09_pruning_invariants():
    ok = True
    for seed in PRUNE_SEEDS:
        r = prune_benefit_trial(seed)
        if 0 not in r["kept_global"]:
            ok = False
        if r["div_prune"] > r["div_noprune"]:
            ok = False
        # nested cascade: later kept-global sets shrink monotonically
        pre = agq.analyze_outliers(r["x"], 3.0).counts.sum()
        post = agq.analyze_outliers(r["x"][r["kept_global"]], 3.0).counts.sum()
        if post > pre:
            ok = False
    report("20 seeds: start token kept, prune divergence <= no-prune, outliers pruned", ok)


def test_10_pipeline_passthrough_and_monotonicity():
    ok = True
    for seed in range(20):
        cfg8 = agq.BlockConfig(sites=agq.preset_sites("w4a8"), seed=seed)
        cfg4 = agq.BlockConfig(sites=agq.preset_sites("w4a4"), seed=seed)
        fp_cfg = agq.BlockConfig(sites={}, seed=seed)
        pt_cfg = agq.BlockConfig(sites=dict.fromkeys(agq.SITES, agq.SiteConfig(act_bits=32)),
                                 seed=seed)
        b = agq.init_block(cfg8)
        x = np.random.default_rng(seed + 100).standard_normal((16, 64)).astype(np.float32)
        fp_out, _ = agq.forward_block(b, x, fp_cfg)
        pt_records = []
        pt_out, _ = agq.forward_block(b, x, pt_cfg, trace=pt_records)
        if not np.array_equal(pt_out, fp_out) or pt_records:
            ok = False
        cos8 = agq.cosine_similarity(agq.forward_block(b, x, cfg8)[0], fp_out)
        cos4 = agq.cosine_similarity(agq.forward_block(b, x, cfg4)[0], fp_out)
        if 1.0 - cos4 < 1.0 - cos8:
            ok = False
        lf, lq = locality_trial(seed)
        if lq < lf:
            ok = False
    report("20 seeds: FP pass-through bitwise, W4A4 >= W4A8 divergence, "
           "quantized locality >= FP", ok)
