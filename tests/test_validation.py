"""Where input is validated: once at each public entry point.

The public quantizers and TRIP functions check their tensor argument with
``as_tensor2d``; the forward pass checks its input once per call and then
trusts its own stages, which ``forward_block`` checks for overflow. The
same call counts show that a forward pass computes its per-site diagnostics
only for a caller that passes a ``trace`` list, and that ``agq eval`` runs
each block computation its passes share once.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from helpers import head, int64_gemm_int_affine, int64_gemm_log2_attnv, stats_bytes

import agq
from agq.cli import main
from agq.pipeline import BlockConfig, forward_stack, init_stack, preset_sites

GOOD = np.random.default_rng(0).uniform(-2.0, 2.0, size=(6, 5)).astype(np.float32)
GOOD[:, 1] *= 40.0  # one outlier channel, so TRIP picks distinct exponents

# name -> call taking the tensor under test; fitted params come from GOOD
WRAPPED = {
    "fit_affine": lambda x: agq.fit_affine(x, 8),
    "quantize_affine": lambda x: agq.quantize_affine(x, agq.fit_affine(GOOD, 8)),
    "quantize_log2": lambda x: agq.quantize_log2(x, 4),
    "fit_weight_symmetric": lambda x: agq.fit_weight_symmetric(x, 4),
    "quantize_weight_symmetric": lambda x: agq.quantize_weight_symmetric(
        x, agq.fit_weight_symmetric(GOOD, 4)),
    "fit_trip": lambda x: agq.fit_trip(x, 8, 3),
    "quantize_trip": lambda x: agq.quantize_trip(x, agq.fit_trip(GOOD, 8, 3)),
    # a (5, 6) weight against the 5 exponents fitted on GOOD
    "fold_trip_into_weights": lambda w: agq.fold_trip_into_weights(
        w.T, agq.fit_trip(GOOD, 8, 3)),
}


def _canon(value):
    """A comparable form of a result: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_canon(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


def _bad_inputs():
    nan, inf = GOOD.copy(), GOOD.copy()
    nan[2, 3] = np.nan
    inf[4, 0] = np.inf
    return {"nan": nan, "inf": inf, "1-D": GOOD.ravel(), "3-D": GOOD[None]}


@pytest.mark.parametrize("bad", sorted(_bad_inputs()))
@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_public_functions_reject_bad_tensors(name, bad):
    with pytest.raises(ValueError):
        WRAPPED[name](_bad_inputs()[bad])


@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_views_and_float64_match_contiguous_float32(name):
    wide = np.repeat(GOOD, 2, axis=1)
    view = wide[:, ::2]
    assert not view.flags.c_contiguous and np.array_equal(view, GOOD)
    want = _canon(WRAPPED[name](GOOD))
    assert _canon(WRAPPED[name](view)) == want
    assert _canon(WRAPPED[name](GOOD.astype(np.float64))) == want


@pytest.mark.parametrize("bad", sorted(_bad_inputs()))
def test_forward_entry_rejects_bad_tensors(bad):
    """The forward pass's one input check: nothing past it re-validates."""
    cfg = BlockConfig(d_model=GOOD.shape[1], n_heads=1, sites=preset_sites("w4a8"))
    blocks = init_stack(cfg, 2)
    x = _bad_inputs()[bad]
    with pytest.raises(ValueError):
        agq.forward_block(blocks[0], x)
    with pytest.raises(ValueError):
        forward_stack(blocks, x)


def _counting(monkeypatch, module, name):
    """Record the positional arguments of every call through ``module.name``,
    in every agq module bound to it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "agq" or mod_name.startswith("agq."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("act_quantizer", ["trip", "affine"])
def test_forward_stack_validates_once_per_call_and_block(monkeypatch, act_quantizer):
    """Counts, never times: the input is checked at forward_stack and
    forward_block entry only, while every integer kernel call still goes
    through the public kernel names that outside wrappers replace."""
    n_blocks = 4
    cfg = BlockConfig(sites=preset_sites("w4a8", act_quantizer=act_quantizer))
    blocks = init_stack(cfg, n_blocks)
    x = np.random.default_rng(1).standard_normal((16, cfg.d_model)).astype(np.float32)
    checks = _counting(monkeypatch, agq.tensor_store, "as_tensor2d")
    affine = _counting(monkeypatch, agq.kernels, "gemm_int_affine")
    attnv = _counting(monkeypatch, agq.kernels, "gemm_log2_attnv")
    forward_stack(blocks, x)
    assert len(checks) <= 1 + n_blocks
    # per block: linear_transform, projection, fc1, fc2 and the one band's
    # qk (T = 16), all heads in one call, and its attn_v
    assert len(affine) == n_blocks * (4 + 1)
    assert len(attnv) == n_blocks


@pytest.mark.parametrize("t,traced", [
    pytest.param(t, traced, id=f"{t}-traced" if traced else str(t))
    for t in (16, 65, 128, 192, 256, 300) for traced in (False, True)])
def test_row_bands_call_the_public_kernels(monkeypatch, t, traced):
    """At every length every qk and attn_v product still goes through the
    public kernel names that outside wrappers (the benchmark's oracles)
    replace: one qk and one attn_v call per causal row band ``[r0, r1)``, of
    all heads at once, the band's (heads, r1 - r0, d_head) queries against
    (heads, d_head, r1) keys and the attn_v inner dimension r1. Every head
    of every call equals the int64 oracle on that head alone. A ``trace``
    records the pass without changing it: it makes the same calls."""
    cfg = BlockConfig(sites=preset_sites("w4a4"))
    block = agq.init_block(cfg)
    x = np.random.default_rng(t).standard_normal((t, cfg.d_model)).astype(np.float32)
    kernels = agq.kernels.gemm_int_affine, agq.kernels.gemm_log2_attnv
    affine = _counting(monkeypatch, agq.kernels, "gemm_int_affine")
    attnv = _counting(monkeypatch, agq.kernels, "gemm_log2_attnv")
    trace = [] if traced else None
    agq.forward_block(block, x, trace=trace)
    rows = agq.pipeline.BAND_ROWS
    bands = [(r0, min(r0 + rows, t)) for r0 in range(0, t, rows)]
    assert len(bands) == -(-t // rows)
    nh, dh = cfg.n_heads, cfg.d_head
    qk = [(aq, wq) for aq, wq in affine if wq.kind == "affine"]
    assert sorted((aq.codes.shape, wq.codes.shape) for aq, wq in qk) == sorted(
        ((nh, r1 - r0, dh), (nh, dh, r1)) for r0, r1 in bands)
    assert sorted((pq.codes.shape, vq.codes.shape) for pq, vq in attnv) == sorted(
        ((nh, r1 - r0, r1), (nh, r1, dh)) for r0, r1 in bands)
    for kernel, oracle, calls in zip(kernels, (int64_gemm_int_affine, int64_gemm_log2_attnv),
                                     (qk, attnv)):
        for a, b in calls:
            out = kernel(a, b)
            for h in range(nh):
                assert out[h].tobytes() == oracle(head(a, h), head(b, h)).tobytes()
    if traced:
        assert [r["site"] for r in trace].count("attn_v") == cfg.n_heads


@pytest.mark.parametrize("qk_bits,av_bits", [(8, 4), (8, 32), (32, 4), (32, 32)])
@pytest.mark.parametrize("t", [16, 300])
def test_one_qk_and_one_attnv_call_per_band_at_every_precision(monkeypatch, qk_bits, av_bits,
                                                               t):
    """Whatever precision each attention site runs at, every causal row band
    makes exactly one qk kernel call and one attn_v kernel call, all heads
    stacked in each; no weight-site call takes a stack."""
    sites = {**preset_sites("w4a8"), "qk": agq.SiteConfig(act_bits=qk_bits),
             "attn_v": agq.SiteConfig(act_bits=av_bits)}
    cfg = BlockConfig(sites=sites)
    block = agq.init_block(cfg)
    x = np.random.default_rng(t).standard_normal((t, cfg.d_model)).astype(np.float32)
    names = ("gemm_f32", "gemm_int_affine", "gemm_log2_attnv")
    calls = {name: _counting(monkeypatch, agq.kernels, name) for name in names}
    agq.forward_block(block, x)

    def shape(operand):
        return getattr(operand, "codes", operand).shape

    stacked = [(name, shape(a), shape(b)) for name, args in calls.items() for a, b in args
               if len(shape(a)) == 3]
    nh, dh, rows = cfg.n_heads, cfg.d_head, agq.pipeline.BAND_ROWS
    bands = [(r0, min(r0 + rows, t)) for r0 in range(0, t, rows)]
    qk = "gemm_int_affine" if qk_bits == 8 else "gemm_f32"
    av = "gemm_log2_attnv" if av_bits < 32 else "gemm_f32"
    want = [(qk, (nh, r1 - r0, dh), (nh, dh, r1)) for r0, r1 in bands]
    want += [(av, (nh, r1 - r0, r1), (nh, r1, dh)) for r0, r1 in bands]
    assert sorted(stacked) == sorted(want)


@pytest.mark.parametrize("act_quantizer", ["trip", "affine"])
def test_diagnostics_run_only_for_a_trace(monkeypatch, act_quantizer):
    """Counts, never times: a bare forward pass runs no dequantizer and
    quantizes q, k and v in one call per block; a ``trace`` list turns the
    per-site dequantizations on (4 weight sites and one attn_v per band, of
    all heads; T = 16 is one band). Weight sites are TRIP for both
    quantizers (affine is cap 0)."""
    n_blocks = 4
    cfg = BlockConfig(sites=preset_sites("w4a8", act_quantizer=act_quantizer))
    blocks = init_stack(cfg, n_blocks)
    x = np.random.default_rng(1).standard_normal((16, cfg.d_model)).astype(np.float32)
    calls = {name: _counting(monkeypatch, module, name) for module, name in (
        (agq.trip, "dequantize_trip"), (agq.quantizers, "dequantize_log2"),
        (agq.quantizers, "dequantize_affine"), (agq.quantizers, "_quantize_heads"))}
    forward_stack(blocks, x)
    assert {name: len(c) for name, c in calls.items()} == {
        "dequantize_trip": 0, "dequantize_log2": 0, "dequantize_affine": 0,
        "_quantize_heads": n_blocks}
    for c in calls.values():
        c.clear()
    forward_stack(blocks, x, trace=[])
    weight_sites = 4 * n_blocks
    assert {name: len(c) for name, c in calls.items()} == {
        "dequantize_trip": weight_sites,
        "dequantize_log2": n_blocks,
        "dequantize_affine": 0,
        "_quantize_heads": n_blocks}


@pytest.mark.parametrize("mode", ["fp32", "w4a8", "w4a4"])
@pytest.mark.parametrize("act_quantizer", ["trip", "affine"])
def test_trace_records_without_changing_the_pass(mode, act_quantizer):
    """With ``trace=[]`` each quantized block appends its 4 weight-site
    records and one attn_v record per head, in pass order; the output,
    attention statistics and kept indices equal the bare pass's. At T = 256 the
    two blocks up to the prune run causal row bands, traced or not."""
    n_blocks = 3
    cfg = BlockConfig(sites=preset_sites(mode, act_quantizer=act_quantizer))
    blocks = init_stack(cfg, n_blocks)
    schedule = agq.make_schedule(n_blocks, 1, 0.5, 1)
    sites = cfg.sites
    per_block = [(name, sites[name].act_bits) for name in (
        ["linear_transform"] + ["attn_v"] * cfg.n_heads + ["projection", "fc1", "fc2"])
    ] if sites else []
    for t in (12, 256):
        x = np.random.default_rng(2).standard_normal((t, cfg.d_model)).astype(np.float32)
        records = []
        out, info = forward_stack(blocks, x, schedule=schedule, trace=records)
        bare_out, bare_info = forward_stack(blocks, x, schedule=schedule)
        assert out.tobytes() == bare_out.tobytes()
        assert info["keeps"] == bare_info["keeps"]
        assert [stats_bytes(s) for s in info["attention"]] == [
            stats_bytes(s) for s in bare_info["attention"]]
        assert "sites" not in info
        assert [(r["site"], r["act_bits"]) for r in records] == per_block * n_blocks
        assert all(r["mse"] >= 0.0 for r in records)
        one = []
        block_out, _ = agq.forward_block(blocks[0], x, trace=one)
        assert one == records[:len(per_block)]
        assert block_out.tobytes() == agq.forward_block(blocks[0], x)[0].tobytes()


@pytest.mark.parametrize("prune,calls", [
    ({"beta": 0.5, "m": 2}, 8 + 8 + 5 + 5),  # prune layers (2, 7): resume after block 2
    (None, 8 + 8),
])
def test_eval_runs_shared_blocks_once(monkeypatch, tmp_path, prune, calls):
    """Counts, never times: the FP32 and quantized passes run all 8 blocks;
    the pruned passes resume at the first prune layer and run blocks 3..7."""
    cfg = {"seed": 0, "sequence_length": 12,
           "block": {"d_model": 16, "n_heads": 2, "d_ff": 16, "n_blocks": 8},
           "quantization": {"mode": "w4a8"}}
    if prune:
        cfg["prune"] = prune
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blocks = _counting(monkeypatch, agq.pipeline, "forward_block")
    r = CliRunner().invoke(main, ["eval", "--config", str(path)])
    assert r.exit_code == 0, r.output
    assert [rec["name"] for rec in json.loads(r.stdout)["records"]] == (
        ["no_prune", "prune"] if prune else ["no_prune"])
    if prune:
        assert json.loads(r.stdout)["records"][1]["schedule"]["prune_layers"] == [2, 7]
    assert len(blocks) == calls
