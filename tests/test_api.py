"""Pins the public API surface and the CLI's commands, so a change to either
shows up in the diff, and the names and attributes the benchmark in agqbench/
looks up."""

import ast
import dataclasses
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import agq
import agq.cli
from agq.quantizers import _quantize_heads

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "AccumulatorBudgetError", "AffineParams", "AttentionStats", "Block", "BlockConfig",
    "ChannelSymmetricParams", "CodeRange", "Int4GemmParams", "LaneAccumulator",
    "Log2Params", "OutlierReport", "POST_ATTENTION_SITES", "PackedInt4Matrix",
    "PipelineError", "PruneSchedule", "QuantError", "QuantTensor", "SITES",
    "SiteConfig", "TripParams", "analyze_outliers", "attention_locality",
    "cosine_similarity", "default_start_layer", "dequantize_affine", "dequantize_log2",
    "dequantize_trip", "dequantize_weight_symmetric", "fit_affine", "fit_trip",
    "fit_weight_symmetric", "fold_trip_into_weights", "forward_block", "forward_stack",
    "gemm_f32", "gemm_int4_packed", "gemm_int4_raw", "gemm_int_affine",
    "gemm_log2_attnv", "init_block", "init_stack", "lane_multiply", "load_store",
    "make_outlier_input", "make_schedule", "make_stripe_input", "pack_int4",
    "pack_weights_for_gemm", "preset_sites", "prune_step", "quantize_affine",
    "quantize_log2", "quantize_trip", "quantize_weight_symmetric", "save_store",
    "score_tokens", "slice_rows", "sparsity", "unpack_int4",
]


def test_public_names():
    names = sorted(n for n in dir(agq) if not n.startswith("_")
                   and not isinstance(getattr(agq, n), types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 59


def test_cli_commands():
    assert sorted(agq.cli.main.commands) == ["analyze", "eval", "quantize"]


def test_site_config_fields():
    fields = [f.name for f in dataclasses.fields(agq.SiteConfig)]
    assert fields == ["act_bits", "trip_cap"]


def test_prune_schedule_fields():
    fields = [f.name for f in dataclasses.fields(agq.PruneSchedule)]
    assert fields == ["prune_layers", "final_ratio"]


def test_derived_fields_are_not_settable():
    fields = lambda cls: [f.name for f in dataclasses.fields(cls)]
    assert fields(agq.QuantTensor) == ["codes", "params", "signs"]
    assert fields(agq.Int4GemmParams) == ["act_scale", "act_zero_point", "weight_scales"]
    assert fields(agq.TripParams) == ["range", "scale", "zero_point", "alphas", "cap"]
    assert issubclass(agq.TripParams, agq.AffineParams)
    x = np.ones((2, 3), dtype=np.float32)
    with pytest.raises(TypeError):
        agq.QuantTensor(codes=x, params=agq.fit_affine(x, 8), kind="log2")
    with pytest.raises(TypeError):
        agq.Int4GemmParams(act_scale=1.0, act_zero_point=8, weight_scales=np.ones(3),
                           weight_zero_point=9)


def test_kind_follows_the_params_type():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 8)).astype(np.float32)
    outputs = [
        agq.quantize_affine(x, agq.fit_affine(x, 8)),
        agq.quantize_log2(x, 4),
        agq.quantize_trip(x, agq.fit_trip(x, 8, 3)),
        agq.quantize_weight_symmetric(x, agq.fit_weight_symmetric(x, 4)),
        *_quantize_heads(x, 2, 2, 8),  # two stacks of two heads
    ]
    for q in outputs:
        assert q.kind == q.params.kind
    assert [q.kind for q in outputs[:4]] == ["affine", "log2", "trip", "weight"]
    assert {q.kind for q in outputs[4:]} == {"affine"}


def benchmark_targets() -> dict:
    """``TARGETS`` from the benchmark's tracer, read from its source."""
    tree = ast.parse((ROOT / "agqbench" / "tracer.py").read_text())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("agqbench/tracer.py defines no TARGETS")


def test_benchmark_lookups_resolve():
    """The benchmark traces agq functions by module and name, and its oracles
    read a few attributes; all of them must stay defined."""
    targets = benchmark_targets()
    assert targets
    for layer, names in targets.items():
        module = importlib.import_module(f"agq.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"agq.{layer}.{name}"
    x = np.random.default_rng(1).standard_normal((4, 5)).astype(np.float32)
    q = agq.quantize_trip(x, agq.fit_trip(x, 8, 2))
    assert q.kind == "trip"
    assert isinstance(q.params.base, agq.AffineParams)
    assert agq.Int4GemmParams(1.0, 8, np.ones(3)).weight_zero_point == 8
