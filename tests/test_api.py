"""Pins the public API surface, so a change to its size shows up in the diff."""

import dataclasses
import types

import agq

PUBLIC_NAMES = [
    "AccumulatorBudgetError", "AffineParams", "AttentionMap", "Block", "BlockConfig",
    "ChannelSymmetricParams", "CodeRange", "Int4GemmParams", "LaneAccumulator",
    "Log2Params", "OutlierReport", "POST_ATTENTION_SITES", "PackedInt4Matrix",
    "PipelineError", "PruneSchedule", "QuantError", "QuantTensor", "SITES", "SiteConfig",
    "TokenImportance", "TripParams", "analyze_outliers", "attention_locality",
    "bench_gemm", "cosine_similarity", "default_start_layer", "dequantize_affine",
    "dequantize_log2", "dequantize_trip", "dequantize_weight_symmetric", "fit_affine",
    "fit_trip", "fit_weight_symmetric", "fold_trip_into_weights", "forward_block",
    "forward_fp", "forward_quant", "forward_stack", "gemm_f32", "gemm_int4_packed",
    "gemm_int4_raw", "gemm_int_affine", "gemm_log2_attnv", "init_block", "init_stack",
    "lane_multiply", "load_store", "make_outlier_input", "make_schedule",
    "make_stripe_input", "pack_int4", "pack_weights_for_gemm", "preset_sites",
    "prune_step", "quantize_affine", "quantize_log2", "quantize_trip",
    "quantize_weight_symmetric", "save_store", "score_tokens", "slice_rows", "sparsity",
    "unpack_int4",
]


def test_public_names():
    names = sorted(n for n in dir(agq) if not n.startswith("_")
                   and not isinstance(getattr(agq, n), types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 63


def test_site_config_fields():
    fields = [f.name for f in dataclasses.fields(agq.SiteConfig)]
    assert fields == ["act_bits", "act_quantizer", "trip_cap"]
