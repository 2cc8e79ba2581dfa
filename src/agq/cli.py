"""Command-line entry point: quantize, analyze, eval, bench.

All randomness flows from the seeds in the config; every command is
deterministic given (config, seeds, inputs) except bench wall-clock timings,
which are informational only. Exit codes are a stable contract, kept by one
table (``EXIT_TABLE``) applied once for the whole command group: each failure
it lists prints one ``<kind> error: <message>`` line on stderr and exits with
1 = config or usage error, 2 = I/O error, 3 = numeric error,
4 = threshold failure.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import sys
from dataclasses import replace
from importlib import resources

import click
import jsonschema
import numpy as np

from . import kernels, pipeline, pruning, tensor_store
from .pruning import default_start_layer, make_schedule
from .quantizers import QuantError, fit_weight_symmetric, quantize_weight_symmetric

class ConfigError(Exception):
    """The run config does not parse, fails its schema, or describes no valid run."""


class ThresholdError(Exception):
    """A configured quality threshold was not met."""


# (exception types, exit code, kind printed before "error:"); first match wins.
EXIT_TABLE = (
    (ConfigError, 1, "config"),
    (click.UsageError, 1, "usage"),
    (tensor_store.StoreError, 2, "store"),
    (OSError, 2, "I/O"),
    ((QuantError, pipeline.PipelineError, pruning.PruneError, kernels.KernelError),
     3, "numeric"),
    (ThresholdError, 4, "threshold"),
)


@contextlib.contextmanager
def _exit_codes():
    """Turn an exception listed in EXIT_TABLE into one stderr line and its exit
    code; anything else propagates."""
    try:
        yield
    except Exception as e:
        for types, code, kind in EXIT_TABLE:
            if isinstance(e, types):
                msg = e.format_message() if isinstance(e, click.ClickException) else str(e)
                click.echo(f"{kind} error: {' '.join(msg.split())}", err=True)
                sys.exit(code)
        raise


class _Group(click.Group):
    """The command group with EXIT_TABLE around argument parsing (usage errors
    of the group itself) and around invocation (everything a command does,
    including parsing its own arguments)."""

    def parse_args(self, ctx, args):
        with _exit_codes():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


@functools.cache
def _validator():
    """The run-config validator, its schema checked against the metaschema
    once per process rather than on every load."""
    text = resources.files("agq.schemas").joinpath("run_config.schema.json").read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def load_config(path: str) -> dict:
    """Parse, schema-validate and check the meaning of a run config.

    Unknown keys are rejected; so are settings the schema cannot express,
    such as a head count that does not divide ``d_model``, a prune schedule
    that does not fit the block count or an output path open() refuses.
    """
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.loads(f.read(), parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as e:
        raise ConfigError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8, not finite, nested too deep
        raise ConfigError(f"parse error: {e}") from e
    error = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"schema: {error.message}")
    for key, name in cfg.get("output", {}).items():
        try:
            encoded = os.fsencode(name)  # as open() will
        except UnicodeEncodeError as e:
            raise ConfigError(f"output.{key} cannot be encoded: {e.reason}") from e
        if 0 in encoded:
            raise ConfigError(f"output.{key} holds a null byte")
    try:
        _block_config(cfg)
        _schedule(cfg)
    except (pipeline.PipelineError, pruning.PruneError) as e:
        raise ConfigError(str(e)) from e
    return cfg


def _finite(literal: str) -> float:
    """A JSON number, or NaN/Infinity, as a float; only finite ones pass."""
    value = float(literal)
    if not np.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


def _block_config(cfg: dict) -> pipeline.BlockConfig:
    block = cfg.get("block", {})
    quant = cfg.get("quantization", {})
    sites = pipeline.preset_sites(
        quant.get("mode", "fp32"),
        act_quantizer=quant.get("act_quantizer", "trip"),
        trip_cap=quant.get("trip_cap", 3),
    )
    return pipeline.BlockConfig(
        d_model=block.get("d_model", 64),
        n_heads=block.get("n_heads", 4),
        d_ff=block.get("d_ff", 256),
        sites=sites,
        seed=cfg.get("seed", 0),
    )


def _n_blocks(cfg: dict) -> int:
    return cfg.get("block", {}).get("n_blocks", 2)


def _schedule(cfg: dict):
    prune = cfg.get("prune")
    if prune is None:
        return None
    n_blocks = _n_blocks(cfg)
    start = prune.get("start_layer", default_start_layer(n_blocks))
    return make_schedule(n_blocks, start, prune["beta"], prune["m"])


def _emit(report: dict, cfg: dict) -> None:
    path = cfg.get("output", {}).get("report")
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        click.echo(text)


@click.group(cls=_Group, no_args_is_help=False)
def main():
    """Activation-guided low-bit quantization toolkit."""


@main.command()
@click.option("--config", "config_path", required=True)
@click.option("--in", "in_path", required=True)
@click.option("--out", "out_path", required=True)
def quantize(config_path, in_path, out_path):
    """Quantize every float tensor in a store to per-channel 4-bit codes."""
    load_config(config_path)
    store = tensor_store.load_store(in_path)
    out_store: dict[str, np.ndarray] = {}
    sidecar: dict[str, dict] = {}
    zp = kernels.Int4GemmParams.weight_zero_point
    for name in sorted(store):
        w = store[name]
        if w.dtype != np.float32:
            continue
        wq = quantize_weight_symmetric(w, fit_weight_symmetric(w, 4))
        out_store[name + ".codes"] = (wq.codes + zp).astype(np.uint8)
        sidecar[name] = {
            "kind": "weight_symmetric",
            "bits": 4,
            "offset": zp,
            "scales": [float(s) for s in wq.params.scales],
        }
    tensor_store.save_store(out_store, out_path)
    with open(out_path + ".params.json", "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


@main.command()
@click.option("--config", "config_path", required=True)
@click.option("--in", "in_path", required=True)
@click.option("--input", "input_name", required=True,
              help="Name of the activation tensor to analyze.")
def analyze(config_path, in_path, input_name):
    """Outlier-channel and attention-locality report for one activation."""
    cfg = load_config(config_path)
    store = tensor_store.load_store(in_path)
    if input_name not in store:
        raise tensor_store.StoreError(f"tensor {input_name!r} not in store")
    x = store[input_name]
    k_sigma = cfg.get("analysis", {}).get("k_sigma", 3.0)
    report_out = pipeline.analyze_outliers(x, k_sigma)
    block = pipeline.init_block(_block_config(cfg))
    _, fp_map = pipeline.forward_block(block, x, replace(block.cfg, sites={}))
    _, q_map = pipeline.forward_block(block, x)
    report = {
        "outliers": {
            "k_sigma": k_sigma,
            "threshold": report_out.threshold,
            "counts": report_out.counts.tolist(),
            "ranked_channels": report_out.ranked_channels.tolist(),
        },
        "locality_fp": pipeline.attention_locality(fp_map),
        "locality_q": pipeline.attention_locality(q_map),
    }
    _emit(report, cfg)
    csv_path = cfg.get("output", {}).get("csv")
    if csv_path:
        with open(csv_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["channel", "outlier_count"])
            for ch, count in enumerate(report_out.counts):
                writer.writerow([ch, int(count)])


@main.command(name="eval")
@click.option("--config", "config_path", required=True)
@click.option("--in", "in_path", required=False, default=None)
@click.option("--seed", type=int, default=None, help="Overrides the config seed.")
def eval_cmd(config_path, in_path, seed):
    """Run FP and quantized passes; exit 0 iff configured thresholds pass.

    The input hidden states come from the store tensor named "input" when a
    store is given, otherwise from the seeded generator. Passes: FP32,
    quantized, quantized-pruned, FP32 with its keeps; the last two resume
    after the first prune layer.
    """
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seed"] = seed
    block_cfg = _block_config(cfg)
    if in_path:
        x = tensor_store.load_store(in_path).get("input")
        if x is None:
            raise tensor_store.StoreError("store has no tensor named 'input'")
    else:
        rng = np.random.default_rng(cfg.get("seed", 0) + 1)
        x = rng.standard_normal((cfg.get("sequence_length", 32), block_cfg.d_model))
        x = x.astype(np.float32)

    blocks = pipeline.init_stack(block_cfg, _n_blocks(cfg))
    schedule = _schedule(cfg)
    fp_cfg = replace(block_cfg, sites={})
    split = schedule.prune_layers[0] + 1 if schedule else len(blocks)
    (fp_out, fp_info), fp_state, _ = _unpruned_pass(blocks, x, fp_cfg, split)
    q_sites = []
    (q_out, q_info), q_state, qp_sites = _unpruned_pass(blocks, x, block_cfg, split, q_sites)
    records = [_eval_record("no_prune", q_out, q_info, q_sites, fp_out, fp_info)]
    if schedule is not None:
        qp_out, qp_info = pipeline.forward_stack(blocks, x, block_cfg, schedule=schedule,
                                                 trace=qp_sites, resume=q_state)
        keeps = {i: qp_info["keeps"][i] for i in schedule.prune_layers}
        fpp_out, fpp_info = pipeline.forward_stack(blocks, x, fp_cfg, forced_keeps=keeps,
                                                   resume=fp_state)
        rec = _eval_record("prune", qp_out, qp_info, qp_sites, fpp_out, fpp_info)
        rec["schedule"] = {
            "beta": schedule.final_ratio,
            "m": len(schedule.prune_layers),
            "gamma": schedule.per_layer_ratio,
            "prune_layers": list(schedule.prune_layers),
        }
        records.append(rec)

    _emit({"records": records}, cfg)
    min_cosine = cfg.get("thresholds", {}).get("min_cosine")
    if min_cosine is not None:
        for rec in records:
            if rec["cosine"] < min_cosine:
                raise ThresholdError(
                    f"cosine {rec['cosine']:.6f} < {min_cosine} ({rec['name']})")


def _unpruned_pass(blocks, x, run_cfg, split, trace=None):
    out, info = pipeline.forward_stack(blocks[:split], x, run_cfg, trace=trace)
    state, records = (out, info["maps"]), list(trace or ())
    return pipeline.forward_stack(blocks, x, run_cfg, trace=trace, resume=state), state, records


def _eval_record(name, q_out, q_info, q_sites, fp_out, fp_info) -> dict:
    return {
        "name": name,
        "cosine": pipeline.cosine_similarity(q_out, fp_out),
        "sparsity": q_info["sparsity"],
        "locality_fp": pipeline.attention_locality(fp_info["maps"][-1]),
        "locality_q": pipeline.attention_locality(q_info["maps"][-1]),
        "sites": q_sites,
    }


@main.command()
@click.option("--sizes", default="64,256,512", help="Comma-separated square sizes.")
@click.option("--kernels", "kernel_names", default="f32,int8,int4")
@click.option("--repeats", type=click.IntRange(min=3), default=50, show_default=True)
def bench(sizes, kernel_names, repeats):
    """JSON-lines latency report; numbers are informational, never gated."""
    try:
        size_list = [int(s) for s in sizes.split(",") if s]
    except ValueError:
        size_list = None
    if size_list is None or any(n < 1 for n in size_list):
        raise click.BadParameter(f"bad sizes {sizes!r}", param_hint="'--sizes'")
    kernel_list = kernel_names.split(",")
    for kernel in kernel_list:
        if kernel not in kernels.BENCH_KERNELS:
            raise click.BadParameter(f"unknown kernel {kernel!r}", param_hint="'--kernels'")
    for n in size_list:
        for kernel in kernel_list:
            row = kernels.bench_gemm(n, n, n, kernel, repeats)
            click.echo(json.dumps(row, sort_keys=True))


if __name__ == "__main__":
    main()
