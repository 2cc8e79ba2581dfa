"""The three benchmark workloads.

agq only ever sees arrays, configs and ``.agqt`` store files made here. The
model is part of the workload: weights come from a fixed config seed and the
same few channels carry large activations in every input, as outlier
channels do in a trained model. The workload seed draws the timed inputs.
``cosine_fp32`` is measured on a fixed evaluation set instead, because on
this random-weight toy model it varies by ±20% from one input to the next
(8-block eval) and would be too noisy to gate on; on a fixed set it repeats
exactly and moves only when the numerics change. All three workloads use the
default geometry: d_model 64, 4 heads, d_ff 256.

- ``w4a4-long``: w4a4 preset with TRIP, 4 blocks, T=256, no pruning, one
  ``forward_stack`` call per operation. Kernel-bound: most time goes to the
  packed INT4 lane GEMM, the affine integer GEMM and the log2 attn_v path.
- ``w4a8-short``: w4a8 preset, 4 blocks, T=16. Never calls the packed INT4
  GEMM; time goes to per-call overhead (weight re-folding and re-quantizing,
  TRIP fitting, the per-head loop). A lane-GEMM-only change should not move it.
- ``eval-prune``: in-process ``agq eval`` (w4a8, 8 blocks, T=128, prune
  beta=0.5, m=2) reading its input from a store and writing its report to a
  file. The only workload that exercises ``cli``, ``tensor_store``,
  ``pruning``, ``gemm_f32`` and ``attention_locality``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

D_MODEL, N_HEADS, D_FF = 64, 4, 256
MODEL_SEED = 0
# A few large channels: the case activation-guided refinement targets.
OUTLIER_CHANNELS = (5, 22, 47)
OUTLIER_GAIN = 8.0
FIDELITY_SEED = 2**32  # outside the workload seeds a run is given
FIDELITY_INPUTS = 4


def fresh_import(*names: str) -> list:
    """Import agq modules from scratch, so every set-up pays agq's import."""
    for name in [n for n in sys.modules if n == "agq" or n.startswith("agq.")]:
        del sys.modules[name]
    return [importlib.import_module(n) for n in names]


def make_sequence(rng: np.random.Generator, t: int) -> np.ndarray:
    x = rng.standard_normal((t, D_MODEL))
    x[:, OUTLIER_CHANNELS] *= OUTLIER_GAIN
    return x.astype(np.float32)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cosine(a, b) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class OutputError(Exception):
    """An operation returned an output that is not a valid result."""


class ForwardWorkload:
    """One ``forward_stack`` call per operation over a pool of sequences."""

    def __init__(self, mode: str, n_blocks: int, t: int, pool: int, tail_pct: float):
        self.mode, self.n_blocks, self.t = mode, n_blocks, t
        self.pool, self.tail_pct = pool, tail_pct

    def prepare(self, seed: int, workdir: str) -> str:
        """Generate the timed input pool and the fidelity set; returns the
        digest of the timed pool."""
        rng = np.random.default_rng([seed, self.t, self.n_blocks])
        self.inputs = [make_sequence(rng, self.t) for _ in range(self.pool)]
        rng = np.random.default_rng([FIDELITY_SEED, self.t, self.n_blocks])
        self.fidelity_inputs = [make_sequence(rng, self.t) for _ in range(FIDELITY_INPUTS)]
        return digest(b"".join(x.tobytes() for x in self.inputs))

    def setup(self) -> None:
        (self.pipeline,) = fresh_import("agq.pipeline")
        self.cfg = self.pipeline.BlockConfig(
            d_model=D_MODEL, n_heads=N_HEADS, d_ff=D_FF,
            sites=self.pipeline.preset_sites(self.mode, act_quantizer="trip"),
            seed=MODEL_SEED)
        self.blocks = self.pipeline.init_stack(self.cfg, self.n_blocks)

    def tokens(self, i: int) -> int:
        return self.t

    def op(self, i: int, tracer=None):
        out, _info = self.pipeline.forward_stack(self.blocks, self.inputs[i % self.pool])
        return out

    def check(self, out) -> str:
        if not isinstance(out, np.ndarray) or out.shape != (self.t, D_MODEL):
            raise OutputError(f"unexpected output {type(out).__name__} "
                              f"{getattr(out, 'shape', None)}")
        if not np.all(np.isfinite(out)):
            raise OutputError("non-finite output")
        return digest(out.tobytes())

    def fidelity(self) -> float:
        """Mean cosine of the quantized output against the FP32 output of the
        same stack and input, over the fidelity set."""
        fp_cfg = replace(self.cfg, sites={})
        cos = []
        for x in self.fidelity_inputs:
            q = self.pipeline.forward_stack(self.blocks, x)[0]
            self.check(q)
            cos.append(cosine(q, self.pipeline.forward_stack(self.blocks, x, fp_cfg)[0]))
        return float(np.mean(cos))


class EvalWorkload:
    """One in-process ``agq eval`` invocation per operation."""

    t, n_blocks, pool, tail_pct = 128, 8, 4, 75.0

    def prepare(self, seed: int, workdir: str) -> str:
        """Write the config, one input store per pool entry and the fidelity
        stores; returns the digest of the config and the timed inputs."""
        (tensor_store,) = fresh_import("agq.tensor_store")
        self.report_path = os.path.join(workdir, "report.json")
        config = {
            "seed": MODEL_SEED,
            "sequence_length": self.t,
            "block": {"d_model": D_MODEL, "n_heads": N_HEADS, "d_ff": D_FF,
                      "n_blocks": self.n_blocks},
            "quantization": {"mode": "w4a8", "act_quantizer": "trip", "trip_cap": 3},
            "prune": {"beta": 0.5, "m": 2},
            "output": {"report": self.report_path},
        }
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as f:
            json.dump(config, f)

        def write_stores(prefix, stream, n):
            rng = np.random.default_rng([stream, self.t, self.n_blocks])
            paths, blobs = [], []
            for i in range(n):
                x = make_sequence(rng, self.t)
                paths.append(os.path.join(workdir, f"{prefix}{i}.agqt"))
                tensor_store.save_store({"input": x}, paths[-1])
                blobs.append(x.tobytes())
            return paths, blobs

        self.stores, blobs = write_stores("input", seed, self.pool)
        self.fidelity_stores, _ = write_stores("fidelity", FIDELITY_SEED, FIDELITY_INPUTS)
        del config["output"]  # holds this run's scratch path, not an input
        return digest(json.dumps(config, sort_keys=True).encode() + b"".join(blobs))

    def setup(self) -> None:
        (self.cli,) = fresh_import("agq.cli")

    def tokens(self, i: int) -> int:
        return self.t

    def op(self, i: int, tracer=None, store: str | None = None):
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        store = store or self.stores[i % self.pool]
        args = ["eval", "--config", self.config_path, "--in", store]
        rec = tracer.open("cli.eval") if tracer is not None else None
        try:
            code = self.cli.main(args, standalone_mode=False)
        except SystemExit as e:
            code = e.code
        finally:
            if rec is not None:
                tracer.close(rec)
        if code not in (None, 0):
            raise OutputError(f"agq eval exited with code {code}")
        with open(self.report_path, "rb") as f:
            return f.read()

    def check(self, out: bytes) -> str:
        report = json.loads(out)
        records = {r["name"]: r for r in report["records"]}
        if sorted(records) != ["no_prune", "prune"]:
            raise OutputError(f"unexpected records {sorted(records)}")
        for rec in records.values():
            if not -1.0 <= rec["cosine"] <= 1.0:
                raise OutputError(f"cosine {rec['cosine']} outside [-1, 1]")
        sched = records["prune"]["schedule"]
        gamma = 1.0 - (1.0 - sched["beta"]) ** (1.0 / sched["m"])
        if sched["m"] != 2 or not math.isclose(sched["gamma"], gamma, rel_tol=1e-12):
            raise OutputError(f"unexpected prune schedule {sched}")
        if not 0.0 < records["prune"]["sparsity"] < 1.0:
            raise OutputError(f"prune sparsity {records['prune']['sparsity']} not in (0, 1)")
        return digest(out)

    def fidelity(self) -> float:
        """Mean cosine of the ``prune`` record over the fidelity set."""
        cos = []
        for store in self.fidelity_stores:
            out = self.op(0, store=store)
            self.check(out)
            cos.append(next(r["cosine"] for r in json.loads(out)["records"]
                            if r["name"] == "prune"))
        return float(np.mean(cos))


def make(name: str):
    if name == "w4a4-long":
        return ForwardWorkload("w4a4", n_blocks=4, t=256, pool=4, tail_pct=80.0)
    if name == "w4a8-short":
        return ForwardWorkload("w4a8", n_blocks=4, t=16, pool=16, tail_pct=98.0)
    if name == "eval-prune":
        return EvalWorkload()
    raise KeyError(name)


NAMES = ("w4a4-long", "w4a8-short", "eval-prune")
