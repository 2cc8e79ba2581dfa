"""Tracing agq's public functions from outside the package.

agq modules import each other's functions by name (``pipeline`` calls its own
global ``gemm_int4_packed``, ``cli`` calls ``pipeline.forward_stack``), so a
wrapper is only seen if it replaces every module attribute the callers look
up. :class:`Patch` does that: it finds the function on its defining module,
then rebinds every ``agq`` module attribute that holds the same object, and
puts the originals back on :meth:`Patch.restore`. A target the package no
longer defines is recorded as missing instead of raising, so the benchmark
keeps running across renames.

:class:`Tracer` installs span-recording wrappers through a :class:`Patch`.
Spans stay in memory as ``[id, parent, op, name, t0_ns, t1_ns, counts]`` and
are written as JSON lines by :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Public functions traced per layer (agq module). Order is irrelevant; every
# agq module binding of each function gets the same wrapper.
TARGETS = {
    "kernels": ("gemm_f32", "gemm_int_affine", "gemm_int4_raw", "gemm_int4_packed",
                "gemm_log2_attnv", "pack_weights_for_gemm", "pack_int4", "unpack_int4"),
    "quantizers": ("fit_affine", "quantize_affine", "dequantize_affine", "quantize_log2",
                   "dequantize_log2", "fit_weight_symmetric", "quantize_weight_symmetric"),
    "trip": ("fit_trip", "quantize_trip", "dequantize_trip", "fold_trip_into_weights"),
    "pruning": ("score_tokens", "prune_step", "validate_map", "make_schedule", "sparsity",
                "default_start_layer"),
    "pipeline": ("forward_stack", "forward_block", "init_stack", "init_block",
                 "attention_locality", "cosine_similarity", "preset_sites"),
    "tensor_store": ("load_store", "slice_rows"),
    "cli": ("load_config",),
}
LAYERS = tuple(TARGETS)


def agq_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "agq" or name.startswith("agq."))]


class Patch:
    """Rebinds agq functions everywhere callers look them up; undoable."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, layer: str, name: str, factory) -> bool:
        """Replace ``agq.<layer>.<name>`` with ``factory(original)`` in every
        agq module that binds it. Returns False when the layer module is not
        loaded (nothing can call it) or lacks the function (recorded as
        missing)."""
        home = sys.modules.get(f"agq.{layer}")
        if home is None:
            return False
        original = getattr(home, name, None)
        if not callable(original):
            self.missing.append(f"{layer}.{name}")
            return False
        wrapper = factory(original)
        for module in agq_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _shape_counts(m: int, k: int, n: int, nbytes: int) -> dict:
    return {"macs": m * k * n, "bytes": nbytes}


def _count_gemm_f32(args, kwargs, out):
    a, w = args[0], args[1]
    return _shape_counts(out.shape[0], a.shape[1], out.shape[1],
                         a.nbytes + w.nbytes + out.nbytes)


def _count_int_affine(args, kwargs, out):
    aq, wq = args[0], args[1]
    return _shape_counts(aq.rows, aq.cols, wq.cols,
                         aq.codes.nbytes + wq.codes.nbytes + out.nbytes)


def _count_int4(args, kwargs, out):
    a, packed = args[0], args[1]
    k = packed.cols
    return _shape_counts(out.shape[0], k, packed.rows,
                         a.nbytes + packed.data.nbytes + out.nbytes)


def _count_int4_raw(args, kwargs, out):
    counts = _count_int4(args, kwargs, out)
    counts["lane_groups"] = -(-args[1].cols // 256)  # 256-add budget groups
    return counts


def _count_attnv(args, kwargs, out):
    pq, vq = args[0], args[1]
    return _shape_counts(pq.rows, pq.cols, vq.cols,
                         pq.codes.nbytes + pq.signs.nbytes + vq.codes.nbytes + out.nbytes)


def _count_prune(args, kwargs, out):
    return {"tokens_in": len(args[0]), "tokens_out": len(out[1])}


# Work counters computed from argument and result shapes, never from timing.
COUNTERS = {
    "kernels.gemm_f32": _count_gemm_f32,
    "kernels.gemm_int_affine": _count_int_affine,
    "kernels.gemm_int4_raw": _count_int4_raw,
    "kernels.gemm_int4_packed": _count_int4,
    "kernels.gemm_log2_attnv": _count_attnv,
    "pruning.prune_step": _count_prune,
}


class Tracer:
    """Records nested spans around agq calls while installed."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.missing: list[str] = []
        self._patch: Patch | None = None

    def _make_wrapper(self, name: str, counter):
        def factory(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(rec)
                if counter is not None:
                    rec[6] = counter(args, kwargs, result)
                return result
            return traced
        return factory

    def open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self.op,
               name, self.clock(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[5] = self.clock()
        self._stack.pop()

    def install(self) -> None:
        self._patch = Patch()
        for layer, names in TARGETS.items():
            for name in names:
                full = f"{layer}.{name}"
                self._patch.wrap(layer, name, self._make_wrapper(full, COUNTERS.get(full)))
        self.missing = sorted(set(self.missing) | set(self._patch.missing))

    def uninstall(self) -> None:
        if self._patch is not None:
            self._patch.restore()
            self._patch = None

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, op, name, t0, t1, counts in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                    "t0_ns": t0, "t1_ns": t1, "counts": counts}) + "\n")


def aggregate(spans: list[list]) -> tuple[dict, dict]:
    """Per span name: inclusive ns, self ns, calls and summed counters.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded and strictly nested, so children never
    overlap. Returns (per-name stats, per-op root durations in ns).
    """
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _op, _name, t0, t1, _c in spans:
        if parent is not None:
            child_ns[parent] += t1 - t0
    stats: dict[str, dict] = defaultdict(
        lambda: {"incl_ns": 0, "self_ns": 0, "calls": 0, "counts": defaultdict(int)})
    roots: dict[int, int] = defaultdict(int)
    for sid, parent, op, name, t0, t1, counts in spans:
        s = stats[name]
        s["incl_ns"] += t1 - t0
        s["self_ns"] += (t1 - t0) - child_ns[sid]
        s["calls"] += 1
        for key, value in (counts or {}).items():
            s["counts"][key] += value
        if parent is None:
            roots[op] += t1 - t0
    return dict(stats), dict(roots)
