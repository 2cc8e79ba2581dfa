"""Benchmark driver: set-up, verify pass, timed loop, traced loop, report.

One process, closed loop, one client: each operation starts when the
previous one has returned. Nothing in agq runs concurrently, so no layer
waits on another and no wait time is reported.

Phases of one run:

1. set-up, ``SETUP_REPEATS`` times (fresh import of agq plus the workload's
   one-time work);
2. verify pass: every pool input once, untimed, with the kernel oracles
   installed; records each output's digest; then the fidelity pass;
3. timed loop for ``--seconds``. Untraced runs time every operation. Traced
   runs alternate untraced and traced operations, so ``trace.overhead_pct``
   compares neighbours under the same machine load;
4. ``SETUP_REPEATS`` more set-ups; ``setup_s`` is the median of the
   uncontended ones (see ``ContentionProbe``).

The last stdout line is the JSON result; run facts and the human-readable
metric lines come before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import oracles
import tracer as tracing
import workloads

SETUP_REPEATS = 10
# On a shared machine every computation runs 1.5-2x slower for seconds at a
# time. A fixed reference computation (the probe), timed between operations,
# shows those periods. Operations and set-ups whose surrounding probes took
# more than CONTENDED_RATIO times the run's uncontended probe time are left
# out of the timing statistics; they still count as attempted and are still
# checked.
PROBE_INTERVAL_S = 0.25
CONTENDED_RATIO = 1.4
# The whole machine also drifts between slower and faster states lasting
# tens of minutes, which moves even the uncontended operations by up to 40%.
# Every reported time is therefore scaled by PROBE_REF_S / (the run's
# uncontended probe time): "time at the speed where the probe takes
# PROBE_REF_S", its uncontended time on the 2-core Xeon this was tuned on.
# The probe runs no agq code, so no change to agq can move the scale.
PROBE_REF_S = 1.5e-3
MIN_BEYOND_TAIL = 10
OUT_DIR = ".bench_out"

KERNELS = ("gemm_int4_raw", "gemm_int4_packed", "gemm_int_affine", "gemm_log2_attnv",
           "gemm_f32")
CALL_METRICS = (
    "kernels.pack_weights_for_gemm", "kernels.pack_int4", "kernels.unpack_int4",
    "quantizers.fit_affine", "quantizers.quantize_affine", "quantizers.quantize_log2",
    "quantizers.dequantize_log2", "quantizers.fit_weight_symmetric",
    "quantizers.quantize_weight_symmetric",
    "trip.fit_trip", "trip.quantize_trip", "trip.dequantize_trip",
    "trip.fold_trip_into_weights",
    "pruning.score_tokens", "pruning.prune_step",
    "pipeline.forward_stack", "pipeline.forward_block", "pipeline.attention_locality",
    "pipeline.init_stack",
    "tensor_store.load_store",
)
SELF_ONLY = ("cli.eval", "cli.load_config")


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description="agq end-to-end and per-layer benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: str) -> str:
    """HEAD commit read from the .git directory, without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_facts() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"blas": info.get("name"), "blas_version": info.get("version"),
             "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    facts["blas_threads"] = openblas_threads()
    return facts


def openblas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            path = next((ln.split()[-1] for ln in f if "openblas" in ln.lower()), None)
        if path is None:
            return None
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return int(fn())
    return None


def run_facts(args, input_digest: str, root: str) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": input_digest,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        **blas_facts(), "git_commit": git_commit(root),
    }


def percentile(samples, pct: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), pct))


def tail_percentile(n: int, preferred: float) -> float:
    """The workload's fixed tail percentile; when fewer samples were kept,
    the highest percentile that still leaves MIN_BEYOND_TAIL beyond it."""
    return max(50.0, min(preferred, 100.0 * (1.0 - MIN_BEYOND_TAIL / max(n, 1))))


class ContentionProbe:
    """A fixed small mix of numpy work (rounding, clipping, an int64 matmul),
    similar in kind to agq's, whose time tracks how fast the machine is now.

    Its times fall in two clear groups on a shared machine (about 1.5 ms and
    2.5-3 ms on a 2-core Xeon); the 10th percentile of a run's probes is its
    uncontended level.
    """

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((64, 64))
        self.samples: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        a = self.a
        for _ in range(10):
            c = np.clip(np.rint(a * 3.0), -8, 7).astype(np.int64)
            a = self.a + (c @ c.T).astype(np.float64) * 1e-6
        return time.perf_counter() - t0

    def measure(self) -> int:
        """Time the probe now; returns the index of the sample."""
        self.samples.append(min(self._once() for _ in range(3)))
        return len(self.samples) - 1

    def level(self) -> float:
        """The run's uncontended probe time: the 10th percentile."""
        return float(np.percentile(self.samples, 10))

    def calm(self, before: int, after: int) -> bool:
        """True if the probes around an interval both ran uncontended."""
        return max(self.samples[before], self.samples[after]) <= CONTENDED_RATIO * self.level()


class Runner:
    """Runs one workload's operations and keeps the failure tally."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def _fail(self, i, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {i}: {why}")

    def verify(self, oracle: oracles.OracleCheck) -> None:
        """Each pool input once, untimed, kernels checked against oracles."""
        oracle.install()
        try:
            for i in range(self.wl.pool):
                self.attempted += 1
                before = oracle.total_mismatches
                try:
                    self.digests.append(self.wl.check(self.wl.op(i)))
                except Exception as e:  # every failure is counted, none stops the run
                    self._fail(i, f"{type(e).__name__}: {e}")
                    self.digests.append(None)
                    continue
                if oracle.total_mismatches != before:
                    self._fail(i, f"oracle mismatch {dict(oracle.mismatches)}")
        finally:
            oracle.uninstall()

    def fidelity(self) -> float:
        """cosine_fp32 over the fixed fidelity set, counted as one operation."""
        self.attempted += 1
        try:
            return self.wl.fidelity()
        except Exception as e:
            self._fail("fidelity", f"{type(e).__name__}: {e}")
            return float("nan")

    def timed(self, i: int, tracer=None):
        """One timed operation; returns (seconds, ok)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.op(i, tracer)
        except Exception as e:
            dt = time.perf_counter() - t0
            self._fail(i, f"{type(e).__name__}: {e}")
            return dt, False
        dt = time.perf_counter() - t0
        try:
            ok = self.wl.check(out) == self.digests[i % self.wl.pool]
            if not ok:
                self._fail(i, "output differs from the verify pass")
        except Exception as e:
            self._fail(i, f"{type(e).__name__}: {e}")
            ok = False
        return dt, ok


def end_to_end(wl, setup_s: float, lat: list, toks: int,
               fidelity: float) -> tuple[dict, str]:
    """The end-to-end metrics and a note saying which percentile the tail is."""
    if not lat:
        lat = [0.0]
    pct = tail_percentile(len(lat), wl.tail_pct)
    tail = percentile(lat, pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "tokens_per_s": (toks / sum(lat) if sum(lat) else 0.0, "1/s"),
        "seq_ms_p50": (percentile(lat, 50) * 1e3, "ms"),
        "seq_ms_tail": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "cosine_fp32": (fidelity, "cosine"),
    }
    beyond = sum(1 for x in lat if x > tail)
    return metrics, f"p{pct:.4g} of {len(lat)} timed operations ({beyond} beyond)"


def per_layer(spans: list, n_ops: int, mismatches: int, scale: float,
              untraced: tuple[int, float], traced: tuple[int, float]) -> dict:
    """Per-layer metrics per traced operation, times multiplied by ``scale``;
    ``untraced`` and ``traced`` are (tokens, seconds) totals for the
    overhead."""
    stats, roots = tracing.aggregate(spans)
    ops = max(n_ops, 1)
    n = ops / scale  # dividing ns by n gives scaled ns per operation

    def stat(name):
        return stats.get(name, {"incl_ns": 0, "self_ns": 0, "calls": 0, "counts": {}})

    m = {}
    for layer in tracing.LAYERS:
        self_ns = sum(s["self_ns"] for name, s in stats.items()
                      if name.split(".", 1)[0] == layer)
        m[f"{layer}.self_ms"] = (self_ns / 1e6 / n, "ms")
    for k in KERNELS:
        s = stat(f"kernels.{k}")
        macs = s["counts"].get("macs", 0)
        m[f"kernels.{k}.self_ms"] = (s["self_ns"] / 1e6 / n, "ms")
        m[f"kernels.{k}.calls"] = (s["calls"] / ops, "count")
        m[f"kernels.{k}.macs"] = (macs / ops, "count")
        m[f"kernels.{k}.bytes"] = (s["counts"].get("bytes", 0) / ops, "B")
        m[f"kernels.{k}.gmac_per_s"] = (
            macs / (s["incl_ns"] * scale) if s["incl_ns"] else 0.0, "GMAC/s")
    m["kernels.gemm_int4_raw.lane_groups"] = (
        stat("kernels.gemm_int4_raw")["counts"].get("lane_groups", 0) / ops, "count")
    m["kernels.oracle_mismatches"] = (mismatches, "count")
    for name in CALL_METRICS:
        s = stat(name)
        m[f"{name}.self_ms"] = (s["self_ns"] / 1e6 / n, "ms")
        m[f"{name}.calls"] = (s["calls"] / ops, "count")
    for name in SELF_ONLY:
        m[f"{name}.self_ms"] = (stat(name)["self_ns"] / 1e6 / n, "ms")
    prune = stat("pruning.prune_step")["counts"]
    m["pruning.tokens_in"] = (prune.get("tokens_in", 0) / ops, "count")
    m["pruning.tokens_out"] = (prune.get("tokens_out", 0) / ops, "count")
    tps_u = untraced[0] / untraced[1] if untraced[1] else 0.0
    tps_t = traced[0] / traced[1] if traced[1] else 0.0
    m["trace.overhead_pct"] = (100.0 * (tps_u - tps_t) / tps_u if tps_u else 0.0, "%")
    m["trace.total_ms"] = (sum(roots.values()) / 1e6 / n, "ms")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    root = repo_root()
    if not os.path.isfile(os.path.join(root, "src", "agq", "__init__.py")):
        print(f"agq sources not found under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(root, OUT_DIR)
    work_dir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return run(args, root, out_dir, work_dir)
    finally:
        shutil.rmtree(work_dir)


def timed_setups(wl, probe: ContentionProbe, n: int) -> list:
    """``n`` timed set-ups, each between two probes: (seconds, before, after)."""
    out = []
    for _ in range(n):
        before = probe.measure()
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        out.append((dt, before, probe.measure()))
    return out


def timed_loop(runner: Runner, tr: tracing.Tracer, probe: ContentionProbe,
               seconds: float, trace: bool) -> list:
    """Closed loop for ``seconds``; returns per-op records.

    Each record is (op index, seconds, ok, traced, probe index before it).
    The probe is timed again every PROBE_INTERVAL_S and once at the end, so
    every operation lies between probe ``k`` and ``k + 1``.
    """
    records = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    next_probe = 0.0
    i = 0
    while (now := time.perf_counter()) < deadline:
        if now >= next_probe:
            before = probe.measure()
            next_probe = time.perf_counter() + PROBE_INTERVAL_S
        traced = trace and i % 2 == 1
        if traced:
            tr.op = i
            tr.install()
            try:
                dt, ok = runner.timed(i, tr)
            finally:
                tr.uninstall()
        else:
            dt, ok = runner.timed(i)
        records.append((i, dt, ok, traced, before))
        i += 1
    probe.measure()
    return records


def run(args, root: str, out_dir: str, work_dir: str) -> int:
    wl = workloads.make(args.workload)
    input_digest = wl.prepare(args.seed, work_dir)

    probe = ContentionProbe()
    setups = timed_setups(wl, probe, SETUP_REPEATS)
    import agq  # the set-up above imported it from the checkout's src/

    if not os.path.abspath(agq.__file__).startswith(os.path.join(root, "src")):
        print(f"agq imported from {agq.__file__}, not from this checkout", file=sys.stderr)
        return 2

    runner = Runner(wl)
    oracle = oracles.OracleCheck()
    runner.verify(oracle)
    fidelity = runner.fidelity()

    tr = tracing.Tracer()
    records = timed_loop(runner, tr, probe, args.seconds, args.trace == 1)
    # More set-ups after the loop: fresh imports cannot disturb timed ops here.
    setups += timed_setups(wl, probe, SETUP_REPEATS)
    calm_setups = [s[0] for s in setups if probe.calm(s[1], s[2])]
    scale = PROBE_REF_S / probe.level()
    setup_s = statistics.median(calm_setups or [s[0] for s in setups]) * scale
    calm = [r for r in records if r[2] and probe.calm(r[4], r[4] + 1)]
    lat = [r[1] * scale for r in calm if not r[3]]
    toks = sum(wl.tokens(r[0]) for r in calm if not r[3])

    metrics, tail_note = end_to_end(wl, setup_s, lat, toks, fidelity)
    error_rate = runner.failed / runner.attempted
    facts = run_facts(args, input_digest, root)
    facts.update(setup_samples_s=[s[0] for s in setups],
                 uncontended_setups=len(calm_setups), tail=tail_note,
                 oracle_checked=dict(oracle.checked), oracle_missing=oracle.missing,
                 failures=runner.failures, timed_ops=len(records),
                 uncontended_ops=len(calm),
                 probe_p10_ms=probe.level() * 1e3, time_scale=scale,
                 probe_median_ms=statistics.median(probe.samples) * 1e3)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio "
          f"({runner.failed} failed / {runner.attempted} attempted)")
    print(f"{args.workload} times are scaled by {scale:.4f}: uncontended probe "
          f"{probe.level() * 1e3:.3f} ms, reference {PROBE_REF_S * 1e3:g} ms")
    print(f"{args.workload} seq_ms_tail is {tail_note}; "
          f"{len(calm)} of {len(records)} timed operations ran uncontended")
    if args.trace:
        calm_traced = ({r[0] for r in calm if r[3]}
                       or {r[0] for r in records if r[2] and r[3]})
        spans = [s for s in tr.spans if s[2] in calm_traced]
        # Traced and untraced operations alternate, so both see the same
        # contention and the overhead can use every successful operation.
        done = [r for r in records if r[2]]
        totals = [(sum(wl.tokens(r[0]) for r in done if r[3] == t),
                   sum(r[1] for r in done if r[3] == t)) for t in (False, True)]
        metrics = per_layer(spans, len(calm_traced), oracle.total_mismatches, scale,
                            *totals)
        facts.update(trace_missing=tr.missing, traced_uncontended_ops=len(calm_traced))
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tr.write_jsonl(spans_path)
        facts["spans"] = os.path.relpath(spans_path, root)
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("facts " + json.dumps(facts, sort_keys=True))
    correct = runner.failed == 0 and math.isfinite(fidelity)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
