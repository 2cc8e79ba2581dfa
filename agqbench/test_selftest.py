"""Self-tests of the benchmark's tracer, input generator and oracles.

Run from the repository root:

    python3 -m pytest agqbench/test_selftest.py -q
"""

import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import harness  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def small():
    """A two-block, T=8 forward workload, set up."""
    wl = workloads.ForwardWorkload("w4a4", n_blocks=2, t=8, pool=2, tail_pct=90.0)
    wl.prepare(0, None)
    wl.setup()
    return wl


@pytest.fixture
def workdir():
    path = os.path.join(os.path.dirname(HERE), harness.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path)


def test_self_times_sum_to_root_duration():
    wl = small()
    tr = tracer.Tracer()
    tr.install()
    try:
        for i in range(2):
            tr.op = i
            wl.op(i, tr)
    finally:
        tr.uninstall()
    assert tr.missing == []
    stats, roots = tracer.aggregate(tr.spans)
    assert sorted(roots) == [0, 1]
    assert sum(s["self_ns"] for s in stats.values()) == sum(roots.values())
    assert stats["pipeline.forward_stack"]["calls"] == 2
    assert stats["kernels.gemm_int4_raw"]["calls"] > 0

    m = harness.per_layer(tr.spans, 2, 0, 1.0, (16, 1.0), (16, 1.0))
    layer_ms = sum(m[f"{layer}.self_ms"][0] for layer in tracer.LAYERS)
    assert layer_ms == pytest.approx(m["trace.total_ms"][0], rel=1e-9)
    scaled = harness.per_layer(tr.spans, 2, 0, 0.5, (16, 1.0), (16, 1.0))
    assert scaled["trace.total_ms"][0] == pytest.approx(m["trace.total_ms"][0] / 2)
    assert scaled["kernels.gemm_int4_raw.calls"] == m["kernels.gemm_int4_raw.calls"]
    # The wrappers are gone again: the pipeline calls the originals.
    assert wl.pipeline.forward_stack.__module__ == "agq.pipeline"
    assert not hasattr(wl.pipeline.gemm_int4_packed, "__wrapped__")


def test_missing_target_is_recorded_not_raised():
    small()
    patch = tracer.Patch()
    assert not patch.wrap("kernels", "no_such_kernel", lambda fn: fn)
    assert not patch.wrap("no_such_layer", "gemm_f32", lambda fn: fn)
    assert patch.missing == ["kernels.no_such_kernel"]
    patch.restore()


@pytest.mark.parametrize("name", ["w4a4-long", "w4a8-short"])
def test_forward_inputs_deterministic_per_seed(name):
    a, b, c = (workloads.make(name) for _ in range(3))
    da, db, dc = a.prepare(7, None), b.prepare(7, None), c.prepare(8, None)
    assert da == db and da != dc
    assert all(np.array_equal(x, y) for x, y in zip(a.inputs, b.inputs))
    assert not any(np.array_equal(x, y) for x, y in zip(a.inputs, c.inputs))
    # The fidelity set does not depend on the seed.
    assert all(np.array_equal(x, y) for x, y in zip(a.fidelity_inputs, c.fidelity_inputs))


def test_eval_inputs_deterministic_per_seed(workdir):
    digests = []
    for seed in (7, 7, 8):
        os.makedirs(os.path.join(workdir, str(len(digests))))
        wl = workloads.make("eval-prune")
        digests.append(wl.prepare(seed, os.path.join(workdir, str(len(digests)))))
    assert digests[0] == digests[1] != digests[2]


def corrupt_int(fn):
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs).copy()
        out[0, 0] += 1
        return out
    return corrupted


def corrupt_float(fn):
    def corrupted(*args, **kwargs):
        return fn(*args, **kwargs) * np.float32(1.001)
    return corrupted


@pytest.mark.parametrize("kernel,corrupt", [
    ("gemm_int4_raw", corrupt_int),
    ("gemm_int4_packed", corrupt_float),
    ("gemm_int_affine", corrupt_float),
    ("gemm_log2_attnv", corrupt_float),
])
def test_oracle_flags_corrupted_kernel(kernel, corrupt):
    wl = small()
    fake = tracer.Patch()
    assert fake.wrap("kernels", kernel, corrupt)
    oracle = oracles.OracleCheck()
    oracle.install()
    try:
        wl.op(0)
    finally:
        oracle.uninstall()
        fake.restore()
    assert oracle.mismatches[kernel] == oracle.checked[kernel] > 0


def test_oracle_passes_clean_kernels():
    wl = small()
    oracle = oracles.OracleCheck()
    oracle.install()
    try:
        wl.op(0)
    finally:
        oracle.uninstall()
    assert set(oracle.checked) == set(oracles.CHECKS)
    assert oracle.total_mismatches == 0
