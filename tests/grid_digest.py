"""Print one SHA-256 over the bytes ``forward_stack`` and the packed lane
GEMM give on a fixed grid.

    python tests/grid_digest.py [--cases]

Two source trees print the same digest when every case gives them the same
outputs, attention statistics, kept indices and trace records (as JSON), so it
checks that a change kept the forward pass and the lane kernels
bit-identical. ``--cases`` also prints one digest per case, to count the
cases that differ. The cases, those of ``forward_stack`` run traced and
untraced:

- every reference-grid shape, mode and activation quantizer
  (``helpers.GRID_*``) as a 2-block stack pruned at block 0;
- the benchmark's three geometries (d_model 64, 4 heads, d_ff 256, TRIP at
  cap 3): w4a4 with 4 blocks at T = 256, w4a8 with 4 blocks at T = 16, and
  w4a8 with 8 blocks at T = 128 pruned by beta 0.5 over 2 layers. Their
  inputs are seeded normals with three large channels;
- the FP32 passes the benchmark runs on those geometries: each one's
  ``replace(cfg, sites={})`` pass, and the 8-block pass with the pruned
  run's kept indices as forced keeps;
- the packed lane GEMM called directly: ``gemm_int4_raw`` and
  ``gemm_int4_packed`` at k = 1, 255, 256, 257 and 513 (one to three lane
  groups) against 7 output rows (an odd count), with seeded codes and with
  all-15 codes, which put every sub-lane at its group's largest sum.

The file is not a test module; it imports agq from the tree it sits in.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from helpers import GRID_MODES, GRID_QUANTIZERS, GRID_SHAPES, grid_case, stats_bytes  # noqa: E402

from agq.kernels import (  # noqa: E402
    Int4GemmParams,
    gemm_int4_packed,
    gemm_int4_raw,
    pack_weights_for_gemm,
)
from agq.pipeline import BlockConfig, forward_stack, init_stack, preset_sites  # noqa: E402
from agq.pruning import PruneSchedule, default_start_layer, make_schedule  # noqa: E402


def cases():
    """Yield (name, blocks, x, forward_stack keywords) for every case."""
    at_block_0 = PruneSchedule(prune_layers=(0,), final_ratio=0.5)
    for t, d_model, n_heads in GRID_SHAPES:
        for act_quantizer in GRID_QUANTIZERS:
            for mode in GRID_MODES:
                cfg, x = grid_case(mode, act_quantizer, t, d_model, n_heads)
                yield (f"{mode}-{act_quantizer}-T{t}-d{d_model}-h{n_heads}",
                       init_stack(cfg, 2), x, {"schedule": at_block_0})
    fp32 = []  # run last, so the earlier cases keep their order and digests
    for mode, n_blocks, t, schedule in (
        ("w4a4", 4, 256, None),
        ("w4a8", 4, 16, None),
        ("w4a8", 8, 128, make_schedule(8, default_start_layer(8), 0.5, 2)),
    ):
        cfg = BlockConfig(d_model=64, n_heads=4, d_ff=256, sites=preset_sites(mode))
        x = np.random.default_rng(t).standard_normal((t, 64))
        x[:, [5, 22, 47]] *= 8.0
        name, blocks, x = f"{mode}-{n_blocks}x{t}", init_stack(cfg, n_blocks), x.astype(np.float32)
        fp_cfg = replace(cfg, sites={})
        fp32.append((f"{name}-fp32", blocks, x, {"cfg": fp_cfg}))
        yield f"{name}{'-pruned' if schedule else ''}", blocks, x, {"schedule": schedule}
        if schedule is not None:
            keeps = forward_stack(blocks, x, schedule=schedule)[1]["keeps"]
            forced = {i: keeps[i] for i in schedule.prune_layers}
            fp32.append((f"{name}-fp32-forced", blocks, x,
                         {"cfg": fp_cfg, "forced_keeps": forced}))
    yield from fp32


def lane_cases():
    """Yield (name, output bytes) for each direct lane-kernel case."""
    rng = np.random.default_rng(0)
    for k in (1, 255, 256, 257, 513):
        for fill in (None, 15):
            a, w = (rng.integers(0, 16, shape) if fill is None else np.full(shape, fill)
                    for shape in ((3, k), (k, 7)))
            packed = pack_weights_for_gemm(w.astype(np.uint8))
            params = Int4GemmParams(float(rng.uniform(1e-3, 2.0)), int(rng.integers(0, 16)),
                                    rng.uniform(1e-3, 2.0, 7))
            name = f"lane-k{k}-{'all15' if fill else 'seeded'}"
            yield f"{name}-raw", gemm_int4_raw(a, packed).tobytes()
            yield f"{name}-packed", gemm_int4_packed(a, packed, params).tobytes()


def case_digest(blocks, x, kwargs, traced: bool) -> bytes:
    trace = [] if traced else None
    out, info = forward_stack(blocks, x, trace=trace, **kwargs)
    h = hashlib.sha256(out.tobytes())
    for stats in info["attention"]:
        h.update(stats_bytes(stats))
    h.update(json.dumps([info["keeps"], info["kept_global"], trace]).encode())
    return h.digest()


def main(argv) -> int:
    total, n = hashlib.sha256(), 0
    for name, blocks, x, kwargs in cases():
        for traced in (False, True):
            d = case_digest(blocks, x, kwargs, traced)
            total.update(d)
            n += 1
            if "--cases" in argv:
                print(d.hex(), name, "traced" if traced else "untraced")
    for name, out in lane_cases():
        d = hashlib.sha256(out).digest()
        total.update(d)
        n += 1
        if "--cases" in argv:
            print(d.hex(), name)
    print(total.hexdigest(), f"{n} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
