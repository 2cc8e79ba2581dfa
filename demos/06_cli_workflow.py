"""The batch workflow end to end: quantize, analyze, eval.

Builds a weight store and a run config in a temp directory, then drives the
`agq` command line through all three subcommands the way a user would. A
step that fails ends the demo with its exit code.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import agq


def run(*args):
    print(f"$ agq {' '.join(args)}")
    proc = subprocess.run([sys.executable, "-m", "agq.cli", *args],
                          capture_output=True, text=True)
    if proc.stdout:
        print(proc.stdout[:600] + ("..." if len(proc.stdout) > 600 else ""))
    if proc.returncode != 0:
        print(f"  exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        sys.exit(proc.returncode)
    return proc


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    # a weight store from the toy block
    block = agq.init_block(agq.BlockConfig(seed=0))
    agq.save_store(block.weights, tmp / "weights.agqt")

    # an activation store for analysis
    x = agq.make_outlier_input(t=16, d=64, outlier_channels=(5,),
                               outlier_tokens=(9, 10), seed=0)
    agq.save_store({"x": x}, tmp / "acts.agqt")

    config = {
        "seed": 0,
        "sequence_length": 24,
        "block": {"n_blocks": 3},
        "quantization": {"mode": "w4a8"},
        "prune": {"beta": 0.2, "m": 2, "start_layer": 1},
        "thresholds": {"min_cosine": 0.8},
    }
    (tmp / "run.json").write_text(json.dumps(config))

    run("quantize", "--config", str(tmp / "run.json"),
        "--in", str(tmp / "weights.agqt"), "--out", str(tmp / "codes.agqt"))
    sidecar = json.loads((tmp / "codes.agqt.params.json").read_text())
    print(f"  wrote 4-bit codes + sidecar for: {sorted(sidecar)}\n")

    run("analyze", "--config", str(tmp / "run.json"),
        "--in", str(tmp / "acts.agqt"), "--input", "x")

    run("eval", "--config", str(tmp / "run.json"))
