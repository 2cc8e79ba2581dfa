import json
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from helpers import ref_eval_cmd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import agq
from agq.cli import eval_cmd, main
from agq.pruning import make_schedule
from agq.tensor_store import load_store, save_store


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, **overrides):
    cfg = {"seed": 0}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


class TestQuantize:
    def test_deterministic_and_counts(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        store = {
            "wq": rng.standard_normal((8, 8)).astype(np.float32),
            "w1": rng.standard_normal((8, 16)).astype(np.float32),
        }
        in_path = tmp_path / "weights.agqt"
        save_store(store, in_path)
        cfg = write_config(tmp_path / "cfg.json")
        outs = []
        for name in ("o1.agqt", "o2.agqt"):
            out = tmp_path / name
            r = runner.invoke(main, ["quantize", "--config", cfg,
                                     "--in", str(in_path), "--out", str(out)])
            assert r.exit_code == 0, r.output
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "o1.agqt.params.json").read_text() == (
            tmp_path / "o2.agqt.params.json"
        ).read_text()
        codes = load_store(outs[0])
        assert set(codes) == {"wq.codes", "w1.codes"}
        assert all(t.dtype == np.uint8 for t in codes.values())
        sidecar = json.loads((tmp_path / "o1.agqt.params.json").read_text())
        assert set(sidecar) == {"wq", "w1"}
        for name, meta in sidecar.items():
            assert meta["bits"] == 4 and meta["offset"] == 8
            assert len(meta["scales"]) == store[name].shape[1]

    def test_malformed_json_reports_position(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 0,\n  "oops"\n}')
        r = runner.invoke(main, ["quantize", "--config", str(bad),
                                 "--in", "x", "--out", "y"])
        assert r.exit_code == 1
        assert "line 3" in r.output and "column 1" in r.output

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", unknown_knob=1)
        r = runner.invoke(main, ["quantize", "--config", cfg, "--in", "x", "--out", "y"])
        assert r.exit_code == 1
        assert "schema" in r.output

    def test_missing_store_exits_io(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        r = runner.invoke(main, ["quantize", "--config", cfg,
                                 "--in", str(tmp_path / "nope.agqt"),
                                 "--out", str(tmp_path / "o.agqt")])
        assert r.exit_code == 2


class TestAnalyze:
    def _store(self, tmp_path, x):
        p = tmp_path / "acts.agqt"
        save_store({"x": x}, p)
        return str(p)

    def test_constant_input_zero_outliers(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        x = np.full((8, 64), 0.5, dtype=np.float32)
        r = runner.invoke(main, ["analyze", "--config", cfg,
                                 "--in", self._store(tmp_path, x), "--input", "x"])
        assert r.exit_code == 0, r.output
        report = json.loads(r.output)
        assert sum(report["outliers"]["counts"]) == 0
        assert "locality_fp" in report and "locality_q" in report

    def test_injected_channel_ranked_first(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", analysis={"k_sigma": 3.0})
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (16, 64)).astype(np.float32)
        x[::3, 7] = 40.0
        r = runner.invoke(main, ["analyze", "--config", cfg,
                                 "--in", self._store(tmp_path, x), "--input", "x"])
        assert r.exit_code == 0, r.output
        report = json.loads(r.output)
        assert report["outliers"]["ranked_channels"][0] == 7

    def test_csv_output(self, runner, tmp_path):
        csv_path = tmp_path / "counts.csv"
        cfg = write_config(tmp_path / "cfg.json", output={"csv": str(csv_path)})
        x = np.random.default_rng(2).uniform(-1, 1, (8, 64)).astype(np.float32)
        r = runner.invoke(main, ["analyze", "--config", cfg,
                                 "--in", self._store(tmp_path, x), "--input", "x"])
        assert r.exit_code == 0, r.output
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "channel,outlier_count"
        assert len(lines) == 65

    def test_missing_tensor_exits_io(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        x = np.zeros((4, 64), dtype=np.float32)
        r = runner.invoke(main, ["analyze", "--config", cfg,
                                 "--in", self._store(tmp_path, x), "--input", "y"])
        assert r.exit_code == 2


class TestEval:
    def test_all_fp_exact_cosine(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           quantization={"mode": "fp32"},
                           thresholds={"min_cosine": 1.0})
        r = runner.invoke(main, ["eval", "--config", cfg])
        assert r.exit_code == 0, r.output
        report = json.loads(r.output)
        assert report["records"][0]["cosine"] == 1.0

    def test_threshold_failure_names_metric(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           quantization={"mode": "w4a8"},
                           thresholds={"min_cosine": 0.9999})
        r = runner.invoke(main, ["eval", "--config", cfg])
        assert r.exit_code == 4
        assert "cosine" in r.output

    def test_prune_record_and_sparsity_algebra(self, runner, tmp_path):
        t, n_blocks, beta, m = 40, 5, 0.3, 4
        report_path = tmp_path / "report.json"
        cfg = write_config(tmp_path / "cfg.json",
                           sequence_length=t,
                           block={"n_blocks": n_blocks},
                           quantization={"mode": "w4a8"},
                           prune={"beta": beta, "m": m, "start_layer": 1},
                           output={"report": str(report_path)})
        r = runner.invoke(main, ["eval", "--config", cfg])
        assert r.exit_code == 0, r.output
        report = json.loads(report_path.read_text())
        names = [rec["name"] for rec in report["records"]]
        assert names == ["no_prune", "prune"]
        rec = report["records"][1]
        sched = rec["schedule"]
        assert sched["beta"] == beta and sched["m"] == m
        expect = make_schedule(n_blocks, 1, beta, m)
        assert sched["gamma"] == pytest.approx(expect.per_layer_ratio, abs=1e-12)
        # recompute the floor cascade and the layer-averaged sparsity
        remaining, fractions = t, []
        for layer in range(n_blocks):
            if layer in sched["prune_layers"]:
                remaining -= int(np.floor(sched["gamma"] * (remaining - 1)))
            fractions.append(remaining / t)
        assert rec["sparsity"] == pytest.approx(1 - np.mean(fractions), abs=1e-6)

    def test_seed_override_changes_output(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quantization={"mode": "w4a8"})
        r1 = runner.invoke(main, ["eval", "--config", cfg, "--seed", "1"])
        r2 = runner.invoke(main, ["eval", "--config", cfg, "--seed", "2"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        c1 = json.loads(r1.output)["records"][0]["cosine"]
        c2 = json.loads(r2.output)["records"][0]["cosine"]
        assert c1 != c2

    def test_deterministic_given_seed(self, runner, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quantization={"mode": "w4a4"})
        r1 = runner.invoke(main, ["eval", "--config", cfg])
        r2 = runner.invoke(main, ["eval", "--config", cfg])
        assert r1.output == r2.output


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_store_rows_bounded_by_sequence_length(runner, monkeypatch, tmp_path, command):
    """A store input may hold as many rows as the schema lets
    ``sequence_length`` have (256); one more row is a one-line store error
    (exit 2) before any forward pass, not a T x T buffer per head that may not fit."""
    limit = agq.cli._validator().schema["properties"]["sequence_length"]["maximum"]
    assert limit == 256
    cfg = write_config(tmp_path / "cfg.json", quantization={"mode": "w4a8"},
                       block={"d_model": 8, "n_heads": 1, "d_ff": 8, "n_blocks": 1})
    forward_block = agq.pipeline.forward_block
    calls = []
    monkeypatch.setattr(agq.pipeline, "forward_block",
                        lambda *a, **k: calls.append(1) or forward_block(*a, **k))
    extra = ["--input", "input"] if command == "analyze" else []
    for rows, code in ((limit, 0), (limit + 1, 2)):
        calls.clear()
        x = np.random.default_rng(rows).standard_normal((rows, 8)).astype(np.float32)
        save_store({"input": x}, tmp_path / "in.agqt")
        r = runner.invoke(main, [command, "--config", cfg,
                                 "--in", str(tmp_path / "in.agqt")] + extra)
        assert r.exit_code == code, r.output
        assert isinstance(r.exception, (SystemExit, type(None)))
        if code:
            assert calls == []
            assert r.stderr == ("store error: tensor 'input' has 257 rows, "
                                "more than sequence_length allows (256)\n")
        else:
            assert calls


PRUNE_SETTINGS = [None, {"beta": 0.5, "m": 2}, {"beta": 0.3, "m": 1},
                  {"beta": 0.6, "m": 3, "start_layer": 1}, {"beta": 0.4, "m": 1, "start_layer": 4}]


def _eval_both(runner, monkeypatch, args):
    """(exit code, stdout, stderr) of ``agq eval`` and of the four-pass
    reference body run behind the same command."""
    runs = []
    for callback in (eval_cmd.callback, ref_eval_cmd):
        monkeypatch.setattr(eval_cmd, "callback", callback)
        r = runner.invoke(main, ["eval"] + args)
        runs.append((r.exit_code, r.stdout, r.stderr))
    return runs


class TestEvalResumesPrunedPasses:
    """The pruned passes resume from their unpruned twins at the first prune
    layer; reports, exit codes and stderr lines equal the four full passes'."""

    @pytest.mark.parametrize("prune", PRUNE_SETTINGS, ids=lambda p: str(p and sorted(p.items())))
    @pytest.mark.parametrize("mode,act_quantizer", [
        ("fp32", "trip"), ("w4a8", "trip"), ("w4a8", "affine"), ("w4a4", "trip")])
    def test_report_equals_four_pass_reference(self, runner, monkeypatch, tmp_path,
                                               mode, act_quantizer, prune):
        cfg = {"sequence_length": 13, "block": {"n_blocks": 5, "d_model": 32, "n_heads": 2},
               "quantization": {"mode": mode, "act_quantizer": act_quantizer},
               "thresholds": {"min_cosine": 0.5}}
        if prune:
            cfg["prune"] = prune
        got, want = _eval_both(runner, monkeypatch, ["--config", write_config(
            tmp_path / "cfg.json", **cfg)])
        assert got == want
        assert got[0] in (0, 4) and got[1]

    def test_store_input_equals_reference(self, runner, monkeypatch, tmp_path):
        x = np.random.default_rng(4).standard_normal((10, 64)).astype(np.float32)
        save_store({"input": x}, tmp_path / "in.agqt")
        cfg = write_config(tmp_path / "cfg.json", block={"n_blocks": 4},
                           quantization={"mode": "w4a8"}, prune={"beta": 0.5, "m": 2})
        got, want = _eval_both(runner, monkeypatch, ["--config", cfg,
                                                     "--in", str(tmp_path / "in.agqt")])
        assert got == want and got[0] == 0

    # (block, passes that fail there, error type); a pass is (precision, input)
    # with an input "pruned" once it has fewer rows than the sequence
    FAILURES = [
        (1, {("fp", "full")}, agq.PipelineError),
        (3, {("fp", "full")}, agq.PipelineError),
        (1, {("q", "full")}, agq.PipelineError),
        (3, {("q", "full")}, agq.kernels.KernelError),
        (3, {("q", "pruned")}, agq.PipelineError),
        (2, {("fp", "pruned")}, agq.PipelineError),
        (1, {("q", "full"), ("fp", "full")}, agq.PipelineError),
        (3, {("q", "full"), ("fp", "full")}, agq.PipelineError),
        (4, {("q", "pruned"), ("fp", "full")}, agq.PipelineError),
        (4, {("fp", "pruned"), ("q", "pruned")}, agq.kernels.KernelError),
    ]

    @pytest.mark.parametrize("block,passes,error", FAILURES)
    def test_first_failing_pass_matches_reference(self, runner, monkeypatch, tmp_path,
                                                  block, passes, error):
        t = 13
        forward_block = agq.pipeline.forward_block

        def failing(blk, x, cfg=None, trace=None):
            kind = ("fp" if not cfg.sites else "q", "pruned" if len(x) < t else "full")
            if blk.cfg.seed == block and kind in passes:  # init_stack seeds block i with i
                raise error(f"injected in {kind[0]} {kind[1]} pass")
            return forward_block(blk, x, cfg, trace)

        monkeypatch.setattr(agq.pipeline, "forward_block", failing)
        cfg = write_config(tmp_path / "cfg.json", sequence_length=t,
                           block={"n_blocks": 5, "d_model": 32, "n_heads": 2},
                           quantization={"mode": "w4a8"},
                           prune={"beta": 0.5, "m": 2, "start_layer": 1})
        got, want = _eval_both(runner, monkeypatch, ["--config", cfg])
        assert got == want
        assert got[0] == 3 and "injected" in got[2]


def raw_store(path, name: bytes, x):
    """A one-tensor float32 store written byte by byte, so it can hold what
    save_store refuses to write."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    path.write_bytes(b"AGQT" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name))
                     + name + struct.pack("<BII", 0, *x.shape) + x.tobytes())
    return str(path)


def nan_store(tmp_path):
    x = np.zeros((4, 64), dtype=np.float32)
    x[1, 2] = np.nan
    return raw_store(tmp_path / "nan.agqt", b"input", x)


def overflow_store(tmp_path):
    """Finite float32 values whose products overflow float32 in the first site."""
    x = np.full((4, 64), 3e38, dtype=np.float32)
    x[1::2] *= -1
    path = tmp_path / "big.agqt"
    save_store({"input": x}, path)
    return str(path)


def empty_store(tmp_path):
    path = tmp_path / "empty.agqt"
    save_store({"input": np.zeros((0, 64), dtype=np.float32)}, path)
    return str(path)


def good_store(tmp_path, width=64, dtype=np.float32):
    path = tmp_path / "good.agqt"
    save_store({"input": np.ones((4, width), dtype=dtype)}, path)
    return str(path)


def normal_store(tmp_path):
    """An 8 x 64 input of 10x standard normals: |x| has a non-zero spread."""
    x = 10 * np.random.default_rng(0).standard_normal((8, 64)).astype(np.float32)
    path = tmp_path / "normal.agqt"
    save_store({"input": x}, path)
    return str(path)


def raw_config(path, data: bytes):
    path.write_bytes(data)
    return str(path)


# Each integer field of the run config written as an integral JSON float.
INTEGRAL_FLOATS = {
    "seed": {"seed": 1.0},
    "sequence-length": {"sequence_length": 8.0},
    "d-model": {"block": {"d_model": 64.0}},
    "n-heads": {"block": {"n_heads": 2.0}},
    "d-ff": {"block": {"d_ff": 32.0}},
    "n-blocks": {"block": {"n_blocks": 2.0}},
    "trip-cap": {"quantization": {"mode": "w4a8", "trip_cap": 2.0}},
    "prune-m": {"prune": {"beta": 0.5, "m": 2.0}},
    "start-layer": {"prune": {"beta": 0.5, "m": 1, "start_layer": 1.0}},
}


# (id, function of tmp_path returning the argument list, exit code)
EXIT_CASES = [
    ("config-not-utf8", lambda p: ["eval", "--config", raw_config(
        p / "c.json", b'{"seed": 0, "output": {"report": "r\xff.json"}}')], 1),
    ("config-nested-too-deep", lambda p: ["eval", "--config", raw_config(
        p / "c.json", b"[" * 100000)], 1),
    ("config-nan-threshold", lambda p: ["eval", "--config", write_config(
        p / "c.json", thresholds={"min_cosine": float("nan")})], 1),
    ("config-nan-k-sigma", lambda p: ["analyze", "--config", write_config(
        p / "c.json", analysis={"k_sigma": float("nan")}),
        "--in", good_store(p), "--input", "input"], 1),
    ("config-infinity", lambda p: ["analyze", "--config", write_config(
        p / "c.json", analysis={"k_sigma": float("inf")}),
        "--in", good_store(p), "--input", "input"], 1),
    ("config-number-overflows", lambda p: ["analyze", "--config", raw_config(
        p / "c.json", b'{"seed": 0, "analysis": {"k_sigma": 1e999}}'),
        "--in", good_store(p), "--input", "input"], 1),
    ("d-model-too-large", lambda p: ["eval", "--config", write_config(
        p / "c.json", block={"d_model": 1000000000000, "n_heads": 1})], 1),
    ("d-ff-too-large", lambda p: ["eval", "--config", write_config(
        p / "c.json", block={"d_ff": 2049})], 1),
    ("report-path-not-encodable", lambda p: ["eval", "--config", write_config(
        p / "c.json", output={"report": str(p / "r\ud800.json")})], 1),
    ("report-path-has-nul", lambda p: ["eval", "--config", write_config(
        p / "c.json", output={"report": str(p / "r\0.json")})], 1),
    ("csv-path-not-encodable", lambda p: ["analyze", "--config", write_config(
        p / "c.json", output={"csv": str(p / "c\ud800.csv")}),
        "--in", good_store(p), "--input", "input"], 1),
    ("heads-do-not-divide", lambda p: ["eval", "--config", write_config(
        p / "c.json", block={"d_model": 64, "n_heads": 5})], 1),
    ("prune-m-exceeds-blocks", lambda p: ["eval", "--config", write_config(
        p / "c.json", block={"n_blocks": 2}, prune={"beta": 0.3, "m": 3})], 1),
    ("start-layer-past-end", lambda p: ["eval", "--config", write_config(
        p / "c.json", block={"n_blocks": 2},
        prune={"beta": 0.3, "m": 1, "start_layer": 5})], 1),
    ("seed-not-an-int", lambda p: ["eval", "--config", write_config(p / "c.json"),
                                   "--seed", "x"], 1),
    ("seed-negative", lambda p: ["eval", "--config", write_config(p / "c.json"),
                                 "--seed", "-1"], 1),
    *[(f"{field}-integral-float", lambda p, o=overrides: [
        "eval", "--config", write_config(p / "c.json", **o)], 1)
      for field, overrides in INTEGRAL_FLOATS.items()],
    ("unknown-group-option", lambda p: ["--threads", "2", "eval", "--config",
                                        write_config(p / "c.json")], 1),
    ("missing-command", lambda p: [], 1),
    ("unknown-command", lambda p: ["bench"], 1),
    ("report-dir-missing", lambda p: ["eval", "--config", write_config(
        p / "c.json", output={"report": str(p / "no" / "r.json")})], 2),
    ("csv-dir-missing", lambda p: ["analyze", "--config", write_config(
        p / "c.json", output={"csv": str(p / "no" / "c.csv")}),
        "--in", good_store(p), "--input", "input"], 2),
    ("nan-store-eval", lambda p: ["eval", "--config", write_config(p / "c.json"),
                                  "--in", nan_store(p)], 2),
    ("nan-store-analyze", lambda p: ["analyze", "--config", write_config(p / "c.json"),
                                     "--in", nan_store(p), "--input", "input"], 2),
    ("nan-store-quantize", lambda p: ["quantize", "--config", write_config(p / "c.json"),
                                      "--in", nan_store(p), "--out", str(p / "o.agqt")], 2),
    ("uint8-store-eval", lambda p: ["eval", "--config", write_config(p / "c.json"),
                                    "--in", good_store(p, dtype=np.uint8)], 2),
    ("uint8-store-quantize", lambda p: ["quantize", "--config", write_config(p / "c.json"),
                                        "--in", good_store(p, dtype=np.uint8),
                                        "--out", str(p / "o.agqt")], 2),
    ("uint8-store-analyze", lambda p: ["analyze", "--config", write_config(p / "c.json"),
                                       "--in", good_store(p, dtype=np.uint8),
                                       "--input", "input"], 2),
    ("name-not-utf8", lambda p: ["eval", "--config", write_config(p / "c.json"), "--in",
                                 raw_store(p / "u.agqt", b"\xff\xfe", np.ones((4, 64)))], 2),
    ("overflow-store-eval", lambda p: ["eval", "--config", write_config(p / "c.json"),
                                       "--in", overflow_store(p)], 3),
    ("overflow-store-analyze", lambda p: ["analyze", "--config", write_config(p / "c.json"),
                                          "--in", overflow_store(p), "--input", "input"], 3),
    ("empty-store-eval", lambda p: ["eval", "--config", write_config(p / "c.json"),
                                    "--in", empty_store(p)], 3),
    ("input-width-mismatch", lambda p: ["analyze", "--config", write_config(p / "c.json"),
                                        "--in", good_store(p, width=32),
                                        "--input", "input"], 3),
    ("k-sigma-threshold-overflows", lambda p: ["analyze", "--config", write_config(
        p / "c.json", analysis={"k_sigma": 1e308}),
        "--in", normal_store(p), "--input", "input"], 3),
    ("threshold-missed", lambda p: ["eval", "--config", write_config(
        p / "c.json", quantization={"mode": "w4a8"},
        thresholds={"min_cosine": 0.9999})], 4),
]


@pytest.mark.parametrize("make_args,code", [c[1:] for c in EXIT_CASES],
                         ids=[c[0] for c in EXIT_CASES])
def test_exit_code_table(runner, tmp_path, make_args, code):
    r = runner.invoke(main, make_args(tmp_path))
    assert r.exit_code == code, r.output
    assert isinstance(r.exception, SystemExit)  # not an escaped exception
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert "error: " in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("overrides", INTEGRAL_FLOATS.values(), ids=INTEGRAL_FLOATS)
def test_integral_float_is_not_an_integer(runner, tmp_path, overrides):
    """JSON Schema counts 2.0 as an integer; the run config does not."""
    r = runner.invoke(main, ["eval", "--config", write_config(tmp_path / "c.json", **overrides)])
    assert r.exit_code == 1
    assert r.stderr.startswith("config error: schema: ")
    assert r.stderr.rstrip().endswith(".0 is not of type 'integer'")


def test_renamed_copy_reads_its_own_schema(tmp_path):
    """A copy of the package imported under another name, with ``agq``
    itself unimportable, validates configs against the copy's schema."""
    copy = tmp_path / "agq_copy"
    shutil.copytree(Path(agq.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    schema_path = copy / "schemas" / "run_config.schema.json"
    schema = json.loads(schema_path.read_text())
    schema["properties"]["sequence_length"]["maximum"] = 7
    schema_path.write_text(json.dumps(schema))
    good, bad = write_config(tmp_path / "good.json"), write_config(
        tmp_path / "bad.json", sequence_length=8)
    script = (
        "import sys\n"
        "sys.modules['agq'] = None  # any import of agq fails\n"
        "from agq_copy import cli\n"
        "print(cli._validator().schema['properties']['sequence_length']['maximum'])\n"
        f"print(cli.load_config({good!r})['seed'])\n"
        "try:\n"
        f"    cli.load_config({bad!r})\n"
        "except cli.ConfigError as e:\n"
        "    print(e)\n")
    r = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["7", "0", "schema: 8 is greater than the maximum of 7"]


# A fuzzed run: a small config (valid or not) and a store of finite values,
# tiny to near float32 max, whose width may not match d_model.
fuzz_configs = st.fixed_dictionaries(
    {"seed": st.integers(0, 3)},
    optional={
        "sequence_length": st.integers(1, 16),
        "block": st.fixed_dictionaries({}, optional={
            "d_model": st.sampled_from([4, 8, 12]),
            "n_heads": st.integers(1, 4),
            "d_ff": st.integers(1, 16),
            "n_blocks": st.integers(1, 2),
        }),
        "quantization": st.fixed_dictionaries({}, optional={
            "mode": st.sampled_from(["fp32", "w4a8", "w4a4"]),
            "act_quantizer": st.sampled_from(["affine", "trip"]),
            "trip_cap": st.integers(0, 6),
        }),
        "prune": st.fixed_dictionaries(
            {"beta": st.floats(0, 0.99), "m": st.integers(1, 3)},
            optional={"start_layer": st.integers(0, 2)}),
        "analysis": st.fixed_dictionaries({"k_sigma": st.floats(0.1, 10)}),
        "thresholds": st.fixed_dictionaries({"min_cosine": st.floats(-1, 1)}),
    },
)
fuzz_values = st.one_of(
    st.floats(-4, 4, width=32),
    st.sampled_from([0.0, 1e-38, 1e-45, 3e38, -3e38, 3.4028235e38]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=fuzz_configs, command=st.sampled_from(["eval", "analyze", "quantize"]),
       t=st.integers(0, 16), width=st.sampled_from([None, None, None, 4, 8]),
       values=st.lists(fuzz_values, min_size=1, max_size=4), seed=st.integers(0, 3))
def test_cli_fuzz_exit_contract(runner, tmp_path, cfg, command, t, width, values, seed):
    """Any small config and finite store ends with an exit code of 0-4 and at
    most one stderr line: no traceback, no numpy warning. A ``None`` width is
    the config's d_model."""
    width = width or cfg.get("block", {}).get("d_model", 64)
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array(values, dtype=np.float32), size=(t, width))
    store = tmp_path / "fuzz.agqt"
    save_store({"input": x}, store)
    args = [command, "--config", write_config(tmp_path / "fuzz.json", **cfg),
            "--in", str(store)]
    args += {"analyze": ["--input", "input"], "quantize": ["--out", str(tmp_path / "o.agqt")],
             "eval": []}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = runner.invoke(main, args)
    assert r.exit_code in (0, 1, 2, 3, 4), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert len(r.stderr.splitlines()) <= 1, r.stderr
    assert "Traceback" not in r.stderr
