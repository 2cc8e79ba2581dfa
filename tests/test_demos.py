"""Each walkthrough in demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_cli_demo_exits_with_failing_step_code(tmp_path):
    """A CLI step that fails ends the walkthrough with that step's exit code,
    so a broken subcommand cannot pass ``test_demo_runs`` unnoticed."""
    source = (ROOT / "demos" / "06_cli_workflow.py").read_text()
    demo = tmp_path / "cli_workflow_with_bad_step.py"
    demo.write_text(source + '\nrun("bench")\nprint("not reached")\n')
    proc = run_demo(demo)
    assert proc.returncode == 1, proc.stderr
    assert "exit 1: usage error:" in proc.stderr
    assert "not reached" not in proc.stdout
