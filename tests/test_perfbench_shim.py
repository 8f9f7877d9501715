"""The benchmark's traced child process, perfbench/shim.py, against the CLI.

The shim wraps library functions by name; a rename or deletion of one of
them makes it fail at install, before the CLI runs.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import run_cli

ROOT = Path(__file__).resolve().parent.parent
SHIM = ROOT / "perfbench" / "shim.py"
ARGV = ["construct", "jieguo", "--q", "64", "--t", "25", "--m", "5", "--verify"]


def load_shim():
    spec = importlib.util.spec_from_file_location("perfbench_shim", SHIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shim_runs_the_cli_and_writes_every_layer(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    traced = subprocess.run([sys.executable, str(SHIM), str(out), *ARGV],
                            capture_output=True, text=True, timeout=60, env=env)
    plain = run_cli(ARGV, env=env)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    totals = json.loads(out.read_text())
    assert set(load_shim().PER_LAYER) <= set(totals)
    assert totals["criteria.calls"] >= 1
