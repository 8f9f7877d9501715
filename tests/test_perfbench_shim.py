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


def traced_run(tmp_path, argv):
    """The shim's and the plain CLI's runs of argv (both must exit 0 with
    the same stdout) and the shim's per-layer totals."""
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    traced = subprocess.run([sys.executable, str(SHIM), str(out), *argv],
                            capture_output=True, text=True, timeout=60, env=env)
    plain = run_cli(argv, env=env)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    return json.loads(out.read_text())


def test_shim_runs_the_cli_and_writes_every_layer(tmp_path):
    totals = traced_run(tmp_path, ARGV)
    assert set(load_shim().PER_LAYER) <= set(totals)
    # the CLI reaches builders and criteria through the names the shim
    # rebinds: a dispatch table holding the function objects zeroes these
    assert totals["criteria.calls"] >= 1
    assert totals["families.build_calls"] >= 1
    assert totals["oracle.exhaustive_points"] >= 1


def test_shim_counts_a_criterion_command_once(tmp_path):
    totals = traced_run(tmp_path, ["criterion", "rs_triple", "--p", "2",
                                   "--n", "6", "--h", "1+x^21+x^42",
                                   "--r", "1", "--s", "21"])
    assert totals["criteria.calls"] == 1
