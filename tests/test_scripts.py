"""Command-line scripts under scripts/."""
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from ncyclepp.oracle import random_family_fuzz

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fuzz_all_families_lines_are_json(capsys):
    fuzz = load_script("fuzz_all_families")
    families = ["involution_cor", "shift"]
    assert fuzz.main(["--trials", "2", "--families", *families,
                      "--lines"]) == 0
    lines = capsys.readouterr().out.splitlines()
    per_family = 4   # two trial lines, the summary line, the table row
    for k, fam in enumerate(families):
        block = lines[k * per_family:(k + 1) * per_family]
        trials = [json.loads(line) for line in block[:2]]
        assert [t["index"] for t in trials] == [0, 1]
        assert json.loads(block[2])["summary"]["family"] == fam
        assert block[3].startswith(fam)


def test_fuzz_all_families_counts_distinct_instances(capsys):
    fuzz = load_script("fuzz_all_families")
    families = ["shift", "trace_theta"]
    assert fuzz.main(["--trials", "30", "--seed", "2",
                      "--families", *families]) == 0
    out = capsys.readouterr().out
    rows = re.findall(r"^(\w+) +(\d+) comparisons \( *(\d+) distinct\)", out,
                      re.M)
    summaries = [random_family_fuzz(fam, 2, 30) for fam in families]
    assert rows == [(s.family, str(s.comparisons), str(s.distinct))
                    for s in summaries]
    assert summaries[1].distinct < summaries[1].comparisons
    total = re.search(r"^(\d+) comparisons \((\d+) distinct\), ", out, re.M)
    assert total.groups() == (str(sum(s.comparisons for s in summaries)),
                              str(sum(s.distinct for s in summaries)))


@pytest.mark.parametrize("q", ["6", "16"])
def test_jieguo_sweep_rejects_a_bad_q(capsys, q):
    # 6 is not a power of 2, and 16 is not 2^(12k - 6)
    sweep = load_script("jieguo_pair_sweep")
    assert sweep.main(["--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


def test_jieguo_sweep_checks_the_shape_of_q_before_building_the_field(capsys,
                                                                     monkeypatch):
    # 4096 is a power of 2 but not 2^(12k - 6): refused before GF(4096^2),
    # a field of 2^24 points, is built
    sweep = load_script("jieguo_pair_sweep")

    def no_field(*args, **kwargs):
        raise AssertionError("make_field called")

    monkeypatch.setattr(sweep, "make_field", no_field)
    assert sweep.main(["--q", "4096"]) == 2
    assert "12k'-6" in capsys.readouterr().err


def test_jieguo_sweep_checks_the_cap_before_the_congruence_scan():
    # q = 2^30 has the right shape, but GF(q^2) is past the cap: the
    # command must refuse before scanning (q + 1)^2 pairs
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(SCRIPTS / "jieguo_pair_sweep.py"),
                           "--q", str(2 ** 30)],
                          capture_output=True, text=True, timeout=30)
    assert perf_counter() - t0 < 2.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds cap" in proc.stderr
