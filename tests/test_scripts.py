"""Command-line scripts under scripts/."""
import importlib.util
import json
from pathlib import Path

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
