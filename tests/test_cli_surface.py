"""Golden record of the command line's surface for `construct` and `criterion`.

For each argv below, tests/cli_surface.json holds the exit code, stdout and
stderr of `ncyclepp` run in-process with COLUMNS=80, the `elapsed_s` timing
line dropped.  The cases are:

- the `--help` of `construct`, `criterion` and each of their subcommands,
  which pins every option's name, order, default and help text;
- each subcommand with no options (argparse lists the missing required
  options in declaration order) and with an unknown option;
- one small run of each subcommand that succeeds;
- malformed values, several at once where a subcommand converts more than
  one, so the message shows which option is converted first.

Re-record after a deliberate change to the surface with
`PYTHONPATH=src python tests/test_cli_surface.py` from the repository root.
"""
import io
import json
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ncyclepp.cli import main

GOLDEN = Path(__file__).with_name("cli_surface.json")
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

# one small run of each subcommand that succeeds
VALID = {
    "construct jieguo": "--q 64 --t 25 --m 5",
    "construct rs2to3m": "--q 8 --k 3",
    "construct xq_h_alpha": "--q 4 --alpha g^21",
    "construct trace_theta": "--q 4",
    "construct xh_lambda": "--p 5 --n 2 --variant involution_cor --sub-degree 1",
    "construct additive": "--p 3 --n 2 --variant trace_g1 --sub-degree 1",
    "construct shift": "--p 3 --n 2 --variant power_g2 --sub-degree 1 --i 1 "
                       "--delta 4 --s 4",
    "criterion monomial": "--p 2 --n 6 --d 8 --cycle 2",
    "criterion frobenius_twist": "--p 2 --n 4 --poly x^4 --i 1 --cycle 2 "
                                 "--sub-degree 1",
    "criterion xh_lambda": "--p 5 --n 2 --h 1+3*x^4 --lam lambda1:2 "
                           "--k 1*x^2 --cycle 2",
    "criterion additive": "--p 3 --n 2 --phi 1*x^1 --psi 2*x^1+1*x^3 "
                          "--g 1*x^2+1*x^6 --cycle 3",
    "criterion shift": "--p 3 --n 2 --g 1*x^4 --i 1 --delta 0 --sub-degree 1 "
                       "--cycle 3",
    "criterion rs_triple": "--p 2 --n 6 --h x^7 --r 1 --s 21",
    "criterion rs_single": "--p 2 --n 6 --h x^7 --r 1 --s 21 --a 1 --v 1",
}

MALFORMED = [
    "construct jieguo --q 64 --t 2+ --m 5",
    "construct jieguo --q 64 --t zz1 --m zz2",
    "construct rs2to3m --q 8 --k zz",
    "construct xq_h_alpha --q 4 --alpha zz",
    "construct trace_theta --q 4 --theta zz",
    "construct xh_lambda --p 5 --n 2 --variant abc_cor --sub-degree 1 "
    "--cycle zz1 --a zz2 --b zz3 --c zz4",
    "construct xh_lambda --p 5 --n 2 --variant abc_cor --sub-degree 1 "
    "--a zz2 --b zz3",
    "construct xh_lambda --p 5 --n 2 --variant abc_cor --sub-degree 3 "
    "--cycle zz1",
    # text options the variant does not use are passed through unread
    "construct xh_lambda --p 5 --n 2 --variant abc_cor --sub-degree 1 "
    "--a 1 --b 3 --c 1 --h junk",
    "construct additive --p 3 --n 2 --variant power_g2 --sub-degree 1 --s zz",
    "construct additive --p 3 --n 2 --variant trace_g1 --sub-degree 3 --s zz",
    "construct shift --p 3 --n 2 --variant power_g2 --sub-degree 1 "
    "--i zz1 --delta 4 --s zz2",
    "construct shift --p 3 --n 2 --variant power_g2 --sub-degree 1 "
    "--i 1 --delta 4 --s zz2",
    "criterion monomial --p 2 --n 6 --d zz1 --cycle zz2",
    "criterion frobenius_twist --p 2 --n 4 --poly x^zp --i zz1 --cycle zz2 "
    "--sub-degree 1",
    "criterion frobenius_twist --p 2 --n 4 --poly x^4 --i zz1 --cycle zz2 "
    "--sub-degree 1",
    "criterion xh_lambda --p 5 --n 2 --h x^zh --lam x^zl --k x^zk "
    "--cycle zz",
    "criterion xh_lambda --p 5 --n 2 --h 1 --lam x^zl --k x^zk --cycle zz",
    "criterion xh_lambda --p 5 --n 2 --h 1 --lam lambda1:2 --k x^zk --cycle zz",
    "criterion xh_lambda --p 5 --n 2 --h 1 --lam lambda1:2 --k x --cycle zz",
    "criterion additive --p 3 --n 2 --phi x^zp --psi x^zs --g x^zg --cycle zz",
    "criterion additive --p 3 --n 2 --phi 1*x^1 --psi x^zs --g x^zg --cycle zz",
    "criterion additive --p 3 --n 2 --phi 1*x^1 --psi 2*x^1+1*x^3 --g x^zg "
    "--cycle zz",
    # --i, then --delta, then --g
    "criterion shift --p 3 --n 2 --g x^^ --i zz --delta 0 --sub-degree 1 "
    "--cycle 3",
    "criterion shift --p 3 --n 2 --g x^zg --i 1 --delta zd --sub-degree 1 "
    "--cycle zc",
    "criterion shift --p 3 --n 2 --g x^zg --i 1 --delta 0 --sub-degree 1 "
    "--cycle zc",
    "criterion rs_triple --p 2 --n 6 --h x^zh --r zz1 --s zz2",
    "criterion rs_triple --p 2 --n 6 --h x^7 --r zz1 --s zz2",
    "criterion rs_single --p 2 --n 6 --h x^zh --r zz1 --s zz2 --a zz3 --v zz4",
    "criterion rs_single --p 2 --n 6 --h x^7 --r 1 --s zz2 --a zz3 --v zz4",
    "criterion rs_single --p 2 --n 6 --h x^7 --r 1 --s 21 --a zz3 --v zz4",
]

CASES = [
    "construct --help",
    "criterion --help",
    *(f"{name} --help" for name in VALID),
    *VALID,                                        # no options at all
    *(f"{name} {opts} --bogus 1" for name, opts in VALID.items()),
    *(f"{name} {opts}" for name, opts in VALID.items()),
    "construct trace_theta --q 4 --verify",
    *MALFORMED,
]


def run(argv: str) -> int:
    try:
        return main(shlex.split(argv))
    except SystemExit as exc:
        return exc.code


def observed(code: int, out: str, err: str) -> dict:
    err = "".join(line for line in err.splitlines(keepends=True)
                  if not line.startswith("elapsed_s "))
    return {"code": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("argv", CASES)
def test_surface_matches_golden(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = run(argv)
    assert observed(code, *capsys.readouterr()) == EXPECTED[argv]


def record() -> None:
    os.environ["COLUMNS"] = "80"
    golden = {}
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        golden[argv] = observed(code, out.getvalue(), err.getvalue())
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
