"""Command line interface: output documents, exit codes, determinism."""
import hashlib
import json
import os
import subprocess
import sys
from time import perf_counter

import pytest

from conftest import run_cli
from ncyclepp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestField:
    def test_prints_context(self, capsys):
        code, doc = run_json(capsys, "field", "--p", "2", "--n", "3")
        assert code == 0
        assert doc == {"p": 2, "n": 3, "modulus": [1, 1, 0, 1]}

    def test_explicit_modulus(self, capsys):
        code, doc = run_json(capsys, "field", "--p", "2", "--n", "3",
                             "--modulus", "1,1,0,1")
        assert code == 0 and doc["modulus"] == [1, 1, 0, 1]

    def test_reducible_modulus_rejected(self, capsys):
        code, _ = run(capsys, "field", "--p", "2", "--n", "3",
                      "--modulus", "1,0,0,1")
        assert code == 2

    def test_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NCYC_CAP", "100")
        code, _ = run(capsys, "field", "--p", "2", "--n", "12")
        assert code == 3


class TestConstruct:
    def test_congruence_trinomial_with_verification(self, capsys):
        code, doc = run_json(capsys, "construct", "jieguo", "--q", "64",
                             "--t", "25", "--m", "5", "--verify")
        assert code == 0
        assert doc["poly"] == "1*x^316+1*x^1576+1*x^2836"
        rep = doc["cross_check"]
        assert rep["status"] == "AGREE"
        assert rep["oracle"]["bijective"] is True
        assert rep["oracle"]["order"] == 3

    @pytest.mark.parametrize("argv,poly", [
        ("xh_lambda --p 5 --n 2 --variant involution_cor --sub-degree 1",
         "4*x^1"),
        ("xh_lambda --p 3 --n 6 --variant involution_cor --sub-degree 1 "
         "--lam lambda2",
         "f02a5d9cf42bdb683ee37f74c749623c90a1e2a4fb1248e2be78b6f0e83da0a7"),
        ("xh_lambda --p 5 --n 6 --variant involution_cor --sub-degree 1 "
         "--lam lambda2", None),
        ("additive --p 3 --n 2 --variant trace_g1 --sub-degree 1",
         "1*x^1+2*x^2+2*x^4+2*x^6"),
        ("shift --p 7 --n 2 --variant trace_g1 --sub-degree 1 --i 1 "
         "--delta 1", "2+1*x^1+2*x^2+3*x^8+2*x^14"),
    ])
    def test_deferred_poly_is_printed(self, capsys, argv, poly):
        # the builders defer the expansion and construct reads it: the
        # text (a digest when long) as expanded eagerly, null past the cap
        code, doc = run_json(capsys, "construct", *argv.split())
        assert code == 0
        got = doc["poly"]
        if got is not None and len(got) > 100:
            got = hashlib.sha256(got.encode()).hexdigest()
        assert got == poly

    def test_congruence_trinomial_rejects_bad_pair(self, capsys):
        code, _ = run(capsys, "construct", "jieguo", "--q", "64",
                      "--t", "1", "--m", "1")
        assert code == 2

    def test_additive_trace_shape(self, capsys):
        code, doc = run_json(capsys, "construct", "additive", "--p", "3",
                             "--n", "2", "--variant", "trace_g1",
                             "--sub-degree", "1")
        assert code == 0
        assert doc["poly"] == "1*x^1+2*x^2+2*x^4+2*x^6"
        assert doc["claimed_n"] == 3

    def test_involution_verifies_with_spectrum(self, capsys):
        code, doc = run_json(capsys, "construct", "xh_lambda", "--p", "5",
                             "--n", "2", "--variant", "involution_cor",
                             "--sub-degree", "1", "--verify")
        assert code == 0
        assert doc["claimed_n"] == 2
        assert doc["cross_check"]["walsh_checked"] is True

    def test_false_claim_exits_one_but_agrees(self, capsys):
        code, doc = run_json(capsys, "construct", "xq_h_alpha", "--q", "4",
                             "--alpha", "1", "--verify")
        assert code == 1
        assert doc["cross_check"]["status"] == "AGREE"
        assert doc["cross_check"]["criterion_holds"] is False

    def test_shift_quartic(self, capsys):
        code, doc = run_json(capsys, "construct", "shift", "--p", "3",
                             "--n", "2", "--variant", "power_g2",
                             "--sub-degree", "1", "--i", "1", "--delta", "4",
                             "--s", "4", "--verify")
        assert code == 0
        assert doc["cross_check"]["oracle"]["order"] == 3

    def test_trace_twist_reports_inverse(self, capsys):
        code, doc = run_json(capsys, "construct", "trace_theta", "--q", "4",
                             "--verify")
        assert code == 0
        assert "inverse_poly" in doc
        assert doc["cross_check"]["oracle"]["order"] == 3

    def test_element_literal_flags(self, capsys):
        code, doc = run_json(capsys, "construct", "xq_h_alpha", "--q", "4",
                             "--alpha", "g^21", "--verify")
        assert code == 0
        assert doc["cross_check"]["oracle"]["order"] == 3

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "construct", "rs2to3m", "--q", "8", "--k", "3")
        _, second = run(capsys, "construct", "rs2to3m", "--q", "8",
                        "--k", "3")
        assert first == second


class TestVerifyAndOrder:
    def test_identity_is_a_five_cycle(self, capsys):
        code, doc = run_json(capsys, "verify", "--p", "7", "--n", "1",
                             "--poly", "1*x^1", "--cycle", "5")
        assert code == 0 and doc["order"] == 1

    def test_exit_one_when_claim_false(self, capsys):
        code, doc = run_json(capsys, "verify", "--p", "7", "--n", "1",
                             "--poly", "1*x^5", "--cycle", "3")
        assert code == 1 and doc["is_ncycle_at"] == {"3": False}

    def test_exponent_expressions_use_field_size(self, capsys):
        code, doc = run_json(capsys, "verify", "--p", "2", "--n", "6",
                             "--poly", "1*x^(q-2)", "--cycle", "2")
        assert code == 0 and doc["order"] == 2

    def test_order_report(self, capsys):
        code, doc = run_json(capsys, "order", "--p", "7", "--n", "1",
                             "--poly", "1*x^5")
        assert code == 0
        assert doc["order"] == 2 and doc["cycle_type"] == [[1, 3], [2, 2]]

    def test_order_of_non_bijection(self, capsys):
        code, doc = run_json(capsys, "order", "--p", "7", "--n", "1",
                             "--poly", "1*x^2")
        assert code == 1 and doc["order"] is None

    def test_csv_flattens_cycle_type(self, capsys):
        code, out = run(capsys, "order", "--p", "7", "--n", "1",
                        "--poly", "1*x^5", "--csv")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["cycle_1"] == "3" and cols["cycle_2"] == "2"
        assert cols["order"] == "2"


class TestCriterion:
    def test_monomial(self, capsys):
        code, doc = run_json(capsys, "criterion", "monomial", "--p", "2",
                             "--n", "6", "--d", "8", "--cycle", "2")
        assert code == 0 and doc["holds"] is True
        code, doc = run_json(capsys, "criterion", "monomial", "--p", "2",
                             "--n", "6", "--d", "5", "--cycle", "2")
        assert code == 1 and doc["holds"] is False

    def test_monomial_non_permutation_exits_one(self, capsys):
        code, _ = run(capsys, "criterion", "monomial", "--p", "7", "--n", "1",
                      "--d", "3", "--cycle", "2")
        assert code == 1

    def test_rs_triple(self, capsys):
        code, doc = run_json(capsys, "criterion", "rs_triple", "--p", "2",
                             "--n", "12", "--h", "1*x^5+1*x^25+1*x^45",
                             "--r", "1", "--s", "q//64-1")
        assert code == 0 and doc["holds"] is True

    def test_additive(self, capsys):
        code, doc = run_json(capsys, "criterion", "additive", "--p", "3",
                             "--n", "2", "--phi", "1*x^1",
                             "--psi", "2*x^1+1*x^3", "--g", "1*x^2+1*x^6",
                             "--cycle", "3")
        assert code == 0 and doc["holds"] is True

    def test_shift(self, capsys):
        code, doc = run_json(capsys, "criterion", "shift", "--p", "3",
                             "--n", "2", "--g", "1*x^4", "--i", "1",
                             "--delta", "0", "--sub-degree", "1",
                             "--cycle", "3")
        assert code == 0 and doc["holds"] is True

    @pytest.mark.parametrize("sub_degree", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["frobenius_twist", "--poly", "x^3", "--i", "1", "--cycle", "2"],
        ["shift", "--g", "1*x^4", "--i", "1", "--delta", "0", "--cycle", "3"],
    ], ids=["frobenius_twist", "shift"])
    def test_nonpositive_sub_degree_is_a_usage_error(self, capsys, argv,
                                                     sub_degree):
        code, out = run(capsys, "criterion", *argv, "--p", "3", "--n", "2",
                        "--sub-degree", sub_degree)
        assert code == 2 and out == ""

    def test_xh_lambda_with_named_inner_map(self, capsys):
        code, doc = run_json(capsys, "criterion", "xh_lambda", "--p", "5",
                             "--n", "2", "--h", "1+3*x^4",
                             "--lam", "lambda1:2", "--k", "1*x^2",
                             "--cycle", "2")
        assert code == 0 and doc["holds"] is True

    def test_hypothesis_violation_is_a_usage_error(self, capsys):
        code, _ = run(capsys, "criterion", "additive", "--p", "3", "--n", "2",
                      "--phi", "1*x^2", "--psi", "2*x^1+1*x^3",
                      "--g", "1*x^2", "--cycle", "3")
        assert code == 2


class TestSearchWalshFuzz:
    def test_search_congruences(self, capsys):
        code, doc = run_json(capsys, "search", "jieguo", "--q", "64")
        assert code == 0
        assert [25, 5] in doc["pairs"] and len(doc["pairs"]) == 15

    def test_search_trinomial_exponents(self, capsys):
        code, doc = run_json(capsys, "search", "k2to3m", "--q", "8")
        assert code == 0 and doc["k"] == [3, 10, 17, 24, 31, 38, 45]

    def test_search_rejects_bad_tower(self, capsys):
        code, _ = run(capsys, "search", "jieguo", "--q", "8")
        assert code == 2

    def test_walsh_involution(self, capsys):
        code, doc = run_json(capsys, "walsh", "--p", "5", "--n", "1",
                             "--poly", "1*x^3", "--check-involution")
        assert code == 0 and doc == {"involution": True, "witness": None}

    def test_walsh_non_involution_reports_witness(self, capsys):
        code, doc = run_json(capsys, "walsh", "--p", "2", "--n", "4",
                             "--poly", "1*x^2", "--check-involution")
        assert code == 1
        assert doc["involution"] is False and len(doc["witness"]) == 2

    def test_fuzz_emits_json_lines(self, capsys):
        code, out = run(capsys, "fuzz", "jieguo", "--seed", "0",
                        "--trials", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7
        assert json.loads(lines[-1])["summary"]["trials"] == 6

    def test_fuzz_rejects_unknown_family(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "nonsense", "--seed", "0", "--trials", "1"])


def test_console_script_matches_module():
    proc = subprocess.run(
        ["ncyclepp", "search", "k2to3m", "--q", "8"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k"][0] == 3
    assert "elapsed_s" in proc.stderr


def child_cli(*argv):
    """Run the command line in a child process: (exit code, stdout, the
    seconds it reports in elapsed_s on stderr)."""
    proc = run_cli(argv)
    return (proc.returncode, proc.stdout,
            float(proc.stderr.rsplit("elapsed_s", 1)[1]))


def test_k2to3m_search_is_closed_form():
    # the scan took 7(q - 1) steps, some 10^15 at q = 2^48
    code, out, seconds = child_cli("search", "k2to3m", "--q", str(2 ** 48))
    assert code == 0 and seconds < 1.0
    q1, ks = 2 ** 48 - 1, json.loads(out)["k"]
    assert len(ks) == 7 and ks == sorted(ks) and 1 <= ks[0] and ks[-1] <= 7 * q1
    assert all(7 * k % q1 == 0 and k % 7 == 3 for k in ks)


@pytest.mark.parametrize("tm", [("0", "0"), ("1", "1")])
def test_jieguo_checks_the_cap_before_the_congruence_scan(tm):
    # the scan takes up to (q + 1)^2 steps; GF((2^30)^2) is past the cap
    code, out, seconds = child_cli("construct", "jieguo", "--q", str(2 ** 30),
                                   "--t", tm[0], "--m", tm[1])
    assert code == 3 and out == "" and seconds < 2.0


def test_jieguo_search_checks_the_cap_before_the_congruence_scan():
    # q = 2^30 has the right shape, but the scan would take up to (q + 1)^2
    # steps: q is refused against the field-size cap first
    code, out, seconds = child_cli("search", "jieguo", "--q", str(2 ** 30))
    assert code == 3 and out == "" and seconds < 2.0


def test_jieguo_search_obeys_the_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("NCYC_CAP", "4096")
    assert main(["search", "jieguo", "--q", str(2 ** 18)]) == 3
    assert "exceeds cap 4096" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [None, "1000", str(2 ** 25)])
@pytest.mark.parametrize("argv", [
    ["construct", "xq_h_alpha", "--q", "512", "--alpha", "1"],
    ["construct", "jieguo", "--q", "4096", "--t", "0", "--m", "0"]])
def test_q_family_shape_is_checked_before_the_field_whatever_the_cap(
        capsys, monkeypatch, cap, argv):
    # 2^9 is no even power of 2, and 2^12 is no 2^(12k'-6): both are
    # refused before any field is built, so the cap cannot change the code
    def no_field(*args, **kwargs):
        raise AssertionError("a field was built")

    if cap is not None:
        monkeypatch.setenv("NCYC_CAP", cap)
    monkeypatch.setattr("ncyclepp.field.FieldCtx.__init__", no_field)
    assert main(argv) == 2
    assert "q must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["construct", "jieguo", "--q", "64", "--t", "25", "--m", "5"],
    ["fuzz", "trace_theta", "--seed", "0", "--trials", "5"]])
def test_cap_override_binds_on_q_families_and_fuzz(capsys, monkeypatch, argv):
    # GF(2^12) and the fuzzer's GF(2^6) are past these caps
    monkeypatch.setenv("NCYC_CAP", "16" if argv[0] == "fuzz" else "100")
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "exceeds cap" in err


def test_tables_past_the_address_space_exit_three_at_once():
    # GF(2^30) is within this cap, but its tables (12 GiB) are not within
    # a 2 GB address space: refused before any table is allocated
    env = dict(os.environ, NCYC_CAP=str(2 ** 30))
    proc = run_cli(["field", "--p", "2", "--n", "30"], address_space=2 << 30, env=env)
    assert proc.returncode == 3 and proc.stdout == ""
    error, elapsed = proc.stderr.splitlines()
    assert error.startswith("error: the tables of GF(2^30)")
    assert float(elapsed.split()[1]) < 1.0


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "2", "--n", "24", "--poly", "x^(q-2)", "--cycle", "2"],
    ["order", "--p", "2", "--n", "24", "--poly", "x^4"]], ids=["verify", "order"])
def test_whole_field_arrays_past_the_address_space_exit_three(argv):
    # GF(2^24)'s tables fit in a 370 MiB address space, but the oracle's
    # image table and cycle engine (16 bytes a point) do not fit beside them,
    # 384 MiB in all: refused before the first of those arrays, not a
    # MemoryError traceback
    proc = run_cli(argv, address_space=370 << 20)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: the whole-field arrays of GF(2^24) take about")


def test_verify_at_the_cap_runs_in_600_mib():
    # the int32 image table and cycle engine fit beside GF(2^24)'s tables
    argv = ["verify", "--p", "2", "--n", "24", "--poly", "x^(q-2)", "--cycle", "2"]
    capped = run_cli(argv, address_space=600 << 20)
    assert capped.returncode == 0, capped.stderr
    assert capped.stdout == run_cli(argv).stdout


@pytest.mark.parametrize("poly,cycle", [("x^(9^9^9)", "2"), ("x^2", "2^(10^12)")])
def test_huge_power_exits_two_quickly(capsys, poly, cycle):
    argv = ["verify", "--p", "2", "--n", "4", "--poly", poly, "--cycle", cycle]
    # a child process first, with its address space capped at 2 GB, so
    # that an unbounded evaluation fails or is killed instead of hanging
    proc = run_cli(argv, address_space=2 << 30)
    assert proc.returncode == 2
    t0 = perf_counter()
    assert main(argv) == 2
    assert perf_counter() - t0 < 1.0
    assert "power too large" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "2", "--n", "16", "--poly", "x^(q-2)"],
    ["construct", "xh_lambda", "--p", "3", "--n", "4", "--variant",
     "custom_h", "--sub-degree", "1", "--h", "2"]])
def test_integer_past_the_print_limit_exits_two_at_once(argv):
    # 2^16000*3 has 4,817 digits, past Python's 4,300: unrefused, it costs
    # 1.8 s of squarings and then fails while the JSON is printed
    proc = run_cli([*argv, "--cycle", "2^16000*3"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert "'2^16000*3' has more than 4300 decimal digits" in proc.stderr
    elapsed = float(proc.stderr.split("elapsed_s ")[1])
    assert elapsed < 1.0


def test_threads_option_is_gone(capsys):
    # slice-wise evaluation runs on the calling thread; argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "2", "--n", "4", "--poly", "x", "--cycle", "1",
              "--threads", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


def test_walsh_spectrum_cap_exits_three_before_allocating():
    # GF(4093) passes the field-size cap, but its spectrum would be
    # (p - 1) q^2 = 2^36 float32: refused in a child process under a 2 GB
    # address-space limit, and skipped as the cross-check's third opinion
    gf = ["--p", "4093", "--n", "1"]

    def child(argv):
        return run_cli(argv, address_space=2 << 30, timeout=60)

    proc = child(["walsh"] + gf + ["--poly", "x^(q-2)", "--check-involution"])
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Walsh spectrum of GF(4093^1) above cap" in proc.stderr
    proc = child(["construct", "xh_lambda"] + gf + ["--variant", "involution_cor",
                                                   "--sub-degree", "1", "--verify"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)["cross_check"]
    assert report["status"] == "AGREE" and report["walsh_checked"] is False


def test_walsh_arrays_past_the_address_space_exit_three_at_once():
    # GF(643) is within the spectrum cap, but its q x q factor matrices alone
    # are 1 GiB of float32: refused before any is built, not a MemoryError
    # traceback
    argv = ["walsh", "--p", "643", "--n", "1", "--poly", "x^2", "--check-involution"]
    proc = run_cli(argv, address_space=600 << 20)
    assert proc.returncode == 3 and proc.stdout == ""
    error, elapsed = proc.stderr.splitlines()
    assert error.startswith("error: the Walsh test's arrays over GF(643^1) take about")
    assert float(elapsed.split()[1]) < 1.0


@pytest.mark.parametrize("poly,cycle", [("x^(2^-1)", "2"), ("x^2", "2^-1")])
def test_negative_power_exits_two(capsys, poly, cycle):
    # 2^-1 is no integer: it must not be truncated to x^0 or a 0-cycle
    argv = ["verify", "--p", "2", "--n", "4", "--poly", poly, "--cycle", cycle]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "negative power" in captured.err and captured.out == ""


def test_deeply_nested_exponent_exits_two(capsys):
    # ast.parse would raise a raw RecursionError and exit 1 with a traceback
    argv = ["verify", "--p", "3", "--n", "2", "--poly", "x^(" + "-" * 5000 + "1)",
            "--cycle", "2"]
    proc = run_cli(argv, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "nested too deeply" in proc.stderr and "Traceback" not in proc.stderr


def test_module_entry_point():
    proc = run_cli(["field", "--p", "3", "--n", "2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 3


@pytest.mark.parametrize("argv", [
    ["construct", "xh_lambda", "--p", "5", "--n", "7", "--variant", "involution_cor",
     "--sub-degree", "1", "--lam", "lambda2", "--verify"],
    ["construct", "xh_lambda", "--p", "3", "--n", "6", "--variant", "involution_cor",
     "--sub-degree", "1", "--lam", "lambda2", "--verify"],
    ["fuzz", "abc_cor", "--seed", "0", "--trials", "20"],
    ["fuzz", "involution_cor", "--seed", "0", "--trials", "20"],
    ["fuzz", "theta_cor", "--seed", "0", "--trials", "20"],
], ids=["xh_lambda_5_7", "xh_lambda_3_6", "abc_cor", "involution_cor", "theta_cor"])
def test_commands_leave_numpy_ma_unimported(argv):
    # np.unique's masked-array check imports numpy.ma, about 10 ms of every
    # process that runs a subfield image or a commuting-square check
    script = ("import runpy, sys\n"
              f"sys.argv = ['ncyclepp', *{argv!r}]\n"
              "try:\n"
              "    runpy.run_module('ncyclepp.cli', run_name='__main__')\n"
              "finally:\n"
              "    print('numpy.ma' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv,code", [
    (["construct", "xh_lambda", "--p", "3", "--n", "4", "--variant",
      "involution_cor", "--sub-degree", "1", "--lam", "lambda2", "--verify"],
     0),
    (["verify", "--p", "7", "--n", "1", "--poly", "x^3", "--cycle", "2"], 1),
    (["order", "--p", "5", "--n", "2", "--poly", "x^5", "--csv"], 0),
    (["fuzz", "involution_cor", "--seed", "0", "--trials", "5"], 0),
])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # the read end is closed before the child starts, so every write to
    # stdout fails with a broken pipe, not only a late one
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "ncyclepp.cli"] + argv,
                              stdout=w, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    finally:
        os.close(w)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr and "BrokenPipe" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["xh_lambda", "--variant", "involution_cor"],
    ["additive", "--variant", "trace_g1"],
    ["shift", "--variant", "trace_g1", "--i", "1", "--delta", "0"],
], ids=["xh_lambda", "additive", "shift"])
def test_huge_sub_degree_is_refused_before_q_is_built(argv):
    # q = 3^(10^8) would take minutes to build: run in a child with a timeout
    proc = run_cli(["construct", *argv, "--p", "3", "--n", "2",
                    "--sub-degree", "100000000"])
    assert proc.returncode == 2 and proc.stdout == ""


def test_frobenius_exponent_is_reduced_before_powering(capsys):
    argv = ["criterion", "frobenius_twist", "--p", "2", "--n", "4", "--poly",
            "x^2", "--cycle", "4", "--sub-degree", "1", "--i"]
    # x^(2^(10^12)) would need a 10^12-bit exponent: run it in a child
    # process under a 2 GB address-space limit and a 30 s timeout first
    proc = run_cli(argv + ["10^12"], address_space=2 << 30)
    assert proc.returncode == 0
    assert main(argv + ["0"]) == 0   # 10^12 = 0 mod 4
    assert proc.stdout == capsys.readouterr().out
