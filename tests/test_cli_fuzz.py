"""Random argument vectors against the command line.

construct, verify, order, field, walsh and criterion commands are built on
fields of at most 3^4 or 2^6 points, with option values drawn from small
integers, huge expressions (10^40, 2^4096), names (q-2, g^5), negatives
and junk; search commands draw q from small and huge powers of two and
junk, and fuzz commands draw a family, a seed and a few trials.  Each argv
runs main in a forked child, which must end within 2 s with exit code 0-3;
argparse may refuse an argument (SystemExit 2), and any other escaping
exception fails.  A child still running at the deadline is killed, and the
test fails with its argv.
"""
import os
import select
import signal
import sys
import traceback

from hypothesis import example, given, settings, strategies as st

from ncyclepp.cli import main
from ncyclepp.oracle import FUZZ_FAMILIES

FIELDS = [("2", "3"), ("2", "6"), ("3", "2"), ("3", "4"), ("5", "2"), ("7", "2")]
SMALL = ["1", "2", "3", "4", "5", "8", "40"]
ODD = ["0", "10^40", "2^4096", "q-2", "g^5", "-1", "x", "abc", "1//0", "(("]
POLYS = ["2", "x", "x^2+1", "1*x^(q-2)", "x^3-x", "2*x^5+x", "x^(2^4096)",
         "x^(10^40)+1", "g^5*x^2", "x^", "3*"]
SECONDS = 2


def value(pool=None):
    """From pool, or three times in four a small integer, else an odd
    value."""
    if pool is not None:
        return st.sampled_from(pool)
    small = st.sampled_from(SMALL)
    return st.one_of(small, small, small, st.sampled_from(ODD))


def opt(name, pool=None):
    """The option with a drawn value, or (one time in three) nothing."""
    return st.one_of(st.just([]), value(pool).map(lambda v: [name, v]),
                     value(pool).map(lambda v: [name, v]))


def command(head, *opts):
    return st.tuples(st.just(head), *opts).map(
        lambda parts: [a for part in parts for a in part])


def choice(name, options):
    return st.sampled_from(options).map(lambda v: [name, v])


FIELD = st.sampled_from(FIELDS).map(lambda pn: ["--p", pn[0], "--n", pn[1]])
SUB = choice("--sub-degree", ["1", "1", "2", "3", "0", "x"])
VERIFY = st.just(["--verify"])
CONSTRUCT = st.one_of(
    command(["construct", "xh_lambda"], FIELD, SUB,
            choice("--variant", ["theta_cor", "involution_cor", "abc_cor", "custom_h"]),
            opt("--lam", ["lambda1", "lambda2"]), opt("--cycle"), opt("--theta"),
            opt("--a"), opt("--b"), opt("--c"), opt("--h", POLYS), VERIFY),
    command(["construct", "additive"], FIELD, SUB,
            choice("--variant", ["trace_g1", "power_g2", "c_trace_q2", "xq_g_trace"]),
            opt("--H", POLYS), opt("--psi", POLYS + ["x^9-x", "x^3+x"]),
            opt("--s"), opt("--c"), opt("--g", POLYS), VERIFY),
    command(["construct", "shift"], FIELD, SUB,
            choice("--variant", ["trace_g1", "power_g2"]),
            value().map(lambda v: ["--i", v]), value().map(lambda v: ["--delta", v]),
            opt("--H", POLYS), opt("--s"), VERIFY),
    command(["construct", "trace_theta", "--q", "4"], opt("--theta"), VERIFY),
    command(["construct", "xq_h_alpha", "--q", "4"], opt("--alpha"), VERIFY),
)
CRITERION = st.one_of(
    command(["criterion", "monomial"], FIELD, opt("--d"), opt("--cycle")),
    command(["criterion", "frobenius_twist"], FIELD, opt("--poly", POLYS),
            opt("--i"), opt("--cycle"), SUB),
    command(["criterion", "xh_lambda"], FIELD, opt("--h", POLYS),
            opt("--lam", ["lambda1:2", "lambda2:2", "lambda1:x", "lambda3:2", *POLYS]),
            opt("--k", POLYS), opt("--cycle"), SUB),
    command(["criterion", "additive"], FIELD, opt("--phi", POLYS + ["x^3", "x^9-x"]),
            opt("--psi", POLYS + ["x^3+x", "x^9-x"]), opt("--g", POLYS), opt("--cycle")),
    command(["criterion", "shift"], FIELD, opt("--g", POLYS), opt("--i"),
            opt("--delta"), SUB, opt("--cycle")),
    command(["criterion", "rs_triple"], FIELD, opt("--h", POLYS), opt("--r"), opt("--s")),
    command(["criterion", "rs_single"], FIELD, opt("--h", POLYS), opt("--r"),
            opt("--s"), opt("--a"), opt("--v")),
)
FAMILY = st.sampled_from([*sorted(FUZZ_FAMILIES), "nope"]).map(lambda f: [f])
FUZZ = command(["fuzz"], FAMILY, opt("--seed"),
               opt("--trials", ["0", "1", "3", "-1", "x", "10^40"]))
ARGV = st.one_of(
    CONSTRUCT,
    CRITERION,
    FUZZ,
    command(["verify"], FIELD, opt("--poly", POLYS), opt("--cycle")),
    command(["order"], FIELD, opt("--poly", POLYS)),
    command(["field"], FIELD, opt("--modulus", SMALL + ODD + ["1,1,0,1", "2,1,0,0,1"])),
    command(["walsh"], FIELD, opt("--poly", POLYS), st.just(["--check-involution"])),
    command(["search"], st.sampled_from(["jieguo", "k2to3m"]).map(lambda t: [t]),
            opt("--q", ["8", "64", "4096", str(2 ** 30), "-64", "x", "2^6"])),
)


def _child(argv, report: int) -> None:
    """The forked child: run main with stdout and stderr sent to os.devnull,
    write the traceback of any escaping exception but SystemExit to the
    report pipe, and leave with the exit code (70 after an exception)
    without returning into the test runner."""
    code = 70
    try:
        sink = open(os.devnull, "w")
        os.dup2(sink.fileno(), 1)
        os.dup2(sink.fileno(), 2)
        sys.stdout = sys.stderr = sink
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refused an argument
            code = exc.code if isinstance(exc.code, int) else 70
    except BaseException:
        os.write(report, traceback.format_exc().encode()[-4000:])
    finally:
        os._exit(code)


def run_forked(argv) -> tuple[int, str]:
    """Exit code of main(argv) in a forked child and the traceback it
    reported ('' for none); fails the test when the child is still running
    after SECONDS."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        _child(argv, write)
    os.close(write)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], SECONDS)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
        with os.fdopen(read, "rb") as fh:
            report = fh.read().decode(errors="replace")
    finally:
        os.close(pidfd)
    assert ready, f"command ran past {SECONDS} s: {argv}"
    assert os.WIFEXITED(status), (argv, status)
    return os.WEXITSTATUS(status), report


@settings(settings.get_profile("deterministic"))
@given(argv=ARGV)
@example(argv=["construct", "xh_lambda", "--p", "3", "--n", "4", "--variant",
               "custom_h", "--sub-degree", "1", "--h", "2", "--cycle", "10^40",
               "--verify"])
@example(argv=["search", "jieguo", "--q", str(2 ** 30)])
@example(argv=["verify", "--p", "2", "--n", "6", "--poly", "x", "--cycle", "2^16000*3"])
def test_cli_ends_in_time_with_a_documented_exit_code(argv):
    code, report = run_forked(argv)
    assert not report, (argv, report)
    assert code in (0, 1, 2, 3), (argv, code)
