"""Random argument vectors against the command line.

construct, verify, order, field and walsh commands are built on fields of
at most 3^4 or 2^6 points, with option values drawn from small integers,
huge expressions (10^40, 2^4096), names (q-2, g^5), negatives and junk;
search commands draw q from small and huge powers of two and junk.  Each
in-process main call must end within 2 s with exit code 0-3; argparse may
refuse an argument (SystemExit 2), and any other escaping exception fails.
"""
import contextlib
import io
import signal

from hypothesis import example, given, settings, strategies as st

from ncyclepp.cli import main

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
ARGV = st.one_of(
    CONSTRUCT,
    command(["verify"], FIELD, opt("--poly", POLYS), opt("--cycle")),
    command(["order"], FIELD, opt("--poly", POLYS)),
    command(["field"], FIELD, opt("--modulus", SMALL + ODD + ["1,1,0,1", "2,1,0,0,1"])),
    command(["walsh"], FIELD, opt("--poly", POLYS), st.just(["--check-involution"])),
    command(["search"], st.sampled_from(["jieguo", "k2to3m"]).map(lambda t: [t]),
            opt("--q", ["8", "64", "4096", str(2 ** 30), "-64", "x", "2^6"])),
)


def _timeout(signum, frame):
    raise TimeoutError(f"command ran past {SECONDS} s")


@settings(settings.get_profile("deterministic"))
@given(argv=ARGV)
@example(argv=["construct", "xh_lambda", "--p", "3", "--n", "4", "--variant",
               "custom_h", "--sub-degree", "1", "--h", "2", "--cycle", "10^40",
               "--verify"])
@example(argv=["search", "jieguo", "--q", str(2 ** 30)])
def test_cli_ends_in_time_with_a_documented_exit_code(argv):
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse refused an argument
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3), (argv, code)
