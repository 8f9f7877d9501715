"""Command line front end.

One JSON document (or JSON lines for fuzz) goes to stdout per invocation;
wall time and error messages go to stderr so reports stay byte-identical
across runs.  Exit codes: 0 success, 1 a verified claim is false (including
non-bijective inputs where a permutation is required), 2 malformed or
rejected arguments, 3 field size above the cap or tables that would not fit
in memory.

Numeric option values may be arithmetic expressions over p, n and q
(``(q^2+q+1)*3``); q is the --q option where the subcommand has one and the
full field size otherwise.  Field elements are written as decimal indices or
generator powers like ``g^21``.  Polynomials are ``c*x^e`` terms joined by
``+``/``-``.  The environment variable NCYC_CAP overrides the default field
size cap; make_field reads it, so it binds on every command that builds a
field, fuzz included.  A q-parameterized family checks the shape of q and
its other parameters before it builds its field, whatever the cap.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter
from typing import Optional

from .criteria import (
    RsParams, ShiftParams, additive_criterion, frobenius_twist_ncycle,
    monomial_ncycle, rs_single_criterion, rs_triple_criterion,
    shift_criterion, xh_lambda_criterion,
)
from .errors import BadParams, CapExceeded, NcycleError, NotPermutation
from .families import (
    ADDITIVE_VARIANTS, SHIFT_VARIANTS, XH_VARIANTS, build_additive, build_jieguo,
    build_rs_2to3m, build_shift, build_trace_theta, build_xh_lambda,
    build_xq_h_alpha, lambda_map, lambda_spec, search_k_2to3m,
    solve_jieguo_congruences,
)
from .field import FieldCtx, make_field
from .oracle import cross_check, exhaustive_verdict, random_family_fuzz
from .oracle import FUZZ_FAMILIES
from .polyperm import SparsePoly, cycle_report_for_fn, eval_int_expr
from .walsh import walsh_involution_test


def _ctx(p: int, n: int, modulus: Optional[str] = None) -> FieldCtx:
    coeffs = [int(t) for t in modulus.split(",")] if modulus else None
    return make_field(p, n, modulus=coeffs)


def _int(text, env: dict) -> Optional[int]:
    """An integer option value; one with more decimal digits than Python
    prints (sys.get_int_max_str_digits) is refused before any use, since
    its JSON report could not be written."""
    if text is None or isinstance(text, int):
        return text
    value = eval_int_expr(text, env)
    limit = sys.get_int_max_str_digits()
    if limit and abs(value) >= 10 ** limit:
        raise BadParams(f"{text!r} has more than {limit} decimal digits")
    return value


def _emit(*lines: str) -> None:
    """Write lines to stdout; every stdout write goes through here.  When
    the reader has gone (a closed pipe), the rest of the output goes to
    os.devnull, so the command still ends with its own exit code."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(doc: dict) -> None:
    _emit(json.dumps(doc, sort_keys=True))


def _emit_csv(doc: dict) -> None:
    flat: dict[str, object] = {}
    for key, value in doc.items():
        if key == "cycle_type":
            pairs = value.items() if isinstance(value, dict) else value
            for length, count in pairs:
                flat[f"cycle_{length}"] = count
        elif isinstance(value, (dict, list)):
            flat[key] = json.dumps(value, sort_keys=True)
        else:
            flat[key] = value
    keys = sorted(flat)
    _emit(",".join(keys), ",".join(str(flat[k]) for k in keys))


def _report(doc: dict, csv: bool) -> None:
    (_emit_csv if csv else _emit_json)(doc)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_field(args) -> int:
    _emit_json(_ctx(args.p, args.n, args.modulus).to_json_dict())
    return 0


def _sub_env(ctx: FieldCtx, sub_degree: int) -> dict:
    """Expression names for a subfield family, q = p^sub_degree; a bad
    sub_degree is refused before that power is built."""
    ctx.degree_over(sub_degree)
    return {"p": ctx.p, "n": ctx.n, "q": ctx.p ** sub_degree}


def _build_xh_lambda_cmd(args):
    ctx = _ctx(args.p, args.n, args.modulus)
    env = _sub_env(ctx, args.sub_degree)
    return build_xh_lambda(
        ctx, args.variant, sub_degree=args.sub_degree, lam=args.lam,
        n=_int(args.cycle, env), theta=args.theta, a=_int(args.a, env),
        b=_int(args.b, env), c=_int(args.c, env), h=args.h)


def _build_additive_cmd(args):
    ctx = _ctx(args.p, args.n, args.modulus)
    env = _sub_env(ctx, args.sub_degree)
    return build_additive(ctx, args.variant, sub_degree=args.sub_degree,
                          H=args.H, psi=args.psi, s=_int(args.s, env),
                          c=args.c, g=args.g)


def _build_shift_cmd(args):
    ctx = _ctx(args.p, args.n, args.modulus)
    env = _sub_env(ctx, args.sub_degree)
    return build_shift(ctx, args.variant, i=_int(args.i, env),
                       delta=args.delta, sub_degree=args.sub_degree,
                       H=args.H, s=_int(args.s, env))


# the q-parameterized families build their own field, after their checks
_FAMILY_BUILDERS = {
    "jieguo": lambda args: build_jieguo(
        args.q, _int(args.t, {"q": args.q}), _int(args.m, {"q": args.q})),
    "rs2to3m": lambda args: build_rs_2to3m(args.q, _int(args.k, {"q": args.q})),
    "xq_h_alpha": lambda args: build_xq_h_alpha(args.q, args.alpha),
    "trace_theta": lambda args: build_trace_theta(args.q, args.theta),
    "xh_lambda": _build_xh_lambda_cmd,
    "additive": _build_additive_cmd,
    "shift": _build_shift_cmd,
}


def _cmd_construct(args) -> int:
    inst = _FAMILY_BUILDERS[args.family](args)
    doc = inst.to_json()
    code = 0
    if args.verify:
        rep = cross_check(inst)
        doc["cross_check"] = rep.to_json()
        code = 0 if rep.agree and rep.criterion_holds else 1
    _emit_json(doc)
    return code


def _cmd_verify(args) -> int:
    ctx = _ctx(args.p, args.n, args.modulus)
    env = {"p": args.p, "n": args.n, "q": ctx.order}
    poly = SparsePoly.from_text(ctx, args.poly, env)
    cyc = _int(args.cycle, env)
    verdict = exhaustive_verdict(ctx, poly, [cyc])
    _report(verdict.to_json(), args.csv)
    return 0 if verdict.is_ncycle_at[cyc] else 1


def _cmd_order(args) -> int:
    ctx = _ctx(args.p, args.n, args.modulus)
    env = {"p": args.p, "n": args.n, "q": ctx.order}
    poly = SparsePoly.from_text(ctx, args.poly, env)
    report = cycle_report_for_fn(ctx, poly)
    _report(report.to_json(), args.csv)
    return 0 if report.bijective else 1


def _lambda_fn(ctx: FieldCtx, spec_text: str, sub_degree: int):
    """Inner-map option value: either a lambda1/lambda2 name with the cycle
    power appended after a colon (``lambda1:2``) or polynomial text."""
    if spec_text.startswith(("lambda1:", "lambda2:")):
        variant, _, power = spec_text.partition(":")
        spec = lambda_spec(ctx, variant, int(power), sub_degree)
        return lambda_map(spec, ctx)
    return SparsePoly.from_text(ctx, spec_text, {"q": ctx.order})


def _cmd_criterion(args) -> int:
    ctx = _ctx(args.p, args.n, args.modulus)
    env = {"p": args.p, "n": args.n, "q": ctx.order}

    def poly(text: str) -> SparsePoly:
        return SparsePoly.from_text(ctx, text, env)

    name = args.name
    if name == "monomial":
        verdict = monomial_ncycle(ctx, _int(args.d, env),
                                  _int(args.cycle, env))
    elif name == "frobenius_twist":
        verdict = frobenius_twist_ncycle(ctx, poly(args.poly),
                                         _int(args.i, env),
                                         _int(args.cycle, env),
                                         args.sub_degree)
    elif name == "xh_lambda":
        verdict = xh_lambda_criterion(
            ctx, poly(args.h), _lambda_fn(ctx, args.lam, args.sub_degree),
            poly(args.k), _int(args.cycle, env))
    elif name == "additive":
        verdict = additive_criterion(ctx, poly(args.phi), poly(args.psi),
                                     poly(args.g), _int(args.cycle, env))
    elif name == "shift":
        params = ShiftParams(_int(args.i, env),
                             ctx.from_literal(args.delta).i, args.sub_degree)
        verdict = shift_criterion(ctx, poly(args.g), params,
                                  _int(args.cycle, env))
    elif name == "rs_triple":
        verdict = rs_triple_criterion(
            ctx, poly(args.h), RsParams(_int(args.r, env), _int(args.s, env)))
    else:  # rs_single
        verdict = rs_single_criterion(
            ctx, poly(args.h), RsParams(_int(args.r, env), _int(args.s, env)),
            ctx.from_literal(args.a).i, _int(args.v, env))
    _emit_json(verdict.to_json())
    return 0 if verdict.holds else 1


def _cmd_search(args) -> int:
    if args.target == "jieguo":
        pairs = solve_jieguo_congruences(args.q)
        _emit_json({"family": "jieguo", "q": args.q,
                    "pairs": [[t, m] for t, m in pairs]})
    else:
        _emit_json({"family": "rs2to3m", "q": args.q,
                    "k": search_k_2to3m(args.q)})
    return 0


def _cmd_walsh(args) -> int:
    ctx = _ctx(args.p, args.n, args.modulus)
    env = {"p": args.p, "n": args.n, "q": ctx.order}
    poly = SparsePoly.from_text(ctx, args.poly, env)
    flag, witness = walsh_involution_test(ctx, poly)
    _emit_json({"involution": flag,
                "witness": None if witness is None else [witness[0].i,
                                                         witness[1].i]})
    return 0 if flag else 1


def _cmd_fuzz(args) -> int:
    summary = random_family_fuzz(args.family, args.seed, args.trials)
    _emit(*summary.to_json_lines())
    return 0 if not summary.failures else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_field_opts(sp, modulus: bool = True) -> None:
    sp.add_argument("--p", type=int, required=True, help="characteristic")
    sp.add_argument("--n", type=int, required=True, help="extension degree")
    if modulus:
        sp.add_argument("--modulus", help="comma-separated modulus "
                                          "coefficients, constant first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncyclepp",
        description="construct and verify n-cycle permutation polynomials "
                    "over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="print the field context")
    _add_field_opts(sp)
    sp.set_defaults(handler=_cmd_field)

    sp = sub.add_parser("construct", help="build a family instance")
    fam = sp.add_subparsers(dest="family", required=True)

    def family_parser(name: str):
        fp = fam.add_parser(name)
        fp.add_argument("--verify", action="store_true",
                        help="cross-check against the brute-force oracle")
        fp.set_defaults(handler=_cmd_construct)
        return fp

    fp = family_parser("jieguo")
    fp.add_argument("--q", type=int, required=True)
    fp.add_argument("--t", required=True)
    fp.add_argument("--m", required=True)

    fp = family_parser("rs2to3m")
    fp.add_argument("--q", type=int, required=True)
    fp.add_argument("--k", required=True)

    fp = family_parser("xq_h_alpha")
    fp.add_argument("--q", type=int, required=True)
    fp.add_argument("--alpha", required=True, help="element literal")

    fp = family_parser("trace_theta")
    fp.add_argument("--q", type=int, required=True)
    fp.add_argument("--theta", default=None, help="element literal")

    fp = family_parser("xh_lambda")
    _add_field_opts(fp)
    fp.add_argument("--variant", required=True, choices=XH_VARIANTS)
    fp.add_argument("--sub-degree", type=int, required=True)
    fp.add_argument("--lam", default="lambda1",
                    choices=("lambda1", "lambda2"))
    fp.add_argument("--cycle", default=None, help="claimed cycle length n")
    fp.add_argument("--theta", default=None, help="element literal")
    fp.add_argument("--a", default=None)
    fp.add_argument("--b", default=None)
    fp.add_argument("--c", default=None)
    fp.add_argument("--h", default=None, help="polynomial text")

    fp = family_parser("additive")
    _add_field_opts(fp)
    fp.add_argument("--variant", required=True, choices=ADDITIVE_VARIANTS)
    fp.add_argument("--sub-degree", type=int, required=True)
    fp.add_argument("--H", default=None, help="polynomial text")
    fp.add_argument("--psi", default=None, help="polynomial text")
    fp.add_argument("--s", default=None)
    fp.add_argument("--c", default=None, help="element literal")
    fp.add_argument("--g", default=None, help="polynomial text")

    fp = family_parser("shift")
    _add_field_opts(fp)
    fp.add_argument("--variant", required=True, choices=SHIFT_VARIANTS)
    fp.add_argument("--sub-degree", type=int, required=True)
    fp.add_argument("--i", required=True)
    fp.add_argument("--delta", required=True, help="element literal")
    fp.add_argument("--H", default=None, help="polynomial text")
    fp.add_argument("--s", default=None)

    sp = sub.add_parser("verify", help="exhaustive n-cycle check")
    _add_field_opts(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--cycle", required=True)
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("order", help="cycle structure of a polynomial map")
    _add_field_opts(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(handler=_cmd_order)

    sp = sub.add_parser("criterion", help="run one algebraic criterion")
    crit = sp.add_subparsers(dest="name", required=True)

    def crit_parser(name: str):
        cp = crit.add_parser(name)
        _add_field_opts(cp)
        cp.set_defaults(handler=_cmd_criterion)
        return cp

    cp = crit_parser("monomial")
    cp.add_argument("--d", required=True)
    cp.add_argument("--cycle", required=True)

    cp = crit_parser("frobenius_twist")
    cp.add_argument("--poly", required=True)
    cp.add_argument("--i", required=True)
    cp.add_argument("--cycle", required=True)
    cp.add_argument("--sub-degree", type=int, required=True)

    cp = crit_parser("xh_lambda")
    cp.add_argument("--h", required=True)
    cp.add_argument("--lam", required=True,
                    help="lambda1:N, lambda2:N, or polynomial text")
    cp.add_argument("--k", required=True)
    cp.add_argument("--cycle", required=True)
    cp.add_argument("--sub-degree", type=int, default=1)

    cp = crit_parser("additive")
    cp.add_argument("--phi", required=True)
    cp.add_argument("--psi", required=True)
    cp.add_argument("--g", required=True)
    cp.add_argument("--cycle", required=True)

    cp = crit_parser("shift")
    cp.add_argument("--g", required=True)
    cp.add_argument("--i", required=True)
    cp.add_argument("--delta", required=True)
    cp.add_argument("--sub-degree", type=int, required=True)
    cp.add_argument("--cycle", required=True)

    cp = crit_parser("rs_triple")
    cp.add_argument("--h", required=True)
    cp.add_argument("--r", required=True)
    cp.add_argument("--s", required=True)

    cp = crit_parser("rs_single")
    cp.add_argument("--h", required=True)
    cp.add_argument("--r", required=True)
    cp.add_argument("--s", required=True)
    cp.add_argument("--a", required=True)
    cp.add_argument("--v", required=True)

    sp = sub.add_parser("search", help="enumerate valid family parameters")
    tgt = sp.add_subparsers(dest="target", required=True)
    for name in ("jieguo", "k2to3m"):
        tp = tgt.add_parser(name)
        tp.add_argument("--q", type=int, required=True)
        tp.set_defaults(handler=_cmd_search)

    sp = sub.add_parser("walsh", help="spectral involution test")
    _add_field_opts(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--check-involution", action="store_true", required=True)
    sp.set_defaults(handler=_cmd_walsh)

    sp = sub.add_parser("fuzz", help="seeded randomized cross-validation")
    sp.add_argument("family", choices=sorted(FUZZ_FAMILIES))
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.set_defaults(handler=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = perf_counter()
    try:
        return args.handler(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotPermutation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NcycleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(f"elapsed_s {perf_counter() - t0:.3f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
