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


def _cmd_construct(args) -> int:
    if hasattr(args, "p"):
        ctx = _ctx(args.p, args.n, args.modulus)
        ctx.degree_over(args.sub_degree)   # checked before p ** sub_degree
        env = {"p": ctx.p, "n": ctx.n, "q": ctx.p ** args.sub_degree}
    else:
        ctx, env = None, {"q": args.q}
    inst = FAMILIES[args.family][1](args, ctx, lambda text: _int(text, env))
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
    verdict = CRITERIA[args.name][1](
        args, ctx, lambda text: _int(text, env),
        lambda text: SparsePoly.from_text(ctx, text, env))
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
# construct families and criteria: one entry each
# ---------------------------------------------------------------------------

_REQ = {"required": True}
_ELEM = {"help": "element literal"}
_POLY = {"help": "polynomial text"}
_FIELD = [
    ("--p", {"type": int, "required": True, "help": "characteristic"}),
    ("--n", {"type": int, "required": True, "help": "extension degree"}),
    ("--modulus", {"help": "comma-separated modulus coefficients, constant first"}),
]
_VERIFY = ("--verify", {"action": "store_true",
                        "help": "cross-check against the brute-force oracle"})
_Q = ("--q", {"type": int, "required": True})
_SUB = ("--sub-degree", {"type": int, "required": True})

# family -> (its options in --help order, its build).  A build gets the
# options, the field and num, which reads an integer option over p, n and
# q = p^sub_degree (a family with --p takes --sub-degree), or over q alone
# for a q family, which builds its own field after its checks.  Text options
# reach the builder unread.  Builders and criteria are called by module
# name, so that a rebinding of the name (perfbench/shim.py) reaches them.
FAMILIES = {
    "jieguo": ([_Q,
                ("--t", _REQ),
                ("--m", _REQ)],
               lambda o, ctx, num: build_jieguo(o.q, num(o.t), num(o.m))),
    "rs2to3m": ([_Q,
                 ("--k", _REQ)],
                lambda o, ctx, num: build_rs_2to3m(o.q, num(o.k))),
    "xq_h_alpha": ([_Q,
                    ("--alpha", {"required": True, **_ELEM})],
                   lambda o, ctx, num: build_xq_h_alpha(o.q, o.alpha)),
    "trace_theta": ([_Q,
                     ("--theta", _ELEM)],
                    lambda o, ctx, num: build_trace_theta(o.q, o.theta)),
    "xh_lambda": ([*_FIELD,
                   ("--variant", {"required": True, "choices": XH_VARIANTS}),
                   _SUB,
                   ("--lam", {"default": "lambda1", "choices": ("lambda1", "lambda2")}),
                   ("--cycle", {"help": "claimed cycle length n"}),
                   ("--theta", _ELEM),
                   ("--a", {}),
                   ("--b", {}),
                   ("--c", {}),
                   ("--h", _POLY)],
                  lambda o, ctx, num: build_xh_lambda(
                      ctx, o.variant, sub_degree=o.sub_degree, lam=o.lam,
                      n=num(o.cycle), theta=o.theta, a=num(o.a), b=num(o.b),
                      c=num(o.c), h=o.h)),
    "additive": ([*_FIELD,
                  ("--variant", {"required": True, "choices": ADDITIVE_VARIANTS}),
                  _SUB,
                  ("--H", _POLY),
                  ("--psi", _POLY),
                  ("--s", {}),
                  ("--c", _ELEM),
                  ("--g", _POLY)],
                 lambda o, ctx, num: build_additive(
                     ctx, o.variant, sub_degree=o.sub_degree, H=o.H,
                     psi=o.psi, s=num(o.s), c=o.c, g=o.g)),
    "shift": ([*_FIELD,
               ("--variant", {"required": True, "choices": SHIFT_VARIANTS}),
               _SUB,
               ("--i", _REQ),
               ("--delta", {"required": True, **_ELEM}),
               ("--H", _POLY),
               ("--s", {})],
              lambda o, ctx, num: build_shift(
                  ctx, o.variant, i=num(o.i), delta=o.delta,
                  sub_degree=o.sub_degree, H=o.H, s=num(o.s))),
}

# criterion -> (its options after the field's, its call).  A call gets
# the options, the field, num and poly; both read the names p, n and q.
CRITERIA = {
    "monomial": ([("--d", _REQ),
                  ("--cycle", _REQ)],
                 lambda o, ctx, num, poly: monomial_ncycle(
                     ctx, num(o.d), num(o.cycle))),
    "frobenius_twist": ([("--poly", _REQ),
                         ("--i", _REQ),
                         ("--cycle", _REQ),
                         _SUB],
                        lambda o, ctx, num, poly: frobenius_twist_ncycle(
                            ctx, poly(o.poly), num(o.i), num(o.cycle), o.sub_degree)),
    "xh_lambda": ([("--h", _REQ),
                   ("--lam", {"required": True,
                              "help": "lambda1:N, lambda2:N, or polynomial text"}),
                   ("--k", _REQ),
                   ("--cycle", _REQ),
                   ("--sub-degree", {"type": int, "default": 1})],
                  lambda o, ctx, num, poly: xh_lambda_criterion(
                      ctx, poly(o.h), _lambda_fn(ctx, o.lam, o.sub_degree),
                      poly(o.k), num(o.cycle))),
    "additive": ([("--phi", _REQ),
                  ("--psi", _REQ),
                  ("--g", _REQ),
                  ("--cycle", _REQ)],
                 lambda o, ctx, num, poly: additive_criterion(
                     ctx, poly(o.phi), poly(o.psi), poly(o.g), num(o.cycle))),
    # keywords, so that --i and --delta are read before --g
    "shift": ([("--g", _REQ),
               ("--i", _REQ),
               ("--delta", _REQ),
               _SUB,
               ("--cycle", _REQ)],
              lambda o, ctx, num, poly: shift_criterion(
                  ctx, params=ShiftParams(num(o.i), ctx.from_literal(o.delta).i,
                                          o.sub_degree),
                  g=poly(o.g), n=num(o.cycle))),
    "rs_triple": ([("--h", _REQ),
                   ("--r", _REQ),
                   ("--s", _REQ)],
                  lambda o, ctx, num, poly: rs_triple_criterion(
                      ctx, poly(o.h), RsParams(num(o.r), num(o.s)))),
    "rs_single": ([("--h", _REQ),
                   ("--r", _REQ),
                   ("--s", _REQ),
                   ("--a", _REQ),
                   ("--v", _REQ)],
                  lambda o, ctx, num, poly: rs_single_criterion(
                      ctx, poly(o.h), RsParams(num(o.r), num(o.s)),
                      ctx.from_literal(o.a).i, num(o.v))),
}


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_opts(sp, options) -> None:
    for flag, kwargs in options:
        sp.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncyclepp",
        description="construct and verify n-cycle permutation polynomials "
                    "over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="print the field context")
    _add_opts(sp, _FIELD)
    sp.set_defaults(handler=_cmd_field)

    sp = sub.add_parser("construct", help="build a family instance")
    sp.set_defaults(handler=_cmd_construct)
    fam = sp.add_subparsers(dest="family", required=True)
    for name, (options, _) in FAMILIES.items():
        _add_opts(fam.add_parser(name), [_VERIFY, *options])

    sp = sub.add_parser("verify", help="exhaustive n-cycle check")
    _add_opts(sp, _FIELD)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--cycle", required=True)
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("order", help="cycle structure of a polynomial map")
    _add_opts(sp, _FIELD)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(handler=_cmd_order)

    sp = sub.add_parser("criterion", help="run one algebraic criterion")
    sp.set_defaults(handler=_cmd_criterion)
    crit = sp.add_subparsers(dest="name", required=True)
    for name, (options, _) in CRITERIA.items():
        _add_opts(crit.add_parser(name), [*_FIELD, *options])

    sp = sub.add_parser("search", help="enumerate valid family parameters")
    tgt = sp.add_subparsers(dest="target", required=True)
    for name in ("jieguo", "k2to3m"):
        tp = tgt.add_parser(name)
        tp.add_argument("--q", type=int, required=True)
        tp.set_defaults(handler=_cmd_search)

    sp = sub.add_parser("walsh", help="spectral involution test")
    _add_opts(sp, _FIELD)
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
