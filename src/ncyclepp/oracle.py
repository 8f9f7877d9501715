"""Brute-force ground truth and randomized cross-validation.

exhaustive_verdict re-derives bijectivity and cycle structure from nothing
but the evaluated image table, with two implementations that must agree:
the pointer-jumping cycle engine gives the cycle type and order (checked
against a plain cycle walk up to WALK_CHECK_MAX points), and
repeated-squaring composition answers each n-cycle question again.  The
algebraic criteria never enumerate the map's cycles, so agreement between
a criterion and this module is a genuine two-implementation check.
cross_check runs both sides on one constructed instance;
random_family_fuzz drives many seeded trials mixing valid, invalid and
perturbed parameter tuples through the constructors and the criteria.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, partial
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from .criteria import RsParams, ShiftParams
from .errors import (
    BadParams, DegenerateH, HValueNotRootOfUnity,
    HypothesisViolated, InvalidSpec, KernelViolation, NotDivisor,
    NotPermutation, NotSurjective, PrereqNotNcycle,
)
from .families import (
    FamilyInstance, additive_instance, build_additive, build_jieguo,
    build_rs_2to3m, build_shift, build_trace_theta, build_xh_lambda,
    build_xq_h_alpha, lambda_spec, rs_instance, search_k_2to3m, shift_instance,
    solve_jieguo_congruences, xh_instance,
)
from .field import FieldCtx, NcycleInternal, divisors, field_cap, make_field
from .polyperm import (
    NotBijective, SparsePoly, cycle_structure, functional_power,
    identity_perm, perm_from_images, whole_field_budget,
)
from .walsh import walsh_involution_test, within_walsh_cap

# errors a constructor may legitimately raise on a bad parameter tuple
REJECTABLE = (BadParams, InvalidSpec, NotDivisor, NotPermutation,
              KernelViolation, DegenerateH, HValueNotRootOfUnity)
# errors a criterion raises when its statement does not apply to the input
HYPOTHESIS_ERRORS = (HypothesisViolated, PrereqNotNcycle, NotPermutation,
                     NotSurjective, NotDivisor)
# largest field whose cycles exhaustive_verdict walks to check the engine
WALK_CHECK_MAX = 1 << 16


@lru_cache(maxsize=None)
def _cached_field(p: int, n: int, cap: int) -> FieldCtx:
    return make_field(p, n, cap=cap)


def _field(p: int, n: int) -> FieldCtx:   # cached per cap, so NCYC_CAP binds
    return _cached_field(p, n, field_cap())


# ---------------------------------------------------------------------------
# exhaustive verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleVerdict:
    """Ground truth for one map: bijectivity, exact permutation order, and
    a yes/no answer per requested cycle length.  order is None when the map
    is not a bijection.  elapsed is wall time in seconds and is kept out of
    to_json so reports stay byte-stable."""

    bijective: bool
    order: Optional[int]
    is_ncycle_at: dict
    cycle_type: dict
    domain_size: int
    elapsed: float

    def to_json(self) -> dict:
        return {
            "bijective": self.bijective,
            "order": self.order,
            "is_ncycle_at": {str(n): bool(v)
                             for n, v in sorted(self.is_ncycle_at.items())},
            "cycle_type": {str(k): int(v)
                           for k, v in sorted(self.cycle_type.items())},
            "domain_size": self.domain_size,
        }


def exhaustive_verdict(ctx: FieldCtx, f, ns) -> OracleVerdict:
    """Evaluate f on the whole field and answer, for each n in ns, whether
    f is an n-cycle permutation.  Cycle lengths come from cycle_structure,
    which up to WALK_CHECK_MAX points must agree with the cycle walk; each
    answer is re-derived by repeated-squaring n-fold composition and the
    two must agree.  Refused with CapExceeded, before the image table is
    allocated, when whole_field_budget is not met."""
    t0 = perf_counter()
    ns = sorted({int(n) for n in ns})
    if ns and ns[0] < 1:
        raise BadParams("cycle lengths must be positive")
    with whole_field_budget(ctx):
        pm = perm_from_images(ctx, f)
        if isinstance(pm, NotBijective):
            return OracleVerdict(False, None, {n: False for n in ns}, {},
                                 ctx.order, perf_counter() - t0)
        rep = cycle_structure(pm)
        if (ctx.order <= WALK_CHECK_MAX
                and _walked_cycles(pm.images.tolist()) != dict(rep.cycle_type)):
            raise NcycleInternal("the cycle engine disagrees with the cycle walk")
        answers: dict[int, bool] = {}
        for n in ns:   # the identity is made once the power is, not beside it
            direct = functional_power(pm, n) == identity_perm(ctx)
            if direct != (n % rep.order == 0):
                raise NcycleInternal("cycle type disagrees with direct composition")
            answers[n] = direct
    return OracleVerdict(True, rep.order, answers, dict(rep.cycle_type),
                         ctx.order, perf_counter() - t0)


def _walked_cycles(imgs: list[int]) -> dict[int, int]:
    """{length: count} of the cycles of an image table, by following each
    point not yet seen round its cycle: the reference for cycle_structure,
    sharing no code with it."""
    seen = bytearray(len(imgs))
    counts: dict[int, int] = {}
    for start in range(len(imgs)):
        if seen[start]:
            continue
        length, t = 0, start
        while not seen[t]:
            seen[t] = 1
            t = imgs[t]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# criterion vs oracle on one instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossCheckReport:
    """Two-sided verdict on one instance.  status is AGREE when the bound
    criterion and the exhaustive answer at claimed_n coincide (in either
    truth value), DISAGREE when they differ, HYPOTHESIS_FAILED when the
    criterion refused to rule because its hypotheses do not hold."""

    family: str
    claimed_n: int
    status: str
    criterion_holds: Optional[bool]
    oracle_is_ncycle: bool
    oracle: OracleVerdict
    walsh_checked: bool = False
    detail: str = ""

    @property
    def agree(self) -> bool:
        return self.status == "AGREE"

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "claimed_n": self.claimed_n,
            "status": self.status,
            "criterion_holds": self.criterion_holds,
            "oracle_is_ncycle": self.oracle_is_ncycle,
            "oracle": self.oracle.to_json(),
            "walsh_checked": self.walsh_checked,
            "detail": self.detail,
        }


def cross_check(instance: FamilyInstance,
                walsh: bool = True) -> CrossCheckReport:
    """Run the instance's bound criterion and the exhaustive verdict and
    compare.  For involution claims on fields within the Walsh caps the
    spectral test runs as a third opinion (skipped above them); a
    contradiction from any side is a DISAGREE."""
    ver = exhaustive_verdict(instance.ctx, instance.fn, [instance.claimed_n])
    truth = ver.is_ncycle_at[instance.claimed_n]
    try:
        crit = bool(instance.criterion().holds)
    except HYPOTHESIS_ERRORS as exc:
        return CrossCheckReport(instance.family, instance.claimed_n,
                                "HYPOTHESIS_FAILED", None, truth, ver,
                                detail=str(exc))
    status = "AGREE" if crit == truth else "DISAGREE"
    detail = "" if status == "AGREE" else "criterion contradicts brute force"
    walsh_checked = False
    if (walsh and instance.claimed_n == 2 and ver.bijective
            and within_walsh_cap(instance.ctx)):
        flag, _ = walsh_involution_test(instance.ctx, instance.fn)
        walsh_checked = True
        if flag != (2 % ver.order == 0):
            status = "DISAGREE"
            detail = "spectral involution verdict contradicts the exhaustive order"
    return CrossCheckReport(instance.family, instance.claimed_n, status, crit,
                            truth, ver, walsh_checked, detail)


# ---------------------------------------------------------------------------
# seeded fuzzing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzTrial:
    index: int
    kind: str
    field: str
    params: dict
    outcome: str
    detail: str = ""

    _PASS = {
        "valid": ("agree", "agree_false"),
        "invalid": ("rejected",),
        "perturbed": ("agree", "agree_false", "hypothesis_failed"),
    }
    COMPARED = ("agree", "agree_false", "disagree")

    @property
    def ok(self) -> bool:
        return self.outcome in self._PASS[self.kind]

    @property
    def compared(self) -> bool:
        """True when both a criterion verdict and an oracle verdict were
        produced and matched against each other."""
        return self.outcome in self.COMPARED

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "field": self.field,
            "params": self.params,
            "outcome": self.outcome,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class FuzzSummary:
    """The trials of one fuzz run.  distinct is the number of distinct
    recipes among the trials that compared, each built and cross-checked
    once; it is kept out of to_json, whose lines are those of running every
    trial."""

    family: str
    seed: int
    trials: tuple = dataclass_field(default=())
    distinct: int = 0

    @property
    def failures(self) -> tuple:
        return tuple(t for t in self.trials if not t.ok)

    @property
    def disagreements(self) -> tuple:
        return tuple(t for t in self.trials if t.outcome == "disagree")

    @property
    def comparisons(self) -> int:
        return sum(1 for t in self.trials if t.compared)

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for t in self.trials:
            out[t.outcome] = out.get(t.outcome, 0) + 1
        return dict(sorted(out.items()))

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "seed": self.seed,
            "trials": len(self.trials),
            "comparisons": self.comparisons,
            "counts": self.counts(),
            "failures": len(self.failures),
        }

    def to_json_lines(self) -> list[str]:
        lines = [json.dumps(t.to_json(), sort_keys=True) for t in self.trials]
        lines.append(json.dumps({"summary": self.to_json()}, sort_keys=True))
        return lines


def _run_build(kind: str, build: Callable[[], FamilyInstance]):
    """Execute one constructor attempt and classify the outcome."""
    if kind == "invalid":
        try:
            build()
        except REJECTABLE as exc:
            return "rejected", type(exc).__name__
        return "accepted_invalid", "constructor accepted a bad tuple"
    try:
        inst = build()
    except REJECTABLE as exc:
        return "build_error", f"{type(exc).__name__}: {exc}"
    rep = cross_check(inst, walsh=False)
    if rep.status == "DISAGREE":
        return "disagree", rep.detail
    if rep.status == "HYPOTHESIS_FAILED":
        return "hypothesis_failed", rep.detail
    return ("agree" if rep.criterion_holds else "agree_false"), ""


# One sampled trial: its kind, the field it is labelled with, the params its
# line prints and its build, a partial of a module-level builder or instance
# maker whose every argument is a plain hashable value (an int, str, None or
# tuple, a FieldCtx, RsParams or ShiftParams).  A polynomial is passed as its
# terms, never as a SparsePoly, which caches a whole-field table.
Draw = tuple[str, FieldCtx, dict, partial]


def _recipe(kind: str, build: partial) -> tuple:
    """The fuzz memo's key: the build and every argument it gets, and whether
    the trial is invalid (such a trial is only built).  Builders, criteria
    and the oracle are deterministic, so equal keys give equal outcomes.  The
    printed params are no key: some leave out an argument of the build."""
    return (kind == "invalid", build.func, build.args,
            tuple(sorted(build.keywords.items())))


def _pick_kind(rng: random.Random, perturbed: bool = True) -> str:
    r = rng.random()
    if r < 0.2:
        return "invalid"
    if perturbed and r < 0.5:
        return "perturbed"
    return "valid"


def _subfield_generator(ctx: FieldCtx, sub_degree: int) -> int:
    q = ctx.p ** sub_degree
    return ctx.pow_idx(ctx.generator.i, (ctx.order - 1) // (q - 1))


def _random_poly(ctx: FieldCtx, rng: random.Random, max_terms: int,
                 max_exp: int, nonzero: bool = True) -> SparsePoly:
    terms = [(rng.randrange(1, ctx.order), rng.randrange(0, max_exp + 1))
             for _ in range(rng.randrange(1, max_terms + 1))]
    poly = SparsePoly.make(ctx, terms)
    if nonzero and not poly.terms:
        poly = SparsePoly.monomial(ctx, rng.randrange(0, max_exp + 1))
    return poly


def _perturbed_xh_instance(ctx: FieldCtx, sub_degree: int, n: int,
                           theta: int) -> FamilyInstance:
    """Root-of-unity twist shape with scale factor theta (not necessarily
    primitive, not necessarily of order n); the bound criterion still
    applies whenever the twisted image map stays a bijection, and the
    verdict is an honest maybe-no."""
    q = ctx.p ** sub_degree
    h = SparsePoly.make(ctx, [(1, 0), (theta, (q - 1) // n),
                              (ctx.neg_idx(1), q - 1)])
    return xh_instance(
        ctx, h, lambda_spec(ctx, "lambda1", n, sub_degree),
        params={"variant": "perturbed_theta", "theta": theta, "n": n,
                "sub_degree": sub_degree}, map_form="x*h(lambda(x))")


def _perturbed_additive_instance(ctx: FieldCtx, sub_degree: int,
                                 g_terms: tuple, n: int) -> FamilyInstance:
    """x + g(x^q - x) with g random, claimed as an n-cycle."""
    q = ctx.p ** sub_degree
    g = SparsePoly.make(ctx, g_terms)
    psi = SparsePoly.make(ctx, [(ctx.neg_idx(1), 1), (1, q)])
    return additive_instance(
        ctx, SparsePoly.monomial(ctx, 1), psi, g, n,
        params={"variant": "random_g", "g": g.to_text(), "n": n,
                "sub_degree": sub_degree}, map_form="x + g(x^q - x)")


def _perturbed_shift_instance(ctx: FieldCtx, g_terms: tuple, sp: ShiftParams,
                              n: int) -> FamilyInstance:
    """x + g(x^(q^i) - x + delta) with g random, claimed as an n-cycle."""
    q = ctx.p ** sp.sub_degree
    g = SparsePoly.make(ctx, g_terms)
    return shift_instance(
        ctx, g, sp, n,
        params={"variant": "random_g", "g": g.to_text(), "i": sp.i,
                "delta": sp.delta, "n": n, "sub_degree": sp.sub_degree},
        map_form=f"x + g(x^{q ** sp.i} - x + delta)")


def _perturbed_rs_instance(ctx: FieldCtx, rs: RsParams, family: str,
                           h_terms: tuple) -> FamilyInstance:
    """x^r * h(x^s) with h random; the total criterion applies to any h, so
    every draw yields a genuine verdict."""
    h = SparsePoly.make(ctx, h_terms)
    return rs_instance(
        ctx, h, rs, family=family,
        params={"variant": "random_h", "h": h.to_text(), "r": rs.r,
                "s": rs.s}, map_form=f"x^{rs.r}*h(x^{rs.s})")


def _perturbed_rs(ctx: FieldCtx, rng: random.Random, r: int, s: int,
                  family: str) -> Draw:
    """A random trinomial h = 1 + c1*y^e1 + c2*y^e2 in the x^r * h(x^s)
    shape."""
    ell = (ctx.order - 1) // s
    e1, e2 = rng.randrange(1, ell), rng.randrange(1, ell)
    c1, c2 = rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)
    h = SparsePoly.make(ctx, [(1, 0), (c1, e1), (c2, e2)])
    params = {"variant": "random_h", "h": h.to_text(), "r": r, "s": s}
    return ("perturbed", ctx, params,
            partial(_perturbed_rs_instance, ctx, RsParams(r, s), family,
                    h.terms))


def _sample_xh(rng: random.Random, variant: str) -> Draw:
    pool = [(5, 2, 1), (7, 2, 1)] if variant != "involution_cor" else \
        [(5, 2, 1), (7, 2, 1), (3, 4, 1), (3, 4, 2)]
    p, deg, sub = rng.choice(pool)
    ctx = _field(p, deg)
    q = p ** sub
    kind = _pick_kind(rng)
    if kind == "perturbed":
        n = rng.choice([n for n in divisors(q - 1) if n >= 2])
        theta = ctx.pow_idx(_subfield_generator(ctx, sub),
                            rng.randrange(0, q - 1))
        params = {"variant": "perturbed_theta", "theta": theta, "n": n,
                  "sub_degree": sub}
        return kind, ctx, params, partial(_perturbed_xh_instance, ctx, sub,
                                          n, theta)
    if kind == "invalid":
        if variant == "involution_cor":
            params = {"variant": variant, "p": 2}
            build = partial(build_xh_lambda, _field(2, 4), variant,
                            sub_degree=1)
        elif variant == "theta_cor":
            bad = rng.choice(("theta_one", "n_nondiv", "theta_outside"))
            if bad == "theta_one":
                params = {"variant": variant, "n": 2, "theta": 1}
                build = partial(build_xh_lambda, ctx, variant,
                                sub_degree=sub, n=2, theta=1)
            elif bad == "n_nondiv":
                n = q  # never divides q - 1
                params = {"variant": variant, "n": n}
                build = partial(build_xh_lambda, ctx, variant,
                                sub_degree=sub, n=n, theta=1)
            else:
                theta = ctx.generator.i  # order Q-1, outside GF(q)
                params = {"variant": variant, "n": 2, "theta": theta}
                build = partial(build_xh_lambda, ctx, variant,
                                sub_degree=sub, n=2, theta=theta)
        else:  # abc_cor
            a, b, c = rng.choice(((2, 1, 1), (1, 1, 1), (1, 3, 0)))
            params = {"variant": variant, "a": a, "b": b, "c": c}
            build = partial(build_xh_lambda, ctx, variant, sub_degree=sub,
                            a=a, b=b, c=c)
        return kind, ctx, params, build
    lam = rng.choice(("lambda1", "lambda2"))
    if variant == "involution_cor":
        params = {"variant": variant, "lambda": lam, "sub_degree": sub}
        build = partial(build_xh_lambda, ctx, variant, sub_degree=sub,
                        lam=lam)
    elif variant == "theta_cor":
        n = rng.choice(divisors(q - 1))
        theta = ctx.pow_idx(_subfield_generator(ctx, sub), (q - 1) // n)
        params = {"variant": variant, "lambda": "lambda1", "n": n,
                  "theta": theta}
        build = partial(build_xh_lambda, ctx, variant, sub_degree=sub,
                        n=n, theta=theta)
    else:  # abc_cor, only solvable when -1 is a square mod p
        ctx = _field(5, 2)
        a, b = rng.choice(((1, 3), (2, 4), (3, 1), (4, 2)))
        c = rng.choice((1, 2, 3))  # 4c = 0 mod 4 for every c in [1, q-2]
        params = {"variant": variant, "a": a, "b": b, "c": c}
        build = partial(build_xh_lambda, ctx, variant, sub_degree=1,
                        a=a, b=b, c=c)
    return kind, ctx, params, build


_ADDITIVE_POOL = [(3, 2, 1), (3, 4, 1), (3, 4, 2), (2, 6, 1), (2, 6, 2),
                  (2, 6, 3), (5, 2, 1), (7, 2, 1), (2, 9, 3)]


def _sample_additive(rng: random.Random) -> Draw:
    p, deg, sub = rng.choice(_ADDITIVE_POOL)
    ctx = _field(p, deg)
    q = p ** sub
    m = deg // sub
    kind = _pick_kind(rng)
    if kind == "perturbed":
        g = _random_poly(ctx, rng, max_terms=4, max_exp=ctx.order - 1)
        n = rng.choice((2, 3, p))
        params = {"variant": "random_g", "g": g.to_text(), "n": n,
                  "sub_degree": sub}
        return kind, ctx, params, partial(_perturbed_additive_instance, ctx,
                                          sub, g.terms, n)
    if kind == "invalid":
        bad = rng.choice(("psi_shape", "psi_kernel", "bad_s", "bad_c",
                          "bad_tower"))
        if bad == "psi_shape":
            params = {"variant": "trace_g1", "psi": "x^2"}
            build = partial(build_additive, ctx, "trace_g1", sub_degree=sub,
                            psi="1*x^2")
        elif bad == "psi_kernel":
            params = {"variant": "trace_g1", "psi": f"x^{q}"}
            build = partial(build_additive, ctx, "trace_g1", sub_degree=sub,
                            psi=f"1*x^{q}")
        elif bad == "bad_s":
            s = (ctx.order - 1) // (q - 1) + 1
            params = {"variant": "power_g2", "s": s}
            build = partial(build_additive, ctx, "power_g2", sub_degree=sub,
                            s=s)
        elif bad == "bad_c":
            params = {"variant": "c_trace_q2", "c": 0}
            build = partial(build_additive, ctx, "c_trace_q2",
                            sub_degree=sub, c=0)
        else:
            badsub = sub if m == 3 else rng.choice(
                [d for d in divisors(deg) if deg // d != 3])
            params = {"variant": "xq_g_trace", "sub_degree": badsub}
            if m == 3:   # the least element of nonzero trace
                outside = int(np.flatnonzero(
                    ctx.vtrace(ctx.varange(), sub))[0])
                build = partial(build_additive, ctx, "xq_g_trace",
                                sub_degree=sub, g=((outside, 1),))
            else:
                build = partial(build_additive, ctx, "xq_g_trace",
                                sub_degree=badsub, g="1*x^1")
        return kind, ctx, params, build
    variants = ["trace_g1", "power_g2"]
    if m == 2:
        variants.append("c_trace_q2")
    if m == 3:
        variants.append("xq_g_trace")
    variant = rng.choice(variants)
    if variant == "trace_g1":
        H = _random_poly(ctx, rng, max_terms=3, max_exp=4)
        params = {"variant": variant, "H": H.to_text(), "sub_degree": sub}
        build = partial(build_additive, ctx, variant, sub_degree=sub,
                        H=H.terms)
    elif variant == "power_g2":
        H = _random_poly(ctx, rng, max_terms=3, max_exp=4)
        s = rng.randrange(1, 4) * (ctx.order - 1) // (q - 1)
        params = {"variant": variant, "H": H.to_text(), "s": s,
                  "sub_degree": sub}
        build = partial(build_additive, ctx, variant, sub_degree=sub,
                        H=H.terms, s=s)
    elif variant == "c_trace_q2":   # ascending nonzero c with c + c^q = 0
        xs = ctx.varange()
        roots = np.flatnonzero(ctx.vadd(xs, ctx.vfrob(xs, sub, 1)) == 0)
        c = rng.choice(roots[1:].tolist())
        s = rng.randrange(0, 8)
        params = {"variant": variant, "c": c, "s": s, "sub_degree": sub}
        build = partial(build_additive, ctx, variant, sub_degree=sub,
                        c=c, s=s)
    else:   # coefficients from the ascending kernel of the trace
        kernel = np.flatnonzero(ctx.vtrace(ctx.varange(), sub) == 0).tolist()
        terms = [(rng.choice(kernel), rng.randrange(0, 4))
                 for _ in range(rng.randrange(1, 4))]
        g = SparsePoly.make(ctx, terms)
        params = {"variant": variant, "g": g.to_text(), "sub_degree": sub}
        build = partial(build_additive, ctx, variant, sub_degree=sub,
                        g=g.terms)
    return kind, ctx, params, build


_SHIFT_POOL = [(3, 2, 1), (3, 4, 1), (2, 6, 1), (2, 6, 2), (5, 2, 1)]


def _sample_shift(rng: random.Random) -> Draw:
    p, deg, sub = rng.choice(_SHIFT_POOL)
    ctx = _field(p, deg)
    q = p ** sub
    m = deg // sub
    i = rng.randrange(1, m)
    delta = rng.randrange(0, ctx.order)
    kind = _pick_kind(rng)
    if kind == "perturbed":
        g = _random_poly(ctx, rng, max_terms=4, max_exp=ctx.order - 1)
        n = rng.choice((2, 3, p))
        params = {"variant": "random_g", "g": g.to_text(), "i": i,
                  "delta": delta, "n": n, "sub_degree": sub}
        return kind, ctx, params, partial(
            _perturbed_shift_instance, ctx, g.terms,
            ShiftParams(i, delta, sub), n)
    if kind == "invalid":
        bad = rng.choice(("i_zero", "i_full", "bad_s", "zero_h"))
        if bad == "i_zero":
            params = {"variant": "power_g2", "i": 0}
            build = partial(build_shift, ctx, "power_g2", i=0, delta=delta,
                            sub_degree=sub, s=1)
        elif bad == "i_full":
            params = {"variant": "power_g2", "i": m}
            build = partial(build_shift, ctx, "power_g2", i=m, delta=delta,
                            sub_degree=sub, s=1)
        elif bad == "bad_s":
            g = math.gcd(q ** i - 1, ctx.order - 1)
            s = (ctx.order - 1) // g + 1
            params = {"variant": "power_g2", "i": i, "s": s}
            build = partial(build_shift, ctx, "power_g2", i=i, delta=delta,
                            sub_degree=sub, s=s)
        else:
            params = {"variant": "power_g2", "i": i, "H": "0"}
            g = math.gcd(q ** i - 1, ctx.order - 1)
            s = (ctx.order - 1) // g
            build = partial(build_shift, ctx, "power_g2", i=i, delta=delta,
                            sub_degree=sub, s=s, H="0")
        return kind, ctx, params, build
    gcd = math.gcd(q ** i - 1, ctx.order - 1)
    s = rng.randrange(1, 4) * (ctx.order - 1) // gcd
    if p != 2 and m % i == 0 and rng.random() < 0.5:
        params = {"variant": "trace_g1", "i": i, "delta": delta,
                  "sub_degree": sub}
        build = partial(build_shift, ctx, "trace_g1", i=i, delta=delta,
                        sub_degree=sub)
    else:
        params = {"variant": "power_g2", "i": i, "delta": delta, "s": s,
                  "sub_degree": sub}
        build = partial(build_shift, ctx, "power_g2", i=i, delta=delta,
                        sub_degree=sub, s=s)
    return kind, ctx, params, build


def _sample_rs2to3m(rng: random.Random) -> Draw:
    ctx = _field(2, 9)
    kind = _pick_kind(rng)
    if kind == "perturbed":
        return _perturbed_rs(ctx, rng, 1, 73, "rs2to3m")
    if kind == "invalid":
        q, k = rng.choice(((64, 44), (16, 45), (8, 4), (8, 11)))
        return kind, ctx, {"q": q, "k": k}, partial(
            build_rs_2to3m, q, k, ctx=ctx if q == 8 else None)
    k = rng.choice(search_k_2to3m(8))
    return kind, ctx, {"q": 8, "k": k}, partial(build_rs_2to3m, 8, k,
                                                ctx=ctx)


def _sample_jieguo(rng: random.Random) -> Draw:
    ctx = _field(2, 12)
    kind = _pick_kind(rng)
    if kind == "perturbed":
        return _perturbed_rs(ctx, rng, 1, 63, "jieguo")
    if kind == "invalid":
        pairs = set(solve_jieguo_congruences(64))
        while True:
            t, m = rng.randrange(0, 65), rng.randrange(0, 65)
            if (t, m) not in pairs:
                break
    else:
        t, m = rng.choice(solve_jieguo_congruences(64))
    return kind, ctx, {"q": 64, "t": t, "m": m}, partial(build_jieguo, 64,
                                                         t, m, ctx=ctx)


def _sample_xq_h_alpha(rng: random.Random) -> Draw:
    q = 4  # the map lives over GF(q^3); larger q leaves the fuzz budget
    ctx = _field(2, 6)
    kind = _pick_kind(rng)
    if kind == "perturbed":
        return _perturbed_rs(ctx, rng, q, q - 1, "xq_h_alpha")
    if kind == "invalid":
        bad = rng.choice(("odd_tower", "zero", "not_root"))
        if bad == "odd_tower":
            return kind, ctx, {"q": 8, "alpha": 1}, partial(build_xq_h_alpha,
                                                            8, 1)
        if bad == "zero":
            alpha = 0
        else:
            alpha = next(i for i in range(2, ctx.order)
                         if ctx.pow_idx(i, 3) != 1)
    else:
        subgen = ctx.pow_idx(ctx.generator.i, (ctx.order - 1) // (q - 1))
        cube = ctx.pow_idx(subgen, (q - 1) // 3)
        alpha = rng.choice((1, cube, ctx.mul_idx(cube, cube)))
    return kind, ctx, {"q": q, "alpha": alpha}, partial(build_xq_h_alpha, q,
                                                        alpha, ctx=ctx)


def _sample_trace_theta(rng: random.Random) -> Draw:
    ctx = _field(2, 6)
    kind = _pick_kind(rng, perturbed=False)
    if kind == "invalid":
        if rng.choice(("odd_tower", "theta_one")) == "odd_tower":
            return kind, ctx, {"q": 8, "theta": None}, partial(
                build_trace_theta, 8)
        theta = 1
    else:
        cube = ctx.pow_idx(ctx.generator.i, 21)
        theta = rng.choice((cube, ctx.mul_idx(cube, cube), None))
    return kind, ctx, {"q": 4, "theta": theta}, partial(build_trace_theta, 4,
                                                        theta, ctx=ctx)


FUZZ_FAMILIES: dict[str, Callable[[random.Random], Draw]] = {
    "involution_cor": lambda rng: _sample_xh(rng, "involution_cor"),
    "theta_cor": lambda rng: _sample_xh(rng, "theta_cor"),
    "abc_cor": lambda rng: _sample_xh(rng, "abc_cor"),
    "additive": _sample_additive,
    "shift": _sample_shift,
    "rs2to3m": _sample_rs2to3m,
    "jieguo": _sample_jieguo,
    "xq_h_alpha": _sample_xq_h_alpha,
    "trace_theta": _sample_trace_theta,
}


def random_family_fuzz(family_id: str, seed: int, trials: int) -> FuzzSummary:
    """Run seeded randomized trials for one family: valid tuples must build
    and cross-check AGREE, invalid tuples must be rejected by the
    constructor, perturbed instances must still produce matching verdicts
    from the criterion and the brute-force oracle.

    Each distinct instance is built, checked by its criterion and checked
    by the oracle once per call: a trial whose recipe (see _recipe) ran
    before in the same call takes that run's outcome.  Every trial still
    makes its random draws and gets its own line, so the lines are those
    of running every trial."""
    if family_id not in FUZZ_FAMILIES:
        raise BadParams(f"unknown family {family_id!r}; choose from "
                        f"{sorted(FUZZ_FAMILIES)}")
    if trials < 0:
        raise BadParams("trials must be nonnegative")
    sampler = FUZZ_FAMILIES[family_id]
    rng = random.Random(seed)
    outcomes: dict[tuple, tuple[str, str]] = {}
    out = []
    for index in range(trials):
        kind, ctx, params, build = sampler(rng)
        key = _recipe(kind, build)
        if key not in outcomes:
            outcomes[key] = _run_build(kind, build)
        out.append(FuzzTrial(index, kind, f"GF({ctx.p}^{ctx.n})", params,
                             *outcomes[key]))
    return FuzzSummary(family_id, seed, tuple(out), distinct=sum(
        outcome in FuzzTrial.COMPARED for outcome, _ in outcomes.values()))
