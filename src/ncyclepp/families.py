"""Constructors for explicit n-cycle permutation families.

Three structural groups are covered: multiplicative twists x*h(lam(x)) where
lam collapses the field onto a subfield, additive translations
phi(x) + g(psi(x)) including their shifted-argument form
g(x^(q^i) - x + delta) + x, and root-of-unity coset maps x^r * h(x^s) with
congruence-constrained exponents.  Every builder validates its parameter
congruences up front, verifies value-level hypotheses (over small sets, or
as identities of reduced polynomials and GF(p)-matrices), and returns a
FamilyInstance carrying the map (sparse polynomial when the expansion stays
small, always a vectorized evaluator), the cycle length the family
certifies, and a bound check from the criteria module.  The map and
its check come from one constructor per shape (xh_instance,
additive_instance, shift_instance, rs_instance), which the oracle's fuzzer
uses too.  Whether the instance really has that cycle length is then a
single call, cross-checkable against the exhaustive oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Optional, Union

import numpy as np

from .criteria import (
    CriterionVerdict, RsParams, ShiftParams, additive_criterion,
    rs_triple_criterion, shift_criterion, shift_domain, xh_lambda_criterion,
)
from .errors import (
    BadParams, CapExceeded, DegenerateH, HValueNotRootOfUnity, InvalidSpec,
    KernelViolation,
)
from .field import (
    FieldCtx, FieldElement, NcycleInternal, element_index, field_cap, make_field,
)
from .polyperm import (
    POLY_TERM_CAP, SparsePoly, as_vector_fn, first_index, map_exp, poly_add,
    poly_compose, poly_frob, poly_mul, poly_pow,
)

LAMBDA2_M_CAP = 24

# a polynomial, its text, or its (coefficient index, exponent) terms
PolyLike = Union[SparsePoly, str, tuple]


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _as_poly(ctx: FieldCtx, v: PolyLike, what: str, env=None) -> SparsePoly:
    if isinstance(v, SparsePoly):
        if v.ctx.key != ctx.key:
            raise BadParams(f"{what} belongs to a different field")
        return v
    if isinstance(v, str):
        return SparsePoly.from_text(ctx, v, env)
    if isinstance(v, tuple):
        return SparsePoly.make(ctx, v)
    raise BadParams(f"{what} must be a SparsePoly, polynomial text or terms")


def _subfield_q(ctx: FieldCtx, sub_degree: int) -> tuple[int, int]:
    """(q, m) for the tower GF(q) <= GF(q^m) = the ambient field."""
    if sub_degree < 1 or ctx.n % sub_degree != 0:
        raise BadParams(f"sub_degree {sub_degree} does not divide {ctx.n}")
    return ctx.p ** sub_degree, ctx.n // sub_degree


def _exact_log(q: int, base: int) -> int:
    e, t = 0, 1
    while t < q:
        t *= base
        e += 1
    if t != q:
        raise BadParams(f"{q} is not a power of {base}")
    return e


def _try_poly(build: Callable[[], SparsePoly]) -> Optional[SparsePoly]:
    """Symbolic form when it stays sparse, None when it would blow up."""
    try:
        return build()
    except CapExceeded:
        return None


def _power_g(H: SparsePoly, s: int):
    """g = H^s: symbolic while it stays sparse, else evaluated as a power."""
    g = _try_poly(lambda: poly_pow(H, s))
    return g if g is not None else lambda v: H.ctx.vpow(H.eval_vec(v), s)


def _ctx_for(q: int, ext: int, ctx: Optional[FieldCtx]) -> FieldCtx:
    e = _exact_log(q, 2)
    if ctx is None:
        return make_field(2, e * ext)
    if ctx.p != 2 or ctx.order != q ** ext:
        raise BadParams(f"supplied field is not GF({q}^{ext})")
    return ctx


@dataclass
class FamilyInstance:
    """One constructed map plus its certificate hooks.

    poly is the sparse-polynomial form when the symbolic expansion stays
    under the term cap (None otherwise).  The builder passes that expansion
    as expand, which runs on the first read of poly, so an instance nobody
    prints never pays for it.  fn always evaluates the map on arrays of
    element indices.  check() runs the algebraic criterion the family is
    certified by; the oracle module re-derives the same verdict by brute
    force."""

    family: str
    ctx: FieldCtx
    params: dict
    claimed_n: int
    fn: Callable[[np.ndarray], np.ndarray]
    map_form: str
    check: Callable[[], CriterionVerdict]
    expand: Callable[[], Optional[SparsePoly]] = lambda: None
    degenerate: bool = False
    notes: tuple[str, ...] = ()
    inverse_poly: Optional[SparsePoly] = None

    @cached_property
    def poly(self) -> Optional[SparsePoly]:
        return _try_poly(self.expand)

    def criterion(self) -> CriterionVerdict:
        return self.check()

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "params": dict(self.params),
            "field": self.ctx.to_json_dict(),
            "poly": None if self.poly is None else self.poly.to_text(),
            "claimed_n": self.claimed_n,
            "map_form": self.map_form,
            "degenerate": self.degenerate,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if self.inverse_poly is not None:
            out["inverse_poly"] = self.inverse_poly.to_text()
        return out


# ---------------------------------------------------------------------------
# one constructor per map shape: the map and the criterion that certifies it
# ---------------------------------------------------------------------------
# Each takes the shape's parts and passes the remaining FamilyInstance fields
# (params, map_form, expand, degenerate, notes) through.  The criterion gets
# the parts, never the instance's fn, so it stays independent of the oracle.

def xh_instance(ctx: FieldCtx, h: SparsePoly, spec: LambdaSpec,
                **fields) -> FamilyInstance:
    """x * h(lam(x)) claimed as a spec.n-cycle, certified by
    xh_lambda_criterion with k(y) = y^n; the criterion gets lam as a
    SparsePoly unless it passes the term cap."""
    n = spec.n
    lam = lambda_map(spec, ctx)
    lam_fn = as_vector_fn(ctx, lam)
    k = SparsePoly.monomial(ctx, n)
    return FamilyInstance(
        family="xh_lambda", ctx=ctx, claimed_n=n,
        fn=lambda xs: ctx.vmul(xs, h.eval_vec(lam_fn(xs))),
        check=lambda: xh_lambda_criterion(ctx, h, lam, k, n), **fields)


def additive_instance(ctx: FieldCtx, phi: SparsePoly, psi: SparsePoly, g,
                      n: int, **fields) -> FamilyInstance:
    """phi(x) + g(psi(x)) claimed as an n-cycle, certified by
    additive_criterion; g is a SparsePoly or a vectorized callable."""
    g_fn = as_vector_fn(ctx, g)
    return FamilyInstance(
        family="additive", ctx=ctx, claimed_n=n,
        fn=lambda xs: ctx.vadd(phi.eval_vec(xs), g_fn(psi.eval_vec(xs))),
        check=lambda: additive_criterion(ctx, phi, psi, g, n), **fields)


def shift_instance(ctx: FieldCtx, g, sp: ShiftParams, n: int,
                   **fields) -> FamilyInstance:
    """x + g(x^(q^i) - x + delta) claimed as an n-cycle, certified by
    shift_criterion; g is a SparsePoly or a vectorized callable."""
    g_fn = as_vector_fn(ctx, g)

    def fn(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        inner = ctx.vadd(ctx.vsub(ctx.vfrob(xs, sp.sub_degree, sp.i), xs),
                         np.int64(sp.delta))
        return ctx.vadd(xs, g_fn(inner))

    return FamilyInstance(
        family="shift", ctx=ctx, claimed_n=n, fn=fn,
        check=lambda: shift_criterion(ctx, g, sp, n), **fields)


def rs_instance(ctx: FieldCtx, h: SparsePoly, rs: RsParams,
                **fields) -> FamilyInstance:
    """x^r * h(x^s) claimed as a 3-cycle, certified by rs_triple_criterion.
    Three families share the shape, so family comes with the other fields.
    The polynomial is always expanded: composing with a monomial keeps h's
    term count."""
    poly = poly_mul(SparsePoly.monomial(ctx, rs.r),
                    poly_compose(h, SparsePoly.monomial(ctx, rs.s)))
    return FamilyInstance(
        ctx=ctx, claimed_n=3, expand=lambda: poly, fn=poly.eval_vec,
        check=lambda: rs_triple_criterion(ctx, h, rs), **fields)


# ---------------------------------------------------------------------------
# subfield-valued inner maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaSpec:
    """Inner map collapsing GF(q^m) onto GF(q).

    variant "lambda1" is the subfield trace of x^n; "lambda2" sums
    x^(q^i1 + ... + q^in) over all n-element subsets of the Frobenius
    exponents 0 <= i1 < ... < in <= m-1.  Both land in GF(q) and satisfy
    the scaling law lam(a*x) = a^n * lam(x) for a in GF(q)."""

    variant: str
    n: int
    sub_degree: int
    m: int


def lambda_spec(ctx: FieldCtx, variant: str, n: int,
                sub_degree: int) -> LambdaSpec:
    if variant not in ("lambda1", "lambda2"):
        raise InvalidSpec(f"unknown lambda variant {variant!r}")
    if n < 1:
        raise InvalidSpec("n must be positive")
    if sub_degree < 1 or ctx.n % sub_degree != 0:
        raise InvalidSpec(f"sub_degree {sub_degree} does not divide {ctx.n}")
    m = ctx.n // sub_degree
    if variant == "lambda2":
        if n > m:
            raise InvalidSpec(f"lambda2 needs n <= m, got n={n}, m={m}")
        if m > LAMBDA2_M_CAP:
            raise InvalidSpec(f"lambda2 capped at m <= {LAMBDA2_M_CAP}")
    return LambdaSpec(variant, n, sub_degree, m)


def _check_lambda(ctx: FieldCtx, spec: LambdaSpec) -> None:
    fresh = lambda_spec(ctx, spec.variant, spec.n, spec.sub_degree)
    if fresh.m != spec.m:
        raise InvalidSpec(f"m={spec.m} inconsistent with the field "
                          f"(expected {fresh.m})")


def _lambda2_exponents(spec: LambdaSpec, q: int):
    for combo in combinations(range(spec.m), spec.n):
        yield sum(q ** i for i in combo)


def eval_lambda(spec: LambdaSpec, x: FieldElement) -> FieldElement:
    ctx = x.ctx
    _check_lambda(ctx, spec)
    if spec.variant == "lambda1":
        return ctx.element(
            ctx.trace_idx(ctx.pow_idx(x.i, spec.n), spec.sub_degree))
    q = ctx.p ** spec.sub_degree
    acc = 0
    for e in _lambda2_exponents(spec, q):
        acc = ctx.add_idx(acc, ctx.pow_idx(x.i, e))
    return ctx.element(acc)


def lambda_poly(spec: LambdaSpec, ctx: FieldCtx) -> SparsePoly:
    _check_lambda(ctx, spec)
    q = ctx.p ** spec.sub_degree
    if spec.variant == "lambda1":
        terms = [(1, map_exp(ctx, spec.n * q ** j)) for j in range(spec.m)]
    else:
        if comb(spec.m, spec.n) > POLY_TERM_CAP:
            raise CapExceeded(
                f"lambda2 has C({spec.m},{spec.n}) terms, over the cap")
        terms = [(1, map_exp(ctx, e)) for e in _lambda2_exponents(spec, q)]
    return SparsePoly.make(ctx, terms)


def lambda_map(spec: LambdaSpec, ctx: FieldCtx):
    """lam as a SparsePoly, or as an evaluator on index arrays when the
    polynomial passes the term cap."""
    try:
        return lambda_poly(spec, ctx)
    except CapExceeded:
        q = ctx.p ** spec.sub_degree

        def fn(xs: np.ndarray) -> np.ndarray:
            acc = np.zeros(np.asarray(xs).shape, dtype=np.int64)
            for e in _lambda2_exponents(spec, q):
                acc = ctx.vadd(acc, ctx.vpow(xs, e))
            return acc

        return fn


def lambda_vector_fn(spec: LambdaSpec,
                     ctx: FieldCtx) -> Callable[[np.ndarray], np.ndarray]:
    return as_vector_fn(ctx, lambda_map(spec, ctx))


# ---------------------------------------------------------------------------
# x * h(lam(x))
# ---------------------------------------------------------------------------

XH_VARIANTS = ("theta_cor", "involution_cor", "abc_cor", "custom_h")


def build_xh_lambda(ctx: FieldCtx, variant: str, *, sub_degree: int,
                    lam: str = "lambda1", n: Optional[int] = None,
                    theta=None, a: Optional[int] = None,
                    b: Optional[int] = None, c: Optional[int] = None,
                    h: Optional[PolyLike] = None) -> FamilyInstance:
    """Multiplicative-twist family f(x) = x * h(lam(x)) with h an n-th root
    of unity on all of GF(q).

    Variants fix h: "theta_cor" uses 1 + theta*y^((q-1)/n) - y^(q-1) for a
    primitive n-th root theta, "involution_cor" uses 1 - 2*y^(q-1) (n = 2,
    odd q), "abc_cor" uses 1 + a*y^c + b*y^(q-1-c) - y^(q-1) with
    a^2 + b^2 = 0 mod p, 4c = 0 mod (q-1) and additionally 2ab = 1 mod p,
    and "custom_h" takes h directly.  Every h is checked by exhaustion;
    a value with h(y)^n != 1 raises HValueNotRootOfUnity."""
    if variant not in XH_VARIANTS:
        raise BadParams(f"unknown variant {variant!r}")
    q, m = _subfield_q(ctx, sub_degree)
    p = ctx.p
    notes: tuple[str, ...] = ()
    params: dict = {"variant": variant, "lambda": lam,
                    "sub_degree": sub_degree}

    if variant == "theta_cor":
        if n is None or theta is None:
            raise BadParams("theta_cor needs n and theta")
        if n < 1 or (q - 1) % n != 0:
            raise BadParams(f"n={n} must divide q-1={q - 1}")
        th = element_index(ctx, theta)
        if ctx.frob_idx(th, sub_degree, 1) != th:
            raise BadParams("theta must lie in GF(q)")
        if ctx.pow_idx(th, n) != 1 or any(
                ctx.pow_idx(th, j) == 1 for j in range(1, n)):
            raise BadParams("theta must be a primitive n-th root of unity")
        hp = SparsePoly.make(ctx, [(1, 0), (th, (q - 1) // n),
                                   (ctx.neg_idx(1), q - 1)])
        params.update(n=n, theta=th)
    elif variant == "involution_cor":
        if p == 2:
            raise BadParams("the 1 - 2y^(q-1) twist needs odd q")
        if n not in (None, 2):
            raise BadParams("involution variant is fixed at n = 2")
        n = 2
        two = ctx.add_idx(1, 1)
        hp = SparsePoly.make(ctx, [(1, 0), (ctx.neg_idx(two), q - 1)])
        params.update(n=2)
    elif variant == "abc_cor":
        if a is None or b is None or c is None:
            raise BadParams("abc variant needs integers a, b, c")
        if p == 2:
            raise BadParams("the abc twist needs odd q")
        if n not in (None, 2):
            raise BadParams("abc variant is fixed at n = 2")
        n = 2
        if (a * a + b * b) % p != 0:
            raise BadParams(f"a^2 + b^2 = {a * a + b * b} != 0 mod {p}")
        if (4 * c) % (q - 1) != 0:
            raise BadParams(f"4c = {4 * c} != 0 mod {q - 1}")
        if (2 * a * b) % p != 1:
            raise BadParams(
                f"2ab = {2 * a * b} != 1 mod {p}, so h(y)^2 = 2ab cannot "
                "be 1 for nonzero y")
        if not 1 <= c <= q - 2:
            raise BadParams(f"need 1 <= c <= {q - 2} so h(0) = 1")
        hp = SparsePoly.make(ctx, [(1, 0), (a % p, c), (b % p, q - 1 - c),
                                   (ctx.neg_idx(1), q - 1)])
        params.update(a=a, b=b, c=c, n=2)
        notes = ("2ab = 1 mod p is required on top of the other two "
                 "congruences: for nonzero y the square collapses to "
                 "h(y)^2 = 2ab",)
    else:
        if h is None or n is None:
            raise BadParams("custom_h needs h and n")
        if n < 1:
            raise BadParams("n must be positive")
        hp = _as_poly(ctx, h, "h", env={"q": q, "p": p})
        if not hp.coeffs_in_subfield(sub_degree):
            raise BadParams("h must have coefficients in GF(q)")
        params.update(n=n, h=hp.to_text())

    spec = lambda_spec(ctx, lam, n, sub_degree)
    sub = ctx.subfield_indices(sub_degree)
    hv = hp.eval_vec(sub)
    bad = np.flatnonzero(ctx.vpow(hv, n) != 1)
    if bad.size:
        w = ctx.element(int(sub[bad[0]]))
        raise HValueNotRootOfUnity(
            f"h({w.literal()})^{n} != 1 on GF({q})", witness=w)

    return xh_instance(
        ctx, hp, spec, params=params,
        expand=lambda: poly_mul(SparsePoly.monomial(ctx, 1),
                                poly_compose(hp, lambda_poly(spec, ctx))),
        map_form=f"x*h({lam}(x)) with h = {hp.to_text()}",
        degenerate=bool((hv == 1).all()), notes=notes)


# ---------------------------------------------------------------------------
# phi(x) + g(psi(x))
# ---------------------------------------------------------------------------

ADDITIVE_VARIANTS = ("trace_g1", "power_g2", "c_trace_q2", "xq_g_trace")


def _require_q_poly(poly: SparsePoly, q: int, what: str) -> None:
    for _, e in poly.terms:
        t = e
        while t > 1 and t % q == 0:
            t //= q
        if t != 1:
            raise BadParams(f"{what} must be a q-polynomial, exponent {e} "
                            f"is not a power of {q}")


def _trace_expand(poly: SparsePoly, step_degree: int, count: int) -> SparsePoly:
    """sum of poly^(p^(step_degree*j)) for j < count, the subfield trace of
    poly's values."""
    acc = SparsePoly(poly.ctx, ())
    for j in range(count):
        acc = poly_add(acc, poly_frob(poly, step_degree * j))
    return acc


def build_additive(ctx: FieldCtx, variant: str, *, sub_degree: int,
                   H: Optional[PolyLike] = None,
                   psi: Optional[PolyLike] = None, s: Optional[int] = None,
                   c=None, g: Optional[PolyLike] = None) -> FamilyInstance:
    """Translation family f(x) = phi(x) + g(psi(x)) with additive phi, psi.

    Variants "trace_g1" (g = subfield trace of H) and "power_g2" (g = H^s
    with s*(q-1) = 0 mod q^m-1) take phi = x and any q-polynomial psi
    vanishing on GF(q); their cycle length is the characteristic p.
    "c_trace_q2" is x + c*T(x)^s over GF(q^2) with T the trace to GF(q) and
    c + c^q = 0, again a p-cycle.  "xq_g_trace" is x^q + g(T(x)) over
    GF(q^3) where every coefficient of g has trace zero, a 3-cycle."""
    if variant not in ADDITIVE_VARIANTS:
        raise BadParams(f"unknown variant {variant!r}")
    q, m = _subfield_q(ctx, sub_degree)
    p = ctx.p
    env = {"q": q, "p": p}
    x1 = SparsePoly.monomial(ctx, 1)
    params: dict = {"variant": variant, "sub_degree": sub_degree}
    notes: tuple[str, ...] = ()

    if variant in ("trace_g1", "power_g2"):
        psip = (SparsePoly.make(ctx, [(ctx.neg_idx(1), 1), (1, q)])
                if psi is None else _as_poly(ctx, psi, "psi", env))
        _require_q_poly(psip, q, "psi")
        sub = ctx.subfield_indices(sub_degree)
        if np.any(psip.eval_vec(sub) != 0):
            raise BadParams("psi must vanish on GF(q)")
        Hp = (SparsePoly.monomial(ctx, 2 if variant == "trace_g1" else 1)
              if H is None else _as_poly(ctx, H, "H", env))
        if not Hp.terms:
            raise BadParams("H must be nonzero")
        if variant == "trace_g1":
            g_obj = _trace_expand(Hp, sub_degree, m)
        else:
            if s is None or s < 1:
                raise BadParams("power variant needs a positive s")
            if (s * (q - 1)) % (ctx.order - 1) != 0:
                raise BadParams(
                    f"s(q-1) = {s * (q - 1)} != 0 mod {ctx.order - 1}")
            g_obj = _power_g(Hp, s)
            params.update(s=s)
        params.update(H=Hp.to_text(), psi=psip.to_text())
        g_fn = as_vector_fn(ctx, g_obj)
        # the cycle argument needs g's outputs inside ker(psi) on the whole
        # field, which the variant shapes guarantee; verify anyway.  g^q = g
        # as reduced polynomials (one map each, L&N Thm 7.1) puts them in
        # GF(q), where psi vanishes; failing that, the first x with
        # psi(g(x)) != 0 is looked for on the field
        if not (isinstance(g_obj, SparsePoly)
                and poly_frob(g_obj, sub_degree) == g_obj):
            bad = first_index(ctx, lambda xs: psip.eval_vec(g_fn(xs)) != 0)
            if bad is not None:
                raise KernelViolation("psi(g(x)) != 0", witness=ctx.element(bad))
        psi_im = ctx.linear_image(psip.eval_vec)
        degenerate = bool((g_fn(psi_im) == 0).all())
        phi = x1
        claimed = p
        form = "x + g(psi(x))"

    elif variant == "c_trace_q2":
        if m != 2:
            raise BadParams("field must be a quadratic extension of GF(q)")
        if c is None:
            raise BadParams("needs c with c + c^q = 0")
        ci = element_index(ctx, c)
        if ci == 0 or ctx.add_idx(ci, ctx.frob_idx(ci, sub_degree, 1)) != 0:
            raise BadParams("need nonzero c with c + c^q = 0")
        if s is None:
            s = 1
        if s < 0:
            raise BadParams("s must be nonnegative")
        psip = SparsePoly.make(ctx, [(1, 1), (1, q)])
        g_obj = SparsePoly.make(ctx, [(ci, s)])
        # c + c^q = 0 makes psi(c*u^s) vanish for u in the trace image; off
        # that image the containment may fail, and it is not needed
        psi_im = ctx.linear_image(psip.eval_vec)
        bad = np.flatnonzero(psip.eval_vec(g_obj.eval_vec(psi_im)) != 0)
        if bad.size:
            raise KernelViolation(
                "psi(g(y)) != 0 on the psi image",
                witness=ctx.element(int(psi_im[bad[0]])))
        degenerate = bool((g_obj.eval_vec(psi_im) == 0).all())
        phi = x1
        claimed = p
        params.update(c=ci, s=s)
        notes = ("cycle length equals the characteristic, so the length-3 "
                 "claim holds exactly when p = 3",)
        form = "x + c*T(x)^s, T the trace to GF(q)"

    else:
        if m != 3:
            raise BadParams("field must be a cubic extension of GF(q)")
        if g is None:
            raise BadParams("needs the outer polynomial g")
        g_obj = _as_poly(ctx, g, "g", env)
        for coeff, _ in g_obj.terms:
            if ctx.trace_idx(coeff, sub_degree) != 0:
                raise KernelViolation(
                    "coefficient of g has nonzero trace",
                    witness=ctx.element(coeff))
        psip = SparsePoly.make(ctx, [(1, 1), (1, q), (1, q * q)])
        psi_im = ctx.linear_image(psip.eval_vec)
        bad = np.flatnonzero(
            ctx.vtrace(g_obj.eval_vec(psi_im), sub_degree) != 0)
        if bad.size:
            raise KernelViolation(
                "trace of g(y) is nonzero on the trace image",
                witness=ctx.element(int(psi_im[bad[0]])))
        phi = SparsePoly.monomial(ctx, q)
        claimed = 3
        degenerate = False
        params.update(g=g_obj.to_text())
        form = "x^q + g(T(x)), T the trace to GF(q)"

    return additive_instance(
        ctx, phi, psip, g_obj, claimed, params=params,
        expand=lambda: (poly_add(phi, poly_compose(g_obj, psip))
                        if isinstance(g_obj, SparsePoly) else None),
        map_form=form, degenerate=degenerate, notes=notes)


# ---------------------------------------------------------------------------
# g(x^(q^i) - x + delta) + x
# ---------------------------------------------------------------------------

SHIFT_VARIANTS = ("trace_g1", "power_g2")


def build_shift(ctx: FieldCtx, variant: str, *, i: int, delta,
                sub_degree: int, H: Optional[PolyLike] = None,
                s: Optional[int] = None) -> FamilyInstance:
    """Shifted-argument translation f(x) = g(x^(q^i) - x + delta) + x.

    g's outputs land in the fixed field of the q^i Frobenius, which makes
    the inner argument invariant along iterates, so f steps by adding
    g(y) each round: a p-cycle when g does not vanish identically on the
    shifted set S = {x^(q^i) - x + delta}.  Variant "trace_g1" takes
    g = trace of H down to GF(q^i) (needs i | m), "power_g2" takes g = H^s
    with s*(q^i - 1) = 0 mod q^m-1."""
    if variant not in SHIFT_VARIANTS:
        raise BadParams(f"unknown variant {variant!r}")
    q, m = _subfield_q(ctx, sub_degree)
    if not 1 <= i <= m - 1:
        raise BadParams(f"need 1 <= i <= {m - 1}")
    p = ctx.p
    env = {"q": q, "p": p}
    di = element_index(ctx, delta)
    params: dict = {"variant": variant, "sub_degree": sub_degree,
                    "i": i, "delta": di}

    if variant == "trace_g1":
        if m % i != 0:
            raise BadParams(f"trace target GF(q^{i}) needs {i} | {m}")
        Hp = (SparsePoly.monomial(ctx, 2) if H is None
              else _as_poly(ctx, H, "H", env))
        g_obj = _trace_expand(Hp, sub_degree * i, m // i)
        if not np.any(g_obj.eval_vec(shift_domain(ctx, sub_degree, i, di))):
            raise DegenerateH("trace of H vanishes on the shifted set")
    else:
        if s is None or s < 1:
            raise BadParams("power variant needs a positive s")
        if (s * (q ** i - 1)) % (ctx.order - 1) != 0:
            raise BadParams(
                f"s(q^i-1) = {s * (q ** i - 1)} != 0 mod {ctx.order - 1}")
        Hp = (SparsePoly.monomial(ctx, 1) if H is None
              else _as_poly(ctx, H, "H", env))
        if not np.any(Hp.eval_vec(shift_domain(ctx, sub_degree, i, di))):
            raise DegenerateH("H vanishes on the shifted set")
        g_obj = _power_g(Hp, s)
        params.update(s=s)
    params.update(H=Hp.to_text())

    shift_poly = SparsePoly.make(
        ctx, [(di, 0), (ctx.neg_idx(1), 1), (1, q ** i)])
    return shift_instance(
        ctx, g_obj, ShiftParams(i, di, sub_degree), p, params=params,
        expand=lambda: (poly_add(SparsePoly.monomial(ctx, 1),
                                 poly_compose(g_obj, shift_poly))
                        if isinstance(g_obj, SparsePoly) else None),
        map_form="x + g(x^(q^i) - x + delta)")


# ---------------------------------------------------------------------------
# x^r * h(x^s) families on root-of-unity cosets
# ---------------------------------------------------------------------------

def search_k_2to3m(q: int) -> list[int]:
    """All k in [1, 7(q-1)] with 7k = 0 mod (q-1) and k = 3 mod 7, ascending.
    7 divides q - 1 = 2^(3m') - 1, so such a k is j*d, d = (q-1)/7, for
    one of j = 1, ..., 49."""
    e = _exact_log(q, 2)
    if e % 3 != 0:
        raise BadParams("q must be 2^(3m') for some m' >= 1")
    d = (q - 1) // 7
    return [j * d for j in range(1, 50) if j * d % 7 == 3]


def build_rs_2to3m(q: int, k: int,
                   ctx: Optional[FieldCtx] = None) -> FamilyInstance:
    """Trinomial twist x * (1 + x^(k*M) + x^(2k*M)) over GF(q^3), where
    M = q^2 + q + 1, 7k = 0 mod (q-1) and k = 3 mod 7."""
    e = _exact_log(q, 2)
    if e % 3 != 0:
        raise BadParams("q must be 2^(3m') for some m' >= 1")
    if k < 1 or (7 * k) % (q - 1) != 0:
        raise BadParams(f"7k = {7 * k} != 0 mod {q - 1}")
    if k % 7 != 3:
        raise BadParams(f"k = {k} != 3 mod 7")
    ctx = _ctx_for(q, 3, ctx)
    M = q * q + q + 1
    h = SparsePoly.make(ctx, [(1, 0), (1, k), (1, 2 * k)])
    hv = h.eval_vec(ctx.mu_indices(q - 1))
    return rs_instance(
        ctx, h, RsParams(1, M), family="rs2to3m",
        params={"q": q, "k": k, "h": h.to_text()},
        map_form="x * (1 + x^(k*M) + x^(2k*M)), M = q^2+q+1, over GF(q^3)",
        degenerate=bool((hv == 1).all()))


def build_xq_h_alpha(q: int, alpha,
                     ctx: Optional[FieldCtx] = None) -> FamilyInstance:
    """f(x) = x^q * h(x^(q-1)) over GF(q^3) with
    h = 1 + alpha*y^(M/3) + y^(2M/3), M = q^2 + q + 1, alpha^3 = 1 in GF(q).

    q must be an even power of 2 so that 3 divides M."""
    e = _exact_log(q, 2)
    if e % 2 != 0:
        raise BadParams("q must be 2^(2m') so 3 divides q^2+q+1")
    ctx = _ctx_for(q, 3, ctx)
    M = q * q + q + 1
    ai = element_index(ctx, alpha)
    if ai == 0 or ctx.pow_idx(ai, 3) != 1:
        raise BadParams("alpha must be a cube root of unity")
    if ctx.frob_idx(ai, e, 1) != ai:
        raise BadParams("alpha must lie in GF(q)")
    h = SparsePoly.make(ctx, [(1, 0), (ai, M // 3), (1, 2 * (M // 3))])
    mu = ctx.mu_indices(M)
    unit = ctx.vmul(mu, h.eval_vec(mu))
    return rs_instance(
        ctx, h, RsParams(q, q - 1), family="xq_h_alpha",
        params={"q": q, "alpha": ai, "h": h.to_text()},
        map_form="x^q * h(x^(q-1)) over GF(q^3)",
        degenerate=bool((unit == 1).all()))


def solve_jieguo_congruences(q: int,
                             cap: Optional[int] = None) -> list[tuple[int, int]]:
    """Exhaustive scan for (t, m) in [0, q+1)^2 satisfying the defining
    congruences mod q+1: the cubic precondition in t alone plus the three
    coupled conditions.  q must be 2^(12k'-6) so that 13 | q+1, and at most
    the field-size cap (field_cap() when None), since the scan takes up to
    (q+1)^2 steps.  The scan runs once per q; the fuzzer asks for it on
    every trial."""
    return list(_jieguo_pairs(q, field_cap() if cap is None else cap))


def check_jieguo_q(q: int) -> None:
    """BadParams unless q = 2^(12k'-6), the shape for which 13 divides q+1."""
    if _exact_log(q, 2) % 12 != 6:
        raise BadParams("q must be 2^(12k'-6) so that 13 divides q+1")


@lru_cache(maxsize=16)
def _jieguo_pairs(q: int, cap: int) -> tuple[tuple[int, int], ...]:
    check_jieguo_q(q)
    if q > cap:
        raise CapExceeded(f"q = {q} exceeds cap {cap}")
    Q1 = q + 1
    out = []
    for t in range(Q1):
        if (-6 * t + 12 * t * t - 8 * t ** 3) % Q1 != 0:
            continue
        for m in range(Q1):
            if ((-3 * m + 6 * m * t - 4 * m * t * t) % Q1 == 0
                    and (-m - m * t + t + t * t) % Q1 == 0
                    and (13 * m - 13 * t) % Q1 == 0):
                out.append((t, m))
    return tuple(out)


def build_jieguo(q: int, t: int, m: int,
                 ctx: Optional[FieldCtx] = None) -> FamilyInstance:
    """Triple-cycle trinomial x * h(x^(q-1)) over GF(q^2) with
    h = y^m + y^((m-2t)q mod (q+1)) + y^t for a congruence-solving (t, m).

    h only ever receives (q+1)-th roots of unity, so its exponents are
    reduced mod q+1 (the raw middle exponent m*q - 2*t*q is negative for
    typical solutions).  The shape of q and the field cap are checked
    before the congruence scan, which takes (q+1)^2 steps at worst."""
    check_jieguo_q(q)
    ctx = _ctx_for(q, 2, ctx)
    if (t, m) not in set(solve_jieguo_congruences(q)):
        raise BadParams(f"(t, m) = ({t}, {m}) does not satisfy the "
                        "defining congruences")
    Q1 = q + 1
    h = SparsePoly.make(ctx, [(1, m % Q1), (1, (m * q - 2 * t * q) % Q1),
                              (1, t % Q1)])
    hv = h.eval_vec(ctx.mu_indices(Q1))
    return rs_instance(
        ctx, h, RsParams(1, q - 1), family="jieguo",
        params={"q": q, "t": t, "m": m, "h": h.to_text()},
        map_form="x * h(x^(q-1)) over GF(q^2)",
        degenerate=bool((hv == 1).all()),
        notes=("argument exponents reduced mod q+1, value-preserving on "
               "the (q+1)-th roots of unity h is evaluated at",))


def _squares_to_inverse(f: SparsePoly, inv: SparsePoly) -> bool:
    """f(f(x)) = inv(x) and f(inv(x)) = x as reduced polynomials, each
    exactly one map of the field (L&N Thm 7.1)."""
    x = SparsePoly.monomial(f.ctx, 1)
    return (poly_compose(f, f).terms == inv.terms
            and poly_compose(f, inv).terms == x.terms)


def build_trace_theta(q: int, theta=None,
                      ctx: Optional[FieldCtx] = None) -> FamilyInstance:
    """Involution-style triple cycle f(x) = x + theta*T(x^((q^2+q)/2)) over
    GF(q^3), T the trace to GF(q), theta a primitive cube root of unity.

    Comes with its closed-form inverse x + theta^2*T(x^((q^2+q)/2)); the
    certificate, which the constructor asserts, is f(f(x)) = that inverse
    and f(inverse(x)) = x as reduced polynomials, so f has order dividing
    3 with no table of the field built."""
    e = _exact_log(q, 2)
    if e % 2 != 0:
        raise BadParams("q must be an even power of 2 so GF(q) contains "
                        "the cube roots of unity")
    ctx = _ctx_for(q, 3, ctx)
    if theta is None:
        th = ctx.pow_idx(ctx.generator.i, (ctx.order - 1) // 3)
    else:
        th = element_index(ctx, theta)
    if th == 1 or ctx.pow_idx(th, 3) != 1:
        raise BadParams("theta must be a cube root of unity other than 1")
    if ctx.frob_idx(th, e, 1) != th:
        raise BadParams("theta must lie in GF(q)")
    s_exp = (q * q + q) // 2
    T = _trace_expand(SparsePoly.monomial(ctx, s_exp), e, 3)
    x1 = SparsePoly.monomial(ctx, 1)
    th2 = ctx.mul_idx(th, th)
    poly = poly_add(x1, poly_mul(SparsePoly.make(ctx, [(th, 0)]), T))
    inv_poly = poly_add(x1, poly_mul(SparsePoly.make(ctx, [(th2, 0)]), T))

    ok = _squares_to_inverse(poly, inv_poly)
    if not ok:
        raise NcycleInternal("f*f must equal the closed-form inverse")

    def check() -> CriterionVerdict:
        return CriterionVerdict(ok, None, ctx.order,
                                extras={"squares_to_inverse": ok})

    return FamilyInstance(
        family="trace_theta", ctx=ctx, params={"q": q, "theta": th},
        claimed_n=3, expand=lambda: poly, fn=poly.eval_vec,
        map_form="x + theta*T(x^((q^2+q)/2)) over GF(q^3)",
        check=check, inverse_poly=inv_poly)
