"""Algebraic n-cycle criteria for structured maps.

Each function decides a closed-form condition that characterizes (or, where
noted, implies) the n-cycle property for one structural shape of map.  The
conditions quantify over small derived domains (a subfield image, a shifted
kernel, a root-of-unity coset) rather than the whole field, which is the
point: they stay cheap while full cycle enumeration grows with the field.

Hypotheses of the underlying statements are checked first by exhaustion and
raise HypothesisViolated (or a more specific error) when broken, so a verdict
is only issued when the statement actually applies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    BadParams, HypothesisViolated, NotPermutation, NotSurjective,
    PrereqNotNcycle,
)
from .field import FieldCtx, FieldElement, NcycleInternal, element_index
from .polyperm import (
    PermMap, SparsePoly, as_images, as_vector_fn, functional_power, is_ncycle,
    perm_from_images, require_perm,
)


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion evaluation.

    witness is a point of the quantified domain where the condition breaks
    (None when the verdict holds, or when the failure is a global arithmetic
    condition with no pointwise counterexample)."""

    holds: bool
    witness: FieldElement | None
    domain_size: int
    hypothesis_failures: tuple[str, ...] = ()
    extras: dict = dataclass_field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "holds": self.holds,
            "witness": None if self.witness is None else self.witness.i,
            "domain_size": self.domain_size,
            "hypothesis_failures": list(self.hypothesis_failures),
        }
        out.update(self.extras)
        return out


def _element(ctx: FieldCtx, i) -> FieldElement:
    return ctx.element(int(i))


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

def monomial_ncycle(ctx: FieldCtx, d: int, n: int) -> CriterionVerdict:
    """x^d is an n-cycle permutation iff d^n = 1 mod (field size - 1)."""
    if d < 1 or n < 1:
        raise BadParams("exponent and n must be positive")
    q1 = ctx.order - 1
    if math.gcd(d, q1) != 1:
        raise NotPermutation(f"gcd({d}, {q1}) > 1, x^{d} is not a bijection")
    residue = pow(d, n, q1)
    holds = residue == 1 % q1
    witness = None if holds else ctx.generator
    return CriterionVerdict(holds, witness, q1,
                            extras={"d_power_n_residue": residue})


# ---------------------------------------------------------------------------
# conjugation by a field power map
# ---------------------------------------------------------------------------

def frobenius_twist_ncycle(ctx: FieldCtx, poly: SparsePoly, i: int, n: int,
                           sub_degree: int) -> CriterionVerdict:
    """Sufficient condition for f(x)^(q^i) to stay an n-cycle: with f an
    n-cycle whose coefficients live in the degree-sub_degree subfield, the
    twist is again an n-cycle whenever m divides n*i (m the extension
    degree over that subfield)."""
    m = ctx.degree_over(sub_degree)
    if i < 0 or n < 1:
        raise BadParams("need i >= 0 and n >= 1")
    if not poly.coeffs_in_subfield(sub_degree):
        raise BadParams("coefficients are not fixed by the subfield power map")
    base = require_perm(ctx, poly)
    if not is_ncycle(base, n):
        raise PrereqNotNcycle(f"base map is not an n-cycle for n={n}")
    holds = (n * i) % m == 0
    twist = PermMap(ctx, ctx.vfrob(base.images, sub_degree, i))
    twist_ok = is_ncycle(twist, n)
    if holds and not twist_ok:
        raise NcycleInternal("twist must inherit the n-cycle property")
    witness = None
    if not twist_ok:
        moved = functional_power(twist, n).images != ctx.varange()
        witness = _element(ctx, np.flatnonzero(moved)[0])
    return CriterionVerdict(holds, witness, ctx.order,
                            extras={"twist_is_ncycle": bool(twist_ok)})


# ---------------------------------------------------------------------------
# x * h(lambda(x))
# ---------------------------------------------------------------------------

def xh_lambda_criterion(ctx: FieldCtx, h: SparsePoly, lam, k: SparsePoly,
                        n: int) -> CriterionVerdict:
    """n-cycle test for f(x) = x * h(lambda(x)).

    Requires h(0) != 0, k(0) = 0, that y * k(h(y)) permutes the image of
    lambda, and the scaling law lambda(a*x) = k(a) * lambda(x) for every a
    in h(image) together with 1.  Under those, f is an n-cycle iff the
    orbit product of h along y * k(h(y)) is 1 at every nonzero image point."""
    if n < 1:
        raise BadParams("n must be positive")
    if h.eval_idx(0) == 0:
        raise HypothesisViolated("h(0) = 0")
    if k.eval_idx(0) != 0:
        raise HypothesisViolated("k(0) != 0")
    lam_fn = as_vector_fn(ctx, lam)
    allx = ctx.varange()
    lam_images = lam_fn(allx)
    image = np.unique(lam_images)

    hv_image = h.eval_vec(image)
    gv = ctx.vmul(image, k.eval_vec(hv_image))
    if not np.array_equal(np.unique(gv), image):
        raise HypothesisViolated("y*k(h(y)) does not permute the lambda image")

    scalars = set(hv_image.tolist()) | {1}
    for a in sorted(scalars):
        lhs = lam_fn(ctx.vmul(np.int64(a), allx))
        rhs = ctx.vmul(np.int64(k.eval_idx(a)), lam_images)
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            raise HypothesisViolated(
                "scaling law fails",
                witness=(_element(ctx, a), _element(ctx, bad[0])))

    ys = image[image != 0]
    prod = np.ones(len(ys), dtype=np.int64)
    aux = np.ones(len(ys), dtype=np.int64)
    cur = ys.copy()
    for _ in range(n):
        hv = h.eval_vec(cur)
        kv = k.eval_vec(hv)
        prod = ctx.vmul(prod, hv)
        aux = ctx.vmul(aux, kv)
        cur = ctx.vmul(cur, kv)
    bad = np.flatnonzero(prod != 1)
    holds = bad.size == 0
    witness = None if holds else _element(ctx, ys[bad[0]])
    return CriterionVerdict(holds, witness, len(ys), extras={
        "lambda_image_size": int(len(image)),
        "aux_scaling_product_one": bool(np.all(aux == 1)),
    })


# ---------------------------------------------------------------------------
# phi(x) + g(psi(x)) with additive phi and psi
# ---------------------------------------------------------------------------

def additive_criterion(ctx: FieldCtx, phi: SparsePoly, psi: SparsePoly, g,
                       n: int) -> CriterionVerdict:
    """n-cycle test for f(x) = phi(x) + g(psi(x)).

    phi and psi must be additive (every exponent a power of the
    characteristic), phi itself an n-cycle, and phi and psi must commute.
    Under those, f is an n-cycle iff the telescoped sum of g along
    fbar(x) = phi(x) + psi(g(x)) vanishes on the image of psi."""
    if n < 1:
        raise BadParams("n must be positive")
    for name, poly in (("phi", phi), ("psi", psi)):
        if not poly.is_additive():
            raise HypothesisViolated(f"{name} is not additive")
    phi_pm = require_perm(ctx, phi)
    if not is_ncycle(phi_pm, n):
        raise PrereqNotNcycle(f"phi is not an n-cycle for n={n}")
    allx = ctx.varange()
    phi_im = phi.eval_vec(allx)
    psi_im = psi.eval_vec(allx)
    bad = np.flatnonzero(phi.eval_vec(psi_im) != psi.eval_vec(phi_im))
    if bad.size:
        raise HypothesisViolated("phi and psi do not commute",
                                 witness=_element(ctx, bad[0]))
    g_fn = as_vector_fn(ctx, g)
    ys = np.unique(psi_im)
    # Horner form of sum_k phi^(n-1-k)(g(fbar^(k)(y))) using additivity of phi
    acc = np.zeros(len(ys), dtype=np.int64)
    cur = ys.copy()
    for _ in range(n):
        acc = ctx.vadd(phi.eval_vec(acc), g_fn(cur))
        cur = ctx.vadd(phi.eval_vec(cur), psi.eval_vec(g_fn(cur)))
    nz = np.flatnonzero(acc)
    holds = nz.size == 0
    witness = None if holds else _element(ctx, ys[nz[0]])
    return CriterionVerdict(holds, witness, len(ys),
                            extras={"psi_image_size": int(len(ys))})


# ---------------------------------------------------------------------------
# g(x^(q^i) - x + delta) + x
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftParams:
    """Parameters of the shifted-kernel shape: the power q = p^sub_degree,
    the twist exponent i, and the shift delta (an element index)."""

    i: int
    delta: int
    sub_degree: int


def shift_criterion(ctx: FieldCtx, g, params: ShiftParams,
                    n: int) -> CriterionVerdict:
    """n-cycle test for f(x) = g(x^(q^i) - x + delta) + x.

    The additive map x^(q^i) - x translates the quantified domain to
    S = {x^(q^i) - x + delta}; f is an n-cycle iff the n-step sum of g along
    h(y) = g(y)^(q^i) - g(y) + y vanishes on S."""
    if n < 1:
        raise BadParams("n must be positive")
    m = ctx.degree_over(params.sub_degree)
    if not 1 <= params.i <= m - 1:
        raise BadParams(f"need 1 <= i <= {m - 1}")
    delta = element_index(ctx, params.delta)
    allx = ctx.varange()
    frob = lambda v: ctx.vfrob(v, params.sub_degree, params.i)
    shifted = ctx.vadd(ctx.vsub(frob(allx), allx), np.int64(delta))
    ys = np.unique(shifted)
    g_fn = as_vector_fn(ctx, g)

    def step(v: np.ndarray) -> np.ndarray:
        gv = g_fn(v)
        return ctx.vadd(ctx.vsub(frob(gv), gv), v)

    if not np.isin(step(ys), ys).all():
        raise HypothesisViolated("g(y)^(q^i) - g(y) + y must stabilize the domain")
    acc = np.zeros(len(ys), dtype=np.int64)
    cur = ys.copy()
    for _ in range(n):
        acc = ctx.vadd(acc, g_fn(cur))
        cur = step(cur)
    nz = np.flatnonzero(acc)
    holds = nz.size == 0
    witness = None if holds else _element(ctx, ys[nz[0]])
    return CriterionVerdict(holds, witness, len(ys),
                            extras={"shifted_kernel_size": int(len(ys))})


# ---------------------------------------------------------------------------
# x^r * h(x^s)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RsParams:
    """Exponent pair of the multiplicative shape x^r * h(x^s)."""

    r: int
    s: int


def _rs_validate(ctx: FieldCtx, params: RsParams) -> int:
    if params.r < 1:
        raise BadParams("r must be positive")
    if params.s < 1 or (ctx.order - 1) % params.s != 0:
        raise BadParams(f"s={params.s} must divide {ctx.order - 1}")
    if math.gcd(params.r, params.s) != 1:
        raise BadParams(f"r={params.r} and s={params.s} are not coprime")
    return (ctx.order - 1) // params.s


def rs_triple_criterion(ctx: FieldCtx, h: SparsePoly,
                        params: RsParams) -> CriterionVerdict:
    """Total triple-cycle test for f(x) = x^r * h(x^s): f is a 3-cycle iff
    r^3 = 1 mod s and the orbit product y^((r^3-1)/s) * h(y)^(r^2) *
    h(g(y))^r * h(g(g(y))) is 1 on the order-(q-1)/s subgroup, where
    g(y) = y^r * h(y)^s."""
    r, s = params.r, params.s
    ell = _rs_validate(ctx, params)
    mu = ctx.mu_indices(ell)
    if (r ** 3 - 1) % s != 0:
        # global arithmetic failure: no pointwise witness exists
        return CriterionVerdict(False, None, ell,
                                extras={"r_cubed_condition": False})
    hv = h.eval_vec(mu)
    g1 = ctx.vmul(ctx.vpow(mu, r), ctx.vpow(hv, s))
    hg1 = h.eval_vec(g1)
    g2 = ctx.vmul(ctx.vpow(g1, r), ctx.vpow(hg1, s))
    hg2 = h.eval_vec(g2)
    prod = ctx.vpow(mu, (r ** 3 - 1) // s)
    prod = ctx.vmul(prod, ctx.vpow(hv, r * r))
    prod = ctx.vmul(prod, ctx.vpow(hg1, r))
    prod = ctx.vmul(prod, hg2)
    bad = np.flatnonzero(prod != 1)
    holds = bad.size == 0
    witness = None if holds else _element(ctx, mu[bad[0]])
    g3 = ctx.vmul(ctx.vpow(g2, r), ctx.vpow(hg2, s))
    return CriterionVerdict(holds, witness, ell, extras={
        "r_cubed_condition": True,
        "g_order_divides_3": bool(np.array_equal(g3, mu)),
    })


def rs_single_criterion(ctx: FieldCtx, h: SparsePoly, params: RsParams,
                        a, v: int) -> CriterionVerdict:
    """Specialized triple-cycle test for x^r * h(x^s) when h(y)^s collapses
    to a monomial a * y^(v-r) on the subgroup: the three-fold orbit product
    becomes a single explicit equation per subgroup point."""
    r, s = params.r, params.s
    ell = _rs_validate(ctx, params)
    if (r ** 3 - 1) % s != 0:
        raise BadParams("r^3 = 1 mod s is required")
    if v < 0 or pow(v, 3, ell) != 1 % ell:
        raise BadParams("v^3 = 1 mod ell is required")
    ai = element_index(ctx, a)
    if ctx.pow_idx(ai, v * v + v + 1) != 1:
        raise BadParams("a^(v^2+v+1) = 1 is required")
    mu = ctx.mu_indices(ell)
    hv = h.eval_vec(mu)
    want = ctx.vmul(np.int64(ai), ctx.vpow(mu, (v - r) % (ctx.order - 1)))
    bad = np.flatnonzero(ctx.vpow(hv, s) != want)
    if bad.size:
        raise HypothesisViolated("h(y)^s != a*y^(v-r) on the subgroup",
                                 witness=_element(ctx, mu[bad[0]]))
    prod = ctx.vpow(mu, (r ** 3 - 1) // s)
    prod = ctx.vmul(prod, ctx.vpow(hv, r * r))
    arg1 = ctx.vmul(np.int64(ai), ctx.vpow(mu, v))
    prod = ctx.vmul(prod, ctx.vpow(h.eval_vec(arg1), r))
    arg2 = ctx.vmul(np.int64(ctx.pow_idx(ai, v + 1)), ctx.vpow(mu, v * v))
    prod = ctx.vmul(prod, h.eval_vec(arg2))
    bad = np.flatnonzero(prod != 1)
    holds = bad.size == 0
    witness = None if holds else _element(ctx, mu[bad[0]])
    return CriterionVerdict(holds, witness, ell)


# ---------------------------------------------------------------------------
# commuting-diagram bijectivity transfer
# ---------------------------------------------------------------------------

def agw_commute_check(ctx: FieldCtx, f, lam, lam_bar, g,
                      S=None, S_bar=None) -> bool:
    """Bijectivity transfer through a commuting square: with surjections
    lam, lam_bar onto S, S_bar of equal size and lam_bar(f(x)) = g(lam(x)),
    f is a bijection iff g is a bijection from S to S_bar and f is injective
    on every lam-fiber.  Returns that conjunction; False when the square
    does not commute."""
    f_im = as_images(ctx, f)
    lam_im = as_images(ctx, lam)
    lam_bar_im = as_images(ctx, lam_bar)
    s_set = np.unique(lam_im)
    s_bar_set = np.unique(lam_bar_im)
    if S is not None:
        declared = np.unique(np.array([element_index(ctx, t) for t in S], dtype=np.int64))
        if not np.array_equal(declared, s_set):
            raise NotSurjective("lam does not map onto the declared S")
    if S_bar is not None:
        declared = np.unique(np.array([element_index(ctx, t) for t in S_bar], dtype=np.int64))
        if not np.array_equal(declared, s_bar_set):
            raise NotSurjective("lam_bar does not map onto the declared S_bar")
    if len(s_set) != len(s_bar_set):
        raise BadParams("S and S_bar must have equal size")
    g_fn = as_vector_fn(ctx, g)
    if not np.array_equal(lam_bar_im[f_im], g_fn(lam_im)):
        return False
    g_on_s = g_fn(s_set)
    g_bij = np.array_equal(np.unique(g_on_s), s_bar_set)
    pairs = lam_im * np.int64(ctx.order) + f_im
    fiber_inj = len(np.unique(pairs)) == ctx.order
    result = bool(g_bij and fiber_inj)
    f_bij = isinstance(perm_from_images(ctx, f_im), PermMap)
    if result != f_bij:
        raise NcycleInternal("bijectivity transfer mismatch")
    return result
