import math

import numpy as np
import pytest

from ncyclepp.criteria import (
    CriterionVerdict, RsParams, ShiftParams, agw_commute_check,
    additive_criterion, frobenius_twist_ncycle, monomial_ncycle,
    rs_single_criterion, rs_triple_criterion, shift_criterion,
    xh_lambda_criterion, _sorted_unique,
)
from ncyclepp.errors import (
    BadParams, HypothesisViolated, NotPermutation, NotSurjective,
    PrereqNotNcycle,
)
from ncyclepp.polyperm import SparsePoly
from conftest import field


def order_divides(ctx, images, n):
    """Oracle: bijectivity by sorting, n-th iterate by pure-python stepping."""
    imgs = [int(t) for t in images]
    if sorted(imgs) != list(range(ctx.order)):
        return False
    cur = list(range(ctx.order))
    for _ in range(n):
        cur = [imgs[t] for t in cur]
    return cur == list(range(ctx.order))


# --- monomials ----------------------------------------------------------------

@pytest.mark.parametrize("pn", [(2, 3), (7, 1), (3, 2)])
def test_monomial_vs_exhaustion(pn):
    ctx = field(*pn)
    q1 = ctx.order - 1
    for d in range(1, q1 + 2):
        if math.gcd(d, q1) != 1:
            with pytest.raises(NotPermutation):
                monomial_ncycle(ctx, d, 2)
            continue
        images = ctx.vpow(ctx.varange(), d)
        for n in (1, 2, 3, 6):
            verdict = monomial_ncycle(ctx, d, n)
            assert verdict.holds == order_divides(ctx, images, n)
            if not verdict.holds:
                assert verdict.witness == ctx.generator


def test_monomial_json_shape():
    ctx = field(7, 1)
    v = monomial_ncycle(ctx, 5, 3)
    j = v.to_json()
    assert j["holds"] is False and j["witness"] == ctx.generator.i
    assert j["domain_size"] == 6 and j["d_power_n_residue"] == pow(5, 3, 6)
    assert j["hypothesis_failures"] == []


# --- conjugation by a power map -------------------------------------------

def test_twist_sufficient_case():
    ctx = field(7, 2)
    poly = SparsePoly.from_text(ctx, "x^7")
    v = frobenius_twist_ncycle(ctx, poly, i=1, n=2, sub_degree=1)
    assert v.holds and v.extras["twist_is_ncycle"] and v.witness is None


def test_twist_insufficient_case_with_witness():
    # q = 4, m = 3: n*i = 2 is not a multiple of 3, and here the twist
    # genuinely loses the property
    ctx = field(2, 6)
    poly = SparsePoly.from_text(ctx, "x^62")
    assert order_divides(ctx, poly.eval_vec(ctx.varange()), 2)
    v = frobenius_twist_ncycle(ctx, poly, i=1, n=2, sub_degree=2)
    assert not v.holds and not v.extras["twist_is_ncycle"]
    # witness is a point moved by the twist applied n times
    w = v.witness
    t = ctx.vfrob(poly.eval_vec(ctx.varange()), 2, 1)
    assert int(t[int(t[w.i])]) != w.i


def test_twist_table_is_int32_and_composed_once(monkeypatch):
    # the twist's image table is built in table_dtype, not vfrob's int64,
    # and its n-th power is composed once, for the verdict and the witness
    import ncyclepp.criteria as criteria_mod
    seen, plain = [], criteria_mod.functional_power

    def spy(f, k):
        seen.append((f.images.dtype, k))
        return plain(f, k)

    monkeypatch.setattr(criteria_mod, "functional_power", spy)
    ctx = field(2, 6)
    v = frobenius_twist_ncycle(ctx, SparsePoly.from_text(ctx, "x^62"), i=1, n=2,
                               sub_degree=2)
    assert not v.holds and v.witness is not None
    assert seen == [(np.int32, 2)]


def test_twist_condition_implies_twist_ncycle():
    ctx = field(2, 6)
    q1 = ctx.order - 1
    for d in range(1, q1):
        if math.gcd(d, q1) != 1 or pow(d, 3, q1) != 1:
            continue
        poly = SparsePoly.from_text(ctx, f"x^{d}")
        for i in (2, 4, 6):
            v = frobenius_twist_ncycle(ctx, poly, i=i, n=3, sub_degree=1)
            assert v.holds == ((3 * i) % 6 == 0)
            if v.holds:
                assert v.extras["twist_is_ncycle"]


def test_twist_prereq_and_param_errors():
    ctx = field(7, 2)
    with pytest.raises(PrereqNotNcycle):
        frobenius_twist_ncycle(ctx, SparsePoly.from_text(ctx, "x^5"),
                               i=1, n=2, sub_degree=1)
    f4 = field(2, 2)
    bad = SparsePoly.make(f4, [(2, 1)])  # coefficient outside GF(2)
    with pytest.raises(BadParams):
        frobenius_twist_ncycle(f4, bad, i=1, n=1, sub_degree=1)


# --- x * h(lambda(x)) --------------------------------------------------------

def xh_images(ctx, h, lam):
    allx = ctx.varange()
    return ctx.vmul(allx, h.eval_vec(lam.eval_vec(allx)))


def test_xh_lambda_involution_gf25():
    ctx = field(5, 2)
    h = SparsePoly.from_text(ctx, "1 + 3*x^4")        # 1 - 2*y^(q-1)
    lam = SparsePoly.from_text(ctx, "x^2 + x^10")     # trace of x^2
    k = SparsePoly.from_text(ctx, "x^2")
    v = xh_lambda_criterion(ctx, h, lam, k, n=2)
    assert v.holds and v.witness is None
    assert v.extras["lambda_image_size"] == 5
    assert v.extras["aux_scaling_product_one"]
    assert order_divides(ctx, xh_images(ctx, h, lam), 2)


def test_xh_lambda_false_verdict_matches_oracle():
    # h(y) = 2 fails h(y)^2 = 1 only through the orbit product, so the
    # hypotheses hold and the verdict must be False
    ctx = field(5, 2)
    h = SparsePoly.from_text(ctx, "2")
    lam = SparsePoly.from_text(ctx, "x^2 + x^10")
    k = SparsePoly.from_text(ctx, "x^2")
    v = xh_lambda_criterion(ctx, h, lam, k, n=2)
    assert not v.holds
    assert v.witness is not None and v.witness.i != 0
    assert not order_divides(ctx, xh_images(ctx, h, lam), 2)
    # but h(y) = 2 does give a 4-cycle since 2^4 = 1 mod 5
    v4 = xh_lambda_criterion(ctx, h, lam, k, n=4)
    assert v4.holds
    assert order_divides(ctx, xh_images(ctx, h, lam), 4)


def test_xh_lambda_hypothesis_failures():
    ctx = field(5, 2)
    lam = SparsePoly.from_text(ctx, "x^2 + x^10")
    k = SparsePoly.from_text(ctx, "x^2")
    with pytest.raises(HypothesisViolated):
        xh_lambda_criterion(ctx, SparsePoly.from_text(ctx, "x"), lam, k, 2)
    with pytest.raises(HypothesisViolated):
        xh_lambda_criterion(ctx, SparsePoly.from_text(ctx, "1 + 3*x^4"),
                            lam, SparsePoly.from_text(ctx, "x^2 + 1"), 2)
    # y*k(h(y)) collides on the image when h = 1 + y
    with pytest.raises(HypothesisViolated):
        xh_lambda_criterion(ctx, SparsePoly.from_text(ctx, "1 + x"), lam, k, 2)
    # k = x makes y*k(h(y)) still permute the image, but the scaling law
    # needs k(a) = a^2 for the squared-argument trace, so it must fail
    with pytest.raises(HypothesisViolated) as info:
        xh_lambda_criterion(ctx, SparsePoly.from_text(ctx, "1 + 3*x^4"),
                            lam, SparsePoly.from_text(ctx, "x"), 2)
    assert info.value.which == "scaling law fails"
    assert info.value.witness is not None


# --- phi(x) + g(psi(x)) --------------------------------------------------

def test_additive_triple_cycle_gf9():
    ctx = field(3, 2)
    phi = SparsePoly.from_text(ctx, "x")
    psi = SparsePoly.from_text(ctx, "x^3 - x")
    g = SparsePoly.from_text(ctx, "x^2 + x^6")        # trace of y^2
    v = additive_criterion(ctx, phi, psi, g, n=3)
    assert v.holds
    allx = ctx.varange()
    images = ctx.vadd(allx, g.eval_vec(psi.eval_vec(allx)))
    assert order_divides(ctx, images, 3)
    assert not np.array_equal(images, allx)  # not the identity


def test_additive_false_verdict_matches_oracle():
    ctx = field(3, 2)
    phi = SparsePoly.from_text(ctx, "x")
    psi = SparsePoly.from_text(ctx, "x^3 - x")
    g = SparsePoly.from_text(ctx, "x + 1")
    v = additive_criterion(ctx, phi, psi, g, n=3)
    allx = ctx.varange()
    images = ctx.vadd(allx, g.eval_vec(psi.eval_vec(allx)))
    assert v.holds == order_divides(ctx, images, 3)
    if not v.holds:
        assert v.witness is not None


def test_additive_hypothesis_failures():
    ctx = field(3, 2)
    x = SparsePoly.from_text(ctx, "x")
    with pytest.raises(HypothesisViolated):  # psi not additive
        additive_criterion(ctx, x, SparsePoly.from_text(ctx, "x^2"), x, 3)
    with pytest.raises(PrereqNotNcycle):     # x^3 has order 2, not dividing 3
        additive_criterion(ctx, SparsePoly.from_text(ctx, "x^3"), x, x, 3)
    c = ctx.generator.i
    scaled = SparsePoly.make(ctx, [(c, 1)])  # c*x with c outside GF(3)
    with pytest.raises(HypothesisViolated):  # does not commute with x^3
        additive_criterion(ctx, scaled, SparsePoly.from_text(ctx, "x^3"), x, 8)


# --- g(x^(q^i) - x + delta) + x -------------------------------------------

def test_shift_triple_cycle_gf9_all_deltas():
    ctx = field(3, 2)
    g = SparsePoly.from_text(ctx, "x^4")
    allx = ctx.varange()
    for delta in range(ctx.order):
        v = shift_criterion(ctx, g, ShiftParams(i=1, delta=delta, sub_degree=1), n=3)
        assert v.holds, delta
        arg = ctx.vadd(ctx.vsub(ctx.vfrob(allx, 1, 1), allx), np.int64(delta))
        images = ctx.vadd(g.eval_vec(arg), allx)
        assert order_divides(ctx, images, 3)


def test_shift_verdict_matches_oracle_for_linear_g():
    ctx = field(3, 2)
    allx = ctx.varange()
    for text in ("x", "x + 1", "2*x^2"):
        g = SparsePoly.from_text(ctx, text)
        for delta in (0, 1, 5):
            v = shift_criterion(ctx, g, ShiftParams(1, delta, 1), n=3)
            arg = ctx.vadd(ctx.vsub(ctx.vfrob(allx, 1, 1), allx), np.int64(delta))
            images = ctx.vadd(g.eval_vec(arg), allx)
            assert v.holds == order_divides(ctx, images, 3)


def test_shift_param_validation():
    ctx = field(3, 2)
    g = SparsePoly.from_text(ctx, "x^4")
    with pytest.raises(BadParams):
        shift_criterion(ctx, g, ShiftParams(0, 0, 1), n=3)
    with pytest.raises(BadParams):
        shift_criterion(ctx, g, ShiftParams(2, 0, 1), n=3)


# --- x^r * h(x^s) ----------------------------------------------------------

def test_rs_triple_holds_and_matches_oracle():
    ctx = field(2, 6)
    params = RsParams(r=1, s=21)
    h = SparsePoly.from_text(ctx, "x")
    v = rs_triple_criterion(ctx, h, params)
    assert v.holds and v.extras["r_cubed_condition"]
    assert v.extras["g_order_divides_3"]
    images = ctx.vmul(ctx.varange(), h.eval_vec(ctx.vpow(ctx.varange(), 21)))
    assert order_divides(ctx, images, 3)


def test_rs_triple_vanishing_h_is_plain_false():
    ctx = field(2, 6)
    h = SparsePoly.from_text(ctx, "1 + x")  # vanishes at y = 1 in the subgroup
    v = rs_triple_criterion(ctx, h, RsParams(1, 21))
    assert not v.holds and v.witness is not None
    images = ctx.vmul(ctx.varange(), h.eval_vec(ctx.vpow(ctx.varange(), 21)))
    assert not order_divides(ctx, images, 3)


def test_rs_triple_global_condition_failure_has_no_witness():
    ctx = field(2, 6)
    v = rs_triple_criterion(ctx, SparsePoly.from_text(ctx, "1"), RsParams(2, 21))
    assert not v.holds and v.witness is None
    assert v.extras == {"r_cubed_condition": False}
    images = ctx.vpow(ctx.varange(), 2)
    assert not order_divides(ctx, images, 3)


def test_rs_param_validation():
    ctx = field(2, 6)
    h = SparsePoly.from_text(ctx, "1")
    with pytest.raises(BadParams):
        rs_triple_criterion(ctx, h, RsParams(1, 10))   # 10 does not divide 63
    with pytest.raises(BadParams):
        rs_triple_criterion(ctx, h, RsParams(3, 21))   # not coprime
    with pytest.raises(BadParams):
        rs_triple_criterion(ctx, h, RsParams(0, 21))


def test_rs_single_monomial_case():
    ctx = field(2, 6)
    params = RsParams(r=1, s=21)
    h = SparsePoly.from_text(ctx, "x^7")
    v = rs_single_criterion(ctx, h, params, a=1, v=1)
    assert v.holds and v.domain_size == 3
    # agrees with the total criterion on the same instance
    assert rs_triple_criterion(ctx, h, params).holds


def test_rs_single_validation_and_hypothesis():
    ctx = field(2, 6)
    params = RsParams(r=1, s=21)
    h = SparsePoly.from_text(ctx, "x^7")
    with pytest.raises(BadParams):
        rs_single_criterion(ctx, h, params, a=1, v=2)   # 2^3 = 2 mod 3
    with pytest.raises(BadParams):
        rs_single_criterion(ctx, h, params, a=0, v=1)   # 0 is not a root of unity
    with pytest.raises(BadParams):
        rs_single_criterion(ctx, h, RsParams(2, 21), a=1, v=1)
    with pytest.raises(HypothesisViolated):
        rs_single_criterion(ctx, SparsePoly.from_text(ctx, "1 + x"),
                            params, a=1, v=1)


# --- commuting-square bijectivity transfer ---------------------------------

@pytest.mark.parametrize("a", [
    np.array([], dtype=np.int64), np.array([7], dtype=np.int32),
    np.array([5, 1, 5, 0, 1, 9], dtype=np.int64),
    np.random.default_rng(3).integers(0, 40, 500).astype(np.int32),
])
def test_sorted_unique_is_np_unique(a):
    got, want = _sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_agw_transfer_true_case():
    ctx = field(5, 2)
    h = SparsePoly.from_text(ctx, "1 + 3*x^4")
    lam = SparsePoly.from_text(ctx, "x^2 + x^10")
    k = SparsePoly.from_text(ctx, "x^2")

    def f(xs):
        return ctx.vmul(xs, h.eval_vec(lam.eval_vec(xs)))

    def g(ys):
        return ctx.vmul(ys, k.eval_vec(h.eval_vec(ys)))

    assert agw_commute_check(ctx, f, lam, lam, g) is True
    sub = [ctx.element(i) for i in ctx.subfield_indices(1).tolist()]
    assert agw_commute_check(ctx, f, lam, lam, g, S=sub, S_bar=sub) is True


def test_agw_transfer_false_and_errors():
    ctx = field(5, 2)
    h = SparsePoly.from_text(ctx, "1 + 3*x^4")
    lam = SparsePoly.from_text(ctx, "x^2 + x^10")

    def f(xs):
        return ctx.vmul(xs, h.eval_vec(lam.eval_vec(xs)))

    # square does not commute with a misdeclared g
    shifted = lambda ys: ctx.vadd(ys, np.int64(1))
    assert agw_commute_check(ctx, f, lam, lam, shifted) is False
    with pytest.raises(NotSurjective):
        agw_commute_check(ctx, f, lam, lam, shifted, S=[ctx.element(0)])
    with pytest.raises(BadParams):
        agw_commute_check(ctx, f, lam, SparsePoly.from_text(ctx, "x"),
                          shifted)
