"""Family constructors against brute-force ground truth.

Every instance built here is cross-checked two ways: the bound criterion
verdict, and an independent exhaustive order computation on the materialized
map.  Frozen parameter lists (congruence solutions, exponent values) were
derived once by the independent scans coded inline in this file.
"""
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ncyclepp.families as families
import ncyclepp.polyperm as polyperm
from ncyclepp.criteria import RsParams
from ncyclepp.errors import (
    BadParams, CapExceeded, DegenerateH, HValueNotRootOfUnity, InvalidSpec,
    KernelViolation,
)
from ncyclepp.families import (
    FamilyInstance, LambdaSpec, build_additive, build_jieguo, build_rs_2to3m,
    build_shift, build_trace_theta, build_xh_lambda, build_xq_h_alpha,
    lambda_map, lambda_poly, lambda_spec,
    rs_instance, search_k_2to3m, solve_jieguo_congruences,
)
from ncyclepp.oracle import cross_check
from ncyclepp.polyperm import (
    POLY_TERM_CAP, SparsePoly, as_vector_fn, cycle_report_for_fn,
    perm_from_images,
)

from conftest import field


def oracle_order(inst: FamilyInstance):
    """(bijective, exact order) by direct enumeration, no library criteria."""
    rep = cycle_report_for_fn(inst.ctx, inst.fn)
    return rep.bijective, rep.order


def check_instance(inst: FamilyInstance, expect_order):
    """Full agreement bundle: criterion verdict, oracle order, poly == fn."""
    bij, order = oracle_order(inst)
    assert bij
    assert order == expect_order
    assert inst.criterion().holds
    if inst.poly is not None:
        xs = inst.ctx.varange()
        assert np.array_equal(inst.poly.eval_vec(xs), inst.fn(xs))
    assert inst.degenerate == (order == 1)


# ---------------------------------------------------------------------------
# the subfield-collapsing inner maps
# ---------------------------------------------------------------------------

def lambda_ref(ctx, spec, x):
    """lam(x) as a scalar sum of pow_idx over lam's exponents: n*q^j for
    lambda1 (the trace of x^n), sum of q^i over each n-subset for lambda2."""
    q = ctx.p ** spec.sub_degree
    if spec.variant == "lambda1":
        exps = [spec.n * q ** j for j in range(spec.m)]
    else:
        exps = [sum(q ** i for i in c) for c in combinations(range(spec.m), spec.n)]
    acc = 0
    for e in exps:
        acc = ctx.add_idx(acc, ctx.pow_idx(x, e))
    return acc


class TestLambda:
    def test_trace_variant_matches_direct_formula(self):
        ctx = field(5, 3)
        spec = lambda_spec(ctx, "lambda1", 2, 1)
        po = lambda_poly(spec, ctx)
        for i in range(0, 125, 7):
            direct = ctx.trace_idx(ctx.pow_idx(i, 2), 1)
            assert lambda_ref(ctx, spec, i) == direct
            assert po.eval_idx(i) == direct

    def test_combination_variant_matches_inline_enumeration(self):
        # q = 5, m = 3, n = 2: sum over the three exponent pairs
        ctx = field(5, 3)
        spec = lambda_spec(ctx, "lambda2", 2, 1)
        exps = [5 ** 0 + 5 ** 1, 5 ** 0 + 5 ** 2, 5 ** 1 + 5 ** 2]
        for i in range(0, 125, 11):
            direct = 0
            for e in exps:
                direct = ctx.add_idx(direct, ctx.pow_idx(i, e))
            assert lambda_ref(ctx, spec, i) == direct
        fn = as_vector_fn(ctx, lambda_map(spec, ctx))
        xs = ctx.varange()
        assert np.array_equal(fn(xs), lambda_poly(spec, ctx).eval_vec(xs))

    def test_full_combination_is_the_norm_map(self):
        # n = m leaves the single exponent 1 + q + ... + q^(m-1)
        ctx = field(3, 3)
        spec = lambda_spec(ctx, "lambda2", 3, 1)
        norm_exp = (27 - 1) // (3 - 1)
        for i in range(27):
            assert lambda_ref(ctx, spec, i) == ctx.pow_idx(i, norm_exp)

    def test_image_in_subfield_and_scaling_law(self):
        ctx = field(5, 2)
        sub = set(int(v) for v in ctx.subfield_indices(1))
        for variant, n in (("lambda1", 2), ("lambda2", 2), ("lambda1", 3)):
            spec = lambda_spec(ctx, variant, n, 1)
            fn = as_vector_fn(ctx, lambda_map(spec, ctx))
            vals = fn(ctx.varange())
            assert set(int(v) for v in vals) <= sub
            for a in sorted(sub):
                for x in range(0, 25, 3):
                    lhs = int(vals[ctx.mul_idx(a, x)])
                    rhs = ctx.mul_idx(ctx.pow_idx(a, n), lambda_ref(ctx, spec, x))
                    assert lhs == rhs

    def test_spec_validation(self):
        ctx = field(5, 2)
        with pytest.raises(InvalidSpec):
            lambda_spec(ctx, "lambda3", 2, 1)
        with pytest.raises(InvalidSpec):
            lambda_spec(ctx, "lambda2", 3, 1)   # n > m = 2
        with pytest.raises(InvalidSpec):
            lambda_spec(ctx, "lambda1", 0, 1)
        with pytest.raises(InvalidSpec):
            lambda_spec(ctx, "lambda1", 2, 3)   # 3 does not divide 2
        with pytest.raises(InvalidSpec):
            lambda_map(LambdaSpec("lambda1", 2, 1, 7), ctx)

    def test_lambda2_past_the_term_cap_is_an_evaluator(self):
        # C(15, 7) = 6,435 terms: no polynomial, a sum of powers instead
        ctx = field(2, 15)
        spec = lambda_spec(ctx, "lambda2", 7, 1)
        lam = lambda_map(spec, ctx)
        assert comb(15, 7) > POLY_TERM_CAP and not isinstance(lam, SparsePoly)
        xs = np.array([0, 1, 2, 3, ctx.generator.i, ctx.order - 1]
                      + list(range(1001, ctx.order, 1777)))
        assert [int(v) for v in lam(xs)] == \
            [lambda_ref(ctx, spec, int(x)) for x in xs]


# ---------------------------------------------------------------------------
# x * h(lambda(x))
# ---------------------------------------------------------------------------

class TestXhLambda:
    @pytest.mark.parametrize("p,n2,lam", [
        (5, 2, "lambda1"), (5, 2, "lambda2"),
        (7, 2, "lambda1"), (7, 2, "lambda2"),
    ])
    def test_involution_variant(self, p, n2, lam):
        inst = build_xh_lambda(field(p, n2), "involution_cor",
                               sub_degree=1, lam=lam)
        check_instance(inst, 2)
        assert inst.claimed_n == 2

    def test_custom_h_quartic_involution(self):
        # h = 1 + y + 3y^3 + 4y^4 takes only the values 1 and -1 on GF(5)
        for m in (2, 3):
            ctx = field(5, m)
            inst = build_xh_lambda(ctx, "custom_h", sub_degree=1,
                                   lam="lambda2", n=2,
                                   h="1 + x + 3*x^3 + 4*x^4")
            check_instance(inst, 2)
        sub = field(5, 2).subfield_indices(1)
        hp = SparsePoly.from_text(field(5, 2), "1 + x + 3*x^3 + 4*x^4")
        vals = {int(i): int(v) for i, v in zip(sub, hp.eval_vec(sub))}
        assert vals == {0: 1, 1: 4, 2: 1, 3: 4, 4: 1}

    def test_theta_variant_gives_exact_order_n(self):
        ctx = field(7, 2)
        for n in (2, 3, 6):
            th = ctx.pow_idx(ctx.generator.i, (49 - 1) // n)
            inst = build_xh_lambda(ctx, "theta_cor", sub_degree=1,
                                   n=n, theta=th)
            bij, order = oracle_order(inst)
            assert bij and order == n
            assert inst.criterion().holds

    def test_theta_must_be_primitive_and_in_subfield(self):
        ctx = field(7, 2)
        with pytest.raises(BadParams):
            build_xh_lambda(ctx, "theta_cor", sub_degree=1, n=3, theta=1)
        outside = ctx.generator.i
        with pytest.raises(BadParams):
            build_xh_lambda(ctx, "theta_cor", sub_degree=1, n=3, theta=outside)
        with pytest.raises(BadParams):
            build_xh_lambda(ctx, "theta_cor", sub_degree=1, n=5, theta=2)

    def test_abc_variant_accepts_only_collapsing_squares(self):
        ctx = field(5, 2)
        inst = build_xh_lambda(ctx, "abc_cor", sub_degree=1, a=1, b=3, c=1)
        check_instance(inst, 2)
        # a=2, b=1 passes a^2+b^2 = 0 mod 5 but h(y)^2 = 2ab = 4 for y != 0
        with pytest.raises(BadParams):
            build_xh_lambda(ctx, "abc_cor", sub_degree=1, a=2, b=1, c=1)

    def test_bad_h_value_carries_a_witness(self):
        ctx = field(5, 2)
        hp = SparsePoly.from_text(ctx, "1 + 2*x + x^3 + 4*x^4")
        with pytest.raises(HValueNotRootOfUnity) as info:
            build_xh_lambda(ctx, "custom_h", sub_degree=1, n=2, h=hp)
        w = info.value.witness
        assert ctx.pow_idx(hp.eval_idx(w.i), 2) != 1

    def test_h_coefficients_must_sit_in_subfield(self):
        ctx = field(5, 2)
        hp = SparsePoly.make(ctx, [(ctx.generator.i, 0)])
        with pytest.raises(BadParams):
            build_xh_lambda(ctx, "custom_h", sub_degree=1, n=2, h=hp)

    def test_constant_one_twist_is_flagged_degenerate(self):
        inst = build_xh_lambda(field(5, 2), "custom_h", sub_degree=1,
                               n=3, h="1")
        assert inst.degenerate
        bij, order = oracle_order(inst)
        assert bij and order == 1
        assert inst.criterion().holds

    def test_serialization_shape(self):
        inst = build_xh_lambda(field(5, 2), "involution_cor", sub_degree=1)
        doc = inst.to_json()
        assert set(doc) >= {"family", "params", "field", "poly", "claimed_n"}
        assert doc["family"] == "xh_lambda"
        assert doc["claimed_n"] == 2
        assert doc["params"]["variant"] == "involution_cor"


# ---------------------------------------------------------------------------
# phi(x) + g(psi(x))
# ---------------------------------------------------------------------------

class TestAdditive:
    def test_trace_variant_is_triple_cycle_in_char_three(self):
        inst = build_additive(field(3, 2), "trace_g1", sub_degree=1)
        check_instance(inst, 3)
        assert inst.poly.to_text() == "1*x^1+2*x^2+2*x^4+2*x^6"
        assert inst.claimed_n == 3

    def test_trace_variant_same_shape_collapses_in_char_two(self):
        # the default H = y^2 makes the trace vanish identically when p = 2
        for p, n2, d in ((2, 2, 1), (2, 6, 3)):
            inst = build_additive(field(p, n2), "trace_g1", sub_degree=d)
            assert inst.degenerate
            bij, order = oracle_order(inst)
            assert bij and order == 1

    def test_char_two_nondegenerate_representative_is_a_two_cycle(self):
        ctx = field(2, 2)
        inst = build_additive(ctx, "trace_g1", sub_degree=1,
                              H=f"{ctx.generator.i}*x")
        assert not inst.degenerate
        check_instance(inst, 2)

    def test_power_variant_matches_trace_variant_map(self):
        ctx = field(3, 2)
        inst = build_additive(ctx, "power_g2", sub_degree=1, s=4)
        check_instance(inst, 3)

    def test_power_variant_past_the_term_cap(self):
        # H^4095 passes the term cap, so g is an evaluator, poly is None,
        # and psi(g(x)) = 0 is checked on the whole field
        inst = build_additive(field(2, 12), "power_g2", sub_degree=1,
                              H="x+x^3+x^5", s=4095)
        assert inst.poly is None
        assert cross_check(inst).status == "AGREE"

    def test_power_variant_validates_s(self):
        ctx = field(3, 2)
        with pytest.raises(BadParams):
            build_additive(ctx, "power_g2", sub_degree=1, s=3)
        with pytest.raises(BadParams):
            build_additive(ctx, "power_g2", sub_degree=1)

    def test_psi_must_be_q_polynomial_vanishing_on_subfield(self):
        ctx = field(3, 2)
        with pytest.raises(BadParams):
            build_additive(ctx, "trace_g1", sub_degree=1, psi="x^2")
        with pytest.raises(BadParams):
            build_additive(ctx, "trace_g1", sub_degree=1, psi="x^3")

    def test_scaled_trace_argument(self):
        ctx = field(3, 2)
        roots = [i for i in range(1, 9)
                 if ctx.add_idx(i, ctx.frob_idx(i, 1, 1)) == 0]
        assert len(roots) == 2
        for c in roots:
            inst = build_additive(ctx, "c_trace_q2", sub_degree=1, c=c, s=1)
            check_instance(inst, 3)
        # in characteristic 5 the same shape cycles with length 5, not 3
        ctx25 = field(5, 2)
        c25 = next(i for i in range(1, 25)
                   if ctx25.add_idx(i, ctx25.frob_idx(i, 1, 1)) == 0)
        inst = build_additive(ctx25, "c_trace_q2", sub_degree=1, c=c25, s=1)
        check_instance(inst, 5)
        bij, order = oracle_order(inst)
        assert order % 3 != 0

    def test_scaled_trace_validates_c(self):
        ctx = field(3, 2)
        with pytest.raises(BadParams):
            build_additive(ctx, "c_trace_q2", sub_degree=1, c=0)
        with pytest.raises(BadParams):
            build_additive(ctx, "c_trace_q2", sub_degree=1, c=1)

    @given(st.integers(min_value=0, max_value=12), st.booleans())
    def test_scaled_trace_property(self, s, which):
        ctx = field(3, 2)
        roots = [i for i in range(1, 9)
                 if ctx.add_idx(i, ctx.frob_idx(i, 1, 1)) == 0]
        c = roots[int(which)]
        inst = build_additive(ctx, "c_trace_q2", sub_degree=1, c=c, s=s)
        bij, order = oracle_order(inst)
        assert bij
        assert order in (1, 3)
        assert inst.criterion().holds

    def test_frobenius_plus_kernel_polynomial(self):
        ctx = field(2, 6)
        kernel = [i for i in range(1, 64) if ctx.trace_idx(i, 2) == 0]
        g = SparsePoly.make(ctx, [(kernel[0], 1), (kernel[1], 2)])
        inst = build_additive(ctx, "xq_g_trace", sub_degree=2, g=g)
        check_instance(inst, 3)
        assert inst.claimed_n == 3

    def test_frobenius_variant_rejects_nonkernel_coefficients(self):
        ctx = field(2, 6)
        outside = next(i for i in range(1, 64) if ctx.trace_idx(i, 2) != 0)
        with pytest.raises(KernelViolation) as info:
            build_additive(ctx, "xq_g_trace", sub_degree=2,
                           g=SparsePoly.make(ctx, [(outside, 1)]))
        assert info.value.witness.i == outside

    def test_frobenius_variant_needs_cubic_tower(self):
        with pytest.raises(BadParams):
            build_additive(field(2, 6), "xq_g_trace", sub_degree=3, g="x")


# ---------------------------------------------------------------------------
# g(x^(q^i) - x + delta) + x
# ---------------------------------------------------------------------------

class TestShift:
    def test_quartic_power_all_deltas(self):
        # x + (x^3 - x + delta)^4 over GF(9): length 3 for every delta
        ctx = field(3, 2)
        for d in range(9):
            inst = build_shift(ctx, "power_g2", i=1, delta=d,
                               sub_degree=1, s=4)
            check_instance(inst, 3)

    def test_trace_variant_all_deltas(self):
        ctx = field(3, 2)
        for d in range(9):
            inst = build_shift(ctx, "trace_g1", i=1, delta=d, sub_degree=1)
            check_instance(inst, 3)

    def test_power_variant_past_the_term_cap(self):
        inst = build_shift(field(3, 6), "power_g2", i=1, delta=1,
                           sub_degree=1, H="x+x^3+2*x^5", s=364)
        assert inst.poly is None
        assert cross_check(inst).status == "AGREE"

    def test_char_two_analog_is_a_two_cycle(self):
        # s = 1 + q works over GF(4) as well, but the cycle length is p = 2
        ctx = field(2, 2)
        inst = build_shift(ctx, "power_g2", i=1, delta=ctx.generator.i,
                           sub_degree=1, s=3)
        check_instance(inst, 2)

    def test_degenerate_h_rejected(self):
        ctx = field(3, 2)
        with pytest.raises(DegenerateH):
            build_shift(ctx, "power_g2", i=1, delta=0, sub_degree=1,
                        s=4, H="0")
        with pytest.raises(DegenerateH):
            build_shift(ctx, "trace_g1", i=1, delta=0, sub_degree=1, H="0")

    def test_parameter_validation(self):
        ctx = field(3, 2)
        with pytest.raises(BadParams):
            build_shift(ctx, "power_g2", i=0, delta=0, sub_degree=1, s=4)
        with pytest.raises(BadParams):
            build_shift(ctx, "power_g2", i=2, delta=0, sub_degree=1, s=4)
        with pytest.raises(BadParams):
            build_shift(ctx, "power_g2", i=1, delta=0, sub_degree=1, s=3)
        with pytest.raises(BadParams):
            build_shift(field(2, 6), "trace_g1", i=4, delta=0, sub_degree=1)

    def test_bad_parameters_refused_before_the_shifted_set(self, monkeypatch):
        # a bad i or s is refused with its own message before any work on
        # the shifted set S = {x^(q^i) - x + delta}
        calls = []
        real = families.shift_domain
        monkeypatch.setattr(families, "shift_domain",
                            lambda *a: calls.append(a) or real(*a))
        cases = [
            (field(3, 2), "power_g2", dict(i=0, s=4), r"need 1 <= i <= 1"),
            (field(3, 2), "power_g2", dict(i=1, s=0), "power variant needs a positive s"),
            (field(3, 2), "power_g2", dict(i=1, s=3), r"s\(q\^i-1\) = 6 != 0 mod 8"),
            (field(2, 6), "trace_g1", dict(i=4), r"trace target GF\(q\^4\) needs 4 \| 6"),
        ]
        for ctx, variant, kw, message in cases:
            with pytest.raises(BadParams, match=message):
                build_shift(ctx, variant, delta=1, sub_degree=1, **kw)
        assert calls == []
        build_shift(field(3, 2), "power_g2", i=1, delta=1, sub_degree=1, s=4)
        assert len(calls) == 1

    def test_geometric_exponent_matches_power_rule(self):
        # s = 1 + q^i + ... + q^(m-i) satisfies s(q^i - 1) = q^m - 1
        ctx = field(2, 6)
        q, m, i = 2, 6, 2
        s = sum(q ** (i * j) for j in range(m // i))
        inst = build_shift(ctx, "power_g2", i=i, delta="g^5",
                           sub_degree=1, s=s)
        check_instance(inst, 2)


# ---------------------------------------------------------------------------
# x^r * h(x^s) on root-of-unity cosets
# ---------------------------------------------------------------------------

class TestRsFamilies:
    @pytest.mark.parametrize("n,r,s", [(9, 1, 73), (12, 1, 63), (6, 4, 3)])
    def test_expanded_map_is_the_shape(self, n, r, s):
        # x^r * h(x^s) evaluated factor by factor, h with a constant term
        ctx = field(2, n)
        h = SparsePoly.make(ctx, [(1, 0), (5, 2), (ctx.order - 1, 6)])
        inst = rs_instance(ctx, h, RsParams(r, s), family="test", params={},
                           map_form="")
        xs = ctx.varange()
        want = ctx.vmul(ctx.vpow(xs, r), h.eval_vec(ctx.vpow(xs, s)))
        assert np.array_equal(inst.fn(xs), want)

    def test_search_k_frozen_lists(self):
        assert search_k_2to3m(64) == [45, 108, 171, 234, 297, 360, 423]
        assert search_k_2to3m(8) == [3, 10, 17, 24, 31, 38, 45]
        with pytest.raises(BadParams):
            search_k_2to3m(16)

    def test_search_k_equals_the_scan(self):
        for e in range(3, 16, 3):
            q = 2 ** e
            assert search_k_2to3m(q) == [k for k in range(1, 7 * (q - 1) + 1)
                                         if 7 * k % (q - 1) == 0 and k % 7 == 3]

    def test_every_search_hit_feeds_the_builder(self):
        ctx = field(2, 9)
        for k in search_k_2to3m(8):
            inst = build_rs_2to3m(8, k, ctx=ctx)
            bij, order = oracle_order(inst)
            assert bij
            assert order in (1, 3)
            assert inst.criterion().holds

    def test_small_trinomial_twist(self):
        inst = build_rs_2to3m(8, 3, ctx=field(2, 9))
        check_instance(inst, 3)
        exps = sorted(e for _, e in inst.poly.terms)
        # inner exponents k*M and 2k*M with M = 73, shifted by the outer x
        assert exps == [1, 3 * 73 + 1, 2 * 3 * 73 + 1]

    def test_trinomial_twist_validation(self):
        with pytest.raises(BadParams):
            build_rs_2to3m(64, 44)
        with pytest.raises(BadParams):
            build_rs_2to3m(16, 45)
        with pytest.raises(BadParams):
            build_rs_2to3m(8, 4)

    def test_congruence_solver_frozen_pairs(self):
        pairs = solve_jieguo_congruences(64)
        assert pairs == ([(0, 0)] + [(25, 5 * j) for j in range(13)]
                         + [(35, 35)])
        # independent recomputation of all four congruences mod q+1
        for t, m in pairs:
            assert (-6 * t + 12 * t ** 2 - 8 * t ** 3) % 65 == 0
            assert (-3 * m + 6 * m * t - 4 * m * t ** 2) % 65 == 0
            assert (-m - m * t + t + t ** 2) % 65 == 0
            assert (13 * m - 13 * t) % 65 == 0
        with pytest.raises(BadParams):
            solve_jieguo_congruences(8)

    def test_congruence_solver_refuses_q_past_the_cap(self):
        # the scan takes up to (q + 1)^2 steps; the shape of q is checked
        # first (the default cap is tested on the command line, in a child)
        with pytest.raises(CapExceeded):
            solve_jieguo_congruences(2 ** 18, cap=2 ** 12)
        with pytest.raises(BadParams):
            solve_jieguo_congruences(2 ** 40)
        assert solve_jieguo_congruences(64, cap=64) == solve_jieguo_congruences(64)

    def test_congruence_trinomial_worked_instance(self):
        inst = build_jieguo(64, 25, 5, ctx=field(2, 12))
        check_instance(inst, 3)
        assert inst.params["h"] == "1*x^5+1*x^25+1*x^45"

    def test_congruence_trinomial_every_pair(self):
        ctx = field(2, 12)
        for t, m in solve_jieguo_congruences(64):
            inst = build_jieguo(64, t, m, ctx=ctx)
            bij, order = oracle_order(inst)
            assert bij
            assert order in (1, 3)
            assert inst.degenerate == (order == 1)
            assert inst.criterion().holds

    def test_congruence_trinomial_rejects_non_solutions(self):
        with pytest.raises(BadParams):
            build_jieguo(64, 1, 1, ctx=field(2, 12))
        with pytest.raises(BadParams):
            build_jieguo(8, 0, 0)

    def test_frobenius_trinomial_cube_roots(self):
        ctx = field(2, 6)
        good = [ctx.pow_idx(ctx.generator.i, 21),
                ctx.pow_idx(ctx.generator.i, 42)]
        for a in good:
            inst = build_xq_h_alpha(4, a, ctx=ctx)
            check_instance(inst, 3)
        # alpha = 1 zeroes h on part of the coset, killing injectivity;
        # criterion and brute force agree on the failure
        inst = build_xq_h_alpha(4, 1, ctx=ctx)
        bij, order = oracle_order(inst)
        assert not bij
        assert not inst.criterion().holds

    def test_frobenius_trinomial_validation(self):
        ctx = field(2, 6)
        with pytest.raises(BadParams):
            build_xq_h_alpha(8, 1)
        with pytest.raises(BadParams):
            build_xq_h_alpha(4, 0, ctx=ctx)
        notroot = next(i for i in range(2, 64) if ctx.pow_idx(i, 3) != 1)
        with pytest.raises(BadParams):
            build_xq_h_alpha(4, notroot, ctx=ctx)

    def test_trace_twist_with_inverse(self):
        ctx = field(2, 6)
        th = ctx.pow_idx(ctx.generator.i, 21)
        for theta in (th, ctx.mul_idx(th, th)):
            inst = build_trace_theta(4, theta, ctx=ctx)
            check_instance(inst, 3)
            assert inst.inverse_poly is not None
            fp = perm_from_images(ctx, inst.poly.eval_vec(ctx.varange()))
            ip = perm_from_images(ctx, inst.inverse_poly.eval_vec(ctx.varange()))
            assert np.array_equal(fp.images[ip.images], ctx.varange())
        exps = sorted(e for _, e in build_trace_theta(4, th, ctx=ctx).poly.terms)
        assert exps == [1, 10, 34, 40]

    @pytest.mark.parametrize("q", [4, 16, 64])
    def test_trace_twist_certificate_builds_no_table(self, q, monkeypatch):
        ctx = field(2, 3 * (q.bit_length() - 1))
        cube = ctx.pow_idx(ctx.generator.i, (ctx.order - 1) // 3)

        def refuse(*args, **kwargs):
            raise AssertionError("a table of the field was built")

        monkeypatch.setattr(SparsePoly, "eval_vec", refuse)
        monkeypatch.setattr(polyperm, "as_images", refuse)
        monkeypatch.setattr(polyperm, "compose", refuse)
        for theta in (None, cube, ctx.mul_idx(cube, cube)):
            verdict = build_trace_theta(q, theta, ctx=ctx).check()
            assert verdict.holds and verdict.witness is None
            assert verdict.domain_size == ctx.order
            assert verdict.extras == {"squares_to_inverse": True}

    def test_trace_twist_validation(self):
        with pytest.raises(BadParams):
            build_trace_theta(8)
        with pytest.raises(BadParams):
            build_trace_theta(4, 1, ctx=field(2, 6))

    def test_serialization_includes_inverse(self):
        doc = build_trace_theta(4, ctx=field(2, 6)).to_json()
        assert "inverse_poly" in doc
        assert doc["claimed_n"] == 3
