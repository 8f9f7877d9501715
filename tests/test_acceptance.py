"""Acceptance gate: one test per headline claim, each with a time budget.

Every test pins the exact construction it exercises (explicit q, t, m, k,
theta, delta values), re-derives expected facts independently where the
claim demands it, and confronts constructed maps with the brute-force
oracle.  Budgets are wall-clock seconds measured around the whole test body.
"""
import json
import math
import subprocess
import sys
from time import perf_counter

import numpy as np

from ncyclepp.criteria import monomial_ncycle
from ncyclepp.families import (
    build_additive, build_jieguo, build_rs_2to3m, build_shift,
    build_trace_theta, build_xh_lambda, build_xq_h_alpha,
    solve_jieguo_congruences,
)
from ncyclepp.field import make_field
from ncyclepp.oracle import exhaustive_verdict, random_family_fuzz
from ncyclepp.polyperm import SparsePoly, cycle_structure, perm_from_images
from ncyclepp.walsh import walsh_involution_test

from conftest import field


class Stopwatch:
    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = perf_counter() - self.t0
        return False


def test_01_congruence_trinomial_cli_verifies_quickly():
    # construct jieguo --q 64 --t 25 --m 5 --verify: exit 0, bijective,
    # order exactly 3, criterion holds, under 5 seconds end to end
    with Stopwatch() as sw:
        proc = subprocess.run(
            [sys.executable, "-m", "ncyclepp.cli", "construct", "jieguo",
             "--q", "64", "--t", "25", "--m", "5", "--verify"],
            capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    rep = doc["cross_check"]
    assert rep["oracle"]["bijective"] is True
    assert rep["oracle"]["order"] == 3
    assert rep["criterion_holds"] is True
    assert sw.elapsed < 5.0


def test_02_big_field_trinomial_is_a_triple_cycle():
    # x * (1 + x^187245 + x^(374490 mod 262143)) over GF(2^18): order
    # divides 3 and the map is not the identity, under 60 s
    with Stopwatch() as sw:
        ctx = make_field(2, 18)
        e1 = 187245
        e2 = 374490 % 262143
        poly = SparsePoly.make(ctx, [(1, 1), (1, e1 + 1), (1, e2 + 1)])
        built = build_rs_2to3m(64, 45, ctx=ctx)
        assert built.poly.terms == poly.terms
        verdict = exhaustive_verdict(ctx, poly, [3])
    assert verdict.bijective
    assert verdict.is_ncycle_at[3]
    assert verdict.order == 3  # divides 3 and not the identity
    assert sw.elapsed < 60.0


def test_03_trace_twist_order_three_with_closed_form_inverse():
    # x + theta*Tr(x^10) over GF(64) for both theta != 1 cube roots:
    # order 3 and f(f(x)) equals the table of x + theta^2*Tr(x^10)
    with Stopwatch() as sw:
        ctx = field(2, 6)
        cube = ctx.pow_idx(ctx.generator.i, 21)
        for theta in (cube, ctx.mul_idx(cube, cube)):
            inst = build_trace_theta(4, theta, ctx=ctx)
            verdict = exhaustive_verdict(ctx, inst.fn, [3])
            assert verdict.order == 3
            theta2 = ctx.mul_idx(theta, theta)
            stated = SparsePoly.make(
                ctx, [(1, 1), (theta2, 10), (theta2, 40), (theta2, 34)])
            fp = perm_from_images(ctx, inst.poly.eval_vec(ctx.varange()))
            assert np.array_equal(fp.images[fp.images],
                                  stated.eval_vec(ctx.varange()))
    assert sw.elapsed < 1.0


def test_04_additive_trace_cycle_length_tracks_characteristic():
    # x + Tr((x^3 - x)^2) over GF(9) has order dividing 3; the matching
    # char-2 shape does not reach order 3: the squared default collapses to
    # the identity outright, and the non-degenerate linear representative
    # over GF(4) is a 2-cycle, failing the triple-cycle oracle
    with Stopwatch() as sw:
        inst = build_additive(field(3, 2), "trace_g1", sub_degree=1)
        verdict = exhaustive_verdict(inst.ctx, inst.fn, [3])
        assert verdict.bijective and 3 % verdict.order == 0
        ctx2 = field(2, 2)
        collapsed = build_additive(ctx2, "trace_g1", sub_degree=1)
        assert collapsed.degenerate
        assert exhaustive_verdict(ctx2, collapsed.fn, [1]).order == 1
        rep = build_additive(ctx2, "trace_g1", sub_degree=1,
                             H=f"{ctx2.generator.i}*x")
        v2 = exhaustive_verdict(ctx2, rep.fn, [2, 3])
        assert v2.order == 2
        assert not v2.is_ncycle_at[3]
        assert v2.is_ncycle_at[2]  # p = 2 divides the order, as claimed
    assert sw.elapsed < 1.0


def test_05_shifted_quartic_triple_cycle_for_every_shift():
    # x + (x^3 - x + delta)^4 over GF(9) is a triple-cycle for all 9 deltas
    with Stopwatch() as sw:
        ctx = field(3, 2)
        for delta in range(9):
            inst = build_shift(ctx, "power_g2", i=1, delta=delta,
                               sub_degree=1, s=4)
            verdict = exhaustive_verdict(ctx, inst.fn, [3])
            assert verdict.is_ncycle_at[3]
            assert verdict.order == 3
    assert sw.elapsed < 1.0


def test_06_involution_family_both_inner_maps_and_custom_quartic():
    # 1 - 2y^(q-1) twists over GF(25) and GF(49) with both inner maps are
    # involutions; so is the quartic h = 1 + y + 3y^3 + 4y^4 with the
    # combination inner map over GF(25) and GF(125)
    with Stopwatch() as sw:
        for p in (5, 7):
            for lam in ("lambda1", "lambda2"):
                inst = build_xh_lambda(field(p, 2), "involution_cor",
                                       sub_degree=1, lam=lam)
                verdict = exhaustive_verdict(inst.ctx, inst.fn, [2])
                assert verdict.is_ncycle_at[2]
        for m in (2, 3):
            inst = build_xh_lambda(field(5, m), "custom_h", sub_degree=1,
                                   lam="lambda2", n=2,
                                   h="1 + x + 3*x^3 + 4*x^4")
            verdict = exhaustive_verdict(inst.ctx, inst.fn, [2])
            assert verdict.is_ncycle_at[2]
    assert sw.elapsed < 1.0


def test_07_cube_root_twist_triple_cycle_for_all_three_scalars():
    # x^4 * h(x^3) with h = 1 + alpha*y^7 + y^14 over GF(64), for all three
    # cube roots alpha of 1 (exponent 7 = (q^2+q+1)/3 inside h)
    with Stopwatch() as sw:
        ctx = field(2, 6)
        cube = ctx.pow_idx(ctx.generator.i, 21)
        results = {}
        for alpha in (1, cube, ctx.mul_idx(cube, cube)):
            inst = build_xq_h_alpha(4, alpha, ctx=ctx)
            verdict = exhaustive_verdict(ctx, inst.fn, [3])
            results[alpha] = bool(verdict.is_ncycle_at[3])
    assert sw.elapsed < 1.0
    assert all(results.values()), results


def test_08_criterion_oracle_equivalence_over_seeded_instances():
    # at least 200 seeded valid+perturbed instances across the six listed
    # fields, every criterion verdict matching brute force, under 120 s
    required = {"GF(2^6)", "GF(2^9)", "GF(2^12)", "GF(3^4)", "GF(5^2)",
                "GF(7^2)"}
    with Stopwatch() as sw:
        comparisons = 0
        touched = set()
        for fam in ("involution_cor", "theta_cor", "abc_cor", "additive",
                    "shift", "rs2to3m", "jieguo", "xq_h_alpha",
                    "trace_theta"):
            summary = random_family_fuzz(fam, 0, 40)
            assert summary.disagreements == ()
            assert summary.failures == ()
            comparisons += summary.comparisons
            touched |= {t.field for t in summary.trials if t.compared}
    assert comparisons >= 200
    assert required <= touched
    assert sw.elapsed < 120.0


def _random_involution(rng, size: int) -> np.ndarray:
    idx = rng.permutation(size)
    imgs = np.empty(size, dtype=np.int64)
    for j in range(0, size - 1, 2):
        a, b = int(idx[j]), int(idx[j + 1])
        imgs[a], imgs[b] = b, a
    if size % 2:
        imgs[int(idx[-1])] = int(idx[-1])
    return imgs


def test_09_spectral_involution_biconditional_on_sampled_permutations():
    # walsh_involution_test agrees with order-divides-2 in both directions
    # over <= 500 sampled permutations on GF(2^4), GF(2^6), GF(3^2)
    with Stopwatch() as sw:
        rng = np.random.default_rng(0)
        sampled = 0
        yes = no = 0
        for p, n in ((2, 4), (2, 6), (3, 2)):
            ctx = field(p, n)
            tables = [np.arange(ctx.order, dtype=np.int64)]
            tables += [np.array(rng.permutation(ctx.order), dtype=np.int64)
                       for _ in range(80)]
            tables += [_random_involution(rng, ctx.order) for _ in range(80)]
            for imgs in tables:
                truth = 2 % cycle_structure(
                    perm_from_images(ctx, imgs)).order == 0
                flag, witness = walsh_involution_test(ctx, imgs)
                assert flag == truth, (p, n, imgs.tolist())
                if truth:
                    yes += 1
                else:
                    no += 1
                sampled += 1
    assert sampled <= 500
    assert yes > 0 and no > 0  # both directions genuinely exercised
    assert sw.elapsed < 60.0


def test_10_congruence_solver_pairs_independently_reverified():
    # the (t, m) solution list for q = 64 contains (25, 5), re-satisfies
    # the full congruence system mod q+1 recomputed inline, and every pair
    # builds either an oracle-confirmed triple-cycle or a flagged identity
    with Stopwatch() as sw:
        pairs = solve_jieguo_congruences(64)
        assert (25, 5) in pairs
        ctx = field(2, 12)
        for t, m in pairs:
            assert (-6 * t + 12 * t * t - 8 * t ** 3) % 65 == 0
            assert (-3 * m + 6 * m * t - 4 * m * t * t) % 65 == 0
            assert (-m - m * t + t + t * t) % 65 == 0
            assert (13 * m - 13 * t) % 65 == 0
            inst = build_jieguo(64, t, m, ctx=ctx)
            verdict = exhaustive_verdict(ctx, inst.fn, [3])
            assert verdict.bijective
            if inst.degenerate:
                assert verdict.order == 1
            else:
                assert verdict.order == 3
    assert sw.elapsed < 10.0


def test_11_power_map_cycle_criterion_sweep():
    # for every exponent d coprime to q-1 over GF(2^6) and GF(7), the
    # monomial criterion matches the exhaustive order of x^d at each
    # n in {1, 2, 3, 6}
    with Stopwatch() as sw:
        for ctx in (field(2, 6), field(7, 1)):
            q1 = ctx.order - 1
            for d in range(1, q1):
                if math.gcd(d, q1) != 1:
                    continue
                verdict = exhaustive_verdict(
                    ctx, SparsePoly.monomial(ctx, d), [1, 2, 3, 6])
                for n in (1, 2, 3, 6):
                    holds = monomial_ncycle(ctx, d, n).holds
                    assert holds == verdict.is_ncycle_at[n], (ctx.p, d, n)
    assert sw.elapsed < 5.0
