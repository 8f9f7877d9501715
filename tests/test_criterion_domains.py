"""The subfield-domain criteria stay on their domains.

With SparsePoly parts, the x*h(lambda(x)), additive and shift criteria and
their builders decide every hypothesis on coefficients and GF(p)-matrices,
so ctx.varange and SparsePoly.eval_vec over the whole field never run inside
them.  (On fields of at most CHUNK_POINTS points the evaluator still keeps
each polynomial's image table; past that it keeps no q-sized array.)
On the fuzz fields GF(3^4), GF(5^2) and GF(7^2), where lambda's image is
taken from every point, _subfield_image is the one caller of as_images, and
no ctx.varange, require_perm or perm_from_images runs, failed hypotheses
included.  A failed commutation takes its witness from the matrices, and it must
be the first point where brute force sees the two maps disagree.  Their
orbit sums are folded by doubling, which must give the old n-step loop's
values for every n, and a claimed length like 10^40 must not hang the
command line.
"""
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncyclepp.criteria as criteria_mod
import ncyclepp.polyperm as polyperm_mod
from ncyclepp.criteria import (
    ShiftParams, additive_criterion, shift_criterion, xh_lambda_criterion,
)
from ncyclepp.errors import (
    HypothesisViolated, NcycleError, NotPermutation, PrereqNotNcycle,
)
from ncyclepp.families import (
    build_additive, build_shift, build_xh_lambda, lambda_poly, lambda_spec,
)
from ncyclepp.field import FieldCtx
from ncyclepp.polyperm import SparsePoly

from conftest import field

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def no_whole_field(monkeypatch):
    """Make ctx.varange, and eval_vec on as many points as the field,
    raise."""
    def varange(self):
        raise AssertionError(f"whole-field array over {self}")

    plain = SparsePoly.eval_vec

    def eval_vec(self, xs):
        if np.asarray(xs).size >= self.ctx.order:
            raise AssertionError(f"whole-field evaluation over {self.ctx}")
        return plain(self, xs)

    monkeypatch.setattr(FieldCtx, "varange", varange)
    monkeypatch.setattr(SparsePoly, "eval_vec", eval_vec)


@pytest.fixture
def no_field_scan(monkeypatch):
    """Make ctx.varange, require_perm and perm_from_images raise, and
    as_images too unless _subfield_image calls it."""
    def refuse(*args, **kwargs):
        raise AssertionError("a whole-field array or permutation check ran")

    plain = polyperm_mod.as_images

    def as_images(ctx, fn):
        caller = sys._getframe(1).f_code.co_name
        assert caller == "_subfield_image", f"as_images called from {caller}"
        return plain(ctx, fn)

    monkeypatch.setattr(FieldCtx, "varange", refuse)
    for module in (polyperm_mod, criteria_mod):
        monkeypatch.setattr(module, "require_perm", refuse)
        monkeypatch.setattr(module, "perm_from_images", refuse)
    monkeypatch.setattr(polyperm_mod, "as_images", refuse)
    monkeypatch.setattr(criteria_mod, "as_images", as_images)


@pytest.mark.parametrize("pn", [(3, 4), (5, 2), (7, 2)])
def test_fuzz_fields_take_no_whole_field_path_but_the_lambda_image(pn, no_field_scan):
    # the fuzz fields, where 32*p^d covers the field, so lambda's image is
    # taken from every point; verdicts, failed hypotheses and their
    # witnesses alike
    ctx = field(*pn)
    p, m = ctx.p, ctx.n
    x = SparsePoly.monomial(ctx, 1)
    minus_one = SparsePoly.make(ctx, [(ctx.neg_idx(1), 0)])
    x2 = SparsePoly.monomial(ctx, 2)
    frob = SparsePoly.monomial(ctx, p)
    psi = SparsePoly.make(ctx, [(ctx.neg_idx(1), 1), (1, p)])
    lam = lambda_poly(lambda_spec(ctx, "lambda1", 2, 1), ctx)
    h = SparsePoly.make(ctx, [(1, 0), (ctx.neg_idx(2), p - 1)])
    g_x = SparsePoly.make(ctx, [(ctx.generator.i, 1)])
    outcomes = []
    calls = [
        lambda: xh_lambda_criterion(ctx, h, lam, x2, 2),
        lambda: xh_lambda_criterion(ctx, h, lam.eval_vec, x2, 2),
        lambda: xh_lambda_criterion(ctx, minus_one, x, x2, 2),   # scaling law
        lambda: xh_lambda_criterion(ctx, minus_one, x.eval_vec, x2, 2),
        lambda: xh_lambda_criterion(ctx, x2, x, x, 2),   # y*k(h(y)) = y^3
        lambda: additive_criterion(ctx, x, psi, trace_of_square(ctx), p),
        lambda: additive_criterion(ctx, psi, x, x, p),   # not a bijection
        lambda: additive_criterion(ctx, frob, x, x, 1),   # not a 1-cycle
        lambda: additive_criterion(ctx, frob, g_x, x, m),   # do not commute
        lambda: shift_criterion(ctx, trace_of_square(ctx), ShiftParams(1, 1, 1), p),
        lambda: shift_criterion(ctx, x2, ShiftParams(1, 1, 1), p),
        lambda: build_xh_lambda(ctx, "involution_cor", sub_degree=1, lam="lambda2").check(),
        lambda: build_xh_lambda(ctx, "custom_h", sub_degree=1, h="2", n=2).check(),
        lambda: build_additive(ctx, "trace_g1", sub_degree=1).check(),
        lambda: build_additive(ctx, "power_g2", sub_degree=1,
                               s=(ctx.order - 1) // (p - 1)).check(),
        lambda: build_shift(ctx, "trace_g1", i=1, delta=1, sub_degree=1).check(),
    ]
    for call in calls:
        try:
            outcomes.append(call().holds)
        except NcycleError as exc:
            outcomes.append(type(exc))
    assert outcomes.count(True) >= 5
    assert outcomes[2:5] == [HypothesisViolated] * 3
    assert outcomes[6:9] == [NotPermutation, PrereqNotNcycle, HypothesisViolated]


def trace_of_square(ctx):
    return SparsePoly.make(ctx, [(1, 2 * ctx.p ** k) for k in range(ctx.n)])


@pytest.mark.parametrize("pn", [(3, 7), (5, 5), (7, 4), (3, 9), (5, 6), (7, 5)])
def test_criteria_and_builders_build_no_whole_field_array(pn, no_whole_field):
    ctx = field(*pn)
    p = ctx.p
    x = SparsePoly.monomial(ctx, 1)
    psi = SparsePoly.make(ctx, [(ctx.neg_idx(1), 1), (1, p)])
    lam = lambda_poly(lambda_spec(ctx, "lambda1", 2, 1), ctx)
    h = SparsePoly.make(ctx, [(1, 0), (ctx.neg_idx(2), p - 1)])
    verdicts = [
        xh_lambda_criterion(ctx, h, lam, SparsePoly.monomial(ctx, 2), 2),
        additive_criterion(ctx, x, psi, trace_of_square(ctx), p),
        shift_criterion(ctx, trace_of_square(ctx), ShiftParams(1, 1, 1), p),
        build_xh_lambda(ctx, "involution_cor", sub_degree=1,
                        lam="lambda2").check(),
        build_additive(ctx, "trace_g1", sub_degree=1).check(),
        build_shift(ctx, "trace_g1", i=1, delta=1, sub_degree=1).check(),
    ]
    assert all(v.holds for v in verdicts)
    assert all(v.domain_size < ctx.order for v in verdicts)


@pytest.mark.parametrize("pn", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_commutation_witness_is_the_first_brute_force_disagreement(pn, no_whole_field):
    # phi = x^(p^k) is an n-cycle; psi is a random q-polynomial.  The
    # brute-force reference takes scalar evaluations only
    ctx = field(*pn)
    p, n, q = ctx.p, ctx.n, ctx.order
    rng = random.Random(100 * p + n)
    failed = 0
    for _ in range(60):
        phi = SparsePoly.monomial(ctx, p ** rng.randrange(1, n))
        psi = SparsePoly.make(ctx, [(rng.randrange(1, q), p ** rng.randrange(n))
                                    for _ in range(rng.randrange(1, 4))])
        first = next((x for x in range(q)
                      if phi.eval_idx(psi.eval_idx(x)) != psi.eval_idx(phi.eval_idx(x))),
                     None)
        if first is None:
            continue
        with pytest.raises(HypothesisViolated, match="do not commute") as info:
            additive_criterion(ctx, phi, psi, SparsePoly.monomial(ctx, 1), n)
        assert info.value.witness.i == first
        failed += 1
    assert failed >= 30


def loop_verdict(ctx, h, lam, k, n):
    """The criterion's orbit products by the n-step loop, on the image
    np.unique gives: (holds, witness index, aux product is one)."""
    image = np.unique(lam.eval_vec(ctx.varange()))
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
    return (bad.size == 0, None if bad.size == 0 else int(ys[bad[0]]),
            bool(np.all(aux == 1)))


@pytest.mark.parametrize("pn", [(3, 4), (5, 2), (7, 2)])
def test_xh_orbit_doubling_equals_the_loop(pn):
    ctx = field(*pn)
    p, compared = ctx.p, 0
    sub = ctx.subfield_indices(1)[1:].tolist()   # GF(p)*
    hs = [SparsePoly.make(ctx, [(c, 0)]) for c in sub]
    hs += [SparsePoly.make(ctx, [(1, 0), (c, (p - 1) // d), (ctx.neg_idx(1), p - 1)])
           for c in sub for d in (1, 2) if (p - 1) % d == 0]
    for d in (1, 2):
        lam = lambda_poly(lambda_spec(ctx, "lambda1", d, 1), ctx)
        k = SparsePoly.monomial(ctx, d)
        for h in hs:
            for n in range(1, 13):
                try:
                    v = xh_lambda_criterion(ctx, h, lam, k, n)
                except HypothesisViolated:
                    continue
                holds, witness, aux_one = loop_verdict(ctx, h, lam, k, n)
                assert v.holds == holds
                assert (None if v.witness is None else v.witness.i) == witness
                assert v.extras["aux_scaling_product_one"] == aux_one
                compared += 1
    assert compared > 100


def test_orbit_fold_equals_the_n_step_loop():
    # a fold that advances its position by succ instead of the doubled step
    # differs from the loop at n = 6, 7, 10-15 and 18-20 on these points
    rng = np.random.default_rng(27)
    succ = rng.permutation(50)
    vals = rng.integers(0, 1000, 50)
    for n in range(1, 21):
        want, pos = np.zeros(50, dtype=np.int64), np.arange(50)
        for _ in range(n):
            want += vals[pos]
            pos = succ[pos]
        got = criteria_mod._orbit_fold(succ, vals, n, lambda a, b, m: a + b)
        assert np.array_equal(got, want), n


def test_huge_claimed_cycle_length_returns_at_once():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, "-m", "ncyclepp.cli", "construct", "xh_lambda",
            "--p", "3", "--n", "4", "--variant", "custom_h", "--sub-degree",
            "1", "--h", "2", "--cycle", "10^40", "--verify"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=10)
    assert done.returncode == 0, done.stderr
    assert '"criterion_holds": true' in done.stdout
    assert '"status": "AGREE"' in done.stdout
