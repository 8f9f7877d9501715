"""The GF(p)-matrix helpers of FieldCtx against brute force.

Random q-polynomials sum_k c_k x^(p^k) are GF(p)-linear maps of the field.
Their matrices (linear_matrix), row reductions (image_basis), spans,
powers (matpow) and products must agree with evaluating the maps on every
point: the image set and its size with np.unique, M^n = I with is_ncycle,
and commuting matrices with composed evaluation.
"""
import random

import numpy as np
import pytest

from ncyclepp.polyperm import SparsePoly, is_ncycle, perm_from_images, PermMap

from conftest import field

FIELDS = [(2, 6), (3, 5), (5, 3), (7, 2)]


def q_poly(ctx, rng, terms):
    """Random additive polynomial; coefficients from GF(p) with probability
    1/2, so that some pairs commute."""
    top = ctx.p if rng.random() < 0.5 else ctx.order
    return SparsePoly.make(ctx, [(rng.randrange(top), ctx.p ** rng.randrange(ctx.n))
                                 for _ in range(terms)])


def polys(p, n, count=40):
    ctx = field(p, n)
    rng = random.Random(p * 100 + n)
    return ctx, [q_poly(ctx, rng, rng.randrange(1, 4)) for _ in range(count)]


@pytest.mark.parametrize("pn", FIELDS)
def test_rank_and_image_match_the_evaluated_map(pn):
    ctx, fs = polys(*pn)
    allx = ctx.varange()
    for f in fs:
        image = np.unique(f.eval_vec(allx))
        basis = ctx.image_basis(ctx.linear_matrix(f.eval_vec))
        assert ctx.p ** len(basis) == image.size
        assert np.array_equal(np.sort(ctx.span(basis)), image)
        assert np.array_equal(ctx.linear_image(f.eval_vec), image)
        bijective = isinstance(perm_from_images(ctx, f.eval_vec(allx)), PermMap)
        assert bijective == (len(basis) == ctx.n)


@pytest.mark.parametrize("pn", FIELDS)
def test_matrix_power_is_identity_iff_ncycle(pn):
    ctx, fs = polys(*pn)
    eye = np.eye(ctx.n, dtype=np.int64)
    frob = [SparsePoly.monomial(ctx, ctx.p ** k) for k in range(ctx.n)]
    checked = 0
    for f in fs + frob:
        pm = perm_from_images(ctx, f.eval_vec(ctx.varange()))
        if not isinstance(pm, PermMap):
            continue
        m = ctx.linear_matrix(f.eval_vec)
        for n in (1, 2, 3, 4, 5, 6, 12, ctx.n, ctx.order - 1, 10 ** 40):
            assert np.array_equal(ctx.matpow(m, n), eye) == is_ncycle(pm, n)
        checked += 1
    assert checked >= ctx.n


@pytest.mark.parametrize("pn", FIELDS)
def test_matrix_products_compose_and_commute_like_the_maps(pn):
    ctx, fs = polys(*pn)
    allx = ctx.varange()
    commuting = 0
    for f, g in zip(fs, fs[1:] + [SparsePoly.monomial(ctx, ctx.p)]):
        mf, mg = ctx.linear_matrix(f.eval_vec), ctx.linear_matrix(g.eval_vec)
        fg = lambda xs: f.eval_vec(g.eval_vec(xs))
        assert np.array_equal(ctx.linear_matrix(fg), mf @ mg % ctx.p)
        same = np.array_equal(fg(allx), g.eval_vec(f.eval_vec(allx)))
        assert same == (not np.any((mf @ mg - mg @ mf) % ctx.p))
        commuting += same
    assert 0 < commuting < len(fs)


def test_span_of_nothing_is_zero():
    assert field(3, 5).span([]).tolist() == [0]
