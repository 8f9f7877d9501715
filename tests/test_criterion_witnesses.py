"""Witnesses of failed hypotheses against brute force on whole-field arrays.

The x*h(lambda(x)) criterion names a failed scaling law by its first scalar
a and the least x with lambda(a*x) != k(a)*lambda(x); the additive criterion
names a phi that is not a bijection by the least point it misses and the
first two inputs whose image is the least one reached twice.  The
criteria find both by scans that stop at the first hit and from GF(p)
matrices.  Here each message and witness must equal what a reference
computes from lambda's and phi's image tables over the whole field, for
SparsePoly and callable lambda, on fields from GF(2^4) to GF(2^16), odd p
included.
"""
import random

import numpy as np
import pytest

from ncyclepp.criteria import additive_criterion, xh_lambda_criterion
from ncyclepp.errors import HypothesisViolated, NotPermutation
from ncyclepp.polyperm import SparsePoly, poly_frob

from conftest import field

FIELDS = [(2, 4), (2, 8), (2, 12), (2, 16), (3, 4), (3, 6), (5, 3), (7, 2), (3, 9)]


def xh_reference(ctx, h, lam_images, k):
    """The hypothesis the criterion breaks first, as (message, witness
    indices), or None, from lambda's image table."""
    allx = np.arange(ctx.order, dtype=np.int64)
    image = np.unique(lam_images)
    hv = h.eval_vec(image)
    if not np.array_equal(np.sort(ctx.vmul(image, k.eval_vec(hv))), image):
        return "y*k(h(y)) does not permute the lambda image", None
    for a in sorted(set(hv.tolist()) | {1}):
        lhs = lam_images[ctx.vmul(np.int64(a), allx)]
        rhs = ctx.vmul(np.int64(k.eval_idx(a)), lam_images)
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            return "scaling law fails", (a, int(bad[0]))
    return None


def xh_outcome(ctx, h, lam, k):
    try:
        xh_lambda_criterion(ctx, h, lam, k, 2)
    except HypothesisViolated as exc:
        w = exc.witness
        return str(exc), None if w is None else tuple(e.i for e in w)
    return None


def random_lambda(ctx, rng):
    """A few random terms, or their trace to a random subfield, so that
    both the whole-field and the sampled image are taken."""
    q = ctx.order
    lam = SparsePoly.make(ctx, [(rng.randrange(1, q), rng.randrange(1, q))
                                for _ in range(rng.randrange(1, 3))])
    d = rng.choice([d for d in range(1, ctx.n + 1) if ctx.n % d == 0])
    if rng.random() < 0.5:
        terms = [t for j in range(ctx.n // d) for t in poly_frob(lam, d * j).terms]
        lam = SparsePoly.make(ctx, terms)
    return lam


@pytest.mark.parametrize("pn", FIELDS)
def test_scaling_law_witness_equals_brute_force(pn):
    # h is a constant c whose order r divides d, k = x^d: then y*k(h(y)) = y
    # permutes the image, and lambda(c*x) = lambda(x) fails unless r divides
    # every exponent; a random h and k take the other paths too
    ctx = field(*pn)
    q, rng = ctx.order, random.Random(ctx.order)
    failed = 0
    for trial in range(24):
        lam = random_lambda(ctx, rng)
        divs = [r for r in range(2, q) if (q - 1) % r == 0] or [1]
        r = rng.choice(divs)
        if trial % 3 == 2:
            h = SparsePoly.make(ctx, [(rng.randrange(1, q), 0),
                                      (rng.randrange(1, q), rng.randrange(1, q))])
            k = SparsePoly.monomial(ctx, rng.randrange(1, q))
        else:
            c = ctx.pow_idx(ctx.generator.i, (q - 1) // r)
            h = SparsePoly.make(ctx, [(c, 0)])
            k = SparsePoly.monomial(ctx, r * rng.randrange(1, 4))
        images = lam.eval_vec(np.arange(q, dtype=np.int64))
        want = xh_reference(ctx, h, images, k)
        assert xh_outcome(ctx, h, lam, k) == want
        assert xh_outcome(ctx, h, lambda xs, f=lam: f.eval_vec(xs), k) == want
        failed += want is not None and want[0] == "scaling law fails"
    assert failed >= 8


def bijection_reference(ctx, images):
    """perm_from_images's evidence, recomputed: the least point missed, and
    the first two inputs whose image is the least one reached twice."""
    counts = np.bincount(images, minlength=ctx.order)
    dup = int(np.flatnonzero(counts > 1)[0])
    a, b = np.flatnonzero(images == dup)[:2]
    missing = int(np.flatnonzero(counts == 0)[0])
    return f"not a bijection: inputs {a} and {b} collide, {missing} unreached"


@pytest.mark.parametrize("pn", FIELDS)
def test_non_bijective_phi_witness_equals_brute_force(pn):
    # phi = L(x) - (L(t)/t)*x vanishes at t, for a random additive L
    ctx = field(*pn)
    p, n, q = ctx.p, ctx.n, ctx.order
    rng = random.Random(7 * q)
    x = SparsePoly.monomial(ctx, 1)
    for _ in range(8):
        L = SparsePoly.make(ctx, [(rng.randrange(1, q), p ** rng.randrange(n))
                                  for _ in range(rng.randrange(1, 4))])
        t = rng.randrange(1, q)
        slope = ctx.mul_idx(L.eval_idx(t), ctx.inv_idx(t))
        phi = SparsePoly.make(ctx, [*L.terms, (ctx.neg_idx(slope), 1)])
        images = phi.eval_vec(np.arange(q, dtype=np.int64))
        with pytest.raises(NotPermutation) as info:
            additive_criterion(ctx, phi, x, x, rng.randrange(1, 2 * n))
        assert str(info.value) == bijection_reference(ctx, images)
