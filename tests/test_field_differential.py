"""Differential check of the table arithmetic of FieldCtx.

The vector operations run on exp/log tables and on tables built by
GF(p)-linear maps.  Here they are compared with arithmetic that uses no
table: sums and negatives digit by digit, products and powers with the
polynomial routines _cmul and _cpow, traces as sums of Frobenius powers
taken with _cpow.  Every pair is compared in the fields with q <= 256; in
larger fields up to 2^10, 2,000 seeded random pairs are compared, and 200
seeded powers and traces (each costs a chain of _cmul calls).
"""
import random

import numpy as np
import pytest

from conftest import field

SMALL = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
         + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (13, 2), (251, 1)])
MEDIUM = [(2, 9), (2, 10), (3, 6), (5, 4), (31, 2), (1021, 1)]


def digits(ctx, i):
    return [(i // ctx.p ** k) % ctx.p for k in range(ctx.n)]


def index(ctx, ds):
    return sum(d * ctx.p ** k for k, d in enumerate(ds))


def ref_add(ctx, a, b):
    return index(ctx, [(x + y) % ctx.p for x, y in zip(digits(ctx, a), digits(ctx, b))])


def ref_neg(ctx, a):
    return index(ctx, [-x % ctx.p for x in digits(ctx, a)])


def ref_mul(ctx, a, b):
    return index(ctx, ctx._cmul(digits(ctx, a), digits(ctx, b)))


def ref_pow(ctx, a, e):
    return index(ctx, ctx._cpow(digits(ctx, a), e))


def ref_trace(ctx, a, sub_degree):
    acc = t = a
    for _ in range(ctx.n // sub_degree - 1):
        t = ref_pow(ctx, t, ctx.p ** sub_degree)
        acc = ref_add(ctx, acc, t)
    return acc


def exponents(ctx):
    q, p = ctx.order, ctx.p
    return sorted({0, 1, 2, p, q - 2, q - 1, q, 5 * q + 3})


@pytest.mark.parametrize("p,n", SMALL)
def test_all_pairs_match_coordinate_arithmetic(p, n):
    ctx = field(p, n)
    q = ctx.order
    xs = ctx.varange()
    a, b = np.meshgrid(xs, xs, indexing="ij")
    add = np.array([[ref_add(ctx, i, j) for j in range(q)] for i in range(q)])
    mul = np.array([[ref_mul(ctx, i, j) if j >= i else 0 for j in range(q)]
                    for i in range(q)])
    mul = np.triu(mul) + np.triu(mul, 1).T      # products commute
    assert np.array_equal(ctx.vadd(a, b), add)
    assert np.array_equal(ctx.vmul(a, b), mul)
    assert np.array_equal(ctx.vneg(xs), [ref_neg(ctx, i) for i in range(q)])
    assert np.array_equal(ctx.vsub(a, b), ctx.vadd(a, ctx.vneg(b)))
    # a scalar operand broadcast against the whole field, as the families
    # call it, and two scalars
    for c in range(q):
        s = np.int64(c)
        assert np.array_equal(ctx.vadd(s, xs), add[c])
        assert np.array_equal(ctx.vadd(xs, s), add[c])
        assert np.array_equal(ctx.vmul(s, xs), mul[c])
        assert np.array_equal(ctx.vmul(xs, s), mul[c])
        assert int(ctx.vadd(s, np.int64(q - 1))) == add[c, q - 1]
        assert int(ctx.vmul(s, np.int64(q - 1))) == mul[c, q - 1]
        assert int(ctx.vneg(s)) == ref_neg(ctx, c)
    for e in exponents(ctx):
        assert np.array_equal(ctx.vpow(xs, e), [ref_pow(ctx, i, e) for i in range(q)]), e
        assert int(ctx.vpow(np.int64(q - 1), e)) == ref_pow(ctx, q - 1, e)
    for d in range(1, n + 1):
        if n % d == 0:
            want = [ref_trace(ctx, i, d) for i in range(q)]
            assert np.array_equal(ctx.vtrace(xs, d), want), d
            if d == 1:
                assert np.array_equal(ctx.tr1_table(), want)


@pytest.mark.parametrize("p,n", MEDIUM)
def test_random_pairs_match_coordinate_arithmetic(p, n):
    ctx = field(p, n)
    q = ctx.order
    rng = random.Random(1000 * p + n)
    a = [rng.randrange(q) for _ in range(2000)]
    b = [rng.randrange(q) for _ in range(2000)]
    e = [rng.choice([0, 1, q - 1, q, rng.randrange(5 * q)]) for _ in range(200)]
    av, bv = np.array(a), np.array(b)
    assert np.array_equal(ctx.vadd(av, bv), [ref_add(ctx, i, j) for i, j in zip(a, b)])
    assert np.array_equal(ctx.vmul(av, bv), [ref_mul(ctx, i, j) for i, j in zip(a, b)])
    assert np.array_equal(ctx.vneg(av), [ref_neg(ctx, i) for i in a])
    assert [int(ctx.vpow(av[k:k + 1], e[k])[0]) for k in range(200)] == \
        [ref_pow(ctx, i, j) for i, j in zip(a, e)]
    s = np.int64(b[0])
    assert np.array_equal(ctx.vadd(s, av), [ref_add(ctx, b[0], i) for i in a])
    assert np.array_equal(ctx.vmul(s, av), [ref_mul(ctx, b[0], i) for i in a])
    for d in range(1, n + 1):
        if n % d == 0:
            assert np.array_equal(ctx.vtrace(av[:200], d),
                                  [ref_trace(ctx, i, d) for i in a[:200]]), d
    assert np.array_equal(ctx.tr1_table()[av[:200]], ctx.vtrace(av[:200], 1))
