"""Differential check of the table arithmetic of FieldCtx.

The vector operations run on exp/log tables, which FieldCtx.linear_map
builds from GF(p)-matrices.  Here they are compared with arithmetic that
uses no table: sums and negatives digit by digit, products and powers with
the polynomial routines _cmul and _cpow, traces as sums of Frobenius powers
taken with _cpow.  Every pair is compared in the fields with q <= 256; in
larger fields up to 2^10, 2,000 seeded random pairs are compared, and 200
seeded powers and traces (each costs a chain of _cmul calls).  Odd-p
addition runs on a Zech logarithm table, so it gets its own checks on the
fields of the odd-p benchmark workload (3^11, 5^7, 7^6) and on 257^2 and
1021^2, one digit per chunk: random pairs, cancellation, zero operands,
broadcasting, scalars and the table itself.
The scalar add_idx and neg_idx run on the same tables: they are compared
on every pair of GF(3^2), GF(5^2), GF(7^2) and GF(3^4), and on 20,000
seeded random pairs of each of those five fields.
linear_map itself is compared with matrix products taken digit by digit,
on square, non-square and zero matrices, and make_field is checked to
build its tables without field addition.
"""
import random

import numpy as np
import pytest

from conftest import field
from ncyclepp.field import FieldCtx, make_field

SMALL = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
         + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (13, 2), (251, 1)])
MEDIUM = [(2, 9), (2, 10), (3, 6), (5, 4), (31, 2), (1021, 1)]
# the last two take one digit per chunk of a linear map
ZECH = [(3, 11), (5, 7), (7, 6), (257, 2), (1021, 2)]


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


@pytest.mark.parametrize("p,n", ZECH)
def test_zech_addition_matches_digit_sums(p, n):
    ctx = field(p, n)
    q = ctx.order
    rng = random.Random(1000 * p + n)
    a = [rng.randrange(q) for _ in range(2000)]
    b = [rng.randrange(q) for _ in range(2000)]
    av, bv = np.array(a), np.array(b)
    assert np.array_equal(ctx.vadd(av, bv), [ref_add(ctx, i, j) for i, j in zip(a, b)])
    # a + (-a) = 0, and a zero on either side gives the other operand
    neg = np.array([ref_neg(ctx, i) for i in a])
    assert not ctx.vadd(av, neg).any() and not ctx.vadd(neg, av).any()
    zeros = np.zeros_like(av)
    assert np.array_equal(ctx.vadd(av, zeros), av)
    assert np.array_equal(ctx.vadd(zeros, av), av)
    assert not ctx.vadd(zeros, zeros).any()
    # a column (k, 1) against a row (j,) gives the (k, j) table of sums
    col = np.array(a[:p])[:, None]
    want = [[ref_add(ctx, i, j) for j in b[:50]] for i in a[:p]]
    assert np.array_equal(ctx.vadd(col, bv[:50]), want)
    assert np.array_equal(ctx.vadd(bv[:50], col), want)
    # 0-d np.int64 on either side, against arrays and against each other
    for c in (0, 1, p - 1, a[0], ref_neg(ctx, a[1])):
        s = np.int64(c)
        want = [ref_add(ctx, c, i) for i in a]
        assert np.array_equal(ctx.vadd(s, av), want)
        assert np.array_equal(ctx.vadd(av, s), want)
        for j in (0, a[1], b[2]):
            assert int(ctx.vadd(s, np.int64(j))) == ref_add(ctx, c, j)


@pytest.mark.parametrize("p,n", ZECH + [(3, 2), (13, 2)])
def test_zech_table_is_minus_one_only_at_half_order(p, n):
    ctx = field(p, n)
    q1 = ctx.order - 1
    # 1 + g^k = 0 exactly when g^k = -1, that is k = (q-1)/2
    assert np.flatnonzero(ctx._zech == -1).tolist() == [q1 // 2]
    k = np.arange(0, q1, max(1, q1 // 500))
    want = [ctx._log[ref_add(ctx, 1, int(ctx._exp[i]))] for i in k]
    assert np.array_equal(ctx._zech[k], want)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 4)])
def test_scalar_add_and_neg_match_digit_sums_on_every_pair(p, n):
    ctx = field(p, n)
    q = ctx.order
    for a in range(q):
        assert ctx.neg_idx(a) == ref_neg(ctx, a)
        assert [ctx.add_idx(a, b) for b in range(q)] == [ref_add(ctx, a, b) for b in range(q)]


@pytest.mark.parametrize("p,n", ZECH)
def test_scalar_add_and_neg_match_digit_sums_on_random_pairs(p, n):
    ctx = field(p, n)
    q = ctx.order
    rng = random.Random(7 * p + n)
    for _ in range(20000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert ctx.add_idx(a, b) == ref_add(ctx, a, b), (a, b)
        assert ctx.neg_idx(a) == ref_neg(ctx, a), a
        assert ctx.add_idx(a, ctx.neg_idx(a)) == 0
    assert ctx.add_idx(0, 0) == 0 and ctx.add_idx(b, 0) == ctx.add_idx(0, b) == b


def ref_linear(ctx, m, x):
    """Index of m times the digits of x, summed digit by digit mod p."""
    ds = [x // ctx.p ** j % ctx.p for j in range(m.shape[1])]
    return index(ctx, [sum(int(c) * d for c, d in zip(row, ds)) % ctx.p for row in m])


# two and three chunks of input digits, 11-bit packed digits, and a prime field
LINEAR = [(2, 12), (3, 11), (17, 5), (257, 2), (1021, 2), (1021, 1)]


@pytest.mark.parametrize("p,n", LINEAR)
def test_matrix_evaluators_match_digit_by_digit_products(p, n):
    ctx = field(p, n)
    rng = np.random.default_rng(100 * p + n)
    square = [rng.integers(0, p, (n, n)) for _ in range(3)]
    spans = [rng.integers(0, p, (n, w)) for w in range(1, n)]   # fewer input digits
    low = np.zeros((n, n), dtype=np.int64)   # only the first output digit is nonzero
    low[0] = rng.integers(0, p, n)
    high = rng.integers(0, p, (n, n))   # ... or only the last
    high[:-1] = 0
    for m in square + spans + [low, high, np.zeros((n, n), dtype=np.int64)]:
        top = p ** m.shape[1]
        xs = np.append(rng.integers(0, top, 400), [0, 1, top - 1])
        want = [ref_linear(ctx, m, int(x)) for x in xs]
        got = ctx.linear_map(m)(xs)
        assert got.dtype == np.int64 and got.tolist() == want
        # an int32 slice, as make_field passes its exp table, and a 2-d shape
        assert ctx.linear_map(m)(xs[:400].astype(np.int32)).tolist() == want[:400]
        assert ctx.linear_map(m)(xs[:400].reshape(20, 20)).ravel().tolist() == want[:400]


@pytest.mark.parametrize("p,n", [(2, 16), (3, 11), (1021, 2)])
def test_make_field_builds_its_tables_without_field_addition(monkeypatch, p, n):
    def no_vadd(self, a, b):
        raise AssertionError("make_field added in the field it builds")

    monkeypatch.setattr(FieldCtx, "vadd", no_vadd)
    ctx = make_field(p, n)
    assert np.array_equal(ctx._log[ctx._exp], np.arange(ctx.order - 1))


# Whole fields whose log * e passes 2^31 for exponents near q - 2 (not GF(7^5),
# where q^2 < 2^31), and seeded samples of larger fields, where it passes 2^40
WHOLE = [(2, 16), (3, 10), (7, 5)]
SAMPLED = [(2, 20), (3, 12)]


def _power_exponents(q):
    return [q - 2, q - 3, (q - 1) // 2 + 1, 5 * (q - 1) - 2, 3]


def _vector_ops_match_scalar_ops(ctx, a, b):
    a_list, b_list = a.tolist(), b.tolist()
    for got, op in [(ctx.vmul(a, b), ctx.mul_idx), (ctx.vadd(a, b), ctx.add_idx)]:
        assert got.dtype == np.int64
        assert got.tolist() == [op(x, y) for x, y in zip(a_list, b_list)]
    for e in _power_exponents(ctx.order):
        got = ctx.vpow(a, e)
        assert got.dtype == np.int64
        assert got.tolist() == [ctx.pow_idx(x, e) for x in a_list], e


@pytest.mark.parametrize("p,n", WHOLE)
def test_vector_ops_match_scalar_ops_on_the_whole_field(p, n):
    # each element once on the left and once on the right, zero included
    ctx = field(p, n)
    a = ctx.varange()
    b = np.random.default_rng(ctx.order).permutation(a)
    _vector_ops_match_scalar_ops(ctx, a, b)


@pytest.mark.parametrize("p,n", SAMPLED)
def test_vector_ops_match_scalar_ops_on_seeded_samples(p, n):
    ctx = field(p, n)
    rng = np.random.default_rng(1000 * p + n)
    a, b = rng.integers(0, ctx.order, size=(2, 4000))
    a[:3], b[3:6] = 0, 0
    # the largest logs meet the largest exponents
    b[6:9] = ctx._exp[-3:]
    _vector_ops_match_scalar_ops(ctx, a, b)
    _vector_ops_match_scalar_ops(ctx, b, a)
