import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncyclepp.errors import BadParams, CapExceeded
from ncyclepp.field import make_field
from ncyclepp.polyperm import (
    PermMap, SparsePoly, as_images, compose, functional_power, identity_perm,
    invert, perm_order, require_perm,
)
from ncyclepp.walsh import (
    WalshValue, walsh_coefficient, walsh_involution_test, within_walsh_cap,
)
from conftest import field


def naive_walsh(ctx, images, u, v):
    """Oracle: direct residue counting with scalar arithmetic."""
    counts = [0] * ctx.p
    tr1 = ctx.tr1_table()
    for x in range(ctx.order):
        arg = ctx.add_idx(ctx.mul_idx(u, x), ctx.mul_idx(v, int(images[x])))
        counts[int(tr1[arg])] += 1
    m = min(counts)
    return tuple(c - m for c in counts)


def test_walsh_value_basics():
    w = WalshValue.from_counts(2, [5, 3])
    assert w.counts == (2, 0)
    assert w.signed == 2
    assert w.to_json() == {"counts": [2, 0], "signed": 2}
    w3 = WalshValue.from_counts(3, [4, 4, 1])
    assert w3.counts == (3, 3, 0)
    with pytest.raises(ValueError):
        w3.signed
    assert abs(w3.approx() - (3 + 3 * np.exp(2j * np.pi / 3))) < 1e-9


@pytest.mark.parametrize("pn", [(2, 3), (3, 2), (5, 1)])
def test_walsh_coefficient_matches_oracle(pn):
    ctx = field(*pn)
    f = require_perm(ctx, SparsePoly.from_text(ctx, "x^" + str(ctx.p)))
    for u in range(ctx.order):
        for v in range(ctx.order):
            got = walsh_coefficient(ctx, f, u, v)
            assert got.counts == naive_walsh(ctx, f.images, u, v)


def test_trivial_coefficient_is_field_size():
    ctx = field(2, 4)
    f = identity_perm(ctx)
    w = walsh_coefficient(ctx, f, 0, 0)
    assert w.signed == ctx.order


def test_char2_row_energy():
    # for a permutation the squared coefficients of a fixed v sum to q^2
    ctx = field(2, 4)
    f = require_perm(ctx, SparsePoly.from_text(ctx, "x^14"))
    for v in (1, 5):
        total = sum(walsh_coefficient(ctx, f, u, v).signed ** 2
                    for u in range(ctx.order))
        assert total == ctx.order ** 2


@pytest.mark.parametrize("pn,poly,expect", [
    ((2, 4), "x^14", True),    # x^(q-2) inverts itself
    ((2, 4), "x^2", False),    # squaring has order 4
    ((2, 4), "x + 1", True),   # translation in characteristic 2
    ((2, 4), "x^8", False),    # 8 has order 4 mod 15
    ((3, 2), "2*x", True),     # negation
    ((3, 2), "x + 1", False),  # translation has order 3
    ((3, 2), "x^3", True),     # Frobenius of a degree-2 extension
])
def test_involution_test_structured(pn, poly, expect):
    ctx = field(*pn)
    f = require_perm(ctx, SparsePoly.from_text(ctx, poly))
    truth = compose(f, f) == identity_perm(ctx)
    assert truth == expect
    flag, witness = walsh_involution_test(ctx, f)
    assert flag == expect
    if not flag:
        u, v = witness
        assert walsh_coefficient(ctx, f, u, v) != walsh_coefficient(ctx, f, v, u)


@given(st.sampled_from([(2, 3), (2, 4), (3, 2), (5, 1), (7, 1)]),
       st.integers(0, 2**32 - 1))
def test_involution_test_random_perms(pn, seed):
    ctx = field(*pn)
    rng = np.random.default_rng(seed)
    f = PermMap(ctx, rng.permutation(ctx.order).astype(np.int64))
    truth = compose(f, f) == identity_perm(ctx)
    flag, witness = walsh_involution_test(ctx, f)
    assert flag == truth
    if not flag:
        u, v = witness
        assert walsh_coefficient(ctx, f, u.i, v.i) != walsh_coefficient(ctx, f, v.i, u.i)


@given(st.sampled_from([(2, 4), (3, 2)]), st.integers(0, 2**32 - 1))
def test_involution_test_forced_involutions(pn, seed):
    # conjugates of an order-2 map stay order 2; the test must accept them
    ctx = field(*pn)
    rng = np.random.default_rng(seed)
    imgs = np.arange(ctx.order, dtype=np.int64)
    pairs = rng.permutation(ctx.order)[: 2 * (ctx.order // 4)].reshape(-1, 2)
    for a, b in pairs:
        imgs[[a, b]] = imgs[[b, a]]
    f = PermMap(ctx, imgs)
    assert perm_order(f) in (1, 2)
    flag, witness = walsh_involution_test(ctx, f)
    assert flag


@pytest.mark.parametrize("seed", [0, 1])
def test_involution_test_over_several_row_blocks(seed):
    # GF(2^9) spans several row blocks of the char-2 spectrum: only the
    # first holds the zero row
    ctx = field(2, 9)
    rng = np.random.default_rng(seed)
    imgs = rng.permutation(ctx.order).astype(np.int64)
    swaps = np.empty_like(imgs)   # pairs imgs[2i], imgs[2i+1] swapped
    swaps[imgs[0::2]], swaps[imgs[1::2]] = imgs[1::2], imgs[0::2]
    for f, truth in ((PermMap(ctx, imgs), False), (PermMap(ctx, swaps), True)):
        assert (compose(f, f) == identity_perm(ctx)) == truth
        flag, witness = walsh_involution_test(ctx, f)
        assert flag == truth
        if not flag:
            u, v = witness
            assert walsh_coefficient(ctx, f, u.i, v.i) != walsh_coefficient(ctx, f, v.i, u.i)


def _involution_variants(q, rng):
    """A random permutation, a forced involution, and that involution with
    one 2-cycle and a fixed point merged into a 3-cycle."""
    swaps = np.arange(q, dtype=np.int64)
    pairs = rng.permutation(q)[: 2 * (q // 4)].reshape(-1, 2)
    swaps[pairs[:, 0]], swaps[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    maps = [rng.permutation(q).astype(np.int64), swaps]
    if q >= 4:
        (a, b), c = pairs[-1], np.setdiff1d(np.arange(q), pairs)[0]
        three = swaps.copy()
        three[[a, b, c]] = b, c, a
        maps.append(three)
    return maps


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8])
def test_char2_involution_test_matches_dense_spectrum(n):
    # W(u, v) = sum_x (-1)^(tr(u x) + tr(v F(x))) = (T @ S.T)[u, v], built
    # from the trace table and scalar products with no library Walsh code
    ctx = field(2, n)
    q, tr1 = ctx.order, ctx.tr1_table()
    mul = np.array([[ctx.mul_idx(a, b) for b in range(q)] for a in range(q)])
    T = 1 - 2 * tr1[mul].astype(np.int64)   # T[u, x] = (-1)^tr(u x)
    rng = np.random.default_rng(n)
    maps = [m for _ in range(3) for m in _involution_variants(q, rng)]
    if q >= 4:
        # a 4-cycle 0 -> b -> w -> b+w, with w != 0 orthogonal to every
        # u < q/2 under the trace form: W is symmetric in all rows u < q/2,
        # so the witness comes from the second half of the rows
        w = int(np.flatnonzero((T[: q // 2] == 1).all(axis=0))[1])
        b = 1 if w != 1 else 2
        cycle = np.arange(q)
        cycle[[0, b, w, b ^ w]] = b, w, b ^ w, 0
        maps.append(cycle)
    for imgs in maps:
        W = T @ T[:, imgs].T
        bad = np.argwhere(W != W.T)
        f = PermMap(ctx, imgs)
        flag, witness = walsh_involution_test(ctx, f)
        assert flag == (bad.size == 0) == (compose(f, f) == identity_perm(ctx))
        if not flag:
            assert (witness[0].i, witness[1].i) == tuple(bad[0])
    if q >= 4:   # the last map was the 4-cycle
        assert bad[0][0] >= q // 2


@pytest.mark.parametrize("which", [0, 1])
def test_char2_involution_test_memory_at_cap(which):
    # the spectrum matrix is 4 q^2 bytes; the test may hold little beyond
    # it on the witness path (random permutation) and the pass path alike
    ctx = field(2, 12)
    q = ctx.order
    ctx.tr1_table()   # cached field tables, not part of the test's memory
    f = PermMap(ctx, _involution_variants(q, np.random.default_rng(12))[which])
    tracemalloc.start()
    try:
        walsh_involution_test(ctx, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4 * q * q


@pytest.mark.parametrize("pn", [(3, 1), (3, 4), (3, 5), (3, 6), (5, 1), (5, 2),
                                (5, 3), (7, 1), (7, 2), (7, 3)])
def test_oddp_involution_test_matches_dense_spectrum(pn):
    # W(u, v) = W(v, u) iff the residue counts C[j][u, v] = #{x : tr(u x) +
    # tr(v F(x)) = j} differ from C[j][v, u] by the same amount for every j
    # (the powers of w sum to 0); counted from the trace table and scalar
    # products with no library Walsh code
    ctx = field(*pn)
    p, q, tr1 = ctx.p, ctx.order, ctx.tr1_table()
    mul = np.array([[ctx.mul_idx(a, b) for b in range(q)] for a in range(q)])
    T = tr1[mul]   # T[u, x] = tr(u x)
    ind = [(T == j).astype(np.float32) for j in range(p)]
    rng = np.random.default_rng(q)
    maps = [m for _ in range(1 if q > 500 else 2) for m in _involution_variants(q, rng)]
    # a 3-cycle 0 -> w -> 2w on the line of a w != 0 with tr(u w) = 0 for
    # every u < q/p: W is symmetric in those rows, so the witness lies past
    # the first row block (and past the first band of 128 rows at 3^6)
    w = int(np.flatnonzero((T[: q // p] == 0).all(axis=0))[1])
    cycle = np.arange(q)
    cycle[[0, w, ctx.add_idx(w, w)]] = w, ctx.add_idx(w, w), 0
    maps.append(cycle)
    for imgs in maps:
        C = np.stack([sum(ind[i] @ (T[:, imgs] == (j - i) % p).T.astype(np.float32)
                          for i in range(p)) for j in range(p)])
        D = C - C.transpose(0, 2, 1)
        bad = np.argwhere((D != D[0]).any(axis=0))
        f = PermMap(ctx, imgs)
        flag, witness = walsh_involution_test(ctx, f)
        assert flag == (bad.size == 0) == (compose(f, f) == identity_perm(ctx))
        if not flag:
            assert (witness[0].i, witness[1].i) == tuple(bad[0])
    assert bad[0][0] >= q // p   # the last map was the 3-cycle


def dense_mismatches(ctx, imgs):
    """Row-major cells (u, v) with W(u, v) != W(v, u), from W = H P H^T with
    H[u, x] = w^tr(u x) split by residue: C[j][u, v] = #{x : tr(u x) +
    tr(v F(x)) = j}, and W is symmetric at (u, v) iff C[j][u, v] - C[j][v, u]
    is the same for every j (the powers of w sum to 0).  Built from the
    trace table and whole-field products, with no library Walsh code."""
    p, q = ctx.p, ctx.order
    xs = np.arange(q)
    T = ctx.tr1_table()[ctx.vmul(xs[:, None], xs[None, :])]   # T[u, x] = tr(u x)
    ind = [(T == j).astype(np.float32) for j in range(p)]
    C = np.stack([sum(ind[i] @ (T[:, imgs] == (j - i) % p).T.astype(np.float32)
                      for i in range(p)) for j in range(p)])
    D = C - C.transpose(0, 2, 1)
    return T, np.argwhere((D != D[0]).any(axis=0))


@pytest.mark.parametrize("pn,cycles,least,earlier", [
    ((2, 10), [[192, 20, 320], [65, 64, 576]], (1, 512), (4, 128)),
    ((3, 6), [[18, 486, 36], [21, 540, 54]], (3, 243), (9, 18)),
])
def test_involution_witness_is_least_over_all_bands(pn, cycles, least, earlier):
    # Two 3-cycles on the elements z_m with tr(u z_m) = <digits(u), digits(m)>
    # mod p.  The least mismatching pair u < v has its v in a later band of
    # rows (128 rows for p = 2, 64 for p = 3) than the v of another pair,
    # so an engine that kept the first pair it found would report the other.
    ctx = field(*pn)
    p, q = ctx.p, ctx.order
    band = 128 // (p - 1)
    digits = np.arange(q)[:, None] // p ** np.arange(ctx.n) % p
    T, _ = dense_mismatches(ctx, np.arange(q))
    z = {m: int(np.flatnonzero((T == (digits @ digits[m] % p)[:, None]).all(axis=0))[0])
         for cyc in cycles for m in cyc}
    imgs = np.arange(q)
    for cyc in cycles:
        imgs[[z[m] for m in cyc]] = [z[m] for m in cyc[1:] + cyc[:1]]
    _, bad = dense_mismatches(ctx, imgs)
    upper = bad[bad[:, 0] < bad[:, 1]]
    first_band = upper[:, 1] // band == upper[:, 1].min() // band
    assert tuple(bad[0]) == least
    assert min(map(tuple, upper[first_band])) == earlier
    assert earlier[1] // band < least[1] // band
    flag, witness = walsh_involution_test(ctx, PermMap(ctx, imgs))
    assert not flag and (witness[0].i, witness[1].i) == least


def test_involution_test_residues_past_127():
    # x + 1 over GF(131): W(u, v) = q w^v [u + v = 0], so the first pair with
    # W(u, v) != W(v, u) is (1, 130); residues above 127 must not wrap
    ctx = field(131, 1)
    f = SparsePoly.from_text(ctx, "x + 1")
    flag, (u, v) = walsh_involution_test(ctx, f)
    assert not flag and (u.i, v.i) == (1, 130)
    assert walsh_coefficient(ctx, f, 1, 2) == walsh_coefficient(ctx, f, 2, 1)


@pytest.mark.parametrize("which", [0, 1])
def test_oddp_involution_test_memory_at_cap(which):
    # the spectrum is p - 1 float32 coordinates per cell, 4 (p - 1) q^2
    # bytes; the test may hold little beyond it on either path
    ctx = field(3, 7)
    q = ctx.order
    ctx.tr1_table()   # cached field tables, not part of the test's memory
    f = PermMap(ctx, _involution_variants(q, np.random.default_rng(37))[which])
    tracemalloc.start()
    try:
        walsh_involution_test(ctx, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4 * (ctx.p - 1) * q * q


@pytest.mark.parametrize("pn,poly", [((2, 12), "x^(q-2)"), ((2, 12), "x^2"),
                                     ((3, 7), "x^(q-2)")])
def test_involution_test_holds_a_fraction_of_the_spectrum(pn, poly):
    # the (p - 1) q^2 spectrum coordinates are never all held at once: each
    # band of rows is compared with blocks that earlier bands left behind
    ctx = field(*pn)
    q = ctx.order
    ctx.tr1_table()   # cached field tables, not part of the test's memory
    f = PermMap(ctx, as_images(ctx, SparsePoly.from_text(ctx, poly, {"q": q})))
    tracemalloc.start()
    try:
        walsh_involution_test(ctx, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8 * 4 * (ctx.p - 1) * q * q


@pytest.mark.parametrize("pn,fits", [((643, 1), True), ((647, 1), False),
                                     ((47, 2), True), ((53, 2), False),
                                     ((2, 12), True), ((2, 13), False)])
def test_spectrum_cap(pn, fits):
    # (p - 1) q^2 spectrum coordinates may not pass 2^28 (1 GiB of float32)
    ctx = make_field(*pn)
    assert within_walsh_cap(ctx) == fits
    if not fits:
        with pytest.raises(CapExceeded):
            walsh_involution_test(ctx, identity_perm(ctx))


def test_cap_enforced():
    ctx = field(2, 13)
    with pytest.raises(CapExceeded):
        walsh_involution_test(ctx, identity_perm(ctx))


@pytest.mark.parametrize("u,v", [(16, 0), (-1, 0), (0, 16), (0, -1)])
def test_coefficient_rejects_out_of_range_arguments(u, v):
    # an index outside [0, q) is bad input, not an IndexError or a
    # silently wrapped log lookup
    ctx = field(2, 4)
    with pytest.raises(BadParams):
        walsh_coefficient(ctx, identity_perm(ctx), u, v)
