import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncyclepp import field as field_mod, walsh
from ncyclepp.errors import BadParams, CapExceeded
from ncyclepp.field import make_field
from ncyclepp.polyperm import (
    PermMap, SparsePoly, as_images, compose, functional_power, identity_perm,
    invert, perm_order, require_perm,
)
from ncyclepp.walsh import (
    WALSH_CAP, WalshValue, walsh_coefficient, walsh_involution_test, within_walsh_cap,
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


def _traced_peak(ctx, f):
    """walsh_involution_test's result on f, an image table or a polynomial's
    text, and its tracemalloc peak."""
    ctx.tr1_table()   # cached field tables, not part of the test's memory
    if isinstance(f, str):
        f = as_images(ctx, SparsePoly.from_text(ctx, f, {"q": ctx.order}))
    f = PermMap(ctx, f)
    tracemalloc.start()
    try:
        result = walsh_involution_test(ctx, f)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    _, peak = _traced_peak(ctx, _involution_variants(q, np.random.default_rng(12))[which])
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


@pytest.mark.parametrize("pn", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                                (2, 8), (3, 4), (5, 2), (7, 2)])
def test_involution_test_on_maps_that_are_not_bijections(pn):
    # random functions, and a forced involution, each with point 0 sent to
    # another point's image: W(u, 0) = q [u = 0] while W(0, u) counts
    # preimages, so no such map has a symmetric spectrum
    ctx = field(*pn)
    q = ctx.order
    rng = np.random.default_rng(q + 1)
    maps = [rng.integers(0, q, q) for _ in range(3)] + [_involution_variants(q, rng)[1]]
    for imgs in maps:
        imgs[0] = imgs[rng.integers(1, q)]
        _, bad = dense_mismatches(ctx, imgs)
        assert len(np.unique(imgs)) < q and bad.size
        flag, witness = walsh_involution_test(ctx, imgs)
        assert not flag and (witness[0].i, witness[1].i) == tuple(bad[0])


@pytest.mark.parametrize("pn", [(2, 12), (3, 7)])
def test_involution_witness_path_holds_one_band(pn):
    # x^2 is not an involution, and its witness lies in the first band of
    # rows, which is compared in full with its transposed rows: the rest of
    # the spectrum is never computed
    ctx = field(*pn)
    (flag, _), peak = _traced_peak(ctx, "x^2")
    assert not flag
    assert peak <= 0.25 * 4 * (ctx.p - 1) * ctx.order ** 2


@pytest.mark.parametrize("pn", [(2, 12), (3, 7)])
def test_involution_pass_path_pool_is_int16(pn):
    # x^(q-2) passes every band; the pool of transposed blocks holds int16
    # coordinates and none of the first band's
    ctx = field(*pn)
    (flag, _), peak = _traced_peak(ctx, "x^(q-2)")
    assert flag
    assert peak <= 0.4 * 4 * (ctx.p - 1) * ctx.order ** 2


@pytest.mark.parametrize("pn", [(2, 9), (2, 10), (3, 6)])
def test_involution_test_over_several_slices_matches_dense_spectrum(pn):
    # the first fields whose bands are transformed in more than one slice of
    # rows (64, 32 and 44 of a band's 128, 128 and 64): flag and witness
    # against the dense spectrum, for bijections and a map that is not one
    ctx = field(*pn)
    q = ctx.order
    rng = np.random.default_rng(q + 2)
    for imgs in _involution_variants(q, rng) + [rng.integers(0, q, q)]:
        _, bad = dense_mismatches(ctx, imgs)
        flag, witness = walsh_involution_test(ctx, imgs)
        assert flag == (bad.size == 0)
        if not flag:
            assert (witness[0].i, witness[1].i) == tuple(bad[0])
    assert not flag   # the last map was not a bijection


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
    _, peak = _traced_peak(ctx, _involution_variants(q, np.random.default_rng(37))[which])
    assert peak <= 1.5 * 4 * (ctx.p - 1) * q * q


@pytest.mark.parametrize("pn,poly", [((2, 12), "x^(q-2)"), ((2, 12), "x^2"),
                                     ((3, 7), "x^(q-2)")])
def test_involution_test_holds_a_fraction_of_the_spectrum(pn, poly):
    # the (p - 1) q^2 spectrum coordinates are never all held at once: each
    # band of rows is compared with blocks that earlier bands left behind
    ctx = field(*pn)
    _, peak = _traced_peak(ctx, poly)
    assert peak <= 0.8 * 4 * (ctx.p - 1) * ctx.order ** 2


@pytest.mark.parametrize("poly,share", [("x^(q-2)", 0.2), ("x^2", 0.1)])
def test_involution_test_holds_one_slice_of_float32_scratch(poly, share):
    # at GF(2^12) the float32 scratch and the gather index span 8 of a band's
    # 128 rows: the pass path holds the int16 pool and band (10.4 MB), the
    # witness path band 0 twice (3.9 MB), against 19.8 and 13.3 MB with
    # band-sized scratch
    ctx = field(2, 12)
    (flag, _), peak = _traced_peak(ctx, poly)
    assert flag == (poly == "x^(q-2)")
    assert peak <= share * 4 * ctx.order ** 2


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


@pytest.mark.parametrize("pn,poly", [((2, 12), "x^(q-2)"), ((2, 12), "x^2"),
                                     ((3, 7), "x^(q-2)"), ((5, 4), "x^(q-2)"),
                                     ((13, 2), "x^(q-2)"), ((131, 1), "x^(q-2)")])
def test_engine_bytes_bound_the_traced_peak(pn, poly):
    # the byte estimate, made from (p, n) alone, bounds both paths, and the
    # pass path, which fills the pool, by less than twice its peak
    ctx = field(*pn)
    (flag, _), peak = _traced_peak(ctx, poly)
    need = walsh._engine_bytes(*pn)
    assert peak <= need
    assert not flag or need <= 2 * peak


def test_every_admitted_field_fits_in_1_2_gib():
    # GF(643) sets the largest estimate, with its q x q factor matrices
    # (1 GiB of float32), so every field within the cap runs on a machine
    # with room for that
    primes = [p for p in range(2, WALSH_CAP + 1) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    admitted = [(p, n) for p in primes for n in range(1, 13)
                if within_walsh_cap(SimpleNamespace(p=p, order=p ** n))]
    assert max(admitted, key=lambda pn: walsh._engine_bytes(*pn)) == (643, 1)
    assert walsh._engine_bytes(643, 1) < 1.2 * 2 ** 30


def test_engine_arrays_are_budgeted_before_the_first(monkeypatch):
    ctx = field(2, 8)
    need, calls = walsh._engine_bytes(2, 8), []

    def fn(xs):
        calls.append(len(xs))
        return xs

    monkeypatch.setattr(field_mod, "_memory_bytes", lambda: need - 1)
    with pytest.raises(CapExceeded, match=r"Walsh test's arrays over GF\(2\^8\) take about"):
        walsh_involution_test(ctx, fn)
    assert calls == []
    monkeypatch.setattr(field_mod, "_memory_bytes", lambda: need)
    assert walsh_involution_test(ctx, fn) == (True, None)
    assert calls == [ctx.order]


def test_memory_error_inside_is_cap_exceeded():
    def fn(xs):
        raise MemoryError

    with pytest.raises(CapExceeded, match=r"Walsh test's arrays over GF\(2\^4\) do not fit"):
        walsh_involution_test(field(2, 4), fn)


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
