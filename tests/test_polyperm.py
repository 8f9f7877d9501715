import itertools
import math
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import ncyclepp.polyperm as polyperm
from ncyclepp.criteria import (
    ShiftParams, additive_criterion, agw_commute_check, shift_criterion,
    xh_lambda_criterion,
)
from ncyclepp.errors import BadParams, CapExceeded, CtxMismatch, NotPermutation
from ncyclepp.field import CHUNK_POINTS, divisors, make_field, table_dtype
from ncyclepp.polyperm import (
    CycleReport, NotBijective, PermMap, SparsePoly, as_images, compose,
    cycle_report_for_fn, cycle_structure, eval_int_expr, functional_power,
    identity_perm, is_ncycle, perm_from_images, poly_add, require_perm,
)
from ncyclepp.walsh import walsh_involution_test
from conftest import field, naive_cycle_type


# --- expression parsing ------------------------------------------------------

def test_eval_int_expr():
    assert eval_int_expr("3+4*2") == 11
    assert eval_int_expr("(q^2+q+1)*45", {"q": 64}) == 187245
    assert eval_int_expr("2**10") == 1024
    assert eval_int_expr("-5 % 7") == 2
    assert eval_int_expr("(q-1)//3", {"q": 64}) == 21
    with pytest.raises(BadParams):
        eval_int_expr("q+1")
    with pytest.raises(BadParams):
        eval_int_expr("__import__('os')")
    with pytest.raises(BadParams):
        eval_int_expr("1 +")


@pytest.mark.parametrize("text", ["2^(2^20)", "(2^30000)^3", "3^40000"])
def test_eval_int_expr_refuses_huge_powers(text):
    # the size of a power is bounded before it is computed
    with pytest.raises(BadParams):
        eval_int_expr(text)
    assert eval_int_expr("2^32768") == 1 << 32768


@pytest.mark.parametrize("text", ["2^-1", "q^(1-2)", "(-2)^-3", "0^-1"])
def test_eval_int_expr_refuses_negative_powers(text):
    # 2^-1 would be the float 0.5, which an exponent would truncate to 0
    with pytest.raises(BadParams, match="negative power"):
        eval_int_expr(text, {"q": 9})
    assert eval_int_expr("(-2)^3") == -8


@pytest.mark.parametrize("text", ["-" * 5000 + "1", "+".join(["1"] * 100_000)])
def test_eval_int_expr_refuses_deep_nesting(text):
    # ast.parse and walk would raise a raw RecursionError
    with pytest.raises(BadParams, match="nested too deeply"):
        eval_int_expr(text)


@pytest.mark.parametrize("text", ["x^True", "x^(False+1)", "3*", "x^2+3*", "g*"])
def test_from_text_refuses_lenient_forms(text):
    # a bool is no exponent, and "c*" has no x to follow it
    with pytest.raises(BadParams):
        SparsePoly.from_text(field(3, 2), text)


# --- sparse polynomial canonical form ---------------------------------------

def test_make_merges_and_drops():
    ctx = field(7, 1)
    p = SparsePoly.make(ctx, [(3, 2), (5, 2), (2, 0), (5, 0)])
    assert p.terms == ((1, 2),)  # 3+5=1 at x^2, 2+5=0 drops the constant
    z = SparsePoly.make(ctx, [(3, 1), (4, 1)])
    assert z.terms == ()
    assert z.to_text() == "0"
    with pytest.raises(BadParams):
        SparsePoly.make(ctx, [(7, 1)])
    with pytest.raises(BadParams):
        SparsePoly.make(ctx, [(1, -1)])


def test_from_text_round_trip():
    ctx = field(7, 1)
    p = SparsePoly.from_text(ctx, "x^3 + 2*x + 6")
    assert p.terms == ((6, 0), (2, 1), (1, 3))
    assert SparsePoly.from_text(ctx, p.to_text()).terms == p.terms
    m = SparsePoly.from_text(ctx, "x^3 - x")
    assert m.terms == ((6, 1), (1, 3))
    ctx8 = field(2, 3)
    g = SparsePoly.from_text(ctx8, "g^2*x^5 + 1")
    assert g.terms == ((1, 0), (ctx8.pow_idx(ctx8.generator.i, 2), 5))
    e = SparsePoly.from_text(ctx8, "x^(q-1)", env={"q": 8})
    assert e.terms == ((1, 7),)
    with pytest.raises(BadParams):
        SparsePoly.from_text(ctx, "x^^2")


def test_eval_against_elementwise_oracle():
    ctx = field(3, 2)
    poly = SparsePoly.from_text(ctx, "2*x^4 + x^2 + 2*x + 1")
    add, mul = ctx.add_idx, ctx.mul_idx
    for a in range(ctx.order):
        # oracle: scalar index arithmetic, repeated multiplication
        want = add(add(mul(2, mul(mul(a, a), mul(a, a))), mul(a, a)),
                   add(mul(2, a), 1))
        assert poly.eval_idx(a) == want
    vec = poly.eval_vec(ctx.varange())
    assert vec.tolist() == [poly.eval_idx(i) for i in range(ctx.order)]


def _orbit_poly(ctx, rng):
    """Random polynomial mixing Frobenius-orbit groups with lone terms:
    each group has terms c*x^(e0*p^k), some with exponents past q; plus
    x^(q-1) and x^(2(q-1)), which are 0 at 0, a constant, x and x^q."""
    p, q = ctx.p, ctx.order
    terms = [(int(rng.integers(1, q)), 0), (1, 1), (int(rng.integers(1, q)), q),
             (1, q - 1), (int(rng.integers(1, q)), 2 * (q - 1))]
    for e0 in rng.integers(2, q - 1, size=3):
        for k in rng.choice(ctx.n, size=min(ctx.n, 3), replace=False):
            e = int(e0) * p ** int(k) + int(rng.integers(0, 2)) * (q - 1)
            terms.append((int(rng.integers(1, q)), e))
    terms.append((int(rng.integers(1, q)), int(rng.integers(2, q))))
    return SparsePoly.make(ctx, terms)


@pytest.mark.parametrize("pn", [(2, 6), (2, 13), (3, 4), (3, 8), (5, 6), (7, 5)])
def test_eval_vec_matches_scalar_eval_on_whole_fields(pn):
    # the oracle and the criteria share eval_vec: check it against the
    # scalar path, with arrays above, at and below the table-size threshold,
    # on one-chunk fields (no tables) and on fields of two chunks
    ctx = field(*pn)
    rng = np.random.default_rng(sum(pn))
    whole = ctx.varange()
    below = np.concatenate(([0], rng.integers(0, ctx.order, ctx._table_size - 2)))
    for poly in [_orbit_poly(ctx, rng) for _ in range(2)] + [
            SparsePoly.from_text(ctx, "x"), SparsePoly.monomial(ctx, ctx.order - 1, 2),
            SparsePoly(ctx, ())]:
        want = np.array([poly.eval_idx(i) for i in range(ctx.order)])
        for xs in (whole, np.tile(whole[::-1], 2), below):
            before = xs.copy()
            got = poly.eval_vec(xs)
            assert got.tolist() == want[xs].tolist()
            assert not np.shares_memory(got, xs)
            assert np.array_equal(xs, before)


def _spy(monkeypatch, ctx, name):
    """Record the operand size of every call of ctx's vector op name."""
    calls, op = [], getattr(ctx, name)
    monkeypatch.setattr(ctx, name, lambda a, b: calls.append(np.size(a)) or op(a, b))
    return calls


def _spy_power(monkeypatch):
    """Record the number of points of every term evaluated from logs."""
    calls, from_logs = [], SparsePoly._from_logs
    monkeypatch.setattr(SparsePoly, "_from_logs", lambda poly, lx, plan, *rest:
                        calls.extend([np.size(lx)] * len(plan)) or from_logs(poly, lx, plan, *rest))
    return calls


@pytest.mark.parametrize("pn,chunks", [((2, 6), 1), ((2, 13), 2), ((3, 8), 2), ((7, 5), 2)])
def test_eval_vec_takes_the_linear_path_only_on_large_arrays(monkeypatch, pn, chunks):
    # Tr(x^(p+1)) is one orbit group: one power from the logs on a whole
    # field of two chunks, n below the table size.  A field of one chunk
    # sums its n terms once into a whole-field table, in log order (q - 1
    # points), and gathers after
    ctx = field(*pn)
    assert -(-ctx.n // ctx._chunk) == chunks
    trace = SparsePoly.make(ctx, [(1, (ctx.p + 1) * ctx.p ** k) for k in range(ctx.n)])
    pows, sums = _spy_power(monkeypatch), _spy(monkeypatch, ctx, "vadd")
    trace.eval_vec(ctx.varange())
    if chunks > 1:
        assert pows.count(ctx.order) == 1
    else:
        assert pows == [ctx.order - 1] * ctx.n and sums == [ctx.order - 1] * (ctx.n - 1)
    pows.clear(), sums.clear()
    trace.eval_vec(ctx.varange()[:ctx._table_size - 1])
    assert len(pows) == (ctx.n if chunks > 1 else 0)
    assert chunks > 1 or sums == []


@pytest.mark.parametrize("pn", [(2, 1), (3, 1), (2, 12), (3, 7), (4093, 1)])
def test_eval_vec_table_matches_scalar_eval(pn):
    # the whole-field table on the edges of the table rule: GF(2), prime
    # fields, 2^12 and 3^7 at the CHUNK_POINTS bound, and GF(4093) below it
    ctx = field(*pn)
    q = ctx.order
    rng = np.random.default_rng(q)
    polys = [_orbit_poly(ctx, rng) if q > 3 else SparsePoly.make(ctx, [(1, 0), (1, 1)]),
             SparsePoly.make(ctx, [(1, q - 1), (q - 1, 3 * (q - 1))]),
             SparsePoly.monomial(ctx, 0, q - 1)]
    for poly in polys:
        want = [poly.eval_idx(i) for i in range(q)]
        assert poly.eval_vec(ctx.varange()).tolist() == want


@pytest.mark.parametrize("xs", [np.array(5), np.array([[0, 1, 2], [3, 4, 5]]),
                                np.arange(9)[::-2], [7, 0], 3, np.zeros(0, dtype=np.int64)])
def test_eval_vec_table_keeps_the_shape_and_shares_no_memory(xs):
    ctx = field(3, 2)
    poly = SparsePoly.from_text(ctx, "2*x^4 + x^2 + 2*x + 1")
    got = poly.eval_vec(xs)
    assert type(got) is np.ndarray and got.shape == np.shape(xs)   # 0-d stays 0-d
    assert got.tolist() == np.vectorize(poly.eval_idx, otypes=[int])(xs).tolist()
    assert not np.shares_memory(got, xs) and not np.shares_memory(got, poly._table)
    got[...] = 0   # the caller owns the result; the table stays as it was
    assert poly.eval_vec(xs).tolist() == np.vectorize(poly.eval_idx, otypes=[int])(xs).tolist()


def test_eval_vec_builds_its_table_once(monkeypatch):
    ctx = field(2, 9)
    poly = SparsePoly.make(ctx, [(3, 0), (1, 5), (7, 40), (1, 511)])
    sums = _spy(monkeypatch, ctx, "vadd")
    first = poly.eval_vec(ctx.varange())
    table = poly._table
    assert sums == [ctx.order - 1] * 3   # four terms, summed once
    second = poly.eval_vec(ctx.mu_indices(7))
    assert sums == [ctx.order - 1] * 3 and poly._table is table
    assert second.tolist() == first[ctx.mu_indices(7)].tolist()


def test_eval_vec_on_a_large_prime_field_caches_nothing_of_its_size(monkeypatch):
    # GF(4099) is one chunk of one digit, but above CHUNK_POINTS: each term
    # is evaluated on the given points, and no q-sized table is kept
    ctx = field(4099, 1)
    poly = SparsePoly.make(ctx, [(5, 0), (2, 3), (1, 4098)])
    pows = _spy_power(monkeypatch)
    xs = np.array([0, 1, 2, 4098, 77])
    for _ in range(2):
        assert poly.eval_vec(xs).tolist() == [poly.eval_idx(int(i)) for i in xs]
    assert pows == [xs.size] * 6   # three terms, on each call
    assert not any(np.size(v) >= ctx.order for v in vars(poly).values()
                   if isinstance(v, np.ndarray))
    assert "_table" not in vars(poly)


def test_poly_mul_refuses_past_the_term_cap_before_multiplying(monkeypatch):
    ctx = field(2, 8)
    f = SparsePoly.make(ctx, [(1, e) for e in range(1, 66)])
    g = SparsePoly.make(ctx, [(1, e) for e in range(1, 65)])   # 65 * 64 > 4096

    def mul_idx(a, b):
        raise AssertionError("multiplied before refusing")

    monkeypatch.setattr(ctx, "mul_idx", mul_idx)
    with pytest.raises(CapExceeded, match="symbolic expansion grew past 4096 terms"):
        polyperm.poly_mul(f, g)


@pytest.mark.parametrize("pn", [(2, 4), (3, 3), (7, 1)])
def test_poly_pow_of_a_monomial_matches_repeated_products(pn):
    # the closed form (c*x^d)^e = c^e * x^(d*e) against e products, with
    # e = 0, d = 0, c != 1 and d*e far past q - 1 among the cases
    ctx = field(*pn)
    rng = np.random.default_rng(sum(pn))
    cases = [(1, 0, 0), (2, 0, 5), (2, 3, 0), (1, ctx.order - 1, 3),
             (ctx.order - 1, ctx.order - 2, 7)]
    cases += [(int(rng.integers(1, ctx.order)), int(rng.integers(0, 2 * ctx.order)),
               int(rng.integers(0, 40))) for _ in range(25)]
    for c, d, e in cases:
        f = SparsePoly.monomial(ctx, d, c)
        ref = SparsePoly.make(ctx, [(1, 0)])
        for _ in range(e):
            ref = polyperm.poly_mul(ref, f)
        assert polyperm.poly_pow(f, e) == ref, (c, d, e)


def test_call_and_ctx_guard():
    ctx, other = field(2, 2), field(2, 3)
    poly = SparsePoly.from_text(ctx, "x^2")
    assert poly.eval_idx(2) == 3
    with pytest.raises(CtxMismatch):
        poly_add(poly, SparsePoly.from_text(other, "x"))


def test_is_additive():
    ctx = field(3, 2)
    assert SparsePoly.from_text(ctx, "x^3 - x").is_additive()
    assert SparsePoly.from_text(ctx, "2*x^9 + x").is_additive()
    assert not SparsePoly.from_text(ctx, "x^2").is_additive()
    assert not SparsePoly.from_text(ctx, "x + 1").is_additive()


def test_coeffs_in_subfield():
    ctx = field(2, 2)
    assert SparsePoly.from_text(ctx, "x^3 + x").coeffs_in_subfield(1)
    w = SparsePoly.make(ctx, [(2, 1)])
    assert not w.coeffs_in_subfield(1)
    assert w.coeffs_in_subfield(2)


# --- permutation materialization --------------------------------------------

def test_perm_from_poly_bijective():
    ctx = field(2, 3)
    sq = require_perm(ctx, SparsePoly.from_text(ctx, "x^2"))
    for i in range(ctx.order):
        assert sq.images[i] == ctx.mul_idx(i, i)


def test_perm_from_poly_collision():
    ctx = field(7, 1)
    got = perm_from_images(ctx, SparsePoly.from_text(ctx, "x^2"))
    assert isinstance(got, NotBijective)
    x1, x2 = got.collision
    assert x1 != x2
    assert ctx.mul_idx(x1, x1) == ctx.mul_idx(x2, x2)
    assert got.missing not in {ctx.mul_idx(i, i) for i in range(7)}
    with pytest.raises(NotPermutation):
        require_perm(ctx, SparsePoly.from_text(ctx, "x^2"))


# every entry point that takes a map over GF(5^2) rejects these, through
# the adapter: at the first evaluation, or when a table is adapted
BAD_MAPS = {
    "out_of_range_callable": lambda ctx: (lambda v: v + np.int64(ctx.order)),
    "wrong_shape_callable": lambda ctx: (lambda v: np.zeros(3, dtype=np.int64)),
    "negative_table": lambda ctx: np.arange(ctx.order, dtype=np.int64) - 1,
    "out_of_range_table": lambda ctx: np.arange(ctx.order, dtype=np.int64) + 1,
    # 2^32 + 1 wraps to 1 in int32, which would make this a permutation
    "wrapping_table": lambda ctx: np.concatenate(
        ([2 ** 32 + 1, 0], np.arange(2, ctx.order, dtype=np.int64))),
    "foreign_polynomial": lambda ctx: SparsePoly.monomial(field(7, 1), 1),
    "foreign_permutation": lambda ctx: identity_perm(field(7, 1)),
}


def _x(ctx):
    return SparsePoly.monomial(ctx, 1)


# the criteria get the bad map as one part and valid polynomials elsewhere
MAP_ENTRY_POINTS = {
    "perm_from_images": perm_from_images,
    "require_perm": require_perm,
    "cycle_report_for_fn": cycle_report_for_fn,
    "walsh_involution_test": walsh_involution_test,
    "xh_lambda_criterion": lambda ctx, lam: xh_lambda_criterion(
        ctx, SparsePoly.monomial(ctx, 0), lam, _x(ctx), 1),
    "additive_criterion": lambda ctx, g: additive_criterion(ctx, _x(ctx), _x(ctx), g, 1),
    "shift_criterion": lambda ctx, g: shift_criterion(ctx, g, ShiftParams(1, 0, 1), 2),
    "agw_commute_check": lambda ctx, g: agw_commute_check(
        ctx, _x(ctx), _x(ctx), _x(ctx), g),
}


@pytest.mark.parametrize("entry", sorted(MAP_ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(BAD_MAPS))
def test_bad_map_input_raises_bad_params(entry, bad):
    # unchecked, a wrong-shape lam gives holds=True on an empty domain,
    # agw_commute_check gives False, and out-of-range parts raise IndexError
    ctx = field(5, 2)
    with pytest.raises(BadParams, match="image|outside the field|different field"):
        MAP_ENTRY_POINTS[entry](ctx, BAD_MAPS[bad](ctx))


def test_callables_are_checked_on_sub_domains():
    ctx = field(3, 4)
    vec = polyperm.as_vector_fn(ctx, lambda v: np.where(v == 5, -1, v))
    assert vec(np.array([0, 4, 6])).tolist() == [0, 4, 6]
    with pytest.raises(BadParams, match="outside the field"):
        vec(np.array([1, 5]))
    with pytest.raises(BadParams, match="one image per point"):
        polyperm.as_vector_fn(ctx, lambda v: v[:1])(np.array([1, 2]))


def test_as_images_slices_agree_with_one_slice(monkeypatch):
    # GF(2^14) is past CHUNK_POINTS: one whole-field slice takes eval_vec's
    # orbit-group tables, slices of 512 points take it term by term
    ctx = field(2, 14)
    polys = [SparsePoly.from_text(ctx, t, {"q": ctx.order})
             for t in ("x^(q-2)", "x^3+x^5+g^7*x^9", "x^3+g*x^6+x^12")]
    fns = [*polys, lambda v: ctx.vadd(v, np.int64(1)), polys[1].eval_vec]
    whole = [as_images(ctx, fn) for fn in fns]
    sizes = []
    monkeypatch.setattr(polyperm, "EVAL_CHUNK", 512)   # 32 slices
    for fn, want in zip(fns, whole):
        vec = polyperm.as_vector_fn(ctx, fn)
        got = as_images(ctx, lambda v: sizes.append(v.size) or vec(v))
        assert np.array_equal(got, want)
    assert sizes == [512] * 32 * len(fns)


@pytest.mark.parametrize("pn", [(2, 1), (2, 13), (3, 9), (5, 6), (7, 1), (4093, 1)])
def test_log_order_images_match_scalar_eval(monkeypatch, pn):
    # as_images walks the logs k in slices (1000 points here, the last one
    # short) and scatters to exp[k]; on a fresh field its coefficient logs
    # come from a scan of exp, and once eval_idx has built the log table,
    # from that table.  Past CHUNK_POINTS an orbit of non-unit terms is one
    # lookup of its linear map
    monkeypatch.setattr(polyperm, "EVAL_CHUNK", 1000)
    ctx = make_field(*pn)
    p, n, q = ctx.p, ctx.n, ctx.order
    rng = np.random.default_rng(q)
    coeff = lambda: int(rng.integers(1, q))
    texts = [(), [(1, 0)], [(coeff(), 0)], [(1, q - 1)], [(coeff(), q - 1), (coeff(), 1)],
             [(coeff(), 3 * p ** k) for k in range(n)] + [(coeff(), 0)]]
    if q > 3:
        texts.append(_orbit_poly(ctx, rng).terms)
    polys = [SparsePoly.make(ctx, terms) for terms in texts]
    scanned = [as_images(ctx, poly) for poly in polys]
    assert "_log" not in ctx.__dict__ or p != 2
    for terms, got in zip(texts, scanned):
        poly = SparsePoly.make(ctx, terms)
        want = [poly.eval_idx(i) for i in range(q)]
        assert got.tolist() == want, terms
        assert as_images(ctx, SparsePoly.make(ctx, terms)).tolist() == want, terms
    if q > CHUNK_POINTS and n > 1:
        assert any(lin is not None for *_, lin in polys[5]._plan)


@pytest.mark.parametrize("shape", ["within a slice", "across slices", "random"])
def test_not_bijective_evidence_equals_a_count_reference(monkeypatch, shape):
    # 16 slices of 64 points: the least value reached twice may be reached
    # twice inside one slice, or in two slices
    monkeypatch.setattr(polyperm, "EVAL_CHUNK", 64)
    ctx = field(2, 10)
    rng = np.random.default_rng(len(shape))
    images = rng.permutation(ctx.order)
    if shape == "within a slice":
        images[200] = images[170]
    elif shape == "across slices":
        images[900] = images[3]
    else:
        images = rng.integers(0, ctx.order, ctx.order)
    counts = np.bincount(images, minlength=ctx.order)
    dup = int(np.flatnonzero(counts > 1)[0])
    a, b = np.flatnonzero(images == dup)[:2].tolist()
    want = NotBijective(int(np.flatnonzero(counts == 0)[0]), (a, b))
    assert perm_from_images(ctx, images) == want


def test_as_images_holds_the_result_and_one_slice():
    # GF(2^20): x^(q-2) and a trinomial, each term one Frobenius orbit
    # group; evaluated in one call, they peak at 4.1 and 8.1 times the 8q
    # bytes of the result
    ctx = field(2, 20)
    for text in ("x^(q-2)", "x^3+x^5+g^7*x^9"):
        poly = SparsePoly.from_text(ctx, text, {"q": ctx.order})
        tracemalloc.start()
        try:
            images = as_images(ctx, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * ctx.order, (text, peak / (8 * ctx.order))
        assert images[:64].tolist() == [poly.eval_idx(i) for i in range(64)]


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5)])
def test_perm_maps_hold_table_dtype(p, n):
    # int32 image tables, from int64 input too, and from every constructor
    ctx = field(p, n)
    poly = SparsePoly.from_text(ctx, "x^(q-2)", {"q": ctx.order})
    wide = poly.eval_vec(ctx.varange())
    pm = perm_from_images(ctx, wide)
    made = [as_images(ctx, poly), as_images(ctx, wide), as_images(ctx, PermMap(ctx, wide)),
            as_images(ctx, lambda xs: poly.eval_vec(xs)), pm.images,
            perm_from_images(ctx, poly).images, identity_perm(ctx).images,
            functional_power(pm, 0).images, functional_power(pm, 3).images]
    assert wide.dtype == np.int64
    assert [a.dtype for a in made] == [table_dtype(ctx.order)] * len(made)
    assert np.array_equal(pm.images, wide)


def _bincount_witness(images: np.ndarray, q: int) -> NotBijective:
    """The witness rule of the int64 oracle: the least count of zero, and
    the first two inputs of the least image counted twice."""
    counts = np.bincount(images, minlength=q)
    dup = int(np.flatnonzero(counts > 1)[0])
    pre = np.flatnonzero(images == dup)[:2]
    return NotBijective(int(np.flatnonzero(counts == 0)[0]), (int(pre[0]), int(pre[1])))


@given(st.sampled_from([(2, 8), (3, 5)]), st.data())
def test_not_bijective_witness_matches_the_bincount_rule(pn, data):
    # a permutation with some images overwritten by others, or any table
    ctx = field(*pn)
    q = ctx.order
    if data.draw(st.booleans()):
        images = np.array(data.draw(st.permutations(range(q))))
        pairs = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
        for i, j in data.draw(st.lists(pairs, min_size=1, max_size=8)):
            images[i] = images[j]
    else:
        images = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q)))
    got = perm_from_images(ctx, images)
    if np.unique(images).size == q:
        assert isinstance(got, PermMap)
    else:
        assert got == _bincount_witness(images, q)


def test_compose_invert_power_against_loops():
    ctx = field(5, 1)
    f = require_perm(ctx, SparsePoly.from_text(ctx, "x^3"))
    g = require_perm(ctx, SparsePoly.from_text(ctx, "2*x + 1"))
    fg = compose(f, g)
    for i in range(5):
        assert fg.images[i] == f.images[g.images[i]]
    finv = PermMap(ctx, np.argsort(f.images))
    assert compose(f, finv) == identity_perm(ctx)
    assert compose(finv, f) == identity_perm(ctx)
    for k in range(7):
        pk = functional_power(g, k)
        # oracle: step one application at a time
        want = identity_perm(ctx)
        for _ in range(k):
            want = compose(g, want)
        assert pk == want
    with pytest.raises(CtxMismatch):
        compose(f, identity_perm(field(7, 1)))


def test_negative_power_is_bad_params_at_once():
    # -1 >> 1 == -1: a negative k left to the squaring loop never ends, so
    # an alarm turns a hang into a failure
    def hung(signum, frame):
        raise AssertionError("functional_power did not return on a negative k")

    pm = identity_perm(field(2, 4))
    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        for k in (-1, -2, -(1 << 40)):
            with pytest.raises(BadParams):
                functional_power(pm, k)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# --- cycle analysis ----------------------------------------------------------

def test_cycle_structure_against_oracle():
    ctx = field(2, 6)
    sq = require_perm(ctx, SparsePoly.from_text(ctx, "x^2"))
    rep = cycle_structure(sq)
    assert rep.cycle_type == naive_cycle_type(sq.images.tolist())
    assert rep.bijective and rep.order == 6  # squaring has order n over GF(2^n)
    assert rep.fixed_points == 2             # exactly the prime subfield
    total = sum(l * c for l, c in rep.cycle_type)
    assert total == ctx.order


def test_cycle_report_non_bijective():
    ctx = field(7, 1)
    rep = cycle_report_for_fn(ctx, SparsePoly.from_text(ctx, "x^2"))
    assert rep == CycleReport(False, None, (), 2)  # 0 and 1 are fixed
    assert rep.to_json()["order"] is None


def test_is_ncycle_semantics():
    ctx = field(7, 1)
    ident = identity_perm(ctx)
    for n in (1, 2, 3, 10):
        assert is_ncycle(ident, n)
    swap = np.arange(7, dtype=np.int64)
    swap[[2, 3]] = swap[[3, 2]]
    t = PermMap(ctx, swap)
    assert cycle_structure(t).order == 2
    assert is_ncycle(t, 2) and is_ncycle(t, 4) and is_ncycle(t, 6)
    assert not is_ncycle(t, 1) and not is_ncycle(t, 3)
    with pytest.raises(BadParams):
        is_ncycle(t, 0)


@given(st.integers(0, 2**32 - 1))
def test_perm_algebra_random(seed):
    ctx = field(3, 2)
    rng = np.random.default_rng(seed)
    f = PermMap(ctx, rng.permutation(ctx.order).astype(np.int64))
    g = PermMap(ctx, rng.permutation(ctx.order).astype(np.int64))
    assert compose(f, PermMap(ctx, np.argsort(f.images))) == identity_perm(ctx)
    assert compose(compose(f, g), f) == compose(f, compose(g, f))
    a, b = int(rng.integers(0, 6)), int(rng.integers(0, 6))
    assert functional_power(f, a + b) == compose(functional_power(f, a),
                                                 functional_power(f, b))
    k = cycle_structure(f).order
    assert functional_power(f, k) == identity_perm(ctx)
    for d in range(1, k):
        if k % d == 0:
            assert functional_power(f, d) != identity_perm(ctx)


# --- the pointer-jumping cycle engine ----------------------------------------

def _with_cycle_lengths(ctx, lengths, rng):
    """A random permutation of the field with one cycle per given length,
    as many as fit, and fixed points elsewhere."""
    pts = rng.permutation(ctx.order)
    images = np.arange(ctx.order, dtype=np.int64)
    pos = 0
    for length in lengths:
        if pos + length > ctx.order:
            break
        cyc = pts[pos:pos + length]
        images[cyc] = np.roll(cyc, -1)
        pos += length
    return PermMap(ctx, images)


def _walk(pm):
    """The CycleReport of pm, from conftest.naive_cycle_type."""
    ctype = naive_cycle_type(pm.images.tolist())
    order = math.lcm(*(l for l, _ in ctype))   # past int64 on some 2^12-point maps
    return CycleReport(True, order, ctype, dict(ctype).get(1, 0))


def _rounds(monkeypatch, pm):
    """cycle_structure(pm) and its number of doubling rounds: the labels
    are set with one np.minimum and folded with one more in each round."""
    calls, minimum = [], np.minimum
    monkeypatch.setattr(np, "minimum",
                        lambda *a, **k: calls.append(1) or minimum(*a, **k))
    rep = cycle_structure(pm)
    monkeypatch.undo()
    return rep, len(calls) - 1


@pytest.mark.parametrize("period", [1, 2, 3, 4, 6, 12, 16, 24, 46, 127])
def test_counted_cycle_type_matches_naive_walk(period):
    ctx = field(2, 10)
    rng = np.random.default_rng(period)
    divs = divisors(period)
    for _ in range(5):
        lengths = rng.choice(divs, size=int(rng.integers(0, 40)))
        pm = _with_cycle_lengths(ctx, lengths.tolist(), rng)
        assert cycle_structure(pm) == _walk(pm)


@given(st.integers(0, 2**32 - 1))
def test_counted_cycles_on_random_permutations(seed):
    ctx = field(3, 4)
    rng = np.random.default_rng(seed)
    pm = PermMap(ctx, rng.permutation(ctx.order).astype(np.int64))
    assert cycle_structure(pm) == _walk(pm)


@pytest.mark.parametrize("p,n,e,order", [
    (2, 12, 1, 1), (2, 12, 64, 2), (2, 12, 16, 3), (2, 12, 8, 4),
    (2, 12, 4, 6), (2, 12, 2, 12), (3, 6, 3, 6), (5, 4, 5, 4),
    (7, 3, 7, 3), (2, 17, 4, 17)])
def test_counted_cycles_of_power_maps(p, n, e, order):
    ctx = field(p, n)
    pm = require_perm(ctx, SparsePoly.monomial(ctx, e))
    rep = cycle_structure(pm)
    assert rep.cycle_type == naive_cycle_type(pm.images.tolist())
    assert rep.order == order


def test_identity_takes_no_round(monkeypatch):
    for p, n in ((2, 1), (7, 1), (2, 12), (3, 5)):
        ctx = field(p, n)
        rep, rounds = _rounds(monkeypatch, identity_perm(ctx))
        assert rep == CycleReport(True, 1, ((1, ctx.order),), ctx.order)
        assert rounds == 0


def test_single_field_cycle_takes_log2_rounds(monkeypatch):
    # one q-cycle: the labels cover 2^(k+1) points after k rounds
    for p, n, rounds in ((2, 1, 0), (7, 1, 2), (2, 12, 11), (3, 5, 7)):
        ctx = field(p, n)
        pm = PermMap(ctx, np.roll(ctx.varange(), 1))
        rep, got = _rounds(monkeypatch, pm)
        assert rep == CycleReport(True, ctx.order, ((ctx.order, 1),), 0)
        assert got == rounds


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_maps(p):
    ctx = field(p, 1)
    gen = ctx.generator.i
    inverse = ["x^(q-2)"] if p > 2 else []   # over GF(2), x^0 is constant
    for text in ["x+1", f"{gen}*x", f"{gen}*x+1", *inverse]:
        pm = require_perm(ctx, SparsePoly.from_text(ctx, text, {"q": p}))
        assert cycle_structure(pm) == _walk(pm)
    # x+1 is one p-cycle, g*x fixes 0 and moves the rest round one cycle
    one = require_perm(ctx, SparsePoly.from_text(ctx, "x+1"))
    assert cycle_structure(one).cycle_type == ((p, 1),)
    if p > 2:
        mul = require_perm(ctx, SparsePoly.from_text(ctx, f"{gen}*x"))
        assert cycle_structure(mul).cycle_type == ((1, 1), (p - 1, 1))


def test_every_permutation_of_gf7():
    # every cycle type of 7 points, and each in every arrangement, against
    # the walk: the stop test is exact, never early
    ctx = field(7, 1)
    for images in itertools.permutations(range(7)):
        pm = PermMap(ctx, np.array(images, dtype=np.int64))
        assert cycle_structure(pm) == _walk(pm)


_SMALL_FIELDS = [(2, 1), (3, 1), (2, 3), (5, 2), (3, 4), (2, 8), (7, 3),
                 (3, 7), (2, 12), (5, 5), (4093, 1)]


@given(st.sampled_from(_SMALL_FIELDS), st.integers(0, 2**32 - 1),
       st.booleans())
@example(pn=(2, 12), seed=25663174, few_cycles=False)   # order about 4.3e22
def test_engine_on_random_permutations_up_to_2_12(pn, seed, few_cycles):
    ctx = field(*pn)
    rng = np.random.default_rng(seed)
    if few_cycles:   # a handful of short cycles among fixed points
        lengths = rng.integers(1, 9, size=int(rng.integers(0, 10)))
        pm = _with_cycle_lengths(ctx, lengths.tolist(), rng)
    else:
        pm = PermMap(ctx, rng.permutation(ctx.order).astype(np.int64))
    assert cycle_structure(pm) == _walk(pm)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    assert len(divisors(720720)) == 240
    for m in range(1, 200):
        assert divisors(m) == [d for d in range(1, m + 1) if m % d == 0]
