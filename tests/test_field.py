import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncyclepp.errors import (
    BadParams, CapExceeded, DivisionByZero, InvalidSubfield, NotDivisor,
    NotIrreducible, NotPrime,
)
import ncyclepp.field as field_mod
from ncyclepp.field import DEFAULT_CAP, FieldElement, field_cap, make_field
from conftest import field


# --- independent oracle: brute-force irreducibility over GF(p) -------------

def brute_irreducible(coeffs, p):
    """Trial division by every smaller monic polynomial."""
    def pmul(a, b):
        r = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                r[i + j] = (r[i + j] + x * y) % p
        return r

    n = len(coeffs) - 1
    for d in range(1, n):
        for c in range(p ** d):
            div = [(c // p ** i) % p for i in range(d)] + [1]
            for e in range(p ** (n - d)):
                quo = [(e // p ** i) % p for i in range(n - d)] + [1]
                if pmul(div, quo) == list(coeffs):
                    return False
    return True


def test_modulus_is_first_irreducible_cubic():
    # oracle: enumerate all 8 monic cubics over GF(2) in counter order
    found = None
    for c in range(8):
        cand = [(c >> i) & 1 for i in range(3)] + [1]
        if brute_irreducible(cand, 2):
            found = cand
            break
    assert found == [1, 1, 0, 1]
    assert list(field(2, 3).modulus) == [1, 1, 0, 1]


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_modulus_minimal_and_irreducible(p, n):
    ctx = field(p, n)
    assert brute_irreducible(ctx.modulus, p)
    # nothing smaller in counter order is irreducible
    got = sum(c * p ** i for i, c in enumerate(ctx.modulus[:-1]))
    for v in range(got):
        cand = [(v // p ** i) % p for i in range(n)] + [1]
        assert not brute_irreducible(cand, p)


def test_reducible_modulus_rejected():
    with pytest.raises(NotIrreducible):
        make_field(2, 3, modulus=[1, 0, 0, 1])  # x^3 + 1 = (x+1)(x^2+x+1)


def test_gf2_trivial():
    ctx = field(2, 1)
    assert list(ctx.modulus) == [0, 1]
    assert ctx.generator.i == 1
    assert ctx.add_idx(1, 1) == 0


def test_construction_errors():
    with pytest.raises(NotPrime):
        make_field(6, 1)
    with pytest.raises(BadParams):
        make_field(2, 0)
    with pytest.raises(CapExceeded):
        make_field(2, 25)
    with pytest.raises(CapExceeded):
        make_field(2, 10, cap=512)


def test_cap_is_read_from_the_environment(monkeypatch):
    assert field_cap() == DEFAULT_CAP
    monkeypatch.setenv("NCYC_CAP", "")   # empty counts as unset
    assert field_cap() == DEFAULT_CAP
    monkeypatch.setenv("NCYC_CAP", "100")
    assert field_cap() == 100
    with pytest.raises(CapExceeded, match="exceeds cap 100"):
        make_field(2, 7)
    assert make_field(2, 7, cap=128).order == 128   # an explicit cap wins
    monkeypatch.setenv("NCYC_CAP", "lots")
    with pytest.raises(BadParams, match="NCYC_CAP"):
        make_field(2, 3)


def test_tables_that_cannot_fit_are_refused_before_the_modulus_search(monkeypatch):
    # 12 bytes a point for p = 2 and for n = 1, 20 for odd p and n > 1
    def no_search(p, n):
        raise AssertionError("the modulus search ran")

    monkeypatch.setattr(field_mod, "FieldCtx", lambda p, n, coeffs: (p, n))
    monkeypatch.setattr(field_mod, "_memory_bytes", lambda: 12 << 16)
    with monkeypatch.context() as m:
        m.setattr(field_mod, "_first_irreducible", no_search)
        for p, n in [(2, 17), (65537, 1), (3, 10)]:   # 12·2^17, 12·65537, 20·3^10
            with pytest.raises(CapExceeded, match="MiB available"):
                make_field(p, n, cap=1 << 30)
    assert make_field(2, 16) == (2, 16)
    assert make_field(191, 2) == (191, 2)   # 20·191^2 fits; 24·191^2 would not
    # the field at the default cap is accepted under a 2 GB address space
    monkeypatch.setattr(field_mod, "_memory_bytes", lambda: 2 << 30)
    assert make_field(2, 24) == (2, 24)


def test_table_dtype_follows_q_alone(monkeypatch):
    # every index of GF(q) fits int32 up to q = 2^31; no table is allocated
    assert field_mod.table_dtype(2 ** 31 - 1) is np.int32
    assert field_mod.table_dtype(2 ** 31) is np.int32
    assert field_mod.table_dtype(2 ** 31 + 1) is np.int64
    # make_field's estimate follows the entries' width: 3 x 4 bytes a point
    # at 2^31, 3 x 8 at 2^32
    monkeypatch.setattr(field_mod, "FieldCtx", lambda p, n, coeffs: (p, n))
    monkeypatch.setattr(field_mod, "_first_irreducible", lambda p, n: [1] * (n + 1))
    for n, width in [(31, 4), (32, 8)]:
        monkeypatch.setattr(field_mod, "_memory_bytes", lambda: 3 * width * 2 ** n)
        assert make_field(2, n, cap=1 << 40) == (2, n)
        monkeypatch.setattr(field_mod, "_memory_bytes", lambda: 3 * width * 2 ** n - 1)
        with pytest.raises(CapExceeded, match="MiB available"):
            make_field(2, n, cap=1 << 40)


def test_packed_width_follows_p_and_n_alone(monkeypatch):
    # an odd-p linear map packs each output digit in bitlen(k*(p - 1)) bits,
    # k its chunks of input digits (7 for p = 3): 21 x 3 = 63 bits for
    # GF(3^21), and 22 x 4 = 88 for GF(3^22), which is refused before the
    # modulus search; neither field is built
    def no_search(p, n):
        raise AssertionError("the modulus search ran")

    monkeypatch.setattr(field_mod, "FieldCtx", lambda p, n, coeffs: (p, n))
    monkeypatch.setattr(field_mod, "_first_irreducible", lambda p, n: [1] * (n + 1))
    monkeypatch.setattr(field_mod, "_memory_bytes", lambda: 1 << 50)
    assert make_field(3, 21, cap=1 << 40) == (3, 21)
    monkeypatch.setattr(field_mod, "_first_irreducible", no_search)
    with pytest.raises(CapExceeded, match="63 bits"):
        make_field(3, 22, cap=1 << 40)


@pytest.mark.parametrize("p,n", [(2, 20), (3, 12)])
def test_trace_table_is_filled_slice_by_slice(p, n):
    # 4 bytes a point of int32 trace values, and the buffers of one slice;
    # the log and Zech tables that the scalar trace reads are built first
    ctx = make_field(p, n)
    ctx._log, ctx._zech
    tracemalloc.start()
    try:
        tr1 = ctx.tr1_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr1.dtype == np.int32 and peak <= 6 * ctx.order
    assert np.array_equal(tr1[::97], ctx.vtrace(ctx.varange()[::97], 1))


def test_tables_hold_eight_bytes_a_point():
    # int32 exp and log: 8 bytes a point, 16 when they were int64
    tracemalloc.start()
    try:
        ctx = make_field(2, 20)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ctx._exp.dtype == ctx._log.dtype == np.int32
    assert held <= 8.5 * ctx.order


def test_tables_are_built_in_eight_and_a_half_bytes_a_point():
    # exp and log, and the buffers of one slice: each exp doubling and the
    # fill of log run slice by slice (12.07 bytes a point when they did not)
    tracemalloc.start()
    try:
        ctx = make_field(2, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.5 * ctx.order, peak / ctx.order


@pytest.mark.parametrize("p,n,op", [(2, 5, lambda ctx: ctx.mul_idx(3, 5)),
                                    (3, 4, lambda ctx: ctx.add_idx(3, 5))])
def test_memory_error_while_building_the_log_table_is_cap_exceeded(monkeypatch, p, n, op):
    # the log table is built on first use: by mul_idx, and by add_idx
    # through the Zech table for odd p; its first allocation fails
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    ctx = make_field(p, n)
    monkeypatch.setattr(field_mod.np, "full", out_of_memory)
    with pytest.raises(CapExceeded, match="log table of GF.* do not fit in memory"):
        op(ctx)


def test_memory_error_while_building_the_tables_is_cap_exceeded(monkeypatch):
    def out_of_memory(self):
        raise MemoryError

    monkeypatch.setattr(field_mod.FieldCtx, "_build_tables", out_of_memory)
    with pytest.raises(CapExceeded, match="do not fit in memory"):
        make_field(2, 5)


def test_determinism():
    a = make_field(3, 4)
    b = make_field(3, 4)
    assert a.modulus == b.modulus
    assert a.generator.i == b.generator.i


def test_spot_arithmetic():
    f7 = field(7, 1)
    assert f7.mul_idx(3, 5) == 1
    f4 = field(2, 2)
    w = 2  # the class of x
    assert f4.add_idx(w, w) == 0
    assert f4.mul_idx(w, w) == 3  # x^2 = x + 1 mod x^2+x+1
    f8 = field(2, 3)
    x = 2
    assert f8.mul_idx(f8.mul_idx(x, x), x) == 3  # x^3 = x + 1 mod x^3+x+1


def test_pow_conventions():
    f8 = field(2, 3)
    assert f8.pow_idx(0, 0) == 1
    assert f8.pow_idx(0, 5) == 0
    g = f8.generator.i
    assert f8.pow_idx(g, f8.order - 1) == 1
    # naive repeated-multiplication oracle
    acc = 1
    for e in range(1, 15):
        acc = f8.mul_idx(acc, g)
        assert f8.pow_idx(g, e) == acc


def test_pow_negative_and_inverse():
    f49 = field(7, 2)
    for i in range(1, f49.order):
        assert f49.mul_idx(i, f49.inv_idx(i)) == 1
        assert f49.pow_idx(i, -1) == f49.inv_idx(i)
        assert f49.pow_idx(i, -3) == f49.pow_idx(f49.inv_idx(i), 3)
    with pytest.raises(DivisionByZero):
        f49.inv_idx(0)
    with pytest.raises(DivisionByZero):
        f49.pow_idx(0, -1)


@pytest.mark.parametrize("pn", [(2, 4), (7, 2)])
def test_element_handle_compares_by_field_and_index(pn):
    ctx = field(*pn)
    p = ctx.p
    for i in range(ctx.order):
        a = ctx.element(i)
        assert (a == 2) == (i == 2 % p)
        assert a == FieldElement(ctx, i) and hash(a) == hash(FieldElement(ctx, i))
        assert bool(a) == (i != 0)
        assert int(a) == i and a.literal() == str(i)
        assert repr(a) == f"F{ctx.order}({i})"
    assert ctx.element(1) != field(p, ctx.n + 1).element(1)
    assert (ctx.element(1) == "1") is False


def test_trace_and_frobenius():
    f4 = field(2, 2)
    assert f4.trace_idx(2, 1) == 1  # w + w^2 = 1
    f64 = field(2, 6)
    sub = set(f64.subfield_indices(2).tolist())
    for a in range(f64.order):
        assert f64.trace_idx(a, 2) in sub  # trace lands in GF(4)
        assert f64.frob_idx(a, 2, 3) == a  # q^m power is identity
    with pytest.raises(InvalidSubfield):
        f64.trace_idx(1, 4)


@pytest.mark.parametrize("sub_degree", [0, -1])
def test_nonpositive_sub_degree_is_an_invalid_subfield(sub_degree):
    ctx = field(3, 2)
    xs = ctx.varange()
    for call in (lambda: ctx.vfrob(xs, sub_degree),
                 lambda: ctx.vtrace(xs, sub_degree),
                 lambda: ctx.trace_idx(1, sub_degree),
                 lambda: ctx.subfield_indices(sub_degree)):
        with pytest.raises(InvalidSubfield):
            call()


def test_trace_additive():
    f27 = field(3, 3)
    for i in range(0, f27.order, 5):
        for j in range(0, f27.order, 7):
            assert f27.trace_idx(f27.add_idx(i, j), 1) == \
                f27.add_idx(f27.trace_idx(i, 1), f27.trace_idx(j, 1))


def test_subgroup_mu_against_filter():
    ctx = field(2, 12)
    mu = ctx.mu_indices(65).tolist()
    assert len(mu) == len(set(mu)) == 65
    # oracle: filter the whole field for x^65 == 1
    allv = ctx.varange()
    want = set(np.flatnonzero(ctx.vpow(allv, 65) == 1).tolist())
    assert set(mu) == want
    # deterministic order: powers of generator^((q-1)/65)
    step = (ctx.order - 1) // 65
    assert mu[1] == ctx.pow_idx(ctx.generator.i, step)
    with pytest.raises(NotDivisor):
        ctx.mu_indices(11)


def test_subfield_closure():
    ctx = field(2, 6)
    s = set(ctx.subfield_indices(3).tolist())
    assert len(s) == 8
    for a in s:
        for b in s:
            assert ctx.add_idx(a, b) in s
            assert ctx.mul_idx(a, b) in s
    with pytest.raises(InvalidSubfield):
        ctx.subfield_indices(4)


def test_literals():
    ctx = field(2, 3)
    assert ctx.from_literal("5").i == 5
    assert ctx.from_literal("g^0").i == 1
    assert ctx.from_literal("g^1").i == ctx.generator.i
    assert ctx.from_literal("g^7").i == 1  # wraps at q-1
    with pytest.raises(BadParams):
        ctx.from_literal("9")
    with pytest.raises(BadParams):
        ctx.from_literal("bogus")


@pytest.mark.parametrize("text", ["g^x", "g^", "g^1.5"])
def test_bad_generator_power_literal_is_bad_params(text):
    with pytest.raises(BadParams):
        field(2, 3).from_literal(text)


SMALL_FIELDS = [(2, 4), (3, 2), (5, 1), (5, 2), (7, 1), (2, 6), (3, 3)]


@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_field_axioms(pn, data):
    ctx = field(*pn)
    q = ctx.order
    i = data.draw(st.integers(0, q - 1))
    j = data.draw(st.integers(0, q - 1))
    k = data.draw(st.integers(0, q - 1))
    add, mul = ctx.add_idx, ctx.mul_idx
    assert add(i, j) == add(j, i)
    assert mul(i, j) == mul(j, i)
    assert add(add(i, j), k) == add(i, add(j, k))
    assert mul(mul(i, j), k) == mul(i, mul(j, k))
    assert mul(i, add(j, k)) == add(mul(i, j), mul(i, k))
    assert add(i, ctx.neg_idx(i)) == 0
    assert ctx.sub_idx(i, j) == add(i, ctx.neg_idx(j))
    assert add(ctx.sub_idx(i, j), j) == i


@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_pow_reduction_law(pn, data):
    ctx = field(*pn)
    i = data.draw(st.integers(1, ctx.order - 1))
    e = data.draw(st.integers(0, 10 ** 12))
    assert ctx.pow_idx(i, e) == ctx.pow_idx(i, e % (ctx.order - 1))


@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_vector_ops_match_scalar(pn, data):
    ctx = field(*pn)
    q = ctx.order
    xs = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=8)),
                  dtype=np.int64)
    ys = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=len(xs), max_size=len(xs))),
                  dtype=np.int64)
    e = data.draw(st.integers(0, 2 * q))
    va = ctx.vadd(xs, ys)
    vm = ctx.vmul(xs, ys)
    vp = ctx.vpow(xs, e)
    for t in range(len(xs)):
        assert va[t] == ctx.add_idx(int(xs[t]), int(ys[t]))
        assert vm[t] == ctx.mul_idx(int(xs[t]), int(ys[t]))
        assert vp[t] == ctx.pow_idx(int(xs[t]), e)


def test_vtrace_matches_scalar():
    ctx = field(3, 4)
    allv = ctx.varange()
    vt = ctx.vtrace(allv, 2)
    for i in range(0, ctx.order, 7):
        assert vt[i] == ctx.trace_idx(i, 2)


def test_scalar_ops_copy_no_table():
    # mul_idx, inv_idx and pow_idx read the exp and log tables in place; a
    # Python-list copy of both would take about 4.7 MB on GF(2^16).  The log
    # table, built on first use, is built before the window
    ctx = make_field(2, 16)
    ctx._log
    tracemalloc.start()
    try:
        got = (ctx.mul_idx(3, 5), ctx.inv_idx(7), ctx.pow_idx(11, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got == (15, ctx.pow_idx(7, -1), ctx.mul_idx(ctx.pow_idx(11, 500),
                                                       ctx.pow_idx(11, 500)))


def test_order_factorization():
    ctx = field(2, 6)
    assert ctx.order_factorization == ((3, 2), (7, 1))
    total = 1
    for pr, e in ctx.order_factorization:
        total *= pr ** e
    assert total == ctx.order - 1


@pytest.mark.parametrize("p,n,sub", [(2, 4, 1), (2, 6, 2), (3, 4, 2), (5, 3, 1)])
def test_frobenius_exponent_reduced_mod_extension_degree(p, n, sub):
    # x^(p^n) = x, so the power p^(sub*i) depends on i mod n/sub only; an
    # i too large to power in full is tested in a child process (test_cli)
    ctx = field(p, n)
    m = n // sub
    allx = ctx.varange()
    for i in (m, m + 1, 3 * m + 2, 1000, 10**4 + 1):
        assert np.array_equal(ctx.vfrob(allx, sub, i),
                              ctx.vfrob(allx, sub, i % m))
        assert ctx.frob_idx(2, sub, i) == ctx.frob_idx(2, sub, i % m)
    assert ctx.frob_idx(2, sub, m) == 2
