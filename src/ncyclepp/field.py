"""Arithmetic in GF(p^n) with deterministic construction.

Elements are stored as integer indices in [0, p^n): the base-p digits of the
index, least significant first, are the coordinates in the polynomial basis
1, x, ..., x^(n-1) modulo a monic irreducible polynomial over GF(p).

Construction is deterministic:

* the modulus, when not supplied, is the first monic irreducible degree-n
  polynomial in increasing order of the integer whose base-p digits (least
  significant digit = constant term) are the non-leading coefficients;
* the multiplicative generator is the first element, scanning indices
  1, 2, 3, ..., whose order is exactly p^n - 1.

Products, powers, inverses and odd-p sums (Zech logarithms) run on
discrete-log tables, int32 while every index fits int32 (q <= 2^31); the
vector operations add and multiply logs in int64 and return int64 arrays.
Construction builds exp (exp[k] = g^k); log and, for odd p and n > 1, the
Zech table are built from it by the first operation that reads them.  A
size cap (default 2^24 elements, or NCYC_CAP, read by make_field) keeps that
tractable, and tables that would not fit in memory are refused beforehand.

The tables are built by GF(p)-linear maps (multiplication by a constant,
the trace) given by their matrices over GF(p): FieldCtx.linear_map looks
each chunk of base-p digits of an index up in a small table of its images
and combines the partial images without the field's own addition, by XOR
for p = 2, and for odd p by adding images packed in carry-free bit fields.
"""
from __future__ import annotations

import math
import os
import resource
from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BadParams,
    CapExceeded,
    CtxMismatch,
    DivisionByZero,
    InvalidSubfield,
    NotDivisor,
    NotIrreducible,
    NotPrime,
)

DEFAULT_CAP = 1 << 24
# most points a chunk of digits spans (or one digit, if more): the size of a
# lookup table of linear_map, and of the whole-field tables of SparsePoly
CHUNK_POINTS = 4096
# points per slice when a whole field is evaluated slice by slice
EVAL_CHUNK = 1 << 15


def _chunk_digits(p: int) -> int:
    """Input digits per lookup of linear_map: the most with p^chunk <=
    CHUNK_POINTS, and at least one."""
    return max(1, next(c for c in range(13) if p ** (c + 1) > CHUNK_POINTS))


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as ((prime, multiplicity), ...)."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def divisors(m: int) -> list[int]:
    """The divisors of m > 0, ascending."""
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return sorted({*small, *(m // d for d in small)})


# ---------------------------------------------------------------------------
# dense polynomials over GF(p): lists of ints, constant term first, trimmed
# ---------------------------------------------------------------------------

def _ptrim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    if not a:
        a.append(0)
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    r = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                r[i + j] = (r[i + j] + x * y) % p
    return _ptrim(r)


def _pmod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a != [0]:
        lead = a[-1]
        if lead:
            off = len(a) - 1 - dm
            for i, c in enumerate(mod):
                a[off + i] = (a[off + i] - lead * c) % p
        a.pop()
        _ptrim(a)
    return _ptrim(a)


def _pmulmod(a, b, mod, p) -> list[int]:
    return _pmod(_pmul(a, b, p), mod, p)


def _ppowmod(base, e: int, mod, p) -> list[int]:
    r = [1]
    b = _pmod(list(base), mod, p)
    while e:
        if e & 1:
            r = _pmulmod(r, b, mod, p)
        b = _pmulmod(b, b, mod, p)
        e >>= 1
    return r


def _pgcd(a, b, p) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b != [0]:
        # make b monic so _pmod applies
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = bm, _pmod(a, bm, p)
    return a


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p).

    Uses the gcd test: f of degree n is irreducible iff x^(p^n) == x (mod f)
    and gcd(x^(p^(n/r)) - x, f) is constant for every prime r | n.
    """
    n = len(coeffs) - 1
    if n == 1:
        return True
    x = [0, 1]
    t = x
    powers = {}
    for i in range(1, n + 1):
        t = _ppowmod(t, p, coeffs, p)
        powers[i] = t
    if powers[n] != x:
        return False
    for r, _ in _factorize(n):
        u = list(powers[n // r])
        while len(u) < 2:
            u.append(0)
        u[1] = (u[1] - 1) % p  # subtract x
        g = _pgcd(coeffs, _ptrim(u), p)
        if len(g) > 1:
            return False
    return True


def _first_irreducible(p: int, n: int) -> list[int]:
    """First monic irreducible of degree n, low coefficients ordered as the
    base-p digits of an increasing counter (constant term least significant)."""
    for c in range(p ** n):
        coeffs = []
        v = c
        for _ in range(n):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise NotIrreducible(f"no irreducible of degree {n} over GF({p})")  # pragma: no cover


class FieldCtx:
    """Immutable description of GF(p^n) plus precomputed tables.

    Do not instantiate directly; use make_field().  Attribute caches are
    filled lazily but never change an observable value.
    """

    def __init__(self, p: int, n: int, modulus: list[int]):
        self.p = p
        self.n = n
        self.order = p ** n
        self.modulus = tuple(modulus)
        self.order_factorization = _factorize(self.order - 1)
        self.key = (p, n, self.modulus)
        self._p_pows = [p ** i for i in range(n)]
        # digits per chunk of linear_map, and entries of all chunks' tables
        self._chunk = _chunk_digits(p)
        self._table_size = sum(p ** len(self._p_pows[lo:lo + self._chunk])
                               for lo in range(0, n, self._chunk))
        self._gen_idx = self._find_generator()
        self._build_tables()
        self._subfield_cache: dict[int, np.ndarray] = {}
        self._image_cache: dict[bytes, np.ndarray] = {}
        self._tr1: Optional[np.ndarray] = None

    # -- construction helpers ------------------------------------------------

    def _decode(self, idx: int) -> list[int]:
        out = []
        for _ in range(self.n):
            out.append(idx % self.p)
            idx //= self.p
        return out

    def _cmul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        r = _pmulmod(list(a), list(b), list(self.modulus), self.p)
        return r + [0] * (self.n - len(r))

    def _cpow(self, a: Sequence[int], e: int) -> list[int]:
        r = [1] + [0] * (self.n - 1)
        b = list(a)
        while e:
            if e & 1:
                r = self._cmul(r, b)
            b = self._cmul(b, b)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        q1 = self.order - 1
        if q1 == 1:
            return 1
        checks = [q1 // r for r, _ in self.order_factorization]
        one = [1] + [0] * (self.n - 1)
        for idx in range(1, self.order):
            a = self._decode(idx)
            if all(self._cpow(a, e) != one for e in checks):
                return idx
        raise NcycleInternal("no generator found")  # pragma: no cover

    def _index(self, coords: Sequence[int]) -> int:
        return sum(c * pw for c, pw in zip(coords, self._p_pows))

    # -- GF(p)-linear maps as n x n matrices over GF(p) (L&N section 3.4) ------
    # A product of two such matrices is m1 @ m2 % p, the matrix of the
    # composed map; entries stay below p, so no int64 sum overflows.

    def _matrix(self, cols: Sequence[int]) -> np.ndarray:
        """The n x len(cols) matrix whose column j holds the digits of index cols[j]."""
        pows = np.array(self._p_pows, dtype=np.int64)
        return np.asarray(cols, dtype=np.int64) // pows[:, None] % self.p

    def linear_map(self, m: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluator on index arrays of the GF(p)-linear map of m: n rows and
        one column per input digit, column j the digits of the image of p^j.
        Each chunk of self._chunk input digits is looked up in a table of its
        images, built here from m alone, and the k partial images combined:
        XORed for p = 2.  For odd p, output digit i of an entry takes bits
        [b*i, b*i + b), b = bitlen(k*(p - 1)), so the images add with no
        carry (make_field refuses a field where n*b passes 63), and the sum
        is read back to base p a few fields per lookup; one chunk's table
        holds indices, and rows past m's last nonzero one are left out."""
        p, n, c = self.p, self.n, self._chunk
        m = np.asarray(m, dtype=np.int64)
        if n == 1:   # GF(p): the map is multiplication by m[0, 0]
            return lambda x, a=int(m[0, 0]): np.asarray(x, dtype=np.int64) * a % p
        pows, los = np.array(self._p_pows, dtype=np.int64), range(0, m.shape[1], c)
        tabs, backs = [], []
        if p == 2:
            for lo in los:
                tab = np.zeros(1, dtype=np.int64)
                for col in (pows @ m[:, lo:lo + c]).tolist():   # one more digit per pass
                    tab = np.concatenate((tab, tab ^ col))
                tabs.append(tab)
        else:
            m = m[:int(np.flatnonzero(m.any(axis=1)).max(initial=0)) + 1]
            rows, b = len(m), (len(los) * (p - 1)).bit_length()
            weights = pows[:rows] if len(los) == 1 else np.int64(1) << b * np.arange(rows)
            for lo in los:
                digs = np.zeros((rows, 1), dtype=np.int64)   # the images' digits so far
                for col in m[:, lo:lo + c].T:   # one more input digit per pass
                    digs = (digs[:, None, :] + (col[:, None] * np.arange(p) % p)[:, :, None])
                    digs = digs.reshape(rows, -1)
                    np.subtract(digs, p, out=digs, where=digs >= p)
                tabs.append(weights @ digs)
            if len(los) > 1:   # r fields of the sum per lookup of the read-back
                r = max(1, (CHUNK_POINTS.bit_length() - 1) // b)
                v = np.arange(1 << r * b, dtype=np.int64)
                back = sum((v >> b * i & (1 << b) - 1) % p * p ** i for i in range(r))
                backs = [back * p ** lo for lo in range(0, rows, r)]

        def apply(x) -> np.ndarray:
            x = np.asarray(x)   # an int32 slice of exp is read as it is, not copied
            out, digits = None, np.empty(x.shape, dtype=np.int64)
            for lo, tab in zip(los, tabs):
                np.floor_divide(x, self._p_pows[lo], out=digits)
                digits %= tab.shape[0]
                if out is None:
                    out = tab[digits]
                elif p == 2:   # later partial images reuse the digit buffer
                    out ^= np.take(tab, digits, mode="clip", out=digits)
                else:
                    out += np.take(tab, digits, mode="clip", out=digits)
            if not backs:
                return out
            # the read-back sums into the digit buffer; the packed sum is
            # shifted down in place, and its last fields are looked up in place
            packed, out, mask, part = out, digits, backs[0].shape[0] - 1, None
            np.take(backs[0], np.bitwise_and(packed, mask, out=out), mode="clip", out=out)
            for i, back in enumerate(backs[1:], 2):
                packed >>= mask.bit_length()
                part = packed if i == len(backs) else np.bitwise_and(packed, mask, out=part)
                out += np.take(back, part, mode="clip", out=part)
            return out

        return apply

    def linear_matrix(self, fn) -> np.ndarray:
        """Matrix of the GF(p)-linear map fn, an evaluator on index arrays
        (the eval_vec of a q-polynomial, say): column j holds the digits
        of fn(p^j), the image of basis vector j."""
        return self._matrix(fn(np.array(self._p_pows, dtype=np.int64)))

    def matpow(self, m: np.ndarray, e: int) -> np.ndarray:
        """m^e mod p, by repeated squaring: about 2 log2(e) products."""
        out = np.eye(self.n, dtype=np.int64)
        while e:
            if e & 1:
                out = out @ m % self.p
            e >>= 1
            if e:
                m = m @ m % self.p
        return out

    def image_basis(self, m: np.ndarray) -> list[int]:
        """Indices of a basis of m's column space, the image of its map, by
        row reduction over GF(p) of m's columns, one at a time against the
        pivots so far.  The basis has rank m elements, so the map is a
        bijection iff there are n."""
        p, pivots = self.p, []   # (pivot position, vector that is 1 there)
        for v in m.T.tolist():
            for c, piv in pivots:
                if v[c]:
                    f = v[c]
                    v = [(x - f * y) % p for x, y in zip(v, piv)]
            c = next((c for c, x in enumerate(v) if x), None)
            if c is not None:
                inv = pow(v[c], -1, p)
                pivots.append((c, [x * inv % p for x in v]))
        return [self._index(v) for _, v in pivots]

    def linear_image(self, fn) -> np.ndarray:
        """Sorted image of the GF(p)-linear map fn: the span of its
        matrix's column space, p^rank points, from fn's values at the n
        basis points only.  It is the set np.unique gives of fn over the
        field, in the same order.  Read-only and cached per map, since a
        builder and its criterion ask for the same one, and the fuzzer for
        a few again and again."""
        m = self.linear_matrix(fn)
        key = m.tobytes()
        if key not in self._image_cache:
            image = np.sort(self.span(self.image_basis(m)))
            image.flags.writeable = False
            self._image_cache[key] = image
        return self._image_cache[key]

    def span(self, cols: Sequence[int]) -> np.ndarray:
        """Every GF(p)-combination of the independent indices cols,
        unsorted: the images of the p^len(cols) coefficient vectors under
        the linear map of their matrix."""
        if not cols:
            return np.zeros(1, dtype=np.int64)
        span = self.linear_map(self._matrix(cols))
        return span(np.arange(self.p ** len(cols), dtype=np.int64))

    def _build_tables(self) -> None:
        q1 = self.order - 1
        if q1 < 1:
            raise BadParams("field must have at least 2 elements")
        dtype = table_dtype(self.order)
        exp = np.empty(q1, dtype=dtype)
        exp[0] = 1
        x = self._cmul([0, 1], [1])
        a, filled = self._decode(self._gen_idx), 1   # a = g^filled
        while filled < q1:
            take = min(filled, q1 - filled)
            cols = [a]   # a * x^j, the images of the basis under multiplication by a
            while len(cols) < self.n:
                cols.append(self._cmul(cols[-1], x))
            times_a = self.linear_map(np.array(cols).T)
            for lo in range(0, take, EVAL_CHUNK):   # the map's buffers span one slice
                hi = min(lo + EVAL_CHUNK, take)
                exp[filled + lo:filled + hi] = times_a(exp[lo:hi])
            a = self._cmul(a, a)
            filled += take
        seen = np.zeros(self.order, dtype=bool)   # exp's values, marked
        for lo in range(0, q1, EVAL_CHUNK):
            seen[exp[lo:lo + EVAL_CHUNK]] = True
        if self.order - np.count_nonzero(seen) != 1:  # only zero has no log
            raise NcycleInternal("generator order check failed")  # pragma: no cover
        self._exp = exp

    @cached_property
    def _log(self) -> np.ndarray:
        """log[x] = k where x = g^k, and log[0] = -1."""
        with memory_budget(f"the log table of GF({self.p}^{self.n})", self._exp.nbytes):
            log, q1 = np.full(self.order, -1, dtype=self._exp.dtype), self.order - 1
            for lo in range(0, q1, EVAL_CHUNK):
                log[self._exp[lo:lo + EVAL_CHUNK]] = np.arange(lo, min(lo + EVAL_CHUNK, q1))
        return log

    @cached_property
    def _zech(self) -> Optional[np.ndarray]:
        """Z[k] = log(1 + g^k) for odd p and n > 1, else None."""
        if self.p == 2 or self.n == 1:
            return None
        with memory_budget(f"the Zech table of GF({self.p}^{self.n})", self._exp.nbytes):
            zech = np.empty_like(self._exp)
            for lo in range(0, zech.size, EVAL_CHUNK):   # x + 1 alters digit 0 only
                x = self._exp[lo:lo + EVAL_CHUNK] + 1
                x -= (x // self.p * self.p == x) * self.p   # digit 0 was p - 1: it wraps
                zech[lo:lo + EVAL_CHUNK] = self._log[x]
        return zech

    def logs(self, values) -> dict[int, int]:
        """{x: log x} for the nonzero x in values: from the log table once it
        is built, else from one scan of exp, up to the slice of the last."""
        if "_log" in self.__dict__:
            return {x: self._log.item(x) for x in values}
        want, found = np.array(sorted(set(values)), dtype=np.int64), {}
        for lo in range(0, self.order - 1, EVAL_CHUNK):
            if len(found) == want.size:
                break
            part = self._exp[lo:lo + EVAL_CHUNK]
            hits = np.flatnonzero(want[np.searchsorted(want, part) % want.size] == part)
            found.update(zip(part[hits].tolist(), (hits + lo).tolist()))
        return found

    # -- scalar index arithmetic ----------------------------------------------

    def add_idx(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        q1, la = self.order - 1, self._log.item(a)
        z = self._zech.item((self._log.item(b) - la) % q1)   # log(1 + b/a)
        return 0 if z < 0 else self._exp.item((la + z) % q1)   # z < 0: b = -a

    def neg_idx(self, a: int) -> int:
        return a if self.p == 2 else self.mul_idx(self.p - 1, a)   # -a = (p-1)*a

    def sub_idx(self, a: int, b: int) -> int:
        return self.add_idx(a, self.neg_idx(b))

    def mul_idx(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log = self._log
        return self._exp.item((log.item(a) + log.item(b)) % (self.order - 1))

    def inv_idx(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp.item(-self._log.item(a) % (self.order - 1))

    def pow_idx(self, a: int, e: int) -> int:
        """a^e with pow(0, 0) = 1; negative e inverts a nonzero base."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        q1 = self.order - 1
        return self._exp.item(self._log.item(a) * (e % q1) % q1)

    def degree_over(self, sub_degree: int) -> int:
        """m = n / sub_degree, the degree of this field over its
        GF(p^sub_degree) subfield; InvalidSubfield unless sub_degree is a
        positive divisor of n."""
        if sub_degree < 1 or self.n % sub_degree != 0:
            raise InvalidSubfield(
                f"{sub_degree} is not a positive divisor of {self.n}")
        return self.n // sub_degree

    def _frob_exponent(self, sub_degree: int, i: int) -> int:
        """p^(sub_degree*i), with i reduced mod n/sub_degree first: x^(p^n)
        is x, so the power map stays the same."""
        return self.p ** (sub_degree * (i % self.degree_over(sub_degree)))

    def frob_idx(self, a: int, sub_degree: int, i: int = 1) -> int:
        return self.pow_idx(a, self._frob_exponent(sub_degree, i))

    def trace_idx(self, a: int, sub_degree: int) -> int:
        acc, t = a, a
        for _ in range(self.degree_over(sub_degree) - 1):
            t = self.frob_idx(t, sub_degree, 1)
            acc = self.add_idx(acc, t)
        return acc

    # -- vector index arithmetic (numpy int64 arrays) --------------------------
    # Logs are added and multiplied in int64: 2q - 4 passes int32 above 2^30.

    def varange(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.n == 1:
            return (a + b) % self.p
        a, b = np.asarray(a), np.asarray(b)
        if a.size > b.size:   # sums commute: gather the larger operand into t
            a, b = b, a
        la, t = self._log[a], np.asarray(self._log[b])   # log[0] = -1 is junk, fixed below
        # in place unless t lacks the broadcast shape, as in (k, 1) against (j,)
        t = np.subtract(t, la, out=None if a.ndim and a.shape != b.shape else t)
        np.take(self._zech, t, mode="wrap", out=t)   # log(1 + b/a)
        cancel = t < 0   # b = -a
        s = np.asarray(np.add(t, la, dtype=np.int64))   # the result's buffer, 0-d too
        np.copyto(s, np.take(self._exp, s, mode="wrap", out=t))   # a * (1 + b/a)
        s[cancel] = 0
        np.copyto(s, b, where=a == 0)
        np.copyto(s, a, where=b == 0)
        return s

    def vneg(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return a.copy() if isinstance(a, np.ndarray) else a
        return self.vmul(np.int64(self.p - 1), a)   # -a = (p-1)*a

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.vadd(a, self.vneg(b))

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        t = np.add(self._log[a], self._log[b], dtype=np.int64)   # log[0] = -1: junk, masked
        return np.where((a != 0) & (b != 0), np.take(self._exp, t, mode="wrap"), np.int64(0))

    def vpow(self, a: np.ndarray, e: int) -> np.ndarray:
        """Elementwise a^e; e == 0 gives all ones (pow(0,0) = 1)."""
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.ones(a.shape, dtype=np.int64)
        if e < 0:
            raise DivisionByZero("negative vector exponent")
        q1 = self.order - 1
        t = np.multiply(self._log[a], e % q1, dtype=np.int64)   # log[0] = -1: junk, masked
        t %= q1
        return np.where(a != 0, self._exp[t], np.int64(0))

    def vfrob(self, a: np.ndarray, sub_degree: int, i: int = 1) -> np.ndarray:
        return self.vpow(a, self._frob_exponent(sub_degree, i))

    def _trace_map(self, sub_degree: int) -> Callable[[np.ndarray], np.ndarray]:
        return self.linear_map(self._matrix([self.trace_idx(pw, sub_degree)   # Tr(x^i)
                                             for pw in self._p_pows]))

    def vtrace(self, a: np.ndarray, sub_degree: int) -> np.ndarray:
        return self._trace_map(sub_degree)(a)

    # -- cached structure ------------------------------------------------------

    def tr1_table(self) -> np.ndarray:
        """Absolute trace to GF(p), per element index, as small ints of
        table_dtype, filled in slices of EVAL_CHUNK indices."""
        if self._tr1 is None:
            tr, q = self._trace_map(1), self.order
            self._tr1 = np.empty(q, dtype=table_dtype(q))
            for lo in range(0, q, EVAL_CHUNK):
                self._tr1[lo:lo + EVAL_CHUNK] = tr(np.arange(lo, min(lo + EVAL_CHUNK, q)))
        return self._tr1

    def subfield_indices(self, sub_degree: int) -> np.ndarray:
        """Sorted indices of the GF(p^sub_degree) subfield: zero and the
        powers of g^((q-1)/(p^sub_degree-1))."""
        if sub_degree not in self._subfield_cache:
            self.degree_over(sub_degree)
            nonzero = self.mu_indices(self.p ** sub_degree - 1)
            self._subfield_cache[sub_degree] = np.sort(np.append(np.int64(0), nonzero))
        return self._subfield_cache[sub_degree]

    def mu_indices(self, ell: int) -> np.ndarray:
        """Indices of the order-ell subgroup, ordered by generator power."""
        q1 = self.order - 1
        if ell < 1 or q1 % ell != 0:
            raise NotDivisor(f"{ell} does not divide {q1}")
        step = q1 // ell
        return self._exp[np.arange(ell, dtype=np.int64) * step].astype(np.int64)

    # -- elements and literals --------------------------------------------------

    def element(self, i: int) -> "FieldElement":
        if not 0 <= i < self.order:
            raise BadParams(f"element index {i} out of range for order {self.order}")
        return FieldElement(self, int(i))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def generator(self) -> "FieldElement":
        return FieldElement(self, self._gen_idx)

    def from_literal(self, text: str) -> "FieldElement":
        """Parse an element literal: a plain index or 'g^k'."""
        t = text.strip()
        if t == "g":
            return self.generator
        try:
            v = int(t[2:] if t.startswith("g^") else t)
        except ValueError:
            raise BadParams(f"bad element literal {text!r}") from None
        if t.startswith("g^"):
            return FieldElement(self, int(self._exp[v % (self.order - 1)]))
        if not 0 <= v < self.order:
            raise BadParams(f"element literal {v} out of range [0, {self.order})")
        return FieldElement(self, v)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.p}^{self.n}))"


class NcycleInternal(RuntimeError):
    """Internal consistency failure (should be unreachable)."""


class FieldElement:
    """An element of a FieldCtx, identified by its integer index.

    Supports +, -, *, /, unary -, ** and equality.  Mixing elements of
    contexts with different (p, n, modulus) raises CtxMismatch.
    """

    __slots__ = ("ctx", "i")

    def __init__(self, ctx: FieldCtx, i: int):
        self.ctx = ctx
        self.i = i

    def _peer(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.ctx.key != self.ctx.key:
                raise CtxMismatch(f"{self.ctx} vs {other.ctx}")
            return other.i
        if isinstance(other, int):
            # small rational integers embed via the prime subfield
            return other % self.ctx.p
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        j = self._peer(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.add_idx(self.i, j))

    __radd__ = __add__

    def __sub__(self, other):
        j = self._peer(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.sub_idx(self.i, j))

    def __rsub__(self, other):
        j = self._peer(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.sub_idx(j, self.i))

    def __mul__(self, other):
        j = self._peer(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul_idx(self.i, j))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j = self._peer(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul_idx(self.i, self.ctx.inv_idx(j)))

    def __rtruediv__(self, other):
        j = self._peer(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul_idx(j, self.ctx.inv_idx(self.i)))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg_idx(self.i))

    def __pow__(self, e: int):
        if e < 0:
            return FieldElement(self.ctx, self.ctx.pow_idx(self.ctx.inv_idx(self.i), -e))
        return FieldElement(self.ctx, self.ctx.pow_idx(self.i, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv_idx(self.i))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx.key == other.ctx.key and self.i == other.i
        if isinstance(other, int):
            # ints compare through the prime-subfield embedding
            return self.i == other % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.key, self.i))

    def __bool__(self):
        return self.i != 0

    def __int__(self):
        return self.i

    def literal(self) -> str:
        return str(self.i)

    def __repr__(self):
        return f"F{self.ctx.order}({self.i})"


def field_cap() -> int:
    """NCYC_CAP when that is set and not empty, DEFAULT_CAP otherwise."""
    raw = os.environ.get("NCYC_CAP")
    try:
        return int(raw) if raw else DEFAULT_CAP
    except ValueError:
        raise BadParams(f"NCYC_CAP = {raw!r} is not an integer") from None


def _memory_bytes() -> int:
    """Physical memory, or the address-space limit when that is lower."""
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return phys if soft == resource.RLIM_INFINITY else min(phys, soft)


def table_dtype(q: int) -> type:
    """int32 when every index of a field of q points fits it, else int64."""
    return np.int32 if q - 1 <= np.iinfo(np.int32).max else np.int64


@contextmanager
def memory_budget(what: str, need: int):
    """Refuse with CapExceeded, before any is allocated, the arrays named by
    what (a plural) when their need of bytes passes _memory_bytes(); a
    MemoryError inside the block, the estimate's backstop, is CapExceeded too."""
    room = _memory_bytes()
    if need > room:
        raise CapExceeded(f"{what} take about {need >> 20} MiB, more than "
                          f"the {room >> 20} MiB available")
    try:
        yield
    except MemoryError:
        raise CapExceeded(f"{what} do not fit in memory") from None


def make_field(p: int, n: int, modulus: Optional[Sequence[int]] = None,
               cap: Optional[int] = None) -> FieldCtx:
    """Construct GF(p^n), refused with CapExceeded past cap (field_cap()
    when None), when its linear maps would pack digits past 63 bits, or
    when its tables would not fit in memory.

    modulus, when given, is the full coefficient list of a monic irreducible
    degree-n polynomial over GF(p), constant term first.  When omitted the
    deterministic search described in the module docstring is used.
    """
    cap = field_cap() if cap is None else cap
    if not isinstance(p, int) or not _is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if not isinstance(n, int) or n < 1:
        raise BadParams(f"extension degree must be >= 1, got {n}")
    if p ** n > cap:
        raise CapExceeded(f"field size {p}^{n} exceeds cap {cap}")
    k = -(-n // _chunk_digits(p))   # chunks of the input digits of a linear map
    if p != 2 and k > 1 and n * (k * (p - 1)).bit_length() > 63:
        raise CapExceeded(f"the linear maps of GF({p}^{n}) pack more than 63 bits")
    # table entries per point allowed for the tables, an upper bound: three
    # for p = 2 or n = 1, five for odd p and n > 1.  Construction holds exp,
    # a 1-byte mark of its values and one slice's buffers (tracemalloc: 1.3-1.6
    # entries a point on GF(2^18)-GF(2^22) and GF(1048573), 1.3-2.3 on GF(3^12),
    # GF(5^8), GF(7^7), GF(11^5), GF(4093^2)); building log and Zech on first
    # use adds 1.0-1.4 and 2.0-2.9 entries
    need = p ** n * (3 if p == 2 or n == 1 else 5) * np.dtype(table_dtype(p ** n)).itemsize
    with memory_budget(f"the tables of GF({p}^{n})", need):
        if modulus is None:
            coeffs = _first_irreducible(p, n)
        else:
            coeffs = [int(c) % p for c in modulus]
            if len(coeffs) != n + 1 or coeffs[-1] != 1:
                raise BadParams("modulus must be monic of degree n")
            if not _is_irreducible(coeffs, p):
                raise NotIrreducible(f"modulus {list(modulus)} is reducible over GF({p})")
        return FieldCtx(p, n, coeffs)


# ---------------------------------------------------------------------------
# module-level operations on elements
# ---------------------------------------------------------------------------

def element_index(ctx: FieldCtx, v) -> int:
    """Index of an element given as a FieldElement of ctx, an element
    literal string (an index or 'g^k') or an integer index in [0, q)."""
    if isinstance(v, FieldElement):
        if v.ctx.key != ctx.key:
            raise BadParams("element from a different field")
        return v.i
    if isinstance(v, str):
        return ctx.from_literal(v).i
    iv = int(v)
    if not 0 <= iv < ctx.order:
        raise BadParams(f"element index {iv} out of range")
    return iv


def frobenius(a: FieldElement, sub_degree: int, i: int = 1) -> FieldElement:
    """a^(q^i) where q = p^sub_degree."""
    return FieldElement(a.ctx, a.ctx.frob_idx(a.i, sub_degree, i))


def trace(a: FieldElement, sub_degree: int) -> FieldElement:
    """Trace of a onto GF(p^sub_degree)."""
    return FieldElement(a.ctx, a.ctx.trace_idx(a.i, sub_degree))


def subfield_members(ctx: FieldCtx, sub_degree: int) -> set[FieldElement]:
    """The subfield GF(p^sub_degree) as a set of elements."""
    return {FieldElement(ctx, int(i)) for i in ctx.subfield_indices(sub_degree)}


def subgroup_mu(ctx: FieldCtx, ell: int) -> list[FieldElement]:
    """The multiplicative subgroup of order ell, as generator powers."""
    return [FieldElement(ctx, int(i)) for i in ctx.mu_indices(ell)]
