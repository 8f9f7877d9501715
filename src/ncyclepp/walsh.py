"""Walsh transform utilities for full-field maps.

A Walsh coefficient W(u, v) of a map F is the character sum over x of
w^(tr(u*x) + tr(v*F(x))) with w a primitive p-th root of unity and tr the
absolute trace.  A single value is kept exact as a length-p count vector (how
often each trace residue occurs), canonicalized modulo the all-ones vector,
the kernel of the count-to-value evaluation.

A map equals its own inverse exactly when its Walsh matrix is symmetric
in (u, v); walsh_involution_test checks that a band of rows at a time, each
computed exactly as p - 1 float32 coordinates in Z[w] (basis 1, w, ...,
w^(p-2)).  The first band is compared in full with the same rows of the
transposed spectrum, so a map whose least mismatching index lies in it,
every map that is not a bijection among them, returns from there; later
bands are compared with int16 blocks that earlier bands left behind.  One
engine serves every p: x in dual-basis order puts W(u, v) in column u of
F_(p^n)[u, y] = w^<u, y>, a Kronecker product of two small factors, each
applied as p - 1 products with 0/+-1 matrices and shifts of the coordinates;
for p = 2 that is one Hadamard product per factor.

Rows transform independently, so a band is transformed a slice of rows at
a time.  At once the engine holds the pool of blocks (about (p - 1) q^2 / 4
int16 coordinates), one int16 band and one slice of float32 scratch, beside
the factor matrices, which set the peak over GF(p).  Their bytes are
estimated from (p, n) and checked against memory before any table is built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .field import EVAL_CHUNK, FieldCtx, element_index, memory_budget
from .polyperm import as_images

WALSH_CAP = 1 << 12

_ROW_BLOCK = 128
_SPECTRUM_CAP = 1 << 28


@dataclass(frozen=True)
class WalshValue:
    """Exact Walsh coefficient as canonicalized trace-residue counts."""

    p: int
    counts: tuple[int, ...]

    @staticmethod
    def from_counts(p: int, raw) -> "WalshValue":
        counts = [int(c) for c in raw]
        m = min(counts)
        return WalshValue(p, tuple(c - m for c in counts))

    @property
    def signed(self) -> int:
        """The integer value in characteristic 2."""
        if self.p != 2:
            raise ValueError("signed value only exists for p = 2")
        return self.counts[0] - self.counts[1]

    def to_json(self) -> dict:
        out: dict = {"counts": list(self.counts)}
        if self.p == 2:
            out["signed"] = self.signed
        return out


def walsh_coefficient(ctx: FieldCtx, fn, u, v) -> WalshValue:
    """Single coefficient W(u, v), O(field size)."""
    ui, vi = element_index(ctx, u), element_index(ctx, v)
    imgs = as_images(ctx, fn)
    xs = ctx.varange()
    arg = ctx.vadd(ctx.vmul(np.int64(ui), xs), ctx.vmul(np.int64(vi), imgs))
    residues = ctx.tr1_table()[arg]
    return WalshValue.from_counts(ctx.p, np.bincount(residues, minlength=ctx.p))


def _digit_dot_relabel(ctx: FieldCtx) -> np.ndarray:
    """Permutation sigma with tr(u*x) = <digits(sigma[u]), digits(x)> mod p.

    sigma is the GF(p)-linear map sending the j-th basis vector b_j to the
    element whose digits are row j of the Gram matrix G[j][k] = tr(b_j * b_k)
    of the power basis; nondegeneracy of the trace form makes it a bijection."""
    p, n = ctx.p, ctx.n
    tr1 = ctx.tr1_table()
    gram = np.array([[tr1[ctx.mul_idx(p ** j, p ** k)] for k in range(n)]
                     for j in range(n)], dtype=np.int64)
    return ctx.linear_map(gram)(ctx.varange())   # gram is symmetric: its own columns


def _factor(p: int, k: int) -> np.ndarray:
    """F_(p^k)[u, y] = w^<u, y> on base-p digits as the p - 1 matrices
    B_j = A_j - A_(p-1), A_j[u, y] = [<u, y> = j mod p]: the powers of w sum
    to 0, so F_(p^k) = sum_j B_j w^j.  For p = 2, B_0 is Sylvester's H_(2^k)."""
    digits = np.arange(p ** k)[:, None] // p ** np.arange(k) % p
    dot = digits @ digits.T % p
    B = np.empty((p - 1, p ** k, p ** k), dtype=np.float32)   # no second copy
    for j in range(p - 1):
        np.subtract(dot == j, dot == p - 1, out=B[j], dtype=np.float32)
    return B


def _times_factor(B: np.ndarray, product, out: np.ndarray, tmp: np.ndarray):
    """out = sum_j w^j product(B_j), coordinates on axis 1: w^j moves
    coordinate m to m + j, and w^(p-1) = -(1 + w + ... + w^(p-2))."""
    c = len(B)
    product(B[0], out)
    for j in range(1, c):
        product(B[j], tmp)
        out[:, j:] += tmp[:, :c - j]
        out[:, :j - 1] += tmp[:, c + 1 - j:]
        out -= tmp[:, c - j:c + 1 - j]


def _involution(ctx: FieldCtx, imgs: np.ndarray):
    p, q, a = ctx.p, ctx.order, ctx.n // 2
    c, pa, pb = p - 1, p ** a, p ** (ctx.n - a)
    # tr(u*x) = <u, sigma(x)> as sigma's Gram matrix is symmetric, so row v of the
    # transform lands W(u, v) at M[v, :, u] from w^tr(v*F(x)) in the columns
    # sigma(x), and W(v, u) there from w^tr(v*x) in the columns sigma(F(x)).
    sigma = _digit_dot_relabel(ctx)
    # Coordinates of w^tr(g^k) for k in [0, 2q - 3], so log v + log F(x) needs
    # no reduction, then of w^0: e_t, or all -1 for t = p - 1.  With log 0 set
    # to 2q - 2, every sum with a zero term clips to that last entry.
    tr = np.append(np.tile(ctx.tr1_table()[ctx._exp], 2), 0)
    enc = (tr == np.arange(c)[:, None]).astype(np.float32) - (tr == c)
    log = np.concatenate(([2 * q - 2], ctx._log[1:]))
    log_f = log[imgs[np.argsort(sigma)]]
    log_x = log[np.argsort(sigma[imgs])]   # x = F^-1(sigma^-1(y)) for a bijection
    # F_(p^n) = F_(p^a) (x) F_(p^(n-a)) (Good, 1958); for n = 1 the first
    # factor is empty.  Bands of r rows keep H near 128 q coordinates; each row
    # transforms on its own, sub rows at a time, so the float32 scratch spans
    # about EVAL_CHUNK coordinates per residue.
    Ba, Bb = _factor(p, a), _factor(p, ctx.n - a)
    r, sub = _rows(p, q)
    t = np.empty((sub, q), dtype=np.int64)   # log v + the input's logs, reused
    X, Y, Z = (np.empty((sub, c, q), dtype=np.float32) for _ in range(3))
    H = np.empty((r, c, q), dtype=np.int16)   # coordinates lie in [-q, q], q <= 2^12

    def band(lo, k, logs, row0=None):
        """Rows lo .. lo + k - 1 of M into H; row0, if given, is row 0's input."""
        for i in range(0, k, sub):
            j = min(sub, k - i)
            np.add(log[lo + i:lo + i + j, None], logs[None, :], out=t[:j])
            for m in range(c):
                np.take(enc[m], t[:j], mode="clip", out=X[:j, m])
            if row0 is not None and i == 0:
                X[0] = 0
                X[0, 0] = row0
            _times_factor(Bb, lambda B, o: np.matmul(X[:j].reshape(-1, pb), B,
                                                     out=o.reshape(-1, pb)), Z[:j], Y[:j])
            if a:
                _times_factor(Ba, lambda B, o: np.matmul(B, Z[:j].reshape(j, c, pa, pb),
                                                         out=o.reshape(j, c, pa, pb)),
                              X[:j], Y[:j])
            H[i:i + j] = X[:j] if a else Z[:j]
        return H[:k]

    # Band 0 against its transposed rows W(v, u), whose input needs F^-1 past
    # row 0; row 0 takes the number of preimages of y in column sigma(y), right
    # for every map.  A map that is not a bijection has a W(0, u) != 0 = W(u, 0),
    # so it mismatches first in row 0.  The first mismatching row holds the
    # least index of the mismatch set, and its first mismatch the least partner.
    k = min(r, q)
    transposed = band(0, k, log_x, np.bincount(sigma[imgs], minlength=q)).copy()
    bad = np.any(band(0, k, log_f) != transposed, axis=1)
    del transposed
    if bad.any():
        u = int(bad.any(axis=1).argmax())
        return False, (ctx.element(u), ctx.element(int(bad[u].argmax())))
    # Every pair with an index below r is settled.  Band i >= r leaves its columns
    # in band j > i, transposed, in a pool block [v - j, :, u - i] = M[u, :, v]
    # that band j compares and frees: of the nb later bands' nb^2 blocks at
    # most nb^2 / 4 are held at once, and slots are reused.
    nb = -(-q // r) - 1
    pool = np.empty((nb * nb // 4, r, c, r), dtype=np.int16)
    bad = np.empty((r, q), dtype=bool)   # band cells with M[v, :, u] != M[u, :, v]
    free, slot, first = list(range(len(pool))), {}, (q, q)
    for lo in range(r, q, r):
        k = min(r, q - lo)
        M = band(lo, k, log_f)
        for i in range(r, lo, r):
            free.append(slot.pop((i, lo)))
            np.any(pool[free[-1], :k] != M[:, :, i:i + r], axis=1, out=bad[:k, i:i + r])
        diag = M[:, :, lo:lo + k]
        np.any(diag != diag.transpose(2, 1, 0), axis=1, out=bad[:k, lo:lo + k])
        # Each mismatching pair u < v shows up here once, in the band of v; the
        # first row-major cell of the symmetric mismatch set is the least (u, v).
        u = r + int(bad[:k, r:lo + k].any(axis=0).argmax())
        if bad[:k, u].any():
            first = min(first, (u, lo + int(bad[:k, u].argmax())))
        for j in range(lo + k, q, r):
            s = slot[lo, j] = free.pop()
            pool[s, :min(r, q - j), :, :k] = M[:, :, j:j + r].transpose(2, 1, 0)
    u, v = first
    return (True, None) if u == q else (False, (ctx.element(u), ctx.element(v)))


def _rows(p: int, q: int) -> tuple[int, int]:
    """Rows of a band and rows of one slice of its float32 scratch."""
    r = max(1, _ROW_BLOCK // (p - 1))
    return r, max(1, min(r, EVAL_CHUNK // q))


def _engine_bytes(p: int, n: int) -> int:
    """Bytes the engine holds at once over GF(p^n), an upper bound computed
    before any table: the float32 factor matrices, the int16 pool with each
    slot's key and list entries, the int16 band with band 0's transposed copy
    and their bool compare, bad, one slice of scratch, the q-entry index
    arrays with the trace encoding, and 64 KiB for sigma's linear-map tables
    and the small arrays."""
    q, a, c = p ** n, n // 2, p - 1
    r, sub = _rows(p, q)
    nb = -(-q // r) - 1
    factors = 4 * c * (p ** (2 * a) + p ** (2 * (n - a)))
    pool = nb * nb // 4 * (2 * r * c * r + 256)
    band = 5 * r * c * q + r * q
    scratch = 8 * sub * q + 12 * sub * c * q
    return factors + pool + band + scratch + q * (80 + 16 * c) + (1 << 16)


def within_walsh_cap(ctx: FieldCtx) -> bool:
    """q <= WALSH_CAP and at most 2^28 spectrum coordinates (1 GiB), which keeps
    every partial sum, at most 2 (p - 1) q <= min(2 q^2, 2^29 / q) < 2^20, exact.
    It counts all (p - 1) q^2 coordinates, though the engine holds at once only
    the pool, about a quarter of them as int16, one int16 band and one slice
    of float32 scratch; over GF(p) the factor matrices of _factor(p, 1),
    float32, are as large as all of them.  What fits in memory is decided
    apart, by _engine_bytes."""
    return ctx.order <= WALSH_CAP and (ctx.p - 1) * ctx.order ** 2 <= _SPECTRUM_CAP


def walsh_involution_test(ctx: FieldCtx, fn):
    """Decide whether a permutation is its own inverse from its Walsh
    spectrum alone.  Returns (flag, witness); the witness is a pair (u, v)
    with W(u, v) != W(v, u) when the answer is no.  Refused with CapExceeded
    past the cap, or when the engine's bytes (_engine_bytes) do not fit in
    memory."""
    if not within_walsh_cap(ctx):
        raise CapExceeded(f"Walsh spectrum of GF({ctx.p}^{ctx.n}) above cap: it needs "
                          f"q <= {WALSH_CAP} and (p - 1) q^2 <= 2^28")
    with memory_budget(f"the Walsh test's arrays over GF({ctx.p}^{ctx.n})",
                       _engine_bytes(ctx.p, ctx.n)):
        return _involution(ctx, as_images(ctx, fn))
