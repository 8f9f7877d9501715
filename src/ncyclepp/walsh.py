"""Walsh transform utilities for full-field maps.

A Walsh coefficient W(u, v) of a map F is the character sum over x of
omega^(tr(u*x) + tr(v*F(x))) with omega a primitive p-th root of unity and
tr the absolute trace.  Values are kept exact as length-p count vectors
(how often each trace residue occurs), canonicalized modulo the all-ones
vector, which is the kernel of the count-to-value evaluation.

A permutation equals its own inverse exactly when its Walsh coefficient
matrix is symmetric in (u, v); that is what walsh_involution_test checks.
Characteristic 2 multiplies the signs (-1)^tr(v*F(x)), with x in dual-basis
order so that W(u, v) lands in column u, by the Hadamard matrix as a
Kronecker product of two small ones; odd characteristic uses exact
residue-count matrix products.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .field import FieldCtx, element_index
from .polyperm import PermMap, as_images

WALSH_CAP = 1 << 12

_ROW_BLOCK = 128


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

    def approx(self) -> complex:
        w = cmath.exp(2j * cmath.pi / self.p)
        return sum(c * w ** k for k, c in enumerate(self.counts))

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


def _hadamard(k: int) -> np.ndarray:
    """Sylvester's H_{2^k} in float32: entry (i, j) is (-1)^popcount(i & j)."""
    h = np.ones((1, 1), dtype=np.float32)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


def _digit_dot_relabel(ctx: FieldCtx) -> np.ndarray:
    """Permutation sigma with tr(u*x) = <digits(sigma[u]), digits(x)> mod p.

    sigma is the GF(p)-linear map sending the j-th basis vector b_j to the
    element whose digits are row j of the Gram matrix G[j][k] = tr(b_j * b_k)
    of the power basis; nondegeneracy of the trace form makes it a bijection."""
    p, n = ctx.p, ctx.n
    tr1 = ctx.tr1_table()
    rows = [sum(int(tr1[ctx.mul_idx(p ** j, p ** k)]) * p ** k for k in range(n))
            for j in range(n)]
    return ctx._linear_map(rows, ctx.varange())


def _involution_char2(ctx: FieldCtx, imgs: np.ndarray):
    q, a = ctx.order, ctx.n // 2
    # tr(u*x) = <u, sigma(x)> as sigma's Gram matrix is symmetric, so on the
    # columns y = sigma(x) the transform lands W(u, v) at M[v, u].
    imgs = imgs[np.argsort(_digit_dot_relabel(ctx))]
    # (-1)^tr(g^k) for k in [0, 2q - 3]: log v + log F(x) needs no reduction
    sign = np.tile(1 - 2 * ctx.tr1_table()[ctx._exp], 2).astype(np.float32)
    log_f, zero_cols = ctx._log[imgs], imgs == 0
    # H_{2^n} = H_{2^a} (x) H_{2^(n-a)}, two products per row block; float32
    # is exact, as every partial sum is an integer of size at most q < 2^24.
    Ha, Hb = _hadamard(a), _hadamard(ctx.n - a)
    M = np.empty((q, q), dtype=np.float32)
    t = np.empty((_ROW_BLOCK, q), dtype=np.int64)   # log v + log F(x), reused
    s = np.empty((_ROW_BLOCK, q), dtype=np.float32)   # signs, reused
    for lo in range(0, q, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, q)
        r = hi - lo
        np.add(ctx._log[lo:hi, None], log_f[None, :], out=t[:r])
        np.take(sign, t[:r], mode="clip", out=s[:r])   # log 0 = -1: junk, fixed below
        s[:r, zero_cols] = 1   # tr(0) = 0 where F(x) = 0 and where v = 0
        s[:r][np.arange(lo, hi) == 0] = 1
        x = (s[:r].reshape(r << a, -1) @ Hb).reshape(r, 1 << a, -1)
        np.matmul(Ha, x, out=M[lo:hi].reshape(x.shape))
    # The mismatch set is symmetric, so its first row-major cell lies in the
    # upper triangle of the first band of rows that holds one.
    for lo in range(0, q, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, q)
        bad = np.concatenate([M[lo:hi, c:c + _ROW_BLOCK] != M[c:c + _ROW_BLOCK, lo:hi].T
                              for c in range(lo, q, _ROW_BLOCK)], axis=1)
        if bad.any():
            i = int(bad.any(axis=1).argmax())
            return False, (ctx.element(lo + i), ctx.element(lo + int(bad[i].argmax())))
    return True, None


def _involution_oddp(ctx: FieldCtx, imgs: np.ndarray):
    p, q = ctx.p, ctx.order
    tr1 = ctx.tr1_table()
    xs = ctx.varange()
    R = np.empty((q, q), dtype=np.int8)   # R[v, x] = tr(v * F(x))
    S = np.empty((q, q), dtype=np.int8)   # S[u, x] = tr(u * x)
    for lo in range(0, q, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, q)
        R[lo:hi] = tr1[ctx.vmul(xs[lo:hi, None], imgs[None, :])]
        S[lo:hi] = tr1[ctx.vmul(xs[lo:hi, None], xs[None, :])]
    # C[c][v, u] = #{x : tr(v F(x)) + tr(u x) = c};  counts are exact in
    # float32 since they never exceed the field size q <= 2^12 < 2^24.
    C = [np.zeros((q, q), dtype=np.float32) for _ in range(p)]
    for a in range(p):
        Pa = (R == a).astype(np.float32)
        for b in range(p):
            Qb = (S == b).astype(np.float32)
            C[(a + b) % p] += Pa @ Qb.T
    # W(u, v) = W(v, u) for all pairs iff the count difference between the
    # (u, v) and (v, u) cells is the same in every residue class.
    D0 = C[0].T - C[0]
    mismatch = np.zeros((q, q), dtype=bool)
    for c in range(1, p):
        mismatch |= (C[c].T - C[c]) != D0
    bad = np.argwhere(mismatch)
    if bad.size == 0:
        return True, None
    u, v = int(bad[0][0]), int(bad[0][1])
    return False, (ctx.element(u), ctx.element(v))


def walsh_involution_test(ctx: FieldCtx, fn):
    """Decide whether a permutation is its own inverse from its Walsh
    spectrum alone.  Returns (flag, witness); the witness is a pair (u, v)
    with W(u, v) != W(v, u) when the answer is no."""
    if ctx.order > WALSH_CAP:
        raise CapExceeded(f"field size {ctx.order} above Walsh cap {WALSH_CAP}")
    imgs = as_images(ctx, fn)
    if ctx.p == 2:
        return _involution_char2(ctx, imgs)
    return _involution_oddp(ctx, imgs)
