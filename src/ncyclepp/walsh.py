"""Walsh transform utilities for full-field maps.

A Walsh coefficient W(u, v) of a map F is the character sum over x of
omega^(tr(u*x) + tr(v*F(x))) with omega a primitive p-th root of unity and
tr the absolute trace.  Values are kept exact as length-p count vectors
(how often each trace residue occurs), canonicalized modulo the all-ones
vector, which is the kernel of the count-to-value evaluation.

A permutation equals its own inverse exactly when its Walsh coefficient
matrix is symmetric in (u, v); that is what walsh_involution_test checks,
with a fast Hadamard transform in characteristic 2 and exact integer
matrix products for odd characteristic.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .field import FieldCtx, element_index
from .polyperm import PermMap, as_images

WALSH_CAP = 1 << 12

_ROW_BLOCK = 256


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


def _fwht_rows(mat: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along the last axis."""
    rows, n = mat.shape
    h = 1
    while h < n:
        m = mat.reshape(rows, n // (2 * h), 2, h)
        a = m[:, :, 0, :].copy()
        b = m[:, :, 1, :]
        m[:, :, 0, :] = a + b
        m[:, :, 1, :] = a - b
        h *= 2
    return mat


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
    q = ctx.order
    sign = (1 - 2 * ctx.tr1_table()[ctx._exp]).astype(np.int32)   # (-1)^tr(g^k)
    log_f, zero_cols = ctx._log[imgs], imgs == 0
    M = np.empty((q, q), dtype=np.int32)
    t = np.empty((_ROW_BLOCK, q), dtype=np.int64)   # log v + log F(x), reused
    for lo in range(0, q, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, q)
        np.add(ctx._log[lo:hi, None], log_f[None, :], out=t[:hi - lo])
        np.take(sign, t[:hi - lo], mode="wrap", out=M[lo:hi])
        M[lo:hi, zero_cols] = 1   # tr(0) = 0 where F(x) = 0 and where v = 0
        M[lo:hi][np.arange(lo, hi) == 0] = 1
        _fwht_rows(M[lo:hi])
    sigma = _digit_dot_relabel(ctx)
    A = M[:, sigma].T          # A[u, v] = W(u, v)
    bad = np.argwhere(A != A.T)
    if bad.size == 0:
        return True, None
    u, v = int(bad[0][0]), int(bad[0][1])
    return False, (ctx.element(u), ctx.element(v))


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
    # float64 since they never exceed the field size.
    C = [np.zeros((q, q)) for _ in range(p)]
    for a in range(p):
        Pa = (R == a).astype(np.float64)
        for b in range(p):
            Qb = (S == b).astype(np.float64)
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
