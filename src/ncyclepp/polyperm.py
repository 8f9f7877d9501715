"""Sparse polynomials over a field context and materialized permutation maps.

Polynomials are canonical sparse sums c*x^e with strictly increasing
exponents and no zero coefficients.  Maps over the field are materialized as
full image tables of field.table_dtype indices (int32 up to 2^31 points), so
composition, iterated application, and cycle analysis all reduce to array
gathers.
"""
from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from math import lcm
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import BadParams, CapExceeded, CtxMismatch, NotPermutation
from .field import (CHUNK_POINTS, EVAL_CHUNK, FieldCtx, memory_budget,
                    table_dtype)


# ---------------------------------------------------------------------------
# integer expressions (used for exponents given on the command line)
# ---------------------------------------------------------------------------

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}

# largest power an expression may compute, as a bound on its size in bits
_POW_BITS = 1 << 16


def eval_int_expr(text: str, variables: Mapping[str, int] | None = None) -> int:
    """Evaluate an integer expression like ``(q^2+q+1)*45``.

    Supports + - * // % ** and parentheses; ``^`` is accepted as a synonym
    for exponentiation.  Only names present in ``variables`` may appear.
    A power whose base bit length times exponent exceeds _POW_BITS, or
    whose exponent is negative, is refused with BadParams before it is
    computed, and so is an expression nested past Python's recursion limit.
    """
    env = dict(variables or {})
    src = text.replace("^", "**")

    def walk(node: ast.AST) -> int:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and type(node.value) is int:   # not bool
            return node.value
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise BadParams(f"unknown name {node.id!r} in expression {text!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Pow):
                if right < 0:   # the result would not be an integer
                    raise BadParams(f"negative power in expression {text!r}")
                if abs(left).bit_length() * right > _POW_BITS:
                    raise BadParams(f"power too large in expression {text!r}")
            return _BINOPS[type(node.op)](left, right)
        raise BadParams(f"unsupported syntax in expression {text!r}")

    try:
        return walk(ast.parse(src, mode="eval"))
    except SyntaxError as exc:
        raise BadParams(f"cannot parse expression {text!r}") from exc
    except RecursionError:   # from ast.parse or from walk
        raise BadParams(f"expression nested too deeply: {text[:40]!r}...") from None
    except (ZeroDivisionError, ValueError) as exc:
        raise BadParams(f"cannot evaluate expression {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparsePoly:
    """Canonical sparse polynomial: terms are (coefficient index, exponent)."""

    ctx: FieldCtx
    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def make(ctx: FieldCtx, terms: Iterable[tuple[int, int]]) -> "SparsePoly":
        merged: dict[int, int] = {}
        for c, e in terms:
            c, e = int(c), int(e)
            if not 0 <= c < ctx.order:
                raise BadParams(f"coefficient index {c} out of range")
            if e < 0:
                raise BadParams(f"negative exponent {e}")
            merged[e] = ctx.add_idx(merged[e], c) if e in merged else c
        out = tuple((c, e) for e, c in sorted(merged.items()) if c != 0)
        return SparsePoly(ctx, out)

    @staticmethod
    def monomial(ctx: FieldCtx, e: int, coeff: int = 1) -> "SparsePoly":
        return SparsePoly.make(ctx, [(coeff, e)])

    @staticmethod
    def from_text(ctx: FieldCtx, text: str,
                  env: Mapping[str, int] | None = None) -> "SparsePoly":
        """Parse ``c*x^e + ...``; coefficients are element literals (ints or
        g^k), exponents are integer expressions over ``env``."""
        src = text.replace(" ", "")
        chunks: list[str] = []
        depth, start = 0, 0
        for pos, ch in enumerate(src):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch in "+-" and depth == 0 and pos > start:
                chunks.append(src[start:pos])
                start = pos if ch == "-" else pos + 1
        chunks.append(src[start:])
        terms: list[tuple[int, int]] = []
        for chunk in chunks:
            if not chunk:
                continue
            negate = chunk.startswith("-")
            if negate:
                chunk = chunk[1:]
            if not chunk:
                raise BadParams(f"dangling sign in {text!r}")
            if "*" in chunk:
                cpart, _, xpart = chunk.partition("*")
            elif chunk.startswith("x"):
                cpart, xpart = "1", chunk
            else:
                cpart, xpart = chunk, None
            coeff = ctx.from_literal(cpart).i
            if negate:
                coeff = ctx.neg_idx(coeff)
            if xpart is None:   # a bare constant; "c*" has no x to follow
                exp = 0
            elif xpart == "x":
                exp = 1
            elif xpart.startswith("x^"):
                exp = eval_int_expr(xpart[2:], env)
            else:
                raise BadParams(f"bad term {chunk!r} in {text!r}")
            terms.append((coeff, exp))
        return SparsePoly.make(ctx, terms)

    def to_text(self) -> str:
        """Render as "c*x^e" terms joined by "+" (constants as bare "c")."""
        if not self.terms:
            return "0"
        return "+".join(str(c) if e == 0 else f"{c}*x^{e}"
                        for c, e in self.terms)

    def eval_idx(self, i: int) -> int:
        acc = 0
        for c, e in self.terms:
            acc = self.ctx.add_idx(acc, self.ctx.mul_idx(c, self.ctx.pow_idx(i, e)))
        return acc

    @cached_property
    def _logged(self) -> list[tuple[int, int, None]]:
        """The terms as a plan for _from_logs, the logs from one ctx.logs."""
        logs = self.ctx.logs(c for c, _ in self.terms)
        return [(logs[c], e, None) for c, e in self.terms]

    @cached_property
    def _plan(self) -> list[tuple[int, int, Callable | None]]:
        """_logged with each Frobenius orbit of exponents mod q - 1 of two or
        more terms merged into (0, e0, L): e0 is its least member in
        [1, q - 1] (0 for the constant, so x^(q-1) stays apart), and its
        terms c*x^(e0*p^k) sum to L(x^e0), L the GF(p)-linear y -> sum of
        c*y^(p^k), from L at the basis; one ctx.logs gives every log."""
        ctx, groups, plan = self.ctx, {}, []
        for c, e in self.terms:
            e0 = min(map_exp(ctx, map_exp(ctx, e) * ctx.p ** k) for k in range(ctx.n))
            groups.setdefault(e0, []).append((c, e))
        basis = ctx._p_pows if any(len(group) > 1 for group in groups.values()) else []
        logs = ctx.logs([c for c, _ in self.terms] + basis)
        basis = np.array([logs[b] for b in basis], dtype=np.int64)
        for e0, group in groups.items():
            part = [(logs[c], e, None) for c, e in group]
            if len(part) > 1:
                frob = {map_exp(ctx, e0 * ctx.p ** k): ctx.p ** k for k in range(ctx.n)}
                part = [(0, e0, ctx.linear_map(ctx._matrix(self._from_logs(
                    basis, [(lc, frob[map_exp(ctx, e)], None) for lc, e, _ in part]))))]
            plan += part
        return plan

    def _from_logs(self, lx: np.ndarray, plan, t=None, s=None, out=None) -> np.ndarray:
        """The sum of the plan's parts g^(lc + e*l) at the logs l in lx, each
        mapped by its L if it has one; t, s (int64) and out (exp's dtype, the
        first part's) are buffers, allocated if not given."""
        ctx, q1, acc = self.ctx, self.ctx.order - 1, None
        for lc, e, lin in plan:
            t = np.multiply(lx, e % q1, out=t, dtype=np.int64)
            t += lc
            s = np.floor_divide(t, q1, out=s)
            t -= np.multiply(s, q1, out=s)   # t % q1, in half the time
            part = ctx._exp.take(t, mode="clip", out=out if acc is None else None)
            part = part if lin is None else lin(part)
            acc = part if acc is None else ctx.vadd(acc, part)
        return np.zeros(np.shape(lx), dtype=np.int64) if acc is None else acc   # 0 has no terms

    def _images(self, dtype) -> np.ndarray:
        """The image of every point, of dtype, in log order: _from_logs of k
        for k over EVAL_CHUNK slices, with one set of buffers, scattered to
        exp[k]; orbits are merged when the field spans two or more chunks."""
        ctx, q1 = self.ctx, self.ctx.order - 1
        out = np.empty(ctx.order, dtype=dtype)
        plan = self._plan if ctx.n > ctx._chunk else self._logged
        k = np.arange(min(EVAL_CHUNK, q1), dtype=np.int64)
        t, s, idx = np.empty_like(k), np.empty_like(k), np.empty(k.size, dtype=np.intp)
        v = np.empty(k.size, dtype=ctx._exp.dtype)
        for lo in range(0, q1, k.size):
            m = min(k.size, q1 - lo)
            idx[:m] = ctx._exp[lo:lo + m]
            out[idx[:m]] = self._from_logs(k[:m], plan, t[:m], s[:m], v[:m])
            k += k.size
        out[0] = next((c for c, e in self.terms if e == 0), 0)   # the constant term
        return out

    @cached_property
    def _table(self) -> np.ndarray:
        """_images in int64, read-only: eval_vec hands out gathers of it."""
        table = self._images(np.int64)
        table.flags.writeable = False
        return table

    def eval_vec(self, xs: np.ndarray) -> np.ndarray:
        """Image of every index in xs, a fresh int64 array of xs's shape: a
        gather from _table on a field of at most CHUNK_POINTS points, else
        _from_logs of log[xs], with orbits merged when xs is as large as the
        tables and the field spans two or more chunks."""
        xs, ctx = np.asarray(xs, dtype=np.int64), self.ctx
        if ctx.order <= CHUNK_POINTS:
            return self._table[xs.ravel()].reshape(xs.shape)
        grouped = ctx.n > ctx._chunk and xs.size >= ctx._table_size
        acc = self._from_logs(ctx._log[xs.ravel()], self._plan if grouped else self._logged)
        return np.where(xs != 0, acc.reshape(xs.shape), np.int64(self.eval_idx(0)))

    def is_additive(self) -> bool:
        """True when every exponent is a power of the characteristic, which
        makes the induced map additive."""
        p = self.ctx.p
        for _, e in self.terms:
            if e == 0:
                return False
            while e % p == 0:
                e //= p
            if e != 1:
                return False
        return True

    def coeffs_in_subfield(self, sub_degree: int) -> bool:
        return all(self.ctx.frob_idx(c, sub_degree, 1) == c for c, _ in self.terms)

    def to_json(self) -> dict:
        return {"terms": [[c, e] for c, e in self.terms], "text": self.to_text()}


# ---------------------------------------------------------------------------
# symbolic combination (map-preserving)
# ---------------------------------------------------------------------------

POLY_TERM_CAP = 4096


def map_exp(ctx: FieldCtx, e: int) -> int:
    """Reduce a positive exponent mod (field size - 1) while keeping it
    positive, so x^e and the reduced monomial agree at 0 as well."""
    if e == 0:
        return 0
    return (e - 1) % (ctx.order - 1) + 1


def _merged(ctx: FieldCtx, raw: Iterable[tuple[int, int]]) -> SparsePoly:
    terms = [(c, map_exp(ctx, e)) for c, e in raw]
    if len(terms) > POLY_TERM_CAP:
        raise CapExceeded(f"symbolic expansion grew past {POLY_TERM_CAP} terms")
    return SparsePoly.make(ctx, terms)


def poly_add(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    if f.ctx.key != g.ctx.key:
        raise CtxMismatch("polynomials over different fields")
    return _merged(f.ctx, (*f.terms, *g.terms))


def poly_mul(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    if f.ctx.key != g.ctx.key:
        raise CtxMismatch("polynomials over different fields")
    if len(f.terms) * len(g.terms) > POLY_TERM_CAP:   # refuse before multiplying
        raise CapExceeded(f"symbolic expansion grew past {POLY_TERM_CAP} terms")
    ctx = f.ctx
    raw = [(ctx.mul_idx(c1, c2), e1 + e2)
           for c1, e1 in f.terms for c2, e2 in g.terms]
    return _merged(ctx, raw)


def poly_pow(f: SparsePoly, e: int) -> SparsePoly:
    if e < 0:
        raise BadParams("negative polynomial power")
    if len(f.terms) == 1:   # (c*x^d)^e = c^e * x^(d*e), no squaring
        (c, d), = f.terms
        return _merged(f.ctx, [(f.ctx.pow_idx(c, e), d * e)])
    acc = SparsePoly.make(f.ctx, [(1, 0)])
    base = f
    while e:
        if e & 1:
            acc = poly_mul(acc, base)
        e >>= 1
        if e:
            base = poly_mul(base, base)
    return acc


def poly_compose(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """f(g(x)) as a polynomial inducing the same map as the composite."""
    if f.ctx.key != g.ctx.key:
        raise CtxMismatch("polynomials over different fields")
    ctx = f.ctx
    acc = SparsePoly(ctx, ())
    for c, e in f.terms:
        term = poly_pow(g, e) if e else SparsePoly.make(ctx, [(1, 0)])
        acc = poly_add(acc, poly_mul(SparsePoly.make(ctx, [(c, 0)]), term))
    return acc


def poly_frob(f: SparsePoly, k: int) -> SparsePoly:
    """f(x)^(p^k): coefficients to the p^k, exponents scaled by p^k."""
    if k < 0:
        raise BadParams("negative Frobenius power")
    ctx = f.ctx
    t = pow(ctx.p, k)
    raw = [(ctx.pow_idx(c, t), e * t) for c, e in f.terms]
    return _merged(ctx, raw)


# ---------------------------------------------------------------------------
# materialized maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NotBijective:
    """Evidence that an image table is not a bijection."""

    missing: int                  # smallest index with no preimage
    collision: tuple[int, int]    # two distinct inputs with the same image

    def describe(self) -> str:
        a, b = self.collision
        return f"not a bijection: inputs {a} and {b} collide, {self.missing} unreached"


@dataclass(frozen=True)
class PermMap:
    """A bijection of the field, stored as an image table."""

    ctx: FieldCtx
    images: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermMap):
            return NotImplemented
        return self.ctx.key == other.ctx.key and bool(
            np.array_equal(self.images, other.images))


def _in_field(ctx: FieldCtx, images: np.ndarray) -> np.ndarray:
    if images.size and (images.min() < 0 or images.max() >= ctx.order):
        raise BadParams("map produced values outside the field")
    return images


def _checked_table(ctx: FieldCtx, fn) -> np.ndarray:
    """The image table of a PermMap or array in table_dtype, once it has
    one image per point, each inside the field; not copied when it is of
    table_dtype already.  A wider table is narrowed only after that check,
    so no value outside the field is wrapped into it."""
    if isinstance(fn, PermMap):
        if fn.ctx.key != ctx.key:
            raise BadParams("permutation belongs to a different field")
        table = fn.images
    else:
        table = np.asarray(fn)
        if table.dtype.kind not in "iu":   # floats and bools are read as int64
            table = table.astype(np.int64)
        if table.shape != (ctx.order,):
            raise BadParams(f"image table must have length {ctx.order}")
    return _in_field(ctx, table).astype(table_dtype(ctx.order), copy=False)


def as_vector_fn(ctx: FieldCtx, fn) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt a SparsePoly, PermMap, image table, or callable to a function
    on index arrays, so criteria can re-evaluate maps on subsets; the one
    place a map-like is checked.  A foreign polynomial, or a table that
    _checked_table rejects, raises BadParams when adapted; a callable's
    result must have its input's shape and lie inside the field, on every
    call, whatever the points."""
    if isinstance(fn, SparsePoly):
        if fn.ctx.key != ctx.key:
            raise BadParams("polynomial belongs to a different field")
        return fn.eval_vec
    if isinstance(fn, (PermMap, np.ndarray)):
        table = _checked_table(ctx, fn)
        return lambda xs: table[xs]
    if not callable(fn):
        raise BadParams(f"cannot evaluate a {type(fn).__name__} as a map")

    def checked(xs: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(xs), dtype=np.int64)
        if out.shape != np.shape(xs):
            raise BadParams("map did not return one image per point")
        return _in_field(ctx, out)

    return checked


def as_images(ctx: FieldCtx, fn) -> np.ndarray:
    """Materialize fn (anything as_vector_fn accepts) over the whole field
    as an image table of table_dtype; a table is checked by _checked_table,
    a polynomial is SparsePoly._images, and anything else is evaluated in
    slices of EVAL_CHUNK points, so no q-entry array but the result is held."""
    if isinstance(fn, (PermMap, np.ndarray)):
        return _checked_table(ctx, fn)
    vec = as_vector_fn(ctx, fn)
    if isinstance(fn, SparsePoly):   # of ctx's field, as as_vector_fn checked
        return fn._images(table_dtype(ctx.order))
    out = np.empty(ctx.order, dtype=table_dtype(ctx.order))
    for lo in range(0, ctx.order, EVAL_CHUNK):
        hi = min(lo + EVAL_CHUNK, ctx.order)
        out[lo:hi] = vec(np.arange(lo, hi, dtype=np.int64))
    return out


def first_index(ctx: FieldCtx, test) -> int | None:
    """The least index where test, a vectorized test on int64 index arrays,
    holds, or None: scanned in slices of EVAL_CHUNK points from 0, as
    as_images evaluates, up to the first slice with a hit."""
    for lo in range(0, ctx.order, EVAL_CHUNK):
        hits = np.flatnonzero(test(np.arange(lo, min(lo + EVAL_CHUNK, ctx.order))))
        if hits.size:
            return lo + int(hits[0])
    return None


def first_moved(ctx: FieldCtx, images: np.ndarray) -> int | None:
    """The least point that an image table does not fix, or None: each slice
    of the table, a view, is compared with the slice's own indices."""
    return first_index(ctx, lambda xs: images[xs[0]:xs[0] + xs.size] != xs)


def perm_from_images(ctx: FieldCtx, images) -> PermMap | NotBijective:
    """The permutation given by images (anything as_images accepts), or
    evidence that it is not a bijection: q images are a bijection when
    they reach every point, which a bool mark decides in 1 byte a point.
    The evidence is the least point not reached and the first two inputs
    whose image is the least one reached twice: the mark is refilled slice
    by slice to find it, so no whole-field copy is made."""
    images = as_images(ctx, images)
    seen = np.zeros(ctx.order, dtype=bool)
    seen[images] = True
    if seen.all():
        return PermMap(ctx, images)
    missing, dup = int(np.argmin(seen)), ctx.order
    seen[:] = False
    for lo in range(0, ctx.order, EVAL_CHUNK):
        part = np.sort(images[lo:lo + EVAL_CHUNK])
        again = seen[part] if lo else np.zeros(part.size, dtype=bool)   # in an earlier slice
        again[1:] |= part[1:] == part[:-1]   # or twice in this one
        dup = int(part[again].min(initial=dup))
        if lo + EVAL_CHUNK < ctx.order:
            seen[part] = True
    hits = (lo + np.flatnonzero(images[lo:lo + EVAL_CHUNK] == dup)
            for lo in range(0, ctx.order, EVAL_CHUNK))
    a, b = islice(chain.from_iterable(hits), 2)   # up to the slice of the second
    return NotBijective(missing, (int(a), int(b)))


def require_perm(ctx: FieldCtx, fn) -> PermMap:
    got = perm_from_images(ctx, fn)
    if isinstance(got, NotBijective):
        raise NotPermutation(got.describe())
    return got


def identity_perm(ctx: FieldCtx) -> PermMap:
    return PermMap(ctx, np.arange(ctx.order, dtype=table_dtype(ctx.order)))


def compose(f: PermMap, g: PermMap) -> PermMap:
    """f after g."""
    if f.ctx.key != g.ctx.key:
        raise CtxMismatch("maps over different fields")
    return PermMap(f.ctx, f.images[g.images])


def functional_power(f: PermMap, k: int) -> PermMap:
    """k-fold composition of f with itself, k >= 0."""
    if k < 0:
        raise BadParams(f"the power of a map must be >= 0, got {k}")
    r, b = None, f.images
    while k:
        if k & 1:
            r = b if r is None else b[r]
        k >>= 1
        if k:
            b = b[b]
    return identity_perm(f.ctx) if r is None else PermMap(f.ctx, r)


# ---------------------------------------------------------------------------
# cycle analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleReport:
    """Cycle decomposition summary of a full-field map."""

    bijective: bool
    order: int | None
    cycle_type: tuple[tuple[int, int], ...]   # (length, count), ascending
    fixed_points: int

    def to_json(self) -> dict:
        return {
            "bijective": self.bijective,
            "order": self.order,
            "cycle_type": [[l, c] for l, c in self.cycle_type],
            "fixed_points": self.fixed_points,
        }


def cycle_structure(pm: PermMap) -> CycleReport:
    """Cycle decomposition of a permutation by pointer jumping (Wyllie,
    1979).  label[x] is the least of the w points x, f(x), ..., f^(w-1)(x),
    first for w = 2; each round doubles w through jump = f^w, so about
    log2 of the longest cycle rounds are made.  The labels are final, each
    the least point of its cycle, once label is constant along f^s for an
    s dividing w (s = 1 first, then s = w): on a cycle of more than w
    points, the w points labelled with its least point form an arc that no
    such shift maps into itself.  Sorted in place, the labels run through
    each cycle once, and the run lengths are the cycle sizes.  Both the
    stop test and the run count go slice by slice, so f, label, jump and
    jump^2 (or label along jump) are the only whole-field arrays."""
    f, q = pm.images, pm.ctx.order
    label = identity_perm(pm.ctx).images
    np.minimum(label, f, out=label)
    slices = [slice(lo, lo + EVAL_CHUNK) for lo in range(0, q, EVAL_CHUNK)]
    if any((label[f[s]] != label[s]).any() for s in slices):
        jump = f[f]
        shifted = label[jump]
        while any((shifted[s] != label[s]).any() for s in slices):
            np.minimum(label, shifted, out=label)
            del shifted   # f, label, jump and jump^2: four tables at most
            jump = jump[jump]
            shifted = label[jump]
        del jump, shifted
    label.sort()
    # the runs, slice by slice: new holds the offsets from lo where a run
    # starts.  The runs between two of them are shorter than a slice and are
    # tallied in hist; the first run a slice closes, which may have begun
    # slices before, and the last run are tallied one by one in edge_runs
    hist, edge_runs, start = np.zeros(0, dtype=np.int64), [], 0
    for lo in range(1, q, EVAL_CHUNK):
        hi = min(lo + EVAL_CHUNK, q)
        new = (label[lo:hi] != label[lo - 1:hi - 1]).nonzero()[0]   # runs from lo + new
        if new.size:
            edge_runs.append(lo + new[0].item() - start)
            inner = np.bincount(new[1:] - new[:-1])
            if inner.size > hist.size:
                hist, inner = inner, hist
            hist[:inner.size] += inner
            start = lo + new[-1].item()
    edge_runs.append(q - start)
    sizes = hist.nonzero()[0]
    counts = dict(zip(sizes.tolist(), hist[sizes].tolist()))
    for length in edge_runs:
        counts[length] = counts.get(length, 0) + 1
    ctype = tuple(sorted(counts.items()))
    return CycleReport(True, lcm(*counts), ctype, counts.get(1, 0))


# bytes per point a whole-field cycle analysis holds at once (tracemalloc):
# four int32 arrays, the image table and the engine's label, jump and jump^2
# (or a composed power, its square and the last power); twice that for a
# field past 2^31 points, whose tables are int64
WHOLE_FIELD_BYTES = 16


def whole_field_budget(ctx: FieldCtx):
    """memory_budget for a map's image table and its cycle analysis, next
    to the field's tables, built or not: exp, log and the Zech table."""
    exp, wide = ctx._exp, np.dtype(table_dtype(ctx.order)).itemsize // 4
    tables = exp.nbytes * (2 if ctx.p == 2 or ctx.n == 1 else 3) + exp.itemsize   # log: q entries
    return memory_budget(f"the whole-field arrays of GF({ctx.p}^{ctx.n})",
                         WHOLE_FIELD_BYTES * ctx.order * wide + tables)


def cycle_report_for_fn(ctx: FieldCtx, fn) -> CycleReport:
    """Cycle report for an arbitrary map; non-bijections get order None.
    Refused with CapExceeded when whole_field_budget is not met."""
    with whole_field_budget(ctx):
        images = as_images(ctx, fn)
        got = perm_from_images(ctx, images)
        if isinstance(got, NotBijective):
            fixed = 0
            for lo in range(0, ctx.order, EVAL_CHUNK):
                part = images[lo:lo + EVAL_CHUNK]
                fixed += int(np.count_nonzero(part == np.arange(lo, lo + part.size)))
            return CycleReport(False, None, (), fixed)
        return cycle_structure(got)


def is_ncycle(pm: PermMap, n: int) -> bool:
    """True when the n-fold composition of the map is the identity, which
    first_moved checks slice by slice."""
    if n < 1:
        raise BadParams("n must be a positive integer")
    return first_moved(pm.ctx, functional_power(pm, n).images) is None
