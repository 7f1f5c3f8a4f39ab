"""Zero-dimensional solving over a finite field.

Two backends find/count common rational zeros of s polynomials in s
variables: an exhaustive grid scan (vectorized, in the log domain over
extension fields) and, for s = 2, an elimination backend that projects
through the resultant and lifts candidate first coordinates.  On top of
these sit the sufficient certificate for "the specialized system is as
transverse as its degrees allow" and exact point-counting oracles over
extension fields.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, UsageError
from .ffield import LOG_TABLE_LIMIT, FieldCtx
from .mpoly import MPoly, lift_with_embedding, rational_roots, resultant_y, resultant_y_general
from .upoly import UPoly, is_squarefree, upoly_deg, upoly_eval, upoly_gcd, upoly_trim

GRID_LIMIT = 1 << 24
ZERO_CHUNK = 1 << 14  # grid cells searched for zeros at a time


@dataclass(frozen=True)
class ZeroDimQuery:
    """s polynomials in s variables with a degree bound."""

    ctx: FieldCtx
    s: int
    polys: tuple[MPoly, ...]
    dmax: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise UsageError("need at least one variable")
        if len(self.polys) != self.s:
            raise UsageError(f"expected {self.s} polynomials, got {len(self.polys)}")
        for f in self.polys:
            if f.nvars != self.s:
                raise UsageError("polynomial variable count must equal s")
            if f.degree > self.dmax:
                raise UsageError("polynomial degree exceeds dmax")


@dataclass(frozen=True)
class CertResult:
    """Outcome of the sufficient transversality certificate (s = 2).

    certified implies resultant_degree == dmax^2 and squarefree; the
    converse direction makes no claim (not_certified is not a proof of a
    degenerate system).
    """

    verdict: str  # "certified" | "not_certified"
    resultant_degree: int
    squarefree: bool


# ---------------------------------------------------------------------------
# exhaustive backend


def _grid_values_numpy(f: MPoly, p: int, s: int, maxdeg: int) -> np.ndarray:
    """Values of f over the full grid as an int64 array of shape (p,) * s."""
    xs = np.arange(p, dtype=np.int64)
    pow_tab = np.empty((maxdeg + 1, p), dtype=np.int64)
    pow_tab[0] = 1
    for e in range(1, maxdeg + 1):
        pow_tab[e] = pow_tab[e - 1] * xs % p
    if s == 2:
        cmat = np.zeros((maxdeg + 1, maxdeg + 1), dtype=np.int64)
        for (e0, e1), c in f.terms:
            cmat[e0, e1] = c
        left = pow_tab.T @ cmat % p  # (p, maxdeg + 1)
        return left @ pow_tab % p  # (p, p)
    vals = np.zeros((p,) * s, dtype=np.int64)
    for exps, c in f.terms:
        term = None
        for axis, e in enumerate(exps):
            shape = [1] * s
            shape[axis] = p
            factor = pow_tab[e].reshape(shape)
            term = factor if term is None else (term * factor % p)
        vals += term * c % p
        vals %= p
    return vals


def _grid_values_log(f: MPoly, ctx: FieldCtx, s: int, maxdeg: int) -> np.ndarray:
    """Grid values for an extension field, computed in the log domain.

    Terms are grouped by their exponents in the first s-1 variables.  Each
    group's univariate in the last variable is evaluated along one axis,
    then the group's log over the grid is the broadcast sum of that line's
    logs and e*log x on the other axes: one gather from exp per group.
    Zero has the log `zero`, which lands every sum that contains it in the
    zero-filled tail of exp.
    """
    tabs = ctx.log_tables
    order = ctx.q - 1
    span = s + 1  # no sum below adds more than this many logs
    zero = span * order  # above every sum of logs of nonzero elements
    exp = np.zeros(span * zero + 1, dtype=np.int32)
    exp[:zero] = np.tile(tabs.exp[:order], span)
    log = np.array(tabs.log, dtype=np.int64)
    log[0] = zero
    log_pow = np.outer(np.arange(maxdeg + 1), log) % order  # log of x^e
    log_pow[1:, 0] = zero
    # add(a, b) returns a + b and may overwrite a
    if ctx.p == 2:

        def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.bitwise_xor(a, b, out=a)

    else:
        # zech[n] = log(1 + g^n) for every n in [0, 2*zero], so that
        # zech[lb - la + zero] needs no reduction mod q - 1
        zech = np.tile(np.array(tabs.zech, dtype=np.int64), 2 * span + 1)
        zech[zech < 0] = zero

        def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            la, diff = log[a], log[b]
            diff += zero
            diff -= la
            total = exp[la + zech[diff]]
            return np.where(a == 0, b, np.where(b == 0, a, total))

    lines: dict[tuple[int, ...], np.ndarray] = {}
    for exps, c in f.terms:
        head = exps[:-1]
        line = exp[log[c] + log_pow[exps[-1]]]
        lines[head] = add(lines[head], line) if head in lines else line
    vals = None
    for head, line in lines.items():
        idx = log[line].reshape((1,) * (s - 1) + (-1,))
        for axis, e in enumerate(head):
            if e:
                shape = [1] * s
                shape[axis] = -1
                idx = idx + log_pow[e].reshape(shape)
        group = exp[np.broadcast_to(idx, (ctx.q,) * s)]
        vals = group if vals is None else add(vals, group)
    return vals


def _grid_mask(query: ZeroDimQuery) -> np.ndarray:
    """Boolean grid of common zeros (vectorized paths)."""
    ctx = query.ctx
    q = ctx.q
    maxdeg = max((f.degree for f in query.polys if not f.is_zero()), default=0)
    maxdeg = max(maxdeg, 0)
    mask = None
    for f in query.polys:
        if f.is_zero():
            continue
        if ctx.k == 1:
            m = _grid_values_numpy(f, ctx.p, query.s, maxdeg) == 0
        else:
            m = _grid_values_log(f, ctx, query.s, maxdeg) == 0
        mask = m if mask is None else (mask & m)
        if not mask.any():
            break
    if mask is None:
        mask = np.ones((q,) * query.s, dtype=bool)
    return mask


def _vector_path(ctx: FieldCtx) -> bool:
    return ctx.k == 1 or ctx.q <= LOG_TABLE_LIMIT


def _zeros_exhaustive(query: ZeroDimQuery) -> Iterator[tuple[int, ...]]:
    """Common zeros in row-major grid order (first coordinate slowest)."""
    ctx = query.ctx
    if ctx.q ** query.s > GRID_LIMIT:
        raise CapacityError(f"grid of {ctx.q ** query.s} points exceeds 2^24")
    if _vector_path(ctx):
        mask = _grid_mask(query).ravel()
        shape = (ctx.q,) * query.s
        # fixed chunks of cells: counting never holds every zero at once
        for start in range(0, mask.size, ZERO_CHUNK):
            flat = np.flatnonzero(mask[start : start + ZERO_CHUNK])
            if flat.size:
                coords = np.unravel_index(flat + start, shape)
                yield from zip(*(axis.tolist() for axis in coords))
        return
    live = [f for f in query.polys if not f.is_zero()]
    for point in itertools.product(ctx.elements(), repeat=query.s):
        if all(f.evaluate(point, ctx) == 0 for f in live):
            yield point


# ---------------------------------------------------------------------------
# resultant backend (s = 2)


def _poly_as_upoly_in_x(f: MPoly) -> UPoly:
    """A bivariate polynomial that is constant in Y, as a UPoly in X."""
    coeffs: dict[int, int] = {}
    for (ex, ey), c in f.terms:
        if ey != 0:
            raise AssertionError(f"term X^{ex} Y^{ey} depends on Y")
        coeffs[ex] = c
    deg = max(coeffs, default=-1)
    return upoly_trim([coeffs.get(i, 0) for i in range(deg + 1)])


def _specialized_y_poly(fc: list[UPoly], x: int, ctx: FieldCtx) -> UPoly:
    return upoly_trim([upoly_eval(cj, x, ctx) for cj in fc])


def _common_y_roots(fx: UPoly, gx: UPoly, ctx: FieldCtx) -> list[int]:
    if not fx and not gx:
        return list(ctx.elements())
    if not fx:
        return sorted(rational_roots(gx, ctx)) if upoly_deg(gx) >= 1 else []
    if not gx:
        return sorted(rational_roots(fx, ctx)) if upoly_deg(fx) >= 1 else []
    g = upoly_gcd(fx, gx, ctx)
    return sorted(rational_roots(g, ctx)) if upoly_deg(g) >= 1 else []


def _resultant_candidates(
    live: list[MPoly], coeff_lists: list[list[UPoly]], ctx: FieldCtx
) -> list[int] | None:
    """Candidate first coordinates for common zeros, or None for "all".

    A rational common zero (x, y) must have x among the rational roots of
    the resultant.  That holds also where both leading Y-coefficients
    vanish at x: there the first column of the Sylvester matrix is zero,
    so the resultant vanishes at x too.  When the resultant vanishes
    identically (shared factor) every x qualifies.  A polynomial constant
    in Y confines x to the roots of its X-part.
    """
    if len(live) < 2:
        return None
    for f, fc in zip(live, coeff_lists):
        if len(fc) == 1:
            fx = _poly_as_upoly_in_x(f)
            return sorted(rational_roots(fx, ctx)) if upoly_deg(fx) >= 1 else []
    f, g = live
    res = resultant_y(f, g, ctx)
    if not res:
        return None  # shared factor: scan every x
    return sorted(rational_roots(res, ctx)) if upoly_deg(res) >= 1 else []


def _zeros_resultant(query: ZeroDimQuery) -> Iterator[tuple[int, ...]]:
    """Common zeros ordered by first coordinate, then by second (s = 2)."""
    if query.s != 2:
        raise CapacityError("resultant backend supports s = 2 only")
    ctx = query.ctx
    live = [f for f in query.polys if not f.is_zero()]
    coeff_lists = [f.coeffs_in_last_var(ctx) for f in live]
    cands = _resultant_candidates(live, coeff_lists, ctx)
    # a zero polynomial imposes nothing: it specializes to ()
    fc, gc = coeff_lists + [[]] * (2 - len(live))
    for x in ctx.elements() if cands is None else cands:
        fx = _specialized_y_poly(fc, x, ctx)
        gx = _specialized_y_poly(gc, x, ctx)
        for y in _common_y_roots(fx, gx, ctx):
            yield (x, y)


# ---------------------------------------------------------------------------
# public solving API

_ENUMERATORS = {"exhaustive": _zeros_exhaustive, "resultant": _zeros_resultant}
BACKENDS = tuple(_ENUMERATORS)


def _zeros(query: ZeroDimQuery, backend: str) -> Iterator[tuple[int, ...]]:
    if backend not in _ENUMERATORS:
        raise UsageError(f"unknown backend {backend!r}")
    return _ENUMERATORS[backend](query)


def count_zeros(query: ZeroDimQuery, backend: str = "exhaustive") -> int:
    """Exact number of common rational zeros."""
    return sum(1 for _ in _zeros(query, backend))


def find_zero(query: ZeroDimQuery, backend: str = "exhaustive") -> tuple[int, ...] | None:
    """Some common rational zero, deterministically chosen, or None.

    Exhaustive returns the first zero in row-major grid order; the
    resultant backend returns the zero with smallest first coordinate,
    breaking ties by the second.  Every returned point is re-checked
    against all polynomials before being handed back.
    """
    point = next(_zeros(query, backend), None)
    if point is not None:
        ctx = query.ctx
        for f in query.polys:
            if f.evaluate(point, ctx) != 0:
                raise AssertionError(f"backend {backend} returned a non-zero: {point}")
    return point


# ---------------------------------------------------------------------------
# transversality certificate (s = 2)


def cond_h_certificate(query: ZeroDimQuery) -> CertResult:
    """Sufficient check that the pair cuts out dmax^2 distinct points.

    certified requires: both leading Y-coefficients are nonzero
    constants, and the Y-resultant has degree exactly dmax^2 and is
    squarefree.  A squarefree eliminant of maximal degree pins down
    dmax^2 distinct projections, each carrying at least one point of the
    variety, while the degree bound caps the total at dmax^2; hence the
    variety consists of exactly dmax^2 distinct points and the pair is as
    regular as its degrees allow.  not_certified makes no claim.
    """
    if query.s != 2:
        raise UsageError("certificate supports s = 2 only")
    ctx = query.ctx
    d = query.dmax
    f, g = query.polys
    if f.is_zero() or g.is_zero():
        return CertResult("not_certified", -1, False)
    res = resultant_y_general(f, g, ctx)
    if res is None or not res:
        return CertResult("not_certified", -1, False)
    deg = upoly_deg(res)
    sqfree = is_squarefree(res, ctx) if res else False
    fc = f.coeffs_in_last_var(ctx)
    gc = g.coeffs_in_last_var(ctx)
    gate = True
    for cl in (fc, gc):
        if len(cl) - 1 < 1:  # constant in Y
            gate = False
        elif upoly_deg(cl[-1]) != 0:  # leading Y-coefficient not constant
            gate = False
    verdict = "certified" if (gate and deg == d * d and sqfree) else "not_certified"
    return CertResult(verdict, deg, sqfree)


# ---------------------------------------------------------------------------
# extension-field counting oracles


def count_zeros_ext(query: ZeroDimQuery, e: int) -> int:
    """Common zeros with coordinates in the degree-e extension."""
    if e < 1:
        raise UsageError("extension degree must be >= 1")
    ctx = query.ctx
    if (ctx.q ** e) ** query.s > GRID_LIMIT:
        raise CapacityError("extension grid exceeds 2^24 points")
    if e == 1:
        return count_zeros(query)
    ext, embed, _ = lift_with_embedding(ctx, e)
    if embed is None:
        lifted = query.polys  # prime base: encodings agree
    else:
        lifted = tuple(
            MPoly(f.nvars, tuple((exps, embed(c)) for exps, c in f.terms)) for f in query.polys
        )
    lifted_query = ZeroDimQuery(ext, query.s, lifted, query.dmax)
    return count_zeros(lifted_query)


def _mobius(n: int) -> int:
    out = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    if n > 1:
        out = -out
    return out


def distinct_geometric_points(query: ZeroDimQuery) -> int:
    """Number of distinct zeros over the algebraic closure.

    Counts rational points over every extension up to degree dmax^s and
    inverts the divisibility relation: the orbits of size e are
    (1/e) * sum over f | e of mobius(f) * N(e/f).  Valid because a finite
    zero set cut out by these degrees has all its points in extensions of
    degree at most dmax^s.
    """
    bound = query.dmax ** query.s
    if bound > 8:
        raise CapacityError(f"closure counting needs dmax^s <= 8, got {bound}")
    counts = {e: count_zeros_ext(query, e) for e in range(1, bound + 1)}
    for e, n_e in counts.items():
        for e2, n_e2 in counts.items():
            if e2 % e == 0 and n_e > n_e2:
                raise AssertionError("point counts must grow along divisibility")
    total = 0
    for e in range(1, bound + 1):
        orbit_sum = sum(_mobius(f) * counts[e // f] for f in range(1, e + 1) if e % f == 0)
        if orbit_sum < 0 or orbit_sum % e != 0:
            raise AssertionError("inconsistent orbit counts")
        total += orbit_sum
    return total
