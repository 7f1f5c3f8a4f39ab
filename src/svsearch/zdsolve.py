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
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, UsageError
from .ffield import LOG_TABLE_LIMIT, FieldCtx
from .mpoly import (
    MPoly,
    UPoly,
    count_rational_roots,
    is_squarefree,
    lift_with_embedding,
    rational_roots,
    resultant_y,
    resultant_y_general,
    upoly_deg,
    upoly_eval,
    upoly_gcd,
    upoly_trim,
)

GRID_LIMIT = 1 << 24
NUMPY_PRIME_LIMIT = 1 << 25


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


def _exhaustive_capacity(query: ZeroDimQuery) -> None:
    if query.ctx.q ** query.s > GRID_LIMIT:
        raise CapacityError(f"grid of {query.ctx.q ** query.s} points exceeds 2^24")


def _vector_path(ctx: FieldCtx) -> bool:
    if ctx.k == 1:
        return ctx.p <= NUMPY_PRIME_LIMIT
    return ctx.q <= LOG_TABLE_LIMIT


def _count_exhaustive(query: ZeroDimQuery) -> int:
    _exhaustive_capacity(query)
    ctx = query.ctx
    if _vector_path(ctx):
        return int(_grid_mask(query).sum())
    count = 0
    live = [f for f in query.polys if not f.is_zero()]
    for point in itertools.product(ctx.elements(), repeat=query.s):
        if all(f.evaluate(point, ctx) == 0 for f in live):
            count += 1
    return count


def _find_exhaustive(query: ZeroDimQuery) -> tuple[int, ...] | None:
    _exhaustive_capacity(query)
    ctx = query.ctx
    if _vector_path(ctx):
        mask = _grid_mask(query)
        flat = np.flatnonzero(mask.reshape(-1))
        if flat.size == 0:
            return None
        # C-order flattening: the first axis is the slowest-varying one
        point = []
        size = ctx.q ** query.s
        idx = int(flat[0])
        for _ in range(query.s):
            size //= ctx.q
            point.append(idx // size)
            idx %= size
        return tuple(point)
    live = [f for f in query.polys if not f.is_zero()]
    for point in itertools.product(ctx.elements(), repeat=query.s):
        if all(f.evaluate(point, ctx) == 0 for f in live):
            return tuple(point)
    return None


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


def _count_common_y(fx: UPoly, gx: UPoly, ctx: FieldCtx) -> int:
    """Number of common Y-roots of two specialized univariates."""
    if not fx and not gx:
        return ctx.q
    if not fx:
        return count_rational_roots(gx, ctx) if upoly_deg(gx) >= 1 else 0
    if not gx:
        return count_rational_roots(fx, ctx) if upoly_deg(fx) >= 1 else 0
    g = upoly_gcd(fx, gx, ctx)
    return count_rational_roots(g, ctx) if upoly_deg(g) >= 1 else 0


def _common_y_roots(fx: UPoly, gx: UPoly, ctx: FieldCtx) -> list[int]:
    if not fx and not gx:
        return list(ctx.elements())
    if not fx:
        return sorted(rational_roots(gx, ctx)) if upoly_deg(gx) >= 1 else []
    if not gx:
        return sorted(rational_roots(fx, ctx)) if upoly_deg(fx) >= 1 else []
    g = upoly_gcd(fx, gx, ctx)
    return sorted(rational_roots(g, ctx)) if upoly_deg(g) >= 1 else []


def _resultant_candidates(query: ZeroDimQuery) -> tuple[list[int] | None, list[list[UPoly]]]:
    """Candidate first coordinates for common zeros, or None for "all".

    A rational common zero (x, y) must have x among the rational roots of
    the resultant, or make both leading Y-coefficients vanish; when the
    resultant vanishes identically (shared factor) every x qualifies.
    """
    ctx = query.ctx
    live = [f for f in query.polys if not f.is_zero()]
    coeff_lists = [f.coeffs_in_last_var(ctx) for f in live]
    if len(live) == 0:
        return None, coeff_lists
    if len(live) == 1:
        return None, coeff_lists
    f, g = live
    if all(c == 0 for c in (f.degree, g.degree)):
        # nonzero constants: no zeros anywhere
        return [], coeff_lists
    fc, gc = coeff_lists
    n, m = len(fc) - 1, len(gc) - 1
    if n == 0 and m == 0:
        # both constant in Y: candidates are the common roots in X
        fx, gx = _poly_as_upoly_in_x(f), _poly_as_upoly_in_x(g)
        if upoly_deg(fx) < 1 and upoly_deg(gx) < 1:
            return [], coeff_lists
        u = upoly_gcd(fx, gx, ctx)
        return (sorted(rational_roots(u, ctx)) if upoly_deg(u) >= 1 else []), coeff_lists
    if n == 0:
        fx = _poly_as_upoly_in_x(f)
        if upoly_deg(fx) < 1:
            return [], coeff_lists  # nonzero constant
        return sorted(rational_roots(fx, ctx)), coeff_lists
    if m == 0:
        gx = _poly_as_upoly_in_x(g)
        if upoly_deg(gx) < 1:
            return [], coeff_lists
        return sorted(rational_roots(gx, ctx)), coeff_lists
    res = resultant_y(f, g, ctx)
    if not res:
        return None, coeff_lists  # shared factor: scan every x
    cands = set(rational_roots(res, ctx)) if upoly_deg(res) >= 1 else set()
    lcf, lcg = fc[n], gc[m]
    if upoly_deg(lcf) >= 1 and upoly_deg(lcg) >= 1:
        shared = upoly_gcd(lcf, lcg, ctx)
        if upoly_deg(shared) >= 1:
            cands |= rational_roots(shared, ctx)
    return sorted(cands), coeff_lists


def _resultant_precheck(query: ZeroDimQuery) -> None:
    if query.s != 2:
        raise CapacityError("resultant backend supports s = 2 only")


def _count_resultant(query: ZeroDimQuery) -> int:
    _resultant_precheck(query)
    ctx = query.ctx
    cands, coeff_lists = _resultant_candidates(query)
    live = coeff_lists
    if len(live) == 0:
        return ctx.q ** 2
    if len(live) == 1:
        fc = live[0]
        total = 0
        for x in ctx.elements():
            fx = _specialized_y_poly(fc, x, ctx)
            if not fx:
                total += ctx.q
            elif upoly_deg(fx) >= 1:
                total += count_rational_roots(fx, ctx)
        return total
    fc, gc = live
    xs = ctx.elements() if cands is None else cands
    total = 0
    for x in xs:
        fx = _specialized_y_poly(fc, x, ctx)
        gx = _specialized_y_poly(gc, x, ctx)
        total += _count_common_y(fx, gx, ctx)
    return total


def _find_resultant(query: ZeroDimQuery) -> tuple[int, ...] | None:
    _resultant_precheck(query)
    ctx = query.ctx
    cands, coeff_lists = _resultant_candidates(query)
    live = coeff_lists
    if len(live) == 0:
        return (0, 0)
    if len(live) == 1:
        fc = live[0]
        for x in ctx.elements():
            fx = _specialized_y_poly(fc, x, ctx)
            if not fx:
                return (x, 0)
            if upoly_deg(fx) >= 1:
                roots = rational_roots(fx, ctx)
                if roots:
                    return (x, min(roots))
        return None
    fc, gc = live
    xs = ctx.elements() if cands is None else cands
    for x in xs:
        fx = _specialized_y_poly(fc, x, ctx)
        gx = _specialized_y_poly(gc, x, ctx)
        ys = _common_y_roots(fx, gx, ctx)
        if ys:
            return (x, ys[0])
    return None


# ---------------------------------------------------------------------------
# public solving API

BACKENDS = ("exhaustive", "resultant")


def count_zeros(query: ZeroDimQuery, backend: str = "exhaustive") -> int:
    """Exact number of common rational zeros."""
    if backend == "exhaustive":
        return _count_exhaustive(query)
    if backend == "resultant":
        return _count_resultant(query)
    raise UsageError(f"unknown backend {backend!r}")


def find_zero(query: ZeroDimQuery, backend: str = "exhaustive") -> tuple[int, ...] | None:
    """Some common rational zero, deterministically chosen, or None.

    Exhaustive returns the first zero in row-major grid order; the
    resultant backend returns the zero with smallest first coordinate,
    breaking ties by the second.  Every returned point is re-checked
    against all polynomials before being handed back.
    """
    if backend == "exhaustive":
        point = _find_exhaustive(query)
    elif backend == "resultant":
        point = _find_resultant(query)
    else:
        raise UsageError(f"unknown backend {backend!r}")
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
        return _count_exhaustive(query)
    ext, embed, _ = lift_with_embedding(ctx, e)
    if embed is None:
        lifted = query.polys  # prime base: encodings agree
    else:
        lifted = tuple(
            MPoly(f.nvars, tuple((exps, embed(c)) for exps, c in f.terms)) for f in query.polys
        )
    lifted_query = ZeroDimQuery(ext, query.s, lifted, query.dmax)
    return _count_exhaustive(lifted_query)


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
