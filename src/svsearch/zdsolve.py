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

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .errors import CapacityError, UsageError
from .ffield import LOG_TABLE_LIMIT, FieldCtx, factor
from .mpoly import (MPoly, _power_table, cell_array, check_polys, lift_with_embedding, monomials, polys_from_slots,
                    rational_roots, resultant_y, slot_array, y_poly_at)
from .upoly import UPoly, is_squarefree, upoly_deg, upoly_gcd_unchecked, upoly_trim

GRID_LIMIT = 1 << 24


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
        check_polys(self.polys, self.s, self.s, self.dmax)

    @cached_property
    def _resultant(self) -> UPoly | None:
        """`resultant_y_general` of the pair (s = 2), computed once for the
        certificate and the resultant backend, which both read it."""
        return resultant_y_general(*self.polys, self.ctx)


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


def _exact_float(p: int, terms: int) -> type[np.floating]:
    """The narrowest float type whose top binade [2^(m-1), 2^m) holds every
    biased sum of `terms` products of balanced residues mod p (see
    `_GridEval`): 2 * terms * (p // 2)^2 + p < 2^(m-1), m = 24 or 53."""
    for dtype in (np.float32, np.float64):
        if 2 * terms * (p // 2) ** 2 + p < 2 ** np.finfo(dtype).nmant:
            return dtype
    raise CapacityError(f"{terms} products of residues mod {p} exceed float64's exact 2^52 binade")


class _GridEval:
    """Values of polynomials of degree <= maxdeg on the grid GF(q)^s.

    A cell is (prefix, x): prefix is its first s-1 coordinates, with
    row-major index in [0, q^(s-1)), and the cell's flat index is
    prefix*q + x.  Grouping terms by their head, the exponents of the
    prefix, f = sum over heads h of prefix^h * line_h(x), the heads in
    `mpoly.cell_array` order (the constant head 1 last).  `head` holds
    prefix^h at every prefix (q^(s-1) x H).  Every line_h at every x
    (H x q) comes from `slot_lines`, for all polynomials at once: their
    cell arrays times `tab`, row t for x^(maxdeg - t).  A slab is `rows`
    whole lines, about 2^17 cells over GF(p) and 2^14 in the log domain.

    Over GF(p) both are balanced residues, at most b = p // 2 in size, in
    the float type `_exact_float` picks, with m significand bits; T is
    2^(m-1).  The line of head 1 also carries a bias beta, for every
    polynomial, so a slab (one matmul into a buffer the evaluator owns)
    or an `at` value is v + beta, where v is congruent to f mod p and
    |v| <= H*b^2.
    Exact: each product is an integer, and any partial sum of the H
    products is either at most H*b^2 in size or, once it holds the
    biased one, beta plus at most H*b^2 in size; beta lies in
    [T + H*b^2, T + H*b^2 + p), so both stay below 2^m by
    `_exact_float`'s bound 2*H*b^2 + p < T.  In the binade: for the same
    reason the final value lies in [T, 2^m), where the integers are
    exactly the floats, so its bit pattern, read as a w-bit unsigned
    integer, is bits(T) + value - T.  beta is congruent to T - bits(T)
    mod p, so the pattern is congruent to v.  The test: for odd p,
    multiplying by p^-1 mod 2^w is a bijection of the w-bit integers that
    maps the multiples kp, k <= L = (2^w - 1) // p, onto [0, L], so a
    pattern is 0 mod p exactly when its product is at most L.  For p = 2,
    the product by 2^(w-1) is 0 exactly for even patterns.  Over GF(p^k) heads and
    lines are logs, with `zero_log` standing for log 0, and a value adds
    up the groups exp[head + line].
    """

    def __init__(self, ctx: FieldCtx, s: int, maxdeg: int) -> None:
        q = self.q = ctx.q
        self.p, self.prime, self.s, self.maxdeg = ctx.p, ctx.k == 1, s, maxdeg
        heads = monomials(s - 1, maxdeg)
        self.rows = max(1, min(q ** (s - 1), (1 << (17 if self.prime else 14)) // q))
        if self.prime:
            dtype = self.dtype = _exact_float(ctx.p, len(heads))
            bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
            width, top = 8 * bits.itemsize, 1 << np.finfo(dtype).nmant
            low = top + len(heads) * (ctx.p // 2) ** 2
            self.beta = low + (top - int(np.array(top, dtype=dtype).view(bits)) - low) % ctx.p
            # (x + half) mod p - half is x balanced; (p - 1) // 2 keeps 1 at 1 for p = 2
            self.half = (ctx.p - 1) // 2
            self._shift = np.full((len(heads), 1), -self.half, dtype=np.int64)
            self._shift[-1] += self.beta  # the bias rides on head 1's line
            self.p_inv = bits.type(pow(ctx.p, -1, 1 << width) if ctx.p % 2 else 1 << (width - 1))
            self.p_most = bits.type(((1 << width) - 1) // ctx.p if ctx.p % 2 else 0)
            self._vals = np.empty(self.rows * q, dtype=dtype)
            self._mask = np.empty(self.rows * q, dtype=bool)
            self.tab = _power_table(ctx.p, maxdeg + 1, q)[::-1].copy()  # x^(maxdeg - t)
        else:
            tabs = ctx.log_tables
            order = q - 1
            span = s + 1  # no sum below adds more than this many logs
            zero = self.zero_log = span * order  # above every sum of logs of nonzero elements
            self.exp = np.zeros(span * zero + 1, dtype=np.int32)
            self.exp[:zero] = np.tile(tabs.exp[:order], span)
            self.log = np.array(tabs.log, dtype=np.int64)
            self.log[0] = zero
            self.tab = np.outer(np.arange(maxdeg, -1, -1), self.log) % order  # log of x^(maxdeg - t)
            self.tab[:-1, 0] = zero
            if ctx.p != 2:
                # zech[n] = log(1 + g^n) for every n in [0, 2*zero], so that
                # zech[lb - la + zero] needs no reduction mod q - 1
                self.zech = np.tile(np.array(tabs.zech, dtype=np.int64), 2 * span + 1)
                self.zech[self.zech < 0] = zero
        # prefix^h at every prefix, one coordinate at a time (H x q^axis)
        tab_rows = maxdeg - np.array(heads, dtype=np.int64).reshape(len(heads), s - 1)
        head = np.full((len(heads), 1), int(self.prime), dtype=np.int64)  # 1, or its log 0
        for axis in range(s - 1):
            factor = self.tab[tab_rows[:, axis]][:, None, :]
            head = head[:, :, None] * factor % ctx.p if self.prime else head[:, :, None] + factor
            head = head.reshape(len(heads), -1)
        self.head = ((head.T + self.half) % ctx.p - self.half).astype(self.dtype) if self.prime else head.T

    def _add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a + b over GF(p^k); may overwrite a."""
        if self.p == 2:
            return np.bitwise_xor(a, b, out=a)
        la, diff = self.log[a], self.log[b]
        diff += self.zero_log
        diff -= la
        total = self.exp[la + self.zech[diff]]
        return np.where(a == 0, b, np.where(b == 0, a, total))

    def slot_lines(self, slots: np.ndarray) -> np.ndarray:
        """line_h(x) of every polynomial in slots (one row each by slot of
        `monomials(s, maxdeg)`) for every head h and every x, as an
        n x H x q array: balanced residues, beta added to head 1's line,
        over GF(p), logs over GF(p^k)."""
        cmat = cell_array(slots, self.s, self.maxdeg)
        if self.prime:
            lines = cmat @ self.tab + self.half
            lines %= self.p
            lines += self._shift
            return lines.astype(self.dtype)
        # the sum over the tail slots t of c * x^(maxdeg - t), with the t axis first
        logs = self.log[cmat].transpose(2, 0, 1)[..., None]
        tab = self.tab[:, None, None, :]
        return self.log[self._log_sum(self.exp[logs[0] + tab[0]], logs[1:], tab[1:])]

    def _log_sum(self, vals: np.ndarray, heads: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """vals plus the groups exp[head + line]; may overwrite vals."""
        for h, line in zip(heads, lines):
            vals = self._add(vals, self.exp[h + line])
        return vals

    def slab(self, lines: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Values at the cells with prefix in [lo, hi), shape (hi - lo, q)."""
        if self.prime:
            out = self._vals[: (hi - lo) * self.q].reshape(hi - lo, self.q)
            return np.matmul(self.head[lo:hi], lines, out=out)
        # head 1 has log 0, so its group is the line itself
        first = np.tile(self.exp[lines[-1]], (hi - lo, 1))
        return self._log_sum(first, self.head[lo:hi, :-1].T[:, :, None], lines[:-1, None, :])

    def at(self, lines: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Values at the given flat cell indices."""
        prefix, x = np.divmod(cells, self.q)
        heads, lines = self.head[prefix].T, lines[:, x]
        if self.prime:
            return (heads * lines).sum(axis=0)
        return self._log_sum(self.exp[lines[-1]], heads[:-1], lines[:-1])

    def zero(self, vals: np.ndarray) -> np.ndarray:
        """Mask of the values (at most a slab) that are 0 in the field,
        valid until the next call; over GF(p) it overwrites vals."""
        if not self.prime:
            return vals == 0
        bits = vals.view(self.p_inv.dtype)
        bits *= self.p_inv
        return np.less_equal(bits, self.p_most, out=self._mask[: vals.size].reshape(vals.shape))


# every trial of an experiment scans grids of one field, s and degree
_grid_eval = lru_cache(maxsize=1)(_GridEval)


def _zeros_exhaustive(query: ZeroDimQuery) -> Iterator[tuple[int, ...]]:
    """Common zeros in row-major grid order (first coordinate slowest).

    The grid is walked in slabs of the evaluator's `rows` whole lines of
    the last coordinate, in prefix order.  The first polynomial is
    evaluated on the slab, each later one only at the cells where all
    before it vanish, and a slab's zeros are yielded before the next slab
    is computed: a search stops at the first slab that holds one.
    """
    ctx = query.ctx
    q, s = ctx.q, query.s
    if q ** s > GRID_LIMIT:
        raise CapacityError(f"grid of {q ** s} points exceeds 2^24")
    if ctx.k > 1 and q > LOG_TABLE_LIMIT:
        raise CapacityError(f"GF({q}) has no log tables (they stop at 2^16 elements) for a grid scan")
    polys = sorted(query.polys, key=MPoly.is_zero)  # a zero polynomial imposes nothing: last
    grid = _grid_eval(ctx, s, query.dmax)
    first, *rest = grid.slot_lines(slot_array(polys, query.dmax))
    prefixes, step = q ** (s - 1), grid.rows
    for lo in range(0, prefixes, step):
        cells = lo * q + np.flatnonzero(grid.zero(grid.slab(first, lo, min(lo + step, prefixes))))
        for lines in rest:
            cells = cells[grid.zero(grid.at(lines, cells))]
        yield from zip(*(axis.tolist() for axis in np.unravel_index(cells, (q,) * s)))


# ---------------------------------------------------------------------------
# resultant backend (s = 2)


def _roots(f: UPoly, ctx: FieldCtx) -> Iterator[int]:
    """Where a trimmed f vanishes, in ascending order: its rational roots,
    or every element for the zero polynomial.  That walk is produced
    lazily and refused past its first max(1, GRID_LIMIT // q) elements,
    as many cells as the grid scan may visit, when it reaches them."""
    if f:
        yield from sorted(rational_roots(f, ctx)) if upoly_deg(f) >= 1 else ()
        return
    cap = max(1, GRID_LIMIT // ctx.q)
    yield from islice(ctx.elements(), cap)
    if cap < ctx.q:
        raise CapacityError(f"a vanishing polynomial walks past {cap} of GF({ctx.q}): over 2^24 cells")


def resultant_y_general(f: MPoly, g: MPoly, ctx: FieldCtx) -> UPoly | None:
    """resultant_y extended to the two pairs it refuses: Res(0, g) = 0,
    and None when both inputs are constant in Y (no meaningful
    eliminant).  A pair with one side c constant in Y needs no rule of
    its own: `resultant_y` gives c^deg_Y(other).

    The one place that decides degenerate pairs.
    """
    if f.is_zero() or g.is_zero():
        return ()
    if len(f.y_matrix) == 1 and len(g.y_matrix) == 1:
        return None
    return resultant_y(f, g, ctx)


def _zeros_resultant(query: ZeroDimQuery) -> Iterator[tuple[int, ...]]:
    """Common zeros ordered by first coordinate, then by second (s = 2).

    A rational common zero (x, y) must have x among the rational roots of
    the resultant, `resultant_y_general`.  That holds also where both
    leading Y-coefficients vanish at x: there the first column of the
    Sylvester matrix is zero, so the resultant vanishes at x too.  When
    the resultant vanishes identically (a zero polynomial or a shared
    factor) every x qualifies.  When both polynomials are constant in Y,
    x is confined to the roots of f's X-part.  At x, y runs over the
    roots of gcd(f(x, Y), g(x, Y)), every element where both images
    vanish.  Both walks over every element share `_roots`'s refusal.
    """
    ctx = query.ctx
    f, g = query.polys
    fc, gc = f.y_matrix.tolist(), g.y_matrix.tolist()  # [] for a zero polynomial
    res = upoly_trim(fc[0]) if query._resultant is None else query._resultant
    for x in _roots(res, ctx):
        fx, gx = upoly_trim(y_poly_at(fc, x, ctx)), upoly_trim(y_poly_at(gc, x, ctx))
        for y in _roots(upoly_gcd_unchecked(fx, gx, ctx) if fx or gx else (), ctx):  # gcd(0, g) is monic g
            yield (x, y)


# ---------------------------------------------------------------------------
# public solving API

_ENUMERATORS = {"exhaustive": _zeros_exhaustive, "resultant": _zeros_resultant}
BACKENDS = tuple(_ENUMERATORS)


def check_backend(backend: str, s: int) -> None:
    """UsageError for an unknown backend; CapacityError for the resultant at s != 2."""
    if backend not in _ENUMERATORS:
        raise UsageError(f"unknown backend {backend!r}")
    if backend == "resultant" and s != 2:
        raise CapacityError("resultant backend supports s = 2 only")


def _zeros(query: ZeroDimQuery, backend: str) -> Iterator[tuple[int, ...]]:
    check_backend(backend, query.s)
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
    res = query._resultant
    if not res:  # a zero polynomial, a shared factor, or both constant in Y
        return CertResult("not_certified", -1, False)
    deg = upoly_deg(res)
    sqfree = is_squarefree(res, ctx)
    # each positive in Y with a constant leading Y-coefficient
    gate = all(len(m) > 1 and not m[-1, 1:].any() for m in (f.y_matrix, g.y_matrix))
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
    slots = slot_array(query.polys, query.dmax).tolist()
    lifted = polys_from_slots(query.s, query.dmax, [list(map(embed, row)) for row in slots])
    lifted_query = ZeroDimQuery(ext, query.s, lifted, query.dmax)
    return count_zeros(lifted_query)


def _mobius(n: int) -> int:
    powers = factor(n)
    return 0 if any(k > 1 for k in powers.values()) else (-1) ** len(powers)


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
