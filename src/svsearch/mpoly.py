"""Multivariate and dense univariate polynomials over a finite field.

A multivariate polynomial is a row of coefficients by slot of
`monomials`, whose graded-lex descending order is the canonical term
order, so equality and serialization do not depend on how a polynomial
was built.  Univariate polynomials (`upoly`) enter through root finding
and the resultant in the first variable.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property, lru_cache
from itertools import compress

import numpy as np

from .errors import CapacityError, DomainError, UsageError
from .ffield import LOG_TABLE_LIMIT, FieldCtx, extension_field
from .upoly import (
    X_POLY,
    UPoly,
    check_coeffs,
    lagrange_interpolate,
    upoly_add,
    upoly_deg,
    upoly_divmod,
    upoly_eval,
    upoly_gcd_unchecked,
    upoly_mod,
    upoly_mul,
    upoly_pow_mod,
    upoly_resultant,
    upoly_sub,
    upoly_trim,
)

ExpVec = tuple[int, ...]

SLOT_LIMIT = 1 << 16  # most coefficient slots, C(r + d, r), a system's polynomials may have
# rational_roots over GF(p) evaluates f at every element while p * (deg f + 1)
# is at most this; above ~2^15.2 cells splitting is faster at degree 2
ROOT_SCAN_CELLS = 1 << 15
VANDERMONDE_BYTES = 1 << 21  # largest cached inverse Vandermonde matrix: 512 points of int64


def check_slots(nvars: int, maxdeg: int) -> int:
    """len(monomials(nvars, maxdeg)) = C(nvars + maxdeg, nvars), computed
    without enumerating; CapacityError above SLOT_LIMIT.

    C(a + k, k) grows with k, so the product stops within a few steps
    once it passes the cap, however large nvars and maxdeg are.
    """
    if nvars < 0 or maxdeg < 0:
        raise UsageError(f"need a nonnegative variable count and degree, got {nvars} and {maxdeg}")
    a, b = max(nvars, maxdeg), min(nvars, maxdeg)
    n = 1
    for k in range(1, b + 1):
        n = n * (a + k) // k
        if n > SLOT_LIMIT:
            raise CapacityError(f"C({nvars + maxdeg}, {nvars}) coefficient slots exceed the 2^16 cap")
    return n


def check_polys(polys, count: int, nvars: int, maxdeg: int) -> None:
    """UsageError unless polys are count polynomials in nvars variables,
    each of degree <= maxdeg."""
    if len(polys) != count:
        raise UsageError(f"expected {count} polynomials, got {len(polys)}")
    for f in polys:
        if f.nvars != nvars:
            raise UsageError(f"a polynomial has {f.nvars} variables, expected {nvars}")
        if f.degree > maxdeg:
            raise UsageError(f"polynomial degree {f.degree} exceeds the bound {maxdeg}")


@lru_cache(maxsize=None)
def monomials(nvars: int, maxdeg: int) -> tuple[ExpVec, ...]:
    """All exponent vectors of total degree <= maxdeg, graded-lex descending.

    This fixed order defines both the canonical term order and the
    coefficient slot order used when sampling random systems.  Refuses
    more than SLOT_LIMIT of them before enumerating.
    """
    check_slots(nvars, maxdeg)
    out: list[ExpVec] = []

    def rec_exact(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for e in range(remaining, -1, -1):
            prefix.append(e)
            rec_exact(prefix, remaining - e, slots - 1)
            prefix.pop()

    for deg in range(maxdeg, -1, -1):
        rec_exact([], deg, nvars)
    return tuple(out)


@lru_cache(maxsize=None)
def _row_plan(nvars: int, maxdeg: int) -> tuple[tuple[int, int, int], ...]:
    """(slot, parent slot, variable) for every nonconstant monomial of
    `monomials(nvars, maxdeg)`, parents first.

    The monomial in slot is the one in parent times the variable, so a
    row of monomial values costs one multiplication per monomial.
    """
    exps = monomials(nvars, maxdeg)
    index = {e: i for i, e in enumerate(exps)}
    plan = []
    for i in range(len(exps) - 2, -1, -1):  # ascending degree; the constant is last
        e = exps[i]
        var = next(j for j, k in enumerate(e) if k)
        plan.append((i, index[e[:var] + (e[var] - 1,) + e[var + 1 :]], var))
    return tuple(plan)


def _row(point, maxdeg: int, mul) -> list[int]:
    """monomial_row without the element checks."""
    plan = _row_plan(len(point), maxdeg)
    row = [1] * (len(plan) + 1)
    for i, parent, var in plan:
        row[i] = mul(row[parent], point[var])
    return row


@lru_cache(maxsize=None)
def _split_plan(nvars: int, m: int, maxdeg: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only intp arrays of the head slot and the tail slot of every slot
    of `monomials(nvars, maxdeg)`: the slot of its first m exponents in
    `monomials(m, maxdeg)` and of the rest in `monomials(nvars - m, maxdeg)`."""
    heads = {e: i for i, e in enumerate(monomials(m, maxdeg))}
    tails = {e: i for i, e in enumerate(monomials(nvars - m, maxdeg))}
    plan = np.array([(heads[e[:m]], tails[e[m:]]) for e in monomials(nvars, maxdeg)], dtype=np.intp).T.copy()
    plan.flags.writeable = False  # a shared cache entry
    return plan[0], plan[1]


@lru_cache(maxsize=None)
def _gather_plan(nvars: int, m: int, maxdeg: int, rows: int) -> np.ndarray:
    """The bincount bin (row * tails + tail slot, by `_split_plan`) of
    every entry of `rows` stacked slot rows."""
    ntails = len(monomials(nvars - m, maxdeg))
    return (_split_plan(nvars, m, maxdeg)[1] + ntails * np.arange(rows)[:, None]).ravel()


def cell_array(slots: np.ndarray, nvars: int, maxdeg: int) -> np.ndarray:
    """Each row of slots (by slot of `monomials(nvars, maxdeg)`) as a new
    C-contiguous H x (maxdeg + 1) matrix, each coefficient at its [head
    slot, tail slot] of `_split_plan(nvars, nvars - 1, maxdeg)`: row h for
    the head `monomials(nvars - 1, maxdeg)[h]`, column t for x_last^(maxdeg - t)."""
    heads, tails = _split_plan(nvars, nvars - 1, maxdeg)
    cells = np.zeros((len(slots), len(monomials(nvars - 1, maxdeg)), maxdeg + 1), dtype=slots.dtype)
    cells[:, heads, tails] = slots
    return cells


def _int_array(rows) -> np.ndarray:
    """Field elements as an int64 array, or as Python ints past 2^63."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


class _SlotBlock:
    """Polynomials in nvars variables of degree <= maxdeg as one read-only
    array (int64, or Python ints past 2^63): a row per polynomial, by slot
    of `monomials(nvars, maxdeg)`.

    An MPoly is a row: it keeps (block, row index) in `_slots`.  `cells`
    is the block's `cell_array`, scattered once for all its rows.
    `at` substitutes the whole block at a point and keeps the last result,
    since a system's polynomials ask for it one after the other.  The
    point, field and result are swapped in as one tuple, so threads that
    race on a block at most repeat a substitution.
    """

    __slots__ = ("nvars", "maxdeg", "coeffs", "_last", "_cells")

    def __init__(self, nvars: int, maxdeg: int, coeffs: np.ndarray) -> None:
        coeffs.flags.writeable = False
        self.nvars, self.maxdeg, self.coeffs = nvars, maxdeg, coeffs
        self._last = self._cells = None

    def cells(self) -> np.ndarray:
        """`cell_array` of the block, read-only and shared by its rows."""
        if self._cells is None:
            cells = cell_array(self.coeffs, self.nvars, self.maxdeg)
            cells.flags.writeable = False  # before another thread can see it
            self._cells = cells
        return self._cells

    def at(self, a: tuple[int, ...], ctx: FieldCtx) -> tuple:
        """Every polynomial of the block with its first len(a) variables
        set to a: one int each when a sets them all, else MPolys sharing a
        new block."""
        last = self._last
        if last is not None and last[0] == a and (last[1] is ctx or last[1] == ctx):
            return last[2]
        for x in a:
            ctx.check(x)
        tails = _substitute_block(self, a, ctx)
        if len(a) == self.nvars:
            out = tuple(tails[:, 0].tolist())
        else:
            out = polys_from_slots(self.nvars - len(a), self.maxdeg, tails)
        self._last = (a, ctx, out)
        return out


def polys_from_slots(nvars: int, maxdeg: int, coeffs) -> tuple["MPoly", ...]:
    """The polynomials whose coefficients are the rows of coeffs (field
    elements by slot of `monomials(nvars, maxdeg)`), one row each of a
    block they share.  An array is taken over as it is, and made
    read-only; over GF(p) it is int64."""
    block = _SlotBlock(nvars, maxdeg, coeffs if isinstance(coeffs, np.ndarray) else _int_array(coeffs))
    return tuple(MPoly(block, i) for i in range(len(block.coeffs)))


def slot_array(polys, maxdeg: int) -> np.ndarray:
    """Coefficients of polys by slot of `monomials(nvars, maxdeg)`, one row
    per polynomial (int64 over GF(p)); every degree must be <= maxdeg."""
    slots = [f._slots for f in polys]
    block = slots[0][0]
    if block.maxdeg == maxdeg and all(b is block for b, _ in slots):
        return block.coeffs[[i for _, i in slots]]
    n = len(monomials(polys[0].nvars, maxdeg))
    rows = []
    for block, i in slots:
        row = block.coeffs[i, -n:].tolist()  # graded order: the slots of degree <= e come last
        rows.append([0] * (n - len(row)) + row)
    return _int_array(rows)


def _substitute_block(block: _SlotBlock, a: tuple[int, ...], ctx: FieldCtx) -> np.ndarray:
    """Every row of block with its first len(a) variables set to a, by slot
    of `monomials(nvars - len(a), maxdeg)`: an array, one row each.

    The head row, the monomials of the first len(a) variables at a, is
    built once for all rows.  Over GF(p) each coefficient times its head
    value is below p^2 < 2^62 and is reduced before the tail sums, which
    then stay below SLOT_LIMIT * p < 2^47 (`monomials` enumerates no more
    slots), so bincount's float64 sums are exact.  Over GF(p^k) the
    nonzero slots add up through the op table.
    """
    nvars, m, maxdeg = block.nvars, len(a), block.maxdeg
    head = _row(a, maxdeg, ctx.ops.mul)
    rows = len(block.coeffs)
    heads, tails = _split_plan(nvars, m, maxdeg)
    ntails = len(monomials(nvars - m, maxdeg))
    if ctx.k == 1:
        prod = block.coeffs * np.array(head, dtype=np.int64)[heads]
        prod %= ctx.p
        sums = np.bincount(_gather_plan(nvars, m, maxdeg, rows), weights=prod.ravel(), minlength=rows * ntails)
        return sums.astype(np.int64).reshape(rows, ntails) % ctx.p
    add, mul = ctx.ops.add, ctx.ops.mul
    split = tuple(zip(heads.tolist(), tails.tolist()))
    out = []
    for coeffs in block.coeffs.tolist():
        acc = [0] * ntails
        for (h, t), c in zip(split, coeffs):
            if c:
                acc[t] = add(acc[t], mul(c, head[h]))
        out.append(acc)
    return _int_array(out)


def monomial_row(point: tuple[int, ...], maxdeg: int, ctx: FieldCtx) -> list[int]:
    """Values at point of every monomial of degree <= maxdeg, in `monomials` order."""
    for x in point:
        ctx.check(x)
    return _row(point, maxdeg, ctx.ops.mul)


class MPoly:
    """A polynomial in nvars variables: one row of a slot block.

    The row is the only stored form.  `polys_from_slots` makes the
    polynomials of a block, and `from_terms` checks outside input before
    writing a row.  `degree` reads the row, and `terms`, the nonzero
    slots as (exponent vector, coefficient) in canonical order, is derived
    once.  == and hash compare (nvars, terms), so one polynomial held in
    blocks of different maxdeg is one value.  Instances are immutable.
    """

    def __init__(self, block: _SlotBlock, row: int) -> None:
        if not isinstance(block, _SlotBlock):
            raise TypeError("an MPoly is a row of a slot block: build it by from_terms or polys_from_slots")
        object.__setattr__(self, "_slots", (block, row))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"MPoly is immutable: cannot set {name}")

    @staticmethod
    def from_terms(nvars: int, items, ctx: FieldCtx) -> "MPoly":
        """sum of c * x^exps over (exps, c) in items, with every exponent
        vector and coefficient checked and duplicates merged, as one row at
        maxdeg = its degree; CapacityError past SLOT_LIMIT slots."""
        acc: dict[ExpVec, int] = {}
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise UsageError(f"bad exponent vector {exps} for {nvars} variables")
            ctx.check(c)
            acc[exps] = ctx.ops.add(acc[exps], c) if exps in acc else c
        maxdeg = max((sum(e) for e, c in acc.items() if c), default=0)
        return polys_from_slots(nvars, maxdeg, [[acc.get(e, 0) for e in monomials(nvars, maxdeg)]])[0]

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return polys_from_slots(nvars, 0, [[0]])[0]

    @property
    def nvars(self) -> int:
        return self._slots[0].nvars

    @cached_property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial.  Slots run by
        descending degree, so the first nonzero slot gives it."""
        block, i = self._slots
        nonzero = np.flatnonzero(block.coeffs[i])
        return sum(monomials(block.nvars, block.maxdeg)[nonzero[0]]) if len(nonzero) else -1

    def is_zero(self) -> bool:
        return self.degree < 0

    @cached_property
    def terms(self) -> tuple[tuple[ExpVec, int], ...]:
        """The nonzero slots as (exponent vector, coefficient), in canonical order."""
        block, i = self._slots
        row = block.coeffs[i].tolist()
        return tuple(zip(compress(monomials(block.nvars, block.maxdeg), row), filter(None, row)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, self.terms))

    def __repr__(self) -> str:
        return f"MPoly(nvars={self.nvars}, terms={self.terms!r})"

    def evaluate(self, point, ctx: FieldCtx) -> int:
        if len(point) != self.nvars:
            raise UsageError(f"point has {len(point)} coordinates, polynomial has {self.nvars}")
        block, i = self._slots
        return block.at(tuple(point), ctx)[i]

    def specialize(self, a, ctx: FieldCtx) -> "MPoly":
        """Substitute the first len(a) variables by the values in a."""
        if len(a) >= self.nvars:
            raise UsageError("specialize must leave at least one variable")
        block, i = self._slots
        return block.at(tuple(a), ctx)[i]

    @cached_property
    def y_matrix(self) -> np.ndarray:
        """For a 2-variable polynomial: the coefficient of X^i Y^j at [j, i],
        one row per power of Y up to the Y-degree (no rows when zero): the
        block's `cells` row, reversed on both axes and transposed."""
        if self.nvars != 2:
            raise UsageError("y_matrix expects a bivariate polynomial")
        block, i = self._slots
        mat = block.cells()[i, ::-1, ::-1].T
        rows = len(mat)
        while rows and not mat[rows - 1].any():
            rows -= 1
        return mat[:rows]


# ---------------------------------------------------------------------------
# univariate roots and resultants


def rational_roots(f: UPoly, ctx: FieldCtx) -> set[int]:
    """Exactly the roots of f in the field, each once.

    Over GF(p) with deg f >= 2 and p * (deg f + 1) <= ROOT_SCAN_CELLS,
    f is evaluated at every element by one product against the power
    table (`_roots_by_scan`), at a cost that grows with p * deg f.
    Otherwise the roots come by splitting (`_roots_by_splitting`), at a
    cost that grows with the number of roots and log q.
    """
    check_coeffs(ctx, f)
    if not f:
        raise DomainError("zero polynomial has every element as a root")
    if ctx.k == 1 and len(f) > 2 and ctx.p * len(f) <= ROOT_SCAN_CELLS:
        return _roots_by_scan(f, ctx.p, _power_table(ctx.p, ROOT_SCAN_CELLS // ctx.p, ctx.p))
    return _roots_by_splitting(f, ctx)


def _roots_by_scan(f: UPoly, p: int, table: np.ndarray) -> set[int]:
    """The x < table.shape[1] where f vanishes over GF(p), from
    table[e, x] = x^e mod p with at least len(f) rows: one row of
    `_matmul_mod`.  rational_roots keeps one table per p and slices it."""
    values = _matmul_mod(np.array([f], dtype=np.int64), table[: len(f)], p)
    return set(np.flatnonzero(values[0] == 0).tolist())


def _roots_by_splitting(f: UPoly, ctx: FieldCtx) -> set[int]:
    """The roots of a nonzero f by equal-degree splitting.

    g = gcd(f, X^q - X) is the product of the distinct linear factors of
    f, and `_split_linear_product` takes g apart.  A linear f divides
    X^q - X, so it is its own g.  The splitters come from a fixed
    sequence, so results are reproducible without an RNG.
    """
    roots: set[int] = set()
    g = f
    if upoly_deg(f) > 1:
        xq = upoly_pow_mod(X_POLY, ctx.q, f, ctx)
        g = upoly_gcd_unchecked(f, upoly_sub(xq, X_POLY, ctx), ctx)
    _split_linear_product(g, ctx, roots)
    return roots


def _splitters(g: UPoly, ctx: FieldCtx) -> Iterator[UPoly]:
    """Polynomials w such that gcd(g, w) splits g when w vanishes at some
    roots of g but not at all.

    Odd q: (X + c)^((q-1)/2) - 1 for c = 0, 1, ...  q = 2^k: the trace
    Tr(bX) = sum of (bX)^(2^i), i < k, mod g, for b = 1, 2, 4, ..., 2^(k-1);
    for roots r1 != r2, b -> Tr(b(r1 - r2)) is a nonzero linear map, so
    one basis b separates them.
    """
    if ctx.p == 2:
        for j in range(ctx.k):
            power = upoly_mod((0, 1 << j), g, ctx)
            trace = power
            for _ in range(ctx.k - 1):
                power = upoly_mod(upoly_mul(power, power, ctx), g, ctx)
                trace = upoly_add(trace, power, ctx)
            yield trace
        return
    half = (ctx.q - 1) // 2
    for c in ctx.elements():
        yield upoly_sub(upoly_pow_mod((c, 1), half, g, ctx), (1,), ctx)


def _split_linear_product(g: UPoly, ctx: FieldCtx, roots: set[int]) -> None:
    """Add the roots of g, a squarefree product of linear factors, to roots."""
    dg = upoly_deg(g)
    if dg == 0:
        return
    if dg == 1:
        # c0 + c1 X = 0  ->  X = -c0/c1
        ops = ctx.ops
        roots.add(ops.mul(ops.neg(g[0]), ops.inv(g[1])))
        return
    for w in _splitters(g, ctx):
        h = upoly_gcd_unchecked(g, w, ctx)
        if 0 < upoly_deg(h) < dg:
            _split_linear_product(h, ctx, roots)
            _split_linear_product(upoly_divmod(g, h, ctx)[0], ctx, roots)
            return
    raise AssertionError("no splitter separated the roots of a squarefree product")


@lru_cache(maxsize=8)
def lift_with_embedding(ctx: FieldCtx, e: int):
    """GF(q^e) plus the embedding of GF(q) into it.

    Returns (ext_ctx, embed, unembed): embed maps an element of GF(q) to
    its image, and unembed is the dict from each image back.  Both are
    identities at e = 1 and over a prime base, where constants keep their
    integer value.  Over an extension base the embedding sends the
    generator to the smallest root of the base modulus in the big field,
    which exists because the base degree divides the lifted degree.
    """
    if e == 1 or ctx.k == 1:
        table = {a: a for a in ctx.elements()}
        return (ctx if e == 1 else extension_field(ctx.p, e), table.__getitem__, table)
    if ctx.q > LOG_TABLE_LIMIT:  # one table entry per element, as for log tables
        raise CapacityError("extension base field too large to lift")
    ext = extension_field(ctx.p, ctx.k * e)
    base_mod = upoly_trim(ctx.modulus)  # GF(p) coefficients embed unchanged
    theta = min(rational_roots(base_mod, ext))
    table = {a: upoly_eval(ctx.coeffs(a), theta, ext) for a in ctx.elements()}
    unembed = {v: k for k, v in table.items()}
    return (ext, table.__getitem__, unembed)


def y_poly_at(rows: list[list[int]], x: int, ctx: FieldCtx) -> UPoly:
    """f(x, Y) as a polynomial in Y, from the rows of f's `y_matrix` as
    lists, at f's formal Y-degree: its top coefficients may be 0."""
    return tuple(upoly_eval(row, x, ctx) for row in rows)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 arrays of residues mod p < 2^31.

    One int64 product while a sum of a.shape[1] products of residues,
    each at most (p-1)^2, stays below 2^63; past that (numpy wraps
    silently) the sum is reduced after each term.
    """
    if a.shape[1] * (p - 1) ** 2 < 1 << 63:
        return a @ b % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for col, row in zip(a.T, b):
        out += np.outer(col, row)
        out %= p
    return out


@lru_cache(maxsize=16)
def _power_table(p: int, exps: int, points: int) -> np.ndarray:
    """x^e mod p as an int64 array, row e < exps, column x < points.

    Rows are filled in doubling blocks, x^(done + e) = x^e * x^done, so
    a table of many exponents (a small p's root scan) costs O(log exps)
    numpy passes."""
    table = np.ones((exps, points), dtype=np.int64)
    if exps > 1:
        table[1] = np.arange(points) % p
    done = min(exps, 2)
    while done < exps:
        n = min(done, exps - done)
        table[done : done + n] = table[:n] * (table[done - 1] * table[1] % p) % p
        done += n
    table.flags.writeable = False  # a shared cache entry
    return table


@lru_cache(maxsize=16)
def _lagrange_matrix(p: int, n: int) -> np.ndarray:
    """The inverse Vandermonde matrix of x = 0..n-1 over GF(p), n <= p,
    as int64: it takes the values of a polynomial of degree < n at those
    points to its coefficients.

    Column i is the Lagrange basis polynomial M / (X - i) * M'(i)^-1, with
    M = prod_{j<n} (X - j) and M'(i) = (-1)^(n-1-i) * i! * (n-1-i)!.  M is
    built one factor at a time, and the n quotients by one synthetic
    division run over every i at once (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, §5.2): O(n^2) operations in n numpy passes.  Every
    intermediate is below p^2 < 2^62, since j, i < n <= p.
    """
    m = np.zeros(n + 1, dtype=np.int64)  # M, X^0 first
    m[0] = 1
    for j in range(n):
        m[1:] = (m[:-1] - j * m[1:]) % p  # times (X - j)
        m[0] = -j * m[0] % p
    xs = np.arange(n, dtype=np.int64)
    quot = np.ones((n, n), dtype=np.int64)  # row k: X^k of M / (X - i), column i
    for k in range(n - 1, 0, -1):
        quot[k - 1] = (m[k] + xs * quot[k]) % p
    fact = [1] * n
    for k in range(1, n):
        fact[k] = fact[k - 1] * k % p
    scale = [pow((-1) ** (n - 1 - i) * fact[i] * fact[n - 1 - i], -1, p) for i in range(n)]
    matrix = quot * np.array(scale, dtype=np.int64) % p
    matrix.flags.writeable = False  # a shared cache entry
    return matrix


def _lane_resultants(F: np.ndarray, G: np.ndarray, p: int) -> np.ndarray:
    """`upoly_resultant` of column i of F and of G (coefficients by row,
    X^0 first, any formal degrees len - 1 >= 0) for all lanes at once.

    The remainder sequence runs in lockstep, as if every divisor's top row
    were nonzero and every remainder dropped the degree by exactly one.
    That is exact in every lane where it holds: each of the n - m + 1
    reduction steps multiplies lc(g) in, and the last constant g[0] goes
    in once per remaining degree.  A lane where a divisor's top
    coefficient is 0 (a vanishing leading Y-coefficient, a remainder that
    drops further or vanishes) multiplies in that 0, so it comes out 0,
    which the caller must recompute.
    """
    n, m = len(F) - 1, len(G) - 1
    acc = np.ones(F.shape[1], dtype=np.int64)
    negate = False
    while m > 0:
        negate ^= bool(n & m & 1)
        if n < m:  # f mod g = f: Res(f, g) = (-1)^(nm) Res(g, f)
            F, G, n, m = G, F, m, n
            continue
        lead = G[m]
        inv = np.array([pow(c, -1, p) if c else 0 for c in lead.tolist()], dtype=np.int64)
        low = G[:m] * inv % p  # g made monic, without its leading 1
        R = F.copy()
        for top in range(n, m - 1, -1):
            R[top - m : top] -= R[top] * low
            R[top - m : top] %= p
            acc = acc * lead % p  # lc(g)^(n - m + 1) over the loop
        F, G, n, m = G, R[:m], m, m - 1
    for _ in range(n):
        acc = acc * G[0] % p
    return -acc % p if negate else acc


def _resultant_y_lanes(fm: np.ndarray, gm: np.ndarray, bound: int, ctx: FieldCtx) -> UPoly:
    """`resultant_y` over GF(p) with p > bound, from the `y_matrix` of
    each side, its sample points x = 0..bound as numpy lanes.

    Every Y-coefficient is evaluated at every point by one product of the
    stacked matrices against a power table, and the Euclidean remainders
    run in lockstep (`_lane_resultants`); a lane where that gives 0 is
    recomputed by `upoly_resultant`.  The values interpolate through the
    cached inverse Vandermonde matrix of x = 0..bound (`_lagrange_matrix`,
    O(n^2) to build) while it fits VANDERMONDE_BYTES, 512 points; past
    that by `lagrange_interpolate`.
    """
    p, n = ctx.p, len(fm) - 1
    coeffs = np.zeros((len(fm) + len(gm), max(fm.shape[1], gm.shape[1])), dtype=np.int64)
    coeffs[: n + 1, : fm.shape[1]] = fm
    coeffs[n + 1 :, : gm.shape[1]] = gm
    values = _matmul_mod(coeffs, _power_table(p, coeffs.shape[1], bound + 1), p)
    F, G = values[: n + 1], values[n + 1 :]
    ys = _lane_resultants(F, G, p)
    for i in np.flatnonzero(ys == 0).tolist():
        ys[i] = upoly_resultant(tuple(F[:, i].tolist()), tuple(G[:, i].tolist()), ctx)
    if 8 * (bound + 1) ** 2 <= VANDERMONDE_BYTES:
        return upoly_trim(_matmul_mod(_lagrange_matrix(p, bound + 1), ys[:, None], p)[:, 0].tolist())
    return lagrange_interpolate(range(bound + 1), ys.tolist(), ctx)


def resultant_y(f: MPoly, g: MPoly, ctx: FieldCtx) -> UPoly:
    """Resultant of two bivariate polynomials with respect to the second
    variable, as a univariate polynomial in the first.

    Both must be nonzero, and one of positive degree in Y.  Computed by
    evaluation-interpolation at x = 0..B, B = deg f * deg g >= deg R.
    R is the Sylvester determinant at the formal Y-degrees, so
    R(x) is `upoly_resultant` of the images f(x, Y) and g(x, Y) at those
    degrees (`y_poly_at`), also where a leading Y-coefficient vanishes,
    and R = c^deg_Y(g) for an f = c(X) constant in Y.  Over GF(p) with
    p > B the points run as numpy lanes (`_resultant_y_lanes`).  Otherwise
    they run one at a time, in an extension GF(q^e) > B when q <= B, whose
    interpolated coefficients are mapped back (they must lie in GF(q)).
    """
    if f.nvars != 2 or g.nvars != 2:
        raise UsageError("resultant_y expects bivariate polynomials")
    if f.is_zero() or g.is_zero():
        raise UsageError("resultant_y expects nonzero polynomials")
    fm, gm = f.y_matrix, g.y_matrix
    if len(fm) < 2 and len(gm) < 2:
        raise UsageError("one polynomial must have positive degree in Y")
    bound = f.degree * g.degree
    if ctx.k == 1 and ctx.q > bound:
        return _resultant_y_lanes(fm, gm, bound, ctx)

    work = ctx
    fc, gc = fm.tolist(), gm.tolist()
    if ctx.q <= bound:
        e = 2
        while ctx.q ** e <= bound:
            e += 1
        work, embed, unembed = lift_with_embedding(ctx, e)
        fc = [list(map(embed, row)) for row in fc]
        gc = [list(map(embed, row)) for row in gc]

    ys = [upoly_resultant(y_poly_at(fc, x, work), y_poly_at(gc, x, work), work) for x in range(bound + 1)]
    res = lagrange_interpolate(range(bound + 1), ys, work)
    if work is not ctx:
        try:
            res = upoly_trim([unembed[c] for c in res])
        except KeyError:
            raise AssertionError("resultant coefficients left the base field") from None
    return res
