"""Sparse multivariate and dense univariate polynomials over a finite field.

Multivariate polynomials are kept in a canonical form (graded-lex
descending term order, no zero coefficients, no duplicate exponent
vectors) so that equality is structural and serialization is
reproducible.  Univariate polynomials are plain tuples of coefficients,
index = exponent, with no trailing zeros; () is the zero polynomial.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError, DomainError, UsageError
from .ffield import FieldCtx, extension_field

ExpVec = tuple[int, ...]
UPoly = tuple[int, ...]

LIFT_TABLE_LIMIT = 1 << 16  # largest extension base whose element table lift_with_embedding builds


@lru_cache(maxsize=None)
def monomials(nvars: int, maxdeg: int) -> tuple[ExpVec, ...]:
    """All exponent vectors of total degree <= maxdeg, graded-lex descending.

    This fixed order defines both the canonical term order and the
    coefficient slot order used when sampling random systems.
    """
    out: list[ExpVec] = []

    def rec_exact(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for e in range(remaining, -1, -1):
            prefix.append(e)
            rec_exact(prefix, remaining - e, slots - 1)
            prefix.pop()

    for deg in range(maxdeg, -1, -1):
        rec_exact([], deg, nvars)
    return tuple(out)


def monomial_row(point: tuple[int, ...], maxdeg: int, ctx: FieldCtx) -> list[int]:
    """Values at point of every monomial of degree <= maxdeg, in `monomials` order."""
    row = []
    for e in monomials(len(point), maxdeg):
        v = 1
        for x, k in zip(point, e):
            if k:
                v = ctx.mul(v, ctx.pow(x, k))
        row.append(v)
    return row


def term_sort_key(exps: ExpVec) -> tuple[int, ExpVec]:
    return (sum(exps), exps)


@dataclass(frozen=True)
class MPoly:
    """Canonical sparse polynomial; treat instances as immutable values."""

    nvars: int
    terms: tuple[tuple[ExpVec, int], ...]

    @staticmethod
    def from_terms(nvars: int, items, ctx: FieldCtx) -> "MPoly":
        acc: dict[ExpVec, int] = {}
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise UsageError(f"bad exponent vector {exps} for {nvars} variables")
            ctx.check(c)
            if exps in acc:
                acc[exps] = ctx.add(acc[exps], c)
            else:
                acc[exps] = c
        terms = tuple(
            (e, c) for e, c in sorted(acc.items(), key=lambda t: term_sort_key(t[0]), reverse=True) if c != 0
        )
        return MPoly(nvars, terms)

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return MPoly(nvars, ())

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return sum(self.terms[0][0]) if self.terms else -1

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point, ctx: FieldCtx) -> int:
        if len(point) != self.nvars:
            raise UsageError(f"point has {len(point)} coordinates, polynomial has {self.nvars}")
        for x in point:
            ctx.check(x)
        powers: dict[tuple[int, int], int] = {}
        total = 0
        for exps, c in self.terms:
            v = c
            for var, e in enumerate(exps):
                if e == 0:
                    continue
                key = (var, e)
                pw = powers.get(key)
                if pw is None:
                    pw = ctx.pow(point[var], e)
                    powers[key] = pw
                v = ctx.mul(v, pw)
            total = ctx.add(total, v)
        return total

    def specialize(self, a, ctx: FieldCtx) -> "MPoly":
        """Substitute the first len(a) variables by the values in a."""
        m = len(a)
        if m >= self.nvars:
            raise UsageError("specialize must leave at least one variable")
        for x in a:
            ctx.check(x)
        # power tables per substituted variable
        maxes = [0] * m
        for exps, _ in self.terms:
            for j in range(m):
                if exps[j] > maxes[j]:
                    maxes[j] = exps[j]
        pows = []
        for j in range(m):
            tab = [1] * (maxes[j] + 1)
            for e in range(1, maxes[j] + 1):
                tab[e] = ctx.mul(tab[e - 1], a[j])
            pows.append(tab)
        acc: dict[ExpVec, int] = {}
        for exps, c in self.terms:
            v = c
            for j in range(m):
                e = exps[j]
                if e:
                    v = ctx.mul(v, pows[j][e])
                    if v == 0:
                        break
            if v == 0:
                continue
            tail = exps[m:]
            prev = acc.get(tail)
            acc[tail] = v if prev is None else ctx.add(prev, v)
        return MPoly.from_terms(self.nvars - m, acc.items(), ctx)

    def coeffs_in_last_var(self, ctx: FieldCtx) -> list["MPoly"]:
        """For a 2-variable polynomial: coefficients of Y^j as UPoly in X.

        Returned as a list of univariate tuples indexed by the Y exponent.
        """
        if self.nvars != 2:
            raise UsageError("coeffs_in_last_var expects a bivariate polynomial")
        degy = max((e[1] for e, _ in self.terms), default=-1)
        cols: list[dict[int, int]] = [dict() for _ in range(degy + 1)]
        for (ex, ey), c in self.terms:
            cols[ey][ex] = c
        out = []
        for col in cols:
            degx = max(col, default=-1)
            out.append(upoly_trim([col.get(i, 0) for i in range(degx + 1)]))
        return out

    def term_strings(self) -> list[str]:
        """Canonical textual form: one "c e1 e2 ... er" string per term."""
        return [" ".join([str(c)] + [str(e) for e in exps]) for exps, c in self.terms]

    @staticmethod
    def from_term_strings(nvars: int, lines, ctx: FieldCtx) -> "MPoly":
        items = []
        for line in lines:
            parts = line.split()
            if len(parts) != nvars + 1:
                raise UsageError(f"term {line!r} does not have 1 + {nvars} fields")
            c = int(parts[0])
            exps = tuple(int(x) for x in parts[1:])
            items.append((exps, c))
        seen = set()
        for exps, _ in items:
            if exps in seen:
                raise UsageError(f"duplicate exponent vector {exps}")
            seen.add(exps)
        return MPoly.from_terms(nvars, items, ctx)


# ---------------------------------------------------------------------------
# univariate toolkit


def upoly_trim(coeffs) -> UPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def upoly_deg(f: UPoly) -> int:
    return len(f) - 1


X_POLY: UPoly = (0, 1)


def upoly_add(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = ctx.add(a, b)
    return upoly_trim(out)


def upoly_sub(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = ctx.sub(a, b)
    return upoly_trim(out)


def upoly_scale(f: UPoly, c: int, ctx: FieldCtx) -> UPoly:
    if c == 0:
        return ()
    return upoly_trim([ctx.mul(a, c) for a in f])


def upoly_mul(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return upoly_trim(out)


def upoly_divmod(f: UPoly, g: UPoly, ctx: FieldCtx) -> tuple[UPoly, UPoly]:
    if not g:
        raise DomainError("division by the zero polynomial")
    rem = list(f)
    dg = upoly_deg(g)
    inv_lead = ctx.inv(g[-1])
    quot = [0] * max(len(f) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        coef = ctx.mul(rem[-1], inv_lead)
        shift = len(rem) - 1 - dg
        quot[shift] = coef
        for i, gi in enumerate(g):
            if gi:
                rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(coef, gi))
        while rem and rem[-1] == 0:
            rem.pop()
    return upoly_trim(quot), upoly_trim(rem)


def upoly_mod(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    return upoly_divmod(f, g, ctx)[1]


def upoly_monic(f: UPoly, ctx: FieldCtx) -> UPoly:
    if not f:
        return ()
    if f[-1] == 1:
        return f
    return upoly_scale(f, ctx.inv(f[-1]), ctx)


def upoly_gcd(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    if not f and not g:
        raise DomainError("gcd(0, 0) is undefined")
    while g:
        f, g = g, upoly_mod(f, g, ctx)
    return upoly_monic(f, ctx)


def upoly_eval(f: UPoly, x: int, ctx: FieldCtx) -> int:
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def upoly_derivative(f: UPoly, ctx: FieldCtx) -> UPoly:
    out = []
    for i in range(1, len(f)):
        out.append(ctx.mul(f[i], i % ctx.p))
    return upoly_trim(out)


def upoly_pow_mod(base: UPoly, e: int, mod: UPoly, ctx: FieldCtx) -> UPoly:
    if upoly_deg(mod) < 1:
        raise UsageError("modulus must have degree >= 1")
    result: UPoly = (1,)
    base = upoly_mod(base, mod, ctx)
    while e:
        if e & 1:
            result = upoly_mod(upoly_mul(result, base, ctx), mod, ctx)
        base = upoly_mod(upoly_mul(base, base, ctx), mod, ctx)
        e >>= 1
    return result


def xq_mod(f: UPoly, ctx: FieldCtx) -> UPoly:
    """X^q mod f by square-and-multiply."""
    if upoly_deg(f) < 1:
        raise UsageError("xq_mod needs deg f >= 1")
    return upoly_pow_mod(X_POLY, ctx.q, f, ctx)


def is_squarefree(f: UPoly, ctx: FieldCtx) -> bool:
    """True iff gcd(f, f') is constant; f' = 0 counts as not squarefree."""
    if not f:
        raise DomainError("zero polynomial")
    if upoly_deg(f) == 0:
        return True
    fp = upoly_derivative(f, ctx)
    if not fp:
        return False
    return upoly_deg(upoly_gcd(f, fp, ctx)) == 0


def rational_roots(f: UPoly, ctx: FieldCtx) -> set[int]:
    """Exactly the roots of f in the field, each once.

    g = gcd(f, X^q - X) is the product of the distinct linear factors of
    f, and equal-degree splitting takes g apart, so the cost grows with
    deg g and log q, not with q.  The splitters come from a fixed
    sequence, so results are reproducible without an RNG.
    """
    if not f:
        raise DomainError("zero polynomial has every element as a root")
    roots: set[int] = set()
    if upoly_deg(f) >= 1:
        g = upoly_gcd(f, upoly_sub(xq_mod(f, ctx), X_POLY, ctx), ctx)
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
        roots.add(ctx.mul(ctx.neg(g[0]), ctx.inv(g[1])))
        return
    for w in _splitters(g, ctx):
        h = upoly_gcd(g, w, ctx)
        if 0 < upoly_deg(h) < dg:
            _split_linear_product(h, ctx, roots)
            _split_linear_product(upoly_divmod(g, h, ctx)[0], ctx, roots)
            return
    raise AssertionError("no splitter separated the roots of a squarefree product")


def lagrange_interpolate(xs: list[int], ys: list[int], ctx: FieldCtx) -> UPoly:
    """Unique polynomial of degree < len(xs) through the given points."""
    n = len(xs)
    if n != len(ys) or n == 0:
        raise UsageError("need equally many points and values")
    if len(set(xs)) != n:
        raise UsageError("interpolation points must be distinct")
    # full = prod (X - xj)
    full: UPoly = (1,)
    for x in xs:
        full = upoly_mul(full, (ctx.neg(x), 1), ctx)
    acc: UPoly = ()
    for i in range(n):
        if ys[i] == 0:
            continue
        li, rem = upoly_divmod(full, (ctx.neg(xs[i]), 1), ctx)
        if rem:
            raise AssertionError(f"X - {xs[i]} does not divide the node polynomial")
        denom = upoly_eval(li, xs[i], ctx)
        acc = upoly_add(acc, upoly_scale(li, ctx.mul(ys[i], ctx.inv(denom)), ctx), ctx)
    return acc


def sylvester_determinant(f: UPoly, g: UPoly, ctx: FieldCtx) -> int:
    """Resultant of two concrete univariate polynomials of degree >= 1."""
    n, m = upoly_deg(f), upoly_deg(g)
    if n < 1 or m < 1:
        raise UsageError("sylvester_determinant needs positive degrees")
    size = n + m
    rows: list[list[int]] = []
    frow = list(reversed(f))  # leading coefficient first
    grow = list(reversed(g))
    for i in range(m):
        rows.append([0] * i + frow + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + grow + [0] * (size - m - 1 - i))
    det = 1
    for col in range(size):
        pivot = None
        for i in range(col, size):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = ctx.neg(det)
        pv = rows[col][col]
        det = ctx.mul(det, pv)
        inv = ctx.inv(pv)
        for i in range(col + 1, size):
            fval = rows[i][col]
            if fval:
                factor = ctx.mul(fval, inv)
                ri, rc = rows[i], rows[col]
                for j in range(col, size):
                    if rc[j]:
                        ri[j] = ctx.sub(ri[j], ctx.mul(factor, rc[j]))
    return det


@lru_cache(maxsize=8)
def lift_with_embedding(ctx: FieldCtx, e: int):
    """GF(q^e) plus the embedding of GF(q) into it.

    Returns (ext_ctx, embed, unembed); embed/unembed are None when the
    encoding is already compatible (prime base fields, where constants
    keep their integer value).  Over an extension base the embedding
    sends the generator to the smallest root of the base modulus in the
    big field, which exists because the base degree divides the lifted
    degree.
    """
    if e == 1:
        return (ctx, None, None)
    if ctx.k == 1:
        return (extension_field(ctx.p, e), None, None)
    if ctx.q > LIFT_TABLE_LIMIT:
        raise CapacityError("extension base field too large to lift")
    ext = extension_field(ctx.p, ctx.k * e)
    base_mod = upoly_trim(ctx.modulus)  # GF(p) coefficients embed unchanged
    theta = min(rational_roots(base_mod, ext))
    table: dict[int, int] = {}
    for a in ctx.elements():
        v = 0
        power = 1
        for c in ctx.coeffs(a):
            if c:
                v = ext.add(v, ext.mul(c, power))
            power = ext.mul(power, theta)
        table[a] = v
    unembed = {v: k for k, v in table.items()}
    return (ext, table.__getitem__, unembed)


@lru_cache(maxsize=1)
def resultant_y(f: MPoly, g: MPoly, ctx: FieldCtx) -> UPoly:
    """Resultant of two bivariate polynomials with respect to the second
    variable, as a univariate polynomial in the first.

    The last result is cached: on a certified strip search, the
    certificate and the resultant backend ask for the same resultant one
    after the other.

    Computed by evaluation-interpolation: specialize the first variable at
    sample points where neither leading Y-coefficient vanishes, take the
    Sylvester determinant of the two univariate images, and interpolate.
    The sample points are drawn from the base field, or from an extension
    when the base field is too small; the interpolated coefficients are
    then mapped back (they must lie in the base field).
    """
    if f.nvars != 2 or g.nvars != 2:
        raise UsageError("resultant_y expects bivariate polynomials")
    if f.is_zero() or g.is_zero():
        raise UsageError("resultant_y expects nonzero polynomials")
    fc = f.coeffs_in_last_var(ctx)
    gc = g.coeffs_in_last_var(ctx)
    n, m = len(fc) - 1, len(gc) - 1
    if n < 1 or m < 1:
        raise UsageError("both polynomials must have positive degree in Y")
    bound = f.degree * g.degree
    need_pool = bound + 1 + max(upoly_deg(fc[n]), 0) + max(upoly_deg(gc[m]), 0)

    work, embed, unembed = ctx, None, None
    if ctx.q < need_pool:
        e = 1
        while ctx.q ** e < need_pool:
            e += 1
        work, embed, unembed = lift_with_embedding(ctx, e)
        if embed is not None:
            fc = [tuple(embed(c) for c in cj) for cj in fc]
            gc = [tuple(embed(c) for c in cj) for cj in gc]
    lcf, lcg = fc[n], gc[m]

    xs: list[int] = []
    ys: list[int] = []
    for x in work.elements():
        if upoly_eval(lcf, x, work) == 0 or upoly_eval(lcg, x, work) == 0:
            continue
        fv = upoly_trim([upoly_eval(cj, x, work) for cj in fc])
        gv = upoly_trim([upoly_eval(cj, x, work) for cj in gc])
        xs.append(x)
        ys.append(sylvester_determinant(fv, gv, work))
        if len(xs) == bound + 1:
            break
    if len(xs) < bound + 1:
        raise CapacityError("not enough usable evaluation points")
    res = lagrange_interpolate(xs, ys, work)
    if work is not ctx:
        if unembed is None:
            if any(c >= ctx.q for c in res):
                raise AssertionError("resultant coefficients left the base field")
        else:
            try:
                res = upoly_trim([unembed[c] for c in res])
            except KeyError:
                raise AssertionError("resultant coefficients left the base field") from None
    return res


def resultant_y_general(f: MPoly, g: MPoly, ctx: FieldCtx) -> UPoly | None:
    """resultant_y extended by the standard conventions for degenerate
    Y-degrees: Res(c, g) = c^deg_Y(g).  Returns None when both inputs are
    constant in Y (no meaningful eliminant)."""
    if f.is_zero() or g.is_zero():
        return ()
    fc = f.coeffs_in_last_var(ctx)
    gc = g.coeffs_in_last_var(ctx)
    n, m = len(fc) - 1, len(gc) - 1
    if n >= 1 and m >= 1:
        return resultant_y(f, g, ctx)
    if n == 0 and m == 0:
        return None
    if n == 0:
        base, power = fc[0], m
    else:
        base, power = gc[0], n
    out: UPoly = (1,)
    for _ in range(power):
        out = upoly_mul(out, base, ctx)
    return out
