"""Dense univariate polynomials over a finite field.

A polynomial is a tuple of coefficients, index = exponent, with no
trailing zeros; () is the zero polynomial.  Every kernel here runs on the
field's unchecked op table (`FieldCtx.ops`) and validates nothing, so one
copy serves GF(p) modulus handling in `ffield` and all of `mpoly`.  The
entry points that take outside polynomials (`upoly_gcd`, `xq_mod` and
`mpoly.rational_roots`) check every coefficient once, on entry.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import TYPE_CHECKING

from .errors import DomainError, UsageError

if TYPE_CHECKING:
    from .ffield import FieldCtx

UPoly = tuple[int, ...]

X_POLY: UPoly = (0, 1)


def check_coeffs(ctx: FieldCtx, *polys: UPoly) -> None:
    for f in polys:
        for c in f:
            ctx.check(c)


def upoly_trim(coeffs) -> UPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def upoly_deg(f: UPoly) -> int:
    return len(f) - 1


def upoly_add(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    add = ctx.ops.add
    return upoly_trim([add(a, b) for a, b in zip_longest(f, g, fillvalue=0)])


def upoly_sub(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    sub = ctx.ops.sub
    return upoly_trim([sub(a, b) for a, b in zip_longest(f, g, fillvalue=0)])


def upoly_mul(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    if not f or not g:
        return ()
    axpy = ctx.ops.axpy
    n = len(g)
    out = [0] * (len(f) + n - 1)
    for i, a in enumerate(f):
        if a:
            out[i : i + n] = axpy(out[i : i + n], a, g)
    return upoly_trim(out)


def upoly_divmod(f: UPoly, g: UPoly, ctx: FieldCtx) -> tuple[UPoly, UPoly]:
    if not g:
        raise DomainError("division by the zero polynomial")
    ops = ctx.ops
    dg = upoly_deg(g)
    inv_lead = ops.inv(g[-1])
    rem = list(f)
    quot = [0] * max(len(f) - dg, 0)
    for shift in range(len(f) - 1 - dg, -1, -1):
        top = rem[shift + dg]
        if top:  # one axpy clears rem[shift + dg]
            coef = quot[shift] = ops.mul(top, inv_lead)
            rem[shift : shift + dg + 1] = ops.axpy(rem[shift : shift + dg + 1], ops.neg(coef), g)
    return upoly_trim(quot), upoly_trim(rem[:dg])


def upoly_mod(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    return upoly_divmod(f, g, ctx)[1]


def upoly_monic(f: UPoly, ctx: FieldCtx) -> UPoly:
    if not f or f[-1] == 1:
        return f
    mul, inv = ctx.ops.mul, ctx.ops.inv(f[-1])
    return tuple(mul(a, inv) for a in f)


def upoly_gcd_unchecked(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    """Monic gcd, for callers whose coefficients are already field elements."""
    if not f and not g:
        raise DomainError("gcd(0, 0) is undefined")
    while g:
        f, g = g, upoly_mod(f, g, ctx)
    return upoly_monic(f, ctx)


def upoly_gcd(f: UPoly, g: UPoly, ctx: FieldCtx) -> UPoly:
    """Monic gcd of f and g."""
    check_coeffs(ctx, f, g)
    return upoly_gcd_unchecked(f, g, ctx)


def upoly_eval(f: UPoly, x: int, ctx: FieldCtx) -> int:
    add, mul = ctx.ops.add, ctx.ops.mul
    acc = 0
    for c in reversed(f):
        acc = add(mul(acc, x), c)
    return acc


def upoly_pow_mod(base: UPoly, e: int, mod: UPoly, ctx: FieldCtx) -> UPoly:
    """base^e mod `mod`, left to right: a set bit of e is one multiplication
    by base, which for base = X is a shift plus one axpy."""
    if upoly_deg(mod) < 1:
        raise UsageError("modulus must have degree >= 1")
    base = upoly_mod(base, mod, ctx)
    result: UPoly = (1,)
    for i in range(e.bit_length() - 1, -1, -1):
        result = upoly_mod(upoly_mul(result, result, ctx), mod, ctx)
        if e >> i & 1:
            result = upoly_mod(upoly_mul(result, base, ctx), mod, ctx)
    return result


def xq_mod(f: UPoly, ctx: FieldCtx) -> UPoly:
    """X^q mod f."""
    check_coeffs(ctx, f)
    if upoly_deg(f) < 1:
        raise UsageError("xq_mod needs deg f >= 1")
    return upoly_pow_mod(X_POLY, ctx.q, f, ctx)


def is_squarefree(f: UPoly, ctx: FieldCtx) -> bool:
    """True iff gcd(f, f') is constant; f' = 0 counts as not squarefree."""
    if not f:
        raise DomainError("zero polynomial")
    if upoly_deg(f) == 0:
        return True
    mul = ctx.ops.mul
    fp = upoly_trim([mul(f[i], i % ctx.p) for i in range(1, len(f))])  # f'
    if not fp:
        return False
    return upoly_deg(upoly_gcd_unchecked(f, fp, ctx)) == 0


def lagrange_interpolate(xs: list[int], ys: list[int], ctx: FieldCtx) -> UPoly:
    """Unique polynomial of degree < len(xs) through the given points.

    Computed in Newton form: divided differences c_j, then
    c_0 + (X - x_0)(c_1 + (X - x_1)(c_2 + ...)) expanded from the inside
    out, each factor (X - x_i) a shift plus one axpy.
    """
    n = len(xs)
    if n != len(ys) or n == 0:
        raise UsageError("need equally many points and values")
    if len(set(xs)) != n:
        raise UsageError("interpolation points must be distinct")
    ops = ctx.ops
    sub, mul, inv = ops.sub, ops.mul, ops.inv
    c = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = mul(sub(c[i], c[i - 1]), inv(sub(xs[i], xs[i - j])))
    acc = [c[-1]]
    for i in range(n - 2, -1, -1):
        acc = ops.axpy([0] + acc, ops.neg(xs[i]), acc + [0])
        acc[0] = ops.add(acc[0], c[i])
    return upoly_trim(acc)


def sylvester_determinant(f: UPoly, g: UPoly, ctx: FieldCtx) -> int:
    """Resultant of two concrete univariate polynomials of degree >= 1."""
    n, m = upoly_deg(f), upoly_deg(g)
    if n < 1 or m < 1:
        raise UsageError("sylvester_determinant needs positive degrees")
    ops = ctx.ops
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
            det = ops.neg(det)
        pv = rows[col][col]
        det = ops.mul(det, pv)
        minus_inv = ops.neg(ops.inv(pv))
        tail = rows[col][col:]
        for i in range(col + 1, size):
            fval = rows[i][col]
            if fval:
                rows[i][col:] = ops.axpy(rows[i][col:], ops.mul(fval, minus_inv), tail)
    return det
