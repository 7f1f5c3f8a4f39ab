"""Dense univariate polynomials over a finite field.

A polynomial is a tuple of coefficients, index = exponent, with no
trailing zeros; () is the zero polynomial.  Every kernel here runs on the
field's unchecked op table (`FieldCtx.ops`) and validates nothing, so one
copy serves all of `mpoly`.  Powers modulo a polynomial over GF(p), and
the extension-field modulus arithmetic in `ffield`, run on packed ints
(`PackedModulus`).  The entry points that take outside polynomials
(`upoly_gcd`, `xq_mod` and `mpoly.rational_roots`) check every
coefficient once, on entry.
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
    """upoly_divmod(f, g)[1], without building the quotient."""
    if not g:
        raise DomainError("division by the zero polynomial")
    ops = ctx.ops
    dg = upoly_deg(g)
    neg_inv_lead, low = ops.neg(ops.inv(g[-1])), g[:-1]
    rem = list(f)
    for top in range(len(f) - 1, dg - 1, -1):  # rem[top] is never read again
        if rem[top]:
            rem[top - dg : top] = ops.axpy(rem[top - dg : top], ops.mul(rem[top], neg_inv_lead), low)
    return upoly_trim(rem[:dg])


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


class PackedModulus:
    """Arithmetic mod `mod` over GF(p) on Kronecker-packed ints (von zur
    Gathen & Gerhard, *Modern Computer Algebra*, §8.4): w-bit slot i holds
    the coefficient of X^i, and a product is one big-int multiplication.

    Slot bound: 2^w > 2*n*p^2, n = deg mod.  `reduce` takes slots below
    n*p^2 (a product of two reduced polynomials, or coefficients below p)
    and clears slot i >= n, top down, by adding (p - c)*monic(mod) shifted
    down n slots, c = slot i mod p.  A slot gains at most n such terms of
    at most (p-1)^2, plus p when cleared, so it stays below 2*n*p^2 < 2^w
    and no carry crosses slots.  The n low slots, each mod p, are the
    remainder.
    """

    def __init__(self, mod: UPoly, p: int):
        self.p, self.n = p, upoly_deg(mod)
        self.w = (2 * self.n * p * p).bit_length()
        self.slot = (1 << self.w) - 1
        inv = pow(mod[-1], -1, p)
        self.monic = self.pack([c * inv % p for c in mod[:-1]] + [1])

    def pack(self, f) -> int:
        return sum(c << self.w * i for i, c in enumerate(f))

    def coeffs(self, a: int) -> list[int]:
        """The n low slots of a reduced int, X^0 first."""
        return [a >> self.w * i & self.slot for i in range(self.n)]

    def reduce(self, acc: int, top: int) -> int:
        """acc mod `mod`, packed, for acc with no nonzero slot above `top`."""
        p, n, w, slot, monic = self.p, self.n, self.w, self.slot, self.monic
        for i in range(top, n - 1, -1):
            c = (acc >> w * i & slot) % p
            if c:
                acc += (p - c) * monic << w * (i - n)
        out = 0
        for i in range(n - 1, -1, -1):
            out = out << w | (acc >> w * i & slot) % p
        return out

    def mul(self, a: int, b: int) -> int:
        """a*b mod `mod` for reduced packed a and b."""
        return self.reduce(a * b, self.n - 1 + (b.bit_length() - 1) // self.w)  # n - 1 + deg b

    def pow(self, base: UPoly, e: int) -> UPoly:
        """base^e mod `mod`, left to right."""
        b = self.reduce(self.pack(base), len(base) - 1)
        r = 1
        for i in range(e.bit_length() - 1, -1, -1):
            r = self.mul(r, r)
            if e >> i & 1:
                r = self.mul(r, b)
        return upoly_trim(self.coeffs(r))


def upoly_pow_mod(base: UPoly, e: int, mod: UPoly, ctx: FieldCtx) -> UPoly:
    """base^e mod `mod`, left to right.  Over GF(p) on packed ints; over
    GF(p^k), whose elements are log-table codes rather than residues, a
    set bit of e is one multiplication by base, which for base = X is a
    shift plus one axpy."""
    if upoly_deg(mod) < 1:
        raise UsageError("modulus must have degree >= 1")
    if ctx.k == 1:
        return PackedModulus(mod, ctx.p).pow(base, e)
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


def upoly_resultant(f: UPoly, g: UPoly, ctx: FieldCtx) -> int:
    """Res(f, g), the Sylvester determinant at the formal degrees
    n = len(f) - 1 >= 0 and m = len(g) - 1 >= 0 (top coefficients may be
    0), by Euclidean remainders (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, §6.3-6.4):
    Res(f, g) = (-1)^(nm) * lc(g)^(n - deg r) * Res(g, r) with r = f mod g,
    down to Res(f, c) = c^n for a constant c, and 0 once a remainder
    vanishes; a constant f gives Res(c, g) = c^m the same way.  Only the
    divisor's top coefficient must be nonzero."""
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        raise UsageError("upoly_resultant needs a coefficient on each side")
    ops = ctx.ops
    acc = 1
    if m and not g[-1]:  # start from Res(g, f); a zero first column if both tops are 0
        if not f[-1]:
            return 0
        f, g, n, m = g, f, m, n
        acc = ops.neg(acc) if n & m & 1 else acc
    while m > 0:
        r = upoly_mod(f, g, ctx)
        if not r:
            return 0
        if n & m & 1:
            acc = ops.neg(acc)
        acc = ops.mul(acc, ops.pow(g[-1], n - upoly_deg(r)))
        f, g, n, m = g, r, m, upoly_deg(r)
    return ops.mul(acc, ops.pow(g[0], n))
