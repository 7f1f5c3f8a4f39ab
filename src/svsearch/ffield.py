"""Finite fields GF(p) and GF(p^k) with canonical integer-encoded elements.

An element of GF(p^k) is the integer c0 + c1*p + ... + c_{k-1}*p^(k-1)
where (c0, ..., c_{k-1}) are the coefficients of its canonical
representative in GF(p)[X]/(modulus).  For prime fields this is just the
usual residue in [0, p).  Integer encoding keeps elements hashable,
totally ordered (used for deterministic tie-breaking) and cheap to pack
into numpy arrays.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from operator import xor
from typing import NamedTuple

from .errors import CapacityError, DomainError, UsageError
from .upoly import X_POLY, PackedModulus, upoly_deg, upoly_gcd_unchecked, upoly_pow_mod, upoly_sub

PRIME_LIMIT = 1 << 31  # products of two residues must fit in 64 bits
IRREDUCIBLE_SCAN_LIMIT = 1 << 40
FACTOR_LIMIT = 1 << 20  # isqrt(IRREDUCIBLE_SCAN_LIMIT)
LOG_TABLE_LIMIT = 1 << 16  # extension fields up to this order get log/antilog tables


def factor(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, primes ascending, by trial division.

    Divisors stop at FACTOR_LIMIT, so every n <= 2^40 (every order that
    `field_for_order` can build) factors completely; CapacityError when a
    larger cofactor has no prime factor up to the limit.
    """
    if n < 1:
        raise UsageError(f"cannot factor {n}")
    out: dict[int, int] = {}
    rest, f = n, 2
    while f * f <= rest:
        if f > FACTOR_LIMIT:
            raise CapacityError(f"{n} leaves a cofactor above 2^40 with no prime factor below 2^20")
        while rest % f == 0:
            out[f] = out.get(f, 0) + 1
            rest //= f
        f += 2 if f > 2 else 1
    if rest > 1:
        out[rest] = 1
    return out


def is_prime(n: int) -> bool:
    return n > 1 and factor(n) == {n: 1}


def _is_irreducible(f: tuple[int, ...], base: FieldCtx) -> bool:
    """Complete test over the prime field `base` for deg(f) >= 2: no irreducible
    factor of degree <= deg(f)/2, i.e. gcd(f, X^(p^i) - X) = 1 for i <= deg(f)/2."""
    frob = X_POLY
    for _ in range(upoly_deg(f) // 2):
        frob = upoly_pow_mod(frob, base.p, f, base)  # X^(p^i) mod f
        if upoly_deg(upoly_gcd_unchecked(f, upoly_sub(frob, X_POLY, base), base)) != 0:
            return False
    return True


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over GF(p), by exhaustive scan.

    Candidates are ordered by the integer value of their non-leading
    coefficient vector (c0 + c1*p + ...), so the result is deterministic.
    Returns dense coefficients (c0, ..., c_{k-1}, 1).
    """
    if k < 2:
        raise UsageError("find_irreducible needs degree k >= 2")
    if p ** k > IRREDUCIBLE_SCAN_LIMIT:
        raise CapacityError(f"p^k = {p ** k} exceeds scan cap 2^40")
    if not is_prime(p):
        raise UsageError(f"p={p} is not prime")
    base = FieldCtx(p)
    for n in range(p ** k):
        tail = []
        m = n
        for _ in range(k):
            tail.append(m % p)
            m //= p
        f = tuple(tail) + (1,)
        if f[0] == 0:
            continue
        if _is_irreducible(f, base):
            return f
    raise DomainError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------

class LogTables(NamedTuple):
    """Log/antilog (and, for odd p, Zech) tables of GF(p^k) to one generator g.

    exp[n] = g^(n mod (q-1)) for n < 2(q-1), so a sum of two logs needs no
    reduction.  log[a] is the discrete log of a != 0; log[0] = -1 marks that
    zero has none.  For odd p, zech[n] = log(1 + g^n) over n < q-1, with -1
    where 1 + g^n = 0; for p = 2 addition is XOR and zech is None.
    """

    exp: list[int]
    log: list[int]
    zech: list[int] | None


class FieldOps(NamedTuple):
    """Unchecked element operations of one field, built once per field.

    Every kernel runs on these and validates nothing; the public FieldCtx
    methods are `check` followed by the entry here.  axpy(dst, c, src) is
    the row primitive [d + c*s for d, s in zip(dst, src)].
    """

    add: Callable[[int, int], int]
    sub: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    neg: Callable[[int], int]
    inv: Callable[[int], int]  # of a nonzero element
    pow: Callable[[int, int], int]  # a^e for e >= 0, with 0^0 = 1
    axpy: Callable[[list[int], int, Sequence[int]], list[int]]


@dataclass(frozen=True)
class FieldCtx:
    """A finite field GF(p^k); all element operations live here.

    Elements are ints in [0, p^k) (see module docstring).  Instances are
    immutable and safe to share between workers: the tables cached on an
    instance are left out of its pickled state and rebuilt on first use.
    """

    p: int
    k: int = 1
    modulus: tuple[int, ...] | None = None  # dense monic coeffs, len k+1

    def __post_init__(self) -> None:
        if self.p >= PRIME_LIMIT:
            raise CapacityError(f"p={self.p} exceeds 2^31 cap")
        if not is_prime(self.p):
            raise UsageError(f"p={self.p} is not prime")
        if self.k < 1:
            raise UsageError("extension degree k must be >= 1")
        if self.k == 1:
            if self.modulus is not None:
                raise UsageError("prime field takes no modulus")
            return
        if self.modulus is None:
            object.__setattr__(self, "modulus", find_irreducible(self.p, self.k))
        mod = tuple(self.modulus)
        object.__setattr__(self, "modulus", mod)  # hashable, and equal however it was given
        if len(mod) != self.k + 1 or mod[-1] != 1:
            raise UsageError("modulus must be monic of degree k")
        if any(not (0 <= c < self.p) for c in mod):
            raise UsageError("modulus coefficients must be reduced mod p")
        if not _is_irreducible(mod, self._prime_field):
            raise UsageError("modulus is reducible")

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- basic structure ---------------------------------------------------

    @cached_property
    def q(self) -> int:
        return self.p ** self.k

    @cached_property
    def _prime_field(self) -> FieldCtx:
        return FieldCtx(self.p)

    def elements(self) -> range:
        """All field elements in canonical ascending order."""
        return range(self.q)

    def check(self, a: int) -> int:
        if type(a) is int and 0 <= a < self.q:  # the common case, first
            return a
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise UsageError(f"{a!r} is not an element of GF({self.p}^{self.k})")
        return a

    def _digits(self, a: int) -> list[int]:
        p, out = self.p, []
        for _ in range(self.k):
            a, c = divmod(a, p)
            out.append(c)
        return out

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector (c0, ..., c_{k-1}) of an element."""
        return tuple(self._digits(self.check(a)))

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self.k or any(not (0 <= c < self.p) for c in cs):
            raise UsageError("coefficient vector does not match field")
        return self._encode(cs)

    # -- arithmetic --------------------------------------------------------

    @cached_property
    def log_tables(self) -> LogTables | None:
        """Tables for extension fields of order <= LOG_TABLE_LIMIT, else None.

        Built once per instance by walking the powers of the smallest
        primitive element g (g^((q-1)/r) != 1 for every prime r | q-1) with
        digit arithmetic.  cached_property stores the result in the
        instance dict, so equality and hashing still see only the dataclass
        fields.
        """
        q = self.q
        if self.k == 1 or q > LOG_TABLE_LIMIT:
            return None
        order = q - 1
        primes = list(factor(order))
        g = next(g for g in range(2, q) if all(self._pow_raw(g, order // r) != 1 for r in primes))
        pm = self._packed_modulus  # walk the powers of g packed: one pm.mul a step
        gen, power, exp = pm.pack(self._digits(g)), 1, [1]
        for _ in range(order - 1):
            power = pm.mul(power, gen)
            exp.append(self._encode(pm.coeffs(power)))
        log = [-1] * q
        for n, x in enumerate(exp):
            log[x] = n
        zech = None if self.p == 2 else [log[self._add_raw(1, x)] for x in exp]
        return LogTables(exp + exp, log, zech)

    @cached_property
    def ops(self) -> FieldOps:
        """The op table: `% p` for prime fields, log/Zech lookups for
        extension fields up to LOG_TABLE_LIMIT, digit arithmetic above it.
        Addition is XOR whenever p = 2."""
        p, q = self.p, self.q
        if self.k == 1:
            return FieldOps(
                add=lambda a, b: (a + b) % p,
                sub=lambda a, b: (a - b) % p,
                mul=lambda a, b: a * b % p,
                neg=lambda a: -a % p,
                inv=lambda a: pow(a, -1, p),
                pow=lambda a, e: pow(a, e, p),
                axpy=lambda dst, c, src: [(d + c * s) % p for d, s in zip(dst, src)],
            )
        t = self.log_tables
        if t is None:
            add, sub, mul, pw = self._add_raw, self._sub_raw, self._mul_raw, self._pow_raw

            def neg(a: int) -> int:
                return self._sub_raw(0, a)

            def inv(a: int) -> int:
                return self._pow_raw(a, q - 2)

        else:
            exp, log, zech = t

            def add(a: int, b: int) -> int:
                if a == 0 or b == 0:
                    return a or b
                # g^la + g^lb = g^(la + zech[lb - la]); len(zech) = q-1, so a
                # negative index wraps mod q-1
                la = log[a]
                z = zech[log[b] - la]
                return 0 if z < 0 else exp[la + z]

            def sub(a: int, b: int) -> int:
                return add(a, neg(b))

            def neg(a: int) -> int:
                return exp[log[a] + (q - 1) // 2] if a else 0  # -1 = g^((q-1)/2)

            def mul(a: int, b: int) -> int:
                return exp[log[a] + log[b]] if a and b else 0

            def inv(a: int) -> int:
                return exp[q - 1 - log[a]]

            def pw(a: int, e: int) -> int:
                return exp[e * log[a] % (q - 1)] if a else int(e == 0)

        if p == 2:
            add = sub = xor

            def neg(a: int) -> int:
                return a

        def axpy(dst: list[int], c: int, src: Sequence[int]) -> list[int]:
            return [add(d, mul(c, s)) for d, s in zip(dst, src)]

        return FieldOps(add, sub, mul, neg, inv, pw, axpy)

    # digit arithmetic: elements as polynomials over GF(p)

    def _encode(self, digits) -> int:
        v = 0
        for c in reversed(digits):
            v = v * self.p + c
        return v

    def _add_raw(self, a: int, b: int, sign: int = 1) -> int:
        """a + sign * b, digit by digit."""
        p, out, mult = self.p, 0, 1
        for _ in range(self.k):
            out += (a % p + sign * (b % p)) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _sub_raw(self, a: int, b: int) -> int:
        return self._add_raw(a, b, -1)

    @cached_property
    def _packed_modulus(self) -> PackedModulus:
        return PackedModulus(self.modulus, self.p)

    def _mul_raw(self, a: int, b: int) -> int:
        pm = self._packed_modulus
        return self._encode(pm.coeffs(pm.mul(pm.pack(self._digits(a)), pm.pack(self._digits(b)))))

    def _pow_raw(self, a: int, e: int) -> int:
        return self._encode(self._packed_modulus.pow(self._digits(a), e))

    def add(self, a: int, b: int) -> int:
        return self.ops.add(self.check(a), self.check(b))

    def sub(self, a: int, b: int) -> int:
        return self.ops.sub(self.check(a), self.check(b))

    def neg(self, a: int) -> int:
        return self.ops.neg(self.check(a))

    def mul(self, a: int, b: int) -> int:
        return self.ops.mul(self.check(a), self.check(b))

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise DomainError("zero has no inverse")
        return self.ops.inv(a)

    def pow(self, a: int, e: int) -> int:
        """a^e with 0^0 = 1 (zero exponents must yield the coefficient)."""
        self.check(a)
        if e < 0:
            raise UsageError("negative exponent; use inv")
        return self.ops.pow(a, e)

    def __str__(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


def prime_field(p: int) -> FieldCtx:
    return FieldCtx(p)


def extension_field(p: int, k: int, modulus: tuple[int, ...] | None = None) -> FieldCtx:
    return FieldCtx(p, k, modulus)


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for prime p; UsageError unless q is a prime power."""
    powers = factor(q) if q > 1 else {}
    if len(powers) != 1:
        raise UsageError(f"q={q} is not a prime power")
    [(p, k)] = powers.items()
    return p, k


def field_for_order(q: int) -> FieldCtx:
    """GF(q) for a prime power q, with the canonical (smallest) modulus."""
    p, k = prime_power(q)
    return FieldCtx(p) if k == 1 else FieldCtx(p, k)


# ---------------------------------------------------------------------------


def matrix_rank(m: Sequence[Sequence[int]], ctx: FieldCtx) -> int:
    """Rank over the field of a list of equal-length rows, by Gaussian
    elimination; m is left untouched."""
    ops = ctx.ops
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise UsageError("matrix rows must have equal length")
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        minus_inv = ops.neg(ops.inv(a[rank][col]))
        tail = a[rank][col:]
        for i in range(rank + 1, rows):
            f = a[i][col]
            if f:
                a[i][col:] = ops.axpy(a[i][col:], ops.mul(f, minus_inv), tail)
        rank += 1
        if rank == rows:
            break
    return rank
