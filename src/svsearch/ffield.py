"""Finite fields GF(p) and GF(p^k) with canonical integer-encoded elements.

An element of GF(p^k) is the integer c0 + c1*p + ... + c_{k-1}*p^(k-1)
where (c0, ..., c_{k-1}) are the coefficients of its canonical
representative in GF(p)[X]/(modulus).  For prime fields this is just the
usual residue in [0, p).  Integer encoding keeps elements hashable,
totally ordered (used for deterministic tie-breaking) and cheap to pack
into numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import CapacityError, DomainError, UsageError

PRIME_LIMIT = 1 << 31  # products of two residues must fit in 64 bits
IRREDUCIBLE_SCAN_LIMIT = 1 << 40
LOG_TABLE_LIMIT = 1 << 16  # extension fields up to this order get log/antilog tables


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# dense univariate arithmetic over GF(p), used only for modulus handling
# (general univariate machinery over any field lives in mpoly)

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        coef = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * mi) % p
        _ptrim(a)
    return a


def _pmulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pmod(out, m, p)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _xpow_qe_mod(m: list[int], p: int, e: int) -> list[int]:
    """X^(p^e) mod m, by e rounds of X -> X^p (square-and-multiply each)."""
    t = _pmod([0, 1], m, p)
    for _ in range(e):
        acc = [1]
        base = t
        n = p
        while n:
            if n & 1:
                acc = _pmulmod(acc, base, m, p)
            base = _pmulmod(base, base, m, p)
            n >>= 1
        t = acc
    return t


def _is_irreducible(f: list[int], p: int) -> bool:
    """Complete test: no irreducible factor of degree <= deg(f)/2."""
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    if f[0] == 0:  # divisible by X
        return False
    for i in range(1, k // 2 + 1):
        xq = _xpow_qe_mod(f, p, i)
        g = list(xq)
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p  # X^(p^i) - X
        _ptrim(g)
        if len(_pgcd(f, g, p)) - 1 != 0:
            return False
    return True


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over GF(p), by exhaustive scan.

    Candidates are ordered by the integer value of their non-leading
    coefficient vector (c0 + c1*p + ...), so the result is deterministic.
    Returns dense coefficients (c0, ..., c_{k-1}, 1).
    """
    if not is_prime(p):
        raise UsageError(f"p={p} is not prime")
    if k < 2:
        raise UsageError("find_irreducible needs degree k >= 2")
    if p ** k > IRREDUCIBLE_SCAN_LIMIT:
        raise CapacityError(f"p^k = {p ** k} exceeds scan cap 2^40")
    for n in range(p ** k):
        tail = []
        m = n
        for _ in range(k):
            tail.append(m % p)
            m //= p
        f = tail + [1]
        if f[0] == 0:
            continue
        if _is_irreducible(f, p):
            return tuple(f)
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


@dataclass(frozen=True)
class FieldCtx:
    """A finite field GF(p^k); all element operations live here.

    Elements are ints in [0, p^k) (see module docstring).  Instances are
    immutable and safe to share between workers.
    """

    p: int
    k: int = 1
    modulus: tuple[int, ...] | None = None  # dense monic coeffs, len k+1

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise UsageError(f"p={self.p} is not prime")
        if self.p >= PRIME_LIMIT:
            raise CapacityError(f"p={self.p} exceeds 2^31 cap")
        if self.k < 1:
            raise UsageError("extension degree k must be >= 1")
        if self.k == 1:
            if self.modulus is not None:
                raise UsageError("prime field takes no modulus")
            return
        if self.modulus is None:
            object.__setattr__(self, "modulus", find_irreducible(self.p, self.k))
        mod = list(self.modulus)
        if len(mod) != self.k + 1 or mod[-1] != 1:
            raise UsageError("modulus must be monic of degree k")
        if any(not (0 <= c < self.p) for c in mod):
            raise UsageError("modulus coefficients must be reduced mod p")
        if not _is_irreducible(mod, self.p):
            raise UsageError("modulus is reducible")

    # -- basic structure ---------------------------------------------------

    @cached_property
    def q(self) -> int:
        return self.p ** self.k

    def elements(self) -> range:
        """All field elements in canonical ascending order."""
        return range(self.q)

    def check(self, a: int) -> int:
        if type(a) is int and 0 <= a < self.q:  # the common case, first
            return a
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise UsageError(f"{a!r} is not an element of GF({self.p}^{self.k})")
        return a

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector (c0, ..., c_{k-1}) of an element."""
        self.check(a)
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self.k or any(not (0 <= c < self.p) for c in cs):
            raise UsageError("coefficient vector does not match field")
        v = 0
        for c in reversed(cs):
            v = v * self.p + c
        return v

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
        primes = [r for r in range(2, order + 1) if order % r == 0 and is_prime(r)]
        g = next(
            g for g in range(2, q) if all(self._pow_raw(g, order // r) != 1 for r in primes)
        )
        exp = [1]
        for _ in range(order - 1):
            exp.append(self._mul_raw(g, exp[-1]))
        log = [-1] * q
        for n, x in enumerate(exp):
            log[x] = n
        zech = None if self.p == 2 else [log[self._add_raw(1, x)] for x in exp]
        return LogTables(exp + exp, log, zech)

    def _add_raw(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _sub_raw(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += (a % p - b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        p = self.p
        da = []
        db = []
        for _ in range(self.k):
            da.append(a % p)
            db.append(b % p)
            a //= p
            b //= p
        prod = [0] * (2 * self.k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        prod = _pmod(prod, list(self.modulus), p)
        prod += [0] * (self.k - len(prod))
        return self.from_coeffs(prod)

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_raw(a, result)
            a = self._mul_raw(a, a)
            e >>= 1
        return result

    def add(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        t = self.log_tables
        if t is None:
            return self._add_raw(a, b)
        if a == 0 or b == 0:
            return a or b
        # g^la + g^lb = g^(la + zech[lb - la]); len(zech) = q-1, so a
        # negative index wraps mod q-1
        la = t.log[a]
        z = t.zech[t.log[b] - la]
        return 0 if z < 0 else t.exp[la + z]

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            self.check(a)
            self.check(b)
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        self.check(a)
        if self.k == 1:
            return -a % self.p
        if self.p == 2 or a == 0:
            return a
        t = self.log_tables
        if t is None:
            return self._sub_raw(0, a)
        return t.exp[t.log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def mul(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        if self.k == 1:
            return a * b % self.p
        t = self.log_tables
        if t is None:
            return self._mul_raw(a, b)
        if a == 0 or b == 0:
            return 0
        return t.exp[t.log[a] + t.log[b]]

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise DomainError("zero has no inverse")
        if self.k == 1:
            return pow(a, -1, self.p)
        t = self.log_tables
        if t is None:
            return self._pow_raw(a, self.q - 2)
        return t.exp[self.q - 1 - t.log[a]]

    def pow(self, a: int, e: int) -> int:
        """a^e with 0^0 = 1 (zero exponents must yield the coefficient)."""
        self.check(a)
        if e < 0:
            raise UsageError("negative exponent; use inv")
        if self.k == 1:
            return pow(a, e, self.p)
        t = self.log_tables
        if t is not None:
            if a == 0:
                return 0 if e else 1
            return t.exp[e * t.log[a] % (self.q - 1)]
        return self._pow_raw(a, e)

    def __str__(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


def prime_field(p: int) -> FieldCtx:
    return FieldCtx(p)


def extension_field(p: int, k: int, modulus: tuple[int, ...] | None = None) -> FieldCtx:
    return FieldCtx(p, k, modulus)


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for prime p; UsageError unless q is a prime power."""
    if q < 2:
        raise UsageError("field order must be >= 2")
    p = None
    n = q
    for f in range(2, q + 1):
        if f * f > n:
            p = n if p is None else p
            break
        if n % f == 0:
            p = f
            break
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise UsageError(f"q={q} is not a prime power")
    return p, k


def field_for_order(q: int) -> FieldCtx:
    """GF(q) for a prime power q, with the canonical (smallest) modulus."""
    p, k = prime_power(q)
    return FieldCtx(p) if k == 1 else FieldCtx(p, k)


# ---------------------------------------------------------------------------


@dataclass
class FMatrix:
    """Dense row-major matrix of field elements."""

    rows: int
    cols: int
    entries: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise UsageError("entry count does not match dimensions")

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> "FMatrix":
        t = [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return FMatrix(self.cols, self.rows, t)


def matrix_rank(m: FMatrix, ctx: FieldCtx) -> int:
    """Rank over the field by Gaussian elimination; m is left untouched."""
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) for i in range(rows)]
    rank = 0
    for col in range(cols):
        pivot = None
        for i in range(rank, rows):
            if a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = ctx.inv(a[rank][col])
        prow = a[rank]
        if inv != 1:
            for j in range(col, cols):
                prow[j] = ctx.mul(prow[j], inv)
        for i in range(rank + 1, rows):
            f = a[i][col]
            if f:
                arow = a[i]
                for j in range(col, cols):
                    if prow[j]:
                        arow[j] = ctx.sub(arow[j], ctx.mul(f, prow[j]))
        rank += 1
        if rank == rows:
            break
    return rank
