"""Uniform random systems and strips from deterministic 64-bit streams.

The generator is a SplitMix64 walk; a stream is addressed by (seed,
stream_id) and two streams with the same address produce identical bytes
on every host, which is what makes experiments replayable and
worker-count independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, UsageError
from .ffield import FieldCtx
from .mpoly import MPoly, check_polys, check_slots, monomial_row, polys_from_slots, slot_array

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)  # _mix64's multipliers

Strip = tuple[int, ...]

MAX_STRIPS = 1 << 20


def _mix64(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class RngStream:
    """One independently addressable SplitMix64 stream."""

    __slots__ = ("seed", "stream_id", "state")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _M64
        self.stream_id = stream_id & _M64
        self.state = _mix64(self.seed ^ _mix64((self.stream_id + 1) * _GAMMA))

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _M64
        return _mix64(self.state)

    def next_below(self, n: int) -> int:
        """Unbiased draw from [0, n) by rejection."""
        if n <= 0:
            raise UsageError("bound must be positive")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def below_array(self, n: int, count: int) -> np.ndarray:
        """[self.next_below(n) for _ in range(count)], leaving the same
        state, as an array: int64 for n <= 2^63, Python ints above.

        The k-th state after this one is state + k * gamma mod 2^64, so
        the block is one uint64 array pass (arrays wrap silently where
        numpy scalars would warn).  If any raw draw reaches the rejection
        limit, which needs 2^64 mod n != 0 and has probability below 2^-33
        per draw for n < 2^31, the whole block is redrawn by the scalar
        path from the unchanged state.
        """
        if n <= 0:
            raise UsageError("bound must be positive")
        if n == 1 or count == 0:
            return np.zeros(count, dtype=np.int64)
        if n <= 1 << 63:
            limit = (1 << 64) - ((1 << 64) % n)
            z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            z += np.uint64(self.state)
            z ^= z >> 30
            z *= _MIX1
            z ^= z >> 27
            z *= _MIX2
            z ^= z >> 31
            if int(z.max()) < limit:
                self.state = (self.state + count * _GAMMA) & _M64
                return (z % np.uint64(n)).astype(np.int64)
        return np.array([self.next_below(n) for _ in range(count)], dtype=np.int64 if n <= 1 << 63 else object)


def check_shape(r: int, s: int, d: int, min_degree: int = 2) -> None:
    """UsageError unless (r, s, d) is a search input: 1 < s < r equations
    in r variables, with degree bound d >= 2 (>= 1 for the exact oracles)."""
    if not 1 < s < r:
        raise UsageError(f"need 1 < s < r, got s={s}, r={r}")
    if d < min_degree:
        raise UsageError(f"degree bound must be >= {min_degree}, got {d}")


def check_strips(strips, m: int, ctx: FieldCtx) -> list[Strip]:
    """strips as a list of tuples; UsageError unless each holds m field
    elements and no two are equal."""
    strips = [tuple(a) for a in strips]
    for a in strips:
        if len(a) != m:
            raise UsageError(f"strip {a} must have {m} coordinates")
        for x in a:
            ctx.check(x)
    if len(set(strips)) != len(strips):
        raise UsageError("strips must be pairwise distinct")
    return strips


@dataclass(frozen=True)
class SystemSpec:
    """An input instance: s polynomials of degree <= d in r variables."""

    ctx: FieldCtx
    r: int
    s: int
    d: int
    polys: tuple[MPoly, ...]

    def __post_init__(self) -> None:
        check_shape(self.r, self.s, self.d)
        check_slots(self.r, self.d)
        check_polys(self.polys, self.s, self.r, self.d)
        if len({f._slots[0] for f in self.polys}) > 1:
            # one slot block, so that each point substitutes all polynomials at once
            object.__setattr__(self, "polys", polys_from_slots(self.r, self.d, slot_array(self.polys, self.d)))

    @property
    def hstar(self) -> int:
        """Default strip budget r - s + 1."""
        return self.r - self.s + 1


def sample_system(
    ctx: FieldCtx, r: int, s: int, d: int, rng: RngStream, allow_zero: bool = True
) -> SystemSpec:
    """Draw every coefficient independently and uniformly from the field.

    Slots follow the canonical monomial order.  With allow_zero=False an
    all-zero polynomial is rejected and redrawn.
    """
    check_shape(r, s, d)
    nslots = check_slots(r, d)
    if allow_zero:
        # the draws of consecutive blocks are those of one block
        coeffs = rng.below_array(ctx.q, s * nslots).reshape(s, nslots)
    else:
        rows = []
        for _ in range(s):
            while True:
                row = rng.below_array(ctx.q, nslots)
                if row.any():
                    break
            rows.append(row)
        coeffs = np.array(rows)
    # slots are in canonical order and hold field elements: no from_terms
    return SystemSpec(ctx, r, s, d, polys_from_slots(r, d, coeffs))


def check_strip_budget(h: int, m: int, ctx: FieldCtx) -> None:
    """h >= 1 pairwise-distinct strips of m coordinates must exist and fit the cap."""
    if h < 1:
        raise UsageError(f"strip budget hstar must be >= 1, got {h}")
    if m < 1:
        raise UsageError("strips need at least one coordinate")
    if h > MAX_STRIPS:
        raise CapacityError(f"strip count {h} exceeds 2^20 cap")
    if h > ctx.q ** m:
        raise DomainError(f"cannot draw {h} distinct strips from {ctx.q ** m}")


def sample_strips(ctx: FieldCtx, m: int, h: int, rng: RngStream) -> list[Strip]:
    """h pairwise-distinct strips, uniform over injective sequences.

    Strips are drawn one at a time with rejection on collision, so the
    first k outputs coincide with a call that asked for only k: budgets
    can be extended without disturbing the prefix.
    """
    check_strip_budget(h, m, ctx)
    q = ctx.q
    seen: set[Strip] = set()
    out: list[Strip] = []
    while len(out) < h:
        cand = tuple(rng.next_below(q) for _ in range(m))
        if cand in seen:
            continue
        seen.add(cand)
        out.append(cand)
    return out


# ---------------------------------------------------------------------------
# matrix builders for the rank properties of the sampling arguments


def m_matrix(strips: list[Strip]) -> list[list[int]]:
    """Square matrix, as rows, with row i = (1, a_i1, ..., a_i,h-1)."""
    h = len(strips)
    if h < 1:
        raise UsageError("need at least one strip")
    for a in strips:
        if len(a) < h - 1:
            raise DomainError(f"strip {a} has fewer than {h - 1} coordinates")
    return [[1, *a[: h - 1]] for a in strips]


def vandermonde_a(points: list[tuple[int, ...]], d: int, ctx: FieldCtx) -> list[list[int]]:
    """Rows = all monomials of degree <= d evaluated at each point.

    The points must be pairwise distinct and there must be at most d + 1
    of them; under those conditions the matrix always has full row rank.
    """
    s = len(points)
    if s == 0:
        raise UsageError("need at least one point")
    if len(set(points)) != s:
        raise DomainError("points must be pairwise distinct")
    if s > d + 1:
        raise UsageError(f"rank property needs at most d + 1 = {d + 1} points")
    r = len(points[0])
    if any(len(pt) != r for pt in points):
        raise UsageError("points must share a dimension")
    return [monomial_row(pt, d, ctx) for pt in points]


def condition_matrix(
    strips: list[Strip],
    point_sets: list[list[tuple[int, ...]]],
    d: int,
    r: int,
    ctx: FieldCtx,
) -> list[list[int]]:
    """Stacked monomial-evaluation rows at (a_i, x) for x in the i-th set.

    Encodes the linear conditions "vanish on X_i inside strip a_i" on the
    coefficients of a degree-<= d polynomial in r variables.  Set sizes
    must be descending and bounded by d.
    """
    h = len(strips)
    if h == 0 or len(point_sets) != h:
        raise UsageError("need one point set per strip")
    sizes = [len(ps) for ps in point_sets]
    if any(j < 1 for j in sizes) or any(sizes[i] < sizes[i + 1] for i in range(h - 1)):
        raise UsageError(f"set sizes must be descending and >= 1, got {sizes}")
    if sizes[0] > d:
        raise UsageError(f"largest set size {sizes[0]} exceeds degree bound {d}")
    if any(len(set(ps)) != len(ps) for ps in point_sets):
        raise UsageError("points within a set must be distinct")
    s_dim = len(point_sets[0][0])
    if any(len(x) != s_dim for ps in point_sets for x in ps):
        raise UsageError("points must share a dimension")
    if any(len(a) + s_dim != r for a in strips):
        raise UsageError("strip length plus point dimension must equal r")
    return [monomial_row(tuple(a) + tuple(x), d, ctx) for a, ps in zip(strips, point_sets) for x in ps]
