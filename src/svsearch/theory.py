"""Exact evaluation of every closed-form probability and complexity bound.

All quantities are big-integer rationals.  The handful of expressions
that involve the constant e use a certified rational upper bound with
error below 1e-50; since e only ever appears in interval radii, rounding
it outward keeps every interval a true enclosure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, log2
from typing import NamedTuple

from .errors import CapacityError, DomainError, UsageError
from .ffield import prime_power
from .sampler import check_shape

STIRLING_CAP = 20
UL_CAP = 32

# rational upper bound on e: sum_{k<=45} 1/k! plus a tail dominator
E_UPPER: Fraction = sum(Fraction(1, factorial(k)) for k in range(46)) + Fraction(2, factorial(46))


def fraction_text(x: Fraction) -> str:
    """str(x), refused with CapacityError, not ValueError, when the
    numerator or denominator has more digits than the interpreter will
    convert (`sys.get_int_max_str_digits`)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # absent, and no limit, before 3.10.7
    if limit and max(abs(x.numerator), x.denominator) >= 10**limit:
        raise CapacityError(f"a number in the report has more than {limit} digits")
    return str(x)


def _odd_order(d: int) -> int:
    """The odd one of d and d + 1.

    An alternating inclusion-exclusion sum cut after an odd number of
    terms bounds from above, so the pivots truncate at this order.
    """
    return d if d % 2 == 1 else d + 1


def _cert_gate(s: int, d: int) -> int:
    """2 d^s (d+1)^s: the certificate statements need q above this."""
    return 2 * d ** s * (d + 1) ** s


def mu(m: int) -> Fraction:
    """Truncated alternating series sum_{j=1}^m (-1)^(j-1)/j!.

    The limiting per-strip success probability; tends to 1 - 1/e.
    """
    if m < 1:
        raise UsageError("mu needs m >= 1")
    return sum(Fraction((-1) ** (j - 1), factorial(j)) for j in range(1, m + 1))


class StripSums(NamedTuple):
    """Truncated inclusion-exclusion sums over point subsets of the strip.

    alt  = sum_{j<=m} (-1)^(j-1) C(q^s, j) q^(-sj)   (the two-sided pivot)
    tail = C(q^s, m) q^(-sm)                         (the m-th term alone)
    odd  = sum over odd j <= m of C(q^s, j) q^(-sj)
    even = sum over even j <= m of C(q^s, j) q^(-sj)
    plus = odd + even
    """

    alt: Fraction
    tail: Fraction
    odd: Fraction
    even: Fraction
    plus: Fraction


def strip_sums(q: int, s: int, m: int) -> StripSums:
    if m < 1:
        raise UsageError("strip_sums needs m >= 1")
    qs = q ** s
    odd = Fraction(0)
    even = Fraction(0)
    for j in range(1, m + 1):
        t = Fraction(comb(qs, j), qs ** j)
        if j % 2:
            odd += t
        else:
            even += t
    tail = Fraction(comb(qs, m), qs ** m)
    return StripSums(odd - even, tail, odd, even, odd + even)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundInterval:
    """An enclosure [center - radius, center + radius] for a probability.

    lower/upper clamp to [0, 1].  hypotheses maps each named assumption
    of the underlying statement to whether it holds for these parameters;
    the interval is still computed when some fail, just flagged.
    """

    center: Fraction
    radius: Fraction
    tag: str
    hypotheses: dict = field(default_factory=dict)
    outward_rounded: bool = False

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    @property
    def lower(self) -> Fraction:
        return max(self.center - self.radius, Fraction(0))

    @property
    def upper(self) -> Fraction:
        return min(self.center + self.radius, Fraction(1))

    @property
    def vacuous(self) -> bool:
        return self.radius >= 1

    def distance(self, x: Fraction) -> Fraction:
        """How far x sits outside the interval (0 when inside)."""
        if x < self.lower:
            return self.lower - x
        if x > self.upper:
            return x - self.upper
        return Fraction(0)

    def as_dict(self) -> dict:
        return {
            "tag": self.tag,
            "center": fraction_text(self.center),
            "radius": fraction_text(self.radius),
            "lower": fraction_text(self.lower),
            "upper": fraction_text(self.upper),
            "center_float": float(self.center),
            "lower_float": float(self.lower),
            "upper_float": float(self.upper),
            "hypotheses": dict(self.hypotheses),
            "hypotheses_ok": self.hypotheses_ok,
            "vacuous": self.vacuous,
        }


def _interval_from_endpoints(lo: Fraction, hi: Fraction, tag: str, hyps: dict) -> BoundInterval:
    return BoundInterval(center=(lo + hi) / 2, radius=(hi - lo) / 2, tag=tag, hypotheses=hyps)


def first_strip_bounds(q: int, s: int, d: int) -> BoundInterval:
    """Exact two-sided bounds on the chance that one strip already works:
    the alternating sums truncated at d and at d + 1, which bracket it."""
    lo, hi = sorted(strip_sums(q, s, m).alt for m in (d, d + 1))
    hyps = {"s<=d+1": s <= d + 1, "q^s>d": q ** s > d}
    return _interval_from_endpoints(lo, hi, "first_strip_exact", hyps)


def first_strip_series_bounds(q: int, s: int, d: int) -> BoundInterval:
    """Factorial-series form of the first-strip bounds."""
    qs = Fraction(2, q ** s)
    hyps = {"s<=d+1": s <= d + 1, "q^s>d": q ** s > d}
    lo, hi = sorted(mu(m) for m in (d, d + 1))
    return _interval_from_endpoints(lo - qs, hi + qs, "first_strip_series", hyps)


def joint_strips_bound(q: int, s: int, d: int, k: int) -> BoundInterval:
    """Enclosure for the chance that k given well-spread strips all work."""
    if k < 2:
        raise UsageError("joint_strips_bound needs k >= 2")
    sums_d1 = strip_sums(q, s, d + 1)
    pivot = strip_sums(q, s, _odd_order(d)).alt
    center = pivot ** k
    radius = sums_d1.tail / 2 * (sums_d1.plus ** (k - 1) + (2 * k - 1) * pivot ** (k - 1))
    hyps = {"s<=d+1": s <= d + 1, "q^s>d": q ** s > d, "k>=2": True}
    return BoundInterval(center, radius, "joint_strips_exact", hyps)


def success_at_strip_bound(q: int, s: int, d: int, h: int) -> BoundInterval:
    """Enclosure for "first h-1 well-spread strips fail, the h-th works"."""
    if h < 2:
        raise UsageError("success_at_strip_bound needs h >= 2")
    sums_d1 = strip_sums(q, s, d + 1)
    pivot = strip_sums(q, s, _odd_order(d)).alt
    center = pivot * (1 - pivot) ** (h - 1)
    radius = sums_d1.tail * ((1 + sums_d1.plus) ** (h - 1) + Fraction(1, 2))
    hyps = {"s<d": s < d}
    return BoundInterval(center, radius, "success_at_strip_exact", hyps)


def strip_index_bound(q: int, s: int, d: int, h: int) -> BoundInterval:
    """Enclosure for the chance that the h-th random strip is the first hit."""
    base = success_at_strip_bound(q, s, d, h)
    hyps = dict(base.hypotheses)
    hyps["q^s>d"] = q ** s > d
    return BoundInterval(base.center, base.radius + Fraction(2, q), "strip_index_exact", hyps)


def strip_index_series_bound(q: int, s: int, d: int, h: int) -> BoundInterval:
    """Factorial-series form of strip_index_bound (radius outward-rounded)."""
    if h < 2:
        raise UsageError("strip_index_series_bound needs h >= 2")
    mu_par = mu(_odd_order(d))
    center = mu_par * (1 - mu_par) ** (h - 1)
    radius = (
        Fraction(1, factorial(d + 1)) * (E_UPPER ** (h - 1) + Fraction(1, 2))
        + Fraction(2, q)
        + Fraction(5, q ** s) * (2 - mu(d)) ** (h - 1)
    )
    hyps = {"s<d": s < d, "q^s>d": q ** s > d, "q^s>6": q ** s > 6}
    return BoundInterval(center, radius, "strip_index_series", hyps, outward_rounded=True)


def failure_bound(q: int, r: int, s: int, d: int) -> BoundInterval:
    """Enclosure for the chance that the whole default budget fails."""
    hstar = r - s + 1
    mu_par = mu(_odd_order(d))
    center = (1 - mu_par) ** hstar
    radius = (
        E_UPPER ** hstar / factorial(d + 1)
        + Fraction(2 * hstar, q)
        + Fraction(15, q ** s) * (2 - mu(d)) ** hstar
    )
    hyps = {"s<d": s < d, "q^s>d": q ** s > d}
    tag = "failure_probability" if hstar >= 2 else "failure_probability(budget<2)"
    return BoundInterval(center, radius, tag, hyps, outward_rounded=True)


def joint_cert_success_bound(q: int, s: int, d: int, h: int) -> BoundInterval:
    """Enclosure for "first hit at strip h AND that strip is certified":
    strip_index_series_bound (which refuses h < 2) widened by the certificate's gate/q."""
    base = strip_index_series_bound(q, s, d, h)
    gate = _cert_gate(s, d)
    hyps = {"q>2d^s(d+1)^s": q > gate, "s<d": s < d, "h>1": True}
    radius = base.radius + Fraction(gate, q)
    return BoundInterval(base.center, radius, "certified_success_at_strip", hyps, outward_rounded=True)


@dataclass(frozen=True)
class ExpectedStripsBound:
    """Explicit part of the mean-strip-count bound plus its unevaluated tail.

    value bounds the expected number of strips searched; o_tail is the
    order-term r(d+1)^(2r)/q reported with conventional coefficient 1 and
    never added into value (the true constant is unspecified).
    """

    value: Fraction
    o_tail: Fraction
    hypotheses: dict

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    def as_dict(self) -> dict:
        return {
            "value": fraction_text(self.value),
            "value_float": float(self.value),
            "o_tail": fraction_text(self.o_tail),
            "o_tail_float": float(self.o_tail),
            "hypotheses": dict(self.hypotheses),
            "hypotheses_ok": self.hypotheses_ok,
        }


def expected_strips_bound(q: int, r: int, s: int, d: int) -> ExpectedStripsBound:
    hstar = r - s + 1
    mu_par = mu(_odd_order(d))
    value = 1 / mu_par + hstar * (1 - mu_par) ** hstar + 3 * hstar * E_UPPER ** hstar / factorial(d + 1)
    o_tail = Fraction(r * (d + 1) ** (2 * r), q)
    hyps = {"q>2d^s(d+1)^s": q > _cert_gate(s, d), "d>s": d > s}
    return ExpectedStripsBound(value, o_tail, hyps)


def cert_rate_lower_bound(q: int, s: int, d: int) -> Fraction:
    """Lower bound on the certified-specialization rate, clamped at 0.

    Vacuous (returns 0) whenever q <= 2 d^s (d+1)^s; hypothesis_report
    carries the flag.
    """
    return max(Fraction(0), 1 - Fraction(_cert_gate(s, d), q))


# ---------------------------------------------------------------------------
# combinatorial identities


def stirling1(j: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind (cycle counts)."""
    if not 0 <= k <= j <= STIRLING_CAP:
        raise UsageError(f"need 0 <= k <= j <= {STIRLING_CAP}")
    row = [1]  # j = 0
    for n in range(1, j + 1):
        new = [0] * (n + 1)
        for m in range(1, n + 1):
            upper = row[m] if m < len(row) else 0
            new[m] = row[m - 1] + (n - 1) * upper
        row = new
    return row[k]


def binomial_stirling_identity_ok(q: int, s: int, j: int) -> bool:
    """Exact check of the binomial expansion through Stirling numbers."""
    n = q ** s
    rhs = sum(
        Fraction((-1) ** (j - k) * stirling1(j, k), factorial(j)) * n ** k for k in range(j + 1)
    )
    return Fraction(comb(n, j)) == rhs


def invertible_tuple_count(q: int, h: int, r: int, s: int) -> int:
    """Number of strip h-tuples whose 1-padded coordinate matrix is invertible."""
    if h - 1 > r - s:
        raise DomainError(f"h-1={h - 1} exceeds the strip dimension {r - s}")
    if h < 1:
        raise UsageError("need h >= 1")
    prod = 1
    for i in range(1, h):
        prod *= q ** i - 1
    return prod * q ** (h * (r - s) - h * (h - 1) // 2)


# ---------------------------------------------------------------------------
# the upper/lower recursion and its matrix closed form


@dataclass(frozen=True)
class SandwichRecursion:
    """Alternating upper/lower bounds U_k, L_k for k simultaneous strips.

    uppers[k-1] and lowers[k-1] bound the k-strip joint probability from
    above and below.  mat_mixed drives the recursion; mat_upper and
    mat_lower are the symmetric matrices that sandwich it entrywise, and
    their powers have the closed form returned by symmetric_power.
    """

    uppers: tuple[Fraction, ...]
    lowers: tuple[Fraction, ...]
    mat_mixed: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    mat_upper: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    mat_lower: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def symmetric_power(a: Fraction, b: Fraction, m: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Closed form of [[a, -b], [-b, a]]^m via its eigenvalues a+b and a-b."""
    lam_plus = (a + b) ** m
    lam_minus = (a - b) ** m
    diag = (lam_plus + lam_minus) / 2
    off = (lam_minus - lam_plus) / 2
    return ((diag, off), (off, diag))


def mat_mul_2x2(x, y):
    return (
        (
            x[0][0] * y[0][0] + x[0][1] * y[1][0],
            x[0][0] * y[0][1] + x[0][1] * y[1][1],
        ),
        (
            x[1][0] * y[0][0] + x[1][1] * y[1][0],
            x[1][0] * y[0][1] + x[1][1] * y[1][1],
        ),
    )


def ul_recursion(q: int, s: int, d: int, kmax: int) -> SandwichRecursion:
    if not 1 <= kmax <= UL_CAP:
        raise UsageError(f"kmax must be in [1, {UL_CAP}]")
    odd = _odd_order(d)
    up, lo = strip_sums(q, s, odd), strip_sums(q, s, 2 * d + 1 - odd)  # lower row: the other of d and d + 1
    uppers = [up.alt]
    lowers = [lo.alt]
    for _ in range(1, kmax):
        u_prev, l_prev = uppers[-1], lowers[-1]
        uppers.append(u_prev * up.odd - l_prev * up.even)
        lowers.append(l_prev * lo.odd - u_prev * lo.even)
    mixed = ((up.odd, -up.even), (-lo.even, lo.odd))
    upper_mat = ((up.odd, -up.even), (-up.even, up.odd))
    lower_mat = ((lo.odd, -lo.even), (-lo.even, lo.odd))
    return SandwichRecursion(tuple(uppers), tuple(lowers), mixed, upper_mat, lower_mat)


# ---------------------------------------------------------------------------
# complexity formulas and hypothesis aggregation


def complexity_formulas(d: int, s: int, q: int, r: int, omega: float) -> tuple[float, float]:
    """Order-of-magnitude operation counts for the two reference solvers.

    Plug-in evaluation with all hidden constants and log factors set to 1;
    these are dashboards, not timings.
    """
    if not 2.0 <= omega <= 3.0:
        raise UsageError("omega must lie in [2, 3]")
    big_d = comb(d + r, r)
    logq = log2(q)
    tau_gb = big_d + d * comb(s * d + 1, s) ** omega + d ** (3 * s) + d ** s * logq
    tau_k = big_d + comb(d + s, s) * d ** (2 * s) + d ** s * logq
    return tau_gb, tau_k


def hypothesis_report(q: int, r: int, s: int, d: int, h: int | None = None) -> dict:
    """Named hypothesis flags shared by all the bound statements."""
    out = {
        "s<=d+1": s <= d + 1,
        "q^s>d": q ** s > d,
        "s<d": s < d,
        "q^s>6": q ** s > 6,
        "q>2d^s(d+1)^s": q > _cert_gate(s, d),
    }
    if h is not None:
        out["1<h<=r-s+1"] = 1 < h <= r - s + 1
    return out


def theory_report(q: int, r: int, s: int, d: int, hmax: int | None = None, omega: float = 3.0) -> dict:
    """Everything the formulas say about one parameter set, as one document."""
    prime_power(q)  # UsageError unless q is a prime power
    check_shape(r, s, d)
    hstar = r - s + 1
    hmax = hstar if hmax is None else hmax
    sums_d = strip_sums(q, s, d)
    sums_d1 = strip_sums(q, s, d + 1)
    tau_gb, tau_k = complexity_formulas(d, s, q, r, omega)
    exp_bound = expected_strips_bound(q, r, s, d)
    mu_d = mu(d)
    report = {
        "parameters": {"q": q, "r": r, "s": s, "d": d, "hstar": hstar, "omega": omega},
        "coeff_slots": comb(d + r, r),
        "mu_table": {str(m): {"fraction": fraction_text(mu(m)), "float": float(mu(m))} for m in range(1, max(d + 2, 11))},
        "strip_sums": {
            "alt_d": fraction_text(sums_d.alt),
            "alt_d_float": float(sums_d.alt),
            "alt_d1": fraction_text(sums_d1.alt),
            "alt_d1_float": float(sums_d1.alt),
            "tail_d1": fraction_text(sums_d1.tail),
            "tail_d1_float": float(sums_d1.tail),
            "plus_d1": fraction_text(sums_d1.plus),
            "plus_d1_float": float(sums_d1.plus),
        },
        "first_strip": first_strip_bounds(q, s, d).as_dict(),
        "first_strip_series": first_strip_series_bounds(q, s, d).as_dict(),
        "strip_index": {
            str(h): strip_index_bound(q, s, d, h).as_dict() for h in range(2, hmax + 1)
        },
        "strip_index_series": {
            str(h): strip_index_series_bound(q, s, d, h).as_dict() for h in range(2, hmax + 1)
        },
        "failure": failure_bound(q, r, s, d).as_dict(),
        "expected_strips": exp_bound.as_dict(),
        "certified_rate_lower": {
            "fraction": fraction_text(cert_rate_lower_bound(q, s, d)),
            "float": float(cert_rate_lower_bound(q, s, d)),
        },
        "complexity": {"tau_gb": tau_gb, "tau_k": tau_k},
        "hypotheses": hypothesis_report(q, r, s, d, hmax if hmax > 1 else None),
        "mu_strict_upper_ok": mu_d < Fraction(2, 3),
    }
    return report
