"""Monte Carlo harness: many independent searches vs. the exact bounds.

Trial t of an experiment draws everything from the stream (seed, t), so
records are identical across reruns, worker counts and schedulings; CSV
rows are emitted in trial order.  Estimates are compared against the
bound intervals widened by three standard errors, with all comparisons
done in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from multiprocessing import Pool

from .errors import CapacityError, UsageError
from .ffield import FieldCtx, field_for_order, matrix_rank
from .mpoly import check_slots, monomial_row
from .sampler import RngStream, Strip, check_shape, check_strip_budget, check_strips, m_matrix, sample_system
from .svs import run_svs
from .zdsolve import check_backend
from .theory import (
    BoundInterval,
    cert_rate_lower_bound,
    expected_strips_bound,
    failure_bound,
    first_strip_bounds,
    hypothesis_report,
    strip_index_bound,
    strip_index_series_bound,
)

ENUM_LIMIT = 1 << 26

CSV_COLUMNS = (
    "trial_id",
    "seed",
    "q",
    "r",
    "s",
    "d",
    "hstar",
    "backend",
    "status",
    "strip_index",
    "certificate",
    "wall_ns",
)


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    seed: int
    q: int
    r: int
    s: int
    d: int
    hstar: int
    backend: str
    status: str  # "success" | "failure" | "aborted"
    strip_index: int | None  # None encodes the infinity sentinel / aborted
    certificate: str  # first-strip verdict, "" when not requested
    strips: tuple[Strip, ...]
    wall_ns: int  # kept at 0: rows must be identical across reruns

    def csv_row(self) -> str:
        if self.status == "success":
            idx = str(self.strip_index)
        elif self.status == "failure":
            idx = "inf"
        else:
            idx = ""
        return ",".join(
            [
                str(self.trial_id),
                str(self.seed),
                str(self.q),
                str(self.r),
                str(self.s),
                str(self.d),
                str(self.hstar),
                self.backend,
                self.status,
                idx,
                self.certificate,
                str(self.wall_ns),
            ]
        )


def records_to_csv(records: list[TrialRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(rec.csv_row() for rec in records)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# one trial


def _run_trial(
    seed: int, ctx: FieldCtx, r: int, s: int, d: int, hstar: int, backend: str, certify: bool, trial_id: int
) -> TrialRecord:
    """Trial trial_id of an experiment; a capacity limit hit inside it makes an aborted record."""
    rng = RngStream(seed, trial_id)
    system = sample_system(ctx, r, s, d, rng)
    try:
        outcome = run_svs(system, rng=rng, backend=backend, hstar=hstar, certify=certify)
    except CapacityError:
        status, index, cert, strips = "aborted", None, "", ()
    else:
        status, index, strips = outcome.status, outcome.strip_index, outcome.strips
        cert = outcome.certificates[0].verdict if outcome.certificates else ""  # first strip: one-shot rate
    return TrialRecord(trial_id, seed, ctx.q, r, s, d, hstar, backend, status, index, cert, strips, 0)


# ---------------------------------------------------------------------------
# exact rational comparison helpers


def estimate_with_ci(count: int, n: int) -> tuple[float, float, tuple[float, float]]:
    """Frequency estimate with its standard error and a 3-sigma interval.

    At the boundary (count 0 or n) the interval half-width is the
    rule-of-three value 3/n instead.
    """
    if n < 1 or not 0 <= count <= n:
        raise UsageError("need 0 <= count <= n and n >= 1")
    phat = count / n
    se = math.sqrt(phat * (1 - phat) / n)
    if count == 0:
        return phat, se, (0.0, 3 / n)
    if count == n:
        return phat, se, (1 - 3 / n, 1.0)
    return phat, se, (max(phat - 3 * se, 0.0), min(phat + 3 * se, 1.0))


def _within_three_se(dist: Fraction, se_sq: Fraction) -> bool:
    """Exact 3-SE test, dist <= 3 SE, as dist^2 <= 9 SE^2."""
    return dist * dist <= 9 * se_sq


def _widened_distance_ok(dist: Fraction, count: int, n: int) -> bool:
    """Exact check: the estimate count/n, at distance dist from its target
    interval, is within 3 SE of it (within 3/n at count 0 or n)."""
    if count in (0, n):
        return dist <= Fraction(3, n)
    phat = Fraction(count, n)
    return _within_three_se(dist, phat * (1 - phat) / n)


def _comparison(name: str, count: int, n: int, interval: BoundInterval) -> dict:
    phat, se, ci = estimate_with_ci(count, n)
    return {
        "name": name,
        "count": count,
        "estimate": phat,
        "se": se,
        "ci3": list(ci),
        "interval": interval.as_dict(),
        "passed": _widened_distance_ok(interval.distance(Fraction(count, n)), count, n),
    }


# ---------------------------------------------------------------------------
# experiments


def check_experiment(
    q: int, r: int, s: int, d: int, n_trials: int, backend: str, hstar: int | None, workers: int
) -> tuple[FieldCtx, int]:
    """Every check `run_experiment` makes before its first trial; returns
    the field and the strip budget (default r - s + 1).  Once these pass,
    the experiment raises nothing: a capacity limit inside a trial is an
    aborted record."""
    if n_trials < 1:
        raise UsageError("need at least one trial")
    if workers < 1:
        raise UsageError(f"need at least one worker, got {workers}")
    check_shape(r, s, d)
    check_slots(r, d)
    ctx = field_for_order(q)
    hstar = hstar if hstar is not None else r - s + 1
    check_strip_budget(hstar, r - s, ctx)
    check_backend(backend, s)
    return ctx, hstar


def run_experiment(
    q: int,
    r: int,
    s: int,
    d: int,
    n_trials: int,
    seed: int,
    backend: str = "exhaustive",
    want_certificates: bool = False,
    hstar: int | None = None,
    trial_offset: int = 0,
    workers: int = 1,
) -> tuple[list[TrialRecord], dict]:
    """N independent searches on fresh random systems, plus the scorecard.

    Returns the per-trial records (trial_id order) and a summary document
    that sets every estimate against its bound interval.  workers is
    clamped to the trial count and the CPU count; with one left, the
    trials run in this process and no pool is built.
    """
    ctx, hstar = check_experiment(q, r, s, d, n_trials, backend, hstar, workers)
    workers = min(workers, n_trials, os.cpu_count() or 1)  # records do not depend on the count
    t0 = time.monotonic()
    trial = partial(_run_trial, seed, ctx, r, s, d, hstar, backend, want_certificates and s == 2)
    trial_ids = range(trial_offset, trial_offset + n_trials)
    if workers > 1:
        with Pool(workers) as pool:
            records = pool.map(trial, trial_ids, chunksize=max(1, n_trials // (4 * workers)))
    else:
        records = list(map(trial, trial_ids))
    elapsed = time.monotonic() - t0
    summary = summarize(records, q, r, s, d, seed, backend, want_certificates, hstar, elapsed)
    return records, summary


def summarize(
    records: list[TrialRecord],
    q: int,
    r: int,
    s: int,
    d: int,
    seed: int,
    backend: str,
    want_certificates: bool,
    hstar: int,
    elapsed_s: float = 0.0,
) -> dict:
    aborted = sum(1 for rec in records if rec.status == "aborted")
    live = [rec for rec in records if rec.status != "aborted"]
    n = len(live)
    counts = {h: 0 for h in range(1, hstar + 1)}
    failures = 0
    for rec in live:
        if rec.status == "success":
            counts[rec.strip_index] += 1
        else:
            failures += 1
    if sum(counts.values()) + failures != n:
        raise AssertionError("summary counts do not add up")

    comparisons = []
    if n:
        comparisons.append(_comparison("first_strip_exact", counts.get(1, 0), n, first_strip_bounds(q, s, d)))
        for h in range(2, hstar + 1):
            comparisons.append(
                _comparison(f"strip_index_exact[h={h}]", counts[h], n, strip_index_bound(q, s, d, h))
            )
            comparisons.append(
                _comparison(
                    f"strip_index_series[h={h}]", counts[h], n, strip_index_series_bound(q, s, d, h)
                )
            )
        comparisons.append(_comparison("failure_probability", failures, n, failure_bound(q, r, s, d)))

    mean_block = None
    if n:
        values = [rec.strip_index if rec.status == "success" else hstar for rec in live]
        mean_block = _mean_strips_block(values, q, r, s, d)

    cert_block = None
    if want_certificates and s == 2 and n:
        certified = sum(1 for rec in live if rec.certificate == "certified")
        bound = cert_rate_lower_bound(q, s, d)
        rate = Fraction(certified, n)
        cert_block = {
            "certified": certified,
            "rate": float(rate),
            "lower_bound": str(bound),
            "lower_bound_float": float(bound),
            "vacuous": bound == 0,
            "passed": _widened_distance_ok(max(bound - rate, 0), certified, n),  # rate to [bound, 1]
        }

    summary = {
        "parameters": {
            "q": q,
            "r": r,
            "s": s,
            "d": d,
            "hstar": hstar,
            "seed": seed,
            "backend": backend,
            "want_certificates": want_certificates,
            "trials": len(records),
        },
        "aborted": aborted,
        "counts": {str(h): counts[h] for h in range(1, hstar + 1)},
        "failures": failures,
        "estimates": {
            str(h): _estimate_dict(counts[h], n) for h in range(1, hstar + 1)
        }
        | {"failure": _estimate_dict(failures, n)},
        "comparisons": comparisons,
        "all_passed": all(c["passed"] for c in comparisons),
        "mean_strips": mean_block,
        "certificates": cert_block,
        "hypotheses": hypothesis_report(q, r, s, d, hstar if hstar > 1 else None),
        "total_runtime_s": round(elapsed_s, 3),
    }
    return summary


def _estimate_dict(count: int, n: int) -> dict:
    if n == 0:
        return {"count": count, "phat": None, "se": None, "ci3": None}
    phat, se, ci = estimate_with_ci(count, n)
    return {"count": count, "phat": phat, "se": se, "ci3": list(ci)}


def _mean_strips_block(values: list[int], q: int, r: int, s: int, d: int) -> dict:
    n = len(values)
    bound = expected_strips_bound(q, r, s, d)
    mean = Fraction(sum(values), n)
    if n > 1:
        ssq = sum(v * v for v in values)
        var = (Fraction(ssq) - n * mean * mean) / (n - 1)
        se_sq_mean = var / n
    else:
        se_sq_mean = Fraction(0)
    passed = mean <= bound.value or _within_three_se(mean - bound.value, se_sq_mean)
    return {
        "mean": float(mean),
        "mean_fraction": str(mean),
        "se_mean": math.sqrt(float(se_sq_mean)),
        "bound": bound.as_dict(),
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# exact oracles


def _all_strips_hit(ctx: FieldCtx, s: int, d: int, strips: list[Strip]) -> Fraction:
    """Exact chance that s uniform polynomials of degree <= d share a zero in every strip.

    Whether a system hits depends only on each polynomial's values at the
    strip points, M c for its coefficient vector c, where the rows of M
    are the points' `monomial_row`s.  For uniform c, M c is uniform on
    the column space of M, and so is B b for uniform b when the columns
    B form a basis of that space.  So only the q^R vectors b on R
    greedily chosen pivot monomials are enumerated, out of q^slots.
    """
    q = ctx.q

    def refuse_above(rank: int) -> None:
        if q ** (s * rank) > ENUM_LIMIT:
            raise CapacityError(f"rank >= {rank}: {q}^({s}*{rank}) systems exceed the 2^26 enumeration cap")

    refuse_above(s + 1)  # 1, x_1, ..., x_s are independent on any strip
    grid = list(itertools.product(ctx.elements(), repeat=s))
    rows = [monomial_row(a + x, d, ctx) for a in strips for x in grid]
    basis: list[tuple[int, ...]] = []  # pivot columns, each over every point
    for column in zip(*rows):
        cand = basis + [column]
        if matrix_rank(cand, ctx) == len(cand):
            basis = cand
            refuse_above(len(basis))
    # bit i of a pattern: the polynomial vanishes at point i (strip by strip,
    # row-major).  The q^R vectors are the leaves of a product tree whose
    # nodes carry the values of their coefficient prefix at every point.
    axpy = ctx.ops.axpy
    bits = [1 << i for i in range(len(rows))]
    counts: dict[int, int] = {}

    def walk(values: list[int], depth: int) -> None:
        if depth == len(basis):
            mask = sum([bit for bit, v in zip(bits, values) if v == 0])
            counts[mask] = counts.get(mask, 0) + 1
            return
        for c in ctx.elements():
            walk(axpy(values, c, basis[depth]), depth + 1)

    walk([0] * len(rows), 0)
    joint = counts  # common-zero patterns of the first j polynomials
    for _ in range(s - 1):
        new: dict[int, int] = {}
        for m1, c1 in joint.items():
            for m2, c2 in counts.items():
                new[m1 & m2] = new.get(m1 & m2, 0) + c1 * c2
        joint = new
    strip_bits = (1 << len(grid)) - 1
    hits = sum(
        cnt
        for mask, cnt in joint.items()
        if all(mask >> (i * len(grid)) & strip_bits for i in range(len(strips)))
    )
    return Fraction(hits, q ** (s * len(basis)))


def exhaustive_p1(q: int, r: int, s: int, d: int) -> Fraction:
    """Exact first-strip success probability over uniform systems (zero polynomial included).

    Specializing the first r - s coordinates maps uniform polynomials onto
    uniform polynomials of degree <= d in s variables, whatever the strip,
    so p1 depends on neither the strip nor r: it is computed at r = s + 1
    on the strip (0,), whose monomial rows are as narrow as they get.
    """
    check_shape(r, s, d, min_degree=1)
    return exhaustive_sk(q, s + 1, s, d, [(0,)])[0]


def exhaustive_sk(q: int, r: int, s: int, d: int, strips: list[Strip]) -> tuple[Fraction, bool]:
    """Exact fraction of systems with a zero in every one of the given strips.

    Also reports whether the strips' coordinate matrix is invertible (the
    hypothesis of the joint bound); the fraction is computed either way.
    """
    ctx = field_for_order(q)
    check_shape(r, s, d, min_degree=1)
    strips = check_strips(strips, r - s, ctx)
    if not 1 <= len(strips) <= r - s + 1:
        raise UsageError(f"need 1 to {r - s + 1} strips, got {len(strips)}")
    value = _all_strips_hit(ctx, s, d, strips)
    return value, matrix_rank(m_matrix(strips), ctx) == len(strips)
