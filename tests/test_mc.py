import itertools
import os
import time
from fractions import Fraction

import pytest

from svsearch import mc
from svsearch.errors import CapacityError, DomainError, UsageError
from svsearch.ffield import FieldCtx, field_for_order, matrix_rank, prime_field
from svsearch.mc import (
    estimate_with_ci,
    exhaustive_p1,
    exhaustive_sk,
    records_to_csv,
    run_experiment,
)
from svsearch.mpoly import monomial_row, monomials
from svsearch.sampler import m_matrix
from svsearch.theory import first_strip_bounds, joint_strips_bound

F = Fraction


def test_estimate_with_ci_examples():
    phat, se, ci = estimate_with_ci(500, 1000)
    assert phat == 0.5
    assert se == pytest.approx(0.0158114, abs=1e-6)
    assert ci[0] == pytest.approx(0.45257, abs=1e-4)
    assert ci[1] == pytest.approx(0.54743, abs=1e-4)
    assert estimate_with_ci(0, 1000)[2] == (0.0, 0.003)
    lo, hi = estimate_with_ci(1000, 1000)[2]
    assert (lo, hi) == (1 - 0.003, 1.0)
    with pytest.raises(UsageError):
        estimate_with_ci(5, 4)


def test_run_experiment_structure():
    records, summary = run_experiment(31, 5, 2, 3, 60, seed=42)
    assert len(records) == 60
    assert summary["aborted"] == 0
    assert sum(summary["counts"].values()) + summary["failures"] == 60
    assert all(rec.trial_id == i for i, rec in enumerate(records))
    for comp in summary["comparisons"]:
        assert isinstance(comp["passed"], bool)


def test_run_experiment_deterministic_csv():
    a, _ = run_experiment(31, 5, 2, 3, 40, seed=7)
    b, _ = run_experiment(31, 5, 2, 3, 40, seed=7)
    assert records_to_csv(a) == records_to_csv(b)
    c, _ = run_experiment(31, 5, 2, 3, 40, seed=8)
    assert records_to_csv(a) != records_to_csv(c)


def test_run_experiment_worker_count_invariance(monkeypatch):
    # a real pool of 3 workers on any host, past the clamp to the CPU count
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
    a, _ = run_experiment(13, 4, 2, 2, 30, seed=3, workers=1)
    b, _ = run_experiment(13, 4, 2, 2, 30, seed=3, workers=3)
    assert records_to_csv(a) == records_to_csv(b)


class PoolRecorder:
    """Stands in for multiprocessing.Pool: records the worker count asked
    for and maps in this process, so no test starts a worker."""

    def __init__(self, asked, workers):
        asked.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return [fn(job) for job in jobs]


def test_worker_count_is_clamped_before_any_pool(monkeypatch):
    asked = []
    monkeypatch.setattr(mc, "Pool", lambda workers: PoolRecorder(asked, workers))
    serial = records_to_csv(run_experiment(13, 4, 2, 2, 6, seed=3)[0])
    assert asked == []
    # never more processes than trials or than the machine has CPUs
    assert records_to_csv(run_experiment(13, 4, 2, 2, 6, seed=3, workers=10**6)[0]) == serial
    assert len(asked) <= 1 and all(1 < n <= min(6, os.cpu_count() or 1) for n in asked)
    for cpus, trials, expected in ((4, 6, [4]), (8, 3, [3]), (1, 6, []), (None, 6, []), (8, 1, [])):
        asked.clear()
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        records, _ = run_experiment(13, 4, 2, 2, trials, seed=3, workers=10**6)
        assert asked == expected, (cpus, trials)
        assert records_to_csv(records) == "\n".join(serial.split("\n")[: trials + 1]) + "\n"


@pytest.mark.parametrize(
    "params, error",
    [
        (dict(r=4, s=4, d=2), UsageError),  # s >= r
        (dict(r=3, s=4, d=2), UsageError),
        (dict(r=4, s=2, d=1), UsageError),  # d < 2
        (dict(r=12, s=2, d=12), CapacityError),  # C(24, 12) slots > 2^16
        (dict(n_trials=0), UsageError),
        (dict(hstar=0), UsageError),
        (dict(workers=0), UsageError),
        (dict(q=6), UsageError),  # not a prime power
        (dict(q=2, r=3, s=2, d=2, hstar=3), DomainError),  # 3 strips > q^(r-s) = 2
        (dict(hstar=(1 << 20) + 1), CapacityError),  # strip cap
        (dict(r=5, s=3, backend="resultant"), CapacityError),  # resultant needs s = 2
        (dict(backend="groebner"), UsageError),
    ],
    ids=["s_eq_r", "s_gt_r", "d_lt_2", "slot_cap", "no_trials", "hstar_0", "workers_0", "q_6",
         "hstar_above_strips", "hstar_above_cap", "resultant_s3", "unknown_backend"],
)
def test_run_experiment_refuses_before_any_pool(monkeypatch, params, error):
    asked = []
    monkeypatch.setattr(mc, "Pool", lambda workers: PoolRecorder(asked, workers))
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
    args = dict(q=13, r=4, s=2, d=2, n_trials=6, seed=3, workers=2) | params
    start = time.perf_counter()
    with pytest.raises(error):
        run_experiment(**args)
    assert asked == [] and time.perf_counter() - start < 1
    run_experiment(**(args | dict(r=4, s=2, d=2, n_trials=6, q=13, hstar=None, workers=2, backend="exhaustive")))
    assert asked == [2]  # the same call with valid inputs does ask for a pool


def test_run_experiment_offset_merge():
    full, _ = run_experiment(13, 4, 2, 2, 50, seed=5)
    first, _ = run_experiment(13, 4, 2, 2, 25, seed=5, trial_offset=0)
    second, _ = run_experiment(13, 4, 2, 2, 25, seed=5, trial_offset=25)
    assert records_to_csv(first + second) == records_to_csv(full)


def test_prefix_consistency_across_budgets():
    wide, wide_summary = run_experiment(13, 5, 2, 2, 80, seed=11)  # h* = 4
    narrow, narrow_summary = run_experiment(13, 5, 2, 2, 80, seed=11, hstar=2)
    for h in ("1", "2"):
        assert wide_summary["counts"][h] == narrow_summary["counts"][h]
    for w, n in zip(wide, narrow):
        if n.status == "success":
            assert w.status == "success" and w.strip_index == n.strip_index
        else:
            assert w.status == "failure" or w.strip_index > 2


def test_certificate_rate_block():
    _, summary = run_experiment(
        1009, 4, 2, 2, 60, seed=13, backend="resultant", want_certificates=True
    )
    block = summary["certificates"]
    assert block is not None
    assert 0 <= block["certified"] <= 60
    assert isinstance(block["passed"], bool)
    _, plain = run_experiment(13, 4, 2, 2, 10, seed=13)
    assert plain["certificates"] is None


def test_trial_checks_field_elements_only_at_the_boundary(monkeypatch):
    # elim's parameters: the resultant, root finding and the certificate
    # run on the unchecked op table; sampled coefficients, points and
    # polynomials handed to the exported root finder are checked
    calls = []
    check = FieldCtx.check
    monkeypatch.setattr(FieldCtx, "check", lambda self, a: calls.append(a) or check(self, a))
    records, _ = run_experiment(1009, 4, 2, 3, 1, seed=2206, backend="resultant", want_certificates=True)
    assert records[0].status == "success" and records[0].certificate
    assert 0 < len(calls) < 1000


def test_csv_schema():
    records, _ = run_experiment(13, 4, 2, 2, 5, seed=1)
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "trial_id,seed,q,r,s,d,hstar,backend,status,strip_index,certificate,wall_ns"
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 12
        assert fields[11] == "0"  # deterministic wall column
        assert fields[8] in ("success", "failure")
        if fields[8] == "failure":
            assert fields[9] == "inf"


# ---------------------------------------------------------------------------
# exact oracles, checked against a reference that enumerates every
# coefficient vector of every polynomial (q^slots each)


def _ref_strip_mask_counts(ctx, r, s, d, strip):
    """For one strip: how many single polynomials have each zero pattern.

    The pattern is a bitmask over the q^s grid points of the strip (bit i
    set = the polynomial vanishes at grid point i, row-major order).
    """
    tables = [monomial_row(tuple(strip) + x, d, ctx) for x in itertools.product(ctx.elements(), repeat=s)]
    counts = {}
    for coeffs in itertools.product(ctx.elements(), repeat=len(monomials(r, d))):
        mask = 0
        for bit, row in enumerate(tables):
            acc = 0
            for c, mv in zip(coeffs, row):
                if c and mv:
                    acc = ctx.add(acc, ctx.mul(c, mv))
            if acc == 0:
                mask |= 1 << bit
        counts[mask] = counts.get(mask, 0) + 1
    return counts


def _ref_tuple_counts(counts, s):
    """Distribution of the AND of s independent zero patterns."""
    acc = dict(counts)
    for _ in range(s - 1):
        new = {}
        for m1, c1 in acc.items():
            for m2, c2 in counts.items():
                new[m1 & m2] = new.get(m1 & m2, 0) + c1 * c2
        acc = new
    return acc


def _ref_p1(q, r, s, d):
    """Fraction of (strip, system) pairs, over every strip, with a strip zero."""
    ctx = field_for_order(q)
    strips = list(itertools.product(ctx.elements(), repeat=r - s))
    numer = 0
    for strip in strips:
        counts = _ref_strip_mask_counts(ctx, r, s, d, strip)
        numer += sum(c for m, c in _ref_tuple_counts(counts, s).items() if m)
    return F(numer, len(strips) * q ** (s * len(monomials(r, d))))


def _ref_sk(q, r, s, d, strips):
    """Fraction of systems with a zero in every given strip, and whether M is invertible."""
    ctx = field_for_order(q)
    tables = [
        [monomial_row(tuple(a) + x, d, ctx) for x in itertools.product(ctx.elements(), repeat=s)]
        for a in strips
    ]
    slots = len(monomials(r, d))
    joint_counts = {}
    for coeffs in itertools.product(ctx.elements(), repeat=slots):
        key = []
        for tab in tables:
            mask = 0
            for bit, row in enumerate(tab):
                acc = 0
                for c, mv in zip(coeffs, row):
                    if c and mv:
                        acc = ctx.add(acc, ctx.mul(c, mv))
                if acc == 0:
                    mask |= 1 << bit
            key.append(mask)
        key = tuple(key)
        joint_counts[key] = joint_counts.get(key, 0) + 1
    acc = dict(joint_counts)
    for _ in range(s - 1):
        new = {}
        for k1, c1 in acc.items():
            for k2, c2 in joint_counts.items():
                key = tuple(a & b for a, b in zip(k1, k2))
                new[key] = new.get(key, 0) + c1 * c2
        acc = new
    numer = sum(cnt for key, cnt in acc.items() if all(key))
    invertible = matrix_rank(m_matrix([tuple(a) for a in strips]), ctx) == len(strips)
    return F(numer, q ** (s * slots)), invertible


@pytest.mark.parametrize("q,r,s,d", [(2, 3, 2, 2), (2, 4, 2, 1), (3, 3, 2, 1), (4, 3, 2, 1), (5, 3, 2, 1)])
def test_exhaustive_p1_matches_reference(q, r, s, d):
    # the reference averages over every strip, so this also checks that p1
    # does not depend on the strip
    assert exhaustive_p1(q, r, s, d) == _ref_p1(q, r, s, d)


@pytest.mark.parametrize(
    "q,r,s,d,strips",
    [
        (2, 3, 2, 2, [(0,)]),
        (2, 3, 2, 2, [(0,), (1,)]),
        (2, 4, 2, 1, [(0, 0), (0, 1)]),
        (2, 4, 2, 1, [(0, 0), (0, 1), (1, 0)]),
        (3, 3, 2, 1, [(0,), (1,)]),
        (2, 5, 3, 1, [(0, 0), (1, 1), (0, 1)]),
        (4, 3, 2, 1, [(0,), (1,)]),
        (5, 3, 2, 1, [(0,), (3,)]),
    ],
    ids=lambda v: ";".join("".join(map(str, a)) for a in v) if isinstance(v, list) else None,
)
def test_exhaustive_sk_matches_reference(q, r, s, d, strips):
    assert exhaustive_sk(q, r, s, d, strips) == _ref_sk(q, r, s, d, strips)


def test_exhaustive_p1_reference_point():
    value = exhaustive_p1(2, 3, 2, 2)
    assert value == F(175, 256)
    iv = first_strip_bounds(2, 2, 2)
    assert iv.lower <= value <= iv.upper
    # over GF(2)^2 degree 2 already reaches every function, and p1 is
    # computed on r = s + 1 whatever r is, so r = d = 10 is just as quick
    start = time.perf_counter()
    assert exhaustive_p1(2, 10, 2, 10) == value
    assert time.perf_counter() - start < 1.0


def test_exhaustive_p1_capacity(monkeypatch):
    assert exhaustive_p1(3, 4, 2, 2) == F(347257, 531441)
    # rank 6 on a strip of GF(5)^2: 5^12 systems exceed the cap, and the
    # refusal comes before any coefficient vector is enumerated
    product = itertools.product
    repeats = []
    monkeypatch.setattr(itertools, "product", lambda *a, repeat=1: repeats.append(repeat) or product(*a, repeat=repeat))
    with pytest.raises(CapacityError, match="rank >= 6"):
        exhaustive_p1(5, 3, 2, 2)
    assert repeats == [2]  # the strip's grid points only


def test_zero_polynomial_bookkeeping():
    # conditioned on one factor being the zero polynomial, the pair has a
    # strip zero exactly when the other factor does: the zero polynomial's
    # pattern is the full grid, so intersections keep the partner's pattern
    ctx = prime_field(2)
    counts = _ref_strip_mask_counts(ctx, 3, 2, 2, (0,))
    full_mask = (1 << 4) - 1
    assert counts.get(full_mask, 0) >= 1  # the zero polynomial is in there
    singles_with_zero = sum(c for m, c in counts.items() if m)
    pairs_with_zero_factor = sum(
        c for m, c in _ref_tuple_counts(counts, 2).items() if m
    )
    # restrict the DP to pairs whose first factor is the zero polynomial
    combined = {}
    for m2, c2 in counts.items():
        key = full_mask & m2
        combined[key] = combined.get(key, 0) + c2
    conditional = sum(c for m, c in combined.items() if m)
    assert conditional == singles_with_zero
    assert pairs_with_zero_factor >= conditional


def test_exhaustive_sk_examples():
    # k = 1 reduces to the per-strip marginal
    ctx = prime_field(2)
    value1, invertible1 = exhaustive_sk(2, 3, 2, 2, [(0,)])
    counts = _ref_strip_mask_counts(ctx, 3, 2, 2, (0,))
    marginal = sum(c for m, c in _ref_tuple_counts(counts, 2).items() if m)
    assert value1 == F(marginal, 2 ** 20)
    assert invertible1

    value2, invertible2 = exhaustive_sk(2, 3, 2, 2, [(0,), (1,)])
    assert invertible2
    assert value2 <= value1  # joint event is smaller
    iv = joint_strips_bound(2, 2, 2, 2)
    assert iv.hypotheses_ok
    assert iv.lower <= value2 <= iv.upper


def test_exhaustive_sk_singular_m_flagged():
    value, invertible = exhaustive_sk(2, 4, 2, 1, [(0, 0), (0, 1)])
    assert not invertible  # first coordinates collide: singular matrix
    assert 0 <= value <= 1


def test_exhaustive_sk_validation():
    with pytest.raises(UsageError):
        exhaustive_sk(2, 3, 2, 2, [(0,), (0,)])
    with pytest.raises(UsageError):
        exhaustive_sk(2, 3, 2, 2, [])
    with pytest.raises(UsageError, match="must have 1 coordinates"):
        exhaustive_sk(2, 3, 2, 2, [(0, 0)])
    with pytest.raises(UsageError):
        exhaustive_sk(2, 3, 2, 2, [(2,)])  # not an element of GF(2)
    with pytest.raises(UsageError, match=">= 1"):
        exhaustive_sk(2, 3, 2, 0, [(0,)])
    assert exhaustive_sk(2, 3, 2, 1, [(0,)])[0] == exhaustive_p1(2, 3, 2, 1)  # d = 1 is an oracle input


def test_summary_all_passed_at_reference_parameters():
    _, summary = run_experiment(31, 5, 2, 3, 400, seed=2024)
    assert summary["aborted"] == 0
    assert summary["all_passed"] is True
    assert summary["mean_strips"]["passed"] is True


def test_mean_strips_passes_only_within_three_standard_errors():
    # the bound at q31 r5 s2 d3 is about 28.85; both samples have mean 30
    assert 28 < mc.expected_strips_bound(31, 5, 2, 3).value < 29
    tight = mc._mean_strips_block([30] * 10, 31, 5, 2, 3)  # SE 0: above by more than 3 SE
    assert tight["mean"] == 30 and tight["se_mean"] == 0
    assert tight["passed"] is False
    loose = mc._mean_strips_block([28, 32] * 5, 31, 5, 2, 3)  # SE 2/3: above by less than 3 SE = 2
    assert loose["mean"] == 30 and loose["se_mean"] == pytest.approx(2 / 3)
    assert loose["passed"] is True


def test_aborted_trials_counted():
    # a field too large for the exhaustive grid: every trial aborts
    records, summary = run_experiment(4099, 4, 2, 2, 3, seed=1)
    assert summary["aborted"] == 3
    assert all(rec.status == "aborted" for rec in records)
    text = records_to_csv(records)
    for line in text.strip().split("\n")[1:]:
        assert line.split(",")[9] == ""


def test_three_strip_joint_probability_exact_enumeration():
    # Exact arbitration of the three-strip joint bound, one step beyond the
    # regime where the recursion envelope is tight (see the decisions notes):
    # enumerate every polynomial pair at q=2, r=4, s=2, d=2 with vectorized
    # bit arithmetic and compare against the stated interval.
    import itertools

    import numpy as np

    from svsearch.ffield import matrix_rank, prime_field
    from svsearch.mpoly import monomials
    from svsearch.sampler import m_matrix
    from svsearch.theory import ul_recursion

    q, r, s, d = 2, 4, 2, 2
    ctx = prime_field(q)
    exps = monomials(r, d)
    slots = len(exps)
    n_polys = q ** slots
    coeffs = ((np.arange(n_polys, dtype=np.uint32)[:, None] >> np.arange(slots)[None, :]) & 1).astype(np.int64)

    def strip_masks(strip):
        pts = [tuple(strip) + x for x in itertools.product(range(q), repeat=s)]
        table = np.zeros((slots, len(pts)), dtype=np.int64)
        for j, pt in enumerate(pts):
            for i, e in enumerate(exps):
                v = 1
                for var, exp in enumerate(e):
                    if exp and pt[var] == 0:
                        v = 0
                        break
                table[i, j] = v
        zero = (coeffs @ table) % 2 == 0
        return (zero << np.arange(len(pts))[None, :]).sum(axis=1).astype(np.int64)

    values = set()
    for strips in ([(0, 0), (0, 1), (1, 0)], [(0, 0), (1, 0), (1, 1)], [(0, 1), (1, 0), (1, 1)]):
        assert matrix_rank(m_matrix(list(strips)), ctx) == 3
        mk = np.stack([strip_masks(a) for a in strips], axis=1)
        uniq, counts = np.unique(mk, axis=0, return_counts=True)
        inter = np.ones((len(uniq), len(uniq)), dtype=bool)
        for t in range(3):
            inter &= (uniq[:, t][:, None] & uniq[:, t][None, :]) > 0
        total = int(counts @ (inter.astype(np.int64) @ counts))
        exact = F(total, n_polys ** s)
        values.add(exact)
        assert exact == F(335059, 1048576)
        rec = ul_recursion(q, s, d, 3)
        assert rec.lowers[2] <= exact <= rec.uppers[2]
        iv = joint_strips_bound(q, s, d, 3)
        assert iv.hypotheses_ok
        assert iv.lower <= exact <= iv.upper
    # every well-spread triple carries the same exact joint probability
    assert len(values) == 1
