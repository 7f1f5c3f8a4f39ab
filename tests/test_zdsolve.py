import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import svsearch
from svsearch import zdsolve
from svsearch.errors import CapacityError, UsageError
from svsearch.ffield import LOG_TABLE_LIMIT, field_for_order, prime_field
from svsearch.mc import records_to_csv, run_experiment
from svsearch.mpoly import MPoly, monomials, polys_from_slots, rational_roots, resultant_y, slot_array
from svsearch.sampler import RngStream
from svsearch.upoly import upoly_mul
from svsearch.zdsolve import (
    ZeroDimQuery,
    _GridEval,
    _zeros,
    cond_h_certificate,
    count_zeros,
    count_zeros_ext,
    distinct_geometric_points,
    find_zero,
)


def P(nvars, terms, ctx):
    return MPoly.from_terms(nvars, terms, ctx)


def random_query(ctx, s, d, rng):
    exps = monomials(s, d)
    polys = tuple(
        P(s, [(e, rng.next_below(ctx.q)) for e in exps], ctx) for _ in range(s)
    )
    return ZeroDimQuery(ctx, s, polys, d)


def brute_count(query):
    ctx = query.ctx
    live = [f for f in query.polys if not f.is_zero()]
    n = 0
    for pt in itertools.product(ctx.elements(), repeat=query.s):
        if all(f.evaluate(pt, ctx) == 0 for f in live):
            n += 1
    return n


def test_count_zeros_examples():
    c3 = prime_field(3)
    q1 = ZeroDimQuery(
        c3, 2, (P(2, [((1, 0), 1), ((0, 1), 1)], c3), P(2, [((1, 1), 1)], c3)), 2
    )
    assert count_zeros(q1) == 1
    assert count_zeros(q1, "resultant") == 1
    for q in (2, 3, 5):
        ctx = prime_field(q)
        origin_only = ZeroDimQuery(
            ctx, 2, (P(2, [((1, 0), 1)], ctx), P(2, [((0, 1), 1)], ctx)), 2
        )
        assert count_zeros(origin_only) == 1
    q3 = ZeroDimQuery(
        c3, 2, (P(2, [((2, 0), 1), ((0, 0), 1)], c3), P(2, [((0, 1), 1)], c3)), 2
    )
    assert count_zeros(q3) == 0


def test_find_zero_examples():
    c5 = prime_field(5)
    q1 = ZeroDimQuery(
        c5, 2, (P(2, [((1, 0), 1)], c5), P(2, [((0, 1), 1), ((0, 0), 3)], c5)), 2
    )
    assert find_zero(q1) == (0, 2)
    c3 = prime_field(3)
    q2 = ZeroDimQuery(
        c3, 2, (P(2, [((0, 2), 1), ((0, 0), 1)], c3), P(2, [((1, 0), 1)], c3)), 2
    )
    assert find_zero(q2) is None
    assert find_zero(q2, "resultant") is None


def test_zero_polynomial_imposes_nothing():
    c3 = prime_field(3)
    q = ZeroDimQuery(c3, 2, (MPoly.zero(2), P(2, [((1, 0), 1)], c3)), 2)
    assert count_zeros(q) == 3  # x = 0, y free
    assert count_zeros(q, "resultant") == 3
    both_zero = ZeroDimQuery(c3, 2, (MPoly.zero(2), MPoly.zero(2)), 2)
    assert count_zeros(both_zero) == 9
    assert count_zeros(both_zero, "resultant") == 9
    assert find_zero(both_zero, "resultant") == (0, 0)


@pytest.mark.parametrize("q", [9, 27, 64, 1024, 2187])  # 2187 = 3^7: odd p, 4.8M grid cells
def test_log_grid_matches_evaluate_and_resultant(q):
    ctx = field_for_order(q)
    rng = RngStream(4242, q)
    for d in (1, 2, 3, 3):
        query = random_query(ctx, 2, d, rng)
        grid = _GridEval(ctx, 2, d)
        for f, lines in zip(query.polys, grid.slot_lines(slot_array(query.polys, d))):
            cells = [(0, 0), (0, q - 1), (q - 1, 0)]
            cells += [(rng.next_below(q), rng.next_below(q)) for _ in range(60)]
            for x, y in cells:
                # the one-row slab that holds the cell
                assert grid.slab(lines, x, x + 1)[0, y] == f.evaluate((x, y), ctx), (q, d, x, y)
        # both return the smallest x, then the smallest y
        assert find_zero(query, "exhaustive") == find_zero(query, "resultant")


@pytest.mark.parametrize("q", [31, 1009, 4093])  # float32, float32, float64 slabs
def test_slot_lines_match_evaluate(q):
    ctx = field_for_order(q)
    rng = RngStream(4243, q)
    for s, d in ((1, 3), (2, 2), (2, 3), (3, 2)):
        if q ** s > zdsolve.GRID_LIMIT:
            continue
        polys = random_query(ctx, s, d, rng).polys
        polys = (polys[0], MPoly.zero(s), P(s, [((1,) + (0,) * (s - 1), 1)], ctx))[:s]  # lower degree, zero
        slots = slot_array(polys, d)
        grid = _GridEval(ctx, s, d)
        lines = grid.slot_lines(slots)
        assert lines.shape == (s, len(grid.heads), q)
        low = 2 ** np.finfo(grid.dtype).nmant
        for _ in range(40):
            point = tuple(rng.next_below(q) for _ in range(s))
            prefix = sum(x * q ** i for i, x in enumerate(reversed(point[:-1])))
            for f, f_lines in zip(polys, lines):
                # the one-row slab that holds the point: beta plus a value = f mod p, in the binade
                value = int(grid.slab(f_lines, prefix, prefix + 1)[0, point[-1]])
                assert (value - grid.beta) % q == f.evaluate(point, ctx)
                assert low <= value < 2 * low
        # the same rows from one shared block as from each polynomial's own
        assert (slot_array(polys_from_slots(s, d, slots), d) == slots).all()
        assert (slot_array(polys, d + 1)[:, -slots.shape[1]:] == slots).all()


def test_soundness_check_survives_optimize_flag(monkeypatch):
    # assert statements vanish under -O; find_zero's re-check of the
    # point a backend hands back must not
    code = textwrap.dedent(
        """
        import sys
        from svsearch import zdsolve
        from svsearch.ffield import prime_field
        from svsearch.mpoly import MPoly
        if not sys.flags.optimize:
            sys.exit(2)
        zdsolve._ENUMERATORS["exhaustive"] = lambda query: iter([(0, 0)])
        c5 = prime_field(5)
        one = MPoly.from_terms(2, [((0, 0), 1)], c5)
        try:
            zdsolve.find_zero(zdsolve.ZeroDimQuery(c5, 2, (one, one), 0))
        except AssertionError:
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = str(Path(svsearch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
    assert proc.returncode == 0
    c5 = prime_field(5)
    monkeypatch.setitem(zdsolve._ENUMERATORS, "exhaustive", lambda query: iter([(0, 0)]))
    one = P(2, [((0, 0), 1)], c5)
    with pytest.raises(AssertionError):
        find_zero(ZeroDimQuery(c5, 2, (one, one), 0))


def test_capacity_errors():
    big = prime_field(4099)
    q = ZeroDimQuery(big, 2, (MPoly.zero(2), MPoly.zero(2)), 2)
    with pytest.raises(CapacityError):
        count_zeros(q)
    c3 = prime_field(3)
    q3 = ZeroDimQuery(c3, 3, tuple(MPoly.zero(3) for _ in range(3)), 2)
    with pytest.raises(CapacityError):
        count_zeros(q3, "resultant")


def test_backend_agreement_random():
    rng = RngStream(607, 0)
    for trial in range(1000):
        q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)[rng.next_below(10)]
        ctx = field_for_order(q)
        d = 2 + rng.next_below(2)
        query = random_query(ctx, 2, d, rng)
        n_exh = count_zeros(query, "exhaustive")
        n_res = count_zeros(query, "resultant")
        assert n_exh == n_res, (q, d, [f.terms for f in query.polys])
        z_exh = find_zero(query, "exhaustive")
        z_res = find_zero(query, "resultant")
        assert z_exh == z_res, (q, d, [f.terms for f in query.polys])


def degenerate_pairs(ctx):
    """Named (f, g) pairs that take the resultant backend off its main path."""
    m1 = ctx.neg(1)
    # X^2 + X + a with no root in the field: exists for every q
    a = next(
        a for a in ctx.elements()
        if all(ctx.add(ctx.add(ctx.mul(x, x), x), a) != 0 for x in ctx.elements())
    )
    zero = MPoly.zero(2)
    return {
        "one_zero": (zero, P(2, [((1, 1), 1), ((0, 0), m1)], ctx)),  # XY - 1
        "both_zero": (zero, zero),
        "const_in_y_with_roots": (
            P(2, [((2, 0), 1), ((1, 0), m1)], ctx),  # X^2 - X
            P(2, [((0, 2), 1), ((1, 0), m1)], ctx),  # Y^2 - X
        ),
        "const_in_y_without_roots": (
            P(2, [((2, 0), 1), ((1, 0), 1), ((0, 0), a)], ctx),
            P(2, [((0, 2), 1), ((1, 0), m1)], ctx),
        ),
        "nonzero_constant": (P(2, [((0, 0), 1)], ctx), P(2, [((0, 1), 1)], ctx)),
        "both_const_in_y_shared_root": (
            P(2, [((2, 0), 1), ((1, 0), m1)], ctx),  # X^2 - X
            P(2, [((1, 0), 1), ((0, 0), m1)], ctx),  # X - 1
        ),
        "both_const_in_y_no_shared_root": (
            P(2, [((1, 0), 1)], ctx),  # X
            P(2, [((1, 0), 1), ((0, 0), m1)], ctx),  # X - 1
        ),
        "shared_factor": (
            # (X - Y)(X + 1) and (X - Y)(Y + 1): the resultant is identically 0
            P(2, [((2, 0), 1), ((1, 0), 1), ((1, 1), m1), ((0, 1), m1)], ctx),
            P(2, [((1, 1), 1), ((1, 0), 1), ((0, 2), m1), ((0, 1), m1)], ctx),
        ),
        "leading_y_coeffs_share_root": (
            # leading Y-coefficients X and X vanish together at x = 0
            P(2, [((1, 1), 1), ((1, 0), 1)], ctx),  # XY + X
            P(2, [((1, 2), 1), ((0, 1), 1), ((0, 0), m1)], ctx),  # XY^2 + Y - 1
        ),
    }


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_backend_agreement_degenerate(q):
    ctx = field_for_order(q)
    for name, (f, g) in degenerate_pairs(ctx).items():
        query = ZeroDimQuery(ctx, 2, (f, g), 3)
        n = brute_count(query)
        assert count_zeros(query, "exhaustive") == n, (q, name)
        assert count_zeros(query, "resultant") == n, (q, name)
        assert find_zero(query, "exhaustive") == find_zero(query, "resultant"), (q, name)


# (verdict, resultant_degree, squarefree) of every degenerate pair at
# dmax = 3, as the certificate gave them before the degenerate cases were
# folded into resultant_y_general; the same at every q in the test
DEGENERATE_CERTIFICATES = {
    "one_zero": ("not_certified", -1, False),
    "both_zero": ("not_certified", -1, False),
    "const_in_y_with_roots": ("not_certified", 4, False),
    "const_in_y_without_roots": ("not_certified", 4, False),
    "nonzero_constant": ("not_certified", 0, True),
    "both_const_in_y_shared_root": ("not_certified", -1, False),
    "both_const_in_y_no_shared_root": ("not_certified", -1, False),
    "shared_factor": ("not_certified", -1, False),
    "leading_y_coeffs_share_root": ("not_certified", 3, False),
}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_certificate_on_degenerate_pairs_is_pinned(q):
    ctx = field_for_order(q)
    pairs = degenerate_pairs(ctx)
    assert pairs.keys() == DEGENERATE_CERTIFICATES.keys()
    for name, (f, g) in pairs.items():
        cert = cond_h_certificate(ZeroDimQuery(ctx, 2, (f, g), 3))
        assert (cert.verdict, cert.resultant_degree, cert.squarefree) == DEGENERATE_CERTIFICATES[name], (q, name)


# resultant-backend configs with certificates, (q, r, s, d, trials), and the
# sha256 of their trials.csv at seed 2206.  The first four were recorded
# before the degenerate cases were folded into resultant_y_general, the
# last two while the sample points still ran one at a time: 37 points at
# d = 6, and p = 2^31 - 1, where int64 sums are reduced term by term.
@pytest.mark.parametrize(
    "config,sha256",
    [
        ((1009, 4, 2, 3, 50), "d2f7d70089d087883b8454a22e728ee71c3e3eeac7ba1b0d0c38df6c3e8714c0"),
        ((7, 4, 2, 3, 200), "3c867477ce7b0f10a8e62465812b6e93dd0f895350a126421f4490703c83da8d"),
        ((9, 4, 2, 3, 200), "2574e095f360c7d846634138b5c361ac5c91eadf0a9189f51abea4e2680b8457"),
        ((4, 4, 2, 2, 200), "0d54ae0277d3e39cab4e61227ae5c87c3ce8331d181f18e9d82fc77cfc7efaf5"),
        ((101, 4, 2, 6, 100), "cd4d6348d013bd14732c05177c7b139250fe0f111b8b829399d9349b43755498"),
        ((2**31 - 1, 4, 2, 3, 100), "42d5651c8da28619617c66f53aef40b70ea7452a00018455a7137c56af5456c0"),
    ],
    ids=["q1009", "q7-lifted-prime", "q9-lifted-extension", "q4", "q101-d6", "q2^31-1"],
)
def test_resultant_trials_csv_bytes_are_pinned(config, sha256):
    records, _ = run_experiment(*config, seed=2206, backend="resultant", want_certificates=True)
    assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == sha256

def test_count_crosses_zero_chunks():
    # every cell is a zero, so the stream spans several slabs of the grid
    # enumerator and must keep row-major order across their boundaries;
    # GF(256) runs in the log domain, GF(409) on prime-field slabs
    for q in (256, 409):
        ctx = field_for_order(q)
        query = ZeroDimQuery(ctx, 2, (MPoly.zero(2), MPoly.zero(2)), 2)
        assert _GridEval(ctx, 2, 0).rows < q  # more than one slab
        assert count_zeros(query, "exhaustive") == q * q
        assert count_zeros(query, "resultant") == q * q
        assert list(_zeros(query, "exhaustive")) == list(itertools.product(range(q), repeat=2))


def test_exhaustive_matches_brute_force_s3():
    rng = RngStream(608, 0)
    for trial in range(25):
        ctx = prime_field((2, 3)[rng.next_below(2)])
        query = random_query(ctx, 3, 2, rng)
        assert count_zeros(query) == brute_count(query)
        z = find_zero(query)
        assert (z is None) == (brute_count(query) == 0)


def test_find_zero_grid_order_deterministic():
    # first zero in row-major grid order (first coordinate slowest)
    c5 = prime_field(5)
    f = P(2, [((1, 0), 1), ((0, 0), 4)], c5)  # x = 1
    g = P(2, [((0, 2), 1), ((0, 0), 4)], c5)  # y^2 = 1 -> y in {1, 4}
    q = ZeroDimQuery(c5, 2, (f, g), 2)
    assert find_zero(q) == (1, 1)
    assert find_zero(q, "resultant") == (1, 1)


@pytest.mark.parametrize("q", [1 << 17, 3**11])
def test_find_zero_digit_arithmetic_above_table_limit(q):
    # extension fields above LOG_TABLE_LIMIT have no log tables for the
    # grid scan: the exhaustive backend refuses them, even when the grid
    # is below GRID_LIMIT, rather than walk it point by point
    ctx = field_for_order(q)
    assert ctx.k > 1 and q > LOG_TABLE_LIMIT and q <= zdsolve.GRID_LIMIT
    a, b = 3, 5
    f = P(1, [((2,), 1), ((1,), ctx.neg(ctx.add(a, b))), ((0,), ctx.mul(a, b))], ctx)
    query = ZeroDimQuery(ctx, 1, (f,), 2)
    with pytest.raises(CapacityError):
        find_zero(query)
    with pytest.raises(CapacityError):
        count_zeros(query)


def test_exhaustive_s1_over_a_prime_above_the_log_table_limit():
    # a prime field needs no log tables, so only an extension field above
    # LOG_TABLE_LIMIT is refused: the s = 1 grid over GF(2^17 - 1) runs,
    # and its zeros are the roots of f by splitting
    ctx = prime_field(131071)
    assert ctx.k == 1 and ctx.q > LOG_TABLE_LIMIT
    rng = RngStream(41, 1)
    roots = sorted({rng.next_below(ctx.q) for _ in range(3)})
    f = (1,)
    for root in roots:
        f = upoly_mul(f, (ctx.neg(root), 1), ctx)
    f = upoly_mul(f, (1, 0, 1), ctx)  # X^2 + 1: no root, as 131071 = 3 mod 4
    query = ZeroDimQuery(ctx, 1, (P(1, [((e,), c) for e, c in enumerate(f)], ctx),), len(f) - 1)
    assert sorted(rational_roots(f, ctx)) == roots
    assert count_zeros(query) == len(roots)
    assert find_zero(query) == (roots[0],)
    rootless = ZeroDimQuery(ctx, 1, (P(1, [((0,), 1), ((2,), 1)], ctx),), 2)
    assert count_zeros(rootless) == 0 and find_zero(rootless) is None


def test_certificate_examples():
    c5 = prime_field(5)
    f = P(2, [((2, 0), 1), ((0, 1), 4)], c5)  # Y1^2 - Y2
    g = P(2, [((0, 2), 1), ((0, 0), 3)], c5)  # Y2^2 - 2
    cert = cond_h_certificate(ZeroDimQuery(c5, 2, (f, g), 2))
    assert cert.verdict == "certified"
    assert cert.resultant_degree == 4 and cert.squarefree

    cert2 = cond_h_certificate(
        ZeroDimQuery(c5, 2, (P(2, [((2, 0), 1)], c5), P(2, [((0, 2), 1)], c5)), 2)
    )
    assert cert2.verdict == "not_certified"
    assert cert2.resultant_degree == 4 and not cert2.squarefree

    # leading degeneracy: Y1 * Y2 has a nonconstant leading Y-coefficient
    cert3 = cond_h_certificate(
        ZeroDimQuery(c5, 2, (P(2, [((1, 1), 1)], c5), P(2, [((0, 2), 1), ((0, 0), 3)], c5)), 2)
    )
    assert cert3.verdict == "not_certified"

    with pytest.raises(UsageError):
        cond_h_certificate(ZeroDimQuery(c5, 3, tuple(MPoly.zero(3) for _ in range(3)), 2))


def test_certificate_and_backend_share_one_resultant(monkeypatch):
    c5 = prime_field(5)
    f = P(2, [((2, 0), 1), ((0, 1), 4)], c5)
    g = P(2, [((0, 2), 1), ((0, 0), 3)], c5)
    query = ZeroDimQuery(c5, 2, (f, g), 2)
    calls = []

    def counted(*args):
        calls.append(args)
        return resultant_y(*args)

    monkeypatch.setattr(zdsolve, "resultant_y", counted)
    cond_h_certificate(query)
    find_zero(query, "resultant")
    assert calls == [(f, g, c5)]


def test_certificate_invariant():
    rng = RngStream(911, 0)
    for trial in range(300):
        q = (2, 3, 5, 7)[rng.next_below(4)]
        ctx = field_for_order(q)
        d = 2 + rng.next_below(2)
        query = random_query(ctx, 2, d, rng)
        cert = cond_h_certificate(query)
        if cert.verdict == "certified":
            assert cert.resultant_degree == d * d
            assert cert.squarefree


def test_count_zeros_ext_examples():
    c2 = prime_field(2)
    f = P(2, [((2, 0), 1), ((1, 0), 1), ((0, 0), 1)], c2)  # X1^2+X1+1
    g = P(2, [((0, 1), 1)], c2)
    q = ZeroDimQuery(c2, 2, (f, g), 2)
    assert count_zeros_ext(q, 1) == 0
    assert count_zeros_ext(q, 2) == 2
    rng = RngStream(12, 0)
    for trial in range(20):
        ctx = prime_field((2, 3)[rng.next_below(2)])
        query = random_query(ctx, 2, 2, rng)
        assert count_zeros_ext(query, 1) == count_zeros(query)


def test_count_zeros_ext_over_extension_base():
    # X1^2 + X1 + w over GF(4) (w a generator) has no roots in GF(4), hence
    # exactly two in GF(16); paired with X2 = 0 that pins the point counts
    g4 = field_for_order(4)
    w = g4.from_coeffs((0, 1))
    f = P(2, [((2, 0), 1), ((1, 0), 1), ((0, 0), w)], g4)
    assert all(f.evaluate((x, 0), g4) != 0 for x in g4.elements())  # irreducible
    g = P(2, [((0, 1), 1)], g4)
    q = ZeroDimQuery(g4, 2, (f, g), 2)
    assert count_zeros_ext(q, 1) == 0
    assert count_zeros_ext(q, 2) == 2
    assert distinct_geometric_points(q) == 2


def test_distinct_geometric_points_examples():
    c2 = prime_field(2)
    f = P(2, [((2, 0), 1), ((1, 0), 1), ((0, 0), 1)], c2)
    g = P(2, [((0, 1), 1)], c2)
    assert distinct_geometric_points(ZeroDimQuery(c2, 2, (f, g), 2)) == 2
    c5 = prime_field(5)
    origin = ZeroDimQuery(c5, 2, (P(2, [((1, 0), 1)], c5), P(2, [((0, 1), 1)], c5)), 2)
    assert distinct_geometric_points(origin) == 1


def test_distinct_points_certified_soundness_small():
    # certified specializations must cut out exactly d^2 distinct points
    rng = RngStream(1234, 0)
    ctx = prime_field(2)
    found = 0
    for trial in range(400):
        query = random_query(ctx, 2, 2, rng)
        cert = cond_h_certificate(query)
        if cert.verdict != "certified":
            continue
        found += 1
        assert distinct_geometric_points(query) == 4
    assert found > 0


def test_mobius_counting_divisibility_consistency():
    rng = RngStream(555, 0)
    for trial in range(30):
        ctx = prime_field(2)
        query = random_query(ctx, 2, 2, rng)
        counts = {e: count_zeros_ext(query, e) for e in (1, 2, 4)}
        assert counts[1] <= counts[2] <= counts[4]
        # distinct_geometric_points re-checks orbit integrality internally
        distinct_geometric_points(query)
