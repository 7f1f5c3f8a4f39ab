import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import svsearch
from svsearch.errors import CapacityError, UsageError
from svsearch.ffield import field_for_order, prime_field
from svsearch.mpoly import MPoly, monomials
from svsearch.sampler import RngStream
from svsearch.zdsolve import (
    ZeroDimQuery,
    _grid_values_log,
    _poly_as_upoly_in_x,
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
        for f in query.polys:
            vals = _grid_values_log(f, ctx, 2, d)
            cells = [(0, 0), (0, q - 1), (q - 1, 0)]
            cells += [(rng.next_below(q), rng.next_below(q)) for _ in range(60)]
            for x, y in cells:
                assert vals[x, y] == f.evaluate((x, y), ctx), (q, d, x, y)
        # both return the smallest x, then the smallest y
        assert find_zero(query, "exhaustive") == find_zero(query, "resultant")


def test_soundness_check_survives_optimize_flag():
    # assert statements vanish under -O; this invariant check must not
    code = textwrap.dedent(
        """
        import sys
        from svsearch.ffield import prime_field
        from svsearch.mpoly import MPoly
        from svsearch.zdsolve import _poly_as_upoly_in_x
        if not sys.flags.optimize:
            sys.exit(2)
        try:
            _poly_as_upoly_in_x(MPoly.from_terms(2, [((1, 1), 1)], prime_field(5)))
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
    with pytest.raises(AssertionError):
        _poly_as_upoly_in_x(P(2, [((0, 1), 1)], c5))


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
        assert (z_exh is None) == (z_res is None)


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
