"""The slab-streamed exhaustive grid against a brute-force scan of the grid,
in the same order, and the limits it keeps: exact float64 sums over GF(p)
and memory that does not grow with the grid."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsearch.errors import CapacityError
from svsearch.ffield import field_for_order
from svsearch.mpoly import MPoly, monomials
from svsearch.sampler import RngStream
from svsearch.zdsolve import (
    ZERO_CHUNK,
    ZeroDimQuery,
    _check_float_exact,
    _zeros,
    count_zeros,
    find_zero,
)

FIELDS = {q: field_for_order(q) for q in (2, 3, 5, 7, 31, 4, 8, 9, 25)}


def brute_zeros(query):
    """Every common zero, by evaluating each polynomial at each point in row-major order."""
    ctx = query.ctx
    return [
        pt
        for pt in itertools.product(ctx.elements(), repeat=query.s)
        if all(f.evaluate(pt, ctx) == 0 for f in query.polys)
    ]


def times_linear(f, axis, a, ctx):
    """(X_axis - a) * f: vanishes on every cell whose coordinate `axis` is a."""
    unit = tuple(int(i == axis) for i in range(f.nvars))
    terms = []
    for exps, c in f.terms:
        terms.append((tuple(e + u for e, u in zip(exps, unit)), c))
        terms.append((exps, ctx.mul(ctx.neg(a), c)))
    return MPoly.from_terms(f.nvars, terms, ctx)


@st.composite
def any_poly(draw, ctx, s, d):
    kind = draw(st.sampled_from(["zero", "constant", "random", "sparse", "rows"]))
    if kind == "zero":
        return MPoly.zero(s)
    if kind == "constant":
        return MPoly.from_terms(s, [((0,) * s, draw(st.integers(1, ctx.q - 1)))], ctx)
    elem = st.integers(0, ctx.q - 1)
    exps = monomials(s, d - 1 if kind == "rows" else d)
    if kind == "sparse":
        exps = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4))
    f = MPoly.from_terms(s, [(e, draw(elem)) for e in exps], ctx)
    if kind == "rows":  # zero on the whole hyperplane X_axis = a
        f = times_linear(f, draw(st.integers(0, s - 1)), draw(elem), ctx)
    return f


@st.composite
def queries(draw, s_values):
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    s = draw(st.sampled_from(s_values))
    d = draw(st.integers(1, 3))
    return ZeroDimQuery(ctx, s, tuple(draw(any_poly(ctx, s, d)) for _ in range(s)), d)


@settings(max_examples=60, deadline=None)
@given(queries((2, 3)))
def test_exhaustive_yields_brute_force_zeros_in_order(query):
    assert list(_zeros(query, "exhaustive")) == brute_zeros(query)


@settings(max_examples=150, deadline=None)
@given(queries((2,)))
def test_backends_agree_on_random_s2_queries(query):
    # both enumerate by first coordinate, then by second
    assert list(_zeros(query, "exhaustive")) == list(_zeros(query, "resultant"))


@pytest.mark.parametrize("q,s", [(131, 2), (31, 3)])
def test_zeros_straddle_a_slab_boundary(q, s):
    # a slab holds ZERO_CHUNK // q whole lines of the last coordinate, so at
    # these q its first boundary falls inside the grid, between two prefixes
    # (first s-1 coordinates) that are not on a multiple of q^(s-1)
    assert q ** s > ZERO_CHUNK and ZERO_CHUNK % q ** (s - 1) != 0
    ctx = field_for_order(q)
    one = MPoly.from_terms(s, [((0,) * s, 1)], ctx)

    def prefix(n):
        return [n // q ** (s - 2 - i) % q for i in range(s - 1)]

    def pair(axis, a, b):  # (X_axis - a)(X_axis - b)
        return times_linear(times_linear(one, axis, a, ctx), axis, b, ctx)

    boundary = ZERO_CHUNK // q  # the prefix that starts the second slab
    before, after = prefix(boundary - 1), prefix(boundary)
    polys = [pair(i, before[i], after[i]) for i in range(s - 1)] + [pair(s - 1, 0, 1)]
    query = ZeroDimQuery(ctx, s, tuple(polys), 2)
    zeros = list(_zeros(query, "exhaustive"))
    assert zeros == brute_zeros(query)
    assert tuple(before) + (1,) in zeros and tuple(after) + (0,) in zeros
    assert count_zeros(query) == len(zeros) and find_zero(query) == zeros[0]


def test_float_sums_refused_past_two_to_the_53():
    p = 4093
    most = (2**53 - 1) // (p - 1) ** 2  # the most products whose sum stays below 2^53
    _check_float_exact(p, most)
    with pytest.raises(CapacityError):
        _check_float_exact(p, most + 1)


@pytest.mark.parametrize("q", [4096, 4093])  # GF(2^12) in the log domain, GF(p) in float64
def test_full_grid_scan_memory_is_bounded_by_a_slab(q):
    ctx = field_for_order(q)
    rng = RngStream(4096, q)
    polys = [MPoly.from_terms(2, [(e, rng.next_below(q)) for e in monomials(2, 3)], ctx) for _ in "fg"]
    query = ZeroDimQuery(ctx, 2, tuple(polys), 3)
    tracemalloc.start()
    try:
        n = count_zeros(query)  # walks all 2^24 cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, peak
    assert n == len(list(_zeros(query, "resultant")))
