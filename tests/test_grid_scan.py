"""The slab-streamed exhaustive grid against a brute-force scan of the grid,
in the same order, and the limits it keeps: exact sums in the narrowest
float type over GF(p), a division-free zero test, evaluator buffers that
streams share without leaking, and memory that does not grow with the
grid.  Pinned `trials.csv` hashes cover the float32, float64,
product-table and log-domain paths."""

import functools
import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsearch import zdsolve
from svsearch.errors import CapacityError
from svsearch.ffield import field_for_order
from svsearch.mc import records_to_csv, run_experiment
from svsearch.mpoly import MPoly, monomials, slot_array
from svsearch.sampler import RngStream
from svsearch.zdsolve import (
    ZeroDimQuery,
    _exact_float,
    _GridEval,
    _zeros,
    count_zeros,
    find_zero,
)

FIELDS = {q: field_for_order(q) for q in (2, 3, 5, 7, 31, 4, 8, 16, 9, 25)}


def brute_zeros(query):
    """Every common zero, by evaluating each polynomial at each point in
    row-major order: over GF(p), one line of the last coordinate at a time
    in int64, from the terms (every product is reduced below p^2)."""
    ctx, s = query.ctx, query.s
    if ctx.k > 1:
        return [
            pt
            for pt in itertools.product(ctx.elements(), repeat=s)
            if all(f.evaluate(pt, ctx) == 0 for f in query.polys)
        ]
    p = ctx.p
    powers = [np.ones(p, dtype=np.int64)]  # x^e at every x
    for _ in range(query.dmax):
        powers.append(powers[-1] * np.arange(p) % p)
    zeros = []
    for prefix in itertools.product(range(p), repeat=s - 1):
        alive = np.ones(p, dtype=bool)
        for f in query.polys:
            coeffs = [0] * (query.dmax + 1)  # of x^e on this line
            for exps, c in f.terms:
                coeffs[exps[-1]] += c * math.prod(pow(a, e, p) for a, e in zip(prefix, exps))
            alive &= sum(c % p * power % p for c, power in zip(coeffs, powers)) % p == 0
        zeros += [prefix + (x,) for x in np.flatnonzero(alive).tolist()]
    return zeros


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
def queries(draw, s_values, fields=FIELDS):
    ctx = fields[draw(st.sampled_from(sorted(fields)))]
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


@pytest.mark.parametrize("q,s", [(1009, 2), (67, 3), (256, 2)])
def test_zeros_straddle_a_slab_boundary(q, s):
    # a slab holds the evaluator's `rows` whole lines of the last coordinate
    # (2^17 cells over GF(p), 2^14 in the log domain), so at these q its
    # first boundary falls inside the grid, at a prefix (first s-1
    # coordinates) that is not a multiple of q
    ctx = field_for_order(q)
    rows = _GridEval(ctx, s, 2).rows
    assert 0 < rows < q ** (s - 1) and rows % q != 0
    one = MPoly.from_terms(s, [((0,) * s, 1)], ctx)

    def prefix(n):
        return [n // q ** (s - 2 - i) % q for i in range(s - 1)]

    def pair(axis, a, b):  # (X_axis - a)(X_axis - b)
        return times_linear(times_linear(one, axis, a, ctx), axis, b, ctx)

    before, after = prefix(rows - 1), prefix(rows)  # the last prefix of slab 1, the first of slab 2
    pairs = list(zip(before + [0], after + [1]))
    polys = [pair(axis, a, b) for axis, (a, b) in enumerate(pairs)]
    query = ZeroDimQuery(ctx, s, tuple(polys), 2)
    zeros = list(_zeros(query, "exhaustive"))
    # each polynomial vanishes on two hyperplanes of one axis (one, when its
    # roots coincide): the zeros are their product, in row-major order
    assert zeros == list(itertools.product(*(sorted({a, b}) for a, b in pairs)))
    assert tuple(before) + (1,) in zeros and tuple(after) + (0,) in zeros
    assert count_zeros(query) == len(zeros) and find_zero(query) == zeros[0]


def most_terms(p, m):
    """The most products of balanced residues mod p whose biased sums fit
    the binade [2^(m-1), 2^m): 2 * H * (p // 2)^2 + p < 2^(m-1)."""
    return (2 ** (m - 1) - 1 - p) // (2 * (p // 2) ** 2)


def test_float_sums_refused_past_two_to_the_53():
    for p in (2, 3, 4093):
        most = most_terms(p, 53)
        assert _exact_float(p, most) is np.float64
        with pytest.raises(CapacityError):
            _exact_float(p, most + 1)
        if (2**52 - p) % (2 * (p // 2) ** 2) == 0:  # 2 * H * b^2 + p lands on 2^52 exactly
            with pytest.raises(CapacityError):
                _exact_float(p, (2**52 - p) // (2 * (p // 2) ** 2))


@pytest.mark.parametrize("p", [2, 3, 5, 17, 257, 1009, 4093])
def test_float32_while_sums_stay_below_two_to_the_24(p):
    # the biased sums stay in [2^23, 2^24)
    most = most_terms(p, 24)
    assert _exact_float(p, most) is np.float32
    assert _exact_float(p, most + 1) is np.float64
    if (2**23 - p) % (2 * (p // 2) ** 2) == 0:  # 2 * H * b^2 + p lands on 2^23 exactly
        assert _exact_float(p, (2**23 - p) // (2 * (p // 2) ** 2)) is np.float64


def forced(dtype):
    """Every GF(p) evaluator built inside runs on `dtype`, whatever its bound would pick."""
    return mock.patch.object(zdsolve, "_exact_float", return_value=dtype)


@functools.cache
def forced_float_eval(p, dtype):
    """A GF(p) evaluator whose buffers and zero test run on `dtype`: the
    test only needs a value in the binade [2^(m-1), 2^m)."""
    with forced(dtype):
        return _GridEval(field_for_order(p), 2, 1)


# the zero test reads v = value - beta mod p off the float's bits, so it
# holds for every integer value of the binade, whether or not beta is in it
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [2, 3, 31, 1009, 4093, 65521])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_test_matches_integer_remainder(p, dtype, data):
    grid = forced_float_eval(p, dtype)
    assert grid.dtype is dtype
    low = 2 ** np.finfo(dtype).nmant
    top = 2 * low - 1  # the binade's integers are [low, top]
    first = low + (grid.beta - low) % p  # the first and the last value = beta mod p
    last = top - (top - grid.beta) % p
    for v0 in (last, first, first + p * data.draw(st.integers(0, (last - first) // p))):
        vals = [v for v in (v0 - 1, v0, v0 + 1) if low <= v <= top]
        mask = grid.zero(np.array(vals, dtype=dtype))
        assert mask.tolist() == [(v - grid.beta) % p == 0 for v in vals], (v0, vals)


@pytest.mark.parametrize("q,d", [(1009, 2), (1451, 3), (4093, 3)])  # float32, float32, float64
def test_slab_values_stay_in_the_binade(q, d):
    # -(X + ... + X^d), constant along the last coordinate: at some prefix a
    # every head a^h is near -p/2, so lines left at p - 1 instead of -1
    # would push the sum below the binade
    ctx = field_for_order(q)
    f = MPoly.from_terms(2, [((h, 0), q - 1) for h in range(1, d + 1)], ctx)
    grid = _GridEval(ctx, 2, d)
    (lines,) = grid.slot_lines(slot_array((f,), d))
    low = 2 ** np.finfo(grid.dtype).nmant
    expected = np.array([f.evaluate((a, 0), ctx) for a in range(q)])
    for lo in range(0, q, grid.rows):
        vals = grid.slab(lines, lo, min(lo + grid.rows, q))
        assert ((low <= vals) & (vals < 2 * low)).all()
        assert ((vals.astype(np.int64) - grid.beta) % q == expected[lo:lo + len(vals), None]).all()
    assert count_zeros(ZeroDimQuery(ctx, 2, (f, MPoly.zero(2)), d)) == q * np.count_nonzero(expected == 0)


# GF(1451) takes float32 only with balanced residues; two zero polynomials
# there would list all 2.1M cells, so the first is nonzero
GF1451 = queries((2,), {1451: field_for_order(1451)}).filter(lambda query: not query.polys[0].is_zero())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=30, deadline=None)
@given(st.one_of(queries((2, 3), {p: FIELDS[p] for p in (2, 3)}), GF1451))
def test_forced_float_grid_matches_brute_force(dtype, query):
    expected = brute_zeros(query)
    zdsolve._grid_eval.cache_clear()
    try:
        with forced(dtype):
            assert list(_zeros(query, "exhaustive")) == expected
            assert count_zeros(query) == len(expected)
            assert zdsolve._grid_eval(query.ctx, query.s, query.dmax).dtype is dtype
    finally:
        zdsolve._grid_eval.cache_clear()


def test_streams_sharing_an_evaluator_do_not_leak():
    # q = 257: two prime-field slabs; every query below has degree 3 in two
    # variables, so all share the cached evaluator and its buffers
    ctx = field_for_order(257)

    def poly(terms):
        return MPoly.from_terms(2, terms, ctx)

    curve = poly([((0, 1), 1), ((3, 0), 256)])  # Y - X^3: one zero on every line
    parabola = poly([((0, 2), 1), ((1, 0), 256)])  # Y^2 - X
    queries = [
        ZeroDimQuery(ctx, 2, (curve, MPoly.zero(2)), 3),
        ZeroDimQuery(ctx, 2, (parabola, poly([((1, 2), 1), ((2, 0), 256)])), 3),  # and X(Y^2 - X)
        ZeroDimQuery(ctx, 2, (poly([((1, 1), 1), ((3, 0), 1)]), curve), 3),  # XY + X^3 and Y - X^3
    ]
    expected = [brute_zeros(query) for query in queries]
    assert all(len(zeros) > 2 for zeros in expected[:2])
    zdsolve._grid_eval.cache_clear()
    streams = [_zeros(query, "exhaustive") for query in queries[:2]]
    got = [[], []]
    for _ in range(max(map(len, expected))):  # advance the two streams in turn
        for stream, out in zip(streams, got):
            out.extend(itertools.islice(stream, 1))
    assert got == expected[:2]
    # a full scan and a search on the shared buffers while a stream is
    # suspended after its first zero
    stream = _zeros(queries[0], "exhaustive")
    first = next(stream)
    assert count_zeros(queries[2]) == len(expected[2])
    assert find_zero(queries[1]) == expected[1][0]
    assert [first, *stream] == expected[0]
    assert zdsolve._grid_eval.cache_info().misses == 1  # one evaluator served every stream


def slab_path(grid):
    """The float type of a GF(p) evaluator's slabs, else "table" or "log"."""
    if grid.prime:
        return grid.dtype
    return "log" if grid.products is None else "table"


@pytest.mark.parametrize("q", [4, 8, 16, 256])
def test_product_tables_match_field_multiplication(q):
    ctx = field_for_order(q)
    d = 3
    grid = _GridEval(ctx, 2, d)
    assert grid.products.dtype == np.uint8 and grid.products.shape == ((d + 1) * q, q)
    assert grid.words.itemsize == min(q, 8)  # GF(4)'s 4-byte rows copy as one uint32
    assert (grid.words.view(np.uint8) == grid.products).all()
    expected = [[ctx.mul(v, ctx.pow(x, d - t)) for x in range(q)] for t in range(d + 1) for v in range(q)]
    assert grid.products.tolist() == expected


# one exhaustive config per grid path, (q, r, s, d, trials, seed), with the
# sha256 of its trials.csv as the float64-only slabs wrote it
@pytest.mark.parametrize(
    "path,config,sha256",
    [
        (np.float32, (1009, 4, 2, 3, 20, 2206), "8f140a57720de420ae8bd6e33de70316f61b3a0ff8c015854dcc4f907e779ad5"),
        (np.float64, (4093, 3, 2, 3, 5, 2206), "98e68ca3237b42646263953bc7b83b8abc00a1f6160e8d740282c2294734a028"),
        # pinned while GF(256) took the log domain
        ("table", (256, 5, 2, 3, 20, 2206), "2366e60e5f5dc51764a4fd36ec14c21c813f9d8e17ff12cb717b1a15e30c1012"),
        # recorded before the trial path moved to one slot array per system
        (np.float32, (31, 5, 2, 3, 50, 2206), "7a812fc3225bc726aaefe56581e48e7a03b13e3b2893418ff4e5dc94cf46bc0c"),
        (np.float32, (67, 4, 3, 2, 10, 2206), "31d62a62cf3f06361375779fb3ad489ed0703b8864a4a193f4d6a10659ea20c5"),
        # float32 only with balanced residues: biased sums of products up to (p - 1)^2 would need float64
        (np.float32, (1451, 4, 2, 3, 20, 2206), "178f4f698ac621793991de2e17b7b1b56cc65c24bb0a96b2dc14916a3ba47cbd"),
        (np.float32, (2039, 4, 2, 3, 20, 2206), "6dccc20130a4b48498612044a84f4e9efe007ef8eb31828b1b6f423728f436ca"),
        # the log domain: GF(2^10) above the product-table cap, and odd p;
        # recorded before GF(2^k) grids took product tables
        ("log", (1024, 3, 2, 2, 8, 2206), "a6713afcea120ed2ff95e612796affef80e519ffe47bf1e622d7ec4676b5638a"),
        ("log", (243, 4, 2, 2, 20, 2206), "ba316f797ba24659849e75ccafecd71c222129efd302087ceb0950c9e1dc8afb"),
    ],
    ids=["float32", "float64", "log", "small", "s3", "q1451", "q2039", "q1024", "q243"],
)
def test_trials_csv_bytes_are_pinned(path, config, sha256):
    q, r, s, d, trials, seed = config
    ctx = field_for_order(q)
    assert slab_path(_GridEval(ctx, s, d)) == path
    records, _ = run_experiment(q, r, s, d, trials, seed=seed)
    assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == sha256


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
