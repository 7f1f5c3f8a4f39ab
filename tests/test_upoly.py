"""The univariate kernels against schoolbook references built from the
checked public field operations, and the validation at their entry points."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsearch.errors import UsageError
from svsearch.ffield import field_for_order, prime_field
from svsearch.mpoly import rational_roots
from svsearch.upoly import (
    PackedModulus,
    lagrange_interpolate,
    upoly_divmod,
    upoly_gcd,
    upoly_mod,
    upoly_mul,
    upoly_pow_mod,
    upoly_resultant,
    upoly_trim,
    xq_mod,
)

FIELDS = {q: field_for_order(q) for q in (2, 3, 4, 7, 8, 9, 25, 1009)}
# the packed GF(p) powering, up to 2^31 - 1: the largest prime under PRIME_LIMIT,
# where the slot width 2^w > 2*n*p^2 is widest
PACKED_PRIMES = {p: prime_field(p) for p in (2, 3, 1009, 1000003, 2147483647)}
RESULTANT_FIELDS = {q: field_for_order(q) for q in (2, 3, 4, 7, 8, 9, 101, 256, 1009)}


def ref_mul(f, g, ctx):
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return upoly_trim(out)


def ref_add(f, g, ctx):
    n = max(len(f), len(g))
    f, g = list(f) + [0] * (n - len(f)), list(g) + [0] * (n - len(g))
    return upoly_trim([ctx.add(a, b) for a, b in zip(f, g)])


def ref_mod(f, g, ctx):
    """Long division, one leading term at a time."""
    r = list(upoly_trim(f))
    while len(r) >= len(g):
        c = ctx.mul(r[-1], ctx.inv(g[-1]))
        shift = len(r) - len(g)
        for i, gi in enumerate(g):
            r[shift + i] = ctx.sub(r[shift + i], ctx.mul(c, gi))
        assert r[-1] == 0
        r = list(upoly_trim(r[:-1]))
    return tuple(r)


def ref_pow_mod(base, e, mod, ctx):
    """Right-to-left square and multiply on the schoolbook product and
    long division; for e below 64, plain repeated multiplication."""
    result, square = ref_mod((1,), mod, ctx), ref_mod(base, mod, ctx)
    if e < 64:
        for _ in range(e):
            result = ref_mod(ref_mul(result, square, ctx), mod, ctx)
        return result
    while e:
        if e & 1:
            result = ref_mod(ref_mul(result, square, ctx), mod, ctx)
        square = ref_mod(ref_mul(square, square, ctx), mod, ctx)
        e >>= 1
    return result


def ref_sylvester_determinant(f, g, ctx):
    """Res(f, g) as the determinant of the Sylvester matrix, by Gaussian
    elimination with the checked field operations."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    frow, grow = list(reversed(f)), list(reversed(g))  # leading coefficient first
    rows = [[0] * i + frow + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + grow + [0] * (size - m - 1 - i) for i in range(n)]
    det = 1
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = ctx.neg(det)
        det = ctx.mul(det, rows[col][col])
        inv = ctx.inv(rows[col][col])
        for i in range(col + 1, size):
            factor = ctx.mul(rows[i][col], inv)
            rows[i] = [ctx.sub(a, ctx.mul(factor, b)) for a, b in zip(rows[i], rows[col])]
    return det


def ref_eval(f, x, ctx):
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


@st.composite
def field_and_polys(draw, count, max_len=8, min_deg=None):
    """A field and `count` polynomials over it; each of degree >= min_deg if given."""
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    elements = st.integers(0, ctx.q - 1)
    polys = []
    for _ in range(count):
        if min_deg is None:
            polys.append(upoly_trim(draw(st.lists(elements, max_size=max_len))))
        else:
            tail = draw(st.lists(elements, min_size=min_deg, max_size=max_len - 1))
            polys.append(tuple(tail) + (draw(st.integers(1, ctx.q - 1)),))
    return ctx, polys


@settings(max_examples=80, deadline=None)
@given(field_and_polys(2))
def test_mul_matches_schoolbook(case):
    ctx, (f, g) = case
    assert upoly_mul(f, g, ctx) == ref_mul(f, g, ctx)


@settings(max_examples=80, deadline=None)
@given(field_and_polys(2))
def test_divmod_recombines(case):
    ctx, (f, g) = case
    g = g or (1,)
    quot, rem = upoly_divmod(f, g, ctx)
    assert len(rem) < len(g)
    assert ref_add(ref_mul(quot, g, ctx), rem, ctx) == f
    assert rem == ref_mod(f, g, ctx)


@settings(max_examples=80, deadline=None)
@given(field_and_polys(2, max_len=12))
def test_mod_is_the_divmod_remainder(case):
    ctx, (f, g) = case
    g = g or (1,)
    assert upoly_mod(f, g, ctx) == upoly_divmod(f, g, ctx)[1]


@settings(max_examples=80, deadline=None)
@given(field_and_polys(2))
def test_gcd_is_monic_and_divides_both(case):
    ctx, (f, g) = case
    if not f and not g:
        return
    h = upoly_gcd(f, g, ctx)
    assert h[-1] == 1
    assert ref_mod(f, h, ctx) == () and ref_mod(g, h, ctx) == ()


@settings(max_examples=40, deadline=None)
@given(field_and_polys(1, max_len=7, min_deg=1))
def test_xq_mod_matches_repeated_multiplication_by_x(case):
    ctx, (f,) = case
    power = ref_mod((1,), f, ctx)
    for _ in range(ctx.q):
        power = ref_mod((0,) + power, f, ctx)
    assert xq_mod(f, ctx) == power


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_pow_mod_matches_schoolbook(data):
    p = data.draw(st.sampled_from(sorted(PACKED_PRIMES)))
    ctx = PACKED_PRIMES[p]
    elements, units = st.integers(0, p - 1), st.integers(1, p - 1)
    n = data.draw(st.integers(1, 16))
    mod = tuple(data.draw(st.lists(elements, min_size=n, max_size=n))) + (data.draw(units),)  # not monic in general
    base = upoly_trim(data.draw(st.lists(elements, max_size=2 * n + 3)))  # often of degree >= n
    e = data.draw(st.one_of(st.just(0), st.integers(0, 3 * p)))
    assert upoly_pow_mod(base, e, mod, ctx) == ref_pow_mod(base, e, mod, ctx)


def test_packed_reduction_at_the_slot_bound():
    # every slot as large as a product of two reduced polynomials makes it,
    # n(p-1)^2, and a monic modulus whose lower coefficients are all p - 1,
    # so each step adds about (p-1)^2 to the slots below: at p = 2^31 - 1
    # the slots reach ~(2n-1)p^2, past n*p^2 and under the bound 2^w > 2n*p^2
    p = 2147483647
    ctx = PACKED_PRIMES[p]
    for n in (1, 2, 16):
        mod = (p - 1,) * n + (1,)
        pm = PackedModulus(mod, p)
        biggest = n * (p - 1) ** 2
        for residue in (0, 1, 2, p - 1):
            slots = [biggest - (biggest - residue) % p] * (2 * n - 1)
            packed = sum(c << pm.w * i for i, c in enumerate(slots))
            reduced = pm.reduce(packed, 2 * n - 2)
            assert upoly_trim(pm.coeffs(reduced)) == ref_mod([c % p for c in slots], mod, ctx)


@st.composite
def resultant_pairs(draw):
    """A field and f, g of degree >= 1 that are random, linear, share a
    factor, or have f mod g more than one degree below g."""
    ctx = RESULTANT_FIELDS[draw(st.sampled_from(sorted(RESULTANT_FIELDS)))]
    elements, units = st.integers(0, ctx.q - 1), st.integers(1, ctx.q - 1)

    def poly(lo, hi):
        d = draw(st.integers(lo, hi))
        return tuple(draw(st.lists(elements, min_size=d, max_size=d))) + (draw(units),)

    kind = draw(st.sampled_from(["random", "linear", "shared", "drop"]))
    if kind == "random":
        return ctx, kind, poly(1, 7), poly(1, 7)
    if kind == "linear":
        f, g = poly(1, 1), poly(1, 7)
        return (ctx, kind, f, g) if draw(st.booleans()) else (ctx, kind, g, f)
    if kind == "shared":
        h = poly(1, 3)
        return ctx, kind, ref_mul(h, poly(0, 3), ctx), ref_mul(h, poly(0, 3), ctx)
    g = poly(3, 6)
    rem = upoly_trim(draw(st.lists(elements, max_size=len(g) - 2)))  # deg <= deg g - 2
    return ctx, kind, ref_add(ref_mul(poly(0, 3), g, ctx), rem, ctx), g


@settings(max_examples=300, deadline=None)
@given(resultant_pairs())
def test_resultant_matches_sylvester_determinant(case):
    ctx, kind, f, g = case
    res = upoly_resultant(f, g, ctx)
    assert res == ref_sylvester_determinant(f, g, ctx)
    if kind == "shared":
        assert res == 0


# (f, g) at formal degrees len - 1, with a top coefficient of 0 somewhere
FORMAL_DEGREE_PAIRS = {
    "f-top-zero": ((1, 1, 0), (2, 0, 1)),
    "f-top-zero-odd": ((2, 1, 0, 0), (1, 3, 1)),
    "g-top-zero": ((1, 1), (1, 0)),  # the Sylvester determinant is 1
    "g-top-zero-odd": ((2, 3, 1, 1), (1, 2, 0)),
    "both-tops-zero": ((1, 2, 0), (3, 0)),  # a zero first column
    "f-zero-image": ((0, 0, 0), (1, 2, 1)),
    "g-zero-image": ((1, 2, 1), (0, 0)),
    "f-constant-image": ((3, 0, 0), (1, 2, 5)),
    "g-constant-image": ((1, 2, 5, 1), (3, 0)),
    # formal degree 0 on one side or both: Res(f, c) = c^n, Res(c, g) = c^m
    "f-degree-0": ((3,), (1, 2, 5)),
    "f-degree-0-zero": ((0,), (1, 2, 0)),
    "g-degree-0": ((1, 2, 5, 1), (3,)),
    "g-degree-0-zero": ((1, 0), (0,)),
    "both-degree-0": ((3,), (2,)),
    "both-degree-0-zero": ((0,), (0,)),  # the empty determinant is 1
}


@pytest.mark.parametrize("q", [101, 8, 9])
def test_resultant_at_formal_degrees_with_zero_top_coefficients(q):
    ctx = RESULTANT_FIELDS[q]
    for name, (f, g) in FORMAL_DEGREE_PAIRS.items():
        assert upoly_resultant(f, g, ctx) == ref_sylvester_determinant(f, g, ctx), name
    # every padding of a few random pairs by up to two top zeros on each side,
    # and of each against a random image of length 1 on the other side
    rng, consts = random.Random(q), random.Random(-q)
    for _ in range(20):
        f, g = ([rng.randrange(q) for _ in range(rng.randint(1, 4))] + [rng.randrange(1, q)] for _ in range(2))
        c = (consts.randrange(q),)
        for pad_f, pad_g in product(range(3), repeat=2):
            fp, gp = tuple(f + [0] * pad_f), tuple(g + [0] * pad_g)
            assert upoly_resultant(fp, gp, ctx) == ref_sylvester_determinant(fp, gp, ctx), (fp, gp)
            for a, b in ((c, gp), (fp, c)):
                assert upoly_resultant(a, b, ctx) == ref_sylvester_determinant(a, b, ctx), (a, b)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_interpolant_passes_through_every_point(data):
    ctx = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    xs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=min(ctx.q, 12), unique=True))
    ys = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=len(xs), max_size=len(xs)))
    poly = lagrange_interpolate(xs, ys, ctx)
    assert len(poly) <= len(xs)
    assert [ref_eval(poly, x, ctx) for x in xs] == ys


@pytest.mark.parametrize(
    "call",
    [
        lambda c5: rational_roots((1, 5, 1), c5),
        lambda c5: rational_roots((-1, 1), c5),
        lambda c5: upoly_gcd((1, 1), (2, 7), c5),
        lambda c5: upoly_gcd((True, 1), (2, 1), c5),
        lambda c5: xq_mod((2, 1, 9), c5),
    ],
    ids=["rational_roots", "rational_roots_negative", "upoly_gcd", "upoly_gcd_bool", "xq_mod"],
)
def test_exported_univariate_functions_reject_foreign_coefficients(call):
    with pytest.raises(UsageError):
        call(prime_field(5))
