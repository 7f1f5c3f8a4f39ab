"""The univariate kernels against schoolbook references built from the
checked public field operations, and the validation at their entry points."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsearch.errors import UsageError
from svsearch.ffield import field_for_order, prime_field
from svsearch.mpoly import rational_roots
from svsearch.upoly import (
    lagrange_interpolate,
    upoly_divmod,
    upoly_gcd,
    upoly_mul,
    upoly_trim,
    xq_mod,
)

FIELDS = {q: field_for_order(q) for q in (2, 3, 4, 7, 8, 9, 25, 1009)}


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
