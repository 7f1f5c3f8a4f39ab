import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from svsearch import mpoly
from svsearch.errors import CapacityError, DomainError, UsageError
from svsearch.ffield import LOG_TABLE_LIMIT, FieldCtx, field_for_order, prime_field
from svsearch.mpoly import (
    ROOT_SCAN_CELLS,
    VANDERMONDE_BYTES,
    MPoly,
    _lagrange_matrix,
    _lane_resultants,
    _matmul_mod,
    _power_table,
    _roots_by_scan,
    _roots_by_splitting,
    lift_with_embedding,
    monomial_row,
    monomials,
    rational_roots,
    resultant_y,
    polys_from_slots,
    slot_array,
    y_poly_at,
)
from svsearch.upoly import (
    is_squarefree,
    lagrange_interpolate,
    upoly_deg,
    upoly_eval,
    upoly_gcd,
    upoly_add,
    upoly_monic,
    upoly_mul,
    upoly_resultant,
    upoly_sub,
    upoly_trim,
    xq_mod,
)
from svsearch.sampler import RngStream
from svsearch.zdsolve import resultant_y_general


def P(nvars, terms, ctx):
    return MPoly.from_terms(nvars, terms, ctx)


def random_poly(nvars, d, ctx, rng):
    exps = monomials(nvars, d)
    return P(nvars, [(e, rng.next_below(ctx.q)) for e in exps], ctx)


def y_coeffs(f):
    """The coefficient of each power of Y as a polynomial in X: the rows
    of f's `y_matrix`, trimmed; () for the zero polynomial."""
    return tuple(upoly_trim(row) for row in f.y_matrix.tolist())


# ---------------------------------------------------------------------------
# canonical form


def test_monomials_count_and_order():
    exps = monomials(3, 2)
    assert len(exps) == 10  # C(5, 3)
    assert exps[0] == (2, 0, 0)
    assert exps[-1] == (0, 0, 0)
    degs = [sum(e) for e in exps]
    assert degs == sorted(degs, reverse=True)
    for a, b in zip(exps, exps[1:]):
        assert (sum(a), a) > (sum(b), b)
    # sampling and specialize build terms in this order without sorting
    for r in range(1, 6):
        for d in range(5):
            assert monomials(r, d) == tuple(sorted(monomials(r, d), key=lambda e: (sum(e), e), reverse=True))


def test_monomials_of_no_variables():
    c5 = prime_field(5)
    for d in range(4):
        assert monomials(0, d) == ((),)
        assert monomial_row((), d, c5) == [1]


def test_canonical_form_merges_and_drops():
    c5 = prime_field(5)
    f = P(2, [((1, 0), 2), ((1, 0), 3), ((0, 1), 4)], c5)  # 2+3 = 0 mod 5
    assert f.terms == (((0, 1), 4),)
    assert MPoly.zero(3).degree == -1


# ---------------------------------------------------------------------------
# evaluate / specialize


def test_evaluate_examples():
    c5 = prime_field(5)
    f = P(3, [((1, 0, 1), 1), ((0, 2, 0), 1)], c5)  # X1 X3 + X2^2
    assert f.evaluate((1, 2, 3), c5) == 2  # 3 + 4
    assert MPoly.zero(3).evaluate((1, 2, 3), c5) == 0
    c2 = prime_field(2)
    g = P(1, [((2,), 1), ((1,), 1), ((0,), 1)], c2)
    assert g.evaluate((1,), c2) == 1


def test_evaluate_dimension_mismatch():
    c5 = prime_field(5)
    f = P(2, [((1, 0), 1)], c5)
    with pytest.raises(UsageError):
        f.evaluate((1,), c5)


def test_specialize_examples():
    c3 = prime_field(3)
    f = P(3, [((1, 0, 1), 1), ((0, 2, 0), 1), ((0, 0, 0), 1)], c3)  # X1 X3 + X2^2 + 1
    g = f.specialize((2,), c3)
    assert g == P(2, [((0, 1), 2), ((1, 0), 0), ((2, 0), 1), ((0, 0), 1)], c3)
    c2 = prime_field(2)
    h = P(3, [((2, 0, 0), 1), ((1, 0, 0), 1)], c2)  # X1^2 + X1
    assert h.specialize((1,), c2).is_zero()
    k = P(3, [((0, 1, 0), 1), ((0, 0, 1), 1)], c2)  # X2 + X3
    for c in (0, 1):
        assert k.specialize((c,), c2) == P(2, [((1, 0), 1), ((0, 1), 1)], c2)


def test_specialize_errors_and_degree():
    c5 = prime_field(5)
    f = P(2, [((1, 1), 2)], c5)
    with pytest.raises(UsageError):
        f.specialize((1, 2), c5)
    rng = RngStream(3, 1)
    for _ in range(40):
        g = random_poly(3, 3, c5, rng)
        a = (rng.next_below(5),)
        assert g.specialize(a, c5).degree <= g.degree


def test_specialize_composition_and_agreement():
    c7 = prime_field(7)
    rng = RngStream(4, 2)
    for _ in range(40):
        f = random_poly(4, 2, c7, rng)
        a = (rng.next_below(7),)
        b = (rng.next_below(7),)
        x = (rng.next_below(7), rng.next_below(7))
        two_step = f.specialize(a, c7).specialize(b, c7)
        one_step = f.specialize(a + b, c7)
        assert two_step == one_step
        assert one_step.evaluate(x, c7) == f.evaluate(a + b + x, c7)


def ref_evaluate(f, point, ctx):
    """evaluate by a power cache per (variable, exponent)."""
    powers = {}
    total = 0
    for exps, c in f.terms:
        v = c
        for var, e in enumerate(exps):
            if e:
                if (var, e) not in powers:
                    powers[var, e] = ctx.pow(point[var], e)
                v = ctx.mul(v, powers[var, e])
        total = ctx.add(total, v)
    return total


def ref_specialize(f, a, ctx):
    """specialize term by term, merging the tails through from_terms."""
    m = len(a)
    items = []
    for exps, c in f.terms:
        v = c
        for x, e in zip(a, exps):
            v = ctx.mul(v, ctx.pow(x, e))
        items.append((exps[m:], v))
    return MPoly.from_terms(f.nvars - m, items, ctx)


# q = 2^17 is above LOG_TABLE_LIMIT: digit arithmetic, not log tables.
# Prime fields reduce each product before the tail sums; at p = 2^31 - 1
# an unreduced sum passes 2^63.
SLOT_FIELDS = {q: field_for_order(q) for q in (7, 8, 9, 1009, 2**31 - 1, 1 << 17)}
# GF(2^64) by X^64 + X^4 + X^3 + X + 1: elements past 2^63 do not fit int64
SLOT_FIELDS[1 << 64] = FieldCtx(2, 64, (1, 1, 0, 1, 1) + (0,) * 59 + (1,))
assert any(c.k > 1 and c.q > LOG_TABLE_LIMIT for c in SLOT_FIELDS.values())


@st.composite
def poly_and_point(draw):
    """A sparse polynomial, possibly zero, and a point to substitute.

    Some drawn terms come with their negation, so from_terms cancels them,
    and one pair of terms may share a tail and cancel once the first
    variables are substituted.
    """
    ctx = SLOT_FIELDS[draw(st.sampled_from(sorted(SLOT_FIELDS)))]
    nvars = draw(st.integers(2, 4))
    bound = draw(st.integers(0, 4))
    elt = st.integers(0, ctx.q - 1)
    point = tuple(draw(st.lists(elt, min_size=nvars, max_size=nvars)))
    exps = monomials(nvars, bound)
    items = draw(st.lists(st.tuples(st.sampled_from(exps), elt), max_size=12))
    if items:
        items += [(e, ctx.neg(c)) for e, c in draw(st.lists(st.sampled_from(items), max_size=3))]
    m = draw(st.integers(1, nvars - 1))
    e1 = draw(st.sampled_from(exps))
    heads = [h for h in monomials(m, bound - sum(e1[m:])) if h != e1[:m]]
    if heads:
        # c1 a^h1 + c2 a^h2 = 0 for c2 = -c1 a^h1 / a^h2
        h2 = draw(st.sampled_from(heads))
        v1, v2 = (ref_evaluate(MPoly.from_terms(m, [(h, 1)], ctx), point[:m], ctx) for h in (e1[:m], h2))
        if v2:
            c1 = draw(elt)
            c2 = ctx.neg(ctx.mul(ctx.mul(c1, v1), ctx.inv(v2)))
            items += [(e1, c1), (h2 + e1[m:], c2)]
    return ctx, MPoly.from_terms(nvars, items, ctx), point


P31 = SLOT_FIELDS[2**31 - 1]
# every term is (p - 1) * (+-1) before reduction: 35 of them sum past 2^64
DENSE_P31 = MPoly.from_terms(4, [(e, P31.q - 1) for e in monomials(4, 3)], P31)


@settings(max_examples=300, deadline=None)
@given(poly_and_point())
@example((P31, DENSE_P31, (P31.q - 1,) * 4))
def test_slot_plans_match_references(case):
    ctx, f, point = case
    assert f.evaluate(point, ctx) == ref_evaluate(f, point, ctx)
    for m in range(1, f.nvars):
        assert f.specialize(point[:m], ctx) == ref_specialize(f, point[:m], ctx)


@st.composite
def polys_and_point(draw):
    """A tuple of polynomials under one degree bound, some of them zero and
    some of lower degree, and a point to substitute."""
    ctx = SLOT_FIELDS[draw(st.sampled_from(sorted(SLOT_FIELDS)))]
    nvars = draw(st.integers(1, 4))
    maxdeg = draw(st.integers(0, 4))
    elt = st.integers(0, ctx.q - 1)
    point = tuple(draw(st.lists(elt, min_size=nvars, max_size=nvars)))
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        exps = monomials(nvars, draw(st.integers(0, maxdeg)))
        items = draw(st.lists(st.tuples(st.sampled_from(exps), elt), max_size=12))
        polys.append(MPoly.from_terms(nvars, items, ctx))
    return ctx, tuple(polys), maxdeg, point


@settings(max_examples=300, deadline=None)
@given(polys_and_point())
# every product is (p - 1)^2 ~ 2^62: unreduced, 35 of them pass 2^63 in a slot
@example((P31, (DENSE_P31, MPoly.zero(4), P(4, [((0, 1, 1, 0), P31.q - 1)], P31)), 3, (P31.q - 1,) * 4))
def test_shared_slot_block_matches_references(case):
    ctx, polys, maxdeg, point = case
    nvars = polys[0].nvars
    block = polys_from_slots(nvars, maxdeg, slot_array(polys, maxdeg))
    assert block == polys
    for m in range(nvars + 1):
        a = point[:m]
        # one block substituted once for all rows, and each polynomial on its own
        for shared, f in zip(block, polys):
            if m == nvars:
                assert shared.evaluate(point, ctx) == f.evaluate(point, ctx) == ref_evaluate(f, point, ctx)
            else:
                expected = ref_specialize(f, a, ctx)
                assert shared.specialize(a, ctx) == f.specialize(a, ctx) == expected
                rows = slot_array([shared.specialize(a, ctx), expected], maxdeg)
                assert rows[0].tolist() == rows[1].tolist()


def test_block_keeps_the_last_point_per_field():
    # one block evaluated at one point in two fields, and back
    f, g = polys_from_slots(2, 2, [[3, 0, 1, 0, 0, 2], [0, 5, 0, 0, 1, 0]])
    gf7, gf8 = field_for_order(7), field_for_order(8)
    for ctx in (gf7, gf8, gf7):
        for h in (f, g, f):
            assert h.evaluate((2, 3), ctx) == ref_evaluate(h, (2, 3), ctx)
    for ctx in (gf7, gf8, gf7):
        for h in (f, g, f):
            assert h.specialize((4,), ctx) == ref_specialize(h, (4,), ctx)


@st.composite
def term_lists(draw):
    """A field, nvars, a shuffled term list that may repeat exponent
    vectors or cancel to zero, and a field element to specialize at."""
    ctx = SLOT_FIELDS[draw(st.sampled_from(sorted(SLOT_FIELDS)))]
    nvars = draw(st.integers(1, 3))
    exps = monomials(nvars, draw(st.integers(0, 4)))
    elt = st.integers(0, ctx.q - 1)
    items = draw(st.lists(st.tuples(st.sampled_from(exps), elt), max_size=10))
    if items:
        items += [(e, draw(elt)) for e, _ in draw(st.lists(st.sampled_from(items), max_size=4))]
        if draw(st.booleans()):
            items += [(e, ctx.neg(c)) for e, c in items]  # sums to zero
    return ctx, nvars, draw(st.permutations(items)), draw(elt)


@settings(max_examples=200, deadline=None)
@given(term_lists(), st.integers(1, 2))
def test_polynomial_is_canonical_however_built(case, extra):
    ctx, nvars, items, a = case
    acc = {}
    for e, c in items:
        acc[e] = ctx.add(acc.get(e, 0), c)
    ref = tuple(sorted(((e, c) for e, c in acc.items() if c), key=lambda t: (sum(t[0]), t[0]), reverse=True))
    degree = sum(ref[0][0]) if ref else -1
    maxdeg = max(degree, 0) + extra

    slots = [0] * len(monomials(nvars, maxdeg))
    for e, c in ref:
        slots[monomials(nvars, maxdeg).index(e)] = c
    # one more leading variable, set to a by specialize: the term c x^e
    # becomes (c / a^k) x0^k x^e for some k that keeps the degree <= maxdeg
    lifted = []
    for i, (e, c) in enumerate(ref):
        k = min(i % 3, maxdeg - sum(e)) if a else 0
        lifted.append(((k,) + e, ctx.mul(c, ctx.inv(ctx.pow(a, k))) if k else c))
    wide = MPoly.from_terms(nvars + 1, lifted, ctx)
    (block,) = polys_from_slots(nvars + 1, maxdeg, slot_array([wide], maxdeg))

    built = (
        MPoly.from_terms(nvars, items, ctx),
        polys_from_slots(nvars, maxdeg, [slots])[0],
        block.specialize((a,), ctx),
    )
    for f in built:
        assert f.nvars == nvars and f.terms == ref
        assert f.degree == degree and f.is_zero() == (not ref)
        assert f == built[0] and hash(f) == hash(built[0])
    assert (built[0] == MPoly.zero(nvars)) == (not ref)
    assert built[0]._slots[0].maxdeg == max(degree, 0)  # terms that cancel do not widen the row


# ---------------------------------------------------------------------------
# univariate toolkit


def test_upoly_gcd_examples():
    c5 = prime_field(5)
    assert upoly_gcd((4, 0, 1), (4, 1), c5) == (4, 1)  # gcd(X^2-1, X-1) = X-1
    f = (3, 1)
    assert upoly_gcd(f, (), c5) == upoly_monic(f, c5)
    c2 = prime_field(2)
    assert upoly_gcd((0, 1, 1), (1, 0, 1), c2) == (1, 1)
    with pytest.raises(DomainError):
        upoly_gcd((), (), c5)


def test_xq_mod_examples():
    c2 = prime_field(2)
    assert xq_mod((0, 0, 1), c2) == ()  # X^2 mod X^2
    c3 = prime_field(3)
    assert xq_mod((1, 0, 1), c3) == (0, 2)  # X^3 mod (X^2+1) = -X
    for q in (2, 3, 5, 7, 9):
        ctx = field_for_order(q)
        for c in range(q):
            assert xq_mod((ctx.neg(c), 1), ctx) == upoly_trim([c])
    with pytest.raises(UsageError):
        xq_mod((1,), c3)


def test_rational_roots_examples():
    c5 = prime_field(5)
    assert rational_roots((4, 0, 1), c5) == {1, 4}
    c3 = prime_field(3)
    assert rational_roots((1, 0, 1), c3) == set()
    for q in (2, 3, 4, 5):
        ctx = field_for_order(q)
        xq_minus_x = upoly_sub(tuple([0] * q + [1]), (0, 1), ctx)
        assert rational_roots(xq_minus_x, ctx) == set(ctx.elements())
    with pytest.raises(DomainError):
        rational_roots((), c5)
    # a linear f is the gcd of itself and X^q - X: over GF(p), GF(2^k) and
    # an odd GF(p^k), its one root against a scan of the field
    for q in (1009, 256, 243):
        ctx = field_for_order(q)
        for f in ((0, 1), (5, 7), (q - 1, 3), (1, q - 1)):
            assert rational_roots(f, ctx) == {x for x in ctx.elements() if upoly_eval(f, x, ctx) == 0}


PRIME_POWERS_TO_64 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64)  # every prime power <= 64


def test_rational_roots_agree_with_scan_small_fields():
    rng = RngStream(17, 0)
    for q in PRIME_POWERS_TO_64:
        ctx = field_for_order(q)
        for _ in range(10):
            deg = 1 + rng.next_below(4)
            f = upoly_trim([rng.next_below(q) for _ in range(deg)] + [1 + rng.next_below(q - 1)])
            expected = {x for x in ctx.elements() if upoly_eval(f, x, ctx) == 0}
            assert rational_roots(f, ctx) == expected


def _distinct_elements(ctx, n, rng):
    out = set()
    while len(out) < n:
        out.add(rng.next_below(ctx.q))
    return out


def _linear_product(roots, ctx):
    f = (1,)
    for root in roots:
        f = upoly_mul(f, (ctx.neg(root), 1), ctx)
    return f


def test_rational_roots_of_linear_products_every_small_q():
    # both splitters: (X + c)^((q-1)/2) - 1 for odd q, traces for q = 2^k
    for q in PRIME_POWERS_TO_64:
        ctx = field_for_order(q)
        rng = RngStream(31, q)
        for n in range(1, min(q, 8) + 1):
            roots = _distinct_elements(ctx, n, rng)
            assert rational_roots(_linear_product(roots, ctx), ctx) == roots
        xq_minus_x = upoly_sub(tuple([0] * q + [1]), (0, 1), ctx)
        assert rational_roots(xq_minus_x, ctx) == set(ctx.elements())


def test_rational_roots_even_q_above_two_to_the_twenty():
    ctx = field_for_order(1 << 21)  # no log tables: digit arithmetic
    roots = _distinct_elements(ctx, 4, RngStream(29, 3))
    assert rational_roots(_linear_product(roots, ctx), ctx) == roots


def test_rational_roots_splitting_path_large_q():
    # a prime above 2^16: the splitting cost grows with log q, not with q
    ctx = prime_field(131071)  # 2^17 - 1
    rng = RngStream(23, 5)
    for _ in range(5):
        roots = {1 + rng.next_below(ctx.q - 1) for _ in range(4)}
        f = (1,)
        for root in roots:
            f = upoly_mul(f, (ctx.neg(root), 1), ctx)
        assert rational_roots(f, ctx) == roots


ROOT_FIELDS = {p: prime_field(p) for p in (3, 101, 1009, 65521)}


def _below_and_above_the_scan_cap():
    # at GF(1009): the largest degree the scan takes, and the next one,
    # each with a repeated root
    ctx = ROOT_FIELDS[1009]
    top = ROOT_SCAN_CELLS // 1009 - 1
    return (upoly_mul(_linear_product(range(top - 2), ctx), (1, 2, 1), ctx),
            upoly_mul(_linear_product(range(0, 2 * top - 2, 2), ctx), (1, 2, 1), ctx))


BELOW_SCAN_CAP, ABOVE_SCAN_CAP = _below_and_above_the_scan_cap()


@st.composite
def root_cases(draw):
    """A prime p and a nonzero f of degree <= 40 over GF(p): c times a
    product of linear factors, each with a multiplicity, times an
    arbitrary cofactor."""
    p = draw(st.sampled_from(sorted(ROOT_FIELDS)))
    ctx = ROOT_FIELDS[p]
    roots = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(1, 4)), max_size=10))
    f = _linear_product([r for r, k in roots for _ in range(k)], ctx)
    room = 40 - upoly_deg(f)
    cofactor = draw(st.lists(st.integers(0, p - 1), max_size=room + 1)) + [draw(st.integers(1, p - 1))]
    return p, upoly_mul(f, upoly_trim(cofactor[-room - 1 :]), ctx)


@settings(max_examples=120, deadline=None)
@given(root_cases())
@example((1009, BELOW_SCAN_CAP))
@example((1009, ABOVE_SCAN_CAP))
def test_rational_roots_scan_equals_splitting(case):
    # both paths called directly; the scan reads the table rational_roots
    # keeps for p when f fits the cap, and an uncached one of deg f + 1
    # rows when it does not
    p, f = case
    ctx = ROOT_FIELDS[p]
    if p * len(f) <= ROOT_SCAN_CELLS:
        table = _power_table(p, ROOT_SCAN_CELLS // p, p)
    else:
        table = _power_table.__wrapped__(p, len(f), p)
    roots = _roots_by_splitting(f, ctx)
    assert _roots_by_scan(f, p, table) == roots
    assert rational_roots(f, ctx) == roots


def test_rational_roots_scans_below_the_cap_and_splits_above(monkeypatch):
    calls = []
    for name in ("_roots_by_scan", "_roots_by_splitting"):
        original = getattr(mpoly, name)
        monkeypatch.setattr(mpoly, name, lambda *args, _n=name, _f=original: calls.append(_n) or _f(*args))
    c1009 = ROOT_FIELDS[1009]
    assert len(ABOVE_SCAN_CAP) == len(BELOW_SCAN_CAP) + 1
    assert 1009 * len(BELOW_SCAN_CAP) <= ROOT_SCAN_CELLS < 1009 * len(ABOVE_SCAN_CAP)
    for f, path in [
        (BELOW_SCAN_CAP, "_roots_by_scan"),
        (ABOVE_SCAN_CAP, "_roots_by_splitting"),
        ((5, 7), "_roots_by_splitting"),  # linear: its root in closed form
    ]:
        calls.clear()
        rational_roots(f, c1009)
        assert calls == [path]
    calls.clear()
    rational_roots((0, 0, 1), field_for_order(9))  # an extension field always splits
    assert calls == ["_roots_by_splitting"]


def test_is_squarefree_examples():
    c7 = prime_field(7)
    f = upoly_mul((6, 1), (5, 1), c7)  # (X-1)(X-2)
    assert is_squarefree(f, c7)
    assert not is_squarefree((0, 0, 1), c7)  # X^2
    c5 = prime_field(5)
    assert is_squarefree((3, 0, 0, 0, 1), c5)  # X^4 - 2
    # derivative vanishes: X^p over GF(p)
    c3 = prime_field(3)
    assert not is_squarefree((0, 0, 0, 1), c3)
    with pytest.raises(DomainError):
        is_squarefree((), c5)


def test_lagrange_interpolation_roundtrip():
    c11 = prime_field(11)
    rng = RngStream(31, 0)
    for _ in range(20):
        deg = rng.next_below(5)
        f = upoly_trim([rng.next_below(11) for _ in range(deg)] + [1 + rng.next_below(10)])
        xs = list(range(upoly_deg(f) + 1))
        ys = [upoly_eval(f, x, c11) for x in xs]
        assert lagrange_interpolate(xs, ys, c11) == f


# ---------------------------------------------------------------------------
# resultants


def test_resultant_examples():
    c5 = prime_field(5)
    f = P(2, [((0, 1), 1), ((1, 0), 4)], c5)  # Y - X
    g = P(2, [((0, 1), 1), ((1, 0), 1)], c5)  # Y + X
    assert resultant_y(f, g, c5) == (0, 2)
    a, b = 2, 4
    fa = P(2, [((0, 1), 1), ((0, 0), c5.neg(a))], c5)
    gb = P(2, [((0, 1), 1), ((0, 0), c5.neg(b))], c5)
    assert resultant_y(fa, gb, c5) == upoly_trim([c5.sub(a, b)])
    f = P(2, [((2, 0), 1), ((0, 1), 4)], c5)  # Y1^2 - Y2
    g = P(2, [((0, 2), 1), ((0, 0), 3)], c5)  # Y2^2 - 2
    assert resultant_y(f, g, c5) == (3, 0, 0, 0, 1)  # Y1^4 - 2


def test_resultant_usage_errors():
    c5 = prime_field(5)
    const_in_y = P(2, [((2, 0), 1)], c5)
    g = P(2, [((0, 1), 1)], c5)
    # one side constant in Y is the remainder sequence's last step: c^deg_Y(other)
    assert resultant_y(const_in_y, g, c5) == resultant_y(g, const_in_y, c5) == (0, 0, 1)
    with pytest.raises(UsageError):
        resultant_y(const_in_y, P(2, [((1, 0), 1)], c5), c5)
    with pytest.raises(UsageError):
        resultant_y(MPoly.zero(2), g, c5)


def _sylvester_symbolic(f, g, ctx):
    """Slow oracle: the Sylvester determinant with polynomial entries,
    expanded by cofactors."""
    fc = y_coeffs(f)
    gc = y_coeffs(g)
    n, m = len(fc) - 1, len(gc) - 1
    size = n + m
    rows = []
    frow = list(reversed(fc))
    grow = list(reversed(gc))
    for i in range(m):
        rows.append([()] * i + frow + [()] * (size - n - 1 - i))
    for i in range(n):
        rows.append([()] * i + grow + [()] * (size - m - 1 - i))

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        acc = ()
        for j, entry in enumerate(mat[0]):
            if not entry:
                continue
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = upoly_mul(entry, det(minor), ctx)
            acc = upoly_sub(acc, term, ctx) if j % 2 else upoly_add(acc, term, ctx)
        return acc

    return det(rows)


def test_resultant_matches_symbolic_sylvester():
    # q <= 9 at d = 3 lifts its sample points x = 0..9; the rest run them as lanes
    rng = RngStream(47, 0)
    for q, d in ((2, 3), (3, 3), (5, 3), (7, 3), (11, 2), (101, 3), (1009, 3), (2**31 - 1, 3)):
        ctx = field_for_order(q)
        trials = 0
        while trials < 12:
            f = random_poly(2, d, ctx, rng)
            g = random_poly(2, d, ctx, rng)
            fc = y_coeffs(f)
            gc = y_coeffs(g)
            if not fc or not gc or len(fc) == len(gc) == 1:
                continue
            trials += 1
            assert resultant_y(f, g, ctx) == _sylvester_symbolic(f, g, ctx)
    # one side constant in Y, on a lane field, a lifting field (B = 6 >= 5) and GF(9)
    for q, dc, d in ((1009, 3, 3), (5, 2, 3), (9, 2, 3)):
        ctx = field_for_order(q)
        for _ in range(4):
            top = ((dc, 0), 1 + rng.next_below(q - 1))
            c = P(2, [((i, 0), rng.next_below(q)) for i in range(dc)] + [top], ctx)
            g = random_poly(2, d, ctx, rng)
            for a, b in ((c, g), (g, c)):
                assert resultant_y(a, b, ctx) == _sylvester_symbolic(a, b, ctx)


def _plus_x_minus(f_items, x0, h_items, ctx):
    """The terms of f + (X - x0) * h."""
    out = list(f_items)
    for (ex, ey), c in h_items:
        out += [((ex + 1, ey), c), ((ex, ey), ctx.neg(ctx.mul(x0, c)))]
    return out


RESULTANT_FIELDS = {q: field_for_order(q) for q in (3, 11, 101, 1009, 2**31 - 1)}


@st.composite
def bivariate_pairs(draw):
    """A field and two polynomials of positive degree in Y and total degree
    <= 3.  Sometimes g = f + (X - x0) * h, so that f(x0, Y) = g(x0, Y)."""
    ctx = RESULTANT_FIELDS[draw(st.sampled_from(sorted(RESULTANT_FIELDS)))]
    elt = st.integers(0, ctx.q - 1)

    def items(d):
        return draw(st.lists(st.tuples(st.sampled_from(monomials(2, d)), elt), min_size=1, max_size=10))

    f_items = items(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        g_items = _plus_x_minus(f_items, draw(st.integers(0, min(9, ctx.q - 1))), items(2), ctx)
    else:
        g_items = items(draw(st.integers(1, 3)))
    f, g = MPoly.from_terms(2, f_items, ctx), MPoly.from_terms(2, g_items, ctx)
    assume(len(f.y_matrix) > 1 and len(g.y_matrix) > 1)
    return ctx, f, g


F101 = RESULTANT_FIELDS[101]
_F = [((0, 3), 1), ((1, 1), 2), ((2, 0), 3), ((0, 0), 5)]  # Y^3 + 2XY + 3X^2 + 5
# g = f + (X - 4)(Y^2 + 2Y + 7): f mod g = -(X - 4)(Y^2 + 2Y + 7) vanishes at x = 4
VANISHING_LANE = (F101, P(2, _F, F101), P(2, _plus_x_minus(_F, 4, [((0, 2), 1), ((0, 1), 2), ((0, 0), 7)], F101), F101))
# at x = 1 the images are Y^3 + Y + 1 and Y^3 + 2Y + 1, and f mod g = -Y
TWO_DEGREE_DROP = (
    F101,
    P(2, [((0, 3), 1), ((1, 2), 1), ((0, 2), 100), ((0, 1), 1), ((1, 0), 1)], F101),  # Y^3 + (X - 1)Y^2 + Y + X
    P(2, [((0, 3), 1), ((0, 1), 2), ((0, 0), 1)], F101),
)
# f's leading Y-coefficient X - 2 vanishes at x = 2, inside 0..9: the image
# Y + 1 keeps its formal Y-degree 2, so its lane comes out 0 and is recomputed
LC_VANISHES_IN_RANGE = (
    F101,
    P(2, [((1, 2), 1), ((0, 2), 99), ((0, 1), 1), ((0, 0), 1)], F101),  # (X - 2)Y^2 + Y + 1
    P(2, [((0, 3), 1), ((1, 0), 1)], F101),  # Y^3 + X
)
# every coefficient near p = 2^31 - 1: a sum of three products passes 2^63
DENSE_P31_PAIR = (
    P31,
    P(2, [(e, P31.q - 1) for e in monomials(2, 3)], P31),
    P(2, [(e, P31.q - 2 - i) for i, e in enumerate(monomials(2, 3))], P31),
)


@settings(max_examples=150, deadline=None)
@given(bivariate_pairs())
@example(VANISHING_LANE)
@example(TWO_DEGREE_DROP)
@example(LC_VANISHES_IN_RANGE)
@example(DENSE_P31_PAIR)
def test_resultant_matches_symbolic_sylvester_property(case):
    ctx, f, g = case
    res = resultant_y(f, g, ctx)
    assert res == _sylvester_symbolic(f, g, ctx)
    assert all(type(c) is int for c in res)


@pytest.mark.parametrize(
    "case,fallback,value",
    [
        (VANISHING_LANE, "upoly_resultant", lambda r: r == 0),
        (TWO_DEGREE_DROP, "upoly_resultant", lambda r: r != 0),
        (LC_VANISHES_IN_RANGE, "upoly_resultant", lambda r: r != 0),
    ],
    ids=["vanishing-remainder", "two-degree-drop", "lc-vanishes"],
)
def test_resultant_lane_fallbacks_are_reached(case, fallback, value, monkeypatch):
    # each pinned example above takes the fallback it is named for
    ctx, f, g = case
    results = []
    original = getattr(mpoly, fallback)

    def counted(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(mpoly, fallback, counted)
    assert resultant_y(f, g, ctx) == _sylvester_symbolic(f, g, ctx)
    assert results and all(value(r) for r in results)


@pytest.mark.parametrize(
    "q,f_items,g_items,lifts",
    [
        # B = 9: the points 0..9 fit in GF(11), though both leading
        # Y-coefficients vanish at x = 0
        (11, [((1, 2), 1), ((0, 1), 1), ((0, 0), 1)], [((1, 2), 1), ((3, 0), 1), ((0, 0), 2)], 0),
        # B = 4 and B = 6: the points are the whole field, and a leading
        # Y-coefficient vanishes at x = 0 (both at once in GF(5))
        (5, [((1, 1), 1), ((0, 0), 1)], [((1, 1), 1), ((1, 0), 1), ((0, 1), 1)], 0),
        (7, [((1, 1), 1), ((0, 0), 2)], [((1, 2), 1), ((0, 2), 1), ((0, 1), 1), ((1, 0), 1)], 0),
        # q <= B: the points come from GF(q^2)
        (5, [((1, 2), 1), ((0, 1), 1), ((0, 0), 1)], [((0, 3), 1), ((1, 0), 1)], 1),
        (4, [((1, 1), 1), ((0, 0), 1)], [((1, 1), 1), ((1, 0), 1), ((0, 1), 2)], 1),
    ],
    ids=["gf11-b9", "gf5-b4", "gf7-b6", "gf5-b9-lifts", "gf4-b4-lifts"],
)
def test_resultant_samples_x_0_to_b_and_lifts_only_when_q_le_b(q, f_items, g_items, lifts, monkeypatch):
    ctx = field_for_order(q)
    f, g = P(2, f_items, ctx), P(2, g_items, ctx)
    assert (ctx.q <= f.degree * g.degree) == bool(lifts)
    calls = []
    original = mpoly.lift_with_embedding
    monkeypatch.setattr(mpoly, "lift_with_embedding", lambda *args: calls.append(args) or original(*args))
    assert resultant_y(f, g, ctx) == _sylvester_symbolic(f, g, ctx)
    assert len(calls) == lifts


@pytest.mark.parametrize("df,dg,path", [(7, 73, "_lagrange_matrix"), (16, 32, "lagrange_interpolate")])
def test_resultant_on_each_side_of_the_vandermonde_limit(df, dg, path, monkeypatch):
    # 512 and 513 points at x = 0..df*dg: the cached matrix serves up to
    # VANDERMONDE_BYTES of int64 entries, n^2 * 8 <= 2^21.  Either way the
    # result is the resultant at points it was not interpolated from.
    n = df * dg + 1
    assert n == (512 if path == "_lagrange_matrix" else 513)
    assert (8 * n * n <= VANDERMONDE_BYTES) == (path == "_lagrange_matrix")
    ctx = RESULTANT_FIELDS[1009]
    rng = RngStream(67, df)
    f, g = (
        P(2, [(e, 1 if e == (0, d) else rng.next_below(ctx.q)) for e in monomials(2, d)], ctx) for d in (df, dg)
    )
    calls = []
    original = getattr(mpoly, path)
    monkeypatch.setattr(mpoly, path, lambda *args: calls.append(args) or original(*args))
    res = resultant_y(f, g, ctx)
    assert calls and upoly_deg(res) <= df * dg
    fc, gc = f.y_matrix.tolist(), g.y_matrix.tolist()
    for x in range(df * dg + 1, df * dg + 12):
        assert upoly_eval(res, x, ctx) == upoly_resultant(y_poly_at(fc, x, ctx), y_poly_at(gc, x, ctx), ctx)


@pytest.mark.parametrize("p,n", [(1009, 1), (1009, 2), (1009, 10), (1009, 37), (1009, 64), (1009, 101),
                                 (101, 101), (2**31 - 1, 2), (2**31 - 1, 37), (2**31 - 1, 101)])
def test_lagrange_matrix_columns_are_the_lagrange_basis(p, n):
    # column i interpolates the i-th unit vector at x = 0..n-1, the basis
    # polynomial that lagrange_interpolate builds in Newton form
    ctx = prime_field(p)
    matrix = _lagrange_matrix(p, n)
    assert matrix.shape == (n, n) and not matrix.flags.writeable
    for i, column in enumerate(matrix.T.tolist()):
        assert upoly_trim(column) == lagrange_interpolate(range(n), [int(i == j) for j in range(n)], ctx)


def test_matmul_mod_reduces_each_term_past_int64():
    p = 2**31 - 1
    assert 3 * (p - 1) ** 2 >= 1 << 63  # one int64 product of these would wrap
    a = np.array([[p - 1, p - 2, 1], [p - 3, 0, p - 1]], dtype=np.int64)
    b = np.array([[p - 1, 2], [p - 5, p - 1], [7, p - 1]], dtype=np.int64)
    expected = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b.tolist())] for row in a.tolist()]
    assert _matmul_mod(a, b, p).tolist() == expected
    assert _matmul_mod(a % 1009, b % 1009, 1009).tolist() == (a % 1009 @ (b % 1009) % 1009).tolist()


@st.composite
def lane_pairs(draw):
    """A prime field and F, G for `_lane_resultants`: formal degrees
    (n, m) in [0, 4]^2 other than (0, 0), a few lanes, and a top
    coefficient that is 0 at times."""
    ctx = RESULTANT_FIELDS[draw(st.sampled_from([101, 1009, 2**31 - 1]))]
    lanes = draw(st.integers(1, 6))

    def rows(deg):
        body = [draw(st.lists(st.integers(0, ctx.p - 1), min_size=lanes, max_size=lanes)) for _ in range(deg)]
        top = draw(st.lists(st.one_of(st.just(0), st.integers(1, ctx.p - 1)), min_size=lanes, max_size=lanes))
        return np.array(body + [top], dtype=np.int64)

    n, m = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any))
    return ctx, rows(n), rows(m)


@settings(max_examples=200, deadline=None)
@given(lane_pairs())
def test_lane_resultants_match_upoly_resultant_lane_by_lane(case):
    # a lane that comes out 0 is recomputed by `_resultant_y_lanes`; every
    # other lane is final, so it must be the resultant itself
    ctx, F, G = case
    for i, lane in enumerate(_lane_resultants(F, G, ctx.p).tolist()):
        expected = upoly_resultant(tuple(F[:, i].tolist()), tuple(G[:, i].tolist()), ctx)
        assert lane in (0, expected), (i, lane, expected)


def test_resultant_vanishes_iff_shared_root_or_lc_collapse():
    rng = RngStream(53, 0)
    for q in (3, 5, 7):
        ctx = field_for_order(q)
        trials = 0
        while trials < 10:
            f = random_poly(2, 2, ctx, rng)
            g = random_poly(2, 2, ctx, rng)
            if f.is_zero() or g.is_zero():
                continue
            fc = y_coeffs(f)
            gc = y_coeffs(g)
            if len(fc) - 1 < 1 or len(gc) - 1 < 1:
                continue
            res = resultant_y(f, g, ctx)
            if not res:
                continue  # identically zero: shared factor, nothing to scan
            trials += 1
            lcf, lcg = fc[-1], gc[-1]
            for x0 in ctx.elements():
                f0 = upoly_trim([upoly_eval(c, x0, ctx) for c in fc])
                g0 = upoly_trim([upoly_eval(c, x0, ctx) for c in gc])
                both_lc_vanish = (
                    upoly_eval(lcf, x0, ctx) == 0 and upoly_eval(lcg, x0, ctx) == 0
                )
                if not f0 and not g0:
                    shares = True
                elif not f0:
                    shares = upoly_deg(g0) >= 1
                elif not g0:
                    shares = upoly_deg(f0) >= 1
                else:
                    shares = upoly_deg(upoly_gcd(f0, g0, ctx)) >= 1
                vanishes = upoly_eval(res, x0, ctx) == 0
                assert vanishes == (shares or both_lc_vanish), (q, f.terms, g.terms, x0)


def test_resultant_general_conventions():
    c5 = prime_field(5)
    f = P(2, [((2, 0), 1)], c5)  # Y1^2, constant in Y
    g = P(2, [((0, 2), 1)], c5)  # Y2^2
    assert resultant_y_general(f, g, c5) == (0, 0, 0, 0, 1)  # Y1^4
    assert resultant_y_general(f, P(2, [((1, 0), 1)], c5), c5) is None
    assert resultant_y_general(MPoly.zero(2), g, c5) == ()


@pytest.mark.parametrize("q,e", [(3, 2), (4, 3), (9, 2), (3, 1), (9, 1)])
def test_lift_round_trips_every_base_element(q, e):
    ctx = field_for_order(q)
    ext, embed, unembed = lift_with_embedding(ctx, e)
    assert ext.q == q ** e
    assert all(unembed[embed(a)] == a for a in ctx.elements())
    if e == 1 or ctx.k == 1:  # identities: constants keep their integer value
        assert all(embed(a) == a for a in ctx.elements())
    # the embedding is a ring map
    ops = ext.ops
    for a in ctx.elements():
        for b in ctx.elements():
            assert embed(ctx.add(a, b)) == ops.add(embed(a), embed(b))
            assert embed(ctx.mul(a, b)) == ops.mul(embed(a), embed(b))


def test_lift_refuses_a_base_past_the_table_limit_within_a_second():
    # GF(2^17) squared would be GF(2^34): refused before that field is built
    ctx = field_for_order(2**17)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        lift_with_embedding(ctx, 2)
    assert time.perf_counter() - start < 1


def test_y_matrix_is_computed_once_and_ignored_by_equality():
    c5 = prime_field(5)
    terms = [((2, 1), 3), ((0, 2), 1), ((1, 0), 4)]
    f = P(2, terms, c5)
    fm = f.y_matrix
    assert fm.tolist() == [[0, 4, 0, 0], [0, 0, 3, 0], [1, 0, 0, 0]]
    assert y_coeffs(f) == ((0, 4), (0, 0, 3), (1,))
    assert f.y_matrix is fm
    fresh = P(2, terms, c5)
    assert f == fresh and hash(f) == hash(fresh)
    with pytest.raises(UsageError):
        P(3, [((1, 1, 1), 1)], c5).y_matrix


def _y_coeffs_reference(f):
    """The Y-coefficient columns built from terms through dicts."""
    degy = max((e[1] for e, _ in f.terms), default=-1)
    cols = [dict() for _ in range(degy + 1)]
    for (ex, ey), c in f.terms:
        cols[ey][ex] = c
    return tuple(upoly_trim([col.get(i, 0) for i in range(max(col, default=-1) + 1)]) for col in cols)


def test_y_matrix_scatters_the_slot_row():
    # rows of one block, of blocks of a larger maxdeg than the degree, the
    # zero polynomial and a polynomial constant in Y, against the dict build
    rng = RngStream(71, 0)
    for q in (5, 1009, 256):
        ctx = field_for_order(q)
        for d in (1, 2, 3, 6):
            polys = [random_poly(2, d, ctx, rng) for _ in range(3)]
            polys += [MPoly.zero(2), P(2, [((d, 0), 1), ((0, 0), 2)], ctx)]
            shared = polys_from_slots(2, d + 2, slot_array(polys, d + 2))
            for f in polys + list(shared):
                expected = _y_coeffs_reference(f)
                mat = f.y_matrix
                assert mat.shape[0] == len(expected) and not mat.flags.writeable
                assert tuple(upoly_trim(row) for row in mat.tolist()) == expected


def test_cell_array_groups_slots_by_the_last_variable():
    # the coefficient of x^e at [slot of e[:-1] in monomials(nvars - 1, d),
    # d - e[-1]], in a new C-contiguous array
    rng = RngStream(73, 0)
    ctx = field_for_order(31)
    for nvars, d in ((1, 3), (2, 2), (3, 3)):
        polys = [random_poly(nvars, d, ctx, rng) for _ in range(2)]
        slots = slot_array(polys, d)
        cells = mpoly.cell_array(slots, nvars, d)
        heads = {h: i for i, h in enumerate(monomials(nvars - 1, d))}
        assert cells.shape == (2, len(heads), d + 1) and cells.flags.c_contiguous
        for f, mat in zip(polys, cells.tolist()):
            expected = [[0] * (d + 1) for _ in heads]
            for e, c in f.terms:
                expected[heads[e[:-1]]][d - e[-1]] = c
            assert mat == expected


def test_upoly_resultant_requires_positive_degrees():
    # formal degree 0 is accepted: Res(c, g) = c^m and Res(f, c) = c^n, the
    # Sylvester determinant of c times an identity; only () has no degree
    c5 = prime_field(5)
    for c in range(5):
        for g in ((0, 1), (1, 2, 3), (4, 0, 0)):
            m = len(g) - 1
            assert upoly_resultant((c,), g, c5) == upoly_resultant(g, (c,), c5) == c5.pow(c, m)
    with pytest.raises(UsageError):
        upoly_resultant((), (0, 1), c5)
    with pytest.raises(UsageError):
        upoly_resultant((0, 1), (), c5)


def test_resultant_root_criterion_matches_extension_scan():
    # dual route for the vanishing criterion: a nonconstant gcd of the two
    # specialized univariates must mean a genuinely shared root in a small
    # extension, found by explicit scanning through the lift
    rng = RngStream(61, 0)
    for q in (2, 3, 5):
        ctx = field_for_order(q)
        checked = 0
        while checked < 8:
            f = random_poly(2, 2, ctx, rng)
            g = random_poly(2, 2, ctx, rng)
            if f.is_zero() or g.is_zero():
                continue
            fc = y_coeffs(f)
            gc = y_coeffs(g)
            if len(fc) - 1 < 1 or len(gc) - 1 < 1:
                continue
            checked += 1
            for x0 in ctx.elements():
                f0 = upoly_trim([upoly_eval(c, x0, ctx) for c in fc])
                g0 = upoly_trim([upoly_eval(c, x0, ctx) for c in gc])
                if not f0 or not g0 or upoly_deg(f0) < 1 or upoly_deg(g0) < 1:
                    continue
                gcd_says = upoly_deg(upoly_gcd(f0, g0, ctx)) >= 1
                # scan GF(q^e) for e up to the smaller degree: any common
                # root of the pair lives that low
                emax = min(upoly_deg(f0), upoly_deg(g0))
                scan_says = False
                for e in range(1, emax + 1):
                    ext, embed, _ = lift_with_embedding(ctx, e)
                    fe = tuple(embed(c) for c in f0)
                    ge = tuple(embed(c) for c in g0)
                    for y in ext.elements():
                        if upoly_eval(fe, y, ext) == 0 and upoly_eval(ge, y, ext) == 0:
                            scan_says = True
                            break
                    if scan_says:
                        break
                assert gcd_says == scan_says, (q, x0, f0, g0)
