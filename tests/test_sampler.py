import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsearch.errors import CapacityError, DomainError, UsageError
from svsearch.ffield import field_for_order, matrix_rank, prime_field
from svsearch.mpoly import SLOT_LIMIT, MPoly, check_polys, check_slots, monomials, slot_array
from svsearch.sampler import (
    RngStream,
    SystemSpec,
    check_shape,
    check_strips,
    condition_matrix,
    m_matrix,
    sample_strips,
    sample_system,
    vandermonde_a,
)
from svsearch.theory import invertible_tuple_count


def test_stream_determinism_and_independence():
    a = RngStream(42, 7)
    b = RngStream(42, 7)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]
    c = RngStream(42, 8)
    assert [RngStream(42, 7).next_u64() for _ in range(5)] != [c.next_u64() for _ in range(5)]


def test_next_below_bounds():
    rng = RngStream(1, 0)
    for n in (1, 2, 3, 10, 31, 1009):
        for _ in range(50):
            assert 0 <= rng.next_below(n) < n
    with pytest.raises(UsageError):
        rng.next_below(0)


# 2^63 + 1 rejects about half of all raw draws, so it forces the scalar path
BLOCK_BOUNDS = (1, 2, 3, 31, 256, 1009, 2**31 - 1, 2**32, 2**63 + 1, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**64 - 1),
    n=st.sampled_from(BLOCK_BOUNDS),
    count=st.integers(0, 200),
)
def test_below_block_equals_scalar_draws(seed, stream_id, n, count):
    block, scalar = RngStream(seed, stream_id), RngStream(seed, stream_id)
    assert block.below_array(n, count).tolist() == [scalar.next_below(n) for _ in range(count)]
    assert block.state == scalar.state
    assert block.next_u64() == scalar.next_u64()


def test_below_block_types_and_bad_bound():
    rng = RngStream(4, 2)
    assert all(type(v) is int for v in rng.below_array(31, 10).tolist())
    with pytest.raises(UsageError):
        rng.below_array(0, 3)


def test_sample_system_shape_and_determinism():
    ctx = prime_field(2)
    rng = RngStream(3, 0)
    system = sample_system(ctx, 3, 2, 2, rng)
    assert len(system.polys) == 2
    assert check_slots(3, 2) == 10  # C(5, 3)
    assert all(f.degree <= 2 for f in system.polys)
    again = sample_system(ctx, 3, 2, 2, RngStream(3, 0))
    assert again == system


def test_sample_system_rejects_bad_parameters():
    ctx = prime_field(5)
    rng = RngStream(0, 0)
    with pytest.raises(UsageError):
        sample_system(ctx, 3, 1, 2, rng)
    with pytest.raises(UsageError):
        sample_system(ctx, 3, 3, 2, rng)
    with pytest.raises(UsageError):
        sample_system(ctx, 3, 2, 1, rng)


def test_shape_strip_and_polynomial_rules():
    ctx = prime_field(5)
    for r, s, d in ((3, 1, 2), (3, 3, 2), (3, 4, 2), (3, 2, 1), (3, 2, -1)):
        with pytest.raises(UsageError):
            check_shape(r, s, d)
    check_shape(3, 2, 2)
    check_shape(3, 2, 1, min_degree=1)
    assert check_strips([[1, 2], (0, 4)], 2, ctx) == [(1, 2), (0, 4)]
    assert check_strips([], 2, ctx) == []
    for strips in ([(1,)], [(1, 2, 3)], [(1, 5)], [(1, -1)], [(1, True)], [(1, 2), (1, 2)]):
        with pytest.raises(UsageError):
            check_strips(strips, 2, ctx)
    f = MPoly.from_terms(2, [((2, 0), 1)], ctx)
    check_polys((f, f), 2, 2, 2)
    for polys, count, nvars, maxdeg in (((f,), 2, 2, 2), ((f, f), 2, 3, 2), ((f, f), 2, 2, 1)):
        with pytest.raises(UsageError):
            check_polys(polys, count, nvars, maxdeg)


def test_sample_system_allow_zero_toggle():
    ctx = prime_field(2)
    # with rejection, no polynomial is ever the zero polynomial
    rng = RngStream(77, 0)
    for trial in range(200):
        system = sample_system(ctx, 3, 2, 2, RngStream(77, trial), allow_zero=False)
        assert all(not f.is_zero() for f in system.polys)


def test_sample_system_equals_from_terms_on_its_slots():
    # sample_system skips from_terms; replaying its draws must give the
    # same canonical polynomials
    r, s, d = 3, 2, 2
    exps = monomials(r, d)
    for ctx in (prime_field(3), field_for_order(4)):
        for allow_zero in (True, False):
            for t in range(40):
                system = sample_system(ctx, r, s, d, RngStream(9, t), allow_zero=allow_zero)
                rng = RngStream(9, t)
                for f in system.polys:
                    coeffs = [rng.next_below(ctx.q) for _ in exps]
                    while not (allow_zero or any(coeffs)):
                        coeffs = [rng.next_below(ctx.q) for _ in exps]
                    assert f == MPoly.from_terms(r, zip(exps, coeffs), ctx)


def test_coefficient_uniformity_five_sigma():
    # reconstruct full coefficient vectors (zeros included) and check each
    # field value's frequency against the binomial five-sigma band
    q, r, s, d = 7, 3, 2, 2
    ctx = prime_field(q)
    slots = len(monomials(r, d))
    n_systems = 5000
    draws = n_systems * s * slots
    counts = {v: 0 for v in range(q)}
    for t in range(n_systems):
        system = sample_system(ctx, r, s, d, RngStream(2718, t))
        for f in system.polys:
            present = dict(f.terms)
            for e in monomials(r, d):
                counts[present.get(e, 0)] += 1
    mean = draws / q
    sigma = math.sqrt(draws * (1 / q) * (1 - 1 / q))
    for v, c in counts.items():
        assert abs(c - mean) <= 5 * sigma, (v, c, mean)


def test_sample_strips_distinct_and_exhaustive_tiny():
    ctx = prime_field(2)
    strips = sample_strips(ctx, 1, 2, RngStream(5, 0))
    assert sorted(strips) == [(0,), (1,)]
    with pytest.raises(DomainError):
        sample_strips(ctx, 1, 3, RngStream(5, 0))


def scalar_sample_strips(q, m, h, rng):
    """The one-draw-at-a-time loop that sample_strips must reproduce."""
    seen, out = set(), []
    while len(out) < h:
        cand = tuple(rng.next_below(q) for _ in range(m))
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


@pytest.mark.parametrize("q,m,h", [(2, 2, 3), (3, 1, 3), (2, 2, 4), (31, 3, 4)])
def test_sample_strips_equals_scalar_reference(q, m, h):
    # at q^m <= 4 most streams collide, so the redraws after a collision run
    ctx = prime_field(q)
    for t in range(1000):
        rng, ref = RngStream(31337, t), RngStream(31337, t)
        assert sample_strips(ctx, m, h, rng) == scalar_sample_strips(q, m, h, ref)
        assert rng.state == ref.state


def test_sample_strips_prefix_consistency():
    ctx = prime_field(31)
    for trial in range(50):
        full = sample_strips(ctx, 3, 4, RngStream(99, trial))
        for k in (1, 2, 3):
            prefix = sample_strips(ctx, 3, k, RngStream(99, trial))
            assert prefix == full[:k]


def test_sample_strips_all_distinct_many_trials():
    ctx = prime_field(3)
    for trial in range(10_000):
        strips = sample_strips(ctx, 2, 3, RngStream(123, trial))
        assert len(set(strips)) == 3


def test_m_matrix_examples():
    c2 = prime_field(2)
    m = m_matrix([(0,), (1,)])
    assert m == [[1, 0], [1, 1]]
    assert matrix_rank(m, c2) == 2
    single = m_matrix([(0,)])
    assert single == [[1]]
    dup = m_matrix([(0, 5), (0, 9)])
    assert matrix_rank(dup, prime_field(11)) == 1
    with pytest.raises(DomainError):
        m_matrix([(0,), (1,), (0,)])  # strips too short for h = 3


def test_vandermonde_examples():
    c2 = prime_field(2)
    single = vandermonde_a([(0, 0, 0)], 1, c2)
    assert matrix_rank(single, c2) == 1
    m = vandermonde_a([(0, 0, 0), (1, 0, 0)], 1, c2)
    assert (len(m), len(m[0])) == (2, 4)
    assert matrix_rank(m, c2) == 2
    with pytest.raises(DomainError):
        vandermonde_a([(0, 0), (0, 0)], 2, c2)
    with pytest.raises(UsageError):
        vandermonde_a([(0, 0), (1, 0), (0, 1)], 1, c2)  # s > d + 1


def test_vandermonde_rank_property_random():
    rng = RngStream(404, 0)
    for q in (2, 3, 5, 7):
        ctx = field_for_order(q)
        for _ in range(250):
            r = 2 + rng.next_below(2)
            d = 2 + rng.next_below(2)
            s = 1 + rng.next_below(min(d + 1, q ** r, 4))
            points = set()
            while len(points) < s:
                points.add(tuple(rng.next_below(q) for _ in range(r)))
            m = vandermonde_a(sorted(points), d, ctx)
            assert matrix_rank(m, ctx) == s, (q, r, d, sorted(points))


def _random_condition_instance(ctx, rng, r, s, d, h):
    q = ctx.q
    strips = set()
    while len(strips) < h:
        strips.add(tuple(rng.next_below(q) for _ in range(r - s)))
    strips = sorted(strips)
    sizes = sorted((1 + rng.next_below(d) for _ in range(h)), reverse=True)
    point_sets = []
    for j in sizes:
        pts = set()
        while len(pts) < j:
            pts.add(tuple(rng.next_below(q) for _ in range(s)))
        point_sets.append(sorted(pts))
    return strips, point_sets, sizes


def test_condition_matrix_h1_reduces_to_vandermonde():
    ctx = prime_field(3)
    strip = (1,)
    pts = [(0, 2), (1, 1)]
    cm = condition_matrix([strip], [pts], 2, 3, ctx)
    vm = vandermonde_a([strip + p for p in pts], 2, ctx)
    assert cm == vm


def test_condition_matrix_rank_property_random():
    rng = RngStream(808, 0)
    checked = 0
    while checked < 250:
        q = (2, 3, 5, 7)[rng.next_below(4)]
        ctx = field_for_order(q)
        r, s, d = 4, 2, 3
        h = 1 + rng.next_below(min(3, q ** (r - s)))
        strips, point_sets, sizes = _random_condition_instance(ctx, rng, r, s, d, h)
        if matrix_rank(m_matrix(strips), ctx) != h:
            continue
        cm = condition_matrix(strips, point_sets, d, r, ctx)
        assert matrix_rank(cm, ctx) == sum(sizes), (q, strips, point_sets)
        checked += 1


def test_condition_matrix_duplicate_strip_can_drop_rank():
    ctx = prime_field(2)
    strips = [(0, 0), (0, 0)]  # repeated strip: singular M, duplicate row blocks
    assert matrix_rank(m_matrix(strips), ctx) == 1
    pts = [(0, 0)]
    cm = condition_matrix(strips, [pts, pts], 2, 4, ctx)
    assert matrix_rank(cm, ctx) < 2


def test_condition_matrix_validation():
    ctx = prime_field(3)
    with pytest.raises(UsageError):
        condition_matrix([(0,)], [[(0, 0), (1, 1), (2, 2)]], 2, 3, ctx)  # j1 > d
    with pytest.raises(UsageError):
        condition_matrix([(0,), (1,)], [[(0, 0)], [(0, 0), (1, 1)]], 2, 3, ctx)  # ascending sizes


def test_solution_space_size_exhaustive():
    # vanishing on j points of a strip cuts the coefficient space by q^j,
    # checked by enumerating every polynomial at q=2, r=3, s=2, d=2
    ctx = prime_field(2)
    r, s, d = 3, 2, 2
    exps = monomials(r, d)
    for strips, point_sets in (
        ([(0,)], [[(0, 0), (1, 1)]]),
        ([(0,), (1,)], [[(0, 1), (1, 0)], [(1, 1)]]),
    ):
        assert matrix_rank(m_matrix(strips), ctx) == len(strips)
        total_j = sum(len(ps) for ps in point_sets)
        count = 0
        for idx in range(2 ** len(exps)):
            coeffs = [(idx >> i) & 1 for i in range(len(exps))]
            ok = True
            for a, pts in zip(strips, point_sets):
                for x in pts:
                    full = a + x
                    val = 0
                    for c, e in zip(coeffs, exps):
                        if c:
                            term = 1
                            for var, exp in enumerate(e):
                                if exp and full[var] == 0:
                                    term = 0
                                    break
                            val ^= term
                    if val != 0:
                        ok = False
                        break
                if not ok:
                    break
            count += ok
        assert count == 2 ** (len(exps) - total_j), (strips, point_sets)


def test_invertible_tuple_count_matches_enumeration():
    for q in (2, 3):
        ctx = prime_field(q)
        for m in (1, 2):
            r, s = m + 2, 2
            for h in (1, 2, 3):
                if h - 1 > m:
                    continue
                space = list(itertools.product(range(q), repeat=m))
                count = 0
                for tup in itertools.product(space, repeat=h):
                    mat = m_matrix(list(tup))
                    if matrix_rank(mat, ctx) == h:
                        count += 1
                assert count == invertible_tuple_count(q, h, r, s), (q, m, h)


def test_invertible_tuple_count_examples():
    assert invertible_tuple_count(2, 2, 3, 2) == 2
    assert invertible_tuple_count(3, 2, 3, 2) == 6
    assert invertible_tuple_count(5, 1, 4, 2) == 25  # h = 1: every strip counts
    with pytest.raises(DomainError):
        invertible_tuple_count(3, 4, 4, 2)


def test_system_spec_invariants():
    ctx = prime_field(3)
    rng = RngStream(1, 1)
    system = sample_system(ctx, 4, 2, 2, rng)
    assert system.hstar == 3
    with pytest.raises(UsageError):
        SystemSpec(ctx, 4, 2, 2, system.polys[:1])


def test_slot_cap_refuses_before_enumerating():
    for r in range(0, 40):
        for d in range(0, 40):
            n = math.comb(r + d, r)
            if n <= SLOT_LIMIT:
                assert check_slots(r, d) == n
            else:
                with pytest.raises(CapacityError):
                    check_slots(r, d)
    for r, d in ((10**9, 1), (1, 10**9), (10**9, 10**9)):
        with pytest.raises(CapacityError):
            check_slots(r, d)
    with pytest.raises(UsageError):
        check_slots(-1, 2)
    ctx = prime_field(31)
    with pytest.raises(CapacityError):
        sample_system(ctx, 12, 2, 12, RngStream(1, 0))
    with pytest.raises(CapacityError):
        SystemSpec(ctx, 12, 2, 12, ())
    with pytest.raises(CapacityError):
        monomials(12, 12)


def test_system_polys_share_one_slot_block():
    # sampled systems keep their draws as one block; others are put in one
    for ctx in (prime_field(31), prime_field(2**31 - 1), field_for_order(4)):
        system = sample_system(ctx, 4, 2, 3, RngStream(5, 0))
        slots = slot_array(system.polys, 3)
        assert slots.dtype == np.int64 and slots.shape == (2, check_slots(4, 3))
        assert not system.polys[0]._slots[0].coeffs.flags.writeable
        terms = tuple(MPoly.from_terms(4, f.terms, ctx) for f in system.polys)
        derived = SystemSpec(ctx, 4, 2, 3, terms)
        assert derived == system and (slot_array(derived.polys, 3) == slots).all()
        assert len({f._slots[0] for f in derived.polys}) == len({f._slots[0] for f in system.polys}) == 1
        strip = (1, 2)
        assert [f.specialize(strip, ctx) for f in derived.polys] == [f.specialize(strip, ctx) for f in terms]


# raises that no other test reaches: (call on GF(5), error type, message fragment);
# each condition_matrix case is one strip of length 1 at d = 2, r = 3
REFUSALS = {
    "m_matrix_without_strips": (lambda c: m_matrix([]), UsageError, "at least one strip"),
    "vandermonde_without_points": (lambda c: vandermonde_a([], 2, c), UsageError, "at least one point"),
    "vandermonde_two_dimensions": (lambda c: vandermonde_a([(0,), (0, 1)], 2, c), UsageError, "share a dimension"),
    "condition_set_count": (lambda c: condition_matrix([(0,)], [], 2, 3, c), UsageError, "one point set per strip"),
    "condition_repeated_point": (
        lambda c: condition_matrix([(0,)], [[(1, 1), (1, 1)]], 2, 3, c), UsageError, "must be distinct"),
    "condition_two_dimensions": (
        lambda c: condition_matrix([(0,)], [[(1, 1), (2,)]], 2, 3, c), UsageError, "share a dimension"),
    "condition_length_not_r": (lambda c: condition_matrix([(0,)], [[(1, 1)]], 2, 4, c), UsageError, "must equal r"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_raise_their_error(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error, match=fragment):
        call(prime_field(5))
