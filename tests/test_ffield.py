import math
import pickle

import numpy as np
import pytest

from svsearch.errors import CapacityError, DomainError, UsageError
from svsearch.ffield import (
    FieldCtx,
    extension_field,
    factor,
    field_for_order,
    find_irreducible,
    is_prime,
    matrix_rank,
    prime_field,
    prime_power,
)
from svsearch.mpoly import MPoly, lift_with_embedding, resultant_y
from svsearch.sampler import RngStream


def test_prime_validation():
    prime_field(2)
    prime_field(2147483647)
    with pytest.raises(UsageError):
        prime_field(4)
    with pytest.raises(UsageError):
        prime_field(1)
    with pytest.raises(CapacityError):
        FieldCtx(2147483659)  # prime but above the 2^31 cap


def test_field_for_order():
    assert field_for_order(7).q == 7
    assert field_for_order(8).q == 8
    assert field_for_order(9).q == 9
    with pytest.raises(UsageError):
        field_for_order(12)


def test_basic_arithmetic_examples():
    c5 = prime_field(5)
    assert c5.mul(3, 4) == 2
    g4 = extension_field(2, 2)
    assert g4.modulus == (1, 1, 1)
    x = g4.from_coeffs((0, 1))
    assert g4.add(x, x) == 0  # characteristic 2
    assert g4.coeffs(g4.mul(x, x)) == (1, 1)  # X^2 = X + 1


def test_inverse_examples():
    c5 = prime_field(5)
    assert c5.inv(2) == 3
    assert c5.inv(1) == 1
    g4 = extension_field(2, 2)
    x = g4.from_coeffs((0, 1))
    assert g4.coeffs(g4.inv(x)) == (1, 1)
    with pytest.raises(DomainError):
        c5.inv(0)


def test_pow_examples():
    c5 = prime_field(5)
    assert c5.pow(2, 4) == 1  # order divides q - 1
    assert c5.pow(0, 0) == 1
    assert c5.pow(3, 0) == 1
    assert prime_field(7).pow(3, 5) == 5
    g4 = extension_field(2, 2)
    assert g4.pow(0, 0) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64])  # every prime power <= 64
def test_inverse_exhaustive_small_fields(q):
    ctx = field_for_order(q)
    for a in range(1, q):
        assert ctx.mul(ctx.inv(a), a) == 1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256])  # every extension order <= 256
def test_table_ops_match_digit_arithmetic(q):
    ctx = field_for_order(q)
    assert ctx.log_tables is not None
    for a in range(q):
        for b in range(q):
            assert ctx.add(a, b) == ctx._add_raw(a, b)
            assert ctx.sub(a, b) == ctx._sub_raw(a, b)
            assert ctx.mul(a, b) == ctx._mul_raw(a, b)
        assert ctx.neg(a) == ctx._sub_raw(0, a)
        if a:
            assert ctx._mul_raw(ctx.inv(a), a) == 1
        power = 1
        for e in range(q + 1):  # past q - 1, where the exponent wraps
            assert ctx.pow(a, e) == power
            power = ctx._mul_raw(power, a)


def test_log_tables_leave_equality_alone():
    built = field_for_order(9)
    built.mul(2, 3)
    fresh = field_for_order(9)
    assert "log_tables" in vars(built) and "log_tables" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    assert prime_field(7).log_tables is None


@pytest.mark.parametrize("p,k", [(2, 17), (3, 11)])  # above LOG_TABLE_LIMIT
def test_digit_arithmetic_above_table_limit(p, k):
    big = extension_field(p, k)
    assert big.log_tables is None
    a, b = 12345, 67890
    assert big.add(a, b) == big._add_raw(a, b)
    assert big.sub(a, b) == big._sub_raw(a, b)
    assert big.neg(b) == big._sub_raw(0, b)
    assert big.mul(a, b) == big._mul_raw(a, b)
    assert big.mul(big.inv(a), a) == 1
    assert big.pow(a, 3) == big._mul_raw(a, big._mul_raw(a, a))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 8), (3, 5), (5, 3), (7, 2), (2, 17), (3, 11)])
def test_digit_multiplication_matches_schoolbook(p, k):
    # _mul_raw and _pow_raw run on the packed GF(p) reducer; check them
    # against digit-by-digit convolution and long division by the modulus
    ctx = extension_field(p, k)
    mod = ctx.modulus

    def schoolbook(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ctx.coeffs(a)):
            for j, y in enumerate(ctx.coeffs(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * k - 2, k - 1, -1):  # mod is monic
            c = prod[top]
            for j in range(k + 1):
                prod[top - k + j] = (prod[top - k + j] - c * mod[j]) % p
        return ctx.from_coeffs(prod[:k])

    rng = RngStream(7, p * 100 + k)
    for _ in range(200):
        a, b = rng.next_below(ctx.q), rng.next_below(ctx.q)
        assert ctx._mul_raw(a, b) == schoolbook(a, b)
        assert ctx._pow_raw(a, 5) == schoolbook(a, schoolbook(a, schoolbook(a, schoolbook(a, a))))
    assert ctx._pow_raw(0, 0) == 1 and ctx._pow_raw(0, 3) == 0


def test_inverse_sampled_large_fields():
    rng = RngStream(2024, 0)
    for q in (101, 1009, 65537, 2 ** 13):
        ctx = field_for_order(q)
        for _ in range(200):
            a = 1 + rng.next_below(q - 1)
            assert ctx.mul(ctx.inv(a), a) == 1


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_frobenius_additivity(p, k):
    ctx = extension_field(p, k)
    rng = RngStream(99, p * 100 + k)
    for _ in range(60):
        a = rng.next_below(ctx.q)
        b = rng.next_below(ctx.q)
        lhs = ctx.pow(ctx.add(a, b), p)
        rhs = ctx.add(ctx.pow(a, p), ctx.pow(b, p))
        assert lhs == rhs


def test_fermat_in_extensions():
    ctx = extension_field(3, 2)
    for a in range(1, ctx.q):
        assert ctx.pow(a, ctx.q - 1) == 1


def test_field_ops_reject_foreign_values():
    c5 = prime_field(5)
    with pytest.raises(UsageError):
        c5.add(5, 0)
    with pytest.raises(UsageError):
        c5.mul(-1, 2)
    with pytest.raises(UsageError):
        c5.check(True)
    for foreign in (False, 5, -1, np.int64(2), 2.0):
        with pytest.raises(UsageError):
            c5.check(foreign)

    class Element(int):
        pass

    assert c5.check(Element(3)) == 3


@pytest.mark.parametrize("q", [31, 256])
def test_used_field_pickles_and_rebuilds_its_op_table(q):
    # run_experiment pickles its field into every worker job, and the op
    # table's entries are closures
    ctx = field_for_order(q)
    pairs = [(a, b) for a in range(0, q, 5) for b in range(1, q, 7)]

    def results(field):
        ops = [(field.add(a, b), field.sub(a, b), field.mul(a, b), field.neg(a), field.inv(b), field.pow(a, b)) for a, b in pairs]
        return ops, field.ops.axpy([a for a, _ in pairs], 3, [b for _, b in pairs])

    before = results(ctx)
    assert "ops" in vars(ctx)
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone == ctx and hash(clone) == hash(ctx)
    assert "ops" not in vars(clone) and "log_tables" not in vars(clone)
    assert results(clone) == before


def test_coeffs_roundtrip():
    ctx = extension_field(3, 3)
    for a in ctx.elements():
        assert ctx.from_coeffs(ctx.coeffs(a)) == a


def test_find_irreducible_examples():
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert find_irreducible(2, 3) == (1, 1, 0, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)
    with pytest.raises(UsageError):
        find_irreducible(2, 1)
    with pytest.raises(CapacityError):
        find_irreducible(2147483647, 2)


def test_modulus_validation():
    with pytest.raises(UsageError):
        extension_field(2, 2, (1, 0, 1))  # X^2 + 1 = (X+1)^2 over GF(2)
    with pytest.raises(UsageError):
        extension_field(2, 2, (1, 1, 2))  # not reduced
    with pytest.raises(UsageError, match="reduced"):
        extension_field(3, 2, (3, 1, 1))  # monic, but 3 is not reduced mod 3
    # divisible by X: the first gcd with X^p - X already catches it
    for p, mod in ((2, (0, 1, 1)), (3, (0, 2, 1)), (5, (0, 0, 1, 1))):
        with pytest.raises(UsageError, match="modulus is reducible"):
            extension_field(p, len(mod) - 1, mod)
    extension_field(2, 2, (1, 1, 1))


def test_modulus_given_as_list_keeps_field_identity():
    # lru_caches keyed on the field (lift_with_embedding) hash it
    ctx = extension_field(2, 2, [1, 1, 1])
    assert hash(ctx) == hash(extension_field(2, 2))
    assert ctx == extension_field(2, 2) == field_for_order(4)
    f = MPoly.from_terms(2, [((0, 1), 1), ((1, 0), 2)], ctx)  # Y + wX
    g = MPoly.from_terms(2, [((0, 2), 1), ((0, 0), 3)], ctx)  # Y^2 + w^2
    assert resultant_y(f, g, ctx) == resultant_y(f, g, field_for_order(4))
    assert lift_with_embedding(ctx, 2)[0].q == 16


def test_matrix_rank_examples():
    c2 = prime_field(2)
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matrix_rank(ident, c2) == 3
    ones = [[1] * 3 for _ in range(3)]
    assert matrix_rank(ones, c2) == 1
    tri = [[1, 0], [1, 1]]
    assert matrix_rank(tri, c2) == 2
    assert matrix_rank([], c2) == 0
    with pytest.raises(UsageError):
        matrix_rank([[1, 0], [1]], c2)  # rows of unequal length


def test_matrix_rank_does_not_mutate():
    c5 = prime_field(5)
    m = [[1, 2, 3], [4, 0, 1]]
    before = [list(row) for row in m]
    matrix_rank(m, c5)
    assert m == before


def test_matrix_rank_transpose_and_row_ops():
    rng = RngStream(5150, 0)
    for q in (2, 3, 5, 9):
        ctx = field_for_order(q)
        for _ in range(25):
            rows, cols = 2 + rng.next_below(3), 2 + rng.next_below(4)
            m = [[rng.next_below(q) for _ in range(cols)] for _ in range(rows)]
            r = matrix_rank(m, ctx)
            assert r == matrix_rank(list(zip(*m)), ctx)
            # swap two rows
            assert r == matrix_rank([m[1], m[0]] + m[2:], ctx)
            # scale a row by a nonzero element
            c = 1 + rng.next_below(q - 1)
            assert r == matrix_rank([[ctx.mul(c, v) for v in m[0]]] + m[1:], ctx)


def test_is_prime_edge_cases():
    assert is_prime(2) and is_prime(3) and is_prime(65537)
    assert not is_prime(0) and not is_prime(1) and not is_prime(9)


# the trial-division loops that factor replaced, kept as references


def _old_is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _old_prime_power(q):
    p = None
    n = q
    for f in range(2, q + 1):
        if f * f > n:
            p = n if p is None else p
            break
        if n % f == 0:
            p = f
            break
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def _old_mobius(n):
    out = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    if n > 1:
        out = -out
    return out


FACTOR_RANGE = 20000


def test_factor_matches_a_sieve_on_every_small_n():
    spf = list(range(FACTOR_RANGE + 1))  # smallest prime factor, by a plain sieve
    for f in range(2, FACTOR_RANGE + 1):
        if spf[f] == f:
            for m in range(f * f, FACTOR_RANGE + 1, f):
                spf[m] = min(spf[m], f)
    assert factor(1) == {}
    for n in range(2, FACTOR_RANGE + 1):
        powers = factor(n)
        assert list(powers) == sorted(powers) and all(spf[p] == p for p in powers), n
        assert math.prod(p ** k for p, k in powers.items()) == n, n
        expected, m = {}, n
        while m > 1:
            expected[spf[m]] = expected.get(spf[m], 0) + 1
            m //= spf[m]
        assert powers == expected, n
    with pytest.raises(UsageError):
        factor(0)


def test_factor_readers_keep_their_old_answers():
    from svsearch.zdsolve import _mobius

    for n in range(-2, FACTOR_RANGE + 1):
        assert is_prime(n) == _old_is_prime(n), n
    for q in range(2, FACTOR_RANGE + 1):
        old = _old_prime_power(q)
        if old is None:
            with pytest.raises(UsageError):
                prime_power(q)
        else:
            assert prime_power(q) == old, q
    for n in range(1, FACTOR_RANGE + 1):
        assert _mobius(n) == _old_mobius(n), n


def test_factor_is_complete_to_2_40_and_capped_above():
    assert factor(2 ** 40 - 87) == {2 ** 40 - 87: 1}  # the largest prime below 2^40
    assert factor(2 ** 61) == {2: 61}
    assert factor(3 ** 5 * (2 ** 31 - 1)) == {3: 5, 2 ** 31 - 1: 1}
    for n in (2 ** 61 - 1, 10 ** 16 + 61, 6 * (2 ** 61 - 1)):  # cofactor a prime above 2^40
        with pytest.raises(CapacityError):
            factor(n)
    with pytest.raises(CapacityError):
        field_for_order(2 ** 61 - 1)
