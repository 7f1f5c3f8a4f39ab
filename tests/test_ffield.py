import pytest

from svsearch.errors import CapacityError, DomainError, UsageError
from svsearch.ffield import (
    FieldCtx,
    FMatrix,
    extension_field,
    field_for_order,
    find_irreducible,
    is_prime,
    matrix_rank,
    prime_field,
)
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
    extension_field(2, 2, (1, 1, 1))


def test_matrix_rank_examples():
    c2 = prime_field(2)
    ident = FMatrix(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert matrix_rank(ident, c2) == 3
    ones = FMatrix(3, 3, [1] * 9)
    assert matrix_rank(ones, c2) == 1
    tri = FMatrix(2, 2, [1, 0, 1, 1])
    assert matrix_rank(tri, c2) == 2


def test_matrix_rank_does_not_mutate():
    c5 = prime_field(5)
    m = FMatrix(2, 3, [1, 2, 3, 4, 0, 1])
    before = list(m.entries)
    matrix_rank(m, c5)
    assert m.entries == before


def test_matrix_rank_transpose_and_row_ops():
    rng = RngStream(5150, 0)
    for q in (2, 3, 5, 9):
        ctx = field_for_order(q)
        for _ in range(25):
            rows, cols = 2 + rng.next_below(3), 2 + rng.next_below(4)
            entries = [rng.next_below(q) for _ in range(rows * cols)]
            m = FMatrix(rows, cols, entries)
            r = matrix_rank(m, ctx)
            assert r == matrix_rank(m.transpose(), ctx)
            # swap two rows
            swapped = list(entries)
            swapped[:cols], swapped[cols : 2 * cols] = entries[cols : 2 * cols], entries[:cols]
            assert r == matrix_rank(FMatrix(rows, cols, swapped), ctx)
            # scale a row by a nonzero element
            c = 1 + rng.next_below(q - 1)
            scaled = list(entries)
            scaled[:cols] = [ctx.mul(c, v) for v in entries[:cols]]
            assert r == matrix_rank(FMatrix(rows, cols, scaled), ctx)


def test_is_prime_edge_cases():
    assert is_prime(2) and is_prime(3) and is_prime(65537)
    assert not is_prime(0) and not is_prime(1) and not is_prime(9)
