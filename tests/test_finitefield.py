"""Finite field arithmetic, irreducible enumeration, series over F_q."""

import hashlib
import json
import random

import pytest

from massform.errors import OrderMismatchError, factor_prime_power
from massform.finitefield import (
    FqField,
    TruncatedSeriesFq,
    digits,
    enumerate_monic_irreducibles,
    fq_series,
    from_digits,
    log_dot,
)


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _irreducible_count(q: int, n: int) -> int:
    total = sum(_mobius(n // d) * q ** d for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


# -- field construction ---------------------------------------------------

def test_moduli_are_the_least_irreducibles():
    assert FqField.of_order(4).modulus == (1, 1, 1)       # t^2+t+1
    assert FqField.of_order(8).modulus == (1, 1, 0, 1)    # t^3+t+1
    assert FqField.of_order(9).modulus == (1, 0, 1)       # t^2+1
    assert FqField.of_order(5).modulus == (0, 1)          # prime field: t


# sha256 of the JSON list [[q, modulus, generator], ...] over the 40
# prime powers q <= 4096 that are not primes, ascending; taken when the
# modulus came from a trial-division search, before the sieve gave it
MODULI_DIGEST = "5a9db5411ab7f74e1d2c66fcec22e83f02b709cac7a8404c7b029d13f6eed9c1"


def test_moduli_and_generators_are_pinned_up_to_4096():
    rows = []
    for q in _fields_up_to(4096):
        f = FqField.of_order(q)
        if f.e > 1:
            rows.append([q, list(f.modulus), f.generator])
    assert len(rows) == 40
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == MODULI_DIGEST


def test_digits_round_trip():
    for base in (2, 3, 5, 16, 4096):
        for count in range(5):
            for code in range(min(base ** count, 700)):
                ds = digits(code, base, count)
                assert len(ds) == count and all(0 <= x < base for x in ds)
                assert from_digits(ds, base) == code
                # least significant first
                assert sum(x * base ** i for i, x in enumerate(ds)) == code
    assert digits(5, 2, 4) == [1, 0, 1, 0]
    assert from_digits((1, 2), 3) == 7
    assert from_digits([], 7) == 0


def test_of_order_rejects_non_prime_powers():
    for bad in [1, 6, 12, 100]:
        with pytest.raises(ValueError):
            FqField.of_order(bad)


def test_field_size_cap():
    with pytest.raises(ValueError):
        FqField(2, 13)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    f = FqField.of_order(q)
    codes = range(q)
    for a in codes:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # generator really generates
    seen = set()
    acc = 1
    for _ in range(q - 1):
        seen.add(acc)
        acc = f.mul(acc, f.generator)
    assert len(seen) == q - 1


def test_distributivity_small_fields():
    for q in [4, 9]:
        f = FqField.of_order(q)
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    lhs = f.mul(a, f.add(b, c))
                    rhs = f.add(f.mul(a, b), f.mul(a, c))
                    assert lhs == rhs


# -- addition against a digit-wise reference ---------------------------------
#
# The field adds through a Zech-logarithm table.  The reference here works
# on the base-p digits of the codes, the coefficients of the residue
# polynomials, which is what addition in F_p[t]/(modulus) means.

def _digits(code: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(code % p)
        code //= p
    return out


def _code(digits: list[int], p: int) -> int:
    code = 0
    for x in reversed(digits):
        code = code * p + x
    return code


def _digit_add(f: FqField, a: int, b: int) -> int:
    da, db = _digits(a, f.p, f.e), _digits(b, f.p, f.e)
    return _code([(x + y) % f.p for x, y in zip(da, db)], f.p)


def _digit_neg(f: FqField, a: int) -> int:
    return _code([(-x) % f.p for x in _digits(a, f.p, f.e)], f.p)


def _digit_sub(f: FqField, a: int, b: int) -> int:
    da, db = _digits(a, f.p, f.e), _digits(b, f.p, f.e)
    return _code([(x - y) % f.p for x, y in zip(da, db)], f.p)


def _poly_mul(f: FqField, a: int, b: int) -> int:
    """Product of residue polynomials reduced mod the field's modulus."""
    p, e = f.p, f.e
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(a, p, e)):
        for j, y in enumerate(_digits(b, p, e)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        if c:
            for j, m in enumerate(f.modulus):
                prod[k - e + j] = (prod[k - e + j] - c * m) % p
    return _code(prod[:e], p)


def _fields_up_to(bound: int) -> list[int]:
    out = []
    for q in range(2, bound + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


def test_add_neg_sub_match_digit_reference_every_pair_up_to_256():
    qs = _fields_up_to(256)
    assert len(qs) == 70 and qs[-1] == 256
    for q in qs:
        f = FqField.of_order(q)
        p, codes = f.p, range(q)
        digits = [_digits(a, p, f.e) for a in codes]
        weights = [p ** i for i in range(f.e)]
        neg = [_digit_neg(f, a) for a in codes]
        assert [f.neg(a) for a in codes] == neg, q
        for a in codes:
            da = digits[a]
            want = [
                sum((x + y) % p * w for x, y, w in zip(da, digits[b], weights))
                for b in codes
            ]
            assert [f.add(a, b) for b in codes] == want, (q, a)
            # a - b = a + (-b) digit by digit
            assert [f.sub(a, b) for b in codes] == [want[nb] for nb in neg], (q, a)


def test_add_neg_sub_match_digit_reference_at_4096():
    f = FqField.of_order(4096)
    rng = random.Random(4096)
    for _ in range(10 ** 4):
        a, b = rng.randrange(4096), rng.randrange(4096)
        assert f.add(a, b) == _digit_add(f, a, b), (a, b)
        assert f.sub(a, b) == _digit_sub(f, a, b), (a, b)
        assert f.neg(a) == _digit_neg(f, a), a


def test_poly_reference_mul_agrees_with_field_mul():
    # the series test below leans on _poly_mul; pin it to the field first
    for q in (4, 9, 16):
        f = FqField.of_order(q)
        for a in range(q):
            for b in range(q):
                assert _poly_mul(f, a, b) == f.mul(a, b)


# -- frobenius -------------------------------------------------------------

# The Frobenius x -> x**base_q is the power table of base_q, on codes.

def test_frobenius_frozen_examples():
    frob = FqField.of_order(4).power_table(2)
    assert frob[0] == 0
    assert frob[1] == 1
    assert frob[2] == 3        # t^2 = t + 1 mod t^2+t+1, t the code 2


@pytest.mark.parametrize("q,base_q", [(4, 2), (8, 2), (9, 3), (16, 4)])
def test_frobenius_is_a_field_automorphism(q, base_q):
    f = FqField.of_order(q)
    frob = f.power_table(base_q)
    assert sorted(frob) == list(range(q))
    for x in range(q):
        for y in range(q):
            assert frob[f.add(x, y)] == f.add(frob[x], frob[y])
            assert frob[f.mul(x, y)] == f.mul(frob[x], frob[y])


@pytest.mark.parametrize("q,base_q,ext_degree", [(16, 2, 4), (81, 3, 4), (64, 4, 3)])
def test_frobenius_order_equals_extension_degree(q, base_q, ext_degree):
    f = FqField.of_order(q)
    frob = f.power_table(base_q)
    for x in range(q):
        y = x
        for _ in range(ext_degree):
            y = frob[y]
        assert y == x
    # and no earlier power fixes everything
    fixed_by_one_step = sum(1 for x in range(q) if frob[x] == x)
    assert fixed_by_one_step == base_q


# -- irreducible enumeration -------------------------------------------------

def test_enumerate_irreducibles_frozen_examples():
    assert enumerate_monic_irreducibles(2, 1) == [(0, 1), (1, 1)]
    assert enumerate_monic_irreducibles(2, 2) == [(1, 1, 1)]
    assert enumerate_monic_irreducibles(3, 1) == [(0, 1), (1, 1), (2, 1)]


def test_enumerate_irreducibles_degree_two_over_f3():
    # brute force oracle: a monic quadratic over F_3 is irreducible iff
    # it has no root among the 3 field elements
    f3 = FqField.of_order(3)
    expected = []
    for c0 in range(3):
        for c1 in range(3):
            has_root = any(
                f3.add(f3.add(f3.mul(x, x), f3.mul(c1, x)), c0) == 0
                for x in range(3)
            )
            if not has_root:
                expected.append((c0, c1, 1))
    got = enumerate_monic_irreducibles(3, 2)
    assert sorted(got) == sorted(expected)
    assert len(got) == 3


def test_enumerate_irreducibles_mobius_counts():
    for q in [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27]:
        n = 1
        while q ** n <= 2 ** 14:
            got = enumerate_monic_irreducibles(q, n)
            assert len(got) == _irreducible_count(q, n), (q, n)
            n += 1


def test_enumerate_irreducibles_sorted_and_monic():
    polys = enumerate_monic_irreducibles(4, 3)
    keys = [tuple(reversed(p[:-1])) for p in polys]
    assert keys == sorted(keys)
    assert all(p[-1] == 1 for p in polys)


# -- truncated series --------------------------------------------------------

def test_series_shift_and_valuation():
    f3 = FqField.of_order(3)
    a = fq_series(f3, (1, 2), 4)
    assert a.valuation() == 0
    assert a.shift(2).coeffs == (0, 0, 1, 2)
    assert a.shift(2).valuation() == 2
    assert a.shift(5).coeffs == (0,) * 4
    assert a.shift(5).valuation() is None


def test_series_precision_mismatch_rejected():
    f2 = FqField.of_order(2)
    with pytest.raises(OrderMismatchError):
        fq_series(f2, (1,), 3) * fq_series(f2, (1,), 4)


def test_series_value_semantics():
    f4 = FqField.of_order(4)
    a = fq_series(f4, (1, 2, 3), 3)
    b = TruncatedSeriesFq(f4, 3, (1, 2, 3))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, fq_series(f4, (1, 2), 3)}) == 2
    assert a != fq_series(f4, (1, 2, 3), 4)
    # the field compares by identity: the same order built anew is
    # another field
    assert TruncatedSeriesFq(FqField(2, 2), 3, (1, 2, 3)) != a
    assert a.__eq__((1, 2, 3)) is NotImplemented
    assert a != (1, 2, 3) and a != 5
    with pytest.raises(ValueError):
        TruncatedSeriesFq(f4, 3, (1, 2))
    assert repr(a) == "TruncatedSeriesFq(field=FqField(q=4), precision=3, coeffs=(1, 2, 3))"


def test_series_mul_truncates_consistently():
    f4 = FqField.of_order(4)
    a = fq_series(f4, (1, 2, 3, 1, 2, 3), 6)
    b = fq_series(f4, (3, 1, 0, 2, 1, 1), 6)
    full = a * b
    low = fq_series(f4, a.coeffs[:4], 4) * fq_series(f4, b.coeffs[:4], 4)
    assert full.coeffs[:4] == low.coeffs


def _schoolbook(f: FqField, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = _digit_add(f, out[i + j], _poly_mul(f, a[i], b[j]))
    return tuple(out)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 81])
def test_series_mul_matches_schoolbook_convolution(q):
    f = FqField.of_order(q)
    rng = random.Random(q)
    for trial in range(60):
        n = 1 + trial % 8
        # every third operand is sparse, so zero coefficients and
        # cancelling partial sums both occur
        sparse = trial % 3 == 0
        a, b = (
            tuple(
                0 if sparse and rng.random() < 0.5 else rng.randrange(q)
                for _ in range(n)
            )
            for _ in range(2)
        )
        got = (fq_series(f, a, n) * fq_series(f, b, n)).coeffs
        assert got == _schoolbook(f, a, b), (a, b)
    # x * (-x) = -(x * x); in characteristic 2 the cross terms a_i a_j of
    # x * x come in equal pairs, so those partial sums cancel to 0
    x = fq_series(f, [rng.randrange(1, q) for _ in range(5)], 5)
    minus_x = fq_series(f, [f.neg(c) for c in x.coeffs], 5)
    assert (x * minus_x).coeffs == tuple(f.neg(c) for c in (x * x).coeffs)


# -- log_dot against a digit-wise reference ----------------------------------
#
# The matrix and division-algebra tests of localmodels multiply series with
# `TruncatedSeriesFq.__mul__`, which is `log_dot` itself.  This reference
# shares nothing with it: every product is a residue-polynomial product,
# every sum a digit-wise sum, and the shift pi**s moves the product along.

def _reference_dot(f: FqField, terms, precision: int) -> tuple[int, ...]:
    out = [0] * precision
    for x, y, s in terms:
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                k = i + j + s
                if k < precision:
                    out[k] = _digit_add(f, out[k], _poly_mul(f, a, b))
    return tuple(out)


def _log_terms(f: FqField, coeffs: tuple[int, ...]):
    return TruncatedSeriesFq(f, len(coeffs), coeffs).log_terms()


def _draw_coeffs(f: FqField, rng: random.Random, n: int) -> tuple[int, ...]:
    # a zero operand now and then, and about half the coefficients 0 in
    # another, so empty log lists and skipped positions both occur
    roll = rng.random()
    if roll < 0.1:
        return (0,) * n
    density = 0.5 if roll < 0.5 else 1.0
    return tuple(rng.randrange(1, f.q) if rng.random() < density else 0 for _ in range(n))


@pytest.mark.parametrize("q", [2, 4, 16, 4096, 3, 9, 81, 2187])
def test_log_dot_matches_digit_reference(q):
    f = FqField.of_order(q)
    rng = random.Random(q + 1)
    for trial in range(40):
        precision = 1 + trial % 7
        terms = [
            (_draw_coeffs(f, rng, precision), _draw_coeffs(f, rng, precision),
             rng.randrange(precision + 1))
            for _ in range(rng.randrange(1, 6))
        ]
        got = log_dot(
            f, [(_log_terms(f, x), _log_terms(f, y), s) for x, y, s in terms], precision
        )
        assert got == _reference_dot(f, terms, precision), (q, terms)
    for precision in (1, 4):
        assert log_dot(f, [], precision) == (0,) * precision


@pytest.mark.parametrize("q", [2, 4, 16, 4096, 3, 9, 81, 2187])
def test_log_dot_sums_that_cancel_to_zero(q):
    f = FqField.of_order(q)
    rng = random.Random(q + 2)
    for s in (0, 1, 3):
        x = tuple(rng.randrange(1, q) for _ in range(5))
        y = tuple(rng.randrange(1, q) for _ in range(5))
        minus_y = tuple(_digit_neg(f, c) for c in y)
        lx, ly, lmy = (_log_terms(f, c) for c in (x, y, minus_y))
        # pi^s x y + pi^s x (-y) = 0, then a third term survives alone
        assert log_dot(f, [(lx, ly, s), (lx, lmy, s)], 5) == (0,) * 5
        z = tuple(rng.randrange(1, q) for _ in range(5))
        third = [(lx, ly, s), (lx, lmy, s), (_log_terms(f, z), ly, 1)]
        assert log_dot(f, third, 5) == _reference_dot(f, [(z, y, 1)], 5)
