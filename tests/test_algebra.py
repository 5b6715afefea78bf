"""Exact-arithmetic substrate: polynomials, rational functions, series."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massform.algebra import (
    PolyQ,
    RationalFunctionQ,
    TruncatedSeriesQ,
    coprime_ratfun,
    factor_prime_power,
    poly_gcd,
    prime_factors,
    ratfun,
    rational_to_str,
    series_from_ratfun,
    series_mul,
    series_one,
    series_pow,
)
from massform.errors import (
    InternalConsistencyError,
    NotExpandableError,
    OrderMismatchError,
)
from massform.funcfield import _mobius


def series(coeffs):
    return TruncatedSeriesQ(len(coeffs) - 1, tuple(coeffs))


# -- the factorization ----------------------------------------------------

def _least_prime_factors(bound: int) -> list[int]:
    """A sieve of Eratosthenes: the least prime factor of each n < bound."""
    least = list(range(bound))
    for p in range(2, bound):
        if least[p] == p:
            for m in range(p * p, bound, p):
                least[m] = min(least[m], p)
    return least


def test_prime_factors_match_a_sieve_below_10_to_the_4():
    least = _least_prime_factors(10 ** 4)
    for n in range(1, 10 ** 4):
        want: dict[int, int] = {}
        m = n
        while m > 1:
            want[least[m]] = want.get(least[m], 0) + 1
            m //= least[m]
        got = prime_factors(n)
        assert got == want, n
        assert list(got) == sorted(got), n
        if len(want) == 1:
            assert factor_prime_power(n) == next(iter(want.items())), n
        else:
            with pytest.raises(ValueError):
                factor_prime_power(n)
        squarefree = all(e == 1 for e in want.values())
        assert _mobius(n) == ((-1) ** len(want) if squarefree else 0), n


def test_prime_factors_frozen_examples():
    assert prime_factors(0) == {}
    assert prime_factors(1) == {}
    assert prime_factors(4294967291) == {4294967291: 1}     # the largest prime below 2^32
    assert prime_factors(2 * 2147483647) == {2: 1, 2147483647: 1}
    assert prime_factors(3 ** 20) == {3: 20}
    assert factor_prime_power(3 ** 20) == (3, 20)
    assert factor_prime_power(4294967291) == (4294967291, 1)
    for bad in (0, 1, 2 * 2147483647):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


# -- rationals ----------------------------------------------------------

def test_rational_to_str_frozen_examples():
    assert rational_to_str(Fraction(1, 3)) == "1/3"
    assert rational_to_str(Fraction(-44, 3)) == "-44/3"
    assert rational_to_str(Fraction(7)) == "7"
    assert rational_to_str(5) == "5"


# -- polynomials --------------------------------------------------------

def test_poly_normalization_drops_trailing_zeros():
    assert PolyQ((1, 2, 0, 0)).coeffs == (1, 2)
    assert PolyQ((0, 0)).is_zero()
    assert PolyQ.zero().degree == -1


def test_poly_rejects_fraction_and_float():
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 2.0, "1"):
        with pytest.raises(TypeError):
            PolyQ((1, bad))
    assert all(type(c) is int for c in PolyQ((True, 2)).coeffs)


def test_poly_arithmetic_basics():
    p = PolyQ((1, 1))       # 1 + u
    q = PolyQ((-1, 1))      # -1 + u
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p * PolyQ.zero()).is_zero()
    assert (p * p * p).coeffs == (1, 3, 3, 1)
    assert p.eval(2) == 3 and type(p.eval(2)) is int
    assert p.eval(Fraction(1, 2)) == Fraction(3, 2)


def test_poly_one_minus_builder():
    assert PolyQ.one_minus(4, 1).coeffs == (1, -4)
    assert PolyQ.one_minus(8, 2).coeffs == (1, 0, -8)
    assert PolyQ.one_minus(1, 0).is_zero()


def test_poly_exact_div():
    num = PolyQ((-1, 0, 1))             # u^2 - 1
    den = PolyQ((-1, 1))                # u - 1
    assert num.exact_div(den).coeffs == (1, 1)
    assert PolyQ.zero().exact_div(den).is_zero()
    # 1 + u^2 = (1 + u)(u - 1) + 2: a remainder is an error, not a result
    with pytest.raises(InternalConsistencyError):
        PolyQ((1, 0, 1)).exact_div(PolyQ((1, 1)))
    # 1 + u = 2 * (1 + u)/2 divides over Q but not over Z
    with pytest.raises(InternalConsistencyError):
        PolyQ((1, 1)).exact_div(PolyQ((2, 2)))
    with pytest.raises(InternalConsistencyError):
        PolyQ((1,)).exact_div(den)
    with pytest.raises(ZeroDivisionError):
        num.exact_div(PolyQ.zero())


def test_poly_gcd_frozen_examples():
    # gcd(u^2 - 1, u - 1) = u - 1, primitive with positive leading coefficient
    g = poly_gcd(PolyQ((-1, 0, 1)), PolyQ((1, -1)))
    assert g.coeffs == (-1, 1)
    # coprime inputs give 1
    assert poly_gcd(PolyQ((1, 1)), PolyQ((1, 0, 1))).coeffs == (1,)
    # gcd(0, 0) = 0 by convention
    assert poly_gcd(PolyQ.zero(), PolyQ.zero()).is_zero()
    assert poly_gcd(PolyQ.zero(), PolyQ((-2, -2))).coeffs == (1, 1)
    # the content of the inputs does not enter
    assert poly_gcd(PolyQ((6, 6)), PolyQ((4, 4))).coeffs == (1, 1)


def _content(p):
    return gcd(*p.coeffs)


small_ints = st.integers(min_value=-6, max_value=6)
poly_coeff_lists = st.lists(small_ints, min_size=0, max_size=5)


@settings(max_examples=60, deadline=None)
@given(poly_coeff_lists, poly_coeff_lists, poly_coeff_lists)
def test_poly_gcd_divides_and_scales(a_cs, b_cs, c_cs):
    a, b, c = PolyQ(a_cs), PolyQ(b_cs), PolyQ(c_cs)
    g = poly_gcd(a, b)
    if not g.is_zero():
        assert _content(g) == 1 and g.leading() > 0
        assert g * a.exact_div(g) == a
        assert g * b.exact_div(g) == b
    if not (a.is_zero() and b.is_zero()) and not c.is_zero():
        lifted = poly_gcd(a * c, b * c)
        primitive_c = PolyQ(x // (_content(c) * (1 if c.leading() > 0 else -1))
                            for x in c.coeffs)
        assert lifted == g * primitive_c


# -- rational functions --------------------------------------------------

def test_ratfun_cancels_and_normalizes():
    f = ratfun(PolyQ((-1, 0, 1)), PolyQ((-1, 1)))    # (u^2-1)/(u-1)
    assert f.num.coeffs == (1, 1)
    assert f.den.coeffs == (1,)
    g = ratfun(PolyQ((2, 2)), PolyQ((4,)))           # common content divided out
    assert g.num.coeffs == (1, 1)
    assert g.den.coeffs == (2,)
    h = ratfun(PolyQ((3,)), PolyQ((6, -9)))          # den's lead made positive
    assert h.num.coeffs == (-1,)
    assert h.den.coeffs == (-2, 3)


def test_ratfun_mul_cross_cancels():
    f = RationalFunctionQ(PolyQ((1, 1)), PolyQ((1, -2)))   # (1+u)/(1-2u)
    g = RationalFunctionQ(PolyQ((1, -2)), PolyQ((1, 1)))   # (1-2u)/(1+u)
    h = f * g
    assert h.num.coeffs == (1,)
    assert h.den.coeffs == (1,)


def test_coprime_ratfun_only_fixes_the_sign():
    f = coprime_ratfun(PolyQ((1, 1)), PolyQ((1, -2)))      # (1+u)/(1-2u)
    assert f.num.coeffs == (-1, -1)
    assert f.den.coeffs == (-1, 2)
    assert f == ratfun(PolyQ((1, 1)), PolyQ((1, -2)))
    g = coprime_ratfun(PolyQ((1, 2)), PolyQ((1, 0, 3)))    # already normalized
    assert (g.num.coeffs, g.den.coeffs) == ((1, 2), (1, 0, 3))


# -- truncated series ----------------------------------------------------

def test_series_from_ratfun_frozen_examples():
    geo = series_from_ratfun(ratfun(PolyQ.one(), PolyQ((1, -1))), 3)
    assert geo.coeffs == (1, 1, 1, 1)
    # 1/((1-u)(1-2u)) starts 1, 3, 7
    f = ratfun(PolyQ.one(), PolyQ((1, -1)) * PolyQ((1, -2)))
    assert series_from_ratfun(f, 2).coeffs == (1, 3, 7)
    # a polynomial expands to itself padded with zeros
    p = series_from_ratfun(ratfun(PolyQ((1, -1)), PolyQ.one()), 3)
    assert p.coeffs == (1, -1, 0, 0)


def test_series_from_ratfun_rejects_pole_at_origin():
    f = RationalFunctionQ(PolyQ.one(), PolyQ((0, 1)))
    with pytest.raises(NotExpandableError):
        series_from_ratfun(f, 4)
    # 1/(2 - u) = 1/2 + u/4 + ...: den(0) = 2 has no integral expansion
    with pytest.raises(NotExpandableError):
        series_from_ratfun(ratfun(PolyQ.one(), PolyQ((2, -1))), 4)
    # den(0) = -1 expands: 1/(-1 + u) = -(1 + u + u^2 + ...)
    assert series_from_ratfun(ratfun(PolyQ.one(), PolyQ((-1, 1))), 3).coeffs == (
        -1, -1, -1, -1,
    )


def test_series_mul_examples():
    a = series((1, 1, 1))
    b = series((1, -1, 0))
    assert series_mul(a, b).coeffs == (1, 0, 0)
    with pytest.raises(OrderMismatchError):
        series_mul(series((1, 0)), series((1, 0, 0)))


def test_series_pow_matches_repeated_mul():
    a = series((1, 2, 3, 4))
    cube = series_mul(series_mul(a, a), a)
    assert series_pow(a, 3).coeffs == cube.coeffs
    assert series_pow(a, 0).coeffs == series_one(3).coeffs


def _lagrange_coeffs(points):
    """Interpolating polynomial coefficients through (x, y) pairs."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] += c * (-xj)
                nxt[k + 1] += c
            basis = nxt
        w = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    return coeffs


@settings(max_examples=25, deadline=None)
@given(poly_coeff_lists, poly_coeff_lists)
def test_series_from_ratfun_interpolation_oracle(num_cs, den_cs):
    """Independent check: with S the degree-D truncation of num/den, the
    polynomial S*den - num has no terms of degree <= D.  Verified by
    sampling S*den - num at fresh points and interpolating, so no long
    division is reused from the implementation."""
    # den(0) = 1, so every cancelled denominator keeps den(0) = +-1
    num, den = PolyQ(num_cs), PolyQ([1, *den_cs])
    f = ratfun(num, den)
    assert f.den.coefficient(0) in (1, -1)
    order = 4
    s = series_from_ratfun(f, order)
    s_poly = PolyQ(s.coeffs)
    t_degree_bound = order + max(f.den.degree, 0)
    xs, pts = 0, []
    while len(pts) < t_degree_bound + 1:
        xs += 1
        x = Fraction(xs, 7)          # avoid small-integer roots of den
        if f.den.eval(x) == 0:
            continue
        t_val = (s_poly.eval(x) - Fraction(f.num.eval(x), f.den.eval(x))) * f.den.eval(x)
        pts.append((x, t_val))
    interp = _lagrange_coeffs(pts)
    assert all(c == 0 for c in interp[: order + 1])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_ints, min_size=4, max_size=4),
    st.lists(small_ints, min_size=4, max_size=4),
    st.lists(small_ints, min_size=4, max_size=4),
)
def test_series_mul_commutes_and_associates(a_cs, b_cs, c_cs):
    a, b, c = series(a_cs), series(b_cs), series(c_cs)
    assert series_mul(a, b).coeffs == series_mul(b, a).coeffs
    lhs = series_mul(series_mul(a, b), c)
    rhs = series_mul(a, series_mul(b, c))
    assert lhs.coeffs == rhs.coeffs


def test_series_validates_shape():
    with pytest.raises(ValueError):
        TruncatedSeriesQ(2, (1,))
