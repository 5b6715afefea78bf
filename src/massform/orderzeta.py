"""Zeta function of a maximal order in a definite division algebra.

Two independent realizations of the same object live here:

* a closed form in u = q**(-s): the base-field zeta with its infinity
  factor removed, its multiplicative shifts, and per-place correction
  polynomials at the ramified places.  Every factor is a binomial
  1 - (q^j u)^k or a shift P(q^i u) of the L-polynomial, so the product
  is kept as a map from irreducible factors (the reciprocal cyclotomic
  polynomials Phi*_m(q^j u), m | k, and the P-shifts) to exponents.
  The net map is written down by one formula in _exponents, and
  cancellation is adding exponents.  FunctionFieldData certifies P as a
  Weil polynomial, so no P-shift vanishes at u = q^-j and the pole
  checks at u = 1 and u = q^-r read cyclotomic exponents only.
  order_zeta_at_zero reads the value at u = 1 off the map in integers
  and never multiplies it out; order_zeta_closed_form multiplies it out
  to num/den with no gcd, refused first when its leading coefficient,
  known from the map, is too long to print;
* a truncated Dirichlet series built from an Euler product over the
  finite places, expanded in integers by Newton's identities on its
  log-derivative.  That is read off the product's own place counts:
  its u^k coefficient is a divisor sum over the unramified places times
  the geometric sum (q^{rk} - 1)/(q^k - 1), plus one geometric sum per
  ramified place (the log Z(u) = sum N_k u^k / k bookkeeping of Rosen,
  Number Theory in Function Fields, ch. 5).  The series is rebuilt
  place by place from an explicit composition sum (local_ideal_count)
  by place_by_place_series.

Their coefficientwise agreement, and the equality of the value at u = 1
with minus the factored mass, are the package's central cross-checks.
The infinity place contributes nothing to the Euler product; the closed
form instead carries a (1 - u^{deg_inf}) prefactor and correction
factors whose product deletes every infinity Euler factor exactly when
the data is definite.  No step here reuses the mass engine,
zeta_special_value or lambda_v.

The closed form keeps three memos.  The first two sit behind the
function a fault harness patches, so a patched function still replaces
the computation:
* _cyclotomic, the polynomial Phi*_m by m, inside the function itself;
* _shape_exponents, the net exponent map by the data's shape (the rank,
  deg_inf and each place's (degree, d_v)), read only through
  _exponents, which hands out a copy: a patched _exponents never
  reaches it, and no caller can change it.  _correction_keys is read
  when a shape is first met.
The third, the field's _closed_form_values, keeps each key's value at
u = 1 as a plain int.  P or Phi*_m is read only when a field first
meets a key, so a fault in _cyclotomic must be installed before
anything is computed on the field, as the fault harness does in a
fresh process.
Each factor is written once: a key (j, m) stands for P or Phi*_m at
q^j u, and the expansion prints that one polynomial where the value at
u = 1 evaluates it at q^j.  The mass side reads none of these memos,
and the closed form never reads the zeta_K(-i) memo the mass side keeps
on the field.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from operator import mul

from .algebra import PolyQ, RationalFunctionQ, TruncatedSeriesQ, coprime_ratfun
from .csa import RamificationData, is_definite
from .errors import (
    MAX_SERIES_ORDER,
    InternalConsistencyError,
    InvalidSeriesOrderError,
    NotDefiniteError,
    OutputTooLargeError,
)
from .funcfield import FunctionFieldData, _divisors, _mobius, places_of_degree


# ----------------------------------------------------------------------
# Closed form, as exponents of irreducible factors
# ----------------------------------------------------------------------

# An exponent map sends a key (j, m) to an integer exponent.  A key
# with m >= 1 stands for the reciprocal cyclotomic factor
#     Phi*_m(q^j u) = prod_{d | m} (1 - (q^j u)^d)^mu(m/d),
# whose roots are the primitive m-th roots of unity times q^-j, so these
# factors are irreducible over Q and distinct for distinct (j, m).  A key
# with m = 0 stands for the P-shift P(q^j u).
ExponentMap = dict[tuple[int, int], int]


@cache
def _cyclotomic(m: int) -> PolyQ:
    """Phi*_m(x) = prod_{d | m} (1 - x^d)^mu(m/d): a closed-form memo on m."""
    num, den = PolyQ.one(), PolyQ.one()
    for d in _divisors(m):
        mu = _mobius(m // d)
        if mu > 0:
            num = num * PolyQ.one_minus(1, d)
        elif mu < 0:
            den = den * PolyQ.one_minus(1, d)
    return num.exact_div(den)


def _at_one(field: FunctionFieldData, exponents: ExponentMap) -> Fraction:
    """Value of the product at u = 1, where _checked_exponents has ruled
    out a pole.

    Only Phi*_1(u) = 1 - u vanishes at u = 1, so 1 - u in the numerator
    makes the value 0.  The other factors take the nonzero integer
    values P(q^j), as a Weil P has no root of absolute value q^-j,
    Phi*_m(q^j) for j >= 1 and Phi*_m(1) for m > 1.  Each is the
    polynomial _expand prints for its key, evaluated at q^j and kept on
    the field by its key; P or Phi*_m is looked up and evaluated only
    when the field meets the key first.
    """
    num = den = 1
    values = field._closed_form_values
    for key, e in exponents.items():
        value = values.get(key)
        if value is None:
            j, m = key
            base = field.l_poly if m == 0 else _cyclotomic(m)
            value = values[key] = base.eval(field.q ** j)
        if e > 0:
            num *= value ** e
        else:
            den *= value ** -e
    return Fraction(num, den)


def _expand(field: FunctionFieldData, exponents: ExponentMap) -> RationalFunctionQ:
    """The normalized num/den of an exponent map: its factors multiplied
    out, with no gcd, as nothing cancels.  Each factor has constant term
    1, so num and den do and, by Gauss's lemma, are primitive.  The keys
    are distinct irreducibles, each in num or den by its exponent's sign;
    a P-shift P(q^j u) has roots of absolute value q^(-j-1/2), as
    FunctionFieldData certifies P as a Weil polynomial, and Phi*_m(q^j u)
    roots of absolute value q^(-j).
    """
    num = den = PolyQ.one()
    for (j, m), e in exponents.items():
        base = field.l_poly if m == 0 else _cyclotomic(m)
        scale = field.q ** j
        factor = PolyQ(c * scale ** n for n, c in enumerate(base.coeffs))
        for _ in range(abs(e)):
            if e > 0:
                num = num * factor
            else:
                den = den * factor
    return coprime_ratfun(num, den)


def _int_digit_limit() -> int:
    """Python's int-to-string limit in digits; 0 means no limit, as in
    Pythons before 3.10.7, which have none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _refuse_unprintable_form(field: FunctionFieldData, exponents: ExponentMap) -> None:
    """Raise OutputTooLargeError, before anything is multiplied out, when
    the den-monic form num/lead(den), den/lead(den) is sure to print an
    integer past Python's int-to-string limit.

    num and den lead with +-q^N_num and q^N_den, the products of their
    factors' leading coefficients: q^(g + 2gj) for P(q^j u), as P leads
    with q^g, and +-q^(j phi(m)) for Phi*_m(q^j u), each to the power
    |e|.  Both constant terms are +-1, so the den-monic form prints
    q^N_den in the denominator of its constant terms and
    q^(N_num - N_den) in num's leading coefficient; q^n has more digits
    than the limit exactly when q^n >= 10^digits.
    """
    digits = _int_digit_limit()
    if not digits:
        return
    q, g = field.q, field.genus
    n_num = n_den = 0
    for (j, m), e in exponents.items():
        n = g + 2 * g * j if m == 0 else j * _cyclotomic(m).degree
        if e > 0:
            n_num += e * n
        else:
            n_den -= e * n
    n = max(n_den, n_num - n_den)
    limit = 10 ** digits
    # q^n >= 2^(n (bits - 1)): the exact power is taken only when it has
    # at most about twice the bits of the limit
    if n * (q.bit_length() - 1) >= limit.bit_length() or q ** n >= limit:
        raise OutputTooLargeError(
            f"the closed form prints q^{n}, which has more than {digits} digits, "
            "Python's int-to-string limit"
        )


def _correction_keys(degree: int, inv_den: int, r: int) -> tuple[tuple[int, int], ...]:
    """Keys of a place's correction, the factors 1 - (q^i u)^deg v for
    i < r with d_v not dividing i."""
    divisors = _divisors(degree)
    return tuple((i, m) for i in range(1, r) if i % inv_den for m in divisors)


def _exponents(data: RamificationData) -> ExponentMap:
    """The net exponent map of the closed form, a fresh dict: it depends
    only on the shape of the data, whose map _shape_exponents keeps."""
    shape = tuple((place.degree, place.inv_den) for place in data.places)
    return dict(_shape_exponents(data.rank, data.field.deg_inf, shape))


@cache
def _shape_exponents(
    r: int, deg_inf: int, places: tuple[tuple[int, int], ...]
) -> ExponentMap:
    """The net exponent map for rank r, the infinity degree and the
    (degree, d_v) of each ramified place: a closed-form memo on that
    shape, read only through _exponents, which copies it.

    zeta_A = (1 - u^deg_inf) P(u) / ((1 - u)(1 - qu)), where
    1 - u^deg_inf is the product of the Phi*_m(u) over m | deg_inf and
    its m = 1 factor cancels 1 - u, times the shifts
    P(q^j u) / ((1 - q^j u)(1 - q^(j+1) u)) for 0 < j < r, is
        prod_{j < r} P(q^j u) * prod_{m | deg_inf, m > 1} Phi*_m(u)
        * prod_{0 < j < r} (1 - q^j u)^-2 * (1 - q^r u)^-1,
    and each place adds one to the exponent of each of its correction
    keys.
    """
    net = {(j, 0): 1 for j in range(r)}
    for m in _divisors(deg_inf)[1:]:
        net[0, m] = 1
    for j in range(1, r):
        net[j, 1] = -2
    net[r, 1] = -1
    for degree, inv_den in places:
        for key in _correction_keys(degree, inv_den, r):
            net[key] = net.get(key, 0) + 1
    return {key: e for key, e in net.items() if e}


def _checked_exponents(data: RamificationData) -> ExponentMap:
    """The net exponent map of definite data, its poles checked: no
    1 - u in the denominator, and 1 - q^r u in it."""
    if not is_definite(data):
        raise NotDefiniteError("order zeta closed form needs definite data")
    exponents = _exponents(data)
    if exponents.get((0, 1), 0) < 0:
        raise InternalConsistencyError("closed form has a pole at u = 1")
    # 1 - q^r u is the one factor that vanishes at u = q^-r
    if exponents.get((data.rank, 1), 0) >= 0:
        raise InternalConsistencyError(
            "closed form lacks the expected pole at u = q^-r"
        )
    return exponents


def order_zeta_closed_form(data: RamificationData) -> RationalFunctionQ:
    """Closed form: (1-u^{deg_inf}) * P(u)/((1-u)(1-qu))
    * prod_{i=1..r-1} P(q^i u)/((1-q^i u)(1-q^{i+1} u))
    * prod_{places} prod_{i in 1..r-1, d_v not | i} (1 - q^{i deg v} u^{deg v}),
    its exponent map multiplied out, refused first when it is too long
    to print.
    """
    exponents = _checked_exponents(data)
    _refuse_unprintable_form(data.field, exponents)
    return _expand(data.field, exponents)


def order_zeta_at_zero(data: RamificationData) -> Fraction:
    """Value of the closed form at u = 1 (s = 0), read off its exponent
    map without multiplying it out; equals minus the mass."""
    return _at_one(data.field, _checked_exponents(data))


# ----------------------------------------------------------------------
# Local coefficient counts and the Dirichlet series
# ----------------------------------------------------------------------

def local_ideal_count(q_v: int, m_v: int, d_v: int, ell: int) -> int:
    """Number of local right ideals of colength ell: the sum over all
    compositions ell = l_1 + ... + l_{m_v} of prod_i q_v^{d_v l_i (i-1)}.

    Enumerated literally so it stays independent of the Euler-factor
    expansion it is checked against.
    """
    if m_v < 1 or d_v < 1:
        raise ValueError("m_v and d_v must be >= 1")
    if ell < 0:
        raise ValueError("ell must be >= 0")

    total = 0
    # composition = remaining amount distributed over slots i..m_v
    def walk(slot: int, remaining: int, acc: int) -> None:
        nonlocal total
        if slot == m_v:
            total += acc * q_v ** (d_v * remaining * (m_v - 1))
            return
        for here in range(remaining + 1):
            walk(slot + 1, remaining - here, acc * q_v ** (d_v * here * (slot - 1)))

    walk(1, ell, 1)
    return total


def _geometric(x: int, n: int) -> int:
    """1 + x + ... + x^(n-1) for an integer x >= 2."""
    return (x ** n - 1) // (x - 1)


def _refuse_unprintable(log_derivative: list[int]) -> None:
    """Raise OutputTooLargeError when some series coefficient s_k is sure
    to pass Python's int-to-string limit.

    Every c_k and s_k is non-negative, so k s_k = sum_j c_j s_{k-j}
    gives s_k >= c_k // k; the bound costs O(N) before the O(N^2)
    Newton step.  A limit of 0 means no limit.
    """
    digits = _int_digit_limit()
    # every c_k below 2^(3 digits) < 10^digits needs no closer look
    if not digits or max(log_derivative) < 1 << 3 * digits:
        return
    limit = 10 ** digits
    for k in range(1, len(log_derivative)):
        if log_derivative[k] // k >= limit:
            raise OutputTooLargeError(
                f"the u^{k} series coefficient has more than {digits} digits, "
                "Python's int-to-string limit"
            )


def order_zeta_series(data: RamificationData, order: int) -> TruncatedSeriesQ:
    """Dirichlet series of the order zeta to the given order in u.

    Euler product over finite places only, in integers.  A place of
    degree n contributes prod_{i < r} (1 - q^{n i} u^n)^{-1} when it is
    unramified, and prod_{i < r/d_v} (1 - q^{n i d_v} u^n)^{-1} when it
    is ramified with local index d_v.  The product's log-derivative
    u F'/F = sum_k c_k u^k therefore takes, for each n | k,
    n (q^{rk} - 1)/(q^k - 1) from every unramified place of degree n and
    n (q^{rk} - 1)/(q^{d_v k} - 1) from every ramified one.  So
    c_k = w_k (q^{rk} - 1)/(q^k - 1) plus the ramified terms, where
    w_k = sum_{n | k} n M_n and M_n is the number of unramified finite
    places of degree n, read off the place counts (infinity and the
    ramified places subtracted, the subtraction checked to stay
    non-negative).  Newton's identities k s_k = sum_{j=1..k} c_j s_{k-j}
    give the coefficients s_k, each by an exact division.  Infinity is
    skipped; the closed form compensates, and the tests compare the two
    expansions coefficient by coefficient.
    """
    if not is_definite(data):
        raise NotDefiniteError("order zeta series needs definite data")
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise InvalidSeriesOrderError(
            f"series order {order} is outside 0..{MAX_SERIES_ORDER}"
        )
    field = data.field
    q, r = field.q, data.rank
    ramified: dict[int, list[int]] = {}
    for place in data.finite_places():
        ramified.setdefault(place.degree, []).append(place.inv_den)
    # w_k = sum_{n | k} n M_n over the unramified place counts M_n
    weights = [0] * (order + 1)
    for degree, available in enumerate(field._place_counts(order), start=1):
        ramified_here = len(ramified.get(degree, ()))
        multiplicity = available - ramified_here - (degree == field.deg_inf)
        if multiplicity < 0:
            # the constructor's availability check, made again from the
            # place counts the product runs over
            raise InternalConsistencyError(
                f"{ramified_here} finite ramified places of degree {degree} "
                f"but the field has {multiplicity + ramified_here} finite places "
                "of that degree"
            )
        if multiplicity:
            for k in range(degree, order + 1, degree):
                weights[k] += degree * multiplicity
    log_derivative = [0] * (order + 1)
    q_k = 1
    for k in range(1, order + 1):
        q_k *= q
        log_derivative[k] = weights[k] * _geometric(q_k, r)
    for degree, inv_dens in ramified.items():
        for d_v in inv_dens:
            for k in range(degree, order + 1, degree):
                log_derivative[k] += degree * _geometric(q ** (d_v * k), r // d_v)
    _refuse_unprintable(log_derivative)
    coeffs = [1]
    for k in range(1, order + 1):
        total = sum(map(mul, log_derivative[1:k + 1], reversed(coeffs)))
        value, rem = divmod(total, k)
        if rem:
            raise InternalConsistencyError(f"u^{k} series coefficient is not an integer")
        coeffs.append(value)
    return TruncatedSeriesQ(order, tuple(coeffs))


def place_by_place_series(data: RamificationData, order: int) -> tuple[int, ...]:
    """The Euler-product series rebuilt place by place.

    Every finite place of every degree up to the order contributes its
    own coefficient stream built from local_ideal_count (one stream per
    place, never aggregated), and the streams are convolved in place
    order.  Nothing is shared with order_zeta_series, so agreement of
    the two is a real multiplicativity statement.  The cost grows with
    the number of places, exponentially in the order.
    """
    coeffs = [1] + [0] * order

    def convolve_place(degree: int, m_v: int, d_v: int) -> None:
        nonlocal coeffs
        stream = [
            local_ideal_count(data.field.q ** degree, m_v, d_v, ell)
            for ell in range(order // degree + 1)
        ]
        nxt = [0] * (order + 1)
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            for ell, s in enumerate(stream):
                pos = k + ell * degree
                if pos > order:
                    break
                nxt[pos] += c * s
        coeffs = nxt

    r = data.rank
    for degree in range(1, order + 1):
        available = places_of_degree(data.field, degree)
        ramified_here = [p for p in data.finite_places() if p.degree == degree]
        count = available - len(ramified_here)
        if degree == data.field.deg_inf:
            count -= 1
        for _ in range(count):
            convolve_place(degree, r, 1)
        for place in ramified_here:
            convolve_place(degree, r // place.inv_den, place.inv_den)

    return tuple(coeffs)
