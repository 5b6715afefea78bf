"""Zeta function of a maximal order in a definite division algebra.

Two independent realizations of the same object live here:

* a closed form in u = q**(-s): the Denert-Van Geel product of the
  shifts zeta_A(q^j u), j < r, times one correction polynomial per
  finite ramified place.  Every factor is a binomial 1 - (q^j u)^k or a
  shift P(q^i u) of the L-polynomial, so the product is kept as a map
  from irreducible factors (the reciprocal cyclotomic polynomials
  Phi*_m(q^j u), m | k, and the P-shifts) to exponents.  The net map is
  written down by one formula in _exponents, and cancellation is adding
  exponents.  FunctionFieldData certifies P as a Weil polynomial, so no
  P-shift vanishes at u = q^-j and the pole checks at u = 1 and
  u = q^-r read cyclotomic exponents only.  order_zeta_at_zero reads
  the value at u = 1 as the product of memoised parts, in integers,
  and never builds the map; order_zeta_closed_form multiplies the map
  out to num/den with no gcd, refused first when its leading
  coefficient, known from the map, is too long to print;
* a truncated Dirichlet series built from an Euler product over the
  finite places, expanded in integers by Newton's identities on its
  log-derivative.  That is read off the field's point counts: its u^k
  coefficient is N_k, less the degrees of the places left out of the
  product (infinity and the ramified places) that divide k, times the
  geometric sum (q^{rk} - 1)/(q^k - 1), plus one geometric sum per
  ramified place (the log Z(u) = sum N_k u^k / k bookkeeping of Rosen,
  Number Theory in Function Fields, ch. 5).  The series is rebuilt
  place by place from an explicit composition sum (local_ideal_count)
  by place_by_place_series, multiplied out by series_pow and series_mul.

Their coefficientwise agreement, and the equality of the value at u = 1
with minus the factored mass, are the package's central cross-checks.
Both leave out infinity's Euler factors.  The closed form never reads
the infinity place: zeta_A(u) = (1 - u^deg_inf) Z_K(u), and the product
of those 1 - (q^j u)^deg_inf over j < r is infinity's correction times
its Euler factors, whatever its local index.  No step here reuses the
mass engine, zeta_special_value or lambda_value.

The closed form keeps six memos.  The first four sit behind the
function a fault harness patches, so a patched function still replaces
the computation:
* _cyclotomic, the polynomial Phi*_m by m, inside the function itself;
* _shape_exponents, the net exponent map by the data's shape (the rank,
  deg_inf and each place's (degree, d_v, is_infinity)), read only
  through _exponents, which hands out a copy: a patched _exponents
  never reaches it, and no caller can change it.  Only
  order_zeta_closed_form reads it;
* two pure memos, _base_exponents, the map of prod_{j < r} zeta_A(q^j u)
  by (rank, deg_inf), an immutable tuple of pairs, and
  _correction_keys, a place's keys by (degree, d_v, rank).
The last two live on the field.  _closed_form_values keeps each key's
value at u = 1 as a plain int.  _closed_form_parts keeps the parts of
the value at u = 1: by r the (num, den) of prod_{j < r} zeta_A(q^j u),
and by (degree, d_v, r) a finite place's correction, an int.  A part is
filled, its poles checked, the first time a field meets it, from
_base_exponents or _correction_keys, and P or Phi*_m is read only when
a field first meets a key.  So a fault in _base_exponents,
_correction_keys or _cyclotomic must be installed before anything is
computed on the field, as the fault harness does in a fresh process;
a new shape's map reads the first two again.
Each factor is written once: _polynomial names a key's polynomial,
which the expansion prints at q^j u and the value at u = 1 evaluates at
q^j.  The mass side reads none of these memos, and the closed form
never reads the zeta_K(-i) memo the mass side keeps on the field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import attrgetter, mul

from .algebra import (
    PolyQ,
    RationalFunctionQ,
    TruncatedSeriesQ,
    coprime_ratfun,
    series_mul,
    series_one,
    series_pow,
)
from .csa import RamificationData, is_definite
from .errors import (
    MAX_PRINTED_DIGITS,
    InternalConsistencyError,
    NotDefiniteError,
    OutputTooLargeError,
    check_series_order,
)
from .funcfield import FunctionFieldData, _divisors, _mobius, finite_places_of_degree


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


def _polynomial(field: FunctionFieldData, m: int) -> tuple[PolyQ, int]:
    """A key (j, m)'s polynomial, taken at q^j u, and the power of q it
    leads with: P and g for m = 0, else Phi*_m, leading with +-1, and 0."""
    if m == 0:
        return field.l_poly, field.genus
    return _cyclotomic(m), 0


def _at_one(field: FunctionFieldData, exponents: ExponentMap) -> Fraction:
    """Value of the product at u = 1, where no exponent of 1 - u is
    negative: the one evaluator of factors at u = 1, which fills each of
    order_zeta_at_zero's parts once per field.

    Only Phi*_1(u) = 1 - u vanishes at u = 1, so 1 - u in the numerator
    makes the value 0.  The other factors take the nonzero integer
    values P(q^j), as a Weil P has no root of absolute value q^-j,
    Phi*_m(q^j) for j >= 1 and Phi*_m(1) for m > 1.  Each is its key's
    _polynomial at q^j, kept on the field by its key and computed only
    when the field meets the key first.  Most exponents are +1 or -1,
    and those values are multiplied into num or den without a power.
    """
    num = den = 1
    values = field._closed_form_values
    for key, e in exponents.items():
        value = values.get(key)
        if value is None:
            value = values[key] = _polynomial(field, key[1])[0].eval(field.q ** key[0])
        if e == 1:
            num *= value
        elif e == -1:
            den *= value
        elif e > 0:
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
        base = _polynomial(field, m)[0]
        scale = field.q ** j
        factor = PolyQ(c * scale ** n for n, c in enumerate(base.coeffs))
        for _ in range(abs(e)):
            if e > 0:
                num = num * factor
            else:
                den = den * factor
    return coprime_ratfun(num, den)


def _refuse_unprintable_form(field: FunctionFieldData, exponents: ExponentMap) -> None:
    """Raise OutputTooLargeError, before anything is multiplied out, when
    the den-monic form num/lead(den), den/lead(den) is sure to print an
    integer of more than MAX_PRINTED_DIGITS digits.

    num and den lead with +-q^N_num and q^N_den, the products of their
    factors' leading coefficients, each to the power |e|: a polynomial
    of degree n leading with +-q^l, as _polynomial gives, leads with
    +-q^(l + jn) at q^j u.  Both constant terms are +-1, so the den-monic form prints
    q^N_den in the denominator of its constant terms and
    q^(N_num - N_den) in num's leading coefficient; q^n has more digits
    than the limit exactly when q^n >= 10^digits.
    """
    digits, q = MAX_PRINTED_DIGITS, field.q
    n_num = n_den = 0
    for (j, m), e in exponents.items():
        base, lead = _polynomial(field, m)
        n = lead + j * base.degree
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
            "the most massform prints"
        )


@cache
def _correction_keys(degree: int, inv_den: int, r: int) -> tuple[tuple[int, int], ...]:
    """Keys of a place's correction, the factors 1 - (q^i u)^deg v for
    i < r with d_v not dividing i: a memo on the three ints."""
    divisors = _divisors(degree)
    return tuple((i, m) for i in range(1, r) if i % inv_den for m in divisors)


@cache
def _base_exponents(r: int, deg_inf: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The exponent map of prod_{j < r} zeta_A(q^j u) as (key, exponent)
    pairs, zeta_A(u) being P(u) prod_{m | deg_inf} Phi*_m(u) / ((1 - u)(1 - qu)):
    P(q^j u) for j < r, Phi*_m(u) for m | deg_inf, m > 1, (1 - q^j u)^-1
    for 0 < j < r, (1 - q^r u)^-1, then Phi*_m(q^j u) for 0 < j < r,
    m | deg_inf, m > 1.  A memo on (r, deg_inf), immutable."""
    divisors = _divisors(deg_inf)[1:]
    return (
        *(((j, 0), 1) for j in range(r)),
        *(((0, m), 1) for m in divisors),
        *(((j, 1), -1) for j in range(1, r)),
        ((r, 1), -1),
        *(((j, m), 1) for j in range(1, r) for m in divisors),
    )


# a place's part of the shape key _exponents hands to _shape_exponents
_place_shape = attrgetter("degree", "inv_den", "is_infinity")


def _exponents(data: RamificationData) -> ExponentMap:
    """The net exponent map of the closed form, a fresh dict: it depends
    only on the shape of the data, whose map _shape_exponents keeps."""
    shape = tuple(map(_place_shape, data.places))
    return dict(_shape_exponents(data.rank, data.field.deg_inf, shape))


@cache
def _shape_exponents(
    r: int, deg_inf: int, places: tuple[tuple[int, int, bool], ...]
) -> ExponentMap:
    """The net exponent map for rank r, the infinity degree and the
    (degree, d_v, is_infinity) of each ramified place: a closed-form
    memo on that shape, read only through _exponents, which copies it.
    It is prod_{j < r} zeta_A(q^j u), which _base_exponents keeps, and
    each finite place adds one to the exponent of each correction key.
    """
    net = dict(_base_exponents(r, deg_inf))
    for degree, inv_den, is_infinity in places:
        if not is_infinity:
            for key in _correction_keys(degree, inv_den, r):
                net[key] = net.get(key, 0) + 1
    return {key: e for key, e in net.items() if e}


def _check_poles(exponents: ExponentMap, r: int) -> None:
    """No 1 - u in the denominator, and 1 - q^r u in it."""
    if exponents.get((0, 1), 0) < 0:
        raise InternalConsistencyError("closed form has a pole at u = 1")
    # 1 - q^r u is the one factor that vanishes at u = q^-r
    if exponents.get((r, 1), 0) >= 0:
        raise InternalConsistencyError(
            "closed form lacks the expected pole at u = q^-r"
        )


def _checked_exponents(data: RamificationData) -> ExponentMap:
    """The net exponent map of definite data, its poles checked: no
    1 - u in the denominator, and 1 - q^r u in it.  Only the closed form
    reads it; the value at u = 1 makes the same checks part by part."""
    if not is_definite(data):
        raise NotDefiniteError("order zeta closed form needs definite data")
    exponents = _exponents(data)
    _check_poles(exponents, data.rank)
    return exponents


def order_zeta_closed_form(data: RamificationData) -> RationalFunctionQ:
    """Closed form: prod_{j < r} zeta_A(q^j u)
    * prod_{finite places} prod_{i in 1..r-1, d_v not | i} (1 - q^{i deg v} u^{deg v}),
    its exponent map multiplied out, refused first when it is too long
    to print.
    """
    exponents = _checked_exponents(data)
    _refuse_unprintable_form(data.field, exponents)
    return _expand(data.field, exponents)


def _base_part(field: FunctionFieldData, r: int) -> tuple[int, int]:
    """The value at u = 1 of prod_{j < r} zeta_A(q^j u) as (num, den),
    its poles checked first."""
    exponents = dict(_base_exponents(r, field.deg_inf))
    _check_poles(exponents, r)
    return _at_one(field, exponents).as_integer_ratio()


def _place_part(field: FunctionFieldData, degree: int, inv_den: int, r: int) -> int:
    """The value at u = 1 of a finite place's correction, an integer, its
    keys checked first: each (i, m) has 0 < i < r, so the correction
    neither cancels the pole at u = q^-r nor brings 1 - u in."""
    keys = _correction_keys(degree, inv_den, r)
    for i, m in keys:
        if not 0 < i < r:
            raise InternalConsistencyError(
                f"correction key {(i, m)} lies outside 0 < i < {r}"
            )
    return _at_one(field, dict.fromkeys(keys, 1)).numerator


def order_zeta_at_zero(data: RamificationData) -> Fraction:
    """Value of the closed form at u = 1 (s = 0); equals minus the mass.

    It is the base part, the value of prod_{j < r} zeta_A(q^j u), which
    depends only on the field and r, times one integer part per finite
    ramified place, its correction's value, which depends only on the
    field, (deg v, d_v) and r.  Each part is filled once per field, its
    poles checked, in the field's _closed_form_parts; the exponent map
    is never built.  Together the part checks imply the merged map's:
    the corrections add only keys with 0 < i < r to the base.
    """
    if not is_definite(data):
        raise NotDefiniteError("order zeta closed form needs definite data")
    field, r = data.field, data.rank
    parts = field._closed_form_parts
    base = parts.get(r)
    if base is None:
        base = parts[r] = _base_part(field, r)
    num, den = base
    for place in data.places:
        if not place.is_infinity:
            key = place.degree, place.inv_den, r
            value = parts.get(key)
            if value is None:
                value = parts[key] = _place_part(field, *key)
            num *= value
    return Fraction(num, den)


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
    to have more than MAX_PRINTED_DIGITS digits.

    Every c_k and s_k is non-negative, so k s_k = sum_j c_j s_{k-j}
    gives s_k >= c_k // k; the bound costs O(N) before the O(N^2)
    Newton step.
    """
    digits = MAX_PRINTED_DIGITS
    # every c_k below 2^(3 digits) < 10^digits needs no closer look
    if max(log_derivative) < 1 << 3 * digits:
        return
    limit = 10 ** digits
    for k in range(1, len(log_derivative)):
        if log_derivative[k] // k >= limit:
            raise OutputTooLargeError(
                f"the u^{k} series coefficient has more than {digits} digits, "
                "the most massform prints"
            )


def _excluded_degrees(data: RamificationData) -> list[int]:
    """The degrees of the places the Euler product skips, one entry per
    place: infinity, then each ramified finite place."""
    return [data.field.deg_inf, *(place.degree for place in data.finite_places())]


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
    places of degree n.  As sum_{n | k} n b_n over all places is the
    point count N_k, w_k is N_k less deg v for each excluded place v
    (infinity and the ramified places) with deg v | k: N_1 .. N_order
    are copied once, and each excluded place is subtracted along the
    multiples of its degree.  The place counts b_n are checked to hold
    the excluded places at each excluded degree.  Newton's identities
    k s_k = sum_{j=1..k} c_j s_{k-j} give the coefficients s_k, each by
    an exact division.  Infinity is skipped; the closed form
    compensates, and the tests compare the two expansions coefficient
    by coefficient.
    """
    if not is_definite(data):
        raise NotDefiniteError("order zeta series needs definite data")
    check_series_order(order)
    field = data.field
    q, r = field.q, data.rank
    ramified: dict[int, list[int]] = {}
    for place in data.finite_places():
        ramified.setdefault(place.degree, []).append(place.inv_den)
    # the place counts b_n, with the point counts N_k kept beside them
    counts = field._place_counts(order)
    for degree in sorted({field.deg_inf, *ramified}):
        if degree > order:
            break
        finite = counts[degree - 1] - (degree == field.deg_inf)
        ramified_here = len(ramified.get(degree, ()))
        if finite < ramified_here:
            # the constructor's availability check, made again from the
            # field's place counts
            raise InternalConsistencyError(
                f"{ramified_here} finite ramified places of degree {degree} "
                f"but the field has {finite} finite places of that degree"
            )
    # w_k = N_k - sum of deg v over the excluded places with deg v | k,
    # then c_k = w_k (q^{rk} - 1)/(q^k - 1) in the same list
    log_derivative = [0, *field._points[:order]]
    for degree in _excluded_degrees(data):
        for k in range(degree, order + 1, degree):
            log_derivative[k] -= degree
    q_k = 1
    for k in range(1, order + 1):
        q_k *= q
        log_derivative[k] *= _geometric(q_k, r)
    for degree, inv_dens in ramified.items():
        for d_v in inv_dens:
            step, q_dvk = q ** (d_v * degree), 1
            for k in range(degree, order + 1, degree):
                q_dvk *= step
                log_derivative[k] += degree * _geometric(q_dvk, r // d_v)
    _refuse_unprintable(log_derivative)
    # c_1 .. c_order, copied once: map stops at the shorter operand
    c = log_derivative[1:]
    coeffs = [1]
    for k in range(1, order + 1):
        value, rem = divmod(sum(map(mul, c, reversed(coeffs))), k)
        if rem:
            raise InternalConsistencyError(f"u^{k} series coefficient is not an integer")
        coeffs.append(value)
    return TruncatedSeriesQ(order, tuple(coeffs))


def place_by_place_series(data: RamificationData, order: int) -> tuple[int, ...]:
    """The Euler-product series rebuilt place by place.

    Each kind of finite place of degree n up to the order, unramified or
    one ramified place, has its local stream built from
    local_ideal_count, with the count of colength ell at u^(n ell).  The
    product starts at 1; each degree multiplies in the unramified stream
    to the power of the number of unramified places of that degree, then
    each ramified place's stream, by series_pow and series_mul.  Nothing
    is shared with order_zeta_series, so agreement of the two is a real
    multiplicativity statement.
    """
    q, r = data.field.q, data.rank

    def stream(degree: int, m_v: int, d_v: int) -> TruncatedSeriesQ:
        coeffs = [0] * (order + 1)
        for ell in range(order // degree + 1):
            coeffs[ell * degree] = local_ideal_count(q ** degree, m_v, d_v, ell)
        return TruncatedSeriesQ(order, tuple(coeffs))

    product = series_one(order)
    for degree in range(1, order + 1):
        ramified_here = [p for p in data.finite_places() if p.degree == degree]
        count = finite_places_of_degree(data.field, degree) - len(ramified_here)
        product = series_mul(product, series_pow(stream(degree, r, 1), count))
        for place in ramified_here:
            product = series_mul(product, stream(degree, r // place.inv_den, place.inv_den))
    return product.coeffs
