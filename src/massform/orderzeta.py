"""Zeta function of a maximal order in a definite division algebra.

Two independent realizations of the same object live here:

* a closed rational-function form in u = q**(-s), assembled from the
  base-field zeta, its multiplicative shifts, and per-place correction
  polynomials at the ramified places;
* a truncated Dirichlet series built from an Euler product over the
  finite places, expanded in integers by the binomial series of each
  factor (1 - a u^n)^{-m}, and rebuilt place by place from an explicit
  composition sum (local_ideal_count) by the multiplicativity check.

Their coefficientwise agreement, and the equality of the value at u = 1
with minus the factored mass, are the package's central cross-checks.
The infinity place contributes nothing to the Euler product; the closed
form instead carries a (1 - u^{deg_inf}) prefactor and correction
factors whose product deletes every infinity Euler factor exactly when
the data is definite.  No step here reuses the mass engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .algebra import (
    PolyQ,
    RationalFunctionQ,
    TruncatedSeriesQ,
    ratfun,
    ratfun_eval,
    ratfun_from_poly,
    series_from_ratfun,
)
from .csa import RamificationData, ensure_valid, is_definite
from .errors import (
    InternalConsistencyError,
    InvalidPartialDataError,
    NegativeMultiplicityError,
    NotDefiniteError,
    PoleError,
)
from .funcfield import places_of_degree


# ----------------------------------------------------------------------
# Closed form
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OrderZetaClosedForm:
    """Fully cancelled rational function plus the factors it came from.

    assembled_from keeps (label, factor) pairs for audit output; the
    product of all factors equals ratfun.
    """

    ratfun: RationalFunctionQ
    assembled_from: tuple[tuple[str, RationalFunctionQ], ...]


def order_zeta_closed_form(data: RamificationData) -> OrderZetaClosedForm:
    """Closed form: (1-u^{deg_inf}) * P(u)/((1-u)(1-qu))
    * prod_{i=1..r-1} P(q^i u)/((1-q^i u)(1-q^{i+1} u))
    * prod_{places} prod_{i in 1..r-1, d_v not | i} (1 - q^{i deg v} u^{deg v}).
    """
    ensure_valid(data)
    if not is_definite(data):
        raise NotDefiniteError("order zeta closed form needs definite data")
    field = data.field
    q = field.q
    factors: list[tuple[str, RationalFunctionQ]] = []

    base_num = PolyQ.one_minus(1, field.deg_inf) * field.l_poly
    base_den = PolyQ.one_minus(1, 1) * PolyQ.one_minus(q, 1)
    factors.append(("zeta_A", ratfun(base_num, base_den)))

    for i in range(1, data.rank):
        qi = q ** i
        num = field.l_poly.scale_argument(qi)
        den = PolyQ.one_minus(qi, 1) * PolyQ.one_minus(qi * q, 1)
        factors.append((f"zeta_K_shift_{i}", ratfun(num, den)))

    for place in data.places:
        poly = PolyQ.one()
        for i in range(1, data.rank):
            if i % place.inv_den != 0:
                poly = poly * PolyQ.one_minus(
                    q ** (i * place.degree), place.degree
                )
        factors.append(
            (f"correction_{place.shorthand_token()}", ratfun_from_poly(poly))
        )

    total = factors[0][1]
    for _, f in factors[1:]:
        total = total * f

    if not total.is_regular_at(1):
        raise InternalConsistencyError("closed form has a pole at u = 1")
    if total.is_regular_at(Fraction(1, q ** data.rank)):
        raise InternalConsistencyError(
            "closed form lacks the expected pole at u = q^-r"
        )
    return OrderZetaClosedForm(ratfun=total, assembled_from=tuple(factors))


def order_zeta_at_zero(data: RamificationData) -> Fraction:
    """Value of the closed form at u = 1 (s = 0); equals minus the mass."""
    form = order_zeta_closed_form(data)
    try:
        return ratfun_eval(form.ratfun, 1)
    except PoleError as exc:       # pragma: no cover - blocked by the form's check
        raise InternalConsistencyError(str(exc)) from None


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


def _apply_binomial(coeffs: list[int], a: int, m: int) -> None:
    """Multiply the truncated series coeffs in place by (1 - a v)^{-m},
    whose coefficient at v^k is binom(m+k-1, k) * a^k."""
    c = [1]
    for k in range(1, len(coeffs)):
        value, rem = divmod(c[-1] * (m + k - 1) * a, k)
        if rem:
            raise InternalConsistencyError(f"(1 - {a}v)^-{m}: v^{k} not integral")
        c.append(value)
    for j in range(len(coeffs) - 1, 0, -1):
        coeffs[j] = sum(map(mul, c, coeffs[j::-1]))


def order_zeta_series(data: RamificationData, order: int) -> TruncatedSeriesQ:
    """Dirichlet series of the order zeta to the given order in u.

    Euler product over finite places only, in integers.  Per degree n,
    the factors are gathered as prod (1 - a v)^{-m} in v = u^n: the
    unramified places add their number to m at a = q^{n i}, i < r, and
    each ramified place adds 1 at a = q^{n i d_v}, i < r/d_v.  Each
    (a, m) is a binomial series; their product enters by one stride-n
    convolution.  Infinity is skipped; the closed form compensates, and
    the tests compare the two expansions coefficient by coefficient.
    """
    ensure_valid(data)
    if not is_definite(data):
        raise NotDefiniteError("order zeta series needs definite data")
    if order < 0:
        raise ValueError("series order must be >= 0")
    field = data.field
    q, r = field.q, data.rank
    coeffs = [1] + [0] * order
    for degree, available in enumerate(field._place_counts(order), start=1):
        ramified_here = [p for p in data.finite_places() if p.degree == degree]
        multiplicity = available - len(ramified_here)
        if degree == field.deg_inf:
            multiplicity -= 1
        if multiplicity < 0:
            raise NegativeMultiplicityError(
                f"{len(ramified_here)} ramified places of degree {degree} "
                f"but the field only has {available}"
            )
        exponents = Counter({q ** (degree * i): multiplicity for i in range(r)})
        for place in ramified_here:
            d_v = place.inv_den
            exponents.update(q ** (degree * i * d_v) for i in range(r // d_v))
        factor = [1] + [0] * (order // degree)      # in v = u^degree
        for a, m in (+exponents).items():     # unary + drops m == 0
            _apply_binomial(factor, a, m)
        for j in range(order, degree - 1, -1):
            coeffs[j] = sum(map(mul, factor, coeffs[j::-degree]))
    return TruncatedSeriesQ(order, tuple(map(Fraction, coeffs)))


def coefficient_multiplicativity_check(data: RamificationData, order: int) -> bool:
    """Recompute the series place by place and compare.

    Every finite place of every degree up to the order contributes its
    own coefficient stream built from local_ideal_count (one stream per
    place, never aggregated), and the streams are convolved in place
    order.  True iff the result matches order_zeta_series coefficient by
    coefficient; the two sides walk the same Euler product in different
    orders, so agreement is a real multiplicativity statement.
    """
    fast = order_zeta_series(data, order)
    coeffs = [Fraction(1)] + [Fraction(0)] * order

    def convolve_place(degree: int, m_v: int, d_v: int) -> None:
        nonlocal coeffs
        stream = [
            Fraction(local_ideal_count(data.field.q ** degree, m_v, d_v, ell))
            for ell in range(order // degree + 1)
        ]
        nxt = [Fraction(0)] * (order + 1)
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

    return tuple(coeffs) == fast.coeffs


# ----------------------------------------------------------------------
# Partial zeta continuation (local unit bookkeeping at s = 0)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PartialZetaData:
    """Head data of one partial zeta: finitely many Dirichlet
    coefficients a(ell) up to a cutoff ell_i, the unit order of the
    class it came from, and the cumulative count C = 1 + sum a(ell)."""

    r: int
    deg_inf: int
    unit_order: int
    head: tuple[tuple[int, int], ...]      # sparse (ell, a(ell)) pairs
    C: int
    ell_i: int

    def head_sum(self) -> int:
        return sum(a for _, a in self.head)


def _check_partial(data: PartialZetaData) -> None:
    if data.unit_order < 1 or data.r < 1 or data.deg_inf < 1:
        raise InvalidPartialDataError("r, deg_inf and unit_order must be positive")
    for ell, a in data.head:
        if ell < 0 or ell > data.ell_i:
            raise InvalidPartialDataError(
                f"head entry at {ell} outside [0, {data.ell_i}]"
            )
        if a != 0 and (ell - data.ell_i) % data.deg_inf != 0:
            raise InvalidPartialDataError(
                f"nonzero coefficient at {ell} violates the congruence "
                f"mod {data.deg_inf}"
            )
    if data.C != 1 + data.head_sum():
        raise InvalidPartialDataError(
            f"C = {data.C} but 1 + head sum = {1 + data.head_sum()}"
        )


def _continuation_at_zero(data: PartialZetaData, n_inf: int) -> Fraction:
    # unit_order * zeta(0) = sum a(ell) + C*(n^r-1)/n^r * n^r/(1-n^r)
    n_r = n_inf ** data.r
    tail = Fraction(data.C) * Fraction(n_r - 1, n_r) * Fraction(n_r, 1 - n_r)
    return (data.head_sum() + tail) / data.unit_order


def partial_zeta_value(data: PartialZetaData, at_zero: bool = True) -> Fraction:
    """Value of the continued partial zeta at s = 0.

    The continuation formula needs the residue size at infinity, which
    cancels identically at s = 0; the evaluator substitutes two
    different sizes and insists the results agree rather than trusting
    the cancellation blindly.
    """
    if not at_zero:
        raise ValueError("only the value at s = 0 is exposed")
    _check_partial(data)
    first = _continuation_at_zero(data, 2 ** data.deg_inf)
    second = _continuation_at_zero(data, 3 ** data.deg_inf)
    if first != second:
        raise InternalConsistencyError(
            "continuation value depends on the infinity residue size"
        )
    return first


def partial_zeta_tail_consistent(data: PartialZetaData, steps: int = 3) -> bool:
    """Check the induced tail coefficients for a few steps.

    The continuation's tail term is the rational function
    C * u^{ell_i} * ((n^r - 1)/n^r) * (n^r u^{deg_inf})/(1 - n^r u^{deg_inf})
    in u = q^{-s}.  Expanding it through the generic series machinery
    must reproduce the coefficient pattern C*(n^r - 1)*n^{r(mu-1)} at
    u^{ell_i + mu*deg_inf}, zeros elsewhere, and cumulative counts
    multiplying by n^r per step.  Verified for two residue sizes.
    """
    _check_partial(data)
    d = data.deg_inf
    for n_inf in (2 ** d, 3 ** d):
        n_r = n_inf ** data.r
        num = PolyQ.monomial(Fraction(data.C * (n_r - 1), n_r) * n_r, data.ell_i + d)
        den = PolyQ.one_minus(n_r, d)
        expansion = series_from_ratfun(ratfun(num, den), data.ell_i + steps * d)
        cumulative = data.C
        for mu in range(1, steps + 1):
            lo = data.ell_i + (mu - 1) * d
            hi = data.ell_i + mu * d
            if any(expansion.coefficient(k) != 0 for k in range(lo + 1, hi)):
                return False
            got = expansion.coefficient(hi)
            if got != data.C * (n_r - 1) * n_r ** (mu - 1):
                return False
            cumulative += got
            if cumulative != data.C * n_r ** mu:
                return False
    return True
