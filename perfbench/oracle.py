"""The benchmark's own arithmetic, written apart from massform.

Every workload's outputs are checked against the formulas here after the
timed operations.  Nothing in this module imports massform: a datum is a
plain tuple, and the numbers come straight from the paper's formulas.

A datum is (q, l_poly, deg_inf, rank, places) with l_poly the integer
coefficients of P(T), constant term first, and places a tuple of
(degree, inv_den, is_infinity) for every ramified place.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class Datum(NamedTuple):
    q: int
    l_poly: tuple[int, ...]
    deg_inf: int
    rank: int
    places: tuple[tuple[int, int, bool], ...]


def p_at(l_poly, x):
    return sum(c * x ** k for k, c in enumerate(l_poly))


def class_number(l_poly, deg_inf: int) -> int:
    """h(A) = deg_inf * P(1)."""
    return deg_inf * p_at(l_poly, 1)


def zeta_at_minus(q: int, l_poly, i: int) -> Fraction:
    """zeta_K(-i) = P(q^i) / ((1 - q^i)(1 - q^(i+1)))."""
    qi = q ** i
    return Fraction(p_at(l_poly, qi), (1 - qi) * (1 - qi * q))


def local_lambda(q_v: int, rank: int, d_v: int) -> int:
    """lambda_v = prod over 1 <= i < rank with d_v not dividing i of (q_v^i - 1)."""
    out = 1
    for i in range(1, rank):
        if i % d_v:
            out *= q_v ** i - 1
    return out


def mass(datum: Datum) -> Fraction:
    """h(A)/(q-1) * prod_{i<r} zeta_K(-i) * prod_v lambda_v."""
    q, l_poly, deg_inf, rank, places = datum
    total = Fraction(class_number(l_poly, deg_inf), q - 1)
    for i in range(1, rank):
        total *= zeta_at_minus(q, l_poly, i)
    for degree, d_v, _ in places:
        total *= local_lambda(q ** degree, rank, d_v)
    return total


def closed_form_series(datum: Datum, order: int) -> list[int]:
    """Taylor coefficients through u^order of the order zeta's closed form

        (1 - u^deg_inf) P(u) / ((1-u)(1-qu))
        * prod_{i=1..r-1} P(q^i u) / ((1 - q^i u)(1 - q^(i+1) u))
        * prod_v prod_{i=1..r-1, d_v not | i} (1 - q^(i deg v) u^(deg v)),

    expanded in plain integers: multiplying by a polynomial truncates, and
    dividing by (1 - a u^k) is the recurrence c[j] += a c[j-k].
    """
    q, l_poly, deg_inf, rank, places = datum
    coeffs = [1] + [0] * order

    def times(poly: dict[int, int]) -> None:
        coeffs[:] = [
            sum(c * coeffs[j - k] for k, c in poly.items() if k <= j)
            for j in range(order + 1)
        ]

    def over(a: int, k: int) -> None:
        for j in range(k, order + 1):
            coeffs[j] += a * coeffs[j - k]

    times({0: 1, deg_inf: -1})
    times(dict(enumerate(l_poly)))
    over(1, 1)
    over(q, 1)
    for i in range(1, rank):
        qi = q ** i
        times({k: c * qi ** k for k, c in enumerate(l_poly)})
        over(qi, 1)
        over(qi * q, 1)
    for degree, d_v, _ in places:
        for i in range(1, rank):
            if i % d_v:
                times({0: 1, degree: -(q ** (i * degree))})
    return coeffs


def first_coefficient(datum: Datum) -> int:
    """Coefficient of u^1 counted place by place: every finite place of
    degree 1 contributes sum_{i < m_v} q^(i d_v), with m_v = r / d_v, and
    there are q + 1 + a_1 places of degree 1, one of them infinite when
    deg_inf = 1."""
    q, l_poly, deg_inf, rank, places = datum
    a1 = l_poly[1] if len(l_poly) > 1 else 0
    finite = q + 1 + a1 - (1 if deg_inf == 1 else 0)
    ramified = [d_v for degree, d_v, inf in places if degree == 1 and not inf]
    local = [1] * (finite - len(ramified)) + ramified
    return sum(q ** (i * d_v) for d_v in local for i in range(rank // d_v))


def iwahori_index(q_v: int, d: int) -> int:
    return q_v ** (d * d * (d - 1) // 2)


# A model check asks for MODEL_PAIRS random pairs; its report passes when
# every relation flag and the overall ok are true and every pair was checked.
MODEL_PAIRS = 5
MODEL_FLAGS = (
    "multiplicativity_ok",
    "pi_power_ok",
    "embedding_in_order_ok",
    "negative_valuation_excluded_ok",
)


def model_report_problems(field) -> list[str]:
    """Problems of one model-check report; field(name) reads an entry."""
    problems = [
        f"{flag} is {field(flag)}" for flag in (*MODEL_FLAGS, "ok") if field(flag) is not True
    ]
    if field("pairs_checked") != MODEL_PAIRS:
        problems.append(f"{field('pairs_checked')} pairs checked, asked {MODEL_PAIRS}")
    return problems
