"""Mass computations from the factored formula.

The mass of a definite algebra with ramification data (r, S) over the
base field is

    (h(A)/(q-1)) * prod_{i=1..r-1} zeta_K(-i) * prod_{v in S} lambda_v,

with lambda_v the local correction at each ramified place.  Every
factor is a ratio of integers, so the product runs in plain ints: one
numerator and one denominator collect h(A), q - 1, each zeta_K(-i) and
each lambda_v, and the mass is the one Fraction made from them.  Each
zeta_K(-i) is read off the field's memo as one integer pair, and each
lambda_v, here and in the factor audit, straight from lambda_value's
memo on (q^deg v, r, d_v).  A `MassReport` carries the datum and the
mass; the factor audit is read off the datum, from the same memos, when
the report is printed.  This module never touches the maximal-order
zeta function: the order-zeta module recomputes the same number along a
completely different path and the test suite pins the two against each
other.
"""

from __future__ import annotations

from fractions import Fraction

from .csa import (
    RamificationData,
    drinfeld_datum,
    is_definite,
    is_drinfeld_type,
    lambda_value,
)
from .errors import (
    InternalConsistencyError,
    NotDefiniteError,
    rational_to_str,
)
from .funcfield import (
    FunctionFieldData,
    class_number_A,
    zeta_special_value,
)
from .record import Record


class MassReport(Record):
    """A definite datum and its mass; `mass_report_to_json_dict` reads
    the factors off the datum again, each lambda_v as
    `lambda_value(q^deg v, r, d_v)`, the memo that `mass` reads."""

    __slots__ = _fields = ("data", "mass")

    def __init__(self, data: RamificationData, mass: Fraction):
        self.data = data
        self.mass = mass


def mass(data: RamificationData) -> MassReport:
    """Exact mass of valid definite ramification data, as the integer
    product the module docstring describes."""
    if not is_definite(data):
        raise NotDefiniteError(
            "mass is defined only for definite data (division algebra at infinity)"
        )
    field, r = data.field, data.rank
    q = field.q
    num, den = class_number_A(field), q - 1
    for i in range(1, r):
        n, d = zeta_special_value(field, i).as_integer_ratio()
        num *= n
        den *= d
    for p in data.places:
        num *= lambda_value(q ** p.degree, r, p.inv_den)
    # den is positive: q - 1 times Fraction denominators
    if num <= 0:
        raise InternalConsistencyError(f"mass {Fraction(num, den)} is not positive")
    return MassReport(data, Fraction(num, den))


def drinfeld_mass(field: FunctionFieldData, r: int, p_degree: int) -> Fraction:
    """Mass in the two-place normal form: infinity gets invariant -1/r
    and a single finite place of the given degree gets 1/r.

    Computed as (h(A)/(q-1)) * prod_{i=1..r-1} zeta_K(-i) *
    (1 - N(inf)^i) * (1 - N(p)^i); the two extra factors strip the
    Euler factors at the two ramified places from each special value.
    Only the degree of the finite place enters, but the datum it stands
    for must be valid, so it is built, and building it checks it.
    """
    drinfeld_datum(field, r, p_degree)
    n_inf = field.q ** field.deg_inf
    n_p = field.q ** p_degree
    num, den = class_number_A(field), field.q - 1
    for i in range(1, r):
        n, d = zeta_special_value(field, i).as_integer_ratio()
        num *= n * (1 - n_inf ** i) * (1 - n_p ** i)
        den *= d
    return Fraction(num, den)


def mass_report_to_json_dict(report: MassReport) -> dict:
    """The mass and each factor of it, read off the datum."""
    data = report.data
    field, r = data.field, data.rank
    return {
        "mass": rational_to_str(report.mass),
        "class_number_factor": rational_to_str(Fraction(class_number_A(field), field.q - 1)),
        "zeta_factors": [rational_to_str(zeta_special_value(field, i)) for i in range(1, r)],
        "lambda_factors": [
            {"place": p.shorthand_token(),
             "lambda": str(lambda_value(field.q ** p.degree, r, p.inv_den))}
            for p in data.places
        ],
        "definite": True,
        "drinfeld_type": is_drinfeld_type(data),
    }
