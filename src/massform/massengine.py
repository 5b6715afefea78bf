"""Mass computations from the factored formula.

The mass of a definite algebra with ramification data (r, S) over the
base field is

    (h(A)/(q-1)) * prod_{i=1..r-1} zeta_K(-i) * prod_{v in S} lambda_v,

with lambda_v the local correction at each ramified place.  Every
factor is a ratio of integers, so the product runs in plain ints: one
numerator and one denominator collect h(A), q - 1, each zeta_K(-i) and
each lambda_v, and the mass is the one Fraction made from them.  This
module never touches the maximal-order zeta function: the order-zeta
module recomputes the same number along a completely different path and
the test suite pins the two against each other.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import rational_to_str
from .csa import (
    RamificationData,
    RamifiedPlace,
    is_definite,
    is_drinfeld_type,
    lambda_v,
)
from .errors import (
    InternalConsistencyError,
    NotDefiniteError,
)
from .funcfield import (
    FunctionFieldData,
    class_number_A,
    zeta_special_value,
)
from .record import Record


class MassReport(Record):
    """Mass together with every factor it was assembled from."""

    __slots__ = _fields = (
        "mass", "class_number_factor", "zeta_factors", "lambda_factors",
        "definite", "drinfeld_type",
    )

    def __init__(
        self,
        mass: Fraction,
        class_number_factor: Fraction,                  # h(A)/(q-1)
        zeta_factors: tuple[Fraction, ...],             # zeta_K(-1) ... zeta_K(-(r-1))
        lambda_factors: tuple[tuple[str, int], ...],    # (place token, lambda_v)
        definite: bool,
        drinfeld_type: bool,
    ):
        self.mass = mass
        self.class_number_factor = class_number_factor
        self.zeta_factors = zeta_factors
        self.lambda_factors = lambda_factors
        self.definite = definite
        self.drinfeld_type = drinfeld_type


def mass(data: RamificationData) -> MassReport:
    """Exact mass of valid definite ramification data.

    One integer numerator and one integer denominator collect h(A),
    q - 1, each zeta_K(-i) and each lambda_v; the mass is the one
    Fraction made from them.
    """
    if not is_definite(data):
        raise NotDefiniteError(
            "mass is defined only for definite data (division algebra at infinity)"
        )
    field, r = data.field, data.rank
    h = class_number_A(field)
    zetas = tuple(zeta_special_value(field, i) for i in range(1, r))
    lambdas = tuple(
        (p.shorthand_token(), lambda_v(p, r, field.q)) for p in data.places
    )
    num, den = h, field.q - 1
    for z in zetas:
        num *= z.numerator
        den *= z.denominator
    for _, lam in lambdas:
        num *= lam
    total = Fraction(num, den)
    # den is positive: q - 1 times Fraction denominators
    if num <= 0:
        raise InternalConsistencyError(f"mass {total} is not positive")
    return MassReport(
        mass=total,
        class_number_factor=Fraction(h, field.q - 1),
        zeta_factors=zetas,
        lambda_factors=lambdas,
        definite=True,
        drinfeld_type=is_drinfeld_type(data),
    )


def drinfeld_mass(field: FunctionFieldData, r: int, p_degree: int) -> Fraction:
    """Mass in the two-place normal form: infinity gets invariant -1/r
    and a single finite place of the given degree gets 1/r.

    Computed as (h(A)/(q-1)) * prod_{i=1..r-1} zeta_K(-i) *
    (1 - N(inf)^i) * (1 - N(p)^i); the two extra factors strip the
    Euler factors at the two ramified places from each special value.
    Only the degree of the finite place enters, but the datum it stands
    for must be valid, so it is built, and building it checks it.
    """
    RamificationData(
        field=field,
        rank=r,
        places=(
            RamifiedPlace(field.deg_inf, -1, r, is_infinity=True),
            RamifiedPlace(p_degree, 1, r),
        ),
    )
    n_inf = field.q ** field.deg_inf
    n_p = field.q ** p_degree
    num, den = class_number_A(field), field.q - 1
    for i in range(1, r):
        z = zeta_special_value(field, i)
        num *= z.numerator * (1 - n_inf ** i) * (1 - n_p ** i)
        den *= z.denominator
    return Fraction(num, den)


def mass_report_to_json_dict(report: MassReport) -> dict:
    return {
        "mass": rational_to_str(report.mass),
        "class_number_factor": rational_to_str(report.class_number_factor),
        "zeta_factors": [rational_to_str(z) for z in report.zeta_factors],
        "lambda_factors": [
            {"place": token, "lambda": str(lam)}
            for token, lam in report.lambda_factors
        ],
        "definite": report.definite,
        "drinfeld_type": report.drinfeld_type,
    }
