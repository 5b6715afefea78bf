"""Maximal-order zeta: closed form, Euler-product series, partial zetas."""

from fractions import Fraction

import pytest

from massform.algebra import (
    PolyQ,
    ratfun,
    ratfun_eval,
    series_from_ratfun,
)
from massform.csa import RamificationData, RamifiedPlace, parse_shorthand
from massform.errors import (
    InternalConsistencyError,
    InvalidPartialDataError,
    NegativeMultiplicityError,
    NotDefiniteError,
)
from massform.funcfield import FunctionFieldData
from massform.massengine import mass
from massform.verify import full_battery
from massform.orderzeta import (
    PartialZetaData,
    _apply_binomial,
    coefficient_multiplicativity_check,
    local_ideal_count,
    order_zeta_at_zero,
    order_zeta_closed_form,
    order_zeta_series,
    partial_zeta_tail_consistent,
    partial_zeta_value,
)

K2 = FunctionFieldData.rational(2)
K2_G1 = FunctionFieldData(q=2, genus=1, l_poly=PolyQ((1, 1, 2)), deg_inf=1)

STANDARD_R2 = parse_shorthand("inf:1/2,1:1/2", K2, rank=2)
DRINFELD_R3 = parse_shorthand("inf:-1/3,1:1/3", K2, rank=3)
GENUS1_R2 = parse_shorthand("inf:1/2,1:1/2", K2_G1, rank=2)


# -- closed form ------------------------------------------------------------

def test_closed_form_rank_two_is_geometric():
    form = order_zeta_closed_form(STANDARD_R2)
    assert form.ratfun == ratfun(PolyQ.one(), PolyQ.one_minus(4, 1))
    labels = [label for label, _ in form.assembled_from]
    assert labels == [
        "zeta_A",
        "zeta_K_shift_1",
        "correction_inf:1/2",
        "correction_1:1/2",
    ]


def test_closed_form_factors_recompose():
    for data in [STANDARD_R2, DRINFELD_R3, GENUS1_R2]:
        form = order_zeta_closed_form(data)
        product = form.assembled_from[0][1]
        for _, f in form.assembled_from[1:]:
            product = product * f
        assert product == form.ratfun


def test_closed_form_rank_one_is_zeta_A():
    form = order_zeta_closed_form(RamificationData(field=K2, rank=1, places=()))
    assert form.ratfun == ratfun(PolyQ.one(), PolyQ.one_minus(2, 1))
    assert ratfun_eval(form.ratfun, 1) == -1


def test_closed_form_rejects_indefinite():
    with pytest.raises(NotDefiniteError):
        order_zeta_closed_form(parse_shorthand("1:1/2,1:-1/2", K2, rank=2))


def test_closed_form_pole_structure():
    form = order_zeta_closed_form(DRINFELD_R3)
    assert form.ratfun.is_regular_at(1)
    assert not form.ratfun.is_regular_at(Fraction(1, 2 ** 3))


def test_at_zero_frozen_values():
    assert order_zeta_at_zero(STANDARD_R2) == Fraction(-1, 3)
    assert order_zeta_at_zero(DRINFELD_R3) == Fraction(-1, 7)
    assert order_zeta_at_zero(GENUS1_R2) == Fraction(-44, 3)


def test_at_zero_matches_minus_mass_on_samples():
    samples = [
        STANDARD_R2,
        DRINFELD_R3,
        GENUS1_R2,
        parse_shorthand("inf:1/4,2:1/4,1:1/2", K2, rank=4),
        parse_shorthand("inf:1/2,2:1/2", FunctionFieldData.rational(3), rank=2),
        parse_shorthand("inf:1/6,1:-1/6", K2, rank=6),
        RamificationData(field=K2_G1, rank=1, places=()),
    ]
    for data in samples:
        assert order_zeta_at_zero(data) == -mass(data).mass


# -- local ideal counts -------------------------------------------------------

def test_local_ideal_count_frozen_examples():
    for q_v in [2, 3, 4, 5]:
        assert local_ideal_count(q_v, 2, 1, 1) == 1 + q_v
    for d_v in [1, 2, 3]:
        for ell in range(5):
            assert local_ideal_count(7, 1, d_v, ell) == 1
    assert local_ideal_count(2, 2, 1, 2) == 7
    assert local_ideal_count(2, 2, 1, 0) == 1


def test_local_ideal_count_matches_euler_factor_expansion():
    for (n_v, m_v, d_v) in [
        (2, 2, 1), (2, 1, 3), (3, 2, 2), (2, 3, 1),
        (4, 2, 2), (2, 4, 1), (3, 3, 1), (5, 2, 3),
    ]:
        den = PolyQ.one()
        for i in range(1, m_v + 1):
            den = den * PolyQ.one_minus(n_v ** ((i - 1) * d_v), 1)
        expansion = series_from_ratfun(ratfun(PolyQ.one(), den), 8)
        for ell in range(9):
            assert expansion.coefficient(ell) == local_ideal_count(
                n_v, m_v, d_v, ell
            ), (n_v, m_v, d_v, ell)


# -- Dirichlet series ----------------------------------------------------------

def test_series_low_coefficients_standard_example():
    s = order_zeta_series(STANDARD_R2, 3)
    # closed form is 1/(1-4u): coefficients are powers of 4
    assert s.coeffs == (1, 4, 16, 64)


def test_series_coefficient_of_u_one_decomposes():
    # one ramified deg-1 place contributes 1, the unramified finite
    # deg-1 place contributes 1 + q = 3; infinity contributes nothing
    s = order_zeta_series(STANDARD_R2, 1)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 1 + 3


def test_series_matches_closed_form_expansion():
    configs = [
        (STANDARD_R2, 12),
        (DRINFELD_R3, 10),
        (GENUS1_R2, 12),
        (parse_shorthand("inf:1/4,2:1/4,1:1/2", K2, rank=4), 8),
        (parse_shorthand("inf:1/2,2:1/2", FunctionFieldData.rational(3), rank=2), 8),
        (RamificationData(field=K2_G1, rank=1, places=()), 10),
        (parse_shorthand("inf:1/2,2:1/2", K2, rank=2), 200),
    ]
    for data, order in configs:
        closed = order_zeta_closed_form(data)
        assert (
            order_zeta_series(data, order).coeffs
            == series_from_ratfun(closed.ratfun, order).coeffs
        ), (data.rank, order)


def test_series_matches_closed_form_on_every_battery_cell():
    cells = {}
    for data in full_battery():
        cells.setdefault((data.field, data.rank), data)
    assert len(cells) == 20
    for data in cells.values():
        closed = order_zeta_closed_form(data)
        assert order_zeta_series(data, 40) == series_from_ratfun(closed.ratfun, 40), (
            data.field.q, data.field.genus, data.rank,
        )


def test_binomial_factor_matches_repeated_geometric_factors():
    for a, m in [(1, 3), (4, 5), (2, 1), (9, 2)]:
        got = [1, 2, 0, 5, 0, 0, 7, 0, 0, 1]
        want = list(got)
        _apply_binomial(got, a, m)
        for _ in range(m):      # times 1/(1 - a v): w[j] += a * w[j - 1]
            for j in range(1, 10):
                want[j] += a * want[j - 1]
        assert got == want, (a, m)
    # (1 - v)^(-1/2) = 1 + v/2 + ...: the exact division check must fire
    with pytest.raises(InternalConsistencyError):
        _apply_binomial([1, 0, 0], 1, Fraction(1, 2))


def test_series_coefficients_count_ideals():
    for data in [STANDARD_R2, DRINFELD_R3, GENUS1_R2]:
        s = order_zeta_series(data, 10)
        for c in s.coeffs:
            assert c.denominator == 1 and c >= 0


def test_series_negative_multiplicity_guard():
    # three ramified degree-1 finite places over F_2 rational: only two
    # exist once infinity takes its slot; structural checks all pass
    data = RamificationData(
        field=K2,
        rank=2,
        places=(
            RamifiedPlace(1, 1, 2, is_infinity=True),
            RamifiedPlace(1, 1, 2),
            RamifiedPlace(1, 1, 2),
            RamifiedPlace(1, 1, 2),
        ),
    )
    with pytest.raises(NegativeMultiplicityError):
        order_zeta_series(data, 4)


def test_multiplicativity_check_frozen_examples():
    assert coefficient_multiplicativity_check(STANDARD_R2, 8)
    assert coefficient_multiplicativity_check(
        RamificationData(field=K2, rank=1, places=()), 8
    )
    assert coefficient_multiplicativity_check(DRINFELD_R3, 6)
    assert coefficient_multiplicativity_check(GENUS1_R2, 12)


# -- partial zeta ---------------------------------------------------------------

def test_partial_zeta_value_frozen_examples():
    for a in [0, 5, 23]:
        data = PartialZetaData(
            r=2, deg_inf=1, unit_order=24,
            head=((0, a),), C=1 + a, ell_i=0,
        )
        assert partial_zeta_value(data) == Fraction(-1, 24)
    trivial = PartialZetaData(
        r=3, deg_inf=2, unit_order=1, head=(), C=1, ell_i=0
    )
    assert partial_zeta_value(trivial) == -1


def test_partial_zeta_value_is_minus_reciprocal_unit_order():
    data = PartialZetaData(
        r=2, deg_inf=2, unit_order=48,
        head=((1, 3), (3, 9), (5, 12)), C=25, ell_i=5,
    )
    assert partial_zeta_value(data) == Fraction(-1, 48)


def test_partial_zeta_rejects_bad_data():
    with pytest.raises(InvalidPartialDataError):
        partial_zeta_value(
            PartialZetaData(r=2, deg_inf=1, unit_order=24,
                            head=((0, 5),), C=7, ell_i=0)
        )
    with pytest.raises(InvalidPartialDataError):
        # nonzero coefficient breaking the congruence mod deg_inf
        partial_zeta_value(
            PartialZetaData(r=2, deg_inf=2, unit_order=4,
                            head=((1, 2), (4, 3)), C=6, ell_i=4)
        )
    with pytest.raises(InvalidPartialDataError):
        partial_zeta_value(
            PartialZetaData(r=2, deg_inf=1, unit_order=4,
                            head=((7, 2),), C=3, ell_i=4)
        )
    with pytest.raises(ValueError):
        partial_zeta_value(
            PartialZetaData(r=2, deg_inf=1, unit_order=4,
                            head=(), C=1, ell_i=0),
            at_zero=False,
        )


def test_partial_zeta_tail_recursion():
    for data in [
        PartialZetaData(r=2, deg_inf=1, unit_order=24, head=((0, 5),), C=6, ell_i=0),
        PartialZetaData(r=3, deg_inf=2, unit_order=2, head=((2, 4),), C=5, ell_i=2),
        PartialZetaData(r=1, deg_inf=1, unit_order=1, head=(), C=1, ell_i=0),
    ]:
        assert partial_zeta_tail_consistent(data, steps=3)
