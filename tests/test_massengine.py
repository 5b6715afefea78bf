"""Mass formula engine: factored mass, two-place normal form, class numbers."""

from fractions import Fraction

import pytest

from massform import massengine, orderzeta
from massform.csa import (
    RamificationData,
    RamifiedPlace,
    is_drinfeld_type,
    lambda_value,
    parse_shorthand,
)
from massform.errors import (
    InvalidRamificationError,
    NotDefiniteError,
)
from massform.funcfield import FunctionFieldData, zeta_special_value
from massform.massengine import (
    MassReport,
    drinfeld_mass,
    mass,
    mass_report_to_json_dict,
)
from massform.orderzeta import order_zeta_at_zero, order_zeta_closed_form
from massform.algebra import PolyQ
from massform.errors import rational_to_str
from test_orderzeta import (
    DEG_INF2_R4,
    cyclotomic_reading_one_at_one,
    on_a_fresh_field,
    reference_closed_form,
    reference_stream,
    value_at,
)

K2 = FunctionFieldData.rational(2)
K2_G1 = FunctionFieldData(q=2, genus=1, l_poly=PolyQ((1, 1, 2)), deg_inf=1)


def reference_zeta_value(field, i):
    """zeta_K(-i) by Fraction Horner."""
    qi = Fraction(field.q) ** i
    return field.l_poly.eval(qi) / ((1 - qi) * (1 - qi * field.q))


def reference_mass(data):
    """The mass and its printed audit, every factor built in Fractions:
    Fraction Horner per zeta_K(-i), then a Fraction product of every
    factor."""
    field = data.field
    h_factor = Fraction(field.deg_inf * field.l_poly.eval(1), field.q - 1)
    zetas = tuple(reference_zeta_value(field, i) for i in range(1, data.rank))
    lambdas = tuple(
        (p.shorthand_token(), lambda_value(field.q ** p.degree, data.rank, p.inv_den))
        for p in data.places
    )
    total = h_factor
    for z in zetas:
        total *= z
    for _, lam in lambdas:
        total *= lam
    return total, {
        "mass": rational_to_str(total),
        "class_number_factor": rational_to_str(h_factor),
        "zeta_factors": [rational_to_str(z) for z in zetas],
        "lambda_factors": [{"place": token, "lambda": str(lam)} for token, lam in lambdas],
        "definite": True,
        "drinfeld_type": is_drinfeld_type(data),
    }


def audit(data):
    """The factor audit `massform mass` prints for the datum."""
    return mass_report_to_json_dict(mass(data))


def test_mass_matches_fraction_reference():
    fields, count = set(), 0
    for data in reference_stream():
        total, printed = reference_mass(data)
        report = mass(data)
        assert report == MassReport(data, total), (data.field, data.rank, data.places)
        assert mass_report_to_json_dict(report) == printed
        assert order_zeta_at_zero(data) == -total
        fields.add(data.field)
        count += 1
    assert count == 1772
    for field in fields:
        for i in range(1, 9):
            assert zeta_special_value(field, i) == reference_zeta_value(field, i), (field, i)


def test_dropped_zeta_denominator_factor_fails_the_reference(monkeypatch):
    # zeta_K(-i) with |1 - q^(i+1)| dropped from its denominator; the sign
    # is kept, or the positivity check would fire first
    def dropped(field, i):
        return reference_zeta_value(field, i) * (field.q ** (i + 1) - 1)

    monkeypatch.setattr(massengine, "zeta_special_value", dropped)
    for data in [
        parse_shorthand("inf:1/2,1:1/2", K2, rank=2),
        parse_shorthand("inf:-1/3,1:1/3", K2, rank=3),
        parse_shorthand("inf:1/2,1:1/2", K2_G1, rank=2),
    ]:
        total, printed = reference_mass(data)
        assert mass(data).mass != total
        assert audit(data) != printed
        assert mass(data).mass != -order_zeta_at_zero(data)


def test_mass_frozen_rank_two():
    report = mass(parse_shorthand("inf:1/2,1:1/2", K2, rank=2))
    assert report.mass == Fraction(1, 3)
    obj = mass_report_to_json_dict(report)
    assert obj["class_number_factor"] == "1"
    assert obj["zeta_factors"] == ["1/3"]
    assert obj["lambda_factors"] == [
        {"place": "inf:1/2", "lambda": "1"}, {"place": "1:1/2", "lambda": "1"},
    ]
    assert obj["definite"] is True and obj["drinfeld_type"] is True


def test_mass_frozen_rank_three():
    report = mass(parse_shorthand("inf:-1/3,1:1/3", K2, rank=3))
    assert report.mass == Fraction(1, 7)
    obj = mass_report_to_json_dict(report)
    assert obj["zeta_factors"] == ["1/3", "1/21"]
    assert obj["lambda_factors"] == [
        {"place": "inf:-1/3", "lambda": "3"}, {"place": "1:1/3", "lambda": "3"},
    ]


def test_mass_frozen_genus_one():
    report = mass(parse_shorthand("inf:1/2,1:1/2", K2_G1, rank=2))
    assert report.mass == Fraction(44, 3)
    obj = mass_report_to_json_dict(report)
    assert obj["class_number_factor"] == "4"
    assert obj["zeta_factors"] == ["11/3"]


def test_mass_rank_one_degenerate():
    report = mass(RamificationData(field=K2_G1, rank=1, places=()))
    assert report.mass == 4               # h(A)/(q-1) alone
    obj = mass_report_to_json_dict(report)
    assert obj["zeta_factors"] == []
    assert obj["lambda_factors"] == []


def test_mass_rejects_indefinite_and_invalid():
    indefinite = parse_shorthand("1:1/2,1:-1/2", K2, rank=2)
    with pytest.raises(NotDefiniteError):
        mass(indefinite)
    # invalid data never reaches mass: its constructor refuses it
    with pytest.raises(InvalidRamificationError):
        parse_shorthand("inf:1/2", K2, rank=2)


def test_mass_report_recomposition():
    count = 0
    for data in reference_stream():
        obj = audit(data)
        product = Fraction(obj["class_number_factor"])
        for z in obj["zeta_factors"]:
            product *= Fraction(z)
        for entry in obj["lambda_factors"]:
            product *= int(entry["lambda"])
        assert product == Fraction(obj["mass"]) > 0, (data.field, data.rank, data.places)
        count += 1
    assert count == 1772


def test_mass_builds_no_audit(monkeypatch):
    # the place tokens and the Drinfeld shape are read only when printed
    def boom(*_):
        raise AssertionError("mass built the audit")

    want = [reference_mass(data)[0] for data in CONTROL_DATA]
    monkeypatch.setattr(massengine, "is_drinfeld_type", boom)
    monkeypatch.setattr(RamifiedPlace, "shorthand_token", boom)
    assert [mass(data).mass for data in CONTROL_DATA] == want


def test_drinfeld_mass_frozen_examples():
    assert drinfeld_mass(K2, 2, 1) == Fraction(1, 3)
    assert drinfeld_mass(K2, 2, 2) == 1
    assert drinfeld_mass(K2, 2, 3) == Fraction(7, 3)
    assert drinfeld_mass(FunctionFieldData.rational(3), 2, 1) == Fraction(1, 8)


def test_drinfeld_mass_equals_factored_mass():
    for q in [2, 3, 4]:
        field = FunctionFieldData.rational(q)
        for r in [2, 3, 4]:
            for deg_p in [1, 2, 3]:
                data = RamificationData(
                    field=field,
                    rank=r,
                    places=(
                        RamifiedPlace(1, -1, r, is_infinity=True),
                        RamifiedPlace(deg_p, 1, r),
                    ),
                )
                assert mass(data).mass == drinfeld_mass(field, r, deg_p), (q, r, deg_p)


def test_drinfeld_mass_missing_place():
    with pytest.raises(InvalidRamificationError):
        drinfeld_mass(K2_G1, 2, 3)        # genus-1 field: no degree-3 places
    with pytest.raises(InvalidRamificationError):
        drinfeld_mass(K2, 1, 1)


def test_mass_report_json_shape():
    report = mass(parse_shorthand("inf:-1/3,1:1/3", K2, rank=3))
    obj = mass_report_to_json_dict(report)
    assert obj["mass"] == "1/7"
    assert obj["zeta_factors"] == ["1/3", "1/21"]
    assert obj["lambda_factors"][0] == {"place": "inf:-1/3", "lambda": "3"}
    assert obj["definite"] is True and obj["drinfeld_type"] is True


# -- memos: each path keeps its own, and none masks a fault ------------------

CONTROL_DATA = (
    parse_shorthand("inf:1/2,1:1/2", K2, rank=2),
    parse_shorthand("inf:-1/3,1:1/3", K2, rank=3),
    parse_shorthand("inf:1/2,1:1/2", K2_G1, rank=2),
)


def test_warm_memos_leave_the_negative_controls_biting(monkeypatch):
    want = order_zeta_at_zero(DEG_INF2_R4)
    for data in (*CONTROL_DATA, DEG_INF2_R4):
        assert mass(data).mass == -order_zeta_at_zero(data)
    assert K2._zeta_values and K2_G1._zeta_values
    assert orderzeta._cyclotomic.cache_info().currsize > 0

    def dropped(field, i):
        return reference_zeta_value(field, i) * (field.q ** (i + 1) - 1)

    monkeypatch.setattr(massengine, "zeta_special_value", dropped)
    monkeypatch.setattr(orderzeta, "_cyclotomic", cyclotomic_reading_one_at_one)
    for data in CONTROL_DATA:
        total, printed = reference_mass(data)
        assert mass(data).mass != total
        assert audit(data) != printed
        assert mass(data).mass != -order_zeta_at_zero(data)
    assert order_zeta_at_zero(on_a_fresh_field(DEG_INF2_R4)) != want


def test_zeta_memo_stays_off_equality_and_out_of_copies():
    mass(CONTROL_DATA[1])
    copy = FunctionFieldData(K2.q, K2.genus, K2.l_poly, K2.deg_inf)
    assert K2._zeta_values and copy._zeta_values == {}
    assert copy == K2 and hash(copy) == hash(K2)
    assert "_zeta_values" not in repr(K2)


def test_closed_form_memo_stays_off_equality_and_out_of_copies():
    order_zeta_at_zero(CONTROL_DATA[2])
    copy = FunctionFieldData(K2_G1.q, K2_G1.genus, K2_G1.l_poly, K2_G1.deg_inf)
    for name in ("_closed_form_values", "_closed_form_parts"):
        assert getattr(K2_G1, name) and getattr(copy, name) == {}, name
        assert name not in repr(K2_G1)
    assert copy == K2_G1 and hash(copy) == hash(K2_G1)


def test_a_poisoned_closed_form_memo_moves_only_the_closed_form():
    field = FunctionFieldData(K2_G1.q, K2_G1.genus, K2_G1.l_poly, K2_G1.deg_inf)
    data = parse_shorthand("inf:1/2,1:1/2", field, rank=2)
    want = mass(data)
    assert want.mass == -order_zeta_at_zero(data)
    # P(q u) at u = 1: P(2) = 1 + 2 + 8
    assert field._closed_form_values[1, 0] == 11
    # the value reads its parts: prod_{j < 2} zeta_A(q^j u) at u = 1 is
    # P(1) P(2) / ((1 - 2)(1 - 4)), the place's correction 1 - qu is -1
    assert field._closed_form_parts == {2: (44, 3), (1, 2, 2): -1}
    field._closed_form_parts[2] = (88, 3)
    assert order_zeta_at_zero(data) != -want.mass
    assert mass(data) == want == MassReport(data, reference_mass(data)[0])
    assert audit(data) == reference_mass(data)[1]


def test_a_poisoned_zeta_memo_moves_only_the_mass():
    field = FunctionFieldData(K2.q, K2.genus, K2.l_poly, K2.deg_inf)
    data = parse_shorthand("inf:-1/3,1:1/3", field, rank=3)
    assert mass(data).mass == -order_zeta_at_zero(data)
    field._zeta_values[1] *= 2
    total, printed = reference_mass(data)
    assert mass(data).mass != total
    assert audit(data) != printed
    assert mass(data).mass != -order_zeta_at_zero(data)
    want = reference_closed_form(data)
    assert order_zeta_closed_form(data) == want
    assert order_zeta_at_zero(data) == value_at(want, 1)
    assert mass(CONTROL_DATA[1]).mass == -order_zeta_at_zero(CONTROL_DATA[1])
