import random

import pytest

from massform import verify
from massform.algebra import PolyQ, TruncatedSeriesQ
from massform.csa import is_definite, validate
from massform.errors import InvalidFieldError
from massform.funcfield import FunctionFieldData
from massform.verify import (
    SuiteReport,
    _series_sample,
    battery_fields,
    definite_battery,
    full_battery,
    random_definite_data,
    random_product_field,
    run_suite,
    suite_report_to_json_dict,
)


def test_battery_fields_composition():
    fields = battery_fields()
    assert [f.q for f in fields] == [2, 3, 4, 5, 2]
    assert [f.genus for f in fields] == [0, 0, 0, 0, 1]


def test_definite_battery_all_valid_and_definite():
    for field in battery_fields():
        for data in definite_battery(field):
            assert validate(data).ok
            assert is_definite(data)
            assert len(data.places) in (2, 3)
            assert all(p.degree <= 3 for p in data.places)


def test_definite_battery_respects_missing_degree_three():
    # the genus-1 field has no degree-3 places at all
    genus_one = battery_fields()[-1]
    assert all(
        all(p.degree != 3 for p in data.places if not p.is_infinity)
        for data in definite_battery(genus_one)
    )


def test_full_battery_is_large_and_deterministic():
    battery = full_battery()
    assert len(battery) >= 100
    assert battery == full_battery()


def test_series_sample_covers_genus_one():
    sample = _series_sample()
    assert len(sample) >= 20
    assert any(data.field.genus == 1 for data in sample)


def test_random_definite_data_always_valid():
    rng = random.Random(99)
    for _ in range(50):
        data = random_definite_data(rng)
        assert validate(data).ok
        assert is_definite(data)


def test_random_definite_data_deterministic_per_seed():
    a = random_definite_data(random.Random(5))
    b = random_definite_data(random.Random(5))
    assert a == b


def test_random_product_field_valid_and_product_shaped():
    rng = random.Random(1)
    for _ in range(20):
        field = random_product_field(rng)
        assert field.genus >= 1
        assert len(field.l_poly.coeffs) == 2 * field.genus + 1


def test_product_of_valid_factors_can_be_invalid():
    # justifies the reroll inside random_product_field: this square of a
    # perfectly good degree-2 factor fails the place-count checks
    square = PolyQ((1, 1, 2)) * PolyQ((1, 1, 2))
    with pytest.raises(InvalidFieldError):
        FunctionFieldData(q=2, genus=2, l_poly=square, deg_inf=1)


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_suite_report_json_shape():
    report = SuiteReport(
        suite="demo", checked=3, failures=("x",), notes="n"
    )
    obj = suite_report_to_json_dict(report)
    assert obj == {
        "suite": "demo",
        "checked": 3,
        "ok": False,
        "failures": ["x"],
        "notes": "n",
    }
    assert not report.ok


def test_random_properties_fails_on_a_negative_coefficient(monkeypatch):
    real = verify.order_zeta_series

    def negated_top(data, order):
        coeffs = real(data, order).coeffs
        return TruncatedSeriesQ(order, coeffs[:-1] + (-coeffs[-1],))

    monkeypatch.setattr(verify, "order_zeta_series", negated_top)
    report = run_suite("random-properties", count=5)
    assert not report.ok
    assert len(report.failures) == 5
    assert ": coefficient 6 is -" in report.failures[0]


def test_series_closed_form_failure_names_first_differing_coefficient(monkeypatch):
    real = verify.order_zeta_series

    def perturbed(data, order):
        coeffs = list(real(data, order).coeffs)
        coeffs[5] += 1
        return TruncatedSeriesQ(order, tuple(coeffs))

    monkeypatch.setattr(verify, "order_zeta_series", perturbed)
    report = run_suite("series-closed-form", series_order=8)
    assert not report.ok
    assert len(report.failures) == report.checked
    first = _series_sample()[0]
    want = real(first, 8).coefficient(5)
    assert report.failures[0].endswith(
        f": u^5 coefficient {want + 1} in the Euler product, "
        f"{want} in the closed form"
    )
