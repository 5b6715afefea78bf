import random
from fractions import Fraction
from math import gcd

import pytest

from massform import csa, orderzeta, verify
from massform.algebra import PolyQ, TruncatedSeriesQ
from massform.csa import RamificationData, RamifiedPlace, is_definite
from massform.errors import InternalConsistencyError, InvalidFieldError
from massform.funcfield import FunctionFieldData, finite_places_of_degree
from massform.verify import (
    BATTERY_RANKS,
    _deg_inf_fields,
    _series_sample,
    battery_fields,
    definite_battery,
    full_battery,
    random_product_field,
    run_suite,
)


def test_battery_fields_composition():
    fields = battery_fields()
    assert [f.q for f in fields] == [2, 3, 4, 5, 2]
    assert [f.genus for f in fields] == [0, 0, 0, 0, 1]


def test_definite_battery_all_valid_and_definite():
    for field in battery_fields():
        for data in definite_battery(field):
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


def reference_battery(field, ranks):
    """definite_battery written out with the invariant sum in Fractions."""
    degrees = [delta for delta in (1, 2, 3) if finite_places_of_degree(field, delta)]
    out = []
    for r in ranks:
        for b0 in (b for b in range(1, r) if gcd(b, r) == 1):
            inf = RamifiedPlace(field.deg_inf, b0, r, is_infinity=True)
            out += [
                RamificationData(field, r, (inf, RamifiedPlace(delta, (r - b0) % r, r)))
                for delta in degrees
            ]
            specs = [
                (delta, d, b)
                for delta in degrees
                for d in range(2, r + 1) if r % d == 0
                for b in range(1, d) if gcd(b, d) == 1
            ]
            for i, (delta1, d1, b1) in enumerate(specs):
                for delta2, d2, b2 in specs[i:]:
                    if delta1 == delta2 and finite_places_of_degree(field, delta1) < 2:
                        continue
                    if (Fraction(b0, r) + Fraction(b1, d1) + Fraction(b2, d2)).denominator == 1:
                        places = (inf, RamifiedPlace(delta1, b1, d1), RamifiedPlace(delta2, b2, d2))
                        out.append(RamificationData(field, r, places))
    return out


def test_battery_equals_the_fraction_reference():
    for field in [*battery_fields(), *_deg_inf_fields()]:
        battery = definite_battery(field, BATTERY_RANKS)
        assert battery == reference_battery(field, BATTERY_RANKS), field
    assert len(full_battery()) == 384


def test_full_battery_is_large_and_deterministic():
    battery = full_battery()
    assert len(battery) >= 100
    assert battery == full_battery()


def test_battery_data_are_validated_once(monkeypatch):
    # the battery and both engines together run validate once per datum,
    # under whichever name they call it
    calls = []
    real = csa.validate

    def counted(data):
        calls.append(data)
        return real(data)

    for module in (csa, verify):
        if hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", counted)
    battery = full_battery()
    for data in battery:
        verify.mass(data)
        verify.order_zeta_closed_form(data)
    assert len(battery) == 384
    assert len(calls) == 384


def test_battery_gate_still_refuses_invalid_data():
    # three degree-1 finite places over F_2, where infinity leaves two;
    # a refusal raises on every call
    field = FunctionFieldData.rational(2)
    places = (
        RamifiedPlace(1, 1, 2, is_infinity=True),
        RamifiedPlace(1, 1, 2),
        RamifiedPlace(1, 1, 2),
        RamifiedPlace(1, 1, 2),
    )
    for _ in range(2):
        with pytest.raises(
            InternalConsistencyError,
            match="battery produced invalid data inf:1/2,1:1/2,1:1/2,1:1/2: .*only 2 exist",
        ):
            verify._battery_datum(field, 2, places)
    valid = verify._battery_datum(field, 2, places[:2])
    assert (valid.field, valid.rank, valid.places) == (field, 2, places[:2])


def test_series_sample_covers_genus_one():
    sample = _series_sample()
    assert len(sample) >= 20
    assert any(data.field.genus == 1 for data in sample)


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


def test_suite_report_json_shape(monkeypatch):
    outcomes = {"demo": (3, ["x"], "n"), "empty": (0, [], ""), "clean": (2, [], "")}
    monkeypatch.setattr(
        verify, "SUITES", {name: lambda o=o: o for name, o in outcomes.items()}
    )
    obj = run_suite("demo")
    assert list(obj) == ["suite", "checked", "ok", "failures", "notes"]
    assert obj == {
        "suite": "demo",
        "checked": 3,
        "ok": False,
        "failures": ["x"],
        "notes": "n",
    }
    # a suite that checked nothing does not pass
    assert run_suite("empty")["ok"] is False
    assert run_suite("clean")["ok"] is True


def test_series_closed_form_failure_names_first_differing_coefficient(monkeypatch):
    real = verify.order_zeta_series

    def perturbed(data, order):
        coeffs = list(real(data, order).coeffs)
        coeffs[5] += 1
        return TruncatedSeriesQ(order, tuple(coeffs))

    monkeypatch.setattr(verify, "order_zeta_series", perturbed)
    report = run_suite("series-closed-form", series_order=8)
    assert not report["ok"]
    assert len(report["failures"]) == report["checked"]
    first = _series_sample()[0]
    want = real(first, 8).coeffs[5]
    assert report["failures"][0].endswith(
        f": u^5 coefficient {want + 1} in the Euler product, "
        f"{want} in the closed form"
    )


def test_series_closed_form_third_path_runs_on_q2_and_can_fail(monkeypatch):
    report = run_suite("series-closed-form", series_order=12)
    assert report["ok"]
    assert report["notes"] == "order 12; place by place on q = 2 to order 8"
    q2 = [data for data in _series_sample() if data.field.q == 2]
    assert len(q2) == 32
    real = verify.place_by_place_series

    def perturbed(data, order):
        coeffs = list(real(data, order))
        coeffs[order] += 1
        return tuple(coeffs)

    monkeypatch.setattr(verify, "place_by_place_series", perturbed)
    report = run_suite("series-closed-form", series_order=12)
    assert len(report["failures"]) == len(q2)
    want = real(q2[0], 8)[8]
    assert report["failures"][0].endswith(
        f": u^8 coefficient {want + 1} place by place, {want} in the closed form"
    )


def test_series_closed_form_fails_on_a_mutated_closed_form(monkeypatch):
    def extra_factor(data):
        exponents = orderzeta._exponents(data)
        exponents[1, 1] = exponents.get((1, 1), 0) + 1      # one more 1 - qu
        return orderzeta._expand(data.field, exponents)

    monkeypatch.setattr(verify, "order_zeta_closed_form", extra_factor)
    report = run_suite("series-closed-form", series_order=8)
    q2 = sum(1 for data in _series_sample() if data.field.q == 2)
    # every datum fails against the Euler product, the q = 2 data also
    # against the place-by-place series
    assert len(report["failures"]) == report["checked"] + q2
    assert sum("place by place" in failure for failure in report["failures"]) == q2
