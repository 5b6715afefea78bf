"""Ramification data: validation, definiteness, local factors, parsing."""

import pytest

from massform import csa
from massform.csa import (
    RamificationData,
    RamifiedPlace,
    ensure_valid,
    is_definite,
    is_drinfeld_type,
    lambda_v,
    lambda_value,
    parse_shorthand,
    shorthand,
    validate,
)
from massform.errors import InvalidRamificationError, NotDivisibleError
from massform.funcfield import FunctionFieldData


K2 = FunctionFieldData.rational(2)


def data(rank, places, field=K2):
    return RamificationData(field=field, rank=rank, places=tuple(places))


def inf_place(num, den, degree=1):
    return RamifiedPlace(degree, num, den, is_infinity=True)


STANDARD_R2 = data(2, [inf_place(1, 2), RamifiedPlace(1, 1, 2)])
DRINFELD_R3 = data(3, [inf_place(-1, 3), RamifiedPlace(1, 1, 3)])


# -- validation -----------------------------------------------------------

def test_validate_frozen_examples():
    assert validate(STANDARD_R2).ok
    assert validate(DRINFELD_R3).ok
    half_only = data(2, [inf_place(1, 2)])
    report = validate(half_only)
    assert not report.ok
    assert any("sum" in f for f in report.failures)


def test_validate_rejects_bad_invariants():
    report = validate(data(2, [inf_place(2, 2), RamifiedPlace(1, 1, 2)]))
    assert not report.ok           # 2/2 not coprime / out of range
    report = validate(data(2, [inf_place(0, 2), RamifiedPlace(1, 1, 2)]))
    assert not report.ok           # zero numerator
    report = validate(data(4, [inf_place(1, 4), RamifiedPlace(1, 1, 3)]))
    assert not report.ok           # 3 does not divide 4 (and sum breaks)
    report = validate(data(2, [inf_place(1, 1), RamifiedPlace(1, 1, 2)]))
    assert any("denominator must be >= 2" in f for f in report.failures)


def test_validate_requires_lcm_equal_rank():
    # both denominators 2, rank 4: every d divides r but lcm is 2
    report = validate(
        data(4, [inf_place(1, 2), RamifiedPlace(1, 1, 2)])
    )
    assert not report.ok
    assert any("lcm" in f for f in report.failures)


def test_validate_infinity_entry_constraints():
    two_inf = data(2, [inf_place(1, 2), inf_place(1, 2)])
    assert any("more than one" in f for f in validate(two_inf).failures)
    wrong_degree = data(2, [inf_place(1, 2, degree=2), RamifiedPlace(1, 1, 2)])
    assert any("degree" in f for f in validate(wrong_degree).failures)


def test_validate_availability_of_finite_places():
    # F_2 rational field has 3 degree-1 places; infinity eats one
    too_many = data(
        2,
        [
            inf_place(1, 2),
            RamifiedPlace(1, 1, 2),
            RamifiedPlace(1, 1, 2),
            RamifiedPlace(1, -1, 2),
        ],
    )
    report = validate(too_many)
    assert any("only 2 exist" in f for f in report.failures)
    # the infinity place occupies a degree-1 slot even when unramified
    no_inf_entry = data(
        2, [RamifiedPlace(1, 1, 2)] * 3 + [RamifiedPlace(2, 1, 2)]
    )
    assert any("only 2 exist" in f for f in validate(no_inf_entry).failures)
    # moving infinity to a degree-3 place frees all three degree-1 slots
    k_inf3 = FunctionFieldData.rational(2, deg_inf=3)
    ok_three = RamificationData(
        field=k_inf3,
        rank=2,
        places=tuple([RamifiedPlace(1, 1, 2)] * 3 + [RamifiedPlace(2, 1, 2)]),
    )
    assert validate(ok_three).ok


def test_validate_degenerate_rank_one():
    assert validate(data(1, [])).ok
    assert not validate(data(2, [])).ok      # lcm 1 != 2


def test_ensure_valid_raises_with_all_failures():
    bad = data(4, [inf_place(1, 4), RamifiedPlace(1, 1, 3)])
    with pytest.raises(InvalidRamificationError):
        ensure_valid(bad)
    ensure_valid(STANDARD_R2)


def test_ensure_valid_checks_each_datum_once(monkeypatch):
    calls = []
    real_validate = csa.validate

    def counting(datum, **kwargs):
        calls.append(datum)
        return real_validate(datum, **kwargs)

    monkeypatch.setattr(csa, "validate", counting)
    good = data(2, [inf_place(1, 2), RamifiedPlace(1, 1, 2)])
    for _ in range(3):
        ensure_valid(good)
    assert len(calls) == 1
    # an equal but distinct datum carries its own record
    ensure_valid(data(2, [inf_place(1, 2), RamifiedPlace(1, 1, 2)]))
    assert len(calls) == 2


def test_invalid_datum_raises_on_every_call():
    bad = data(4, [inf_place(1, 4), RamifiedPlace(1, 1, 3)])
    for _ in range(2):
        with pytest.raises(InvalidRamificationError, match="does not divide rank"):
            ensure_valid(bad)
    # the record never enters equality or the hash
    ensure_valid(STANDARD_R2)
    fresh = data(2, list(STANDARD_R2.places))
    assert fresh == STANDARD_R2 and hash(fresh) == hash(STANDARD_R2)


# -- definiteness / Drinfeld type ------------------------------------------

def test_is_definite_frozen_examples():
    assert is_definite(STANDARD_R2)
    indefinite = data(
        4,
        [
            inf_place(1, 2),
            RamifiedPlace(1, 1, 4),
            RamifiedPlace(1, 1, 4),
        ],
    )
    assert validate(indefinite).ok
    assert not is_definite(indefinite)
    no_inf = data(2, [RamifiedPlace(1, 1, 2), RamifiedPlace(1, -1, 2)])
    assert validate(no_inf).ok
    assert not is_definite(no_inf)


def test_rank_one_counts_as_definite():
    assert is_definite(data(1, []))


def test_is_drinfeld_type_frozen_examples():
    assert is_drinfeld_type(DRINFELD_R3)
    assert is_drinfeld_type(STANDARD_R2)      # -1/2 = 1/2 mod 1
    assert not is_drinfeld_type(data(1, []))
    three_places = data(
        2,
        [inf_place(1, 2), RamifiedPlace(1, 1, 2), RamifiedPlace(2, 1, 2)],
    )
    assert not is_drinfeld_type(three_places)
    positive_third = data(3, [inf_place(1, 3), RamifiedPlace(1, -1, 3)])
    assert validate(positive_third).ok
    assert not is_drinfeld_type(positive_third)   # 1/3 is not -1/3 mod 1


# -- lambda factors -----------------------------------------------------------

def test_lambda_frozen_examples():
    assert lambda_value(2, 2, 2) == 1
    assert lambda_value(2, 3, 3) == 3
    assert lambda_value(3, 4, 2) == 52          # (3-1)(27-1), i in {1,3}
    assert lambda_v(RamifiedPlace(1, 1, 2), 2, 2) == 1
    assert lambda_v(RamifiedPlace(2, 1, 2), 4, 3) == (9 - 1) * (9 ** 3 - 1)


def test_lambda_unramified_is_empty_product():
    for r in range(1, 9):
        assert lambda_value(5, r, 1) == 1


def test_lambda_positive_and_divisibility_guard():
    for norm in [2, 3, 4, 9]:
        for r in [2, 3, 4, 6]:
            for d in [2, 3, 6]:
                if r % d:
                    with pytest.raises(NotDivisibleError):
                        lambda_value(norm, r, d)
                else:
                    assert lambda_value(norm, r, d) >= 1


# -- parsing / serialization ---------------------------------------------------

def test_shorthand_round_trip():
    text = "inf:1/2,1:1/2"
    parsed = parse_shorthand(text, K2, rank=2)
    assert parsed == STANDARD_R2
    assert shorthand(parsed) == text
    assert parse_shorthand("", K2, rank=1) == data(1, [])


def test_shorthand_respects_deg_inf():
    k = FunctionFieldData.rational(2, deg_inf=2)
    parsed = parse_shorthand("inf:1/2,1:1/2", k, rank=2)
    assert parsed.infinite_place().degree == 2


def test_shorthand_rejects_garbage():
    with pytest.raises(InvalidRamificationError):
        parse_shorthand("inf=1/2", K2, rank=2)
    with pytest.raises(InvalidRamificationError):
        parse_shorthand("inf:1/2,x:1/2", K2, rank=2)
    with pytest.raises(InvalidRamificationError):
        parse_shorthand("inf:1", K2, rank=2)
