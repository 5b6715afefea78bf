"""Ramification data: validation at construction, definiteness, local
factors, parsing."""

import random

import pytest

from massform import csa
from massform.algebra import PolyQ
from massform.csa import (
    RamificationData,
    RamifiedPlace,
    is_definite,
    is_drinfeld_type,
    lambda_value,
    parse_shorthand,
    shorthand,
)
from massform.errors import InvalidRamificationError, NotDefiniteError, NotDivisibleError
from massform.funcfield import FunctionFieldData
from massform.massengine import mass
from massform.orderzeta import (
    order_zeta_at_zero,
    order_zeta_closed_form,
    order_zeta_series,
    place_by_place_series,
)
from massform.verify import GENUS_ONE_L_POLY


K2 = FunctionFieldData.rational(2)

# draws of the random-data property test, about one second's worth
DRAWS = 60000


def data(rank, places, field=K2):
    return RamificationData(field=field, rank=rank, places=tuple(places))


def inf_place(num, den, degree=1):
    return RamifiedPlace(degree, num, den, is_infinity=True)


STANDARD_R2 = data(2, [inf_place(1, 2), RamifiedPlace(1, 1, 2)])
DRINFELD_R3 = data(3, [inf_place(-1, 3), RamifiedPlace(1, 1, 3)])


# -- validation -----------------------------------------------------------

def refusal(rank, places, field=K2) -> str:
    """The message with which the constructor refuses the datum."""
    with pytest.raises(InvalidRamificationError) as info:
        data(rank, places, field)
    return str(info.value)


def test_validate_frozen_examples():
    data(2, [inf_place(1, 2), RamifiedPlace(1, 1, 2)])
    data(3, [inf_place(-1, 3), RamifiedPlace(1, 1, 3)])
    assert "sum" in refusal(2, [inf_place(1, 2)])


def test_validate_rejects_bad_invariants():
    # 2/2 not coprime / out of range
    assert "numerator" in refusal(2, [inf_place(2, 2), RamifiedPlace(1, 1, 2)])
    # zero numerator
    assert "nonzero" in refusal(2, [inf_place(0, 2), RamifiedPlace(1, 1, 2)])
    # 3 does not divide 4 (and sum breaks)
    assert "does not divide rank" in refusal(4, [inf_place(1, 4), RamifiedPlace(1, 1, 3)])
    assert "denominator must be >= 2" in refusal(2, [inf_place(1, 1), RamifiedPlace(1, 1, 2)])


def test_validate_requires_lcm_equal_rank():
    # both denominators 2, rank 4: every d divides r but lcm is 2
    assert "lcm" in refusal(4, [inf_place(1, 2), RamifiedPlace(1, 1, 2)])


def test_validate_infinity_entry_constraints():
    assert "more than one" in refusal(2, [inf_place(1, 2), inf_place(1, 2)])
    wrong_degree = [inf_place(1, 2, degree=2), RamifiedPlace(1, 1, 2)]
    assert "infinity entry has degree 2" in refusal(2, wrong_degree)


def test_validate_availability_of_finite_places():
    # F_2 rational field has 3 degree-1 places; infinity eats one
    too_many = [
        inf_place(1, 2),
        RamifiedPlace(1, 1, 2),
        RamifiedPlace(1, 1, 2),
        RamifiedPlace(1, -1, 2),
    ]
    assert "only 2 exist" in refusal(2, too_many)
    # the infinity place occupies a degree-1 slot even when unramified
    no_inf_entry = [RamifiedPlace(1, 1, 2)] * 3 + [RamifiedPlace(2, 1, 2)]
    assert "only 2 exist" in refusal(2, no_inf_entry)
    # moving infinity to a degree-3 place frees all three degree-1 slots
    k_inf3 = FunctionFieldData.rational(2, deg_inf=3)
    data(2, no_inf_entry, field=k_inf3)


def test_validate_degenerate_rank_one():
    data(1, [])
    assert "lcm of invariant denominators is 1" in refusal(2, [])


def test_construction_raises_with_all_failures():
    message = refusal(4, [inf_place(1, 4), RamifiedPlace(1, 1, 3)])
    assert message.split("; ") == [
        "place[1] 1:1/3: denominator 3 does not divide rank 4",
        "invariants sum to 7/12, not an integer",
        "lcm of invariant denominators is 12, must equal rank 4",
    ]
    # the rank cap too, and a negative numerator written as given
    message = refusal(7, [inf_place(1, 2), RamifiedPlace(3, -1, 9)])
    assert message.split("; ") == [
        "rank 7 is above the cap 6",
        "place[0] inf:1/2: denominator 2 does not divide rank 7",
        "place[1] 3:-1/9: denominator 9 does not divide rank 7",
        "invariants sum to 7/18, not an integer",
        "lcm of invariant denominators is 18, must equal rank 7",
    ]


def test_each_construction_runs_validate_once(monkeypatch):
    calls = []
    real_validate = csa.validate

    def counting(datum):
        calls.append(datum)
        return real_validate(datum)

    monkeypatch.setattr(csa, "validate", counting)
    good = data(2, [inf_place(1, 2), RamifiedPlace(1, 1, 2)])
    assert calls == [good]
    # the engines trust the constructor and never check again
    mass(good)
    order_zeta_closed_form(good)
    order_zeta_series(good, 4)
    place_by_place_series(good, 4)
    assert len(calls) == 1
    # an equal but distinct datum is checked by its own constructor
    data(2, [inf_place(1, 2), RamifiedPlace(1, 1, 2)])
    assert len(calls) == 2


def test_invalid_datum_raises_on_every_call():
    bad = [inf_place(1, 4), RamifiedPlace(1, 1, 3)]
    for _ in range(2):
        assert "does not divide rank" in refusal(4, bad)
    # a datum holds its compared fields and nothing else
    assert RamificationData.__slots__ == RamificationData._fields
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
    assert not is_definite(indefinite)
    no_inf = data(2, [RamifiedPlace(1, 1, 2), RamifiedPlace(1, -1, 2)])
    assert not is_definite(no_inf)


def test_rank_one_counts_as_definite():
    assert is_definite(data(1, []))


def test_is_drinfeld_type_frozen_examples():
    assert is_drinfeld_type(DRINFELD_R3)
    assert is_drinfeld_type(STANDARD_R2)      # -1/2 = 1/2 mod 1
    assert not is_drinfeld_type(data(1, []))
    three_places = data(
        3,
        [inf_place(1, 3), RamifiedPlace(1, 1, 3), RamifiedPlace(2, 1, 3)],
    )
    assert not is_drinfeld_type(three_places)
    positive_third = data(3, [inf_place(1, 3), RamifiedPlace(1, -1, 3)])
    assert not is_drinfeld_type(positive_third)   # 1/3 is not -1/3 mod 1


# -- lambda factors -----------------------------------------------------------

def test_lambda_frozen_examples():
    assert lambda_value(2, 2, 2) == 1
    assert lambda_value(2, 3, 3) == 3
    assert lambda_value(3, 4, 2) == 52          # (3-1)(27-1), i in {1,3}
    assert lambda_value(2 ** 1, 2, 2) == 1
    assert lambda_value(3 ** 2, 4, 2) == (9 - 1) * (9 ** 3 - 1)


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


# -- every drawn datum either constructs and computes, or is refused ----------

def test_random_data_construct_and_compute_or_are_refused():
    # ranks, degrees and invariants reach past every bound the
    # constructor checks; what it builds, each engine must compute, and
    # the two routes to zeta_O(0) and the two series must agree
    fields = (
        K2,
        FunctionFieldData.rational(3, deg_inf=2),
        FunctionFieldData(q=2, genus=1, l_poly=PolyQ(GENUS_ONE_L_POLY), deg_inf=1),
        FunctionFieldData.rational(4, deg_inf=3),
    )
    rng = random.Random(20261019)
    refused = definite = 0
    for _ in range(DRAWS):
        field = rng.choice(fields)
        rank = rng.randint(-1, 7)
        places = [
            RamifiedPlace(
                rng.choice((-1, 0, 1, 2, 3, 4, 129)),
                rng.randint(-7, 7),
                rng.randint(-2, 7),
                is_infinity=rng.random() < 0.25,
            )
            for _ in range(rng.randint(0, 4))
        ]
        try:
            datum = data(rank, places, field)
        except InvalidRamificationError:
            refused += 1
            continue
        if not is_definite(datum):
            # rare under these draws; the engines must refuse it by type
            for engine in (mass, order_zeta_closed_form, lambda d: order_zeta_series(d, 6)):
                with pytest.raises(NotDefiniteError):
                    engine(datum)
            continue
        definite += 1
        total = mass(datum).mass
        assert order_zeta_at_zero(datum) == -total
        series = order_zeta_series(datum, 6).coeffs
        if field.q == 2:
            assert place_by_place_series(datum, 6) == series
    assert refused and definite
