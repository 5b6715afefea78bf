"""Base field data: validation, zeta values, class numbers, place counts."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt

import pytest

from massform import funcfield
from massform.algebra import PolyQ, ratfun
from massform.errors import (
    MAX_PLACE_DEGREE,
    InternalConsistencyError,
    InvalidArgumentError,
    InvalidFieldError,
)
from massform.finitefield import enumerate_monic_irreducibles
from massform.funcfield import (
    CHECKED_DEGREES,
    MAX_GENUS,
    FunctionFieldData,
    _trace_polynomial,
    class_number_A,
    field_from_json_dict,
    places_of_degree,
    real_roots_within,
    zeta_A,
    zeta_K,
    zeta_special_value,
)
from massform.verify import full_battery
from test_orderzeta import DEG_INF_FIELDS, NON_WEIL, non_weil_field, value_at

GENUS1_P = PolyQ((1, 1, 2))    # a genus-1 count polynomial over F_2


def genus1_field(deg_inf=1):
    return FunctionFieldData(q=2, genus=1, l_poly=GENUS1_P, deg_inf=deg_inf)


# -- construction / validation ----------------------------------------------

def test_rational_field_construction():
    k = FunctionFieldData.rational(2)
    assert (k.q, k.genus, k.deg_inf) == (2, 0, 1)
    assert k.l_poly.coeffs == (1,)


def test_rejects_non_prime_power_q():
    with pytest.raises(InvalidFieldError):
        FunctionFieldData.rational(6)


def test_rejects_degree_genus_mismatch():
    with pytest.raises(InvalidFieldError):
        FunctionFieldData(q=2, genus=1, l_poly=PolyQ.one(), deg_inf=1)
    with pytest.raises(InvalidFieldError):
        FunctionFieldData(q=2, genus=0, l_poly=GENUS1_P, deg_inf=1)


def test_rejects_bad_constant_term():
    with pytest.raises(InvalidFieldError):
        FunctionFieldData(q=2, genus=1, l_poly=PolyQ((2, 2, 4)), deg_inf=1)


def test_rejects_broken_coefficient_symmetry():
    # a_2 must equal q * a_0 = 2
    with pytest.raises(InvalidFieldError):
        FunctionFieldData(q=2, genus=1, l_poly=PolyQ((1, 1, 3)), deg_inf=1)


def test_rejects_negative_place_counts():
    # (1 - 2T + 2T^2)^3 is a Weil 2-polynomial, but N_1 = 3 - 6 < 0
    p = PolyQ((1, -2, 2)) * PolyQ((1, -2, 2)) * PolyQ((1, -2, 2))
    assert weil(p, 2)
    with pytest.raises(InvalidFieldError, match="degree-1 place count is negative"):
        FunctionFieldData(q=2, genus=3, l_poly=p, deg_inf=1)


def test_rejects_missing_infinity_degree():
    # the genus-1 field above has no degree-3 places at all
    assert places_of_degree(genus1_field(), 3) == 0
    with pytest.raises(InvalidFieldError):
        genus1_field(deg_inf=3)


def test_accepts_deg_inf_beyond_checked_degrees():
    k = FunctionFieldData.rational(2, deg_inf=CHECKED_DEGREES + 1)
    assert k.deg_inf == CHECKED_DEGREES + 1


def test_deg_inf_cap_from_each_side(monkeypatch):
    assert FunctionFieldData.rational(2, deg_inf=MAX_PLACE_DEGREE).deg_inf == MAX_PLACE_DEGREE

    def boom(self, upto):
        raise AssertionError("places counted before the deg_inf cap")

    monkeypatch.setattr(FunctionFieldData, "_compute_place_counts", boom)
    for deg_inf in (MAX_PLACE_DEGREE + 1, 4000):
        with pytest.raises(InvalidFieldError, match=f"deg_inf {deg_inf} is above the cap"):
            FunctionFieldData.rational(2, deg_inf=deg_inf)


# -- the Weil test --------------------------------------------------------------

def weil(p, q):
    """The Weil test on a symmetric P of degree 2g."""
    return real_roots_within(_trace_polynomial(p, q, p.degree // 2), q)


def power_sum_oracle(p, q, upto=200):
    """s_n^2 <= 4 g^2 q^n for n <= upto, in integers, where s_n is the n-th
    power sum of P's inverse roots: |s_n| <= 2g q^(n/2) for a Weil P, and
    an inverse root of absolute value above sqrt(q) soon breaks it."""
    a, deg, s = p.coeffs, p.degree, [0]
    for n in range(1, upto + 1):
        acc = n * a[n] if n <= deg else 0
        acc += sum(a[k] * s[n - k] for k in range(1, min(n - 1, deg) + 1))
        s.append(-acc)
    return all(s[n] ** 2 <= deg * deg * q ** n for n in range(1, upto + 1))


def test_weil_test_rejects_non_weil_polynomials():
    # 1 - 2T + 8T^2 - 6T^3 + 9T^4 has inverse roots of absolute value 1.29
    # and 2.33, not sqrt(3); 1 + 7T + 9T^2 is one past the edge a = 2 sqrt(9)
    cases = [(3, PolyQ((1, -2, 8, -6, 9))), (2, PolyQ((1, 3, 2))), (9, PolyQ((1, 7, 9))),
             *((2, p) for p in NON_WEIL)]
    for q, p in cases:
        assert not weil(p, q) and not power_sum_oracle(p, q), p
        with pytest.raises(InvalidFieldError, match=f"not a Weil {q}-polynomial"):
            FunctionFieldData(q=q, genus=p.degree // 2, l_poly=p, deg_inf=1)


def test_weil_test_accepts_products_of_weil_factors():
    # |a| <= 2 sqrt(q), so a = +-2 sqrt(q) at the square q, and factors repeat
    accepted = 0
    for q in (2, 3, 4, 5, 9):
        bound = isqrt(4 * q)
        for genus in range(4):
            for a_s in combinations_with_replacement(range(-bound, bound + 1), genus):
                p = PolyQ.one()
                for a in a_s:
                    p = p * PolyQ((1, a, q))
                assert weil(p, q), (q, a_s)
                try:
                    FunctionFieldData(q=q, genus=genus, l_poly=p, deg_inf=1)
                except InvalidFieldError as exc:
                    assert "place" in str(exc) and "Weil" not in str(exc), (q, a_s)
                    continue
                accepted += 1
    assert accepted > 500


def test_weil_test_agrees_with_the_power_sum_oracle():
    rng = random.Random(2024)
    verdicts = []
    for _ in range(1000):
        q, genus = rng.choice((2, 3, 4, 5, 7, 9)), rng.randint(1, 4)
        low = [1] + [rng.randint(-6 * isqrt(q ** i), 6 * isqrt(q ** i)) for i in range(1, genus + 1)]
        p = PolyQ(low + [q ** (genus - i) * low[i] for i in range(genus - 1, -1, -1)])
        verdicts.append(weil(p, q))
        assert verdicts[-1] == power_sum_oracle(p, q), (q, p)
    assert 100 < sum(verdicts) < 900


def rueck_oracle(q, a):
    """Whether 1 + a_1 T + qT^2 (genus 1) or 1 + a_1 T + a_2 T^2 + q a_1 T^3
    + q^2 T^4 (genus 2) is a Weil q-polynomial, by Rueck's inequalities in
    integers (Compositio Math. 76, 1990): h(x) = x + a_1, or
    x^2 + a_1 x + a_2 - 2q, has its roots real in [-2 sqrt(q), 2 sqrt(q)]."""
    if len(a) == 1:
        return a[0] ** 2 <= 4 * q
    a1, a2 = a
    return (a1 * a1 <= 16 * q and 4 * a2 <= a1 * a1 + 8 * q and a2 + 2 * q >= 0
            and 4 * a1 * a1 * q <= (a2 + 2 * q) ** 2)


def test_weil_test_agrees_with_rueck_on_boxes_around_the_bounds():
    # each box encloses the bounds by a margin; the square q put roots at
    # the interval's ends, as a_1^2 = 4q, a_1^2 = 16q or a_2 + 2q = 2|a_1| sqrt(q)
    weil_count = checked = 0
    for q in (2, 3, 4, 5, 9, 16, 25):
        b1, b2 = isqrt(4 * q) + 2, isqrt(16 * q) + 2
        boxes = [(a1,) for a1 in range(-b1, b1 + 1)]
        boxes += [(a1, a2) for a1 in range(-b2, b2 + 1) for a2 in range(-2 * q - 2, 6 * q + 3)]
        for a in boxes:
            genus = len(a)
            low = (1, *a)
            p = PolyQ(low + tuple(q ** (genus - i) * low[i] for i in range(genus - 1, -1, -1)))
            want = rueck_oracle(q, a)
            assert weil(p, q) == want, (q, a)
            try:
                FunctionFieldData(q=q, genus=genus, l_poly=p, deg_inf=1)
                refused_as_non_weil = False
            except InvalidFieldError as exc:
                refused_as_non_weil = "not a Weil" in str(exc)
            assert refused_as_non_weil == (not want), (q, a)
            weil_count += want and genus == 2
            checked += 1
    assert (checked, weil_count) == (19018, 2723)


def test_coefficient_bound_refuses_before_the_sturm_chain(monkeypatch):
    # without the bound, the chain took 28 s on a genus-16 P with coefficients
    # of about 4000 digits (2-CPU machine)
    def boom(a, b):
        raise AssertionError("Sturm chain run past the coefficient bound")

    monkeypatch.setattr(funcfield, "_int_poly_prem", boom)
    q, genus = 3, 16
    low = [1, 10 ** 4000] + [0] * (genus - 1)
    p = PolyQ(low + [q ** (genus - i) * low[i] for i in range(genus - 1, -1, -1)])
    with pytest.raises(InvalidFieldError, match="not a Weil 3-polynomial"):
        FunctionFieldData(q=q, genus=genus, l_poly=p, deg_inf=1)


def test_genus_cap_from_each_side(monkeypatch):
    q = 1009
    p = PolyQ.one()
    for _ in range(MAX_GENUS):
        p = p * PolyQ((1, 0, q))
    assert FunctionFieldData(q=q, genus=MAX_GENUS, l_poly=p, deg_inf=1).genus == MAX_GENUS

    def boom(h, q):
        raise AssertionError("Weil test run above the genus cap")

    monkeypatch.setattr(funcfield, "real_roots_within", boom)
    for genus, l_poly in ((MAX_GENUS + 1, p * PolyQ((1, 0, q))), (1000, PolyQ.one())):
        with pytest.raises(InvalidFieldError, match=f"genus {genus} is above the cap"):
            FunctionFieldData(q=q, genus=genus, l_poly=l_poly, deg_inf=1)


# -- zeta_K and special values -------------------------------------------------

def test_zeta_K_frozen_examples():
    den2 = PolyQ.one_minus(1, 1) * PolyQ.one_minus(2, 1)
    assert zeta_K(FunctionFieldData.rational(2)) == ratfun(PolyQ.one(), den2)
    assert zeta_K(genus1_field()) == ratfun(GENUS1_P, den2)
    den3 = PolyQ.one_minus(1, 1) * PolyQ.one_minus(3, 1)
    assert zeta_K(FunctionFieldData.rational(3)) == ratfun(PolyQ.one(), den3)


def test_zeta_special_value_frozen_examples():
    k2 = FunctionFieldData.rational(2)
    assert zeta_special_value(k2, 1) == Fraction(1, 3)
    assert zeta_special_value(k2, 2) == Fraction(1, 21)
    assert zeta_special_value(genus1_field(), 1) == Fraction(11, 3)


def test_zeta_special_value_matches_direct_evaluation():
    for k in [FunctionFieldData.rational(3), genus1_field()]:
        zk = zeta_K(k)
        for i in [1, 2, 3]:
            assert zeta_special_value(k, i) == value_at(zk, k.q ** i)


def test_zeta_special_value_rejects_nonpositive_i():
    with pytest.raises(InvalidArgumentError):
        zeta_special_value(FunctionFieldData.rational(2), 0)
    with pytest.raises(InvalidArgumentError):
        places_of_degree(FunctionFieldData.rational(2), 0)


# -- class number -----------------------------------------------------------

def test_class_number_guard_is_internal(monkeypatch):
    # P(1) = 0 is out of reach past the Weil test; a refusal stores
    # nothing, so it is raised again
    field = non_weil_field(monkeypatch)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="P\\(1\\) = 0"):
            class_number_A(field)


def test_class_number_evaluates_p_at_one_once(monkeypatch):
    field = FunctionFieldData(q=2, genus=1, l_poly=GENUS1_P, deg_inf=2)
    calls = []
    real = PolyQ.eval
    monkeypatch.setattr(PolyQ, "eval", lambda poly, x: calls.append(x) or real(poly, x))
    assert [class_number_A(field) for _ in range(3)] == [8, 8, 8]
    assert calls == [1]


def test_class_number_frozen_examples():
    assert class_number_A(FunctionFieldData.rational(2)) == 1
    assert class_number_A(FunctionFieldData.rational(5)) == 1
    assert class_number_A(genus1_field()) == 4
    assert class_number_A(FunctionFieldData.rational(2, deg_inf=3)) == 3


# -- place counts -------------------------------------------------------------

def test_places_of_degree_frozen_examples():
    k2 = FunctionFieldData.rational(2)
    assert places_of_degree(k2, 1) == 3
    assert places_of_degree(k2, 2) == 1
    assert places_of_degree(genus1_field(), 1) == 4
    assert places_of_degree(genus1_field(), 2) == 2


def test_place_counts_match_irreducible_enumeration_genus_zero():
    for q in [2, 3, 4, 5]:
        k = FunctionFieldData.rational(q)
        assert places_of_degree(k, 1) == len(enumerate_monic_irreducibles(q, 1)) + 1
        for n in [2, 3, 4]:
            assert places_of_degree(k, n) == len(enumerate_monic_irreducibles(q, n))


def test_mobius_inversion_consistency():
    for k in [FunctionFieldData.rational(3), genus1_field()]:
        n_counts = k.point_counts(8)
        for n in range(1, 9):
            total = sum(
                d * places_of_degree(k, d) for d in range(1, n + 1) if n % d == 0
            )
            assert total == n_counts[n - 1]


def _emptied(field):
    # a copy of the field with no place or point count stored
    copy = FunctionFieldData(field.q, field.genus, field.l_poly, field.deg_inf)
    object.__setattr__(copy, "_counts", ())
    object.__setattr__(copy, "_points", ())
    return copy


def test_place_counts_extended_in_steps_equal_one_shot():
    fields = {data.field for data in full_battery()} | set(DEG_INF_FIELDS)
    assert len(fields) == 9
    for field in fields:
        stepwise = _emptied(field)
        for upto in (3, 10, 40, 128):
            counts = stepwise._place_counts(upto)
            assert len(stepwise._counts) == upto
            # the point counts they were summed from are kept beside them
            assert stepwise._points == tuple(field.point_counts(upto))
        one_shot = _emptied(field)._place_counts(128)
        assert counts == one_shot, field
        # and they invert the point counts: sum_{d | n} d b_d = N_n
        for n, n_count in enumerate(field.point_counts(128), start=1):
            assert sum(d * counts[d - 1] for d in range(1, n + 1) if n % d == 0) == n_count
    # an extension sums only the new degrees: what is stored stays as is
    field = _emptied(FunctionFieldData.rational(2))
    field._place_counts(3)
    object.__setattr__(field, "_counts", ("stored", *field._counts[1:]))
    assert field._place_counts(10)[0] == "stored"


def _point_counts_shifted(monkeypatch, n, shift):
    # N_n moved by shift, so b_n moves by shift / n
    point_counts = FunctionFieldData.point_counts
    monkeypatch.setattr(
        FunctionFieldData, "point_counts",
        lambda self, upto: [c + shift * (m == n) for m, c in enumerate(point_counts(self, upto), 1)],
    )


def test_failed_extension_stores_nothing(monkeypatch):
    # a valid field whose degree-5 count is driven negative: b_5 = 8 - 20
    field = _emptied(genus1_field())
    _point_counts_shifted(monkeypatch, 5, -100)
    assert field._place_counts(2) == (4, 2)
    with pytest.raises(InvalidFieldError, match="degree-5 place count is negative"):
        field._place_counts(10)
    assert field._counts == (4, 2)
    assert field._points == (4, 8)
    assert field._place_counts(4) == (4, 2, 0, 2)
    with pytest.raises(InvalidFieldError, match="degree-5"):
        places_of_degree(field, 5)
    assert field._counts == (4, 2, 0, 2)


def test_non_integral_place_count_is_internal(monkeypatch):
    # Gauss's congruence makes every count integral, so a fraction is a bug
    _point_counts_shifted(monkeypatch, 2, 1)
    with pytest.raises(InternalConsistencyError, match="degree-2 place count is not integral"):
        places_of_degree(_emptied(genus1_field()), 2)
    with pytest.raises(InternalConsistencyError, match="not integral"):
        genus1_field()


# -- zeta_A ---------------------------------------------------------------------

def test_zeta_A_frozen_values_at_one():
    assert value_at(zeta_A(FunctionFieldData.rational(2)), 1) == -1
    assert value_at(zeta_A(genus1_field()), 1) == -4
    assert value_at(zeta_A(FunctionFieldData.rational(3)), 1) == Fraction(-1, 2)


def test_zeta_A_equals_minus_class_number_ratio():
    fields = [
        FunctionFieldData.rational(2),
        FunctionFieldData.rational(2, deg_inf=2),
        FunctionFieldData.rational(3, deg_inf=3),
        FunctionFieldData.rational(4),
        FunctionFieldData.rational(5, deg_inf=2),
        genus1_field(),
        genus1_field(deg_inf=2),
    ]
    for k in fields:
        lhs = value_at(zeta_A(k), 1)
        rhs = Fraction(-class_number_A(k), k.q - 1)
        assert lhs == rhs, k


def test_some_genus_two_field_exists_and_satisfies_identity():
    found = 0
    for a1 in range(-3, 4):
        for a2 in range(-4, 7):
            p = PolyQ((1, a1, a2, 2 * a1, 4))
            try:
                k = FunctionFieldData(q=2, genus=2, l_poly=p, deg_inf=1)
            except InvalidFieldError:
                continue
            found += 1
            assert value_at(zeta_A(k), 1) == Fraction(-class_number_A(k), 1)
    assert found >= 5


# -- JSON shape -------------------------------------------------------------------

def test_field_json_round_trip():
    obj = {"q": 2, "genus": 1, "l_poly": [1, 1, 2], "deg_inf": 2}
    assert field_from_json_dict(obj) == genus1_field(deg_inf=2)


def test_field_json_rejects_garbage():
    with pytest.raises(InvalidFieldError):
        field_from_json_dict({"q": 2, "genus": 1})
    with pytest.raises(InvalidFieldError):
        field_from_json_dict({"q": 2, "genus": 1, "l_poly": "nope", "deg_inf": 1})
