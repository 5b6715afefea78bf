"""Maximal-order zeta: closed form and Euler-product series."""

import random
import sys
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from massform import algebra, cli, funcfield, orderzeta, verify
from massform.algebra import (
    PolyQ,
    ratfun,
    series_from_ratfun,
)
from massform.csa import (
    RamificationData,
    RamifiedPlace,
    is_definite,
    parse_shorthand,
)
from massform.errors import (
    MAX_SERIES_ORDER,
    InternalConsistencyError,
    InvalidRamificationError,
    InvalidSeriesOrderError,
    NotDefiniteError,
    OutputTooLargeError,
)
from massform.funcfield import FunctionFieldData, finite_places_of_degree, places_of_degree
from massform.massengine import mass
from massform.verify import (
    BATTERY_RANKS,
    MAX_FINITE_DEGREE,
    _coprime_residues,
    _deg_inf_fields,
    _rank_one_fields,
    battery_fields,
    definite_battery,
    full_battery,
    random_product_field,
)
from massform.orderzeta import (
    _at_one,
    _correction_keys,
    _cyclotomic,
    _expand,
    local_ideal_count,
    order_zeta_at_zero,
    order_zeta_closed_form,
    order_zeta_series,
    place_by_place_series,
)


def value_at(f, x):
    """A rational function's value at a point that is not a pole."""
    return Fraction(f.num.eval(x), f.den.eval(x))


K2 = FunctionFieldData.rational(2)
K2_G1 = FunctionFieldData(q=2, genus=1, l_poly=PolyQ((1, 1, 2)), deg_inf=1)

STANDARD_R2 = parse_shorthand("inf:1/2,1:1/2", K2, rank=2)
DRINFELD_R3 = parse_shorthand("inf:-1/3,1:1/3", K2, rank=3)
GENUS1_R2 = parse_shorthand("inf:1/2,1:1/2", K2_G1, rank=2)

# infinity of degree 2 or 3: the only source of Phi*_m(u) with m > 1
DEG_INF_FIELDS = (
    FunctionFieldData.rational(2, deg_inf=2),
    FunctionFieldData.rational(3, deg_inf=2),
    FunctionFieldData.rational(2, deg_inf=3),
    FunctionFieldData(q=2, genus=1, l_poly=PolyQ((1, 1, 2)), deg_inf=2),
)
DEG_INF2_R4 = parse_shorthand("inf:1/4,1:1/4,1:1/2", DEG_INF_FIELDS[0], rank=4)

# Symmetric L-polynomials over F_2 that break Weil's bound.  The first
# is (1 - u)(1 - 2u)(1 + 2u + 2u^2), so P(1) = P(1/2) = 0; the second
# squares those zeros.
NON_WEIL = (PolyQ((1, -1, -2, -2, 4)), PolyQ((1, -2, -9, 28, -18, -8, 8)))


def non_weil_field(monkeypatch):
    """NON_WEIL[0] as a field, built with the Weil test switched off and
    only b_1 checked, as its place counts fail from degree 2 on."""
    monkeypatch.setattr(funcfield, "real_roots_within", lambda h, q: True)
    monkeypatch.setattr(funcfield, "CHECKED_DEGREES", 1)
    return FunctionFieldData(q=2, genus=2, l_poly=NON_WEIL[0], deg_inf=1)


def reference_closed_form(data):
    """The closed form built literally: each factor through ratfun, then
    multiplied with gcd normalization."""
    field, q = data.field, data.field.q
    product = ratfun(
        PolyQ.one_minus(1, field.deg_inf) * field.l_poly,
        PolyQ.one_minus(1, 1) * PolyQ.one_minus(q, 1),
    )
    for i in range(1, data.rank):
        product = product * ratfun(
            PolyQ(c * q ** (i * n) for n, c in enumerate(field.l_poly.coeffs)),
            PolyQ.one_minus(q ** i, 1) * PolyQ.one_minus(q ** (i + 1), 1),
        )
    for place in data.places:
        poly = PolyQ.one()
        for i in range(1, data.rank):
            if i % place.inv_den != 0:
                poly = poly * PolyQ.one_minus(q ** (i * place.degree), place.degree)
        product = product * ratfun(poly, PolyQ.one())
    return product


# The most finite places a random datum ramifies
MAX_RANDOM_FINITE = 3


def random_definite_data(rng, fields=None):
    """One random valid definite ramification datum.

    Finite invariants are drawn freely except the last, which absorbs
    the sum condition; draws that cannot be patched are rerolled."""
    if fields is None:
        fields = battery_fields()
    while True:
        field = rng.choice(fields)
        r = rng.choice(BATTERY_RANKS)
        b0 = rng.choice(_coprime_residues(r))
        places = [
            RamifiedPlace(
                degree=field.deg_inf, inv_num=b0, inv_den=r, is_infinity=True
            )
        ]
        taken: dict[int, int] = {}
        residual = Fraction(b0, r)
        k = rng.randint(1, MAX_RANDOM_FINITE)
        feasible = True
        for i in range(k):
            if i == k - 1:
                frac = (-residual) % 1
                d = frac.denominator
                b = frac.numerator
                if d < 2 or r % d != 0:
                    feasible = False
                    break
            else:
                d = rng.choice([dd for dd in range(2, r + 1) if r % dd == 0])
                b = rng.choice(_coprime_residues(d))
            open_degrees = [
                delta
                for delta in range(1, MAX_FINITE_DEGREE + 1)
                if finite_places_of_degree(field, delta) - taken.get(delta, 0) >= 1
            ]
            if not open_degrees:
                feasible = False
                break
            delta = rng.choice(open_degrees)
            taken[delta] = taken.get(delta, 0) + 1
            places.append(RamifiedPlace(delta, b, d))
            residual += Fraction(b, d)
        if not feasible:
            continue
        try:
            return RamificationData(field=field, rank=r, places=tuple(places))
        except InvalidRamificationError:
            continue


def reference_stream():
    yield from full_battery()
    rng = random.Random(20260813)       # criterion 7's stream
    for _ in range(1000):
        yield random_definite_data(rng)
    rng = random.Random(7)              # criterion 8's fields, genus 1 to 3
    fields = tuple(random_product_field(rng) for _ in range(12))
    for _ in range(200):
        yield random_definite_data(rng, fields=fields)
    for field in DEG_INF_FIELDS:
        yield from definite_battery(field, ranks=(2, 4, 6))


def test_random_definite_data_always_valid():
    rng = random.Random(99)
    for _ in range(50):
        # built, so valid; the draw must also keep it definite
        assert is_definite(random_definite_data(rng))


def test_random_definite_data_deterministic_per_seed():
    a = random_definite_data(random.Random(5))
    b = random_definite_data(random.Random(5))
    assert a == b


# -- closed form ------------------------------------------------------------

def test_closed_form_matches_literal_reference():
    genera, deg_infs, count = set(), set(), 0
    for data in reference_stream():
        want = reference_closed_form(data)
        assert order_zeta_closed_form(data) == want, (data.field, data.rank, data.places)
        assert order_zeta_at_zero(data) == value_at(want, 1)
        genera.add(data.field.genus)
        deg_infs.add(data.field.deg_inf)
        count += 1
    assert count == 1772
    assert genera == {0, 1, 2, 3}
    assert deg_infs == {1, 2, 3}


def test_closed_form_never_calls_the_mass_side(monkeypatch):
    def boom(*_):
        raise AssertionError("the closed form reached the mass side")

    forbidden = ("mass", "drinfeld_mass", "zeta_special_value", "lambda_v", "lambda_value")
    for name, module in list(sys.modules.items()):
        if name.startswith("massform"):
            for attr in forbidden:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, boom)
    for data in [STANDARD_R2, DRINFELD_R3, GENUS1_R2, DEG_INF2_R4]:
        want = reference_closed_form(data)
        assert order_zeta_at_zero(data) == value_at(want, 1)
        assert order_zeta_closed_form(data) == want


def test_the_runtime_never_calls_a_gcd(monkeypatch):
    # the closed form, zeta_K and zeta_A are built coprime; ratfun's gcd is
    # the general normalizer, left to the tests' reference
    def boom(*_):
        raise AssertionError("a gcd ran")

    original = algebra.poly_gcd
    for name, module in list(sys.modules.items()):
        if name.startswith("massform"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, boom)
    # infinity of degree 2 brings Phi*_2; genus 2 brings P-shifts of degree 4
    for field in (["--q", "3", "--deg-inf", "2"],
                  ["--q", "3", "--genus", "2", "--l-poly", "1,2,4,6,9"]):
        assert cli.run(["zeta", *field]) == 0, field
        for rank, ram in (("3", "inf:1/3,1:1/3,2:1/3"), ("6", "inf:1/6,5:5/6")):
            argv = ["order-zeta", *field, "--rank", rank, "--ram", ram, "--series-order", "12"]
            assert cli.run(argv) == 0, argv


def test_the_value_at_zero_never_multiplies_the_closed_form_out(monkeypatch):
    # every identity operation reads the value at zero; it stays the
    # product of a few integers kept on the field, and builds no map
    def boom(*_):
        raise AssertionError("the value at zero built or multiplied the closed form out")

    for name in ("order_zeta_closed_form", "_expand", "_refuse_unprintable_form",
                 "_checked_exponents", "_exponents", "_shape_exponents"):
        monkeypatch.setattr(orderzeta, name, boom)
    fields = dict.fromkeys([*verify._deg_inf_fields(), *DEG_INF_FIELDS])
    deg_inf_battery = [data for field in fields for data in definite_battery(field)]
    assert len(deg_inf_battery) > 300
    for data in full_battery() + deg_inf_battery:
        assert order_zeta_at_zero(data) == -mass(data).mass


def test_mutated_exponent_maps_fail_the_reference():
    for data in [STANDARD_R2, DRINFELD_R3, GENUS1_R2, DEG_INF2_R4]:
        want = reference_closed_form(data)
        place = data.places[-1]
        correction = _correction_keys(place.degree, place.inv_den, data.rank)
        dropped = Counter(orderzeta._exponents(data))
        dropped.subtract(correction)
        assert _expand(data.field, dropped) != want
        assert _at_one(data.field, dropped) != value_at(want, 1)


def test_at_one_raises_each_factor_to_its_exponent():
    # P-shift and cyclotomic keys over the genus-1 battery field, each
    # alone and all together, at every exponent in -3..3 but 0; (0, 1)
    # is left out, as Phi*_1 vanishes at 1
    field = battery_fields()[-1]
    assert field.genus == 1
    keys = [(0, 0), (1, 0), (3, 0), (1, 1), (2, 1), (0, 2), (1, 3), (2, 4), (0, 6)]
    exponents = (-3, -2, -1, 1, 2, 3)

    def reference(exponent_map):
        out = Fraction(1)
        for (j, m), e in exponent_map.items():
            base = field.l_poly if m == 0 else _cyclotomic(m)
            out *= Fraction(base.eval(field.q ** j)) ** e
        return out

    maps = [{key: e} for key in keys for e in exponents]
    maps += [{key: exponents[(i + shift) % 6] for i, key in enumerate(keys)} for shift in range(6)]
    fresh = FunctionFieldData(field.q, field.genus, field.l_poly, field.deg_inf)
    for exponent_map in maps:
        # a fresh field meets each key first here; the battery field's
        # memo may already hold it
        for on in (fresh, field):
            assert _at_one(on, exponent_map) == reference(exponent_map), exponent_map


def cyclotomic_reading_one_at_one(m):
    """Phi*_m with its constant term moved so that it reads 1 at x = 1
    for m > 1, where the true value is p when m is a power of p."""
    poly = _cyclotomic(m)
    if m == 1:
        return poly
    return PolyQ((poly.coeffs[0] + 1 - poly.eval(1), *poly.coeffs[1:]))


def on_a_fresh_field(data):
    """data over its field built again from its four values, so that
    the field's memos start empty, as in a fresh process."""
    f = data.field
    field = FunctionFieldData(f.q, f.genus, f.l_poly, f.deg_inf)
    return RamificationData(field=field, rank=data.rank, places=data.places)


def test_cyclotomic_value_at_one_is_p_for_prime_powers(monkeypatch):
    want = value_at(reference_closed_form(DEG_INF2_R4), 1)
    assert order_zeta_at_zero(DEG_INF2_R4) == want == -mass(DEG_INF2_R4).mass
    monkeypatch.setattr(orderzeta, "_cyclotomic", cyclotomic_reading_one_at_one)
    assert order_zeta_at_zero(on_a_fresh_field(DEG_INF2_R4)) != want


def _prime_of_power(k):
    """p when k is a power of the prime p, else None."""
    p = next(d for d in range(2, k + 1) if k % d == 0)
    while k % p == 0:
        k //= p
    return p if k == 1 else None


def test_cyclotomic_factors():
    assert _cyclotomic(1) == PolyQ((1, -1))
    assert _cyclotomic(6) == PolyQ((1, -1, 1))
    assert _cyclotomic(12) == PolyQ((1, 0, -1, 0, 1))
    for k in range(1, 31):
        product = PolyQ.one()
        for m in range(1, k + 1):
            if k % m == 0:
                product = product * _cyclotomic(m)
        assert product == PolyQ.one_minus(1, k), k
        if k > 1:
            assert _cyclotomic(k).eval(1) == (_prime_of_power(k) or 1), k


# faults in the functions the value at zero fills its parts from: each
# moves the value on a fresh field
PART_FAULTS = [
    # the shifts zeta_A(q^j u), 0 < j < r, each without their Phi*_m, m > 1
    ("_base_exponents", lambda f: lambda r, deg_inf: tuple(
        (k, e) for k, e in f(r, deg_inf) if not (k[0] and k[1] > 1))),
    # the last key of each place: dropping the first flips two signs on
    # DEG_INF2_R4 and leaves its value
    ("_correction_keys", lambda f: lambda degree, inv_den, r: f(degree, inv_den, r)[:-1]),
    ("_cyclotomic", lambda f: cyclotomic_reading_one_at_one),
]


def test_warm_memos_still_follow_a_patched_exponents_or_cyclotomic(monkeypatch):
    want = order_zeta_at_zero(DEG_INF2_R4)
    form = order_zeta_closed_form(DEG_INF2_R4)
    assert order_zeta_at_zero(DEG_INF2_R4) == want
    assert orderzeta._shape_exponents.cache_info().currsize > 0
    assert DEG_INF2_R4.field._closed_form_values and DEG_INF2_R4.field._closed_form_parts
    # the closed form reads its map through _exponents on every call
    exponents = orderzeta._exponents
    monkeypatch.setattr(
        orderzeta, "_exponents", lambda data: {**exponents(data), (data.rank, 1): -2}
    )
    assert order_zeta_closed_form(DEG_INF2_R4) != form
    assert order_zeta_at_zero(DEG_INF2_R4) == want
    monkeypatch.undo()
    assert order_zeta_closed_form(DEG_INF2_R4) == form
    # the field's parts are read before the functions that fill them: a
    # fault in one is installed before that field computes anything
    for name, fault in PART_FAULTS:
        monkeypatch.setattr(orderzeta, name, fault(getattr(orderzeta, name)))
        assert order_zeta_at_zero(on_a_fresh_field(DEG_INF2_R4)) != want, name
        assert order_zeta_at_zero(DEG_INF2_R4) == want, name
        monkeypatch.undo()


def test_the_value_at_zero_is_the_value_of_the_merged_map():
    battery = full_battery()
    data_list = [
        *battery,
        *(data for field in _deg_inf_fields() for data in definite_battery(field)),
        *(RamificationData(field, 1, ()) for field in _rank_one_fields()),
        *(RamificationData(data.field, data.rank, data.places[::-1]) for data in battery),
    ]
    assert len(data_list) == 1116
    for data in data_list:
        want = _at_one(data.field, orderzeta._exponents(data))
        assert order_zeta_at_zero(data) == want == order_zeta_at_zero(on_a_fresh_field(data)), data


def test_the_parts_are_kept_on_the_field():
    data = on_a_fresh_field(GENUS1_R2)
    field = data.field
    assert field._closed_form_parts == {}
    assert order_zeta_at_zero(data) == Fraction(-44, 3)
    # prod_{j < 2} zeta_A(q^j u) at u = 1 is P(1) P(2) / ((1 - 2)(1 - 4)),
    # and the place's correction 1 - qu is 1 - 2 there
    assert field._closed_form_parts == {2: (44, 3), (1, 2, 2): -1}
    # zeta_A(u) = P(u) / (1 - qu) at rank 1
    assert order_zeta_at_zero(RamificationData(field, 1, ())) == -4
    assert field._closed_form_parts[1] == (-4, 1)


@pytest.mark.parametrize("name, fault, match", [
    ("_base_exponents", lambda f: lambda r, deg_inf: (*f(r, deg_inf), ((0, 1), -1)),
     "^closed form has a pole at u = 1$"),
    ("_base_exponents",
     lambda f: lambda r, deg_inf: tuple(pair for pair in f(r, deg_inf) if pair[0] != (r, 1)),
     "^closed form lacks the expected pole at u = q\\^-r$"),
    ("_correction_keys", lambda f: lambda degree, inv_den, r: ((0, 1), *f(degree, inv_den, r)),
     "^correction key \\(0, 1\\) lies outside 0 < i < 2$"),
    ("_correction_keys", lambda f: lambda degree, inv_den, r: (*f(degree, inv_den, r), (r, 1)),
     "^correction key \\(2, 1\\) lies outside 0 < i < 2$"),
], ids=["base-pole-at-one", "base-without-pole-at-q-to-minus-r", "key-at-i-0", "key-at-i-r"])
def test_the_value_at_zero_checks_its_poles_part_by_part(monkeypatch, name, fault, match):
    monkeypatch.setattr(orderzeta, name, fault(getattr(orderzeta, name)))
    with pytest.raises(InternalConsistencyError, match=match):
        order_zeta_at_zero(on_a_fresh_field(STANDARD_R2))


def test_exponents_are_a_fresh_map_on_every_call():
    exponents = orderzeta._exponents(DEG_INF2_R4)
    value = order_zeta_at_zero(DEG_INF2_R4)
    want = dict(exponents)
    exponents[DEG_INF2_R4.rank, 1] -= 1
    del exponents[0, 0]
    again = orderzeta._exponents(DEG_INF2_R4)
    assert again == want and again is not exponents
    assert order_zeta_at_zero(DEG_INF2_R4) == value
    assert order_zeta_closed_form(DEG_INF2_R4) == reference_closed_form(DEG_INF2_R4)


def reference_shape_exponents(r, deg_inf, places):
    """The net exponent map of a shape as ordered (key, exponent) pairs,
    summed in one loop over every factor in the closed form's order:
    P(q^j u) for j < r, Phi*_m(u) for m | deg_inf with m > 1, (1 - q^j u)
    twice in the denominator for 0 < j < r, 1 - q^r u once, then each
    place's Phi*_m(q^i u) for i < r with d_v not dividing i and m | deg v."""
    factors = [((j, 0), 1) for j in range(r)]
    factors += [((0, m), 1) for m in range(2, deg_inf + 1) if deg_inf % m == 0]
    factors += [((j, 1), -2) for j in range(1, r)]
    factors.append(((r, 1), -1))
    factors += [
        ((i, m), 1)
        for degree, d_v in places
        for i in range(1, r) if i % d_v
        for m in range(1, degree + 1) if degree % m == 0
    ]
    net = {}
    for key, e in factors:
        net[key] = net.get(key, 0) + e
    return [(key, e) for key, e in net.items() if e]


def _shape(data):
    return (
        data.rank,
        data.field.deg_inf,
        tuple((p.degree, p.inv_den, p.is_infinity) for p in data.places),
    )


def reference_of_shape(shape):
    """reference_shape_exponents of a shape key, infinity read as one
    more place with its local index."""
    r, deg_inf, places = shape
    return reference_shape_exponents(r, deg_inf, [place[:2] for place in places])


# every shape the identity suites meet
SHAPES = sorted({
    *map(_shape, full_battery()),
    *(_shape(data) for field in _deg_inf_fields() for data in definite_battery(field)),
    *(_shape(RamificationData(field, 1, ())) for field in _rank_one_fields()),
})


def test_shape_exponents_equal_a_single_loop_reference():
    assert len(SHAPES) > 100
    for shape in SHAPES:
        got = list(orderzeta._shape_exponents(*shape).items())
        assert got == reference_of_shape(shape), shape
    base = orderzeta._base_exponents(4, 6)
    assert type(base) is tuple and hash(base) == hash(orderzeta._base_exponents(4, 6))


@pytest.mark.parametrize("name, fault", [
    ("_correction_keys", lambda f: lambda degree, inv_den, r: f(degree, inv_den, r)[1:]),
    ("_base_exponents", lambda f: lambda r, deg_inf: f(r, deg_inf)[::-1]),
], ids=["a-dropped-correction-key", "the-base-reversed"])
def test_the_shape_reference_catches(monkeypatch, name, fault):
    monkeypatch.setattr(orderzeta, name, fault(getattr(orderzeta, name)))
    orderzeta._shape_exponents.cache_clear()
    try:
        wrong = [
            shape for shape in SHAPES
            if list(orderzeta._shape_exponents(*shape).items())
            != reference_of_shape(shape)
        ]
    finally:
        monkeypatch.undo()
        orderzeta._shape_exponents.cache_clear()
    assert len(wrong) > len(SHAPES) // 2


def test_the_closed_form_does_not_depend_on_the_order_of_the_places():
    # infinity last: its place is skipped wherever it stands
    battery = full_battery()
    assert len(battery) == 384
    for data in battery:
        places = data.places[::-1]
        assert places[-1].is_infinity
        moved = RamificationData(data.field, data.rank, places)
        exponents = orderzeta._exponents(moved)
        assert exponents == dict(reference_of_shape(_shape(moved))), data
        assert exponents == orderzeta._exponents(data), data
        assert order_zeta_at_zero(moved) == order_zeta_at_zero(data), data
        assert order_zeta_closed_form(moved) == order_zeta_closed_form(data), data


def _widest(text):
    """The most digits of an integer in a printed rational."""
    return max(len(part) for part in text.lstrip("-").split("/"))


def test_closed_form_refusal_is_exactly_the_printed_lead(monkeypatch):
    # the den-monic form prints q^N_den under both constant terms and
    # q^(N_num - N_den) in num's leading term; a digit limit D refuses the
    # closed form exactly when one of those has more than D digits
    configs = [
        DEG_INF2_R4,
        # N_num = 0: q^N_den alone decides
        parse_shorthand("inf:1/6,1:-1/6", FunctionFieldData.rational(5), rank=6),
        parse_shorthand("inf:1/6,3:5/6", FunctionFieldData.rational(7), rank=6),
        # genus 1: each P-shift leads with q^(g + 2gj)
        parse_shorthand("inf:1/4,2:3/4", K2_G1, rank=4),
    ]
    for data in configs:
        printed = cli._ratfun_json(order_zeta_closed_form(data))
        bound = max(_widest(printed["den"][0]), _widest(printed["num"][-1]))
        widest = max(map(_widest, printed["num"] + printed["den"]))
        assert 1 < bound <= widest
        for digits in range(1, widest + 2):
            monkeypatch.setattr(orderzeta, "MAX_PRINTED_DIGITS", digits)
            try:
                order_zeta_closed_form(data)
                refused = False
            except OutputTooLargeError:
                refused = True
            assert refused == (digits < bound), (data, digits)
        monkeypatch.undo()


def test_closed_form_guards_its_poles(monkeypatch):
    exponents = orderzeta._exponents
    monkeypatch.setattr(orderzeta, "_exponents", lambda data: {**exponents(data), (2, 1): 0})
    with pytest.raises(InternalConsistencyError, match="lacks the expected pole"):
        order_zeta_closed_form(STANDARD_R2)
    monkeypatch.setattr(orderzeta, "_exponents", lambda data: {**exponents(data), (0, 1): -1})
    with pytest.raises(InternalConsistencyError, match="has a pole at u = 1"):
        order_zeta_closed_form(STANDARD_R2)


def test_closed_form_rank_two_is_geometric():
    form = order_zeta_closed_form(STANDARD_R2)
    assert form == ratfun(PolyQ.one(), PolyQ.one_minus(4, 1))


def test_closed_form_rank_one_is_zeta_A():
    form = order_zeta_closed_form(RamificationData(field=K2, rank=1, places=()))
    assert form == ratfun(PolyQ.one(), PolyQ.one_minus(2, 1))
    assert value_at(form, 1) == -1


def test_closed_form_rejects_indefinite():
    with pytest.raises(NotDefiniteError):
        order_zeta_closed_form(parse_shorthand("1:1/2,1:-1/2", K2, rank=2))


def test_closed_form_pole_structure():
    den = order_zeta_closed_form(DRINFELD_R3).den
    assert den.eval(1) != 0
    assert den.eval(Fraction(1, 2 ** 3)) == 0


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
            assert expansion.coeffs[ell] == local_ideal_count(
                n_v, m_v, d_v, ell
            ), (n_v, m_v, d_v, ell)


# -- Dirichlet series ----------------------------------------------------------

def test_series_low_coefficients_standard_example():
    s = order_zeta_series(STANDARD_R2, 3)
    # closed form is 1/(1-4u): coefficients are powers of 4
    assert s.coeffs == (1, 4, 16, 64)


def test_series_order_cap():
    s = order_zeta_series(STANDARD_R2, MAX_SERIES_ORDER)
    assert s.coeffs[-1] == 4 ** MAX_SERIES_ORDER
    for order in (-1, MAX_SERIES_ORDER + 1):
        with pytest.raises(InvalidSeriesOrderError):
            order_zeta_series(STANDARD_R2, order)


def test_series_refusal_is_exactly_the_newton_lower_bound(monkeypatch):
    # the log-derivative c_k, read back from the series by Newton's
    # identities k s_k = sum_j c_j s_{k-j}, bounds s_k >= c_k // k; a digit
    # limit D refuses exactly when some c_k // k has more than D digits
    data = parse_shorthand("inf:1/6,1:-1/6", FunctionFieldData.rational(5), rank=6)
    coeffs = order_zeta_series(data, 40).coeffs
    c = [0]
    for k in range(1, len(coeffs)):
        c.append(k * coeffs[k] - sum(c[j] * coeffs[k - j] for j in range(1, k)))
    bound = len(str(max(c[k] // k for k in range(1, len(c)))))
    widest = len(str(max(coeffs)))
    assert 1 < bound <= widest
    for digits in range(1, widest + 2):
        monkeypatch.setattr(orderzeta, "MAX_PRINTED_DIGITS", digits)
        try:
            assert order_zeta_series(data, 40).coeffs == coeffs
            refused = False
        except OutputTooLargeError:
            refused = True
        assert refused == (digits < bound), digits


def test_series_coefficient_of_u_one_decomposes():
    # one ramified deg-1 place contributes 1, the unramified finite
    # deg-1 place contributes 1 + q = 3; infinity contributes nothing
    s = order_zeta_series(STANDARD_R2, 1)
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == 1 + 3


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
            == series_from_ratfun(closed, order).coeffs
        ), (data.rank, order)


def test_series_matches_closed_form_on_every_battery_cell():
    cells = {}
    for data in full_battery():
        cells.setdefault((data.field, data.rank), data)
    assert len(cells) == 20
    for data in cells.values():
        closed = order_zeta_closed_form(data)
        assert order_zeta_series(data, 40) == series_from_ratfun(closed, 40), (
            data.field.q, data.field.genus, data.rank,
        )


def reference_series(data, order):
    """The Euler product expanded per degree n: one binomial series
    (1 - a v)^{-m} = sum binom(m+k-1, k) a^k v^k in v = u^n per (a, m),
    their product multiplied in by a stride-n convolution."""
    field, q, r = data.field, data.field.q, data.rank
    coeffs = [1] + [0] * order
    for degree in range(1, order + 1):
        ramified_here = [p for p in data.finite_places() if p.degree == degree]
        multiplicity = places_of_degree(field, degree) - len(ramified_here)
        if degree == field.deg_inf:
            multiplicity -= 1
        exponents = Counter({q ** (degree * i): multiplicity for i in range(r)})
        for place in ramified_here:
            d_v = place.inv_den
            exponents.update(q ** (degree * i * d_v) for i in range(r // d_v))
        factor = [1] + [0] * (order // degree)      # in v = u^degree
        for a, m in (+exponents).items():
            binomial = [1]
            for k in range(1, len(factor)):
                binomial.append(binomial[-1] * (m + k - 1) * a // k)
            factor = [sum(map(mul, binomial, factor[j::-1])) for j in range(len(factor))]
        for j in range(order, degree - 1, -1):
            coeffs[j] = sum(map(mul, factor, coeffs[j::-degree]))
    return tuple(coeffs)


def test_series_matches_binomial_reference_on_the_reference_stream():
    count = 0
    for data in reference_stream():
        want = reference_series(data, 24)
        for order in (6, 12, 24):
            assert order_zeta_series(data, order).coeffs == want[:order + 1], (
                data.field, data.rank, data.places, order,
            )
        count += 1
    assert count == 1772


def test_series_matches_binomial_reference_at_the_order_cap():
    cells = {}
    for data in full_battery():
        cells.setdefault((data.field, data.rank), data)
    assert len(cells) == 20
    for data in cells.values():
        assert order_zeta_series(data, MAX_SERIES_ORDER).coeffs == reference_series(
            data, MAX_SERIES_ORDER
        ), (data.field.q, data.field.genus, data.rank)


def test_series_recurrence_guard_fires_on_a_non_integral_product():
    # half a point of degree 1 makes w_1 = 3/2 and c_1 = 3/2 (1 + q) = 9/2:
    # Newton's k s_k = sum c_j s_(k-j) cannot divide exactly, and the
    # guard must say so
    field = FunctionFieldData.rational(2)
    data = parse_shorthand("inf:1/2,1:1/2", field, rank=2)
    assert order_zeta_series(data, 4).coeffs == (1, 4, 16, 64, 256)
    points = field._points
    object.__setattr__(field, "_points", (points[0] + Fraction(1, 2), *points[1:]))
    with pytest.raises(InternalConsistencyError, match=r"u\^1 series coefficient"):
        order_zeta_series(data, 4)


def test_series_availability_guard_reads_the_place_counts():
    # F_2 has one place of degree 2; counted as none, the datum ramifies
    # at a place the field lacks, from the first order that reaches it
    field = FunctionFieldData.rational(2)
    data = parse_shorthand("inf:1/2,2:1/2", field, rank=2)
    counts = field._counts
    object.__setattr__(field, "_counts", (counts[0], 0, *counts[2:]))
    assert order_zeta_series(data, 1).coeffs == (1, 6)
    with pytest.raises(
        InternalConsistencyError,
        match="^1 finite ramified places of degree 2 but the field has 0 finite places "
        "of that degree$",
    ):
        order_zeta_series(data, 2)


def test_series_coefficients_count_ideals():
    for data in [STANDARD_R2, DRINFELD_R3, GENUS1_R2]:
        s = order_zeta_series(data, 10)
        for c in s.coeffs:
            assert c >= 0


def test_every_coefficient_the_package_builds_is_an_int():
    for data in list(reference_stream())[::25]:
        assert all(type(c) is int for c in data.field.l_poly.coeffs)
        assert all(type(c) is int for c in order_zeta_series(data, 8).coeffs)
        f = order_zeta_closed_form(data)
        assert all(type(c) is int for c in f.num.coeffs + f.den.coeffs)
        order_zeta_at_zero(data)
        assert all(type(v) is int for v in data.field._closed_form_values.values())


def test_every_engine_rejects_more_places_than_the_field_has():
    # three ramified degree-1 finite places over F_2 rational: only two
    # exist once infinity takes its slot; the structural checks all pass
    fields = {
        "field": K2,
        "rank": 2,
        "places": (
            RamifiedPlace(1, 1, 2, is_infinity=True),
            RamifiedPlace(1, 1, 2),
            RamifiedPlace(1, 1, 2),
            RamifiedPlace(1, 1, 2),
        ),
    }
    # no engine can be handed the datum: its constructor refuses it
    with pytest.raises(InvalidRamificationError, match="only 2 exist"):
        RamificationData(**fields)
    # the series makes its own place count: a datum that skipped
    # validation still cannot produce a series
    unchecked = object.__new__(RamificationData)
    for name, value in fields.items():
        object.__setattr__(unchecked, name, value)
    with pytest.raises(InternalConsistencyError, match="has 2 finite places"):
        order_zeta_series(unchecked, 4)


def test_place_by_place_series_matches_the_euler_product():
    for data, order in [
        (STANDARD_R2, 8),
        (RamificationData(field=K2, rank=1, places=()), 8),
        (DRINFELD_R3, 6),
        (GENUS1_R2, 12),
    ]:
        assert place_by_place_series(data, order) == order_zeta_series(data, order).coeffs
    assert place_by_place_series(STANDARD_R2, 3) == (1, 4, 16, 64)
