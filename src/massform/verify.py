"""Cross-check suites tying the independent computational routes together.

Each suite pits two unrelated pipelines against each other over a
deterministic battery or a seeded random stream and reports exact
agreement or a list of failing configurations.  The command-line
`verify` subcommand and the acceptance tests both run these; nothing
here weakens a comparison to make it pass.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

from .algebra import PolyQ, ratfun, series_from_ratfun
from .csa import (
    RamificationData,
    RamifiedPlace,
    drinfeld_datum,
    lambda_value,
    shorthand,
)
from .errors import (
    EmptySelectionError,
    InternalConsistencyError,
    InvalidFieldError,
    InvalidRamificationError,
    SelectionTooLargeError,
    int_excerpt,
)
from .funcfield import (
    FunctionFieldData,
    finite_places_of_degree,
    zeta_A,
)
from .localvolumes import (
    MAX_LOCAL_INDEX,
    gl_count_bruteforce,
    lambda_from_volumes,
    sublattice_count_bruteforce,
    vol_G,
)
from .massengine import drinfeld_mass, mass
from .orderzeta import (
    local_ideal_count,
    order_zeta_at_zero,
    order_zeta_closed_form,
    order_zeta_series,
    place_by_place_series,
)

# ----------------------------------------------------------------------
# Reference fields and batteries
# ----------------------------------------------------------------------

GENUS_ONE_L_POLY = (1, 1, 2)    # over F_2: 4 rational points, h = 4

# The ranks and the largest finite place degree of the battery
BATTERY_RANKS = (2, 3, 4, 6)
MAX_FINITE_DEGREE = 3

# The constant field sizes and the largest genus of the product fields
PRODUCT_FIELD_QS = (2, 3, 4, 5)
MAX_PRODUCT_GENUS = 3


def battery_fields() -> tuple[FunctionFieldData, ...]:
    """Rational fields for q in {2,3,4,5} plus one genus-1 field."""
    fields = [FunctionFieldData.rational(q) for q in (2, 3, 4, 5)]
    fields.append(
        FunctionFieldData(
            q=2,
            genus=1,
            l_poly=PolyQ(GENUS_ONE_L_POLY),
            deg_inf=1,
        )
    )
    return tuple(fields)


def _coprime_residues(d: int) -> list[int]:
    return [b for b in range(1, d) if gcd(b, d) == 1]


def _battery_datum(
    field: FunctionFieldData, rank: int, places: tuple[RamifiedPlace, ...]
) -> RamificationData:
    """The battery's datum with these places.  The battery yields only
    valid data, so a refusal by the constructor is an internal fault."""
    try:
        return RamificationData(field=field, rank=rank, places=places)
    except InvalidRamificationError as exc:
        tokens = ",".join(p.shorthand_token() for p in places)
        raise InternalConsistencyError(
            f"battery produced invalid data {tokens}: {exc}"
        ) from None


def definite_battery(
    field: FunctionFieldData, ranks: tuple[int, ...] = BATTERY_RANKS
) -> list[RamificationData]:
    """All definite ramification data over `field` with the given ranks,
    two or three ramified places (infinity included), positive
    canonical invariants, and finite place degrees up to
    MAX_FINITE_DEGREE."""
    out: list[RamificationData] = []
    degrees = [
        delta
        for delta in range(1, MAX_FINITE_DEGREE + 1)
        if finite_places_of_degree(field, delta) >= 1
    ]
    for r in ranks:
        for b0 in _coprime_residues(r):
            inf_place = RamifiedPlace(
                degree=field.deg_inf, inv_num=b0, inv_den=r, is_infinity=True
            )
            # two places: the finite invariant is forced by the sum condition
            bf = (r - b0) % r
            for delta in degrees:
                out.append(
                    _battery_datum(field, r, (inf_place, RamifiedPlace(delta, bf, r)))
                )
            # three places
            finite_divisors = [d for d in range(2, r + 1) if r % d == 0]
            specs = [
                (delta, d, b)
                for delta in degrees
                for d in finite_divisors
                for b in _coprime_residues(d)
            ]
            for i, (delta1, d1, b1) in enumerate(specs):
                for delta2, d2, b2 in specs[i:]:
                    if delta1 == delta2 and finite_places_of_degree(field, delta1) < 2:
                        continue
                    # b0/r + b1/d1 + b2/d2 is an integer
                    if (b0 * d1 * d2 + b1 * r * d2 + b2 * r * d1) % (r * d1 * d2):
                        continue
                    out.append(
                        _battery_datum(
                            field,
                            r,
                            (
                                inf_place,
                                RamifiedPlace(delta1, b1, d1),
                                RamifiedPlace(delta2, b2, d2),
                            ),
                        )
                    )
    return out


def full_battery(ranks: tuple[int, ...] = BATTERY_RANKS) -> list[RamificationData]:
    out: list[RamificationData] = []
    for field in battery_fields():
        out.extend(definite_battery(field, ranks=ranks))
    return out


def random_product_field(rng: random.Random) -> FunctionFieldData:
    """A valid field whose L-polynomial is a product of degree-2
    symmetric factors 1 + a*T + q*T^2.

    Not every such product passes validation (a factor pair can drive a
    place count negative), so failures reroll."""
    while True:
        q = rng.choice(PRODUCT_FIELD_QS)
        genus = rng.randint(1, MAX_PRODUCT_GENUS)
        bound = isqrt(4 * q)
        poly = PolyQ((1,))
        for _ in range(genus):
            a = rng.randint(-bound, bound)
            poly = poly * PolyQ((1, a, q))
        try:
            return FunctionFieldData(q=q, genus=genus, l_poly=poly, deg_inf=1)
        except InvalidFieldError:
            continue


# ----------------------------------------------------------------------
# Suites: each returns (checked, failures, notes), and run_suite turns
# that into the printed report
# ----------------------------------------------------------------------

def _deg_inf_fields() -> list[FunctionFieldData]:
    """F_2(T) and F_3(T) with deg_inf 2 and 3: the identity suites' fields
    beyond the battery, kept out of full_battery."""
    return [FunctionFieldData.rational(q, deg_inf) for q in (2, 3) for deg_inf in (2, 3)]


def _rank_one_fields() -> list[FunctionFieldData]:
    """The fields of zeta-at-zero's rank-1 rows: the battery fields,
    the deg_inf fields, and the first 50 distinct product fields drawn
    from random.Random(7)."""
    fields = [*battery_fields(), *_deg_inf_fields()]
    rng = random.Random(7)
    seen: set[tuple] = set()
    while len(seen) < 50:
        field = random_product_field(rng)
        key = (field.q, field.l_poly.coeffs)
        if key not in seen:
            seen.add(key)
            fields.append(field)
    return fields


def suite_zeta_at_zero(max_rank: int = 6) -> tuple[int, list[str], str]:
    """Capstone: the order zeta value at zero against the factored mass,
    computed along disjoint code paths, over the rank-1 fields and, at
    the battery's ranks up to max_rank, over the battery fields and the
    deg_inf fields.

    At rank 1 the order is A itself, and the identity is the class
    number formula zeta_A(0) = -h(A)/(q - 1).  There the closed form's
    rational function must also equal zeta_A, built directly from P."""
    if max_rank < 1:
        raise EmptySelectionError(f"max rank {int_excerpt(max_rank)} must be >= 1")
    failures = []
    rank_one = [RamificationData(field, 1, ()) for field in _rank_one_fields()]
    ranks = tuple(r for r in BATTERY_RANKS if r <= max_rank)
    battery = full_battery(ranks=ranks)
    deg_inf_battery = [
        data for field in _deg_inf_fields() for data in definite_battery(field, ranks)
    ]
    for data in rank_one + battery + deg_inf_battery:
        value = order_zeta_at_zero(data)
        rhs = -mass(data).mass
        if value != rhs:
            failures.append(f"{_config_label(data)}: zeta(0)={value} but -mass={rhs}")
        if data.rank == 1 and order_zeta_closed_form(data) != zeta_A(data.field):
            failures.append(f"{_config_label(data)}: closed form is not zeta_A")
    notes = (
        f"{len(rank_one)} rank-1 fields, {len(battery)} definite configurations "
        f"and {len(deg_inf_battery)} more with deg_inf 2 or 3"
    )
    return len(rank_one) + len(battery) + len(deg_inf_battery), failures, notes


def _series_sample() -> list[RamificationData]:
    """The first and the last datum of each rank over each battery field
    and each deg_inf field."""
    sample = []
    for field in [*battery_fields(), *_deg_inf_fields()]:
        battery = definite_battery(field)
        by_rank: dict[int, list[RamificationData]] = {}
        for data in battery:
            by_rank.setdefault(data.rank, []).append(data)
        for rank_list in by_rank.values():
            sample.extend(rank_list[:1])
            if len(rank_list) > 1:
                sample.append(rank_list[-1])
    return sample


# The place-by-place series multiplies one local stream per kind of place
# by series_pow and series_mul.  Its counts come from local_ideal_count's
# walk over compositions, memoised on its arguments, so the data of one
# (q, rank) share their unramified streams: on the 32 q = 2 data of the
# sample it takes about 0.01 s at order 8, 0.02 s at order 12 and 0.08 s at
# order 16 in a fresh process (2-CPU machine, Python 3.11).  It runs on the
# q = 2 data only, up to this order.
PLACE_BY_PLACE_ORDER = 8


def _first_difference(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), None)


def suite_series_closed_form(series_order: int = 12) -> tuple[int, list[str], str]:
    """Dirichlet series built from the Euler product by Newton's
    identities against the closed-form rational function expanded by
    long division; on the q = 2 data, also the series rebuilt place by
    place from local ideal counts, to at most PLACE_BY_PLACE_ORDER.  Each
    closed form must also be its own gcd-normalized representative: the
    expansion skips the gcd because its num and den are coprime, and
    equal series cannot tell a common factor apart."""
    failures = []
    sample = _series_sample()
    local_order = min(series_order, PLACE_BY_PLACE_ORDER)
    for data in sample:
        form = order_zeta_closed_form(data)
        if ratfun(form.num, form.den) != form:
            failures.append(f"{_config_label(data)}: the closed form is not in lowest terms")
        direct = order_zeta_series(data, series_order).coeffs
        closed = series_from_ratfun(form, series_order).coeffs
        k = _first_difference(direct, closed)
        if k is not None:
            failures.append(
                f"{_config_label(data)}: u^{k} coefficient {direct[k]} in the "
                f"Euler product, {closed[k]} in the closed form"
            )
        if data.field.q == 2:
            local = place_by_place_series(data, local_order)
            k = _first_difference(local, closed)
            if k is not None:
                failures.append(
                    f"{_config_label(data)}: u^{k} coefficient {local[k]} place "
                    f"by place, {closed[k]} in the closed form"
                )
    notes = f"order {series_order}; place by place on q = 2 to order {local_order}"
    return len(sample), failures, notes


def suite_drinfeld() -> tuple[int, list[str], str]:
    """Specialized Drinfeld-type mass against the general engine."""
    failures = []
    checked = 0
    spot = {(2, 2, 1): Fraction(1, 3), (2, 2, 2): Fraction(1), (2, 2, 3): Fraction(7, 3)}
    for q in (2, 3, 4):
        field = FunctionFieldData.rational(q)
        for r in (2, 3, 4):
            for p_degree in (1, 2, 3):
                checked += 1
                expected = drinfeld_mass(field, r, p_degree)
                got = mass(drinfeld_datum(field, r, p_degree)).mass
                if got != expected:
                    failures.append(
                        f"q={q} r={r} deg={p_degree}: engine {got} != {expected}"
                    )
                want_spot = spot.get((q, r, p_degree))
                if want_spot is not None and expected != want_spot:
                    failures.append(
                        f"q={q} r={r} deg={p_degree}: spot value {expected} != {want_spot}"
                    )
    return checked, failures, ""


def suite_lambda_volumes(max_rank: int = 8) -> tuple[int, list[str], str]:
    """Local factor closed form against the volume-ratio pipeline."""
    if max_rank < 1:
        raise EmptySelectionError(f"max rank {int_excerpt(max_rank)} must be >= 1")
    # every d | r up to r is a local index, and the volumes cap the index
    if max_rank > MAX_LOCAL_INDEX:
        raise SelectionTooLargeError(
            f"max rank {int_excerpt(max_rank)} is above the cap {MAX_LOCAL_INDEX}"
        )
    failures = []
    checked = 0
    for q_v in (2, 3, 4, 5, 8, 9):
        for r in range(1, max_rank + 1):
            for d in range(1, r + 1):
                if r % d != 0:
                    continue
                checked += 1
                closed = lambda_value(q_v, r, d)
                ratio = lambda_from_volumes(q_v, r, d)
                if closed != ratio:
                    failures.append(
                        f"q_v={q_v} r={r} d={d}: closed {closed} != ratio {ratio}"
                    )
    return checked, failures, ""


def suite_brute_oracles() -> tuple[int, list[str], str]:
    """Brute-force counts against the closed formulas they oracle."""
    failures = []
    checked = 0
    for q, r in ((2, 2), (3, 2), (2, 3)):
        checked += 1
        # |GL_r(F_q)| is vol_G times the q^(r^2) points of M_r(F_q)
        expected = vol_G(q, r) * q ** (r * r)
        got = gl_count_bruteforce(q, r)
        if got != expected:
            failures.append(f"gl q={q} r={r}: {got} != {expected}")
    for ell in (0, 1, 2):
        checked += 1
        brute = sublattice_count_bruteforce(2, 2, ell)
        expected = local_ideal_count(2, 2, 1, ell)
        if brute != expected:
            failures.append(f"sublattice ell={ell}: {brute} != {expected}")
    return checked, failures, ""


def suite_local_models(pairs: int = 100, seed: int = 0) -> tuple[int, list[str], str]:
    """Defining relations of every small local model at precision 6.

    The matrix models are imported here, not at the top: they load
    `dataclasses` (for their check report), which every other suite
    does without."""
    from .localmodels import run_model_checks

    failures = []
    checked = 0
    for q_v in (2, 3):
        for d in (1, 2, 3, 4):
            for b in range(1, d + 1):
                if gcd(b, d) != 1:
                    continue
                checked += 1
                report = run_model_checks(
                    q_v, d, b, precision=6, pairs=pairs, seed=seed
                )
                if not report.ok:
                    failures.append(
                        f"q_v={q_v} d={d} b={b}: "
                        f"mult={report.multiplicativity_ok} "
                        f"pi={report.pi_power_ok} "
                        f"embed={report.embedding_in_order_ok} "
                        f"neg={report.negative_valuation_excluded_ok}"
                    )
    return checked, failures, f"{pairs} random pairs per model"


def _config_label(data: RamificationData) -> str:
    field = data.field
    return (
        f"q={field.q} g={field.genus} deginf={field.deg_inf} "
        f"r={data.rank} [{shorthand(data)}]"
    )


SUITES = {
    "zeta-at-zero": suite_zeta_at_zero,
    "series-closed-form": suite_series_closed_form,
    "drinfeld": suite_drinfeld,
    "lambda-volumes": suite_lambda_volumes,
    "brute-force-oracles": suite_brute_oracles,
    "local-models": suite_local_models,
}


def run_suite(name: str, **options: object) -> dict:
    """The printed report of one suite.  It passes only when it checked
    something and nothing failed."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checked, failures, notes = SUITES[name](**options)
    return {
        "suite": name,
        "checked": checked,
        "ok": not failures and checked > 0,
        "failures": failures,
        "notes": notes,
    }
