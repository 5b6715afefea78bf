"""Cross-check suites tying the independent computational routes together.

Each suite pits two unrelated pipelines against each other over a
deterministic battery or a seeded random stream and reports exact
agreement or a list of failing configurations.  The command-line
`verify` subcommand and the acceptance tests both run these; nothing
here weakens a comparison to make it pass.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .algebra import PolyQ, series_from_ratfun
from .csa import (
    RamificationData,
    RamifiedPlace,
    lambda_value,
    parity_check,
    shorthand,
    validate,
)
from .errors import EmptySelectionError, InternalConsistencyError, InvalidFieldError
from .funcfield import (
    FunctionFieldData,
    class_number_A,
    places_of_degree,
    zeta_A,
)
from .localmodels import (
    gl_count_bruteforce,
    iwahori_index,
    lambda_from_volumes,
    run_model_checks,
    sublattice_count_bruteforce,
)
from .massengine import drinfeld_mass, mass
from .orderzeta import (
    local_ideal_count,
    order_zeta_at_zero,
    order_zeta_closed_form,
    order_zeta_series,
)
from .algebra import ratfun_eval


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checked: int
    failures: tuple[str, ...]
    elapsed_seconds: float
    notes: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures and self.checked > 0


# ----------------------------------------------------------------------
# Reference fields and batteries
# ----------------------------------------------------------------------

GENUS_ONE_L_POLY = (1, 1, 2)    # over F_2: 4 rational points, h = 4


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


def _finite_available(field: FunctionFieldData, degree: int) -> int:
    n = places_of_degree(field, degree)
    if degree == field.deg_inf:
        n -= 1
    return n


def _must_be_valid(data: RamificationData) -> RamificationData:
    report = validate(data)
    if not report.ok:
        raise InternalConsistencyError(
            f"battery produced invalid data {shorthand(data)}: {report.failures}"
        )
    return data


def definite_battery(
    field: FunctionFieldData,
    ranks: tuple[int, ...] = (2, 3, 4, 6),
    max_degree: int = 3,
    sizes: tuple[int, ...] = (2, 3),
) -> list[RamificationData]:
    """All definite ramification data over `field` with the given ranks,
    two or three ramified places (infinity included), positive
    canonical invariants, and finite place degrees up to max_degree."""
    out: list[RamificationData] = []
    degrees = [
        delta
        for delta in range(1, max_degree + 1)
        if _finite_available(field, delta) >= 1
    ]
    for r in ranks:
        for b0 in _coprime_residues(r):
            inf_place = RamifiedPlace(
                degree=field.deg_inf, inv_num=b0, inv_den=r, is_infinity=True
            )
            if 2 in sizes:
                # the finite invariant is forced by the sum condition
                bf = (r - b0) % r
                for delta in degrees:
                    out.append(
                        _must_be_valid(
                            RamificationData(
                                field=field,
                                rank=r,
                                places=(inf_place, RamifiedPlace(delta, bf, r)),
                            )
                        )
                    )
            if 3 in sizes:
                finite_divisors = [d for d in range(2, r + 1) if r % d == 0]
                specs = [
                    (delta, d, b)
                    for delta in degrees
                    for d in finite_divisors
                    for b in _coprime_residues(d)
                ]
                for i, (delta1, d1, b1) in enumerate(specs):
                    for delta2, d2, b2 in specs[i:]:
                        if (
                            delta1 == delta2
                            and _finite_available(field, delta1) < 2
                        ):
                            continue
                        total = (
                            Fraction(b0, r)
                            + Fraction(b1, d1)
                            + Fraction(b2, d2)
                        )
                        if total.denominator != 1:
                            continue
                        out.append(
                            _must_be_valid(
                                RamificationData(
                                    field=field,
                                    rank=r,
                                    places=(
                                        inf_place,
                                        RamifiedPlace(delta1, b1, d1),
                                        RamifiedPlace(delta2, b2, d2),
                                    ),
                                )
                            )
                        )
    return out


def full_battery(
    ranks: tuple[int, ...] = (2, 3, 4, 6), max_degree: int = 3
) -> list[RamificationData]:
    out: list[RamificationData] = []
    for field in battery_fields():
        out.extend(definite_battery(field, ranks=ranks, max_degree=max_degree))
    return out


def random_definite_data(
    rng: random.Random,
    fields: tuple[FunctionFieldData, ...] | None = None,
    ranks: tuple[int, ...] = (2, 3, 4, 6),
    max_degree: int = 3,
    max_finite: int = 3,
) -> RamificationData:
    """One random valid definite ramification datum.

    Finite invariants are drawn freely except the last, which absorbs
    the sum condition; draws that cannot be patched are rerolled."""
    if fields is None:
        fields = battery_fields()
    while True:
        field = rng.choice(fields)
        r = rng.choice(ranks)
        b0 = rng.choice(_coprime_residues(r))
        places = [
            RamifiedPlace(
                degree=field.deg_inf, inv_num=b0, inv_den=r, is_infinity=True
            )
        ]
        taken: dict[int, int] = {}
        residual = Fraction(b0, r)
        k = rng.randint(1, max_finite)
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
                for delta in range(1, max_degree + 1)
                if _finite_available(field, delta) - taken.get(delta, 0) >= 1
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
        data = RamificationData(field=field, rank=r, places=tuple(places))
        if validate(data).ok:
            return data


def random_product_field(
    rng: random.Random, qs: tuple[int, ...] = (2, 3, 4, 5), max_genus: int = 3
) -> FunctionFieldData:
    """A valid field whose L-polynomial is a product of degree-2
    symmetric factors 1 + a*T + q*T^2.

    Not every such product passes validation (a factor pair can drive a
    place count negative), so failures reroll."""
    while True:
        q = rng.choice(qs)
        genus = rng.randint(1, max_genus)
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
# Suites
# ----------------------------------------------------------------------

def suite_zeta_at_zero(
    ranks: tuple[int, ...] = (2, 3, 4, 6), max_degree: int = 3, **_: object
) -> SuiteReport:
    """Capstone: the order zeta value at zero against the factored mass,
    computed along disjoint code paths, over the whole battery."""
    t0 = time.time()
    failures = []
    battery = full_battery(ranks=ranks, max_degree=max_degree)
    if not battery:
        raise EmptySelectionError(
            f"ranks {ranks} and max degree {max_degree} select no configuration"
        )
    for data in battery:
        lhs = order_zeta_at_zero(data)
        rhs = -mass(data).mass
        if lhs != rhs:
            failures.append(
                f"{_config_label(data)}: zeta(0)={lhs} but -mass={rhs}"
            )
    return SuiteReport(
        suite="zeta-at-zero",
        checked=len(battery),
        failures=tuple(failures),
        elapsed_seconds=time.time() - t0,
        notes=f"{len(battery)} definite configurations",
    )


def _series_sample(per_rank: int = 2) -> list[RamificationData]:
    sample = []
    for field in battery_fields():
        battery = definite_battery(field)
        by_rank: dict[int, list[RamificationData]] = {}
        for data in battery:
            by_rank.setdefault(data.rank, []).append(data)
        for rank_list in by_rank.values():
            sample.extend(rank_list[:1])
            if per_rank > 1 and len(rank_list) > 1:
                sample.append(rank_list[-1])
    return sample


def suite_series_closed_form(series_order: int = 12, **_: object) -> SuiteReport:
    """Dirichlet series built place by place against the closed-form
    rational function expanded by long division."""
    t0 = time.time()
    failures = []
    sample = _series_sample()
    for data in sample:
        direct = order_zeta_series(data, series_order)
        closed = series_from_ratfun(
            order_zeta_closed_form(data).ratfun, series_order
        )
        if direct != closed:
            failures.append(f"{_config_label(data)}: series mismatch")
    return SuiteReport(
        suite="series-closed-form",
        checked=len(sample),
        failures=tuple(failures),
        elapsed_seconds=time.time() - t0,
        notes=f"order {series_order}",
    )


def suite_drinfeld(**_: object) -> SuiteReport:
    """Specialized Drinfeld-type mass against the general engine."""
    t0 = time.time()
    failures = []
    checked = 0
    spot = {(2, 2, 1): Fraction(1, 3), (2, 2, 2): Fraction(1), (2, 2, 3): Fraction(7, 3)}
    for q in (2, 3, 4):
        field = FunctionFieldData.rational(q)
        for r in (2, 3, 4):
            for p_degree in (1, 2, 3):
                checked += 1
                expected = drinfeld_mass(field, r, p_degree)
                data = RamificationData(
                    field=field,
                    rank=r,
                    places=(
                        RamifiedPlace(1, -1, r, is_infinity=True),
                        RamifiedPlace(p_degree, 1, r),
                    ),
                )
                got = mass(data).mass
                if got != expected:
                    failures.append(
                        f"q={q} r={r} deg={p_degree}: engine {got} != {expected}"
                    )
                want_spot = spot.get((q, r, p_degree))
                if want_spot is not None and expected != want_spot:
                    failures.append(
                        f"q={q} r={r} deg={p_degree}: spot value {expected} != {want_spot}"
                    )
    return SuiteReport(
        suite="drinfeld",
        checked=checked,
        failures=tuple(failures),
        elapsed_seconds=time.time() - t0,
    )


def suite_lambda_volumes(max_rank: int = 8, **_: object) -> SuiteReport:
    """Local factor closed form against the volume-ratio pipeline."""
    t0 = time.time()
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
    return SuiteReport(
        suite="lambda-volumes",
        checked=checked,
        failures=tuple(failures),
        elapsed_seconds=time.time() - t0,
    )


def suite_brute_oracles(**_: object) -> SuiteReport:
    """Brute-force counts against the closed formulas they oracle."""
    t0 = time.time()
    failures = []
    checked = 0
    for q, r in ((2, 2), (3, 2), (2, 3)):
        checked += 1
        expected = q ** (r * (r - 1) // 2)
        for i in range(1, r + 1):
            expected *= q ** i - 1
        got = gl_count_bruteforce(q, r)
        if got != expected:
            failures.append(f"gl q={q} r={r}: {got} != {expected}")
    for q_v, d in ((2, 2), (3, 2), (2, 3)):
        checked += 1
        formula = iwahori_index(q_v, d)
        try:
            brute = iwahori_index(q_v, d, brute_force=True)
        except InternalConsistencyError as exc:
            failures.append(f"iwahori q_v={q_v} d={d}: {exc}")
            continue
        if brute != formula:
            failures.append(f"iwahori q_v={q_v} d={d}: {brute} != {formula}")
    for ell in (0, 1, 2):
        checked += 1
        brute = sublattice_count_bruteforce(2, 2, ell)
        expected = local_ideal_count(2, 2, 1, ell)
        if brute != expected:
            failures.append(f"sublattice ell={ell}: {brute} != {expected}")
    return SuiteReport(
        suite="brute-force-oracles",
        checked=checked,
        failures=tuple(failures),
        elapsed_seconds=time.time() - t0,
    )


def suite_local_models(pairs: int = 100, seed: int = 0, **_: object) -> SuiteReport:
    """Defining relations of every small local model at precision 6."""
    t0 = time.time()
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
    return SuiteReport(
        suite="local-models",
        checked=checked,
        failures=tuple(failures),
        elapsed_seconds=time.time() - t0,
        notes=f"{pairs} random pairs per model",
    )


def suite_random_properties(
    count: int = 1000, seed: int = 20260813, series_order: int = 6, **_: object
) -> SuiteReport:
    """Parity, positivity, and coefficient integrality over a seeded
    stream of random valid definite data."""
    if count < 1:
        raise EmptySelectionError(f"count {count} must be >= 1")
    t0 = time.time()
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        data = random_definite_data(rng)
        label = _config_label(data)
        if not parity_check(data):
            failures.append(f"{label}: parity check false")
        total = mass(data).mass
        if not total > 0:
            failures.append(f"{label}: mass {total} not positive")
        coeffs = order_zeta_series(data, series_order).coeffs
        for n, c in enumerate(coeffs):
            if c.denominator != 1 or c < 0:
                failures.append(f"{label}: coefficient {n} is {c}")
                break
    return SuiteReport(
        suite="random-properties",
        checked=count,
        failures=tuple(failures),
        elapsed_seconds=time.time() - t0,
        notes=f"seed {seed}, series order {series_order}",
    )


def suite_class_number_products(
    count: int = 50, seed: int = 7, **_: object
) -> SuiteReport:
    """Full zeta at u=1 against -h/(q-1) for fields whose L-polynomial
    is a product of degree-2 symmetric factors."""
    if count < 1:
        raise EmptySelectionError(f"count {count} must be >= 1")
    t0 = time.time()
    rng = random.Random(seed)
    failures = []
    seen: set[tuple] = set()
    fields = []
    while len(fields) < count:
        field = random_product_field(rng)
        key = (field.q, field.l_poly.coeffs)
        if key in seen:
            continue
        seen.add(key)
        fields.append(field)
    for field in fields:
        lhs = ratfun_eval(zeta_A(field), Fraction(1))
        rhs = -Fraction(class_number_A(field), field.q - 1)
        if lhs != rhs:
            failures.append(
                f"q={field.q} l_poly={field.l_poly.coeffs}: {lhs} != {rhs}"
            )
    return SuiteReport(
        suite="zeta-class-number",
        checked=len(fields),
        failures=tuple(failures),
        elapsed_seconds=time.time() - t0,
        notes=f"seed {seed}",
    )


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
    "random-properties": suite_random_properties,
    "zeta-class-number": suite_class_number_products,
}


def run_suite(name: str, **options: object) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**options)


def run_all(**options: object) -> list[SuiteReport]:
    return [run_suite(name, **options) for name in SUITES]


def suite_report_to_json_dict(report: SuiteReport) -> dict:
    return {
        "suite": report.suite,
        "checked": report.checked,
        "ok": report.ok,
        "failures": list(report.failures),
        "elapsed_seconds": round(report.elapsed_seconds, 3),
        "notes": report.notes,
    }
