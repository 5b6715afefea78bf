"""The three library workloads: seeded inputs, the timed call, the check.

Each workload is a triple (cases, run, check).  cases(seed) builds the
round's inputs, run(case) is one timed operation, and check(case, output)
returns the problems found by comparing the output with oracle.py.
"""

from __future__ import annotations

import random
from math import gcd

import massform
from massform import localmodels, verify

import oracle


def datum_of(data) -> oracle.Datum:
    field = data.field
    return oracle.Datum(
        field.q,
        tuple(int(c) for c in field.l_poly.coeffs),
        field.deg_inf,
        data.rank,
        tuple((p.degree, p.inv_den, p.is_infinity) for p in data.places),
    )


# -- identity: mass against the order zeta at zero over the whole battery ---

def identity_cases(seed: int) -> list:
    cases = [(data, datum_of(data)) for data in verify.full_battery()]
    random.Random(seed).shuffle(cases)
    return cases


def identity_run(case):
    data = case[0]
    return massform.mass(data).mass, massform.order_zeta_at_zero(data)


def identity_check(case, output) -> list[str]:
    datum = case[1]
    want = oracle.mass(datum)
    got_mass, got_zeta = output
    problems = []
    if got_mass != want:
        problems.append(f"{datum}: mass {got_mass} != {want}")
    if -got_zeta != want:
        problems.append(f"{datum}: -zeta(0) {-got_zeta} != {want}")
    return problems


# -- series: the Euler-product series over orders 6..40 ---------------------

# Every (field, rank) cell of the battery is expanded at every order, and
# the seed only picks which ramification datum of the cell is used, so the
# work of a round hardly depends on the seed.  Cost rises steeply with the
# order, which puts the slowest tenth of the operations at order 40.
SERIES_ORDERS = (6, 10, 16, 24, 40)


def series_cases(seed: int) -> list:
    rng = random.Random(seed)
    cells: dict = {}
    for data in verify.full_battery():
        cells.setdefault((data.field, data.rank), []).append(data)
    cases = []
    for cell in cells.values():
        for order in SERIES_ORDERS:
            data = rng.choice(cell)
            cases.append((data, datum_of(data), order))
    rng.shuffle(cases)
    return cases


def series_run(case):
    data, _, order = case
    return massform.order_zeta_series(data, order).coeffs


def series_check(case, coeffs) -> list[str]:
    _, datum, order = case
    if any(c.denominator != 1 or c < 0 for c in coeffs):
        return [f"{datum} order {order}: coefficients not non-negative integers"]
    ints = [int(c) for c in coeffs]
    problems = []
    if ints[0] != 1:
        problems.append(f"{datum} order {order}: constant term {ints[0]}")
    want = oracle.closed_form_series(datum, order)
    if ints != want:
        k = next(k for k, (a, b) in enumerate(zip(ints, want)) if a != b)
        problems.append(
            f"{datum} order {order}: u^{k} coefficient {ints[k]}, "
            f"closed form gives {want[k]}"
        )
    if ints[1] != oracle.first_coefficient(datum):
        problems.append(
            f"{datum} order {order}: u^1 coefficient {ints[1]}, "
            f"place count gives {oracle.first_coefficient(datum)}"
        )
    return problems


# -- local-models: the defining relations of the explicit matrix models ------

SEEDS_PER_MODEL = 9


def model_cases(seed: int) -> list:
    rng = random.Random(seed)
    cases = [
        (q_v, d, b, rng.randrange(2 ** 32))
        for q_v in (2, 3)
        for d in (1, 2, 3, 4)
        for b in range(1, d + 1)
        if gcd(b, d) == 1
        for _ in range(SEEDS_PER_MODEL)
    ]
    rng.shuffle(cases)
    return cases


def model_run(case):
    q_v, d, b, seed = case
    return localmodels.run_model_checks(q_v, d, b, pairs=oracle.MODEL_PAIRS, seed=seed)


def model_check(case, report) -> list[str]:
    return [f"{case}: {p}" for p in oracle.model_report_problems(lambda key: getattr(report, key))]


WORKLOADS = {
    "identity": (identity_cases, identity_run, identity_check),
    "series": (series_cases, series_run, series_check),
    "local-models": (model_cases, model_run, model_check),
}
