"""Acceptance gate: seven exact criteria, numbered 1-6 and 8, one printed
verdict line each.

Every criterion compares two independently computed quantities with
zero tolerance.  The verdict lines are emitted outside pytest's capture
so they appear in logs even for passing tests.
"""

import time

from massform.verify import (
    _series_sample,
    run_suite,
)


def _announce(capsys, n: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nCRITERION {n} [{verdict}] {detail}", flush=True)


def test_criterion_1_order_zeta_at_zero_equals_minus_mass(capsys):
    t0 = time.perf_counter()
    report = run_suite("zeta-at-zero")
    elapsed = time.perf_counter() - t0
    ok = report["ok"] and report["checked"] >= 100 and elapsed < 60
    _announce(
        capsys,
        1,
        ok,
        f"order zeta at 0 == -mass on {report['checked']} definite configurations "
        f"({len(report['failures'])} failures, {elapsed:.1f}s)",
    )
    assert report["checked"] >= 100
    assert report["failures"] == []
    assert elapsed < 60


def test_criterion_2_series_equals_closed_form_order_12(capsys):
    sample = _series_sample()
    genus_one = sum(1 for data in sample if data.field.genus == 1)
    t0 = time.perf_counter()
    report = run_suite("series-closed-form", series_order=12)
    elapsed = time.perf_counter() - t0
    ok = report["ok"] and report["checked"] >= 20 and genus_one >= 1 and elapsed < 120
    _announce(
        capsys,
        2,
        ok,
        f"order-12 series == closed form on {report['checked']} configurations, "
        f"{genus_one} of genus 1 ({len(report['failures'])} failures, {elapsed:.1f}s)",
    )
    assert report["checked"] >= 20
    assert genus_one >= 1
    assert report["failures"] == []
    assert elapsed < 120


def test_criterion_3_drinfeld_masses(capsys):
    report = run_suite("drinfeld")
    ok = report["ok"] and report["checked"] == 27
    _announce(
        capsys,
        3,
        ok,
        f"drinfeld masses match the engine on {report['checked']} (q, r, deg) "
        f"triples incl. spot values 1/3, 1, 7/3 "
        f"({len(report['failures'])} failures)",
    )
    assert report["checked"] == 27
    assert report["failures"] == []


def test_criterion_4_lambda_closed_form_equals_volume_ratio(capsys):
    report = run_suite("lambda-volumes", max_rank=8)
    ok = report["ok"]
    _announce(
        capsys,
        4,
        ok,
        f"local factor closed form == volume ratio on {report['checked']} "
        f"(q_v, r, d) triples with r <= 8 ({len(report['failures'])} failures)",
    )
    assert report["checked"] >= 100
    assert report["failures"] == []


def test_criterion_5_brute_force_oracles(capsys):
    t0 = time.perf_counter()
    report = run_suite("brute-force-oracles")
    elapsed = time.perf_counter() - t0
    ok = report["ok"] and elapsed < 30
    _announce(
        capsys,
        5,
        ok,
        f"invertible-matrix and sublattice brute counts match "
        f"formulas on {report['checked']} cases ({len(report['failures'])} failures, "
        f"{elapsed:.1f}s)",
    )
    assert report["checked"] == 6
    assert report["failures"] == []
    assert elapsed < 30


def test_criterion_6_local_model_relations(capsys):
    report = run_suite("local-models", pairs=100)
    ok = report["ok"]
    _announce(
        capsys,
        6,
        ok,
        f"matrix-model relations at precision 6 on {report['checked']} "
        f"(q_v, d, b) models, 100 random pairs each "
        f"({len(report['failures'])} failures)",
    )
    assert report["checked"] == 12
    assert report["failures"] == []


def test_criterion_8_zeta_at_one_equals_class_number_ratio(capsys):
    # at rank 1 the order is A, and zeta_A(0) = -h(A)/(q - 1)
    report = run_suite("zeta-at-zero", max_rank=1)
    ok = report["ok"] and report["checked"] == 59
    _announce(
        capsys,
        8,
        ok,
        f"zeta_A at u=1 == -h/(q-1) and the closed form == zeta_A on "
        f"{report['checked']} rank-1 fields ({len(report['failures'])} failures)",
    )
    assert report["checked"] == 59
    assert report["failures"] == []
