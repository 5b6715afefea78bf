"""Tests of the benchmark itself: every checker rejects a corrupted output,
and every workload runs once at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import clicases  # noqa: E402
import library  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(autouse=True)
def package_on_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


def tiny(workload, keep):
    cases, run, check = worker.load(workload, traced=False)
    return [c for c in cases(7) if keep(c)][:4], run, check


def test_identity_rejects_scaled_mass():
    cases, run, check = tiny("identity", lambda c: True)
    out = run(cases[0])
    assert check(cases[0], out) == []
    assert check(cases[0], (out[0] * Fraction(8, 7), out[1]))
    assert check(cases[0], (out[0], out[1] * Fraction(8, 7)))


def test_series_rejects_changed_coefficient():
    cases, run, check = tiny("series", lambda c: c[2] <= 10)
    coeffs = run(cases[0])
    assert check(cases[0], coeffs) == []
    for k in (0, 1, len(coeffs) - 1):
        bad = list(coeffs)
        bad[k] += 1
        assert check(cases[0], tuple(bad)), k


def test_model_check_rejects_false_flag():
    cases, run, check = tiny("local-models", lambda c: c[1] <= 2)
    report = run(cases[0])
    assert check(cases[0], report) == []
    for flag in oracle.MODEL_FLAGS:
        assert check(cases[0], dataclasses.replace(report, **{flag: False})), flag
    assert check(cases[0], dataclasses.replace(report, pairs_checked=oracle.MODEL_PAIRS - 1))


# the JSON key whose value each cli check recomputes
CLI_KEYS = {"mass": '"mass"', "class-number": '"h_A"', "volumes": '"ratio"',
            "lambda": '"lambda"', "table": '"mass_num"', "order-zeta": '"series"'}


def test_cli_rejects_changed_digit():
    by_kind = {}
    for case in clicases.cases(7):
        by_kind.setdefault(case[0], case)
    for kind, key in CLI_KEYS.items():
        case = by_kind[kind]
        code, out, err = clicases.run_in_process(case)
        assert clicases.check(case, (code, out, err)) == [], kind
        at = next(i for i in range(out.index(key), len(out)) if out[i].isdigit())
        bad = out[:at] + str((int(out[at]) + 1) % 10) + out[at + 1:]
        assert clicases.check(case, (code, bad, err)), kind


def test_oracle_against_frozen_values():
    # the README's examples: mass 1/3 on F_2(t), h = 4 on the genus-1 field
    datum = oracle.Datum(2, (1,), 1, 2, ((1, 2, True), (1, 2, False)))
    assert oracle.mass(datum) == Fraction(1, 3)
    assert oracle.closed_form_series(datum, 4) == [1, 4, 16, 64, 256]
    assert oracle.first_coefficient(datum) == 4
    assert oracle.class_number((1, 1, 2), 1) == 4


@pytest.mark.parametrize("workload,keep", [
    ("identity", lambda c: True),
    ("series", lambda c: c[2] <= 10),
    ("local-models", lambda c: c[1] <= 2),
    ("cli", lambda c: c[0] in ("mass", "class-number", "error")),
])
def test_tiny_round(workload, keep):
    cases, run, check = tiny(workload, keep)
    result = worker.run_round(cases, run, check)
    assert result["problems"] == []
    expected_failures = sum(1 for c in cases if c[0] == "error") if workload == "cli" else 0
    assert result["failed"] <= expected_failures
    assert result["attempted"] == len(cases) > 0


def test_traced_cli_run_reports_every_layer():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(clicases.cases(3))
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    assert result["metrics"]["massengine.mass.calls"]["value"] > 0


def test_run_ends_when_every_operation_fails(monkeypatch):
    cases, _, check = tiny("identity", lambda c: True)

    def broken(case):
        raise RuntimeError("broken")

    def fake_spawn(workload, seed, mode):
        if mode == "setup":
            return 0.01, None
        return 0.01, dict(worker.run_round(cases, broken, check), peak_rss_kb=1)

    monkeypatch.setattr(bench, "spawn", fake_spawn)
    with pytest.raises(bench.BenchError, match="all 4 operations failed"):
        bench.timed_run("identity", 7, 0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
