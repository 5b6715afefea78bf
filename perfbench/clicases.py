"""The cli workload: one invocation of every subcommand at a small size.

Each operation is a fresh `python -m massform.cli` process, so it pays
interpreter start, imports, click parsing and JSON emission.  A case is
(kind, argv, params); check() recomputes the numbers with oracle.py.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracle

# (q, l_poly) of the verify battery's fields; deg_inf is 1 for all five
FIELDS = ((2, (1,)), (3, (1,)), (4, (1,)), (5, (1,)), (2, (1, 1, 2)))

# Invocations that end in a ZeroDivisionError traceback instead of a typed
# input error (exit 2); they do not depend on the seed.
ERROR_CASES = (
    ("error", ["local", "volumes", "--qv", "2", "--r", "2", "--d", "0"], {}),
    ("error", ["table", "--qs", "2", "--ranks", "0"], {}),
)


class OperationFailed(Exception):
    """The invocation crashed or exited with the wrong code."""


def cases(seed: int) -> list:
    rng = random.Random(seed)
    q, l_poly = rng.choice(FIELDS)
    rank = rng.choice((2, 3, 4))
    degree = rng.choice((1, 2))
    field_args = [
        "--q", str(q), "--genus", str((len(l_poly) - 1) // 2),
        "--l-poly", ",".join(map(str, l_poly)), "--deg-inf", "1",
    ]
    datum = oracle.Datum(q, l_poly, 1, rank, ((1, rank, True), (degree, rank, False)))
    ram = f"inf:1/{rank},{degree}:{rank - 1}/{rank}"
    vol_r = rng.choice((2, 3, 4, 6))
    vol = {
        "q_v": rng.choice((2, 3, 4, 5)),
        "r": vol_r,
        "d": rng.choice([d for d in range(1, vol_r + 1) if vol_r % d == 0]),
    }
    vol_args = ["--qv", str(vol["q_v"]), "--r", str(vol["r"]), "--d", str(vol["d"])]
    iw = {"q_v": rng.choice((2, 3)), "d": rng.choice((2, 3))}
    model_qv = rng.choice((2, 3))
    table_q = rng.choice((2, 3, 4, 5))
    return [
        ("mass", ["mass", *field_args, "--rank", str(rank), "--ram", ram], {"datum": datum}),
        ("mass", ["drinfeld-mass", *field_args, "--rank", str(rank), "--p-degree", str(degree)],
         {"datum": datum}),
        ("class-number", ["class-number", *field_args], {"datum": datum}),
        ("zeta", ["zeta", *field_args, "--values", "3"], {"datum": datum}),
        ("order-zeta",
         ["order-zeta", *field_args, "--rank", str(rank), "--ram", ram, "--series-order", "8"],
         {"datum": datum, "order": 8}),
        ("volumes", ["local", "volumes", *vol_args], vol),
        ("lambda", ["local", "lambda", *vol_args], vol),
        ("iw-index", ["local", "iw-index", "--qv", str(iw["q_v"]), "--d", str(iw["d"])], iw),
        ("model-check",
         ["local", "model-check", "--qv", str(model_qv), "--d", "2",
          "--pairs", str(oracle.MODEL_PAIRS), "--seed", str(rng.randrange(2 ** 16))], {}),
        ("table", ["table", "--qs", str(table_q), "--ranks", "2,3", "--p-degrees", "1,2"],
         {"q": table_q, "ranks": (2, 3), "p_degrees": (1, 2)}),
        ("verify", ["verify", "--suite", "drinfeld"], {}),
        *ERROR_CASES,
    ]


def _env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0")


def warm() -> None:
    """One untimed invocation, so that the first timed one finds the
    interpreter and the package in the file cache."""
    subprocess.run(
        [sys.executable, "-m", "massform.cli", "--help"],
        env=_env(), capture_output=True, check=True,
    )


def _finish(case, code: int, out: str, err: str):
    want = 2 if case[0] == "error" else 0
    if code != want or "Traceback" in err:
        tail = err.strip().splitlines()[-1:] or [""]
        raise OperationFailed(f"{' '.join(case[1])}: exit {code}, {tail[0]}")
    return code, out, err


def run(case):
    proc = subprocess.run(
        [sys.executable, "-m", "massform.cli", *case[1]],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    return _finish(case, proc.returncode, proc.stdout, proc.stderr)


def run_in_process(case):
    """The same invocation through cli.run() in this interpreter."""
    from massform import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(case[1]))
    return _finish(case, code, out.getvalue(), err.getvalue())


def byte_stable(case) -> bool:
    """verify prints its elapsed wall time, so its stdout differs run to run."""
    return case[0] != "verify"


def check(case, output) -> list[str]:
    kind, argv, params = case
    label = " ".join(argv)
    try:
        obj = json.loads(output[1])
    except json.JSONDecodeError:
        return [f"{label}: stdout is not JSON"]
    try:
        problems = _CHECKS[kind](obj, params)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems = [f"malformed output ({type(exc).__name__}: {exc})"]
    return [f"{label}: {p}" for p in problems]


def _mass(obj, p):
    want = oracle.mass(p["datum"])
    return [] if Fraction(obj["mass"]) == want else [f"mass {obj['mass']} != {want}"]


def _class_number(obj, p):
    d = p["datum"]
    want = oracle.class_number(d.l_poly, d.deg_inf)
    return [] if Fraction(obj["h_A"]) == want else [f"h_A {obj['h_A']} != {want}"]


def _zeta(obj, p):
    d = p["datum"]
    return [
        f"zeta_K(-{i}) = {obj['special_values'][str(-i)]}"
        for i in (1, 2, 3)
        if Fraction(obj["special_values"][str(-i)]) != oracle.zeta_at_minus(d.q, d.l_poly, i)
    ]


def _order_zeta(obj, p):
    problems = []
    if -Fraction(obj["value_at_zero"]) != oracle.mass(p["datum"]):
        problems.append(f"value at zero {obj['value_at_zero']} is not minus the mass")
    if [Fraction(c) for c in obj["series"]] != oracle.closed_form_series(p["datum"], p["order"]):
        problems.append("series differs from the closed form's expansion")
    return problems


def _volumes(obj, p):
    want = oracle.local_lambda(p["q_v"], p["r"], p["d"])
    return [] if Fraction(obj["ratio"]) == want else [f"ratio {obj['ratio']} != {want}"]


def _lambda(obj, p):
    want = oracle.local_lambda(p["q_v"], p["r"], p["d"])
    return [] if Fraction(obj["lambda"]) == want else [f"lambda {obj['lambda']} != {want}"]


def _iw_index(obj, p):
    want = oracle.iwahori_index(p["q_v"], p["d"])
    return [] if obj["index"] == want else [f"index {obj['index']} != {want}"]


def _model_check(obj, p):
    return oracle.model_report_problems(obj.__getitem__)


def _table(obj, p):
    q = p["q"]
    want = {
        (q, r, f"inf:-1/{r},{deg}:1/{r}"):
            oracle.mass(oracle.Datum(q, (1,), 1, r, ((1, r, True), (deg, r, False))))
        for r in p["ranks"] for deg in p["p_degrees"]
    }
    got = {
        (row["q"], row["r"], row["ramification"]): Fraction(row["mass_num"], row["mass_den"])
        for row in obj
    }
    return [] if got == want and len(obj) == len(want) else [f"table rows {obj} != {want}"]


def _verify(obj, p):
    reports = obj["reports"]
    if obj["ok"] is not True or not reports or any(r["checked"] < 1 for r in reports):
        return [f"verify did not pass: {obj}"]
    return []


def _error(obj, p):
    err = obj["error"]
    if not (isinstance(err["type"], str) and isinstance(err["message"], str)):
        return [f"untyped error {obj}"]
    return []


_CHECKS = {
    "mass": _mass,
    "class-number": _class_number,
    "zeta": _zeta,
    "order-zeta": _order_zeta,
    "volumes": _volumes,
    "lambda": _lambda,
    "iw-index": _iw_index,
    "model-check": _model_check,
    "table": _table,
    "verify": _verify,
    "error": _error,
}
