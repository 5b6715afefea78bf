"""Every verify suite must be able to fail: a table of seeded faults.

Each fault wraps one function of the package.  It is patched by identity
in every loaded massform module, the way perfbench's tracer installs its
wrappers, so the faulty function is reached under every name a module
bound it to.  Each fault runs in its own `python -O` process, so no memo
leaks from one fault to the next and no kill comes from an `assert`.  A
suite fails when `massform verify --suite S` exits 70: a failed
comparison, or an error raised inside it.

KILLS lists faults with the suites that must fail on them; only those
suites run.  SURVIVORS lists faults that no suite catches today, each
with the reason; every suite runs, and none may fail, so the gap stays
in view until a suite closes it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The child process: argv is the module, the attribute, the fault's
# source (a function from the original callable to the faulty one,
# evaluated with the massform modules in scope) and the suites to run.
# It prints the exit code of each suite as JSON.
CHILD = """
import importlib, io, json, sys
from contextlib import redirect_stdout

import massform.cli, massform.verify

# replace the callable on its module and under every name a loaded
# massform module bound it to; its module is loaded first, as verify
# loads the matrix models only inside the suite that runs them
def install(module_name, attr, make):
    original = vars(importlib.import_module(module_name))[attr]
    modules = {name.rpartition(".")[2]: module for name, module in sys.modules.items()
               if name == "massform" or name.startswith("massform.")}
    faulty = eval(make, dict(modules))(original)
    for module in modules.values():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = faulty


module_name, attr, fault, *suites = sys.argv[1:]
install(module_name, attr, fault)
codes = {}
for suite in suites:
    with redirect_stdout(io.StringIO()):
        codes[suite] = massform.cli.run(["verify", "--suite", suite])
print(json.dumps(codes))
"""

ALL_SUITES = (
    "zeta-at-zero",
    "series-closed-form",
    "drinfeld",
    "lambda-volumes",
    "brute-force-oracles",
    "local-models",
)

# (id, module, attribute, fault, the suites that must fail)
KILLS = [
    ("zeta-special-value-doubled-at-2", "massform.funcfield", "zeta_special_value",
     "lambda f: lambda data, i: 2 * f(data, i) if i == 2 else f(data, i)",
     {"zeta-at-zero"}),
    ("zeta-special-value-sign-at-3", "massform.funcfield", "zeta_special_value",
     "lambda f: lambda data, i: -f(data, i) if i == 3 else f(data, i)",
     {"zeta-at-zero", "drinfeld"}),
    ("lambda-value-plus-one-at-d3", "massform.csa", "lambda_value",
     "lambda f: lambda norm, r, d: f(norm, r, d) + (d == 3)",
     {"zeta-at-zero", "drinfeld", "lambda-volumes"}),
    ("cyclotomic-value-plus-one-at-m3", "massform.orderzeta", "_cyclotomic",
     "lambda f: lambda m: algebra.PolyQ((f(m).coeffs[0] + (m == 3), *f(m).coeffs[1:]))",
     {"zeta-at-zero", "series-closed-form"}),
    ("correction-keys-drop-the-first", "massform.orderzeta", "_correction_keys",
     "lambda f: lambda degree, inv_den, r: f(degree, inv_den, r)[1:]",
     {"zeta-at-zero", "series-closed-form"}),
    ("exponents-double-pole-at-q-to-minus-r", "massform.orderzeta", "_exponents",
     "lambda f: lambda data: {**f(data), (data.rank, 1): -2}",
     {"zeta-at-zero", "series-closed-form"}),
    ("exponents-without-the-infinity-cyclotomics", "massform.orderzeta", "_exponents",
     "lambda f: lambda data: {key: e for key, e in f(data).items() if key[0] or key[1] < 2}",
     {"zeta-at-zero", "series-closed-form"}),
    # the shifts zeta_A(q^j u), 0 < j < r, each without their Phi*_m, m > 1
    ("base-exponents-without-the-shifted-infinity-factors", "massform.orderzeta",
     "_base_exponents",
     "lambda f: lambda r, deg_inf: tuple((k, e) for k, e in f(r, deg_inf)"
     " if not (k[0] and k[1] > 1))",
     {"zeta-at-zero", "series-closed-form"}),
    # the pole checks, made on the value's parts and on the merged map
    ("base-exponents-with-a-pole-at-one", "massform.orderzeta", "_base_exponents",
     "lambda f: lambda r, deg_inf: (*f(r, deg_inf), ((0, 1), -1))",
     {"zeta-at-zero", "series-closed-form"}),
    ("base-exponents-without-the-pole-at-q-to-minus-r", "massform.orderzeta",
     "_base_exponents",
     "lambda f: lambda r, deg_inf: tuple(pair for pair in f(r, deg_inf) if pair[0] != (r, 1))",
     {"zeta-at-zero", "series-closed-form"}),
    ("correction-keys-cancel-the-pole-at-q-to-minus-r", "massform.orderzeta",
     "_correction_keys",
     "lambda f: lambda degree, inv_den, r: (*f(degree, inv_den, r), (r, 1))",
     {"zeta-at-zero", "series-closed-form"}),
    # the series of num(1 - u)/den(1 - u) is the series of num/den, so
    # only the lowest-terms check of series-closed-form sees this one there
    ("expand-not-in-lowest-terms", "massform.orderzeta", "_expand",
     "lambda f: lambda field, exponents: (lambda form, u: algebra.RationalFunctionQ("
     "form.num * u, form.den * u))(f(field, exponents), algebra.PolyQ.one_minus(1, 1))",
     {"zeta-at-zero", "series-closed-form"}),
    ("local-ideal-count-plus-one-at-ell2", "massform.orderzeta", "local_ideal_count",
     "lambda f: lambda q_v, m_v, d_v, ell: f(q_v, m_v, d_v, ell) + (ell == 2)",
     {"series-closed-form", "brute-force-oracles"}),
    ("places-of-degree-plus-one-at-3", "massform.funcfield", "places_of_degree",
     "lambda f: lambda data, n: f(data, n) + (n == 3)",
     {"series-closed-form"}),
    ("geometric-plus-one-at-n2", "massform.orderzeta", "_geometric",
     "lambda f: lambda x, n: f(x, n) + (n == 2)",
     {"series-closed-form"}),
    # the Euler product then runs over infinity too
    ("excluded-degrees-without-infinity", "massform.orderzeta", "_excluded_degrees",
     "lambda f: lambda data: f(data)[1:]",
     {"series-closed-form"}),
    # the place-by-place product then leaves out one place of each degree
    ("series-pow-one-factor-short", "massform.algebra", "series_pow",
     "lambda f: lambda a, n: f(a, max(n - 1, 0))",
     {"series-closed-form"}),
    ("series-mul-drops-the-top-coefficient", "massform.algebra", "series_mul",
     "lambda f: lambda a, b: algebra.TruncatedSeriesQ(a.order, (*f(a, b).coeffs[:-1], 0))",
     {"series-closed-form"}),
    ("vol-g-times-qv", "massform.localvolumes", "vol_G",
     "lambda f: lambda q_v, r: q_v * f(q_v, r)",
     {"lambda-volumes", "brute-force-oracles"}),
    ("vol-gprime-times-qv", "massform.localvolumes", "vol_Gprime",
     "lambda f: lambda q_v, m, d: q_v * f(q_v, m, d)",
     {"lambda-volumes"}),
    ("drinfeld-mass-doubled-at-rank-3", "massform.massengine", "drinfeld_mass",
     "lambda f: lambda field, r, p: 2 * f(field, r, p) if r == 3 else f(field, r, p)",
     {"drinfeld"}),
    ("delta-mul-operands-swapped", "massform.localmodels", "delta_mul",
     "lambda f: lambda model, xs, ys: f(model, ys, xs)",
     {"local-models"}),
    ("gl-count-plus-one", "massform.localvolumes", "gl_count_bruteforce",
     "lambda f: lambda q, r: f(q, r) + 1",
     {"brute-force-oracles"}),
    ("zeta-a-returns-zeta-k", "massform.funcfield", "zeta_A",
     "lambda f: funcfield.zeta_K",
     {"zeta-at-zero"}),
    ("zeta-a-without-its-infinity-factor", "massform.funcfield", "zeta_A",
     "lambda f: lambda data: f(data)"
     " * algebra.ratfun(algebra.PolyQ.one(), algebra.PolyQ.one_minus(1, data.deg_inf))",
     {"zeta-at-zero"}),
    ("class-number-is-p-at-one", "massform.funcfield", "class_number_A",
     "lambda f: lambda data: f(data) // data.deg_inf",
     {"zeta-at-zero"}),
    # _mobius reads the exponents, so mu(4) = -1: "degree-4 place count
    # is not integral"
    ("prime-factors-without-exponents", "massform.errors", "prime_factors",
     "lambda f: lambda n: {p: 1 for p in f(n)}",
     {"zeta-at-zero", "series-closed-form", "drinfeld"}),
    ("digits-most-significant-first", "massform.finitefield", "digits",
     "lambda f: lambda code, base, count: f(code, base, count)[::-1]",
     {"local-models"}),
    # the packed kernel of mat_mul with its lanes never reduced mod p:
    # the identity for a translate table
    ("packed-lanes-not-reduced-mod-p", "massform.finitefield", "_Packing",
     "lambda f: lambda *args: (lambda k: setattr(k, 'mod_p', bytes(range(256))) or k)(f(*args))",
     {"local-models"}),
    # the sublattice oracle builds every entry of a combination with it,
    # and the division-algebra product of the multiplicativity check
    ("log-dot-drops-the-last-term", "massform.finitefield", "log_dot",
     "lambda f: lambda field, terms, precision: f(field, list(terms)[:-1], precision)",
     {"local-models", "brute-force-oracles"}),
]

# (id, module, attribute, fault, why no suite fails)
SURVIVORS = [
    ("weil-test-always-true", "massform.funcfield", "real_roots_within",
     "lambda f: lambda h, q: True",
     "no suite builds an invalid field"),
    ("iwahori-index-times-qv", "massform.localvolumes", "iwahori_index",
     "lambda f: lambda q_v, d: q_v * f(q_v, d)",
     "no suite reads the Iwahori index; test_localmodels.py::"
     "test_iwahori_index_frozen is the only check of its formula"),
]


def _failing_suites(module, attr, fault, suites):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHILD, module, attr, fault, *suites],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    assert set(codes.values()) <= {0, 70}, codes
    return {suite for suite, code in codes.items() if code == 70}


@pytest.mark.parametrize(
    "module, attr, fault, suites",
    [row[1:] for row in KILLS],
    ids=[row[0] for row in KILLS],
)
def test_fault_fails_its_suites(module, attr, fault, suites):
    assert _failing_suites(module, attr, fault, sorted(suites)) == suites


@pytest.mark.parametrize(
    "module, attr, fault, reason",
    [row[1:] for row in SURVIVORS],
    ids=[row[0] for row in SURVIVORS],
)
def test_known_survivor_fails_no_suite(module, attr, fault, reason):
    assert _failing_suites(module, attr, fault, ALL_SUITES) == set(), reason


def test_every_suite_has_a_kill():
    from massform import verify

    assert set(ALL_SUITES) == set(verify.SUITES)
    assert set().union(*(row[-1] for row in KILLS)) == set(ALL_SUITES)
