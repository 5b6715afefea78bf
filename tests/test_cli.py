import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib.util import find_spec
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import massform
import massform.cli as cli
from massform import csa, errors, funcfield, localmodels, localvolumes, massengine, orderzeta, verify
from massform.csa import MAX_PLACE_DEGREE, MAX_RAMIFIED_DEGREE, MAX_RANK
from massform.errors import (
    MAX_PRINTED_DIGITS,
    MAX_Q,
    MAX_SERIES_ORDER,
    InternalConsistencyError,
    InvalidFieldError,
    InvalidRamificationError,
    rational_to_str,
)
from massform.finitefield import FIELD_SIZE_CAP
from massform.funcfield import MAX_GENUS, FunctionFieldData, zeta_A, zeta_K
from massform.localmodels import MAX_MODEL_PAIRS, MAX_MODEL_PRECISION
from massform.localvolumes import MAX_LOCAL_INDEX, MAX_LOCAL_RANK
from massform.orderzeta import order_zeta_closed_form
from test_orderzeta import reference_stream

# a prime near 10^18: trial division up to its square root ran on past
# 15 s before q was capped
HUGE_PRIME = "1000000000000000003"


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mass_example(capsys):
    code, out, _ = invoke(
        capsys,
        "mass", "--q", "2", "--genus", "0", "--deg-inf", "1",
        "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mass"] == "1/3"
    assert obj["rank"] == 2
    assert obj["definite"] is True


def test_class_number_example(capsys):
    code, out, _ = invoke(
        capsys,
        "class-number", "--q", "2", "--genus", "1",
        "--l-poly", "1,1,2", "--deg-inf", "1",
    )
    assert code == 0
    assert json.loads(out)["h_A"] == "4"


def test_drinfeld_mass_spot_values(capsys):
    for degree, expected in ((1, "1/3"), (2, "1"), (3, "7/3")):
        code, out, _ = invoke(
            capsys,
            "drinfeld-mass", "--q", "2", "--rank", "2",
            "--p-degree", str(degree),
        )
        assert code == 0
        assert json.loads(out)["mass"] == expected


def test_order_zeta_consistent_with_mass(capsys):
    code, out, _ = invoke(
        capsys,
        "order-zeta", "--q", "2", "--rank", "2",
        "--ram", "inf:1/2,1:1/2", "--series-order", "4",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value_at_zero"] == "-1/3"
    assert obj["series"] == ["1", "4", "16", "64", "256"]


def test_zeta_special_values(capsys):
    code, out, _ = invoke(
        capsys, "zeta", "--q", "2", "--genus", "1", "--l-poly", "1,1,2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["special_values"]["-1"] == "11/3"


def test_zeta_values_cap_from_each_side(capsys, monkeypatch):
    code, out, _ = invoke(capsys, "zeta", "--q", "2", "--values", str(cli.MAX_SPECIAL_VALUES))
    assert code == 0
    assert len(json.loads(out)["special_values"]) == cli.MAX_SPECIAL_VALUES
    # above the cap, refused before any value is computed
    def no_value(field, i):
        raise AssertionError(f"zeta_K(-{i}) computed")

    monkeypatch.setattr(funcfield, "zeta_special_value", no_value)
    code, out, _ = invoke(capsys, "zeta", "--q", "2", "--values", str(cli.MAX_SPECIAL_VALUES + 1))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SelectionTooLargeError"


def test_validation_error_is_exit_2_with_error_object(capsys):
    code, out, _ = invoke(
        capsys,
        "mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/3",
    )
    assert code == 2
    obj = json.loads(out)
    assert obj["error"]["type"] == "InvalidRamificationError"
    assert "denominator" in obj["error"]["message"]


def test_non_prime_power_q_is_exit_2(capsys):
    code, out, _ = invoke(
        capsys, "mass", "--q", "6", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidFieldError"


def test_usage_errors_are_exit_64(capsys):
    code, _, _ = invoke(capsys, "mass", "--rank", "2", "--ram", "inf:1/2,1:1/2")
    assert code == 64
    code, _, _ = invoke(capsys, "mass", "--q", "2", "--rank", "2", "--bogus")
    assert code == 64
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 64


MASS_ARGS = "mass --q 2 --rank 2 --ram inf:1/2,1:1/2"
MODEL_ARGS = "local model-check --qv 2 --d 2 --pairs 3"

# The command-line grammar, each rule pinned to its exit code
GRAMMAR = [
    (MASS_ARGS, 0),
    ("mass --q=2 --rank=2 --ram=inf:1/2,1:1/2", 0),
    ("table --qs 2 --ranks -1,2", 2),
    (f"{MODEL_ARGS} --seed -5", 0),
    ("mass --q 2 --ran 2", 64),
    (f"{MASS_ARGS} --rank 7 --rank 2", 0),
    (f"{MASS_ARGS} --rank 2 --rank 7", 2),
    ("local iw-index --qv 2 --d 2 --brute", 64),
    ("local iw-index --qv 2 --d 2 --brute=1", 64),
    ("mass --help=1", 64),
    (f"{MASS_ARGS} extra", 64),
    ("mass --q 2 --ram inf:1/2,1:1/2 --rank", 64),
    ("mass --q 2 --ram inf:1/2,1:1/2", 64),
    ("mass --q x --rank 2", 64),
    (f"{MASS_ARGS} --format xml", 64),
    ("verify --suite bogus", 64),
    ("mass --bogus 1", 64),
    ("--bogus", 64),
    ("bogus", 64),
    ("local bogus", 64),
    ("--q 2 mass", 64),
    ("mass -h", 64),
    ("mass -- --q 2 --rank 2", 64),
    ("--help", 0),
    ("--help mass", 0),
    ("local --help", 0),
    ("local --help volumes", 0),
    ("mass --help", 0),
    ("mass --q 2 --help", 0),
    ("mass --help extra", 0),
    ("mass --help --q x", 0),
    ("local volumes --qv 2 --help", 0),
    ("mass --help --bogus", 64),
    ("mass --help --q", 64),
    ("mass --q --help", 64),
    ("bogus --help", 64),
    ("", 64),
    ("local", 64),
]


@pytest.mark.parametrize("line, want", GRAMMAR, ids=[line or "(none)" for line, _ in GRAMMAR])
def test_command_line_grammar(capsys, line, want):
    code, out, err = invoke(capsys, *line.split())
    assert code == want, err
    if code == 64:
        assert out == ""
        assert err.startswith("usage error: ")
    elif "--help" in line.split():
        assert out.startswith("Usage: massform ")


@pytest.mark.parametrize(
    "line, flag",
    [
        ("mass --q 1_1 --rank 2 --ram inf:1/2,1:1/2", "--q"),
        ("mass --q ２ --rank 2 --ram inf:1/2,1:1/2", "--q"),
        ("mass --q 2 --rank 2 --ram inf:1/2,1:1/2 --deg-inf 0x1", "--deg-inf"),
        ("class-number --q 2 --genus 1 --l-poly 1,1_1,2", "--l-poly"),
        ("class-number --q 2 --genus 1 --l-poly 1,1,٢", "--l-poly"),
        ("table --qs 1_1", "--qs"),
        ("table --ranks 2,+-2", "--ranks"),
        ("table --p-degrees 1,2.0", "--p-degrees"),
        ("local volumes --qv 2 --r ² --d 1", "--r"),
    ],
)
def test_integers_are_a_sign_and_ascii_digits(capsys, line, flag):
    code, out, err = invoke(capsys, *line.split())
    assert (code, out) == (64, "")
    assert f"invalid value for {flag}:" in err


def test_integers_may_carry_a_sign_and_spaces(capsys):
    code, out, _ = invoke(capsys, "mass", "--q", " +2 ", "--rank", "2", "--ram", "inf:1/2,1:1/2")
    assert code == 0
    assert json.loads(out)["q"] == 2
    code, out, _ = invoke(capsys, "table", "--qs", " 2, 3 ,", "--ranks", "+2", "--p-degrees", "1")
    assert code == 0
    assert [row["q"] for row in json.loads(out)] == [2, 3]


def test_internal_errors_are_exit_70(capsys, monkeypatch):
    def boom(data):
        raise InternalConsistencyError("forced")

    monkeypatch.setattr(massengine, "mass", boom)
    code, out, err = invoke(
        capsys, "mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert code == 70
    assert "InternalConsistencyError" in err


@pytest.mark.parametrize("error", [ValueError("forced"), TypeError("forced")])
def test_untyped_errors_are_exit_70(capsys, monkeypatch, error):
    def boom(data):
        raise error

    monkeypatch.setattr(massengine, "mass", boom)
    code, out, err = invoke(
        capsys, "mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert (code, out) == (70, "")
    assert f"internal error: {type(error).__name__}: forced" in err


def test_int_to_string_limit_is_exit_2(capsys, monkeypatch):
    def too_long_to_print(data):
        return str(10 ** 5000)

    monkeypatch.setattr(massengine, "mass", too_long_to_print)
    code, out, _ = invoke(
        capsys, "mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "OutputTooLargeError"
    assert error["message"] == "an integer has more than 4300 digits, the most massform prints"


@pytest.mark.parametrize(
    "argv",
    [
        # the degree-1 row prints, the degree-128 row's mass does not
        ("table", "--qs", "4294967291", "--ranks", "6", "--p-degrees", "1,128"),
        ("local", "iw-index", "--qv", "4294967291", "--d", "12"),
    ],
    ids=["table", "iw-index"],
)
def test_an_unprintable_csv_answer_prints_only_the_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and err == ""
    assert json.loads(out)["error"]["type"] == "OutputTooLargeError"
    assert invoke(capsys, *argv, "--format", "csv") == (code, out, err)


# The Euler series of inf:1/6,1:-1/6 at rank 6 and order 300 passes the
# 4300-digit limit at the prime q = 251; at q = 241 its widest coefficient
# has 4288 digits and prints
TOP_SERIES = ("--rank", "6", "--ram", "inf:1/6,1:-1/6", "--series-order", "300")


@pytest.mark.parametrize("q", ["251", "4294967291"])   # the largest prime below MAX_Q
def test_unprintable_series_is_refused_before_the_newton_step(capsys, monkeypatch, q):
    def no_newton(*_):
        raise AssertionError("the Newton step ran")

    # the refusal comes from the O(N) bound, before any coefficient is summed
    monkeypatch.setattr(orderzeta, "mul", no_newton)
    code, out, _ = invoke(capsys, "order-zeta", "--q", q, *TOP_SERIES)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "OutputTooLargeError"
    assert "series coefficient has more than 4300 digits" in error["message"]


def test_series_just_below_the_limit_prints_as_before(capsys):
    # digest taken before the bound existed
    code, out, _ = invoke(capsys, "order-zeta", "--q", "241", *TOP_SERIES)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ca4e97e0ee3f9eb196ad0a5588eed6717b33d83c8684757f2d5bd1c41a09ea97"
    )


# The closed form of inf:1/6,128:5/6 at rank 6, printed with den monic,
# leads with q^1899: 4288 digits at the prime q = 181, and more than 4300
# from the next prime, 191, on
TOP_CLOSED_FORM = ("--rank", "6", "--ram", "inf:1/6,128:5/6", "--series-order", "0")


@pytest.mark.parametrize("q", ["191", "65537", "4294967291"])
def test_unprintable_closed_form_is_refused_before_it_is_expanded(capsys, monkeypatch, q):
    def no_expansion(*_):
        raise AssertionError("the closed form was expanded")

    monkeypatch.setattr(orderzeta, "_expand", no_expansion)
    code, out, _ = invoke(capsys, "order-zeta", "--q", q, *TOP_CLOSED_FORM)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "OutputTooLargeError"
    assert "more than 4300 digits" in error["message"]


def test_closed_form_just_below_the_limit_prints_as_before(capsys):
    # digest taken before the refusal existed
    code, out, _ = invoke(capsys, "order-zeta", "--q", "181", *TOP_CLOSED_FORM)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fde34fd63bca9bc0aa9ca510ed1d0242c76dd439d1fd2648d18576d18d68663d"
    )


def weil_l_poly(q, genus):
    """The coefficients of (1 + q u^2)^genus, an L-polynomial of any genus."""
    return ",".join(
        str(comb(genus, k // 2) * q ** (k // 2)) if k % 2 == 0 else "0"
        for k in range(2 * genus + 1)
    )


# Answers past MAX_PRINTED_DIGITS: a local index, local volumes, a table
# row, the closed form, the series, and special values at genus 2 and at
# MAX_GENUS; with no limit each printed 7.6 KB to 22 MB, in up to 40 s
TOO_LONG_TO_PRINT = {
    "iw-index": ("local", "iw-index", "--qv", "4294967291", "--d", "12"),
    "volumes": ("local", "volumes", "--qv", "65537", "--r", "48", "--d", "1"),
    "table": ("table", "--qs", "4294967291", "--ranks", "6", "--p-degrees", "1,128"),
    "closed-form": ("order-zeta", "--q", "191", *TOP_CLOSED_FORM),
    "series": ("order-zeta", "--q", "251", *TOP_SERIES),
    "order-zeta-at-the-caps": (
        "order-zeta", "--q", "4294967291", "--rank", "6",
        "--ram", "inf:1/6,128:1/6,71:2/3", "--series-order", "300",
    ),
    **{
        f"zeta-genus-{genus}": (
            "zeta", "--q", "4294967291", "--genus", str(genus),
            "--l-poly", weil_l_poly(4294967291, genus), "--values", "300",
        )
        for genus in (2, MAX_GENUS)
    },
}


@pytest.mark.parametrize("argv", TOO_LONG_TO_PRINT.values(), ids=TOO_LONG_TO_PRINT)
def test_the_digit_rule_is_the_same_under_any_interpreter_limit(capsys, argv):
    caller = sys.get_int_max_str_digits()
    try:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (2, "")
        assert f"more than {MAX_PRINTED_DIGITS} digits" in out
        assert sys.get_int_max_str_digits() == caller
        for limit in (0, 640):
            sys.set_int_max_str_digits(limit)
            assert invoke(capsys, *argv) == (2, out, ""), limit
            assert sys.get_int_max_str_digits() == limit
            assert invoke(capsys, *argv, "--bogus")[0] == 64
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(caller)


def test_an_option_integer_too_long_to_read_is_a_usage_error(capsys):
    caller = sys.get_int_max_str_digits()
    longest = "1" * MAX_PRINTED_DIGITS
    try:
        for limit in (caller, 0, 640):
            sys.set_int_max_str_digits(limit)
            for q in ("1" + longest, "-" + longest + "1", " +" + longest + "0 "):
                code, out, err = invoke(capsys, "mass", "--q", q, "--rank", "2", "--ram", "")
                assert (code, out) == (64, ""), limit
                assert f"digits, more than {MAX_PRINTED_DIGITS}, the most massform reads" in err
                assert "set_int_max_str_digits" not in err
                assert sys.get_int_max_str_digits() == limit
            # MAX_PRINTED_DIGITS digits are read, and refused as a field
            code, out, _ = invoke(capsys, "mass", "--q", longest, "--rank", "2", "--ram", "")
            assert code == 2 and "InvalidFieldError" in out
    finally:
        sys.set_int_max_str_digits(caller)


# a token past MAX_PRINTED_DIGITS is refused as it is read; one that is
# read is refused by validate, which writes the first digits of each
# long integer
@pytest.mark.parametrize(
    "ram, named, most",
    [
        ("inf:1/2,1:1/" + "2" * 5000, ("5000", str(MAX_PRINTED_DIGITS)), 300),
        ("inf:1/2," + "1" * 5000 + ":1/2", ("5000", str(MAX_PRINTED_DIGITS)), 300),
        ("inf:1/2," + "x" * 5000, ("lacks ':'",), 300),
        ("inf:1/2,1:1/" + "2" * MAX_PRINTED_DIGITS,
         ("place[1] 1:1/" + "2" * 32 + "...: denominator", "must equal rank 2"), 1024),
        ("inf:1/2," + "2" * MAX_PRINTED_DIGITS + ":1/2",
         ("total degree " + "2" * 32 + "..., above the cap", "is above the cap 128"), 1024),
    ],
    ids=[
        "5000-digit-denominator", "5000-digit-place-degree", "5000-characters-without-colon",
        "4300-digit-denominator", "4300-digit-place-degree",
    ],
)
def test_an_over_long_ramification_token_is_not_echoed(capsys, ram, named, most):
    code, out, err = invoke(capsys, "mass", "--q", "2", "--rank", "2", "--ram", ram)
    assert (code, err) == (2, "")
    assert len(out.encode()) < most
    error = json.loads(out)["error"]
    assert error["type"] == "InvalidRamificationError"
    for text in named:
        assert text in error["message"]


LONG = "x" * 5000


@pytest.mark.parametrize("argv, message", [
    ([*MASS_ARGS.split(), "--format", LONG], f"invalid value for --format: {LONG[:32]!r}... is not one of"),
    (["mass", "--" + LONG], f"no such option {('--' + LONG)[:32]!r}..."),
    ([LONG], f"no such command {LONG[:32]!r}..."),
    ([*MASS_ARGS.split(), LONG], f"unexpected argument {LONG[:32]!r}..."),
    ([*MASS_ARGS.split(), "--format", "xml"], "invalid value for --format: 'xml' is not one of json, csv"),
    (["mass", "--bogus"], "no such option '--bogus'"),
    (["no-such-command"], "no such command 'no-such-command'"),
    ([*MASS_ARGS.split(), "extra"], "unexpected argument 'extra'"),
], ids=[
    "5000-character-format", "5000-character-option", "5000-character-command",
    "5000-character-argument", "short-format", "short-option", "short-command",
    "short-argument",
])
def test_a_usage_error_echoes_at_most_an_excerpt(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (64, "")
    assert len(err.encode()) < 300
    assert err.startswith(f"usage error: {message}")


def test_determinism_byte_identical(capsys):
    argv = [
        "order-zeta", "--q", "3", "--rank", "2",
        "--ram", "inf:1/2,1:1/2", "--series-order", "6",
    ]
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def test_mass_output_over_the_battery_is_pinned(capsys):
    # digest taken while the report still kept every factor it printed
    digest = hashlib.sha256()
    for data in verify.full_battery():
        field = data.field
        argv = [
            "mass", "--q", str(field.q), "--genus", str(field.genus),
            "--l-poly", ",".join(map(str, field.l_poly.coeffs)),
            "--deg-inf", str(field.deg_inf), "--rank", str(data.rank),
            "--ram", csa.shorthand(data),
        ]
        for fmt in ([], ["--format", "csv"]):
            code, out, _ = invoke(capsys, *argv, *fmt)
            assert code == 0, argv
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "45d7f7ef520b2c40d7af68ba4a46a4f7a49dd3f4c237b48cb00047750340a126"
    )


def test_json_output_reparses(capsys):
    code, out, _ = invoke(
        capsys,
        "mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert code == 0
    obj = json.loads(out)
    assert json.dumps(obj, ensure_ascii=True) + "\n" == out


def test_table_csv_frozen(capsys):
    code, out, _ = invoke(
        capsys,
        "table", "--qs", "2", "--ranks", "1,2",
        "--p-degrees", "1,2,3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "q,genus,deg_inf,r,ramification,mass_num,mass_den",
        "2,0,1,1,,1,1",
        '2,0,1,2,"inf:-1/2,1:1/2",1,3',
        '2,0,1,2,"inf:-1/2,2:1/2",1,1',
        '2,0,1,2,"inf:-1/2,3:1/2",7,3',
    ]


def test_table_empty_range_is_header_only(capsys):
    code, out, _ = invoke(capsys, "table", "--qs", "", "--format", "csv")
    assert code == 0
    assert out == "q,genus,deg_inf,r,ramification,mass_num,mass_den\n"


def test_table_rows_sorted(capsys):
    code, out, _ = invoke(
        capsys, "table", "--qs", "3,2", "--ranks", "2", "--p-degrees", "2,1",
    )
    assert code == 0
    rows = json.loads(out)
    keys = [(row["q"], row["genus"], row["r"], row["ramification"]) for row in rows]
    assert keys == sorted(keys)


def test_table_rows_sort_place_degrees_as_integers(capsys):
    code, out, _ = invoke(
        capsys, "table", "--qs", "2", "--ranks", "2", "--p-degrees", "2,10,1",
    )
    assert code == 0
    assert [row["ramification"] for row in json.loads(out)] == [
        "inf:-1/2,1:1/2", "inf:-1/2,2:1/2", "inf:-1/2,10:1/2",
    ]


def test_field_file_with_inline_override_warns(capsys, tmp_path):
    path = tmp_path / "field.json"
    path.write_text(
        json.dumps({"q": 2, "genus": 1, "l_poly": [1, 1, 2], "deg_inf": 1})
    )
    code, out, err = invoke(
        capsys, "class-number", "--field-file", str(path),
    )
    assert code == 0
    assert json.loads(out)["h_A"] == "4"
    assert err == ""

    code, out, err = invoke(
        capsys, "class-number", "--field-file", str(path), "--q", "3",
        "--genus", "0", "--l-poly", "1",
    )
    assert code == 0
    assert json.loads(out)["h_A"] == "1"
    assert "overrides field file" in err


def test_series_order_env_var(capsys, monkeypatch):
    # the default is 10, and the variable that once overrode it is not read
    argv = ("order-zeta", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2")
    monkeypatch.delenv("MASSFORM_SERIES_ORDER", raising=False)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert json.loads(out)["series_order"] == 10
    assert len(json.loads(out)["series"]) == 11
    monkeypatch.setenv("MASSFORM_SERIES_ORDER", "junk")
    assert invoke(capsys, *argv) == (code, out, "")


def test_single_object_csv_format(capsys):
    code, out, _ = invoke(
        capsys, "class-number", "--q", "2", "--genus", "1",
        "--l-poly", "1,1,2", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,genus,deg_inf,h_A"
    assert lines[1] == "2,1,1,4"


def test_local_subcommands(capsys):
    code, out, _ = invoke(capsys, "local", "volumes", "--qv", "3", "--r", "2", "--d", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["vol_G"] == "16/27" and obj["vol_Gprime"] == "8/27" and obj["ratio"] == "2"

    code, out, _ = invoke(capsys, "local", "lambda", "--qv", "4", "--r", "2", "--d", "2")
    assert code == 0
    assert json.loads(out)["lambda"] == "3"

    code, out, _ = invoke(capsys, "local", "iw-index", "--qv", "2", "--d", "3")
    assert code == 0
    assert json.loads(out) == {"q_v": 2, "d": 3, "index": 512}

    code, out, _ = invoke(
        capsys, "local", "model-check", "--qv", "2", "--d", "2", "--b", "1",
        "--pairs", "5",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = invoke(capsys, "local", "lambda", "--qv", "2", "--r", "4", "--d", "3")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotDivisibleError"

    code, out, _ = invoke(
        capsys, "local", "model-check", "--qv", "2", "--d", "4", "--b", "2",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, error_type",
    [
        (("local", "volumes", "--qv", "2", "--r", "2", "--d", "0"), "InvalidRamificationError"),
        (("local", "lambda", "--qv", "2", "--r", "2", "--d", "0"), "InvalidRamificationError"),
        (("table", "--qs", "2", "--ranks", "0"), "InvalidRamificationError"),
        (("local", "volumes", "--qv", "6", "--r", "2", "--d", "2"), "InvalidFieldError"),
        (("local", "iw-index", "--qv", "6", "--d", "2"), "InvalidFieldError"),
        (("local", "model-check", "--qv", "2", "--d", "2", "--prec", "1"),
         "PrecisionTooLowError"),
        (("verify", "--suite", "zeta-at-zero", "--max-rank", "0"), "EmptySelectionError"),
        (("verify", "--suite", "lambda-volumes", "--max-rank", "0"), "EmptySelectionError"),
        (("verify", "--max-rank", "13"), "SelectionTooLargeError"),
        (("verify", "--suite", "lambda-volumes", "--max-rank", "1000000"),
         "SelectionTooLargeError"),
        (("local", "model-check", "--qv", "2", "--d", "2", "--pairs", "-3"),
         "EmptySelectionError"),
        (("mass", "--q", "2", "--rank", "2", "--ram", "inf:1/0"), "InvalidRamificationError"),
        (("mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1_0:1/2"),
         "InvalidRamificationError"),
        (("mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/\u0662"),
         "InvalidRamificationError"),
        (("zeta", "--q", "2", "--values", "-1"), "EmptySelectionError"),
        (("zeta", "--q", "2", "--values", "0"), "EmptySelectionError"),
        (("zeta", "--q", "2", "--values", "1000000"), "SelectionTooLargeError"),
        (("order-zeta", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
          "--series-order", "301"), "InvalidSeriesOrderError"),
        (("order-zeta", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
          "--series-order", "-1"), "InvalidSeriesOrderError"),
        (("order-zeta", "--q", "4294967291", "--rank", "6", "--ram", "inf:1/6,128:5/6",
          "--series-order", "301"), "InvalidSeriesOrderError"),
        (("verify", "--suite", "series-closed-form", "--series-order", "301"),
         "InvalidSeriesOrderError"),
        (("local", "model-check", "--qv", "2", "--d", "0"), "InvalidRamificationError"),
        (("local", "model-check", "--qv", "2", "--d", "2", "--b", "2"),
         "InvalidRamificationError"),
        (("local", "model-check", "--qv", "3", "--d", "8"), "InvalidFieldError"),
        (("local", "iw-index", "--qv", "2", "--d", "0"), "InvalidRamificationError"),
        (("local", "iw-index", "--qv", "2", "--d", "40"), "InvalidRamificationError"),
        (("local", "volumes", "--qv", "2", "--r", "200", "--d", "1"),
         "InvalidRamificationError"),
        (("mass", "--q", "2", "--rank", "200", "--ram", "inf:1/200,1:-1/200"),
         "InvalidRamificationError"),
        (("order-zeta", "--q", "5", "--rank", "48", "--ram", "inf:1/48,1:-1/48",
          "--series-order", "300"), "InvalidRamificationError"),
        (("drinfeld-mass", "--q", "2", "--rank", "1", "--p-degree", "1"),
         "InvalidRamificationError"),
        (("drinfeld-mass", "--q", "2", "--rank", "9", "--p-degree", "1"),
         "InvalidRamificationError"),
        (("drinfeld-mass", "--q", "2", "--genus", "1", "--l-poly", "1,-2,2", "--rank", "2",
          "--p-degree", "1"), "InvalidRamificationError"),
        (("mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,8000:1/2"),
         "InvalidRamificationError"),
        (("mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,16000:1/2"),
         "InvalidRamificationError"),
        (("class-number", "--q", "2", "--deg-inf", "4000"), "InvalidFieldError"),
        (("mass", "--q", "2", "--deg-inf", "129", "--rank", "2", "--ram", "inf:1/2,1:1/2"),
         "InvalidFieldError"),
        (("order-zeta", "--q", "5", "--rank", "6", "--ram",
          "inf:1/6,100:1/6,100:1/6,100:1/6,100:1/6,100:1/6", "--series-order", "300"),
         "InvalidRamificationError"),
        (("local", "model-check", "--qv", "2", "--d", "4", "--b", "1", "--prec", "2000",
          "--pairs", "1"), "PrecisionTooHighError"),
        (("local", "model-check", "--qv", "2", "--d", "4", "--b", "1", "--pairs", "20000"),
         "SelectionTooLargeError"),
        (("verify", "--suite", "local-models", "--pairs", "20000"), "SelectionTooLargeError"),
        (("class-number", "--q", HUGE_PRIME), "InvalidFieldError"),
        (("local", "volumes", "--qv", HUGE_PRIME, "--r", "2", "--d", "1"), "InvalidFieldError"),
        (("local", "volumes", "--qv", "65537", "--r", "48", "--d", "1"), "OutputTooLargeError"),
        (("class-number", "--q", "3", "--genus", "2", "--l-poly", "1,-2,8,-6,9"),
         "InvalidFieldError"),
        (("mass", "--q", "3", "--genus", "2", "--l-poly", "1,-2,8,-6,9", "--rank", "2",
          "--ram", "inf:1/2,1:1/2"), "InvalidFieldError"),
        (("order-zeta", "--q", "3", "--genus", "2", "--l-poly", "1,-2,8,-6,9", "--rank", "2",
          "--ram", "inf:1/2,1:1/2"), "InvalidFieldError"),
        (("class-number", "--q", "4294967291", "--genus", str(MAX_GENUS + 1), "--l-poly",
          ",".join(["1"] + ["0"] * (2 * MAX_GENUS + 1) + [str(4294967291 ** (MAX_GENUS + 1))])),
         "InvalidFieldError"),
    ],
    ids=[
        "volumes-d0", "lambda-d0", "table-rank0", "volumes-qv6", "iw-index-qv6",
        "model-check-prec1", "verify-empty-ranks", "verify-lambda-max-rank0",
        "verify-max-rank-above-cap", "verify-lambda-max-rank-huge",
        "model-check-pairs-negative", "mass-invariant-den0", "mass-ram-degree-1_0",
        "mass-ram-non-ascii-digit",
        "zeta-values-negative", "zeta-values0", "zeta-values-1000000",
        "order-zeta-series-order-above-cap",
        "order-zeta-series-order-negative", "order-zeta-series-order-above-cap-unprintable",
        "verify-series-order-above-cap",
        "model-check-d0", "model-check-b-not-coprime", "model-check-field-above-cap",
        "iw-index-d0", "iw-index-d-above-cap", "volumes-rank-above-cap",
        "mass-rank-above-cap", "order-zeta-rank-above-cap", "drinfeld-mass-rank1",
        "drinfeld-mass-rank-above-cap", "drinfeld-mass-place-taken-by-infinity",
        "mass-place-degree-8000", "mass-place-degree-16000",
        "class-number-deg-inf-4000", "mass-deg-inf-above-cap",
        "order-zeta-ramified-degree-501",
        "model-check-prec-2000", "model-check-pairs-20000", "verify-local-models-pairs-20000",
        "class-number-huge-q", "volumes-huge-qv", "volumes-past-the-digit-limit",
        "class-number-non-weil", "mass-non-weil", "order-zeta-non-weil",
        "class-number-genus-above-cap",
    ],
)
def test_bad_input_regressions_are_exit_2(capsys, argv, error_type):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == error_type
    assert "Traceback" not in err


# Field files whose values are not JSON integers (or l_poly not a list);
# each was once truncated or split into something plausible.
BAD_FIELD_FILES = [
    {"q": 2, "genus": 1, "l_poly": [1, 1.9, 2], "deg_inf": 1},
    {"q": 2.5, "genus": 0, "l_poly": [1], "deg_inf": 1.7},
    {"q": 2, "genus": 0, "l_poly": [True], "deg_inf": 1},
    {"q": True, "genus": 0, "l_poly": [1], "deg_inf": 1},
    {"q": 2, "genus": 0, "l_poly": "1", "deg_inf": 1},
    {"q": 2, "genus": 0, "l_poly": 1, "deg_inf": 1},
    {"q": "2", "genus": 0, "l_poly": [1], "deg_inf": 1},
    [2, 0, [1], 1],
]


@pytest.mark.parametrize(
    "obj", BAD_FIELD_FILES,
    ids=["float-coefficient", "float-q-and-deg-inf", "bool-coefficient", "bool-q",
         "string-l-poly", "int-l-poly", "string-q", "list-not-object"],
)
def test_field_file_accepts_only_json_integers(capsys, tmp_path, obj):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(obj))
    code, out, err = invoke(capsys, "class-number", "--field-file", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidFieldError"
    assert "Traceback" not in err


def test_field_file_length_cap_from_each_side(capsys, tmp_path):
    # a valid field, padded with spaces to the cap and then one byte past it
    text = json.dumps({"q": 2, "genus": 1, "l_poly": [1, 1, 2], "deg_inf": 1})
    path = tmp_path / "field.json"
    for size, want in ((cli.MAX_FIELD_FILE_BYTES, 0), (cli.MAX_FIELD_FILE_BYTES + 1, 64)):
        path.write_text(text.ljust(size))
        code, out, err = invoke(capsys, "class-number", "--field-file", str(path))
        assert code == want, size
    assert out == ""
    assert f"longer than {cli.MAX_FIELD_FILE_BYTES} bytes" in err


@pytest.mark.parametrize(
    "raw", [b"{", b"\xff\xfe{}", b"\xff{}", b"[" * 100000],
    ids=["not-json", "utf-16-bom", "not-utf-8", "nested-too-deeply"],
)
def test_field_file_that_is_not_json_text_is_a_usage_error(capsys, tmp_path, raw):
    path = tmp_path / "field.json"
    path.write_bytes(raw)
    code, out, err = invoke(capsys, "class-number", "--field-file", str(path))
    assert code == 64
    assert out == ""
    assert "field file is not valid JSON" in err


@pytest.mark.parametrize("text", ['{"q": %s}', '{"q": 2, "note": %s}'], ids=["q", "unused-key"])
def test_field_file_with_an_unreadably_long_integer_is_an_invalid_field(capsys, tmp_path, text):
    # json.loads meets Python's int-to-string limit while reading; nothing
    # was computed, so this is no answer too long to print
    path = tmp_path / "field.json"
    path.write_text(text % ("1" * 5000))
    code, out, err = invoke(capsys, "class-number", "--field-file", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InvalidFieldError"
    assert str(path) in error["message"]
    assert "Traceback" not in err


def test_rank_cap_from_each_side(capsys):
    for rank, want in ((MAX_RANK, 0), (MAX_RANK + 1, 2)):
        ram = f"inf:1/{rank},1:-1/{rank}"
        for argv in (("mass", "--q", "2"), ("order-zeta", "--q", "5", "--series-order", "4")):
            code, out, _ = invoke(capsys, *argv, "--rank", str(rank), "--ram", ram)
            assert code == want, (argv, rank)
    assert "above the cap" in json.loads(out)["error"]["message"]


def test_model_check_caps_from_each_side(capsys):
    model_check = ("local", "model-check", "--qv", "2", "--d", "2", "--b", "1")
    for precision, want in ((MAX_MODEL_PRECISION, 0), (MAX_MODEL_PRECISION + 1, 2)):
        code, _, _ = invoke(capsys, *model_check, "--prec", str(precision), "--pairs", "1")
        assert code == want, precision
    for pairs, want in ((MAX_MODEL_PAIRS, 0), (MAX_MODEL_PAIRS + 1, 2)):
        code, _, _ = invoke(capsys, "local", "model-check", "--qv", "2", "--d", "1",
                            "--pairs", str(pairs))
        assert code == want, pairs
    code, out, _ = invoke(capsys, "verify", "--suite", "local-models",
                          "--pairs", str(MAX_MODEL_PAIRS + 1))
    assert code == 2
    assert "above the cap" in json.loads(out)["error"]["message"]


def test_place_degree_cap_from_each_side(capsys):
    # at the cap the mass at q = 2 and the largest rank still prints
    r = MAX_RANK
    for degree, want in ((MAX_PLACE_DEGREE, 0), (MAX_PLACE_DEGREE + 1, 2)):
        for argv in (
            ("mass", "--q", "2", "--rank", str(r), "--ram", f"inf:1/{r},{degree}:-1/{r}"),
            ("order-zeta", "--q", "2", "--rank", str(r), "--ram", f"inf:1/{r},{degree}:-1/{r}",
             "--series-order", "4"),
            ("drinfeld-mass", "--q", "2", "--rank", str(r), "--p-degree", str(degree)),
        ):
            code, out, _ = invoke(capsys, *argv)
            assert code == want, (argv, degree)
    assert "above the cap" in json.loads(out)["error"]["message"]


def test_q_cap_from_each_side(capsys, monkeypatch):
    # MAX_Q is 2^32, a prime power; the next prime is 2^32 + 15
    above = str(MAX_Q + 15)
    for argv_of in (
        lambda q: ("class-number", "--q", q),
        lambda q: ("mass", "--q", q, "--rank", "2", "--ram", "inf:1/2,1:1/2"),
        lambda q: ("local", "volumes", "--qv", q, "--r", "2", "--d", "2"),
    ):
        code, _, _ = invoke(capsys, *argv_of(str(MAX_Q)))
        assert code == 0, argv_of(str(MAX_Q))
        code, out, _ = invoke(capsys, *argv_of(above))
        assert code == 2, argv_of(above)
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidFieldError"
        assert "above the cap" in error["message"]
    # the cap is checked before the trial division that made huge q hang;
    # funcfield calls its own binding, the residue-size check the one in errors
    def no_factoring(q):
        raise AssertionError("factored a q above the cap")

    monkeypatch.setattr(funcfield, "factor_prime_power", no_factoring)
    monkeypatch.setattr(errors, "factor_prime_power", no_factoring)
    with pytest.raises(InvalidFieldError, match="above the cap"):
        FunctionFieldData.rational(int(HUGE_PRIME))
    with pytest.raises(InvalidFieldError, match="above the cap"):
        localvolumes.local_volumes(int(HUGE_PRIME), 2, 1)


def test_ramified_degree_cap_from_each_side(capsys):
    # infinity, places of degree 128 and 1, and a fourth place that sets
    # the sum; every invariant is 1/2, so four of them sum to 2
    for total, want in ((MAX_RAMIFIED_DEGREE, 0), (MAX_RAMIFIED_DEGREE + 1, 2)):
        fourth = total - 1 - MAX_PLACE_DEGREE - 1
        ram = f"inf:1/2,{MAX_PLACE_DEGREE}:1/2,1:1/2,{fourth}:1/2"
        for argv in (("mass",), ("order-zeta", "--series-order", "4")):
            code, out, _ = invoke(capsys, *argv, "--q", "2", "--rank", "2", "--ram", ram)
            assert code == want, (argv, total)
    message = json.loads(out)["error"]["message"]
    assert message == (
        f"ramified places have total degree {MAX_RAMIFIED_DEGREE + 1}, "
        f"above the cap {MAX_RAMIFIED_DEGREE}"
    )


def test_deg_inf_cap_from_each_side(capsys):
    for deg_inf, want in ((MAX_PLACE_DEGREE, 0), (MAX_PLACE_DEGREE + 1, 2)):
        code, out, _ = invoke(capsys, "class-number", "--q", "2", "--deg-inf", str(deg_inf))
        assert code == want, deg_inf
    assert json.loads(out)["error"]["type"] == "InvalidFieldError"


def test_place_degree_cap_is_checked_before_any_place_count():
    field = FunctionFieldData.rational(2)
    known = len(field._counts)
    with pytest.raises(InvalidRamificationError, match="above the cap"):
        csa.parse_shorthand("inf:1/2,16000:1/2", field, 2)
    assert len(field._counts) == known


def test_verify_command_single_suite(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "drinfeld")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["reports"][0]["suite"] == "drinfeld"
    assert obj["reports"][0]["checked"] == 27


def test_verify_output_is_byte_identical(capsys):
    _, first, _ = invoke(capsys, "verify", "--suite", "drinfeld")
    _, second, _ = invoke(capsys, "verify", "--suite", "drinfeld")
    assert first == second


def test_verify_respects_max_rank(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "zeta-at-zero", "--max-rank", "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    # the 59 rank-1 rows, the 14 rank-2 battery configurations and the 11
    # rank-2 data with deg_inf 2 or 3
    assert obj["reports"][0]["checked"] == 84


def test_verify_passes_options_only_to_suites_that_take_them(capsys, monkeypatch):
    code, out, _ = invoke(capsys, "verify", "--suite", "lambda-volumes", "--max-rank", "2")
    assert code == 0
    assert json.loads(out)["reports"][0]["checked"] == 18
    code, out, err = invoke(capsys, "verify", "--suite", "drinfeld", "--seed", "0")
    assert code == 64
    assert out == ""
    assert "--seed" in err

    seen = {}

    def seeded(seed=1):
        seen["seeded"] = seed
        return 1, [], ""

    def fixed():
        seen["fixed"] = None
        return 1, [], ""

    monkeypatch.setattr(verify, "SUITES", {"seeded": seeded, "fixed": fixed})
    code, out, _ = invoke(capsys, "verify", "--seed", "3")
    assert code == 0
    assert seen == {"seeded": 3, "fixed": None}


@pytest.mark.parametrize(
    "argv",
    [
        ("mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2"),
        ("order-zeta", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
         "--series-order", "4"),
    ],
    ids=["mass", "order-zeta"],
)
def test_one_validation_per_invocation(capsys, monkeypatch, argv):
    calls = []
    validate = csa.validate
    monkeypatch.setattr(csa, "validate", lambda data: calls.append(data) or validate(data))
    code, _, _ = invoke(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


# Frozen sha256 digests of stdout, so work on the exact core cannot change
# output bytes silently.  Digests were taken before the mass and closed
# form moved to integer arithmetic; every case exits 0.
G1 = ("--q", "2", "--genus", "1", "--l-poly", "1,1,2", "--deg-inf", "1")
GOLDEN_STDOUT = [
    (("mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2"),
     "caa71fb96283e0f400df9b42f379ca4ce5f44c8cbe0be8760d470c9baee31ac8"),
    (("mass", "--q", "3", "--rank", "4", "--ram", "inf:1/4,2:1/4,1:1/2", "--format", "csv"),
     "d2bcaeb1aacd455e36046f8c382444cd018ce6e7103db222cf0d24ae095f51fc"),
    (("mass", *G1, "--rank", "6", "--ram", "inf:1/6,1:1/3,2:1/2"),
     "79e70004f7731543cb718ce522087b0356a2b091f722dbb9b0bc3f6cb0dd0962"),
    (("mass", *G1, "--rank", "1"),
     "f9ac7c991072b18e819f2af3e61ceeec4050acdadb81c8171d5d2fd23b2256c4"),
    (("mass", "--q", "2", "--deg-inf", "2", "--rank", "4", "--ram", "inf:1/4,1:1/4,1:1/2"),
     "4db4520472445a8ce9034de2d5f9ca99a338aa2a3b86cefc9b660fd7087167f1"),
    (("drinfeld-mass", "--q", "5", "--rank", "3", "--p-degree", "2"),
     "5f551c791a10f798893fdcdf7493a3942d81c66b4572f4494a7fec2d83652c71"),
    (("drinfeld-mass", *G1, "--rank", "4", "--p-degree", "2", "--format", "csv"),
     "f319adbb16f7a6b17e171508a3d2f402af0d4bd1275e6f0489fe14a7ce287940"),
    (("table", "--qs", "2,3,5", "--ranks", "1,2,3,6"),
     "a6c77d042d8bacf3986065f0f8ddbf9b42c34d43f13def66fdcdb6b48ccd7f54"),
    (("table", "--qs", "2,4", "--ranks", "2,4", "--p-degrees", "1,2", "--format", "csv"),
     "eca1aebe37779b84962672a130730ccb8c9d9ef5847740e65589152da3ef4868"),
    (("zeta", "--q", "3", "--values", "5"),
     "92ca69a3af46e04e23d358ea73ca06c631b7ad36dc9c7fa560078e083138c2f1"),
    (("zeta", *G1, "--values", "4", "--format", "csv"),
     "4f0924848702baefe4666f7c24f5623b9bf1285d60e14cd8d56e7cfb28d877a8"),
    (("order-zeta", "--q", "2", "--rank", "3", "--ram", "inf:-1/3,1:1/3",
      "--series-order", "12"),
     "ccf5a3f8e4221745f55ea41a4b5012b22a9fe9161c740c8bbf4a1c544e4bdb74"),
    (("order-zeta", *G1, "--rank", "4", "--ram", "inf:1/4,1:1/4,1:1/2",
      "--series-order", "8", "--format", "csv"),
     "49f7e4c830357f3f55d612964e674b68b0a98267b776ceb7ffaa08387b7da229"),
    (("order-zeta", "--q", "3", "--deg-inf", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
      "--series-order", "10"),
     "4e0cc7ba1565a3b2e056d5661d8c46e25008dd3c1452bea7a24e673da32ddac1"),
    # the series at the order cap, taken while w_k was still summed from
    # the place counts: over the genus-1 field; with infinity and two
    # ramified places at degree 2; with two ramified places of degree 1
    (("order-zeta", *G1, "--rank", "6", "--ram", "inf:1/6,1:1/3,2:1/2",
      "--series-order", "300"),
     "2d13a0cd044cda8927a517d62795fab1ccc2638561a4b7ad2c3bda1e05e42e1e"),
    (("order-zeta", "--q", "3", "--deg-inf", "2", "--rank", "4", "--ram", "inf:1/4,2:1/4,2:1/2",
      "--series-order", "300"),
     "ff9c3f27e4e6384bcb95438bb40dd3af38ce49e8a80ef3f0b13d4c0b7dd0a963"),
    (("order-zeta", "--q", "2", "--rank", "3", "--ram", "inf:1/3,1:1/3,1:1/3",
      "--series-order", "300"),
     "d4ee6a15c34ae50920d7921ffdb770af78bd8f21aad6214b97396aa6bf5abf1b"),
    # every suite's report, taken while suites still returned a record
    (("verify",),
     "ae9a556ab6c7558abb706838e827b9b4cba0798d9e8db61e09f00cd81aefdff7"),
    (("verify", "--format", "csv"),
     "e60ade51a8d44781105ef1538179c7849b5a7000273cdffd16fb220ecd1f9727"),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_STDOUT, ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT]
)
def test_golden_stdout_digests(capsys, argv, digest):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_local_sizes_at_the_caps_print(capsys):
    # the largest residue size of a local model, at the largest rank and
    # index: every answer stays under the 4300-digit conversion limit
    cap = str(FIELD_SIZE_CAP)
    for d in (1, MAX_LOCAL_INDEX):
        code, out, _ = invoke(
            capsys, "local", "volumes", "--qv", cap,
            "--r", str(MAX_LOCAL_RANK), "--d", str(d),
        )
        assert code == 0
        assert len(json.loads(out)["vol_G"]) > 4000
    code, out, _ = invoke(capsys, "local", "iw-index", "--qv", cap, "--d", str(MAX_LOCAL_INDEX))
    assert code == 0
    assert json.loads(out)["index"] == FIELD_SIZE_CAP ** (12 * 12 * 11 // 2)
    for argv in (
        ("local", "volumes", "--qv", "2", "--r", str(MAX_LOCAL_RANK + 1), "--d", "1"),
        ("local", "lambda", "--qv", "2", "--r", "26", "--d", "13"),
        ("local", "iw-index", "--qv", "2", "--d", str(MAX_LOCAL_INDEX + 1)),
    ):
        code, out, _ = invoke(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidRamificationError"


def test_lambda_prints_where_only_the_volumes_overflow(capsys):
    # at the largest prime q_v below MAX_Q and the largest rank, both
    # volumes pass the 4300-digit limit, but lambda at d = 1 is 1
    argv = ("local", "lambda", "--qv", "4294967291", "--r", str(MAX_LOCAL_RANK), "--d", "1")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"q_v": 4294967291, "r": MAX_LOCAL_RANK, "d": 1, "lambda": "1"}
    code, out, _ = invoke(capsys, "local", "volumes", *argv[2:])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "OutputTooLargeError"


# -- the grammar under fuzzing ------------------------------------------------

def _ints(low, high):
    return st.integers(low, high).map(str)


def _int_lists(low, high):
    return st.lists(st.integers(low, high), max_size=3).map(lambda xs: ",".join(map(str, xs)))


# Values drawn for each option, small enough that any invocation ends
# within a fraction of a second; other int options draw from _ints(-2, 16)
FUZZ_VALUES = {
    "--rank": _ints(-1, 4),
    "--r": _ints(-1, 8),
    "--d": _ints(-1, 4),
    "--series-order": _ints(-1, 20),
    "--pairs": _ints(-1, 5),
    "--prec": _ints(-1, 8),
    "--ram": st.sampled_from(
        ["", "inf:1/2,1:1/2", "inf:1/3,1:-1/3", "1:1/2,2:1/2", "inf:1/2", "inf:1/0", "x:y"]
    ),
    "--l-poly": st.sampled_from(["1", "1,1,2", "1,-1,2", "1,x", "1_1", ""]),
    "--field-file": st.just("/nonexistent/field.json"),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--suite": st.sampled_from(["drinfeld", "lambda-volumes", "zeta-at-zero", "bogus"]),
    "--qs": _int_lists(-1, 16),
    "--ranks": _int_lists(-1, 4),
    "--p-degrees": _int_lists(-1, 4),
}
GARBAGE = st.sampled_from(
    ["x", "-", "--", "-5", "--help", "--help=1", "1_1", "２", " ", "1e3", "--q=", "--brute=1",
     "--bogus", "--ran", "-q", "mass", "local"]
)
# Leading options that keep the default of a costly command small
FUZZ_BOUNDS = {
    ("local", "model-check"): ["--pairs", "3"],
    ("verify",): ["--suite", "drinfeld"],
}


def _fuzz_value(draw, opt):
    if draw(st.integers(0, 9)) == 0:
        return draw(GARBAGE)
    return draw(FUZZ_VALUES.get(opt.flag, _ints(-2, 16)))


@st.composite
def command_lines(draw):
    path = draw(st.sampled_from([*cli.COMMANDS, *cli.GROUPS, ("bogus",)]))
    options = cli.COMMANDS[path][1] if path in cli.COMMANDS else ()
    argv = [*path, *FUZZ_BOUNDS.get(path, ())]
    if draw(st.booleans()):
        for opt in options:
            if opt.required or opt.flag == "--q":
                argv += [opt.flag, _fuzz_value(draw, opt)]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["value", "equals", "bare", "garbage"]))
        if shape == "garbage" or not options:
            argv.append(draw(GARBAGE))
            continue
        opt = draw(st.sampled_from(options))
        if shape == "value" and opt.kind != "flag":
            argv += [opt.flag, _fuzz_value(draw, opt)]
        elif shape == "equals":
            argv.append(f"{opt.flag}={_fuzz_value(draw, opt)}")
        else:
            argv.append(opt.flag)
    return argv


def _ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 64, 70), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 64:
        assert out.getvalue() == "", argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_every_command_line_ends_in_a_documented_exit_code(argv):
    _ends_in_a_documented_exit_code(argv)


# order-zeta near every cap at once: the largest prime q below MAX_Q, the
# top rank, places of degree up to MAX_PLACE_DEGREE and the top series
# order, each drawn beside small values; every example ends in time
def _small_or_up_to(top):
    return st.one_of(st.integers(1, 3), st.integers(1, top))


def _invariant(a, rank):
    f = Fraction(a, rank)
    return f"{f.numerator}/{f.denominator}"


QS_UP_TO_THE_CAP = st.one_of(
    st.sampled_from((2, 3, 4, 5, 9, 251, 65537, 4294967291, MAX_Q)), st.integers(2, MAX_Q)
)
DEGREES_UP_TO_THE_CAP = _small_or_up_to(MAX_PLACE_DEGREE)


def _ramification(draw, rank):
    """--ram with infinity and up to three finite places, none at rank 1"""
    if rank == 1:
        return []
    # invariants a/r in lowest terms; infinity's makes the sum integral,
    # unless it is drawn apart
    finite = draw(st.lists(
        st.tuples(DEGREES_UP_TO_THE_CAP, st.integers(1, rank - 1)), max_size=3
    ))
    a_inf = draw(st.one_of(
        st.just(-sum(a for _, a in finite) % rank), st.integers(1, rank - 1)
    ))
    places = ",".join(
        f"{where}:{_invariant(a, rank)}" for where, a in [("inf", a_inf), *finite]
    )
    return ["--ram", places]


@st.composite
def order_zeta_lines(draw):
    q = draw(QS_UP_TO_THE_CAP)
    rank = draw(st.integers(1, MAX_RANK))
    ram = _ramification(draw, rank)
    return [
        "order-zeta", "--q", str(q), "--deg-inf", str(draw(DEGREES_UP_TO_THE_CAP)),
        "--rank", str(rank), *ram, "--series-order",
        str(draw(st.one_of(st.integers(0, 40), st.integers(0, MAX_SERIES_ORDER)))),
    ]


@settings(max_examples=30, deadline=5000)
@given(order_zeta_lines())
def test_order_zeta_near_the_caps_ends_in_time_in_a_documented_exit_code(argv):
    _ends_in_a_documented_exit_code(argv)


# the mass side near the same caps: mass and drinfeld-mass on one datum,
# table on a grid of up to three values along each axis
def _int_list(draw, strategy):
    return ",".join(map(str, draw(st.lists(strategy, min_size=1, max_size=3))))


@st.composite
def mass_side_lines(draw):
    command = draw(st.sampled_from(("mass", "drinfeld-mass", "table")))
    ranks = st.integers(1, MAX_RANK)
    if command == "table":
        return [
            "table", "--qs", _int_list(draw, QS_UP_TO_THE_CAP),
            "--ranks", _int_list(draw, ranks),
            "--p-degrees", _int_list(draw, DEGREES_UP_TO_THE_CAP),
        ]
    q, rank = draw(QS_UP_TO_THE_CAP), draw(ranks)
    argv = [
        command, "--q", str(q), "--deg-inf", str(draw(DEGREES_UP_TO_THE_CAP)),
        "--rank", str(rank),
    ]
    if command == "mass":
        return [*argv, *_ramification(draw, rank)]
    return [*argv, "--p-degree", str(draw(DEGREES_UP_TO_THE_CAP))]


@settings(max_examples=30, deadline=5000)
@given(mass_side_lines())
def test_mass_side_near_the_caps_ends_in_time_in_a_documented_exit_code(argv):
    _ends_in_a_documented_exit_code(argv)


# zeta with a genus up to MAX_GENUS and --values up to 10^6, and the local
# commands with q_v from the same picks, the local rank up to
# MAX_LOCAL_RANK (often a multiple of the index) and the index up to
# MAX_LOCAL_INDEX and past it
@st.composite
def zeta_and_local_lines(draw):
    command = draw(st.sampled_from(("zeta", "local volumes", "local lambda", "local iw-index")))
    q = draw(QS_UP_TO_THE_CAP)
    if command == "zeta":
        genus = draw(st.integers(0, MAX_GENUS))
        return [
            "zeta", "--q", str(q), "--genus", str(genus), "--l-poly", weil_l_poly(q, genus),
            "--values", str(draw(_small_or_up_to(10 ** 6))),
        ]
    d = draw(_small_or_up_to(MAX_LOCAL_INDEX + 4))
    argv = [*command.split(), "--qv", str(q), "--d", str(d)]
    if command == "local iw-index":
        return argv
    r = draw(st.one_of(
        st.integers(1, MAX_LOCAL_RANK), st.integers(1, max(MAX_LOCAL_RANK // d, 1)).map(d.__mul__)
    ))
    return [*argv, "--r", str(r)]


@settings(max_examples=30, deadline=5000)
@given(zeta_and_local_lines())
def test_zeta_and_local_near_the_caps_end_in_time_in_a_documented_exit_code(argv):
    _ends_in_a_documented_exit_code(argv)


# -- the printer against a Fraction reference ----------------------------------
# The package stores num/den in integers and normalizes only in the printer.
# The reference below is the earlier normalization, kept in Fractions: it
# cancels the literal, uncancelled num/den by Euclid's algorithm over Q and
# makes den monic, so it shares no code with algebra.ratfun or the printer.

def _fraction_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_divmod(a, b):
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    rem = rem[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def reference_monic_json(num, den):
    g, h = [Fraction(c) for c in num], [Fraction(c) for c in den]
    while h:
        g, h = h, _fraction_divmod(g, h)[1]
    num, den = _fraction_divmod(num, g)[0], _fraction_divmod(den, g)[0]
    lead = den[-1]
    return {
        "num": [rational_to_str(c / lead) for c in num],
        "den": [rational_to_str(c / lead) for c in den],
    }


def _one_minus(a, k):
    return [1] + [0] * (k - 1) + [-a]


def literal_closed_form(data):
    """The closed form's num and den as the plain products of its factors."""
    field, q, r = data.field, data.field.q, data.rank
    p = list(field.l_poly.coeffs)
    num = _fraction_mul(_one_minus(1, field.deg_inf), p)
    den = _fraction_mul(_one_minus(1, 1), _one_minus(q, 1))
    for i in range(1, r):
        num = _fraction_mul(num, [c * q ** (i * n) for n, c in enumerate(p)])
        den = _fraction_mul(den, _fraction_mul(_one_minus(q ** i, 1), _one_minus(q ** (i + 1), 1)))
    for place in data.places:
        for i in range(1, r):
            if i % place.inv_den:
                num = _fraction_mul(num, _one_minus(q ** (i * place.degree), place.degree))
    return num, den


def test_ratfun_json_matches_the_fraction_reference():
    stream = list(reference_stream())
    fields = {data.field: None for data in stream}
    assert len(fields) >= 17
    for field in fields:
        p = list(field.l_poly.coeffs)
        den = _fraction_mul(_one_minus(1, 1), _one_minus(field.q, 1))
        assert cli._ratfun_json(zeta_K(field)) == reference_monic_json(p, den)
        num = _fraction_mul(_one_minus(1, field.deg_inf), p)
        assert cli._ratfun_json(zeta_A(field)) == reference_monic_json(num, den)
    for data in random.Random(8).sample(stream, 120):
        want = reference_monic_json(*literal_closed_form(data))
        assert cli._ratfun_json(order_zeta_closed_form(data)) == want, (
            data.field, data.rank, data.places,
        )


# -- per-command imports and the lazy package root ----------------------------

def test_suite_choice_names_every_verify_suite():
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))


# sha256 of each command's --help at 80 columns, taken before the CLI moved
# its imports into the commands (verify's and local iw-index's retaken when
# the random-properties suite and the --brute flag went, verify's again
# when the zeta-class-number suite and --count went, order-zeta's when
# MASSFORM_SERIES_ORDER went, zeta's when --values got its cap); the help
# text reads MAX_SERIES_ORDER, MAX_SPECIAL_VALUES and the suite names
# without loading an engine
HELP_DIGESTS = {
    (): "e4076c817a9d05a0c6ca1b2d60ff0d865b477f410eb9bc5fdd24335cc99af37b",
    ("mass",): "4ed3c74d5a759b45059935a1f3f7884862ca2256ddd3d006d684c54dc381a7ab",
    ("drinfeld-mass",): "93143e9bec48fba299acd4b4bf0098ba3b1967d04c22dd65ca1169d581be172d",
    ("class-number",): "5d8fcc598a6a9db8654168a826c8da7bf8f0f36f0df9fa9cdc382a000d95860b",
    ("zeta",): "e0fed8ddc3dff05d431eb0e549e989f51a5826ffca3f962a88ad194af17a2b9e",
    ("order-zeta",): "56aa19192841a10ee600abe24b0fa9ca62635ce45ca49259263db906251d9013",
    ("local",): "dc1709d5d813f14966e06f2911558cf2064444e8fdf5d08c3ecce9a3b1f0a28b",
    ("local", "volumes"): "9881c773aef6352c82345e1e4174454f9120be89ca0d8c6c77f315682fcf9df0",
    ("local", "lambda"): "d885560028266140dfa11b7d64471c748e1033cbe36aa58ba050153db98e4883",
    ("local", "iw-index"): "961de832598d859dd604de50f6834abe6ff170eab76d53b39c0313c369c74e2f",
    ("local", "model-check"): "5fe28fb2ffa5caf74749fe2b0ddbc5bb9c43c15aab7769fe84e41ae9b091d885",
    ("table",): "1c9b72206d816b544a3b544e018646628e6ab2d840f385de95c592d92c0f450f",
    ("verify",): "8b385ba821c1d41c40b8c2640a23e19f261db2ea2aa07e2b357cac6f549ff942",
}


@pytest.mark.parametrize(
    "path, digest", HELP_DIGESTS.items(), ids=[" ".join(p) or "group" for p in HELP_DIGESTS]
)
def test_help_text_is_frozen(capsys, monkeypatch, path, digest):
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.run([*path, "--help"])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


SRC = Path(__file__).resolve().parent.parent / "src"


def _imported(*argv) -> set[str]:
    """The modules a fresh interpreter imports to run argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _loaded_submodules(*argv) -> set[str]:
    """The massform submodules a fresh interpreter imports to run argv."""
    return {name.split(".", 1)[1] for name in _imported(*argv) if name.startswith("massform.")}


def test_mass_loads_only_the_global_engines():
    imported = _imported(
        "-m", "massform.cli", "mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    loaded = {name.split(".", 1)[1] for name in imported if name.startswith("massform.")}
    assert "massengine" in loaded
    assert loaded.isdisjoint({"localmodels", "finitefield", "verify", "orderzeta"}), loaded
    # past interpreter start-up, only the standard library and massform;
    # -X importtime also lists failed probes, such as copy's for Jython
    packages = {name.split(".")[0] for name in imported - _imported("-c", "pass")}
    others = {p for p in packages - {"massform", *sys.stdlib_module_names} if find_spec(p)}
    assert not others, others


def test_help_loads_no_engine_and_no_inspect():
    imported = _imported("-m", "massform.cli", "--help")
    loaded = {name.split(".", 1)[1] for name in imported if name.startswith("massform.")}
    assert loaded <= {"cli", "errors"}, loaded
    assert "inspect" not in imported


def test_local_volumes_loads_no_global_engine():
    loaded = _loaded_submodules(
        "-m", "massform.cli", "local", "volumes", "--qv", "2", "--r", "2", "--d", "1",
    )
    assert "localvolumes" in loaded
    assert loaded.isdisjoint({"csa", "funcfield", "massengine", "orderzeta", "verify"}), loaded


# One invocation of each command of the benchmark's cli workload, and
# exactly the massform submodules it loads (cli itself runs as __main__).
# The local commands load no global engine, `algebra` or the models,
# and `verify --suite drinfeld` no finite field.  Only the matrix models
# import `dataclasses`, and `inspect` with it; every other command loads
# neither.  No other standard-library module is pinned: their import
# graphs differ between Python versions.
GLOBAL = {"algebra", "csa", "errors", "funcfield", "record"}
LOCAL = {"errors", "localvolumes"}
WORKLOAD_COMMANDS = {
    "mass": (("mass", "--q", "3", "--rank", "2", "--ram", "inf:1/2,1:1/2"),
             GLOBAL | {"massengine"}),
    "drinfeld-mass": (("drinfeld-mass", "--q", "2", "--genus", "1", "--l-poly", "1,1,2",
                       "--rank", "3", "--p-degree", "2"), GLOBAL | {"massengine"}),
    "class-number": (("class-number", "--q", "4"), {"algebra", "errors", "funcfield", "record"}),
    "zeta": (("zeta", "--q", "5", "--values", "3"), {"algebra", "errors", "funcfield", "record"}),
    "order-zeta": (("order-zeta", "--q", "2", "--rank", "4", "--ram", "inf:1/4,2:3/4",
                    "--series-order", "8"), GLOBAL | {"orderzeta"}),
    "local volumes": (("local", "volumes", "--qv", "3", "--r", "4", "--d", "2"), LOCAL),
    "local lambda": (("local", "lambda", "--qv", "4", "--r", "6", "--d", "3"), LOCAL),
    "local iw-index": (("local", "iw-index", "--qv", "3", "--d", "3"), LOCAL),
    "local model-check": (("local", "model-check", "--qv", "2", "--d", "2", "--pairs", "3"),
                          {"errors", "finitefield", "localmodels", "record"}),
    "table": (("table", "--qs", "3", "--ranks", "2,3", "--p-degrees", "1,2"),
              GLOBAL | {"massengine"}),
    "verify drinfeld": (("verify", "--suite", "drinfeld"),
                        GLOBAL | {"localvolumes", "massengine", "orderzeta", "verify"}),
}


@pytest.mark.parametrize("argv, modules", WORKLOAD_COMMANDS.values(), ids=WORKLOAD_COMMANDS)
def test_only_the_matrix_models_load_dataclasses(argv, modules):
    imported = _imported("-m", "massform.cli", *argv)
    loaded = {name.split(".", 1)[1] for name in imported if name.startswith("massform.")}
    assert loaded == modules
    models = "localmodels" in modules
    assert ("dataclasses" in imported) is models
    assert ("inspect" in imported) is models


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in WORKLOAD_COMMANDS.values()], ids=WORKLOAD_COMMANDS
)
def test_csv_header_is_the_json_keys(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    code, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    # table prints a list of rows; every other command one object
    assert next(csv.reader(io.StringIO(out))) == list(obj[0] if isinstance(obj, list) else obj)


def test_every_command_has_a_workload_case():
    paths = {cli._parse(list(argv))[0] for argv, _ in WORKLOAD_COMMANDS.values()}
    assert paths == set(cli.COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [MODEL_ARGS.split(), ["verify", "--suite", "local-models"]],
    ids=["model-check", "verify"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_printed_ok_false_is_exit_70(capsys, monkeypatch, argv, fmt):
    delta_mul = localmodels.delta_mul
    monkeypatch.setattr(localmodels, "delta_mul", lambda model, xs, ys: delta_mul(model, ys, xs))
    code, out, err = invoke(capsys, *argv, "--format", fmt)
    assert (code, err) == (70, "")
    if fmt == "json":
        assert json.loads(out)["ok"] is False
    else:
        assert next(csv.DictReader(io.StringIO(out)))["ok"] == "false"


# Each command's stdout is the write end of a pipe whose read end is
# closed: exit 74, and nothing on stderr, not even the interpreter's
# "Exception ignored" at its last flush
CLOSED_STDOUT = {
    "order-zeta": ("order-zeta", "--q", "5", "--rank", "6", "--ram", "inf:1/6,1:5/6",
                   "--series-order", "300"),
    "mass": tuple(MASS_ARGS.split()),
    "verify": ("verify", "--suite", "drinfeld"),
    # an input error is printed through the same guarded write
    "mass-q6": ("mass", "--q", "6", "--rank", "2", "--ram", "inf:1/2,1:1/2"),
    "volumes-d0": ("local", "volumes", "--qv", "2", "--r", "2", "--d", "0"),
}


@pytest.mark.parametrize("argv", CLOSED_STDOUT.values(), ids=CLOSED_STDOUT)
def test_a_closed_stdout_is_exit_74_in_silence(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "massform.cli", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (74, b"")


def test_bare_import_loads_no_submodule():
    assert _loaded_submodules("-c", "import massform") == set()


def test_public_names_resolve_lazily():
    namespace = {}
    exec("from massform import *", namespace)
    assert set(massform.__all__) <= set(namespace)
    for name in massform.__all__:
        value = getattr(massform, name)
        assert namespace[name] is value
        # cached: later lookups do not go through the module __getattr__
        assert vars(massform)[name] is value
    assert massform.mass is massengine.mass
    with pytest.raises(AttributeError, match="no_such_name"):
        massform.no_such_name
