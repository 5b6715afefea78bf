import json

import pytest

import massform.cli as cli
from massform.errors import InternalConsistencyError


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


def test_internal_errors_are_exit_70(capsys, monkeypatch):
    def boom(data):
        raise InternalConsistencyError("forced")

    monkeypatch.setattr(cli, "mass", boom)
    code, out, err = invoke(
        capsys, "mass", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert code == 70
    assert "InternalConsistencyError" in err


def test_determinism_byte_identical(capsys):
    argv = [
        "order-zeta", "--q", "3", "--rank", "2",
        "--ram", "inf:1/2,1:1/2", "--series-order", "6",
    ]
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


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
    monkeypatch.setenv("MASSFORM_SERIES_ORDER", "3")
    code, out, _ = invoke(
        capsys, "order-zeta", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert code == 0
    assert len(json.loads(out)["series"]) == 4

    monkeypatch.setenv("MASSFORM_SERIES_ORDER", "junk")
    code, _, _ = invoke(
        capsys, "order-zeta", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert code == 64

    monkeypatch.delenv("MASSFORM_SERIES_ORDER")
    code, out, _ = invoke(
        capsys, "order-zeta", "--q", "2", "--rank", "2", "--ram", "inf:1/2,1:1/2",
    )
    assert code == 0
    assert len(json.loads(out)["series"]) == 11


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

    code, out, _ = invoke(capsys, "local", "iw-index", "--qv", "2", "--d", "3", "--brute")
    assert code == 0
    assert json.loads(out)["index"] == 512

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
        (("verify", "--suite", "zeta-at-zero", "--max-rank", "1"), "EmptySelectionError"),
        (("verify", "--suite", "random-properties", "--count", "0"), "EmptySelectionError"),
        (("local", "model-check", "--qv", "2", "--d", "2", "--pairs", "-3"),
         "EmptySelectionError"),
        (("mass", "--q", "2", "--rank", "2", "--ram", "inf:1/0"), "InvalidRamificationError"),
    ],
    ids=[
        "volumes-d0", "lambda-d0", "table-rank0", "volumes-qv6", "iw-index-qv6",
        "model-check-prec1", "verify-empty-ranks", "verify-count0",
        "model-check-pairs-negative", "mass-invariant-den0",
    ],
)
def test_bad_input_regressions_are_exit_2(capsys, argv, error_type):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == error_type
    assert "Traceback" not in err


def test_verify_command_single_suite(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "drinfeld")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["reports"][0]["suite"] == "drinfeld"
    assert obj["reports"][0]["checked"] == 27


def test_verify_respects_max_rank(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "zeta-at-zero", "--max-rank", "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    # rank 2 only: far fewer configurations than the full battery
    assert 0 < obj["reports"][0]["checked"] < 30
