"""Command-line front end.

Parses field and ramification descriptions, dispatches to the engines,
and emits deterministic JSON (default) or CSV.  Exit codes: 0 success,
2 invalid input data (a typed InputDataError, or an answer past
Python's int-to-string limit), 64 usage error, 70 internal consistency
failure or any other untyped error.

Imports are per command.  At module level this file loads only click,
the standard library and `errors`; each command imports the engines it
runs in its body, so `massform mass` never loads the finite-field
models or the verify suites, and `massform local volumes` never loads
the global engines.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

import click

from .errors import (
    MAX_SERIES_ORDER,
    EmptySelectionError,
    InputDataError,
    InvalidFieldError,
    OutputTooLargeError,
)

if TYPE_CHECKING:
    from .algebra import RationalFunctionQ
    from .csa import RamificationData
    from .funcfield import FunctionFieldData

# The names of verify.SUITES, sorted, for the --suite choice; listed here
# so that --help does not load the suites (a test ties the two together).
SUITE_NAMES = (
    "brute-force-oracles",
    "drinfeld",
    "lambda-volumes",
    "local-models",
    "random-properties",
    "series-closed-form",
    "zeta-at-zero",
    "zeta-class-number",
)


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------

def _field_options(fn):
    fn = click.option("--field-file", default=None, help="JSON field description")(fn)
    fn = click.option("--deg-inf", "deg_inf", type=int, default=None)(fn)
    fn = click.option(
        "--l-poly", "l_poly", default=None,
        help="comma-separated integer coefficients, constant term first",
    )(fn)
    fn = click.option("--genus", type=int, default=None)(fn)
    fn = click.option("--q", type=int, default=None)(fn)
    return fn


def _format_option(fn):
    return click.option(
        "--format", "fmt", type=click.Choice(["json", "csv"]), default="json"
    )(fn)


def _parse_int_list(text: str) -> list[int]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if token:
            out.append(int(token))
    return out


def _resolve_field(q, genus, l_poly, deg_inf, field_file) -> FunctionFieldData:
    base: dict = {}
    if field_file is not None:
        try:
            with open(field_file) as fh:
                base = json.load(fh)
        except OSError as exc:
            raise click.UsageError(f"cannot read field file: {exc}")
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"field file is not valid JSON: {exc}")
        if not isinstance(base, dict):
            raise InvalidFieldError(f"field file holds {base!r}, not a JSON object")
    inline: dict = {}
    if q is not None:
        inline["q"] = q
    if genus is not None:
        inline["genus"] = genus
    if l_poly is not None:
        try:
            inline["l_poly"] = _parse_int_list(l_poly)
        except ValueError:
            raise click.UsageError(f"cannot parse --l-poly {l_poly!r}")
    if deg_inf is not None:
        inline["deg_inf"] = deg_inf
    for key, value in inline.items():
        if key in base and base[key] != value:
            flag = "--" + key.replace("_", "-")
            click.echo(
                f"warning: inline {flag}={value} overrides field file "
                f"value {base[key]}",
                err=True,
            )
    merged = {**base, **inline}
    if "q" not in merged:
        raise click.UsageError("a field needs --q or --field-file")
    merged.setdefault("genus", 0)
    merged.setdefault("deg_inf", 1)
    if merged["genus"] == 0:
        merged.setdefault("l_poly", [1])
    if "l_poly" not in merged:
        raise click.UsageError("positive genus needs --l-poly")
    from .funcfield import field_from_json_dict

    return field_from_json_dict(merged)


def _resolve_ramification(
    field: FunctionFieldData, rank: int, ram: str
) -> RamificationData:
    from .csa import ensure_valid, parse_shorthand

    data = parse_shorthand(ram, field, rank)
    ensure_valid(data)
    return data


def _default_series_order() -> int:
    raw = os.environ.get("MASSFORM_SERIES_ORDER", "10")
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(
            f"MASSFORM_SERIES_ORDER={raw!r} is not an integer"
        )


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value, ensure_ascii=True)
    return str(value)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = list(obj.keys())
        writer.writerow(keys)
        writer.writerow([_cell(obj[k]) for k in keys])
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo(json.dumps(obj, ensure_ascii=True))


def _emit_rows(header: list[str], rows: list[dict], fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in header])
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo(json.dumps(rows, ensure_ascii=True))


def _ratfun_json(f: RationalFunctionQ) -> dict:
    """num/den printed with den monic: every coefficient over den's
    leading coefficient."""
    from .algebra import rational_to_str

    lead = f.den.leading()
    return {
        "num": [rational_to_str(Fraction(c, lead)) for c in f.num.coeffs],
        "den": [rational_to_str(Fraction(c, lead)) for c in f.den.coeffs],
    }


def _field_header(field: FunctionFieldData) -> dict:
    return {"q": field.q, "genus": field.genus, "deg_inf": field.deg_inf}


# ----------------------------------------------------------------------
# Commands: each resolves its inputs, calls its engine and emits
# ----------------------------------------------------------------------

@click.group()
def cli() -> None:
    """Exact mass formulas, class numbers, and maximal-order zeta
    functions for division algebras over global function fields."""


@cli.command("mass")
@_field_options
@click.option("--rank", type=int, required=True)
@click.option("--ram", default="", help='e.g. "inf:1/2,1:1/2"')
@_format_option
def cmd_mass(q, genus, l_poly, deg_inf, field_file, rank, ram, fmt):
    """Mass of the maximal orders for one ramification datum."""
    from .csa import shorthand
    from .massengine import mass, mass_report_to_json_dict

    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    data = _resolve_ramification(field, rank, ram)
    out = {
        **_field_header(field),
        "rank": rank,
        "ramification": shorthand(data),
        **mass_report_to_json_dict(mass(data)),
    }
    _emit(out, fmt)


@cli.command("drinfeld-mass")
@_field_options
@click.option("--rank", type=int, required=True)
@click.option("--p-degree", "p_degree", type=int, required=True)
@_format_option
def cmd_drinfeld_mass(q, genus, l_poly, deg_inf, field_file, rank, p_degree, fmt):
    """Mass in the Drinfeld shape: one finite ramified place plus infinity."""
    from .algebra import rational_to_str
    from .massengine import drinfeld_mass

    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    out = {
        **_field_header(field),
        "rank": rank,
        "p_degree": p_degree,
        "mass": rational_to_str(drinfeld_mass(field, rank, p_degree)),
    }
    _emit(out, fmt)


@cli.command("class-number")
@_field_options
@_format_option
def cmd_class_number(q, genus, l_poly, deg_inf, field_file, fmt):
    """Class number of the ring of functions regular away from infinity."""
    from .algebra import rational_to_str
    from .funcfield import class_number_A

    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    out = {
        **_field_header(field),
        "h_A": rational_to_str(class_number_A(field)),
    }
    _emit(out, fmt)


@cli.command("zeta")
@_field_options
@click.option("--values", type=int, default=3, help="how many special values")
@_format_option
def cmd_zeta(q, genus, l_poly, deg_inf, field_file, values, fmt):
    """Field zeta function, with and without the infinity factor."""
    from .algebra import rational_to_str
    from .funcfield import zeta_A, zeta_K, zeta_special_value

    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    if values < 1:
        raise EmptySelectionError(f"values {values} must be >= 1")
    out = {
        **_field_header(field),
        "l_poly": [str(c) for c in field.l_poly.coeffs],
        "zeta_K": _ratfun_json(zeta_K(field)),
        "zeta_A": _ratfun_json(zeta_A(field)),
        "special_values": {
            str(-i): rational_to_str(zeta_special_value(field, i))
            for i in range(1, values + 1)
        },
    }
    _emit(out, fmt)


@cli.command("order-zeta")
@_field_options
@click.option("--rank", type=int, required=True)
@click.option("--ram", default="")
@click.option(
    "--series-order", "series_order", type=int, default=None,
    help=f"0 to {MAX_SERIES_ORDER}; default MASSFORM_SERIES_ORDER, else 10",
)
@_format_option
def cmd_order_zeta(q, genus, l_poly, deg_inf, field_file, rank, ram, series_order, fmt):
    """Zeta function of a maximal order: closed form, value at zero, series."""
    from .algebra import rational_to_str
    from .csa import shorthand
    from .orderzeta import order_zeta_closed_form, order_zeta_series

    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    data = _resolve_ramification(field, rank, ram)
    if series_order is None:
        series_order = _default_series_order()
    closed = order_zeta_closed_form(data)
    series = order_zeta_series(data, series_order)
    out = {
        **_field_header(field),
        "rank": rank,
        "ramification": shorthand(data),
        "closed_form": _ratfun_json(closed.ratfun),
        "value_at_zero": rational_to_str(closed.value_at_one),
        "series_order": series_order,
        "series": [str(c) for c in series.coeffs],
    }
    _emit(out, fmt)


@cli.group("local")
def cmd_local() -> None:
    """Local volume, index, and matrix-model checks."""


def _volume_options(fn):
    fn = _format_option(fn)
    fn = click.option("--d", type=int, required=True)(fn)
    fn = click.option("--r", type=int, required=True)(fn)
    return click.option("--qv", "q_v", type=int, required=True)(fn)


def _local_volumes(q_v: int, r: int, d: int) -> dict:
    from .algebra import rational_to_str
    from .localmodels import local_volume_report

    rep = local_volume_report(q_v, r, d)
    return {
        "q_v": q_v,
        "r": r,
        "d": d,
        "vol_G": rational_to_str(rep.vol_G),
        "vol_Gprime": rational_to_str(rep.vol_Gprime),
        "ratio": rational_to_str(rep.ratio),
    }


@cmd_local.command("volumes")
@_volume_options
def cmd_local_volumes(q_v, r, d, fmt):
    _emit(_local_volumes(q_v, r, d), fmt)


@cmd_local.command("lambda")
@_volume_options
def cmd_local_lambda(q_v, r, d, fmt):
    out = {
        "q_v": q_v,
        "r": r,
        "d": d,
        "lambda": _local_volumes(q_v, r, d)["ratio"],
    }
    _emit(out, fmt)


@cmd_local.command("iw-index")
@click.option("--qv", "q_v", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--brute", is_flag=True, default=False)
@_format_option
def cmd_local_iw_index(q_v, d, brute, fmt):
    from .localmodels import iwahori_index

    out = {
        "q_v": q_v,
        "d": d,
        "brute_force": brute,
        "index": iwahori_index(q_v, d, brute_force=brute),
    }
    _emit(out, fmt)


@cmd_local.command("model-check")
@click.option("--qv", "q_v", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--b", type=int, default=1)
@click.option("--prec", "precision", type=int, default=6)
@click.option("--pairs", type=int, default=100)
@click.option("--seed", type=int, default=0)
@_format_option
def cmd_local_model_check(q_v, d, b, precision, pairs, seed, fmt):
    from .localmodels import run_model_checks

    report = run_model_checks(q_v, d, b, precision=precision, pairs=pairs, seed=seed)
    out = {
        "q_v": report.q_v,
        "d": report.d,
        "b": report.b,
        "precision": report.precision,
        "pairs_checked": report.pairs_checked,
        "multiplicativity_ok": report.multiplicativity_ok,
        "pi_power_ok": report.pi_power_ok,
        "embedding_in_order_ok": report.embedding_in_order_ok,
        "negative_valuation_excluded_ok": report.negative_valuation_excluded_ok,
        "ok": report.ok,
    }
    _emit(out, fmt)
    return 0 if report.ok else 70


@cli.command("table")
@click.option("--qs", default="2", help="comma-separated list")
@click.option("--ranks", default="2", help="comma-separated list")
@click.option("--p-degrees", "p_degrees", default="1,2,3", help="comma-separated list")
@_format_option
def cmd_table(qs, ranks, p_degrees, fmt):
    """Mass table over a parameter grid of Drinfeld-shape data."""
    from .csa import RamificationData, shorthand
    from .funcfield import FunctionFieldData
    from .massengine import mass

    try:
        qs, ranks, p_degrees = map(_parse_int_list, (qs, ranks, p_degrees))
    except ValueError as exc:
        raise click.UsageError(f"bad integer list: {exc}")
    rows = []
    for q in qs:
        field = FunctionFieldData.rational(q)
        for r in ranks:
            if r == 1:
                data = RamificationData(field=field, rank=1, places=())
                rows.append((q, 0, r, data))
            else:
                for p_degree in p_degrees:
                    data = _resolve_ramification(
                        field, r, f"inf:-1/{r},{p_degree}:1/{r}"
                    )
                    rows.append((q, 0, r, data))
    rows.sort(key=lambda item: (item[0], item[1], item[2], shorthand(item[3])))
    out_rows = []
    for q, genus, r, data in rows:
        value = mass(data).mass
        out_rows.append(
            {
                "q": q,
                "genus": genus,
                "deg_inf": data.field.deg_inf,
                "r": r,
                "ramification": shorthand(data),
                "mass_num": value.numerator,
                "mass_den": value.denominator,
            }
        )
    header = ["q", "genus", "deg_inf", "r", "ramification", "mass_num", "mass_den"]
    _emit_rows(header, out_rows, fmt)


@cli.command("verify")
@click.option(
    "--suite",
    type=click.Choice(["all", *SUITE_NAMES]),
    default="all",
)
@click.option("--max-rank", "max_rank", type=int, default=None)
@click.option("--series-order", "series_order", type=int, default=None)
@click.option("--count", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--pairs", type=int, default=None)
@_format_option
def cmd_verify(suite, fmt, **options):
    """Run the cross-check suites and report exact agreement.

    Each option given goes to the selected suites that take it; one that
    no selected suite takes is a usage error.
    """
    from . import verify as verify_mod

    names = list(verify_mod.SUITES) if suite == "all" else [suite]
    takes = {
        name: inspect.signature(verify_mod.SUITES[name]).parameters for name in names
    }
    given = {key: value for key, value in options.items() if value is not None}
    for key in given:
        if not any(key in params for params in takes.values()):
            flag = "--" + key.replace("_", "-")
            raise click.UsageError(f"{flag} is not an option of suite {suite}")
    reports = [
        verify_mod.run_suite(
            name, **{key: value for key, value in given.items() if key in takes[name]}
        )
        for name in names
    ]
    out = {
        "reports": [verify_mod.suite_report_to_json_dict(r) for r in reports],
        "ok": all(r.ok for r in reports),
    }
    _emit(out, fmt)
    return 0 if out["ok"] else 70


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _input_error(exc: InputDataError) -> int:
    _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, "json")
    return 2


def _internal_error(exc: Exception) -> int:
    click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
    return 70


def run(argv: list[str]) -> int:
    """Execute one invocation; returns the exit code instead of exiting."""
    try:
        result = cli.main(args=list(argv), standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 64
    except click.ClickException as exc:
        exc.show()
        return 64
    except click.exceptions.Abort:
        return 64
    except InputDataError as exc:
        return _input_error(exc)
    except ValueError as exc:
        # Python's int-to-string limit is the one untyped error that
        # reports an input: an answer too long to print
        if "integer string conversion" in str(exc):
            return _input_error(OutputTooLargeError(str(exc)))
        return _internal_error(exc)
    except Exception as exc:
        return _internal_error(exc)
    if isinstance(result, int):
        return result
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
