"""Command-line front end.

Parses field and ramification descriptions, dispatches to the engines,
and emits deterministic JSON (default) or CSV.  Exit codes: 0 success,
2 invalid input data, 64 usage error, 70 internal consistency failure.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field as dataclass_field

import click

from .algebra import RationalFunctionQ, ratfun_eval, rational_to_str
from .csa import (
    RamificationData,
    parse_shorthand,
    ramification_to_json_dict,
    shorthand,
    validate,
)
from .errors import (
    InputDataError,
    InternalConsistencyError,
    InvalidRamificationError,
    MassformError,
    PoleError,
)
from .funcfield import (
    FunctionFieldData,
    class_number_A,
    field_from_json_dict,
    zeta_A,
    zeta_K,
    zeta_special_value,
)
from .localmodels import (
    iwahori_index,
    local_volume_report,
    run_model_checks,
)
from .massengine import drinfeld_mass, mass, mass_report_to_json_dict
from .orderzeta import order_zeta_closed_form, order_zeta_series
from . import verify as verify_mod


@dataclass(frozen=True)
class JobSpec:
    """One parsed invocation, validated before dispatch."""

    command: str
    field: FunctionFieldData | None = None
    ramification: RamificationData | None = None
    options: dict = dataclass_field(default_factory=dict)

    def option(self, name: str, default=None):
        return self.options.get(name, default)


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
    return field_from_json_dict(merged)


def _resolve_ramification(
    field: FunctionFieldData, rank: int, ram: str
) -> RamificationData:
    data = parse_shorthand(ram, field, rank)
    report = validate(data)
    if not report.ok:
        raise InvalidRamificationError("; ".join(report.failures))
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
    return {
        "num": [rational_to_str(c) for c in f.num.coeffs],
        "den": [rational_to_str(c) for c in f.den.coeffs],
    }


def _field_header(field: FunctionFieldData) -> dict:
    return {"q": field.q, "genus": field.genus, "deg_inf": field.deg_inf}


# ----------------------------------------------------------------------
# Handlers, one per command, dispatched on a validated JobSpec
# ----------------------------------------------------------------------

def _do_mass(spec: JobSpec) -> None:
    report = mass(spec.ramification)
    out = {
        **_field_header(spec.field),
        "rank": spec.ramification.rank,
        "ramification": shorthand(spec.ramification),
        **mass_report_to_json_dict(report),
    }
    _emit(out, spec.option("format", "json"))


def _do_drinfeld_mass(spec: JobSpec) -> None:
    value = drinfeld_mass(spec.field, spec.option("rank"), spec.option("p_degree"))
    out = {
        **_field_header(spec.field),
        "rank": spec.option("rank"),
        "p_degree": spec.option("p_degree"),
        "mass": rational_to_str(value),
    }
    _emit(out, spec.option("format", "json"))


def _do_class_number(spec: JobSpec) -> None:
    out = {
        **_field_header(spec.field),
        "h_A": rational_to_str(class_number_A(spec.field)),
    }
    _emit(out, spec.option("format", "json"))


def _do_zeta(spec: JobSpec) -> None:
    field = spec.field
    values = spec.option("values", 3)
    out = {
        **_field_header(field),
        "l_poly": [rational_to_str(c) for c in field.l_poly.coeffs],
        "zeta_K": _ratfun_json(zeta_K(field)),
        "zeta_A": _ratfun_json(zeta_A(field)),
        "special_values": {
            str(-i): rational_to_str(zeta_special_value(field, i))
            for i in range(1, values + 1)
        },
    }
    _emit(out, spec.option("format", "json"))


def _do_order_zeta(spec: JobSpec) -> None:
    data = spec.ramification
    order = spec.option("series_order")
    closed = order_zeta_closed_form(data)
    try:
        value_at_zero = ratfun_eval(closed.ratfun, 1)
    except PoleError as exc:
        raise InternalConsistencyError(str(exc)) from None
    series = order_zeta_series(data, order)
    out = {
        **_field_header(spec.field),
        "rank": data.rank,
        "ramification": shorthand(data),
        "closed_form": _ratfun_json(closed.ratfun),
        "value_at_zero": rational_to_str(value_at_zero),
        "series_order": order,
        "series": [rational_to_str(c) for c in series.coeffs],
    }
    _emit(out, spec.option("format", "json"))


def _do_local_volumes(spec: JobSpec) -> None:
    rep = local_volume_report(
        spec.option("q_v"), spec.option("r"), spec.option("d")
    )
    out = {
        "q_v": spec.option("q_v"),
        "r": spec.option("r"),
        "d": spec.option("d"),
        "vol_G": rational_to_str(rep.vol_G),
        "vol_Gprime": rational_to_str(rep.vol_Gprime),
        "ratio": rational_to_str(rep.ratio),
    }
    _emit(out, spec.option("format", "json"))


def _do_local_lambda(spec: JobSpec) -> None:
    rep = local_volume_report(
        spec.option("q_v"), spec.option("r"), spec.option("d")
    )
    out = {
        "q_v": spec.option("q_v"),
        "r": spec.option("r"),
        "d": spec.option("d"),
        "lambda": rational_to_str(rep.ratio),
    }
    _emit(out, spec.option("format", "json"))


def _do_local_iw_index(spec: JobSpec) -> None:
    value = iwahori_index(
        spec.option("q_v"), spec.option("d"), brute_force=spec.option("brute", False)
    )
    out = {
        "q_v": spec.option("q_v"),
        "d": spec.option("d"),
        "brute_force": bool(spec.option("brute", False)),
        "index": value,
    }
    _emit(out, spec.option("format", "json"))


def _do_local_model_check(spec: JobSpec) -> int:
    report = run_model_checks(
        spec.option("q_v"),
        spec.option("d"),
        spec.option("b"),
        precision=spec.option("precision", 6),
        pairs=spec.option("pairs", 100),
        seed=spec.option("seed", 0),
    )
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
    _emit(out, spec.option("format", "json"))
    return 0 if report.ok else 70


def _do_table(spec: JobSpec) -> None:
    qs = spec.option("qs")
    ranks = spec.option("ranks")
    p_degrees = spec.option("p_degrees")
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
    _emit_rows(header, out_rows, spec.option("format", "json"))


def _do_verify(spec: JobSpec) -> int:
    kwargs: dict = {}
    if spec.option("max_rank") is not None:
        kwargs["ranks"] = tuple(
            r for r in (2, 3, 4, 6) if r <= spec.option("max_rank")
        )
    if spec.option("series_order") is not None:
        kwargs["series_order"] = spec.option("series_order")
    if spec.option("count") is not None:
        kwargs["count"] = spec.option("count")
    if spec.option("seed") is not None:
        kwargs["seed"] = spec.option("seed")
    if spec.option("pairs") is not None:
        kwargs["pairs"] = spec.option("pairs")
    name = spec.option("suite", "all")
    if name == "all":
        reports = verify_mod.run_all(**kwargs)
    else:
        reports = [verify_mod.run_suite(name, **kwargs)]
    out = {
        "reports": [verify_mod.suite_report_to_json_dict(r) for r in reports],
        "ok": all(r.ok for r in reports),
    }
    _emit(out, spec.option("format", "json"))
    return 0 if out["ok"] else 70


# ----------------------------------------------------------------------
# Click wiring
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
    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    data = _resolve_ramification(field, rank, ram)
    _do_mass(JobSpec("mass", field, data, {"format": fmt}))


@cli.command("drinfeld-mass")
@_field_options
@click.option("--rank", type=int, required=True)
@click.option("--p-degree", "p_degree", type=int, required=True)
@_format_option
def cmd_drinfeld_mass(q, genus, l_poly, deg_inf, field_file, rank, p_degree, fmt):
    """Mass in the Drinfeld shape: one finite ramified place plus infinity."""
    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    spec = JobSpec(
        "drinfeld-mass",
        field,
        None,
        {"rank": rank, "p_degree": p_degree, "format": fmt},
    )
    _do_drinfeld_mass(spec)


@cli.command("class-number")
@_field_options
@_format_option
def cmd_class_number(q, genus, l_poly, deg_inf, field_file, fmt):
    """Class number of the ring of functions regular away from infinity."""
    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    _do_class_number(JobSpec("class-number", field, None, {"format": fmt}))


@cli.command("zeta")
@_field_options
@click.option("--values", type=int, default=3, help="how many special values")
@_format_option
def cmd_zeta(q, genus, l_poly, deg_inf, field_file, values, fmt):
    """Field zeta function, with and without the infinity factor."""
    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    _do_zeta(JobSpec("zeta", field, None, {"values": values, "format": fmt}))


@cli.command("order-zeta")
@_field_options
@click.option("--rank", type=int, required=True)
@click.option("--ram", default="")
@click.option("--series-order", "series_order", type=int, default=None)
@_format_option
def cmd_order_zeta(q, genus, l_poly, deg_inf, field_file, rank, ram, series_order, fmt):
    """Zeta function of a maximal order: closed form, value at zero, series."""
    field = _resolve_field(q, genus, l_poly, deg_inf, field_file)
    data = _resolve_ramification(field, rank, ram)
    if series_order is None:
        series_order = _default_series_order()
    spec = JobSpec(
        "order-zeta", field, data, {"series_order": series_order, "format": fmt}
    )
    _do_order_zeta(spec)


@cli.group("local")
def cmd_local() -> None:
    """Local volume, index, and matrix-model checks."""


@cmd_local.command("volumes")
@click.option("--qv", "q_v", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--d", type=int, required=True)
@_format_option
def cmd_local_volumes(q_v, r, d, fmt):
    spec = JobSpec("local", None, None, {"q_v": q_v, "r": r, "d": d, "format": fmt})
    _do_local_volumes(spec)


@cmd_local.command("lambda")
@click.option("--qv", "q_v", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--d", type=int, required=True)
@_format_option
def cmd_local_lambda(q_v, r, d, fmt):
    spec = JobSpec("local", None, None, {"q_v": q_v, "r": r, "d": d, "format": fmt})
    _do_local_lambda(spec)


@cmd_local.command("iw-index")
@click.option("--qv", "q_v", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--brute", is_flag=True, default=False)
@_format_option
def cmd_local_iw_index(q_v, d, brute, fmt):
    spec = JobSpec(
        "local", None, None, {"q_v": q_v, "d": d, "brute": brute, "format": fmt}
    )
    _do_local_iw_index(spec)


@cmd_local.command("model-check")
@click.option("--qv", "q_v", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--b", type=int, default=1)
@click.option("--prec", "precision", type=int, default=6)
@click.option("--pairs", type=int, default=100)
@click.option("--seed", type=int, default=0)
@_format_option
def cmd_local_model_check(q_v, d, b, precision, pairs, seed, fmt):
    spec = JobSpec(
        "local",
        None,
        None,
        {
            "q_v": q_v,
            "d": d,
            "b": b,
            "precision": precision,
            "pairs": pairs,
            "seed": seed,
            "format": fmt,
        },
    )
    return _do_local_model_check(spec)


@cli.command("table")
@click.option("--qs", default="2", help="comma-separated list")
@click.option("--ranks", default="2", help="comma-separated list")
@click.option("--p-degrees", "p_degrees", default="1,2,3", help="comma-separated list")
@_format_option
def cmd_table(qs, ranks, p_degrees, fmt):
    """Mass table over a parameter grid of Drinfeld-shape data."""
    try:
        spec = JobSpec(
            "table",
            None,
            None,
            {
                "qs": _parse_int_list(qs),
                "ranks": _parse_int_list(ranks),
                "p_degrees": _parse_int_list(p_degrees),
                "format": fmt,
            },
        )
    except ValueError as exc:
        raise click.UsageError(f"bad integer list: {exc}")
    _do_table(spec)


@cli.command("verify")
@click.option(
    "--suite",
    type=click.Choice(["all"] + sorted(verify_mod.SUITES)),
    default="all",
)
@click.option("--max-rank", "max_rank", type=int, default=None)
@click.option("--series-order", "series_order", type=int, default=None)
@click.option("--count", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--pairs", type=int, default=None)
@_format_option
def cmd_verify(suite, max_rank, series_order, count, seed, pairs, fmt):
    """Run the cross-check suites and report exact agreement."""
    spec = JobSpec(
        "verify",
        None,
        None,
        {
            "suite": suite,
            "max_rank": max_rank,
            "series_order": series_order,
            "count": count,
            "seed": seed,
            "pairs": pairs,
            "format": fmt,
        },
    )
    return _do_verify(spec)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

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
        _emit(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            "json",
        )
        return 2
    except ValueError as exc:
        _emit(
            {"error": {"type": "ValueError", "message": str(exc)}},
            "json",
        )
        return 2
    except (InternalConsistencyError, MassformError) as exc:
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 70
    if isinstance(result, int):
        return result
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
