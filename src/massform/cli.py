"""Command-line front end.

Parses field and ramification descriptions, dispatches to the engines,
and emits deterministic JSON (default) or CSV.  Each command is a plain
function from its parsed options to the object it prints: a dict, or
(header, rows) for `table`.  `run` does the rest: it resolves the field
of the commands that take one and puts its header first, renders the
answer or the typed error in the chosen format, picks the exit code,
and writes the whole text to stdout at once.  For the length of the call
it sets the interpreter's int-to-string limit to MAX_PRINTED_DIGITS, so
every command reads and prints integers up to the same size on every
Python.  Exit codes: 0 success, 2 invalid input data (a typed
InputDataError, or an answer with an integer past MAX_PRINTED_DIGITS),
64 usage error, 70 a printed `"ok": false`, an internal consistency
failure or any other untyped error, 74 a stdout closed by its reader.

The parser is a loop over one table, in the standard library only.
Each command registers its path and its options with `@command`, and
its docstring is its help; `--help` is rendered from the same table.
The grammar: `--opt value` or `--opt=value`, where a value may start
with a dash; flags take no value; the last of a repeated option wins;
options are never abbreviated; integers are an optional sign and ASCII
digits.  `--help` after the command path prints that command's help.
Every other malformed command line is a usage error.

Imports are per command.  At module level this file loads only the
standard library and `errors`, which also holds `rational_to_str`; each
command imports the engines it runs in its body, so `massform mass`
never loads the finite-field models or the verify suites, `massform
local volumes` loads `localvolumes` alone (no global engine, no
`algebra`, no finite field), and `local model-check` loads the finite
fields and the models but not `algebra`.  Only the matrix models import
`dataclasses` (and with it `inspect`, `ast` and `dis`), so only `local
model-check` and the verify suite local-models pay for that import.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import (
    MAX_PRINTED_DIGITS,
    MAX_SERIES_ORDER,
    EmptySelectionError,
    InputDataError,
    InvalidFieldError,
    OutputTooLargeError,
    SelectionTooLargeError,
    check_series_order,
    excerpt,
    parse_int,
    rational_to_str,
)

if TYPE_CHECKING:
    from .algebra import RationalFunctionQ
    from .funcfield import FunctionFieldData

PROG = "massform"

# The names of verify.SUITES, sorted, for the --suite choice; listed here
# so that --help does not load the suites (a test ties the two together).
SUITE_NAMES = (
    "brute-force-oracles",
    "drinfeld",
    "lambda-volumes",
    "local-models",
    "series-closed-form",
    "zeta-at-zero",
)


class UsageError(Exception):
    """A malformed command line: exit 64, with the message on stderr."""


# ----------------------------------------------------------------------
# The command table
# ----------------------------------------------------------------------

class Option:
    """One option: its flag, the keyword it fills, its kind ("int",
    "text", "flag" or a tuple of choices), its default, whether it is
    required, and its help text."""

    __slots__ = ("flag", "dest", "kind", "default", "required", "help")

    def __init__(self, flag, kind="int", default=None, *, dest=None, required=False, help=""):
        self.flag = flag
        self.dest = dest or flag[2:].replace("-", "_")
        self.kind = kind
        self.default = default
        self.required = required
        self.help = help


FIELD_OPTIONS = (
    Option("--q"),
    Option("--genus"),
    Option("--l-poly", "text",
           help="comma-separated integer coefficients, constant term first"),
    Option("--deg-inf"),
    Option("--field-file", "text", help="JSON field description"),
)
RANK = Option("--rank", required=True)
QV = Option("--qv", dest="q_v", required=True, help="residue field size q_v, a prime power")
VOLUME_OPTIONS = (
    QV,
    Option("--r", required=True, help="local rank r"),
    Option("--d", required=True, help="local index d, a divisor of r"),
)
FORMAT = Option("--format", ("json", "csv"), "json", dest="fmt")
HELP = Option("--help", "flag", False, help="Show this message and exit.")

# The docstrings of the command groups, by path
GROUPS = {
    (): """Exact mass formulas, class numbers, and maximal-order zeta
    functions for division algebras over global function fields.""",
    ("local",): "Local volume, index, and matrix-model checks.",
}

# path -> (function, options); every command takes --format last
COMMANDS: dict[tuple[str, ...], tuple] = {}


def command(path: str, *options: Option):
    """Register the decorated function as the command at `path`."""

    def register(fn):
        COMMANDS[tuple(path.split())] = (fn, (*options, FORMAT))
        return fn

    return register


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def _parse_int(text: str, name: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise UsageError(f"invalid value for {name}: {exc}")


def _parse_int_list(text: str, name: str) -> list[int]:
    return [_parse_int(token, name) for token in text.split(",") if token.strip()]


def _value(opt: Option, given: dict):
    if opt.dest not in given:
        if opt.required:
            raise UsageError(f"missing option {opt.flag}")
        return opt.default
    value = given[opt.dest]
    if opt.kind == "int":
        return _parse_int(value, opt.flag)
    if isinstance(opt.kind, tuple) and value not in opt.kind:
        raise UsageError(
            f"invalid value for {opt.flag}: {excerpt(value)} "
            f"is not one of {', '.join(opt.kind)}"
        )
    return value


def _parse_options(options: tuple[Option, ...], args: list[str]) -> dict | None:
    """The keyword arguments for a command; None when --help was given."""
    by_flag = {opt.flag: opt for opt in (*options, HELP)}
    given: dict = {}
    extra = []
    tokens = iter(args)
    for token in tokens:
        if not token.startswith("-"):
            extra.append(token)
            continue
        flag, has_value, value = token.partition("=")
        opt = by_flag.get(flag)
        if opt is None:
            raise UsageError(f"no such option {excerpt(flag)}")
        if opt.kind == "flag":
            if has_value:
                raise UsageError(f"option {flag} takes no value")
            value = True
        elif not has_value:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"option {flag} needs a value")
        given[opt.dest] = value
    if HELP.dest in given:
        return None
    if extra:
        raise UsageError(f"unexpected argument {excerpt(extra[0])}")
    return {opt.dest: _value(opt, given) for opt in options}


def _parse(argv: list[str]) -> tuple[tuple[str, ...], dict | None]:
    """The command path and its keyword arguments (None for --help)."""
    path: tuple[str, ...] = ()
    args = list(argv)
    while path in GROUPS:
        if not args:
            raise UsageError(f"missing command; see '{' '.join((PROG, *path))} --help'")
        token = args.pop(0)
        if token == HELP.flag:
            return path, None
        if token.startswith("-"):
            raise UsageError(f"no such option {excerpt(token)}")
        if path + (token,) not in COMMANDS and path + (token,) not in GROUPS:
            raise UsageError(f"no such command {excerpt(token)}")
        path += (token,)
    return path, _parse_options(COMMANDS[path][1], args)


# ----------------------------------------------------------------------
# Help, laid out for an 80-column terminal
# ----------------------------------------------------------------------

WIDTH = 78
METAVARS = {"int": " INTEGER", "text": " TEXT", "flag": ""}


def _paragraphs(doc: str | None) -> list[str]:
    lines = "\n".join(line.strip() for line in (doc or "").splitlines())
    return [" ".join(p.split()) for p in lines.split("\n\n") if p.strip()]


def _short_help(doc: str | None, limit: int) -> str:
    """The first sentence if it fits in `limit`, else the words that fit
    before an ellipsis."""
    kept: list[str] = []
    for word in (_paragraphs(doc) or [""])[0].split():
        if len(" ".join([*kept, word])) > limit:
            break
        kept.append(word)
        if word.endswith("."):
            return " ".join(kept)
    else:
        return " ".join(kept)
    while kept and len(" ".join(kept)) + 3 > limit:
        kept.pop()
    return " ".join(kept) + "..."


def _definition_list(rows: list[tuple[str, str]]) -> list[str]:
    import textwrap

    first = min(max(len(term) for term, _ in rows), 30) + 2
    wrapper = textwrap.TextWrapper(max(WIDTH - first - 2, 10))
    out = []
    for term, text in rows:
        if not text:
            out.append(f"  {term}")
            continue
        head, *tail = wrapper.wrap(text)
        out.append(f"  {term:<{first}}{head}")
        out += [" " * (first + 2) + line for line in tail]
    return out


def _option_row(opt: Option) -> tuple[str, str]:
    if isinstance(opt.kind, tuple):
        metavar = f" [{'|'.join(opt.kind)}]"
    else:
        metavar = METAVARS[opt.kind]
    text = "  ".join(filter(None, (opt.help, "[required]" if opt.required else "")))
    return opt.flag + metavar, text


def _doc(path: tuple[str, ...]) -> str | None:
    return GROUPS[path] if path in GROUPS else COMMANDS[path][0].__doc__


def _help(path: tuple[str, ...]) -> str:
    import textwrap

    group = path in GROUPS
    options = (HELP,) if group else (*COMMANDS[path][1], HELP)
    usage = " ".join((PROG, *path, "[OPTIONS]", *(("COMMAND", "[ARGS]...") if group else ())))
    lines = [f"Usage: {usage}", ""]
    for paragraph in _paragraphs(_doc(path)):
        lines += [textwrap.fill(paragraph, WIDTH, initial_indent="  ", subsequent_indent="  "), ""]
    lines += ["Options:", *_definition_list([_option_row(opt) for opt in options])]
    if group:
        children = sorted(
            p for p in (*COMMANDS, *GROUPS) if len(p) == len(path) + 1 and p[:-1] == path
        )
        limit = WIDTH - 6 - max(len(p[-1]) for p in children)
        rows = [(p[-1], _short_help(_doc(p), limit)) for p in children]
        lines += ["", "Commands:", *_definition_list(rows)]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Input helpers
# ----------------------------------------------------------------------

# The longest field file read.  A field is a few numbers, and a file is
# read up to one byte past the cap, so `--field-file /dev/zero` ends at
# once instead of filling memory.
MAX_FIELD_FILE_BYTES = 1 << 20


def _resolve_field(q, genus, l_poly, deg_inf, field_file) -> FunctionFieldData:
    base: dict = {}
    if field_file is not None:
        try:
            with open(field_file, "rb") as fh:
                raw = fh.read(MAX_FIELD_FILE_BYTES + 1)
        except OSError as exc:
            raise UsageError(f"cannot read field file: {exc}")
        if len(raw) > MAX_FIELD_FILE_BYTES:
            raise UsageError(f"field file is longer than {MAX_FIELD_FILE_BYTES} bytes")
        try:
            base = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise UsageError(f"field file is not valid JSON: {exc}")
        except ValueError:
            # the one other error of json.loads: an integer past
            # MAX_PRINTED_DIGITS, which run() would take for an answer
            raise InvalidFieldError(f"field file {field_file} holds an integer too long to read")
        if not isinstance(base, dict):
            raise InvalidFieldError(f"field file holds {base!r}, not a JSON object")
    inline: dict = {}
    if q is not None:
        inline["q"] = q
    if genus is not None:
        inline["genus"] = genus
    if l_poly is not None:
        inline["l_poly"] = _parse_int_list(l_poly, "--l-poly")
    if deg_inf is not None:
        inline["deg_inf"] = deg_inf
    for key, value in inline.items():
        if key in base and base[key] != value:
            flag = "--" + key.replace("_", "-")
            print(
                f"warning: inline {flag}={value} overrides field file "
                f"value {base[key]}",
                file=sys.stderr,
            )
    merged = {**base, **inline}
    if "q" not in merged:
        raise UsageError("a field needs --q or --field-file")
    merged.setdefault("genus", 0)
    merged.setdefault("deg_inf", 1)
    if merged["genus"] == 0:
        merged.setdefault("l_poly", [1])
    if "l_poly" not in merged:
        raise UsageError("positive genus needs --l-poly")
    from .funcfield import field_from_json_dict

    return field_from_json_dict(merged)


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value, ensure_ascii=True)
    return str(value)


def _emit(obj: dict | tuple[list[str], list[dict]], fmt: str) -> str:
    """A dict, or the rows of (header, rows), as JSON or CSV text."""
    table = isinstance(obj, tuple)
    if fmt == "json":
        return json.dumps(obj[1] if table else obj, ensure_ascii=True) + "\n"
    import csv
    import io

    header, rows = obj if table else (list(obj), [obj])
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(row[k]) for k in header] for row in rows)
    return text.getvalue()


def _ratfun_json(f: RationalFunctionQ) -> dict:
    """num/den printed with den monic: every coefficient over den's
    leading coefficient."""
    from fractions import Fraction

    lead = f.den.leading()
    return {
        "num": [rational_to_str(Fraction(c, lead)) for c in f.num.coeffs],
        "den": [rational_to_str(Fraction(c, lead)) for c in f.den.coeffs],
    }


# ----------------------------------------------------------------------
# Commands: each calls its engine and returns the object that run prints;
# a command that lists FIELD_OPTIONS takes the resolved field instead
# ----------------------------------------------------------------------

@command("mass", *FIELD_OPTIONS, RANK, Option("--ram", "text", "", help='e.g. "inf:1/2,1:1/2"'))
def cmd_mass(field, rank, ram):
    """Mass of the maximal orders for one ramification datum."""
    from .csa import parse_shorthand, shorthand
    from .massengine import mass, mass_report_to_json_dict

    data = parse_shorthand(ram, field, rank)
    return {"rank": rank, "ramification": shorthand(data), **mass_report_to_json_dict(mass(data))}


@command("drinfeld-mass", *FIELD_OPTIONS, RANK, Option("--p-degree", required=True))
def cmd_drinfeld_mass(field, rank, p_degree):
    """Mass in the Drinfeld shape: one finite ramified place plus infinity."""
    from .massengine import drinfeld_mass

    return {
        "rank": rank,
        "p_degree": p_degree,
        "mass": rational_to_str(drinfeld_mass(field, rank, p_degree)),
    }


@command("class-number", *FIELD_OPTIONS)
def cmd_class_number(field):
    """Class number of the ring of functions regular away from infinity."""
    from .funcfield import class_number_A

    return {"h_A": rational_to_str(class_number_A(field))}


# The most special values `zeta --values` prints, checked before any is
# computed: the output grows with the square of the count and with the
# genus.  The largest output found at the cap is 1.2 MB, at q = 4000037
# and genus 1, in about 0.15 s as a whole process (2-CPU machine).  At
# q = 4294967291 a value passes MAX_PRINTED_DIGITS at every genus up to
# MAX_GENUS, and the command exits 2 in about 0.1 s.
MAX_SPECIAL_VALUES = 300


@command(
    "zeta", *FIELD_OPTIONS,
    Option("--values", default=3, help=f"how many special values, 1 to {MAX_SPECIAL_VALUES}"),
)
def cmd_zeta(field, values):
    """Field zeta function, with and without the infinity factor."""
    from .funcfield import zeta_A, zeta_K, zeta_special_value

    if values < 1:
        raise EmptySelectionError(f"values {values} must be >= 1")
    if values > MAX_SPECIAL_VALUES:
        raise SelectionTooLargeError(f"values {values} is above the cap {MAX_SPECIAL_VALUES}")
    return {
        "l_poly": [str(c) for c in field.l_poly.coeffs],
        "zeta_K": _ratfun_json(zeta_K(field)),
        "zeta_A": _ratfun_json(zeta_A(field)),
        "special_values": {
            str(-i): rational_to_str(zeta_special_value(field, i))
            for i in range(1, values + 1)
        },
    }


@command(
    "order-zeta", *FIELD_OPTIONS, RANK, Option("--ram", "text", ""),
    Option("--series-order", default=10, help=f"0 to {MAX_SERIES_ORDER}; default 10"),
)
def cmd_order_zeta(field, rank, ram, series_order):
    """Zeta function of a maximal order: closed form, value at zero, series."""
    check_series_order(series_order)
    from .csa import parse_shorthand, shorthand
    from .orderzeta import order_zeta_at_zero, order_zeta_closed_form, order_zeta_series

    data = parse_shorthand(ram, field, rank)
    value = order_zeta_at_zero(data)
    # the closed form's refusal sums over its exponent map, far cheaper
    # than the series' bound, so a datum both refuse is refused here
    closed_form = _ratfun_json(order_zeta_closed_form(data))
    series = order_zeta_series(data, series_order)
    return {
        "rank": rank,
        "ramification": shorthand(data),
        "closed_form": closed_form,
        "value_at_zero": rational_to_str(value),
        "series_order": series_order,
        "series": [str(c) for c in series.coeffs],
    }


@command("local volumes", *VOLUME_OPTIONS)
def cmd_local_volumes(q_v, r, d):
    """Volumes of GL_r and its index-d inner form, and their ratio."""
    from .localvolumes import local_volumes

    vol_g, vol_gprime = local_volumes(q_v, r, d)
    return {
        "q_v": q_v,
        "r": r,
        "d": d,
        "vol_G": rational_to_str(vol_g),
        "vol_Gprime": rational_to_str(vol_gprime),
        "ratio": rational_to_str(vol_g / vol_gprime),
    }


@command("local lambda", *VOLUME_OPTIONS)
def cmd_local_lambda(q_v, r, d):
    """Local mass factor lambda_v, the ratio of the two volumes."""
    from .localvolumes import lambda_from_volumes

    return {"q_v": q_v, "r": r, "d": d, "lambda": rational_to_str(lambda_from_volumes(q_v, r, d))}


@command("local iw-index", QV, Option("--d", required=True, help="local index d"))
def cmd_local_iw_index(q_v, d):
    """Index of the hereditary order in the full matrix order."""
    from .localvolumes import iwahori_index

    return {"q_v": q_v, "d": d, "index": iwahori_index(q_v, d)}


@command(
    "local model-check",
    QV,
    Option("--d", required=True, help="local index d"),
    Option("--b", default=1, help="invariant numerator, coprime to d; default 1"),
    Option("--prec", default=6, dest="precision", help="pi-adic precision; default 6"),
    Option("--pairs", default=100, help="random element pairs; default 100"),
    Option("--seed", default=0, help="seed of the random pairs; default 0"),
)
def cmd_local_model_check(q_v, d, b, precision, pairs, seed):
    """Check the matrix model of one local division algebra."""
    from .localmodels import run_model_checks

    report = run_model_checks(q_v, d, b, precision=precision, pairs=pairs, seed=seed)
    return {**vars(report), "ok": report.ok}


@command(
    "table",
    Option("--qs", "text", "2", help="comma-separated list"),
    Option("--ranks", "text", "2", help="comma-separated list"),
    Option("--p-degrees", "text", "1,2,3", help="comma-separated list"),
)
def cmd_table(qs, ranks, p_degrees):
    """Mass table over a parameter grid of Drinfeld-shape data."""
    from .csa import RamificationData, drinfeld_datum, shorthand
    from .funcfield import FunctionFieldData
    from .massengine import mass

    qs = _parse_int_list(qs, "--qs")
    ranks = _parse_int_list(ranks, "--ranks")
    p_degrees = _parse_int_list(p_degrees, "--p-degrees")
    # (q, r, p-degree, datum): rows sort on the integers, so degree 10
    # comes after degree 9, not after degree 1
    rows = []
    for q in qs:
        field = FunctionFieldData.rational(q)
        for r in ranks:
            if r == 1:
                data = RamificationData(field=field, rank=1, places=())
                rows.append((q, r, 0, data))
            else:
                for p_degree in p_degrees:
                    rows.append((q, r, p_degree, drinfeld_datum(field, r, p_degree)))
    rows.sort(key=lambda item: item[:3])
    out_rows = []
    for q, r, _, data in rows:
        value = mass(data).mass
        out_rows.append(
            {
                "q": q,
                "genus": data.field.genus,
                "deg_inf": data.field.deg_inf,
                "r": r,
                "ramification": shorthand(data),
                "mass_num": value.numerator,
                "mass_den": value.denominator,
            }
        )
    return ["q", "genus", "deg_inf", "r", "ramification", "mass_num", "mass_den"], out_rows


def _parameter_names(fn) -> tuple[str, ...]:
    """The names of fn's parameters, read off its code object, so that
    `verify` does not import `inspect`."""
    code = fn.__code__
    return code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]


@command(
    "verify",
    Option("--suite", ("all", *SUITE_NAMES), "all"),
    Option("--max-rank"),
    Option("--series-order"),
    Option("--seed"),
    Option("--pairs"),
)
def cmd_verify(suite, **options):
    """Run the cross-check suites and report exact agreement.

    Each option given goes to the selected suites that take it; one that
    no selected suite takes is a usage error.
    """
    from . import verify as verify_mod

    names = list(verify_mod.SUITES) if suite == "all" else [suite]
    takes = {name: _parameter_names(verify_mod.SUITES[name]) for name in names}
    given = {key: value for key, value in options.items() if value is not None}
    for key in given:
        if not any(key in params for params in takes.values()):
            flag = "--" + key.replace("_", "-")
            raise UsageError(f"{flag} is not an option of suite {suite}")
    reports = [
        verify_mod.run_suite(
            name, **{key: value for key, value in given.items() if key in takes[name]}
        )
        for name in names
    ]
    return {"reports": reports, "ok": all(r["ok"] for r in reports)}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _outcome(argv: list[str]) -> tuple[int, str]:
    """The exit code and the whole stdout text of one invocation: its
    help, its result, or the typed error of an invalid input."""
    try:
        path, kwargs = _parse(argv)
        if kwargs is None:
            return 0, _help(path)
        fn, options = COMMANDS[path]
        fmt = kwargs.pop(FORMAT.dest)
        if FIELD_OPTIONS[0] in options:
            field = _resolve_field(*(kwargs.pop(opt.dest) for opt in FIELD_OPTIONS))
            header = {"q": field.q, "genus": field.genus, "deg_inf": field.deg_inf}
            result = {**header, **fn(field=field, **kwargs)}
        else:
            result = fn(**kwargs)
        failed = isinstance(result, dict) and result.get("ok") is False
        return 70 if failed else 0, _emit(result, fmt)
    except InputDataError as exc:
        error = exc
    except ValueError as exc:
        # an integer past the int-to-string limit run() sets is the one
        # untyped error that reports an input: an answer too long to print
        if "integer string conversion" not in str(exc):
            raise
        error = OutputTooLargeError(
            f"an integer has more than {MAX_PRINTED_DIGITS} digits, the most massform prints"
        )
    return 2, _emit({"error": {"type": type(error).__name__, "message": str(error)}}, "json")


def run(argv: list[str]) -> int:
    """Execute one invocation; returns the exit code instead of exiting.
    Its stdout is written once, after the answer or the error is whole.
    The caller's int-to-string limit is put back on the way out."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_PRINTED_DIGITS)
    try:
        code, text = _outcome(argv)
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed by its reader, as by `| head`
        return 74
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except KeyboardInterrupt:  # Ctrl-C: the usage code, and no traceback
        print(file=sys.stderr)
        return 64
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70
    finally:
        sys.set_int_max_str_digits(limit)
    return code


def main() -> None:
    code = run(sys.argv[1:])
    if code == 74:
        # what stdout still buffers goes nowhere, so that the
        # interpreter's last flush prints no "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
