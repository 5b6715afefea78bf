"""Exact mass formulas, class numbers, and maximal-order zeta functions
for central division algebras over global function fields.

Importing the package loads no submodule.  Each public name is imported
from its module on first access (a module ``__getattr__``, PEP 562) and
then stored in this module's globals, so every later access is a plain
attribute lookup.  The CLI imports per command in the same spirit:
``massform mass`` never loads the finite-field models or the verify
suites.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "FunctionFieldData": "funcfield",
    "RamificationData": "csa",
    "RamifiedPlace": "csa",
    "class_number_A": "funcfield",
    "drinfeld_mass": "massengine",
    "mass": "massengine",
    "order_zeta_at_zero": "orderzeta",
    "order_zeta_closed_form": "orderzeta",
    "order_zeta_series": "orderzeta",
    "parse_shorthand": "csa",
    "zeta_K": "funcfield",
    "zeta_special_value": "funcfield",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value
