"""Exact mass formulas, class numbers, and maximal-order zeta functions
for central division algebras over global function fields."""

from .csa import RamificationData, RamifiedPlace, parse_shorthand, validate
from .funcfield import FunctionFieldData, class_number_A, zeta_K, zeta_special_value
from .massengine import drinfeld_mass, mass
from .orderzeta import order_zeta_at_zero, order_zeta_closed_form, order_zeta_series

__version__ = "0.1.0"

__all__ = [
    "FunctionFieldData",
    "RamificationData",
    "RamifiedPlace",
    "class_number_A",
    "drinfeld_mass",
    "mass",
    "order_zeta_at_zero",
    "order_zeta_closed_form",
    "order_zeta_series",
    "parse_shorthand",
    "validate",
    "zeta_K",
    "zeta_special_value",
    "__version__",
]
