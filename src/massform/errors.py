"""Exception hierarchy shared by all massform modules.

``InputDataError`` subclasses signal problems with user-supplied data
(bad field spec, inconsistent ramification, out-of-range brute force);
the CLI maps them to exit code 2.  ``InternalConsistencyError`` marks
identities that are theorems for valid input and must never fail; the
CLI maps it (and failed verification suites) to exit code 70.

The series-order cap lives here, beside its error, because the CLI's
help text shows it and the CLI loads no engine to print help.  The
place-degree cap lives here because both funcfield and csa, which
imports funcfield, enforce it.
"""

# The largest series order accepted.  Cost and output grow faster than
# the square of the order: for q = 5, r = 6 a `massform order-zeta` run
# takes about 0.3 s at this cap (2-CPU machine) and prints 190 KB.
MAX_SERIES_ORDER = 300

# The largest degree of a place: a ramified place, or the place at
# infinity.  Place counts up to a degree cost time quadratic in it:
# about 1 ms at this cap, 0.5 s at degree 4000.  The closed form grows
# with the degree too.  At q = 5, rank 6 and series order 300, `massform
# order-zeta` with one ramified place of this degree takes about 0.4 s
# (2-CPU machine).  At q = 2 and the largest rank the mass prints up to
# degree 952.
MAX_PLACE_DEGREE = 128


class MassformError(Exception):
    """Base class for all massform errors."""


class InputDataError(MassformError):
    """Invalid or inconsistent user-supplied data (CLI exit code 2)."""


class InvalidFieldError(InputDataError):
    """Function-field data fails validation (bad L-polynomial etc.)."""


class InvalidRamificationError(InputDataError):
    """Ramification data fails validation; message lists the failures."""


class NotDefiniteError(InputDataError):
    """Operation requires definite ramification data."""


class NotDivisibleError(InputDataError):
    """Local index does not divide the rank."""


class BruteForceTooLargeError(InputDataError):
    """Requested exhaustive enumeration exceeds the configured bound."""


class InvalidSeriesOrderError(InputDataError):
    """Series order is negative or above the cap MAX_SERIES_ORDER."""


class EmptySelectionError(InputDataError):
    """A filter or count selects nothing to check."""


class SelectionTooLargeError(InputDataError):
    """A count asks for more checks than its cap allows."""


class PoleError(MassformError):
    """Rational function evaluated at a pole."""


class NotExpandableError(MassformError):
    """Series expansion at u = 0 of a function with a pole there."""


class OrderMismatchError(MassformError):
    """Binary operation on truncated series of different order/precision."""


class PrecisionExhaustedError(MassformError):
    """Operation needs more pi-adic digits than the carrier holds."""


class PrecisionTooLowError(InputDataError, PrecisionExhaustedError):
    """Requested pi-adic precision cannot hold the model at all."""


class PrecisionTooHighError(InputDataError):
    """Requested pi-adic precision is above its cap."""


class InternalConsistencyError(MassformError):
    """A theorem-level identity failed; indicates a bug (CLI exit 70)."""
