"""Exception hierarchy shared by all massform modules.

``InputDataError`` subclasses signal problems with user-supplied data
(bad field spec, inconsistent ramification, out-of-range brute force);
the CLI maps them to exit code 2.  ``InternalConsistencyError`` marks
identities that are theorems for valid input and must never fail; the
CLI maps it (and failed verification suites) to exit code 70.
"""


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


class DefiniteError(InputDataError):
    """Operation requires indefinite ramification data."""


class NoSuchPlaceError(InputDataError):
    """The field has no place of the requested degree."""


class NegativeMultiplicityError(InputDataError):
    """More ramified places of some degree than the field possesses."""


class InvalidPartialDataError(InputDataError):
    """Partial zeta head data violates its defining constraints."""


class NotDivisibleError(InputDataError):
    """Local index does not divide the rank."""


class BruteForceTooLargeError(InputDataError):
    """Requested exhaustive enumeration exceeds the configured bound."""


class EmptySelectionError(InputDataError):
    """A filter or count selects nothing to check."""


class PoleError(MassformError):
    """Rational function evaluated at a pole."""


class NotExpandableError(MassformError):
    """Series expansion at u = 0 of a function with a pole there."""


class OrderMismatchError(MassformError):
    """Binary operation on truncated series of different order/precision."""


class NotAUnitError(MassformError):
    """Inversion of a non-unit truncated series."""


class PrecisionExhaustedError(MassformError):
    """Operation needs more pi-adic digits than the carrier holds."""


class PrecisionTooLowError(InputDataError, PrecisionExhaustedError):
    """Requested pi-adic precision cannot hold the model at all."""


class InternalConsistencyError(MassformError):
    """A theorem-level identity failed; indicates a bug (CLI exit 70)."""
