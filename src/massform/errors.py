"""Exception hierarchy, caps and integer helpers shared by all massform
modules.

``InputDataError`` subclasses signal problems with user-supplied data
(bad field spec, inconsistent ramification, out-of-range brute force);
the CLI maps them to exit code 2.  ``InternalConsistencyError`` marks
identities that are theorems for valid input and must never fail; the
CLI maps it, any other untyped error and failed verification suites to
exit code 70.  ``OutputTooLargeError`` reports an answer with an
integer of more than MAX_PRINTED_DIGITS digits, the one size rule of
what massform prints.

The series-order cap and its check live here, beside its error, because
the CLI's help text shows the cap and `massform order-zeta` checks an
order before it loads any engine; `order_zeta_series` checks again.  The
printed-digit cap lives here because the CLI sets it as the
interpreter's int-to-string limit and orderzeta refuses by it.  The
place-degree cap lives here because both funcfield and csa, which
imports funcfield, enforce it, and the cap on q because funcfield and
the residue-size check both do.  The integer grammar lives here because
the CLI reads its options with it and csa its ramification shorthand.

The integer helpers live here because every command loads this module
anyway: `prime_factors`, the package's one trial division (the
prime-power test, the Mobius function of the place counts and the
generator search of the finite fields read it), the residue-size check
of `localvolumes` and `localmodels`, and `rational_to_str`, which reads
`.numerator` and `.denominator` and so needs no `fractions`.  In
`algebra` they would make `local volumes` and `local model-check`
compile the whole polynomial module for a few lines.
"""

from math import isqrt

# The largest series order accepted.  Cost and output grow faster than
# the square of the order: for q = 5, r = 6 a `massform order-zeta` run
# takes about 0.3 s at this cap (2-CPU machine) and prints 190 KB.
MAX_SERIES_ORDER = 300

# The largest degree of a place: a ramified place, or the place at
# infinity.  Place counts up to a degree cost time quadratic in it:
# about 1 ms at this cap, 0.5 s at degree 4000.  The closed form grows
# with the degree too.  At q = 5, rank 6 and series order 300, `massform
# order-zeta` with one ramified place of this degree takes about 0.17 s
# (2-CPU machine).  At q = 2 and the largest rank the mass prints up to
# degree 952.
MAX_PLACE_DEGREE = 128

# The largest constant field size q and local residue size q_v.  Both
# are checked before the prime-power test, which trial-divides up to the
# square root of what is left: about 2.5 ms for the largest prime below
# this cap, 1.7 ms for 2 * (2^31 - 1), 40 ms for a prime near 10^12,
# and a prime near 10^18 ran on past 15 s.  Below the cap the other
# costs grow only with log q: at this cap and rank 6, `massform
# order-zeta` refuses an order-300 series as too long to print in 0.22 s,
# and a closed form with a degree-128 place in 0.07 s, as whole
# processes (2-CPU machine).
MAX_Q = 2 ** 32

# The most digits of one integer massform reads or prints.  cli.run sets
# it as the interpreter's int-to-string limit for the length of a call,
# so every command refuses at the same size whatever the interpreter's
# own limit is, and orderzeta's refusals read it before any work.
MAX_PRINTED_DIGITS = 4300


def excerpt(text: str, width: int = 32) -> str:
    """repr(text), or of its first `width` characters and '...' if longer."""
    return repr(text) if len(text) <= width else f"{text[:width]!r}..."


def int_excerpt(n: int, width: int = 32) -> str:
    """str(n), or its sign and first `width` digits and '...' if longer.
    A longer n, which may be past the int-to-string limit, is cut before
    it is converted: b bits hold more than 0.30102 b - 1 digits."""
    if -10 ** width < n < 10 ** width:
        return str(n)
    sign, n = "-" * (n < 0), abs(n)
    head = n // 10 ** (n.bit_length() * 30102 // 100000 - width)
    return f"{sign}{str(head)[:width]}..."


class TooManyDigitsError(ValueError):
    """parse_int's refusal of more than MAX_PRINTED_DIGITS digits."""


def parse_int(text: str) -> int:
    """An optional sign and at most MAX_PRINTED_DIGITS ASCII digits,
    surrounding whitespace stripped; int() alone also takes `1_1` and
    non-ASCII digits.  Raises ValueError otherwise, TooManyDigitsError if
    too long, checked before int() whatever the interpreter's limit."""
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{excerpt(text)} is not an integer")
    if len(digits) > MAX_PRINTED_DIGITS:
        raise TooManyDigitsError(
            f"the integer has {len(digits)} digits, more than {MAX_PRINTED_DIGITS}, "
            "the most massform reads"
        )
    return int(text)


def rational_to_str(x) -> str:
    """Render an exact rational, a Fraction or an int, as "num/den", or
    "num" when den = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def prime_factors(n: int) -> dict[int, int]:
    """The factorization of n as {prime: exponent}, primes ascending;
    empty for n < 2.  The package's one trial division.

    The least divisor above 1 of what is left is prime, so each search
    stops at the square root of what is left."""
    factors: dict[int, int] = {}
    p = 2
    while n > 1:
        p = next((d for d in range(p, isqrt(n) + 1) if n % d == 0), n)
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    return factors


def factor_prime_power(q: int) -> tuple[int, int]:
    """q = p**e with p prime, or ValueError."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return next(iter(factors.items()))


def _check_residue_size(q_v: int) -> None:
    if q_v > MAX_Q:
        # checked before factoring, which trial-divides up to sqrt(q_v)
        raise InvalidFieldError(f"residue size q_v = {int_excerpt(q_v)} is above the cap {MAX_Q}")
    try:
        factor_prime_power(q_v)
    except ValueError as exc:
        raise InvalidFieldError(f"residue size q_v: {exc}") from None


def check_series_order(order: int) -> None:
    """Refuse a series order outside 0..MAX_SERIES_ORDER."""
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise InvalidSeriesOrderError(
            f"series order {int_excerpt(order)} is outside 0..{MAX_SERIES_ORDER}"
        )


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


class InvalidArgumentError(InputDataError):
    """An argument lies outside the domain of the function called: a
    special value zeta_K(-i) at i < 1, a place degree below 1, a negative
    denominator exponent."""


class OutputTooLargeError(InputDataError):
    """An answer has an integer of more than MAX_PRINTED_DIGITS digits."""


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
