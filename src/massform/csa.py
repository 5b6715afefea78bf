"""Ramification data of a central simple algebra B over the base field.

A place in the ramification set carries its degree, its invariant b/d
(stored exactly as given; reduced mod d only where an equality test
needs it), and an infinity flag.  validate() is the one full validation
of a datum, place availability included, and is report-style: it lists
every broken constraint instead of stopping at the first.  The engines,
the CLI and the verify batteries call ensure_valid(), which raises on
broken data and records a success on the datum, so validate() runs once
per RamificationData however many engines read it: a battery datum
reaches the engines already validated.  A failure is never recorded and
raises on every call.

lambda_value, the local mass correction, is memoised on its integer
arguments.  It belongs to the mass side only; the order-zeta closed form
never reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .errors import (
    MAX_PLACE_DEGREE,
    InvalidRamificationError,
    NotDivisibleError,
    parse_int,
)
from .funcfield import FunctionFieldData, places_of_degree
from .record import Record

# The largest global rank accepted.  The order-zeta series costs most,
# and grows with the rank: at q = 5 and series order 300, `massform
# order-zeta` spends about 0.17 s in the engines at this rank, 0.27 s at
# rank 8 and 0.58 s at rank 12 (2-CPU machine, Python 3.11).
MAX_RANK = 6

# The largest summed degree of the ramified places, infinity included.
# Each place of degree n adds correction factors of degree n and
# coefficients up to q^(n r^2/2), so the closed form and the mass grow
# with the sum.  At q = 5, rank 6 and series order 300, `massform
# order-zeta` at this cap takes 0.5-0.8 s and prints up to 1.6 MB (2-CPU
# machine); a sum of 256 takes 1.5-1.8 s, and at 501 both it and
# `massform mass` overflow the 4300-digit limit.
MAX_RAMIFIED_DEGREE = 200


class RamifiedPlace(Record):
    __slots__ = _fields = ("degree", "inv_num", "inv_den", "is_infinity")

    def __init__(self, degree: int, inv_num: int, inv_den: int, is_infinity: bool = False):
        self.degree = degree
        self.inv_num = inv_num
        self.inv_den = inv_den
        self.is_infinity = is_infinity

    def norm(self, q: int) -> int:
        """Size of the residue field at this place."""
        return q ** self.degree

    def reduced_num(self) -> int:
        """Invariant numerator reduced to {0, ..., d-1}."""
        return self.inv_num % self.inv_den

    def shorthand_token(self) -> str:
        head = "inf" if self.is_infinity else str(self.degree)
        return f"{head}:{self.inv_num}/{self.inv_den}"


class RamificationData(Record):
    _fields = ("field", "rank", "places")
    __slots__ = (*_fields, "_valid")

    def __init__(self, field: FunctionFieldData, rank: int, places: tuple[RamifiedPlace, ...]):
        self.field = field
        self.rank = rank
        self.places = places
        # set by ensure_valid once the structural checks pass; never set on failure
        self._valid = False

    def infinite_place(self) -> RamifiedPlace | None:
        for p in self.places:
            if p.is_infinity:
                return p
        return None

    def finite_places(self) -> tuple[RamifiedPlace, ...]:
        return tuple(p for p in self.places if not p.is_infinity)


class ValidationReport(Record):
    __slots__ = _fields = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[str, ...]):
        self.ok = ok
        self.failures = failures


def validate(data: RamificationData) -> ValidationReport:
    """Check every constraint on the datum and report all failures.

    Besides the structural checks, this checks that the field possesses
    as many distinct places of each degree as the data uses; entries
    name places only by degree, and the infinity place occupies one slot
    of degree deg_inf.  A place of degree above MAX_PLACE_DEGREE is
    rejected and takes no part in that check, so no place count above
    the cap is computed.  A datum whose ramified degrees sum above
    MAX_RAMIFIED_DEGREE is rejected too.  This is the one full
    validation of a datum; ensure_valid runs it once per datum.
    """
    failures: list[str] = []
    r = data.rank
    if r < 1:
        failures.append(f"rank {r} must be >= 1")
    elif r > MAX_RANK:
        failures.append(f"rank {r} is above the cap {MAX_RANK}")

    total_degree = sum(p.degree for p in data.places)
    if total_degree > MAX_RAMIFIED_DEGREE:
        failures.append(
            f"ramified places have total degree {total_degree}, "
            f"above the cap {MAX_RAMIFIED_DEGREE}"
        )

    for idx, p in enumerate(data.places):
        problems = []
        if p.degree < 1:
            problems.append("degree must be >= 1")
        elif p.degree > MAX_PLACE_DEGREE:
            problems.append(f"degree {p.degree} is above the cap {MAX_PLACE_DEGREE}")
        if p.inv_den < 2:
            problems.append("invariant denominator must be >= 2")
        elif not 0 < abs(p.inv_num) < p.inv_den:
            problems.append("invariant numerator must lie in (-d, d) and be nonzero")
        elif gcd(p.inv_num, p.inv_den) != 1:
            problems.append("invariant must be in lowest terms")
        if r >= 1 and p.inv_den >= 2 and r % p.inv_den != 0:
            problems.append(f"denominator {p.inv_den} does not divide rank {r}")
        if problems:
            tag = f"place[{idx}] {p.shorthand_token()}"
            failures.extend(f"{tag}: {problem}" for problem in problems)

    infinity_entries = [p for p in data.places if p.is_infinity]
    if len(infinity_entries) > 1:
        failures.append("more than one infinity entry")
    for p in infinity_entries:
        if p.degree != data.field.deg_inf:
            failures.append(
                f"infinity entry has degree {p.degree}, field says {data.field.deg_inf}"
            )

    # the sum of the invariants over their common denominator
    common = lcm(*(p.inv_den for p in data.places if p.inv_den))
    numerator = sum(p.inv_num * (common // p.inv_den) for p in data.places if p.inv_den)
    if numerator % common:
        failures.append(
            f"invariants sum to {Fraction(numerator, common)}, not an integer"
        )

    dens = [p.inv_den for p in data.places]
    combined = lcm(*dens) if dens else 1
    if r >= 1 and combined != r:
        failures.append(
            f"lcm of invariant denominators is {combined}, must equal rank {r}"
        )

    by_degree: dict[int, int] = {}
    for p in data.places:
        if not p.is_infinity and 1 <= p.degree <= MAX_PLACE_DEGREE:
            by_degree[p.degree] = by_degree.get(p.degree, 0) + 1
    for degree, used in sorted(by_degree.items()):
        available = places_of_degree(data.field, degree)
        if degree == data.field.deg_inf:
            available -= 1
        if used > available:
            failures.append(
                f"{used} finite ramified places of degree {degree} requested "
                f"but only {available} exist"
            )

    return ValidationReport(ok=not failures, failures=tuple(failures))


def ensure_valid(data: RamificationData) -> None:
    """Raise InvalidRamificationError unless validate passes the data.

    A success is recorded on the data, so the engines that each call
    this pay for validate once per datum; a failure is not recorded and
    raises again on every call.  The verify batteries build their data
    through this gate too, so a battery datum is validated once in all.
    """
    if data._valid:
        return
    report = validate(data)
    if not report.ok:
        raise InvalidRamificationError("; ".join(report.failures))
    data._valid = True


def is_definite(data: RamificationData) -> bool:
    """True when the algebra stays a division algebra at infinity.

    Rank 1 is the degenerate case B = K: there is nothing to ramify and
    every completion is K_v itself, so it counts as definite (the mass
    and order-zeta formulas degenerate to plain class-number data).
    """
    if data.rank == 1:
        return True
    inf = data.infinite_place()
    return inf is not None and inf.inv_den == data.rank


def is_drinfeld_type(data: RamificationData) -> bool:
    """Exactly two ramified places: infinity with invariant -1/r (mod 1)
    and one finite place."""
    if len(data.places) != 2:
        return False
    inf = data.infinite_place()
    if inf is None or len(data.finite_places()) != 1:
        return False
    return inf.inv_den == data.rank and inf.reduced_num() == data.rank - 1


@cache
def lambda_value(norm: int, r: int, d: int) -> int:
    """Product of (norm**i - 1) over 1 <= i <= r-1 with d not dividing i.

    d = 1 gives the empty product 1 (an unramified place contributes no
    correction).  Memoised on (norm, r, d): a mass-side memo with one
    entry per residue-field size, rank and local index met."""
    if r < 1 or d < 1:
        raise InvalidRamificationError(f"need r, d >= 1, got d={d}, r={r}")
    if r % d != 0:
        raise NotDivisibleError(f"need d | r, got d={d}, r={r}")
    out = 1
    for i in range(1, r):
        if i % d != 0:
            out *= norm ** i - 1
    return out


def lambda_v(place: RamifiedPlace, r: int, q: int) -> int:
    """The local mass correction factor at a ramified place."""
    return lambda_value(place.norm(q), r, place.inv_den)


# -- parsing -------------------------------------------------------------------

def parse_invariant(text: str) -> tuple[int, int]:
    frac = text.strip().split("/")
    if len(frac) != 2:
        raise InvalidRamificationError(f"invariant {text!r} is not of the form b/d")
    try:
        num, den = parse_int(frac[0]), parse_int(frac[1])
    except ValueError:
        raise InvalidRamificationError(f"invariant {text!r} is not of the form b/d") from None
    return num, den


def parse_shorthand(text: str, field: FunctionFieldData, rank: int) -> RamificationData:
    """Parse "inf:-1/3,1:1/3,2:..." where each token is place:invariant
    and the place is "inf" or a finite-place degree."""
    places: list[RamifiedPlace] = []
    body = text.strip()
    if body:
        for token in body.split(","):
            if ":" not in token:
                raise InvalidRamificationError(f"token {token!r} lacks ':'")
            head, inv = token.split(":", 1)
            head = head.strip()
            num, den = parse_invariant(inv)
            if head == "inf":
                places.append(
                    RamifiedPlace(field.deg_inf, num, den, is_infinity=True)
                )
            else:
                try:
                    degree = parse_int(head)
                except ValueError:
                    raise InvalidRamificationError(
                        f"place {head!r} is neither 'inf' nor a degree"
                    ) from None
                places.append(RamifiedPlace(degree, num, den))
    return RamificationData(field=field, rank=rank, places=tuple(places))


def shorthand(data: RamificationData) -> str:
    return ",".join(p.shorthand_token() for p in data.places)

