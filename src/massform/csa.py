"""Ramification data of a central simple algebra B over the base field.

A place in the ramification set carries its degree, its invariant b/d
(stored exactly as given; reduced mod d only where an equality test
needs it), and an infinity flag.  validate() is report-style: it lists
every broken constraint instead of stopping at the first, so the CLI
can show users the whole story at once.  Mass and zeta engines call
ensure_valid() and refuse broken data outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidRamificationError
from .funcfield import FunctionFieldData, places_of_degree


@dataclass(frozen=True)
class RamifiedPlace:
    degree: int
    inv_num: int
    inv_den: int
    is_infinity: bool = False

    def norm(self, q: int) -> int:
        """Size of the residue field at this place."""
        return q ** self.degree

    def reduced_num(self) -> int:
        """Invariant numerator reduced to {0, ..., d-1}."""
        return self.inv_num % self.inv_den

    def shorthand_token(self) -> str:
        head = "inf" if self.is_infinity else str(self.degree)
        return f"{head}:{self.inv_num}/{self.inv_den}"


@dataclass(frozen=True)
class RamificationData:
    field: FunctionFieldData
    rank: int
    places: tuple[RamifiedPlace, ...]

    def infinite_place(self) -> RamifiedPlace | None:
        for p in self.places:
            if p.is_infinity:
                return p
        return None

    def finite_places(self) -> tuple[RamifiedPlace, ...]:
        return tuple(p for p in self.places if not p.is_infinity)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]
    degenerate: bool     # rank 1, B = K: allowed but trivial


def validate(data: RamificationData, *, check_availability: bool = True) -> ValidationReport:
    """Check every structural constraint and report all failures.

    With check_availability (the default, used by the CLI) this also
    checks that the field actually possesses as many distinct places of
    each degree as the data uses; entries name places only by degree,
    and the infinity place occupies one slot of degree deg_inf.  The
    computation engines skip that part: the series builder detects the
    same mismatch itself and reports it as NegativeMultiplicityError.
    """
    failures: list[str] = []
    r = data.rank
    if r < 1:
        failures.append(f"rank {r} must be >= 1")

    for idx, p in enumerate(data.places):
        tag = f"place[{idx}] {p.shorthand_token()}"
        if p.degree < 1:
            failures.append(f"{tag}: degree must be >= 1")
        if p.inv_den < 2:
            failures.append(f"{tag}: invariant denominator must be >= 2")
        elif not 0 < abs(p.inv_num) < p.inv_den:
            failures.append(
                f"{tag}: invariant numerator must lie in (-d, d) and be nonzero"
            )
        elif gcd(p.inv_num, p.inv_den) != 1:
            failures.append(f"{tag}: invariant must be in lowest terms")
        if r >= 1 and p.inv_den >= 2 and r % p.inv_den != 0:
            failures.append(f"{tag}: denominator {p.inv_den} does not divide rank {r}")

    infinity_entries = [p for p in data.places if p.is_infinity]
    if len(infinity_entries) > 1:
        failures.append("more than one infinity entry")
    for p in infinity_entries:
        if p.degree != data.field.deg_inf:
            failures.append(
                f"infinity entry has degree {p.degree}, field says {data.field.deg_inf}"
            )

    total = sum(Fraction(p.inv_num, p.inv_den) for p in data.places if p.inv_den)
    if total.denominator != 1:
        failures.append(f"invariants sum to {total}, not an integer")

    dens = [p.inv_den for p in data.places]
    combined = lcm(*dens) if dens else 1
    if r >= 1 and combined != r:
        failures.append(
            f"lcm of invariant denominators is {combined}, must equal rank {r}"
        )

    if check_availability:
        by_degree: dict[int, int] = {}
        for p in data.places:
            if not p.is_infinity and p.degree >= 1:
                by_degree[p.degree] = by_degree.get(p.degree, 0) + 1
        for degree, used in sorted(by_degree.items()):
            try:
                available = places_of_degree(data.field, degree)
            except Exception:
                continue    # field-level problems already surfaced elsewhere
            if degree == data.field.deg_inf:
                available -= 1
            if used > available:
                failures.append(
                    f"{used} finite ramified places of degree {degree} requested "
                    f"but only {available} exist"
                )

    return ValidationReport(
        ok=not failures, failures=tuple(failures), degenerate=(r == 1)
    )


def ensure_valid(data: RamificationData, *, check_availability: bool = False) -> None:
    """Raise on broken data; engines use the structural-only default."""
    report = validate(data, check_availability=check_availability)
    if not report.ok:
        raise InvalidRamificationError("; ".join(report.failures))


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


def lambda_value(norm: int, r: int, d: int) -> int:
    """Product of (norm**i - 1) over 1 <= i <= r-1 with d not dividing i.

    d = 1 gives the empty product 1 (an unramified place contributes no
    correction)."""
    if r < 1 or d < 1 or r % d != 0:
        raise ValueError(f"need d | r, got d={d}, r={r}")
    out = 1
    for i in range(1, r):
        if i % d != 0:
            out *= norm ** i - 1
    return out


def lambda_v(place: RamifiedPlace, r: int, q: int) -> int:
    """The local mass correction factor at a ramified place."""
    return lambda_value(place.norm(q), r, place.inv_den)


def parity_check(data: RamificationData) -> bool:
    """Sum of (r - m_v) over the ramification set is even; a theorem for
    valid data, so False signals inconsistency upstream."""
    total = sum(data.rank - data.rank // p.inv_den for p in data.places)
    return total % 2 == 0


# -- parsing / serialization ---------------------------------------------------

def parse_invariant(text: str) -> tuple[int, int]:
    frac = text.strip().split("/")
    if len(frac) != 2:
        raise InvalidRamificationError(f"invariant {text!r} is not of the form b/d")
    try:
        num, den = int(frac[0]), int(frac[1])
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
                    degree = int(head)
                except ValueError:
                    raise InvalidRamificationError(
                        f"place {head!r} is neither 'inf' nor a degree"
                    ) from None
                places.append(RamifiedPlace(degree, num, den))
    return RamificationData(field=field, rank=rank, places=tuple(places))


def shorthand(data: RamificationData) -> str:
    return ",".join(p.shorthand_token() for p in data.places)


def ramification_to_json_dict(data: RamificationData) -> dict:
    return {
        "rank": data.rank,
        "places": [
            {
                "deg": p.degree,
                "inv": f"{p.inv_num}/{p.inv_den}",
                "inf": p.is_infinity,
            }
            for p in data.places
        ],
    }


def ramification_from_json_dict(obj: dict, field: FunctionFieldData) -> RamificationData:
    try:
        rank = int(obj["rank"])
        raw_places = list(obj["places"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRamificationError(f"malformed ramification object: {exc}") from None
    places = []
    for entry in raw_places:
        try:
            num, den = parse_invariant(str(entry["inv"]))
            degree = int(entry["deg"])
            is_inf = bool(entry.get("inf", False))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidRamificationError(f"malformed place entry: {exc}") from None
        places.append(RamifiedPlace(degree, num, den, is_infinity=is_inf))
    return RamificationData(field=field, rank=rank, places=tuple(places))
