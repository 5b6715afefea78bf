"""Local volumes, the local mass factor as their ratio, the Iwahori
index, and brute-force counting oracles: everything the `local volumes`,
`local lambda` and `local iw-index` commands and the lambda-volumes and
brute-force-oracles suites read.

All of it is closed-form integer and Fraction arithmetic on the residue
size q_v, the local rank r and the index d; only the two brute-force
counters build a finite field.  The matrix models of `localmodels` are
not imported, so these commands load neither them nor `dataclasses`.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import factor_prime_power
from .errors import (
    MAX_Q,
    BruteForceTooLargeError,
    InvalidFieldError,
    InvalidRamificationError,
    NotDivisibleError,
)
from .finitefield import FqField
from .record import Record

# Caps on the local index d and the local rank r of the index, volume and
# lambda commands.  A local model needs q_v^d <= FIELD_SIZE_CAP = 2^12, so
# no model has d above 12.  At r = 48 and q_v = FIELD_SIZE_CAP the volumes
# print in about 4250 digits, just under Python's 4300-digit limit on
# int-to-string conversion.
MAX_LOCAL_INDEX = 12
MAX_LOCAL_RANK = 48


def _check_residue_size(q_v: int) -> None:
    if q_v > MAX_Q:
        # checked before factoring, which trial-divides up to sqrt(q_v)
        raise InvalidFieldError(f"residue size q_v = {q_v} is above the cap {MAX_Q}")
    try:
        factor_prime_power(q_v)
    except ValueError as exc:
        raise InvalidFieldError(f"residue size q_v: {exc}") from None


def iwahori_index(q_v: int, d: int) -> int:
    """Index of the hereditary order inside the full matrix order:
    q_v^{d^2 (d-1)/2}."""
    _check_residue_size(q_v)
    if not 1 <= d <= MAX_LOCAL_INDEX:
        raise InvalidRamificationError(f"index d = {d} is outside 1..{MAX_LOCAL_INDEX}")
    return q_v ** (d * d * (d - 1) // 2)


# ----------------------------------------------------------------------
# Volumes
# ----------------------------------------------------------------------

def vol_G(q_v: int, r: int) -> Fraction:
    """Volume of the standard maximal compact of the split group:
    prod_{i=1..r} (q_v^i - 1) / q_v^{r(r+1)/2}."""
    if r < 1:
        raise InvalidRamificationError(f"rank {r} must be >= 1")
    num = 1
    for i in range(1, r + 1):
        num *= q_v ** i - 1
    return Fraction(num, q_v ** (r * (r + 1) // 2))


def vol_Gprime(q_v: int, m: int, d: int) -> Fraction:
    """Volume on the inner form side, assembled from its two factors:
    the index correction q_v^{-m^2 d(d-1)/2} and the GL_m factor over
    the degree-d residue field."""
    if m < 1 or d < 1:
        raise InvalidRamificationError(f"m = {m} and d = {d} must be >= 1")
    index_correction = Fraction(1, q_v ** (m * m * d * (d - 1) // 2))
    gl_num = 1
    for i in range(1, m + 1):
        gl_num *= q_v ** (i * d) - 1
    gl_factor = Fraction(gl_num, q_v ** (d * m * (m + 1) // 2))
    return index_correction * gl_factor


class LocalVolumeReport(Record):
    __slots__ = _fields = ("vol_G", "vol_Gprime", "ratio")

    def __init__(self, vol_G: Fraction, vol_Gprime: Fraction, ratio: Fraction):
        self.vol_G = vol_G
        self.vol_Gprime = vol_Gprime
        self.ratio = ratio


def local_volume_report(q_v: int, r: int, d: int) -> LocalVolumeReport:
    _check_residue_size(q_v)
    if not 1 <= r <= MAX_LOCAL_RANK:
        raise InvalidRamificationError(f"local rank {r} is outside 1..{MAX_LOCAL_RANK}")
    if not 1 <= d <= MAX_LOCAL_INDEX:
        raise InvalidRamificationError(f"index d = {d} is outside 1..{MAX_LOCAL_INDEX}")
    if r % d != 0:
        raise NotDivisibleError(f"index {d} does not divide rank {r}")
    vg = vol_G(q_v, r)
    vgp = vol_Gprime(q_v, r // d, d)
    return LocalVolumeReport(vol_G=vg, vol_Gprime=vgp, ratio=vg / vgp)


def lambda_from_volumes(q_v: int, r: int, d: int) -> Fraction:
    """Local mass factor as a volume ratio; an integer for every d | r."""
    return local_volume_report(q_v, r, d).ratio


# ----------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------

def gl_count_bruteforce(q: int, r: int) -> int:
    """Count invertible r x r matrices over F_q by row-reducing all of
    them."""
    if q ** (r * r) > 2 ** 20:
        raise BruteForceTooLargeError(f"{q}^{r * r} matrices exceed the 2^20 bound")
    field = FqField.of_order(q)
    total_entries = r * r
    count = 0
    for code in range(q ** total_entries):
        entries = []
        x = code
        for _ in range(total_entries):
            entries.append(x % q)
            x //= q
        rows = [entries[i * r:(i + 1) * r] for i in range(r)]
        if _is_invertible(rows, field):
            count += 1
    return count


def _is_invertible(rows: list[list[int]], field: FqField) -> bool:
    r = len(rows)
    rows = [row[:] for row in rows]
    for col in range(r):
        pivot = None
        for i in range(col, r):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = field.inv(rows[col][col])
        rows[col] = [field.mul(inv, v) for v in rows[col]]
        for i in range(r):
            if i != col and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [
                    field.sub(a, field.mul(c, b))
                    for a, b in zip(rows[i], rows[col])
                ]
    return True


def sublattice_count_bruteforce(q_v: int, r: int, ell: int) -> int:
    """Number of full sublattices of O_v^r of index q_v^ell, counted by
    enumerating generator r-tuples over the quotient (O_v/pi^ell)^r and
    deduplicating the modules they span.

    A sublattice of index q_v^ell corresponds to a submodule of the
    quotient of size q_v^{ell(r-1)}."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0 or r == 1:
        return 1
    if q_v ** (r * ell * r) > 2 ** 22:
        raise BruteForceTooLargeError(
            f"{q_v}^{r * ell * r} generator tuples exceed the 2^22 bound"
        )
    field = FqField.of_order(q_v)

    ring_size = q_v ** ell      # elements of O_v/pi^ell as digit tuples

    def decode(code: int) -> tuple[int, ...]:
        out = []
        for _ in range(ell):
            out.append(code % q_v)
            code //= q_v
        return tuple(out)

    ring = [decode(c) for c in range(ring_size)]

    def ring_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * ell
        for i, x in enumerate(a):
            if x:
                for j in range(ell - i):
                    if b[j]:
                        out[i + j] = field.add(out[i + j], field.mul(x, b[j]))
        return tuple(out)

    def ring_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(field.add(x, y) for x, y in zip(a, b))

    zero_vec = tuple(ring[0] for _ in range(r))
    vector_count = ring_size ** r

    def decode_vec(code: int) -> tuple[tuple[int, ...], ...]:
        out = []
        for _ in range(r):
            out.append(ring[code % ring_size])
            code //= ring_size
        return tuple(out)

    vectors = [decode_vec(c) for c in range(vector_count)]
    target_size = q_v ** (ell * (r - 1))

    seen_spans = set()
    count = 0
    for code in range(vector_count ** r):
        gens = []
        x = code
        for _ in range(r):
            gens.append(vectors[x % vector_count])
            x //= vector_count
        span = {zero_vec}
        for scalar_code in range(ring_size ** r):
            sc = scalar_code
            acc = zero_vec
            for g in gens:
                coeff = ring[sc % ring_size]
                sc //= ring_size
                if coeff != ring[0]:
                    term = tuple(ring_mul(coeff, comp) for comp in g)
                    acc = tuple(ring_add(a, t) for a, t in zip(acc, term))
            span.add(acc)
        if len(span) != target_size:
            continue
        key = frozenset(span)
        if key not in seen_spans:
            seen_spans.add(key)
            count += 1
    return count
