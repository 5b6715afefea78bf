"""Local volumes, the local mass factor as their ratio, the Iwahori
index, and brute-force counting oracles: everything the `local volumes`,
`local lambda` and `local iw-index` commands and the lambda-volumes and
brute-force-oracles suites read.

All of it is closed-form integer and Fraction arithmetic on the residue
size q_v, the local rank r and the index d.  Only the two brute-force
counters build a finite field, so only they import `finitefield`, in
their bodies.  The residue-size check comes from `errors`, and the
matrix models of `localmodels` are not imported, so these commands load
`errors` and this module alone: not `algebra`, `finitefield`, the
models or `dataclasses`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    BruteForceTooLargeError,
    InvalidRamificationError,
    NotDivisibleError,
    _check_residue_size,
)

if TYPE_CHECKING:
    from .finitefield import FqField

# Caps on the local index d and the local rank r of the index, volume and
# lambda commands.  A local model needs q_v^d <= FIELD_SIZE_CAP = 2^12, so
# no model has d above 12.  At r = 48 and q_v = FIELD_SIZE_CAP the volumes
# print in about 4250 digits, just under errors.MAX_PRINTED_DIGITS = 4300.
MAX_LOCAL_INDEX = 12
MAX_LOCAL_RANK = 48


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


def local_volumes(q_v: int, r: int, d: int) -> tuple[Fraction, Fraction]:
    """vol_G at rank r and vol_Gprime at index d, for d | r."""
    _check_residue_size(q_v)
    if not 1 <= r <= MAX_LOCAL_RANK:
        raise InvalidRamificationError(f"local rank {r} is outside 1..{MAX_LOCAL_RANK}")
    if not 1 <= d <= MAX_LOCAL_INDEX:
        raise InvalidRamificationError(f"index d = {d} is outside 1..{MAX_LOCAL_INDEX}")
    if r % d != 0:
        raise NotDivisibleError(f"index {d} does not divide rank {r}")
    return vol_G(q_v, r), vol_Gprime(q_v, r // d, d)


def lambda_from_volumes(q_v: int, r: int, d: int) -> Fraction:
    """Local mass factor as a volume ratio; an integer for every d | r."""
    vol_g, vol_gprime = local_volumes(q_v, r, d)
    return vol_g / vol_gprime


# ----------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------

def gl_count_bruteforce(q: int, r: int) -> int:
    """Count invertible r x r matrices over F_q by row-reducing all of
    them."""
    if q ** (r * r) > 2 ** 20:
        raise BruteForceTooLargeError(f"{q}^{r * r} matrices exceed the 2^20 bound")
    from .finitefield import FqField, digits

    field = FqField.of_order(q)
    count = 0
    for code in range(q ** (r * r)):
        entries = digits(code, q, r * r)
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
    quotient of size q_v^{ell(r-1)}.  Elements of O_v/pi^ell are F_q
    series of precision ell, and each entry sum_s c_s g_s[j] of a
    combination is one `finitefield.log_dot` call."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0 or r == 1:
        return 1
    if q_v ** (r * ell * r) > 2 ** 22:
        raise BruteForceTooLargeError(
            f"{q_v}^{r * ell * r} generator tuples exceed the 2^22 bound"
        )
    from itertools import product

    from .finitefield import FqField, fq_series, log_dot

    field = FqField.of_order(q_v)
    # each element of O_v/pi^ell once, as the log terms of its series
    ring = [fq_series(field, cs, ell).log_terms() for cs in product(range(q_v), repeat=ell)]
    vectors = list(product(ring, repeat=r))
    spans = {
        frozenset(
            tuple(
                log_dot(field, [(c, g[j], 0) for c, g in zip(scalars, gens)], ell)
                for j in range(r)
            )
            for scalars in vectors
        )
        for gens in product(vectors, repeat=r)
    }
    return sum(len(span) == q_v ** (ell * (r - 1)) for span in spans)
