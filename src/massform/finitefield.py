"""Arithmetic in small finite fields F_q, enumeration of monic
irreducible polynomials over F_q, and truncated power series over F_q.

Elements are integer-encoded: the residue polynomial
c_0 + c_1 t + ... + c_{e-1} t^{e-1} over F_p becomes the integer
c_0 + c_1 p + ... + c_{e-1} p^{e-1}.  Each field precomputes log/exp
tables for a fixed multiplicative generator, so products and inverses
are table lookups.  Fields are capped at 2**12 elements; everything
this package needs lives far below that.

Truncated series model the complete local rings at a place: a series of
precision N is a residue mod pi^N with N stored coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, Iterator

from .errors import NotAUnitError, OrderMismatchError

_FIELD_SIZE_CAP = 2 ** 12


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """q = p**e with p prime, or ValueError.

    The least divisor of q above 1 is prime, so the search for p stops
    at the square root of q."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over F_p (plain digit lists, used only during
#    field construction, so clarity beats speed here) -------------------

def _fp_poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        # b is monic in every call site
        c = a[-1]
        off = len(a) - len(b)
        for j, bj in enumerate(b):
            a[off + j] = (a[off + j] - c * bj) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_monic_polys(degree: int, p: int) -> Iterator[list[int]]:
    # ascending integer encoding of the non-leading coefficients
    for m in range(p ** degree):
        coeffs = []
        x = m
        for _ in range(degree):
            coeffs.append(x % p)
            x //= p
        yield coeffs + [1]


def _fp_is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    e = len(poly) - 1
    if e < 1:
        return False
    for d in range(1, e // 2 + 1):
        for g in _fp_monic_polys(d, p):
            if not _fp_poly_mod(poly, g, p):
                return False
    return True


class FqField:
    """The field with q = p**e elements, elements encoded as ints in [0, q).

    The defining modulus is the monic irreducible of degree e over F_p
    with the smallest integer encoding, so serialized data is stable
    across runs and machines.
    """

    def __init__(self, p: int, e: int):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be positive")
        q = p ** e
        if q > _FIELD_SIZE_CAP:
            raise ValueError(f"field of order {q} exceeds the {_FIELD_SIZE_CAP} cap")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = self._least_irreducible(p, e)
        self._build_tables()

    @staticmethod
    @lru_cache(maxsize=None)
    def of_order(q: int) -> "FqField":
        p, e = factor_prime_power(q)
        return FqField(p, e)

    @staticmethod
    def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
        for cand in _fp_monic_polys(e, p):
            if _fp_is_irreducible(cand, p):
                return tuple(cand)
        raise AssertionError("no irreducible polynomial found")  # unreachable

    # -- raw code arithmetic --------------------------------------------

    def _code_to_digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(code % self.p)
            code //= self.p
        return out

    def _digits_to_code(self, digits: Iterable[int]) -> int:
        code = 0
        for d in reversed(list(digits)):
            code = code * self.p + d
        return code

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = self._code_to_digits(a), self._code_to_digits(b)
        return self._digits_to_code((x + y) % self.p for x, y in zip(da, db))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._digits_to_code((-x) % self.p for x in self._code_to_digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        # schoolbook product of residue polynomials, reduced mod modulus;
        # only used while bootstrapping the log/exp tables
        da, db = self._code_to_digits(a), self._code_to_digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        rem = _fp_poly_mod(prod, list(self.modulus), self.p)
        rem += [0] * (self.e - len(rem))
        return self._digits_to_code(rem)

    def _build_tables(self) -> None:
        q = self.q
        group_order = q - 1
        prime_parts = _prime_divisors(group_order)
        gen = None
        for cand in range(1, q):
            ok = True
            for ell in prime_parts:
                if self._pow_raw(cand, group_order // ell) == 1:
                    ok = False
                    break
            if ok:
                gen = cand
                break
        assert gen is not None
        exp = [1] * group_order
        log = [0] * q
        acc = 1
        for k in range(group_order):
            exp[k] = acc
            log[acc] = k
            acc = self._mul_raw(acc, gen)
        self.generator = gen
        self._exp = exp
        self._log = log

    def _pow_raw(self, a: int, n: int) -> int:
        result = 1
        while n:
            if n & 1:
                result = self._mul_raw(result, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return result

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    # -- element / iteration API ------------------------------------------

    def element(self, code: int) -> "FqElem":
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} outside [0, {self.q})")
        return FqElem(self, code)

    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def elements(self) -> Iterator["FqElem"]:
        for code in range(self.q):
            yield FqElem(self, code)

    def embedding_into(self, big: "FqField") -> Callable[[int], int]:
        """Field homomorphism F_{p^e} -> F_{p^E} as a code-level map.

        Found by scanning the target field for a root of this field's
        modulus (the root with the least code is chosen, which pins the
        embedding deterministically).
        """
        if big.p != self.p or big.e % self.e != 0:
            raise ValueError(
                f"no embedding of GF({self.q}) into GF({big.q})"
            )
        root = None
        for cand in range(big.q):
            acc = 0
            for coeff in reversed(self.modulus):
                acc = big.add(big.mul(acc, cand), coeff % big.p)
            if acc == 0:
                root = cand
                break
        assert root is not None
        table = []
        for code in range(self.q):
            acc = 0
            for digit in reversed(self._code_to_digits(code)):
                acc = big.add(big.mul(acc, root), digit)
            table.append(acc)
        return lambda code: table[code]

    def __repr__(self) -> str:
        return f"FqField(q={self.q})"


@dataclass(frozen=True)
class FqElem:
    """One element of an FqField; repr is the reduced residue polynomial,
    carried as its integer code."""

    field: FqField
    code: int

    def poly_coeffs(self) -> tuple[int, ...]:
        """Coefficients of the residue polynomial, integers in [0, p)."""
        return tuple(self.field._code_to_digits(self.code))

    def _check(self, other: "FqElem") -> None:
        if other.field is not self.field:
            raise ValueError("elements of different fields")

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, self.field.add(self.code, other.code))

    def __sub__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, self.field.sub(self.code, other.code))

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, self.field.mul(self.code, other.code))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.field, self.field.mul(self.code, self.field.inv(other.code)))

    def __pow__(self, n: int) -> "FqElem":
        return FqElem(self.field, self.field.pow(self.code, n))

    def __neg__(self) -> "FqElem":
        return FqElem(self.field, self.field.neg(self.code))

    def is_zero(self) -> bool:
        return self.code == 0


def frobenius(x: FqElem, base_q: int) -> FqElem:
    """x -> x**base_q, the power map generating Gal(F_q / F_{base_q})."""
    if x.field.q % base_q != 0 and base_q % x.field.p != 0:
        raise ValueError(f"{base_q} is not a power of the characteristic {x.field.p}")
    return FqElem(x.field, x.field.pow(x.code, base_q))


# ----------------------------------------------------------------------
# Monic irreducible enumeration over F_q
# ----------------------------------------------------------------------

def enumerate_monic_irreducibles(q: int, degree: int) -> list[tuple[int, ...]]:
    """All monic irreducibles of exact degree over F_q, ascending.

    Returned as coefficient tuples (c_0, ..., c_{degree-1}, 1), lowest
    degree first, coefficients integer-encoded field elements; ordering
    is lexicographic reading the highest coefficient first.  A product
    sieve marks every reducible polynomial (each has an irreducible
    factor of degree <= degree/2), so cost is about q**degree times a
    small log factor; callers keep q**degree modest.
    """
    return list(_enumerate_irreducibles_cached(q, degree))


@lru_cache(maxsize=None)
def _enumerate_irreducibles_cached(q: int, degree: int) -> tuple[tuple[int, ...], ...]:
    if degree < 1:
        raise ValueError("degree must be >= 1")
    field = FqField.of_order(q)
    if degree == 1:
        return tuple((c, 1) for c in range(q))

    def index_of(poly: tuple[int, ...]) -> int:
        # poly is monic of length degree+1; index over non-leading coeffs
        idx = 0
        for c in reversed(poly[:-1]):
            idx = idx * q + c
        return idx

    def mul_monic(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = field.add(out[i + j], field.mul(x, y))
        return tuple(out)

    composite = bytearray(q ** degree)
    for m in range(1, degree // 2 + 1):
        for g in _enumerate_irreducibles_cached(q, m):
            rest = degree - m
            for idx in range(q ** rest):
                h = []
                x = idx
                for _ in range(rest):
                    h.append(x % q)
                    x //= q
                h.append(1)
                composite[index_of(mul_monic(g, tuple(h)))] = 1

    out = []
    for idx in range(q ** degree):
        if composite[idx]:
            continue
        coeffs = []
        x = idx
        for _ in range(degree):
            coeffs.append(x % q)
            x //= q
        coeffs.append(1)
        out.append(tuple(coeffs))
    return tuple(out)


# ----------------------------------------------------------------------
# Truncated power series over F_q  (local rings at finite precision)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedSeriesFq:
    """Residue mod pi**precision: exactly `precision` stored coefficients,
    constant term first, each an integer code in the attached field."""

    field: FqField
    precision: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.precision:
            raise ValueError("coefficient count must equal precision")

    def _check(self, other: "TruncatedSeriesFq") -> None:
        if other.field is not self.field:
            raise ValueError("series over different fields")
        if other.precision != self.precision:
            raise OrderMismatchError(
                f"series precisions differ: {self.precision} != {other.precision}"
            )

    def __add__(self, other: "TruncatedSeriesFq") -> "TruncatedSeriesFq":
        self._check(other)
        f = self.field
        return TruncatedSeriesFq(
            f, self.precision,
            tuple(f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "TruncatedSeriesFq") -> "TruncatedSeriesFq":
        self._check(other)
        f = self.field
        return TruncatedSeriesFq(
            f, self.precision,
            tuple(f.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other: "TruncatedSeriesFq") -> "TruncatedSeriesFq":
        self._check(other)
        f = self.field
        n = self.precision
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        return TruncatedSeriesFq(f, n, tuple(out))

    def __neg__(self) -> "TruncatedSeriesFq":
        f = self.field
        return TruncatedSeriesFq(f, self.precision, tuple(f.neg(a) for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient; None when the series
        is indistinguishable from 0 at this precision."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def shift(self, k: int) -> "TruncatedSeriesFq":
        """Multiply by pi**k (k >= 0), truncating at the precision."""
        if k < 0:
            raise ValueError("negative shift")
        n = self.precision
        return TruncatedSeriesFq(
            self.field, n, (0,) * min(k, n) + self.coeffs[: max(n - k, 0)]
        )

    def map_coeffs(self, func: Callable[[int], int]) -> "TruncatedSeriesFq":
        """Apply a code-level map (e.g. a Frobenius power) coefficientwise."""
        return TruncatedSeriesFq(
            self.field, self.precision, tuple(func(c) for c in self.coeffs)
        )


def fq_series(field: FqField, coeffs: Iterable[int], precision: int) -> TruncatedSeriesFq:
    cs = list(coeffs)
    if len(cs) < precision:
        cs += [0] * (precision - len(cs))
    return TruncatedSeriesFq(field, precision, tuple(cs[:precision]))


def fq_series_zero(field: FqField, precision: int) -> TruncatedSeriesFq:
    return TruncatedSeriesFq(field, precision, (0,) * precision)


def fq_series_one(field: FqField, precision: int) -> TruncatedSeriesFq:
    return fq_series(field, (1,), precision)


def fq_series_pi(field: FqField, precision: int) -> TruncatedSeriesFq:
    """The uniformizer pi as a series."""
    return fq_series(field, (0, 1), precision)


def series_invert(a: TruncatedSeriesFq) -> TruncatedSeriesFq:
    """Multiplicative inverse mod pi**precision.

    Solves the triangular system b_0 = a_0^{-1},
    b_k = -a_0^{-1} * sum_{j=1..k} a_j b_{k-j}.
    """
    if a.coeffs[0] == 0:
        raise NotAUnitError("constant term is zero")
    f = a.field
    inv0 = f.inv(a.coeffs[0])
    out = [inv0]
    for k in range(1, a.precision):
        acc = 0
        for j in range(1, k + 1):
            acc = f.add(acc, f.mul(a.coeffs[j], out[k - j]))
        out.append(f.neg(f.mul(inv0, acc)))
    return TruncatedSeriesFq(f, a.precision, tuple(out))
