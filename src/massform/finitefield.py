"""Arithmetic in small finite fields F_q, enumeration of monic
irreducible polynomials over F_q, and truncated power series over F_q.

Elements are integer-encoded: the residue polynomial
c_0 + c_1 t + ... + c_{e-1} t^{e-1} over F_p becomes the integer
c_0 + c_1 p + ... + c_{e-1} p^{e-1}.  `digits` and `from_digits` are
the package's one base-q codec, for these codes and for the counters of
the brute-force oracles.  The modulus of F_{p^e} is the first monic
irreducible of degree e that the sieve `enumerate_monic_irreducibles`
would list over F_p, found by trial division against the sieve's lists
of degree <= e/2.  Each field precomputes log/exp tables for a fixed
multiplicative generator g, so products and inverses are table
lookups.  In characteristic 2 the digits are bits and a sum
of codes is their XOR.  In odd characteristic a Zech-logarithm table
zech[n] = log(1 + g^n) makes sums table lookups too:
a + b = a * (1 + b/a).  Every table has O(q) entries, and fields are
capped at 2**12 elements; everything this package needs lives far
below that.

Truncated series model the complete local rings at a place: a series of
precision N is a residue mod pi^N with N stored coefficients.  Every
sum of products of series, sum_t pi^(s_t) x_t y_t, is built by one
kernel, `log_dot`: the operands enter as (position, log) lists of their
nonzero coefficients.  In characteristic 2 each product is read off a
doubled exp table and XORed into its output coefficient; in odd
characteristic it is Zech-added straight into one log-domain
accumulator per output coefficient (-1 standing for the log of 0), and
each accumulator is mapped back through the exp table once.  The
series product and the sieve's product of two monics are its one-term
cases; the matrix products and division-algebra products of
`localmodels` and the combinations of `localvolumes`'s sublattice
oracle are its many-term cases.  Only `_mul_raw`, which builds a
field's tables, multiplies polynomials without it; scalars alone, as in
the row reduction of `gl_count_bruteforce`, go through `FqField.add`,
`mul`, `sub` and `inv`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InternalConsistencyError, OrderMismatchError, factor_prime_power, prime_factors
from .record import Record

FIELD_SIZE_CAP = 2 ** 12


def digits(code: int, base: int, count: int) -> list[int]:
    """The lowest `count` base-`base` digits of code, least significant
    first: a field code's residue coefficients, or a counter's entries."""
    out = []
    for _ in range(count):
        out.append(code % base)
        code //= base
    return out


def from_digits(ds: Sequence[int], base: int) -> int:
    """The code whose base-`base` digits, least significant first, are ds."""
    code = 0
    for d in reversed(ds):
        code = code * base + d
    return code


# -- polynomial helper over F_p (plain digit lists, used only during
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


def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The monic irreducible of degree e over F_p with the smallest
    integer encoding, the first entry `enumerate_monic_irreducibles`
    would list: candidates in ascending code order, each trial-divided
    by the sieve's irreducibles of degree <= e/2, up to the first that
    none divides."""
    factors = [
        list(g) for d in range(1, e // 2 + 1) for g in _enumerate_irreducibles_cached(p, d)
    ]
    for code in range(p ** e):
        candidate = [*digits(code, p, e), 1]
        if all(_fp_poly_mod(candidate, g, p) for g in factors):
            return tuple(candidate)
    raise InternalConsistencyError(f"no irreducible of degree {e} over F_{p}")


class FqField:
    """The field with q = p**e elements, elements encoded as ints in [0, q).

    The defining modulus is the monic irreducible of degree e over F_p
    with the smallest integer encoding, the first entry of
    `enumerate_monic_irreducibles`, so serialized data is stable across
    runs and machines.
    """

    def __init__(self, p: int, e: int):
        if prime_factors(p) != {p: 1}:
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be positive")
        q = p ** e
        if q > FIELD_SIZE_CAP:
            raise ValueError(f"field of order {q} exceeds the {FIELD_SIZE_CAP} cap")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _least_irreducible(p, e)
        self._build_tables()
        self._power_tables: dict[int, tuple[int, ...]] = {}

    @staticmethod
    @lru_cache(maxsize=None)
    def of_order(q: int) -> "FqField":
        p, e = factor_prime_power(q)
        return FqField(p, e)

    # -- raw code arithmetic --------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        log = self._log
        la = log[a]
        z = self._zech[(log[b] - la) % self._order]
        if z < 0:
            return 0
        return self._exp[(la + z) % self._order]

    def neg(self, a: int) -> int:
        if a == 0:
            return 0
        return self._exp[(self._log[a] + self._log_minus_one) % self._order]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        # schoolbook product of residue polynomials, reduced mod modulus;
        # only used while bootstrapping the log/exp tables
        p, e = self.p, self.e
        db = digits(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(digits(a, p, e)):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return from_digits(_fp_poly_mod(prod, list(self.modulus), p), p)

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        group_order = q - 1
        prime_parts = prime_factors(group_order)
        gen = next(
            (g for g in range(1, q)
             if all(self._pow_raw(g, group_order // ell) != 1 for ell in prime_parts)),
            None,
        )
        if gen is None:
            raise InternalConsistencyError(f"no generator of GF({q})^x found")
        exp = [1] * group_order
        log = [-1] * q          # log[0] = -1 stands for the log of 0
        acc = 1
        for k in range(group_order):
            exp[k] = acc
            log[acc] = k
            acc = self._mul_raw(acc, gen)
        self.generator = gen
        self._order = group_order
        self._exp = exp
        # exp at any sum of two logs, with no reduction mod q - 1; the
        # characteristic-2 kernel of log_dot reads it
        self._exp2 = exp + exp
        self._log = log
        # zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0; adding 1 moves
        # only the constant digit, which wraps from p - 1 to 0
        self._zech = [log[x + 1 if x % p != p - 1 else x + 1 - p] for x in exp]
        # -1 = g^((q-1)/2) in odd characteristic, and -1 = 1 when p = 2
        self._log_minus_one = 0 if p == 2 else group_order // 2

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
        return self._exp[(self._log[a] + self._log[b]) % self._order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(-self._log[a]) % self._order]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        return self._exp[(self._log[a] * n) % self._order]

    def power_table(self, n: int) -> tuple[int, ...]:
        """The map code -> code**n as a table indexed by code, built on
        first use and kept; for n a power of p it is a Frobenius power,
        a permutation of the field."""
        table = self._power_tables.get(n)
        if table is None:
            table = self._power_tables[n] = tuple(self.pow(c, n) for c in range(self.q))
        return table

    def __repr__(self) -> str:
        return f"FqField(q={self.q})"


# ----------------------------------------------------------------------
# Monic irreducible enumeration over F_q
# ----------------------------------------------------------------------

def enumerate_monic_irreducibles(q: int, degree: int) -> list[tuple[int, ...]]:
    """All monic irreducibles of exact degree over F_q, ascending.

    Returned as coefficient tuples (c_0, ..., c_{degree-1}, 1), lowest
    degree first, coefficients integer-encoded field elements; ordering
    is lexicographic reading the highest coefficient first.  A product
    sieve marks every reducible polynomial (each has an irreducible
    factor of degree <= degree/2): the product of a monic of degree m
    and one of degree degree - m is monic, so `log_dot` at precision
    degree gives its lower coefficients, whose code marks it.  Cost is
    about q**degree times a small log factor; callers keep q**degree
    modest.  Over a prime field the first entry is the modulus of
    `FqField`.
    """
    FqField.of_order(q)     # refuses a q that is not a field order
    return list(_enumerate_irreducibles_cached(q, degree))


@lru_cache(maxsize=None)
def _enumerate_irreducibles_cached(q: int, degree: int) -> tuple[tuple[int, ...], ...]:
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree == 1:
        return tuple((c, 1) for c in range(q))
    field = FqField.of_order(q)
    log = field._log
    composite = bytearray(q ** degree)
    for m in range(1, degree // 2 + 1):
        rest = degree - m
        for g in _enumerate_irreducibles_cached(q, m):
            g_log = [(i, log[c]) for i, c in enumerate(g) if c]
            for idx in range(q ** rest):
                h = (*digits(idx, q, rest), 1)
                h_log = [(j, log[c]) for j, c in enumerate(h) if c]
                composite[from_digits(log_dot(field, [(g_log, h_log, 0)], degree), q)] = 1
    return tuple(
        (*digits(idx, q, degree), 1) for idx in range(q ** degree) if not composite[idx]
    )


# ----------------------------------------------------------------------
# Truncated power series over F_q  (local rings at finite precision)
# ----------------------------------------------------------------------

LogTerms = list[tuple[int, int]]


def log_dot(
    field: FqField, terms: Iterable[tuple[LogTerms, LogTerms, int]], precision: int
) -> tuple[int, ...]:
    """Coefficients of sum pi**s * x * y over the terms (x, y, s), mod
    pi**precision, with x and y given as `TruncatedSeriesFq.log_terms`.

    One pass over every product of a nonzero coefficient pair, each
    landing on its output position i + j + s.  In characteristic 2 the
    product's code is read off the doubled exp table and XORed into a
    code accumulator.  In odd characteristic it is added with a Zech
    lookup into a log accumulator, and each accumulator is mapped back
    through the exp table once at the end."""
    if field.p == 2:
        exp2 = field._exp2
        codes = [0] * precision
        for xs, ys, s in terms:
            for i, lx in xs:
                base = i + s
                if base >= precision:
                    break
                for j, ly in ys:
                    k = base + j
                    if k >= precision:
                        break
                    codes[k] ^= exp2[lx + ly]
        return tuple(codes)
    zech, order = field._zech, field._order
    acc = [-1] * precision          # log of each partial sum; -1 is 0
    for xs, ys, s in terms:
        for i, lx in xs:
            base = i + s
            if base >= precision:
                break
            for j, ly in ys:
                k = base + j
                if k >= precision:
                    break
                a = acc[k]
                if a < 0:
                    acc[k] = (lx + ly) % order
                else:
                    # g^a + g^t = g^a * (1 + g^(t - a))
                    z = zech[(lx + ly - a) % order]
                    acc[k] = -1 if z < 0 else (a + z) % order
    exp = field._exp
    return tuple(0 if a < 0 else exp[a] for a in acc)


class TruncatedSeriesFq(Record):
    """Residue mod pi**precision: exactly `precision` stored coefficients,
    constant term first, each an integer code in the attached field.

    A record: equal and hashed by field (by identity, as an FqField
    has no equality of its own), precision and coefficients, and never
    changed after construction."""

    __slots__ = _fields = ("field", "precision", "coeffs")

    def __init__(self, field: FqField, precision: int, coeffs: tuple[int, ...]):
        if len(coeffs) != precision:
            raise ValueError("coefficient count must equal precision")
        self.field = field
        self.precision = precision
        self.coeffs = coeffs

    def _check(self, other: "TruncatedSeriesFq") -> None:
        if other.field is not self.field:
            raise ValueError("series over different fields")
        if other.precision != self.precision:
            raise OrderMismatchError(
                f"series precisions differ: {self.precision} != {other.precision}"
            )

    def __mul__(self, other: "TruncatedSeriesFq") -> "TruncatedSeriesFq":
        self._check(other)
        f, n = self.field, self.precision
        return TruncatedSeriesFq(
            f, n, log_dot(f, [(self.log_terms(), other.log_terms(), 0)], n)
        )

    def log_terms(self) -> LogTerms:
        """(position, log) of each nonzero coefficient, ascending; the
        operand form of `log_dot`, empty for the zero series."""
        log = self.field._log
        return [(i, log[c]) for i, c in enumerate(self.coeffs) if c]

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


def fq_series(field: FqField, coeffs: Iterable[int], precision: int) -> TruncatedSeriesFq:
    cs = tuple(coeffs)[:precision]
    return TruncatedSeriesFq(field, precision, cs + (0,) * (precision - len(cs)))
