"""Exact arithmetic substrate: dense integer polynomials, normalized
rational functions and truncated power series.  The one factorization
of integers and `rational_to_str` live in `errors`, which the commands
that need no polynomial load without this module.

Every polynomial the package builds has integer coefficients: the
L-polynomial, the factors of the order zeta and its Euler product.  So
`int` is the one coefficient type here, and construction rejects
anything else.  Rationals appear only as values: evaluating at a
rational point gives a :class:`fractions.Fraction` (already reduced,
positive denominator), serialized as ``"num/den"`` (``"num"`` when
den = 1).

All zeta functions in this package live in the variable u = q**(-s);
their num/den is carried by :class:`RationalFunctionQ`, coprime and
content-free with a positive leading denominator coefficient (the zeta
engines build coprime pairs, :func:`ratfun` is the general normalizer),
and Dirichlet expansions by :class:`TruncatedSeriesQ`.  The printer
divides by den's leading coefficient to show the monic form.

Everything here is immutable; operations are pure functions and safe to
share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index
from typing import Iterable

from .errors import (
    InternalConsistencyError,
    NotExpandableError,
    OrderMismatchError,
)
from .record import Record


# ----------------------------------------------------------------------
# Dense univariate polynomials over Z
# ----------------------------------------------------------------------

class PolyQ:
    """Dense polynomial with integer coefficients, lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    trailing (highest-degree) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers ------------------------------------------

    @staticmethod
    def zero() -> "PolyQ":
        return PolyQ()

    @staticmethod
    def one() -> "PolyQ":
        return PolyQ((1,))

    @staticmethod
    def one_minus(coeff: int, power: int) -> "PolyQ":
        """1 - coeff * u**power, the ubiquitous Euler-factor building block."""
        if power == 0:
            return PolyQ((1 - coeff,))
        return PolyQ((1,) + (0,) * (power - 1) + (-coeff,))

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyQ()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return PolyQ(out)

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        """The quotient self / other in Z[u]; InternalConsistencyError
        unless other divides self there."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        top = len(div) - 1
        quo = [0] * max(len(rem) - top, 0)
        for k in range(len(quo) - 1, -1, -1):
            c, r = divmod(rem[k + top], div[-1])
            if r:
                break
            quo[k] = c
            if c:
                for j, dj in enumerate(div):
                    rem[k + j] -= c * dj
        if any(rem):
            raise InternalConsistencyError(f"{other!r} does not divide {self!r} in Z[u]")
        return PolyQ(quo)

    def eval(self, x: int | Fraction) -> int | Fraction:
        """Horner evaluation: an int at an int, a Fraction at a Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- comparisons / misc ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "PolyQ(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = "u" if k == 1 else f"u^{k}"
                terms.append(mono if c == 1 else f"{c}*{mono}")
        return "PolyQ(" + " + ".join(terms) + ")"


def _primitive(cs: Iterable[int]) -> list[int]:
    """cs divided by its content, signed so the leading entry is positive."""
    cs = list(cs)
    if not cs:
        return cs
    content = gcd(*cs)
    if cs[-1] < 0:
        content = -content
    return [c // content for c in cs]


def _int_poly_prem(a: list[int], b: list[int]) -> list[int]:
    # pseudo-remainder of integer polynomials (a scaled by powers of
    # lc(b), so every elimination step stays integral)
    da, db = len(a) - 1, len(b) - 1
    rem = list(a)
    lead = b[-1]
    for k in range(da - db, -1, -1):
        if k + db >= len(rem):
            continue
        c = rem[k + db]
        rem = [lead * x for x in rem]
        for j in range(db + 1):
            rem[k + j] -= c * b[j]
        del rem[k + db:]
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
    return rem


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Primitive greatest common divisor with a positive leading
    coefficient; gcd(0, 0) = 0.

    Runs a primitive pseudo-remainder sequence, so intermediate
    coefficients stay bounded.
    """
    pa, pb = _primitive(a.coeffs), _primitive(b.coeffs)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        pa, pb = pb, _primitive(_int_poly_prem(pa, pb))
    return PolyQ(pa)


# ----------------------------------------------------------------------
# Rational functions over Q, stored fully cancelled
# ----------------------------------------------------------------------

class RationalFunctionQ(Record):
    """num/den in Z[u], coprime, with no common integer content and a
    positive leading coefficient in den; that representative is unique.

    Built by :func:`coprime_ratfun` from a pair known to be coprime, else
    by :func:`ratfun`; poles are read off the order zeta's exponent map.
    """

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: PolyQ, den: PolyQ):
        self.num = num
        self.den = den

    def __mul__(self, other: "RationalFunctionQ") -> "RationalFunctionQ":
        return ratfun(self.num * other.num, self.den * other.den)


def coprime_ratfun(num: PolyQ, den: PolyQ) -> RationalFunctionQ:
    """num/den for a pair already coprime and content-free: only the
    signs flip, so that den's leading coefficient is positive."""
    if den.leading() < 0:
        num = PolyQ(-c for c in num.coeffs)
        den = PolyQ(-c for c in den.coeffs)
    return RationalFunctionQ(num, den)


def ratfun(num: PolyQ, den: PolyQ) -> RationalFunctionQ:
    """Build the fully cancelled representative of num/den."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return RationalFunctionQ(PolyQ.zero(), PolyQ.one())
    g = poly_gcd(num, den)
    if g.degree >= 1:
        num = num.exact_div(g)
        den = den.exact_div(g)
    content = gcd(*num.coeffs, *den.coeffs)
    if content != 1:
        num = PolyQ(c // content for c in num.coeffs)
        den = PolyQ(c // content for c in den.coeffs)
    return coprime_ratfun(num, den)


# ----------------------------------------------------------------------
# Truncated power series over Z
# ----------------------------------------------------------------------

class TruncatedSeriesQ(Record):
    """Power series in u truncated at a fixed order D: D+1 integer
    coefficients."""

    __slots__ = _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must equal order + 1")
        self.order = order
        self.coeffs = coeffs


def series_one(order: int) -> TruncatedSeriesQ:
    return TruncatedSeriesQ(order, (1,) + (0,) * order)


def series_mul(a: TruncatedSeriesQ, b: TruncatedSeriesQ) -> TruncatedSeriesQ:
    """Cauchy product truncated at the common order."""
    if a.order != b.order:
        raise OrderMismatchError(f"series orders differ: {a.order} != {b.order}")
    n = a.order + 1
    out = [0] * n
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(n - i):
            bj = b.coeffs[j]
            if bj:
                out[i + j] += ai * bj
    return TruncatedSeriesQ(a.order, tuple(out))


def series_pow(a: TruncatedSeriesQ, n: int) -> TruncatedSeriesQ:
    """a**n by binary powering (n may be a large place multiplicity)."""
    if n < 0:
        raise ValueError("negative series power")
    result = series_one(a.order)
    base = a
    while n:
        if n & 1:
            result = series_mul(result, base)
        base = series_mul(base, base)
        n >>= 1
    return result


def series_from_ratfun(f: RationalFunctionQ, order: int) -> TruncatedSeriesQ:
    """Taylor coefficients of f at u = 0 through the given order, by
    long division in integers; requires den(0) = +-1, which holds for
    every denominator the package builds (each is a product of factors
    with constant term 1)."""
    if order < 0:
        raise ValueError("negative series order")
    b0 = f.den.coefficient(0)
    if b0 not in (1, -1):
        raise NotExpandableError(
            f"denominator takes the value {b0} at u = 0, not a unit"
        )
    out: list[int] = []
    for k in range(order + 1):
        acc = f.num.coefficient(k)
        for j in range(1, min(k, f.den.degree) + 1):
            acc -= f.den.coefficient(j) * out[k - j]
        out.append(acc * b0)
    return TruncatedSeriesQ(order, tuple(out))
