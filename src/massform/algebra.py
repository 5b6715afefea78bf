"""Exact arithmetic substrate: rationals, dense polynomials over Q,
normalized rational functions, and truncated power series.

All zeta functions in this package live in the variable u = q**(-s);
their normalized num/den is carried by :class:`RationalFunctionQ` (the
order zeta is kept factored in orderzeta and expanded to one only for
output), and Dirichlet expansions by :class:`TruncatedSeriesQ`.  Exact rationals are plain
:class:`fractions.Fraction` values (already reduced, positive
denominator), serialized as ``"num/den"`` (``"num"`` when den = 1).

Everything here is immutable; operations are pure functions and safe to
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import (
    NotExpandableError,
    OrderMismatchError,
    PoleError,
)

Rational = Union[int, Fraction]


def rational_to_str(x: Fraction | int) -> str:
    """Render an exact rational as "num/den", or "num" when den = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ----------------------------------------------------------------------
# Dense univariate polynomials over Q
# ----------------------------------------------------------------------

class PolyQ:
    """Dense polynomial over Q, coefficients lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    trailing (highest-degree) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
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
    def one_minus(coeff: Rational, power: int) -> "PolyQ":
        """1 - coeff * u**power, the ubiquitous Euler-factor building block."""
        if power == 0:
            return PolyQ((1 - Fraction(coeff),))
        return PolyQ((1,) + (0,) * (power - 1) + (-Fraction(coeff),))

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyQ()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return PolyQ(out)

    def scale(self, c: Rational) -> "PolyQ":
        c = Fraction(c)
        return PolyQ(tuple(c * a for a in self.coeffs))

    def scale_argument(self, c: Rational) -> "PolyQ":
        """P(c*u): multiply the k-th coefficient by c**k."""
        c = Fraction(c)
        out, ck = [], Fraction(1)
        for a in self.coeffs:
            out.append(a * ck)
            ck *= c
        return PolyQ(out)

    def pow(self, n: int) -> "PolyQ":
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = PolyQ.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        """Exact Euclidean division over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return PolyQ(), self
        quo = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / div[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1] * inv_lead
            quo[k] = c
            if c:
                for j, dj in enumerate(div):
                    rem[k + j] -= c * dj
        return PolyQ(quo), PolyQ(rem[: len(div) - 1])

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return self.divmod(other)[1]

    def monic(self) -> "PolyQ":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def eval(self, x: Rational) -> Fraction:
        """Horner evaluation."""
        x = Fraction(x)
        acc = Fraction(0)
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
                terms.append(rational_to_str(c))
            else:
                mono = "u" if k == 1 else f"u^{k}"
                terms.append(mono if c == 1 else f"{rational_to_str(c)}*{mono}")
        return "PolyQ(" + " + ".join(terms) + ")"

    def _integer_primitive(self) -> tuple[int, ...]:
        """Scale to an integer polynomial with content 1 (sign of leading
        coefficient preserved); used by the gcd's primitive remainder
        sequence to keep coefficients small."""
        if self.is_zero():
            return ()
        den_lcm = 1
        for c in self.coeffs:
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        ints = [int(c * den_lcm) for c in self.coeffs]
        content = 0
        for v in ints:
            content = gcd(content, v)
        return tuple(v // content for v in ints)


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
    """Monic greatest common divisor; gcd(0, 0) = 0.

    Runs a primitive pseudo-remainder sequence on integer scalings of
    the inputs, so intermediate coefficients stay bounded.
    """
    if a.is_zero() and b.is_zero():
        return PolyQ.zero()
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    pa = list(a._integer_primitive())
    pb = list(b._integer_primitive())
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        rem = _int_poly_prem(pa, pb)
        if rem:
            content = 0
            for v in rem:
                content = gcd(content, v)
            rem = [v // content for v in rem]
        pa, pb = pb, rem
    return PolyQ(pa).monic()


# ----------------------------------------------------------------------
# Rational functions over Q, stored fully cancelled
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFunctionQ:
    """num/den with den monic and gcd(num, den) = 1.

    Construct through :func:`ratfun`, which cancels eagerly; exact
    pole-order bookkeeping at u = 1 depends on full cancellation.
    """

    num: PolyQ
    den: PolyQ

    def __mul__(self, other: "RationalFunctionQ") -> "RationalFunctionQ":
        return ratfun(self.num * other.num, self.den * other.den)

    def is_regular_at(self, x: Rational) -> bool:
        return self.den.eval(x) != 0


def ratfun(num: PolyQ, den: PolyQ) -> RationalFunctionQ:
    """Build a fully cancelled rational function with monic denominator."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return RationalFunctionQ(PolyQ.zero(), PolyQ.one())
    g = poly_gcd(num, den)
    if g.degree >= 1:
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
    lead = den.leading()
    if lead != 1:
        den = den.scale(1 / lead)
        num = num.scale(1 / lead)
    return RationalFunctionQ(num, den)


def ratfun_eval(f: RationalFunctionQ, x: Rational) -> Fraction:
    """Exact value num(x)/den(x); PoleError on a genuine pole."""
    d = f.den.eval(x)
    if d == 0:
        raise PoleError(f"pole at u = {rational_to_str(Fraction(x))}")
    return f.num.eval(x) / d


# ----------------------------------------------------------------------
# Truncated power series over Q
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedSeriesQ:
    """Power series in u truncated at a fixed order D: D+1 coefficients."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k]


def series(coeffs: Sequence[Rational], order: int | None = None) -> TruncatedSeriesQ:
    cs = tuple(Fraction(c) for c in coeffs)
    if order is None:
        order = len(cs) - 1
    if len(cs) < order + 1:
        cs = cs + (Fraction(0),) * (order + 1 - len(cs))
    return TruncatedSeriesQ(order, cs[: order + 1])


def series_one(order: int) -> TruncatedSeriesQ:
    return series((1,), order)


def series_mul(a: TruncatedSeriesQ, b: TruncatedSeriesQ) -> TruncatedSeriesQ:
    """Cauchy product truncated at the common order."""
    if a.order != b.order:
        raise OrderMismatchError(f"series orders differ: {a.order} != {b.order}")
    n = a.order + 1
    out = [Fraction(0)] * n
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
    exact long division; requires den(0) != 0."""
    if order < 0:
        raise ValueError("negative series order")
    b0 = f.den.coefficient(0)
    if b0 == 0:
        raise NotExpandableError("denominator vanishes at u = 0")
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = f.num.coefficient(k)
        for j in range(1, min(k, f.den.degree) + 1):
            acc -= f.den.coefficient(j) * out[k - j]
        out.append(acc / b0)
    return TruncatedSeriesQ(order, tuple(out))
