"""The base global function field K with constant field F_q.

No curve model is stored.  Everything downstream needs only the count
generator P(T) (numerator of the zeta function), the constant field
size q, the genus, and the degree of the distinguished place at
infinity, so that quadruple IS the field here.  P is validated hard at
construction: degree 2g, constant term 1, the q-power coefficient
symmetry, and non-negative integral place counts up to a sanity bound.

Place counts come from P by Newton's identities on its inverse roots
followed by Mobius inversion; all of it runs in exact integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .algebra import PolyQ, RationalFunctionQ, factor_prime_power, ratfun
from .errors import (
    MAX_PLACE_DEGREE,
    MAX_Q,
    InternalConsistencyError,
    InvalidArgumentError,
    InvalidFieldError,
)


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


@cache
def _divisors(k: int) -> tuple[int, ...]:
    return tuple(m for m in range(1, k + 1) if k % m == 0)


@dataclass(frozen=True)
class FunctionFieldData:
    """A global function field presented by its counting data.

    q is a prime power of at most MAX_Q; l_poly is P(T) with integer
    coefficients, lowest degree first; deg_inf is the degree of the
    chosen place at infinity, at most MAX_PLACE_DEGREE.  sanity_bound
    controls how many place counts are certified non-negative at
    construction (the exact Weil root bound is irrational, so counting
    non-negativity is the acceptance proxy).
    """

    q: int
    genus: int
    l_poly: PolyQ
    deg_inf: int
    sanity_bound: int = field(default=8, compare=False)
    # b_1, b_2, ... as far as computed; grown by _place_counts
    _counts: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    # zeta_K(-i) by i, filled by zeta_special_value (the mass side only)
    _zeta_values: dict[int, Fraction] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        problems = []
        if self.q > MAX_Q:
            # checked before factoring, which trial-divides up to sqrt(q)
            problems.append(f"q={self.q} is above the cap {MAX_Q}")
        else:
            try:
                factor_prime_power(self.q)
            except ValueError:
                problems.append(f"q={self.q} is not a prime power")
        if self.genus < 0:
            problems.append("genus must be >= 0")
        if self.deg_inf < 1:
            problems.append("deg_inf must be >= 1")
        elif self.deg_inf > MAX_PLACE_DEGREE:
            # checked before any place is counted
            problems.append(f"deg_inf {self.deg_inf} is above the cap {MAX_PLACE_DEGREE}")
        if problems:
            raise InvalidFieldError("; ".join(problems))

        p = self.l_poly
        g = self.genus
        if p.degree != 2 * g:
            problems.append(
                f"count polynomial degree {p.degree} does not match genus {g}"
            )
        if p.coefficient(0) != 1:
            problems.append("count polynomial must have constant term 1")
        if not problems:
            for i in range(g + 1):
                if p.coefficient(2 * g - i) != self.q ** (g - i) * p.coefficient(i):
                    problems.append(
                        f"coefficient symmetry fails at index {i}"
                    )
                    break
        if problems:
            raise InvalidFieldError("; ".join(problems))

        upto = max(self.sanity_bound, self.deg_inf)
        try:
            counts = self._place_counts(upto)
        except InvalidFieldError as exc:
            raise InvalidFieldError(f"place counts invalid: {exc}") from None
        if counts[self.deg_inf - 1] < 1:
            raise InvalidFieldError(
                f"no place of degree {self.deg_inf} exists (b_{self.deg_inf} = 0)"
            )

    @staticmethod
    def rational(q: int, deg_inf: int = 1) -> "FunctionFieldData":
        """The rational function field over F_q (genus 0, P = 1)."""
        return FunctionFieldData(q=q, genus=0, l_poly=PolyQ.one(), deg_inf=deg_inf)

    # -- counting -----------------------------------------------------------

    def point_counts(self, upto: int) -> list[int]:
        """N_1 .. N_upto: degree-m rational point counts over F_{q^m}.

        Newton's recursion on P's coefficients gives the power sums s_m
        of the inverse roots; N_m = q^m + 1 - s_m.
        """
        a = self.l_poly.coeffs
        deg = 2 * self.genus
        s: list[int] = [0]  # s[0] unused
        for m in range(1, upto + 1):
            acc = m * a[m] if m <= deg else 0
            for k in range(1, min(m - 1, deg) + 1):
                acc += a[k] * s[m - k]
            s.append(-acc)
        return [self.q ** m + 1 - s[m] for m in range(1, upto + 1)]

    def _place_counts(self, upto: int) -> tuple[int, ...]:
        """b_1 .. b_upto with validation (non-negative integers), computed
        once per field and extended when a higher degree is asked for."""
        if len(self._counts) < upto:
            object.__setattr__(self, "_counts", self._compute_place_counts(upto))
        return self._counts[:upto]

    def _compute_place_counts(self, upto: int) -> tuple[int, ...]:
        """The stored counts extended to b_1 .. b_upto: only the degrees
        not yet counted are summed, and a failure stores nothing."""
        n_counts = self.point_counts(upto)
        out = list(self._counts)
        for n in range(len(out) + 1, upto + 1):
            total = sum(_mobius(n // d) * n_counts[d - 1] for d in _divisors(n))
            if total % n != 0:
                raise InvalidFieldError(
                    f"degree-{n} place count is not integral"
                )
            b = total // n
            if b < 0:
                raise InvalidFieldError(f"degree-{n} place count is negative")
            out.append(b)
        return tuple(out)


def zeta_K(data: FunctionFieldData) -> RationalFunctionQ:
    """The field zeta function in u = q**(-s): P(u)/((1-u)(1-qu))."""
    den = PolyQ.one_minus(1, 1) * PolyQ.one_minus(data.q, 1)
    return ratfun(data.l_poly, den)


def zeta_special_value(data: FunctionFieldData, i: int) -> Fraction:
    """zeta_K at s = -i, i.e. at u = q**i: P(q^i)/((1-q^i)(1-q^{i+1})).

    P(q^i) by Horner's rule in integers; one Fraction at the end.  The
    value is kept on the field, one entry per i asked for (i < MAX_RANK
    from the mass engine), and dataclasses.replace starts a copy with
    none.  This memo is the mass side's: the order-zeta closed form
    never reads it."""
    value = data._zeta_values.get(i)
    if value is None:
        if i < 1:
            raise InvalidArgumentError("special values are taken at i >= 1")
        qi = data.q ** i
        value = Fraction(data.l_poly.eval(qi), (1 - qi) * (1 - qi * data.q))
        data._zeta_values[i] = value
    return value


def class_number_A(data: FunctionFieldData) -> int:
    """Class number of the ring of functions regular away from infinity:
    deg_inf * P(1)."""
    p1 = data.l_poly.eval(1)
    if p1 <= 0:
        raise InvalidFieldError(f"P(1) = {p1} is not a positive integer")
    return data.deg_inf * p1


def places_of_degree(data: FunctionFieldData, n: int) -> int:
    """Number of places of K of degree exactly n."""
    if n < 1:
        raise InvalidArgumentError("degree must be >= 1")
    return data._place_counts(n)[n - 1]


def zeta_A(data: FunctionFieldData) -> RationalFunctionQ:
    """Zeta with the infinity factor removed:
    (1 - u^{deg_inf}) * P(u) / ((1-u)(1-qu)); regular at u = 1."""
    num = PolyQ.one_minus(1, data.deg_inf) * data.l_poly
    den = PolyQ.one_minus(1, 1) * PolyQ.one_minus(data.q, 1)
    out = ratfun(num, den)
    if not out.is_regular_at(1):
        raise InternalConsistencyError(f"zeta_A has a pole at u = 1: {out}")
    return out


# -- JSON shape -------------------------------------------------------------

def _json_int(value: object, name: str) -> int:
    # JSON integers only: a float, a string or a boolean is an error, not
    # something to truncate
    if type(value) is not int:
        raise InvalidFieldError(f"{name} must be a JSON integer, got {value!r}")
    return value


def field_from_json_dict(obj: dict) -> FunctionFieldData:
    try:
        q, genus, l_poly, deg_inf = (obj[k] for k in ("q", "genus", "l_poly", "deg_inf"))
    except KeyError as exc:
        raise InvalidFieldError(f"malformed field object: missing {exc}") from None
    if not isinstance(l_poly, list):
        raise InvalidFieldError(f"l_poly must be a JSON list, got {l_poly!r}")
    return FunctionFieldData(
        q=_json_int(q, "q"),
        genus=_json_int(genus, "genus"),
        l_poly=PolyQ(_json_int(c, "l_poly entry") for c in l_poly),
        deg_inf=_json_int(deg_inf, "deg_inf"),
    )
