"""The base global function field K with constant field F_q.

No curve model is stored.  Everything downstream needs only the count
generator P(T) (numerator of the zeta function), the constant field
size q, the genus, and the degree of the distinguished place at
infinity, so that quadruple IS the field here.  P is validated hard at
construction: degree 2g, constant term 1, the q-power coefficient
symmetry, Weil's bound |alpha| = sqrt(q) on its inverse roots (exactly,
in integers), and non-negative place counts up to a fixed degree.

Place counts come from P by Newton's identities on its inverse roots
followed by Mobius inversion; all of it runs in exact integer
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from .algebra import PolyQ, RationalFunctionQ, coprime_ratfun
from .algebra import _int_poly_prem, _primitive
from .errors import (
    MAX_PLACE_DEGREE,
    MAX_Q,
    InternalConsistencyError,
    InvalidArgumentError,
    InvalidFieldError,
    factor_prime_power,
    prime_factors,
)
from .record import Record

# The largest genus, checked before the Weil test.  At q = 4294967291,
# the largest prime below MAX_Q, the slowest test found takes about
# 0.02 s at this cap, 0.09 s at genus 32 and 0.25 s at genus 40 (2-CPU
# machine): h with g random integer roots, which runs the whole chain.
MAX_GENUS = 24

# Place counts checked non-negative at construction, with deg_inf's: a
# Weil P still gives N_1 < 0 when q + 1 < 2g sqrt(q).
CHECKED_DEGREES = 8


@cache
def _mobius(n: int) -> int:
    exponents = prime_factors(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


@cache
def _divisors(k: int) -> tuple[int, ...]:
    return tuple(m for m in range(1, k + 1) if k % m == 0)


def _trace_polynomial(l_poly: PolyQ, q: int, g: int) -> list[int]:
    """h, monic of degree g, with T^{2g} P(1/T) = T^g h(T + q/T): by the
    symmetry a_{g+j} = q^j a_{g-j}, h(x) = a_g + sum_j a_{g-j} D_j(x), with
    D_j(T + q/T) = T^j + (q/T)^j, D_0 = 2, D_1 = x, D_{j+1} = x D_j - q D_{j-1}."""
    a = l_poly.coeffs
    h = [a[g]] + [0] * g
    older, old = [2], [0, 1]
    for j in range(1, g + 1):
        for k, c in enumerate(old):
            h[k] += a[g - j] * c
        nxt = [0, *old]
        for k, c in enumerate(older):
            nxt[k] -= q * c
        older, old = old, nxt
    return h


def real_roots_within(h: list[int], q: int) -> bool:
    """Whether every root of h (integers, lowest degree first, leading
    coefficient positive) is real and in [-2 sqrt(q), 2 sqrt(q)]; after
    Kedlaya, "Search techniques for root-unitary polynomials", 2008.

    The Sturm chain h, h', -rem, ... (primitive pseudo-remainders) ends
    at gcd(h, h'); it loses one sign change from -inf to +inf per
    distinct real root, at most one a step, so h is real-rooted iff the
    chain drops one degree a step with positive leading coefficients.
    n(t^2) = (-1)^g h(t) h(-t) has the roots x^2, and for a real-rooted n
    no sign change in n(z + 4q) means no root x^2 > 4q (Descartes).
    """
    g = len(h) - 1
    # roots in [-B, B], B = 2 sqrt(q), bound |h_k| by h_g C(g, k) B^(g-k);
    # checked first, this keeps the chain's integers small
    if any(c * c > (h[-1] * comb(g, k)) ** 2 * (4 * q) ** (g - k) for k, c in enumerate(h)):
        return False
    chain = [_primitive(h), _primitive(k * c for k, c in enumerate(h) if k)]
    while len(chain[-1]) > 1:
        rem = _int_poly_prem(chain[-2], chain[-1])
        if not rem:
            break
        if rem[-1] > 0 or len(rem) < len(chain[-1]) - 1:
            return False
        chain.append(_primitive(rem))
    n = list((PolyQ(h) * PolyQ((-1) ** (g + k) * c for k, c in enumerate(h))).coeffs[::2])
    for i in range(g):
        for k in range(g - 1, i - 1, -1):
            n[k] += 4 * q * n[k + 1]
    return min(n) >= 0


class FunctionFieldData(Record):
    """A global function field presented by its counting data.

    q is a prime power of at most MAX_Q; l_poly is P(T), a Weil
    q-polynomial with integer coefficients, lowest degree first; genus is
    at most MAX_GENUS; deg_inf is the degree of the chosen place at
    infinity, at most MAX_PLACE_DEGREE.  Place counts up to degree
    CHECKED_DEGREES are checked non-negative at construction.

    Five memos ride along, outside equality, the hash and the repr, and
    a field built again from its four values starts with all five empty:
    _counts, the place counts b_1, b_2, ... (both paths);
    _points, the point counts N_1, N_2, ... they were summed from, at
    least as far as _counts (the Euler-product series only);
    _zeta_values, zeta_K(-i) by i (the mass side only);
    _closed_form_values, each closed-form factor's value at u = 1 by its
    key (the closed form only);
    _class_number, deg_inf * P(1) once class_number_A has checked it (the
    mass side only).
    """

    _fields = ("q", "genus", "l_poly", "deg_inf")
    __slots__ = (
        *_fields, "_counts", "_points", "_zeta_values", "_closed_form_values", "_class_number"
    )

    def __init__(self, q: int, genus: int, l_poly: PolyQ, deg_inf: int):
        self.q = q
        self.genus = genus
        self.l_poly = l_poly
        self.deg_inf = deg_inf
        # b_1, b_2, ... and N_1, N_2, ... as far as computed; grown
        # together by _place_counts
        self._counts: tuple[int, ...] = ()
        self._points: tuple[int, ...] = ()
        # zeta_K(-i) by i, filled by zeta_special_value (the mass side only)
        self._zeta_values: dict[int, Fraction] = {}
        # (j, m) -> P or Phi*_m at q^j, filled by orderzeta._at_one
        # (the closed form only)
        self._closed_form_values: dict[tuple[int, int], int] = {}
        # deg_inf * P(1), filled by class_number_A (the mass side only)
        self._class_number: int | None = None

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
        elif self.genus > MAX_GENUS:
            problems.append(f"genus {self.genus} is above the cap {MAX_GENUS}")
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
        if not real_roots_within(_trace_polynomial(p, self.q, g), self.q):
            raise InvalidFieldError(f"count polynomial is not a Weil {self.q}-polynomial")

        upto = max(CHECKED_DEGREES, self.deg_inf)
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
        once per field and extended when a higher degree is asked for;
        the point counts N_1 .. N_upto they are summed from are kept
        beside them in _points."""
        if len(self._counts) < upto:
            self._counts, self._points = self._compute_place_counts(upto)
        return self._counts[:upto]

    def _compute_place_counts(self, upto: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The stored counts extended to b_1 .. b_upto, and N_1 .. N_upto
        from one point_counts call: only the degrees not yet counted are
        summed, and a failure stores nothing."""
        n_counts = self.point_counts(upto)
        out = list(self._counts)
        for n in range(len(out) + 1, upto + 1):
            total = sum(_mobius(n // d) * n_counts[d - 1] for d in _divisors(n))
            if total % n != 0:
                # N_n is a trace of a power of an integer matrix (Gauss's congruence)
                raise InternalConsistencyError(f"degree-{n} place count is not integral")
            b = total // n
            if b < 0:
                raise InvalidFieldError(f"degree-{n} place count is negative")
            out.append(b)
        return tuple(out), tuple(n_counts)


def zeta_K(data: FunctionFieldData) -> RationalFunctionQ:
    """The field zeta function in u = q**(-s): P(u)/((1-u)(1-qu)), coprime
    as built, as P's roots have absolute value q^(-1/2)."""
    den = PolyQ.one_minus(1, 1) * PolyQ.one_minus(data.q, 1)
    return coprime_ratfun(data.l_poly, den)


def zeta_special_value(data: FunctionFieldData, i: int) -> Fraction:
    """zeta_K at s = -i, i.e. at u = q**i: P(q^i)/((1-q^i)(1-q^{i+1})).

    P(q^i) by Horner's rule in integers; one Fraction at the end.  The
    value is kept on the field, one entry per i asked for (i < MAX_RANK
    from the mass engine); the memo takes no part in equality, and a
    field built again from its four values starts with none.  This memo
    is the mass side's: the order-zeta closed form never reads it."""
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
    deg_inf * P(1), positive as P's inverse roots are non-real in
    conjugate pairs or +-sqrt(q), each with even multiplicity.  P(1) is
    evaluated and checked on the first call only; the class number is kept
    on the field, outside equality."""
    h = data._class_number
    if h is None:
        p1 = data.l_poly.eval(1)
        if p1 <= 0:
            raise InternalConsistencyError(f"P(1) = {p1} is not a positive integer")
        h = data._class_number = data.deg_inf * p1
    return h


def places_of_degree(data: FunctionFieldData, n: int) -> int:
    """Number of places of K of degree exactly n."""
    if n < 1:
        raise InvalidArgumentError("degree must be >= 1")
    return data._place_counts(n)[n - 1]


def finite_places_of_degree(data: FunctionFieldData, n: int) -> int:
    """Number of finite places of degree n: the places of degree n, less
    the place at infinity when n = deg_inf."""
    return places_of_degree(data, n) - (n == data.deg_inf)


def zeta_A(data: FunctionFieldData) -> RationalFunctionQ:
    """Zeta with the infinity factor removed, (1 - u^{deg_inf}) P(u) /
    ((1-u)(1-qu)) = (1 + u + ... + u^{deg_inf-1}) P(u) / (1-qu): coprime
    as built (roots of absolute value 1, q^(-1/2) and 1/q), no pole at 1."""
    return coprime_ratfun(PolyQ((1,) * data.deg_inf) * data.l_poly, PolyQ.one_minus(data.q, 1))


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
