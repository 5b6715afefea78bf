"""Concrete matrix models of local division algebras and the standard
hereditary order, and the checks of their defining relations.

The local field is modeled as F_{q_v}((pi)) truncated at a fixed
precision; the unramified degree-d extension L has residue field
F_{q_v^d} and the same uniformizer.  The division algebra of invariant
b/d is L[P] with P^d = pi and P^{-1} c P = tau(c), tau the m-th power
of the residue Frobenius where b*m = 1 mod d.  Left multiplication
embeds it into d x d matrices over L; the embedding lands inside the
hereditary order of upper-triangular-mod-pi matrices, and all of that
is checked by explicit computation here rather than assumed.

Everything in this module is desk-scale: the residue field of L has
q_v^d <= 4096 elements (the cap on every finite field here), so the
matrices are d x d with d at most 12.  Matrix entries and division-algebra
coefficients are sums of products, each built in one pass by the
log-domain dot kernel `finitefield.log_dot`.  The Frobenius tau^j acts
on codes through a per-field power table when the matrix of an element
is built, and on logs, as multiplication by q_v^e mod q_v^d - 1, inside
the division-algebra product.

Only `local model-check` and the local-models suite load this module.
The volumes, the Iwahori index and the brute-force oracles live in
`localvolumes`, which the other local commands read without loading
the models.  This module takes nothing from `localvolumes`: the
residue-size check both run lives in `errors`, so `local model-check`
loads `errors`, `record`, `finitefield` and this module, and neither
`localvolumes`, `algebra` nor `fractions`.  `ModelCheckReport` is the
package's one dataclass (the benchmark's tests copy reports with
`dataclasses.replace`), so this is the one module that imports
`dataclasses`: at the top, never inside a function, where the import
would land in the first model check a caller times.  Every other value
class is a `record.Record`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .errors import (
    EmptySelectionError,
    InvalidArgumentError,
    InvalidFieldError,
    InvalidRamificationError,
    PrecisionExhaustedError,
    PrecisionTooHighError,
    PrecisionTooLowError,
    SelectionTooLargeError,
    _check_residue_size,
    int_excerpt,
)
from .finitefield import (
    FIELD_SIZE_CAP,
    FqField,
    TruncatedSeriesFq,
    fq_series,
    log_dot,
)
from .record import Record

Mat = tuple[tuple[TruncatedSeriesFq, ...], ...]

# Caps on the pi-adic precision and the random pair count of the model
# checks.  A pair costs about d^3 products of series, each quadratic in
# the precision.  The worst case is q_v = 2, d = 12 (residue field
# F_4096): at both caps `run_model_checks` takes 8-9 s, at the defaults
# (precision 6, 100 pairs) about 0.5 s (2-CPU machine).
MAX_MODEL_PRECISION = 16
MAX_MODEL_PAIRS = 250


class LocalModel(Record):
    """One local division algebra at finite pi-adic precision.  The
    constructor checks its arguments and derives m_bez, the 1 <= m <= d
    with b*m = 1 mod d, and residue_field, the residue field of L of
    size q_v**d."""

    __slots__ = _fields = (
        "q_v", "d", "b", "m_bez", "precision", "residue_field",
    )

    def __init__(self, q_v: int, d: int, b: int, precision: int = 6):
        _check_residue_size(q_v)
        if d < 1:
            raise InvalidRamificationError(f"index d = {int_excerpt(d)} must be >= 1")
        if gcd(b, d) != 1:
            raise InvalidRamificationError(
                f"invariant numerator {int_excerpt(b)} not coprime to {int_excerpt(d)}"
            )
        if precision < 2:
            raise PrecisionTooLowError(
                "precision below 2 cannot even hold the uniformizer relation"
            )
        # q_v >= 2, so an index past the cap's bit length is over the cap
        # without computing q_v**d
        if d >= FIELD_SIZE_CAP.bit_length() or q_v ** d > FIELD_SIZE_CAP:
            raise InvalidFieldError(
                f"residue field of order {q_v}^{int_excerpt(d)} exceeds the {FIELD_SIZE_CAP} cap"
            )
        self.q_v = q_v
        self.d = d
        self.b = b
        self.m_bez = 1 if d == 1 else pow(b, -1, d)
        self.precision = precision
        self.residue_field = FqField.of_order(q_v ** d)

    # -- elements of O_L ---------------------------------------------------

    def series(self, coeffs) -> TruncatedSeriesFq:
        return fq_series(self.residue_field, coeffs, self.precision)

    def zero(self) -> TruncatedSeriesFq:
        return self.series(())

    def one(self) -> TruncatedSeriesFq:
        return self.series((1,))

    def pi(self) -> TruncatedSeriesFq:
        return self.series((0, 1))

    def tau_power(self, a: TruncatedSeriesFq, j: int) -> TruncatedSeriesFq:
        e = (self.m_bez * j) % self.d
        if e == 0:
            return a
        table = self.frobenius_table(e)
        return TruncatedSeriesFq(a.field, a.precision, tuple(table[c] for c in a.coeffs))

    def frobenius_table(self, e: int) -> tuple[int, ...]:
        """code -> code**(q_v**e) on the residue field of L, the e-th
        power of the residue Frobenius; built on first use."""
        return self.residue_field.power_table(self.q_v ** e)

    def random_integral(self, rng: random.Random) -> TruncatedSeriesFq:
        f = self.residue_field
        return self.series([rng.randrange(f.q) for _ in range(self.precision)])


def _mat_from_rows(rows) -> Mat:
    return tuple(tuple(row) for row in rows)


def mat_scalar(model: LocalModel, a: TruncatedSeriesFq) -> Mat:
    return _mat_from_rows(
        [
            [a if i == j else model.zero() for j in range(model.d)]
            for i in range(model.d)
        ]
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Entry (i, j) is sum_k a_ik b_kj, one `log_dot` per entry."""
    field, n = a[0][0].field, a[0][0].precision
    # each entry in log form once per matrix; an empty list is a zero
    # entry, and the sparse companion-matrix powers have many to skip
    a_logs = [[e.log_terms() for e in row] for row in a]
    b_cols = list(zip(*([e.log_terms() for e in row] for row in b)))
    return _mat_from_rows(
        [
            TruncatedSeriesFq(
                field, n, log_dot(field, [(x, y, 0) for x, y in zip(row, col) if x and y], n)
            )
            for col in b_cols
        ]
        for row in a_logs
    )


def mat_pow(a: Mat, n: int, model: LocalModel) -> Mat:
    """a**n by squaring from the top bit of n down: n.bit_length() - 1
    squarings and n.bit_count() - 1 products by a, the identity at 0."""
    if n < 0:
        raise ValueError("negative matrix power")
    if n == 0:
        return mat_scalar(model, model.one())
    result = a
    for bit in bin(n)[3:]:
        result = mat_mul(result, result)
        if bit == "1":
            result = mat_mul(result, a)
    return result


def phi_of_pi(model: LocalModel) -> Mat:
    """Companion-style matrix: pi in the top-right corner, ones on the
    subdiagonal, zero elsewhere."""
    d = model.d
    rows = []
    for i in range(d):
        row = [model.zero()] * d
        if i == 0:
            row[d - 1] = model.pi()
        else:
            row[i - 1] = model.one()
        rows.append(row)
    return _mat_from_rows(rows)


def phi_of_element(model: LocalModel, coeffs) -> Mat:
    """Matrix of x = sum_i P^i a_i, i.e. sum_i phi_of_pi^i * diag(tau^c(a_i)).

    Built entry by entry: entry (r, c) is tau^c(a_{(r-c) mod d}), times
    pi when c > r, where the power of P has wrapped past P^d = pi.  Each
    column maps every coefficient tuple through one Frobenius table."""
    coeffs = list(coeffs)
    d, n, field = model.d, model.precision, model.residue_field
    if len(coeffs) != d:
        raise ValueError(f"need exactly {d} coefficients")
    rows = [[None] * d for _ in range(d)]
    for c in range(d):
        e = (model.m_bez * c) % d
        table = model.frobenius_table(e).__getitem__ if e else None
        for i, a in enumerate(coeffs):
            t = tuple(map(table, a.coeffs)) if e else a.coeffs
            r = i + c
            if r >= d:
                rows[r - d][c] = TruncatedSeriesFq(field, n, (0,) + t[:-1])
            else:
                rows[r][c] = TruncatedSeriesFq(field, n, t) if e else a
    return _mat_from_rows(rows)


def delta_mul(model: LocalModel, xs, ys) -> tuple[TruncatedSeriesFq, ...]:
    """Product in the division algebra, in normal form.

    (sum P^i x_i)(sum P^j y_j) = sum P^{i+j} tau^j(x_i) y_j, then
    P^{i+j} folds to pi^{(i+j) div d} P^{(i+j) mod d}.  tau^j raises
    every coefficient to the power q_v^e, e = m*j mod d, so on logs it
    is multiplication by q_v^e mod q_v^d - 1, and each x_i enters log
    form once.
    """
    d, n, field = model.d, model.precision, model.residue_field
    order = field._order
    x_logs = [x.log_terms() for x in xs]
    # the terms of each output coefficient P^k, the pi power as shift
    terms = [[] for _ in range(d)]
    for j, y in enumerate(ys):
        y_log = y.log_terms()
        if not y_log:
            continue
        frob = model.q_v ** ((model.m_bez * j) % d)
        for i, x_log in enumerate(x_logs):
            tau_x = x_log if frob == 1 else [(pos, lx * frob % order) for pos, lx in x_log]
            terms[(i + j) % d].append((tau_x, y_log, (i + j) // d))
    return tuple(TruncatedSeriesFq(field, n, log_dot(field, t, n)) for t in terms)


def in_iwahori(mat: Mat, denominator_exponent: int = 0) -> bool:
    """Membership in the hereditary order: integral entries with the
    strictly-upper-triangular ones divisible by pi.

    A matrix with denominators is passed as pi^{-k} * (integral matrix)
    with denominator_exponent = k; membership then needs valuation >= k
    on and below the diagonal and >= k + 1 above it.
    """
    if denominator_exponent < 0:
        raise InvalidArgumentError("denominator exponent must be >= 0")
    precision = mat[0][0].precision
    if denominator_exponent >= precision:
        raise PrecisionExhaustedError(
            f"cannot certify valuations >= {denominator_exponent} "
            f"at precision {precision}"
        )
    for i, row in enumerate(mat):
        for j, entry in enumerate(row):
            needed = denominator_exponent + (1 if j > i else 0)
            v = entry.valuation()
            if v is not None and v < needed:
                return False
    return True


# ----------------------------------------------------------------------
# Relation suite over one model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModelCheckReport:
    q_v: int
    d: int
    b: int
    precision: int
    pairs_checked: int
    multiplicativity_ok: bool
    pi_power_ok: bool
    embedding_in_order_ok: bool
    negative_valuation_excluded_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.multiplicativity_ok
            and self.pi_power_ok
            and self.embedding_in_order_ok
            and self.negative_valuation_excluded_ok
        )


def run_model_checks(
    q_v: int, d: int, b: int, precision: int = 6, pairs: int = 100, seed: int = 0
) -> ModelCheckReport:
    """Exercise the defining relations of one local model.

    Checks, in order: the embedding is multiplicative on random pairs;
    the companion matrix raised to d equals pi times the identity; the
    image of every sampled integral element lies in the hereditary
    order; elements with a negative-valuation coefficient land outside.
    """
    if pairs < 1:
        raise EmptySelectionError(f"pairs {int_excerpt(pairs)} must be >= 1")
    if pairs > MAX_MODEL_PAIRS:
        raise SelectionTooLargeError(
            f"pairs {int_excerpt(pairs)} is above the cap {MAX_MODEL_PAIRS}"
        )
    if precision > MAX_MODEL_PRECISION:
        raise PrecisionTooHighError(
            f"precision {int_excerpt(precision)} is above the cap {MAX_MODEL_PRECISION}"
        )
    model = LocalModel(q_v, d, b, precision)
    rng = random.Random(seed)

    mult_ok = True
    embed_ok = True
    for _ in range(pairs):
        xs = [model.random_integral(rng) for _ in range(d)]
        ys = [model.random_integral(rng) for _ in range(d)]
        phi_x, phi_y = phi_of_element(model, xs), phi_of_element(model, ys)
        if mat_mul(phi_x, phi_y) != phi_of_element(model, delta_mul(model, xs, ys)):
            mult_ok = False
        if not in_iwahori(phi_x):
            embed_ok = False
        if not in_iwahori(phi_y):
            embed_ok = False

    pi_ok = mat_pow(phi_of_pi(model), d, model) == mat_scalar(model, model.pi())

    neg_ok = True
    for _ in range(max(pairs // 4, 1)):
        # x = pi^{-1} * y where some y_i is a unit, i.e. some
        # coefficient of x has valuation -1
        ys = [model.random_integral(rng) for _ in range(d)]
        slot = rng.randrange(d)
        coeffs = list(ys[slot].coeffs)
        coeffs[0] = rng.randrange(1, model.residue_field.q)
        ys[slot] = model.series(coeffs)
        if in_iwahori(phi_of_element(model, ys), denominator_exponent=1):
            neg_ok = False

    return ModelCheckReport(
        q_v=q_v,
        d=d,
        b=b,
        precision=precision,
        pairs_checked=pairs,
        multiplicativity_ok=mult_ok,
        pi_power_ok=pi_ok,
        embedding_in_order_ok=embed_ok,
        negative_valuation_excluded_ok=neg_ok,
    )
