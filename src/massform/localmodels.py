"""Concrete matrix models of local division algebras, the standard
hereditary order, and local volume ratios, with brute-force oracles.

The local field is modeled as F_{q_v}((pi)) truncated at a fixed
precision; the unramified degree-d extension L has residue field
F_{q_v^d} and the same uniformizer.  The division algebra of invariant
b/d is L[P] with P^d = pi and P^{-1} c P = tau(c), tau the m-th power
of the residue Frobenius where b*m = 1 mod d.  Left multiplication
embeds it into d x d matrices over L; the embedding lands inside the
hereditary order of upper-triangular-mod-pi matrices, and all of that
is checked by explicit computation here rather than assumed.

Everything in this module is desk-scale: fields stay tiny, matrices at
most 8 x 8, and the brute-force counters enforce hard input bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    BruteForceTooLargeError,
    EmptySelectionError,
    InternalConsistencyError,
    InvalidFieldError,
    InvalidRamificationError,
    NotDivisibleError,
    PrecisionExhaustedError,
    PrecisionTooLowError,
)
from .finitefield import (
    FqField,
    TruncatedSeriesFq,
    factor_prime_power,
    fq_series,
    fq_series_one,
    fq_series_pi,
    fq_series_zero,
)

Mat = tuple[tuple[TruncatedSeriesFq, ...], ...]


def _check_residue_size(q_v: int) -> None:
    try:
        factor_prime_power(q_v)
    except ValueError as exc:
        raise InvalidFieldError(f"residue size q_v: {exc}") from None


@dataclass(frozen=True)
class LocalModel:
    """One local division algebra at finite pi-adic precision."""

    q_v: int
    d: int
    b: int
    m_bez: int          # 1 <= m <= d with b*m + d*mprime = 1
    mprime_bez: int
    precision: int
    residue_field: FqField      # residue field of L, size q_v**d

    @staticmethod
    def create(q_v: int, d: int, b: int, precision: int = 6) -> "LocalModel":
        _check_residue_size(q_v)
        if d < 1:
            raise ValueError("index d must be >= 1")
        if gcd(b, d) != 1:
            raise ValueError(f"invariant numerator {b} not coprime to {d}")
        if precision < 2:
            raise PrecisionTooLowError(
                "precision below 2 cannot even hold the uniformizer relation"
            )
        m = 1 if d == 1 else pow(b, -1, d)
        mprime = (1 - b * m) // d
        assert b * m + d * mprime == 1 and 1 <= m <= d
        return LocalModel(
            q_v=q_v,
            d=d,
            b=b,
            m_bez=m,
            mprime_bez=mprime,
            precision=precision,
            residue_field=FqField.of_order(q_v ** d),
        )

    # -- elements of O_L ---------------------------------------------------

    def series(self, coeffs) -> TruncatedSeriesFq:
        return fq_series(self.residue_field, coeffs, self.precision)

    def zero(self) -> TruncatedSeriesFq:
        return fq_series_zero(self.residue_field, self.precision)

    def one(self) -> TruncatedSeriesFq:
        return fq_series_one(self.residue_field, self.precision)

    def pi(self) -> TruncatedSeriesFq:
        return fq_series_pi(self.residue_field, self.precision)

    def tau(self, a: TruncatedSeriesFq) -> TruncatedSeriesFq:
        """The chosen generator of Gal(L/K_v) applied coefficientwise."""
        return self.tau_power(a, 1)

    def tau_power(self, a: TruncatedSeriesFq, j: int) -> TruncatedSeriesFq:
        f = self.residue_field
        e = (self.m_bez * j) % self.d
        if e == 0:
            return a
        return a.map_coeffs(lambda c: f.pow(c, self.q_v ** e))

    def random_integral(self, rng: random.Random) -> TruncatedSeriesFq:
        f = self.residue_field
        return self.series([rng.randrange(f.q) for _ in range(self.precision)])


def _mat_from_rows(rows) -> Mat:
    return tuple(tuple(row) for row in rows)


def mat_identity(model: LocalModel) -> Mat:
    return _mat_from_rows(
        [
            [model.one() if i == j else model.zero() for j in range(model.d)]
            for i in range(model.d)
        ]
    )


def mat_scalar(model: LocalModel, a: TruncatedSeriesFq) -> Mat:
    return _mat_from_rows(
        [
            [a if i == j else model.zero() for j in range(model.d)]
            for i in range(model.d)
        ]
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    d = len(a)
    # the companion-matrix powers that dominate this module are sparse,
    # so skipping zero factors is a large win
    a_zero = [[e.is_zero() for e in row] for row in a]
    b_zero = [[e.is_zero() for e in row] for row in b]
    zero = a[0][0] + (-a[0][0])
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = None
            for k in range(d):
                if a_zero[i][k] or b_zero[k][j]:
                    continue
                term = a[i][k] * b[k][j]
                acc = term if acc is None else acc + term
            row.append(zero if acc is None else acc)
        rows.append(row)
    return _mat_from_rows(rows)


def mat_add(a: Mat, b: Mat) -> Mat:
    return _mat_from_rows(
        [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    )


def mat_pow(a: Mat, n: int, model: LocalModel) -> Mat:
    result = mat_identity(model)
    while n:
        if n & 1:
            result = mat_mul(result, a)
        a = mat_mul(a, a)
        n >>= 1
    return result


def phi_of_scalar(model: LocalModel, a0: TruncatedSeriesFq) -> Mat:
    """diag(a0, tau(a0), ..., tau^{d-1}(a0))."""
    return _mat_from_rows(
        [
            [
                model.tau_power(a0, i) if i == j else model.zero()
                for j in range(model.d)
            ]
            for i in range(model.d)
        ]
    )


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
    """Matrix of x = sum_i P^i a_i: sum of phi_of_pi^i * phi_of_scalar(a_i)."""
    coeffs = list(coeffs)
    if len(coeffs) != model.d:
        raise ValueError(f"need exactly {model.d} coefficients")
    pi_mat = phi_of_pi(model)
    power = mat_identity(model)
    total = None
    for a in coeffs:
        term = mat_mul(power, phi_of_scalar(model, a))
        total = term if total is None else mat_add(total, term)
        power = mat_mul(power, pi_mat)
    return total


def delta_mul(model: LocalModel, xs, ys) -> tuple[TruncatedSeriesFq, ...]:
    """Product in the division algebra, in normal form.

    (sum P^i x_i)(sum P^j y_j) = sum P^{i+j} tau^j(x_i) y_j, then
    P^{i+j} folds to pi^{(i+j) div d} P^{(i+j) mod d}.
    """
    xs, ys = list(xs), list(ys)
    d = model.d
    out = [model.zero() for _ in range(d)]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            term = model.tau_power(x, j) * y
            term = term.shift(((i + j) // d))
            k = (i + j) % d
            out[k] = out[k] + term
    return tuple(out)


def in_iwahori(mat: Mat, denominator_exponent: int = 0) -> bool:
    """Membership in the hereditary order: integral entries with the
    strictly-upper-triangular ones divisible by pi.

    A matrix with denominators is passed as pi^{-k} * (integral matrix)
    with denominator_exponent = k; membership then needs valuation >= k
    on and below the diagonal and >= k + 1 above it.
    """
    if denominator_exponent < 0:
        raise ValueError("denominator exponent must be >= 0")
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


def iwahori_index(q_v: int, d: int, brute_force: bool = False) -> int:
    """Index of the hereditary order inside the full matrix order:
    q_v^{d^2 (d-1)/2}.

    With brute_force set, the strictly-upper residue patterns over the
    residue field of L are enumerated and deduplicated as coset labels,
    and the count is asserted equal to the formula."""
    _check_residue_size(q_v)
    if d < 1:
        raise ValueError("d must be >= 1")
    formula = q_v ** (d * d * (d - 1) // 2)
    if brute_force:
        slots = d * (d - 1) // 2
        big_q = q_v ** d
        if big_q ** slots > 2 ** 20:
            raise BruteForceTooLargeError(
                f"{big_q}^{slots} residue patterns exceed the 2^20 bound"
            )
        seen = set()
        for code in range(big_q ** slots):
            pattern = []
            x = code
            for _ in range(slots):
                pattern.append(x % big_q)
                x //= big_q
            seen.add(tuple(pattern))
        if len(seen) != formula:
            raise InternalConsistencyError(
                f"brute-force count {len(seen)} != formula {formula}"
            )
    return formula


# ----------------------------------------------------------------------
# Volumes
# ----------------------------------------------------------------------

def vol_G(q_v: int, r: int) -> Fraction:
    """Volume of the standard maximal compact of the split group:
    prod_{i=1..r} (q_v^i - 1) / q_v^{r(r+1)/2}."""
    if r < 1:
        raise ValueError("r must be >= 1")
    num = 1
    for i in range(1, r + 1):
        num *= q_v ** i - 1
    return Fraction(num, q_v ** (r * (r + 1) // 2))


def vol_Gprime(q_v: int, m: int, d: int) -> Fraction:
    """Volume on the inner form side, assembled from its two factors:
    the index correction q_v^{-m^2 d(d-1)/2} and the GL_m factor over
    the degree-d residue field."""
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    index_correction = Fraction(1, q_v ** (m * m * d * (d - 1) // 2))
    gl_num = 1
    for i in range(1, m + 1):
        gl_num *= q_v ** (i * d) - 1
    gl_factor = Fraction(gl_num, q_v ** (d * m * (m + 1) // 2))
    return index_correction * gl_factor


@dataclass(frozen=True)
class LocalVolumeReport:
    vol_G: Fraction
    vol_Gprime: Fraction
    ratio: Fraction


def local_volume_report(q_v: int, r: int, d: int) -> LocalVolumeReport:
    _check_residue_size(q_v)
    if r < 1 or d < 1:
        raise InvalidRamificationError(f"local rank {r} and index {d} must be >= 1")
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
        raise EmptySelectionError(f"pairs {pairs} must be >= 1")
    model = LocalModel.create(q_v, d, b, precision)
    rng = random.Random(seed)

    mult_ok = True
    embed_ok = True
    for _ in range(pairs):
        xs = [model.random_integral(rng) for _ in range(d)]
        ys = [model.random_integral(rng) for _ in range(d)]
        lhs = mat_mul(phi_of_element(model, xs), phi_of_element(model, ys))
        rhs = phi_of_element(model, delta_mul(model, xs, ys))
        if lhs != rhs:
            mult_ok = False
        if not in_iwahori(phi_of_element(model, xs)):
            embed_ok = False
        if not in_iwahori(phi_of_element(model, ys)):
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
