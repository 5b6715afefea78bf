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
precision N is a residue mod pi^N with N stored coefficients.  Sums of
products of series are built by two kernels.

- `log_dot` builds sum_t pi^(s_t) x_t y_t from the operands as
  (position, log) lists of their nonzero coefficients.  In
  characteristic 2 each product is read off a doubled exp table and
  XORed into its output coefficient; in odd characteristic it is
  Zech-added straight into one log-domain accumulator per output
  coefficient (-1 standing for the log of 0), and each accumulator is
  mapped back through the exp table once.  The series product and the
  sieve's product of two monics are its one-term cases; the
  division-algebra products of `localmodels` and the combinations of
  `localvolumes`'s sublattice oracle are its many-term cases.
- `packed_mat_mul` builds the matrix products of `localmodels` by
  Kronecker substitution: each series becomes one integer holding the
  base-p digits of its coefficients in lanes, an entry of the product
  is a sum of big-int products, and a few passes over the bytes and
  big ints of the whole product reduce its lanes to codes (`_Packing`).

Only `_mul_raw`, which builds a field's tables, multiplies polynomials
without them; scalars alone, as in the row reduction of
`gl_count_bruteforce`, go through `FqField.add`, `mul`, `sub` and `inv`.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from operator import mul
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
        self._lane_tables: dict[int, tuple[bytes, ...]] = {}
        # the lane layouts of `packed_mat_mul`, by precision and shape
        self._packings: dict[tuple[int, int, int, int], _Packing] = {}

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

    def lane_table(self, width: int) -> tuple[bytes, ...]:
        """The map code -> one pi-block of `packed_mat_mul`: the code's e
        base-p digits, least significant first, each in a lane of `width`
        little-endian bytes, then e - 1 empty lanes; built on first use
        and kept."""
        table = self._lane_tables.get(width)
        if table is None:
            # the codes of k + 1 digits from those of k: code = c + p * rest
            lanes = [c.to_bytes(width, "little") for c in range(self.p)]
            codes = [b""]
            for _ in range(self.e):
                codes = [lane + rest for rest in codes for lane in lanes]
            pad = bytes(width * (self.e - 1))
            table = self._lane_tables[width] = tuple(code + pad for code in codes)
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


# ----------------------------------------------------------------------
# Matrices of series as packed integers (Kronecker substitution)
# ----------------------------------------------------------------------

def _widen(digits: bytes) -> bytearray:
    """digits with each byte in a 2-byte little-endian lane."""
    out = bytearray(2 * len(digits))
    out[::2] = digits
    return out


def _lanes(raw: bytes, width: int) -> memoryview:
    """The values of raw's little-endian lanes of `width` (2, 4 or 8)
    bytes, read through a memoryview cast; on a big-endian machine the
    bytes are reversed before the cast and the lanes after it."""
    fmt = {2: "H", 4: "I", 8: "Q"}[width]
    if sys.byteorder == "little":
        return memoryview(raw).cast(fmt)
    return memoryview(raw[::-1]).cast(fmt)[::-1]


class _Packing:
    """The lane layout of `packed_mat_mul` for one field, one precision
    and one shape, with every constant of its packing and decoding;
    built on first use and kept on the field.

    A series of precision n becomes one integer of n pi-blocks of 2e - 1
    lanes, `width` bytes each: block k holds the base-p digits of the
    coefficient at pi^k in its first e lanes.  The product of two such
    integers holds in block k the residue polynomial of coefficient k of
    the series product, unreduced: degree at most 2e - 2, so blocks never
    overlap, and each lane at most bound = (p - 1)**2 * n * e, a sum over
    at most n pi-positions and e residue positions."""

    __slots__ = (
        "p", "e", "lanes", "terms", "width", "chunk", "table", "size", "mask",
        "mod_p", "reduce_width", "low", "first", "residues", "code_width", "horner",
    )

    def __init__(self, field: FqField, precision: int, terms: int, entries: int):
        p, e = field.p, field.e
        lanes = 2 * e - 1
        bound = (p - 1) ** 2 * precision * e
        if bound + p - 1 < 256:
            # byte lanes, reduced mod p by bytes.translate; the terms are
            # summed in chunks, each added to the reduced sum of the ones
            # before it, so no lane passes 255
            width = 1
            chunk = terms if terms * bound < 256 else (256 - p) // bound
        else:
            # all the terms summed at once, in lanes of 2, 4 or 8 bytes
            width = next(w for w in (2, 4, 8) if terms * bound < 1 << 8 * w)
            chunk = terms
        self.p, self.e, self.lanes, self.terms = p, e, lanes, terms
        self.width, self.chunk = width, chunk
        self.table = field.lane_table(width)
        self.size = width * lanes * precision
        self.mask = (1 << 8 * self.size) - 1
        self.mod_p = bytes(i % p for i in range(256))
        if e == 1:
            return
        blocks = entries * precision
        # x^(e+s) = r_s(x) mod the modulus moves the digit in lane e + s,
        # times the digits of r_s, onto lanes 0 .. e - 1, each of which
        # then holds at most (p - 1) + (e - 1) * (p - 1)**2
        rw = self.reduce_width = 1 if (p - 1) + (e - 1) * (p - 1) ** 2 < 256 else 2
        self.low = int.from_bytes((b"\xff" * rw * e + bytes(rw * (e - 1))) * blocks, "little")
        self.first = int.from_bytes((b"\xff" * rw + bytes(rw * (lanes - 1))) * blocks, "little")
        self.residues = [
            (8 * rw * (e + s), int.from_bytes(
                b"".join([c.to_bytes(rw, "little") for c in digits(field.pow(p, e + s), p, e)]),
                "little",
            ))
            for s in range(e - 1)
        ]
        # digits c_t times sum_j p^(e-1-j) x^j put sum_t c_t p^t, the
        # code, in lane e - 1 of each block; no lane reaches q
        cw = self.code_width = 1 if field.q <= 256 else 2
        self.horner = sum(p ** (e - 1 - j) << 8 * cw * j for j in range(e))

    def pack(self, matrix: Sequence[Sequence[TruncatedSeriesFq]]) -> list[int]:
        """Every entry of matrix as one integer, row-major: a table lookup
        per code, one join for the whole matrix and one int.from_bytes
        per entry."""
        table, size = self.table, self.size
        raw = b"".join([table[c] for row in matrix for x in row for c in x.coeffs])
        return [int.from_bytes(raw[k:k + size], "little") for k in range(0, len(raw), size)]

    def lane_digits(self, rows: list[list[int]], cols: list[list[int]]):
        """The lanes of every entry sum_k row_k col_k mod p, entries
        row-major, each masked to its first n pi-blocks.  Byte lanes take
        the terms a chunk at a time, each chunk's sums added to the
        reduced lanes of the chunks before it."""
        mask, size, chunk, width = self.mask, self.size, self.chunk, self.width
        parts = [(rows, cols)] if chunk >= self.terms else [
            ([r[k:k + chunk] for r in rows], [c[k:k + chunk] for c in cols])
            for k in range(0, self.terms, chunk)
        ]
        digits = None
        for part_rows, part_cols in parts:
            raw = b"".join([(sum(map(mul, r, c)) & mask).to_bytes(size, "little")
                            for r in part_rows for c in part_cols])
            if digits is not None:
                raw = (int.from_bytes(raw, "little") + int.from_bytes(digits, "little")
                       ).to_bytes(len(raw), "little")
            if width == 1:
                digits = raw.translate(self.mod_p)
            else:
                digits = list(map(self.p.__rmod__, _lanes(raw, width)))
        return digits

    def codes(self, digits) -> Sequence[int]:
        """The code of each pi-coefficient from the 2e - 1 digits of its
        block: the high e - 1 reduced onto the low e on the packed
        lanes, which go mod p again and are read base p."""
        e = self.e
        if e == 1:
            return digits
        digits, rw, lanes = bytes(digits), self.reduce_width, self.lanes
        whole = int.from_bytes(digits if rw == 1 else _widen(digits), "little")
        low, first = whole & self.low, self.first
        for shift, residue in self.residues:
            low += (whole >> shift & first) * residue
        raw = low.to_bytes(rw * len(digits), "little")
        if rw == 1:
            digits = raw.translate(self.mod_p)
        else:
            digits = bytes(map(self.p.__rmod__, _lanes(raw, 2)))
        cw = self.code_width
        raw = (int.from_bytes(digits if cw == 1 else _widen(digits), "little") * self.horner
               ).to_bytes(cw * len(digits), "little")
        return raw[e - 1::lanes] if cw == 1 else _lanes(raw, 2)[e - 1::lanes]


def packed_mat_mul(
    a: Sequence[Sequence[TruncatedSeriesFq]], b: Sequence[Sequence[TruncatedSeriesFq]]
) -> list[list[TruncatedSeriesFq]]:
    """The product of two matrices of series over one field at one
    precision: entry (i, j) is sum_k a_ik b_kj, by Kronecker substitution.

    Each entry is packed once into one integer (see `_Packing`), and an
    entry of the product is sum(map(mul, row, col)): one big-int
    product per term.  The lanes of the whole product are then reduced
    mod p, in one pass per chunk of terms, and each pi-coefficient's
    2e - 1 digits are reduced modulo the field's modulus to a code."""
    field, n = a[0][0].field, a[0][0].precision
    terms, width = len(b), len(b[0])
    key = (n, len(a), terms, width)
    packing = field._packings.get(key)
    if packing is None:
        packing = field._packings[key] = _Packing(field, n, terms, len(a) * width)
    packed = packing.pack(a)
    rows = [packed[k:k + terms] for k in range(0, len(packed), terms)]
    packed = packing.pack(b)
    cols = [packed[k::width] for k in range(width)]
    codes = packing.codes(packing.lane_digits(rows, cols))
    step = width * n
    return [
        [TruncatedSeriesFq(field, n, tuple(codes[k:k + n])) for k in range(i, i + step, n)]
        for i in range(0, len(codes), step)
    ]
