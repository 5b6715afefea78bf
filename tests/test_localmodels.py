import random
from fractions import Fraction
from math import gcd

import pytest

from massform import localmodels
from massform.csa import lambda_value
from massform.errors import (
    BruteForceTooLargeError,
    InvalidArgumentError,
    InvalidFieldError,
    InvalidRamificationError,
    NotDivisibleError,
    PrecisionExhaustedError,
)
from massform.finitefield import TruncatedSeriesFq
from massform.localmodels import (
    LocalModel,
    delta_mul,
    in_iwahori,
    mat_mul,
    mat_pow,
    mat_scalar,
    phi_of_element,
    phi_of_pi,
    run_model_checks,
)
from massform.localvolumes import (
    gl_count_bruteforce,
    iwahori_index,
    lambda_from_volumes,
    local_volumes,
    sublattice_count_bruteforce,
    vol_G,
    vol_Gprime,
)
from massform.orderzeta import local_ideal_count


def _phi_of_scalar(model, a0):
    """diag(a0, tau(a0), ..., tau^{d-1}(a0))."""
    return tuple(
        tuple(model.tau_power(a0, i) if i == j else model.zero() for j in range(model.d))
        for i in range(model.d)
    )


def _series_add(x, y):
    f = x.field
    return TruncatedSeriesFq(
        f, x.precision, tuple(f.add(a, b) for a, b in zip(x.coeffs, y.coeffs))
    )


def _mat_add(a, b):
    return tuple(tuple(_series_add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _literal_sum(model, terms):
    """sum of the series in terms, one coefficient-wise add at a time."""
    total = model.zero()
    for term in terms:
        total = _series_add(total, term)
    return total


def _literal_mat_mul(model, a, b):
    """Entry (i, j) = sum_k a_ik * b_kj, each product a separate series."""
    d = model.d
    return tuple(
        tuple(
            _literal_sum(model, (a[i][k] * b[k][j] for k in range(d)))
            for j in range(d)
        )
        for i in range(d)
    )


def _literal_delta_mul(model, xs, ys):
    """Coefficient k = sum over i + j = k mod d of pi^((i+j) div d) tau^j(x_i) y_j."""
    d = model.d
    return tuple(
        _literal_sum(
            model,
            (
                (model.tau_power(x, j) * y).shift((i + j) // d)
                for i, x in enumerate(xs)
                for j, y in enumerate(ys)
                if (i + j) % d == k
            ),
        )
        for k in range(d)
    )


def _phi_reference(model, coeffs):
    """The literal definition: sum_i phi_of_pi^i * diag(tau^c(a_i))."""
    pi_mat = phi_of_pi(model)
    total = mat_scalar(model, model.zero())
    for i, a in enumerate(coeffs):
        total = _mat_add(total, mat_mul(mat_pow(pi_mat, i, model), _phi_of_scalar(model, a)))
    return total


def _models(ds=range(1, 5), q_vs=(2, 3)):
    """Every (q_v, d, b) with q_v in q_vs, 1 <= b <= d and b prime to d."""
    return [
        LocalModel(q_v, d, b)
        for q_v in q_vs
        for d in ds
        for b in range(1, d + 1)
        if gcd(b, d) == 1
    ]


def _sparse_integral(model, rng):
    """A random integral element with about half its coefficients 0, so
    zero entries and cancelling sums both occur."""
    q = model.residue_field.q
    return model.series(
        [0 if rng.random() < 0.5 else rng.randrange(q) for _ in range(model.precision)]
    )


def test_vol_G_frozen():
    assert vol_G(2, 2) == Fraction(3, 8)
    assert vol_G(3, 2) == Fraction(16, 27)
    assert vol_G(2, 1) == Fraction(1, 2)


def test_vol_Gprime_frozen():
    assert vol_Gprime(2, 1, 2) == Fraction(3, 8)
    assert vol_Gprime(3, 1, 2) == Fraction(8, 27)
    assert vol_Gprime(2, 2, 1) == Fraction(3, 8)


def test_vol_Gprime_with_trivial_index_matches_vol_G():
    for q in (2, 3, 4, 5):
        for r in (1, 2, 3, 4):
            assert vol_Gprime(q, r, 1) == vol_G(q, r)


def test_engine_domain_errors_are_typed():
    # input errors are typed where they are raised, so none can reach the
    # CLI as a bare ValueError
    with pytest.raises(InvalidRamificationError):
        vol_G(2, 0)
    for m, d in ((0, 1), (1, 0)):
        with pytest.raises(InvalidRamificationError):
            vol_Gprime(2, m, d)
    with pytest.raises(InvalidRamificationError):
        lambda_value(2, 0, 1)
    with pytest.raises(NotDivisibleError):
        lambda_value(2, 3, 2)
    model = LocalModel(2, 2, 1)
    with pytest.raises(InvalidArgumentError):
        in_iwahori(phi_of_pi(model), denominator_exponent=-1)


def test_lambda_from_volumes_frozen():
    assert lambda_from_volumes(2, 2, 2) == 1
    assert lambda_from_volumes(3, 2, 2) == 2
    assert lambda_from_volumes(4, 2, 2) == 3
    assert lambda_from_volumes(2, 2, 1) == 1


def test_lambda_from_volumes_matches_closed_form():
    # same quantity out of two unrelated pipelines
    for q in (2, 3, 4, 5):
        for r in (2, 3, 4, 6):
            for d in (1, 2, 3, 4, 6):
                if r % d != 0:
                    continue
                assert lambda_from_volumes(q, r, d) == lambda_value(q, r, d)
    assert lambda_from_volumes(3, 4, 2) == 52


def test_lambda_from_volumes_requires_divisibility():
    with pytest.raises(NotDivisibleError):
        lambda_from_volumes(2, 4, 3)


def test_volume_report_fields():
    vol_g, vol_gprime = local_volumes(3, 2, 2)
    assert vol_g == Fraction(16, 27)
    assert vol_gprime == Fraction(8, 27)
    assert vol_g / vol_gprime == lambda_from_volumes(3, 2, 2) == 2


def test_iwahori_index_frozen():
    assert iwahori_index(2, 1) == 1
    assert iwahori_index(5, 1) == 1
    assert iwahori_index(2, 2) == 4
    assert iwahori_index(2, 3) == 512
    assert iwahori_index(3, 2) == 9


def test_gl_count_frozen():
    assert gl_count_bruteforce(2, 2) == 6
    assert gl_count_bruteforce(3, 2) == 48
    assert gl_count_bruteforce(2, 3) == 168


def test_gl_count_matches_order_formula():
    # |GL_r(F_q)| = q^{r(r-1)/2} * prod (q^i - 1)
    for q, r in ((2, 2), (3, 2), (4, 2), (2, 3)):
        expected = q ** (r * (r - 1) // 2)
        for i in range(1, r + 1):
            expected *= q ** i - 1
        assert gl_count_bruteforce(q, r) == expected


def test_gl_count_bound():
    with pytest.raises(BruteForceTooLargeError):
        gl_count_bruteforce(2, 5)
    with pytest.raises(BruteForceTooLargeError):
        sublattice_count_bruteforce(2, 2, 6)


def test_sublattice_count_frozen():
    assert sublattice_count_bruteforce(2, 2, 1) == 3
    assert sublattice_count_bruteforce(2, 2, 2) == 7
    assert sublattice_count_bruteforce(2, 1, 3) == 1
    assert sublattice_count_bruteforce(3, 2, 1) == 4
    assert sublattice_count_bruteforce(4, 2, 1) == 5
    assert sublattice_count_bruteforce(2, 3, 1) == 7
    assert sublattice_count_bruteforce(2, 2, 0) == 1


def test_sublattice_count_matches_ideal_count():
    # unramified full matrix case: m_v = r, d_v = 1
    for q_v, r, ell in ((2, 2, 1), (2, 2, 2), (3, 2, 1), (4, 2, 1), (2, 3, 1)):
        assert sublattice_count_bruteforce(q_v, r, ell) == local_ideal_count(
            q_v, r, 1, ell
        )


def test_bezout_normalization():
    for d in (1, 2, 3, 4, 5, 6):
        for b in range(-d, d + 1):
            if gcd(b, d) != 1:
                continue
            model = LocalModel(2, d, b)
            assert 1 <= model.m_bez <= d
            assert b * model.m_bez % d == 1 % d


def test_model_rejects_bad_inputs():
    with pytest.raises(InvalidRamificationError):
        LocalModel(2, 4, 2)
    with pytest.raises(InvalidRamificationError):
        LocalModel(2, 0, 1)
    with pytest.raises(InvalidFieldError):
        LocalModel(3, 8, 1)
    with pytest.raises(InvalidFieldError):
        LocalModel(2, 10 ** 6, 1)
    assert LocalModel(2, 12, 1).residue_field.q == 4096
    with pytest.raises(PrecisionExhaustedError):
        LocalModel(2, 2, 1, precision=1)


def test_tau_is_frobenius_power():
    # q_v = 2, d = 2, b = 1: tau is the residue Frobenius x -> x^2,
    # which on F_4 swaps the two non-prime-field elements
    model = LocalModel(2, 2, 1)
    f = model.residue_field
    a = model.series([2, 3, 1])
    image = model.tau_power(a, 1)
    assert image.coeffs[: 3] == (3, 2, 1)
    for code in range(f.q):
        assert model.tau_power(model.series([code]), 1).coeffs[0] == f.pow(code, 2)


def test_phi_of_pi_power_is_uniformizer():
    for q_v in (2, 3, 4):
        for d in (1, 2, 3, 4, 5):
            model = LocalModel(q_v, d, 1)
            lhs = mat_pow(phi_of_pi(model), d, model)
            assert lhs == mat_scalar(model, model.pi())


def _repeated_power(a, n, model):
    """a**n as n - 1 products from the left; the identity at n = 0."""
    if n == 0:
        return mat_scalar(model, model.one())
    out = a
    for _ in range(n - 1):
        out = mat_mul(out, a)
    return out


def test_mat_pow_matches_repeated_products(monkeypatch):
    calls = []

    def counted_mat_mul(a, b):
        calls.append(1)
        return mat_mul(a, b)

    rng = random.Random(23)
    for model in (LocalModel(2, 3, 2), LocalModel(3, 2, 1, precision=4)):
        d = model.d
        random_mat = tuple(
            tuple(model.random_integral(rng) for _ in range(d)) for _ in range(d)
        )
        for a in (phi_of_pi(model), random_mat):
            for n in (0, 1, 2, 3, 5, 8):
                want = _repeated_power(a, n, model)
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(localmodels, "mat_mul", counted_mat_mul)
                    got = mat_pow(a, n, model)
                assert got == want, (model, n)
                assert len(calls) == (n.bit_length() + n.bit_count() - 2 if n else 0), n
        with pytest.raises(ValueError):
            mat_pow(phi_of_pi(model), -1, model)


def test_phi_of_pi_shape_d2():
    model = LocalModel(2, 2, 1)
    mat = phi_of_pi(model)
    assert mat[0][0] == mat[1][1] == model.zero()
    assert mat[1][0] == model.one()
    assert mat[0][1] == model.pi()


def test_phi_entry_pattern_d3():
    # phi(a0 + P a1 + P^2 a2) column j carries tau^j twists, with a pi
    # factor strictly above the diagonal
    model = LocalModel(2, 3, 1, precision=5)
    rng = random.Random(7)
    coeffs = [model.random_integral(rng) for _ in range(3)]
    mat = phi_of_element(model, coeffs)
    for i in range(3):
        for j in range(3):
            if i >= j:
                expected = model.tau_power(coeffs[i - j], j)
            else:
                expected = model.tau_power(coeffs[i - j + 3], j).shift(1)
            assert mat[i][j] == expected


def test_phi_scalar_of_base_field_is_central():
    # elements of the base residue field are fixed by tau, so their
    # image is a true scalar matrix
    model = LocalModel(3, 2, 1)
    f = model.residue_field
    fixed = [c for c in range(f.q) if f.pow(c, 3) == c]
    assert len(fixed) == 3
    for code in fixed:
        a = model.series([code])
        assert _phi_of_scalar(model, a) == mat_scalar(model, a)


def test_mat_mul_matches_literal_sum():
    models = _models() + _models(q_vs=(4,))
    assert len(models) == 18
    rng = random.Random(17)
    for model in models:
        d = model.d
        draws = (lambda: model.random_integral(rng), lambda: _sparse_integral(model, rng))
        for trial in range(6):
            draw = draws[trial % 2]
            a, b = (tuple(tuple(draw() for _ in range(d)) for _ in range(d)) for _ in range(2))
            assert mat_mul(a, b) == _literal_mat_mul(model, a, b), (model, trial)
        phi_x = phi_of_element(model, [model.random_integral(rng) for _ in range(d)])
        phi_y = phi_of_element(model, [_sparse_integral(model, rng) for _ in range(d)])
        assert mat_mul(phi_x, phi_y) == _literal_mat_mul(model, phi_x, phi_y)
        pi_mat = phi_of_pi(model)
        assert mat_mul(pi_mat, phi_x) == _literal_mat_mul(model, pi_mat, phi_x)


def test_delta_mul_matches_literal_sum():
    rng = random.Random(19)
    for model in _models() + _models(q_vs=(4,)):
        draws = (lambda: model.random_integral(rng), lambda: _sparse_integral(model, rng))
        for trial in range(8):
            draw = draws[trial % 2]
            xs = [draw() for _ in range(model.d)]
            ys = [draw() for _ in range(model.d)]
            assert delta_mul(model, xs, ys) == _literal_delta_mul(model, xs, ys), (
                model, trial,
            )


def test_fused_sums_restart_after_cancellation():
    # a partial sum that cancels to 0 must restart from the next term;
    # the expected values come from single field elements, not series
    for q_v in (2, 3, 4):
        model = LocalModel(q_v, 3, 1)
        f = model.residue_field
        one, zero = model.one(), model.zero()
        # row 0 of a is pi^s (u, -u, w) and column 0 of b is (1, 1, 1),
        # so entry (0, 0) is pi^s (u - u + w)
        u, w = 1, f.q - 1
        for s in (0, 2):
            row = tuple(model.series([0] * s + [c]) for c in (u, f.neg(u), w))
            a = (row, (zero,) * 3, (zero,) * 3)
            b = ((one, zero, zero),) * 3
            assert mat_mul(a, b)[0][0] == model.series([0] * s + [w]), (q_v, s)
        # coefficient P^0 of x y: pi*a*1 + pi*tau^2(-a)*1 + pi*tau(c)*1,
        # with a and c in the base field F_{q_v}, which tau fixes
        a_code = 1
        c_code = max(c for c in range(f.q) if f.pow(c, q_v) == c)
        xs = [model.series([0, a_code]), model.series([f.neg(a_code)]),
              model.series([c_code])]
        ys = [model.one()] * 3
        assert delta_mul(model, xs, ys)[0] == model.series([0, c_code])


def test_frobenius_table_is_the_power_map():
    for model in _models() + _models(q_vs=(4,)):
        f = model.residue_field
        for e in range(model.d):
            table = model.frobenius_table(e)
            assert table == tuple(f.pow(c, model.q_v ** e) for c in range(f.q)), (
                model, e,
            )
            assert sorted(table) == list(range(f.q))


def test_phi_of_element_matches_literal_definition():
    models = _models()
    assert len(models) == 12
    rng = random.Random(5)
    for model in models:
        for _ in range(5):
            coeffs = [model.random_integral(rng) for _ in range(model.d)]
            assert phi_of_element(model, coeffs) == _phi_reference(model, coeffs), (
                model.q_v, model.d, model.b,
            )


def test_multiplicativity_check_can_fail():
    # the algebra is not commutative for d >= 2, so phi(x) phi(y) equals
    # phi(x y) and, on a random pair, differs from phi(y x)
    rng = random.Random(9)
    for model in _models(ds=range(2, 5)):
        differs = 0
        for _ in range(5):
            xs = [model.random_integral(rng) for _ in range(model.d)]
            ys = [model.random_integral(rng) for _ in range(model.d)]
            lhs = mat_mul(phi_of_element(model, xs), phi_of_element(model, ys))
            assert lhs == phi_of_element(model, delta_mul(model, xs, ys))
            differs += lhs != phi_of_element(model, delta_mul(model, ys, xs))
        assert differs > 0, (model.q_v, model.d, model.b)


def test_phi_multiplicative_random_pairs():
    rng = random.Random(42)
    for q_v, d, b in ((2, 2, 1), (3, 2, 1), (2, 3, 2), (2, 4, 3)):
        model = LocalModel(q_v, d, b, precision=5)
        for _ in range(10):
            xs = [model.random_integral(rng) for _ in range(d)]
            ys = [model.random_integral(rng) for _ in range(d)]
            lhs = mat_mul(phi_of_element(model, xs), phi_of_element(model, ys))
            rhs = phi_of_element(model, delta_mul(model, xs, ys))
            assert lhs == rhs


def test_delta_mul_identity_and_associativity():
    model = LocalModel(2, 3, 1, precision=5)
    rng = random.Random(3)
    one = [model.one(), model.zero(), model.zero()]
    for _ in range(5):
        xs = [model.random_integral(rng) for _ in range(3)]
        ys = [model.random_integral(rng) for _ in range(3)]
        zs = [model.random_integral(rng) for _ in range(3)]
        assert delta_mul(model, xs, one) == tuple(xs)
        assert delta_mul(model, one, xs) == tuple(xs)
        assert delta_mul(model, delta_mul(model, xs, ys), zs) == delta_mul(
            model, xs, delta_mul(model, ys, zs)
        )


def test_integral_elements_embed_in_order():
    rng = random.Random(11)
    for q_v, d in ((2, 2), (2, 3), (3, 2)):
        model = LocalModel(q_v, d, 1)
        for _ in range(10):
            xs = [model.random_integral(rng) for _ in range(d)]
            assert in_iwahori(phi_of_element(model, xs))


def test_negative_valuation_falls_outside_order():
    model = LocalModel(2, 2, 1)
    # x = pi^{-1} * (unit at slot 0): not integral, so not in the order
    ys = [model.one(), model.zero()]
    assert not in_iwahori(phi_of_element(model, ys), denominator_exponent=1)
    # but pi * (that x) is the identity, which is in the order
    assert in_iwahori(phi_of_element(model, ys))


def test_in_iwahori_needs_pi_divisibility_above_diagonal():
    model = LocalModel(2, 2, 1)
    ones = mat_scalar(model, model.one())
    above = tuple(
        tuple(
            model.one() if (i, j) == (0, 1) else ones[i][j]
            for j in range(2)
        )
        for i in range(2)
    )
    assert not in_iwahori(above)
    scaled = tuple(
        tuple(
            model.pi() if (i, j) == (0, 1) else ones[i][j]
            for j in range(2)
        )
        for i in range(2)
    )
    assert in_iwahori(scaled)


def test_in_iwahori_precision_guard():
    model = LocalModel(2, 2, 1, precision=3)
    mat = mat_scalar(model, model.one())
    with pytest.raises(PrecisionExhaustedError):
        in_iwahori(mat, denominator_exponent=3)


def test_run_model_checks_all_green():
    for q_v, d, b in ((2, 2, 1), (2, 3, 2), (3, 2, 1)):
        report = run_model_checks(q_v, d, b, precision=6, pairs=20, seed=1)
        assert report.ok
        assert report.pairs_checked == 20
        assert report.multiplicativity_ok
        assert report.pi_power_ok
        assert report.embedding_in_order_ok
        assert report.negative_valuation_excluded_ok
