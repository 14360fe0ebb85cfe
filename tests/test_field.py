import random
from fractions import Fraction
from unittest import mock

import pytest

from promiselab import field
from promiselab.errors import NonRealInput, NotHermitian
from oracle_decimal import sqrt2_bounds
from oracle_field import _inverse, abs2
from oracle_simulator import T_PHASE
from helpers_values import (ONE, SQRT2_INV, fadd, fmul, fneg, from_rows,
                           parse_field_elem, scaled_identity, to_complex)
from promiselab.field import (ExactMatrix, FieldElem, ZERO, decimal_string,
                              det, format_field_elem, real_sign, sylvester_pd,
                              sylvester_psd)

SQRT2_INV_FLOAT = 2 ** -0.5


def fe(a=0, b=0, c=0, d=0):
    return FieldElem(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def random_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_elem(rng, span=6):
    return FieldElem(*(random_fraction(rng, span) for _ in range(4)))


# -- cofactor-expansion determinant, the independent oracle ------------------

def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ZERO
    sign = ONE
    for col in range(n):
        minor = [r[:col] + r[col + 1:] for r in rows[1:]]
        term = fmul(rows[0][col], cofactor_det(minor))
        total = fadd(total, fmul(sign, term))
        sign = fneg(sign)
    return total


class TestArithmetic:
    def test_sqrt2_inv_squares_to_half(self):
        assert fmul(SQRT2_INV, SQRT2_INV) == fe(Fraction(1, 2))

    def test_t_phase_is_unit_modulus(self):
        assert fmul(T_PHASE, T_PHASE.conjugate()) == ONE

    def test_t_phase_eighth_root(self):
        # (e^{i pi/4})^4 = -1
        p = T_PHASE
        assert fmul(p, p, p, p) == fneg(ONE)

    def test_conjugation_negates_imaginary_coefficients(self):
        x = fe(1, Fraction(1, 2), 3, -2)
        assert x.conjugate() == fe(1, Fraction(1, 2), -3, 2)

    def test_field_axioms_on_sampled_triples(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y, z = (random_elem(rng) for _ in range(3))
            assert fadd(fadd(x, y), z) == fadd(x, fadd(y, z))
            assert fmul(fmul(x, y), z) == fmul(x, fmul(y, z))
            assert fmul(x, fadd(y, z)) == fadd(fmul(x, y), fmul(x, z))
            assert fmul(x, y) == fmul(y, x)

    def test_multiplicative_inverse(self):
        rng = random.Random(11)
        count = 0
        while count < 100:
            x = random_elem(rng)
            if x == ZERO:
                continue
            assert fmul(x, _inverse(x)) == ONE
            count += 1

    def test_abs2_matches_definition(self):
        rng = random.Random(17)
        for _ in range(100):
            x = random_elem(rng)
            assert abs2(x) == fmul(x, x.conjugate())

    def test_float_embedding_is_a_homomorphism(self):
        rng = random.Random(19)
        for _ in range(50):
            x, y = random_elem(rng), random_elem(rng)
            assert abs(to_complex(fmul(x, y))
                       - to_complex(x) * to_complex(y)) < 1e-9


class TestRealSign:
    def test_zero(self):
        assert real_sign(ZERO) == 0

    def test_one_minus_sqrt2_inv_is_positive(self):
        assert real_sign(fe(1, -1)) == 1

    def test_two_minus_three_sqrt2_inv_is_negative(self):
        # 2*2^2 = 8 < 9 = 3^2 and b is negative
        assert real_sign(fe(2, -3)) == -1

    def test_rejects_imaginary_parts(self):
        with pytest.raises(NonRealInput):
            real_sign(fe(0, 0, 1, 0))
        with pytest.raises(NonRealInput):
            real_sign(fe(0, 0, 0, 1))

    def test_agrees_with_float_away_from_zero(self):
        rng = random.Random(23)
        for _ in range(2000):
            a, b = random_fraction(rng, 9), random_fraction(rng, 9)
            value = float(a) + float(b) * SQRT2_INV_FLOAT
            if abs(value) <= 1e-9:
                continue
            expected = 1 if value > 0 else -1
            assert real_sign(fe(a, b)) == expected


class TestSqrt2Bounds:
    """The bracket behind the reference rendering in oracle_decimal."""

    def test_precision_zero_brackets(self):
        lo, hi = sqrt2_bounds(0)
        assert lo <= hi and hi - lo <= 1
        assert 2 * lo * lo <= 1 <= 2 * hi * hi

    def test_bracket_and_width_for_all_precisions(self):
        for precision in range(0, 40, 4):
            lo, hi = sqrt2_bounds(precision)
            assert 2 * lo * lo <= 1 <= 2 * hi * hi
            assert hi - lo <= Fraction(1, 2 ** precision)

    def test_precision_ten_width(self):
        lo, hi = sqrt2_bounds(10)
        assert hi - lo <= Fraction(1, 1024)
        assert 2 * lo * lo <= 1 <= 2 * hi * hi

    def test_nesting(self):
        lo5, hi5 = sqrt2_bounds(5)
        lo10, hi10 = sqrt2_bounds(10)
        assert lo5 <= lo10 <= hi10 <= hi5


class TestDecimalRendering:
    def test_half(self):
        assert decimal_string(fe(Fraction(1, 2))) == "0.500000000000"

    def test_sqrt2_inv(self):
        assert decimal_string(SQRT2_INV) == "0.707106781187"

    def test_negative(self):
        assert decimal_string(fe(-1, 1)) == "-0.292893218813"

    def test_rejects_imaginary_parts(self):
        with pytest.raises(NonRealInput):
            decimal_string(fe(1, 0, 0, 1))


class TestTextRoundtrip:
    def test_canonical_form(self):
        x = fe(Fraction(1, 2), Fraction(-1, 3), 0, 2)
        assert format_field_elem(x) == "1/2 + -1/3*r + 0/1*i + 2/1*i*r"

    def test_roundtrip(self):
        rng = random.Random(29)
        for _ in range(200):
            x = random_elem(rng)
            assert parse_field_elem(format_field_elem(x)) == x

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_field_elem("1/2 + r")


class TestDeterminant:
    def test_identity(self):
        assert det(scaled_identity(3, ONE)) == ONE

    def test_antidiagonal_sqrt2(self):
        m = from_rows([[ZERO, SQRT2_INV], [SQRT2_INV, ZERO]])
        assert det(m) == fe(Fraction(-1, 2))

    def test_matches_cofactor_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            rows = [[random_elem(rng, 3) for _ in range(4)] for _ in range(4)]
            m = from_rows(rows)
            assert det(m) == cofactor_det(rows)

    def test_multiplicative(self):
        rng = random.Random(37)
        for _ in range(20):
            a = [[random_elem(rng, 3) for _ in range(3)] for _ in range(3)]
            b = [[random_elem(rng, 3) for _ in range(3)] for _ in range(3)]
            product = [[fadd(*(fmul(a[i][k], b[k][j]) for k in range(3)))
                        for j in range(3)] for i in range(3)]
            lhs = det(from_rows(product))
            rhs = fmul(det(from_rows(a)), det(from_rows(b)))
            assert lhs == rhs


def random_hermitian(rng, dim, span=3):
    m = [[random_elem(rng, span) for _ in range(dim)] for _ in range(dim)]
    return from_rows(
        [[fadd(m[i][j], m[j][i].conjugate()) for j in range(dim)]
         for i in range(dim)])


def to_numpy(m: ExactMatrix):
    import numpy as np
    return np.array([[to_complex(e) for e in row] for row in m.entries])


class TestSylvester:
    def test_positive_diagonal(self):
        m = from_rows([
            [fe(Fraction(1, 3)), ZERO],
            [ZERO, fe(Fraction(1, 6))]])
        assert sylvester_pd(m)
        assert sylvester_psd(m)

    def test_zero_matrix(self):
        m = scaled_identity(2, ZERO)
        assert not sylvester_pd(m)
        assert sylvester_psd(m)

    def test_corrected_criterion_counterexample(self):
        # diag(0, -1): leading minors are 0 and 0, yet the matrix is not
        # semi-definite; the principal minor {-1} catches it.
        m = from_rows([[ZERO, ZERO], [ZERO, fneg(ONE)]])
        assert not sylvester_psd(m)
        assert not sylvester_pd(m)

    def test_rejects_non_hermitian(self):
        m = from_rows([[ZERO, ONE], [ZERO, ZERO]])
        with pytest.raises(NotHermitian):
            sylvester_pd(m)
        with pytest.raises(NotHermitian):
            sylvester_psd(m)

    def test_agrees_with_float_eigensolver(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(41)
        checked_pd = checked_psd = 0
        while checked_pd < 40 or checked_psd < 40:
            dim = rng.randint(2, 4)
            m = random_hermitian(rng, dim)
            eigenvalues = np.linalg.eigvalsh(to_numpy(m))
            if checked_pd < 40 and min(abs(eigenvalues)) > 1e-6:
                assert sylvester_pd(m) == bool(eigenvalues.min() > 0)
                checked_pd += 1
            if checked_psd < 40 and min(abs(eigenvalues)) > 1e-6:
                assert sylvester_psd(m) == bool(eigenvalues.min() > 0)
                checked_psd += 1

    def test_psd_on_gram_matrices(self):
        # v v^dagger is always semi-definite with rank 1, never definite
        # beyond dimension 1.
        rng = random.Random(43)
        for _ in range(20):
            dim = rng.randint(2, 4)
            v = [random_elem(rng, 3) for _ in range(dim)]
            m = from_rows(
                [[fmul(v[i], v[j].conjugate()) for j in range(dim)]
                 for i in range(dim)])
            assert sylvester_psd(m)
            assert not sylvester_pd(m)


def diagonal(*values):
    n = len(values)
    return from_rows([[fe(values[i]) if i == j else ZERO for j in range(n)]
                      for i in range(n)])


def det_calls(test, m):
    """The verdict of `test` on `m` and the number of `det` calls it made."""
    with mock.patch.object(field, "det", wraps=field.det) as spy:
        verdict = test(m)
    return verdict, spy.call_count


class TestSylvesterWork:
    """Leading minors decide unless one vanishes; only then all minors."""

    @pytest.mark.parametrize("m", [
        scaled_identity(1, ONE),
        scaled_identity(5, fe(Fraction(1, 3))),
        from_rows([[fe(2), fe(1), ZERO],
                   [fe(1), fe(2), fe(0, 0, 1)],
                   [ZERO, fe(0, 0, -1), fe(2)]]),
    ])
    def test_definite_takes_dim_minors(self, m):
        assert det_calls(sylvester_psd, m) == (True, m.dim)
        assert det_calls(sylvester_pd, m) == (True, m.dim)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_negative_leading_minor_stops_the_walk(self, k):
        # leading minors 1, ..., 1, then -1 from order k on
        m = diagonal(*(-1 if i == k - 1 else 1 for i in range(5)))
        assert det_calls(sylvester_psd, m) == (False, k)
        assert det_calls(sylvester_pd, m) == (False, k)

    def test_vanishing_leading_minor_falls_back_to_all_minors(self):
        # the walk stops at the leading minor 0, then the all-minors loop
        # evaluates {0} = 0 and {1} = -1
        m = diagonal(0, -1)
        assert det_calls(sylvester_psd, m) == (False, 1 + 2)

    def test_fallback_checks_every_minor_when_semidefinite(self):
        m = diagonal(1, 0, 1)
        assert det_calls(sylvester_psd, m) == (True, 2 + 7)
