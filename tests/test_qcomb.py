import pytest

from qnarayana.exactalg import Polynomial, poly_exact_div
from qnarayana.narayana import v_coeff
from qnarayana.qcomb import (
    QVAR,
    q_binomial,
    q_catalan,
    q_int,
    q_narayana_coeff,
    q_narayana_row,
    specialize_row,
)


def Q(*coeffs):
    return Polynomial(QVAR, coeffs)


def pascal_triangle(rows):
    """Additive Pascal triangle, independent of math.comb."""
    triangle = [[1]]
    for n in range(1, rows + 1):
        prev = triangle[-1]
        triangle.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return triangle


class TestQInt:
    def test_values(self):
        assert q_int(0) == Polynomial.zero(QVAR)
        assert q_int(1) == Q(1)
        assert q_int(3) == Q(1, 1, 1)

    def test_negative(self):
        with pytest.raises(ValueError):
            q_int(-1)


class TestQBinomial:
    def test_small_values(self):
        assert q_binomial(2, 1) == Q(1, 1)
        assert q_binomial(4, 2) == Q(1, 1, 2, 1, 1)
        assert q_binomial(5, 7) == Polynomial.zero(QVAR)
        assert q_binomial(3, -1) == Polynomial.zero(QVAR)

    def test_product_formula_oracle(self):
        # [4][3]/([2][1]) checked through exact division
        numerator = q_int(4) * q_int(3)
        denominator = q_int(2) * q_int(1)
        assert poly_exact_div(numerator, denominator) == q_binomial(4, 2)

    def test_symmetry(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_degree(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k).degree() == k * (n - k)

    def test_q1_matches_pascal(self):
        triangle = pascal_triangle(20)
        for n in range(21):
            for k in range(n + 1):
                assert q_binomial(n, k)(1) == triangle[n][k]


class TestQNarayana:
    def test_examples(self):
        assert q_narayana_coeff(2, 1) == Q(0, 0, 1)
        assert q_narayana_coeff(3, 1) == Q(0, 0, 1, 1, 1)
        for n in (1, 4, 7):
            assert q_narayana_coeff(n, 0) == Q(1)

    def test_out_of_range(self):
        assert q_narayana_coeff(3, 3) == Polynomial.zero(QVAR)
        assert q_narayana_coeff(3, -2) == Polynomial.zero(QVAR)
        with pytest.raises(ValueError):
            q_narayana_coeff(0, 0)

    def test_top_index_vanishes(self):
        # the sum bound may safely run past the last nonzero entry
        for n in range(1, 17):
            assert q_narayana_coeff(n, n) == Polynomial.zero(QVAR)
            assert q_narayana_coeff(n, n - 1) != Polynomial.zero(QVAR)


class TestQCatalan:
    def test_values(self):
        assert q_catalan(0) == Q(1)
        assert q_catalan(2) == Q(1, 0, 1)
        expected = Q(1) + Q(0, 0, 1, 1, 1) + Q(0, 0, 0, 0, 0, 0, 1)
        assert q_catalan(3) == expected

    def test_sum_rule(self):
        for n in range(1, 11):
            total = Polynomial.zero(QVAR)
            for k in range(n):
                total = total + q_narayana_coeff(n, k)
            assert total == q_catalan(n)


class TestSpecialization:
    def test_examples(self):
        assert specialize_row(4, -1) == (1, 2, 2, 1)
        assert specialize_row(4, 1) == (1, 6, 6, 1)
        assert specialize_row(1, -1) == (1,)
        assert specialize_row(1, 5) == (1,)

    def test_matches_closed_form(self):
        for n in range(1, 17):
            row = specialize_row(n, -1)
            assert row == tuple(v_coeff(n, k) for k in range(n))

    def test_row_invariants(self):
        for n in range(9):
            row = q_narayana_row(n)
            assert row[0] == Q(1)
            assert all(c >= 0 for p in row for c in p.coeffs)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            specialize_row(0, -1)
