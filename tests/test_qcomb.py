import functools

import pytest

from qnarayana import qcomb
from qnarayana.exactalg import NotDivisibleError, Polynomial, poly_exact_div
from qnarayana.narayana import narayana_number, v_coeff
from qnarayana.qcomb import (
    QVAR,
    q_binomial,
    q_catalan,
    q_int,
    q_narayana_row,
)


def Q(*coeffs):
    return Polynomial(QVAR, coeffs)


def schoolbook_coeff(n, k):
    """q^(k^2+k) * qbinom(n,k) * qbinom(n-1,k) / [k+1] by polynomial multiply and exact division."""
    numerator = Polynomial.monomial(QVAR, k * k + k) * q_binomial(n, k) * q_binomial(n - 1, k)
    return poly_exact_div(numerator, q_int(k + 1))


def kernel_mismatches(max_n):
    """Yield (n, k), 1 <= n <= max_n, where entry k of q_narayana_row(n) differs from the schoolbook
    formula or is missing or extra; k is None when the row raises."""
    for n in range(1, max_n + 1):
        try:
            row = q_narayana_row(n)
        except (ArithmeticError, ValueError, OverflowError):
            yield n, None
            continue
        schoolbook = [schoolbook_coeff(n, k) for k in range(n)]
        yield from ((n, k) for k in range(max(n, len(row))) if row[k:k + 1] != tuple(schoolbook[k:k + 1]))


def pascal_triangle(rows):
    """Additive Pascal triangle, independent of math.comb."""
    triangle = [[1]]
    for n in range(1, rows + 1):
        prev = triangle[-1]
        triangle.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return triangle


@functools.cache
def q_pascal_triangle(rows):
    """Every q-binomial up to n = rows from the q-Pascal rule, each entry built, none by symmetry or memo.

    Row n is [1, qbinom(n-1,k-1) + q^k * qbinom(n-1,k) for 0 < k < n, 1], the
    product by q^k a polynomial multiply.
    """
    triangle = [[Q(1)]]
    for n in range(1, rows + 1):
        prev = triangle[-1]
        inner = [prev[k - 1] + Polynomial.monomial(QVAR, k) * prev[k] for k in range(1, n)]
        triangle.append([Q(1), *inner, Q(1)])
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

    def test_long_columns_do_not_recurse_n_deep(self):
        # the q-Pascal recurrence reaches n rows down; the memo fills bottom-up, so n far above
        # the recursion limit returns
        assert q_binomial(2000, 1) == q_int(2000)
        assert q_binomial(1000, 2) == poly_exact_div(q_int(1000) * q_int(999), q_int(2))

    def test_product_formula_oracle(self):
        # [4][3]/([2][1]) checked through exact division
        numerator = q_int(4) * q_int(3)
        denominator = q_int(2) * q_int(1)
        assert poly_exact_div(numerator, denominator) == q_binomial(4, 2)

    def test_matches_the_full_q_pascal_triangle(self):
        # the memo builds only 2k <= n and answers the rest by symmetry; the
        # triangle builds every entry
        triangle = q_pascal_triangle(40)
        for n in range(41):
            for k in range(n + 1):
                assert q_binomial(n, k) == triangle[n][k], (n, k)

    def test_memo_matches_q_pascal_with_multiply(self):
        for n in range(31):
            assert q_binomial(n, 0) == q_binomial(n, n) == Q(1)
            for k in range(1, n):
                pascal = q_binomial(n - 1, k - 1) + Polynomial.monomial(QVAR, k) * q_binomial(n - 1, k)
                assert q_binomial(n, k) == pascal, (n, k)

    def test_symmetry(self):
        triangle = q_pascal_triangle(40)
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)
                assert triangle[n][k] == triangle[n][n - k]

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
        assert q_narayana_row(2)[1] == Q(0, 0, 1)
        assert q_narayana_row(3)[1] == Q(0, 0, 1, 1, 1)
        for n in (1, 4, 7):
            assert q_narayana_row(n)[0] == Q(1)

    def test_top_index_vanishes(self):
        # row n has the n entries k = 0..n-1, the last one nonzero
        for n in range(1, 17):
            row = q_narayana_row(n)
            assert len(row) == n
            assert row[n - 1] != Polynomial.zero(QVAR)


class TestPackedKernel:
    """The row kernel: q_narayana_row steps along the row by the exact q-ratio."""

    def test_matches_schoolbook_formula(self):
        # entries past the middle of a row are mirrors, q^(n(n-1-2k)) * N_q(n,k)
        assert list(kernel_mismatches(40)) == []

    def test_non_dividing_divisor_raises(self, monkeypatch):
        # a step that skips its multiply by (1 - q^(n-k-1)) leaves a quotient outside Z[q]
        times = qcomb._times_one_minus_power
        monkeypatch.setattr(qcomb, "_times_one_minus_power", lambda p, a: p if a == 2 else times(p, a))
        with pytest.raises(NotDivisibleError):
            q_narayana_row(3)


class TestQCatalan:
    def test_values(self):
        assert q_catalan(0) == Q(1)
        assert q_catalan(2) == Q(1, 0, 1)
        expected = Q(1) + Q(0, 0, 1, 1, 1) + Q(0, 0, 0, 0, 0, 0, 1)
        assert q_catalan(3) == expected

    def test_memo_builds_half_the_triangle(self):
        # q_catalan(n), n <= 20, reaches qbinom(m,k) for k, m-k <= 20: 231 entries
        # with 2k <= m are built and the 20 entries qbinom(2n-1,n) answered by symmetry
        q_binomial.cache_clear()
        for n in range(21):
            q_catalan(n)
        assert q_binomial.cache_info().misses == 251

    def test_sum_rule(self):
        for n in range(1, 31):
            total = Polynomial.zero(QVAR)
            for entry in q_narayana_row(n):
                total = total + entry
            assert total == q_catalan(n)


def specialized(n, q0):
    """Row n of the q-Narayana family evaluated at the integer q0."""
    return tuple(p(q0) for p in q_narayana_row(n))


class TestSpecialization:
    def test_examples(self):
        assert specialized(4, -1) == (1, 2, 2, 1)
        assert specialized(4, 1) == (1, 6, 6, 1)
        assert specialized(1, -1) == (1,)
        assert specialized(1, 5) == (1,)

    def test_matches_closed_form(self):
        for n in range(1, 41):
            row = specialized(n, -1)
            assert row == tuple(v_coeff(n, k) for k in range(n))

    def test_q1_is_narayana(self):
        for n in range(1, 41):
            assert specialized(n, 1) == tuple(narayana_number(n, k) for k in range(n))

    def test_row_invariants(self):
        for n in range(41):
            row = q_narayana_row(n)
            assert row[0] == Q(1)
            assert all(c >= 0 for p in row for c in p.coeffs)
