from math import comb as binomial
from types import SimpleNamespace

import pytest

from qnarayana import narayana
from qnarayana.exactalg import Polynomial
from qnarayana.narayana import (
    TVAR,
    c_odd_closed,
    c_poly,
    c_poly_recursive,
    catalan_number,
    narayana_b_poly,
    narayana_number,
    narayana_poly,
    poly_sequence,
    special_values,
    v_coeff,
)
from qnarayana.qcomb import q_narayana_row


def P(*coeffs):
    return Polynomial(TVAR, coeffs)


FIRST_C = [P(1), P(1), P(1, 1), P(1, 1, 1), P(1, 2, 2, 1), P(1, 2, 4, 2, 1)]
FIRST_NARAYANA = [P(1), P(1), P(1, 1), P(1, 3, 1), P(1, 6, 6, 1), P(1, 10, 20, 10, 1)]


class TestBasics:
    def test_catalan_numbers(self):
        assert [catalan_number(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_narayana_numbers(self):
        assert narayana_number(3, 1) == 3
        assert narayana_number(5, 2) == 20
        assert narayana_number(4, 0) == 1
        assert narayana_number(4, 5) == 0
        assert narayana_number(4, -1) == 0

    def test_divisibility_guards_raise(self, monkeypatch):
        monkeypatch.setattr(narayana, "math", SimpleNamespace(comb=lambda n, k: 7))
        with pytest.raises(ArithmeticError, match="not divisible"):
            catalan_number(2)
        monkeypatch.setattr(narayana, "math", SimpleNamespace(comb=lambda n, k: 1))
        with pytest.raises(ArithmeticError, match="not divisible"):
            narayana_number(3, 1)

    def test_narayana_polys(self):
        for n, expected in enumerate(FIRST_NARAYANA):
            assert narayana_poly(n) == expected

    def test_narayana_b(self):
        assert narayana_b_poly(0) == P(1)
        assert narayana_b_poly(2) == P(1, 4, 1)
        assert narayana_b_poly(3) == P(1, 9, 9, 1)

    def test_row_sums_are_catalan(self):
        for n in range(1, 16):
            assert sum(narayana_number(n, k) for k in range(n)) == catalan_number(n)


class TestSignedFamily:
    def test_v_coeff_examples(self):
        assert v_coeff(4, 1) == 2
        assert v_coeff(5, 2) == 4
        assert v_coeff(7, 0) == 1
        assert v_coeff(3, -1) == 0

    def test_v_coeff_vanishes_past_degree(self):
        for n in range(1, 17):
            assert v_coeff(n, n) == 0
            assert v_coeff(n, n - 1) == 1  # palindromic top coefficient

    def test_first_terms(self):
        for n, expected in enumerate(FIRST_C):
            assert c_poly(n) == expected

    def test_recursive_route_examples(self):
        assert c_poly_recursive(4) == P(1, 1) * P(1, 1, 1)
        assert c_poly_recursive(5) == P(1, 1) * P(1, 2, 2, 1) - P(0, 1) * P(1, 0, 1)
        assert c_poly_recursive(1) == P(1)

    def test_route_equality(self):
        for n in range(21):
            assert c_poly_recursive(n) == c_poly(n)
            if n >= 1:
                assert c_poly(n).coeffs == tuple(p(-1) for p in q_narayana_row(n))

    def test_odd_closed_examples(self):
        assert c_odd_closed(0) == P(1)
        assert c_odd_closed(1) == P(1, 1, 1)
        assert c_odd_closed(2) == P(1, 2, 4, 2, 1)

    def test_odd_closed_matches(self):
        for n in range(11):
            assert c_odd_closed(n) == c_poly(2 * n + 1)

    def test_palindromic(self):
        for n in range(21):
            coeffs = c_poly(n).coeffs
            assert coeffs == coeffs[::-1]

    def test_odd_index_coefficient_split(self):
        for n in range(11):
            coeffs = c_poly(2 * n + 1).coeffs + (0,)  # index 2n+1 is past the degree
            for k in range(n + 1):
                assert coeffs[2 * k] == binomial(n, k) ** 2
                assert coeffs[2 * k + 1] == binomial(n, k) * binomial(n, k + 1)

    def test_shifted_binomial_sum_is_n_times_narayana(self):
        for n in range(1, 13):
            lhs = Polynomial(TVAR, [binomial(n, k) * binomial(n, k + 1) for k in range(n)])
            assert lhs == narayana_poly(n) * n


class TestSpecialValues:
    def test_examples(self):
        assert special_values(4) == (6, 0)
        assert special_values(5) == (10, 2)
        assert special_values(0) == (1, 1)

    def test_against_evaluation(self):
        for n in range(21):
            at_one, at_minus_one = special_values(n)
            p = c_poly(n)
            assert at_one == p(1) == binomial(n, n // 2)
            assert at_minus_one == p(-1)

    def test_minus_one_pattern(self):
        for m in range(1, 11):
            assert special_values(2 * m)[1] == 0
            assert special_values(2 * m + 1)[1] == catalan_number(m)


class TestPolySequence:
    def test_families(self):
        assert poly_sequence("small_c", 6) == tuple(FIRST_C)
        assert poly_sequence("narayana_poly", 6) == tuple(FIRST_NARAYANA)
        assert poly_sequence("catalan_C", 4) == (P(1), P(1), P(2), P(5))
        assert poly_sequence("narayana_B", 3) == (P(1), P(1, 1), P(1, 4, 1))

    def test_entry_zero_is_one(self):
        for family in ("catalan_C", "narayana_poly", "narayana_B", "small_c"):
            assert poly_sequence(family, 1)[0] == P(1)

    def test_degrees(self):
        for n in range(1, 12):
            assert poly_sequence("small_c", n + 1)[n].degree() == n - 1
            assert poly_sequence("narayana_poly", n + 1)[n].degree() == n - 1

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            poly_sequence("fibonacci", 3)


class TestRowsByRatio:
    """The row builders step by ratio; the single-entry closed forms are their oracle."""

    @staticmethod
    def rows_and_closed_forms(n, ks=None):
        """(row, entries of the row at ks, closed forms at ks) for each builder; ks defaults to every entry."""
        out = []
        for row, closed, length in ((narayana_poly(n), narayana_number, n),
                                    (narayana_b_poly(n), lambda n, k: binomial(n, k) ** 2, n + 1),
                                    (c_poly(n), v_coeff, n)):
            at = range(length) if ks is None else ks
            padded = row.coeffs + (0,) * (max(at) + 1 - len(row.coeffs))  # ks may pass the degree
            out.append((row, [padded[k] for k in at], [closed(n, k) for k in at]))
        return out

    def test_every_entry_up_to_300(self):
        for n in range(1, 301):
            for row, got, want in self.rows_and_closed_forms(n):
                assert row.coeffs == tuple(got) and got == want, n

    def test_at_5000(self):
        n = 5000
        ks = sorted({*range(0, n + 1, 97), *range(6), *range(n - 5, n + 1), n // 2})
        (nara, *pair_c), (typeb, *pair_b), (small_c, *pair_s) = self.rows_and_closed_forms(n, ks)
        assert pair_c[0] == pair_c[1] and pair_b[0] == pair_b[1] and pair_s[0] == pair_s[1]
        assert (nara.degree(), typeb.degree(), small_c.degree()) == (n - 1, n, n - 1)
        assert sum(nara.coeffs) == catalan_number(n)
        assert sum(typeb.coeffs) == binomial(2 * n, n)
        assert sum(small_c.coeffs) == special_values(n)[0]

    def test_inexact_step_raises(self):
        with pytest.raises(ArithmeticError, match=r"row entry 2 is not an integer: 2 \* 3 / 4"):
            narayana._row_by_ratio(3, lambda k: (3, 4) if k else (2, 1))
