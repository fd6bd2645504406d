import random

import pytest

from qnarayana import exactalg, hankel
from qnarayana.exactalg import Polynomial, RationalFunction, TruncatedSeries
from qnarayana.hankel import (
    HANKEL_SIGNS,
    JFraction,
    PolyMatrix,
    det_bareiss,
    det_cofactor,
    expected_hankel,
    hankel_matrix,
    hankel_product_formula,
    hankel_table,
    jfraction_extract,
    jfraction_to_series,
    ratfun_series,
)
from qnarayana.narayana import TVAR, c_poly, poly_sequence


def P(*coeffs):
    return Polynomial(TVAR, coeffs)


def RF(*coeffs):
    return RationalFunction(P(*coeffs))


def matrix(rows):
    return PolyMatrix(tuple(tuple(P(*entry) for entry in row) for row in rows))


def rand_poly(rng):
    return Polynomial(TVAR, [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])


def rand_symmetric(rng, dim):
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = rand_poly(rng)
    return rows


def tail(p):
    """p with its zero low block taken off: the T of p = t^v * T, T(0) != 0."""
    return Polynomial(TVAR, p.coeffs[next(i for i, c in enumerate(p.coeffs) if c):])


def ldu_matrix(rng, d, symmetric):
    """L diag(d) U with L unit lower and U unit upper triangular over Z[t] (U = L^T if symmetric).

    Its leading principal minors, the Bareiss pivots, are d_1, d_1 d_2, ...
    """
    dim = len(d)
    lower = [[rand_poly(rng) if j < i else P(int(i == j)) for j in range(dim)] for i in range(dim)]
    upper = ([list(col) for col in zip(*lower)] if symmetric else
             [[rand_poly(rng) if j > i else P(int(i == j)) for j in range(dim)] for i in range(dim)])
    return PolyMatrix(tuple(tuple(sum((lower[i][k] * d[k] * upper[k][j] for k in range(dim)), P(0))
                                  for j in range(dim)) for i in range(dim)))


def with_zero_pivot(rng, rows, zero_step):
    """Make the leading (s+1) x (s+1) block, s = zero_step, a sum of s rank-one blocks v v^T.

    That leading minor, the pivot of step s, is then zero, so the
    elimination must swap rows there.
    """
    size = zero_step + 1
    vecs = [[rand_poly(rng) for _ in range(size)] for _ in range(zero_step)]
    for i in range(size):
        for j in range(size):
            rows[i][j] = sum((v[i] * v[j] for v in vecs), P(0))
    assert det_cofactor(PolyMatrix(tuple(tuple(row[:size]) for row in rows[:size]))) == P(0)


def sympy_det(sympy, coeffs):
    """det_bareiss's expected value for a matrix of coefficient lists, from sympy."""
    t = sympy.Symbol("t")
    dim = len(coeffs)
    entries = sympy.Matrix(dim, dim, lambda i, j: sum(c * t ** k for k, c in enumerate(coeffs[i][j])))
    # the default method expands symbolically and takes tens of seconds here
    det = sympy.Poly(entries.det(method="domain-ge"), t)
    return Polynomial(TVAR, [int(c) for c in reversed(det.all_coeffs())])


class TestHankelMatrix:
    def test_small_c_unshifted(self):
        seq = poly_sequence("small_c", 4)
        m = hankel_matrix(seq, 2, 0)
        assert m.entries == ((P(1), P(1)), (P(1), P(1, 1)))

    def test_dim_one(self):
        seq = poly_sequence("small_c", 1)
        assert hankel_matrix(seq, 1, 0).entries == ((P(1),),)

    def test_narayana_shifted(self):
        seq = poly_sequence("narayana_poly", 4)
        m = hankel_matrix(seq, 2, 1)
        assert m.entries == ((P(1), P(1, 1)), (P(1, 1), P(1, 3, 1)))

    def test_too_short(self):
        seq = poly_sequence("small_c", 3)
        with pytest.raises(ValueError, match="too short"):
            hankel_matrix(seq, 2, 1)

    def test_bad_shift(self):
        seq = poly_sequence("small_c", 5)
        with pytest.raises(ValueError, match="shift must be >= 0"):
            hankel_matrix(seq, 2, -1)

    @pytest.mark.parametrize("family", ["narayana_poly", "small_c"])
    @pytest.mark.parametrize("shift", [2, 3])
    def test_shifts_past_the_table(self, family, shift):
        # shifts with no prediction in HANKEL_SIGNS still build; Bareiss agrees with the cofactor oracle
        seq = poly_sequence(family, 2 * 6 - 1 + shift)
        for n in range(1, 7):
            m = hankel_matrix(seq, n, shift)
            assert det_bareiss(m) == det_cofactor(m), (family, shift, n)


class TestDeterminants:
    def test_two_by_two(self):
        assert det_bareiss(matrix([[(1,), (1,)], [(1,), (1, 1)]])) == P(0, 1)

    def test_identity_dim4(self):
        rows = [[(1,) if i == j else (0,) for j in range(4)] for i in range(4)]
        assert det_bareiss(matrix(rows)) == P(1)

    def test_narayana_two_by_two(self):
        m = matrix([[(1,), (1, 1)], [(1, 1), (1, 3, 1)]])
        assert det_bareiss(m) == P(0, 1)

    def test_swap_matrix(self):
        assert det_bareiss(matrix([[(0,), (1,)], [(1,), (0,)]])) == P(-1)

    def test_dim_one(self):
        p = P(2, 0, 7)
        assert det_bareiss(PolyMatrix(((p,),))) == p
        assert det_cofactor(PolyMatrix(((p,),))) == p

    def test_zero_column(self):
        m = matrix([[(0,), (1,)], [(0,), (5,)]])
        assert det_bareiss(m) == Polynomial.zero(TVAR)

    def test_cofactor_guard(self):
        rows = [[(1,)] * 7 for _ in range(7)]
        with pytest.raises(ValueError, match="dim <= 6"):
            det_cofactor(matrix(rows))

    def test_oracle_agreement_random(self):
        rng = random.Random(1729)
        for _ in range(50):
            dim = rng.randint(1, 5)
            rows = tuple(
                tuple(
                    Polynomial(TVAR, [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
                    for _ in range(dim)
                )
                for _ in range(dim)
            )
            m = PolyMatrix(rows)
            assert det_bareiss(m) == det_cofactor(m)

    def test_sympy_agreement_beyond_cofactor_limit(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(271828)
        for k, dim in enumerate((7, 7, 8, 8, 9, 9)):
            coeffs = [[[rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] for _ in range(dim)]
                      for _ in range(dim)]
            if k % 2:
                coeffs[0][0] = [0]  # the elimination must look below for a pivot
            m = PolyMatrix(tuple(tuple(Polynomial(TVAR, c) for c in row) for row in coeffs))
            assert det_bareiss(m) == sympy_det(sympy, coeffs), coeffs

    def test_sympy_agreement_symmetric(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(314159)
        for k, dim in enumerate((7, 7, 8, 8, 9, 9)):
            rows = rand_symmetric(rng, dim)
            if k % 2:
                rows[0][0] = P(0)  # a swap at the first step ends the symmetric phase
            coeffs = [[list(p.coeffs) for p in row] for row in rows]
            assert det_bareiss(PolyMatrix(tuple(map(tuple, rows)))) == sympy_det(sympy, coeffs), coeffs

    def test_symmetric_with_zero_pivot(self):
        # the pivot of step zero_step is zero: the elimination runs symmetric
        # for that many steps, then swaps rows and computes every entry of the
        # remaining block
        rng = random.Random(8081)
        for dim in range(1, 7):
            for zero_step in (None, *range(dim - 1)):
                for _ in range(4):
                    rows = rand_symmetric(rng, dim)
                    if zero_step is not None:
                        with_zero_pivot(rng, rows, zero_step)
                    m = PolyMatrix(tuple(map(tuple, rows)))
                    assert det_bareiss(m) == det_cofactor(m), (dim, zero_step, rows)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_oracle_agreement_scaled_by_powers_of_t(self, symmetric):
        # Row i scaled by t^r_i and column j by t^c_j (c = r keeps a symmetric
        # matrix symmetric): every entry and every pivot carries a high
        # valuation, and the determinant is t^(sum r + sum c) times the
        # unscaled one.  Some matrices also have a zero pivot, forcing a swap.
        rng = random.Random(5150)
        for dim in range(1, 7):
            for zero_step in (None, *range(dim - 1)):
                for _ in range(3):
                    rows = (rand_symmetric(rng, dim) if symmetric else
                            [[rand_poly(rng) for _ in range(dim)] for _ in range(dim)])
                    if zero_step is not None:
                        with_zero_pivot(rng, rows, zero_step)
                    r = [rng.randint(0, 9) for _ in range(dim)]
                    c = r if symmetric else [rng.randint(0, 9) for _ in range(dim)]
                    m = PolyMatrix(tuple(tuple(rows[i][j] * Polynomial.monomial(TVAR, r[i] + c[j])
                                               for j in range(dim)) for i in range(dim)))
                    det = det_bareiss(m)
                    assert det == det_cofactor(m), (dim, zero_step, r, c, rows)
                    unscaled = det_cofactor(PolyMatrix(tuple(map(tuple, rows))))
                    assert det == unscaled * Polynomial.monomial(TVAR, sum(r) + sum(c)), (dim, zero_step, r, c)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_oracle_agreement_single_term_minors(self, monkeypatch, symmetric):
        # diag(c_k t^e_k) in L D U: the leading principal minors, the pivots,
        # are the single terms d_1...d_k with coefficients other than +-1 and
        # positive valuation, and the divisors are their tails, the constants
        rng = random.Random(90210)
        divisors, divide = [], exactalg.poly_exact_div
        monkeypatch.setattr(exactalg, "poly_exact_div", lambda a, b: divisors.append(b) or divide(a, b))
        for dim in range(1, 7):
            for _ in range(3):
                d = [Polynomial.monomial(TVAR, rng.randint(1, 3), rng.choice((2, -2, 3, -5, 7))) for _ in range(dim)]
                m = ldu_matrix(rng, d, symmetric)
                minors = [P(1)]
                for dk in d[:-1]:
                    minors.append(minors[-1] * dk)
                divisors.clear()
                det = det_bareiss(m)
                assert det == det_cofactor(m), (symmetric, m)
                assert set(divisors) == {tail(p) for p in minors[1:dim - 1]}, (symmetric, m)
                assert all(abs(p.coeffs[-1]) > 1 and not any(p.coeffs[:-1]) for p in minors[1:])

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_oracle_agreement_multi_term_minors(self, monkeypatch, symmetric):
        # diag(c_k t^e_k (a_k + b_k t)) in L D U: every pivot has two or more
        # terms, most with a zero low block or a coefficient other than +-1,
        # and each division is by its tail through long division
        rng = random.Random(60606)
        divisors, divide = [], exactalg.poly_exact_div
        monkeypatch.setattr(exactalg, "poly_exact_div", lambda a, b: divisors.append(b) or divide(a, b))
        for dim in range(1, 7):
            for _ in range(3):
                d = [Polynomial.monomial(TVAR, rng.randint(0, 3), rng.choice((1, -2, 3)))
                     * P(rng.choice((1, -1, 2)), rng.choice((1, -3, 5))) for _ in range(dim)]
                m = ldu_matrix(rng, d, symmetric)
                minors = [P(1)]
                for dk in d[:-1]:
                    minors.append(minors[-1] * dk)
                divisors.clear()
                assert det_bareiss(m) == det_cofactor(m), (symmetric, m)
                assert set(divisors) == {tail(p) for p in minors[1:dim - 1]}, (symmetric, m)
                assert all(sum(map(bool, divisor.coeffs)) > 1 for divisor in divisors)

    def test_one_asymmetric_entry(self):
        # symmetric except for one entry below the diagonal, at every position:
        # the symmetry test must read the whole matrix
        rng = random.Random(4242)
        for dim in range(2, 6):
            for i in range(1, dim):
                for j in range(i):
                    rows = rand_symmetric(rng, dim)
                    rows[i][j] = rows[i][j] + P(rng.choice((-3, -1, 1, 2)), rng.randint(-2, 2))
                    m = PolyMatrix(tuple(map(tuple, rows)))
                    assert det_bareiss(m) == det_cofactor(m), (dim, i, j, rows)


class TestHankelTable:
    def test_small_c_unshifted(self):
        dets = hankel_table("small_c", 0, 2)
        assert len(dets) == 2
        assert dets[1] == P(0, 1) == expected_hankel("small_c", 0, 2)

    def test_small_c_shifted(self):
        dets = hankel_table("small_c", 1, 2)
        assert dets[1] == P(0, -1) == expected_hankel("small_c", 1, 2)

    def test_first_row_trivial(self):
        for family, shift in HANKEL_SIGNS:
            assert hankel_table(family, shift, 1) == [P(1)] == [expected_hankel(family, shift, 1)]

    def test_all_match_to_seven(self):
        for family, shift in HANKEL_SIGNS:
            assert hankel_table(family, shift, 7) == [expected_hankel(family, shift, n) for n in range(1, 8)]

    @pytest.mark.parametrize("family", ["narayana_poly", "small_c"])
    @pytest.mark.parametrize("shift", [0, 1])
    def test_all_match_to_twenty(self, family, shift):
        dets = hankel_table(family, shift, 20)
        assert dets == [expected_hankel(family, shift, n) for n in range(1, 21)]

    def test_expected_values(self):
        assert expected_hankel("small_c", 1, 3) == P(0, 0, 0, -1)
        assert expected_hankel("small_c", 0, 3) == P(0, 0, 0, 1)
        assert expected_hankel("narayana_poly", 1, 4) == Polynomial.monomial(TVAR, 6)

    def test_expected_values_refuse_what_they_do_not_predict(self):
        with pytest.raises(ValueError, match="no Hankel prediction for family 'small_c' at shift 7"):
            expected_hankel("small_c", 7, 3)
        with pytest.raises(ValueError, match="no Hankel prediction for family 'narayana_B' at shift 0"):
            expected_hankel("narayana_B", 0, 3)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            expected_hankel("small_c", 0, -2)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            expected_hankel("narayana_poly", 1, 0)

    @pytest.mark.parametrize("family", dict.fromkeys(family for family, _ in HANKEL_SIGNS))
    def test_entry_updates_build_no_product_and_divide_once(self, monkeypatch, family):
        # every pivot is +-t^C(k,2), so each entry update is one call of the
        # kernel, no Polynomial product, and one exact division when the
        # previous pivot's tail is -1 rather than 1 and the cross is not zero
        max_n = 8
        shifts = [s for f, s in HANKEL_SIGNS if f == family]
        for shift in shifts:
            poly_sequence(family, 2 * max_n - 1 + shift)  # the family rows are built once per process
        updates, cross = [], hankel._cross
        divisions, divide = [], exactalg.poly_exact_div

        def no_product(*args):
            raise AssertionError("Polynomial.__mul__ called")

        def recorded(*args):
            updates.append((args[4], cross(*args)))  # (previous pivot, quotient)
            return updates[-1][1]

        monkeypatch.setattr(hankel, "_cross", recorded)
        monkeypatch.setattr(exactalg, "poly_exact_div", lambda a, b: divisions.append(b) or divide(a, b))
        monkeypatch.setattr(Polynomial, "__mul__", no_product)
        monkeypatch.setattr(Polynomial, "__rmul__", no_product)
        for shift in shifts:
            # step k of an n x n symmetric elimination updates the upper
            # triangle of the trailing (n-1-k) x (n-1-k) block, beside the
            # previous pivot: 1 at step 0, the leading k x k minor after it
            steps = [(n - 1 - k, expected_hankel(family, shift, k) if k else P(1))
                     for n in range(1, max_n + 1) for k in range(n - 1)]
            updates.clear()
            divisions.clear()
            assert hankel_table(family, shift, max_n) == [expected_hankel(family, shift, n)
                                                          for n in range(1, max_n + 1)]
            assert len(updates) == sum(m * (m + 1) // 2 for m, _ in steps), (family, shift)
            negative = sum(m * (m + 1) // 2 for m, prev in steps if prev.coeffs[-1] == -1)
            assert sum(prev[1] == (-1,) for prev, _ in updates) == negative, (family, shift)
            nonzero = sum(prev[1] == (-1,) and bool(quotient[1]) for prev, quotient in updates)
            assert divisions == [P(-1)] * nonzero, (family, shift)
            assert bool(nonzero) == (family == "small_c" and shift == 1)

    @pytest.mark.parametrize("family", ["narayana_poly", "small_c", "narayana_B", "catalan_C", "X"])
    @pytest.mark.parametrize("shift", [-1, 0, 1, 2, 3])
    def test_accepts_exactly_the_keys(self, family, shift):
        if (family, shift) in HANKEL_SIGNS:
            assert expected_hankel(family, shift, 2) == Polynomial.monomial(TVAR, 1, HANKEL_SIGNS[family, shift])
        else:
            with pytest.raises(ValueError, match=f"no Hankel prediction for family '{family}' at shift {shift} "):
                expected_hankel(family, shift, 2)


class TestJFraction:
    def test_extract_smallg(self):
        jf = jfraction_extract(ratfun_series("smallg", 8), 3)
        assert jf.s[0] == RF(1, 1)
        assert jf.s[1] == RF(-1, -1)
        assert jf.t_coeffs[0] == RF(0, -1)
        assert jf.t_coeffs[1] == RF(0, -1)
        assert jf.depth == 3

    def test_extract_smallc(self):
        jf = jfraction_extract(ratfun_series("smallc", 8), 3)
        assert jf.s[0] == RF(1)
        assert jf.s[1] == RF(-1, 1)
        assert jf.s[2] == RF(1, -1)
        assert jf.t_coeffs[0] == RF(0, 1)
        assert jf.t_coeffs[1] == RF(0, 1)

    def test_geometric_early_stop(self):
        geometric = TruncatedSeries([RF(1)] * 7, 6)
        jf = jfraction_extract(geometric, 2)
        assert jf.s == (RF(1),)
        assert jf.t_coeffs == ()
        assert jf.depth == 0
        # a fraction that stopped early is finite, so it reproduces its series exactly
        assert jfraction_to_series(jf, 6) == geometric

    def test_preconditions(self):
        with pytest.raises(ValueError, match="constant term"):
            jfraction_extract(TruncatedSeries([RF(2)] * 9, 8), 1)
        with pytest.raises(ValueError, match="too small"):
            jfraction_extract(ratfun_series("smallc", 5), 2)

    def test_shape_invariant(self):
        with pytest.raises(ValueError, match="one more diagonal"):
            JFraction((RF(1),), (RF(0, 1),))
        with pytest.raises(ValueError, match="nonzero"):
            JFraction((RF(1), RF(1)), (RationalFunction.zero(TVAR),))

    def test_reconstruct_smallg_prefix(self):
        one_plus_t = RF(1, 1)
        jf = JFraction(
            s=(one_plus_t, -one_plus_t, one_plus_t),
            t_coeffs=(RF(0, -1), RF(0, -1)),
        )
        series = jfraction_to_series(jf, 4)
        expected = TruncatedSeries([RationalFunction(c_poly(n + 1)) for n in range(5)], 4)
        assert series == expected

    def test_reconstruct_smallc_prefix(self):
        one_minus_t = RF(1, -1)
        jf = JFraction(
            s=(RF(1), -one_minus_t, one_minus_t),
            t_coeffs=(RF(0, 1), RF(0, 1)),
        )
        series = jfraction_to_series(jf, 4)
        expected = TruncatedSeries([RationalFunction(c_poly(n)) for n in range(5)], 4)
        assert series == expected

    def test_empty_fraction_is_refused(self):
        # a fraction has at least one level, so there is no empty one to evaluate
        with pytest.raises(ValueError, match="^need exactly one more diagonal than subdiagonal coefficient$"):
            JFraction((), ())

    @pytest.mark.parametrize("tag", ["smallc", "smallg"])
    def test_order_zero_is_the_constant_one(self, tag):
        jf = jfraction_extract(ratfun_series(tag, 6), 2)
        assert jfraction_to_series(jf, 0) == TruncatedSeries.constant(RationalFunction.one(TVAR), 0)

    def test_roundtrip(self):
        for tag in ("smallc", "smallg"):
            for depth in (0, 1, 3, 5, 12):
                series = ratfun_series(tag, 2 * depth + 2)
                jf = jfraction_extract(series, depth)
                rebuilt = jfraction_to_series(jf, 2 * depth + 1)
                assert rebuilt == series.truncate(2 * depth + 1), (tag, depth)


class TestProductFormula:
    def test_constant_subdiagonals(self):
        t = RF(0, 1)
        assert hankel_product_formula([t, t, t], 4) == RF(*([0] * 6 + [1]))
        minus_t = RF(0, -1)
        assert hankel_product_formula([minus_t, minus_t], 3) == RF(0, 0, 0, -1)

    def test_empty_product(self):
        assert hankel_product_formula([], 1) == RationalFunction.one(TVAR)

    def test_matches_determinants(self):
        for tag, shift in (("smallc", 0), ("smallg", 1)):
            jf = jfraction_extract(ratfun_series(tag, 12), 5)
            seq = poly_sequence("small_c", 12)
            for n in range(1, 7):
                det = det_bareiss(hankel_matrix(seq, n, shift))
                assert hankel_product_formula(jf.t_coeffs, n) == RationalFunction(det)

    def test_insufficient_coefficients(self):
        with pytest.raises(ValueError, match="subdiagonal"):
            hankel_product_formula([RF(0, 1)], 3)


def type_b_closed_form(shift, n):
    """2^(n-1) t^C(n,2), times (1 + t^n) for shift 1; verified for n <= 14, not a result of the paper."""
    det = Polynomial.monomial(TVAR, n * (n - 1) // 2, 2 ** (n - 1))
    return det * (Polynomial.monomial(TVAR, n) + 1) if shift else det


class TestTypeBHankel:
    """Hankel determinants of the type-B family narayana_B, whose pivots take the divisions c and C never do.

    Every pivot of the elimination is a leading principal minor.  At shift 0
    they are 2^k t^v, single-term divisors with a coefficient other than
    +-1; at shift 1 they have two terms and go through long division.
    """

    SEQ = poly_sequence("narayana_B", 25)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_bareiss_matches_cofactor(self, shift):
        for n in range(1, 7):
            m = hankel_matrix(self.SEQ, n, shift)
            assert det_bareiss(m) == det_cofactor(m), (shift, n)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_closed_form_to_twelve(self, shift):
        assert hankel_table("narayana_B", shift, 12) == [type_b_closed_form(shift, n) for n in range(1, 13)]

    @pytest.mark.parametrize("shift", [0, 1])
    def test_divisors_are_the_leading_minors(self, monkeypatch, shift):
        # the division of each entry update is by the tail of the previous
        # pivot, skipped when that tail is 1 (the first step, and n = 1 at shift 0)
        divisors, divide = set(), exactalg.poly_exact_div
        monkeypatch.setattr(exactalg, "poly_exact_div", lambda a, b: divisors.add(b) or divide(a, b))
        det_bareiss(hankel_matrix(self.SEQ, 8, shift))
        assert divisors == {tail(type_b_closed_form(shift, k)) for k in range(1, 7)} - {P(1)}
        terms = {sum(map(bool, d.coeffs)) for d in divisors}
        assert terms == ({1} if shift == 0 else {2})
