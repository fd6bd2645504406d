import json
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnarayana import exactalg
from qnarayana.exactalg import (
    NotDivisibleError,
    NotInvertibleError,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    poly_exact_div,
    poly_gcd,
)


def P(*coeffs, var="t"):
    return Polynomial(var, coeffs)


# coefficient lists with a zero block of up to 12 low powers, as in the
# entries of a fraction-free elimination
low_block_lists = st.builds(
    lambda low, rest: [0] * low + rest, st.integers(0, 12), st.lists(st.integers(-9, 9), max_size=8)
)
# the same with coefficients up to +-2**80, so that packed divisions run at
# many slot widths
wide_coeffs = st.one_of(st.integers(-9, 9), st.integers(-(2 ** 80), 2 ** 80))
wide_block_lists = st.builds(
    lambda low, rest: [0] * low + rest, st.integers(0, 12), st.lists(wide_coeffs, max_size=8)
)
multi_term_lists = wide_block_lists.filter(lambda c: sum(map(bool, c)) >= 2)


def schoolbook_product(a, b):
    """Coefficients of a*b for coefficient tuples, every pair multiplied."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def schoolbook_quotient(a, b):
    """The quotient a/b for coefficient tuples (b nonzero), or None when b does not divide a in Z[t].

    Long division over the rationals: b divides a in Z[t] exactly when the
    remainder is zero and every quotient coefficient is an integer.
    """
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= quot[i] * y
    if any(rem) or any(q.denominator != 1 for q in quot):
        return None
    return [int(q) for q in quot]


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).coeffs == ()

    def test_degree_of_zero_is_sentinel(self):
        """The zero polynomial has degree -1, a plain int below every real degree, as in FLINT and NTL."""
        assert Polynomial.zero("t").degree() == -1
        assert P(0, 0).degree() == -1
        assert P(5).degree() == 0
        assert P(1, 1).degree() == 1

    def test_mul_examples(self):
        assert P(1, 1) * P(1, 1, 1) == P(1, 2, 2, 1)
        p = P(3, 0, -2)
        assert p * Polynomial.one("t") == p
        assert P(1, 1, var="q") * P(1, -1, var="q") == P(1, 0, -1, var="q")

    def test_mul_degree_additive(self):
        a, b = P(1, 2, 3), P(-1, 0, 0, 4)
        assert (a * b).degree() == a.degree() + b.degree()

    def test_variable_mismatch_is_error(self):
        with pytest.raises(ValueError, match="variable mismatch"):
            P(1, 1) * P(1, 1, var="q")
        with pytest.raises(ValueError, match="variable mismatch"):
            P(1, 1) + P(1, var="q")

    def test_int_coercion(self):
        assert P(1, 1) + 1 == P(2, 1)
        assert 2 * P(0, 1) == P(0, 2)
        assert 1 - P(0, 1) == P(1, -1)

    def test_evaluate(self):
        assert P(1, 2, 4, 2, 1)(-1) == 2
        assert P(1, 2, 4, 2, 1)(1) == 10
        assert Polynomial.zero("t")(5) == 0

    def test_str_canonical(self):
        assert str(P(1, 2, 4, 2, 1)) == "1+2t+4t^2+2t^3+t^4"
        assert str(P(0, 0, 0, -1)) == "-t^3"
        assert str(P(-1, 1)) == "-1+t"
        assert str(Polynomial.zero("q")) == "0"
        assert str(P(0, 1)) == "t"
        assert str(P(0, -1)) == "-t"
        assert str(P(1, 0, -1, var="q")) == "1-q^2"

    def test_json_round_trip(self):
        p = P(1, -2, 0, 7)
        blob = json.dumps(p.to_json())
        assert json.loads(blob) == {"var": "t", "coeffs": ["1", "-2", "0", "7"]}
        assert Polynomial.from_json(json.loads(blob)) == p

    def test_bool_coefficient_rejected(self):
        with pytest.raises(TypeError, match="got bool"):
            P(True)
        with pytest.raises(TypeError, match="got bool"):
            P(1, False, 2)

    def test_equality_with_bool_does_not_raise(self):
        one, p = Polynomial.one("t"), P(1, 2)
        assert one == True  # noqa: E712 -- the comparison under test
        assert Polynomial.zero("t") == False  # noqa: E712
        assert p != False  # noqa: E712
        assert p != True  # noqa: E712
        assert True in [one]
        assert RationalFunction(one) == True  # noqa: E712
        assert RationalFunction(p) != True  # noqa: E712
        assert RationalFunction(one, P(0, 1)) != True  # noqa: E712

    def test_hash_agrees_with_equality(self):
        assert len({P(1), 1}) == 1
        assert len({P(), 0}) == 1
        assert len({P(-7), -7, RationalFunction(P(-7))}) == 1
        assert {P(1, 2): "p"}[P(1, 2)] == "p"

    def test_bool_operand_rejected(self):
        p = P(1, 2)
        for op in (lambda: p + True, lambda: True + p, lambda: p - True, lambda: p * True, lambda: False * p):
            with pytest.raises(TypeError, match="got bool"):
                op()


class TestExactDivision:
    def test_spec_quotient(self):
        a = P(1, 1, 2, 1, 1, var="q")
        b = P(1, 1, 1, var="q")
        q = poly_exact_div(a, b)
        assert q == P(1, 0, 1, var="q")
        assert q * b == a  # multiply-back oracle

    def test_self_division(self):
        p = P(2, 0, 5)
        assert poly_exact_div(p, p) == Polynomial.one("t")

    def test_not_divisible_carries_operands(self):
        a, b = P(1, 1, var="q"), P(1, 1, 1, var="q")
        with pytest.raises(NotDivisibleError) as err:
            poly_exact_div(a, b)
        assert err.value.dividend == a
        assert err.value.divisor == b

    def test_integer_content_obstruction(self):
        with pytest.raises(NotDivisibleError):
            poly_exact_div(P(0, 1), P(2))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly_exact_div(P(1), Polynomial.zero("t"))

    @pytest.mark.parametrize(
        "dividend, divisor",
        [
            ((1, 0, 0, 1), (0, 0, 1)),  # (1 + t^3)/t^2: a nonzero coefficient below t^2
            ((0, 0, 1, 0, 0, 1), (0, 0, 2)),  # (t^2 + t^5)/(2t^2): content
            ((0, 1, 0, 0, 1), (0, 1, 0, 1)),  # (t + t^4)/(t + t^3): remainder after t is split off
        ],
    )
    def test_not_divisible_with_low_zero_block(self, dividend, divisor):
        with pytest.raises(NotDivisibleError):
            poly_exact_div(P(*dividend), P(*divisor))

    @staticmethod
    def slot_widths(monkeypatch):
        """Record the slot width of each packed division; a width past 64 bytes fails instead of growing on."""
        pack, widths = exactalg._pack, []

        def recorded(coeffs, nbytes):
            if nbytes > 64:
                raise AssertionError(f"slot widened to {nbytes} bytes")
            if not widths or widths[-1] != nbytes:
                widths.append(nbytes)
            return pack(coeffs, nbytes)

        monkeypatch.setattr(exactalg, "_pack", recorded)
        return widths

    def test_quotient_wider_than_the_first_slot(self, monkeypatch):
        # |a|_inf = 255 and |b|_1 = 4 give a 2-byte slot, but |q|_inf * |b|_1 = 65536
        # is not below 2**15, so the slot widens once
        q = P(*(i * (256 - i) for i in range(257)))
        b = P(1, -2, 1)
        a = q * b
        assert max(map(abs, a.coeffs)) == 255 and max(q.coeffs) == 16384
        widths = self.slot_widths(monkeypatch)
        assert poly_exact_div(a, b) == q
        assert widths == [2, 4]

    @pytest.mark.parametrize("power, widths", [(1, [1]), (10, [1, 2])])
    def test_widening_stops_at_the_landau_mignotte_bound(self, monkeypatch, power, widths):
        # (t^p + t^(p+1)) / (2 + 2t) = t^p / 2: at t = 2**w the packed division is
        # exact, but the digits of 2**(wp - 1) never pass the bound, so the slot
        # widens until 2**(w-1) exceeds 2^deg(a) * ||a||_2 * |b|_1 and raises
        a, b = P(*[0] * power, 1, 1), P(2, 2)
        seen = self.slot_widths(monkeypatch)
        with pytest.raises(NotDivisibleError) as err:
            poly_exact_div(a, b)
        assert (err.value.dividend, err.value.divisor) == (a, b)
        assert seen == widths


@given(low_block_lists, low_block_lists)
def test_mul_with_zero_low_blocks_matches_schoolbook(a, b):
    a, b = P(*a), P(*b)
    assert a * b == Polynomial("t", schoolbook_product(a.coeffs, b.coeffs))


@given(wide_block_lists, st.one_of(low_block_lists.filter(any), multi_term_lists), wide_block_lists)
def test_exact_div_with_zero_low_blocks_matches_schoolbook(a, b, noise):
    # dividend a*b + noise: divisible when noise is zero, and decided by the
    # reference long division otherwise; coefficients up to +-2**80 on a
    # multi-term divisor hold several packed slot widths to the reference
    b = P(*b)
    product = schoolbook_product(P(*a).coeffs, b.coeffs)
    dividend = P(*(x + y for x, y in zip_longest(product, noise, fillvalue=0)))
    expected = schoolbook_quotient(dividend.coeffs, b.coeffs)
    if expected is None:
        with pytest.raises(NotDivisibleError):
            poly_exact_div(dividend, b)
    else:
        assert poly_exact_div(dividend, b) == Polynomial("t", expected)


class TestSubstitution:
    def test_neg(self):
        assert P(1, 1, 1).subs_neg() == P(1, -1, 1)

    def test_square(self):
        assert P(1, 1).subs_square() == P(1, 0, 1)

    def test_eval_rule(self):
        assert P(1, 2, 4, 2, 1)(-1) == 2

    def test_neg_is_involution(self):
        p = P(3, -1, 0, 7, 2)
        assert p.subs_neg().subs_neg() == p


class TestGcd:
    def test_common_factor(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_content_only(self):
        assert poly_gcd(P(2, 4), P(6)) == P(2)

    def test_positive_leading_normalization(self):
        assert poly_gcd(P(0, -2), P(0, 0, -4)) == P(0, 2)

    def test_zero_operands(self):
        assert poly_gcd(Polynomial.zero("t"), P(-3, 1)) == P(-3, 1)
        assert poly_gcd(P(3, -1), Polynomial.zero("t")) == P(-3, 1)


class TestRationalFunction:
    def test_reduction(self):
        r = RationalFunction(P(-1, 0, 1), P(-1, 1))
        assert r.num == P(1, 1)
        assert r.den == Polynomial.one("t")

    def test_zero_numerator(self):
        r = RationalFunction(Polynomial.zero("t"), P(5, 1))
        assert r.num == Polynomial.zero("t")
        assert r.den == Polynomial.one("t")

    def test_sign_canonicalization(self):
        r = RationalFunction(P(2, 2), P(-2))
        assert r.num == P(-1, -1)
        assert r.den == Polynomial.one("t")

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P(1), Polynomial.zero("t"))

    def test_arithmetic_and_equality(self):
        half = RationalFunction(Polynomial.one("t"), P(-1, 1))  # 1/(t-1)
        other = RationalFunction(Polynomial.one("t"), P(1, 1))  # 1/(t+1)
        total = half + other
        assert total == RationalFunction(P(0, 2), P(-1, 0, 1))
        assert half * other == RationalFunction(Polynomial.one("t"), P(-1, 0, 1))
        assert half - half == RationalFunction.zero("t")
        assert half * other.reciprocal() == RationalFunction(P(1, 1), P(-1, 1))

    def test_reciprocal(self):
        r = RationalFunction(P(0, -1))
        assert r.reciprocal() == RationalFunction(P(-1), P(0, 1))
        with pytest.raises(ZeroDivisionError):
            RationalFunction.zero("t").reciprocal()

    def test_str(self):
        assert str(RationalFunction(P(0, 1))) == "t"
        assert str(RationalFunction(P(1), P(0, 1))) == "(1)/(t)"

    def test_equality_across_variables_is_false(self):
        # as for two polynomials, or two rational functions, in different variables
        q = P(1, 2, var="q")
        for r in (RationalFunction(P(1, 2)), RationalFunction(P(1), P(0, 1))):
            assert r != q
            assert q != r
            assert q not in [r]
            assert r not in [q]
        assert RationalFunction(P(1, 2)) != RationalFunction(q)

    def test_hash_agrees_with_equality(self):
        p = P(1, 2)
        assert len({p, RationalFunction(p)}) == 1
        assert len({RationalFunction(P(3)), 3}) == 1
        r = RationalFunction(P(1), P(0, 1))
        assert len({r, RationalFunction(P(2), P(0, 2))}) == 1

    def test_integer_pair_is_type_error(self):
        with pytest.raises(TypeError, match="polynomial denominator"):
            RationalFunction(3, 5)
        with pytest.raises(TypeError, match="polynomial denominator"):
            RationalFunction(3)
        assert RationalFunction(3, P(0, 1)) == RationalFunction(P(3), P(0, 1))

    def test_integer_denominator_is_a_constant_polynomial(self):
        p = P(1, 2)
        assert RationalFunction(p, 4) == RationalFunction(p, Polynomial("t", (4,)))


def S(*coeffs):
    return TruncatedSeries(coeffs)


class TestTruncatedSeries:
    def test_mul_identity(self):
        f = S(3, 1, 4, 1)
        one = TruncatedSeries.constant(1, 3)
        assert f * one == f

    def test_mul_truncates(self):
        assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            S(1, 1) * S(1, 1, 1)
        with pytest.raises(ValueError, match="comparable"):
            S(1, 1) == S(1, 1, 0)

    def test_invert_one(self):
        one = TruncatedSeries.constant(1, 4)
        assert one.invert() == one

    def test_invert_geometric(self):
        assert S(1, -1, 0, 0).invert() == S(1, 1, 1, 1)

    def test_invert_roundtrip(self):
        f = S(-1, 3, -2, 5, 7)
        assert f * f.invert() == TruncatedSeries.constant(1, 4)

    def test_invert_non_unit(self):
        with pytest.raises(NotInvertibleError):
            S(2, 1).invert()
        with pytest.raises(NotInvertibleError):
            TruncatedSeries([Polynomial("t", (1, 1)), Polynomial.one("t")]).invert()

    def test_substitute_neg(self):
        assert S(1, 1, 1).subs_neg_z() == S(1, -1, 1)

    def test_substitute_square(self):
        assert S(1, 1, 0, 0).subs_z_squared() == S(1, 0, 1, 0)
        # coefficients beyond order/2 are discarded
        assert S(1, 2, 3).subs_z_squared() == S(1, 0, 2)

    def test_shift_up(self):
        assert S(1, 2, 3, 4).shift_up(2) == S(0, 0, 1, 2)

    @pytest.mark.parametrize("order", range(5))
    def test_shift_up_past_the_order(self, order):
        # z^k * f at fixed order: the zero series once k > order
        f = TruncatedSeries(range(1, order + 2))
        for k in range(order + 4):
            assert f.shift_up(k) == TruncatedSeries([i - k + 1 if i >= k else 0 for i in range(order + 1)]), k

    def test_truncate(self):
        assert S(1, 2, 3).truncate(1) == S(1, 2)

    def test_product_of_signed_series_prefix(self):
        # prefix of the signed family c(t,z) times c(-t,-z) at order 4 equals
        # the order-4 prefix of C(t^2, z^2); expected values derived by hand
        # from the first-terms lists.
        t = "t"
        c = [
            Polynomial(t, (1,)),
            Polynomial(t, (1,)),
            Polynomial(t, (1, 1)),
            Polynomial(t, (1, 1, 1)),
            Polynomial(t, (1, 2, 2, 1)),
        ]
        f = TruncatedSeries(c, 4)
        g = TruncatedSeries([p.subs_neg() for p in c], 4).subs_neg_z()
        product = f * g
        expected = TruncatedSeries(
            [
                Polynomial(t, (1,)),
                Polynomial.zero(t),
                Polynomial(t, (1,)),
                Polynomial.zero(t),
                Polynomial(t, (1, 0, 1)),
            ],
            4,
        )
        assert product == expected
