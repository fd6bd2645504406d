"""Randomized algebra-law checks for the exact arithmetic layer."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnarayana.exactalg import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    poly_exact_div,
    poly_gcd,
)

coeff_lists = st.lists(st.integers(-9, 9), max_size=9)


def rand_poly(rng, var="t", max_degree=8):
    return Polynomial(var, [rng.randint(-9, 9) for _ in range(rng.randint(0, max_degree + 1))])


def rand_series(rng, order):
    return TruncatedSeries([rng.randint(-9, 9) for _ in range(order + 1)], order)


def test_polynomial_ring_axioms_bulk():
    rng = random.Random(20240601)
    for _ in range(1000):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Polynomial.zero("t") == a
        assert a * Polynomial.one("t") == a


def test_exact_division_inverts_multiplication():
    rng = random.Random(987)
    checked = 0
    while checked < 1000:
        a, b = rand_poly(rng), rand_poly(rng)
        if not b:
            continue
        assert poly_exact_div(a * b, b) == a
        checked += 1


def test_gcd_divides_both_operands():
    rng = random.Random(55)
    for _ in range(300):
        a, b = rand_poly(rng, max_degree=6), rand_poly(rng, max_degree=6)
        g = poly_gcd(a, b)
        if not g:
            assert not a and not b
            continue
        assert g.leading_coefficient() > 0
        if a:
            poly_exact_div(a, g)
        if b:
            poly_exact_div(b, g)


def rand_gcd_operand(rng, kind):
    if kind == "zero":
        return Polynomial.zero("t")
    if kind == "monomial":  # +-c*t^k, k = 0 included
        return Polynomial.monomial("t", rng.randint(0, 4), rng.choice((1, -1)) * rng.randint(1, 12))
    return rand_poly(rng, max_degree=5)


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def sympy_gcd(a, b):
        g = sympy.gcd(sympy.Poly(a.coeffs[::-1] or [0], t), sympy.Poly(b.coeffs[::-1] or [0], t))
        g = Polynomial("t", [int(c) for c in reversed(g.all_coeffs())])
        return -g if g.leading_coefficient() < 0 else g

    rng = random.Random(8086)
    kinds = ("zero", "monomial", "general")
    for _ in range(60):
        for ka in kinds:
            for kb in kinds:
                a, b = rand_gcd_operand(rng, ka), rand_gcd_operand(rng, kb)
                if rng.random() < 0.5:  # shared content
                    d = rng.randint(2, 6)
                    a, b = a * d, b * d
                if rng.random() < 0.3:  # shared power of t
                    shift = Polynomial.monomial("t", rng.randint(1, 3))
                    a, b = a * shift, b * shift
                if ka == kb == "general" and rng.random() < 0.5:  # shared factor
                    k = rand_poly(rng, max_degree=3)
                    a, b = a * k, b * k
                assert poly_gcd(a, b) == sympy_gcd(a, b), (a, b)


@given(coeff_lists, coeff_lists)
def test_internal_results_are_canonical(a, b):
    pa, pb = Polynomial("t", a), Polynomial("t", b)
    results = [pa + pb, pa - pb, pa * pb, -pa, pa.primitive_part(), pa.subs_neg(), pa.subs_square()]
    if pb:
        results.append(poly_exact_div(pa * pb, pb))
    for p in results:
        assert all(type(c) is int for c in p.coeffs)
        assert not p.coeffs or p.coeffs[-1] != 0
        assert p == Polynomial(p.var, p.coeffs)


def test_rational_function_canonical_form():
    rng = random.Random(1729)
    checked = 0
    while checked < 400:
        num, den = rand_poly(rng, max_degree=4), rand_poly(rng, max_degree=4)
        if checked % 2:
            k = rand_gcd_operand(rng, "monomial")
        else:
            k = rand_poly(rng, max_degree=3)
        if not den or not k:
            continue
        r = RationalFunction(num * k, den * k)
        assert r == RationalFunction(num, den)
        assert r.den.leading_coefficient() > 0
        assert poly_gcd(r.num, r.den) == 1
        checked += 1


def rand_ratfun(rng, unit_den):
    """A random rational function whose reduced denominator is 1 exactly when unit_den."""
    while True:
        num = rand_poly(rng, max_degree=4)
        den = Polynomial.one("t") if unit_den else rand_poly(rng, max_degree=3)
        if den and (RationalFunction(num, den).den == 1) == unit_den:
            return RationalFunction(num, den)


def test_unit_denominator_arithmetic_matches_general_path():
    rng = random.Random(4242)
    for unit_a, unit_b in [(True, True), (True, False), (False, True), (False, False)] * 100:
        a, b = rand_ratfun(rng, unit_a), rand_ratfun(rng, unit_b)
        for got, num, den in ((a + b, a.num * b.den + b.num * a.den, a.den * b.den),
                              (a - b, a.num * b.den - b.num * a.den, a.den * b.den),
                              (a * b, a.num * b.num, a.den * b.den)):
            assert got == RationalFunction(num, den), (a, b)
            assert got.den.leading_coefficient() > 0
            assert poly_gcd(got.num, got.den) == 1


def test_series_ring_axioms_bulk():
    rng = random.Random(31337)
    for _ in range(1000):
        order = rng.randint(0, 6)
        f, g, h = (rand_series(rng, order) for _ in range(3))
        one = TruncatedSeries.constant(1, order)
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * one == f


def test_series_inverse_roundtrip():
    rng = random.Random(424242)
    for _ in range(300):
        order = rng.randint(0, 8)
        coeffs = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(order)]
        f = TruncatedSeries(coeffs, order)
        assert f * f.invert() == TruncatedSeries.constant(1, order)


@given(coeff_lists, coeff_lists)
def test_poly_addition_commutes(a, b):
    pa, pb = Polynomial("t", a), Polynomial("t", b)
    assert pa + pb == pb + pa


@given(coeff_lists, coeff_lists, coeff_lists)
def test_poly_multiplication_distributes(a, b, c):
    pa, pb, pc = (Polynomial("t", x) for x in (a, b, c))
    assert pa * (pb + pc) == pa * pb + pa * pc


@given(coeff_lists)
def test_sign_substitution_is_involution(a):
    p = Polynomial("t", a)
    assert p.subs_neg().subs_neg() == p


@given(coeff_lists)
@settings(max_examples=60)
def test_square_substitution_spreads_coefficients(a):
    p = Polynomial("t", a)
    q = p.subs_square()
    assert all(q.coefficient(2 * i + 1) == 0 for i in range(len(a)))
    assert all(q.coefficient(2 * i) == p.coefficient(i) for i in range(len(a)))


@given(st.lists(st.one_of(st.integers(), st.booleans()), max_size=9))
def test_every_accepted_polynomial_round_trips_through_json(coeffs):
    if any(type(c) is bool for c in coeffs):
        with pytest.raises(TypeError):
            Polynomial("t", coeffs)
        return
    p = Polynomial("t", coeffs)
    assert Polynomial.from_json(json.loads(json.dumps(p.to_json()))) == p


polys = coeff_lists.map(lambda coeffs: Polynomial("t", coeffs))
ratfuns = st.builds(RationalFunction, polys, polys.filter(bool))


def _through_json(blob):
    return json.loads(json.dumps(blob))


@given(ratfuns)
def test_rational_function_round_trips_through_json(r):
    assert RationalFunction.from_json(_through_json(r.to_json())) == r


@given(st.one_of(*(st.lists(ring, min_size=1, max_size=6) for ring in (st.integers(), polys, ratfuns))))
@settings(max_examples=60)
def test_series_round_trips_through_json(coeffs):
    f = TruncatedSeries(coeffs)
    assert TruncatedSeries.from_json(_through_json(f.to_json())) == f
