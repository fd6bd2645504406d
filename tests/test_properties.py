"""Randomized algebra-law checks for the exact arithmetic layer."""

import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnarayana.exactalg import (
    NotDivisibleError,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    _cross,
    poly_exact_div,
    poly_gcd,
    ring_one_like,
)
from qnarayana.hankel import JFraction, jfraction_extract, jfraction_to_series

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


@given(st.lists(st.integers(), max_size=12), st.sampled_from((1, -1)))
@example([], 1)
@example([], -1)
def test_evaluation_at_plus_minus_one_matches_horner(coeffs, x):
    p = Polynomial("t", coeffs)
    horner = 0
    for c in reversed(p.coeffs):
        horner = horner * x + c
    assert p(x) == horner


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


# The packed series kernel: over Z[t], TruncatedSeries * and invert() run on
# each coefficient's value at t = 2**w.  The oracle below is the coefficient-wise
# loop written with Polynomial * and + only.

def reference_product(f, g):
    out = []
    for m in range(f.order + 1):
        acc = f.coeffs[0] * g.coeffs[m]
        for i in range(1, m + 1):
            acc = acc + f.coeffs[i] * g.coeffs[m - i]
        out.append(acc)
    return out


def reference_inverse(f):
    inv0 = f.coeffs[0]  # +-1 is its own inverse; a rational function is inverted in the field
    if isinstance(inv0, RationalFunction):
        inv0 = inv0.reciprocal()
    out = [inv0]
    for m in range(1, f.order + 1):
        acc = f.coeffs[1] * out[m - 1]
        for i in range(2, m + 1):
            acc = acc + f.coeffs[i] * out[m - i]
        out.append(-(inv0 * acc))
    return out


def spelled(coeffs):
    """Coefficients with their types and variables, so an int never passes for a constant polynomial.

    A rational function is spelled as its numerator and denominator.
    """
    return [("RationalFunction", *spelled((c.num, c.den))) if isinstance(c, RationalFunction)
            else (type(c).__name__, getattr(c, "var", None), getattr(c, "coeffs", c)) for c in coeffs]


EDGES = [s * v for k in (1, 2, 3) for v in (2 ** (8 * k) - 1, 2 ** (8 * k)) for s in (1, -1)]


def rand_edge_poly(rng):
    """Signed coefficients from small values, zeros and the byte-boundary magnitudes, of random degree."""
    pool = (0, 1, -1, 7, -9) + tuple(EDGES)
    return Polynomial("t", [rng.choice(pool) for _ in range(rng.randint(0, 6))])


def rand_poly_series(rng, order, unit=False):
    coeffs = [rand_edge_poly(rng) for _ in range(order + 1)]
    if unit:
        coeffs[0] = Polynomial.constant("t", rng.choice((1, -1)))
    return TruncatedSeries(coeffs, order)


def rand_ratfun_series(rng, order, unit=False):
    """rand_poly_series with every coefficient a rational function of denominator 1."""
    return rand_poly_series(rng, order, unit).map_coeffs(RationalFunction)


def test_packed_product_matches_reference():
    rng = random.Random(60601)
    for _ in range(300):
        order = rng.randint(0, 7)
        f, g = rand_poly_series(rng, order), rand_poly_series(rng, order)
        assert spelled((f * g).coeffs) == spelled(reference_product(f, g)), (f, g)


def test_packed_inverse_matches_reference():
    rng = random.Random(60602)
    for _ in range(300):
        f = rand_poly_series(rng, rng.randint(0, 7), unit=True)
        assert spelled(f.invert().coeffs) == spelled(reference_inverse(f)), f


def P(*coeffs):
    return Polynomial("t", coeffs)


# The first three products and the first inverse leave no spare byte: a slot
# one byte narrower still holds every input but not the largest output
# coefficient (255 * 257 = 2**16 - 1; the inverse of 1 - 255z has 255**m).
KERNEL_EDGE_PRODUCTS = [
    (TruncatedSeries([P(255)]), TruncatedSeries([P(257)])),
    (TruncatedSeries([P(-(2 ** 16 - 1))]), TruncatedSeries([P(2 ** 16)])),
    (TruncatedSeries([P(2 ** 24, -1), P(1, 1)]), TruncatedSeries([P(-(2 ** 24)), P(0, 0, 2 ** 8 - 1)])),
    # coefficient 1 cancels to the zero polynomial: p*(-p) + p*p
    (TruncatedSeries([P(3, -1, 2), P(3, -1, 2)]), TruncatedSeries([P(3, -1, 2), P(-3, 1, -2)])),
    # an all-zero operand
    (TruncatedSeries([P(5, -2), P(1), P(0, 0, 9)]), TruncatedSeries([P(), P(), P()])),
    (TruncatedSeries([P(), P()]), TruncatedSeries([P(), P()])),
]
KERNEL_EDGE_INVERSES = [
    TruncatedSeries([P(1), P(-255), P()]),
    TruncatedSeries([P(-1)]),
    TruncatedSeries([P(-1), P(255, -256), P(2 ** 16 - 1)]),
    TruncatedSeries([P(1), P(), P(0, 2 ** 8)]),
]


def test_packed_kernel_edge_cases():
    for f, g in KERNEL_EDGE_PRODUCTS:
        assert spelled((f * g).coeffs) == spelled(reference_product(f, g)), (f, g)
        assert spelled((g * f).coeffs) == spelled(reference_product(g, f)), (g, f)
    assert (KERNEL_EDGE_PRODUCTS[3][0] * KERNEL_EDGE_PRODUCTS[3][1]).coeffs[1] == P()
    for f in KERNEL_EDGE_INVERSES:
        assert spelled(f.invert().coeffs) == spelled(reference_inverse(f)), f
        assert f * f.invert() == TruncatedSeries.constant(P(1), f.order)


def kernel(case):
    """f * g for a pair (f, g), f.invert() for a single (f,)."""
    return case[0] * case[1] if len(case) == 2 else case[0].invert()


def reference(case):
    return reference_product(*case) if len(case) == 2 else reference_inverse(*case)


def real_kernel_cases(order=60):
    """smallc * smallc(-t,-z) and bigG^2 as (f, g) pairs, bigC^-1 as (f,)."""
    from qnarayana.gfun import build_series

    c, G, C = (build_series(tag, order) for tag in ("smallc", "bigG", "bigC"))
    c_neg = c.map_coeffs(lambda p: p.subs_neg()).subs_neg_z()
    return [(c, c_neg), (G, G), (C,)]


def test_packed_kernel_on_the_package_series():
    for case in real_kernel_cases():
        assert spelled(kernel(case).coeffs) == spelled(reference(case))


def l1(p):
    return sum(abs(c) for c in p.coeffs)


def pinned_series_bound(case):
    """The slot bound of a series product or inverse, written out term by term."""
    largest = max((abs(c) for f in case for p in f.coeffs for c in p.coeffs), default=0)
    f = case[0]
    if len(case) == 2:
        g = case[1]
        sums = [sum(l1(f.coeffs[i]) * l1(g.coeffs[m - i]) for i in range(m + 1)) for m in range(f.order + 1)]
        return max(largest, max(sums))
    beta = [1]
    for m in range(1, f.order + 1):
        beta.append(sum(l1(f.coeffs[i]) * beta[m - i] for i in range(1, m + 1)))
    return max(largest, max(beta))


def test_slot_bounds_are_pinned(monkeypatch):
    from qnarayana import exactalg

    width, seen = exactalg._slot_bytes, []
    monkeypatch.setattr(exactalg, "_slot_bytes", lambda bound: seen.append(bound) or width(bound))
    rng = random.Random(60605)
    cases = real_kernel_cases()
    for _ in range(100):
        order = rng.randint(0, 7)
        cases.append((rand_poly_series(rng, order), rand_poly_series(rng, order)))
        cases.append((rand_poly_series(rng, order, unit=True),))
    for case in cases:
        seen.clear()
        kernel(case)
        assert seen == [pinned_series_bound(case)], case


def test_slot_one_byte_narrower_is_caught(monkeypatch):
    from qnarayana import exactalg

    width = exactalg._slot_bytes
    monkeypatch.setattr(exactalg, "_slot_bytes", lambda bound: width(bound) - 1)
    for f, g in KERNEL_EDGE_PRODUCTS[:3]:
        assert (f * g).coeffs != tuple(reference_product(f, g)), (f, g)
    f = KERNEL_EDGE_INVERSES[0]
    assert f.invert().coeffs != tuple(reference_inverse(f))


def test_generic_rings_keep_the_coefficient_loop(monkeypatch):
    """A coefficient outside Z[t], mixed coefficient types or a constant term other than +-1 never packs."""
    from qnarayana import exactalg

    def packed(*args):
        raise AssertionError("packed kernel used outside Z[t]")

    monkeypatch.setattr(exactalg, "_pack", packed)
    rng = random.Random(60603)
    for _ in range(40):
        order = rng.randint(0, 5)
        f, g = rand_series(rng, order), rand_series(rng, order)
        assert spelled((f * g).coeffs) == spelled(reference_product(f, g))
        unit = TruncatedSeries([rng.choice((1, -1))] + list(f.coeffs[1:]), order)
        assert spelled(unit.invert().coeffs) == spelled(reference_inverse(unit))
        # one coefficient with a denominator other than 1, anywhere in the series
        r = rand_ratfun_series(rng, order, unit=True)
        at = rng.randint(0, order)
        r = TruncatedSeries(r.coeffs[:at] + (rand_ratfun(rng, False),) + r.coeffs[at + 1:], order)
        s = rand_ratfun_series(rng, order)
        assert spelled((r * s).coeffs) == spelled(reference_product(r, s))
        assert spelled((s * r).coeffs) == spelled(reference_product(s, r))
        assert spelled(r.invert().coeffs) == spelled(reference_inverse(r))
        # denominator 1 throughout, but 1/a_0 leaves Z[t]
        for a0 in (RationalFunction(P(rng.choice((2, -2, 3)))), RationalFunction(P(1, 1)),
                   RationalFunction(P(0, rng.choice((1, -1))))):
            s_off = TruncatedSeries((a0,) + s.coeffs[1:], order)
            assert spelled(s_off.invert().coeffs) == spelled(reference_inverse(s_off))
        # denominator 1 throughout, but polynomials beside rational functions
        p = rand_poly_series(rng, order, unit=True)
        assert spelled((p * s).coeffs) == spelled(reference_product(p, s))
        assert spelled((s * p).coeffs) == spelled(reference_product(s, p))
        if order:
            both = TruncatedSeries(p.coeffs[:1] + s.coeffs[1:], order)
            assert spelled((both * both).coeffs) == spelled(reference_product(both, both))
            assert spelled(both.invert().coeffs) == spelled(reference_inverse(both))
    mixed = TruncatedSeries([1, P(0, 1), -3])
    other = TruncatedSeries([P(1, 1), 2, P(-1)])
    assert spelled((mixed * other).coeffs) == spelled(reference_product(mixed, other))
    assert spelled(mixed.invert().coeffs) == spelled(reference_inverse(mixed))


def test_polynomial_series_in_two_variables_still_raise():
    f = TruncatedSeries([P(1), P(0, 1)])
    g = TruncatedSeries([Polynomial("q", (1,)), Polynomial("q", (0, 1))])
    with pytest.raises(ValueError, match="variable mismatch"):
        f * g
    with pytest.raises(ValueError, match="variable mismatch"):
        TruncatedSeries([P(1), Polynomial("q", (0, 1))]).invert()


def test_packed_path_makes_no_coefficient_products(monkeypatch):
    f = rand_poly_series(random.Random(60604), 6, unit=True)
    want_product, want_inverse = spelled(reference_product(f, f)), spelled(reference_inverse(f))

    def schoolbook(*args):
        raise AssertionError("Polynomial.__mul__ called")

    monkeypatch.setattr(Polynomial, "__mul__", schoolbook)
    assert spelled((f * f).coeffs) == want_product
    assert spelled(f.invert().coeffs) == want_inverse


def test_polynomial_and_denominator_one_series_pack_alike(monkeypatch):
    """Over denominator-1 rational functions the kernel packs the numerators in the same slots."""
    from qnarayana import exactalg

    width, seen = exactalg._slot_bytes, []
    monkeypatch.setattr(exactalg, "_slot_bytes", lambda bound: seen.append(bound) or width(bound))
    rng = random.Random(60606)
    for _ in range(100):
        order = rng.randint(0, 7)
        for case in ((rand_poly_series(rng, order), rand_poly_series(rng, order)),
                     (rand_poly_series(rng, order, unit=True),)):
            seen.clear()
            kernel(tuple(f.map_coeffs(RationalFunction) for f in case))
            assert seen == [pinned_series_bound(case)], case


def test_denominator_one_packed_path_makes_no_coefficient_products(monkeypatch):
    f = rand_ratfun_series(random.Random(60607), 6, unit=True)
    want_product, want_inverse = spelled(reference_product(f, f)), spelled(reference_inverse(f))

    def schoolbook(*args):
        raise AssertionError("Polynomial.__mul__ called")

    monkeypatch.setattr(Polynomial, "__mul__", schoolbook)
    assert spelled((f * f).coeffs) == want_product
    assert spelled(f.invert().coeffs) == want_inverse


edge_polys = st.lists(st.sampled_from((0, 1, -1, 7, -9) + tuple(EDGES)), max_size=6).map(lambda c: Polynomial("t", c))
unit_den = edge_polys.map(RationalFunction)


def unit_den_series(order, count):
    return st.tuples(*(st.lists(unit_den, min_size=order + 1, max_size=order + 1) for _ in range(count)))


@given(st.integers(0, 7).flatmap(lambda order: unit_den_series(order, 2)))
@settings(max_examples=150)
def test_denominator_one_product_matches_reference(pair):
    f, g = (TruncatedSeries(coeffs) for coeffs in pair)
    assert spelled((f * g).coeffs) == spelled(reference_product(f, g))


@given(st.sampled_from((1, -1)), st.integers(0, 7).flatmap(lambda order: unit_den_series(order, 1)))
@settings(max_examples=150)
def test_denominator_one_inverse_matches_reference(a0, coeffs):
    f = TruncatedSeries([RationalFunction(P(a0))] + coeffs[0][1:])
    assert spelled(f.invert().coeffs) == spelled(reference_inverse(f))
    assert f * f.invert() == TruncatedSeries.constant(RationalFunction(P(1)), f.order)


# Single-term operands: Polynomial * takes an inner operand c*t^v in one
# list, and poly_exact_div a divisor c*t^v as a slice (c = +-1) or one list
# of divmod.  The oracle is the schoolbook double loop.

SINGLE_TERM_COEFFS = (1, -1, 2, -2, 3, 2 ** 16, -(2 ** 24))


def schoolbook(p, q):
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1) if p and q else []
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial("t", out)


def check_single_term(p, c, v):
    m = Polynomial.monomial("t", v, c)
    want = schoolbook(p, m)
    assert p * m == want and m * p == want, (p, m)
    assert poly_exact_div(p * m, m) == p, (p, m)
    if v == 0:  # an int operand is the constant polynomial
        assert p * c == want and c * p == want, (p, c)


def test_single_term_product_and_division_match_schoolbook():
    rng = random.Random(70701)
    for c in SINGLE_TERM_COEFFS:
        for v in range(7):
            check_single_term(Polynomial.zero("t"), c, v)
            for _ in range(20):
                p = rand_edge_poly(rng)
                if rng.random() < 0.3:  # a zero low block on the outer operand too
                    p = p * Polynomial.monomial("t", rng.randint(1, 3))
                check_single_term(p, c, v)


@given(coeff_lists, st.sampled_from(SINGLE_TERM_COEFFS), st.integers(0, 6))
def test_single_term_paths_hypothesis(coeffs, c, v):
    check_single_term(Polynomial("t", coeffs), c, v)


def test_single_term_division_refuses_what_is_not_a_multiple():
    rng = random.Random(70702)
    for c in SINGLE_TERM_COEFFS:
        for v in range(7):
            m = Polynomial.monomial("t", v, c)
            for _ in range(10):
                p = rand_edge_poly(rng)
                if not p:
                    continue
                if abs(c) > 1:  # one coefficient from v on is off a multiple of c
                    coeffs = list((p * m).coeffs)
                    coeffs[rng.randint(v, len(coeffs) - 1)] += rng.choice((1, -1)) * rng.randint(1, abs(c) - 1)
                    with pytest.raises(NotDivisibleError):
                        poly_exact_div(Polynomial("t", coeffs), m)
                if v:  # a nonzero coefficient below t^v
                    coeffs = list((p * m).coeffs)
                    coeffs[rng.randint(0, v - 1)] = c * rng.choice((1, -1, 5))
                    with pytest.raises(NotDivisibleError):
                        poly_exact_div(Polynomial("t", coeffs), m)
                    # a dividend shorter than the divisor
                    with pytest.raises(NotDivisibleError):
                        poly_exact_div(Polynomial.monomial("t", rng.randint(0, v - 1), c), m)
            assert poly_exact_div(Polynomial.zero("t"), m) == Polynomial.zero("t")
            if abs(c) > 1:
                with pytest.raises(NotDivisibleError):
                    poly_exact_div(P(*([0] * v + [c, c + 1])), m)


# The fraction-free entry update: _cross(x, p, y, z) is x*p - y*z in one
# list, with x written at the offset of a single-term p and y*z subtracted
# over the nonzero tails; any other p falls back to the operators.  The
# oracle is the schoolbook double loop, which shares no code with either.

low_block_polys = st.tuples(st.integers(0, 4), coeff_lists).map(lambda vc: Polynomial("t", [0] * vc[0] + vc[1]))
single_terms = st.builds(lambda c, e: Polynomial.monomial("t", e, c), st.sampled_from(SINGLE_TERM_COEFFS),
                         st.integers(0, 6))
multi_terms = low_block_polys.filter(lambda p: sum(map(bool, p.coeffs)) > 1)


def no_polynomial_product(*args):
    raise AssertionError("Polynomial.__mul__ called")


@given(low_block_polys, st.one_of(single_terms, st.just(Polynomial.zero("t")), multi_terms),
       low_block_polys, low_block_polys)
@settings(max_examples=300)
def test_cross_is_x_times_p_minus_y_times_z(x, p, y, z):
    want = schoolbook(x, p) - schoolbook(y, z)
    assert want == x * p - y * z
    if sum(map(bool, p.coeffs)) <= 1:  # a single-term or zero pivot builds no product
        with mock.patch.object(Polynomial, "__mul__", no_polynomial_product):
            got = _cross(x, p, y, z)
    else:
        got = _cross(x, p, y, z)
    assert got == want, (x, p, y, z)
    assert got.coeffs[-1:] != (0,)


def test_cross_zero_operands():
    zero, x, p = Polynomial.zero("t"), P(0, 3, -1), Polynomial.monomial("t", 2, -5)
    assert _cross(zero, p, zero, x) == zero
    assert _cross(x, zero, zero, zero) == zero
    assert _cross(zero, zero, x, x) == -(x * x)
    assert _cross(x, p, x, p) == zero
    assert _cross(x, p, zero, x) == x * p


def test_cross_refuses_a_variable_mismatch():
    t = P(0, 1)
    for p in (Polynomial.monomial("t", 2, 3), P(1, 1)):  # a single-term pivot, then a sum of two
        q, p_in_q = Polynomial("q", t.coeffs), Polynomial("q", p.coeffs)
        for args in ((q, p, t, t), (t, p_in_q, t, t), (t, p, q, t), (t, p, t, q)):
            with pytest.raises(ValueError, match="variable mismatch"):
                _cross(*args)


# Squares: f * f (one object on both sides) packs once and _convolve computes
# each symmetric pair once.  An equal but distinct g runs the general product.

def distinct_copy(f):
    return TruncatedSeries(list(f.coeffs), f.order)


def test_square_equals_product_of_distinct_equal_series():
    rng = random.Random(70703)
    for order in range(8):
        for _ in range(15):
            f_int = rand_series(rng, order)
            f_poly = rand_poly_series(rng, order)
            f_unit = rand_ratfun_series(rng, order)
            f_rf = TruncatedSeries([rand_ratfun(rng, rng.random() < 0.5) for _ in range(order + 1)], order)
            for f in (f_int, f_poly, f_unit, f_rf):
                g = distinct_copy(f)
                assert g is not f and g.coeffs is not f.coeffs
                want = spelled(reference_product(f, g))
                assert spelled((f * f).coeffs) == want, f
                assert spelled((f * g).coeffs) == want, f


def test_square_slot_bound_is_pinned(monkeypatch):
    from qnarayana import exactalg

    width, seen = exactalg._slot_bytes, []
    monkeypatch.setattr(exactalg, "_slot_bytes", lambda bound: seen.append(bound) or width(bound))
    rng = random.Random(70704)
    for order in range(8):
        f = rand_poly_series(rng, order)
        for square in (f, f.map_coeffs(RationalFunction)):
            seen.clear()
            square * square
            assert seen == [pinned_series_bound((f, f))], f


# The q-row's checked division by (1 - q^m): p * (1 - q^m) divides back to p,
# and a dividend changed in one coefficient is never divisible, since c*q^i
# (c != 0) does not vanish at q = 1 and 1 - q^m does.

@given(coeff_lists, st.integers(1, 12))
def test_division_by_one_minus_power_undoes_the_product(p, m):
    from qnarayana.qcomb import QVAR, _over_one_minus_power, _times_one_minus_power

    p = list(Polynomial(QVAR, p).coeffs)
    product = _times_one_minus_power(p, m)
    assert Polynomial(QVAR, product) == Polynomial(QVAR, p) * Polynomial(QVAR, [1] + [0] * (m - 1) + [-1])
    assert _over_one_minus_power(product, m) == p


@given(coeff_lists, st.integers(1, 12), st.data())
def test_division_by_one_minus_power_refuses_a_perturbed_dividend(p, m, data):
    from qnarayana.qcomb import _over_one_minus_power, _times_one_minus_power

    product = _times_one_minus_power(p, m)
    at = data.draw(st.integers(0, len(product) + 2))
    product += [0] * (at + 1 - len(product))
    product[at] += data.draw(st.integers(-9, 9).filter(bool))
    with pytest.raises(NotDivisibleError):
        _over_one_minus_power(product, m)


# J-fractions: jfraction_to_series evaluates by the convergent recurrence.  The
# reference below is the level-by-level evaluation, one series inverse per
# level: f_d = 1/(1 - s_d z), f_k = 1/(1 - s_k z - t_k z^2 f_(k+1)).

def levelwise_jfraction_to_series(jf, order):
    if not jf.s:
        return TruncatedSeries.constant(RationalFunction.one("t"), order)
    one = ring_one_like(jf.s[0])
    zero = one - one
    ones = TruncatedSeries.constant(one, order)
    f = (ones - TruncatedSeries.from_coeffs([zero, jf.s[-1]], order)).invert()
    for k in range(len(jf.t_coeffs) - 1, -1, -1):
        level = ones - TruncatedSeries.from_coeffs([zero, jf.s[k]], order) - f.shift_up(2).scale(jf.t_coeffs[k])
        f = level.invert()
    return f


small_polys = st.lists(st.integers(-3, 3), max_size=3).map(lambda coeffs: Polynomial("t", coeffs))
# denominators 1, 1+t, t, 2 and (1-t)^2: t_k = 1/(1+t) and the like leave Z[t]
small_ratfuns = st.builds(RationalFunction, small_polys,
                          st.sampled_from([(1,), (1, 1), (0, 1), (2,), (1, -2, 1)]).map(lambda c: Polynomial("t", c)))


def jfractions(ring, max_depth=3):
    return st.integers(0, max_depth).flatmap(lambda d: st.builds(
        JFraction, st.tuples(*[ring] * (d + 1)), st.tuples(*[ring.filter(bool)] * d)))


@given(st.one_of(jfractions(small_polys), jfractions(small_ratfuns)), st.integers(0, 9))
@settings(max_examples=150, deadline=None)
@example(JFraction((), ()), 3)
def test_convergent_evaluation_matches_levelwise(jf, order):
    got = jfraction_to_series(jf, order)
    assert spelled(got.coeffs) == spelled(levelwise_jfraction_to_series(jf, order).coeffs), jf


@given(jfractions(small_ratfuns, max_depth=2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_terminated_fraction_reproduces_its_series(jf, extra):
    # a finite fraction of depth d is its own expansion: extraction one level
    # deeper stops there with terminated set, and evaluates back exactly
    order = 2 * jf.depth + 4 + extra
    series = levelwise_jfraction_to_series(jf, order)
    got = jfraction_extract(series, jf.depth + 1)
    assert got == jf._replace(terminated=True)
    assert jfraction_to_series(got, order) == series
