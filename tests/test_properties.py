"""Randomized algebra-law checks for the exact arithmetic layer."""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnarayana import cli, exactalg
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


def test_packed_division_across_slot_widths(monkeypatch):
    """Multi-term divisors with coefficients of 4 to 80 bits: products divide back, a product
    changed in one coefficient never does (b = t^v * b' with deg b' >= 1 divides no c*t^i),
    and the packed division runs at many slot widths."""
    pack, widths = exactalg._pack, set()
    monkeypatch.setattr(exactalg, "_pack", lambda coeffs, nbytes: widths.add(nbytes) or pack(coeffs, nbytes))
    rng = random.Random(2323)

    def wide_poly(terms):
        bits = rng.randint(4, 80)
        return Polynomial("t", [rng.randint(-(2 ** bits), 2 ** bits) for _ in range(terms)])

    checked = 0
    while checked < 300:
        a, b = wide_poly(rng.randint(1, 9)), Polynomial.monomial("t", rng.randint(0, 3)) * wide_poly(rng.randint(2, 6))
        if not a or sum(map(bool, b.coeffs)) < 2:
            continue
        product = a * b
        assert poly_exact_div(product, b) == a
        changed = product + Polynomial.monomial("t", rng.randint(0, len(product.coeffs)), rng.choice((1, -1, 2 ** 40)))
        with pytest.raises(NotDivisibleError):
            poly_exact_div(changed, b)
        checked += 1
    assert len(widths) >= 6, sorted(widths)


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
    q = Polynomial("t", a).subs_square()
    padded = q.coeffs + (0,) * (2 * len(a) - len(q.coeffs))
    assert padded[0::2] == tuple(a)
    assert padded[1::2] == (0,) * len(a)


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


# Slot widths climb a ladder (``exactalg._slot_bytes``): 1, 2, 4 and 8 bytes,
# then every whole byte.  The first four products and the first two inverses
# sit at the top of their rung: one rung narrower (8 -> 4 -> 2 bytes,
# n -> n - 1 above 8) still holds every input but not the largest output
# coefficient.  The products pack at 4, 8, 8 and 9 bytes (largest outputs
# 2**16 - 1, 2**32 - 2**16, about 2**48 and 2**64 - 1), the inverses of
# 1 - 255z and 1 - (2**32 - 1)z at 4 and 9 bytes (their z**2 coefficient is
# the square of the z coefficient).
KERNEL_EDGE_PRODUCTS = [
    (TruncatedSeries([P(255)]), TruncatedSeries([P(257)])),
    (TruncatedSeries([P(-(2 ** 16 - 1))]), TruncatedSeries([P(2 ** 16)])),
    (TruncatedSeries([P(2 ** 24, -1), P(1, 1)]), TruncatedSeries([P(-(2 ** 24)), P(0, 0, 2 ** 8 - 1)])),
    (TruncatedSeries([P(-(2 ** 32 - 1))]), TruncatedSeries([P(2 ** 32 + 1)])),
    # coefficient 1 cancels to the zero polynomial: p*(-p) + p*p
    (TruncatedSeries([P(3, -1, 2), P(3, -1, 2)]), TruncatedSeries([P(3, -1, 2), P(-3, 1, -2)])),
    # an all-zero operand
    (TruncatedSeries([P(5, -2), P(1), P(0, 0, 9)]), TruncatedSeries([P(), P(), P()])),
    (TruncatedSeries([P(), P()]), TruncatedSeries([P(), P()])),
]
KERNEL_EDGE_INVERSES = [
    TruncatedSeries([P(1), P(-255), P()]),
    TruncatedSeries([P(1), P(-(2 ** 32 - 1)), P()]),
    TruncatedSeries([P(-1)]),
    TruncatedSeries([P(-1), P(255, -256), P(2 ** 16 - 1)]),
    TruncatedSeries([P(1), P(), P(0, 2 ** 8)]),
]


def test_packed_kernel_edge_cases():
    for f, g in KERNEL_EDGE_PRODUCTS:
        assert spelled((f * g).coeffs) == spelled(reference_product(f, g)), (f, g)
        assert spelled((g * f).coeffs) == spelled(reference_product(g, f)), (g, f)
    assert (KERNEL_EDGE_PRODUCTS[4][0] * KERNEL_EDGE_PRODUCTS[4][1]).coeffs[1] == P()
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


def test_order_80_series_pack_at_their_exact_width(monkeypatch):
    """bigC^-1 and bigG^2 at order 80, the size of the deep identity checks, pack past a word
    in exactly the bytes their bound and a sign bit take, not rounded up to a larger slot."""
    from qnarayana.gfun import build_series

    C, G = build_series("bigC", 80), build_series("bigG", 80)
    width, seen = exactalg._slot_bytes, []
    monkeypatch.setattr(exactalg, "_slot_bytes", lambda bound: seen.append(bound) or width(bound))
    assert spelled(C.invert().coeffs) == spelled(reference_inverse(C))
    assert spelled((G * G).coeffs) == spelled(reference_product(G, G))
    assert seen == [pinned_series_bound((C,)), pinned_series_bound((G, G))]
    for bound in seen:
        assert width(bound) == bound.bit_length() // 8 + 1 >= 9, bound


def test_slot_widths_climb_the_word_ladder():
    """1, 2, 4 or 8 bytes for bounds through 2**63 - 1, then the bound's bits plus a sign bit in whole bytes."""
    words = {0: 1, 127: 1, 128: 2, 2 ** 15 - 1: 2, 2 ** 15: 4, 2 ** 31 - 1: 4, 2 ** 31: 8, 2 ** 63 - 1: 8}
    for bound, nbytes in words.items():
        assert exactalg._slot_bytes(bound) == nbytes, bound
    for bits in range(64, 200):
        for bound in (1 << (bits - 1), (1 << bits) - 1):
            assert exactalg._slot_bytes(bound) == bits // 8 + 1, bound
    if sys.byteorder == "little":
        assert sorted(exactalg._WORD_CODES) == [1, 2, 4, 8]


# The codec's contract at every word width and at the byte path past it.
SLOT_WIDTHS = range(1, 18)


def in_slot(nbytes):
    half = 1 << (8 * nbytes - 1)
    return st.one_of(st.sampled_from((-half, half - 1, 0, -1)), st.integers(-half, half - 1))


def packed_value(coeffs, nbytes):
    return sum(c << (8 * nbytes * i) for i, c in enumerate(coeffs))


def both_extremes(nbytes):
    half = 1 << (8 * nbytes - 1)
    return nbytes, [-half, half - 1, 0, -half, half - 1]


# [-1, -128, 1] packs to 32767: with the bias added, two 1-byte slots no longer hold it
@example((1, [-1, -128, 1]))
@example(both_extremes(1))
@example(both_extremes(2))
@example(both_extremes(4))
@example(both_extremes(8))
@example(both_extremes(9))
@example(both_extremes(17))
@given(st.sampled_from(SLOT_WIDTHS).flatmap(lambda n: st.tuples(st.just(n), st.lists(in_slot(n), max_size=10))))
def test_codec_round_trips_every_coefficient_in_the_slot(case):
    nbytes, coeffs = case
    value = exactalg._pack(coeffs, nbytes)
    assert value == packed_value(coeffs, nbytes)
    assert exactalg._unpack(value, nbytes, "t") == Polynomial("t", coeffs)


@given(st.sampled_from(SLOT_WIDTHS), st.data())
def test_pack_refuses_a_coefficient_outside_the_slot(nbytes, data):
    half = 1 << (8 * nbytes - 1)
    outside = data.draw(st.one_of(st.sampled_from((half, -half - 1)), st.integers(min_value=half),
                                  st.integers(max_value=-half - 1)))
    coeffs = data.draw(st.lists(in_slot(nbytes), max_size=4))
    coeffs.insert(data.draw(st.integers(0, len(coeffs))), outside)
    with pytest.raises(OverflowError):
        exactalg._pack(coeffs, nbytes)


@example(1, 32767)  # the biased value needs a third 1-byte slot
@given(st.sampled_from(SLOT_WIDTHS), st.one_of(st.integers(), st.integers(-(1 << 400), 1 << 400)))
def test_unpack_reads_any_integer_as_balanced_digits(nbytes, value):
    half = 1 << (8 * nbytes - 1)
    p = exactalg._unpack(value, nbytes, "t")
    assert all(-half <= c < half for c in p.coeffs)
    assert packed_value(p.coeffs, nbytes) == value


def test_slot_one_byte_narrower_is_caught(monkeypatch):
    """Each edge case at the top of its rung, word-wide or wider, goes wrong in a slot one rung
    narrower: one byte narrower above 8 bytes, half as wide at a word."""
    width, widths = exactalg._slot_bytes, []

    def narrower(bound):
        nbytes = width(bound)
        widths.append(nbytes)
        return nbytes - 1 if nbytes > 8 else nbytes // 2

    monkeypatch.setattr(exactalg, "_slot_bytes", narrower)
    for f, g in KERNEL_EDGE_PRODUCTS[:4]:
        assert (f * g).coeffs != tuple(reference_product(f, g)), (f, g)
    for f in KERNEL_EDGE_INVERSES[:2]:
        assert f.invert().coeffs != tuple(reference_inverse(f)), f
    assert widths == [4, 8, 8, 9, 4, 9]


def test_generic_rings_keep_the_coefficient_loop(monkeypatch):
    """A coefficient outside Z[t], mixed coefficient types or a constant term other than +-1 never packs."""
    from qnarayana import exactalg

    pack = exactalg._pack

    def packed(coeffs, nbytes):
        # exact division shares the codec; any other caller is the series kernel
        if sys._getframe(1).f_code.co_name != "poly_exact_div":
            raise AssertionError("packed kernel used outside Z[t]")
        return pack(coeffs, nbytes)

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
# list, and poly_exact_div a divisor c*t^v as a slice (c = +-1) or by the
# packed divmod.  The oracle is the schoolbook double loop.

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


# A divisor c*t^v with c != +-1 takes the packed divmod, under the same
# digit check and the same refusal as a divisor of two or more terms.

@given(st.lists(st.integers(-99, 99), min_size=1, max_size=9).filter(any),
       st.sampled_from((2, -2, 3, -5, 6, 7, -12, 100)), st.integers(0, 4), st.data())
@settings(max_examples=400)
def test_non_unit_term_division_returns_the_quotient_or_refuses(coeffs, c, v, data):
    q, m = Polynomial("t", coeffs), Polynomial.monomial("t", v, c)
    product = list((q * m).coeffs)
    assert poly_exact_div(Polynomial("t", product), m) == q
    at = data.draw(st.integers(v, len(product) - 1))
    product[at] += data.draw(st.sampled_from((1, -1))) * data.draw(st.integers(1, abs(c) - 1))
    with pytest.raises(NotDivisibleError):
        poly_exact_div(Polynomial("t", product), m)


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


# The fraction-free entry update: _cross(x, p, y, z, prev, var) is
# (x*p - y*z)/prev on (valuation, tail) pairs, built from the tails at their
# offsets with no zero low block and no Polynomial product, and divided by
# prev's tail through poly_exact_div unless that tail is 1.  The oracle is
# the schoolbook double loop on whole polynomials, which shares no code with
# the kernel; x and y are multiplied by prev first, so the quotient is exact.

low_block_polys = st.tuples(st.integers(0, 4), coeff_lists).map(lambda vc: Polynomial("t", [0] * vc[0] + vc[1]))
single_terms = st.builds(lambda c, e: Polynomial.monomial("t", e, c), st.sampled_from(SINGLE_TERM_COEFFS),
                         st.integers(0, 6))
multi_terms = low_block_polys.filter(lambda p: sum(map(bool, p.coeffs)) > 1)


def as_pair(p):
    """p as (v, T), p = t^v * T with T[0] != 0, and (0, ()) for zero."""
    v = next((i for i, c in enumerate(p.coeffs) if c), 0)
    return v, p.coeffs[v:]


def no_polynomial_product(*args):
    raise AssertionError("Polynomial.__mul__ called")


@given(low_block_polys, st.one_of(single_terms, st.just(Polynomial.zero("t")), multi_terms),
       low_block_polys, low_block_polys, st.one_of(st.just(Polynomial.one("t")), single_terms, multi_terms))
@settings(max_examples=300)
def test_cross_is_x_times_p_minus_y_times_z(x, p, y, z, prev):
    want = schoolbook(x, p) - schoolbook(y, z)
    assert want == x * p - y * z
    divide = exactalg.poly_exact_div
    divisions = []
    with mock.patch.object(Polynomial, "__mul__", no_polynomial_product), \
            mock.patch.object(exactalg, "poly_exact_div", lambda a, b: divisions.append(b) or divide(a, b)):
        got = _cross(as_pair(schoolbook(x, prev)), as_pair(p), as_pair(schoolbook(y, prev)), as_pair(z),
                     as_pair(prev), "t")
    assert got == as_pair(want), (x, p, y, z, prev)
    assert got[1][:1] != (0,) and got[1][-1:] != (0,)
    tail = Polynomial("t", as_pair(prev)[1])
    assert divisions == ([tail] if want and tail != 1 else [])
    if want:  # a divisor with one more power of t than the cross has
        with pytest.raises(NotDivisibleError):
            _cross(as_pair(x), as_pair(p), as_pair(y), as_pair(z), (as_pair(want)[0] + 1, (1,)), "t")


def test_cross_zero_operands():
    one, zero = (0, (1,)), (0, ())
    x, p = P(0, 3, -1), Polynomial.monomial("t", 2, -5)
    px, pp = as_pair(x), as_pair(p)
    assert _cross(zero, pp, zero, px, one, "t") == zero
    assert _cross(px, zero, zero, zero, one, "t") == zero
    assert _cross(zero, zero, px, px, one, "t") == as_pair(-(x * x))
    assert _cross(px, pp, px, pp, one, "t") == zero
    assert _cross(px, pp, px, pp, (9, (2, 1)), "t") == zero  # zero is a multiple of every divisor
    assert _cross(px, pp, zero, px, one, "t") == as_pair(x * p)


def test_cross_refuses_an_inexact_division():
    one, zero = (0, (1,)), (0, ())
    # x*p - y*z = t^2 + 2t^3, and t^3 does not divide it: f > m
    with pytest.raises(NotDivisibleError) as raised:
        _cross((2, (1, 2)), one, zero, zero, (3, (1,)), "t")
    assert (raised.value.dividend, raised.value.divisor) == (P(0, 0, 1, 2), P(0, 0, 0, 1))
    # f <= m, but the tail 1 + 2t is not a multiple of D = 1 + t, nor of D = 3
    for d in ((1, 1), (3,)):
        with pytest.raises(NotDivisibleError) as raised:
            _cross((2, (1, 2)), one, zero, zero, (1, d), "t")
        assert raised.value.divisor == P(*d)
    # x*p - y*z = t^3 (1 + 2t + 2t^2) - t^3 = t^4 * 2(1 + t): the lowest terms cancel
    x, y, z = (3, (1, 2, 2)), (1, (1,)), (2, (1,))
    assert _cross(x, one, y, z, (2, (1, 1)), "t") == (2, (2,))
    assert _cross(x, one, y, z, (4, (2,)), "t") == (0, (1, 1))
    with pytest.raises(NotDivisibleError):
        _cross(x, one, y, z, (5, (1,)), "t")


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
def test_convergent_evaluation_matches_levelwise(jf, order):
    got = jfraction_to_series(jf, order)
    assert spelled(got.coeffs) == spelled(levelwise_jfraction_to_series(jf, order).coeffs), jf


def lifted(jf):
    """jf with every coefficient a rational function, as extraction returns them."""
    def lift(c):
        return c if isinstance(c, RationalFunction) else RationalFunction(c)

    return JFraction(tuple(map(lift, jf.s)), tuple(map(lift, jf.t_coeffs)))


@given(st.one_of(jfractions(small_polys), jfractions(small_ratfuns)), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_extraction_inverts_evaluation(jf, extra):
    # a fraction that does not stop: extraction at its own depth gives it back
    jf = lifted(jf)
    order = 2 * jf.depth + 2 + extra
    assert jfraction_extract(jfraction_to_series(jf, order), jf.depth) == jf


@given(jfractions(small_ratfuns, max_depth=2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_terminated_fraction_reproduces_its_series(jf, extra):
    # a finite fraction of depth d is its own expansion: extraction one level
    # deeper stops there, at depth d, and evaluates back exactly
    order = 2 * jf.depth + 4 + extra
    series = levelwise_jfraction_to_series(jf, order)
    got = jfraction_extract(series, jf.depth + 1)
    assert got == jf
    assert jfraction_to_series(got, order) == series


# Tokens a command line can hold beside the option table's own: other verbs,
# help, abbreviations, --opt=value, and integers argparse reads but the table
# spells otherwise (sign, leading zero, other scripts' digits, spaces,
# underscores, more digits than int() takes).
JUNK_VERBS = ["frobnicate", "pol", "-h", ""]
JUNK_FLAGS = ["-h", "--help", "--dep", "--fam", "--n=3", "--family=c", "--", "-", "--max_n", "-n"]
JUNK_VALUES = ["01", "\u0663", "+3", " 3", "3_0", "-0", "1e3", "", "x", "--json", "9" * 5000]


def cli_values():
    """verb -> flag -> the values the table spells, with each range's ends and the integers just outside them."""
    values = {}
    for verb, (_, _, options) in cli._VERBS.items():
        for flag, option in options.items():
            accepts = option.accepts
            if isinstance(accepts, range):
                accepts = (accepts[0] - 1, accepts[0], accepts[0] + 1, accepts[-1], accepts[-1] + 1)
            values.setdefault(verb, {})[flag] = list(map(str, accepts or ()))
    return values


@st.composite
def cli_argvs(draw):
    """A verb, some of its options in any order with values from the table, and maybe up to two tokens anywhere."""
    values = cli_values()
    verb = draw(st.sampled_from(sorted(values)))
    argv = [verb]
    for flag in draw(st.lists(st.sampled_from(sorted(values[verb])), unique=True)):
        own = values[verb][flag]
        argv += [flag, draw(st.sampled_from(own))] if own else [flag]
    if draw(st.booleans()):
        anywhere = sorted({token for options in values.values() for flag, own in options.items()
                           for token in [flag, *own]})
        for token in draw(st.lists(st.sampled_from(anywhere + JUNK_VERBS + JUNK_FLAGS + JUNK_VALUES), max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@cache
def argparse_parser():
    return cli._parser()


def argparse_reads(argv):
    """vars of argparse's namespace for argv, or None when it exits (help or a usage error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(argparse_parser().parse_args(argv))
        except SystemExit:
            return None


@given(cli_argvs())
@settings(max_examples=400, deadline=None)
@example(["verify", "--identity", "eq15", "--identity", "eq16", "--order", "2"])
@example(["verify", "--identity", "eq15", "--all"])
@example(["hankel", "--family", "c", "--csv", "--json"])
@example(["hankel", "--family", "c", "--shift", "01"])
@example(["cfrac", "--family", "c", "--depth", "5", "--depth", "6"])
@example(["poly", "--family", "C", "--n", "9" * 5000])
def test_strict_reader_agrees_with_argparse(argv):
    # a matched argv reads as argparse reads it; one argparse refuses is never matched
    matched = cli._match(argv)
    assert matched is None or vars(matched) == argparse_reads(argv), argv
