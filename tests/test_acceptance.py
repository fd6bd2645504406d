"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact structural equality; there is no tolerance
anywhere.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import random
from math import comb as binomial

from qnarayana import cli, fixtures
from qnarayana.exactalg import Polynomial, RationalFunction
from qnarayana.gfun import verify_identity
from qnarayana.hankel import (
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
from qnarayana.narayana import (
    TVAR,
    c_odd_closed,
    c_poly,
    c_poly_recursive,
    catalan_number,
    narayana_poly,
    poly_sequence,
    v_coeff,
)
from qnarayana.qcomb import QVAR, q_catalan, q_narayana_row
from qnarayana.dyckoracle import enumerate_dyck, enumerate_symmetric, qt_distribution, symmetric_valley_distribution

ACCEPTANCE_IDENTITIES = (
    "eq15", "eq16", "eq19", "eq20", "eq23", "eq24", "eq25", "eq27", "eq28", "g_at_1", "g_at_m1",
)


def _report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_first_terms():
    expected_c = ("1", "1", "1+t", "1+t+t^2", "1+2t+2t^2+t^3", "1+2t+4t^2+2t^3+t^4")
    expected_big = ("1", "1", "1+t", "1+3t+t^2", "1+6t+6t^2+t^3", "1+10t+20t^2+10t^3+t^4")
    for n in range(6):
        assert str(c_poly(n)) == expected_c[n]
        assert str(narayana_poly(n)) == expected_big[n]
    _report("criterion-1 first-terms", "c_n and C_n match the stored lists verbatim for n <= 5")


def test_criterion_2_route_equivalence():
    for n in range(21):
        closed = c_poly(n)
        assert c_poly_recursive(n) == closed
        if n >= 1:
            assert closed.coeffs == tuple(p(-1) for p in q_narayana_row(n))
    for m in range(11):  # odd indices 2m+1 <= 21
        assert c_odd_closed(m) == c_poly(2 * m + 1)
    _report("criterion-2 route-equivalence", "closed form, recursion, q-specialization agree for n <= 20; odd closed form to index 21")


def test_criterion_3_evaluations():
    for n in range(21):
        assert c_poly(n)(1) == binomial(n, n // 2)
    for m in range(1, 11):
        assert c_poly(2 * m)(-1) == 0
    for m in range(11):
        assert c_poly(2 * m + 1)(-1) == catalan_number(m)
    for n in range(1, 11):
        total = Polynomial.zero(QVAR)
        for entry in q_narayana_row(n):
            total = total + entry
        assert total == q_catalan(n)
    _report("criterion-3 evaluations", "values at t=1 and t=-1, and the q-sum/quotient identity, hold on the stated ranges")


def test_criterion_4_generating_function_suite():
    for identity in ACCEPTANCE_IDENTITIES:
        report = verify_identity(identity, 20)
        assert report.passed, f"{identity} failed at power {report.power}: {report.lhs} vs {report.rhs}"
    _report("criterion-4 generating-functions", f"{len(ACCEPTANCE_IDENTITIES)} identities exact at order 20")


def test_criterion_5_hankel_tables():
    sign_exponent = lambda n: binomial(n, 2)
    for family in ("narayana_poly", "small_c"):
        for shift in (0, 1):
            dets = hankel_table(family, shift, 7)
            assert len(dets) == 7
            for n, det in enumerate(dets, 1):
                e = sign_exponent(n)
                coeff = -1 if family == "small_c" and shift == 1 and e % 2 else 1
                assert det == Polynomial.monomial(TVAR, e, coeff) == expected_hankel(family, shift, n)
    # Bareiss vs cofactor on every table instance with n <= 5
    for family in ("narayana_poly", "small_c"):
        for shift in (0, 1):
            seq = poly_sequence(family, 10)
            for n in range(1, 6):
                m = hankel_matrix(seq, n, shift)
                assert det_bareiss(m) == det_cofactor(m)
    # and on 500 random matrices of dimension <= 5
    rng = random.Random(20240915)
    for _ in range(500):
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
    _report("criterion-5 hankel", "all four tables match to n=7; Bareiss agrees with cofactor on table and 500 random instances")


def test_criterion_6_jfraction():
    depth = 9  # levels 0..8 for both coefficient families
    for tag in ("smallg", "smallc"):
        jf = jfraction_extract(ratfun_series(tag, 2 * depth + 2), depth)
        assert jf.depth == depth
        for k in range(depth):
            assert jf.s[k] == RationalFunction(fixtures.expected_jfraction(tag, "s", k))
            assert jf.t_coeffs[k] == RationalFunction(fixtures.expected_jfraction(tag, "t", k))
    for tag, shift in (("smallc", 0), ("smallg", 1)):
        jf = jfraction_extract(ratfun_series(tag, 12), 5)
        seq = poly_sequence("small_c", 12)
        for n in range(1, 7):
            det = det_bareiss(hankel_matrix(seq, n, shift))
            assert hankel_product_formula(jf.t_coeffs, n) == RationalFunction(det)
    for tag in ("smallc", "smallg"):
        series = ratfun_series(tag, 18)
        jf = jfraction_extract(series, 8)
        assert jfraction_to_series(jf, 17) == series.truncate(17)
    _report("criterion-6 jfraction", "closed forms to level 8, product formula to n=6, round trip at depth 8")


def test_criterion_7_combinatorial_oracles():
    for n in range(9):
        table = qt_distribution(n)
        row = q_narayana_row(n)
        assert len(table) == len(row)
        for k, poly in table.items():
            assert poly == row[k]
    for n in range(13):
        table = symmetric_valley_distribution(n)
        for k, count in table.items():
            assert count == (1 if n == 0 else v_coeff(n, k))
    for n in range(11):
        assert sum(1 for _ in enumerate_dyck(n)) == catalan_number(n)
    for n in range(13):
        assert sum(1 for _ in enumerate_symmetric(n)) == binomial(n, n // 2)
    _report("criterion-7 oracles", "valley/maj to n=8 and symmetric valleys to n=12 match; counts match")


def test_criterion_8_cli_regression_gate(capsys, monkeypatch):
    assert cli.main(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    registered = [name for name, _ in cli.build_registry()]
    assert len(registered) == cli.REGISTRY_SIZE
    for name in registered:
        assert f"PASS {name}" in out
    # injected fault: one mutated stored coefficient must flip the gate
    broken = list(fixtures.FIRST_TERMS_NARAYANA)
    broken[3] = "1+4t+t^2"
    monkeypatch.setattr(fixtures, "FIRST_TERMS_NARAYANA", tuple(broken))
    assert cli.main(["verify", "--all"]) == 1
    assert "FAIL first_terms/C" in capsys.readouterr().out
    _report("criterion-8 cli-gate", "verify --all exits 0 listing every check; a single mutated coefficient flips it to 1")
