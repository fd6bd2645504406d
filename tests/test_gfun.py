import re
from pathlib import Path

import pytest

from qnarayana import gfun
from qnarayana.exactalg import Polynomial, TruncatedSeries
from qnarayana.gfun import (
    ALL_IDENTITIES,
    IDENTITY_DESCRIPTIONS,
    IdentityReport,
    build_series,
    verify_identity,
)
from qnarayana.narayana import TVAR, c_poly, narayana_poly


def P(*coeffs):
    return Polynomial(TVAR, coeffs)


class TestBuildSeries:
    def test_smallc_prefix(self):
        assert build_series("smallc", 3).coeffs == (P(1), P(1), P(1, 1), P(1, 1, 1))

    def test_bigc_order_zero(self):
        assert build_series("bigC", 0).coeffs == (P(1),)

    def test_smallg_prefix(self):
        assert build_series("smallg", 2).coeffs == (P(1), P(1, 1), P(1, 1, 1))

    def test_bigg_is_shifted(self):
        assert build_series("bigG", 5).coeffs == tuple(narayana_poly(n + 1) for n in range(6))

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown series tag"):
            build_series("bigH", 4)


class TestVerifyIdentity:
    @pytest.mark.parametrize("identity", ALL_IDENTITIES)
    def test_all_pass_at_order_8(self, identity):
        report = verify_identity(identity, 8)
        assert report.passed
        assert report == IdentityReport(identity, 8)
        assert report.to_json() == {"identity": identity, "order": 8, "status": "pass"}

    def test_registry_is_complete(self):
        assert set(ALL_IDENTITIES) == set(IDENTITY_DESCRIPTIONS)
        assert len(ALL_IDENTITIES) == 12

    def test_readme_table_lists_the_descriptions(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Identity registry", 1)[1].split("\n## ", 1)[0]
        rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| ")]
        table = {key.strip(): statement.strip().replace("`", "") for key, statement in rows[1:]}
        assert table == IDENTITY_DESCRIPTIONS

    def test_readme_grammar_lists_the_arguments(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Identity registry", 1)[1].split("\n## ", 1)[0]
        sentence = re.search(r"optionally at (.*?)\. ", section, re.DOTALL).group(1)
        assert tuple(re.findall(r"`([^`]*)`", sentence)) == tuple(gfun._ARGUMENTS)

    def test_unknown_identifier(self):
        with pytest.raises(ValueError, match="unknown identity"):
            verify_identity("eq99", 8)

    def test_order_floor(self):
        with pytest.raises(ValueError, match="order >= 2"):
            verify_identity("eq23", 1)

    def test_low_order_coefficient_relation(self):
        # the z^1 coefficient relation behind the signed-family functional
        # equation: c_1 - (1+t)c_0 = -t * C_0(t^2)
        lhs = c_poly(1) - P(1, 1) * c_poly(0)
        rhs = -(P(0, 1) * narayana_poly(0).subs_square())
        assert lhs == rhs

    def test_failure_report_pinpoints_power(self, monkeypatch):
        # both sides are 1/(1-z), all ones, but the right-hand side's z^3 coefficient gets t added
        monkeypatch.setitem(IDENTITY_DESCRIPTIONS, "eq15", "1/(1 - z) = 1/(1 - z) + tz^3")
        report = verify_identity("eq15", 8)
        assert not report.passed
        assert report.power == 3
        assert report.lhs == P(1)
        assert report.rhs == P(1, 1)
        blob = report.to_json()
        assert blob["status"] == "fail"
        assert blob["power"] == 3
        assert blob["lhs"] == {"var": "t", "coeffs": ["1"]}

    @pytest.mark.parametrize("order", [4, 20])
    def test_eq18_compares_the_top_coefficient(self, monkeypatch, order):
        # G's coefficient z^order is compared: (C - 1)/z is taken one order longer, and a short side raises
        build = gfun.build_series

        def perturbed(tag, n):
            f = build(tag, n)
            if tag != "bigG":
                return f
            return TruncatedSeries(f.coeffs[:order] + (f.coeffs[order] + P(0, 1),) + f.coeffs[order + 1:], n)

        monkeypatch.setattr(gfun, "build_series", perturbed)
        report = verify_identity("eq18", order)
        assert (report.passed, report.power) == (False, order)

    def test_each_generator_is_built_once(self, monkeypatch):
        # every value of a statement has one order, the order compared plus its number of (X)/z:
        # each generator is built once, in reading order, at the order, and eq18's at the order + 1
        reads = {"eq15": ["bigC"], "eq16": ["bigC"], "eq18": ["bigG", "bigC"], "eq19": ["bigG"], "eq20": ["bigG"],
                 "eq23": ["smallc", "bigC"], "eq24": ["smallc"], "eq25": ["smallc", "bigC"],
                 "eq27": ["smallg", "bigG"], "eq28": ["smallg", "bigG"], "g_at_1": ["smallg"],
                 "g_at_m1": ["smallg", "bigC"]}
        assert list(reads) == list(ALL_IDENTITIES)
        built, build = [], gfun.build_series
        monkeypatch.setattr(gfun, "build_series", lambda tag, n: built.append((tag, n)) or build(tag, n))
        for order in (2, 6, 12):
            for identity, tags in reads.items():
                built.clear()
                assert verify_identity(identity, order).passed
                assert built == [(tag, order + (identity == "eq18")) for tag in tags], (identity, order)

    def test_nested_division_by_z_spoils_one_coefficient_each(self, monkeypatch):
        # ((C - 1)/z - 1)/z = (G - 1)/z, which eq20 writes as (1+t)G + tzG^2: two nested (X)/z, so every
        # value is built two orders longer, and the left side's coefficient z^order is C's z^(order+2)
        statement = "(((C - 1)/z) - 1)/z = (1+t)G + tzG^2"
        built, build, perturb = [], gfun.build_series, []

        def recording(tag, n):
            built.append((tag, n))
            f = build(tag, n)
            if tag != "bigC" or not perturb:
                return f
            at = perturb[0]
            return TruncatedSeries(f.coeffs[:at] + (f.coeffs[at] + P(0, 1),) + f.coeffs[at + 1:], n)

        monkeypatch.setattr(gfun, "build_series", recording)
        for order in range(2, 21):
            built.clear()
            lhs, rhs = gfun._Statement("nested", statement).sides(order)
            assert (lhs.order, rhs.order) == (order, order)
            assert lhs == rhs, order
            assert built == [("bigC", order + 2), ("bigG", order + 2)], order
            perturb[:] = [order + 2]
            lhs, rhs = gfun._Statement("nested", statement).sides(order)
            perturb.clear()
            assert lhs.coeffs[:order] == rhs.coeffs[:order], order
            assert lhs.coeffs[order] == rhs.coeffs[order] + P(0, 1), order

    def test_stability_under_truncation(self):
        # the sides at order N are the prefixes of the sides at order N+5, so
        # passing at order N implies passing at every lower order; eq18's
        # numerator, taken one order longer, still gives every power 0..N
        for identity in ALL_IDENTITIES:
            for order in (2, 5, 11):
                lhs, rhs = gfun._Statement(identity, IDENTITY_DESCRIPTIONS[identity]).sides(order)
                longer_lhs, longer_rhs = gfun._Statement(identity, IDENTITY_DESCRIPTIONS[identity]).sides(order + 5)
                assert len(lhs.coeffs) == len(rhs.coeffs) == order + 1, identity
                assert lhs.coeffs == longer_lhs.coeffs[:order + 1], identity
                assert rhs.coeffs == longer_rhs.coeffs[:order + 1], identity
                assert verify_identity(identity, order).passed

    def test_g_at_minus_one_interleaves_catalans(self):
        values = [c_poly(n + 1)(-1) for n in range(7)]
        assert values == [1, 0, 1, 0, 2, 0, 5]

    def test_report_is_frozen_dataclass(self):
        report = IdentityReport("eq15", 4)
        with pytest.raises(AttributeError):
            report.power = 2


# one textual mutation per series statement: (identity, text replaced, replacement)
STATEMENT_MUTATIONS = [
    ("eq15", "- z(t-1)C", "+ z(t-1)C"),
    ("eq16", " - tzC", ""),
    ("eq18", "(C - 1)/z", "(C - 1 - z)/z"),
    ("eq19", "- tz^2 G", "+ tz^2 G"),
    ("eq20", "G^2", "G"),
    ("eq23", "(1 - (1+t)z)", "(1 + (1+t)z)"),
    ("eq24", "c(-t,-z)c(t,z)", "c(t,z)c(t,z)"),
    ("eq25", "c(-t,-z)", "c(t,-z)"),
    ("eq27", " - tz^2 G(t^2,z^2)", ""),
    ("eq28", "g(t,-z)", "g(t,z)"),
    ("g_at_1", "(2z - 1)", "(2z + 1)"),
    ("g_at_m1", "C(1,z^2)", "C(1,z)"),
]


class TestStatements:
    """verify_identity evaluates the registered statement text itself."""

    def test_every_series_statement_has_a_mutation(self):
        assert [identity for identity, _, _ in STATEMENT_MUTATIONS] == list(ALL_IDENTITIES)

    @pytest.mark.parametrize("identity, old, new", STATEMENT_MUTATIONS, ids=[m[0] for m in STATEMENT_MUTATIONS])
    def test_a_mutated_statement_fails_its_identity_and_no_other(self, monkeypatch, identity, old, new):
        assert IDENTITY_DESCRIPTIONS[identity].count(old) == 1
        monkeypatch.setitem(IDENTITY_DESCRIPTIONS, identity, IDENTITY_DESCRIPTIONS[identity].replace(old, new))
        failed = [key for key in ALL_IDENTITIES if not verify_identity(key, 8).passed]
        assert failed == [identity]

    @pytest.mark.parametrize("statement, what, position", [
        ("C = 1 + Q", "unexpected 'Q'", 8),
        ("C = (1", "expected ')'", 6),
        ("C + 1", "expected '='", 5),
        ("C == 1", "unexpected '='", 3),
        ("C = c(t,t)", "unknown argument", 4),
        ("C = 1 )", "trailing tokens", 6),
        ("C = 1/t", "expected a series", 4),
        ("C = (C)/z", "(X)/z of an X with a nonzero constant term", 4),
    ], ids=["unknown-symbol", "unbalanced", "missing-equals", "doubled-equals", "unknown-argument", "trailing",
            "inverse-of-a-polynomial", "division-by-z-of-a-unit"])
    def test_malformed_statement_is_refused(self, monkeypatch, statement, what, position):
        monkeypatch.setitem(IDENTITY_DESCRIPTIONS, "eq15", statement)
        with pytest.raises(ValueError, match=rf"^identity eq15: {re.escape(what)}.* at position {position} of "):
            verify_identity("eq15", 4)

    def test_squares_are_one_object_and_no_product_has_a_single_term_operand(self, monkeypatch):
        products = []
        multiply = TruncatedSeries.__mul__

        def recording(a, b):
            products.append((a is b, sum(map(bool, a.coeffs)), sum(map(bool, b.coeffs))))
            return multiply(a, b)

        monkeypatch.setattr(TruncatedSeries, "__mul__", recording)
        squares = {}
        for identity in ALL_IDENTITIES:
            products.clear()
            verify_identity(identity, 8)
            assert all(a_terms > 1 and b_terms > 1 for _, a_terms, b_terms in products), identity
            squares[identity] = sum(square for square, _, _ in products)
        assert squares == {key: 1 if key in ("eq15", "eq20", "g_at_1") else 0 for key in ALL_IDENTITIES}
