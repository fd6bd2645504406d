from pathlib import Path

import pytest

from qnarayana.exactalg import Polynomial
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
        assert report.status == "pass"
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
        import qnarayana.gfun as gfun_module

        def broken(order):
            good = [P(1)] * (order + 1)
            bad = [P(1)] * (order + 1)
            bad[3] = P(1, 1)
            return good, bad

        monkeypatch.setitem(gfun_module._IDENTITY_BUILDERS, "eq15", broken)
        report = verify_identity("eq15", 8)
        assert not report.passed
        assert report.power == 3
        assert report.lhs == P(1)
        assert report.rhs == P(1, 1)
        blob = report.to_json()
        assert blob["status"] == "fail"
        assert blob["power"] == 3
        assert blob["lhs"] == {"var": "t", "coeffs": ["1"]}

    def test_stability_under_truncation(self):
        # passing at order N implies passing at every lower order: the
        # builders are prefix-compatible, so spot-check a few orders
        for order in (2, 5, 11):
            for identity in ("eq15", "eq25", "eq28"):
                assert verify_identity(identity, order).passed

    def test_g_at_minus_one_interleaves_catalans(self):
        values = [c_poly(n + 1)(-1) for n in range(7)]
        assert values == [1, 0, 1, 0, 2, 0, 5]

    def test_report_is_frozen_dataclass(self):
        report = IdentityReport("eq15", 4, "pass")
        with pytest.raises(AttributeError):
            report.status = "fail"
