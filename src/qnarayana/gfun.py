"""Truncated generating-function prefixes and coefficientwise identity checks.

Four series families in z with polynomial coefficients in t:

* ``bigC``   - coefficient n is narayana_poly(n)
* ``bigG``   - coefficient n is narayana_poly(n+1) (the shifted family)
* ``smallc`` - coefficient n is c_poly(n)
* ``smallg`` - coefficient n is c_poly(n+1)

Each registered identity is rebuilt from scratch on both sides with series
arithmetic and compared coefficient by coefficient: there is no tolerance,
a check passes only on structural equality at every power up to the order.
The closed forms that involve square roots are never evaluated (exact
arithmetic has no radicals); they are certified indirectly, through the
quadratic functional equations they solve (identifiers eq15 and eq20).

Identity identifiers are stable registry keys (eq15, eq16, ... g_at_m1);
the mapping from key to statement is spelled out in ``IDENTITY_DESCRIPTIONS``.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactalg import Polynomial, TruncatedSeries, ring_to_json
from .narayana import FAMILIES, TVAR, binomial, catalan_number

# series tag -> (family in narayana.FAMILIES, shift): coefficient n is member n + shift
TAG_FAMILIES = {
    "bigC": ("narayana_poly", 0),
    "bigG": ("narayana_poly", 1),
    "smallc": ("small_c", 0),
    "smallg": ("small_c", 1),
}

_T = Polynomial.gen(TVAR)
_ONE = Polynomial.one(TVAR)
_ONE_PLUS_T = Polynomial(TVAR, (1, 1))
_T_MINUS_1 = Polynomial(TVAR, (-1, 1))


def build_series(tag: str, order: int) -> TruncatedSeries:
    """Prefix of one of the four families at the given truncation order."""
    if tag not in TAG_FAMILIES:
        raise ValueError(f"unknown series tag {tag!r} (expected one of {tuple(TAG_FAMILIES)})")
    if order < 0:
        raise ValueError("order must be >= 0")
    family, shift = TAG_FAMILIES[tag]
    build = FAMILIES[family]
    return TruncatedSeries([build(n + shift) for n in range(order + 1)], order)


def _one(order):
    return TruncatedSeries.constant(_ONE, order)


def _z_times(p, order, power=1):
    # the single term p * z^power as a series
    return TruncatedSeries.from_coeffs([Polynomial.zero(TVAR)] * power + [p], order)


def _sub_t_square(series):
    return series.map_coeffs(lambda p: p.subs_square())


def _sub_t_neg(series):
    return series.map_coeffs(lambda p: p.subs_neg())


def _C_of_t2_z2(order):
    # the bigC family with t -> t^2 and z -> z^2, still at the same order
    return _sub_t_square(build_series("bigC", order)).subs_z_squared()


def _G_of_t2_z2(order):
    return _sub_t_square(build_series("bigG", order)).subs_z_squared()


def _sides_eq15(order):
    # C = 1 - z(t-1)C + tzC^2
    C = build_series("bigC", order)
    rhs = _one(order) - C.shift_up(1).scale(_T_MINUS_1) + (C * C).shift_up(1).scale(_T)
    return C.coeffs, rhs.coeffs


def _sides_eq16(order):
    # 1/C = 1 + (t-1)z - tzC
    C = build_series("bigC", order)
    lhs = C.invert()
    rhs = _one(order) + _z_times(_T_MINUS_1, order) - C.shift_up(1).scale(_T)
    return lhs.coeffs, rhs.coeffs


def _sides_eq18(order):
    # G = (C - 1)/z, checked from a one-order-longer C prefix
    lhs = build_series("bigG", order)
    C = build_series("bigC", order + 1)
    rhs = (C - _one(order + 1)).shift_down(1)
    return lhs.coeffs, rhs.coeffs


def _sides_eq19(order):
    # G = 1 / (1 - (1+t)z - tz^2 G)
    G = build_series("bigG", order)
    denom = _one(order) - _z_times(_ONE_PLUS_T, order) - G.shift_up(2).scale(_T)
    return G.coeffs, denom.invert().coeffs


def _sides_eq20(order):
    # G = 1 + (1+t)zG + tz^2 G^2
    G = build_series("bigG", order)
    rhs = _one(order) + G.shift_up(1).scale(_ONE_PLUS_T) + (G * G).shift_up(2).scale(_T)
    return G.coeffs, rhs.coeffs


def _sides_eq23(order):
    # (1 - (1+t)z) c = 1 - tz C(t^2, z^2)
    c = build_series("smallc", order)
    lhs = (_one(order) - _z_times(_ONE_PLUS_T, order)) * c
    rhs = _one(order) - _C_of_t2_z2(order).shift_up(1).scale(_T)
    return lhs.coeffs, rhs.coeffs


def _sides_eq24(order):
    # (1 - (1+t)z) c = 1 - tz c(-t,-z) c(t,z)
    c = build_series("smallc", order)
    c_neg = _sub_t_neg(c).subs_neg_z()
    lhs = (_one(order) - _z_times(_ONE_PLUS_T, order)) * c
    rhs = _one(order) - (c_neg * c).shift_up(1).scale(_T)
    return lhs.coeffs, rhs.coeffs


def _sides_eq25(order):
    # c(t,z) c(-t,-z) = C(t^2, z^2)
    c = build_series("smallc", order)
    c_neg = _sub_t_neg(c).subs_neg_z()
    return (c * c_neg).coeffs, _C_of_t2_z2(order).coeffs


def _sides_eq27(order):
    # g = 1 + (1+t)zg - tz^2 G(t^2, z^2)
    g = build_series("smallg", order)
    rhs = _one(order) + g.shift_up(1).scale(_ONE_PLUS_T) - _G_of_t2_z2(order).shift_up(2).scale(_T)
    return g.coeffs, rhs.coeffs


def _sides_eq28(order):
    # g(t,z) g(t,-z) = G(t^2, z^2)
    g = build_series("smallg", order)
    return (g * g.subs_neg_z()).coeffs, _G_of_t2_z2(order).coeffs


def _sides_g_at_1(order):
    # coefficient n of g at t=1 is the central binomial binom(n+1, floor((n+1)/2))
    lhs = [p(1) for p in build_series("smallg", order).coeffs]
    rhs = [binomial(n + 1, (n + 1) // 2) for n in range(order + 1)]
    return lhs, rhs


def _sides_g_at_m1(order):
    # g at t=-1 equals the Catalan generating function in z^2
    lhs = [p(-1) for p in build_series("smallg", order).coeffs]
    rhs = [catalan_number(n // 2) if n % 2 == 0 else 0 for n in range(order + 1)]
    return lhs, rhs


_IDENTITY_BUILDERS = {
    "eq15": _sides_eq15,
    "eq16": _sides_eq16,
    "eq18": _sides_eq18,
    "eq19": _sides_eq19,
    "eq20": _sides_eq20,
    "eq23": _sides_eq23,
    "eq24": _sides_eq24,
    "eq25": _sides_eq25,
    "eq27": _sides_eq27,
    "eq28": _sides_eq28,
    "g_at_1": _sides_g_at_1,
    "g_at_m1": _sides_g_at_m1,
}

ALL_IDENTITIES = tuple(_IDENTITY_BUILDERS)

IDENTITY_DESCRIPTIONS = {
    "eq15": "C = 1 - z(t-1)C + tzC^2",
    "eq16": "1/C = 1 + (t-1)z - tzC",
    "eq18": "G = (C - 1)/z",
    "eq19": "G = 1/(1 - (1+t)z - tz^2 G)",
    "eq20": "G = 1 + (1+t)zG + tz^2 G^2",
    "eq23": "(1 - (1+t)z)c = 1 - tzC(t^2,z^2)",
    "eq24": "(1 - (1+t)z)c = 1 - tz c(-t,-z)c(t,z)",
    "eq25": "c(t,z)c(-t,-z) = C(t^2,z^2)",
    "eq27": "g = 1 + (1+t)zg - tz^2 G(t^2,z^2)",
    "eq28": "g(t,z)g(t,-z) = G(t^2,z^2)",
    "g_at_1": "g(1,z) has central-binomial coefficients",
    "g_at_m1": "g(-1,z) = C(1,z^2)",
}


class IdentityReport(NamedTuple):
    """Outcome of one identity check: pass, or the first failing power."""

    identity: str
    order: int
    status: str
    power: int | None = None
    lhs: object = None
    rhs: object = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out = {"identity": self.identity, "order": self.order, "status": self.status}
        if self.status == "fail":
            out["power"] = self.power
            out["lhs"] = ring_to_json(self.lhs)
            out["rhs"] = ring_to_json(self.rhs)
        return out


def verify_identity(identity: str, order: int) -> IdentityReport:
    """Build both sides of one registered identity and compare every coefficient."""
    if identity not in _IDENTITY_BUILDERS:
        raise ValueError(f"unknown identity {identity!r} (expected one of {ALL_IDENTITIES})")
    if order < 2:
        raise ValueError("identity checks need order >= 2")
    lhs, rhs = _IDENTITY_BUILDERS[identity](order)
    for power, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return IdentityReport(identity, order, "fail", power, a, b)
    return IdentityReport(identity, order, "pass")
