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

Identity identifiers are stable registry keys (eq15, eq16, ... g_at_m1).
Each side builder is registered with its key and its statement in one
``@_identity`` line, which fills both ``_IDENTITY_BUILDERS`` and
``IDENTITY_DESCRIPTIONS``.
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


def _sub_t_neg(series):
    return series.map_coeffs(lambda p: p.subs_neg())


def _at_t2_z2(tag, order):
    # the family of tag with t -> t^2 and z -> z^2, still at the same order
    return build_series(tag, order).map_coeffs(Polynomial.subs_square).subs_z_squared()


# identity key -> the function building both sides' coefficients, and key ->
# the statement it checks; both filled by @_identity, in report order
_IDENTITY_BUILDERS = {}
IDENTITY_DESCRIPTIONS = {}


def _identity(key: str, statement: str):
    """Register the decorated side builder as identity key, which states statement."""
    def register(build):
        _IDENTITY_BUILDERS[key] = build
        IDENTITY_DESCRIPTIONS[key] = statement
        return build
    return register


@_identity("eq15", "C = 1 - z(t-1)C + tzC^2")
def _sides_eq15(order):
    C = build_series("bigC", order)
    rhs = _one(order) - C.shift_up(1).scale(_T_MINUS_1) + (C * C).shift_up(1).scale(_T)
    return C.coeffs, rhs.coeffs


@_identity("eq16", "1/C = 1 + (t-1)z - tzC")
def _sides_eq16(order):
    C = build_series("bigC", order)
    lhs = C.invert()
    rhs = _one(order) + _z_times(_T_MINUS_1, order) - C.shift_up(1).scale(_T)
    return lhs.coeffs, rhs.coeffs


@_identity("eq18", "G = (C - 1)/z")
def _sides_eq18(order):
    # checked from a one-order-longer C prefix, so the shift down keeps every power
    lhs = build_series("bigG", order)
    C = build_series("bigC", order + 1)
    rhs = (C - _one(order + 1)).shift_down(1)
    return lhs.coeffs, rhs.coeffs


@_identity("eq19", "G = 1/(1 - (1+t)z - tz^2 G)")
def _sides_eq19(order):
    G = build_series("bigG", order)
    denom = _one(order) - _z_times(_ONE_PLUS_T, order) - G.shift_up(2).scale(_T)
    return G.coeffs, denom.invert().coeffs


@_identity("eq20", "G = 1 + (1+t)zG + tz^2 G^2")
def _sides_eq20(order):
    G = build_series("bigG", order)
    rhs = _one(order) + G.shift_up(1).scale(_ONE_PLUS_T) + (G * G).shift_up(2).scale(_T)
    return G.coeffs, rhs.coeffs


@_identity("eq23", "(1 - (1+t)z)c = 1 - tzC(t^2,z^2)")
def _sides_eq23(order):
    c = build_series("smallc", order)
    lhs = (_one(order) - _z_times(_ONE_PLUS_T, order)) * c
    rhs = _one(order) - _at_t2_z2("bigC", order).shift_up(1).scale(_T)
    return lhs.coeffs, rhs.coeffs


@_identity("eq24", "(1 - (1+t)z)c = 1 - tz c(-t,-z)c(t,z)")
def _sides_eq24(order):
    c = build_series("smallc", order)
    c_neg = _sub_t_neg(c).subs_neg_z()
    lhs = (_one(order) - _z_times(_ONE_PLUS_T, order)) * c
    rhs = _one(order) - (c_neg * c).shift_up(1).scale(_T)
    return lhs.coeffs, rhs.coeffs


@_identity("eq25", "c(t,z)c(-t,-z) = C(t^2,z^2)")
def _sides_eq25(order):
    c = build_series("smallc", order)
    c_neg = _sub_t_neg(c).subs_neg_z()
    return (c * c_neg).coeffs, _at_t2_z2("bigC", order).coeffs


@_identity("eq27", "g = 1 + (1+t)zg - tz^2 G(t^2,z^2)")
def _sides_eq27(order):
    g = build_series("smallg", order)
    rhs = _one(order) + g.shift_up(1).scale(_ONE_PLUS_T) - _at_t2_z2("bigG", order).shift_up(2).scale(_T)
    return g.coeffs, rhs.coeffs


@_identity("eq28", "g(t,z)g(t,-z) = G(t^2,z^2)")
def _sides_eq28(order):
    g = build_series("smallg", order)
    return (g * g.subs_neg_z()).coeffs, _at_t2_z2("bigG", order).coeffs


@_identity("g_at_1", "g(1,z) has central-binomial coefficients")
def _sides_g_at_1(order):
    lhs = [p(1) for p in build_series("smallg", order).coeffs]
    rhs = [binomial(n + 1, (n + 1) // 2) for n in range(order + 1)]
    return lhs, rhs


@_identity("g_at_m1", "g(-1,z) = C(1,z^2)")
def _sides_g_at_m1(order):
    lhs = [p(-1) for p in build_series("smallg", order).coeffs]
    rhs = [catalan_number(n // 2) if n % 2 == 0 else 0 for n in range(order + 1)]
    return lhs, rhs


ALL_IDENTITIES = tuple(_IDENTITY_BUILDERS)


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
