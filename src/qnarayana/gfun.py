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
quadratic functional equations they solve (eq15, eq20 and g_at_1).

``IDENTITY_DESCRIPTIONS`` states each identity once, under its stable
registry key, as the text ``verify_identity`` parses and evaluates
(grammar, and the one order its values are built at, at ``_Statement``).
"""

from __future__ import annotations

import re
from math import prod
from typing import NamedTuple

from .exactalg import Polynomial, TruncatedSeries
from .narayana import FAMILIES, TVAR

# series tag -> (family in narayana.FAMILIES, shift): coefficient n is member n + shift
TAG_FAMILIES = {
    "bigC": ("narayana_poly", 0),
    "bigG": ("narayana_poly", 1),
    "smallc": ("small_c", 0),
    "smallg": ("small_c", 1),
}


def build_series(tag: str, order: int) -> TruncatedSeries:
    """Prefix of one of the four families at the given truncation order."""
    if tag not in TAG_FAMILIES:
        raise ValueError(f"unknown series tag {tag!r} (expected one of {tuple(TAG_FAMILIES)})")
    if order < 0:
        raise ValueError("order must be >= 0")
    family, shift = TAG_FAMILIES[tag]
    build = FAMILIES[family]
    return TruncatedSeries([build(n + shift) for n in range(order + 1)], order)


# identity key -> its statement, in report order; each statement is the text verify_identity evaluates
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
    "g_at_1": "g(1,z) = 1 + 2z + 4z^2 g(1,z) + z^2 g(1,z)^2 (2z - 1)",
    "g_at_m1": "g(-1,z) = C(1,z^2)",
}
ALL_IDENTITIES = tuple(IDENTITY_DESCRIPTIONS)

# ^k, a generator with its argument, an integer, any other character; compiled
# on first use (re caches it), so an import that evaluates no statement skips it
_TOKEN = r"\^[1-9]\d*|[CGcg](?:\([^()]*\))?|\d+|\S"
_GENERATORS = {"C": "bigC", "G": "bigG", "c": "smallc", "g": "smallg"}


def _at(t):
    """The map from a generator at (t,z) to its value at t = +-1, every coefficient a constant."""
    return lambda f: f.map_coeffs(lambda p: Polynomial.constant(TVAR, p(t)))


# generator argument -> the map from the generator at (t,z) to its value there
_ARGUMENTS = {
    "(t,z)": lambda f: f,
    "(-t,-z)": lambda f: f.map_coeffs(Polynomial.subs_neg).subs_neg_z(),
    "(t,-z)": TruncatedSeries.subs_neg_z,
    "(t^2,z^2)": lambda f: f.map_coeffs(Polynomial.subs_square).subs_z_squared(),
    "(1,z)": _at(1),
    "(-1,z)": _at(-1),
    "(1,z^2)": lambda f: _at(1)(f).subs_z_squared(),
}


def _lift(value, order):
    """A t-polynomial as a constant series; a series as it is."""
    return TruncatedSeries.constant(value, order) if isinstance(value, Polynomial) else value


class _Statement:
    """One series statement, evaluated by recursive descent as it is parsed.

    Grammar: integers, ``t``, ``z``, ``+``, ``-``, juxtaposition as product,
    ``^k`` and parentheses; ``1/X``, the series inverse; ``(X)/z``, refused
    when X has a nonzero constant term; the generators ``C``, ``G``, ``c``,
    ``g``, optionally at an argument of ``_ARGUMENTS``.
    Every value is a series at one order N, the order compared plus the
    number of ``(X)/z``, and each generator is built once, at N.  ``(X)/z``
    drops X's zero constant term and pads the top with 0, so its top
    coefficient is wrong; every other operation (``+``, ``-``, products,
    ``1/X``, t-scaling, ``z^k`` and the arguments) writes coefficient m
    from coefficients <= m, so a wrong coefficient only spoils those above
    it, and each ``(X)/z`` spoils one more at the top.  Both sides are
    compared through the order, below every spoiled one.
    A factor's value is a t-polynomial, a series, or the int 1 for z.  A term
    multiplies its series factors first, then applies its z^k and its
    t-polynomial as ``shift_up`` and ``scale``.  A malformed statement raises
    ``ValueError`` naming the identity and the position.
    """

    def __init__(self, identity, text):
        self.identity, self.text = identity, text
        self.tokens = [(m.group(), m.start()) for m in re.finditer(_TOKEN, text)] + [(None, len(text))]
        self.at, self.built = 0, {}  # the next token; tag -> its generator, built once

    def fail(self, what, at=None):
        position = self.tokens[self.at if at is None else at][1]
        raise ValueError(f"identity {self.identity}: {what} at position {position} of {self.text!r}")

    def peek(self, *tokens):
        return self.tokens[self.at][0] in tokens

    def take(self, expected=None):
        token = self.tokens[self.at][0]
        if token is None or expected not in (None, token):
            self.fail(f"expected {repr(expected) if expected else 'more'}, found {token or 'the end'}")
        self.at += 1
        return token

    def power(self):
        """The k of a following ^k, else 1."""
        token = self.tokens[self.at][0]
        return int(self.take()[1:]) if token and token[0] == "^" and token[1:] else 1

    def sides(self, order):
        # N, the order of every value: one more per (X)/z
        self.order = order + sum(a == "/" and b == "z" for (a, _), (b, _) in zip(self.tokens, self.tokens[1:]))
        lhs = _lift(self.sum(), self.order)
        self.take("=")
        rhs = _lift(self.sum(), self.order)
        if not self.peek(None):
            self.fail("trailing tokens")
        return lhs.truncate(order), rhs.truncate(order)

    def sum(self):
        """A t-polynomial if every term is one, else a series."""
        total = self.term()
        while self.peek("+", "-"):
            sign, term = self.take(), self.term()
            if isinstance(total, TruncatedSeries) or isinstance(term, TruncatedSeries):
                total, term = _lift(total, self.order), _lift(term, self.order)
            total = total + term if sign == "+" else total - term
        return total

    def term(self):
        values = []
        while not values or not self.peek(None, "+", "-", "=", ")"):
            value = self.factor()
            values += [value] * self.power()  # C^2 is one object twice, so its product is a square
        series = [value for value in values if isinstance(value, TruncatedSeries)]
        polys = [value for value in values if isinstance(value, Polynomial)]
        poly = prod(polys[1:], start=polys[0]) if polys else Polynomial.one(TVAR)
        shift = sum(value for value in values if isinstance(value, int))
        if not series:
            return TruncatedSeries.from_coeffs([Polynomial.zero(TVAR)] * shift + [poly], self.order) if shift else poly
        product = prod(series[1:], start=series[0])
        product = product.shift_up(shift) if shift else product
        return product.scale(poly) if polys else product

    def factor(self):
        start, token = self.at, self.take()
        if token == "t":
            return Polynomial.gen(TVAR)
        if token == "z":
            return 1
        if token == "1" and self.peek("/"):
            self.take()
            return self.series(self.factor(), start).invert()
        if token.isdigit():
            return Polynomial.constant(TVAR, int(token))
        if token[0] in _GENERATORS:
            tag, argument = _GENERATORS[token[0]], token[1:] or "(t,z)"
            if argument not in _ARGUMENTS:
                self.fail(f"unknown argument {argument}", start)
            if tag not in self.built:
                self.built[tag] = build_series(tag, self.order)
            return _ARGUMENTS[argument](self.built[tag])
        if token != "(":
            self.fail(f"unexpected {token!r}", start)
        value = self.sum()
        self.take(")")
        if not self.peek("/"):
            return value
        self.take("/")
        self.take("z")
        value = self.series(value, start)
        if value.coeffs[0]:
            self.fail("(X)/z of an X with a nonzero constant term", start)
        return TruncatedSeries.from_coeffs(value.coeffs[1:], value.order)

    def series(self, value, at):
        if not isinstance(value, TruncatedSeries):
            self.fail("expected a series", at)
        return value


class IdentityReport(NamedTuple):
    """Outcome of one identity check: a pass has no power, a failure its first failing power and both sides there."""

    identity: str
    order: int
    power: int | None = None
    lhs: Polynomial | None = None
    rhs: Polynomial | None = None

    @property
    def passed(self) -> bool:
        return self.power is None

    def to_json(self) -> dict:
        out = {"identity": self.identity, "order": self.order, "status": "pass" if self.passed else "fail"}
        if not self.passed:
            out["power"] = self.power
            out["lhs"] = self.lhs.to_json()
            out["rhs"] = self.rhs.to_json()
        return out


def verify_identity(identity: str, order: int) -> IdentityReport:
    """Evaluate both sides of one registered identity and compare every coefficient."""
    if identity not in IDENTITY_DESCRIPTIONS:
        raise ValueError(f"unknown identity {identity!r} (expected one of {ALL_IDENTITIES})")
    if order < 2:
        raise ValueError("identity checks need order >= 2")
    lhs, rhs = _Statement(identity, IDENTITY_DESCRIPTIONS[identity]).sides(order)
    for power, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs, strict=True)):
        if a != b:
            return IdentityReport(identity, order, power, a, b)
    return IdentityReport(identity, order)
