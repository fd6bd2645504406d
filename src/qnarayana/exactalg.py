"""Exact coefficient arithmetic.

Three immutable value types built on Python's arbitrary-precision integers:

* ``Polynomial``: dense univariate polynomial over the integers in a named
  variable ("t" or "q" throughout this package).  ``coeffs[i]`` holds the
  coefficient of the i-th power and the top stored coefficient is nonzero;
  the zero polynomial stores an empty tuple and its degree is the
  ``NEG_INF`` sentinel rather than a number.
* ``RationalFunction``: fully reduced quotient of two polynomials with a
  positive leading coefficient in the denominator, so equality is plain
  structural comparison.  Operations whose operands and result have the
  denominator 1 skip the reduction: such a quotient is already reduced.
* ``TruncatedSeries``: power series in z cut at a fixed order, with
  coefficients in any of the rings above (or plain ints).  Every operation
  truncates eagerly; two series are only comparable at equal order.

There is no floating point anywhere and no tolerance anywhere: all
arithmetic is exact, all equality is structural.

Coefficients are validated once, at the public ``Polynomial(var, coeffs)``
constructor: each must be a plain ``int`` (``bool`` is refused).  Results
the module computes itself from already-validated coefficients (sums,
products, quotients, substitutions) go through ``Polynomial._trusted``,
which only strips trailing zeros.
"""

from __future__ import annotations

import math
from itertools import zip_longest


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division left a remainder; carries both operands."""

    def __init__(self, dividend, divisor):
        super().__init__(f"({dividend}) is not divisible by ({divisor})")
        self.dividend = dividend
        self.divisor = divisor


class NotInvertibleError(ArithmeticError):
    """A series constant term is not a unit of its coefficient ring."""


class _NegInf:
    """Degree of the zero polynomial: below every integer, equal only to itself."""

    __slots__ = ()

    def __lt__(self, other):
        return not isinstance(other, _NegInf)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInf)

    def __eq__(self, other):
        return isinstance(other, _NegInf)

    def __hash__(self):
        return hash("NEG_INF")

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


class Polynomial:
    """Dense univariate polynomial with integer coefficients."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs=()):
        if not isinstance(var, str) or not var:
            raise TypeError("variable must be a non-empty string")
        coeffs = list(coeffs)
        for c in coeffs:
            if type(c) is not int:  # bool is an int subclass, and to_json would write "True"
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.var = var
        self.coeffs = tuple(coeffs)

    @classmethod
    def _trusted(cls, var, coeffs):
        """Internal constructor for a fresh list of ints computed here.

        No validation; trailing zeros are popped off the list in place.
        """
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        p = object.__new__(cls)
        p.var = var
        p.coeffs = tuple(coeffs)
        return p

    @classmethod
    def zero(cls, var):
        return cls(var)

    @classmethod
    def one(cls, var):
        return cls(var, (1,))

    @classmethod
    def gen(cls, var):
        """The variable itself as a polynomial."""
        return cls(var, (0, 1))

    @classmethod
    def monomial(cls, var, power, coeff=1):
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls(var, (0,) * power + (coeff,))

    @classmethod
    def constant(cls, var, value):
        return cls(var, (value,))

    def degree(self):
        """Degree, or the NEG_INF sentinel for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading_coefficient(self):
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def content(self):
        """Non-negative gcd of all coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self):
        if not self.coeffs:
            return self
        c = self.content()
        return Polynomial._trusted(self.var, [a // c for a in self.coeffs])

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.var != self.var:
                raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")
            return other
        if isinstance(other, int):
            return Polynomial(self.var, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._trusted(self.var, [a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._trusted(self.var, [a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Polynomial._trusted(self.var, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial._trusted(self.var, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial._trusted(self.var, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def subs_neg(self):
        """Substitute var -> -var (negate odd-power coefficients)."""
        return Polynomial._trusted(self.var, [-c if i % 2 else c for i, c in enumerate(self.coeffs)])

    def subs_square(self):
        """Substitute var -> var**2 (spread coefficients to even powers)."""
        if not self.coeffs:
            return self
        out = [0] * (2 * len(self.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return Polynomial._trusted(self.var, out)

    def __eq__(self, other):
        if isinstance(other, int):  # bool included: equality never raises
            return self.coeffs == ((other,) if other else ())
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.var!r}, {self.coeffs!r})"

    def __str__(self):
        """Canonical ascending-power form with explicit signs, e.g. "1+2t+t^2"."""
        if not self.coeffs:
            return "0"
        out = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{self.var}" if i == 1 else f"{head}{self.var}^{i}"
            sign = "-" if c < 0 else "+"
            out.append(body if not out and sign == "+" else sign + body)
        return "".join(out)

    def to_json(self):
        """Wire form: coefficients as decimal strings, index = power."""
        return {"var": self.var, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["var"], (int(c) for c in obj["coeffs"]))


def poly_exact_div(a, b):
    """Quotient q with a = q*b exactly in Z[var]; NotDivisibleError otherwise."""
    if a.var != b.var:
        raise ValueError(f"variable mismatch: {a.var!r} vs {b.var!r}")
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return Polynomial._trusted(a.var, [])
    da, db = len(a.coeffs) - 1, len(b.coeffs) - 1
    if da < db:
        raise NotDivisibleError(a, b)
    rem = list(a.coeffs)
    quot = [0] * (da - db + 1)
    lead = b.coeffs[-1]
    for i in range(da - db, -1, -1):
        c = rem[i + db]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise NotDivisibleError(a, b)
        quot[i] = q
        for j, bc in enumerate(b.coeffs):
            rem[i + j] -= q * bc
    if any(rem):
        raise NotDivisibleError(a, b)
    return Polynomial._trusted(a.var, quot)


def _pseudo_rem(a, b):
    # remainder of lc(b)^k * a modulo b, computed without fractions
    db = len(b.coeffs) - 1
    lead = b.coeffs[-1]
    r = a
    while r and len(r.coeffs) - 1 >= db:
        shift = len(r.coeffs) - 1 - db
        r = r * lead - b * Polynomial.monomial(b.var, shift, r.coeffs[-1])
    return r


def _valuation(p):
    # lowest power with a nonzero coefficient of a nonzero polynomial
    return next(i for i, c in enumerate(p.coeffs) if c)


def poly_gcd(a, b):
    """Gcd in Z[var], normalized to a positive leading coefficient.

    A zero operand gives the other one.  When either operand is a monomial
    c*var^k (a constant is k = 0), every common divisor is d*var^j with d
    dividing both contents and j at most both valuations, so the gcd is
    gcd(content(a), content(b)) * var^min(val(a), val(b)), with val the
    lowest power carrying a nonzero coefficient.

    The general path splits off the content; the primitive parts go through
    a denominator-cleared Euclidean remainder sequence (pseudo-remainders,
    re-primitivized each step).
    """
    if a.var != b.var:
        raise ValueError(f"variable mismatch: {a.var!r} vs {b.var!r}")
    if not a:
        g = b
    elif not b:
        g = a
    elif not any(a.coeffs[:-1]) or not any(b.coeffs[:-1]):  # a monomial operand
        power = min(_valuation(a), _valuation(b))
        g = Polynomial._trusted(a.var, [0] * power + [math.gcd(a.content(), b.content())])
    else:
        shared = math.gcd(a.content(), b.content())
        p, q = a.primitive_part(), b.primitive_part()
        while q:
            r = _pseudo_rem(p, q)
            p, q = q, r.primitive_part()
        g = p * shared
    if g.leading_coefficient() < 0:
        g = -g
    return g


class RationalFunction:
    """Reduced quotient of integer polynomials in one shared variable.

    Canonical form: gcd(num, den) = 1 and den has a positive leading
    coefficient, so == is structural.  Over the denominator 1 every
    numerator is already canonical, so construction skips the gcd there,
    and +, - and * of two denominator-1 operands combine the numerators
    directly, without cross products.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            if not isinstance(den, Polynomial):
                raise TypeError("an integer numerator needs a polynomial denominator for the variable")
            num = Polynomial(den.var, (num,))
        if den is None:
            den = Polynomial.one(num.var)
        elif isinstance(den, int):
            den = Polynomial(num.var, (den,))
        if num.var != den.var:
            raise ValueError(f"variable mismatch: {num.var!r} vs {den.var!r}")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if den.coeffs != (1,):  # over the denominator 1 every numerator is reduced
            g = poly_gcd(num, den)
            if g.coeffs != (1,):
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
            if den.leading_coefficient() < 0:
                num, den = -num, -den
        self.num = num
        self.den = den

    @classmethod
    def _trusted(cls, num, den):
        """Internal constructor for a pair already in canonical form; no gcd, no sign fix."""
        r = object.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def zero(cls, var):
        return cls(Polynomial.zero(var))

    @classmethod
    def one(cls, var):
        return cls(Polynomial.one(var))

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.coeffs == (1,) and self.den.coeffs == (1,)

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.num.var != self.num.var:
                raise ValueError("variable mismatch")
            return other
        if isinstance(other, Polynomial):
            if other.var != self.num.var:
                raise ValueError("variable mismatch")
            return RationalFunction(other)
        if isinstance(other, int):
            return RationalFunction(Polynomial(self.num.var, (other,)))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.coeffs == (1,) and other.den.coeffs == (1,):
            return RationalFunction._trusted(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.coeffs == (1,) and other.den.coeffs == (1,):
            return RationalFunction._trusted(self.num - other.num, self.den)
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.coeffs == (1,) and other.den.coeffs == (1,):
            return RationalFunction._trusted(self.num * other.num, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def reciprocal(self):
        if self.is_zero():
            raise ZeroDivisionError("zero has no reciprocal")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        # bool included, and a polynomial in another variable is unequal: equality never raises
        if isinstance(other, (int, Polynomial)):
            return self.den.coeffs == (1,) and self.num == other
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.coeffs == (1,):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(Polynomial.from_json(obj["num"]), Polynomial.from_json(obj["den"]))


def ring_zero_like(c):
    if isinstance(c, int):
        return 0
    if isinstance(c, Polynomial):
        return Polynomial.zero(c.var)
    if isinstance(c, RationalFunction):
        return RationalFunction.zero(c.num.var)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def ring_one_like(c):
    if isinstance(c, int):
        return 1
    if isinstance(c, Polynomial):
        return Polynomial.one(c.var)
    if isinstance(c, RationalFunction):
        return RationalFunction.one(c.num.var)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _unit_inverse(c):
    # units: +-1 in Z and Z[var]; every nonzero element of the fraction field
    if isinstance(c, int):
        if c in (1, -1):
            return c
        raise NotInvertibleError(f"{c} is not a unit")
    if isinstance(c, Polynomial):
        if c.coeffs in ((1,), (-1,)):
            return c
        raise NotInvertibleError(f"{c} is not a unit in the polynomial ring")
    if isinstance(c, RationalFunction):
        if c.is_zero():
            raise NotInvertibleError("constant term is zero")
        return c.reciprocal()
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def ring_to_json(c):
    if isinstance(c, int):
        return str(c)
    return c.to_json()


def ring_from_json(obj):
    if isinstance(obj, str):
        return int(obj)
    if "var" in obj:
        return Polynomial.from_json(obj)
    return RationalFunction.from_json(obj)


class TruncatedSeries:
    """Power series in z truncated at a fixed order.

    ``coeffs`` always has length ``order + 1``; every operation truncates
    back to that order.  Comparing series of different orders is an error,
    not False: prefixes of different lengths carry different information.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, coeffs, order):
        """Build from a possibly short or long coefficient list (pad/truncate)."""
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("cannot infer the coefficient ring from an empty list")
        zero = ring_zero_like(coeffs[0])
        coeffs = coeffs[: order + 1]
        coeffs.extend(zero for _ in range(order + 1 - len(coeffs)))
        return cls(coeffs, order)

    @classmethod
    def constant(cls, value, order):
        return cls.from_coeffs([value], order)

    def coefficient(self, i):
        return self.coeffs[i]

    def _check_order(self, other):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        out = []
        for m in range(self.order + 1):
            acc = self.coeffs[0] * other.coeffs[m]
            for i in range(1, m + 1):
                acc = acc + self.coeffs[i] * other.coeffs[m - i]
            out.append(acc)
        return TruncatedSeries(out, self.order)

    def scale(self, c):
        """Multiply every coefficient by a ring element."""
        return TruncatedSeries([c * x for x in self.coeffs], self.order)

    def shift_up(self, k):
        """Multiply by z**k at fixed order (top coefficients fall off)."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        zero = ring_zero_like(self.coeffs[0])
        coeffs = (zero,) * k + self.coeffs[: self.order + 1 - k]
        return TruncatedSeries(coeffs, self.order)

    def shift_down(self, k):
        """Exact division by z**k; the dropped low coefficients must be zero."""
        if not 0 <= k <= self.order:
            raise ValueError("shift out of range")
        if any(bool(c) for c in self.coeffs[:k]):
            raise ValueError(f"series is not divisible by z^{k}")
        return TruncatedSeries(self.coeffs[k:], self.order - k)

    def truncate(self, order):
        """Prefix of the series at a lower (or equal) order."""
        if not 0 <= order <= self.order:
            raise ValueError("can only truncate to a lower order")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def invert(self):
        """Multiplicative inverse up to the truncation order.

        The constant coefficient must be a unit: +-1 over the integers or
        the polynomial ring, any nonzero element over rational functions.
        """
        inv0 = _unit_inverse(self.coeffs[0])
        out = [inv0]
        for m in range(1, self.order + 1):
            acc = self.coeffs[1] * out[m - 1]
            for i in range(2, m + 1):
                acc = acc + self.coeffs[i] * out[m - i]
            out.append(-(inv0 * acc))
        return TruncatedSeries(out, self.order)

    def subs_neg_z(self):
        """Substitute z -> -z."""
        return TruncatedSeries([-c if i % 2 else c for i, c in enumerate(self.coeffs)], self.order)

    def subs_z_squared(self):
        """Substitute z -> z**2 at fixed order: odd slots zero, overflow dropped."""
        zero = ring_zero_like(self.coeffs[0])
        out = [zero] * (self.order + 1)
        for i in range(self.order // 2 + 1):
            out[2 * i] = self.coeffs[i]
        return TruncatedSeries(out, self.order)

    def map_coeffs(self, fn):
        """Apply a ring map to every coefficient (e.g. t -> t**2)."""
        return TruncatedSeries([fn(c) for c in self.coeffs], self.order)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("series are comparable only at equal order")
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return f"TruncatedSeries({self.coeffs!r}, {self.order!r})"

    def __str__(self):
        parts = [f"({c})z^{i}" for i, c in enumerate(self.coeffs)]
        return " + ".join(parts)

    def to_json(self):
        return {"order": self.order, "coeffs": [ring_to_json(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        return cls([ring_from_json(c) for c in obj["coeffs"]], obj["order"])
