"""Exact coefficient arithmetic.

Three immutable value types built on Python's arbitrary-precision integers:

* ``Polynomial``: dense univariate polynomial over the integers in a named
  variable ("t" or "q" throughout this package).  ``coeffs[i]`` holds the
  coefficient of the i-th power and the top stored coefficient is nonzero;
  the zero polynomial stores an empty tuple and its degree is -1.
* ``RationalFunction``: fully reduced quotient of two polynomials with a
  positive leading coefficient in the denominator, so equality is plain
  structural comparison.  Operations whose operands and result have the
  denominator 1 skip the reduction: such a quotient is already reduced.
* ``TruncatedSeries``: power series in z cut at a fixed order, with
  coefficients in any of the rings above (or plain ints).  Every operation
  truncates eagerly; two series are only comparable at equal order.

Big Z[t] work runs on packed integers through one Kronecker-substitution
codec, ``_pack`` and ``_unpack`` in slots of ``_slot_bytes``.  Its users
are the series product and inverse over Z[t], whose slot bounds
``TruncatedSeries`` states, and exact division, whose first slot and
widening ``poly_exact_div`` states.

Polynomial product and exact division skip zero low blocks (see
``Polynomial.__mul__`` and ``poly_exact_div``), and so does the
fraction-free entry update ``_cross`` on its (valuation, tail) pairs.
Every polynomial product runs one loop, ``_add_products``.

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
import sys
from array import array
from functools import reduce
from itertools import zip_longest
from operator import add, mul


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division left a remainder; carries both operands."""

    def __init__(self, dividend, divisor):
        super().__init__(f"({dividend}) is not divisible by ({divisor})")
        self.dividend = dividend
        self.divisor = divisor


class NotInvertibleError(ArithmeticError):
    """A series constant term is not a unit of its coefficient ring."""


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
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading_coefficient(self):
        return self.coeffs[-1] if self.coeffs else 0

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
        low = _valuation(other)
        inner = other.coeffs[low:]
        if len(inner) == 1:  # other = c * var^low, as cfrac's products by t_k are
            c = inner[0]
            return Polynomial._trusted(self.var, [0] * low + [a * c for a in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        _add_products(out, self.coeffs, inner, low)
        return Polynomial._trusted(self.var, out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at an integer point: a plain or alternating sum at x = +-1, Horner elsewhere."""
        if x == 1:
            return sum(self.coeffs)
        if x == -1:
            return sum(self.coeffs[0::2]) - sum(self.coeffs[1::2])
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def subs_neg(self):
        """Substitute var -> -var (negate odd-power coefficients)."""
        return Polynomial._trusted(self.var, [-c if i % 2 else c for i, c in enumerate(self.coeffs)])

    def subs_square(self):
        """Substitute var -> var**2 (spread coefficients to even powers)."""
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
        if len(self.coeffs) <= 1:  # a constant equals its int, so it hashes as one
            return hash(self.coeffs[0] if self.coeffs else 0)
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
        """Read back what ``to_json`` writes and nothing else: each coefficient a ``str`` equal to ``str(int(c))``."""
        for c in obj["coeffs"]:
            if type(c) is not str:
                raise TypeError(f"coefficient must be a decimal string, got {type(c).__name__}")
            if str(int(c)) != c:
                raise ValueError(f"coefficient {c!r} is not a canonical decimal string")
        return cls(obj["var"], map(int, obj["coeffs"]))


def poly_exact_div(a, b):
    """Quotient q with a = q*b exactly in Z[var]; NotDivisibleError otherwise.

    A divisor var^v * b' with b'(0) != 0 needs the dividend's v lowest
    coefficients to be zero; the rest a' of the dividend is then divided by
    b' alone.  For b' = +-1 the quotient is a' (negated for -1); any other
    b', a single term c included, takes one ``divmod`` of a'(2**w) and
    b'(2**w), packed in slots of w bits (``_pack``).  Packing is a ring
    homomorphism, so a' = q*b' forces a zero remainder: a nonzero one
    raises.  A zero remainder gives the integer quotient Q, and its balanced
    digits q (``_unpack``) are the quotient once |q|_inf * |b'|_1 and
    |a'|_inf are both below 2**(w-1): then every coefficient of q*b' is
    below 2**(w-1) as well, q*b' and a' have the same value at 2**w, and
    balanced digits are unique, so q*b' = a'.  The first slot is
    ``_slot_bytes(|a'|_inf * |b'|_1)``, enough when |q|_inf <= |a'|_inf.
    Otherwise the slot doubles, which keeps a word-wide slot on the ladder.
    Any true quotient has |q|_inf <= 2^deg(a') * ||a'||_2 (Landau-Mignotte;
    Mignotte 1974), and at a slot past that bound times |b'|_1 it would be
    the digits found; so a digit check that still fails there means no
    quotient exists, and it raises.
    """
    if a.var != b.var:
        raise ValueError(f"variable mismatch: {a.var!r} vs {b.var!r}")
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return Polynomial._trusted(a.var, [])
    low = _valuation(b)
    if any(a.coeffs[:low]):
        raise NotDivisibleError(a, b)
    rest, divisor = a.coeffs[low:], b.coeffs[low:]
    if divisor == (1,):
        return Polynomial._trusted(a.var, list(rest))
    if divisor == (-1,):
        return Polynomial._trusted(a.var, [-x for x in rest])
    norm = sum(map(abs, divisor))
    nbytes = _slot_bytes(max(map(abs, rest)) * norm)
    stop = None
    while True:
        packed, rem = divmod(_pack(rest, nbytes), _pack(divisor, nbytes))
        if rem:
            raise NotDivisibleError(a, b)
        quot = _unpack(packed, nbytes, a.var)
        half = 1 << (8 * nbytes - 1)
        if max(map(abs, quot.coeffs), default=0) * norm < half:
            return quot
        if stop is None:  # the Landau-Mignotte bound times |b'|_1, with ||a'||_2 rounded up
            stop = (1 << (len(rest) - 1)) * (math.isqrt(sum(x * x for x in rest)) + 1) * norm
        if half > stop:
            raise NotDivisibleError(a, b)
        nbytes *= 2


def _pseudo_rem(a, b):
    # remainder of lc(b)^k * a modulo b, computed without fractions
    db = len(b.coeffs) - 1
    lead = b.coeffs[-1]
    r = a
    while r and len(r.coeffs) - 1 >= db:
        shift = len(r.coeffs) - 1 - db
        r = r * lead - b * Polynomial.monomial(b.var, shift, r.coeffs[-1])
    return r


def _cross(x, p, y, z, prev, var):
    """(x*p - y*z) / prev on (valuation, tail) pairs: the fraction-free entry update.

    In fraction-free (Bareiss) elimination x is the entry, p the pivot, y
    and z the entries in the pivot's column and row, and prev the previous
    pivot; by Sylvester's identity the quotient is a minor of the input, so
    the division is exact in Z[var].

    Each operand is a pair (v, T) for var^v * T, where T is a tuple of
    coefficients with T[0] != 0, or the pair (0, ()) for zero (see
    ``_split``).  Both products are added into one list from the tails, each
    written at its valuation above the lower of the two: a single-term p
    scales x's tail into one slice and every other product runs
    ``_add_products``, so no zero low block is built, copied or scanned.
    The cross x*p - y*z is var^m * W with W(0) != 0, m read off that list.
    With prev = var^f * D and D(0) != 0, var divides neither D nor W, so the
    division is exact iff f <= m and D divides W in Z[var]; the quotient is
    var^(m-f) * (W / D), W / D by ``poly_exact_div``, and only a D of 1
    skips that call.  A division that is not exact raises NotDivisibleError.
    """
    (xv, xt), (pv, pt), (yv, yt), (zv, zt) = x, p, y, z
    u, w = xv + pv, yv + zv
    if not (xt and pt):
        if not (yt and zt):
            return 0, ()
        xt, pt, u = (), (), w  # no x*p term
    elif not (yt and zt):
        yt, zt, w = (), (), u  # no y*z term
    low = u if u < w else w
    u -= low
    w -= low
    out = [0] * (max(u + len(xt) + len(pt), w + len(yt) + len(zt)) - 1)
    if len(pt) == 1:
        c = pt[0]
        out[u:u + len(xt)] = xt if c == 1 else [a * c for a in xt]
    elif xt:
        _add_products(out, xt, pt, u)
    if yt:
        _add_products(out, [-b for b in yt], zt, w)
    i = 0
    if not out[0]:
        first = next(filter(None, out), 0)
        if not first:
            return 0, ()
        i = out.index(first)
    while not out[-1]:
        out.pop()
    f, d = prev
    m = low + i
    if m < f:
        raise NotDivisibleError(_unsplit(var, (m, out[i:])), _unsplit(var, prev))
    if i:
        del out[:i]
    if d == (1,):
        return m - f, tuple(out)
    return m - f, poly_exact_div(Polynomial._trusted(var, out), Polynomial._trusted(var, list(d))).coeffs


def _split(p):
    """The pair (v, T) of ``_cross``, p = var^v * T with T[0] != 0; (0, ()) for zero."""
    if not p.coeffs:
        return 0, ()
    v = _valuation(p)
    return v, p.coeffs[v:]


def _unsplit(var, pair):
    """The polynomial var^v * T of a pair (v, T) from ``_split`` or ``_cross``."""
    v, tail = pair
    return Polynomial._trusted(var, [0] * v + list(tail) if tail else [])


def _add_products(out, a, b, low):
    # the one polynomial product loop: adds a*b into out, shifted up by low
    # places; zero coefficients of the outer run a are skipped
    for i, x in enumerate(a, low):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y


def _valuation(p):
    # lowest power with a nonzero coefficient of a nonzero polynomial; the
    # first nonzero value is found and then located by C-level scans
    return p.coeffs.index(next(filter(None, p.coeffs)))


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

    def reciprocal(self):
        if not self:
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
        if self.den.coeffs == (1,):  # equals its numerator, so it hashes as one
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.coeffs == (1,):
            return str(self.num)
        return f"({self.num})/({self.den})"


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
        if not c:
            raise NotInvertibleError("constant term is zero")
        return c.reciprocal()
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _numerators(*series):
    """(var, kind, numerators per series) when every coefficient lies in one Z[var], else None.

    A coefficient lies in Z[var] as a Polynomial or as a RationalFunction
    with denominator 1; every coefficient of every operand must be of the
    same one of these two types, so the result can be given back in it.
    """
    kind = type(series[0].coeffs[0])
    if kind is Polynomial:
        polys = [f.coeffs for f in series]
    elif kind is RationalFunction:
        polys = []
        for f in series:
            if any(type(c) is not RationalFunction or c.den.coeffs != (1,) for c in f.coeffs):
                return None
            polys.append([c.num for c in f.coeffs])
    else:
        return None
    var = polys[0][0].var
    for ps in polys:
        for p in ps:
            if type(p) is not Polynomial or p.var != var:
                return None
    return var, kind, polys


def _lift(polys, kind, var):
    # results of the packed kernel, in the operands' coefficient type
    if kind is Polynomial:
        return polys
    one = Polynomial.one(var)
    return [RationalFunction._trusted(p, one) for p in polys]


def _slot_bytes(bound):
    """Bytes per Kronecker slot for coefficients of absolute value at most bound.

    A slot holds the bound's bits plus a sign bit, in the narrowest machine
    word of 1, 2, 4 or 8 bytes that does (bounds through 2**63 - 1), else in
    exactly as many whole bytes as that takes.  A word-wide slot converts in
    C (see ``_pack``); rounding a wider slot up would only lengthen every
    packed product.
    """
    nbytes = bound.bit_length() // 8 + 1
    return nbytes if nbytes > 8 else 1 << (nbytes - 1).bit_length()


def _slot_bias(nbytes, slots):
    # 2**(8*nbytes - 1) in each of `slots` slots: shifts balanced digits to non-negative ones
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * slots, "little")


# array typecode of each word width.  An array holds its items in the host's
# byte order, which is the little-endian digit order only on a little-endian
# host; elsewhere every slot converts through int.to_bytes and int.from_bytes.
_WORD_CODES = {array(code).itemsize: code for code in "bhilq"} if sys.byteorder == "little" else {}


def _pack(coeffs, nbytes):
    """Value at t = 2**(8*nbytes) of the polynomial with these coefficients (Kronecker substitution).

    Evaluation there is a ring homomorphism, so sums and products of packed
    values are the packed values of the polynomial sums and products, read
    back by ``_unpack`` while every coefficient fits its slot.  Every
    coefficient must lie in [-2**(8*nbytes - 1), 2**(8*nbytes - 1)); one
    outside raises OverflowError, it never wraps.  Each slot holds the
    coefficient's two's-complement word c mod 2**(8*nbytes), written by
    ``array`` at a word width and by ``int.to_bytes`` past it.  XOR with
    the bias 2**(8*nbytes - 1) in every slot turns each word into
    c + 2**(8*nbytes - 1), and subtracting the bias leaves the value.
    """
    code = _WORD_CODES.get(nbytes)
    words = (array(code, coeffs).tobytes() if code
             else b"".join(c.to_bytes(nbytes, "little", signed=True) for c in coeffs))
    bias = _slot_bias(nbytes, len(coeffs))
    return (int.from_bytes(words, "little") ^ bias) - bias


def _unpack(value, nbytes, var):
    """The polynomial with balanced base-2**(8*nbytes) digits whose value there is `value`.

    The digits are the coefficients whenever each is below 2**(8*nbytes - 1)
    in absolute value.  Adding the bias in every slot makes each digit
    d + 2**(8*nbytes - 1), with no borrow between slots, and XOR with the
    bias leaves d as a two's-complement word, read by ``array`` or by
    ``int.from_bytes``.  The spare top slot keeps the biased value of any
    integer inside the buffer, so the function never raises.
    """
    slots = value.bit_length() // (8 * nbytes) + 2
    bias = _slot_bias(nbytes, slots)
    words = ((value + bias) ^ bias).to_bytes(slots * nbytes, "little")
    code = _WORD_CODES.get(nbytes)
    coeffs = (array(code, words).tolist() if code
              else [int.from_bytes(words[k:k + nbytes], "little", signed=True) for k in range(0, len(words), nbytes)])
    return Polynomial._trusted(var, coeffs)


def _max_coeff(polys):
    return max((max(map(abs, p.coeffs)) for p in polys if p.coeffs), default=0)


def _norms(polys):
    return [sum(map(abs, p.coeffs)) for p in polys]


def _convolve(a, b):
    """Truncated product of coefficient lists in any ring: out_m = a_0 b_m + ... + a_m b_0, summed left to right.

    A square (a is b) computes each symmetric pair once, about half the
    products: out_m is twice a_0 a_m + ... + a_(h-1) a_(m-h+1) with
    h = ceil(m/2), plus the middle term a_h^2 when m = 2h is even.
    """
    if a is not b:
        return [reduce(add, map(mul, a[:m + 1], b[m::-1])) for m in range(len(a))]
    out = [a[0] * a[0]]
    for m in range(1, len(a)):
        h = (m + 1) // 2
        pairs = reduce(add, map(mul, a[:h], a[m:m - h:-1]))
        out.append(pairs + pairs if m % 2 else pairs + pairs + a[h] * a[h])
    return out


def _inverse(a, inv0):
    """Truncated inverse of a coefficient list with a_0 * inv0 = 1: out_m = -(inv0 * (a_1 out_(m-1) + ... + a_m out_0))."""
    out = [inv0]
    for m in range(1, len(a)):
        out.append(-(inv0 * reduce(add, map(mul, a[1:m + 1], out[m - 1::-1]))))
    return out


class TruncatedSeries:
    """Power series in z truncated at a fixed order.

    ``coeffs`` always has length ``order + 1``; every operation truncates
    back to that order.  Comparing series of different orders is an error,
    not False: prefixes of different lengths carry different information.

    ``*`` and ``invert`` are ``_convolve`` and ``_inverse``.  When every
    coefficient lies in one Z[var], as a ``Polynomial`` throughout or as a
    ``RationalFunction`` with denominator 1 throughout, they run on the
    packed polynomials (``_pack``) and give each result back in that type;
    ``invert`` also needs the constant term +-1, since any other inverse
    leaves Z[var].  Over ints, mixed types, or rational functions with any
    other denominator they run on the coefficients.  The packed loops take
    their slot from ``_slot_bytes`` of a bound B read off the same loop run
    on the ints |p|_1, the sums of absolute coefficients.  For a product, B
    is the larger of the largest input coefficient and the largest entry of
    _convolve of the norms, whose entry m bounds every coefficient of output
    m; a zero constant term can leave an input coefficient above every
    entry.  For the inverse of a (constant term +-1), B is the largest entry
    of beta = _inverse of [1, -|a_1|_1, -|a_2|_1, ...] with inverse
    constant 1, so that beta_m = sum_(i>=1) |a_i|_1 beta_(m-i) bounds
    |out_m|_1 by induction on out_m = -inv0 * sum_(i>=1) a_i out_(m-i); it
    bounds every input too, since beta_0 = 1 = |a_0| and
    beta_m >= |a_m|_1 beta_0 >= |a_m|_inf.  A square ``f * f`` (one
    object on both sides) packs once and runs the square path of
    ``_convolve``, on the norms too; doubling a pair is exact, so its bound
    and slot are those of two equal operands.
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

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        ring = _numerators(self, other)
        if ring is None:
            return TruncatedSeries(_convolve(self.coeffs, other.coeffs), self.order)
        var, kind, (a, b) = ring
        square = self is other  # pack once, so that _convolve sees the square
        norms_a = _norms(a)
        norms_b = norms_a if square else _norms(b)
        nbytes = _slot_bytes(max(_max_coeff(a + b), *_convolve(norms_a, norms_b)))
        packed_a = [_pack(p.coeffs, nbytes) for p in a]
        packed_b = packed_a if square else [_pack(p.coeffs, nbytes) for p in b]
        packed = _convolve(packed_a, packed_b)
        return TruncatedSeries(_lift([_unpack(v, nbytes, var) for v in packed], kind, var), self.order)

    def scale(self, c):
        """Multiply every coefficient by a ring element."""
        return TruncatedSeries([c * x for x in self.coeffs], self.order)

    def shift_up(self, k):
        """Multiply by z**k at fixed order (top coefficients fall off)."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        zero = ring_zero_like(self.coeffs[0])
        k = min(k, self.order + 1)
        coeffs = (zero,) * k + self.coeffs[: self.order + 1 - k]
        return TruncatedSeries(coeffs, self.order)

    def truncate(self, order):
        """Prefix of the series at a lower (or equal) order."""
        if not 0 <= order <= self.order:
            raise ValueError("can only truncate to a lower order")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def invert(self):
        """Multiplicative inverse up to the truncation order.

        The constant coefficient must be a unit: +-1 over the integers or
        the polynomial ring, any nonzero element over rational functions
        (packed only when it is +-1).
        """
        inv0 = _unit_inverse(self.coeffs[0])
        ring = _numerators(self)
        if ring is None or ring[2][0][0].coeffs not in ((1,), (-1,)):  # a_0 = +-1 keeps 1/a_0 in Z[var]
            return TruncatedSeries(_inverse(self.coeffs, inv0), self.order)
        var, kind, (a,) = ring
        beta = _inverse([1] + [-n for n in _norms(a[1:])], 1)
        nbytes = _slot_bytes(max(beta))
        packed = _inverse([_pack(p.coeffs, nbytes) for p in a], a[0].coeffs[0])
        return TruncatedSeries(_lift([_unpack(v, nbytes, var) for v in packed], kind, var), self.order)

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
