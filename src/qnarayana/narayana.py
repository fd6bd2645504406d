"""Narayana and Catalan polynomial families over t.

The central object is the signed-specialization family c_n(t): the row
polynomials whose coefficients are products of two floor-halved binomials.
It is computed by three permanently distinct routes (closed form,
recursion, and the q-row specialization in :mod:`qcomb`); the cross-checks
between the routes are the point of this package, so none of them is ever
consolidated away.  The functions here only compute: every comparison
between routes is a named check of the `verify --all` registry in :mod:`cli`.
"""

from __future__ import annotations

import functools
import math

from .exactalg import Polynomial

TVAR = "t"

_ONE = Polynomial.one(TVAR)
_T = Polynomial.gen(TVAR)
_ONE_PLUS_T = Polynomial(TVAR, (1, 1))


def catalan_number(n: int) -> int:
    """binom(2n, n) / (n + 1), the division exact."""
    if n < 0:
        raise ValueError("Catalan numbers need n >= 0")
    q, r = divmod(math.comb(2 * n, n), n + 1)
    if r:
        raise ArithmeticError(f"binom(2n, n) is not divisible by n + 1 at n={n}")
    return q


def narayana_number(n: int, k: int) -> int:
    """binom(n,k) * binom(n-1,k) / (k+1); zero outside 0 <= k <= n-1.

    The closed form of a single entry: the tests hold the rows of
    ``narayana_poly``, built by ratio steps, to it.
    """
    if n < 1:
        raise ValueError("Narayana numbers need n >= 1")
    if k < 0 or k > n - 1:
        return 0
    q, r = divmod(math.comb(n, k) * math.comb(n - 1, k), k + 1)
    if r:
        raise ArithmeticError(f"binom(n,k) * binom(n-1,k) is not divisible by k + 1 at n={n}, k={k}")
    return q


def _row_by_ratio(length: int, step) -> list[int]:
    """x_0 = 1, ..., x_(length-1) with x_(k+1) = x_k * num / den for (num, den) = step(k).

    The row builders below take one multiply and one division per entry
    instead of fresh binomials; each division is checked exact.
    """
    row = [1]
    for k in range(length - 1):
        num, den = step(k)
        q, r = divmod(row[-1] * num, den)
        if r:
            raise ArithmeticError(f"row entry {k + 1} is not an integer: {row[-1]} * {num} / {den}")
        row.append(q)
    return row


@functools.cache
def narayana_poly(n: int) -> Polynomial:
    """Row polynomial with Narayana-number coefficients; 1 for n = 0.

    Built by N(n,k+1) = N(n,k)(n-k)(n-k-1)/((k+1)(k+2)); narayana_number
    is the closed form of a single entry.  Memoized: each row is built once
    per process and every caller shares it.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    return Polynomial(TVAR, _row_by_ratio(n, lambda k: ((n - k) * (n - k - 1), (k + 1) * (k + 2))))


def narayana_b_poly(n: int) -> Polynomial:
    """Type-B analogue: coefficients are the squared binomials binom(n,k)^2.

    Built from binom(n,k+1) = binom(n,k)(n-k)/(k+1).
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    return Polynomial(TVAR, [c * c for c in _row_by_ratio(n + 1, lambda k: (n - k, k + 1))])


def v_coeff(n: int, k: int) -> int:
    """binom(floor((n-1)/2), floor(k/2)) * binom(floor(n/2), floor((k+1)/2))."""
    if n < 1:
        raise ValueError("v coefficients need n >= 1")
    if k < 0:
        return 0
    return math.comb((n - 1) // 2, k // 2) * math.comb(n // 2, (k + 1) // 2)


@functools.cache
def c_poly(n: int) -> Polynomial:
    """c_n(t) with the closed-form coefficients v_coeff(n, k); 1 for n = 0.

    The degree is n - 1 for n >= 1.  Going from k to k + 1 advances one of
    the two binomials of v_coeff by one step: the second, binom(n//2, j),
    from an even k = 2j, and the first, binom((n-1)//2, j), from an odd
    k = 2j+1.  So the row is built by ratio, each step (m - j)/(j + 1).
    Memoized like narayana_poly.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    tops = (n // 2, (n - 1) // 2)
    return Polynomial(TVAR, _row_by_ratio(n, lambda k: (tops[k % 2] - k // 2, k // 2 + 1)))


def c_poly_recursive(n: int) -> Polynomial:
    """c_n(t) built purely from the even/odd recursion.

    c_0 = c_1 = 1; c_{2m} = (1+t) c_{2m-1};
    c_{2m+1} = (1+t) c_{2m} - t * narayana_poly(m)(t^2).
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    polys = [_ONE, _ONE]
    for m in range(2, n + 1):
        if m % 2 == 0:
            polys.append(_ONE_PLUS_T * polys[m - 1])
        else:
            half = m // 2
            polys.append(_ONE_PLUS_T * polys[m - 1] - _T * narayana_poly(half).subs_square())
    return polys[n]


def c_odd_closed(n: int) -> Polynomial:
    """The odd-index member c_{2n+1}(t) as narayana_b_poly(n)(t^2) + n*t*narayana_poly(n)(t^2).

    Note the explicit factor t on the second summand: the even powers of
    c_{2n+1} carry the squared binomials and the odd powers carry
    binom(n,k)binom(n,k+1), so the Narayana part must sit on odd powers.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    even_part = narayana_b_poly(n).subs_square()
    odd_part = _T * narayana_poly(n).subs_square() * n
    return even_part + odd_part


def special_values(n: int) -> tuple[int, int]:
    """(c_n(1), c_n(-1)) from the closed forms, without evaluating c_n.

    c_n(1) = binom(n, floor(n/2)); c_n(-1) is 0 for even n >= 2 and the
    Catalan number with index (n-1)/2 for odd n.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    at_one = math.comb(n, n // 2)
    if n == 0:
        at_minus_one = 1
    elif n % 2 == 0:
        at_minus_one = 0
    else:
        at_minus_one = catalan_number((n - 1) // 2)
    return at_one, at_minus_one


# The one family table: name -> builder of member n.  The series tags of
# :mod:`gfun` and the CLI short names are aliases over these names.
FAMILIES = {
    "catalan_C": lambda n: Polynomial.constant(TVAR, catalan_number(n)),
    "narayana_poly": narayana_poly,
    "narayana_B": narayana_b_poly,
    "small_c": c_poly,
}


def poly_sequence(family: str, length: int) -> tuple[Polynomial, ...]:
    """The first ``length`` members of a family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (expected one of {tuple(FAMILIES)})")
    if length < 0:
        raise ValueError("length must be >= 0")
    build = FAMILIES[family]
    return tuple(build(n) for n in range(length))
