"""q-integers, Gaussian binomial coefficients, and the q-Narayana family.

Everything lives in Z[q].  Out-of-range indices yield the zero polynomial
so that summation loops can run over a uniform range.
"""

from __future__ import annotations

import functools

from .exactalg import Polynomial, poly_exact_div

QVAR = "q"

_ZERO = Polynomial.zero(QVAR)
_ONE = Polynomial.one(QVAR)


def q_int(n: int) -> Polynomial:
    """The q-integer 1 + q + ... + q^(n-1); q_int(0) = 0."""
    if n < 0:
        raise ValueError("q-integer needs n >= 0")
    return Polynomial(QVAR, (1,) * n)


@functools.cache
def q_binomial(n: int, k: int) -> Polynomial:
    """Gaussian binomial coefficient via the q-Pascal recurrence.

    Memoized; zero polynomial outside 0 <= k <= n.
    """
    if k < 0 or n < 0 or k > n:
        return _ZERO
    if k == 0 or k == n:
        return _ONE
    return q_binomial(n - 1, k - 1) + Polynomial.monomial(QVAR, k) * q_binomial(n - 1, k)


def q_narayana_coeff(n: int, k: int) -> Polynomial:
    """q^(k^2+k) * qbinom(n,k) * qbinom(n-1,k) / [k+1], the division exact.

    Zero polynomial for k < 0 or k >= n.
    """
    if n < 1:
        raise ValueError("q-Narayana coefficients need n >= 1")
    if k < 0 or k >= n:
        return _ZERO
    numerator = Polynomial.monomial(QVAR, k * k + k) * q_binomial(n, k) * q_binomial(n - 1, k)
    return poly_exact_div(numerator, q_int(k + 1))


def q_catalan(n: int) -> Polynomial:
    """qbinom(2n,n) / [n+1] by exact division; equals the sum of row n of the q-Narayana family."""
    if n < 0:
        raise ValueError("q-Catalan needs n >= 0")
    return poly_exact_div(q_binomial(2 * n, n), q_int(n + 1))


def q_narayana_row(n: int) -> tuple[Polynomial, ...]:
    """Row n of the q-Narayana family: entry k is the coefficient of t^k."""
    if n < 0:
        raise ValueError("row index must be >= 0")
    if n == 0:
        return (_ONE,)
    return tuple(q_narayana_coeff(n, k) for k in range(n))


def specialize_row(n: int, q0: int) -> tuple[int, ...]:
    """Evaluate row n at an integer q0 (q0 = -1 and q0 = 1 are the cases of interest)."""
    if n < 1:
        raise ValueError("row specialization needs n >= 1")
    return tuple(p(q0) for p in q_narayana_row(n))
