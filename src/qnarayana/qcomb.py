"""q-integers, Gaussian binomial coefficients, and the q-Narayana family.

Everything lives in Z[q].  Out-of-range indices yield the zero polynomial
so that summation loops can run over a uniform range.

Each q-Narayana coefficient q^(k^2+k) * qbinom(n,k) * qbinom(n-1,k) / [k+1]
comes from ``exactalg._bounded_quotient``, one packed product and one
packed division certified against a bound on the true quotient.  With N
the product of the two binomials and A the product of their l1 norms, the
quotient Q = N(1 - q) / (1 - q^(k+1)) has every |Q_i| <= |N(1 - q)|_1 <= 2A,
since Q_i sums coefficients of N(1 - q) at positions k+1 apart.  The
binomials' coefficients are nonnegative, so A is the product of their
coefficient sums a(1) * b(1).  A faulty negative coefficient only makes
that bound stricter, so it can raise ``NotDivisibleError`` but never
return a wrong value.  ``q_catalan`` keeps ``poly_exact_div``, so the row
sums it is checked against do not share the packed kernel.
"""

from __future__ import annotations

import functools

from .exactalg import Polynomial, _bounded_quotient, poly_exact_div

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

    qbinom(n,k) = qbinom(n-1,k-1) + q^k * qbinom(n-1,k), the product by q^k
    taken as a shift of the coefficients.  Memoized; zero polynomial
    outside 0 <= k <= n.
    """
    if k < 0 or n < 0 or k > n:
        return _ZERO
    if k == 0 or k == n:
        return _ONE
    return q_binomial(n - 1, k - 1) + Polynomial._trusted(QVAR, [0] * k + list(q_binomial(n - 1, k).coeffs))


def q_narayana_coeff(n: int, k: int) -> Polynomial:
    """q^(k^2+k) * qbinom(n,k) * qbinom(n-1,k) / [k+1], the division exact.

    The quotient is ``_bounded_quotient`` with the bound 2A of the module
    docstring, so its slot holds (2k+3) * A plus a sign bit; a quotient
    that is not exact in Z[q] raises NotDivisibleError.  Zero polynomial
    for k < 0 or k >= n.
    """
    if n < 1:
        raise ValueError("q-Narayana coefficients need n >= 1")
    if k < 0 or k >= n:
        return _ZERO
    a, b = q_binomial(n, k), q_binomial(n - 1, k)
    quotient = _bounded_quotient(a, b, q_int(k + 1), 2 * sum(a.coeffs) * sum(b.coeffs))
    return Polynomial._trusted(QVAR, [0] * (k * k + k) + list(quotient.coeffs))


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
