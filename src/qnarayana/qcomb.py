"""q-integers, Gaussian binomial coefficients, and the q-Narayana family.

Everything lives in Z[q].  Out-of-range indices yield the zero polynomial
so that summation loops can run over a uniform range.

Each q-Narayana coefficient q^(k^2+k) * qbinom(n,k) * qbinom(n-1,k) / [k+1]
is computed on packed integers (Kronecker substitution, as in the series
kernel of ``exactalg``): the two q-binomials and [k+1] are evaluated at
q = 2**w, multiplied and divided as Python ints, and the quotient is read
back once as its balanced base-2**w digits, then shifted by q^(k^2+k).
Evaluation at 2**w is a ring homomorphism, so the integer division is
exact whenever the polynomial one is; the converse fails (1+q over 97 is
exact at 2**24), so the quotient is certified.  Let A be the product of
the l1 norms of the two binomials and N their product:

* Bound.  Every |N_i| <= A.  The true quotient
  Q = N(1 - q) / (1 - q^(k+1)) has every |Q_i| <= |N(1 - q)|_1 <= 2A,
  since Q_i sums coefficients of N(1 - q) at positions k+1 apart.
* Certificate.  The slot holds (2k+3) * A plus a sign bit.  The unpacked
  Q' is accepted only if the remainder is 0 and every |Q'_i| <= 2A.  Then
  every coefficient of Q'*[k+1] - N is at most (k+1)*2A + A = (2k+3)A,
  below 2**(w-1) in absolute value, and Q'*[k+1] - N vanishes at 2**w.
  Balanced base-2**w digits are unique, so it is zero: Q' is exact.

Anything else raises ``NotDivisibleError``, as ``poly_exact_div`` does.
``q_catalan`` keeps ``poly_exact_div``, so the row sums it is checked
against do not share the packed kernel.
"""

from __future__ import annotations

import functools

from .exactalg import NotDivisibleError, Polynomial, _norms, _pack, _slot_bytes, _unpack, poly_exact_div

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

    The binomials and [k+1] are packed at q = 2**w with w whole bytes
    holding (2k+3) * A plus a sign bit, A the product of the binomials'
    l1 norms; one big-int product and one divmod give the packed quotient,
    unpacked once and shifted.  It is accepted only with remainder 0 and
    every coefficient at most 2A, which certifies it exact in Z[q] (see the
    module docstring); otherwise NotDivisibleError.  Zero polynomial for
    k < 0 or k >= n.
    """
    if n < 1:
        raise ValueError("q-Narayana coefficients need n >= 1")
    if k < 0 or k >= n:
        return _ZERO
    quotient = _packed_quotient(q_binomial(n, k), q_binomial(n - 1, k), q_int(k + 1))
    return Polynomial._trusted(QVAR, [0] * (k * k + k) + list(quotient.coeffs))


def _packed_quotient(a: Polynomial, b: Polynomial, d: Polynomial) -> Polynomial:
    """a*b/d in Z[q] for nonzero a and b, accepted only with every |coefficient| <= 2*|a|_1*|b|_1.

    The slot holds (2*|d|_1 + 1) * |a|_1*|b|_1 plus a sign bit, which is
    (2k+3) * A for d = [k+1].  The 2A bound holds for the true quotient
    when d = [k+1]; for another divisor a larger quotient raises
    NotDivisibleError, never a wrong value.
    """
    norm_a, norm_b, norm_d = _norms((a, b, d))
    bound = norm_a * norm_b
    nbytes = _slot_bytes((2 * norm_d + 1) * bound)
    packed, rem = divmod(_pack(a, nbytes) * _pack(b, nbytes), _pack(d, nbytes))
    quotient = _unpack(packed, nbytes, QVAR)
    if rem or max(map(abs, quotient.coeffs), default=0) > 2 * bound:
        raise NotDivisibleError(a * b, d)
    return quotient


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
