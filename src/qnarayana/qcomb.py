"""q-integers, Gaussian binomial coefficients, and the q-Narayana family.

Everything lives in Z[q].  Out-of-range indices yield the zero polynomial
so that summation loops can run over a uniform range.

Row n of the q-Narayana family has entries
N_q(n,k) = q^(k^2+k) * qbinom(n,k) * qbinom(n-1,k) / [k+1], 0 <= k < n.
``q_narayana_row`` builds it by ratio, in the style of the t-rows of
:mod:`narayana`: from N_q(n,0) = 1 each entry is the previous one times

    N_q(n,k+1) / N_q(n,k) = q^(2k+2) [n-k][n-k-1] / ([k+1][k+2])
                          = q^(2k+2) (1-q^(n-k))(1-q^(n-k-1)) / ((1-q^(k+1))(1-q^(k+2))),

which follows from the Fürlinger-Hofbauer product formula (q-Catalan
numbers, JCTA 40, 1985).  A step works on plain int lists: it multiplies by
the two factors (1 - q^a), divides by the two factors (1 - q^m) with a
checked exact division (``_over_one_minus_power``), and shifts by
q^(2k+2).  After the first division the partial quotient is
q^-(2k+2) * N_q(n,k+1) * (1 - q^(k+2)), so every division of a correct step
is exact; one that is not raises ``NotDivisibleError``.

Two symmetries halve the work.  qbinom(n,k) = qbinom(n,n-k), so the
q-binomial memo builds only 2k <= n.  The same formula reads

    N_q(n,k) = q^(k^2+k) * qbinom(n,k) * qbinom(n,k+1) / [n],

and the binomial product is invariant under k <-> n-1-k, so a row mirrors
itself up to a power of q: N_q(n,n-1-k) = q^(n(n-1-2k)) * N_q(n,k).  A row
takes ratio steps only up to its middle entry.  ``q_catalan`` keeps its own
route, the q-binomial divided by [n+1] through ``poly_exact_div``, so the
row sums it is checked against share no code with the rows.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import add, sub

from .exactalg import NotDivisibleError, Polynomial, poly_exact_div

QVAR = "q"

_ZERO = Polynomial.zero(QVAR)
_ONE = Polynomial.one(QVAR)


def q_int(n: int) -> Polynomial:
    """The q-integer 1 + q + ... + q^(n-1); q_int(0) = 0."""
    if n < 0:
        raise ValueError("q-integer needs n >= 0")
    return Polynomial(QVAR, (1,) * n)


# a miss this far above 2k first builds the entry this far down its column, so no call recurses n deep
_STEP = 64


@functools.cache
def q_binomial(n: int, k: int) -> Polynomial:
    """Gaussian binomial coefficient via the q-Pascal recurrence.

    qbinom(n,k) = qbinom(n-1,k-1) + q^k * qbinom(n-1,k), the product by q^k
    taken as a shift of the coefficients: the sum is the first k
    coefficients of qbinom(n-1,k-1), then the overlap added pairwise, then
    the rest of q^k * qbinom(n-1,k), whose degree k(n-k) is n - k above the
    other's.  Only 2k <= n is built; 2k > n is qbinom(n,n-k), the same
    object.  Memoized; zero polynomial outside 0 <= k <= n.
    """
    if k < 0 or n < 0 or k > n:
        return _ZERO
    if k == 0 or k == n:
        return _ONE
    if 2 * k > n:
        return q_binomial(n, n - k)
    if 2 * k <= n - _STEP:
        q_binomial(n - _STEP, k)
    low, high = q_binomial(n - 1, k - 1).coeffs, q_binomial(n - 1, k).coeffs
    return Polynomial._trusted(QVAR, [*low[:k], *map(add, low[k:], high), *high[len(low) - k:]])


def _times_one_minus_power(p: list[int], a: int) -> list[int]:
    """Coefficients of p * (1 - q^a), a >= 1, in one pass."""
    pad = [0] * a
    return list(map(sub, p + pad, pad + p))


def _over_one_minus_power(p: list[int], m: int) -> list[int]:
    """Coefficients of p / (1 - q^m), m >= 1; NotDivisibleError unless exact.

    The quotient's coefficient i is p_i + p_(i-m) + p_(i-2m) + ...: one
    running sum per residue class mod m.  Run over all of p, the sums at the
    top m positions are what is left over, so they must all be zero.
    """
    out = [0] * len(p)
    for r in range(m):
        out[r::m] = accumulate(p[r::m])
    if any(out[-m:]):
        divisor = Polynomial._trusted(QVAR, [1] + [0] * (m - 1) + [-1])
        raise NotDivisibleError(Polynomial._trusted(QVAR, list(p)), divisor)
    del out[-m:]
    return out


def _ratio_step(low: int, core: list[int], n: int, k: int) -> tuple[int, list[int]]:
    """N_q(n,k+1) from N_q(n,k) = q^low * core, returned in the same form.

    core * (1-q^(n-k))(1-q^(n-k-1)) / ((1-q^(k+1))(1-q^(k+2))), shifted by q^(2k+2).
    """
    core = _times_one_minus_power(_times_one_minus_power(core, n - k), n - k - 1)
    core = _over_one_minus_power(_over_one_minus_power(core, k + 1), k + 2)
    return low + 2 * k + 2, core


def q_narayana_row(n: int) -> tuple[Polynomial, ...]:
    """Row n of the q-Narayana family: entry k is the coefficient of t^k.

    Entries k <= (n-1)/2 are built by the ratio of the module docstring;
    the power of q an entry starts with is kept apart from its coefficients,
    so each step runs on the nonzero part only.  Every later entry n-1-k is
    entry k shifted by q^(n(n-1-2k)), the row's mirror symmetry.
    """
    if n < 0:
        raise ValueError("row index must be >= 0")
    low, core = 0, [1]
    row = [_ONE]
    for k in range((n - 1) // 2):
        low, core = _ratio_step(low, core, n, k)
        row.append(Polynomial._trusted(QVAR, [0] * low + core))
    for k in range(n - 1 - len(row), -1, -1):  # entry n-1-k, the mirror of entry k
        row.append(Polynomial._trusted(QVAR, [0] * (n * (n - 1 - 2 * k)) + list(row[k].coeffs)))
    return tuple(row)


def q_catalan(n: int) -> Polynomial:
    """qbinom(2n,n) / [n+1] by exact division; equals the sum of row n of the q-Narayana family."""
    if n < 0:
        raise ValueError("q-Catalan needs n >= 0")
    return poly_exact_div(q_binomial(2 * n, n), q_int(n + 1))
