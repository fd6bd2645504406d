"""Hankel matrices, fraction-free determinants, and J-fraction machinery.

The determinant engine is the classical fraction-free elimination over an
integral domain: cross-multiply, then divide by the previous pivot, every
division provably exact in Z[t].  A step-k entry is a (k+1)-minor divisible
by a high power of t, so during the elimination each entry is held as a
pair (v, T) for t^v * T, with T(0) != 0, and the update
(x*pivot - y*z) / prev is ``exactalg._cross`` on those pairs: the cross is
built from the tails at their offsets, and the division by prev = t^f * D
is exact iff f is at most the cross's valuation and D divides its tail, the
tail division going through ``poly_exact_div`` unless D is 1 (every pivot of
the Narayana and c tables is +-t^C(k,2), so only the shifted c table's
pivots -t^v divide at all).  No zero low block is built, copied or scanned.
A symmetric matrix, which every Hankel matrix is, stays symmetric under that
update, so until a zero pivot forces a row swap only the upper triangle is
computed and mirrored; a swap breaks the symmetry and the rest of the
elimination computes every entry.  A cofactor-expansion determinant is kept
alongside as an independent oracle for small dimensions, and the two are
never merged.  ``hankel_table`` is the one loop of ``det_bareiss`` over
dimensions n = 1..max_n: it returns the leading Hankel determinants of any
family and shift, and reads no prediction.  ``HANKEL_SIGNS`` is the one
table of predictions: for each (family, shift) it predicts,
det H_n = (s*t)^binom(n,2) with its sign s, given by ``expected_hankel``.
The CLI compares the two, takes its ``--family`` and ``--shift`` choices
from the keys, and computes the table of each key once per registry run:
the Hankel checks read every determinant and the product-formula checks
the first six.

J-fraction side: a series f with constant term 1 is peeled level by level
via f = 1/(1 - s*z - t*z^2*f'), each level read off one series inverse:
g = 1/f gives s = -g_1, t = -g_2 and the next level f' = (g_2, g_3, ...)/g_2.
The work is over the rational-function field because that division by g_2
may leave Z[t].  For smallc and smallg, the two families the CLI extracts,
it does not: every t_k is +-t, so every level's series has denominator 1
throughout, and each level's inverse runs on the packed Z[t] kernel of
``TruncatedSeries``; only the division by g_2 goes through the field's gcd.
A level whose series leaves Z[t] falls back to the coefficient loop over the
field, with the same result.  A
``JFraction`` holding diagonal coefficients s_0..s_d and subdiagonal
coefficients t_0..t_{d-1} reconstructs the series exactly through order
2d+1: ``jfraction_to_series`` builds the convergent N_0/D_0 bottom-up by
the fundamental recurrence of its numerators and denominators, polynomials
in z of degree at most d+1, and then takes one series inverse and one
product for the whole fraction.  The subdiagonal coefficients alone
determine every Hankel determinant through the double product
``hankel_product_formula``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exactalg import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    _cross,
    _split,
    _unsplit,
    ring_one_like,
)
from .gfun import build_series
from .narayana import TVAR, poly_sequence


class _PolyMatrixFields(NamedTuple):
    entries: tuple[tuple[Polynomial, ...], ...]


class PolyMatrix(_PolyMatrixFields):
    """Square matrix of polynomials in one variable; TypeError for another entry, ValueError for another shape."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[Polynomial, ...], ...]):
        n = len(entries)
        if n == 0:
            raise ValueError("empty matrix")
        if any(len(row) != n for row in entries):
            raise ValueError("matrix is not square")
        for row in entries:
            for p in row:
                if not isinstance(p, Polynomial):
                    raise TypeError(f"matrix entries must be polynomials, got {type(p).__name__}")
        var = entries[0][0].var
        for row in entries:
            for p in row:
                if p.var != var:
                    raise ValueError("matrix entries must share one variable")
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, iterable):
        """From an iterable of fields, through the checks of __new__ (``_replace`` calls this too)."""
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return len(self.entries)


def hankel_matrix(seq: tuple[Polynomial, ...], n: int, shift: int) -> PolyMatrix:
    """The n x n matrix with entry (i, j) = seq[i + j + shift]."""
    if shift < 0:
        raise ValueError("shift must be >= 0")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    top = 2 * (n - 1) + shift
    if len(seq) <= top:
        raise ValueError(f"sequence too short: need entries up to index {top}, have {len(seq)}")
    return PolyMatrix(tuple(tuple(seq[i + j + shift] for j in range(n)) for i in range(n)))


def det_bareiss(m: PolyMatrix) -> Polynomial:
    """Exact determinant by fraction-free elimination.

    A zero pivot triggers a row-swap search down the column with sign
    tracking; if the whole column below is zero the determinant is zero.

    A symmetric input (every Hankel matrix is one) stays symmetric under
    the update, since entry (i, j) of step k is built from (i, j), (i, k),
    (k, j) and the pivot.  While it does, only the entries with j >= i are
    computed and each is mirrored to (j, i).  A row swap breaks the
    symmetry of the remaining block, so from the first swap on every entry
    is computed, exactly as for a non-symmetric input.

    Each entry is held as a pair (v, T) for var^v * T with T(0) != 0 (zero
    is (0, ())), split once from the input and joined back for the result.
    The update of entry (i, j) at step k is one call
    ``_cross(row_i[j], pivot, row_i[k], row_k[j], prev, var)``: the cross
    row_i[j]*pivot - row_i[k]*row_k[j] is var^m * W, built from the tails
    at their offsets with W(0) != 0, and the previous pivot is var^f * D
    with D(0) != 0.  Since var divides neither D nor W, var^f * D divides
    var^m * W iff f <= m and D divides W, which is ``poly_exact_div(W, D)``,
    skipped only when D is 1; the quotient is var^(m-f) * (W / D).  A
    division that is not exact raises NotDivisibleError.  Every pivot is a
    leading principal minor, for the Narayana and c families +-t^C(k,2), so
    their tables divide only beside the pivots -t^v of the shifted c table,
    and no step builds a ``Polynomial`` product, difference or zero low
    block.
    """
    n = m.dim
    var = m.entries[0][0].var
    a = [[_split(p) for p in row] for row in m.entries]
    symmetric = all(a[i][j] == a[j][i] for i in range(n) for j in range(i))
    sign = 1
    prev = (0, (1,))
    for k in range(n - 1):
        if not a[k][k][1]:
            for i in range(k + 1, n):
                if a[i][k][1]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    symmetric = False
                    break
            else:
                return Polynomial.zero(var)
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            y = row_i[k]
            for j in range(i if symmetric else k + 1, n):
                row_i[j] = _cross(row_i[j], pivot, y, row_k[j], prev, var)
                if symmetric:
                    a[j][i] = row_i[j]
        prev = pivot
    det = _unsplit(var, a[n - 1][n - 1])
    return det if sign == 1 else -det


_COFACTOR_DIM_LIMIT = 6


def det_cofactor(m: PolyMatrix) -> Polynomial:
    """Laplace expansion along the first row; independent oracle, dim <= 6."""
    if m.dim > _COFACTOR_DIM_LIMIT:
        raise ValueError(f"cofactor expansion is guarded to dim <= {_COFACTOR_DIM_LIMIT}")
    return _det_cofactor(m.entries)


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Polynomial.zero(rows[0][0].var)
    for j, top in enumerate(rows[0]):
        if not top:
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in rows[1:])
        term = top * _det_cofactor(minor)
        total = total - term if j % 2 else total + term
    return total


# (family, shift) -> s, in report order: det H_n = (s*t)^binom(n,2) for the
# Hankel matrix H_n = (a_{i+j+shift}) of the family (Cigler-Krattenthaler 2011)
HANKEL_SIGNS = {
    ("narayana_poly", 0): 1,
    ("narayana_poly", 1): 1,
    ("small_c", 0): 1,
    ("small_c", 1): -1,
}


def expected_hankel(family: str, shift: int, n: int) -> Polynomial:
    """The predicted determinant (s*t)^binom(n,2), s the sign of (family, shift) in ``HANKEL_SIGNS``."""
    if (family, shift) not in HANKEL_SIGNS:
        raise ValueError(f"no Hankel prediction for family {family!r} at shift {shift} "
                         f"(expected one of {tuple(HANKEL_SIGNS)})")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    e = math.comb(n, 2)
    return Polynomial.monomial(TVAR, e, HANKEL_SIGNS[family, shift] ** e)


def hankel_table(family: str, shift: int, max_n: int) -> list[Polynomial]:
    """The leading Hankel determinants [det H_1, ..., det H_max_n] of the family at the shift."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    seq = poly_sequence(family, 2 * max_n - 1 + shift)
    return [det_bareiss(hankel_matrix(seq, n, shift)) for n in range(1, max_n + 1)]


def ratfun_series(tag: str, order: int) -> TruncatedSeries:
    """A series family prefix of :func:`gfun.build_series` lifted to rational-function coefficients."""
    return build_series(tag, order).map_coeffs(RationalFunction)


class _JFractionFields(NamedTuple):
    s: tuple[RationalFunction, ...]
    t_coeffs: tuple[RationalFunction, ...]


class JFraction(_JFractionFields):
    """Diagonal coefficients s and subdiagonal coefficients t_coeffs.

    Always one more s than t, so a fraction has at least one level (the
    innermost level has no subdiagonal term); depth counts the subdiagonal
    coefficients.  An extraction that hits a zero subdiagonal coefficient
    stops early, below the depth asked for: the fraction is then finite and
    reproduces its series exactly.
    """

    __slots__ = ()

    def __new__(cls, s: tuple[RationalFunction, ...], t_coeffs: tuple[RationalFunction, ...]):
        if len(s) != len(t_coeffs) + 1:
            raise ValueError("need exactly one more diagonal than subdiagonal coefficient")
        if not all(t_coeffs):
            raise ValueError("subdiagonal coefficients must be nonzero")
        return super().__new__(cls, s, t_coeffs)

    @classmethod
    def _make(cls, iterable):
        """From an iterable of fields, through the checks of __new__ (``_replace`` calls this too)."""
        return cls(*iterable)

    @property
    def depth(self) -> int:
        return len(self.t_coeffs)


def jfraction_extract(series: TruncatedSeries, depth: int) -> JFraction:
    """Peel depth levels off a series with constant term 1.

    Level k reads the inverse g = 1/f = 1 - s_k z - t_k z^2 f': s_k = -g_1,
    t_k = -g_2, and the next level is f' = (g_2, g_3, ...) / g_2.
    Returns s_0..s_depth and t_0..t_{depth-1}; a zero t_k stops early, at
    depth k.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    first = series.coeffs[0]
    if not (isinstance(first, RationalFunction) and first == 1):
        raise ValueError("series constant term must be the rational function 1")
    if series.order < 2 * depth + 2:
        raise ValueError(f"order {series.order} too small for depth {depth} (need >= {2 * depth + 2})")
    diag, sub = [], []
    f = series
    for k in range(depth + 1):
        g = f.invert()
        diag.append(-g.coeffs[1])
        if k == depth or not g.coeffs[2]:
            break
        g_2 = g.coeffs[2]
        sub.append(-g_2)
        f = TruncatedSeries(g.coeffs[2:], f.order - 2).scale(g_2.reciprocal())
    return JFraction(tuple(diag), tuple(sub))


def jfraction_to_series(jf: JFraction, order: int) -> TruncatedSeries:
    """Evaluate the fraction bottom-up by its convergents, truncated at the given order.

    With depth d the fraction is N_0/D_0, for polynomials in z of degree at
    most d+1 built by the fundamental recurrence: N_d = 1, D_d = 1 - s_d z,
    and for k = d-1 down to 0, N_k = D_{k+1} and
    D_k = (1 - s_k z) D_{k+1} - t_k z^2 N_{k+1}.  The recurrence uses only
    +, - and *, so it is exact over any coefficient ring; the one series
    inverse, of D_0 (constant term 1), and the one product with N_0 take the
    packed Z[t] kernel when every coefficient lies in Z[t].  The result
    agrees with the source series through z^(2d+1).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    one = ring_one_like(jf.s[0])
    zero = one - one
    num, den = [one], [one, -jf.s[-1]]
    for s_k, t_k in zip(jf.s[-2::-1], jf.t_coeffs[::-1]):
        # (1 - s_k z) den - t_k z^2 num; num is one shorter than den
        nxt = den + [zero]
        for i, c in enumerate(den):
            nxt[i + 1] = nxt[i + 1] - s_k * c
        for i, c in enumerate(num):
            nxt[i + 2] = nxt[i + 2] - t_k * c
        num, den = den, nxt
    return TruncatedSeries.from_coeffs(num, order) * TruncatedSeries.from_coeffs(den, order).invert()


def hankel_product_formula(t_seq, n: int):
    """The double product over the subdiagonal coefficients, prod_{j=1}^{n-1} prod_{k=0}^{j-1} t_k.

    For a constant subdiagonal tau this collapses to tau^binom(n,2).
    Needs t_0..t_{n-2}; the n = 1 product is empty and equals 1.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    t_seq = tuple(t_seq)
    if len(t_seq) < n - 1:
        raise ValueError(f"need {n - 1} subdiagonal coefficients, have {len(t_seq)}")
    acc = ring_one_like(t_seq[0]) if t_seq else RationalFunction.one(TVAR)
    for j in range(1, n):
        for k in range(j):
            acc = acc * t_seq[k]
    return acc
