"""Hankel matrices, their determinants, and J-fractions.

Determinants: ``hankel_matrix`` builds H_n = (a_{i+j+shift}) from a
sequence, ``det_bareiss`` is the fraction-free determinant, and
``det_cofactor`` is an independent cofactor-expansion oracle for small
dimensions; the two are never merged.  ``hankel_table`` runs
``det_bareiss`` over n = 1..max_n and returns the leading determinants of
any family and shift; it reads no prediction.

Predictions: ``HANKEL_SIGNS`` is the one table of them, read by
``expected_hankel``.  The CLI compares the two and takes its ``--family``
and ``--shift`` choices from the table's keys.

J-fractions: ``jfraction_extract`` peels a series with constant term 1 into
a ``JFraction`` over the rational-function field, ``jfraction_to_series``
rebuilds the series from it, and ``hankel_product_formula`` gives every
Hankel determinant from its subdiagonal coefficients alone.
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
    """Exact determinant by fraction-free elimination, every entry update one ``_cross``.

    A zero pivot triggers a row-swap search down the column with sign
    tracking; if the whole column below is zero the determinant is zero.

    A symmetric input (every Hankel matrix is one) stays symmetric under
    the update, since entry (i, j) of step k is built from (i, j), (i, k),
    (k, j) and the pivot.  While it does, only the entries with j >= i are
    computed and each is mirrored to (j, i).  A row swap breaks the
    symmetry of the remaining block, so from the first swap on every entry
    is computed, exactly as for a non-symmetric input.

    Entries carry high powers of var, so each is held as ``_cross``'s pair
    (v, T) for var^v * T, split once from the input and joined back for the
    result; the update of entry (i, j) at step k is
    ``_cross(row_i[j], pivot, row_i[k], row_k[j], prev, var)``.  Every pivot
    is a leading principal minor, for the Narayana and c families
    +-t^C(k,2), so their tables call ``poly_exact_div`` only beside the
    pivots -t^v of the shifted c table.
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
    depth k.  The work is over the rational-function field because the
    division by g_2 may leave Z[t].  For smallc and smallg, the two
    families the CLI extracts, it does not: every t_k is +-t, so every
    level's series has denominator 1 throughout and its inverse runs on the
    packed Z[t] kernel of ``TruncatedSeries``; only the division by g_2
    goes through the field's gcd.  A level whose series leaves Z[t] takes
    the coefficient loop over the field, with the same result.
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
