"""Hankel matrices, fraction-free determinants, and J-fraction machinery.

The determinant engine is the classical fraction-free elimination over an
integral domain: cross-multiply, then divide by the previous pivot, every
division provably exact in Z[t].  The cross-multiplication x*pivot - y*z is
one list (``exactalg._cross``, one pass for the single-term pivots of the
Narayana and c families) and the division is ``poly_exact_div``.  A
symmetric matrix, which every Hankel matrix is, stays symmetric under that
update, so until a zero pivot forces a row swap only the upper triangle is
computed and mirrored; a swap breaks the symmetry and the rest of the
elimination computes every entry.  A cofactor-expansion determinant is kept
alongside as an independent oracle for small dimensions, and the two are
never merged.  ``hankel_table`` is the one loop of ``det_bareiss`` over
dimensions n = 1..max_n, for the ``TABLE_FAMILIES`` that have predictions.
The CLI writes its rows out, and its check registry computes each (family,
shift) table once per run: the Hankel checks read every row and the
product-formula checks the first six.

J-fraction side: a series f with constant term 1 is peeled level by level
via f = 1/(1 - s*z - t*z^2*f'), working over the rational-function field
because a level's division by t_k may leave Z[t].  For smallc and smallg,
the two families the CLI extracts, it does not: every t_k is +-t, so every
level's series has denominator 1 throughout, and each level's inverse runs
on the packed Z[t] kernel of ``TruncatedSeries``; only the division by t_k
goes through the field's gcd.  A level whose series leaves Z[t] falls back
to the coefficient loop over the field, with the same result.  A
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

from typing import NamedTuple

from .exactalg import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    _cross,
    poly_exact_div,
    ring_one_like,
)
from .gfun import build_series
from .narayana import TVAR, binomial, poly_sequence


class _PolyMatrixFields(NamedTuple):
    entries: tuple[tuple[Polynomial, ...], ...]


class PolyMatrix(_PolyMatrixFields):
    """Square matrix of polynomials sharing one variable."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[Polynomial, ...], ...]):
        n = len(entries)
        if n == 0:
            raise ValueError("empty matrix")
        var = entries[0][0].var
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix is not square")
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
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
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

    Each entry update is ``_cross(row_i[j], pivot, row_i[k], row_k[j])``,
    row_i[j]*pivot - row_i[k]*row_k[j] in one list, then the exact division
    by the previous pivot.  Every pivot is a leading principal minor, for the
    Narayana and c families +-t^C(k,2), a single term: the kernel writes
    row_i[j] at the pivot's offset and subtracts the other product over the
    nonzero tails of its operands, so no step builds a ``Polynomial``
    product or difference.
    """
    n = m.dim
    var = m.entries[0][0].var
    a = [list(row) for row in m.entries]
    symmetric = all(a[i][j] == a[j][i] for i in range(n) for j in range(i))
    sign = 1
    prev = Polynomial.one(var)
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    symmetric = False
                    break
            else:
                return Polynomial.zero(var)
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            for j in range(i if symmetric else k + 1, n):
                row_i[j] = poly_exact_div(_cross(row_i[j], pivot, row_i[k], row_k[j]), prev)
                if symmetric:
                    a[j][i] = row_i[j]
        prev = pivot
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]


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


class HankelRow(NamedTuple):
    n: int
    determinant: Polynomial
    expected: Polynomial
    match: bool


# the families expected_hankel has predictions for, in report order
TABLE_FAMILIES = ("narayana_poly", "small_c")


def expected_hankel(family: str, shift: int, n: int) -> Polynomial:
    """The predicted determinant: t^binom(n,2), signed for the shifted c family."""
    if family not in TABLE_FAMILIES:
        raise ValueError(f"no expected values for family {family!r}")
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    e = binomial(n, 2)
    coeff = -1 if family == "small_c" and shift == 1 and e % 2 else 1
    return Polynomial.monomial(TVAR, e, coeff)


def hankel_table(family: str, shift: int, max_n: int) -> list[HankelRow]:
    """Determinants against predictions for n = 1..max_n."""
    if family not in TABLE_FAMILIES:
        raise ValueError(f"unknown table family {family!r} (expected one of {TABLE_FAMILIES})")
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    seq = poly_sequence(family, 2 * max_n - 1 + shift)
    rows = []
    for n in range(1, max_n + 1):
        det = det_bareiss(hankel_matrix(seq, n, shift))
        expected = expected_hankel(family, shift, n)
        rows.append(HankelRow(n, det, expected, det == expected))
    return rows


def ratfun_series(tag: str, order: int) -> TruncatedSeries:
    """A series family prefix of :func:`gfun.build_series` lifted to rational-function coefficients."""
    return build_series(tag, order).map_coeffs(RationalFunction)


class _JFractionFields(NamedTuple):
    s: tuple[RationalFunction, ...]
    t_coeffs: tuple[RationalFunction, ...]
    terminated: bool = False


class JFraction(_JFractionFields):
    """Diagonal coefficients s and subdiagonal coefficients t_coeffs.

    Always one more s than t (the innermost level has no subdiagonal term);
    depth counts the subdiagonal coefficients.  ``terminated`` marks an
    extraction that hit a zero subdiagonal coefficient and stopped early:
    in that case the fraction is finite and reproduces its series exactly.
    """

    __slots__ = ()

    def __new__(cls, s: tuple[RationalFunction, ...], t_coeffs: tuple[RationalFunction, ...],
                terminated: bool = False):
        if len(s) != len(t_coeffs) + 1 and (s or t_coeffs):
            raise ValueError("need exactly one more diagonal than subdiagonal coefficient")
        if any(t.is_zero() for t in t_coeffs):
            raise ValueError("subdiagonal coefficients must be nonzero")
        return super().__new__(cls, s, t_coeffs, terminated)

    @classmethod
    def _make(cls, iterable):
        """From an iterable of fields, through the checks of __new__ (``_replace`` calls this too)."""
        return cls(*iterable)

    @property
    def depth(self) -> int:
        return len(self.t_coeffs)


def jfraction_extract(series: TruncatedSeries, depth: int) -> JFraction:
    """Peel depth levels off a series with constant term 1.

    Level k: s_k is the z coefficient of 1 - 1/f, t_k the z^2 coefficient
    of the remainder, and the next level is (1 - 1/f - s_k z)/(t_k z^2).
    Returns s_0..s_depth and t_0..t_{depth-1}; a zero t_k stops early with
    the truncated depth and ``terminated`` set.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    first = series.coeffs[0]
    if not (isinstance(first, RationalFunction) and first.is_one()):
        raise ValueError("series constant term must be the rational function 1")
    if series.order < 2 * depth + 2:
        raise ValueError(f"order {series.order} too small for depth {depth} (need >= {2 * depth + 2})")
    one = ring_one_like(first)
    diag, sub = [], []
    f = series
    for k in range(depth + 1):
        h = TruncatedSeries.constant(one, f.order) - f.invert()
        s_k = h.coeffs[1]
        diag.append(s_k)
        if k == depth:
            break
        r = h - TruncatedSeries.from_coeffs([one - one, s_k], f.order)
        t_k = r.coeffs[2]
        if t_k.is_zero():
            return JFraction(tuple(diag), tuple(sub), terminated=True)
        sub.append(t_k)
        f = r.shift_down(2).scale(t_k.reciprocal())
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
    agrees with the source series through z^(2d+1); an empty fraction is the
    constant series 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if not jf.s:
        return TruncatedSeries.constant(RationalFunction.one(TVAR), order)
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
