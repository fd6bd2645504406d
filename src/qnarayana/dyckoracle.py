"""Brute-force Dyck-path statistics: the combinatorial ground truth.

Paths are plain strings over 'U'/'D'.  Frozen conventions:

* A valley is a 'D' immediately followed by a 'U'.  The major index of a
  path is the sum of the 1-based positions of the 'D' in each valley.
  This is the convention that reproduces the q-Narayana coefficients; the
  nearby alternatives (0-based positions, peak positions) already fail at
  semi-length 2 and were rejected.
* A path is symmetric when it equals its reverse-complement (read the word
  right to left with U and D swapped), i.e. mirror symmetry about the
  vertical axis.

Both path families come from one depth-first walker, ``_ballot_words``: it
extends a prefix that never has more D than U, keeps the U branches still
to try on an explicit stack, and streams words in ascending ASCII order, so
goldens are deterministic.  A Dyck path of semi-length n is such a word of
length 2n with n U; a symmetric one is such a word of length n followed by
its mirror, the half reversed with U and D swapped.  The stack holds at
most n prefixes; no list of paths is built.  Each path set's size is the
sum of its distribution table (``qt_distribution`` at q = 1,
``symmetric_valley_distribution``), so a caller that keeps the tables, as
the CLI registry does for one run, walks each set once.  The symmetric table
needs only the valley count, one ``str.count("DU")`` scan per path.  The
q, t table builds no words: ``_valley_major_walk`` is the same walk with
(ups, downs, valleys, maj) on its stack in place of the prefix, tallying
each valley as the U that closes it is placed.  ``path_stats`` stays the
word-level definition of both statistics, which the tests hold the walk
to, path by path.  The guards on n keep worst-case runtime at desk scale;
this module exists to validate small cases, not to scale.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple

from .exactalg import Polynomial
from .qcomb import QVAR

MAX_QT = 12
MAX_SYMMETRIC = 14


def _ballot_words(length: int, max_ups: int) -> Iterator[str]:
    """Every word of the given length whose prefixes never have more D than U
    and that has at most max_ups U, in ASCII order.

    Depth first, D before U.  Once max_ups U steps are placed the word is
    closed with D.
    """
    # Each D taken where a U also fits leaves that U branch on the stack as
    # (prefix ending in the U, ups, downs).
    path = ""
    pending: list[tuple[str, int, int]] = []
    ups = downs = 0
    while True:
        while ups < max_ups and ups + downs < length:
            if downs < ups:
                pending.append((path + "U", ups + 1, downs))
                path += "D"
                downs += 1
            else:
                path += "U"
                ups += 1
        yield path + "D" * (length - ups - downs)
        if not pending:
            return
        path, ups, downs = pending.pop()


def enumerate_dyck(n: int) -> Iterator[str]:
    """All Dyck paths of semi-length n, each exactly once, in ASCII order."""
    if n < 0:
        raise ValueError("semi-length must be >= 0")
    if n > MAX_QT:
        raise ValueError(f"semi-length {n} exceeds the enumeration guard {MAX_QT}")
    return _ballot_words(2 * n, n)


def is_dyck_path(word: str) -> bool:
    height = 0
    for step in word:
        if step == "U":
            height += 1
        elif step == "D":
            height -= 1
        else:
            return False
        if height < 0:
            return False
    return height == 0


_SWAP = str.maketrans("UD", "DU")


def reverse_complement(word: str) -> str:
    if word.count("U") + word.count("D") != len(word):
        raise ValueError(f"path steps must be 'U' or 'D', got {word!r}")
    return word[::-1].translate(_SWAP)


def is_symmetric(word: str) -> bool:
    return word == reverse_complement(word)


class PathStats(NamedTuple):
    valleys: int
    maj: int


def path_stats(word: str) -> PathStats:
    """Valley count and major index of a valid path.

    The reference definition of both statistics on a word; ``qt_distribution``
    tallies them along its walk instead and is tested against this.
    """
    valleys = 0
    maj = 0
    i = word.find("DU")
    while i >= 0:
        valleys += 1
        maj += i + 1
        i = word.find("DU", i + 1)
    return PathStats(valleys, maj)


def _valley_major_walk(n: int) -> Iterator[tuple[int, int]]:
    """(valleys, maj) of every Dyck path of semi-length n, in the ASCII order
    of ``enumerate_dyck``, without building the words.

    The same depth-first walk as ``_ballot_words``, carrying the statistics
    instead of the prefix: a U right after a D closes a valley whose D sits
    at 1-based position ups + downs.  A popped branch ends in U, and so does
    the walked part of each leaf (its closing D steps add nothing), so the
    after-D flag is clear at every pop.
    """
    pending: list[tuple[int, int, int, int]] = []
    ups = downs = valleys = maj = 0
    after_d = False
    while True:
        while ups < n:
            if downs < ups:
                if after_d:
                    pending.append((ups + 1, downs, valleys + 1, maj + ups + downs))
                else:
                    pending.append((ups + 1, downs, valleys, maj))
                downs += 1
                after_d = True
            else:
                if after_d:
                    valleys += 1
                    maj += ups + downs
                    after_d = False
                ups += 1
        yield valleys, maj
        if not pending:
            return
        ups, downs, valleys, maj = pending.pop()


def qt_distribution(n: int) -> dict[int, Polynomial]:
    """Major-index generating function per valley count, from full enumeration.

    Entry k sums q^maj over all paths with k valleys.
    """
    if n < 0:
        raise ValueError("semi-length must be >= 0")
    if n > MAX_QT:
        raise ValueError(f"semi-length {n} exceeds the distribution guard {MAX_QT}")
    coeffs: dict[int, list[int]] = {k: [] for k in range(max(n - 1, 0) + 1)}
    for (valleys, maj), count in Counter(_valley_major_walk(n)).items():
        row = coeffs[valleys]
        row.extend([0] * (maj + 1 - len(row)))
        row[maj] = count
    return {k: Polynomial(QVAR, row) for k, row in coeffs.items()}


def enumerate_symmetric(n: int) -> Iterator[str]:
    """All symmetric Dyck paths of semi-length n, in ASCII order.

    A symmetric path is determined by its first n steps, which form an
    arbitrary prefix with no more D than U; the mirror half then closes it.
    """
    if n < 0:
        raise ValueError("semi-length must be >= 0")
    if n > MAX_SYMMETRIC:
        raise ValueError(f"semi-length {n} exceeds the symmetric guard {MAX_SYMMETRIC}")
    # The walker makes only U/D words, so the mirror skips reverse_complement's validation.
    return (half + half[::-1].translate(_SWAP) for half in _ballot_words(n, n))


def symmetric_valley_distribution(n: int) -> dict[int, int]:
    """Number of symmetric paths per valley count.

    Two valleys never overlap (a "DU" cannot start at the U of another), so a
    path's valley count is ``path.count("DU")``; the major index is not needed.
    """
    paths = enumerate_symmetric(n)  # refuses an n out of range before the table is sized
    table = {k: 0 for k in range(max(n - 1, 0) + 1)}
    for path in paths:
        table[path.count("DU")] += 1
    return table
