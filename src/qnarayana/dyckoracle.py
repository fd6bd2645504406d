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
its reverse-complement.  The stack holds at most n prefixes; no list of
paths is built.  The guards on n keep worst-case runtime at desk scale;
this module exists to validate small cases, not to scale.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .exactalg import Polynomial, ring_to_json
from .qcomb import QVAR

MAX_ENUM = 12
MAX_QT = 10
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
    if n > MAX_ENUM:
        raise ValueError(f"semi-length {n} exceeds the enumeration guard {MAX_ENUM}")
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
    """Valley count and major index of a valid path."""
    valleys = 0
    maj = 0
    i = word.find("DU")
    while i >= 0:
        valleys += 1
        maj += i + 1
        i = word.find("DU", i + 1)
    return PathStats(valleys, maj)


def qt_distribution(n: int) -> dict[int, Polynomial]:
    """Major-index generating function per valley count, from full enumeration.

    Entry k sums q^maj over all paths with k valleys.
    """
    if n < 0:
        raise ValueError("semi-length must be >= 0")
    if n > MAX_QT:
        raise ValueError(f"semi-length {n} exceeds the distribution guard {MAX_QT}")
    counts: dict[int, dict[int, int]] = {k: {} for k in range(max(n - 1, 0) + 1)}
    for path in enumerate_dyck(n):
        stats = path_stats(path)
        by_maj = counts[stats.valleys]
        by_maj[stats.maj] = by_maj.get(stats.maj, 0) + 1
    table = {}
    for k, by_maj in counts.items():
        coeffs = [0] * (max(by_maj) + 1 if by_maj else 0)
        for maj, count in by_maj.items():
            coeffs[maj] = count
        table[k] = Polynomial(QVAR, coeffs)
    return table


def distribution_to_json(table: dict) -> dict:
    """Wire form of a distribution table: keyed by k, polynomial or count values."""
    return {str(k): ring_to_json(v) for k, v in table.items()}


def enumerate_symmetric(n: int) -> Iterator[str]:
    """All symmetric Dyck paths of semi-length n, in ASCII order.

    A symmetric path is determined by its first n steps, which form an
    arbitrary prefix with no more D than U; the mirror half then closes it.
    """
    if n < 0:
        raise ValueError("semi-length must be >= 0")
    if n > MAX_SYMMETRIC:
        raise ValueError(f"semi-length {n} exceeds the symmetric guard {MAX_SYMMETRIC}")
    return (half + reverse_complement(half) for half in _ballot_words(n, n))


def symmetric_valley_distribution(n: int) -> dict[int, int]:
    """Number of symmetric paths per valley count."""
    if n < 0:
        raise ValueError("semi-length must be >= 0")
    if n > MAX_SYMMETRIC:
        raise ValueError(f"semi-length {n} exceeds the symmetric guard {MAX_SYMMETRIC}")
    table = {k: 0 for k in range(max(n - 1, 0) + 1)}
    for path in enumerate_symmetric(n):
        table[path_stats(path).valleys] += 1
    return table
