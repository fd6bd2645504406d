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

Enumeration is one depth-first generator per path family: it extends a
prefix that never has more D than U, keeps the U branches still to try on
an explicit stack, and streams paths in ascending ASCII order, so goldens
are deterministic.  Memory is O(n); no list of paths is built.  The guards
on n keep worst-case runtime at desk scale; this module exists to validate
small cases, not to scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .exactalg import Polynomial, ring_to_json
from .qcomb import QVAR

MAX_ENUM = 12
MAX_QT = 10
MAX_SYMMETRIC = 14


def enumerate_dyck(n: int) -> Iterator[str]:
    """All Dyck paths of semi-length n, each exactly once, in ASCII order."""
    if n < 0:
        raise ValueError("semi-length must be >= 0")
    if n > MAX_ENUM:
        raise ValueError(f"semi-length {n} exceeds the enumeration guard {MAX_ENUM}")

    # Depth first, D before U.  Each D taken where a U also fits leaves that
    # U branch on the stack as (prefix length, ups, downs) before the step.
    path: list[str] = []
    pending: list[tuple[int, int, int]] = []
    ups = downs = 0
    while True:
        while ups < n:
            if downs < ups:
                pending.append((len(path), ups, downs))
                path.append("D")
                downs += 1
            else:
                path.append("U")
                ups += 1
        yield "".join(path) + "D" * (ups - downs)
        if not pending:
            return
        length, ups, downs = pending.pop()
        del path[length:]
        path.append("U")
        ups += 1


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


def reverse_complement(word: str) -> str:
    swap = {"U": "D", "D": "U"}
    return "".join(swap[step] for step in reversed(word))


def is_symmetric(word: str) -> bool:
    return word == reverse_complement(word)


@dataclass(frozen=True)
class PathStats:
    valleys: int
    maj: int


def path_stats(word: str) -> PathStats:
    """Valley count and major index of a valid path."""
    valleys = 0
    maj = 0
    for i in range(len(word) - 1):
        if word[i] == "D" and word[i + 1] == "U":
            valleys += 1
            maj += i + 1
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

    # The same depth-first walk as enumerate_dyck over the first n steps.
    half: list[str] = []
    pending: list[tuple[int, int, int]] = []
    ups = downs = 0
    while True:
        while len(half) < n:
            if downs < ups:
                pending.append((len(half), ups, downs))
                half.append("D")
                downs += 1
            else:
                half.append("U")
                ups += 1
        word = "".join(half)
        yield word + reverse_complement(word)
        if not pending:
            return
        length, ups, downs = pending.pop()
        del half[length:]
        half.append("U")
        ups += 1


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
