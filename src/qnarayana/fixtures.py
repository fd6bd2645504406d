"""Stored expected values that `verify --all` confronts computation with.

These are deliberately data, not formulas: the checks compare freshly
computed objects against what is written down here, so corrupting any
single coefficient below must flip the CLI exit code to 1 (the test suite
injects exactly such a fault).
"""

from __future__ import annotations

from .exactalg import Polynomial
from .narayana import TVAR

# Canonical strings of the first six members of each family.
FIRST_TERMS_SMALL_C = ("1", "1", "1+t", "1+t+t^2", "1+2t+2t^2+t^3", "1+2t+4t^2+2t^3+t^4")
FIRST_TERMS_NARAYANA = ("1", "1", "1+t", "1+3t+t^2", "1+6t+6t^2+t^3", "1+10t+20t^2+10t^3+t^4")

# J-fraction closed forms: tag -> kind -> (head, period), each a tuple of
# coefficient tuples in t.  Level k of a kind reads head[k], and past the
# head it cycles through period.  The smallg diagonal alternates 1+t, -1-t
# with subdiagonal -t throughout; the smallc diagonal starts at 1 and then
# alternates -1+t, 1-t with subdiagonal t throughout.
JFRACTIONS = {
    "smallg": {"s": ((), ((1, 1), (-1, -1))), "t": ((), ((0, -1),))},
    "smallc": {"s": (((1,),), ((-1, 1), (1, -1))), "t": ((), ((0, 1),))},
}


def expected_jfraction(tag: str, kind: str, k: int) -> Polynomial:
    """Stored coefficient s_k (kind "s", diagonal) or t_k (kind "t", subdiagonal) of tag's J-fraction."""
    if k < 0:
        raise ValueError("level must be >= 0")
    if tag not in JFRACTIONS:
        raise ValueError(f"unknown series tag {tag!r}")
    head, period = JFRACTIONS[tag][kind]
    return Polynomial(TVAR, head[k] if k < len(head) else period[(k - len(head)) % len(period)])
