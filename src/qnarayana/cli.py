"""Command-line front end: family tables, identity suites, Hankel and
continued-fraction reports, and the brute-force path oracles.

Exit codes: 0 when every executed check passes, 1 on any mismatch or
internal error, 2 on usage errors.  Output goes to stdout, diagnostics to
stderr, and identical invocations produce byte-identical output, so
`qnarayana verify --all` slots into CI as a regression gate.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from typing import NamedTuple

from . import dyckoracle, fixtures, gfun, hankel, narayana, qcomb
from .exactalg import Polynomial, RationalFunction

DEFAULT_ORDER = 20
DEFAULT_HANKEL_MAX_N = 7
DEFAULT_CFRAC_DEPTH = 9
DEFAULT_QT_MAX_N = 8
DEFAULT_SYM_MAX_N = 12
ROUTE_MAX_N = 20

# Upper caps on the size options; a run at a cap takes seconds, not hours.
MAX_POLY_N = 5000
MAX_HANKEL_N = 30
MAX_CFRAC_DEPTH = 50
MAX_ORDER = 160

# total number of registered checks behind `verify --all`, pinned by the tests
REGISTRY_SIZE = 31

# the series tags of the cfrac checks, in report order
_CFRAC_TAGS = ("smallg", "smallc")


class Command(NamedTuple):
    verb: str
    options: dict


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _check_first_terms(alias: str, stored: tuple[str, ...]) -> tuple[bool, str]:
    build = narayana.FAMILIES[_POLY_FAMILIES[alias]]
    for n, want in enumerate(stored):
        got = str(build(n))
        if got != want:
            return False, f"n={n}: computed {got}, stored {want}"
    return True, f"n<={len(stored) - 1}"


def _q_row_mismatch(n: int, row: tuple[Polynomial, ...]) -> str:
    """Where row n of the q-Narayana family breaks its invariants; empty when it keeps them.

    The invariants: constant term 1, no negative coefficient, and the row
    sums to the q-Catalan quotient.
    """
    if row[0] != Polynomial.one(qcomb.QVAR):
        return f"n={n}: q-row starts with {row[0]}, expected 1"
    for k, entry in enumerate(row):
        if any(c < 0 for c in entry.coeffs):
            return f"n={n}, k={k}: negative coefficient in q-row entry {entry}"
    total = sum(row, Polynomial.zero(qcomb.QVAR))
    catalan = qcomb.q_catalan(n)
    if total != catalan:
        return f"n={n}: q-row sums to {total}, q-Catalan quotient {catalan}"
    return ""


def _check_routes() -> tuple[bool, str]:
    for n in range(ROUTE_MAX_N + 1):
        closed = narayana.c_poly(n)
        recursive = narayana.c_poly_recursive(n)
        if recursive != closed:
            return False, f"n={n}: recursion gives {recursive}, closed form {closed}"
        row = qcomb.q_narayana_row(n)
        mismatch = _q_row_mismatch(n, row)
        if mismatch:
            return False, mismatch
        if n >= 1:
            specialized = tuple(p(-1) for p in row)
            if closed.coeffs != specialized:
                return False, f"n={n}: q-specialization gives {specialized}"
    return True, f"n<={ROUTE_MAX_N}"


def _check_odd_closed() -> tuple[bool, str]:
    for m in range(11):
        odd, closed = narayana.c_odd_closed(m), narayana.c_poly(2 * m + 1)
        if odd != closed:
            return False, f"n={2 * m + 1}: odd closed form gives {odd}, closed form {closed}"
    return True, "odd indices <= 21"


def _check_eval(point: int, indices: range, covered: str) -> tuple[bool, str]:
    """c_n(point) against the closed-form value from narayana.special_values (point 1 or -1)."""
    for n in indices:
        want = narayana.special_values(n)[0 if point == 1 else 1]
        got = narayana.c_poly(n)(point)
        if got != want:
            return False, f"n={n}: value {got}, expected {want}"
    return True, covered


def _check_q_catalan_sum() -> tuple[bool, str]:
    for n in range(11):
        mismatch = _q_row_mismatch(n, qcomb.q_narayana_row(n))
        if mismatch:
            return False, mismatch
    return True, "n<=10"


def _check_identity(identity: str, order: int) -> tuple[bool, str]:
    report = gfun.verify_identity(identity, order)
    if report.passed:
        return True, f"order={order}"
    return False, f"power={report.power}: {report.lhs} vs {report.rhs}"


def _check_hankel(family: str, shift: int, max_n: int) -> tuple[bool, str]:
    for row in hankel.hankel_table(family, shift, max_n):
        if not row.match:
            return False, f"n={row.n}: det {row.determinant}, expected {row.expected}"
    return True, f"n<={max_n}"


def _extract(tag: str, depth: int):
    """The series of tag at the order depth needs, and its J-fraction to that depth."""
    series = hankel.ratfun_series(tag, 2 * depth + 2)
    return series, hankel.jfraction_extract(series, depth)


def _cfrac_levels(tag: str, jf):
    """Each coefficient of the J-fraction jf of tag beside the stored closed form.

    A level is (kind, k, extracted, expected, match) with kind "s" or "t".
    """
    levels = []
    for kind, coeffs, stored in (("s", jf.s, fixtures.expected_jfraction_s),
                                 ("t", jf.t_coeffs, fixtures.expected_jfraction_t)):
        for k, got in enumerate(coeffs):
            want = RationalFunction(stored(tag, k))
            levels.append((kind, k, got, want, got == want))
    return levels


def _check_cfrac_closed(extract, tag: str) -> tuple[bool, str]:
    _, jf = extract(tag)
    if jf.depth != DEFAULT_CFRAC_DEPTH:
        return False, f"extraction stopped at depth {jf.depth}"
    for kind, k, got, want, match in _cfrac_levels(tag, jf):
        if not match:
            return False, f"{kind}_{k}: extracted {got}, stored {want}"
    return True, f"levels<={DEFAULT_CFRAC_DEPTH}"


def _check_cfrac_product(extract, tag: str, max_n: int) -> tuple[bool, str]:
    _, jf = extract(tag)
    for row in hankel.hankel_table(*gfun.TAG_FAMILIES[tag], max_n):
        product = hankel.hankel_product_formula(jf.t_coeffs, row.n)
        if product != RationalFunction(row.determinant):
            return False, f"n={row.n}: product {product}, determinant {row.determinant}"
    return True, f"n<={max_n}"


def _check_cfrac_roundtrip(extract, depth: int) -> tuple[bool, str]:
    for tag in _CFRAC_TAGS:
        series, jf = extract(tag)
        rebuilt = hankel.jfraction_to_series(hankel.JFraction(jf.s[:depth + 1], jf.t_coeffs[:depth]),
                                             2 * depth + 1)
        if rebuilt != series.truncate(2 * depth + 1):
            return False, f"{tag} does not round-trip at depth {depth}"
    return True, f"depth={depth}"


def _check_oracle_qt(max_n: int) -> tuple[bool, str]:
    for n in range(max_n + 1):
        table = dyckoracle.qt_distribution(n)
        row = qcomb.q_narayana_row(n)
        if len(table) != len(row):
            return False, f"n={n}: {len(table)} valley classes, expected {len(row)}"
        for k, poly in table.items():
            if poly != row[k]:
                return False, f"n={n}, k={k}: enumerated {poly}, algebraic {row[k]}"
    return True, f"n<={max_n}"


def _check_oracle_symmetric(max_n: int) -> tuple[bool, str]:
    for n in range(max_n + 1):
        table = dyckoracle.symmetric_valley_distribution(n)
        for k, count in table.items():
            want = 1 if n == 0 else narayana.v_coeff(n, k)
            if count != want:
                return False, f"n={n}, k={k}: enumerated {count}, closed form {want}"
    return True, f"n<={max_n}"


def _check_oracle_counts() -> tuple[bool, str]:
    for n in range(11):
        count = sum(1 for _ in dyckoracle.enumerate_dyck(n))
        if count != narayana.catalan_number(n):
            return False, f"n={n}: {count} paths, expected Catalan"
    for n in range(13):
        count = sum(1 for _ in dyckoracle.enumerate_symmetric(n))
        if count != narayana.binomial(n, n // 2):
            return False, f"n={n}: {count} symmetric paths, expected central binomial"
    return True, "path<=10, symmetric<=12"


def build_registry(order: int = DEFAULT_ORDER, q_max_n: int = DEFAULT_QT_MAX_N,
                   sym_max_n: int = DEFAULT_SYM_MAX_N):
    """Every registered check behind `verify --all`, in report order.

    Each entry is (name, check); a check returns (passed, detail).  The
    name is spelled here only.
    """
    checks = [
        ("first_terms/c", partial(_check_first_terms, "c", fixtures.FIRST_TERMS_SMALL_C)),
        ("first_terms/C", partial(_check_first_terms, "C", fixtures.FIRST_TERMS_NARAYANA)),
        ("routes/c_three_ways", _check_routes),
        ("routes/odd_closed_form", _check_odd_closed),
        ("eval/at_one", partial(_check_eval, 1, range(ROUTE_MAX_N + 1), f"n<={ROUTE_MAX_N}")),
        ("eval/at_minus_one", partial(_check_eval, -1, range(22), "indices <= 21")),
        ("eval/q_catalan_sum", _check_q_catalan_sum),
    ]
    for identity in gfun.ALL_IDENTITIES:
        checks.append((f"identity/{identity}", partial(_check_identity, identity, order)))
    for family in hankel.TABLE_FAMILIES:
        for shift in (0, 1):
            checks.append((f"hankel/{family}/shift{shift}",
                           partial(_check_hankel, family, shift, DEFAULT_HANKEL_MAX_N)))
    # One extraction per tag, at the closed forms' depth, serves every cfrac
    # check: level k depends only on the series through z^(2k+2), so the
    # product formula (t_0..t_4) and the depth-8 round-trip read prefixes of
    # it.  This holds while the deepest check is the one that extracts (9 >= 8 >= 5).
    extract = cache(partial(_extract, depth=DEFAULT_CFRAC_DEPTH))
    for tag in _CFRAC_TAGS:
        checks.append((f"cfrac/{tag}/closed_forms", partial(_check_cfrac_closed, extract, tag)))
    for tag in _CFRAC_TAGS:
        checks.append((f"cfrac/{tag}/product_formula", partial(_check_cfrac_product, extract, tag, 6)))
    checks.append(("cfrac/roundtrip", partial(_check_cfrac_roundtrip, extract, 8)))
    checks.append(("oracle/valley_major", partial(_check_oracle_qt, q_max_n)))
    checks.append(("oracle/symmetric_valleys", partial(_check_oracle_symmetric, sym_max_n)))
    checks.append(("oracle/counts", _check_oracle_counts))
    return tuple(checks)


def _dumps(payload) -> str:
    """payload as one line of JSON; json is imported here, so only --json runs load it."""
    import json

    return json.dumps(payload)


def _run_checks(named_checks, as_json: bool) -> int:
    results = []
    for name, fn in named_checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"error: {exc}"
        results.append(CheckResult(name, passed, detail))
    all_passed = all(r.passed for r in results)
    if as_json:
        payload = {
            "status": "pass" if all_passed else "fail",
            "checks": [
                {"name": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail}
                for r in results
            ],
        }
        print(_dumps(payload))
    else:
        for r in results:
            line = f"{'PASS' if r.passed else 'FAIL'} {r.name}"
            if r.detail:
                line += f" ({r.detail})"
            print(line)
        passed = sum(1 for r in results if r.passed)
        print(f"{passed}/{len(results)} checks passed")
    return 0 if all_passed else 1


# CLI short name -> name in narayana.FAMILIES
_POLY_FAMILIES = {"c": "small_c", "C": "narayana_poly", "B": "narayana_B", "catalan": "catalan_C"}

_CFRAC_FAMILIES = {"c": "smallc", "g": "smallg"}


def _run_poly(opts) -> int:
    poly = narayana.FAMILIES[_POLY_FAMILIES[opts["family"]]](opts["n"])
    if opts["json"]:
        print(_dumps(poly.to_json()))
    else:
        print(poly)
    return 0


def _run_hankel(opts) -> int:
    family = _POLY_FAMILIES[opts["family"]]
    shift = opts["shift"]
    rows = hankel.hankel_table(family, shift, opts["max_n"])
    if opts["json"]:
        payload = {
            "family": family,
            "shift": shift,
            "rows": [
                {"n": r.n, "determinant": str(r.determinant), "expected": str(r.expected), "match": r.match}
                for r in rows
            ],
        }
        print(_dumps(payload))
    elif opts["csv"]:
        print("n,shift,family,determinant,expected,match")
        for r in rows:
            print(f"{r.n},{shift},{family},{r.determinant},{r.expected},{str(r.match).lower()}")
    else:
        for r in rows:
            flag = "match" if r.match else "MISMATCH"
            print(f"n={r.n} det={r.determinant} expected={r.expected} {flag}")
    return 0 if all(r.match for r in rows) else 1


def _run_cfrac(opts) -> int:
    tag = _CFRAC_FAMILIES[opts["family"]]
    _, jf = _extract(tag, opts["depth"])
    levels = _cfrac_levels(tag, jf)
    ok = jf.depth == opts["depth"] and all(match for *_, match in levels)
    if opts["json"]:
        payload = {
            "family": tag,
            "depth": jf.depth,
            "status": "pass" if ok else "fail",
            "coefficients": [
                {"kind": kind, "level": k, "extracted": str(got), "expected": str(want),
                 "status": "pass" if match else "fail"}
                for kind, k, got, want, match in levels
            ],
        }
        print(_dumps(payload))
    else:
        for kind, k, got, want, match in levels:
            flag = "match" if match else "MISMATCH"
            print(f"{kind}_{k} extracted={got} expected={want} {flag}")
    return 0 if ok else 1


def _run_verify(opts) -> int:
    order = opts["order"]
    if opts["all"]:
        selected = build_registry(order)
    elif opts["identity"]:
        if opts["json"]:
            # identity-only JSON inherits the IdentityReport serialization
            reports = [gfun.verify_identity(i, order).to_json() for i in opts["identity"]]
            status = "pass" if all(r["status"] == "pass" for r in reports) else "fail"
            print(_dumps({"status": status, "reports": reports}))
            return 0 if status == "pass" else 1
        by_identity = {entry[0].split("/")[1]: entry for entry in build_registry(order)
                       if entry[0].startswith("identity/")}
        selected = tuple(by_identity[i] for i in opts["identity"])
    else:
        selected = tuple(entry for entry in build_registry(order)
                         if entry[0].split("/")[0] in ("first_terms", "routes", "eval", "identity"))
    return _run_checks(selected, opts["json"])


def _run_oracle(opts) -> int:
    registry = build_registry(q_max_n=opts["q_max_n"], sym_max_n=opts["sym_max_n"])
    return _run_checks(tuple(entry for entry in registry if entry[0].startswith("oracle/")), opts["json"])


_EXECUTORS = {
    "poly": _run_poly,
    "hankel": _run_hankel,
    "cfrac": _run_cfrac,
    "verify": _run_verify,
    "oracle": _run_oracle,
}


def parse_args(argv) -> Command:
    """Validate argv into a Command; argparse exits with code 2 on usage errors."""
    parser = argparse.ArgumentParser(
        prog="qnarayana",
        description="Exact computation and verification of Narayana-type polynomial identities.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_poly = sub.add_parser("poly", help="print one member of a polynomial family")
    p_poly.add_argument("--family", required=True, choices=sorted(_POLY_FAMILIES),
                        help="c (signed specialization), C (Narayana), B (type B), catalan")
    p_poly.add_argument("--n", required=True, type=int, help=f"index within the family, 0..{MAX_POLY_N}")
    p_poly.add_argument("--json", action="store_true")

    p_hankel = sub.add_parser("hankel", help="Hankel determinant table against predictions")
    p_hankel.add_argument("--family", required=True,
                          choices=sorted(alias for alias, family in _POLY_FAMILIES.items()
                                         if family in hankel.TABLE_FAMILIES))
    p_hankel.add_argument("--shift", type=int, choices=(0, 1), default=0)
    p_hankel.add_argument("--max-n", dest="max_n", type=int, default=DEFAULT_HANKEL_MAX_N,
                          help=f"largest dimension, 1..{MAX_HANKEL_N}")
    fmt = p_hankel.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")

    p_cfrac = sub.add_parser("cfrac", help="extracted continued-fraction coefficients beside their closed forms")
    p_cfrac.add_argument("--family", required=True, choices=sorted(_CFRAC_FAMILIES))
    p_cfrac.add_argument("--depth", type=int, default=DEFAULT_CFRAC_DEPTH,
                         help=f"number of subdiagonal levels, 0..{MAX_CFRAC_DEPTH}")
    p_cfrac.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run identity checks (--all for the full registry)")
    p_verify.add_argument("--all", action="store_true", help="run every registered check")
    p_verify.add_argument("--identity", action="append", choices=gfun.ALL_IDENTITIES,
                          help="check one identity (repeatable)")
    p_verify.add_argument("--order", type=int, default=DEFAULT_ORDER,
                          help=f"series order of the identity checks, 2..{MAX_ORDER}")
    p_verify.add_argument("--json", action="store_true")

    p_oracle = sub.add_parser("oracle", help="brute-force path enumerations against the formulas")
    p_oracle.add_argument("--q-max-n", dest="q_max_n", type=int, default=DEFAULT_QT_MAX_N)
    p_oracle.add_argument("--sym-max-n", dest="sym_max_n", type=int, default=DEFAULT_SYM_MAX_N)
    p_oracle.add_argument("--json", action="store_true")

    ns = parser.parse_args(argv)

    if ns.verb == "poly" and not 0 <= ns.n <= MAX_POLY_N:
        p_poly.error(f"--n must be between 0 and {MAX_POLY_N}")
    if ns.verb == "hankel" and not 1 <= ns.max_n <= MAX_HANKEL_N:
        p_hankel.error(f"--max-n must be between 1 and {MAX_HANKEL_N}")
    if ns.verb == "cfrac" and not 0 <= ns.depth <= MAX_CFRAC_DEPTH:
        p_cfrac.error(f"--depth must be between 0 and {MAX_CFRAC_DEPTH}")
    if ns.verb == "verify":
        if not 2 <= ns.order <= MAX_ORDER:
            p_verify.error(f"--order must be between 2 and {MAX_ORDER}")
        if ns.all and ns.identity:
            p_verify.error("--all and --identity are mutually exclusive")
    if ns.verb == "oracle":
        if not 0 <= ns.q_max_n <= dyckoracle.MAX_QT:
            p_oracle.error(f"--q-max-n must be between 0 and {dyckoracle.MAX_QT}")
        if not 0 <= ns.sym_max_n <= dyckoracle.MAX_SYMMETRIC:
            p_oracle.error(f"--sym-max-n must be between 0 and {dyckoracle.MAX_SYMMETRIC}")

    options = vars(ns)
    verb = options.pop("verb")
    return Command(verb, options)


def execute(cmd: Command) -> int:
    """Dispatch a validated command; returns the process exit code."""
    return _EXECUTORS[cmd.verb](cmd.options)


def main(argv=None) -> int:
    try:
        cmd = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse has already written the diagnostic
        return int(exc.code or 0)
    try:
        return execute(cmd)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
