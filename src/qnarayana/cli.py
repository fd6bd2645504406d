"""Command-line front end: family tables, identity suites, Hankel and
continued-fraction reports, and the brute-force path oracles.

argparse does all of the parsing: each size option states its range once,
through one ``type=`` validator, and each verb's parser names the function
that runs it (``set_defaults(run=...)``).  The check registry
(``build_registry``) names every check once and passes it the bounds it
loops over and reports.  Within one registry run each q-Narayana row is
built once, each cfrac tag's J-fraction is extracted once, each
(family, shift) Hankel table is computed once, and each Dyck and symmetric
path distribution is built once, so every path set is walked once; every
check that needs one of these reads it.  The c_n and N_n rows are built
once per process (``narayana`` memoizes them).

Exit codes: 0 when every executed check passes, 1 on any mismatch or
internal error, 2 on usage errors.  Output goes to stdout, diagnostics to
stderr, and identical invocations produce byte-identical output, so
`qnarayana verify --all` slots into CI as a regression gate.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from itertools import zip_longest
from typing import NamedTuple

from . import dyckoracle, fixtures, gfun, hankel, narayana, qcomb
from .exactalg import Polynomial

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

# CLI short name -> name in narayana.FAMILIES
_POLY_FAMILIES = {"c": "small_c", "C": "narayana_poly", "B": "narayana_B", "catalan": "catalan_C"}

# CLI short name -> series tag; the cfrac checks take the tags in this order
_CFRAC_FAMILIES = {"g": "smallg", "c": "smallc"}


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


def _check_routes(rows, max_n: int) -> tuple[bool, str]:
    """c_n three ways: closed form, recursion, and the q-Narayana row at q = -1."""
    for n in range(max_n + 1):
        closed = narayana.c_poly(n)
        recursive = narayana.c_poly_recursive(n)
        if recursive != closed:
            return False, f"n={n}: recursion gives {recursive}, closed form {closed}"
        specialized = tuple(p(-1) for p in rows(n))
        if closed.coeffs != specialized:
            return False, f"n={n}: q-specialization gives {specialized}"
    return True, f"n<={max_n}"


def _check_odd_closed(max_n: int) -> tuple[bool, str]:
    for n in range(1, max_n + 1, 2):
        odd, closed = narayana.c_odd_closed(n // 2), narayana.c_poly(n)
        if odd != closed:
            return False, f"n={n}: odd closed form gives {odd}, closed form {closed}"
    return True, f"odd indices <= {max_n}"


def _check_eval(point: int, max_n: int) -> tuple[bool, str]:
    """c_n(point) against the closed-form value from narayana.special_values (point 1 or -1)."""
    for n in range(max_n + 1):
        want = narayana.special_values(n)[0 if point == 1 else 1]
        got = narayana.c_poly(n)(point)
        if got != want:
            return False, f"n={n}: value {got}, expected {want}"
    return True, f"n<={max_n}"


def _check_q_catalan_sum(rows, max_n: int) -> tuple[bool, str]:
    """Each q-Narayana row has constant term 1, no negative coefficient, and sums to the q-Catalan quotient."""
    one = Polynomial.one(qcomb.QVAR)
    for n in range(max_n + 1):
        row = rows(n)
        if row[0] != one:
            return False, f"n={n}: q-row starts with {row[0]}, expected 1"
        for k, entry in enumerate(row):
            if min(entry.coeffs, default=0) < 0:
                return False, f"n={n}, k={k}: negative coefficient in q-row entry {entry}"
        total = Polynomial(qcomb.QVAR, map(sum, zip_longest(*(entry.coeffs for entry in row), fillvalue=0)))
        catalan = qcomb.q_catalan(n)
        if total != catalan:
            return False, f"n={n}: q-row sums to {total}, q-Catalan quotient {catalan}"
    return True, f"n<={max_n}"


def _check_identity(identity: str, order: int) -> tuple[bool, str]:
    report = gfun.verify_identity(identity, order)
    if report.passed:
        return True, f"order={order}"
    return False, f"power={report.power}: {report.lhs} vs {report.rhs}"


def _check_hankel(table, family: str, shift: int) -> tuple[bool, str]:
    rows = table(family, shift)
    for row in rows:
        if not row.match:
            return False, f"n={row.n}: det {row.determinant}, expected {row.expected}"
    return True, f"n<={len(rows)}"


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
            want = stored(tag, k)
            levels.append((kind, k, got, want, got == want))
    return levels


def _check_cfrac_closed(extract, tag: str, depth: int) -> tuple[bool, str]:
    _, jf = extract(tag)
    if jf.depth != depth:
        return False, f"extraction stopped at depth {jf.depth}"
    for kind, k, got, want, match in _cfrac_levels(tag, jf):
        if not match:
            return False, f"{kind}_{k}: extracted {got}, stored {want}"
    return True, f"levels<={depth}"


def _check_cfrac_product(extract, table, tag: str, max_n: int) -> tuple[bool, str]:
    _, jf = extract(tag)
    for row in table(*gfun.TAG_FAMILIES[tag])[:max_n]:
        product = hankel.hankel_product_formula(jf.t_coeffs, row.n)
        if product != row.determinant:
            return False, f"n={row.n}: product {product}, determinant {row.determinant}"
    return True, f"n<={max_n}"


def _check_cfrac_roundtrip(extract, depth: int) -> tuple[bool, str]:
    for tag in _CFRAC_FAMILIES.values():
        series, jf = extract(tag)
        rebuilt = hankel.jfraction_to_series(hankel.JFraction(jf.s[:depth + 1], jf.t_coeffs[:depth]),
                                             2 * depth + 1)
        if rebuilt != series.truncate(2 * depth + 1):
            return False, f"{tag} does not round-trip at depth {depth}"
    return True, f"depth={depth}"


def _check_oracle_qt(rows, qt, max_n: int) -> tuple[bool, str]:
    for n in range(max_n + 1):
        table = qt(n)
        row = rows(n)
        if len(table) != len(row):
            return False, f"n={n}: {len(table)} valley classes, expected {len(row)}"
        for k, poly in table.items():
            if poly != row[k]:
                return False, f"n={n}, k={k}: enumerated {poly}, algebraic {row[k]}"
    return True, f"n<={max_n}"


def _check_oracle_symmetric(symmetric, max_n: int) -> tuple[bool, str]:
    for n in range(max_n + 1):
        table = symmetric(n)
        for k, count in table.items():
            want = 1 if n == 0 else narayana.v_coeff(n, k)
            if count != want:
                return False, f"n={n}, k={k}: enumerated {count}, closed form {want}"
    return True, f"n<={max_n}"


def _check_oracle_counts(qt, symmetric, path_max_n: int, sym_max_n: int) -> tuple[bool, str]:
    """The size of each path set, read as the sum of its distribution: sum_k table_k(1) for Dyck paths."""
    for n in range(path_max_n + 1):
        count = sum(poly(1) for poly in qt(n).values())
        if count != narayana.catalan_number(n):
            return False, f"n={n}: {count} paths, expected Catalan"
    for n in range(sym_max_n + 1):
        count = sum(symmetric(n).values())
        if count != narayana.binomial(n, n // 2):
            return False, f"n={n}: {count} symmetric paths, expected central binomial"
    return True, f"path<={path_max_n}, symmetric<={sym_max_n}"


def build_registry(order: int = DEFAULT_ORDER, q_max_n: int = DEFAULT_QT_MAX_N,
                   sym_max_n: int = DEFAULT_SYM_MAX_N):
    """Every registered check behind `verify --all`, in report order.

    Each entry is (name, check); a check returns (passed, detail).  The
    name is spelled here only.
    """
    # One q-Narayana row per n serves the route, invariant and valley-major
    # checks.  The cache is made here, not at import, so it wraps
    # qcomb.q_narayana_row as bound when the registry is built: the benchmark
    # tracer and the fault-injection tests rebind it first.
    rows = cache(qcomb.q_narayana_row)
    checks = [
        ("first_terms/c", partial(_check_first_terms, "c", fixtures.FIRST_TERMS_SMALL_C)),
        ("first_terms/C", partial(_check_first_terms, "C", fixtures.FIRST_TERMS_NARAYANA)),
        ("routes/c_three_ways", partial(_check_routes, rows, ROUTE_MAX_N)),
        ("routes/odd_closed_form", partial(_check_odd_closed, ROUTE_MAX_N + 1)),
        ("eval/at_one", partial(_check_eval, 1, ROUTE_MAX_N)),
        ("eval/at_minus_one", partial(_check_eval, -1, ROUTE_MAX_N + 1)),
        ("eval/q_catalan_sum", partial(_check_q_catalan_sum, rows, ROUTE_MAX_N)),
    ]
    for identity in gfun.ALL_IDENTITIES:
        checks.append((f"identity/{identity}", partial(_check_identity, identity, order)))
    # One table per (family, shift) serves the hankel checks and, through its
    # first rows, the product-formula checks; the determinants stay Bareiss's.
    table = cache(partial(hankel.hankel_table, max_n=DEFAULT_HANKEL_MAX_N))
    for family in hankel.TABLE_FAMILIES:
        for shift in (0, 1):
            checks.append((f"hankel/{family}/shift{shift}", partial(_check_hankel, table, family, shift)))
    # One extraction per tag, at the closed forms' depth, serves every cfrac
    # check: level k depends only on the series through z^(2k+2), so the
    # product formula (t_0..t_4) and the depth-8 round-trip read prefixes of
    # it.  This holds while the deepest check is the one that extracts (9 >= 8 >= 5).
    extract = cache(partial(_extract, depth=DEFAULT_CFRAC_DEPTH))
    tags = _CFRAC_FAMILIES.values()
    for tag in tags:
        checks.append((f"cfrac/{tag}/closed_forms", partial(_check_cfrac_closed, extract, tag, DEFAULT_CFRAC_DEPTH)))
    for tag in tags:
        checks.append((f"cfrac/{tag}/product_formula", partial(_check_cfrac_product, extract, table, tag, 6)))
    checks.append(("cfrac/roundtrip", partial(_check_cfrac_roundtrip, extract, 8)))
    # One distribution per n serves the oracle checks, so each path set is
    # walked once (the Dyck paths by their statistics, the symmetric ones as
    # words); made here for the same reason as rows.
    qt = cache(dyckoracle.qt_distribution)
    symmetric = cache(dyckoracle.symmetric_valley_distribution)
    checks.append(("oracle/valley_major", partial(_check_oracle_qt, rows, qt, q_max_n)))
    checks.append(("oracle/symmetric_valleys", partial(_check_oracle_symmetric, symmetric, sym_max_n)))
    checks.append(("oracle/counts", partial(_check_oracle_counts, qt, symmetric, q_max_n, sym_max_n)))
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


def _run_poly(ns) -> int:
    poly = narayana.FAMILIES[_POLY_FAMILIES[ns.family]](ns.n)
    if ns.json:
        print(_dumps(poly.to_json()))
    else:
        print(poly)
    return 0


def _run_hankel(ns) -> int:
    family, shift = _POLY_FAMILIES[ns.family], ns.shift
    rows = hankel.hankel_table(family, shift, ns.max_n)
    if ns.json:
        payload = {
            "family": family,
            "shift": shift,
            "rows": [
                {"n": r.n, "determinant": str(r.determinant), "expected": str(r.expected), "match": r.match}
                for r in rows
            ],
        }
        print(_dumps(payload))
    elif ns.csv:
        print("n,shift,family,determinant,expected,match")
        for r in rows:
            print(f"{r.n},{shift},{family},{r.determinant},{r.expected},{str(r.match).lower()}")
    else:
        for r in rows:
            flag = "match" if r.match else "MISMATCH"
            print(f"n={r.n} det={r.determinant} expected={r.expected} {flag}")
    return 0 if all(r.match for r in rows) else 1


def _run_cfrac(ns) -> int:
    tag = _CFRAC_FAMILIES[ns.family]
    _, jf = _extract(tag, ns.depth)
    levels = _cfrac_levels(tag, jf)
    ok = jf.depth == ns.depth and all(match for *_, match in levels)
    if ns.json:
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


def _run_verify(ns) -> int:
    order = ns.order
    if ns.all:
        selected = build_registry(order)
    elif ns.identity:
        identities = tuple(dict.fromkeys(ns.identity))  # a repeated identity runs once
        if ns.json:
            # identity-only JSON inherits the IdentityReport serialization
            reports = [gfun.verify_identity(i, order).to_json() for i in identities]
            status = "pass" if all(r["status"] == "pass" for r in reports) else "fail"
            print(_dumps({"status": status, "reports": reports}))
            return 0 if status == "pass" else 1
        checks = dict(build_registry(order))
        selected = tuple((f"identity/{i}", checks[f"identity/{i}"]) for i in identities)
    else:
        selected = tuple(entry for entry in build_registry(order)
                         if entry[0].split("/")[0] in ("first_terms", "routes", "eval", "identity"))
    return _run_checks(selected, ns.json)


def _run_oracle(ns) -> int:
    registry = build_registry(q_max_n=ns.q_max_n, sym_max_n=ns.sym_max_n)
    return _run_checks(tuple(entry for entry in registry if entry[0].startswith("oracle/")), ns.json)


def _int_in(low: int, high: int):
    """An argparse type: an integer in low..high, anything else a usage error naming the option."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be between {low} and {high}")
        return value
    return parse


def _add_size(parser, flag: str, low: int, high: int, what: str, **kwargs) -> None:
    parser.add_argument(flag, type=_int_in(low, high), help=f"{what}, {low}..{high}", **kwargs)


def parse_args(argv) -> argparse.Namespace:
    """Validate argv; the namespace's run(ns) executes it.  argparse exits with code 2 on usage errors."""
    parser = argparse.ArgumentParser(
        prog="qnarayana",
        description="Exact computation and verification of Narayana-type polynomial identities.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_poly = sub.add_parser("poly", help="print one member of a polynomial family")
    p_poly.set_defaults(run=_run_poly)
    p_poly.add_argument("--family", required=True, choices=sorted(_POLY_FAMILIES),
                        help="c (signed specialization), C (Narayana), B (type B), catalan")
    _add_size(p_poly, "--n", 0, MAX_POLY_N, "index within the family", required=True)
    p_poly.add_argument("--json", action="store_true")

    p_hankel = sub.add_parser("hankel", help="Hankel determinant table against predictions")
    p_hankel.set_defaults(run=_run_hankel)
    p_hankel.add_argument("--family", required=True,
                          choices=sorted(alias for alias, family in _POLY_FAMILIES.items()
                                         if family in hankel.TABLE_FAMILIES))
    p_hankel.add_argument("--shift", type=int, choices=(0, 1), default=0)
    _add_size(p_hankel, "--max-n", 1, MAX_HANKEL_N, "largest dimension", default=DEFAULT_HANKEL_MAX_N)
    fmt = p_hankel.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")

    p_cfrac = sub.add_parser("cfrac", help="extracted continued-fraction coefficients beside their closed forms")
    p_cfrac.set_defaults(run=_run_cfrac)
    p_cfrac.add_argument("--family", required=True, choices=sorted(_CFRAC_FAMILIES))
    _add_size(p_cfrac, "--depth", 0, MAX_CFRAC_DEPTH, "number of subdiagonal levels",
              default=DEFAULT_CFRAC_DEPTH)
    p_cfrac.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run identity checks (--all for the full registry)")
    p_verify.set_defaults(run=_run_verify)
    scope = p_verify.add_mutually_exclusive_group()
    scope.add_argument("--all", action="store_true", help="run every registered check")
    scope.add_argument("--identity", action="append", choices=gfun.ALL_IDENTITIES,
                       help="check one identity (repeatable)")
    _add_size(p_verify, "--order", 2, MAX_ORDER, "series order of the identity checks", default=DEFAULT_ORDER)
    p_verify.add_argument("--json", action="store_true")

    p_oracle = sub.add_parser("oracle", help="brute-force path enumerations against the formulas")
    p_oracle.set_defaults(run=_run_oracle)
    _add_size(p_oracle, "--q-max-n", 0, dyckoracle.MAX_QT, "largest semi-length of the enumerated Dyck paths",
              default=DEFAULT_QT_MAX_N)
    _add_size(p_oracle, "--sym-max-n", 0, dyckoracle.MAX_SYMMETRIC, "largest semi-length of the symmetric paths",
              default=DEFAULT_SYM_MAX_N)
    p_oracle.add_argument("--json", action="store_true")

    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        ns = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse has already written the diagnostic
        return int(exc.code or 0)
    try:
        return ns.run(ns)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
