import ast
import fnmatch
import importlib
import json
import os
import pkgutil
import runpy
import subprocess
import sys
from functools import reduce
from operator import add, mul
from pathlib import Path
from unittest import mock

import pytest

import qnarayana
from qnarayana import cli, dyckoracle, exactalg, fixtures, gfun, hankel, narayana, qcomb
from qnarayana.cli import REGISTRY_SIZE, build_registry, main, parse_args
from qnarayana.exactalg import Polynomial, RationalFunction, TruncatedSeries


class TestParseArgs:
    def test_verify_command(self):
        ns = parse_args(["verify", "--identity", "eq25", "--order", "20"])
        assert vars(ns) == {"verb": "verify", "run": cli._run_verify,
                            "all": False, "identity": ["eq25"], "order": 20, "json": False}

    def test_poly_command(self):
        ns = parse_args(["poly", "--family", "c", "--n", "5"])
        assert ns.verb == "poly"
        assert ns.run is cli._run_poly
        assert ns.family == "c"
        assert ns.n == 5

    def test_bad_shift_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["hankel", "--family", "c", "--shift", "2"])
        assert err.value.code == 2

    def test_unknown_verb(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_option(self):
        assert main(["poly", "--n", "3"]) == 2

    def test_non_integer_option(self):
        assert main(["poly", "--family", "c", "--n", "five"]) == 2

    def test_negative_n(self):
        assert main(["poly", "--family", "c", "--n", "-1"]) == 2

    def test_unknown_identity(self):
        assert main(["verify", "--identity", "eq99"]) == 2

    def test_all_and_identity_conflict(self):
        assert main(["verify", "--all", "--identity", "eq15"]) == 2

    def test_oracle_guard(self):
        assert main(["oracle", "--q-max-n", str(dyckoracle.MAX_QT + 1)]) == 2

    @pytest.mark.parametrize("alias", sorted(cli._POLY_FAMILIES) + ["X"])
    def test_hankel_families_are_the_table_families(self, capsys, alias):
        argv = ["hankel", "--family", alias]
        if any(cli._POLY_FAMILIES.get(alias) == family for family, _ in hankel.HANKEL_SIGNS):
            assert parse_args(argv).family == alias
        else:
            assert main(argv) == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_hankel_choices_are_the_table_keys(self, capsys):
        accepted = set()
        for alias in sorted(cli._POLY_FAMILIES) + ["X"]:
            for shift in range(-1, 4):
                try:
                    parse_args(["hankel", "--family", alias, "--shift", str(shift)])
                except SystemExit as exc:
                    assert exc.code == 2
                else:
                    accepted.add((cli._POLY_FAMILIES[alias], shift))
        assert accepted == set(hankel.HANKEL_SIGNS)
        capsys.readouterr()
        with pytest.raises(SystemExit):
            parse_args(["hankel", "--help"])
        assert "--family {C,c} [--shift {0,1}]" in capsys.readouterr().out

    # parsed only, never run: a run at a cap takes seconds
    @pytest.mark.parametrize("argv, option, cap, not_int", [
        (["poly", "--family", "C", "--n"], "n", cli.MAX_POLY_N, "five"),
        (["hankel", "--family", "C", "--max-n"], "max_n", cli.MAX_HANKEL_N, "2.5"),
        (["cfrac", "--family", "c", "--depth"], "depth", cli.MAX_CFRAC_DEPTH, "1e3"),
        (["verify", "--order"], "order", cli.MAX_ORDER, "0x1f"),
        (["verify", "--all", "--order"], "order", cli.MAX_ORDER, ""),
        (["oracle", "--q-max-n"], "q_max_n", dyckoracle.MAX_QT, "ten"),
        (["oracle", "--sym-max-n"], "sym_max_n", dyckoracle.MAX_SYMMETRIC, "3 4"),
    ], ids=["poly-n", "hankel-max-n", "cfrac-depth", "verify-order", "verify-all-order",
            "oracle-q-max-n", "oracle-sym-max-n"])
    def test_size_caps(self, capsys, argv, option, cap, not_int):
        assert getattr(parse_args(argv + [str(cap)]), option) == cap
        flag = argv[-1]
        with pytest.raises(SystemExit) as err:
            parse_args(argv + [str(cap + 1)])
        assert err.value.code == 2
        assert f"argument {flag}: must be between" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            parse_args(argv + [not_int])
        assert err.value.code == 2
        assert f"argument {flag}: invalid int value: {not_int!r}" in capsys.readouterr().err


class TestPolyVerb:
    def test_signed_family(self, capsys):
        assert main(["poly", "--family", "c", "--n", "5"]) == 0
        assert capsys.readouterr().out == "1+2t+4t^2+2t^3+t^4\n"

    def test_narayana_family(self, capsys):
        assert main(["poly", "--family", "C", "--n", "4"]) == 0
        assert capsys.readouterr().out == "1+6t+6t^2+t^3\n"

    def test_json_output(self, capsys):
        assert main(["poly", "--family", "B", "--n", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"var": "t", "coeffs": ["1", "4", "1"]}

    def test_catalan_family(self, capsys):
        assert main(["poly", "--family", "catalan", "--n", "6"]) == 0
        assert capsys.readouterr().out == "132\n"


class TestHankelVerb:
    def test_csv(self, capsys):
        assert main(["hankel", "--family", "c", "--shift", "1", "--max-n", "3", "--csv"]) == 0
        assert capsys.readouterr().out == (
            "n,shift,family,determinant,expected,match\n"
            "1,1,small_c,1,1,true\n"
            "2,1,small_c,-t,-t,true\n"
            "3,1,small_c,-t^3,-t^3,true\n"
        )

    def test_text(self, capsys):
        assert main(["hankel", "--family", "C", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "n=2 det=t expected=t match" in out

    def test_json(self, capsys):
        assert main(["hankel", "--family", "c", "--max-n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "small_c"
        assert payload["rows"][1] == {"n": 2, "determinant": "t", "expected": "t", "match": True}


class TestCfracVerb:
    def test_text(self, capsys):
        assert main(["cfrac", "--family", "g", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "s_0 extracted=1+t expected=1+t match" in out
        assert "t_1 extracted=-t expected=-t match" in out

    def test_json(self, capsys):
        assert main(["cfrac", "--family", "c", "--depth", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert payload["coefficients"][0] == {
            "kind": "s", "level": 0, "extracted": "1", "expected": "1", "status": "pass",
        }


class TestVerifyVerb:
    def test_single_identity(self, capsys):
        assert main(["verify", "--identity", "eq25", "--order", "8"]) == 0
        out = capsys.readouterr().out
        assert "PASS identity/eq25" in out

    def test_default_scope_is_polynomial_and_identity_checks(self, capsys):
        assert main(["verify", "--order", "6"]) == 0
        out = capsys.readouterr().out
        assert "PASS first_terms/c" in out
        assert "PASS identity/eq28" in out
        assert "hankel/" not in out
        assert "oracle/" not in out

    def test_identity_json_uses_report_schema(self, capsys):
        assert main(["verify", "--identity", "eq15", "--order", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert payload["reports"] == [{"identity": "eq15", "order": 6, "status": "pass"}]

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_repeated_identity_runs_once(self, capsys, monkeypatch, as_json):
        verified = []
        verify = gfun.verify_identity
        monkeypatch.setattr(gfun, "verify_identity", lambda i, order: verified.append(i) or verify(i, order))
        argv = ["verify", "--identity", "eq25", "--identity", "eq15", "--identity", "eq25", "--order", "6"]
        assert main(argv + ["--json"] * as_json) == 0
        out = capsys.readouterr().out
        assert verified == ["eq25", "eq15"]
        if as_json:
            assert [r["identity"] for r in json.loads(out)["reports"]] == ["eq25", "eq15"]
        else:
            assert out == "PASS identity/eq25 (order=6)\nPASS identity/eq15 (order=6)\n2/2 checks passed\n"

    def test_all_json_lists_checks(self, capsys):
        assert main(["verify", "--order", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert {"name": "identity/eq15", "status": "pass", "detail": "order=6"} in payload["checks"]


class TestJsonReadsBack:
    """What the CLI writes as JSON reads back into the value it was written from."""

    @pytest.mark.parametrize("n", [0, 1, 7, 60])
    @pytest.mark.parametrize("alias, family", [
        ("c", "small_c"), ("C", "narayana_poly"), ("B", "narayana_B"), ("catalan", "catalan_C"),
    ])
    def test_poly(self, capsys, alias, family, n):
        assert main(["poly", "--family", alias, "--n", str(n), "--json"]) == 0
        assert Polynomial.from_json(json.loads(capsys.readouterr().out)) == narayana.FAMILIES[family](n)

    def test_failing_polynomial_identity(self, capsys, monkeypatch):
        # both sides are 1/(1-z), all ones, but the right-hand side's z^3 coefficient gets t added
        monkeypatch.setitem(gfun.IDENTITY_DESCRIPTIONS, "eq15", "1/(1 - z) = 1/(1 - z) + tz^3")
        assert main(["verify", "--identity", "eq15", "--order", "8", "--json"]) == 1
        [report] = json.loads(capsys.readouterr().out)["reports"]
        assert report["power"] == 3
        assert Polynomial.from_json(report["lhs"]) == Polynomial.one("t")
        assert Polynomial.from_json(report["rhs"]) == Polynomial("t", (1, 1))

    def test_failing_integer_identity(self, capsys, monkeypatch):
        # c_5(1) = 10 gets 1 added: g(1,z)'s z^4 coefficient reads 11, and the quadratic still gives 10
        monkeypatch.setitem(narayana.FAMILIES, "small_c", _plus_at((5,), 1)(narayana.FAMILIES["small_c"]))
        assert main(["verify", "--identity", "g_at_1", "--json"]) == 1
        [report] = json.loads(capsys.readouterr().out)["reports"]
        assert report["power"] == 4
        assert Polynomial.from_json(report["lhs"]) == Polynomial.constant("t", 11)
        assert Polynomial.from_json(report["rhs"]) == Polynomial.constant("t", 10)


def _record_walks(monkeypatch):
    """Record the semi-length of every Dyck and symmetric path set walked, by walker name.

    Dyck paths are walked by their statistics (`_valley_major_walk`), symmetric ones as words.
    """
    walked = {"_valley_major_walk": [], "enumerate_symmetric": []}
    for name, sizes in walked.items():
        def recorded(n, enumerate_paths=getattr(dyckoracle, name), sizes=sizes):
            sizes.append(n)
            return enumerate_paths(n)
        monkeypatch.setattr(dyckoracle, name, recorded)
    return walked


class TestOracleVerb:
    def test_small_run(self, capsys, monkeypatch):
        # every oracle check walks paths to the flags' bounds and no further
        walked = _record_walks(monkeypatch)
        assert main(["oracle", "--q-max-n", "4", "--sym-max-n", "6"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS oracle/valley_major (n<=4)",
            "PASS oracle/symmetric_valleys (n<=6)",
            "PASS oracle/counts (path<=4, symmetric<=6)",
            "3/3 checks passed",
        ]
        assert max(walked["_valley_major_walk"]) == 4
        assert max(walked["enumerate_symmetric"]) == 6


class TestRegistry:
    def test_size_is_pinned(self):
        registry = build_registry()
        assert len(registry) == REGISTRY_SIZE
        names = [name for name, _ in registry]
        assert len(set(names)) == len(names)

    def test_verify_all_lists_every_registered_check(self, capsys):
        assert main(["verify", "--all"]) == 0
        out = capsys.readouterr().out
        for name, _ in build_registry():
            assert f"PASS {name}" in out
        assert f"{REGISTRY_SIZE}/{REGISTRY_SIZE} checks passed" in out

    def test_results_carry_registered_names(self):
        for name, fn in build_registry(order=4):
            passed, detail = fn()
            assert passed is True, name
            assert isinstance(detail, str), name

    def test_sizes_match_the_benchmark(self, monkeypatch):
        # perfbench/workloads.py expects these sizes in every registry run it times
        sizes = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
        selected = []
        monkeypatch.setattr(cli, "_run_checks", lambda checks, as_json: selected.append(len(checks)) or 0)
        for argv in (["verify", "--all"], ["verify"], ["oracle"]):
            assert main(argv) == 0
        assert selected == [sizes["GATE_CHECKS"], sizes["BARE_VERIFY_CHECKS"], sizes["ORACLE_CHECKS"]]

    def test_determinism(self, capsys):
        assert main(["verify", "--order", "6"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--order", "6"]) == 0
        second = capsys.readouterr().out
        assert first == second


GOLDEN = {
    "verify_all.out": ["verify", "--all"],
    "verify_all_json.out": ["verify", "--all", "--json"],
    "cfrac_c_depth12.out": ["cfrac", "--family", "c", "--depth", "12"],
    "cfrac_g_json.out": ["cfrac", "--family", "g", "--json"],
    "cfrac_c_depth30.out": ["cfrac", "--family", "c", "--depth", "30"],
    "cfrac_g_depth30_json.out": ["cfrac", "--family", "g", "--depth", "30", "--json"],
    "oracle.out": ["oracle"],
    "oracle_q10_sym14.out": ["oracle", "--q-max-n", "10", "--sym-max-n", "14"],
    "hankel_c_shift1_json.out": ["hankel", "--family", "c", "--shift", "1", "--json"],
    "verify_eq25_order80_json.out": ["verify", "--identity", "eq25", "--order", "80", "--json"],
    "verify_order40.out": ["verify", "--order", "40"],
    "hankel_C_shift1_n20.out": ["hankel", "--family", "C", "--shift", "1", "--max-n", "20"],
    "hankel_C_shift0_n20.out": ["hankel", "--family", "C", "--shift", "0", "--max-n", "20"],
    "hankel_c_shift1_n20_csv.out": ["hankel", "--family", "c", "--shift", "1", "--max-n", "20", "--csv"],
}


class TestGoldenStdout:
    """Stdout of each invocation equals the committed `tests/data/` file, byte for byte.

    The files hold the output of the code as first recorded; an intended
    change of output replaces them in the same commit.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_unchanged(self, name, capsys):
        assert main(GOLDEN[name]) == 0
        expected = (Path(__file__).parent / "data" / name).read_bytes()
        assert capsys.readouterr().out.encode() == expected

    def test_verify_all_unchanged_without_word_codes(self, capsys):
        """On a big-endian host every Kronecker slot, word-wide ones included, converts through int.to_bytes."""
        with mock.patch.dict(exactalg._WORD_CODES, clear=True):
            assert main(GOLDEN["verify_all.out"]) == 0
        assert capsys.readouterr().out.encode() == (Path(__file__).parent / "data" / "verify_all.out").read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_unchanged_under_optimize(self, name):
        run = _python("-O", "-m", "qnarayana.cli", *GOLDEN[name])
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout == (Path(__file__).parent / "data" / name).read_bytes()


class TestStrictReader:
    """cli._match reads every benchmark and golden argv as argparse reads it, and leaves every refusal to argparse."""

    @pytest.mark.parametrize("workload", ["gate", "cfrac-deep", "ring-deep", "routes-oracle"])
    def test_benchmark_traffic_is_matched(self, bench, workload):
        parser = cli._parser()
        for op in sorted(set(bench["workloads"].generate(workload, 1)[0])):
            ns = cli._match(list(op))
            assert ns is not None and vars(ns) == vars(parser.parse_args(op)), op

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_argv_is_matched(self, name):
        ns = cli._match(GOLDEN[name])
        assert ns is not None and vars(ns) == vars(cli._parser().parse_args(GOLDEN[name]))

    # the refusals of TestParseArgs, and each size one past its cap
    @pytest.mark.parametrize("argv", [
        ["frobnicate"], ["poly", "--n", "3"], ["poly", "--family", "c", "--n", "five"],
        ["poly", "--family", "c", "--n", "-1"], ["verify", "--identity", "eq99"],
        ["verify", "--all", "--identity", "eq15"], ["oracle", "--q-max-n", str(dyckoracle.MAX_QT + 1)],
        ["hankel", "--family", "X"], ["hankel", "--family", "B"], ["hankel", "--family", "catalan"],
        ["hankel", "--family", "c", "--shift", "2"], ["hankel", "--family", "C", "--shift", "-1"], ["hankel", "--help"],
        ["poly", "--family", "C", "--n", str(cli.MAX_POLY_N + 1)], ["hankel", "--family", "C", "--max-n", "31"],
        ["hankel", "--family", "C", "--max-n", "2.5"], ["cfrac", "--family", "c", "--depth", "51"],
        ["cfrac", "--family", "c", "--depth", "1e3"], ["verify", "--order", "161"], ["verify", "--order", "0x1f"],
        ["verify", "--all", "--order", "161"], ["verify", "--all", "--order", ""], ["oracle", "--q-max-n", "ten"],
        ["oracle", "--sym-max-n", str(dyckoracle.MAX_SYMMETRIC + 1)], ["oracle", "--sym-max-n", "3 4"],
    ])
    def test_refusals_are_not_matched(self, capsys, argv):
        assert cli._match(argv) is None
        with pytest.raises(SystemExit):
            parse_args(argv)


HELP = {"help.out": [], "help_poly.out": ["poly"], "help_hankel.out": ["hankel"], "help_cfrac.out": ["cfrac"],
        "help_verify.out": ["verify"], "help_oracle.out": ["oracle"]}

USAGE_ERRORS = {
    "usage_unknown_verb.err": ["frobnicate"],
    "usage_poly_no_family.err": ["poly", "--n", "3"],
    "usage_poly_n_five.err": ["poly", "--family", "c", "--n", "five"],
    "usage_hankel_shift2.err": ["hankel", "--family", "c", "--shift", "2"],
    "usage_cfrac_depth51.err": ["cfrac", "--family", "c", "--depth", "51"],
    "usage_verify_all_identity.err": ["verify", "--all", "--identity", "eq15"],
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
class TestHelpAndUsageText:
    """The help (stdout, exit 0) and usage errors (stderr, exit 2) equal the committed `tests/data/` files.

    The files were recorded from the parser as written before the option
    table, cli._VERBS, existed, at a terminal width of 80 columns.
    """

    @pytest.mark.parametrize("name", sorted(HELP))
    def test_help(self, flags, name):
        run = _python(*flags, "-m", "qnarayana.cli", *HELP[name], "--help", COLUMNS="80")
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout == (Path(__file__).parent / "data" / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
    def test_usage_error(self, flags, name):
        run = _python(*flags, "-m", "qnarayana.cli", *USAGE_ERRORS[name], COLUMNS="80")
        assert (run.returncode, run.stdout) == (2, b"")
        assert run.stderr == (Path(__file__).parent / "data" / name).read_bytes()


class TestFaultInjection:
    def test_mutated_first_terms_fixture_flips_exit_code(self, capsys, monkeypatch):
        broken = list(fixtures.FIRST_TERMS_SMALL_C)
        broken[5] = "1+2t+5t^2+2t^3+t^4"
        monkeypatch.setattr(fixtures, "FIRST_TERMS_SMALL_C", tuple(broken))
        assert main(["verify", "--all"]) == 1
        out = capsys.readouterr().out
        assert "FAIL first_terms/c" in out

    # (tag, kind, head or period, entry, perturbed coefficients) and the one FAIL line it causes
    @pytest.mark.parametrize("tag, kind, part, at, coeffs, line", [
        ("smallg", "t", 1, 0, (0, 1), "FAIL cfrac/smallg/closed_forms (t_0: extracted -t, stored t)"),
        ("smallc", "s", 0, 0, (2,), "FAIL cfrac/smallc/closed_forms (s_0: extracted 1, stored 2)"),
        ("smallc", "s", 1, 1, (1, 1), "FAIL cfrac/smallc/closed_forms (s_2: extracted 1-t, stored 1+t)"),
    ], ids=["smallg-t-period", "smallc-s-head", "smallc-s-period"])
    def test_mutated_cfrac_fixture_flips_exit_code(self, capsys, monkeypatch, tag, kind, part, at, coeffs, line):
        entry = [list(entries) for entries in fixtures.JFRACTIONS[tag][kind]]
        entry[part][at] = coeffs
        monkeypatch.setitem(fixtures.JFRACTIONS[tag], kind, tuple(map(tuple, entry)))
        assert main(["verify", "--all"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [out for out in lines if out.startswith("FAIL")] == [line]
        assert lines[-1] == f"{REGISTRY_SIZE - 1}/{REGISTRY_SIZE} checks passed"

    def test_cfrac_families_are_the_table_tags(self):
        assert list(cli._CFRAC_FAMILIES.values()) == list(fixtures.JFRACTIONS)

    @pytest.mark.parametrize("tag, k", [("smallg", -1), ("smallz", 0)])
    def test_stored_closed_form_refuses_a_bad_level_or_tag(self, tag, k):
        with pytest.raises(ValueError):
            fixtures.expected_jfraction(tag, "s", k)

    def test_crashing_check_is_reported_as_failure(self, capsys, monkeypatch):
        def boom(*bounds):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "_check_routes", boom)
        assert main(["verify"]) == 1
        assert "FAIL routes/c_three_ways (error: injected)" in capsys.readouterr().out

    def test_internal_error_exits_one_with_its_message(self, capsys, monkeypatch):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(hankel, "hankel_table", boom)
        assert main(["hankel", "--family", "c"]) == 1
        assert capsys.readouterr() == ("", "error: boom\n")


def _plus_at(at, extra):
    """Perturb a builder: its value at the arguments `at` gets `extra` added."""
    def perturb(build):
        return lambda *args: build(*args) + extra if args == at else build(*args)
    return perturb


def _row_entry_plus_at(n, k, extra):
    """Perturb qcomb.q_narayana_row: entry k of row n gets `extra` added."""
    def perturb(q_narayana_row):
        def perturbed(m):
            row = q_narayana_row(m)
            return row[:k] + (row[k] + extra,) + row[k + 1:] if m == n else row
        return perturbed
    return perturb


def _first_step_shifted_one_less(ratio_step):
    """Perturb qcomb._ratio_step: the step from entry 0 to entry 1 shifts by q^(2k+1), not q^(2k+2)."""
    def perturbed(low, core, n, k):
        low, core = ratio_step(low, core, n, k)
        return (low - 1 if k == 0 else low), core
    return perturbed


def _maj_plus_one_on_udud(valley_major_walk):
    """Perturb the statistics walk: the path UDUD, (valleys, maj) = (1, 2) at n = 2, gets maj 3."""
    def perturbed(n):
        return ((1, 3) if n == 2 and leaf == (1, 2) else leaf for leaf in valley_major_walk(n))
    return perturbed


def _first_path_twice_at(at):
    """Perturb a path walker: at semi-length `at` its first path (word or statistics) comes twice."""
    def perturb(enumerate_paths):
        def perturbed(n):
            paths = list(enumerate_paths(n))
            return iter(paths + paths[:1] if n == at else paths)
        return perturbed
    return perturb


def _special_value_plus_one(at, which):
    """Perturb narayana.special_values: entry `which` (0: t = 1, 1: t = -1) at n = `at` gets 1 added."""
    def perturb(special_values):
        def perturbed(n):
            values = list(special_values(n))
            if n == at:
                values[which] += 1
            return tuple(values)
        return perturbed
    return perturb


def _rhs_plus_t(identity, power):
    """Perturb the identity table: the right-hand side of `identity` gets t*z^power added."""
    def perturb(statements):
        return {**statements, identity: f"{statements[identity]} + tz^{power}"}
    return perturb


def _statement_edit(identity, old, new):
    """Perturb the identity table: `old` in the statement of `identity` becomes `new`."""
    def perturb(statements):
        return {**statements, identity: statements[identity].replace(old, new)}
    return perturb


def _det_plus_t_at_dim_4(det_bareiss):
    return lambda m: det_bareiss(m) + T if m.dim == 4 else det_bareiss(m)


def _table_row_plus_t(family, shift, n):
    """Perturb hankel.hankel_table: det H_n of the (family, shift) table gets t added."""
    def perturb(hankel_table):
        def perturbed(fam, sh, max_n):
            dets = hankel_table(fam, sh, max_n)
            if (fam, sh) == (family, shift):
                dets[n - 1] += T
            return dets
        return perturbed
    return perturb


def _yz_added_beside_negative_pivots(cross):
    """Perturb the Bareiss entry update (x*p - y*z)/prev: beside a pivot p = -t^v, the pair (v, (-1,)), y*z is added.

    Beside a single-term pivot either sign is divisible by the previous
    pivot, so the table is computed to the end and its check reports a
    determinant, not an error.
    """
    def perturbed(x, p, y, z, prev, var):
        if p[1] == (-1,):
            y = (y[0], tuple(-c for c in y[1]))
        return cross(x, p, y, z, prev, var)
    return perturbed


def _top_coefficient_plus_one(jfraction_to_series):
    def perturbed(jf, order):
        f = jfraction_to_series(jf, order)
        return TruncatedSeries(f.coeffs[:-1] + (f.coeffs[-1] + 1,), order)
    return perturbed


def _series_plus_t(tag, power):
    """Perturb hankel.ratfun_series: coefficient `power` of the series of `tag` gets t added."""
    def perturb(ratfun_series):
        def perturbed(name, order):
            f = ratfun_series(name, order)
            if name != tag:
                return f
            return TruncatedSeries(f.coeffs[:power] + (f.coeffs[power] + T,) + f.coeffs[power + 1:], order)
        return perturbed
    return perturb


def _cut_to_depth(tag, depth):
    """Perturb hankel.jfraction_extract: the fraction of `tag` is cut to `depth` levels."""
    def perturb(jfraction_extract):
        def perturbed(series, levels):
            jf = jfraction_extract(series, levels)
            if series != hankel.ratfun_series(tag, series.order):
                return jf
            return hankel.JFraction(jf.s[:depth + 1], jf.t_coeffs[:depth])
        return perturbed
    return perturb


def _empty_class_at(at, k):
    """Perturb dyckoracle.qt_distribution: at semi-length `at` an empty valley class k is added."""
    def perturb(qt_distribution):
        return lambda n: {**qt_distribution(n), k: Polynomial.zero("q")} if n == at else qt_distribution(n)
    return perturb


def _square_without_doubling(convolve):
    """Perturb exactalg._convolve: a square sums each symmetric pair a_i a_(m-i) once instead of twice."""
    def perturbed(a, b):
        if a is not b:
            return convolve(a, b)
        return [reduce(add, map(mul, a[:m // 2 + 1], a[m::-1])) for m in range(len(a))]
    return perturbed


def _minus_one_divisor_not_negated(poly_exact_div):
    """Perturb poly_exact_div: a divisor -t^v gives the quotient by t^v, its -1 coefficient ignored."""
    def perturbed(a, b):
        if b and not any(b.coeffs[:-1]) and b.coeffs[-1] == -1:
            return poly_exact_div(a, -b)
        return poly_exact_div(a, b)
    return perturbed


T = Polynomial.gen("t")
Q = Polynomial.gen("q")


class TestCheckReportsItsOwnDiff:
    """Each property the library once asserted is caught by its named check, with the check's diff.

    A case is (argv, module, attr, perturb, failed, summary): module.attr is
    replaced by perturb(module.attr), and the run must print exactly the
    FAIL lines that start with the entries of failed, in order, and end with
    summary.  A check that reads what another check reads fails beside it.
    """

    def fails_exactly(self, capsys, monkeypatch, argv, module, attr, perturb, failed, summary):
        monkeypatch.setattr(module, attr, perturb(getattr(module, attr)))
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        reported = [line for line in lines if line.startswith("FAIL")]
        assert len(reported) == len(failed), reported
        assert all(map(str.startswith, reported, failed)), reported
        assert lines[-1] == summary

    @pytest.mark.parametrize("argv, module, attr, perturb, failed, summary", [
        (["verify"], narayana, "narayana_poly", _plus_at((2,), T), [
            "FAIL routes/c_three_ways (n=5: recursion gives 1+2t+4t^2+t^3+t^4, closed form 1+2t+4t^2+2t^3+t^4)",
            "FAIL routes/odd_closed_form (n=5: odd closed form gives 1+2t+4t^2+4t^3+t^4, "
            "closed form 1+2t+4t^2+2t^3+t^4)",
        ], "17/19 checks passed"),
        (["verify"], qcomb, "q_narayana_row", _row_entry_plus_at(2, 0, Q), [
            "FAIL routes/c_three_ways (n=2: q-specialization gives (0, 1))",
            "FAIL eval/q_catalan_sum (n=2: q-row starts with 1+q, expected 1)",
        ], "17/19 checks passed"),
        (["verify"], qcomb, "q_narayana_row", _row_entry_plus_at(3, 1, Polynomial.monomial("q", 5, -1)), [
            "FAIL routes/c_three_ways (n=3: q-specialization gives (1, 2, 1))",
            "FAIL eval/q_catalan_sum (n=3, k=1: negative coefficient in q-row entry q^2+q^3+q^4-q^5)",
        ], "17/19 checks passed"),
        (["verify"], qcomb, "q_narayana_row", _row_entry_plus_at(4, 1, Polynomial.one("q")), [
            "FAIL routes/c_three_ways (n=4: q-specialization gives (1, 3, 2, 1))",
            "FAIL eval/q_catalan_sum (n=4: q-row sums to 2+q^2+q^3+2q^4+q^5+2q^6+q^7+2q^8+q^9+q^10+q^12, "
            "q-Catalan quotient 1+q^2+q^3+2q^4+q^5+2q^6+q^7+2q^8+q^9+q^10+q^12)",
        ], "17/19 checks passed"),
        (["verify"], qcomb, "q_narayana_row", _row_entry_plus_at(15, 3, Q), [
            "FAIL routes/c_three_ways (n=15: q-specialization gives "
            "(1, 7, 49, 146, 441, 735, 1225, 1225, 1225, 735, 441, 147, 49, 7, 1))",
            "FAIL eval/q_catalan_sum (n=15: q-row sums to 1+q+q^2+q^3+2q^4+",  # degree 210: only its start
        ], "17/19 checks passed"),
        # row 2 takes no ratio step (its entry 1 is the mirror of entry 0), so the first failing row is 3
        (["verify"], qcomb, "_ratio_step", _first_step_shifted_one_less, [
            "FAIL routes/c_three_ways (n=3: q-specialization gives (1, -1, 1))",
            "FAIL eval/q_catalan_sum (n=3: q-row sums to 1+q+q^2+q^3+q^6, q-Catalan quotient 1+q^2+q^3+q^4+q^6)",
        ], "17/19 checks passed"),
        (["oracle"], qcomb, "_ratio_step", _first_step_shifted_one_less, [
            "FAIL oracle/valley_major (n=3, k=1: enumerated q^2+q^3+q^4, algebraic q+q^2+q^3)",
        ], "2/3 checks passed"),
        (["verify"], narayana, "narayana_b_poly", _plus_at((3,), T), [
            "FAIL routes/odd_closed_form (n=7: odd closed form gives 1+3t+10t^2+9t^3+9t^4+3t^5+t^6, "
            "closed form 1+3t+9t^2+9t^3+9t^4+3t^5+t^6)",
        ], "18/19 checks passed"),
        (["oracle"], dyckoracle, "_valley_major_walk", _maj_plus_one_on_udud, [
            "FAIL oracle/valley_major (n=2, k=1: enumerated q^3, algebraic q^2)",
        ], "2/3 checks passed"),
        (["oracle"], dyckoracle, "enumerate_symmetric", _first_path_twice_at(4), [
            "FAIL oracle/symmetric_valleys (n=4, k=3: enumerated 2, closed form 1)",
            "FAIL oracle/counts (n=4: 7 symmetric paths, expected central binomial)",
        ], "1/3 checks passed"),
        (["oracle"], dyckoracle, "_valley_major_walk", _first_path_twice_at(3), [
            "FAIL oracle/valley_major (n=3, k=2: enumerated 2q^6, algebraic q^6)",
            "FAIL oracle/counts (n=3: 6 paths, expected Catalan)",
        ], "1/3 checks passed"),
        (["oracle"], dyckoracle, "enumerate_symmetric", _first_path_twice_at(5), [
            "FAIL oracle/symmetric_valleys (n=5, k=4: enumerated 2, closed form 1)",
            "FAIL oracle/counts (n=5: 11 symmetric paths, expected central binomial)",
        ], "1/3 checks passed"),
        (["verify"], gfun, "IDENTITY_DESCRIPTIONS", _rhs_plus_t("eq25", 3), [
            "FAIL identity/eq25 (power=3: 0 vs t)",
        ], "18/19 checks passed"),
        (["verify"], gfun, "IDENTITY_DESCRIPTIONS", _statement_edit("eq25", "c(-t,-z)", "c(t,-z)"), [
            "FAIL identity/eq25 (power=2: 1+2t vs 1)",
        ], "18/19 checks passed"),
        (["verify", "--all"], hankel, "expected_hankel", _plus_at(("small_c", 1, 3), T), [
            "FAIL hankel/small_c/shift1 (n=3: det -t^3, expected t-t^3)",
        ], "30/31 checks passed"),
        (["verify"], narayana, "special_values", _special_value_plus_one(5, 0), [
            "FAIL eval/at_one (n=5: value 10, expected 11)",
        ], "18/19 checks passed"),
        (["verify"], narayana, "special_values", _special_value_plus_one(5, 1), [
            "FAIL eval/at_minus_one (n=5: value 2, expected 3)",
        ], "18/19 checks passed"),
        (["verify"], qcomb, "q_catalan", _plus_at((4,), Q), [
            "FAIL eval/q_catalan_sum (n=4: q-row sums to 1+q^2+q^3+2q^4+q^5+2q^6+q^7+2q^8+q^9+q^10+q^12, "
            "q-Catalan quotient 1+q+q^2+q^3+2q^4+q^5+2q^6+q^7+2q^8+q^9+q^10+q^12)",
        ], "18/19 checks passed"),
        (["verify", "--all"], hankel, "_cross", _yz_added_beside_negative_pivots, [
            "FAIL hankel/small_c/shift1 (n=4: det 2t^4-2t^5+t^6-2t^7+2t^8, expected t^6)",
            "FAIL cfrac/smallg/product_formula (n=4: product t^6, determinant 2t^4-2t^5+t^6-2t^7+2t^8)",
        ], "29/31 checks passed"),
        # the registry computes each Hankel table once, and the product formulas read two of them
        (["verify", "--all"], hankel, "det_bareiss", _det_plus_t_at_dim_4, [
            "FAIL hankel/narayana_poly/shift0 (n=4: det t+t^6, expected t^6)",
            "FAIL hankel/narayana_poly/shift1 (n=4: det t+t^6, expected t^6)",
            "FAIL hankel/small_c/shift0 (n=4: det t+t^6, expected t^6)",
            "FAIL hankel/small_c/shift1 (n=4: det t+t^6, expected t^6)",
            "FAIL cfrac/smallg/product_formula (n=4: product t^6, determinant t+t^6)",
            "FAIL cfrac/smallc/product_formula (n=4: product t^6, determinant t+t^6)",
        ], "25/31 checks passed"),
        # each product formula reads the table of its own tag and no other
        (["verify", "--all"], hankel, "hankel_table", _table_row_plus_t("small_c", 1, 4), [
            "FAIL hankel/small_c/shift1 (n=4: det t+t^6, expected t^6)",
            "FAIL cfrac/smallg/product_formula (n=4: product t^6, determinant t+t^6)",
        ], "29/31 checks passed"),
        (["verify", "--all"], hankel, "hankel_table", _table_row_plus_t("small_c", 0, 4), [
            "FAIL hankel/small_c/shift0 (n=4: det t+t^6, expected t^6)",
            "FAIL cfrac/smallc/product_formula (n=4: product t^6, determinant t+t^6)",
        ], "29/31 checks passed"),
        (["verify", "--all"], hankel, "jfraction_to_series", _top_coefficient_plus_one, [
            "FAIL cfrac/roundtrip (smallg does not round-trip at depth 8)",
        ], "30/31 checks passed"),
        (["verify", "--all"], hankel, "ratfun_series", _series_plus_t("smallg", 19), [
            "FAIL cfrac/smallg/closed_forms (s_9: extracted (-1-t^8-t^9)/(t^8), stored -1-t)",
        ], "30/31 checks passed"),
        (["verify", "--all"], hankel, "ratfun_series", _series_plus_t("smallc", 17), [
            "FAIL cfrac/smallc/closed_forms (s_8: extracted (1+t^7-t^8)/(t^7), stored 1-t)",
        ], "30/31 checks passed"),
        (["verify", "--all"], hankel, "jfraction_extract", _cut_to_depth("smallg", 8), [
            "FAIL cfrac/smallg/closed_forms (extraction stopped at depth 8)",
        ], "30/31 checks passed"),
        (["oracle"], dyckoracle, "qt_distribution", _empty_class_at(3, 3), [
            "FAIL oracle/valley_major (n=3: 4 valley classes, expected 3)",
        ], "2/3 checks passed"),
    ], ids=["route", "q-row-constant-term", "q-row-negative", "q-row-sum", "q-row-sum-past-n-10",
            "q-row-ratio-step", "q-row-ratio-step-oracle", "odd-closed-form",
            "valley-major", "symmetric-valleys", "oracle-counts", "oracle-counts-symmetric", "identity",
            "identity-statement", "hankel", "eval-at-one", "eval-at-minus-one", "q-catalan-sum",
            "hankel-entry-update", "product-formula-all-tables", "product-formula-smallg",
            "product-formula-smallc", "roundtrip", "closed-forms-smallg", "closed-forms-smallc",
            "extraction-stopped", "valley-class-count"])
    def test_injected_fault(self, capsys, monkeypatch, argv, module, attr, perturb, failed, summary):
        self.fails_exactly(capsys, monkeypatch, argv, module, attr, perturb, failed, summary)

    @pytest.mark.parametrize("argv, module, attr, perturb, failed, summary", [
        (["verify", "--all"], exactalg, "_convolve", _square_without_doubling, [
            "FAIL identity/eq15 (power=2: 1+t vs 1)",
            "FAIL identity/eq20 (power=3: 1+6t+6t^2+t^3 vs 1+5t+5t^2+t^3)",
            "FAIL identity/g_at_1 (power=3: 6 vs 8)",
        ], "28/31 checks passed"),
        # the Bareiss kernel divides by every previous pivot tail other than 1, and only the
        # small_c shift-1 table has pivots -t^v
        (["verify", "--all"], exactalg, "poly_exact_div", _minus_one_divisor_not_negated, [
            "FAIL hankel/small_c/shift1 (n=4: det -t^6, expected t^6)",
            "FAIL cfrac/smallg/product_formula (n=4: product t^6, determinant -t^6)",
        ], "29/31 checks passed"),
    ], ids=["square-doubling", "minus-one-divisor"])
    def test_injected_kernel_fault(self, capsys, monkeypatch, argv, module, attr, perturb, failed, summary):
        """A fault in a single-term or square path of the Z[t] kernel fails exactly the checks that reach it."""
        self.fails_exactly(capsys, monkeypatch, argv, module, attr, perturb, failed, summary)

    @pytest.mark.parametrize("argv, module, attr, perturb, failed, summary", [
        (["verify", "--all"], narayana, "special_values", _special_value_plus_one(5, 0), [
            "FAIL eval/at_one (n=5: value 10, expected 11)",
            "FAIL oracle/counts (n=5: 10 symmetric paths, expected central binomial)",
        ], "29/31 checks passed"),
        (["verify", "--all"], narayana, "special_values", _special_value_plus_one(5, 1), [
            "FAIL eval/at_minus_one (n=5: value 2, expected 3)",
        ], "30/31 checks passed"),
    ], ids=["at-one", "at-minus-one"])
    def test_special_values_reach_every_reader(self, capsys, monkeypatch, argv, module, attr, perturb, failed,
                                               summary):
        """c_n(1) and c_n(-1) have one closed form, so perturbing it fails every check that reads it."""
        self.fails_exactly(capsys, monkeypatch, argv, module, attr, perturb, failed, summary)

    # each key of hankel.HANKEL_SIGNS, and the FAIL line of its check once its sign is flipped
    SIGN_FLIPS = {
        ("narayana_poly", 0): "FAIL hankel/narayana_poly/shift0 (n=2: det t, expected -t)",
        ("narayana_poly", 1): "FAIL hankel/narayana_poly/shift1 (n=2: det t, expected -t)",
        ("small_c", 0): "FAIL hankel/small_c/shift0 (n=2: det t, expected -t)",
        ("small_c", 1): "FAIL hankel/small_c/shift1 (n=2: det -t, expected t)",
    }

    def test_sign_flips_cover_the_table(self):
        assert list(self.SIGN_FLIPS) == list(hankel.HANKEL_SIGNS)

    @pytest.mark.parametrize("key", list(SIGN_FLIPS), ids="{0[0]}-shift{0[1]}".format)
    def test_flipped_hankel_sign_fails_exactly_its_check(self, capsys, monkeypatch, key):
        flip = lambda signs: {**signs, key: -signs[key]}
        self.fails_exactly(capsys, monkeypatch, ["verify", "--all"], hankel, "HANKEL_SIGNS", flip,
                           [self.SIGN_FLIPS[key]], f"{REGISTRY_SIZE - 1}/{REGISTRY_SIZE} checks passed")

    def test_each_run_extracts_afresh(self, capsys, monkeypatch):
        assert main(["verify", "--all"]) == 0
        capsys.readouterr()
        extract = hankel.jfraction_extract

        def doubled_t0(series, depth):
            jf = extract(series, depth)
            return hankel.JFraction(jf.s, (jf.t_coeffs[0] * 2,) + jf.t_coeffs[1:])

        monkeypatch.setattr(hankel, "jfraction_extract", doubled_t0)
        assert main(["verify", "--all"]) == 1
        failed = [line.split(" (")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL cfrac/smallg/closed_forms", "FAIL cfrac/smallc/closed_forms",
                          "FAIL cfrac/smallg/product_formula", "FAIL cfrac/smallc/product_formula",
                          "FAIL cfrac/roundtrip"]

    def test_verdict_does_not_depend_on_python_O(self):
        script = (
            "import sys\n"
            "from qnarayana import cli, narayana\n"
            "from qnarayana.exactalg import Polynomial\n"
            "build = narayana.narayana_poly\n"
            "narayana.narayana_poly = lambda n: build(n) + Polynomial.gen('t') if n == 2 else build(n)\n"
            "sys.exit(cli.main(['verify', '--order', '4']))\n"
        )
        src = str(Path(qnarayana.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = [subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                               env=env, timeout=120)
                for flags in ([], ["-O"])]
        assert [run.returncode for run in runs] == [1, 1]
        assert runs[0].stdout == runs[1].stdout
        assert "FAIL routes/c_three_ways (n=5: recursion gives" in runs[0].stdout

    def test_no_assert_in_the_package(self):
        package = Path(qnarayana.__file__).parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Assert)]
        assert found == []


class TestPublicNames:
    def test_every_exported_name_resolves_once(self):
        assert len(set(qnarayana.__all__)) == len(qnarayana.__all__)
        for name in qnarayana.__all__:
            assert hasattr(qnarayana, name), name

    def test_star_import(self):
        namespace = {}
        exec("from qnarayana import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(qnarayana.__all__)

    # each public refusal of a malformed or out-of-range argument: the call, its exception type and message
    REFUSALS = {
        "catalan_number": (lambda: narayana.catalan_number(-1), ValueError, "Catalan numbers need n >= 0"),
        "narayana_number": (lambda: narayana.narayana_number(0, 0), ValueError, "Narayana numbers need n >= 1"),
        "v_coeff": (lambda: narayana.v_coeff(0, 0), ValueError, "v coefficients need n >= 1"),
        "poly_sequence": (lambda: narayana.poly_sequence("small_c", -1), ValueError, "length must be >= 0"),
        "narayana_poly": (lambda: narayana.narayana_poly(-1), ValueError, "index must be >= 0"),
        "narayana_b_poly": (lambda: narayana.narayana_b_poly(-1), ValueError, "index must be >= 0"),
        "c_poly": (lambda: narayana.c_poly(-1), ValueError, "index must be >= 0"),
        "c_poly_recursive": (lambda: narayana.c_poly_recursive(-1), ValueError, "index must be >= 0"),
        "c_odd_closed": (lambda: narayana.c_odd_closed(-1), ValueError, "index must be >= 0"),
        "special_values": (lambda: narayana.special_values(-1), ValueError, "index must be >= 0"),
        "q_narayana_row": (lambda: qcomb.q_narayana_row(-1), ValueError, "row index must be >= 0"),
        "q_catalan": (lambda: qcomb.q_catalan(-1), ValueError, "q-Catalan needs n >= 0"),
        "build_series": (lambda: gfun.build_series("bigC", -1), ValueError, "order must be >= 0"),
        "hankel_matrix": (lambda: hankel.hankel_matrix(narayana.poly_sequence("small_c", 3), 0, 0),
                          ValueError, "dimension must be >= 1"),
        "hankel_table": (lambda: hankel.hankel_table("small_c", 0, 0), ValueError, "max_n must be >= 1"),
        "hankel_table-family": (lambda: hankel.hankel_table("X", 0, 2), ValueError,
                                f"unknown family 'X' (expected one of {tuple(narayana.FAMILIES)})"),
        "hankel_table-shift": (lambda: hankel.hankel_table("small_c", -1, 2), ValueError, "shift must be >= 0"),
        "jfraction_extract": (lambda: hankel.jfraction_extract(hankel.ratfun_series("smallg", 4), -1),
                              ValueError, "depth must be >= 0"),
        "jfraction_to_series": (lambda: hankel.jfraction_to_series(hankel.JFraction((T,), ()), -1),
                                ValueError, "order must be >= 0"),
        "hankel_product_formula": (lambda: hankel.hankel_product_formula((), 0), ValueError, "dimension must be >= 1"),
        "hankel_product_formula-type": (lambda: hankel.hankel_product_formula(["x"], 1), TypeError,
                                        "unsupported coefficient type str"),
        "enumerate_symmetric": (lambda: next(dyckoracle.enumerate_symmetric(-1)),
                                ValueError, "semi-length must be >= 0"),
        "Polynomial": (lambda: Polynomial("", ()), TypeError, "variable must be a non-empty string"),
        "Polynomial.monomial": (lambda: Polynomial.monomial("t", -1), ValueError, "monomial power must be >= 0"),
        # from_json reads only what to_json writes: no float, bool or int entry, no string int() would also read
        "Polynomial.from_json-float": (lambda: Polynomial.from_json({"var": "t", "coeffs": [1.9]}), TypeError,
                                       "coefficient must be a decimal string, got float"),
        "Polynomial.from_json-bool": (lambda: Polynomial.from_json({"var": "t", "coeffs": [True]}), TypeError,
                                      "coefficient must be a decimal string, got bool"),
        "Polynomial.from_json-int": (lambda: Polynomial.from_json({"var": "t", "coeffs": ["1", 5]}), TypeError,
                                     "coefficient must be a decimal string, got int"),
        "Polynomial.from_json-underscore": (lambda: Polynomial.from_json({"var": "t", "coeffs": ["1_0"]}), ValueError,
                                            "coefficient '1_0' is not a canonical decimal string"),
        "Polynomial.from_json-space": (lambda: Polynomial.from_json({"var": "t", "coeffs": [" 7"]}), ValueError,
                                       "coefficient ' 7' is not a canonical decimal string"),
        "Polynomial.from_json-plus": (lambda: Polynomial.from_json({"var": "t", "coeffs": ["+5"]}), ValueError,
                                      "coefficient '+5' is not a canonical decimal string"),
        "Polynomial.from_json-digit": (lambda: Polynomial.from_json({"var": "t", "coeffs": ["\u0663"]}), ValueError,
                                       "coefficient '\u0663' is not a canonical decimal string"),
        "poly_exact_div": (lambda: exactalg.poly_exact_div(T, Q), ValueError, "variable mismatch: 't' vs 'q'"),
        "poly_gcd": (lambda: exactalg.poly_gcd(T, Q), ValueError, "variable mismatch: 't' vs 'q'"),
        "RationalFunction": (lambda: RationalFunction(T, Q), ValueError, "variable mismatch: 't' vs 'q'"),
        "RationalFunction.__add__": (lambda: RationalFunction(T) + RationalFunction(Q), ValueError, "variable mismatch"),
        "RationalFunction.__add__-Polynomial": (lambda: RationalFunction(T) + Q, ValueError, "variable mismatch"),
        "RationalFunction.__mul__": (lambda: RationalFunction(T) * RationalFunction(Q), ValueError, "variable mismatch"),
        "RationalFunction.__mul__-Polynomial": (lambda: RationalFunction(T) * Q, ValueError, "variable mismatch"),
        "TruncatedSeries-empty": (lambda: TruncatedSeries(()), ValueError,
                                  "a series needs at least its constant coefficient"),
        "TruncatedSeries-short": (lambda: TruncatedSeries((1, 2), 5), ValueError, "expected 6 coefficients, got 2"),
        "TruncatedSeries.from_coeffs": (lambda: TruncatedSeries.from_coeffs([], 3), ValueError,
                                        "cannot infer the coefficient ring from an empty list"),
        "TruncatedSeries.from_coeffs-type": (lambda: TruncatedSeries.from_coeffs(["a"], 2), TypeError,
                                             "unsupported coefficient type str"),
        "shift_up": (lambda: TruncatedSeries((1, 2), 1).shift_up(-1), ValueError, "shift must be >= 0"),
        "truncate": (lambda: TruncatedSeries((1, 2), 1).truncate(2), ValueError, "can only truncate to a lower order"),
        "invert": (lambda: TruncatedSeries((RationalFunction.zero("t"), RationalFunction.one("t"))).invert(),
                   exactalg.NotInvertibleError, "constant term is zero"),
        "invert-type": (lambda: TruncatedSeries(("a",)).invert(), TypeError, "unsupported coefficient type str"),
    }

    @pytest.mark.parametrize("call, error, message", list(REFUSALS.values()), ids=list(REFUSALS))
    def test_refusal(self, call, error, message):
        with pytest.raises(error) as refused:
            call()
        assert str(refused.value) == message


def _python(*args, **env):
    """Run the interpreter on args, with the package's source directory on the path and env set."""
    src = str(Path(qnarayana.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


class TestStartUp:
    """Every run imports the CLI, so it loads only what every run needs."""

    def test_import_loads_no_heavy_module(self):
        listing = "import sys; sys.stdout.write(' '.join(sorted(sys.modules)))"
        bare, loaded = (_python("-c", code).stdout.decode().split()
                        for code in (listing, "import qnarayana.cli; " + listing))
        added = set(loaded) - set(bare)  # a site hook that loads a module loads it in both runs
        assert "qnarayana.cli" in added
        assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "argparse"})

    @pytest.mark.parametrize("argv, code, loaded", [
        (["cfrac", "--family", "c", "--depth", "3"], 0, False),
        (["cfrac", "--help"], 0, True),
        (["cfrac", "--family", "c", "--depth", "51"], 2, True),
    ], ids=["well-formed", "help", "usage-error"])
    def test_argparse_loads_only_for_help_and_usage_errors(self, argv, code, loaded):
        script = ("import sys\n"
                  "from qnarayana.cli import main\n"
                  f"code = main({argv!r})\n"
                  "sys.stderr.write(repr(('argparse' in sys.modules, 'gettext' in sys.modules)))\n"
                  "sys.exit(code)\n")
        run = _python("-c", script)
        assert run.returncode == code
        assert run.stderr.decode().endswith(repr((loaded, loaded)))

    @pytest.mark.parametrize("golden, json_loaded", [("verify_all_json.out", True),
                                                     ("cfrac_c_depth12.out", False)])
    def test_json_loads_only_for_json_output(self, golden, json_loaded):
        script = ("import sys\n"
                  "from qnarayana.cli import main\n"
                  f"code = main({GOLDEN[golden]!r})\n"
                  "sys.stderr.write(str('json' in sys.modules))\n"
                  "sys.exit(code)\n")
        run = _python("-c", script)
        assert run.returncode == 0
        assert run.stdout == (Path(__file__).parent / "data" / golden).read_bytes()
        assert run.stderr.decode() == str(json_loaded)


class TestSharedExtraction:
    """One registry extracts the J-fraction of each cfrac tag once, and _extract marks where a fraction ends."""

    def test_verify_all_extracts_once_per_tag(self, capsys, monkeypatch):
        tags, depths = [], []
        ratfun_series, extract = hankel.ratfun_series, hankel.jfraction_extract

        def recorded_series(tag, order):
            tags.append(tag)
            return ratfun_series(tag, order)

        def recorded_extract(series, depth):
            depths.append(depth)
            return extract(series, depth)

        monkeypatch.setattr(hankel, "ratfun_series", recorded_series)
        monkeypatch.setattr(hankel, "jfraction_extract", recorded_extract)
        assert main(["verify", "--all"]) == 0
        assert sorted(tags) == ["smallc", "smallg"]
        assert depths == [cli.DEFAULT_CFRAC_DEPTH] * 2

    def test_extract_marks_a_terminated_fraction(self, monkeypatch):
        # 1/(1 - z - z^2/(1 - 2z)): the second subdiagonal coefficient is 0
        one = RationalFunction.one("t")
        finite = hankel.JFraction((one, one + one), (one,))
        monkeypatch.setattr(hankel, "ratfun_series", lambda tag, order: hankel.jfraction_to_series(finite, order))
        assert finite.depth == 1
        assert cli._extract("finite", 4)[1] == finite
        assert cli._extract("finite", 1)[1] == finite


class TestSharedHankelTables:
    """One registry computes each (family, shift) Hankel table once, and the product-formula checks read it."""

    def test_verify_all_computes_each_determinant_once(self, capsys, monkeypatch):
        dims, tables = [], []
        det_bareiss, hankel_table = hankel.det_bareiss, hankel.hankel_table

        def counted_det(m):
            dims.append(m.dim)
            return det_bareiss(m)

        def counted_table(family, shift, max_n):
            tables.append((family, shift, max_n))
            return hankel_table(family, shift, max_n)

        monkeypatch.setattr(hankel, "det_bareiss", counted_det)
        monkeypatch.setattr(hankel, "hankel_table", counted_table)
        assert main(["verify", "--all"]) == 0
        capsys.readouterr()
        # 4 tables of dimensions 1..7; the two product-formula checks read rows 1..6 of two of them
        assert len(dims) == 28
        assert sorted(dims) == sorted(list(range(1, cli.DEFAULT_HANKEL_MAX_N + 1)) * 4)
        assert sorted(tables) == [(family, shift, cli.DEFAULT_HANKEL_MAX_N)
                                  for family, shift in sorted(hankel.HANKEL_SIGNS)]

    def test_registry_has_one_hankel_check_per_key(self):
        names = [name for name, _ in build_registry() if name.startswith("hankel/")]
        assert names == [f"hankel/{family}/shift{shift}" for family, shift in hankel.HANKEL_SIGNS]


class TestSharedQRows:
    """One registry builds each q-Narayana row once, and the next registry builds it afresh."""

    def test_verify_all_builds_each_row_once(self, capsys, monkeypatch):
        built = []
        q_narayana_row = qcomb.q_narayana_row

        def counted_row(n):
            built.append(n)
            return q_narayana_row(n)

        monkeypatch.setattr(qcomb, "q_narayana_row", counted_row)
        assert main(["verify", "--all"]) == 0
        assert sorted(built) == list(range(cli.ROUTE_MAX_N + 1))
        assert main(["verify", "--all"]) == 0
        capsys.readouterr()
        assert sorted(built) == sorted(list(range(cli.ROUTE_MAX_N + 1)) * 2)


class TestSharedPathSets:
    """One registry walks each Dyck and symmetric path set once, and the next registry walks it afresh."""

    @pytest.mark.parametrize("argv, q_max_n, sym_max_n", [
        (["oracle", "--q-max-n", "6", "--sym-max-n", "9"], 6, 9),
        (["verify", "--all"], cli.DEFAULT_QT_MAX_N, cli.DEFAULT_SYM_MAX_N),
    ], ids=["oracle", "verify-all"])
    def test_each_path_set_is_walked_once(self, capsys, monkeypatch, argv, q_max_n, sym_max_n):
        walked = _record_walks(monkeypatch)
        for runs in (1, 2):
            assert main(argv) == 0
            assert sorted(walked["_valley_major_walk"]) == sorted(list(range(q_max_n + 1)) * runs)
            assert sorted(walked["enumerate_symmetric"]) == sorted(list(range(sym_max_n + 1)) * runs)
        capsys.readouterr()


class TestSharedFamilyRows:
    """Each c_n and N_n row is built once per process, whichever layer asks for it."""

    def test_verify_all_builds_each_row_once(self, capsys, monkeypatch):
        built = []
        row_by_ratio = narayana._row_by_ratio

        def counted(length, step):
            built.append((step.__qualname__.split(".")[0], length))
            return row_by_ratio(length, step)

        monkeypatch.setattr(narayana, "_row_by_ratio", counted)
        narayana.c_poly.cache_clear()
        narayana.narayana_poly.cache_clear()
        for _ in range(2):  # the second run builds none
            assert main(["verify", "--all"]) == 0
        capsys.readouterr()
        rows = [(name, length) for name, length in built if name in ("c_poly", "narayana_poly")]
        assert len(rows) == len(set(rows))
        assert {length for name, length in rows if name == "c_poly"} >= set(range(1, cli.ROUTE_MAX_N + 2))


class TestReadmeCapTable:
    """README's table of size caps states the caps the parser enforces."""

    CAPS = {
        "poly --n": cli.MAX_POLY_N,
        "hankel --max-n": cli.MAX_HANKEL_N,
        "cfrac --depth": cli.MAX_CFRAC_DEPTH,
        "verify --order": cli.MAX_ORDER,
        "oracle --q-max-n": dyckoracle.MAX_QT,
        "oracle --sym-max-n": dyckoracle.MAX_SYMMETRIC,
    }

    def test_range_column_matches_the_caps(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("| option | range |"))
        ranges = {}
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            option, span = (cell.strip() for cell in line.strip("|").split("|")[:2])
            ranges[option.strip("`")] = span
        assert {option: int(span.split("..")[1]) for option, span in ranges.items()} == self.CAPS


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    """The namespace of perfbench/run.py, which imports its siblings as top-level modules."""
    here = str(ROOT / "perfbench")
    sys.path.insert(0, here)
    try:
        return runpy.run_path(str(ROOT / "perfbench" / "run.py"))
    finally:
        sys.path.remove(here)
        for name in ("workloads", "trace_op"):
            sys.modules.pop(name, None)


class TestBenchmarkTracer:
    """perfbench/trace_op.py can still wrap every layer it times after a change to the package."""

    def trace(self, *argv):
        """A traced run of argv and its trace, after checking that the run wrote one trace with nothing unbound."""
        run = _python(str(ROOT / "perfbench" / "trace_op.py"), *argv)
        mark = "perfbench-trace: "
        lines = [line for line in run.stderr.decode().splitlines() if line.startswith(mark)]
        assert len(lines) == 1, run.stderr.decode()
        payload = json.loads(lines[0][len(mark):])
        assert payload["unbound"] == []
        return run, payload

    def traced(self, *argv):
        """The stdout of a traced run of argv, after checking its exit code and its trace."""
        run, _ = self.trace(*argv)
        assert run.returncode == 0, run.stderr.decode()
        return run.stdout

    @staticmethod
    def block(bench, workload):
        """A small block of ops per benchmark workload, reaching the layers its traced run pins."""
        if workload == "gate":
            return [("verify", "--all"), ("verify", "--all", "--json")]
        if workload == "cfrac-deep":
            return [("cfrac", "--family", family, "--depth", "4") for family in ("c", "g")]
        if workload == "ring-deep":
            return ([("verify", "--identity", name, "--order", "8", "--json") for name in bench["workloads"].IDENTITIES]
                    + [("hankel", "--family", family, "--shift", shift, "--max-n", "5")
                       for family in ("c", "C") for shift in ("0", "1")])
        return [("verify", "--order", "20"), ("oracle", "--q-max-n", "6", "--sym-max-n", "8")]

    @pytest.mark.parametrize("workload", ["gate", "cfrac-deep", "ring-deep", "routes-oracle"])
    def test_traced_block_passes_the_benchmark_self_checks(self, bench, workload):
        """Each traced op prints its known answer, and the summed layers move or stay zero as run.py requires."""
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        payloads = []
        for op in self.block(bench, workload):
            run, payload = self.trace(*op)
            outcome = bench["Outcome"](0.0, run.returncode, run.stdout.decode(), run.stderr.decode())
            assert bench["verdict"](op, outcome) is None, op
            payloads.append(payload)
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_ratio"]
        metrics = bench["layer_metrics"](payloads, names)
        for must_move, patterns in ((True, bench["MUST_MOVE"][workload]),
                                    (False, bench["MUST_STAY_ZERO"].get(workload, ()))):
            for pattern in patterns:
                matched = fnmatch.filter(metrics, pattern)
                assert matched, pattern
                assert [name for name in matched if bool(metrics[name]) != must_move] == [], pattern

    def test_trace_leaves_stdout_alone_and_binds_every_layer(self):
        assert self.traced("verify", "--all") == (ROOT / "tests" / "data" / "verify_all.out").read_bytes()

    def test_trace_of_hankel_matches_the_plain_run(self):
        argv = ["hankel", "--family", "c", "--shift", "1", "--max-n", "8"]
        plain = _python("-m", "qnarayana.cli", *argv)
        assert plain.returncode == 0
        assert self.traced(*argv) == plain.stdout


def _record_fields():
    """Each record type with a fresh set of field values, by field name in declaration order."""
    one = RationalFunction.one("t")
    return [
        (cli.CheckResult, {"name": "eval/at_one", "passed": True, "detail": "n<=20"}),
        (gfun.IdentityReport, {"identity": "eq15", "order": 4, "power": 2, "lhs": T, "rhs": T + Polynomial.one("t")}),
        (hankel.PolyMatrix, {"entries": ((Polynomial.one("t"), T), (T, T * T))}),
        (hankel.JFraction, {"s": (one, one + one), "t_coeffs": (one,)}),
        (dyckoracle.PathStats, {"valleys": 1, "maj": 2}),
    ]


_RECORD_IDS = [cls.__name__ for cls, _ in _record_fields()]


class TestRecords:
    """The small result records: immutable values compared field by field."""

    @pytest.mark.parametrize("index", range(len(_RECORD_IDS)), ids=_RECORD_IDS)
    def test_assignment_raises(self, index):
        cls, fields = _record_fields()[index]
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("index", range(len(_RECORD_IDS)), ids=_RECORD_IDS)
    def test_keyword_and_positional_construction_agree(self, index):
        cls, fields = _record_fields()[index]
        record = cls(**fields)
        assert record == cls(*fields.values())
        assert {name: getattr(record, name) for name in fields} == fields

    @pytest.mark.parametrize("index", range(len(_RECORD_IDS)), ids=_RECORD_IDS)
    def test_equal_fields_give_equal_values_and_hashes(self, index):
        (cls, fields), (_, same) = _record_fields()[index], _record_fields()[index]
        a, b = cls(**fields), cls(**same)
        assert a == b
        assert hash(a) == hash(b)

    def test_the_records_are_every_public_named_tuple(self):
        # adding or deleting a record moves this class's list and README's records sentence with it
        modules = [importlib.import_module(f"qnarayana.{info.name}")
                   for info in pkgutil.iter_modules(qnarayana.__path__)]
        defined = {value for module in modules for value in vars(module).values()
                   if isinstance(value, type) and value.__module__ == module.__name__ and issubclass(value, tuple)
                   and hasattr(value, "_fields") and not value.__name__.startswith("_")}
        assert defined == {cls for cls, _ in _record_fields()}
        sentence = (ROOT / "README.md").read_text().split("The small records (", 1)[1].split(")", 1)[0]
        assert set(sentence.split("`")[1::2]) == {cls.__name__ for cls in defined}

    def test_defaults(self):
        assert cli.CheckResult("eval/at_one", True).detail == ""
        report = gfun.IdentityReport("eq15", 4)
        assert (report.power, report.lhs, report.rhs) == (None, None, None)
        assert report.passed

    def test_poly_matrix_refuses_malformed_entries(self):
        with pytest.raises(ValueError, match="^empty matrix$"):
            hankel.PolyMatrix(())
        with pytest.raises(ValueError, match="^matrix is not square$"):
            hankel.PolyMatrix(((T, T),))
        with pytest.raises(ValueError, match="^matrix entries must share one variable$"):
            hankel.PolyMatrix(((T, Q), (T, T)))

    def test_poly_matrix_refuses_entries_that_are_not_polynomials(self):
        with pytest.raises(TypeError, match="^matrix entries must be polynomials, got int$"):
            hankel.PolyMatrix(((1,),))
        with pytest.raises(TypeError, match="^matrix entries must be polynomials, got str$"):
            hankel.PolyMatrix(((T, T), (T, "t")))
        with pytest.raises(ValueError, match="^matrix is not square$"):
            hankel.PolyMatrix(((),))
        with pytest.raises(ValueError, match="^matrix is not square$"):
            hankel.PolyMatrix(((T, T), ()))

    def test_make_and_replace_run_the_checks(self):
        one = RationalFunction.one("t")
        with pytest.raises(ValueError, match="^empty matrix$"):
            hankel.PolyMatrix._make([()])
        with pytest.raises(ValueError, match="^matrix is not square$"):
            hankel.PolyMatrix(((T,),))._replace(entries=((T, T),))
        with pytest.raises(ValueError, match="one more diagonal"):
            hankel.JFraction._make([(one,), (one,)])
        with pytest.raises(ValueError, match="nonzero"):
            hankel.JFraction((one, one), (one,))._replace(t_coeffs=(one - one,))
        assert hankel.JFraction((one, one), (one,))._replace(s=(one, one + one)) == hankel.JFraction(
            (one, one + one), (one,))
