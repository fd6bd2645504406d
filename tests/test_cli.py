import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnarayana
from qnarayana import cli, dyckoracle, fixtures, gfun, hankel, narayana, qcomb
from qnarayana.cli import REGISTRY_SIZE, Command, build_registry, main, parse_args
from qnarayana.exactalg import Polynomial, RationalFunction, TruncatedSeries


class TestParseArgs:
    def test_verify_command(self):
        cmd = parse_args(["verify", "--identity", "eq25", "--order", "20"])
        assert cmd == Command("verify", {"all": False, "identity": ["eq25"], "order": 20, "json": False})

    def test_poly_command(self):
        cmd = parse_args(["poly", "--family", "c", "--n", "5"])
        assert cmd.verb == "poly"
        assert cmd.options["family"] == "c"
        assert cmd.options["n"] == 5

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
        assert main(["oracle", "--q-max-n", "11"]) == 2

    # parsed only, never run: a run at a cap takes seconds
    @pytest.mark.parametrize("argv, option, cap", [
        (["poly", "--family", "C", "--n"], "n", cli.MAX_POLY_N),
        (["hankel", "--family", "C", "--max-n"], "max_n", cli.MAX_HANKEL_N),
        (["cfrac", "--family", "c", "--depth"], "depth", cli.MAX_CFRAC_DEPTH),
        (["verify", "--order"], "order", cli.MAX_ORDER),
        (["verify", "--all", "--order"], "order", cli.MAX_ORDER),
        (["oracle", "--q-max-n"], "q_max_n", dyckoracle.MAX_QT),
        (["oracle", "--sym-max-n"], "sym_max_n", dyckoracle.MAX_SYMMETRIC),
    ], ids=["poly-n", "hankel-max-n", "cfrac-depth", "verify-order", "verify-all-order",
            "oracle-q-max-n", "oracle-sym-max-n"])
    def test_size_caps(self, capsys, argv, option, cap):
        assert parse_args(argv + [str(cap)]).options[option] == cap
        with pytest.raises(SystemExit) as err:
            parse_args(argv + [str(cap + 1)])
        assert err.value.code == 2
        assert "must be between" in capsys.readouterr().err


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

    def test_all_json_lists_checks(self, capsys):
        assert main(["verify", "--order", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert {"name": "identity/eq15", "status": "pass", "detail": "order=6"} in payload["checks"]


class TestOracleVerb:
    def test_small_run(self, capsys):
        assert main(["oracle", "--q-max-n", "4", "--sym-max-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "PASS oracle/valley_major" in out
        assert "PASS oracle/symmetric_valleys" in out
        assert "PASS oracle/counts" in out


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


class TestFaultInjection:
    def test_mutated_first_terms_fixture_flips_exit_code(self, capsys, monkeypatch):
        broken = list(fixtures.FIRST_TERMS_SMALL_C)
        broken[5] = "1+2t+5t^2+2t^3+t^4"
        monkeypatch.setattr(fixtures, "FIRST_TERMS_SMALL_C", tuple(broken))
        assert main(["verify", "--all"]) == 1
        out = capsys.readouterr().out
        assert "FAIL first_terms/c" in out

    def test_mutated_cfrac_fixture_flips_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(fixtures, "SMALLG_T_BASE", (0, 1))
        assert main(["verify", "--all"]) == 1
        out = capsys.readouterr().out
        assert "FAIL cfrac/smallg/closed_forms" in out

    def test_crashing_check_is_reported_as_failure(self, capsys, monkeypatch):
        def boom():
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "_check_routes", boom)
        assert main(["verify"]) == 1
        assert "FAIL routes/c_three_ways (error: injected)" in capsys.readouterr().out


def _plus_at(at, extra):
    """Perturb a builder: its value at the arguments `at` gets `extra` added."""
    def perturb(build):
        return lambda *args: build(*args) + extra if args == at else build(*args)
    return perturb


def _maj_plus_one_on_udud(path_stats):
    def perturbed(word):
        stats = path_stats(word)
        return dyckoracle.PathStats(stats.valleys, stats.maj + 1) if word == "UDUD" else stats
    return perturbed


def _first_path_twice_at(at):
    """Perturb an enumerator: at semi-length `at` its first path comes twice."""
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
    """Perturb the identity table: coefficient `power` of the right-hand side of `identity` gets t added."""
    def perturb(builders):
        build = builders[identity]

        def perturbed(order):
            lhs, rhs = build(order)
            return lhs, rhs[:power] + (rhs[power] + T,) + rhs[power + 1:]
        return {**builders, identity: perturbed}
    return perturb


def _det_plus_t_at_dim_4(det_bareiss):
    return lambda m: det_bareiss(m) + T if m.dim == 4 else det_bareiss(m)


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


T = Polynomial.gen("t")
Q = Polynomial.gen("q")


class TestCheckReportsItsOwnDiff:
    """Each property the library once asserted is caught by its named check, with the check's diff."""

    @pytest.mark.parametrize("argv, module, attr, perturb, line", [
        (["verify"], narayana, "narayana_poly", _plus_at((2,), T),
         "FAIL routes/c_three_ways (n=5: recursion gives 1+2t+4t^2+t^3+t^4, closed form 1+2t+4t^2+2t^3+t^4)"),
        (["verify"], qcomb, "q_narayana_coeff", _plus_at((2, 0), Q),
         "FAIL routes/c_three_ways (n=2: q-row starts with 1+q, expected 1)"),
        (["verify"], qcomb, "q_narayana_coeff", _plus_at((3, 1), -Q ** 5),
         "FAIL routes/c_three_ways (n=3, k=1: negative coefficient in q-row entry q^2+q^3+q^4-q^5)"),
        (["verify"], qcomb, "q_narayana_coeff", _plus_at((4, 1), Polynomial.one("q")),
         "FAIL routes/c_three_ways (n=4: q-row sums to "),
        (["verify"], narayana, "narayana_b_poly", _plus_at((3,), T),
         "FAIL routes/odd_closed_form (n=7: odd closed form gives "),
        (["oracle"], dyckoracle, "path_stats", _maj_plus_one_on_udud,
         "FAIL oracle/valley_major (n=2, k=1: enumerated q^3, algebraic q^2)"),
        (["oracle"], dyckoracle, "enumerate_symmetric", _first_path_twice_at(4),
         "FAIL oracle/symmetric_valleys (n=4, k=3: enumerated 2, closed form 1)"),
        (["oracle"], dyckoracle, "enumerate_dyck", _first_path_twice_at(3),
         "FAIL oracle/counts (n=3: 6 paths, expected Catalan)"),
        (["verify"], gfun, "_IDENTITY_BUILDERS", _rhs_plus_t("eq25", 3),
         "FAIL identity/eq25 (power=3: 0 vs t)"),
        (["verify", "--all"], hankel, "expected_hankel", _plus_at(("small_c", 1, 3), T),
         "FAIL hankel/small_c/shift1 (n=3: det -t^3, expected t-t^3)"),
        (["verify"], narayana, "special_values", _special_value_plus_one(5, 0),
         "FAIL eval/at_one (n=5: value 10, expected 11)"),
        (["verify"], narayana, "special_values", _special_value_plus_one(5, 1),
         "FAIL eval/at_minus_one (n=5: value 2, expected 3)"),
        (["verify"], qcomb, "q_catalan", _plus_at((4,), Q),
         "FAIL eval/q_catalan_sum (n=4: q-row sums to 1+q^2+q^3+2q^4+q^5+2q^6+q^7+2q^8+q^9+q^10+q^12, "
         "q-Catalan quotient 1+q+q^2+q^3+2q^4+q^5+2q^6+q^7+2q^8+q^9+q^10+q^12)"),
        (["verify", "--all"], hankel, "det_bareiss", _det_plus_t_at_dim_4,
         "FAIL cfrac/smallg/product_formula (n=4: product t^6, determinant t+t^6)"),
        (["verify", "--all"], hankel, "det_bareiss", _det_plus_t_at_dim_4,
         "FAIL cfrac/smallc/product_formula (n=4: product t^6, determinant t+t^6)"),
        (["verify", "--all"], hankel, "jfraction_to_series", _top_coefficient_plus_one,
         "FAIL cfrac/roundtrip (smallc does not round-trip at depth 8)"),
        (["verify", "--all"], hankel, "ratfun_series", _series_plus_t("smallg", 19),
         "FAIL cfrac/smallg/closed_forms (s_9: extracted (-1-t^8-t^9)/(t^8), stored -1-t)"),
        (["verify", "--all"], hankel, "ratfun_series", _series_plus_t("smallc", 17),
         "FAIL cfrac/smallc/closed_forms (s_8: extracted (1+t^7-t^8)/(t^7), stored 1-t)"),
    ], ids=["route", "q-row-constant-term", "q-row-negative", "q-row-sum", "odd-closed-form",
            "valley-major", "symmetric-valleys", "oracle-counts", "identity", "hankel", "eval-at-one",
            "eval-at-minus-one", "q-catalan-sum", "product-formula-smallg", "product-formula-smallc",
            "roundtrip", "closed-forms-smallg", "closed-forms-smallc"])
    def test_injected_fault(self, capsys, monkeypatch, argv, module, attr, perturb, line):
        monkeypatch.setattr(module, attr, perturb(getattr(module, attr)))
        assert main(argv) == 1
        name = line.split(" (")[0]
        reported = [out for out in capsys.readouterr().out.splitlines() if out.startswith(name + " (")]
        assert len(reported) == 1
        assert reported[0].startswith(line)
        assert "error:" not in reported[0]

    def test_each_run_extracts_afresh(self, capsys, monkeypatch):
        assert main(["verify", "--all"]) == 0
        capsys.readouterr()
        extract = hankel.jfraction_extract

        def doubled_t0(series, depth):
            jf = extract(series, depth)
            return hankel.JFraction(jf.s, (jf.t_coeffs[0] * 2,) + jf.t_coeffs[1:], jf.terminated)

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


def _python(*args):
    """Run the interpreter on args, with the package's source directory on the path."""
    src = str(Path(qnarayana.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


class TestStartUp:
    """Every run imports the CLI, so it loads only what every run needs."""

    def test_import_loads_no_heavy_module(self):
        listing = "import sys; sys.stdout.write(' '.join(sorted(sys.modules)))"
        bare, loaded = (_python("-c", code).stdout.decode().split()
                        for code in (listing, "import qnarayana.cli; " + listing))
        added = set(loaded) - set(bare)  # a site hook that loads a module loads it in both runs
        assert "qnarayana.cli" in added
        assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize", "json"})

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
    """A request cut from a deeper shared extraction equals a fresh extraction at its depth."""

    @pytest.mark.parametrize("tag", sorted(gfun.TAG_FAMILIES))
    def test_cut_equals_fresh_extraction(self, tag):
        extract = cli._extract_once()
        for depth in (6, 2, 0, 6, 4, 8, 3):
            assert extract(tag, depth) == cli._extract(tag, depth)

    def test_terminated_fraction_cut_equals_fresh_extraction(self, monkeypatch):
        # 1/(1 - z - z^2/(1 - 2z)): the second subdiagonal coefficient is 0
        one = RationalFunction.one("t")
        finite = hankel.JFraction((one, one + one), (one,))
        monkeypatch.setattr(hankel, "ratfun_series", lambda tag, order: hankel.jfraction_to_series(finite, order))
        assert cli._extract("finite", 4)[1] == hankel.JFraction(finite.s, finite.t_coeffs, terminated=True)
        assert not cli._extract("finite", 1)[1].terminated
        extract = cli._extract_once()
        for depth in (4, 0, 1, 2, 3, 5):
            assert extract("finite", depth) == cli._extract("finite", depth)


def _record_fields():
    """Each record type with a fresh set of field values, by field name in declaration order."""
    one = RationalFunction.one("t")
    return [
        (Command, {"verb": "poly", "options": {"family": "c", "n": 3}}),
        (cli.CheckResult, {"name": "eval/at_one", "passed": True, "detail": "n<=20"}),
        (gfun.IdentityReport, {"identity": "eq15", "order": 4, "status": "fail", "power": 2,
                               "lhs": T, "rhs": T + Polynomial.one("t")}),
        (hankel.PolyMatrix, {"entries": ((Polynomial.one("t"), T), (T, T * T))}),
        (hankel.HankelRow, {"n": 2, "determinant": T, "expected": T, "match": True}),
        (hankel.JFraction, {"s": (one, one + one), "t_coeffs": (one,), "terminated": True}),
        (dyckoracle.PathStats, {"valleys": 1, "maj": 2}),
    ]


_RECORD_IDS = [cls.__name__ for cls, _ in _record_fields()]


class TestRecords:
    """The small result and command records: immutable values compared field by field."""

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
        if cls is Command:  # its options are a dict, so it is as unhashable as the dict
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_defaults(self):
        one = RationalFunction.one("t")
        assert cli.CheckResult("eval/at_one", True).detail == ""
        report = gfun.IdentityReport("eq15", 4, "pass")
        assert (report.power, report.lhs, report.rhs) == (None, None, None)
        assert hankel.JFraction((one, one), (one,)).terminated is False
        assert hankel.JFraction((one, one), (one,), terminated=True).terminated is True

    def test_poly_matrix_refuses_malformed_entries(self):
        with pytest.raises(ValueError, match="^empty matrix$"):
            hankel.PolyMatrix(())
        with pytest.raises(ValueError, match="^matrix is not square$"):
            hankel.PolyMatrix(((T, T),))
        with pytest.raises(ValueError, match="^matrix entries must share one variable$"):
            hankel.PolyMatrix(((T, Q), (T, T)))

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
        assert hankel.JFraction((one, one), (one,))._replace(terminated=True) == hankel.JFraction(
            (one, one), (one,), terminated=True)
