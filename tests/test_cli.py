import argparse
import hashlib
import importlib.util
import io
import json
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzcalc.cli import _rational, main
from hurwitzcalc.family_calc import PENCIL_KINDS, PENCIL_TABLE, partial_pencil_record


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bounded_memory():
    """Cap a child's address space at 2 GB, so a runaway number fails there."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestSlope:
    def test_pinned_value(self, capsys):
        code, out, _ = run_cli(capsys, "slope", "4", "9")
        assert code == 0 and out.strip() == "22/3"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "slope", "3", "4", "--json")
        assert code == 0
        assert json.loads(out) == {"d": 3, "g": 4, "slope": "17/2"}

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "slope", "4", "8")
        assert code == 2 and "domain error" in err


class TestClass:
    def test_maroni_at_genus(self, capsys):
        code, out, _ = run_cli(capsys, "class", "maroni", "3", "--at", "4")
        assert code == 0
        assert "17" in out and "-2" in out and "1/2" in out

    def test_x_symbolic(self, capsys):
        code, out, _ = run_cli(capsys, "class", "x", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["a"] == "13*g + 15"
        assert data["b"] == "2*g"

    def test_degenerate_denominator(self, capsys):
        code, _, err = run_cli(capsys, "class", "maroni", "3", "--at", "3")
        assert code == 2 and "degenerate" in err


class TestPencil:
    def test_trigonal_plain(self, capsys):
        code, out, _ = run_cli(capsys, "pencil", "trigonal_plain", "--gr", "4")
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.splitlines()
                     if line and not line.startswith("note"))
        assert lines["lambda"] == "4"
        assert lines["delta"] == "34"

    def test_json_round_trip(self, capsys):
        from hurwitzcalc.family_calc import PencilRecord
        code, out, _ = run_cli(capsys, "pencil", "pentagonal_basechange",
                               "--gr", "16", "--g", "36", "--json")
        assert code == 0
        record = PencilRecord.from_json(json.loads(out))
        assert record.boundary_hits["delta_self"] == -1080

    def test_negative_genus_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "pencil", "trigonal_plain", "--gr", "-5")
        assert code == 2 and "domain error" in err and not out

    @pytest.mark.parametrize("kind,gr,g", [("pentagonal_unramified_5pts", "2", "-7"),
                                           ("pentagonal_basechange", "16", "-36")])
    def test_negative_total_genus_is_domain_error(self, capsys, kind, gr, g):
        code, out, err = run_cli(capsys, "pencil", kind, "--gr", gr, "--g", g)
        assert code == 2 and "domain error" in err and not out

    @pytest.mark.parametrize("kind,gr,g", [("pentagonal_unramified_5pts", "30", "2"),
                                           ("pentagonal_basechange", "16", "0")])
    def test_total_genus_below_vertex_genus_is_domain_error(self, capsys, kind, gr, g):
        code, out, err = run_cli(capsys, "pencil", kind, "--gr", gr, "--g", g)
        assert code == 2 and "vertex genus gr" in err and not out

    def test_pentagonal_without_total_genus_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "pencil", "pentagonal_unramified_5pts",
                               "--gr", "16")
        assert code == 2 and "total genus" in err

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "pencil", "nonexistent_kind", "--gr", "4")
        assert exc.value.code == 1

    def test_help_lists_every_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "pencil", "--help")
        out = " ".join(capsys.readouterr().out.split())
        assert exc.value.code == 0
        assert all(kind in out for kind in PENCIL_KINDS)

    @pytest.mark.parametrize("dv", ["0", "-4"])
    def test_nonpositive_rational_degree_is_domain_error(self, capsys, dv):
        code, out, err = run_cli(capsys, "pencil", "rational_partial", "--dv", dv)
        assert code == 2 and "dv >= 1" in err and not out


    def test_flags_the_kind_does_not_take_are_usage_errors(self, capsys):
        code, out, err = run_cli(capsys, "pencil", "trigonal_plain", "--gr", "4",
                                 "--dv", "7", "--g", "99")
        assert code == 1 and not out
        assert "--dv" in err and "--g" in err and "--gr" not in err

    @pytest.mark.parametrize("kind", PENCIL_KINDS)
    def test_each_flag_is_checked_against_the_row(self, capsys, kind):
        taken = PENCIL_TABLE[kind].params
        for flag, value in (("gr", "16"), ("g", "36"), ("dv", "5")):
            code, _, err = run_cli(capsys, "pencil", kind, f"--{flag}", value)
            if flag in taken:
                assert code != 1, (flag, err)
            else:
                assert code == 1 and f"--{flag}" in err, flag

    def test_defaults_do_not_count_as_given(self, capsys):
        code, out, _ = run_cli(capsys, "pencil", "rational_partial", "--dv", "5")
        assert code == 0 and "delta_self" in out
        assert run_cli(capsys, "pencil", "trigonal_plain") == \
            run_cli(capsys, "pencil", "trigonal_plain", "--gr", "0")
        assert run_cli(capsys, "pencil", "rational_partial")[0] == 0

    @pytest.mark.parametrize("kind", [kind for kind, row in PENCIL_TABLE.items()
                                      if row.params in (("gr",), ("gr", "v"))])
    def test_genus_only_kinds_print_their_record(self, capsys, kind):
        for gr in (1, 8):
            code, out, _ = run_cli(capsys, "pencil", kind, "--gr", str(gr), "--json")
            assert code == 0
            assert json.loads(out) == partial_pencil_record(kind, gr=gr).to_json()


class TestInvariants:
    @pytest.mark.parametrize("d,g,reason", [("2", "3", "degree d >= 3"),
                                            ("0", "5", "degree d >= 3"),
                                            ("3", "-5", "genus g >= 0")])
    def test_impossible_cover_is_domain_error(self, capsys, d, g, reason):
        code, out, err = run_cli(capsys, "invariants", "--d", d, "--g", g,
                                 "--ch2e", "1", "--ch2f", "0", "--c1sq", "3")
        assert code == 2 and reason in err and not out

    @pytest.mark.parametrize("value", ["abc", "1/0", "1e5/3"])
    def test_malformed_rational_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "invariants", "--d", "4", "--g", "5",
                    "--ch2e", value, "--ch2f", "0", "--c1sq", "3")
        err = capsys.readouterr().err
        assert exc.value.code == 1 and f"not a rational number: '{value}'" in err

    def test_rational_flags_take_fractions_and_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--d", "4", "--g", "5", "--ch2e", "1/2",
                               "--ch2f", "0.25", "--c1sq", "-3", "--json")
        assert code == 0 and json.loads(out)["lambda"] == "11/16"

    @pytest.mark.parametrize("text, value", [("3", 3), ("-1/2", Fraction(-1, 2)),
                                             ("0.25", Fraction(1, 4)), ("3e2", 300)])
    def test_rational_values(self, text, value):
        assert _rational(text) == value

    def test_rational_bound_counts_length_and_exponent(self):
        bound = sys.get_int_max_str_digits()
        n = next(n for n in range(bound, 0, -1) if len(f"1e{n}") + n == bound)
        assert _rational(f"1e{n}") == 10 ** n
        with pytest.raises(argparse.ArgumentTypeError, match=f"limit of {bound} digits"):
            _rational(f"1e{n + 1}")
        with pytest.raises(argparse.ArgumentTypeError, match=f"limit of {bound} digits"):
            _rational("1" * (bound + 1))

    @pytest.mark.parametrize("value", ["1e4400", "1e-4400", "1e10000000", "1e1000000000"])
    def test_oversized_rational_is_usage_error(self, value, engine_env):
        # refused before Fraction builds it: unchecked, 1e10000000 took 6 s
        # and 1e1000000000 ran on; a subprocess with bounded memory, so a
        # hang is a timeout
        start = time.perf_counter()
        result = subprocess.run([sys.executable, "-m", "hurwitzcalc.cli", "invariants",
                                 "--d", "4", "--g", "9", "--ch2e", value, "--ch2f", "1",
                                 "--c1sq", "1"],
                                env=engine_env, capture_output=True, text=True, timeout=10,
                                preexec_fn=_bounded_memory)
        assert time.perf_counter() - start < 2
        assert result.returncode == 1 and not result.stdout
        assert f"int/str limit of {sys.get_int_max_str_digits()} digits" in result.stderr
        assert "Traceback" not in result.stderr


class TestChowEval:
    def test_tetragonal_product(self, capsys):
        code, out, _ = run_cli(capsys, "chow", "eval", "projbundle:3:u+v",
                               "(2*z-u*f)^2*(2*z-v*f)")
        assert code == 0 and "4*v" in out

    def test_grassmann_fact(self, capsys):
        code, out, _ = run_cli(capsys, "chow", "eval", "grassmann25:c1Fdual",
                               "z^6*f", "--json")
        assert code == 0
        assert json.loads(out)["integral"] == "5"

    @pytest.mark.parametrize("expr", ["z^99999999999", "2^9999999*z^2*f",
                                      "(u+v)^99999999*z^2*f", "z^" + "9" * 5000])
    def test_huge_exponent_fails_fast(self, expr, engine_env):
        # checked before any power is built; a subprocess, so a hang is a timeout
        result = subprocess.run([sys.executable, "-m", "hurwitzcalc.cli", "chow", "eval",
                                 "projbundle:3:u+v", expr],
                                env=engine_env, capture_output=True,
                                text=True, timeout=10)
        assert result.returncode == 2 and "MAX_EXPONENT" in result.stderr
        assert not result.stdout

    @pytest.mark.parametrize("expr", ["(10^100)^50*Rs*Rt", "((10^100)^100)^100*Rs*Rt",
                                      "(((10^100)^100)^100)^100*Rs*Rt"])
    def test_huge_coefficient_fails_fast(self, expr, engine_env):
        # checked before each product; unchecked, the first two escaped at
        # print as a ValueError traceback and the last ran past 30 s.  A
        # subprocess with bounded memory, so a hang is a timeout
        start = time.perf_counter()
        result = subprocess.run([sys.executable, "-m", "hurwitzcalc.cli", "chow", "eval",
                                 "p1xp1", expr],
                                env=engine_env, capture_output=True, text=True, timeout=10,
                                preexec_fn=_bounded_memory)
        assert time.perf_counter() - start < 2
        assert result.returncode == 2 and not result.stdout
        assert f"int/str limit of {sys.get_int_max_str_digits()} digits" in result.stderr
        assert "Traceback" not in result.stderr

    def test_long_integer_literal_is_domain_error(self, capsys):
        # checked before int(), which raises ValueError past the limit
        code, out, err = run_cli(capsys, "chow", "eval", "p1xp1", "1" * 5000 + "*Rs*Rt")
        assert code == 2 and f"limit of {sys.get_int_max_str_digits()} digits" in err
        assert not out

    @pytest.mark.parametrize("ring,expr,limit", [
        ("projbundle:10000:u", "f", "MAX_RANK"), ("projspace_x_p1:10000", "f", "MAX_RANK"),
        ("projspace:100000000", "H", "MAX_RANK"), ("projbundle:1000:u", "f", "MAX_RANK"),
        ("projspace:-3", "H", "MAX_RANK"),
        ("projspace:3", "(a+b+c+d)^100", "MAX_TERM_WORK"),
        ("projspace_x_p1:100", "(u+v)^100*(z+f)^100*(u+v)^100", "MAX_TERM_WORK")])
    def test_out_of_range_input_fails_fast(self, ring, expr, limit, engine_env):
        # checked before the work is done: a rank before the ring is built, a
        # cost before each product; unchecked, the first three and
        # (a+b+c+d)^100 run for minutes
        result = subprocess.run([sys.executable, "-m", "hurwitzcalc.cli", "chow", "eval",
                                 ring, expr],
                                env=engine_env, capture_output=True, text=True, timeout=10)
        assert result.returncode == 2 and limit in result.stderr
        assert not result.stdout

    @pytest.mark.parametrize("expr", ["Rs*+", "/", "Rs*)", "Rs/Rt"])
    def test_malformed_operand_is_domain_error(self, capsys, expr):
        code, out, err = run_cli(capsys, "chow", "eval", "p1xp1", expr)
        assert code == 2 and "domain error" in err and not out

    @pytest.mark.parametrize("ring,expr", [("p1xp1", "Rs^²"), ("p1xp1", "²"),
                                           ("p1xp1", "Rs/²"), ("hirzebruch:²", "tau")])
    def test_non_decimal_digit_is_domain_error(self, capsys, ring, expr):
        # '²'.isdigit() holds, but int('²') raises
        code, out, err = run_cli(capsys, "chow", "eval", ring, expr)
        assert code == 2 and not out
        assert err == "domain error: unexpected character '²' in expression\n"

    def test_decimal_digits_of_any_script(self, capsys):
        code, out, _ = run_cli(capsys, "chow", "eval", "p1xp1", "Rs*Rt*٣", "--json")
        assert code == 0 and json.loads(out)["integral"] == "3"

    @pytest.mark.parametrize("expr", ["Rs/0", "Rs/(Rs-Rs)"])
    def test_division_by_zero_is_domain_error(self, capsys, expr):
        code, out, err = run_cli(capsys, "chow", "eval", "p1xp1", expr)
        assert code == 2 and err == "domain error: division by zero\n" and not out

    def test_malformed_rank_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "chow", "eval", "projbundle:x:u", "z")
        assert code == 2 and err == "domain error: ring rank 'x' is not an integer\n"
        assert not out

    def test_division_by_a_constant_class(self, capsys):
        code, out, _ = run_cli(capsys, "chow", "eval", "p1xp1", "Rs*Rt/2", "--json")
        assert code == 0 and json.loads(out)["integral"] == "1/2"

    @pytest.mark.parametrize("argv", [("1*-(Rs+Rt)^2",), ("--", "-(Rs+Rt)^2")])
    def test_unary_minus_after_an_operator(self, capsys, argv):
        # an expression that starts with '-' follows '--', or argparse reads an option
        code, out, _ = run_cli(capsys, "chow", "eval", "--json", "p1xp1", *argv)
        assert code == 0 and json.loads(out)["integral"] == "-2"

    def test_deep_nesting_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "chow", "eval", "p1xp1",
                                 "(" * 1000 + "Rs" + ")" * 1000)
        assert code == 2 and "nested too deeply" in err and not out

    def test_rank_at_the_limit(self, capsys):
        from hurwitzcalc.chow import MAX_RANK
        code, out, _ = run_cli(capsys, "chow", "eval", f"projbundle:{MAX_RANK}:u",
                               f"z^{MAX_RANK}", "--json")
        assert code == 0 and json.loads(out)["integral"] == "u"
        code, out, _ = run_cli(capsys, "chow", "eval", f"projspace_x_p1:{MAX_RANK}",
                               f"H^{MAX_RANK}*F", "--json")
        assert code == 0 and json.loads(out)["integral"] == "1"

    def test_exponent_at_the_limit(self, capsys):
        from hurwitzcalc.chow import MAX_EXPONENT
        code, out, _ = run_cli(capsys, "chow", "eval", "projbundle:3:u+v",
                               f"(u+v)^{MAX_EXPONENT}*z^2*f", "--json")
        assert code == 0
        terms = set(json.loads(out)["integral"].split(" + "))
        assert {"u^100", "100*u^99*v", "v^100"} <= terms and len(terms) == 101


class TestGraphs:
    def test_enumeration_count(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "enum", "--d", "3", "--g", "4")
        assert code == 0
        assert out.strip().endswith("total: 7 graphs")

    @pytest.mark.parametrize("g", ["-5", "201"])
    def test_genus_out_of_range_is_domain_error(self, capsys, g):
        code, out, err = run_cli(capsys, "graphs", "enum", "--d", "3", "--g", g)
        assert code == 2 and "0 <= g <= 200" in err and not out

    def test_each_graph_is_labelled_once(self, capsys, monkeypatch):
        # the enumeration labels each graph; the command prints those labels
        from hurwitzcalc import graphs
        calls = []
        real = graphs.canonical_label

        def counting(gr):
            calls.append(gr)
            return real(gr)
        monkeypatch.setattr(graphs, "canonical_label", counting)
        graphs._labelled.cache_clear()
        code, out, _ = run_cli(capsys, "graphs", "enum", "--d", "3", "--g", "40", "--json")
        assert code == 0 and len(json.loads(out)) == len(calls) == 61

    def test_json_validates(self, capsys):
        from hurwitzcalc.graphs import DualGraph, validate
        code, out, _ = run_cli(capsys, "graphs", "enum", "--d", "4", "--g", "9",
                               "--json")
        assert code == 0
        for entry in json.loads(out):
            assert validate(DualGraph.from_json(entry), 4, 9)


class TestCertify:
    def test_certified_run(self, capsys, tmp_path):
        emitted = tmp_path / "certificate.json"
        code, out, _ = run_cli(capsys, "yeff", "certify", "--d", "3", "--g", "6",
                               "--emit", str(emitted))
        assert code == 0
        assert "certified" in out
        data = json.loads(emitted.read_text())
        assert data["status"] == "certified"
        assert data["graphs"]

    def test_unwritable_emit_path_is_an_error(self, capsys, tmp_path):
        emitted = tmp_path / "missing" / "c.json"
        code, out, err = run_cli(capsys, "yeff", "certify", "--d", "3", "--g", "4",
                                 "--emit", str(emitted))
        assert code == 1 and not out and not emitted.exists()
        assert err.startswith(f"error: cannot write {emitted}: ")

    def test_certificate_round_trips_through_deserializer(self, capsys, tmp_path):
        from hurwitzcalc.yeff import Certificate, certify
        emitted = tmp_path / "certificate.json"
        run_cli(capsys, "yeff", "certify", "--d", "4", "--g", "9",
                "--emit", str(emitted))
        rebuilt = Certificate.from_json(json.loads(emitted.read_text()))
        fresh = certify(4, 9)
        assert {k: v.lower_bound for k, v in rebuilt.per_graph.items()} == \
            {k: v.lower_bound for k, v in fresh.per_graph.items()}

    def test_inadmissible_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "yeff", "certify", "--d", "5", "--g", "17")
        assert code == 2 and "domain error" in err

    @pytest.mark.parametrize("d,g", [("4", "-3"), ("5", "-4")])
    def test_negative_genus_is_not_admissible(self, capsys, d, g):
        code, _, err = run_cli(capsys, "yeff", "certify", "--d", d, "--g", g)
        assert code == 2 and "is not admissible" in err


    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_failed_certification_exits_three(self, engine_env, flags):
        # a sabotaged slack on the first rule makes its bound negative; the
        # verdict must name it and exit 3, also when asserts are stripped
        from hurwitzcalc.yeff import build_rules
        label = min(build_rules(3, 8))
        script = (
            "from fractions import Fraction\n"
            "from hurwitzcalc import yeff\n"
            "from hurwitzcalc.cli import main\n"
            "real = yeff.build_rules\n"
            "def sabotaged(d, g, scale=Fraction(1)):\n"
            "    rules = real(d, g, scale)\n"
            "    label = min(rules)\n"
            "    rule = rules[label]\n"
            "    rules[label] = yeff.InequalityRule(label, rule.targets, Fraction(-10**6),\n"
            "                                       rule.provenance)\n"
            "    return rules\n"
            "yeff.build_rules = sabotaged\n"
            "raise SystemExit(main(['yeff', 'certify', '--d', '3', '--g', '8']))\n")
        result = subprocess.run([sys.executable, *flags, "-c", script],
                                env=engine_env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 3, result.stdout + result.stderr
        assert f"certification FAILED: failed:{label}" in result.stdout.splitlines()


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "[FAIL]" not in out and "[PASS]" in out

    def test_failure_survives_optimize(self, engine_env):
        # `python -O` strips asserts; a sabotaged slope must still fail and
        # the report must say what was compared
        script = (
            "from fractions import Fraction\n"
            "import hurwitzcalc.selftest as st\n"
            "st.slope_bound = lambda d, g: Fraction(0)\n"
            "raise SystemExit(0 if st.run() is False else 1)\n")
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                env=engine_env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stdout + result.stderr
        assert ("[FAIL] slope pins: derivation check failed: slope_bound(3, 4): "
                "got 0, expected 17/2") in result.stdout
        assert result.stdout.count("[FAIL]") == 1


class TestUsage:
    def test_missing_arguments_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "slope")
        assert exc.value.code == 1

    def test_unknown_command_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "frobnicate")
        assert exc.value.code == 1


# small values reach the engine's valid ranges; large ones test its limits
_INTEGER = st.one_of(st.integers(-3, 60), st.integers(-10**6, 10**12)).map(str)
_DEGREE = st.one_of(st.sampled_from(["3", "4", "5"]), _INTEGER)
_RANK = st.one_of(st.integers(-3, 101), st.integers(-3, 10**12))
_RING = st.one_of(
    st.sampled_from(["p1xp1", "hirzebruch:h", "grassmann25:c1Fdual", "foo"]),
    st.builds("hirzebruch:{}".format, _INTEGER),
    st.builds("projbundle:{}:u+v".format, _RANK),
    st.builds("projspace:{}".format, _RANK),
    st.builds("projspace_x_p1:{}".format, _RANK))
_EXPRESSION = st.lists(
    st.builds("{}^{}".format,
              st.sampled_from(["z", "f", "H", "F", "Rs", "tau", "u", "2", "(u+v)", "(z+f)"]),
              st.one_of(st.integers(0, 101), st.integers(0, 10**12))),
    min_size=1, max_size=3).map("*".join)


@st.composite
def _pencil_argv(draw):
    """Each flag is drawn on its own: a flag the kind does not take is a
    usage error, so passing all three would never reach the engine."""
    argv = ("pencil", draw(st.sampled_from(PENCIL_KINDS + ("nonexistent_kind",))))
    for flag in ("--gr", "--g", "--dv"):
        if draw(st.booleans()):
            argv += (flag, draw(_INTEGER))
    return argv


_ARGV = st.one_of(
    st.tuples(st.just("slope"), _DEGREE, _INTEGER),
    st.tuples(st.just("class"), st.sampled_from(["maroni", "ce", "x"]), _DEGREE,
              st.just("--at"), _INTEGER),
    st.tuples(st.just("invariants"), st.just("--d"), _DEGREE, st.just("--g"), _INTEGER,
              st.just("--ch2e"), _INTEGER, st.just("--ch2f"), _INTEGER,
              st.just("--c1sq"), _INTEGER),
    _pencil_argv(),
    st.tuples(st.just("chow"), st.just("eval"), _RING, _EXPRESSION),
    st.tuples(st.just("graphs"), st.just("enum"), st.just("--d"), _DEGREE,
              st.just("--g"), _INTEGER),
    st.tuples(st.just("yeff"), st.just("certify"), st.just("--d"), _DEGREE,
              st.just("--g"), _INTEGER),
    st.just(("selftest",)))

# seconds one fuzzed call may take; the slowest valid calls (a certificate
# near graphs.MAX_GENUS, a power at MAX_EXPONENT) take well under one
_CALL_BOUND_S = 10


def _assert_documented_exit(argv: list[str]) -> None:
    """One in-process call ends, within the bound, with a documented exit
    code and no traceback; an exception that escapes `main` fails the test."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # usage errors
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < _CALL_BOUND_S, (argv, elapsed)


# inputs that once escaped `main` as a ValueError, and their neighbours
_HOSTILE = [("p1xp1", "Rs^²"), ("p1xp1", "²"), ("p1xp1", "Rs/²"), ("hirzebruch:²", "tau"),
            ("p1xp1", "1" * 5000 + "*Rs*Rt"), ("projspace:²", "H"),
            ("projspace:" + "9" * 5000, "H"), ("p1xp1", "Rs*٣"), ("p1xp1", "x/(2-2)"),
            ("p1xp1", "(Rs")]


class TestFuzz:
    @settings(max_examples=40, deadline=None)
    @given(_ARGV, st.booleans())
    def test_every_call_ends_with_a_documented_exit_code(self, argv, as_json):
        _assert_documented_exit(list(argv) + ["--json"] * as_json)

    @pytest.mark.parametrize("ring,expr", _HOSTILE, ids=lambda x: x[:12])
    def test_hostile_input_ends_with_a_documented_exit_code(self, ring, expr):
        _assert_documented_exit(["chow", "eval", ring, expr])


def _load_workloads():
    """The benchmark's workload module, loaded from its file: `bench` is not
    a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# SHA-256 over (argv, exit code, stdout) of every call the `cli_cold`
# workload can make, recorded before the rule builders of `yeff` were merged
_CLI_UNIVERSE_DIGEST = "2a8fe8c28f208098d7fe0d3fbb26bcd4a12b22f3474166f3b10de4c817e7790c"


def test_cli_universe_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _load_workloads().cli_universe():
        code = main(list(argv))
        out = capsys.readouterr().out
        digest.update(json.dumps([list(argv), code, out]).encode())
    assert digest.hexdigest() == _CLI_UNIVERSE_DIGEST
