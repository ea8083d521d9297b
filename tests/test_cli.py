"""Command-line surface: parsing, evaluation, subcommands, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liamath import cli
from liamath.cli import MAX_DEPTH, CliError, Evaluator, main, parse, render_value
from liamath.conformance import ConformanceDescriptor, describe_conformance
from liamath.environment import evaluation_context
from liamath.fpcore import QNAN, SNAN
from liamath.interval import Interval


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def ev(text):
    with evaluation_context():
        return Evaluator().eval(parse(text))


class TestParse:
    def test_forms(self):
        assert parse("(+ 1 2)") == ["+", 1.0, 2.0]
        assert parse("(* (+ 1 2) (sqrt 2))") == ["*", ["+", 1.0, 2.0], ["sqrt", 2.0]]
        assert parse("x") == "x"
        assert parse(":zero") == ":zero"

    def test_numbers(self):
        assert parse("-3.5e2") == -350.0
        assert parse(".5") == 0.5
        assert parse("+7") == 7.0
        assert parse("0x1.8p1") == 3.0
        assert parse("-0x1p-2") == -0.25

    def test_comments_and_whitespace(self):
        assert parse("  ( +  1\n\t2 ) ; trailing words") == ["+", 1.0, 2.0]
        assert parse("(+ 1 ; inline\n 2)") == ["+", 1.0, 2.0]

    def test_error_positions(self):
        with pytest.raises(CliError) as info:
            parse("(+ 1")
        assert info.value.line == 1 and info.value.col == 1
        assert "unclosed" in str(info.value)

        with pytest.raises(CliError) as info:
            parse("\n )")
        assert info.value.line == 2 and info.value.col == 2

        with pytest.raises(CliError) as info:
            parse("(+ 1 2) 3")
        assert info.value.line == 1 and info.value.col == 9

        with pytest.raises(CliError):
            parse("")
        with pytest.raises(CliError):
            parse("0xzz")

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            ("(+ 1\n\n   2 0xzz)", 3, 6, "malformed hex float '0xzz'"),
            ("\t(\t+ 1 \t0xq)", 1, 9, "malformed hex float '0xq'"),
            ("(+ 1\r\n 2) )", 2, 5, "unexpected ')' after expression"),
            ("; comment (\n(+ 1 2", 2, 1, "unclosed parenthesis opened here"),
            ("(+ 1 (- 2 3)", 1, 1, "unclosed parenthesis opened here"),
            ("(+ (- 2 3) (* 4", 1, 12, "unclosed parenthesis opened here"),
            ("(+ 0xg (- 1", 1, 4, "malformed hex float '0xg'"),
            ("(+ 1 2)\n\n  foo", 3, 3, "unexpected 'foo' after expression"),
            ("; nothing here\n  ; more\n", 1, 1, "empty input"),
            (") (+ 1 2)", 1, 1, "unexpected ')'"),
        ],
    )
    def test_error_edge_cases(self, text, line, col, message):
        with pytest.raises(CliError) as info:
            parse(text)
        assert (info.value.line, info.value.col) == (line, col)
        assert str(info.value) == f"line {line}, column {col}: {message}"

    def test_flat_wide_form(self):
        assert parse("(" + " 1" * 20_000 + ")") == [1.0] * 20_000


class TestDepthLimit:
    def test_over_deep_input_is_a_syntax_error(self, capsys):
        rc, out, err = run(capsys, "eval", "(+ 1 " * 3000 + "1" + ")" * 3000)
        assert rc == 1 and out == ""
        assert err == "liamath: line 1, column 1001: nesting deeper than 200\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "opening, levels, innermost, closing, value",
        [
            ("(+ 1 ", MAX_DEPTH, "1", ")", 201.0),
            ("(rounding :zero ", MAX_DEPTH, "1", ")", 1.0),
            ("(style :recording ", MAX_DEPTH, "1", ")", 1.0),
            # each empty option list is one level below its trap-math
            ("(trap-math () ", MAX_DEPTH - 1, "(/ 1 0)",
             " (:divide-by-zero :continue))", math.inf),
        ],
    )
    def test_deepest_accepted_forms_evaluate(self, opening, levels, innermost, closing, value):
        text = opening * levels + innermost + closing * levels
        with pytest.raises(CliError, match="nesting deeper than 200"):
            parse("(" + text + ")")
        assert ev(text) == value

    def test_exhausted_handler_stack_exits_one(self, capsys, monkeypatch):
        # Each clause continues with a fresh divide-by-zero, which the next
        # outer clause handles inside the notification that is still open.
        depth = 150
        text = (
            "(trap-math () " * depth + "(/ 1 0)"
            + " (:divide-by-zero (:continue (/ 1 0))))" * depth
        )
        rc, out, err = run(capsys, "eval", text)
        assert rc == 1 and out == ""
        assert err == "liamath: expression nested too deeply\n"

        # The repl goes on with no handler frame left over from the failed
        # line: the next division by zero is unhandled again.
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n(/ 1 0)\n(+ 1 2)\n"))
        assert main(["repl"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "liamath: expression nested too deeply\n"
            "LIA-error: divide-by-zero in div(1, 0) continuation=+inf\n"
        )
        assert captured.out == "3 (0x1.8000000000000p+1)\n"


class TestRenderValue:
    def test_scalars(self):
        assert render_value(1.5) == "1.5 (0x1.8000000000000p+0)"
        assert render_value(3.0) == "3 (0x1.8000000000000p+1)"
        assert render_value(-0.0) == "-0.0 (-0x0.0p+0)"

    def test_specials_are_bare_symbols(self):
        assert render_value(math.inf) == "+inf"
        assert render_value(-math.inf) == "-inf"
        assert render_value(QNAN) == "qnan"
        assert render_value(SNAN) == "snan"

    def test_booleans_and_intervals(self):
        assert render_value(True) == "true"
        assert render_value(False) == "false"
        assert render_value(Interval(1.0, 2.0)) == "[1, 2]"


class TestEvaluator:
    def test_arithmetic_and_constants(self):
        assert ev("(+ 0.1 0.2)") == 0.30000000000000004
        assert ev("(+.< 0.1 0.2)") == 0.3
        assert ev("(/.> 1 3)") == 0.33333333333333337
        assert ev("pi") == math.pi
        assert ev("(sqrt 2)") == 1.4142135623730951

    def test_interval_forms(self):
        assert ev("(interval 1 2)") == Interval(1.0, 2.0)
        assert ev("(+ (interval 1 2) (interval 10 20))") == Interval(11.0, 22.0)
        assert ev("(radius (interval 1 2))") == 1.0
        assert ev("(member? 1.5 (interval 1 2))") is True
        assert ev("(subset? (interval 1 2) (interval 0 3))") is True
        assert ev("(point? (interval 2 2))") is True

    def test_comparison_forms(self):
        assert ev("(= 0 -0.0)") is True
        assert ev("(/= qnan qnan)") is True
        assert ev("(= 1 1 2)") is False

    def test_scoping_forms(self):
        assert ev("(rounding :zero (+ 0.1 0.2))") == 0.3
        assert ev("(style :recording (/ 1 0))") == math.inf

    def test_bad_forms(self):
        for text in (
            "(frob 1)",
            "(+ 1)",
            "(sqrt 1 2)",
            "(+ 1 (interval 1 2))",
            "(+.< (interval 1 2) (interval 1 2))",
            "(sqrt (interval 1 4))",
            "(:zero)",
            "(rounding :sideways 1)",
            "(member? (interval 1 2) 1)",
            "nope",
            "()",
        ):
            with pytest.raises(CliError):
                ev(text)


class TestEvalCommand:
    def test_value_line(self, capsys):
        rc, out, err = run(capsys, "eval", "(+ 0.1 0.2)")
        assert rc == 0 and err == ""
        assert out == "0.30000000000000004 (0x1.3333333333334p-2)\n"

    def test_directed_suffix(self, capsys):
        rc, out, _ = run(capsys, "eval", "(+.< 0.1 0.2)")
        assert rc == 0
        assert out == "0.3 (0x1.3333333333333p-2)\n"

    def test_special_value_output(self, capsys):
        rc, out, _ = run(capsys, "eval", "(style :recording (/ 1 0))")
        assert rc == 0
        assert out == "+inf\n"

    def test_rounding_option(self, capsys):
        rc, out, _ = run(capsys, "eval", "--rounding", "zero", "(+ 0.1 0.2)")
        assert rc == 0
        assert out.startswith("0.3 ")

    def test_dump_env(self, capsys):
        rc, out, _ = run(capsys, "eval", "--dump-env", "(+ 0.1 0.2)")
        assert rc == 0
        lines = out.splitlines()
        assert lines == [
            "0.30000000000000004 (0x1.3333333333334p-2)",
            "flags: inexact",
            "mode: nearest-even",
        ]

    def test_dump_env_clean(self, capsys):
        rc, out, _ = run(
            capsys, "eval", "--dump-env", "--rounding", "positive-infinity", "(+ 1 2)"
        )
        assert out.splitlines() == [
            "3 (0x1.8000000000000p+1)",
            "flags: none",
            "mode: positive-infinity",
        ]

    def test_error_style_diagnostic(self, capsys):
        rc, out, err = run(capsys, "eval", "(/ 1 0)")
        assert rc == 1 and out == ""
        assert err == "LIA-error: divide-by-zero in div(1, 0) continuation=+inf\n"

    def test_recording_style_flag(self, capsys):
        rc, out, err = run(capsys, "eval", "--style", "recording", "(/ 1 0)")
        assert rc == 0 and err == ""
        assert out == "+inf\n"

    def test_terminating_style_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--style", "terminating", "(/ 1 0)"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == "LIA-NTM: divide-by-zero in div(1, 0) continuation=+inf\n"

    def test_syntax_error(self, capsys):
        rc, out, err = run(capsys, "eval", "(+ 1")
        assert rc == 1 and out == ""
        assert err.startswith("liamath: line 1, column 1: unclosed")

    def test_unknown_operator(self, capsys):
        rc, _, err = run(capsys, "eval", "(frob 1)")
        assert rc == 1
        assert "unknown operator" in err


    @pytest.mark.parametrize(
        "text, message",
        [
            ("(rounding (1) 2)", "unknown rounding mode keyword (1)"),
            ("(style (x) 1)", "unknown style keyword (x)"),
            ("(trap-math () 1 ((x)))", "unknown indicator keyword (x)"),
            (
                "(trap-math () (/ 1 0) (:divide-by-zero (:raise (x))))",
                "(:raise <kind-keyword> [<payload>]) is the re-kind form",
            ),
        ],
    )
    def test_list_in_keyword_position(self, capsys, text, message):
        rc, out, err = run(capsys, "eval", text)
        assert rc == 1 and out == ""
        assert err == f"liamath: {message}\n"

    @pytest.mark.parametrize(
        "text, col, literal",
        [("0x1p9999", 1, "0x1p9999"), ("(+ 1 -0x1p2000)", 6, "-0x1p2000")],
    )
    def test_hex_float_out_of_range(self, capsys, text, col, literal):
        rc, out, err = run(capsys, "eval", text)
        assert rc == 1 and out == ""
        assert err == f"liamath: line 1, column {col}: hex float {literal!r} out of range\n"


class TestTrapForms:
    def test_continue_with_value(self, capsys):
        rc, out, _ = run(
            capsys,
            "eval",
            "(trap-math (:notify-by :error) (/ 1 0)"
            " (:divide-by-zero (:continue 42)))",
        )
        assert rc == 0
        assert out == "42 (0x1.5000000000000p+5)\n"

    def test_bare_continue_uses_standard_continuation(self, capsys):
        rc, out, _ = run(
            capsys,
            "eval",
            "(trap-math (:notify-by :error) (/ 1 0) (:divide-by-zero :continue))",
        )
        assert rc == 0 and out == "+inf\n"

    def test_save_clear_merge_scenario(self, capsys):
        rc, out, _ = run(
            capsys,
            "eval",
            "--dump-env",
            "(trap-math (:notify-by :error :before :save :clear :after :merge)"
            " (* max-finite 2) (:overflow :clear (:continue 42)))",
        )
        assert rc == 0
        assert out.splitlines() == [
            "42 (0x1.5000000000000p+5)",
            "flags: inexact",
            "mode: nearest-even",
        ]

    def test_grouped_option_spelling(self, capsys):
        rc, out, _ = run(
            capsys,
            "eval",
            "(trap-math (:notify-by :error (:before (:save :clear))"
            " (:after (:merge))) (+ 1 1))",
        )
        assert rc == 0 and out == "2 (0x1.0000000000000p+1)\n"

    def test_raise_new_kind_escapes_unhandled(self, capsys):
        rc, _, err = run(
            capsys,
            "eval",
            "(trap-math (:notify-by :error) (/ 1 0) (:divide-by-zero (:raise :overflow)))",
        )
        assert rc == 1
        assert err == "LIA-error: overflow in div(1, 0) continuation=+inf\n"

    def test_bad_trap_options(self, capsys):
        rc, _, err = run(
            capsys, "eval", "(trap-math (:after :merge) (+ 1 1))"
        )
        assert rc == 1
        assert "merge" in err

    def test_bad_clause_keyword(self, capsys):
        rc, _, err = run(
            capsys, "eval", "(trap-math () (+ 1 1) (:sideways :continue))"
        )
        assert rc == 1
        assert "indicator" in err


class TestConformanceCommand:
    def test_flat_output_round_trips(self, capsys):
        rc, out, err = run(capsys, "conformance")
        assert rc == 0 and err == ""
        assert ConformanceDescriptor.from_flat(out) == describe_conformance()
        names = [line.split(":")[0] for line in out.splitlines()]
        assert names == sorted(names)

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "conformance", "--json")
        assert rc == 0
        assert json.loads(out) == describe_conformance().to_mapping()

    def test_exclusive_format_flags(self, capsys):
        rc, _, err = run(capsys, "conformance", "--flat", "--json")
        assert rc == 1
        assert err.startswith("liamath: ")


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 1 and err.startswith("liamath: ")

    def test_unknown_subcommand(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 1 and err.startswith("liamath: ")

    def test_bad_style_choice(self, capsys):
        rc, _, err = run(capsys, "eval", "--style", "loud", "(+ 1 1)")
        assert rc == 1 and err.startswith("liamath: ")


class TestParserReuse:
    """The argument parser is built once per process; each call through it
    prints what the same call prints first in a fresh interpreter."""

    CALLS = [
        ["eval", "--style", "recording", "--rounding", "zero", "--dump-env", "(/ 1 3)"],
        ["eval", "--rounding", "sideways", "x"],
        ["eval", "(/ 1 3)"],
        ["conformance", "--json"],
        ["eval", "--help"],
        ["eval", "--help"],
    ]

    FRESH = (
        "import contextlib, io, json, sys\n"
        "from liamath.cli import main\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    try:\n"
        "        rc = main(json.loads(sys.argv[1]))\n"
        "    except SystemExit as stop:\n"
        "        rc = stop.code\n"
        "print(json.dumps([out.getvalue(), err.getvalue(), rc]))\n"
    )

    def fresh(self, argv):
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.FRESH, json.dumps(argv)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=120, check=True,
        )
        return json.loads(done.stdout)

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.CALLS:
            try:
                rc = main(argv)
            except SystemExit as stop:
                rc = stop.code
            captured = capsys.readouterr()
            assert [captured.out, captured.err, rc] == self.fresh(argv), argv


# Every word the expression grammar gives a meaning to, and numbers of each
# spelling, malformed and out-of-range hex among them.
_KEYWORDS = sorted(
    set(cli._MODE_KEYWORDS) | set(cli._STYLE_KEYWORDS) | set(cli._KIND_KEYWORDS)
    | {":notify-by", ":before", ":after", ":save", ":clear", ":merge", ":default",
       ":raise", ":continue"}
)
_WORDS = sorted(
    set(_KEYWORDS) | set(cli._ARITH) | set(cli._CONSTANTS)
    | {"=", "/=", "interval", "radius", "point?", "member?", "subset?", "rounding",
       "style", "trap-math"}
)
_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(float.hex),
    st.sampled_from(["0", "-0.0", ".5", "1e308", "1e999", "0x1p9999", "0xg", "0x", "+7"]),
)
_ATOMS = st.one_of(st.sampled_from(_WORDS), _NUMBERS, st.text(max_size=4))


def _paren(items) -> str:
    return "(" + " ".join(items) + ")"


def _grow(inner):
    """Lists of anything, and the special forms' shapes with either a
    keyword or any other form, a list included, in each keyword slot."""
    def slot(words):
        return st.one_of(st.sampled_from(words), inner, st.lists(inner, max_size=2).map(_paren))

    keyword, kind = slot(_KEYWORDS), slot(sorted(cli._KIND_KEYWORDS))
    action = st.one_of(
        st.sampled_from([":default", ":clear", ":raise", ":continue"]),
        inner,
        st.tuples(st.just(":continue"), inner).map(_paren),
        st.tuples(st.just(":raise"), kind, st.lists(inner, max_size=1))
        .map(lambda t: _paren([t[0], t[1], *t[2]])),
    )
    options = st.one_of(st.just("()"), st.lists(keyword, max_size=4).map(_paren))
    clause = st.tuples(kind, st.lists(action, max_size=3)).map(lambda t: _paren([t[0], *t[1]]))
    return st.one_of(
        st.lists(inner, max_size=6).map(_paren),
        st.tuples(st.sampled_from(["rounding", "style"]), keyword, inner).map(_paren),
        st.tuples(options, inner, st.lists(clause, max_size=3))
        .map(lambda t: _paren(["trap-math", t[0], t[1], *t[2]])),
    )


_FORMS = st.recursive(_ATOMS, _grow, max_leaves=24)


class TestFuzz:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(text=st.one_of(st.text(), _FORMS))
    def test_eval_gives_an_exit_status(self, text):
        for style in ("recording", "error", "terminating"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(["eval", "--style", style, text])
                except SystemExit as stop:
                    rc = stop.code
            assert rc in (0, 1, 2), (style, text)


class TestRepl:
    def feed(self, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_session(self, capsys, monkeypatch):
        self.feed(monkeypatch, "(+ 1 2)\n\n(style :recording (/ 1 0))\n:quit\n")
        rc = main(["repl"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.splitlines() == [
            "3 (0x1.8000000000000p+1)",
            "+inf",
        ]
        assert captured.err == ""

    def test_recovers_from_errors(self, capsys, monkeypatch):
        self.feed(monkeypatch, "(+ 1\n(/ 1 0)\n(+ 2 2)\n")
        rc = main(["repl"])
        captured = capsys.readouterr()
        assert rc == 0
        err_lines = captured.err.splitlines()
        assert err_lines[0].startswith("liamath: line 1, column 1")
        assert err_lines[1].startswith("LIA-error: divide-by-zero")
        assert captured.out.splitlines() == ["4 (0x1.0000000000000p+2)"]

    def test_environment_persists_across_lines(self, capsys, monkeypatch):
        self.feed(monkeypatch, "(+ 0.1 0.2)\n(/ 1 0)\n")
        rc = main(["repl", "--style", "recording", "--dump-env"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[1] == "flags: inexact"
        # the second line's flags accumulate onto the first's
        assert lines[4] == "flags: divide-by-zero, inexact"

    def test_eof_ends_session(self, capsys, monkeypatch):
        self.feed(monkeypatch, "(+ 1 1)\n")
        assert main(["repl"]) == 0
        assert capsys.readouterr().out == "2 (0x1.0000000000000p+1)\n"
