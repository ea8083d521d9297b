"""Command-line surface: an s-expression evaluator over the library.

Subcommands:

  eval <expr>    evaluate one expression and print its value
  conformance    print the conformance report (flat text or JSON)
  repl           line-oriented loop sharing one environment across lines

Expression language:

  (+ a b) (- a b) (* a b) (/ a b) (sqrt x)     ambient rounding mode
  suffixed forms round hard: +.< toward -inf, +.> toward +inf,
  +.<> to nearest even (same suffixes on - * / sqrt)
  (= a b ...) (/= a b ...)                     comparison chains
  (interval lo hi) (radius i) (point? i)
  (member? x i) (subset? i1 i2)                interval layer; unsuffixed
                                               + - * / accept two intervals
  (rounding <mode-keyword> <expr>)             scope the ambient mode
  (style <style-keyword> <expr>)               scope the notification style
  (trap-math (<options>) <body> <clause>*)     handler scopes

Mode keywords: :nearest-even :nearest :zero :positive-infinity
:negative-infinity.  Style keywords: :recording :error :terminating.
Trap options: :notify-by <style>, :before :save :clear, :after :merge
(the grouped spelling (:before (:save :clear)) is also accepted).
Clauses look like (:overflow :clear (:continue <expr>)); actions are
:default :clear :raise (:raise <kind> [payload]) :continue
(:continue <expr>).

Constants: pi e max-finite min-normal min-subnormal +inf -inf qnan snan
true false.  Numbers may be decimal or C99 hex floats.  Lists nest at
most MAX_DEPTH (200) deep; deeper input is a syntax error.

Exit status: 0 success, 1 usage/syntax/evaluation errors, over-deep input
included (an unhandled error-style notification prints an LIA-error line),
2 terminating-style notification (after its LIA-NTM line).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import interval as ivl
from . import ops
from .conformance import describe_conformance
from .environment import (
    CLEAR,
    Continue,
    DEFAULT,
    FloatingPointNotification,
    FpEnvironment,
    HandlerClause,
    Indicator,
    NotificationStyle,
    RERAISE,
    RaiseNew,
    TrapOptions,
    diagnostic,
    evaluation_context,
    notification_style,
    rounding_mode,
    trap_math,
)
from .fpcore import MAX_FINITE, MIN_NORMAL, MIN_SUBNORMAL, QNAN, SNAN, decimal_form
from .interval import Interval
from .rounding import RoundingMode

__all__ = ["main", "parse", "Evaluator", "render_value", "CliError"]


class CliError(Exception):
    """Anything wrong with the input: syntax, unknown names, bad arity."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


MAX_DEPTH = 200

# A parenthesis, a comment running to the end of its line, or an atom.
_TOKEN = re.compile(r"[()]|;[^\n]*|[^ \t\r\n();]+")
_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _error_at(text: str, index: int, message: str) -> CliError:
    """CliError at the index-th token of text, comments not counted; a tab
    or CR is one column.  Tokens carry no offsets, so the offset is found
    by scanning again: only errors pay for it."""
    pos = [m.start() for m in _TOKEN.finditer(text) if m[0][0] != ";"][index]
    return CliError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _atom(tok: str, text: str, index: int):
    if _NUMBER.match(tok):
        return float(tok)
    if tok.lower().startswith(("0x", "+0x", "-0x")):
        try:
            return float.fromhex(tok)
        except ValueError:
            raise _error_at(text, index, f"malformed hex float {tok!r}") from None
        except OverflowError:
            raise _error_at(text, index, f"hex float {tok!r} out of range") from None
    return tok


def parse(text: str):
    """One expression -> nested lists of floats and symbol strings."""
    tokens = _TOKEN.findall(text)
    if ";" in text:  # only a comment can hold one
        tokens = [tok for tok in tokens if tok[0] != ";"]
    if not tokens:
        raise CliError("empty input", 1, 1)
    stack: list[tuple[list, int]] = []  # open lists with the indexes of their '('
    for i, tok in enumerate(tokens):
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise _error_at(text, i, f"nesting deeper than {MAX_DEPTH}")
            stack.append(([], i))
            continue
        if tok == ")":
            if not stack:
                raise _error_at(text, i, "unexpected ')'")
            form = stack.pop()[0]
        else:
            form = _atom(tok, text, i)
        if not stack:
            break
        stack[-1][0].append(form)
    else:
        raise _error_at(text, stack[-1][1], "unclosed parenthesis opened here")
    if i + 1 < len(tokens):
        raise _error_at(text, i + 1, f"unexpected {tokens[i + 1]!r} after expression")
    return form


def _unparse(form) -> str:
    if isinstance(form, list):
        return "(" + " ".join(_unparse(f) for f in form) + ")"
    if isinstance(form, float):
        return decimal_form(form)
    return str(form)


_MODE_KEYWORDS = {
    ":" + m.label: m for m in RoundingMode if m is not RoundingMode.INDETERMINATE
}
_STYLE_KEYWORDS = {":" + s.value: s for s in NotificationStyle}
_KIND_KEYWORDS = {":" + k.value: k for k in Indicator}

_CONSTANTS = {
    "pi": math.pi,
    "e": math.e,
    "max-finite": MAX_FINITE,
    "min-normal": MIN_NORMAL,
    "min-subnormal": MIN_SUBNORMAL,
    "+inf": math.inf,
    "-inf": -math.inf,
    "qnan": QNAN,
    "snan": SNAN,
    "true": True,
    "false": False,
}

_SCALAR_FOR_INTERVAL = {"+": ivl.i_add, "-": ivl.i_sub, "*": ivl.i_mul, "/": ivl.i_div}

_ARITH: dict[str, tuple[str, RoundingMode | None]] = {}
for _sym, _name in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "div"), ("sqrt", "sqrt")):
    _ARITH[_sym] = (_name, None)
    _ARITH[_sym + ".<"] = (_name, RoundingMode.TO_NEGATIVE_INFINITY)
    _ARITH[_sym + ".<>"] = (_name, RoundingMode.TO_NEAREST_EVEN)
    _ARITH[_sym + ".>"] = (_name, RoundingMode.TO_POSITIVE_INFINITY)


class Evaluator:
    """Evaluates parsed forms against the ambient evaluation context."""

    def eval(self, form):
        if isinstance(form, float):
            return form
        if isinstance(form, str):
            if form in _CONSTANTS:
                return _CONSTANTS[form]
            if form.startswith(":"):
                raise CliError(f"keyword {form} in value position")
            raise CliError(f"unknown symbol {form!r}")
        if not form:
            raise CliError("empty form ()")
        head = form[0]
        if not isinstance(head, str):
            raise CliError(f"operator position holds {_unparse(head)}")
        if head == "rounding":
            return self._eval_scoped(form, rounding_mode, _MODE_KEYWORDS,
                                     "(rounding <mode-keyword> <expr>)", "rounding mode")
        if head == "style":
            return self._eval_scoped(form, notification_style, _STYLE_KEYWORDS,
                                     "(style <style-keyword> <expr>)", "style")
        if head == "trap-math":
            return self._eval_trap(form)
        if head in _ARITH:
            return self._apply_arith(head, form[1:])
        if head == "=":
            return ops.eq(*self._floats(head, form[1:], minimum=1))
        if head == "/=":
            return ops.neq(*self._floats(head, form[1:], minimum=1))
        if head == "interval":
            lo, hi = self._floats(head, form[1:], exactly=2)
            return ivl.make_interval(lo, hi)
        if head == "radius":
            (i,) = self._intervals(head, form[1:], exactly=1)
            return ivl.radius(i)
        if head == "point?":
            (i,) = self._intervals(head, form[1:], exactly=1)
            return ivl.is_point(i)
        if head == "member?":
            args = [self.eval(f) for f in form[1:]]
            if len(args) != 2 or not _is_scalar(args[0]) or not isinstance(args[1], Interval):
                raise CliError("member? expects a number and an interval")
            return ivl.i_member(args[0], args[1])
        if head == "subset?":
            i1, i2 = self._intervals(head, form[1:], exactly=2)
            return ivl.i_subseteq(i1, i2)
        raise CliError(f"unknown operator {head!r}")

    # -- argument helpers --

    def _floats(self, op, forms, minimum=None, exactly=None):
        args = [self.eval(f) for f in forms]
        if exactly is not None and len(args) != exactly:
            raise CliError(f"{op} expects {exactly} argument(s), got {len(args)}")
        if minimum is not None and len(args) < minimum:
            raise CliError(f"{op} expects at least {minimum} argument(s)")
        for a in args:
            if not _is_scalar(a):
                raise CliError(f"{op} expects numbers, got {render_value(a)}")
        return args

    def _intervals(self, op, forms, exactly):
        args = [self.eval(f) for f in forms]
        if len(args) != exactly:
            raise CliError(f"{op} expects {exactly} argument(s), got {len(args)}")
        for a in args:
            if not isinstance(a, Interval):
                raise CliError(f"{op} expects intervals, got {render_value(a)}")
        return args

    def _apply_arith(self, sym, arg_forms):
        name, mode = _ARITH[sym]
        args = [self.eval(f) for f in arg_forms]
        arity = 1 if name == "sqrt" else 2
        if len(args) != arity:
            raise CliError(f"{sym} expects {arity} argument(s), got {len(args)}")
        if all(_is_scalar(a) for a in args):
            fn = getattr(ops, name)
            return fn(*args, mode=mode)
        if all(isinstance(a, Interval) for a in args):
            if mode is not None:
                raise CliError(f"{sym} is a scalar form; intervals use the plain operator")
            if name == "sqrt":
                raise CliError("sqrt takes a number, not an interval")
            return _SCALAR_FOR_INTERVAL[sym](*args)
        raise CliError(f"{sym} cannot mix numbers and intervals")

    # -- special forms --

    def _eval_scoped(self, form, scope, keywords, usage, what):
        """(<head> <keyword> <expr>): expr evaluated inside scope(value)."""
        if len(form) != 3:
            raise CliError(usage)
        kw = form[1]
        if not isinstance(kw, str) or kw not in keywords:
            raise CliError(f"unknown {what} keyword {_unparse(kw)}")
        with scope(keywords[kw]):
            return self.eval(form[2])

    def _eval_trap(self, form):
        if len(form) < 3 or not isinstance(form[1], list):
            raise CliError("(trap-math (<options>) <body> <clause>*)")
        options = self._parse_trap_options(form[1])
        body_form = form[2]
        clauses = [self._parse_clause(f) for f in form[3:]]
        return trap_math(options, lambda: self.eval(body_form), *clauses)

    def _parse_trap_options(self, items) -> TrapOptions:
        notify_by = NotificationStyle.ERROR
        before: list[str] = []
        after: list[str] = []
        expect_style = False
        target: list[str] | None = None

        def feed(tok):
            nonlocal notify_by, expect_style, target
            if expect_style:
                if tok not in _STYLE_KEYWORDS:
                    raise CliError(f":notify-by needs a style keyword, got {_unparse(tok)}")
                notify_by = _STYLE_KEYWORDS[tok]
                expect_style = False
                return
            if tok == ":notify-by":
                expect_style = True
                target = None
                return
            if tok == ":before":
                target = before
                return
            if tok == ":after":
                target = after
                return
            if tok in (":save", ":clear", ":merge"):
                if target is None:
                    raise CliError(f"{tok} must follow :before or :after")
                target.append(tok[1:])
                return
            raise CliError(f"unknown trap option {_unparse(tok)}")

        def walk(item):
            if isinstance(item, list):
                for sub in item:
                    walk(sub)
            else:
                feed(item)

        for item in items:
            walk(item)
        if expect_style:
            raise CliError(":notify-by needs a style keyword")
        try:
            return TrapOptions(notify_by=notify_by, before=tuple(before), after=tuple(after))
        except ValueError as exc:
            raise CliError(str(exc)) from None

    def _parse_clause(self, form) -> HandlerClause:
        if not isinstance(form, list) or not form:
            raise CliError("handler clause must be (<kind-keyword> <action>*)")
        kw = form[0]
        if not isinstance(kw, str) or kw not in _KIND_KEYWORDS:
            raise CliError(f"unknown indicator keyword {_unparse(kw)}")
        actions = []
        for item in form[1:]:
            if item == ":default":
                actions.append(DEFAULT)
            elif item == ":clear":
                actions.append(CLEAR)
            elif item == ":raise":
                actions.append(RERAISE)
            elif item == ":continue":
                actions.append(Continue())
            elif isinstance(item, list) and item and item[0] == ":continue":
                if len(item) != 2:
                    raise CliError("(:continue <expr>) takes one expression")
                expr = item[1]
                actions.append(Continue(lambda e=expr: self.eval(e)))
            elif isinstance(item, list) and item and item[0] == ":raise":
                if (len(item) not in (2, 3) or not isinstance(item[1], str)
                        or item[1] not in _KIND_KEYWORDS):
                    raise CliError("(:raise <kind-keyword> [<payload>]) is the re-kind form")
                kind = _KIND_KEYWORDS[item[1]]
                if len(item) == 3:
                    actions.append(RaiseNew(kind, self.eval(item[2])))
                else:
                    actions.append(RaiseNew(kind))
            else:
                raise CliError(f"unknown handler action {_unparse(item)}")
        try:
            return HandlerClause(_KIND_KEYWORDS[kw], *actions)
        except ValueError as exc:
            raise CliError(str(exc)) from None


def _is_scalar(v) -> bool:
    return isinstance(v, float) and not isinstance(v, bool)


def render_value(v) -> str:
    """Result line: booleans as words, intervals bracketed, finite scalars
    as shortest decimal plus hex, specials as bare symbols."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Interval):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v) or math.isinf(v):
            return decimal_form(v)
        return f"{decimal_form(v)} ({v.hex()})"
    return str(v)


def _flags_line(env: FpEnvironment) -> str:
    if not env.flags:
        return "flags: none"
    return "flags: " + ", ".join(sorted(k.value for k in env.flags))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # terminating-style notifications here, so usage errors become 1.
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built on the first main() call and reused: parse_args keeps no state
    # in the parser between calls.
    parser = _Parser(prog="liamath", description="LIA arithmetic evaluator")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one expression")
    pe.add_argument("expression")
    _add_env_flags(pe, "the value")

    pc = sub.add_parser("conformance", help="print the conformance report")
    fmt = pc.add_mutually_exclusive_group()
    fmt.add_argument("--flat", action="store_true", help="flat text (default)")
    fmt.add_argument("--json", action="store_true", help="JSON object")

    pr = sub.add_parser("repl", help="line-oriented evaluation loop")
    _add_env_flags(pr, "each value")
    return parser


def _add_env_flags(p: argparse.ArgumentParser, dumped_after: str) -> None:
    p.add_argument(
        "--style",
        choices=sorted(s.value for s in NotificationStyle),
        default="error",
        help="notification style (default error)",
    )
    p.add_argument(
        "--rounding",
        choices=sorted(kw[1:] for kw in _MODE_KEYWORDS),
        default="nearest-even",
        help="ambient rounding mode (default nearest-even)",
    )
    p.add_argument(
        "--dump-env",
        action="store_true",
        help=f"print the flags and mode lines after {dumped_after}",
    )


def _fresh_env(args) -> FpEnvironment:
    return FpEnvironment(
        style=NotificationStyle(args.style), mode=_MODE_KEYWORDS[":" + args.rounding]
    )


def _eval_line(text: str, env: FpEnvironment, dump_env: bool) -> bool:
    """Parse, evaluate and print one expression; False when it failed, after
    its error line went to stderr."""
    try:
        result = Evaluator().eval(parse(text))
    except CliError as exc:
        print(f"liamath: {exc}", file=sys.stderr)
        return False
    except FloatingPointNotification as cond:
        print(diagnostic(cond, "LIA-error"), file=sys.stderr)
        return False
    except RecursionError:
        # The reader bounds nesting, but handler clauses evaluate inside the
        # notification that invoked them, so their stack can still run out.
        print("liamath: expression nested too deeply", file=sys.stderr)
        return False
    print(render_value(result))
    if dump_env:
        print(_flags_line(env))
        print(f"mode: {env.mode.label}")
    return True


def _run_eval(args) -> int:
    with evaluation_context(_fresh_env(args)) as ctx:
        return 0 if _eval_line(args.expression, ctx.env, args.dump_env) else 1


def _run_conformance(args) -> int:
    descriptor = describe_conformance()
    sys.stdout.write(descriptor.to_json() if args.json else descriptor.to_flat())
    return 0


def _run_repl(args) -> int:
    with evaluation_context(_fresh_env(args)) as ctx:
        interactive = sys.stdin.isatty()
        while True:
            if interactive:
                sys.stdout.write("lia> ")
                sys.stdout.flush()
            line = sys.stdin.readline()
            if not line:
                break
            stripped = line.strip()
            if not stripped:
                continue
            if stripped == ":quit":
                break
            _eval_line(stripped, ctx.env, args.dump_env)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"liamath: {exc}", file=sys.stderr)
        return 1
    if args.command == "eval":
        return _run_eval(args)
    if args.command == "conformance":
        return _run_conformance(args)
    return _run_repl(args)


if __name__ == "__main__":
    sys.exit(main())
