"""Floating-point environment: indicator flags, notification delivery, traps.

An evaluation context carries one environment (flags, notification style,
rounding mode, mask) plus a stack of trap handler frames.  Contexts live in
a context variable, so threads and asyncio tasks see independent state.

Notification follows the condition-system discipline: when an operation
must notify, the handler stack is searched at the raise site, before any
unwinding.  A handler clause may clear flags, decline, re-raise, raise a
different kind, or continue execution by supplying the faulting operation's
result.  Only when no handler resolves the condition does it surface as a
Python exception (error style), while recording style just sets the flag
and terminating style prints a diagnostic and exits.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

from . import fpcore, rounding
# Indicator is defined beside the rounding cores that name it; this module
# re-exports the same class.
from .rounding import Indicator, RoundingMode, resolve_mode

__all__ = [
    "Indicator",
    "NotificationStyle",
    "FpEnvironment",
    "EnvSnapshot",
    "EvalContext",
    "evaluation_context",
    "current_environment",
    "current_rounding_mode",
    "set_rounding_mode",
    "rounding_mode",
    "current_notification_style",
    "set_notification_style",
    "notification_style",
    "notify",
    "FloatingPointNotification",
    "OverflowNotification",
    "UnderflowNotification",
    "InexactNotification",
    "InvalidOperationNotification",
    "DivisionByZeroNotification",
    "HandlerClause",
    "TrapOptions",
    "trap_math",
    "DEFAULT",
    "CLEAR",
    "RERAISE",
    "RaiseNew",
    "Continue",
    "format_value",
    "diagnostic",
]


class NotificationStyle(Enum):
    """How a raised indicator is delivered.

    RECORDING sets the flag and continues with the continuation value.
    ERROR searches trap handlers, then surfaces an exception if unhandled.
    TERMINATING prints a diagnostic line to stderr and exits with status 2.
    """

    RECORDING = "recording"
    ERROR = "error"
    TERMINATING = "terminating"


def format_value(v: object) -> str:
    """Render a value for diagnostics: floats in shortest decimal, booleans
    as true/false, anything else through str."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fpcore.decimal_form(v)
    return str(v)


class FloatingPointNotification(ArithmeticError):
    """A notification that no handler resolved.

    Carries the indicator kind (a class attribute on the concrete
    subclasses), the operation name, the operand tuple, and the
    continuation value the operation would have produced had execution
    continued.
    """

    kind: Indicator

    def __init__(self, operation: str, operands: tuple, continuation: object):
        self.operation = operation
        self.operands = tuple(operands)
        self.continuation = continuation
        super().__init__(self._describe())

    def _describe(self) -> str:
        args = ", ".join(format_value(v) for v in self.operands)
        cont = format_value(self.continuation)
        return f"{self.kind.value} in {self.operation}({args}) continuation={cont}"


class OverflowNotification(FloatingPointNotification):
    kind = Indicator.OVERFLOW


class UnderflowNotification(FloatingPointNotification):
    kind = Indicator.UNDERFLOW


class InexactNotification(FloatingPointNotification):
    kind = Indicator.INEXACT


class InvalidOperationNotification(FloatingPointNotification):
    kind = Indicator.INVALID


class DivisionByZeroNotification(FloatingPointNotification):
    kind = Indicator.DIVIDE_BY_ZERO


CONDITION_TYPES: dict[Indicator, type[FloatingPointNotification]] = {
    Indicator.OVERFLOW: OverflowNotification,
    Indicator.UNDERFLOW: UnderflowNotification,
    Indicator.INEXACT: InexactNotification,
    Indicator.INVALID: InvalidOperationNotification,
    Indicator.DIVIDE_BY_ZERO: DivisionByZeroNotification,
}


def diagnostic(cond: FloatingPointNotification, label: str) -> str:
    """One-line description of a condition, prefixed with label."""
    return f"{label}: {cond._describe()}"


@dataclass(frozen=True)
class EnvSnapshot:
    """Immutable copy of an environment's state, made by save()."""

    flags: frozenset[Indicator]
    style: NotificationStyle
    mode: RoundingMode
    mask: frozenset[Indicator]


@dataclass
class FpEnvironment:
    """Mutable floating-point state for one evaluation context.

    mask lists the kinds that never notify: they set their flag and the
    operation continues, whatever the style.  Inexact is masked by default
    since nearly every operation would otherwise notify.
    """

    flags: set[Indicator] = field(default_factory=set)
    style: NotificationStyle = NotificationStyle.ERROR
    mode: RoundingMode = RoundingMode.TO_NEAREST_EVEN
    mask: frozenset[Indicator] = frozenset({Indicator.INEXACT})

    def __post_init__(self) -> None:
        if self.mode is RoundingMode.INDETERMINATE:
            raise ValueError("an environment cannot operate in indeterminate mode")
        self.flags = set(self.flags)
        self.mask = frozenset(self.mask)

    def record(self, kind: Indicator) -> None:
        """Set an indicator flag without notifying."""
        self.flags.add(kind)

    def test_indicator(self, kind: Indicator) -> bool:
        return kind in self.flags

    def clear_indicator(self, kind: Indicator) -> None:
        self.flags.discard(kind)

    def save(self) -> EnvSnapshot:
        return EnvSnapshot(frozenset(self.flags), self.style, self.mode, self.mask)

    def clear(self) -> None:
        """Clear every indicator flag."""
        self.flags.clear()

    def merge(self, snapshot: EnvSnapshot) -> None:
        """Union the snapshot's flags back in; style/mode/mask untouched."""
        self.flags |= snapshot.flags


@dataclass
class _Frame:
    clauses: tuple["HandlerClause", ...]

    def find(self, kind: Indicator) -> "HandlerClause | None":
        for clause in self.clauses:
            if kind in clause.kinds:
                return clause
        return None


@dataclass
class EvalContext:
    """An environment plus the active trap frames for one dynamic extent."""

    env: FpEnvironment = field(default_factory=FpEnvironment)
    frames: list[_Frame] = field(default_factory=list)
    # While a handler clause runs, frames at and above this index are
    # disabled so the clause's own arithmetic cannot re-enter it.
    barrier: int | None = None


_context_var: ContextVar[EvalContext | None] = ContextVar("liamath_context", default=None)


def _ctx() -> EvalContext:
    ctx = _context_var.get()
    if ctx is None:
        ctx = EvalContext()
        _context_var.set(ctx)
    return ctx


@contextmanager
def evaluation_context(env: FpEnvironment | None = None) -> Iterator[EvalContext]:
    """Run a block in a fresh evaluation context (fresh env unless given)."""
    ctx = EvalContext(env if env is not None else FpEnvironment())
    token = _context_var.set(ctx)
    try:
        yield ctx
    finally:
        _context_var.reset(token)


def current_environment() -> FpEnvironment:
    """The ambient environment, created on first use per context."""
    return _ctx().env


def current_rounding_mode() -> RoundingMode:
    ctx = _context_var.get()
    return (ctx if ctx is not None else _ctx()).env.mode


# resolve_mode(None) reads the ambient mode through this, with no import.
rounding._ambient_mode = current_rounding_mode


def set_rounding_mode(mode: RoundingMode | int) -> None:
    current_environment().mode = resolve_mode(mode)


@contextmanager
def rounding_mode(mode: RoundingMode | int) -> Iterator[None]:
    """Dynamically scope the ambient rounding mode."""
    env = current_environment()
    prev = env.mode
    env.mode = resolve_mode(mode)
    try:
        yield
    finally:
        env.mode = prev


def current_notification_style() -> NotificationStyle:
    return current_environment().style


def set_notification_style(style: NotificationStyle) -> None:
    current_environment().style = NotificationStyle(style)


@contextmanager
def notification_style(style: NotificationStyle) -> Iterator[None]:
    """Dynamically scope the ambient notification style."""
    env = current_environment()
    prev = env.style
    env.style = NotificationStyle(style)
    try:
        yield
    finally:
        env.style = prev


# --- handler actions ---------------------------------------------------------


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


DEFAULT = _Marker("DEFAULT")   # propagate as if the clause did not exist
CLEAR = _Marker("CLEAR")       # clear the condition's flag, keep processing
RERAISE = _Marker("RERAISE")   # propagate the same condition outward

_UNSET = _Marker("UNSET")


@dataclass(frozen=True)
class RaiseNew:
    """Propagate a fresh condition of a different kind.

    The fresh condition keeps the original operation and operands; payload,
    when given, replaces the continuation value.
    """

    kind: Indicator
    payload: object = _UNSET


@dataclass(frozen=True)
class Continue:
    """Resume the faulting operation.

    Without an expression the operation yields its standard continuation
    value; with one (a value, or a callable evaluated at handling time) the
    operation yields that instead.
    """

    expr: object = _UNSET


@dataclass(frozen=True)
class HandlerClause:
    """One clause of a trap: the kinds it matches and its actions in order.

    At most one continue-family action is allowed, and processing stops at
    the first action that resolves or propagates.  A clause that runs out
    of actions declines, and the search continues outward.
    """

    kinds: tuple[Indicator, ...]
    actions: tuple

    def __init__(self, kinds, *actions):
        if isinstance(kinds, Indicator):
            kinds = (kinds,)
        object.__setattr__(self, "kinds", tuple(Indicator(k) for k in kinds))
        object.__setattr__(self, "actions", tuple(actions))
        continues = sum(1 for a in self.actions if isinstance(a, Continue))
        if continues > 1:
            raise ValueError("a handler clause may contain at most one continue action")
        for a in self.actions:
            if not (a in (DEFAULT, CLEAR, RERAISE) or isinstance(a, (RaiseNew, Continue))):
                raise TypeError(f"unknown handler action: {a!r}")


@dataclass(frozen=True)
class TrapOptions:
    """Scope options for trap_math.

    before: any of "save", "clear" (applied in that order).
    after: "merge" folds the saved flags back in when the body completes;
    it requires a before-save, checked here at construction.
    notify_by: the style the body runs under.
    """

    notify_by: NotificationStyle = NotificationStyle.ERROR
    before: tuple[str, ...] = ()
    after: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "before", tuple(self.before))
        object.__setattr__(self, "after", tuple(self.after))
        for token in self.before:
            if token not in ("save", "clear"):
                raise ValueError(f"unknown before action: {token!r}")
        for token in self.after:
            if token != "merge":
                raise ValueError(f"unknown after action: {token!r}")
        if "merge" in self.after and "save" not in self.before:
            raise ValueError("after-merge requires a before-save")
        object.__setattr__(self, "notify_by", NotificationStyle(self.notify_by))


# --- notification delivery ---------------------------------------------------


# Enum member lookups on the class are slow on Python 3.11 (EnumType has a
# __getattr__); notify names the style it tests first once.
_RECORDING = NotificationStyle.RECORDING


def notify(kind: Indicator, operation: str, operands: tuple, continuation: object):
    """Raise an indicator from inside an operation.

    Always sets the flag.  The return value is what the faulting operation
    should produce when execution continues: the continuation value, or
    whatever a continue-style handler supplied.  Under error style with no
    resolving handler this raises; under terminating style it prints the
    diagnostic and exits with status 2.
    """
    ctx = _context_var.get()
    if ctx is None:
        ctx = _ctx()
    env = ctx.env
    env.flags.add(kind)
    if env.style is _RECORDING or kind in env.mask:
        return continuation
    cond = CONDITION_TYPES[kind](operation, operands, continuation)
    if env.style is NotificationStyle.TERMINATING:
        print(diagnostic(cond, "LIA-NTM"), file=sys.stderr)
        raise SystemExit(2)
    return _signal(ctx, cond)


def _signal(ctx: EvalContext, cond: FloatingPointNotification):
    """Search the handler stack innermost-first at the raise site."""
    limit = len(ctx.frames) if ctx.barrier is None else ctx.barrier
    i = min(limit, len(ctx.frames)) - 1
    while i >= 0:
        clause = ctx.frames[i].find(cond.kind)
        if clause is not None:
            resolved, outcome = _run_clause(ctx, i, clause, cond)
            if resolved:
                return outcome
            cond = outcome
        i -= 1
    raise cond


def _run_clause(ctx: EvalContext, index: int, clause: HandlerClause, cond):
    """Execute one clause.  Returns (True, value) when the condition is
    resolved by continuing, or (False, condition) to keep searching outward
    (possibly with a replacement condition)."""
    saved = ctx.barrier
    ctx.barrier = index
    try:
        for action in clause.actions:
            if action is CLEAR:
                ctx.env.flags.discard(cond.kind)
            elif action is DEFAULT or action is RERAISE:
                return False, cond
            elif isinstance(action, RaiseNew):
                ctx.env.flags.add(action.kind)
                continuation = (
                    cond.continuation if action.payload is _UNSET else action.payload
                )
                return False, CONDITION_TYPES[action.kind](
                    cond.operation, cond.operands, continuation
                )
            else:  # Continue
                if action.expr is _UNSET:
                    return True, cond.continuation
                if callable(action.expr):
                    return True, action.expr()
                return True, action.expr
        return False, cond
    finally:
        ctx.barrier = saved


def trap_math(
    options: TrapOptions | None,
    body: Callable[[], object],
    *clauses: HandlerClause,
):
    """Run body with handler clauses installed and scoped env actions.

    Before actions run first (save, then clear).  The body executes under
    options.notify_by; the previous style is restored on every exit path.
    After-merge runs only when the body completes, which includes the case
    where a handler clause resolved a notification by continuing.
    """
    if options is None:
        options = TrapOptions()
    ctx = _ctx()
    env = ctx.env
    snapshot = env.save() if "save" in options.before else None
    if "clear" in options.before:
        env.clear()
    prev_style = env.style
    env.style = options.notify_by
    ctx.frames.append(_Frame(tuple(clauses)))
    try:
        value = body()
    finally:
        ctx.frames.pop()
        env.style = prev_style
    if snapshot is not None and "merge" in options.after:
        env.merge(snapshot)
    return value
