"""Arithmetic with full notification semantics.

Each operation takes its operands by one rule, shared with the rounding
layer's *_dir functions (rounding.operand): a float as it is; an int (bool
included) that binary64 holds exactly as that float; any other int is a
ValueError naming the operation and the operand, raised before any flag
is set; anything else through float().  It then asks the operation's core
in the rounding layer for (value, indicator, continuation), and raises the
indicator, if any: invalid, divide-by-zero, overflow, underflow, or
inexact.  The value an operation returns is always the continuation
value, whether or not a notification fired, so recording style and a
continue-everything trap produce identical results.

Comparison follows the partial-order reading: NaN is unordered, equality
chains adjacent pairs, inequality requires all pairs distinct, and a
signaling NaN raises invalid with continuation false.
"""

from __future__ import annotations

import math
from itertools import combinations

from . import rounding
from .environment import Indicator, current_environment, notify
from .fpcore import is_signaling
from .rounding import operand

__all__ = ["add", "sub", "mul", "div", "sqrt", "eq", "neq"]

# Enum member lookups on the class are slow on Python 3.11 (EnumType has a
# __getattr__), so the delivery path names its kinds once.
_OVERFLOW = Indicator.OVERFLOW
_UNDERFLOW = Indicator.UNDERFLOW
_INEXACT = Indicator.INEXACT


def _imply_inexact(kind: Indicator) -> None:
    """Overflow and underflow are inexact by definition: set that flag
    silently, before kind itself is raised.  Interval endpoints use this
    too."""
    if kind is _OVERFLOW or kind is _UNDERFLOW:
        current_environment().record(_INEXACT)


def _deliver(name: str, operands: tuple, answer: tuple):
    """Return a core's answer, notifying its indicator when it has one."""
    value, kind, continuation = answer
    if kind is None:
        return value
    if kind is not _INEXACT:
        _imply_inexact(kind)
    return notify(kind, name, operands, continuation)


def add(a, b, mode=None):
    """a + b with notifications; mode None means the ambient mode."""
    if a.__class__ is not float or b.__class__ is not float:
        a, b = operand(a, "add"), operand(b, "add")
    return _deliver("add", (a, b), rounding.add_core(a, b, rounding.resolve_mode(mode)))


def sub(a, b, mode=None):
    """a - b with notifications; mode None means the ambient mode."""
    if a.__class__ is not float or b.__class__ is not float:
        a, b = operand(a, "sub"), operand(b, "sub")
    return _deliver("sub", (a, b), rounding.sub_core(a, b, rounding.resolve_mode(mode)))


def mul(a, b, mode=None):
    """a * b with notifications; mode None means the ambient mode."""
    if a.__class__ is not float or b.__class__ is not float:
        a, b = operand(a, "mul"), operand(b, "mul")
    return _deliver("mul", (a, b), rounding.mul_core(a, b, rounding.resolve_mode(mode)))


def div(a, b, mode=None):
    """a / b with notifications; mode None means the ambient mode."""
    if a.__class__ is not float or b.__class__ is not float:
        a, b = operand(a, "div"), operand(b, "div")
    return _deliver("div", (a, b), rounding.div_core(a, b, rounding.resolve_mode(mode)))


def sqrt(x, mode=None):
    """Square root with notifications; mode None means the ambient mode."""
    if x.__class__ is not float:
        x = operand(x, "sqrt")
    return _deliver("sqrt", (x,), rounding.sqrt_core(x, rounding.resolve_mode(mode)))


def _eq2(a: float, b: float) -> bool:
    if is_signaling(a) or is_signaling(b):
        return notify(Indicator.INVALID, "eq", (a, b), False)
    if math.isnan(a) or math.isnan(b):
        return False
    return a == b


def _neq2(a: float, b: float) -> bool:
    if is_signaling(a) or is_signaling(b):
        return notify(Indicator.INVALID, "neq", (a, b), False)
    if math.isnan(a) or math.isnan(b):
        return True
    return a != b


def eq(first, *rest) -> bool:
    """True when all arguments are equal, testing adjacent pairs.

    Quiet NaN is unordered, so any NaN argument makes a tested pair false.
    Signaling NaN raises invalid (continuation false).  Zeros of either
    sign compare equal; infinities equal only with matching sign.  Stops at
    the first failing pair, so later pairs raise nothing.
    """
    values = [operand(v, "eq") for v in (first, *rest)]
    for x, y in zip(values, values[1:]):
        if not _eq2(x, y):
            return False
    return True


def neq(first, *rest) -> bool:
    """True when all arguments are pairwise distinct.

    The negation of = only for two arguments; with more, every unordered
    pair must differ.  A quiet NaN is distinct from everything, itself
    included.  Signaling NaN raises invalid (continuation false).  Stops at
    the first equal pair.
    """
    values = [operand(v, "neq") for v in (first, *rest)]
    for x, y in combinations(values, 2):
        if not _neq2(x, y):
            return False
    return True
