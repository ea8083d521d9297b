"""Closed endpoint intervals over the extended reals.

An interval [low, high] stands for every extended real between its binary64
endpoints, infinities included.  The empty set is the canonical pair
(+inf, -inf).  NaN endpoints never occur: constructors notify invalid and
continue with the empty interval instead.

Arithmetic rounds the lower endpoint toward -inf and the upper toward +inf,
so the exact set of results is always enclosed (one ulp of slack per
endpoint at most).  Each endpoint comes straight from the rounding core of
its operation: endpoint overflow/underflow/inexact set flags without
notifying, while interval-level conditions (empty constructions, zero
divisors) notify at the ambient style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ops
# notification_style is unused here, but the benchmark tracer patches this
# module attribute (bench/tracer.py), so the import stays.
from .environment import Indicator, current_environment, notification_style, notify
from .fpcore import QNAN, decimal_form
from .rounding import RoundingMode, add_core, div_core, mul_core, sub_core

__all__ = [
    "Interval",
    "EMPTY",
    "make_interval",
    "parse_interval",
    "radius",
    "is_point",
    "i_add",
    "i_sub",
    "i_mul",
    "i_div",
    "i_member",
    "i_subseteq",
]

_DOWN = RoundingMode.TO_NEGATIVE_INFINITY
_UP = RoundingMode.TO_POSITIVE_INFINITY


@dataclass(frozen=True)
class Interval:
    """A closed interval with binary64 endpoints, or the empty set.

    Direct construction enforces the invariants hard (ValueError); use
    make_interval for the notifying constructor.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if math.isnan(self.low) or math.isnan(self.high):
            raise ValueError("interval endpoints cannot be NaN")
        if self.low > self.high and not (
            self.low == math.inf and self.high == -math.inf
        ):
            raise ValueError(
                "interval endpoints out of order (only the canonical empty "
                "pair (+inf, -inf) may be reversed)"
            )

    @property
    def is_empty(self) -> bool:
        return self.low > self.high

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        return f"[{decimal_form(self.low)}, {decimal_form(self.high)}]"


EMPTY = Interval(math.inf, -math.inf)


def make_interval(low, high) -> Interval:
    """Notifying constructor: bad endpoints raise invalid, continue empty.

    A reversed pair other than the canonical empty one is a construction
    error; NaN endpoints likewise.
    """
    low = float(low)
    high = float(high)
    if math.isnan(low) or math.isnan(high):
        return notify(Indicator.INVALID, "interval", (low, high), EMPTY)
    if low > high:
        if low == math.inf and high == -math.inf:
            return EMPTY
        return notify(Indicator.INVALID, "interval", (low, high), EMPTY)
    return Interval(low, high)


def parse_interval(text: str) -> Interval:
    """Inverse of str(): '[<low>, <high>]' or 'empty'.

    Endpoint syntax is anything float() accepts plus the symbols +inf and
    -inf.  Raises ValueError on malformed text.
    """
    s = text.strip()
    if s == "empty":
        return EMPTY
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"not an interval: {text!r}")
    parts = s[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"not an interval: {text!r}")
    return Interval(_parse_endpoint(parts[0]), _parse_endpoint(parts[1]))


def _parse_endpoint(tok: str) -> float:
    tok = tok.strip()
    if tok == "+inf":
        return math.inf
    if tok == "-inf":
        return -math.inf
    value = float(tok)
    if math.isnan(value):
        raise ValueError("interval endpoints cannot be NaN")
    return value


def radius(i: Interval) -> float:
    """Extent of the interval: high - low rounded toward +inf.

    Point intervals (infinite ones included) have radius +0.0; unbounded
    proper intervals have radius +inf; the empty interval raises invalid
    with a quiet NaN continuation.
    """
    if i.is_empty:
        return notify(Indicator.INVALID, "radius", (i,), QNAN)
    if i.low == i.high:
        return 0.0
    if math.isinf(i.low) or math.isinf(i.high):
        return math.inf
    return _endpoint(sub_core, i.high, i.low, _UP)


def is_point(i: Interval) -> bool:
    """True when the interval is a single value; empty raises invalid."""
    if i.is_empty:
        return notify(Indicator.INVALID, "point?", (i,), False)
    return ops.eq(i.low, i.high)


def i_member(x, i: Interval) -> bool:
    """Is the scalar x in the interval?  NaN probes raise invalid
    (continuation false); nothing is a member of the empty interval."""
    x = float(x)
    if math.isnan(x):
        return notify(Indicator.INVALID, "member?", (x, i), False)
    if i.is_empty:
        return False
    return i.low <= x <= i.high


def i_subseteq(i1: Interval, i2: Interval) -> bool:
    """Is i1 a subset of i2?  The empty interval is a subset of anything."""
    if i1.is_empty:
        return True
    if i2.is_empty:
        return False
    return i2.low <= i1.low and i1.high <= i2.high


def _endpoint(core, x: float, y: float, mode: RoundingMode) -> float:
    """x op y rounded in mode by the operation's core, with its indicator
    recorded as a flag, never notified.

    The core answers invalid exactly where the set view still has a
    definite endpoint, and no flag is set there: opposed infinities in a
    sum or difference give the positional infinity (the unbounded direction
    wins), zero times infinity in a corner product a hard zero, infinity
    over infinity in a corner quotient a signed zero.
    """
    value, kind, _ = core(x, y, mode)
    if kind is None:
        return value
    if kind is Indicator.INVALID:
        if core is mul_core:
            return 0.0
        if core is div_core:
            return 0.0 if (x > 0) == (y > 0) else -0.0
        return -math.inf if mode is _DOWN else math.inf
    ops._imply_inexact(kind)
    current_environment().record(kind)
    return value


def _corner_hull(core, i1: Interval, i2: Interval) -> Interval:
    """The hull of the four corner results of a product or quotient."""
    corners = ((i1.low, i2.low), (i1.low, i2.high), (i1.high, i2.low), (i1.high, i2.high))
    low = min(_endpoint(core, x, y, _DOWN) for x, y in corners)
    high = max(_endpoint(core, x, y, _UP) for x, y in corners)
    return Interval(low, high)


def i_add(i1: Interval, i2: Interval) -> Interval:
    """Interval sum; empty absorbs."""
    if i1.is_empty or i2.is_empty:
        return EMPTY
    low = _endpoint(add_core, i1.low, i2.low, _DOWN)
    high = _endpoint(add_core, i1.high, i2.high, _UP)
    return Interval(low, high)


def i_sub(i1: Interval, i2: Interval) -> Interval:
    """Interval difference; empty absorbs."""
    if i1.is_empty or i2.is_empty:
        return EMPTY
    low = _endpoint(sub_core, i1.low, i2.high, _DOWN)
    high = _endpoint(sub_core, i1.high, i2.low, _UP)
    return Interval(low, high)


def i_mul(i1: Interval, i2: Interval) -> Interval:
    """Interval product over the four corner products; empty absorbs."""
    if i1.is_empty or i2.is_empty:
        return EMPTY
    return _corner_hull(mul_core, i1, i2)


def i_div(i1: Interval, i2: Interval) -> Interval:
    """Interval quotient; empty absorbs.

    A divisor containing zero (endpoints included) cannot be inverted:
    [0, 0] raises invalid and continues empty, any other zero-straddling
    divisor raises divide-by-zero and continues with the full line.
    """
    if i1.is_empty or i2.is_empty:
        return EMPTY
    if i2.low == 0.0 and i2.high == 0.0:
        return notify(Indicator.INVALID, "interval-div", (i1, i2), EMPTY)
    if i2.low <= 0.0 <= i2.high:
        full = Interval(-math.inf, math.inf)
        return notify(Indicator.DIVIDE_BY_ZERO, "interval-div", (i1, i2), full)
    return _corner_hull(div_core, i1, i2)
