"""Correctly rounded binary64 arithmetic under explicit rounding modes.

The strategy never touches the hardware rounding state: each operation is
computed once in round-to-nearest, the exact residual sign is recovered with
an error-free transformation, and the result is stepped to a neighbor when
the requested direction calls for it.  Results are bit-exact for every mode,
including signed zeros, subnormals, and the overflow edge cases.

Each operation has one pure core (add_core ... sqrt_core) that holds its
only table of special values and returns (value, indicator or None,
continuation), with the defaults and exceptions of IEEE 754-2019 section 7.
The value keeps the host's NaN bits; the continuation of an invalid
operation is the canonical QNAN.  The *_dir functions return the value;
the ops layer notifies the indicator.

The residual sign of a sum comes from TwoSum.  Those of a product,
quotient and square root come from fpcore: a float path (Dekker's
TwoProduct without FMA, Veltkamp split by 2**27 + 1) when the operands and
the result lie strictly between 2**-900 and 2**900, where no split
overflows and no error term underflows (the proof is in fpcore), and an
exact integer comparison of significands outside that range.

resolve_mode looks an explicit mode up in a table of the five operational
members (their int and bool spellings hit it too); None reads the ambient
mode through the reader the environment module installs.  Operands of the
*_dir functions follow operand(): floats as they are, ints only when
binary64 holds them exactly, anything else through float().
"""

from __future__ import annotations

import math
from enum import Enum, IntEnum

from . import fpcore
from .fpcore import MAX_FINITE, MIN_NORMAL, QNAN, sign_bit

__all__ = [
    "Indicator",
    "RoundingMode",
    "resolve_mode",
    "add_core",
    "sub_core",
    "mul_core",
    "div_core",
    "sqrt_core",
    "add_dir",
    "sub_dir",
    "mul_dir",
    "div_dir",
    "sqrt_dir",
]


class Indicator(Enum):
    """The five indicator kinds an operation can raise."""

    OVERFLOW = "overflow"
    UNDERFLOW = "underflow"
    INEXACT = "inexact"
    INVALID = "invalid"
    DIVIDE_BY_ZERO = "divide-by-zero"

    # Members are singletons and compare by identity, so the identity hash
    # keeps sets and dicts of kinds as they were, at C speed (Enum.__hash__
    # hashes the name in Python).
    __hash__ = object.__hash__


class RoundingMode(IntEnum):
    """Rounding directions with their interchange codes.

    INDETERMINATE is a reportable state for environments that cannot name
    their direction; it is never accepted as an operational mode.
    TO_NEAREST ties away from zero in some older descriptions, but here it
    is an alias of TO_NEAREST_EVEN (the conformance report says so).
    """

    INDETERMINATE = -1
    TO_ZERO = 0
    TO_NEAREST = 1
    TO_POSITIVE_INFINITY = 2
    TO_NEGATIVE_INFINITY = 3
    TO_NEAREST_EVEN = 4

    @property
    def label(self) -> str:
        return _MODE_LABELS[self]


_MODE_LABELS = {
    RoundingMode.INDETERMINATE: "indeterminate",
    RoundingMode.TO_ZERO: "zero",
    RoundingMode.TO_NEAREST: "nearest",
    RoundingMode.TO_POSITIVE_INFINITY: "positive-infinity",
    RoundingMode.TO_NEGATIVE_INFINITY: "negative-infinity",
    RoundingMode.TO_NEAREST_EVEN: "nearest-even",
}

# On Python 3.11 every Enum member lookup on its class goes through
# EnumType.__getattr__ (about 0.1 us), so the hot paths use these names.
_NEAREST = (RoundingMode.TO_NEAREST, RoundingMode.TO_NEAREST_EVEN)
_TO_ZERO = RoundingMode.TO_ZERO
_UP = RoundingMode.TO_POSITIVE_INFINITY
_DOWN = RoundingMode.TO_NEGATIVE_INFINITY
_OVERFLOW = Indicator.OVERFLOW
_UNDERFLOW = Indicator.UNDERFLOW
_INEXACT = Indicator.INEXACT

# The five operational modes by themselves; their int and bool spellings
# hash and compare equal to them, so those hit the table too.
_OPERATIONAL = {m: m for m in RoundingMode if m is not RoundingMode.INDETERMINATE}

# Returns the ambient environment's mode.  The environment module, which
# imports this one, installs its reader here when it is imported.
_ambient_mode = None


def resolve_mode(mode: RoundingMode | int | None) -> RoundingMode:
    """Normalize a mode argument; None means the ambient environment mode."""
    if mode is None:
        mode = _ambient_mode()
    try:
        return _OPERATIONAL[mode]
    except (KeyError, TypeError):
        pass
    mode = RoundingMode(mode)
    if mode is RoundingMode.INDETERMINATE:
        raise ValueError("indeterminate is not an operational rounding mode")
    return mode


def operand(x, operation: str) -> float:
    """The binary64 operand for x: a float as it is, an int (bool included)
    that binary64 holds exactly as that float, anything else through
    float().  Any other int is a ValueError naming the operation, raised
    before the operation sets any flag."""
    if x.__class__ is float:
        return x
    if isinstance(x, int):
        try:
            f = float(x)
        except OverflowError:
            f = math.inf
        if f != x:
            shown = x if x.bit_length() <= 1024 else f"of {x.bit_length()} bits"
            raise ValueError(f"{operation}: int operand {shown} is not exact in binary64")
        return f
    return float(x)


def add_parts(a: float, b: float) -> tuple[float, int, bool]:
    """(rn, residual sign, overflowed) for finite a + b."""
    rn = a + b
    if math.isinf(rn):
        return rn, (1 if rn > 0 else -1), True
    lo = fpcore.two_sum(a, b)[1]
    return rn, (lo > 0.0) - (lo < 0.0), False


def mul_parts(a: float, b: float) -> tuple[float, int, bool]:
    """(rn, residual sign, overflowed) for finite a * b."""
    rn = a * b
    if math.isinf(rn):
        return rn, (1 if rn > 0 else -1), True
    return rn, fpcore.prod_residual_sign(a, b, rn), False


def div_parts(a: float, b: float) -> tuple[float, int, bool]:
    """(rn, residual sign, overflowed) for finite a / nonzero finite b."""
    rn = a / b
    if math.isinf(rn):
        return rn, (1 if rn > 0 else -1), True
    if a == 0.0:
        return rn, 0, False
    return rn, fpcore.quot_residual_sign(a, b, rn), False


def sqrt_parts(x: float) -> tuple[float, int, bool]:
    """(rn, residual sign, False) for finite x > 0; sqrt cannot overflow."""
    rn = math.sqrt(x)
    return rn, fpcore.sqrt_residual_sign(x, rn), False


def _rounded(parts: tuple[float, int, bool], mode: RoundingMode, addends=None):
    """A core's answer for finite operands from (rn, residual sign s,
    overflowed), s being the sign of (exact - rn); addends, given for sums
    only, sign an exactly zero sum."""
    rn, s, overflowed = parts
    if overflowed:
        # rn is +-inf: nearest and the direction away from zero keep it, the
        # other directions stop at the largest finite magnitude.
        away = _UP if rn > 0 else _DOWN
        value = rn if mode in _NEAREST or mode is away else math.copysign(MAX_FINITE, rn)
        return value, _OVERFLOW, value
    if s == 0:
        # An exactly zero sum is +0 in every mode but toward -inf, unless
        # both addends are zeros of the same sign, which rn already keeps.
        if rn == 0.0 and addends is not None:
            a, b = addends
            if not (a == 0.0 and b == 0.0 and sign_bit(a) == sign_bit(b)):
                rn = -0.0 if mode is _DOWN else 0.0
        return rn, None, rn
    value = rn
    if mode not in _NEAREST:
        # Step to the neighbor when the exact value lies on the requested
        # side of rn.  Toward zero is upward below zero; when rn itself is a
        # zero, the residual sign settles which side of zero it stands for.
        if mode is _TO_ZERO:
            up = rn < 0.0 or (rn == 0.0 and s < 0)
        else:
            up = mode is _UP
        if (s > 0) == up:
            value = math.nextafter(rn, math.inf if up else -math.inf)
    # Overflow means the exact result lies strictly beyond the finite range,
    # equivalently the away-from-zero neighbor of maxfinite would be needed.
    if (rn == MAX_FINITE and s > 0) or (rn == -MAX_FINITE and s < 0):
        return value, _OVERFLOW, value
    if abs(value) < MIN_NORMAL:
        return value, _UNDERFLOW, value
    return value, _INEXACT, value


def _host_special(r: float, a: float, b: float):
    """The answer for a sum or product with a non-finite operand, r being
    the host result: a NaN made from non-NaN operands (inf - inf, 0 * inf)
    or any signaling operand is invalid; a quiet NaN passes silently."""
    if r != r and (a == a and b == b or fpcore.is_signaling(a) or fpcore.is_signaling(b)):
        return r, Indicator.INVALID, QNAN
    return r, None, r


def _nan_operand(a: float, b: float):
    """The answer when a or b is NaN: the first NaN, quieted; invalid when
    either operand signals."""
    value = fpcore.quiet(a if a != a else b)
    if fpcore.is_signaling(a) or fpcore.is_signaling(b):
        return value, Indicator.INVALID, QNAN
    return value, None, value


def add_core(a: float, b: float, mode: RoundingMode):
    """a + b rounded in mode (a RoundingMode, already resolved)."""
    if math.isfinite(a) and math.isfinite(b):
        return _rounded(add_parts(a, b), mode, (a, b))
    return _host_special(a + b, a, b)


def sub_core(a: float, b: float, mode: RoundingMode):
    """a - b rounded in mode.  The NaN path computes a - b itself: the host's
    a + (-b) differs from it in the sign bit of a NaN."""
    if math.isfinite(a) and math.isfinite(b):
        return _rounded(add_parts(a, -b), mode, (a, -b))
    return _host_special(a - b, a, b)


def mul_core(a: float, b: float, mode: RoundingMode):
    """a * b rounded in mode."""
    if math.isfinite(a) and math.isfinite(b):
        return _rounded(mul_parts(a, b), mode)
    return _host_special(a * b, a, b)


def div_core(a: float, b: float, mode: RoundingMode):
    """a / b rounded in mode.

    Division by zero and the indeterminate quotients follow the usual
    special-value rules (the hardware cannot be asked: CPython raises on a
    literal zero divide, so the special cases are built by hand).
    """
    if math.isfinite(a) and math.isfinite(b) and b != 0.0:
        return _rounded(div_parts(a, b), mode)
    if a != a or b != b:
        return _nan_operand(a, b)
    inf = math.inf if sign_bit(a) == sign_bit(b) else -math.inf
    if b == 0.0:
        if a == 0.0:
            return QNAN, Indicator.INVALID, QNAN
        if math.isinf(a):
            return inf, None, inf
        return inf, Indicator.DIVIDE_BY_ZERO, inf
    if math.isinf(a):
        if math.isinf(b):
            return QNAN, Indicator.INVALID, QNAN
        return inf, None, inf
    zero = 0.0 if inf > 0 else -0.0
    return zero, None, zero


def sqrt_core(x: float, mode: RoundingMode):
    """Square root of x rounded in mode; negative arguments are invalid."""
    if math.isfinite(x) and x > 0.0:
        return _rounded(sqrt_parts(x), mode)
    if x != x:
        return _nan_operand(x, x)
    if x < 0.0:
        return QNAN, Indicator.INVALID, QNAN
    return x, None, x


def add_dir(a: float, b: float, mode: RoundingMode | int | None = None) -> float:
    """a + b rounded in mode (ambient mode when None)."""
    if a.__class__ is not float or b.__class__ is not float:
        a, b = operand(a, "add_dir"), operand(b, "add_dir")
    return add_core(a, b, resolve_mode(mode))[0]


def sub_dir(a: float, b: float, mode: RoundingMode | int | None = None) -> float:
    """a - b rounded in mode (ambient mode when None)."""
    if a.__class__ is not float or b.__class__ is not float:
        a, b = operand(a, "sub_dir"), operand(b, "sub_dir")
    return sub_core(a, b, resolve_mode(mode))[0]


def mul_dir(a: float, b: float, mode: RoundingMode | int | None = None) -> float:
    """a * b rounded in mode (ambient mode when None)."""
    if a.__class__ is not float or b.__class__ is not float:
        a, b = operand(a, "mul_dir"), operand(b, "mul_dir")
    return mul_core(a, b, resolve_mode(mode))[0]


def div_dir(a: float, b: float, mode: RoundingMode | int | None = None) -> float:
    """a / b rounded in mode (ambient mode when None); 0/0 and inf/inf give
    a quiet NaN, a nonzero over a zero the signed infinity."""
    if a.__class__ is not float or b.__class__ is not float:
        a, b = operand(a, "div_dir"), operand(b, "div_dir")
    return div_core(a, b, resolve_mode(mode))[0]


def sqrt_dir(x: float, mode: RoundingMode | int | None = None) -> float:
    """Square root of x rounded in mode (ambient mode when None).

    Zeros return themselves (sqrt(-0.0) is -0.0); negative arguments give a
    quiet NaN.
    """
    if x.__class__ is not float:
        x = operand(x, "sqrt_dir")
    return sqrt_core(x, resolve_mode(mode))[0]
