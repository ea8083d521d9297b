"""Bit-level model of IEEE-754 binary64.

Classification, neighbor stepping, and error-free transformations: everything
the directed-rounding layer needs to recover the exact residual of a hardware
round-to-nearest result.  All functions are pure and binary64-only.  CPython
floats are binary64 on every supported platform; the conformance module
probes that assumption at run time.

The residual signs of a product, quotient and square root take a float path
when every operand and the result lie strictly between 2**-900 and 2**900:
Dekker's TwoProduct without FMA (Veltkamp split by 2**27 + 1) gives the
product's error exactly, and the quotient and root residuals a - q*b and
x - r*r follow from it with one exact (Sterbenz) subtraction.  Outside that
range, where a split could overflow or an error term underflow, the same
functions compare integer significands instead, which is exact everywhere.
The proof of the range is at _two_product_error.
"""

from __future__ import annotations

import math
import struct
import sys
from enum import Enum

__all__ = [
    "MAX_FINITE",
    "MIN_NORMAL",
    "MIN_SUBNORMAL",
    "QNAN",
    "SNAN",
    "FloatClass",
    "float_to_bits",
    "bits_to_float",
    "sign_bit",
    "is_signaling",
    "quiet",
    "classify",
    "next_up",
    "next_down",
    "two_sum",
    "quot_residual_sign",
    "sqrt_residual_sign",
    "decimal_form",
]

MAX_FINITE = sys.float_info.max
MIN_NORMAL = sys.float_info.min          # 2**-1022
MIN_SUBNORMAL = 5e-324                   # 2**-1074
QNAN = float("nan")
SNAN = struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]

_EXP_MASK = 0x7FF
_FRAC_MASK = (1 << 52) - 1
_QUIET_BIT = 1 << 51
_TWO_53 = 9007199254740992.0             # 2**53, exact


def float_to_bits(x: float) -> int:
    """Raw 64-bit encoding of x, NaN payloads included."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def bits_to_float(b: int) -> float:
    """Inverse of float_to_bits."""
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def sign_bit(x: float) -> bool:
    """True when the sign bit is set; distinguishes -0.0 and works on NaNs."""
    return bool(float_to_bits(x) >> 63)


def is_signaling(x: float) -> bool:
    """True for a signaling NaN (quiet bit clear, nonzero payload)."""
    b = float_to_bits(x)
    return (
        (b >> 52) & _EXP_MASK == _EXP_MASK
        and b & _FRAC_MASK != 0
        and not b & _QUIET_BIT
    )


def quiet(x: float) -> float:
    """x with the quiet bit forced on if x is a signaling NaN."""
    if is_signaling(x):
        return bits_to_float(float_to_bits(x) | _QUIET_BIT)
    return x


class FloatClass(Enum):
    """The ten disjoint classes a binary64 datum can fall into."""

    NEGATIVE_INFINITY = "negative-infinity"
    NEGATIVE_NORMAL = "negative-normal"
    NEGATIVE_SUBNORMAL = "negative-subnormal"
    NEGATIVE_ZERO = "negative-zero"
    POSITIVE_ZERO = "positive-zero"
    POSITIVE_SUBNORMAL = "positive-subnormal"
    POSITIVE_NORMAL = "positive-normal"
    POSITIVE_INFINITY = "positive-infinity"
    QUIET_NAN = "quiet-nan"
    SIGNALING_NAN = "signaling-nan"


def classify(x: float) -> FloatClass:
    """Total classification of any binary64 bit pattern."""
    b = float_to_bits(x)
    exp = (b >> 52) & _EXP_MASK
    frac = b & _FRAC_MASK
    neg = bool(b >> 63)
    if exp == _EXP_MASK:
        if frac == 0:
            return FloatClass.NEGATIVE_INFINITY if neg else FloatClass.POSITIVE_INFINITY
        return FloatClass.QUIET_NAN if frac & _QUIET_BIT else FloatClass.SIGNALING_NAN
    if exp == 0:
        if frac == 0:
            return FloatClass.NEGATIVE_ZERO if neg else FloatClass.POSITIVE_ZERO
        return FloatClass.NEGATIVE_SUBNORMAL if neg else FloatClass.POSITIVE_SUBNORMAL
    return FloatClass.NEGATIVE_NORMAL if neg else FloatClass.POSITIVE_NORMAL


def next_up(x: float) -> float:
    """Least binary64 strictly greater than x; +inf is a fixed point.

    Both zeros step to the least positive subnormal.  NaN has no neighbor.
    """
    if math.isnan(x):
        raise ValueError("next_up is undefined for NaN")
    return math.nextafter(x, math.inf)


def next_down(x: float) -> float:
    """Greatest binary64 strictly less than x; -inf is a fixed point."""
    if math.isnan(x):
        raise ValueError("next_down is undefined for NaN")
    return math.nextafter(x, -math.inf)


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Error-free addition: (hi, lo) with hi = RN(a+b) and hi + lo == a + b.

    Branch-free six-operation form; valid for finite a, b whose rounded sum
    stays finite.
    """
    s = a + b
    ap = s - b
    bp = s - ap
    da = a - ap
    db = b - bp
    return s, da + db


def _decompose(x: float) -> tuple[int, int]:
    """x as m * 2**e with m an integer, |m| < 2**53; (0, e) for zeros."""
    f, ex = math.frexp(x)
    return int(f * _TWO_53), ex - 53


def _scaled_cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    """Sign of m1*2**e1 - m2*2**e2 using exact integer shifts."""
    d = e1 - e2
    if d >= 0:
        diff = (m1 << d) - m2
    else:
        diff = m1 - (m2 << -d)
    return (diff > 0) - (diff < 0)


# Dekker's TwoProduct is exact when its splits do not overflow and no partial
# product underflows.  Take 2**-901 < |a*b| and |a|, |b| < 2**900:
#   - the split computes SPLIT*x with |SPLIT*x| < 2**928, so it cannot
#     overflow, and Veltkamp's split is then exact: x = hi + lo, hi and lo
#     each of at most 26 significant bits (lo carrying its own sign), both
#     multiples of ulp(x);
#   - each of the four partial products therefore fits in 52 bits and is a
#     multiple of ulp(a)*ulp(b) = 2**(ea+eb-104), ea and eb being the
#     exponents of a and b; |a*b| > 2**-901 gives ea + eb >= -902, so that
#     quantum is at least 2**-1006, above the subnormal quantum 2**-1074:
#     nothing underflows and every partial product is exact;
#   - all of them are below 2**902 in magnitude, so nothing overflows, and
#     Dekker (1971) shows that the sum in _two_product_error is exact.
# The guard 2**-900 < |.| < 2**900 on operands and result meets this for a
# product; for q*b in a quotient and r*r in a square root the product is
# within a factor of 2 of the dividend or radicand, which the guard bounds.
# (The tight limits are |x| < 2**996 and ea + eb >= -970; the guard leaves
# slack.)  A residual compared with zero after one more float subtraction
# keeps its sign: with gradual underflow x - y rounds to zero only when
# x == y, and rounding is monotonic.
_SPLIT = 134217729.0                     # 2**27 + 1
_TINY = 2.0 ** -900
_HUGE = 2.0 ** 900


def _two_product_error(a: float, b: float, p: float) -> float:
    """a*b - p exactly, for p = RN(a*b) with a, b, p inside the guard range."""
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def prod_residual_sign(a: float, b: float, p: float) -> int:
    """Sign of a*b - p for finite operands and p = RN(a*b) finite.

    Float path inside the guard range; outside it the residual is never
    materialized as a float, so this is safe arbitrarily deep in the
    subnormal range.
    """
    if _TINY < abs(a) < _HUGE and _TINY < abs(b) < _HUGE and _TINY < abs(p) < _HUGE:
        e = _two_product_error(a, b, p)
        return (e > 0.0) - (e < 0.0)
    if a == 0.0 or b == 0.0:
        return 0
    ma, ea = _decompose(a)
    mb, eb = _decompose(b)
    mp, ep = _decompose(p)
    return _scaled_cmp(ma * mb, ea + eb, mp, ep)


def quot_residual_sign(a: float, b: float, q: float) -> int:
    """Sign of a/b - q for finite a, finite nonzero b, and q = RN(a/b).

    Equal to sign(a - q*b) * sign(b).  Inside the guard range,
    q*b = p + e exactly by TwoProduct, and p = RN(q*b) lies within a factor
    of 2 of a, so a - p is exact (Sterbenz) and a - q*b = (a - p) - e.
    Outside it the comparison is exact integer work on the significands.
    """
    if _TINY < abs(a) < _HUGE and _TINY < abs(b) < _HUGE and _TINY < abs(q) < _HUGE:
        p = q * b
        r = (a - p) - _two_product_error(q, b, p)
        s = (r > 0.0) - (r < 0.0)
    else:
        ma, ea = _decompose(a)
        mq, eq = _decompose(q)
        mb, eb = _decompose(b)
        s = _scaled_cmp(ma, ea, mq * mb, eq + eb)
    return -s if b < 0.0 else s


def sqrt_residual_sign(x: float, r: float) -> int:
    """Sign of sqrt(x) - r for finite x > 0 and r = RN(sqrt(x)).

    sqrt(x) and r are positive, so this is the sign of x - r*r.  For x
    inside the guard range, r lies within 2**-450 and 2**450, and
    x - r*r = (x - p) - e with r*r = p + e by TwoProduct and x - p exact
    (Sterbenz); outside it the comparison is exact integer work.
    """
    if _TINY < x < _HUGE:
        p = r * r
        d = (x - p) - _two_product_error(r, r, p)
        return (d > 0.0) - (d < 0.0)
    mx, ex = _decompose(x)
    mr, er = _decompose(r)
    return _scaled_cmp(mx, ex, mr * mr, 2 * er)


def decimal_form(x: float) -> str:
    """Shortest decimal that round-trips; integral values drop the '.0'.

    Specials render as the symbols +inf, -inf, qnan, snan; -0.0 keeps its
    sign.
    """
    if math.isnan(x):
        return "snan" if is_signaling(x) else "qnan"
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    if x == 0.0:
        return "-0.0" if sign_bit(x) else "0"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)
