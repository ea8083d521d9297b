"""The benchmark's own oracle for liamath results.

Nothing here imports liamath or the repository's tests, so neither a library
change nor a test edit can move what the benchmark calls correct.  Exact
values come from integer arithmetic on `float.as_integer_ratio`; everything
else (special values, indicators, handler outcomes, CLI text) is modelled
from the documented behaviour of the library as of the commit that added
this benchmark.

Rules the oracle pins down:

* Rounding: the exact rational result rounded to binary64 in the requested
  direction (nearest and nearest-even both tie to even).
* Overflow: the exact result's magnitude exceeds MAX_FINITE.  It also sets
  inexact.  The value is +-inf or +-MAX_FINITE as the direction gives.
* Underflow (tininess after rounding, the rule in `ops._finish`): the result
  is inexact and the returned, bounded-range rounded value has magnitude
  below MIN_NORMAL.  It also sets inexact.
* Inexact: the returned value differs from the exact result.
* Invalid: a signaling-NaN operand, inf - inf, 0 * inf, 0 / 0, inf / inf,
  sqrt of a number below zero.  Divide-by-zero: finite nonzero / zero.
* NaN results made by `ops` are the canonical quiet NaN.  NaN payloads that
  the library passes through host arithmetic are taken from host arithmetic
  here too.

A known library defect the oracle does not model: `fpcore.two_sum(a, b)`
overflows inside when one addend is +-MAX_FINITE and the other has the
opposite sign (`two_sum_overflows`), so the library reads the error of the
sum as 0 and returns the round-to-nearest sum in every mode, without
inexact.  The oracle keeps the correct answer and counts such sums in
`two_sum_defect_hits`, so that a generator can see which inputs reach it.

Mode codes are the interchange codes of `RoundingMode`: 0 toward zero,
1 nearest, 2 toward +inf, 3 toward -inf, 4 nearest-even.
"""

from __future__ import annotations

import json
import math
import struct

ZERO, NEAREST, UP, DOWN, NEAREST_EVEN = 0, 1, 2, 3, 4
MODES = (ZERO, NEAREST_EVEN, UP, DOWN)
MODE_LABELS = {
    ZERO: "zero",
    NEAREST: "nearest",
    UP: "positive-infinity",
    DOWN: "negative-infinity",
    NEAREST_EVEN: "nearest-even",
}

OVERFLOW = "overflow"
UNDERFLOW = "underflow"
INEXACT = "inexact"
INVALID = "invalid"
DIVZERO = "divide-by-zero"
MASK = frozenset({INEXACT})

INF = math.inf
MAX_FINITE = float.fromhex("0x1.fffffffffffffp+1023")
MIN_NORMAL = float.fromhex("0x1p-1022")
MIN_SUBNORMAL = float.fromhex("0x1p-1074")
_MAX_SCALED = ((1 << 53) - 1) << 971          # MAX_FINITE as an integer


_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


def bits(x: float) -> int:
    return _U64.unpack(_F64.pack(x))[0]


def from_bits(b: int) -> float:
    return _F64.unpack(_U64.pack(b))[0]


QNAN = from_bits(0x7FF8000000000000)
SNAN = from_bits(0x7FF0000000000001)


def signbit(x: float) -> bool:
    return bool(bits(x) >> 63)


def is_snan(x: float) -> bool:
    b = bits(x)
    return (b >> 52) & 0x7FF == 0x7FF and b & ((1 << 52) - 1) != 0 and not b & (1 << 51)


def quieted(x: float) -> float:
    return from_bits(bits(x) | (1 << 51))


# --- exact rounding ----------------------------------------------------------


def round_ratio(n: int, d: int, mode: int) -> tuple[float, bool, bool]:
    """Round the nonzero rational n/d (d > 0) in mode.

    Returns (value, inexact, overflow) under the rules in the module doc.
    """
    neg = n < 0
    if neg:
        n = -n
    nearest = mode in (NEAREST, NEAREST_EVEN)
    away = (mode == UP and not neg) or (mode == DOWN and neg)
    e = n.bit_length() - d.bit_length()
    if (n << -e if e < 0 else n) < (d << e if e > 0 else d):
        e -= 1
    q = max(e - 52, -1074)
    den = d << q if q >= 0 else d
    m, rem = divmod(n if q >= 0 else n << -q, den)
    if rem:
        if nearest:
            twice = 2 * rem
            if twice > den or (twice == den and m & 1):
                m += 1
        elif away:
            m += 1
    over = n > _MAX_SCALED * d
    if m.bit_length() + q > 1024:
        value = INF if (nearest or away) else MAX_FINITE
    else:
        value = math.ldexp(m, q)
    return (-value if neg else value), bool(rem) or over, over


def _finish(value: float, inexact: bool, over: bool):
    """(value, kinds recorded before notifying, kind notified or None)."""
    if over:
        return value, (INEXACT,), OVERFLOW
    if inexact and abs(value) < MIN_NORMAL:
        return value, (INEXACT,), UNDERFLOW
    if inexact:
        return value, (), INEXACT
    return value, (), None


def _exact_sum(a: float, b: float) -> tuple[int, int]:
    n1, d1 = a.as_integer_ratio()
    n2, d2 = b.as_integer_ratio()
    if d1 >= d2:
        return n1 + n2 * (d1 // d2), d1
    return n1 * (d2 // d1) + n2, d2


def two_sum_overflows(a: float, b: float) -> bool:
    """Whether the six-operation `two_sum` of the library overflows inside
    while the rounded sum a + b is finite (the defect in the module doc)."""
    s = a + b
    if not math.isfinite(s):
        return False
    ap = s - b
    return math.isinf(ap) or math.isinf(s - ap)


two_sum_defect_hits = 0


def _finite_add(a: float, b: float, mode: int):
    global two_sum_defect_hits
    if two_sum_overflows(a, b):
        two_sum_defect_hits += 1
    n, d = _exact_sum(a, b)
    if n == 0:
        if a == 0.0 and b == 0.0 and signbit(a) == signbit(b):
            return a, (), None
        return (-0.0 if mode == DOWN else 0.0), (), None
    return _finish(*round_ratio(n, d, mode))


def _finite_mul(a: float, b: float, mode: int):
    if a == 0.0 or b == 0.0:
        return (-0.0 if signbit(a) != signbit(b) else 0.0), (), None
    n1, d1 = a.as_integer_ratio()
    n2, d2 = b.as_integer_ratio()
    return _finish(*round_ratio(n1 * n2, d1 * d2, mode))


def _finite_div(a: float, b: float, mode: int):
    if a == 0.0:
        return (-0.0 if signbit(a) != signbit(b) else 0.0), (), None
    n1, d1 = a.as_integer_ratio()
    n2, d2 = b.as_integer_ratio()
    n, d = n1 * d2, d1 * n2
    if d < 0:
        n, d = -n, -d
    return _finish(*round_ratio(n, d, mode))


def _finite_sqrt(x: float, mode: int):
    """x > 0 finite.  The root of a positive double is always normal."""
    n, d = x.as_integer_ratio()
    e = -(d.bit_length() - 1)               # d is a power of two
    if e & 1:
        n <<= 1
        e -= 1
    guard = max(0, (112 - n.bit_length()) // 2 + 1)
    scaled = n << (2 * guard)
    r = math.isqrt(scaled)
    rem = scaled - r * r
    shift = r.bit_length() - 53
    top = r >> shift
    low = r & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    if mode in (NEAREST, NEAREST_EVEN):
        if low > half or (low == half and (rem or top & 1)):
            top += 1
    elif mode == UP and (low or rem):
        top += 1
    value = math.ldexp(top, e // 2 - guard + shift)
    return value, (), (INEXACT if (low or rem) else None)


# --- ops: value, recorded kinds, notified kind -------------------------------


def op_add(a: float, b: float, mode: int):
    if is_snan(a) or is_snan(b):
        return QNAN, (), INVALID
    if a != a or b != b:
        return a + b, (), None
    if math.isinf(a) or math.isinf(b):
        r = a + b
        return (QNAN, (), INVALID) if r != r else (r, (), None)
    return _finite_add(a, b, mode)


def op_sub(a: float, b: float, mode: int):
    if is_snan(a) or is_snan(b):
        return QNAN, (), INVALID
    if a != a or b != b:
        return a - b, (), None
    if math.isinf(a) or math.isinf(b):
        r = a - b
        return (QNAN, (), INVALID) if r != r else (r, (), None)
    return _finite_add(a, -b, mode)


def op_mul(a: float, b: float, mode: int):
    if is_snan(a) or is_snan(b):
        return QNAN, (), INVALID
    if a != a or b != b:
        return a * b, (), None
    if math.isinf(a) or math.isinf(b):
        if a == 0.0 or b == 0.0:
            return QNAN, (), INVALID
        return (INF if signbit(a) == signbit(b) else -INF), (), None
    return _finite_mul(a, b, mode)


def op_div(a: float, b: float, mode: int):
    if is_snan(a) or is_snan(b):
        return QNAN, (), INVALID
    if a != a:
        return a, (), None
    if b != b:
        return b, (), None
    inf = INF if signbit(a) == signbit(b) else -INF
    if b == 0.0:
        if a == 0.0:
            return QNAN, (), INVALID
        if math.isinf(a):
            return inf, (), None
        return inf, (), DIVZERO
    if math.isinf(a):
        return (QNAN, (), INVALID) if math.isinf(b) else (inf, (), None)
    if math.isinf(b):
        return (0.0 if signbit(a) == signbit(b) else -0.0), (), None
    return _finite_div(a, b, mode)


def op_sqrt(x: float, mode: int):
    if is_snan(x):
        return QNAN, (), INVALID
    if x != x or x == 0.0 or x == INF:
        return x, (), None
    if x < 0.0:
        return QNAN, (), INVALID
    return _finite_sqrt(x, mode)


OPS = {"add": op_add, "sub": op_sub, "mul": op_mul, "div": op_div, "sqrt": op_sqrt}


def flags_of(outcome) -> frozenset:
    """Indicator set an ops call leaves behind under recording style."""
    _, recorded, kind = outcome
    return frozenset(recorded + ((kind,) if kind else ()))


# --- rounding.*_dir: values only ---------------------------------------------


def dir_value(name: str, a: float, b: float | None, mode: int) -> float:
    if name in ("add", "sub", "mul"):
        if a != a or b != b or math.isinf(a) or math.isinf(b):
            return a + b if name == "add" else a - b if name == "sub" else a * b
        return OPS[name](a, b, mode)[0]
    if name == "div":
        if a != a:
            return quieted(a)
        if b != b:
            return quieted(b)
        if b == 0.0 and a == 0.0:
            return QNAN
        if math.isinf(a) and math.isinf(b):
            return QNAN
        return op_div(a, b, mode)[0]
    if a != a:
        return quieted(a)
    return op_sqrt(a, mode)[0]


# --- intervals: (lo, hi) tuples, EMPTY is (+inf, -inf) -----------------------

EMPTY = (INF, -INF)
WHOLE = (-INF, INF)


def is_empty(i) -> bool:
    return i[0] > i[1]


def _endpoint(fn, x, y, mode, flags):
    value, recorded, kind = fn(x, y, mode)
    flags.update(recorded)
    if kind:
        flags.add(kind)
    return value


def _sum_endpoint(x, y, mode, flags):
    if math.isinf(x) and math.isinf(y) and (x > 0) != (y > 0):
        return -INF if mode == DOWN else INF
    return _endpoint(op_add, x, y, mode, flags)


def _diff_endpoint(x, y, mode, flags):
    if math.isinf(x) and math.isinf(y) and (x > 0) == (y > 0):
        return -INF if mode == DOWN else INF
    return _endpoint(op_sub, x, y, mode, flags)


def _prod_endpoint(x, y, mode, flags):
    if (x == 0.0 and math.isinf(y)) or (math.isinf(x) and y == 0.0):
        return 0.0
    return _endpoint(op_mul, x, y, mode, flags)


def _quot_endpoint(x, y, mode, flags):
    if math.isinf(x) and math.isinf(y):
        return 0.0 if (x > 0) == (y > 0) else -0.0
    return _endpoint(op_div, x, y, mode, flags)


def _corners(i1, i2):
    return ((i1[0], i2[0]), (i1[0], i2[1]), (i1[1], i2[0]), (i1[1], i2[1]))


# Each interval function returns (value, notified kind or None, operation
# name, operands); endpoint arithmetic only records into flags.


def i_add(i1, i2, flags):
    if is_empty(i1) or is_empty(i2):
        return EMPTY, None, None, None
    lo = _sum_endpoint(i1[0], i2[0], DOWN, flags)
    hi = _sum_endpoint(i1[1], i2[1], UP, flags)
    return (lo, hi), None, None, None


def i_sub(i1, i2, flags):
    if is_empty(i1) or is_empty(i2):
        return EMPTY, None, None, None
    lo = _diff_endpoint(i1[0], i2[1], DOWN, flags)
    hi = _diff_endpoint(i1[1], i2[0], UP, flags)
    return (lo, hi), None, None, None


def i_mul(i1, i2, flags):
    if is_empty(i1) or is_empty(i2):
        return EMPTY, None, None, None
    corners = _corners(i1, i2)
    lo = min([_prod_endpoint(x, y, DOWN, flags) for x, y in corners])
    hi = max([_prod_endpoint(x, y, UP, flags) for x, y in corners])
    return (lo, hi), None, None, None


def i_div(i1, i2, flags):
    if is_empty(i1) or is_empty(i2):
        return EMPTY, None, None, None
    if i2[0] == 0.0 and i2[1] == 0.0:
        return EMPTY, INVALID, "interval-div", (i1, i2)
    if i2[0] <= 0.0 <= i2[1]:
        return WHOLE, DIVZERO, "interval-div", (i1, i2)
    corners = _corners(i1, i2)
    lo = min([_quot_endpoint(x, y, DOWN, flags) for x, y in corners])
    hi = max([_quot_endpoint(x, y, UP, flags) for x, y in corners])
    return (lo, hi), None, None, None


def make_interval(lo, hi, flags):
    if lo != lo or hi != hi or (lo > hi and (lo, hi) != EMPTY):
        return EMPTY, INVALID, "interval", (lo, hi)
    return (lo, hi), None, None, None


def radius(i, flags):
    if is_empty(i):
        return QNAN, INVALID, "radius", (i,)
    if i[0] == i[1]:
        return 0.0, None, None, None
    if math.isinf(i[0]) or math.isinf(i[1]):
        return INF, None, None, None
    return _endpoint(op_sub, i[1], i[0], UP, flags), None, None, None


def is_point(i, flags):
    if is_empty(i):
        return False, INVALID, "point?", (i,)
    return i[0] == i[1], None, None, None


def i_member(x, i, flags):
    if x != x:
        return False, INVALID, "member?", (x, i)
    if is_empty(i):
        return False, None, None, None
    return i[0] <= x <= i[1], None, None, None


def i_subseteq(i1, i2, flags):
    if is_empty(i1):
        return True, None, None, None
    if is_empty(i2):
        return False, None, None, None
    return (i2[0] <= i1[0] and i1[1] <= i2[1]), None, None, None


INTERVAL_OPS = {
    "i_add": i_add,
    "i_sub": i_sub,
    "i_mul": i_mul,
    "i_div": i_div,
    "make_interval": make_interval,
    "radius": radius,
    "is_point": is_point,
    "i_member": i_member,
    "i_subseteq": i_subseteq,
}


# --- handler search ----------------------------------------------------------

class _Unset:
    def __repr__(self) -> str:
        return "UNSET"


UNSET = _Unset()


def resolve(frames, kind, cont, flags):
    """Search trap frames innermost-first for a notification of kind.

    frames is a list of frames, outermost first; a frame is a list of
    clauses (kinds, actions); an action is ("default",), ("clear",),
    ("reraise",), ("raise", kind, payload) or ("continue", payload), with
    UNSET for an absent payload.  Only the first clause of a frame that
    names the kind runs.  Returns (True, value) when a clause continues, or
    (False, (kind, continuation)) for the notification that escapes.
    """
    for frame in reversed(frames):
        clause = next((c for c in frame if kind in c[0]), None)
        if clause is None:
            continue
        for action in clause[1]:
            tag = action[0]
            if tag == "clear":
                flags.discard(kind)
                continue
            if tag == "continue":
                return True, (cont if action[1] is UNSET else action[1])
            if tag == "raise":
                kind = action[1]
                flags.add(kind)
                if action[2] is not UNSET:
                    cont = action[2]
            break
    return False, (kind, cont)


# --- rendering ---------------------------------------------------------------


def decimal_form(x: float) -> str:
    if x != x:
        return "snan" if is_snan(x) else "qnan"
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    if x == 0.0:
        return "-0.0" if signbit(x) else "0"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return decimal_form(v)
    if isinstance(v, tuple):
        return "empty" if is_empty(v) else f"[{decimal_form(v[0])}, {decimal_form(v[1])}]"
    return str(v)


def render_value(v) -> str:
    if isinstance(v, float) and not (v != v or math.isinf(v)):
        return f"{decimal_form(v)} ({v.hex()})"
    return format_value(v)


def describe(kind, operation, operands, cont) -> str:
    args = ", ".join(format_value(v) for v in operands)
    return f"{kind} in {operation}({args}) continuation={format_value(cont)}"


CONFORMANCE_JSON = json.dumps(
    {
        "cl-package-uses-lia": False,
        "fma-strategy": "software-fallback",
        "iec60559-binary64": True,
        "lia-subset-available": True,
        "lia1-compliance": True,
        "lia1-subset-available": True,
        "lia2-compliance": False,
        "lia2-subset-available": True,
        "lia3-compliance": False,
        "lia3-subset-available": False,
        "provides-floating-point-environment": True,
        "provides-infinities": True,
        "provides-nacf": True,
        "provides-nans": True,
        "provides-nri": True,
        "provides-ntm": True,
        "provides-rounding-modes": True,
        "to-nearest-alias": True,
    },
    indent=2,
) + "\n"


# --- the CLI expression language ---------------------------------------------
#
# Generated lines are syntax trees (tuples) that cli_text() prints and
# CliModel evaluates.  Node shapes:
#   ("num", value, text)                 literal or constant, printed as text
#   ("arith", name, mode|None, args)     + - * / sqrt, mode from a suffix
#   ("cmp", "eq"|"neq", args)
#   ("rounding", mode, expr) ("style", style, expr)
#   ("trap", before, after, notify_by|None, body, clauses)
#   ("interval", lo, hi) ("iop", name, i1, i2)
#   ("radius", i) ("point?", i) ("member?", x, i) ("subset?", i1, i2)
#   ("raw", text, message)               a malformed line and its error

ARITH_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/", "sqrt": "sqrt"}
MODE_SUFFIX = {None: "", DOWN: ".<", UP: ".>", NEAREST_EVEN: ".<>"}
STYLE_KEYWORD = {"recording": ":recording", "error": ":error", "terminating": ":terminating"}
INTERVAL_SYMBOLS = {"i_add": "+", "i_sub": "-", "i_mul": "*", "i_div": "/"}


def _action_text(action) -> str:
    tag = action[0]
    if tag == "continue":
        return ":continue" if action[1] is UNSET else f"(:continue {action[2]})"
    if tag == "raise" and action[1] is not None:
        payload = "" if action[2] is UNSET else f" {action[3]}"
        return f"(:raise :{action[1]}{payload})"
    return {"clear": ":clear", "default": ":default", "raise": ":raise"}[tag]


def cli_text(node) -> str:
    tag = node[0]
    if tag == "num":
        return node[2]
    if tag == "arith":
        sym = ARITH_SYMBOLS[node[1]] + MODE_SUFFIX[node[2]]
        return f"({sym} {' '.join(cli_text(a) for a in node[3])})"
    if tag == "cmp":
        sym = "=" if node[1] == "eq" else "/="
        return f"({sym} {' '.join(cli_text(a) for a in node[2])})"
    if tag == "rounding":
        return f"(rounding :{MODE_LABELS[node[1]]} {cli_text(node[2])})"
    if tag == "style":
        return f"(style {STYLE_KEYWORD[node[1]]} {cli_text(node[2])})"
    if tag == "trap":
        _, before, after, notify_by, body, clauses = node
        opts = []
        if notify_by:
            opts += [":notify-by", STYLE_KEYWORD[notify_by]]
        if before:
            opts += [":before"] + [":" + b for b in before]
        if after:
            opts += [":after"] + [":" + a for a in after]
        parts = [f"({' '.join(opts)})", cli_text(body)]
        for kinds, actions in clauses:
            parts.append(f"(:{kinds[0]} {' '.join(_action_text(a) for a in actions)})")
        return f"(trap-math {' '.join(parts)})"
    if tag == "interval":
        return f"(interval {cli_text(node[1])} {cli_text(node[2])})"
    if tag == "iop":
        return f"({INTERVAL_SYMBOLS[node[1]]} {cli_text(node[2])} {cli_text(node[3])})"
    if tag == "raw":
        return node[1]
    return f"({tag} {' '.join(cli_text(a) for a in node[1:])})"


class CliEscape(Exception):
    """A notification that no clause resolved."""


class CliTerminate(Exception):
    """A notification under terminating style."""


class CliSyntax(Exception):
    """A malformed line."""


class CliModel:
    """Evaluates syntax trees against a model of one evaluation context."""

    def __init__(self, style: str, mode: int):
        self.flags: set[str] = set()
        self.style = style
        self.mode = mode
        self.frames: list = []

    def notify(self, kind, operation, operands, cont):
        self.flags.add(kind)
        if self.style == "recording" or kind in MASK:
            return cont
        if self.style == "terminating":
            raise CliTerminate("LIA-NTM: " + describe(kind, operation, operands, cont))
        resolved, out = resolve(self.frames, kind, cont, self.flags)
        if resolved:
            return out
        raise CliEscape("LIA-error: " + describe(out[0], operation, operands, out[1]))

    def _scalar(self, name, args, mode):
        value, recorded, kind = OPS[name](*args, self.mode if mode is None else mode)
        self.flags.update(recorded)
        if kind:
            value = self.notify(kind, name, tuple(args), value)
        return value

    def _interval(self, name, *args):
        saved = self.style
        self.style = "recording"
        try:
            value, kind, operation, operands = INTERVAL_OPS[name](*args, self.flags)
        finally:
            self.style = saved
        if kind:
            value = self.notify(kind, operation, operands, value)
        return value

    def _compare(self, name, args):
        if name == "eq":
            pairs = zip(args, args[1:])
        else:
            pairs = ((args[i], args[j]) for i in range(len(args)) for j in range(i + 1, len(args)))
        for x, y in pairs:
            if is_snan(x) or is_snan(y):
                r = self.notify(INVALID, name, (x, y), False)
            elif x != x or y != y:
                r = name == "neq"
            else:
                r = (x == y) if name == "eq" else (x != y)
            if not r:
                return False
        return True

    def eval(self, node):
        tag = node[0]
        if tag == "num":
            return node[1]
        if tag == "raw":
            raise CliSyntax("liamath: " + node[2])
        if tag == "arith":
            return self._scalar(node[1], [self.eval(a) for a in node[3]], node[2])
        if tag == "cmp":
            return self._compare(node[1], [self.eval(a) for a in node[2]])
        if tag in ("rounding", "style"):
            attr = "mode" if tag == "rounding" else "style"
            saved = getattr(self, attr)
            setattr(self, attr, node[1])
            try:
                return self.eval(node[2])
            finally:
                setattr(self, attr, saved)
        if tag == "trap":
            return self._trap(node)
        if tag == "interval":
            return self._interval("make_interval", self.eval(node[1]), self.eval(node[2]))
        if tag == "iop":
            return self._interval(node[1], self.eval(node[2]), self.eval(node[3]))
        if tag == "radius":
            return self._interval("radius", self.eval(node[1]))
        if tag == "point?":
            i = self.eval(node[1])
            if is_empty(i):
                return self.notify(INVALID, "point?", (i,), False)
            return self._compare("eq", [i[0], i[1]])
        if tag == "member?":
            return self._interval("i_member", self.eval(node[1]), self.eval(node[2]))
        if tag == "subset?":
            return self._interval("i_subseteq", self.eval(node[1]), self.eval(node[2]))
        raise ValueError(f"unknown node {tag!r}")

    def _trap(self, node):
        _, before, after, notify_by, body, clauses = node
        frame = [
            (kinds, tuple(model_action(a) for a in actions)) for kinds, actions in clauses
        ]
        snapshot = set(self.flags) if "save" in before else None
        if "clear" in before:
            self.flags.clear()
        saved = self.style
        self.style = notify_by or "error"
        self.frames.append(frame)
        try:
            value = self.eval(body)
        finally:
            self.frames.pop()
            self.style = saved
        if snapshot is not None and "merge" in after:
            self.flags |= snapshot
        return value

    def line(self, node, dump_env: bool) -> tuple[str, str]:
        """Expected (stdout, stderr) of one REPL line or eval expression."""
        try:
            value = self.eval(node)
        except (CliSyntax, CliEscape) as exc:
            return "", f"{exc}\n"
        out = render_value(value) + "\n"
        if dump_env:
            flags = ", ".join(sorted(self.flags)) if self.flags else "none"
            out += f"flags: {flags}\nmode: {MODE_LABELS[self.mode]}\n"
        return out, ""


def model_action(action):
    """Generator action -> resolve() action (payloads as values)."""
    tag = action[0]
    if tag == "continue":
        return ("continue", action[1])
    if tag == "raise":
        if action[1] is None:
            return ("reraise",)
        return ("raise", action[1], action[2])
    return (tag,)


def expected_eval(node, style: str, mode: int, dump_env: bool) -> tuple[str, str, int]:
    """Expected (stdout, stderr, exit status) of `liamath eval`."""
    model = CliModel(style, mode)
    try:
        out, err = model.line(node, dump_env)
    except CliTerminate as exc:
        return "", f"{exc}\n", 2
    return out, err, (1 if err else 0)
