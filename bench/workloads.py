"""The three closed-loop workloads: input generators, timed loops and checks.

Each workload draws its inputs only from `random.Random(seed)`, in bounded
chunks made outside the timed phase.  The timed loop runs one chunk with
one caller, timing each operation on its own; the check then compares every
result with the oracle, also outside the timed phase.

A workload object has four steps per chunk:

  chunk = w.next_chunk()                 plain data, no liamath objects
  job = w.prepare(lib, chunk)            bind library calls and objects
  w.run(job, latencies, results)         the timed closed loop
  w.check(lib, chunk, job, results)      number of failed operations

`lib` is a namespace holding the liamath modules; every function is looked
up through it when a chunk is prepared, so a tracer that has
replaced module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import sys
import time

import oracle as O
from oracle import DIVZERO, INF, INVALID, OVERFLOW, UNDERFLOW, UNSET, bits, from_bits

NAMES = ("add", "sub", "mul", "div", "sqrt")
SPECIALS = (INF, -INF, O.QNAN, O.SNAN)
_pc = time.perf_counter_ns


# --- operand distributions ---------------------------------------------------


def stratified(rng: random.Random) -> tuple[float, bool]:
    """(operand, low_entropy): wide normals, subnormals, near overflow, near
    one, small integers, powers of two, signed zeros.  Low-entropy draws
    come from small sets and can repeat, so callers deduplicate them."""
    r = rng.random()
    sign = rng.getrandbits(1) << 63
    if r < 0.35:
        exp = rng.randint(1, 2046)
    elif r < 0.50:
        exp = 0
    elif r < 0.65:
        exp = rng.randint(2015, 2046)
    elif r < 0.80:
        exp = rng.randint(1018, 1028)
    elif r < 0.90:
        return float(rng.randint(-100, 100)), True
    elif r < 0.95:
        return from_bits(sign | rng.randint(1, 2046) << 52), True
    else:
        return from_bits(sign), True
    return from_bits(sign | exp << 52 | rng.getrandbits(52)), False


def _extreme(rng: random.Random) -> float:
    """A double whose exponent sits near the overflow or underflow edge."""
    exp = rng.randint(1, 90) if rng.random() < 0.5 else rng.randint(1960, 2046)
    return from_bits(rng.getrandbits(1) << 63 | exp << 52 | rng.getrandbits(52))


def _operand(rng: random.Random, divisor: bool = False) -> tuple[float, bool]:
    """About 5% special values: +-inf, qNaN, sNaN, and zero divisors."""
    if rng.random() < 0.05:
        if divisor and rng.random() < 0.5:
            return (-0.0 if rng.getrandbits(1) else 0.0), True
        return rng.choice(SPECIALS), True
    return stratified(rng)


def scalar_pair(rng: random.Random, name: str) -> tuple[float, float | None, bool]:
    """Operands for one scalar operation, and whether both are low-entropy."""
    a, low_a = _operand(rng)
    if name == "sqrt":
        if rng.random() < 0.9:
            a = abs(a)
        return a, None, low_a
    b, low_b = _operand(rng, divisor=name == "div")
    r = rng.random()
    if name in ("add", "sub") and r < 0.20 and math.isfinite(a):
        b = -a if name == "add" else a          # near cancellation
        for _ in range(rng.randint(0, 3)):
            b = math.nextafter(b, INF)
        low_b = low_a
    elif name in ("mul", "div") and r < 0.15:
        a, b = _extreme(rng), _extreme(rng)     # force overflow or underflow
        low_a = low_b = False
    elif name in ("mul", "div") and r < 0.20:
        # exact result within a few ulps of MIN_NORMAL: the tininess rule
        a = from_bits(rng.getrandbits(1) << 63 | rng.randint(1, 1020) << 52 | rng.getrandbits(52))
        b = O.MIN_NORMAL / a if name == "mul" else a / O.MIN_NORMAL
        for _ in range(rng.randint(0, 2)):
            b = math.nextafter(b, rng.choice((INF, -INF)))
        low_a = low_b = False
    return a, b, low_a and low_b


class _Dedup:
    """Rejects repeated low-entropy inputs so no input repeats in a run.

    A Bloom filter of fixed size, so memory does not grow with the length
    of the run; a false positive only makes the generator draw again."""

    BITS = 1 << 24

    def __init__(self):
        self.bits = bytearray(self.BITS // 8)

    def fresh(self, key: str) -> bool:
        digest = hashlib.blake2b(key.encode(), digest_size=12).digest()
        slots = [int.from_bytes(digest[i:i + 4], "little") % self.BITS for i in (0, 4, 8)]
        if all(self.bits[k >> 3] >> (k & 7) & 1 for k in slots):
            return False
        for k in slots:
            self.bits[k >> 3] |= 1 << (k & 7)
        return True


def _canon(obj):
    """Process-independent text form of generated data (NaN payloads kept)."""
    if isinstance(obj, float):
        return f"f{bits(obj):x}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_canon(x) for x in obj) + ")"
    return repr(obj)


def _same(expected, got) -> bool:
    """Bit-exact comparison of an oracle value with a library value."""
    if isinstance(expected, bool):
        return isinstance(got, bool) and got == expected
    if isinstance(expected, float):
        return isinstance(got, float) and bits(got) == bits(expected)
    if isinstance(expected, tuple):
        return (
            hasattr(got, "low")
            and bits(got.low) == bits(expected[0])
            and bits(got.high) == bits(expected[1])
        )
    return False


def _report(workload: str, detail: str, state: dict) -> None:
    """Print the first few disagreements to stderr."""
    state["shown"] = state.get("shown", 0) + 1
    if state["shown"] <= 5:
        print(f"{workload}: mismatch: {detail}", file=sys.stderr)


# --- scalar_sweep ------------------------------------------------------------


class ScalarSweep:
    """add/sub/mul/div/sqrt x 4 modes through three entry styles, under
    recording style with the default mask: `rounding.*_dir`, `ops.*` with
    an explicit mode, and `ops.*` with the ambient mode of a
    `rounding_mode(...)` scope around each block."""

    name = "scalar_sweep"
    chunk_ops = 4000

    def __init__(self, seed: int, chunk_ops: int | None = None):
        self.rng = random.Random(seed)
        self.dedup = _Dedup()
        self.chunk_ops = chunk_ops or self.chunk_ops
        self.env = None
        self.shown: dict = {}

    def next_chunk(self):
        rng = self.rng
        blocks, total = [], 0
        while total < self.chunk_ops:
            entry = rng.randrange(3)
            mode = rng.choice(O.MODES)
            calls = []
            for _ in range(rng.randint(1, 16)):
                while True:
                    name = rng.choice(NAMES)
                    a, b, low = scalar_pair(rng, name)
                    if not low or self.dedup.fresh(_canon((entry, mode, name, a, b))):
                        break
                calls.append((name, a, b))
            blocks.append((entry, mode, calls))
            total += len(calls)
        return blocks

    def prepare(self, lib, blocks):
        mode_of = lib.rounding.RoundingMode
        job = []
        for entry, mode, calls in blocks:
            m = mode_of(mode)
            bound = []
            for name, a, b in calls:
                operands = (a,) if b is None else (a, b)
                if entry == 0:
                    bound.append((getattr(lib.rounding, name + "_dir"), operands + (m,)))
                elif entry == 1:
                    bound.append((getattr(lib.ops, name), operands + (m,)))
                else:
                    bound.append((getattr(lib.ops, name), operands))
            job.append((m if entry == 2 else None, bound))
        if self.env is None:
            env_mod = lib.environment
            self.env = env_mod.FpEnvironment(style=env_mod.NotificationStyle.RECORDING)
        return job, lib.environment.rounding_mode, lib.environment.evaluation_context, self.env

    @staticmethod
    def labels(blocks) -> list[str]:
        kinds = ("rounding.{}_dir", "ops.{}/explicit", "ops.{}/ambient")
        return [kinds[entry].format(name) for entry, _, calls in blocks for name, _, _ in calls]

    @staticmethod
    def run(job, lat, results):
        blocks, rounding_mode, evaluation_context, env = job
        pc = _pc
        lat_add = lat.append
        res_add = results.append
        with evaluation_context(env):
            for scope, calls in blocks:
                with rounding_mode(scope) if scope is not None else contextlib.nullcontext():
                    for fn, args in calls:
                        t0 = pc()
                        r = fn(*args)
                        t1 = pc()
                        lat_add(t1 - t0)
                        res_add(r)

    def check(self, lib, blocks, job, results) -> int:
        """Values from the timed run; indicator sets from a replay that
        clears the flags before each operation."""
        env_mod = lib.environment
        bound_blocks, rounding_mode, evaluation_context, _ = job
        replay_env = env_mod.FpEnvironment(style=env_mod.NotificationStyle.RECORDING)
        failed = 0
        i = 0
        with evaluation_context(replay_env):
            for (entry, mode, calls), (scope, bound) in zip(blocks, bound_blocks):
                with rounding_mode(scope) if scope is not None else contextlib.nullcontext():
                    for (name, a, b), (fn, args) in zip(calls, bound):
                        replay_env.clear()
                        fn(*args)
                        got_flags = {k.value for k in replay_env.flags}
                        operands = (a,) if b is None else (a, b)
                        if entry == 0:
                            value = O.dir_value(name, a, b, mode)
                            flags = frozenset()
                        else:
                            outcome = O.OPS[name](*operands, mode)
                            value, flags = outcome[0], O.flags_of(outcome)
                        got = results[i]
                        if not (_same(value, got) and got_flags == flags):
                            failed += 1
                            _report(self.name, f"entry {entry} {name}{operands} mode {mode}: "
                                    f"got {got!r} {sorted(got_flags)}, want {value!r} "
                                    f"{sorted(flags)}", self.shown)
                        i += 1
        return failed

    @staticmethod
    def fingerprint(results) -> list:
        return [bits(r) for r in results]


# --- interval_trap -----------------------------------------------------------

_TRAP_KINDS = (OVERFLOW, UNDERFLOW, INVALID, DIVZERO)
_BINARY = ("i_add", "i_sub", "i_mul", "i_div")
_OTHER = ("make_interval", "radius", "i_member", "i_subseteq")
_RESULT_TYPE = {
    "i_add": "interval", "i_sub": "interval", "i_mul": "interval", "i_div": "interval",
    "make_interval": "interval", "radius": "float", "i_member": "bool", "i_subseteq": "bool",
}


def random_interval(rng) -> tuple[tuple[float, float], bool]:
    """Stratified interval: EMPTY, points, infinite endpoints, general."""
    r = rng.random()
    if r < 0.04:
        return O.EMPTY, True
    x, low_x = stratified(rng)
    if r < 0.12:
        return (x, x), low_x
    if r < 0.22:
        return rng.choice(((-INF, x), (x, INF), (-INF, INF))), low_x
    y, low_y = stratified(rng)
    return (min(x, y), max(x, y)), low_x and low_y


def random_divisor(rng) -> tuple[tuple[float, float], bool]:
    """About a quarter straddle zero and a few are [0, 0]."""
    r = rng.random()
    if r < 0.03:
        return rng.choice(((0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0))), True
    x, low_x = stratified(rng)
    y, low_y = stratified(rng)
    x, y = abs(x) or 1.0, abs(y) or 1.0
    low = low_x and low_y
    if r < 0.25:
        return rng.choice(((-x, y), (0.0, y), (-x, 0.0), (-x, INF), (-INF, y))), low
    lo, hi = min(x, y), max(x, y)
    if rng.random() < 0.1:
        hi = INF
    return ((lo, hi) if rng.getrandbits(1) else (-hi, -lo)), low


def _substitute(rng, kind: str):
    if kind == "interval":
        return random_interval(rng)[0]
    if kind == "float":
        return stratified(rng)[0]
    return bool(rng.getrandbits(1))


def _clause_actions(rng, result_type: str, outermost: bool) -> tuple:
    r = rng.random()
    if r < 0.30:
        return (("continue", _substitute(rng, result_type)),)
    if r < 0.45:
        return (("continue", UNSET),)
    if r < 0.60:
        return (("clear",), ("continue", UNSET))
    if r < 0.70:
        return (("clear",),)
    if r < 0.85 and not outermost:
        payload = _substitute(rng, result_type) if rng.getrandbits(1) else UNSET
        return (("raise", rng.choice(_TRAP_KINDS), payload),)
    if r < 0.93:
        return (("raise", None),)
    return (("default",),)


def random_frames(rng, result_type: str) -> list:
    """1-3 nested trap scopes, outermost first: (before, after, clauses)."""
    frames = []
    for level in range(rng.randint(1, 3)):
        before = rng.choice(((), ("save",), ("clear",), ("save", "clear")))
        after = ("merge",) if "save" in before and rng.random() < 0.7 else ()
        clauses = []
        for _ in range(rng.randint(1, 2)):
            kinds = tuple(k for k in _TRAP_KINDS if rng.random() < 0.5) or (rng.choice(_TRAP_KINDS),)
            clauses.append((kinds, _clause_actions(rng, result_type, level == 0)))
        frames.append((before, after, clauses))
    return frames


def boundary_scalar(rng) -> tuple[str, tuple, bool]:
    """A scalar op whose operands sit near the overflow or underflow edge."""
    name = rng.choice(NAMES)
    mode = rng.choice(O.MODES)
    if name == "sqrt":
        return name, (abs(_extreme(rng)), mode), False
    if name in ("add", "sub"):
        sign = rng.getrandbits(1) << 63
        a = from_bits(sign | rng.randint(2040, 2046) << 52 | rng.getrandbits(52))
        b = from_bits(sign | rng.randint(2040, 2046) << 52 | rng.getrandbits(52))
        return name, ((a, b) if name == "add" else (a, -b)) + (mode,), False
    return name, (_extreme(rng), _extreme(rng), mode), False


class IntervalTrap:
    """Interval calls and boundary scalar ops under error style, each inside
    1-3 nested trap_math scopes whose clauses continue, clear, re-kind or
    let the notification escape."""

    name = "interval_trap"
    chunk_ops = 1500

    def __init__(self, seed: int, chunk_ops: int | None = None):
        self.rng = random.Random(seed)
        self.dedup = _Dedup()
        self.chunk_ops = chunk_ops or self.chunk_ops
        self.handlers: dict = {}
        self.shown: dict = {}

    def _item(self):
        rng = self.rng
        r = rng.random()
        if r < 0.55:
            call = rng.choice(_BINARY)
            i1, low1 = random_interval(rng)
            i2, low2 = random_divisor(rng) if call == "i_div" else random_interval(rng)
            args, low = (i1, i2), low1 and low2
        elif r < 0.70:
            call = rng.choice(_OTHER)
            if call == "make_interval":
                x, low_x = stratified(rng)
                y, low_y = stratified(rng)
                roll = rng.random()
                if roll < 0.08:
                    x = rng.choice((O.QNAN, O.SNAN))
                elif roll < 0.12:
                    x, y = INF, -INF
                elif roll < 0.80:
                    x, y = min(x, y), max(x, y)
                args, low = (x, y), low_x and low_y
            elif call == "radius":
                i, low = random_interval(rng)
                args = (i,)
            elif call == "i_member":
                x, low_x = (O.QNAN, True) if rng.random() < 0.05 else stratified(rng)
                i, low_i = random_interval(rng)
                args, low = (x, i), low_x and low_i
            else:
                i1, low1 = random_interval(rng)
                i2, low2 = random_interval(rng)
                args, low = (i1, i2), low1 and low2
        else:
            call, args, low = boundary_scalar(rng)
        return call, args, low

    def next_chunk(self):
        items = []
        while len(items) < self.chunk_ops:
            call, args, low = self._item()
            if low and not self.dedup.fresh(_canon((call, args))):
                continue
            result_type = _RESULT_TYPE.get(call, "float")
            items.append((call, args, random_frames(self.rng, result_type)))
        return items

    def prepare(self, lib, items):
        ivl, env = lib.interval, lib.environment

        def obj(v):
            if isinstance(v, tuple):
                return ivl.EMPTY if O.is_empty(v) else ivl.Interval(*v)
            return v

        def action(a):
            tag = a[0]
            if tag == "continue":
                return env.Continue() if a[1] is UNSET else env.Continue(obj(a[1]))
            if tag == "clear":
                return env.CLEAR
            if tag == "default":
                return env.DEFAULT
            if a[1] is None:
                return env.RERAISE
            kind = env.Indicator(a[1])
            return env.RaiseNew(kind) if a[2] is UNSET else env.RaiseNew(kind, obj(a[2]))

        def clause(kinds, acts):
            return env.HandlerClause(tuple(env.Indicator(k) for k in kinds), *map(action, acts))

        trap_math = env.trap_math
        cache = self.handlers
        thunks = []
        for call, args, frames in items:
            if call in _RESULT_TYPE:
                fn, call_args = getattr(ivl, call), tuple(obj(a) for a in args)
            else:
                mode = lib.rounding.RoundingMode(args[-1])
                fn, call_args = getattr(lib.ops, call), args[:-1] + (mode,)
            thunk = (lambda f=fn, a=call_args: f(*a))
            for before, after, clauses in reversed(frames):
                # Handler objects without a payload are configuration, built
                # once like a program's handler table; payloads are inputs.
                if (before, after) not in cache:
                    cache[before, after] = env.TrapOptions(before=before, after=after)
                options = cache[before, after]
                handlers = []
                for kinds, acts in clauses:
                    if any(len(a) > 1 and a[-1] is not UNSET and a[1] is not None for a in acts):
                        handlers.append(clause(kinds, acts))
                        continue
                    if (kinds, acts) not in cache:
                        cache[kinds, acts] = clause(kinds, acts)
                    handlers.append(cache[kinds, acts])
                thunk = (lambda o=options, inner=thunk, h=handlers: trap_math(o, inner, *h))
            thunks.append(thunk)
        return thunks, env.evaluation_context, env.FloatingPointNotification

    @staticmethod
    def labels(items) -> list[str]:
        return [("interval." if call in _RESULT_TYPE else "ops.") + call for call, _, _ in items]

    @staticmethod
    def run(job, lat, results):
        thunks, evaluation_context, notification = job
        pc = _pc
        lat_add = lat.append
        res_add = results.append
        with evaluation_context():
            for thunk in thunks:
                t0 = pc()
                try:
                    r = thunk()
                except notification as exc:
                    r = exc
                t1 = pc()
                lat_add(t1 - t0)
                res_add(r)

    def check(self, lib, items, job, results) -> int:
        notification = lib.environment.FloatingPointNotification
        failed = 0
        for (call, args, frames), got in zip(items, results):
            want = expected_trap_outcome(call, args, frames)
            if want[0] == "value":
                ok = not isinstance(got, notification) and _same(want[1], got)
            else:
                ok = (
                    isinstance(got, notification)
                    and got.kind.value == want[1]
                    and _same(want[2], got.continuation)
                )
            if not ok:
                failed += 1
                _report(self.name, f"{call}{args} frames {frames}: got {got!r}, want {want!r}",
                        self.shown)
        return failed

    @staticmethod
    def fingerprint(results) -> list:
        out = []
        for r in results:
            if isinstance(r, ArithmeticError):
                out.append(("E", r.kind.value, _canon_value(r.continuation)))
            else:
                out.append(_canon_value(r))
        return out


def _canon_value(v):
    if hasattr(v, "low"):
        return ("I", bits(v.low), bits(v.high))
    if isinstance(v, float):
        return ("F", bits(v))
    return ("B", v)


def expected_trap_outcome(call, args, frames):
    """("value", v) or ("escape", kind, continuation) for one trap item."""
    flags: set = set()
    if call in O.INTERVAL_OPS:
        value, kind, _, _ = O.INTERVAL_OPS[call](*args, flags)
    else:
        value, _, kind = O.OPS[call](*args)
    if kind is None or kind in O.MASK:
        return ("value", value)
    model = [
        [(kinds, tuple(O.model_action(a) for a in acts)) for kinds, acts in clauses]
        for _, _, clauses in frames
    ]
    resolved, out = O.resolve(model, kind, value, flags)
    return ("value", out) if resolved else ("escape", out[0], out[1])


# --- cli_session -------------------------------------------------------------

CONSTANTS = {
    "pi": math.pi,
    "e": math.e,
    "max-finite": O.MAX_FINITE,
    "min-normal": O.MIN_NORMAL,
    "min-subnormal": O.MIN_SUBNORMAL,
    "+inf": INF,
    "-inf": -INF,
    "qnan": O.QNAN,
    "snan": O.SNAN,
}
_FINITE_CONSTANTS = ("pi", "e", "max-finite", "min-normal", "min-subnormal")
_CLI_MODES = (None, None, None, None, None, O.DOWN, O.UP, O.NEAREST_EVEN)
_CLI_KINDS = (OVERFLOW, UNDERFLOW, INVALID, DIVZERO, O.INEXACT)


def _num(v: float, text: str | None = None):
    return ("num", v, text if text is not None else repr(v))


def random_number(rng, finite: bool = False):
    """A literal: small integers, short decimals, wide doubles in decimal or
    hex, values near one, extreme magnitudes, named constants."""
    r = rng.random()
    if r < 0.30:
        n = rng.randint(-99, 99)
        return _num(float(n), str(n) if rng.getrandbits(1) else None)
    if r < 0.55:
        return _num(round(rng.uniform(-1000, 1000), rng.randint(1, 6)))
    if r < 0.70:
        v = stratified(rng)[0]
        return _num(v, v.hex() if rng.getrandbits(1) else None)
    if r < 0.80:
        return _num(from_bits(bits(1.0) + rng.randint(-60, 60)))
    if r < 0.90:
        v = _extreme(rng)
        return _num(v, v.hex() if rng.getrandbits(1) else None)
    name = rng.choice(_FINITE_CONSTANTS if finite else tuple(CONSTANTS))
    return _num(CONSTANTS[name], name)


def random_scalar(rng, depth: int, top: bool = True):
    if depth <= 0 or (not top and rng.random() < 0.35):
        return random_number(rng)
    name = rng.choice(NAMES)
    nargs = 1 if name == "sqrt" else 2
    args = [random_scalar(rng, depth - 1, False) for _ in range(nargs)]
    return ("arith", name, rng.choice(_CLI_MODES), args)


def risky_scalar(rng):
    """A form that notifies: overflow, underflow, invalid, divide-by-zero."""
    mode = rng.choice(_CLI_MODES)
    small = _num(float(rng.randint(2, 99)))
    r = rng.randrange(6)
    if r == 0:
        return ("arith", "mul", mode, [_num(O.MAX_FINITE, "max-finite"), small])
    if r == 1:
        zero = _num(0.0, "0") if rng.getrandbits(1) else _num(-0.0)
        return ("arith", "div", mode, [random_number(rng, finite=True), zero])
    if r == 2:
        return ("arith", "sqrt", mode, [_num(-float(rng.randint(1, 999)))])
    if r == 3:
        return ("arith", "add", mode, [_num(O.SNAN, "snan"), random_number(rng, finite=True)])
    if r == 4:
        tiny = _num(rng.uniform(0.1, 0.9))
        return ("arith", "mul", mode, [_num(O.MIN_NORMAL, "min-normal"), tiny])
    return ("arith", "sub", mode, [_num(INF, "+inf"), _num(INF, "+inf")])


def random_comparison(rng):
    pool = [random_number(rng) for _ in range(rng.randint(1, 4))]
    args = [
        rng.choice(pool) if rng.random() < 0.85 else random_scalar(rng, 1)
        for _ in range(rng.randint(2, 16))
    ]
    return ("cmp", rng.choice(("eq", "neq")), args)


def _cli_action(rng):
    r = rng.random()
    if r < 0.25:
        return ("continue", UNSET)
    if r < 0.45:
        n = random_number(rng, finite=True)
        return ("continue", n[1], n[2])
    if r < 0.60:
        return ("clear",)
    if r < 0.70:
        return ("default",)
    if r < 0.80:
        return ("raise", None)
    kind = rng.choice(_CLI_KINDS[:4])
    if rng.getrandbits(1):
        return ("raise", kind, UNSET)
    n = random_number(rng, finite=True)
    return ("raise", kind, n[1], n[2])


def random_trap(rng, nested: bool = True):
    before = rng.choice(((), ("save",), ("clear",), ("save", "clear")))
    after = ("merge",) if "save" in before and rng.random() < 0.6 else ()
    notify_by = rng.choice((None, None, None, "error", "recording"))
    r = rng.random()
    if nested and r < 0.15:
        body = random_trap(rng, nested=False)
    elif r < 0.70:
        body = risky_scalar(rng)
    elif r < 0.85:
        body = ("cmp", "eq", [_num(O.SNAN, "snan"), random_number(rng, finite=True)])
    else:
        body = random_scalar(rng, 2)
    kinds = rng.sample(_CLI_KINDS, rng.randint(0, 3))
    clauses = []
    for kind in kinds:
        actions = []
        for _ in range(rng.randint(1, 2)):
            a = _cli_action(rng)
            if a[0] == "continue" and any(x[0] == "continue" for x in actions):
                continue
            actions.append(a)
        clauses.append(((kind,), tuple(actions)))
    return ("trap", before, after, notify_by, body, clauses)


def _interval_literal(rng):
    r = rng.random()
    a, b = random_number(rng, finite=True), random_number(rng, finite=True)
    if r < 0.05:
        return ("interval", _num(O.QNAN, "qnan"), b)
    if r < 0.10:
        lo, hi = sorted((a, b), key=lambda n: n[1])
        return ("interval", hi, lo) if lo[1] < hi[1] else ("interval", lo, hi)
    if r < 0.16:
        return ("interval", a, a)
    if r < 0.24:
        return rng.choice((("interval", _num(-INF, "-inf"), a), ("interval", a, _num(INF, "+inf"))))
    lo, hi = sorted((a, b), key=lambda n: n[1])
    return ("interval", lo, hi)


def _interval_expr(rng, depth: int):
    if depth <= 0 or rng.random() < 0.5:
        return _interval_literal(rng)
    return ("iop", rng.choice(_BINARY), _interval_expr(rng, depth - 1), _interval_expr(rng, depth - 1))


def random_interval_form(rng):
    r = rng.random()
    if r < 0.5:
        return ("iop", rng.choice(_BINARY), _interval_expr(rng, 1), _interval_expr(rng, 1))
    if r < 0.62:
        return ("radius", _interval_expr(rng, 1))
    if r < 0.74:
        return ("point?", _interval_expr(rng, 1))
    if r < 0.87:
        x = _num(O.QNAN, "qnan") if rng.random() < 0.05 else random_number(rng, finite=True)
        return ("member?", x, _interval_expr(rng, 1))
    return ("subset?", _interval_expr(rng, 1), _interval_expr(rng, 1))


def _innermost_open(text: str) -> int:
    stack = []
    for col, c in enumerate(text, start=1):
        if c == "(":
            stack.append(col)
        elif c == ")":
            stack.pop()
    return stack[-1]


def malformed_line(rng):
    """("raw", text, message) with the message the CLI gives for it."""
    x, y, z = (str(rng.randint(1, 999)) for _ in range(3))
    n = rng.randrange(10**6)
    r = rng.randrange(9)
    if r == 0:
        text = f"(+ {x} (* {y} {z}" + (")" if rng.getrandbits(1) else "")
        return ("raw", text, f"line 1, column {_innermost_open(text)}: unclosed parenthesis opened here")
    if r == 1:
        text = f"(+ {x} {y}) {z}"
        col = len(f"(+ {x} {y}) ") + 1
        return ("raw", text, f"line 1, column {col}: unexpected {z!r} after expression")
    if r == 2:
        return ("raw", f") {x}", "line 1, column 1: unexpected ')'")
    if r == 3:
        return ("raw", f"(+ {x} v{n})", f"unknown symbol 'v{n}'")
    if r == 4:
        return ("raw", f"(op{n} {x} {y})", f"unknown operator 'op{n}'")
    if r == 5:
        return rng.choice((
            ("raw", f"(+ {x})", "+ expects 2 argument(s), got 1"),
            ("raw", f"(sqrt {x} {y})", "sqrt expects 1 argument(s), got 2"),
            ("raw", f"(* {x} {y} {z})", "* expects 2 argument(s), got 3"),
        ))
    if r == 6:
        tok = f"0x{n:x}.8pq"
        col = len(f"(+ {x} ") + 1
        return ("raw", f"(+ {x} {tok})", f"line 1, column {col}: malformed hex float {tok!r}")
    if r == 7:
        return ("raw", f"; note {n}", "line 1, column 1: empty input")
    return ("raw", f"(+ {x} ())", "empty form ()")


def deep_line(rng):
    """Arithmetic nested 20-150 deep on values near one (never overflows)."""
    node = _num(float(rng.randint(1, 9)))
    for _ in range(rng.randint(20, 150)):
        name = rng.choice(("add", "sub", "mul"))
        other = _num(round(rng.uniform(0.5, 2.0), 3)) if name == "mul" else _num(float(rng.randint(1, 9)))
        args = [other, node] if rng.getrandbits(1) else [node, other]
        node = ("arith", name, rng.choice(_CLI_MODES), args)
    return node


def random_statement(rng, terminating: bool = False):
    r = rng.random()
    styles = ("recording", "error", "terminating") if terminating else ("recording", "error")
    if r < 0.28:
        return random_scalar(rng, rng.randint(1, 3))
    if r < 0.38:
        return random_comparison(rng)
    if r < 0.46:
        body = random_scalar(rng, 2) if rng.getrandbits(1) else random_comparison(rng)
        return ("rounding", rng.choice((O.ZERO, O.NEAREST, O.UP, O.DOWN, O.NEAREST_EVEN)), body)
    if r < 0.52:
        body = rng.choice((risky_scalar, random_interval_form, lambda g: random_scalar(g, 2)))(rng)
        return ("style", rng.choice(styles), body)
    if r < 0.66:
        return random_trap(rng)
    if r < 0.80:
        return random_interval_form(rng)
    if r < 0.88:
        return risky_scalar(rng)
    if r < 0.997:
        return malformed_line(rng)
    # Few enough that op_us_p99 falls among the eval and conformance
    # invocations, where the latencies are dense, not in the long tail of
    # the deep lines, whose time grows with their depth.
    return deep_line(rng)


class CliSession:
    """Sessions of in-process `cli.main` calls: one repl of a few hundred
    lines, a few evals (terminating style among them), one conformance."""

    name = "cli_session"

    def __init__(self, seed: int, lines: tuple[int, int] = (200, 350)):
        self.rng = random.Random(seed)
        self.lines = lines
        self.shown: dict = {}
        self.redrawn = 0

    def next_chunk(self):
        """One session, each line and eval with the oracle's expected output.

        A statement is drawn again when the oracle sees it send the library
        an add or sub that hits the known `two_sum` defect (see `oracle.py`);
        `redrawn` counts them.  Only this workload makes such sums: the
        constant max-finite and directed overflow results feed nested sums."""
        rng = self.rng
        labels = (O.ZERO, O.NEAREST, O.UP, O.DOWN, O.NEAREST_EVEN)
        style, mode, dump = rng.choice(("recording", "error")), rng.choice(labels), rng.random() < 0.5
        model = O.CliModel(style, mode)
        lines = []
        for _ in range(rng.randint(*self.lines)):
            while True:
                node, flags, hits = random_statement(rng), set(model.flags), O.two_sum_defect_hits
                want = model.line(node, dump)
                if O.two_sum_defect_hits == hits:
                    break
                model.flags, self.redrawn = flags, self.redrawn + 1
            lines.append((O.cli_text(node), node, want))
        session = [("repl", style, mode, dump, lines)]
        for _ in range(rng.randint(3, 6)):
            style, mode, dump = (rng.choice(("recording", "error", "terminating")),
                                 rng.choice(labels), rng.random() < 0.3)
            while True:
                node, hits = random_statement(rng, terminating=True), O.two_sum_defect_hits
                want = O.expected_eval(node, style, mode, dump)
                if O.two_sum_defect_hits == hits:
                    break
                self.redrawn += 1
            session.append(("eval", style, mode, dump, O.cli_text(node), node, want))
        session.append(("conformance",))
        rng.shuffle(session)
        return session

    @staticmethod
    def prepare(lib, session):
        argvs = []
        for inv in session:
            if inv[0] == "conformance":
                argvs.append(["conformance", "--json"])
                continue
            kind, style, mode, dump = inv[:4]
            argv = [kind, "--style", style, "--rounding", O.MODE_LABELS[mode]]
            if dump:
                argv.append("--dump-env")
            if kind == "repl":
                argvs.append((argv, [text + "\n" for text, _, _ in inv[4]]))
            else:
                argvs.append(argv + [inv[4]])
        return lib.cli, argvs

    @staticmethod
    def labels(session) -> list[str]:
        out = []
        for inv in session:
            out += ["cli.repl_line"] * len(inv[4]) if inv[0] == "repl" else [f"cli.{inv[0]}"]
        return out

    stdin_hook = None

    def run(self, job, lat, results):
        cli, argvs = job
        pc = _pc
        saved = sys.stdin, sys.stdout, sys.stderr
        try:
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                sys.stdout, sys.stderr = out, err
                if isinstance(argv, tuple):
                    argv, lines = argv
                    stdin = _TimedLines(lines, out, err)
                    if self.stdin_hook is not None:
                        stdin.readline = self.stdin_hook(stdin.readline)
                    sys.stdin = stdin
                    code = _call_main(cli.main, argv)
                    text_out, text_err = out.getvalue(), err.getvalue()
                    marks = stdin.marks
                    for k in range(len(lines)):
                        (t0, o0, e0), (t1, o1, e1) = marks[2 * k + 1], marks[2 * k + 2]
                        lat.append(t1 - t0)
                        results.append((text_out[o0:o1], text_err[e0:e1]))
                    results.append(("exit", code))
                else:
                    t0 = pc()
                    code = _call_main(cli.main, argv)
                    t1 = pc()
                    lat.append(t1 - t0)
                    results.append((out.getvalue(), err.getvalue(), code))
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved

    def check(self, lib, session, job, results) -> int:
        failed = 0
        i = 0
        for inv in session:
            if inv[0] == "repl":
                _, style, mode, dump, lines = inv
                for text, _, want in lines:
                    if results[i] != want:
                        failed += 1
                        _report(self.name, f"repl {style} {mode} {dump} line {text!r}: "
                                f"got {results[i]!r}, want {want!r}", self.shown)
                    i += 1
                if results[i] != ("exit", 0):
                    failed += 1
                    _report(self.name, f"repl exit {results[i]!r}", self.shown)
                i += 1
                continue
            if inv[0] == "eval":
                text, want = inv[4], inv[6]
            else:
                text, want = "conformance --json", (O.CONFORMANCE_JSON, "", 0)
            if results[i] != want:
                failed += 1
                _report(self.name, f"{inv[:4]} {text!r}: got {results[i]!r}, want {want!r}",
                        self.shown)
            i += 1
        return failed

    @staticmethod
    def fingerprint(results) -> list:
        return list(results)


class _TimedLines:
    """Standard input for the repl: serves the session's lines and stamps
    each readline call on entry and on return with the clock and the
    output positions, which split time and output per line."""

    def __init__(self, lines, out, err):
        self.lines = lines
        self.next = 0
        self.out = out
        self.err = err
        self.marks: list = []

    def isatty(self) -> bool:
        return False

    def readline(self) -> str:
        marks = self.marks
        marks.append((_pc(), self.out.tell(), self.err.tell()))
        i = self.next
        line = self.lines[i] if i < len(self.lines) else ""
        self.next = i + 1
        marks.append((_pc(), self.out.tell(), self.err.tell()))
        return line


def _call_main(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


WORKLOADS = {w.name: w for w in (ScalarSweep, IntervalTrap, CliSession)}


def warmup_workload(name: str, seed: int):
    """A small workload from a seed stream the timed run never draws."""
    cls = WORKLOADS[name]
    warm_seed = seed + (1 << 40)
    if cls is CliSession:
        return cls(warm_seed, lines=(40, 40))
    return cls(warm_seed, chunk_ops=cls.chunk_ops // 2)


def input_digest(name: str, seed: int, chunks: int = 2) -> str:
    """SHA-256 of the first chunks a seed generates, for determinism tests."""
    w = WORKLOADS[name](seed)
    h = hashlib.sha256()
    for _ in range(chunks):
        h.update(_canon(w.next_chunk()).encode())
    return h.hexdigest()
