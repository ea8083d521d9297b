"""Acceptance gate: ten criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check is zero-tolerance: expected values come from the
independent rational oracle in oracles.py or from frozen golden output,
never from the code under test.
"""

import math
import random
import subprocess
import sys
import time
import zlib
from fractions import Fraction
from functools import lru_cache

from liamath import ops
from liamath.conformance import ConformanceDescriptor, describe_conformance
from liamath.environment import (
    CLEAR,
    Continue,
    FpEnvironment,
    HandlerClause,
    Indicator,
    InvalidOperationNotification,
    NotificationStyle,
    TrapOptions,
    current_environment,
    evaluation_context,
    trap_math,
)
from liamath.fpcore import (
    MAX_FINITE,
    MIN_SUBNORMAL,
    QNAN,
    SNAN,
    float_to_bits,
    is_signaling,
    next_down,
    next_up,
)
from liamath.interval import EMPTY, Interval, i_add, i_div, i_mul, i_sub, i_subseteq
from liamath.rounding import RoundingMode, add_dir, sqrt_dir

from oracles import EXACT, ORACLES, bits, member_of, oracle_sqrt, random_double, sample_pairs

NE = RoundingMode.TO_NEAREST_EVEN
UP = RoundingMode.TO_POSITIVE_INFINITY
DOWN = RoundingMode.TO_NEGATIVE_INFINITY
ZERO = RoundingMode.TO_ZERO
MODES = (ZERO, NE, UP, DOWN)

ALL_KINDS = (
    Indicator.OVERFLOW,
    Indicator.UNDERFLOW,
    Indicator.INEXACT,
    Indicator.INVALID,
    Indicator.DIVIDE_BY_ZERO,
)

PAIR_COUNT = 100_000
SQRT_COUNT = 10_000
INTERVAL_COUNT = 10_000


def _report(number: int, name: str, ok: bool, extra: str = "") -> bool:
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    return ok


@lru_cache(maxsize=None)
def _pairs(op: str):
    # crc32, unlike hash(), is not salted per process: every run draws the
    # same pairs, so a failure can be reproduced.
    return sample_pairs(op, PAIR_COUNT, seed=zlib.crc32(f"acceptance-{op}".encode()))


@lru_cache(maxsize=None)
def _sqrt_inputs():
    rng = random.Random("acceptance-sqrt")
    out = []
    while len(out) < SQRT_COUNT:
        x = random_double(rng)
        if x > 0.0 and math.isfinite(x):
            out.append(x)
    return out


# -- 1: directed rounding matches the rational oracle bit for bit ------------


def test_01_directed_rounding_oracle_equivalence():
    start = time.monotonic()
    bad = 0
    impl = {"add": ops.add, "sub": ops.sub, "mul": ops.mul, "div": ops.div}
    with evaluation_context() as ctx:
        ctx.env.style = NotificationStyle.RECORDING
        for op, fn in impl.items():
            oracle = ORACLES[op]
            for a, b in _pairs(op):
                for mode in MODES:
                    if bits(fn(a, b, mode)) != bits(oracle(a, b, mode)):
                        bad += 1
        for x in _sqrt_inputs():
            lo = ops.sqrt(x, DOWN)
            hi = ops.sqrt(x, UP)
            # exact neighbor-square comparison, no rounding on the check side
            fx = Fraction(x)
            if not (Fraction(lo) ** 2 <= fx and (Fraction(hi) ** 2 >= fx)):
                bad += 1
            if lo != hi and next_up(lo) != hi:
                bad += 1
            if (Fraction(lo) ** 2 == fx) != (lo == hi):
                bad += 1
            if bits(ops.sqrt(x, NE)) not in (bits(lo), bits(hi)):
                bad += 1
            for mode in MODES:
                if bits(ops.sqrt(x, mode)) != bits(oracle_sqrt(x, mode)):
                    bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 120.0
    assert _report(
        1,
        "directed-rounding-oracle-equivalence",
        ok,
        f"{bad} mismatches, {elapsed:.1f}s",
    )


# -- 2: down <= exact <= up, endpoints adjacent, nearest among them ----------


def test_02_bracketing_and_adjacency():
    bad = 0
    impl = {"add": ops.add, "sub": ops.sub, "mul": ops.mul, "div": ops.div}
    with evaluation_context() as ctx:
        ctx.env.style = NotificationStyle.RECORDING
        for op, fn in impl.items():
            exact_of = EXACT[op]
            for a, b in _pairs(op):
                down = fn(a, b, DOWN)
                up = fn(a, b, UP)
                exact = exact_of(a, b)
                if down != -math.inf and Fraction(down) > exact:
                    bad += 1
                if up != math.inf and Fraction(up) < exact:
                    bad += 1
                if down != up and next_up(down) != up:
                    bad += 1
                if bits(fn(a, b, NE)) not in (bits(down), bits(up)):
                    bad += 1
    assert _report(2, "bracketing-and-adjacency", bad == 0, f"{bad} violations")


# -- 3: the comparison case matrix for = and /= under both styles ------------


def _expected_comparison(a: float, b: float):
    """Independent model: (eq, neq, invalid) for one operand pair."""
    if is_signaling(a) or is_signaling(b):
        return False, False, True
    if math.isnan(a) or math.isnan(b):
        return False, True, False
    return a == b, a != b, False


def test_03_comparison_case_matrix():
    pool = [1.0, -2.5, 0.0, -0.0, math.inf, -math.inf, QNAN, SNAN]
    bad = 0
    for a in pool:
        for b in pool:
            want_eq, want_neq, want_invalid = _expected_comparison(a, b)
            # recording style: value plus flag, nothing raised
            with evaluation_context() as ctx:
                ctx.env.style = NotificationStyle.RECORDING
                if ops.eq(a, b) is not want_eq:
                    bad += 1
                if ctx.env.test_indicator(Indicator.INVALID) is not want_invalid:
                    bad += 1
            with evaluation_context() as ctx:
                ctx.env.style = NotificationStyle.RECORDING
                if ops.neq(a, b) is not want_neq:
                    bad += 1
                if ctx.env.test_indicator(Indicator.INVALID) is not want_invalid:
                    bad += 1
            # error style: signaling NaN raises with continuation false
            for fn, want in ((ops.eq, want_eq), (ops.neq, want_neq)):
                with evaluation_context():
                    try:
                        got = fn(a, b)
                        raised = False
                    except InvalidOperationNotification as cond:
                        raised = True
                        if cond.continuation is not False:
                            bad += 1
                    if raised is not want_invalid:
                        bad += 1
                    if not raised and got is not want:
                        bad += 1
    assert _report(3, "comparison-case-matrix", bad == 0, f"{bad} mismatches")


# -- 4: recording vs error-with-resuming-handlers give identical results -----

_LEAF_POOL = [
    0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 0.1, -0.1, 1e300, -1e300,
    1e-300, 2.0 ** -30, MAX_FINITE, -MAX_FINITE, MIN_SUBNORMAL,
    math.inf, -math.inf, QNAN, SNAN,
]


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return ("leaf", rng.choice(_LEAF_POOL))
    op = rng.choice(("add", "sub", "mul", "div", "sqrt"))
    if op == "sqrt":
        return ("sqrt", _random_tree(rng, depth - 1))
    return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _eval_tree(tree):
    kind = tree[0]
    if kind == "leaf":
        return tree[1]
    if kind == "sqrt":
        return ops.sqrt(_eval_tree(tree[1]))
    return getattr(ops, kind)(_eval_tree(tree[1]), _eval_tree(tree[2]))


def test_04_notification_style_equivalence():
    rng = random.Random("acceptance-styles")
    bad = 0
    for _ in range(1000):
        tree = _random_tree(rng, 4)
        with evaluation_context(FpEnvironment(style=NotificationStyle.RECORDING)) as ctx:
            recorded = _eval_tree(tree)
            recorded_flags = frozenset(ctx.env.flags)
        with evaluation_context(
            FpEnvironment(style=NotificationStyle.ERROR, mask=frozenset())
        ) as ctx:
            handled = trap_math(
                None, lambda: _eval_tree(tree), HandlerClause(ALL_KINDS, Continue())
            )
            handled_flags = frozenset(ctx.env.flags)
        if bits(recorded) != bits(handled) or recorded_flags != handled_flags:
            bad += 1
    assert _report(4, "notification-style-equivalence", bad == 0, f"{bad} mismatches")


# -- 5: save/clear/merge algebra against an independent set model ------------


class _Boom(Exception):
    pass


def test_05_environment_algebra():
    rng = random.Random("acceptance-env")
    bad = 0
    for _ in range(1200):
        with evaluation_context() as ctx:
            env = ctx.env
            shadow: set = set()
            snapshots = []
            shadow_snaps = []
            for _ in range(rng.randint(10, 25)):
                action = rng.randrange(6)
                if action == 0:
                    k = rng.choice(ALL_KINDS)
                    env.record(k)
                    shadow.add(k)
                elif action == 1:
                    env.clear()
                    shadow.clear()
                elif action == 2:
                    k = rng.choice(ALL_KINDS)
                    env.clear_indicator(k)
                    shadow.discard(k)
                elif action == 3:
                    snapshots.append(env.save())
                    shadow_snaps.append(frozenset(shadow))
                elif action == 4 and snapshots:
                    i = rng.randrange(len(snapshots))
                    env.merge(snapshots[i])
                    shadow |= shadow_snaps[i]  # merge is set union
                else:
                    # a trap scope the body escapes by raising: flags stay
                    # as the body left them (no merge), style is restored
                    kinds = rng.sample(ALL_KINDS, k=rng.randint(0, 2))
                    style_before = env.style

                    def body():
                        for k in kinds:
                            env.record(k)
                        raise _Boom

                    try:
                        trap_math(
                            TrapOptions(before=("save", "clear"), after=("merge",)),
                            body,
                        )
                    except _Boom:
                        pass
                    shadow = set(kinds)
                    if env.style is not style_before:
                        bad += 1
                if env.flags != shadow:
                    bad += 1
            # merge is idempotent on top of union
            if snapshots:
                i = rng.randrange(len(snapshots))
                env.merge(snapshots[i])
                env.merge(snapshots[i])
                shadow |= shadow_snaps[i]
                if env.flags != shadow:
                    bad += 1
    assert _report(5, "environment-algebra", bad == 0, f"{bad} deviations")


# -- 6: the fast/reliable substitution scenario inside one trap scope --------


def test_06_trap_substitution_scenario():
    ok = True
    with evaluation_context() as ctx:
        env = ctx.env
        env.record(Indicator.UNDERFLOW)  # pre-existing outer state
        calls = []

        def fast():
            calls.append("fast")
            return ops.mul(MAX_FINITE, 2.0)  # forced overflow

        def reliable():
            calls.append("reliable")
            return 42.0

        value = trap_math(
            TrapOptions(
                notify_by=NotificationStyle.ERROR,
                before=("save", "clear"),
                after=("merge",),
            ),
            fast,
            HandlerClause(Indicator.OVERFLOW, CLEAR, Continue(reliable)),
        )
        ok &= value == 42.0
        ok &= calls == ["fast", "reliable"]
        # overflow was cleared inside the trap; the multiply's inexact flag
        # survives; merge restored the pre-existing underflow flag
        ok &= env.flags == {Indicator.UNDERFLOW, Indicator.INEXACT}

    # without the clear action the overflow flag survives the trap
    with evaluation_context() as ctx:
        value = trap_math(
            TrapOptions(
                notify_by=NotificationStyle.ERROR,
                before=("save", "clear"),
                after=("merge",),
            ),
            lambda: ops.mul(MAX_FINITE, 2.0),
            HandlerClause(Indicator.OVERFLOW, Continue(99.0)),
        )
        ok &= value == 99.0
        ok &= ctx.env.flags == {Indicator.OVERFLOW, Indicator.INEXACT}

    # when nothing overflows the fallback is never evaluated
    with evaluation_context():
        calls = []

        def fine():
            calls.append("fast")
            return ops.mul(2.0, 3.0)

        def fallback():
            calls.append("reliable")
            return -1.0

        value = trap_math(
            TrapOptions(notify_by=NotificationStyle.ERROR),
            fine,
            HandlerClause(Indicator.OVERFLOW, Continue(fallback)),
        )
        ok &= value == 6.0
        ok &= calls == ["fast"]
    assert _report(6, "trap-substitution-scenario", ok)


# -- 7: interval results contain the exact point results ---------------------


def _finite(rng: random.Random) -> float:
    while True:
        x = random_double(rng)
        if math.isfinite(x):
            return x


def _rand_interval(rng: random.Random, nonzero: bool = False) -> Interval:
    while True:
        if rng.random() < 0.08:
            x = _finite(rng)
            cand = Interval(x, x)
        else:
            a = -math.inf if rng.random() < 0.05 else _finite(rng)
            b = math.inf if rng.random() < 0.05 else _finite(rng)
            if b < a:
                a, b = b, a
            cand = Interval(a, b)
        if nonzero and cand.low <= 0.0 <= cand.high:
            continue
        return cand


def _point_in(rng: random.Random, i: Interval) -> Fraction:
    lo = Fraction(-(2**1100)) if i.low == -math.inf else Fraction(i.low)
    hi = Fraction(2**1100) if i.high == math.inf else Fraction(i.high)
    t = Fraction(rng.getrandbits(53), 2**53)
    return lo + (hi - lo) * t


def test_07_interval_containment():
    rng = random.Random("acceptance-intervals")
    bad = 0
    exact_fns = {
        "add": (i_add, lambda p, q: p + q),
        "sub": (i_sub, lambda p, q: p - q),
        "mul": (i_mul, lambda p, q: p * q),
        "div": (i_div, lambda p, q: p / q),
    }
    with evaluation_context() as ctx:
        ctx.env.style = NotificationStyle.RECORDING
        for op, (fn, exact_fn) in exact_fns.items():
            for _ in range(INTERVAL_COUNT):
                i1 = _rand_interval(rng)
                i2 = _rand_interval(rng, nonzero=(op == "div"))
                result = fn(i1, i2)
                if result.is_empty:
                    bad += 1
                    continue
                for _ in range(10):
                    p1 = _point_in(rng, i1)
                    p2 = _point_in(rng, i2)
                    if not member_of(exact_fn(p1, p2), result.low, result.high):
                        bad += 1
        # divisor straddling zero: full line plus the divide-by-zero flag
        for _ in range(200):
            lo = -abs(_finite(rng))
            hi = abs(_finite(rng))
            which = rng.randrange(3)
            if which == 1:
                lo = 0.0
            elif which == 2:
                hi = 0.0
            if lo == 0.0 and hi == 0.0:
                continue
            ctx.env.clear()
            out = i_div(_rand_interval(rng), Interval(lo, hi))
            if out != Interval(-math.inf, math.inf):
                bad += 1
            if not ctx.env.test_indicator(Indicator.DIVIDE_BY_ZERO):
                bad += 1
        # the degenerate [0, 0] divisor: empty plus the invalid flag
        for _ in range(50):
            ctx.env.clear()
            out = i_div(_rand_interval(rng), Interval(0.0, 0.0))
            if not out.is_empty:
                bad += 1
            if not ctx.env.test_indicator(Indicator.INVALID):
                bad += 1
    assert _report(7, "interval-containment", bad == 0, f"{bad} violations")


# -- 8: narrower inputs never widen the result -------------------------------


def _shrink(rng: random.Random, i: Interval) -> Interval:
    low, high = i.low, i.high
    for _ in range(rng.randint(0, 3)):
        stepped = next_up(low)
        if stepped <= high:
            low = stepped
    for _ in range(rng.randint(0, 3)):
        stepped = next_down(high)
        if stepped >= low:
            high = stepped
    return Interval(low, high)


def test_08_inclusion_isotonicity():
    rng = random.Random("acceptance-isotonic")
    bad = 0
    with evaluation_context() as ctx:
        ctx.env.style = NotificationStyle.RECORDING
        for fn in (i_add, i_sub, i_mul, i_div):
            for _ in range(INTERVAL_COUNT):
                outer1 = _rand_interval(rng)
                outer2 = _rand_interval(rng)
                inner1 = _shrink(rng, outer1)
                inner2 = _shrink(rng, outer2)
                if not i_subseteq(fn(inner1, inner2), fn(outer1, outer2)):
                    bad += 1
    assert _report(8, "inclusion-isotonicity", bad == 0, f"{bad} violations")


# -- 9: doubling is exact, so all three directed sums agree ------------------


def test_09_exact_doubling_identity():
    pi = math.pi
    lib = [add_dir(pi, pi, DOWN), add_dir(pi, pi, NE), add_dir(pi, pi, UP)]
    ok = len({float_to_bits(v) for v in lib}) == 1
    ok = ok and lib[0] == 6.283185307179586
    outs = []
    for form in ("(+.< pi pi)", "(+.<> pi pi)", "(+.> pi pi)"):
        proc = subprocess.run(
            [sys.executable, "-m", "liamath", "eval", form],
            capture_output=True,
            text=True,
            timeout=60,
        )
        ok = ok and proc.returncode == 0
        outs.append(proc.stdout)
    ok = ok and len(set(outs)) == 1
    ok = ok and outs[0] == "6.283185307179586 (0x1.921fb54442d18p+2)\n"
    assert _report(9, "exact-doubling-identity", ok)


# -- 10: CLI golden behavior for the three styles plus the report ------------


def _cli(*argv: str):
    return subprocess.run(
        [sys.executable, "-m", "liamath", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_10_cli_golden_exit_codes():
    ok = True

    proc = _cli("eval", "--style", "recording", "(/ 1.0 0.0)")
    ok &= proc.returncode == 0
    ok &= proc.stdout == "+inf\n"
    ok &= proc.stderr == ""

    proc = _cli("eval", "--style", "error", "(/ 1.0 0.0)")
    ok &= proc.returncode == 1
    ok &= proc.stdout == ""
    ok &= proc.stderr == "LIA-error: divide-by-zero in div(1, 0) continuation=+inf\n"

    proc = _cli("eval", "--style", "terminating", "(/ 1.0 0.0)")
    ok &= proc.returncode == 2
    ok &= proc.stdout == ""
    ok &= proc.stderr == "LIA-NTM: divide-by-zero in div(1, 0) continuation=+inf\n"

    proc = _cli("conformance")
    ok &= proc.returncode == 0
    names = [line.split(":")[0] for line in proc.stdout.splitlines()]
    ok &= names == sorted(names)
    try:
        parsed = ConformanceDescriptor.from_flat(proc.stdout)
        ok &= parsed == describe_conformance()
        ok &= parsed.lia1_compliance
    except ValueError:
        ok = False
    # the derived field must be checked, not trusted: breaking one listed
    # facility makes the claimed level inconsistent and parsing must fail
    tampered = proc.stdout.replace("provides-nri: true", "provides-nri: false")
    try:
        ConformanceDescriptor.from_flat(tampered)
        ok = False
    except ValueError:
        pass
    assert _report(10, "cli-golden-exit-codes", ok)
