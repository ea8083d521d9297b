"""The benchmark's tracer (bench/tracer.py) still installs on the library.

It patches module attributes by name, including names other modules
imported, so a refactor that drops one breaks `bench/run.py --trace 1`.
This installs it, runs calls through every layer it wraps, and checks that
every traced result is bit-identical to the untraced one.
"""

import importlib.util
import types
from pathlib import Path

from liamath import cli, conformance, environment, fpcore, interval, ops, rounding
from liamath.environment import (
    Continue,
    FpEnvironment,
    HandlerClause,
    Indicator,
    NotificationStyle,
    evaluation_context,
    rounding_mode,
    trap_math,
)
from liamath.rounding import RoundingMode

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
LIB = types.SimpleNamespace(
    fpcore=fpcore, rounding=rounding, environment=environment, ops=ops,
    interval=interval, cli=cli, conformance=conformance,
)
UP = RoundingMode.TO_POSITIVE_INFINITY
ZERO = RoundingMode.TO_ZERO
CLI_LINES = [
    "(+ 0.1 0.2)",
    "(rounding :zero (/ 1 3))",
    "(* (interval 1 2) (interval -3 0.1))",
    "(trap-math (:notify-by :error) (/ 1 0) (:divide-by-zero (:continue 42)))",
    "(style :recording (sqrt -1))",
    "(= 1 1 snan)",
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("liamath_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canon(value):
    if isinstance(value, float):
        return ("float", fpcore.float_to_bits(value))
    if isinstance(value, interval.Interval):
        return ("interval", _canon(value.low), _canon(value.high))
    if isinstance(value, (tuple, list)):
        return tuple(_canon(v) for v in value)
    return value


def _run_layers(capsys):
    """Results of calls through each wrapped layer, with flags and output."""
    out = []
    with evaluation_context(FpEnvironment(style=NotificationStyle.RECORDING)) as ctx:
        out += [ops.add(0.1, 0.2), ops.sub(1.0, 1e-20, ZERO), ops.mul(0.1, 0.3, ZERO),
                ops.div(1.0, 0.0), ops.div(1.0, 3.0), ops.sqrt(2.0),
                ops.mul(1e308, 10.0), ops.eq(1.0, 1.0), ops.neq(1.0, 2.0, 3.0)]
        with rounding_mode(UP):
            out += [rounding.add_dir(0.1, 0.2), rounding.sub_dir(0.1, 0.3),
                    rounding.mul_dir(0.1, 0.3), rounding.div_dir(1.0, 3.0),
                    rounding.sqrt_dir(2.0), ops.add(0.1, 0.2)]
        a = interval.make_interval(0.1, 0.2)
        b = interval.make_interval(-3.0, 0.7)
        out += [interval.i_add(a, b), interval.i_sub(a, b), interval.i_mul(a, b),
                interval.i_div(a, interval.make_interval(3.0, 7.0)), interval.i_div(a, b),
                interval.radius(b), interval.i_member(0.15, a),
                interval.i_subseteq(a, b), interval.is_point(a),
                interval.make_interval(2.0, 1.0)]
        out.append(sorted(k.value for k in ctx.env.flags))
    out.append(trap_math(None, lambda: ops.div(1.0, 0.0),
                         HandlerClause(Indicator.DIVIDE_BY_ZERO, Continue(42.0))))
    for line in CLI_LINES:
        out.append(cli.main(["eval", "--dump-env", line]))
        out.append(capsys.readouterr())
    return _canon(out)


def test_tracer_installs_and_changes_no_result(capsys):
    tracing = _load_tracer()
    plain = _run_layers(capsys)
    tracer = tracing.Tracer(LIB)
    originals = {name: getattr(ops, name) for name in ("add", "notify", "current_environment")}
    tracer.install()
    try:
        assert ops.notify is not originals["notify"]
        traced = _run_layers(capsys)
        tracer.collect()
    finally:
        tracer.uninstall()
    assert traced == plain
    for name, fn in originals.items():
        assert getattr(ops, name) is fn
    calls = {tracer.names[sid]: n for sid, n in tracer.calls.items()}
    for name in ("ops.add", "rounding.dir", "rounding.parts", "fpcore.residual_sign",
                 "interval.i_mul", "cli.main", "cli.parse", "cli.eval",
                 "environment.trap_math", "environment.notify.masked",
                 "rounding.resolve_mode.ambient", "rounding.resolve_mode.explicit"):
        assert calls.get(name, 0) > 0, name
