"""Spans around the calls into each liamath layer, from outside the library.

The tracer replaces public functions at their module attributes, including
names other modules imported (`ops.notify`, `interval.notification_style`,
`cli.parse`, ...), plus `Evaluator.eval` and the interval table in the CLI.
Each wrapped call appends one span: name, start, end and parent.  Spans stay
in memory; `collect()` folds them into per-name totals after each timed
chunk, keeps the first `keep` spans, and `write()` saves those at the end.

Self time is a span's duration minus the durations of its direct children.
It includes the tracer's own bookkeeping around each child, which the
calibrated `span_cost_us` measures.
"""

from __future__ import annotations

import json
import re
import time
from collections import defaultdict

LAYERS = ("fpcore", "rounding", "environment", "ops", "interval", "cli", "conformance")
_NOTIFY = ("masked", "recorded", "handled", "raised", "terminated")
_OPS = ("add", "sub", "mul", "div", "sqrt", "eq", "neq")
_INTERVAL = ("i_add", "i_sub", "i_mul", "i_div", "make_interval", "radius", "predicates")
_TOKEN = re.compile(r"[()]|[^\s();]+")
_COMMENT = re.compile(r";[^\n]*")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def pair(base):
        out.append((f"{base}.calls", "calls/op", "lower"))
        out.append((f"{base}.self_us", "us", "lower"))

    for f in ("two_sum", "is_signaling", "residual_sign", "decimal_form"):
        pair(f"fpcore.{f}")
    out.append(("fpcore.self_share", "ratio", "lower"))
    pair("rounding.resolve_mode")
    out.append(("rounding.resolve_mode.ambient_ratio", "ratio", "lower"))
    pair("rounding.parts")
    pair("rounding.dir")
    out.append(("rounding.finite_path_ratio", "ratio", "lower"))
    out.append(("rounding.self_share", "ratio", "lower"))
    for d in _NOTIFY:
        pair(f"environment.notify.{d}")
    pair("environment.scope")
    pair("environment.trap_math")
    out.append(("environment.current_environment.calls", "calls/op", "lower"))
    out.append(("environment.self_share", "ratio", "lower"))
    for f in _OPS:
        pair(f"ops.{f}")
    out.append(("ops.notify_ratio", "ratio", "lower"))
    out.append(("ops.self_share", "ratio", "lower"))
    for f in _INTERVAL:
        pair(f"interval.{f}")
    out.append(("interval.self_share", "ratio", "lower"))
    for f in ("main", "parse", "eval", "render"):
        pair(f"cli.{f}")
    out.append(("cli.parse.us_per_token", "us", "lower"))
    out.append(("cli.self_share", "ratio", "lower"))
    pair("conformance.describe")
    out.append(("conformance.self_share", "ratio", "lower"))
    out.append(("trace.span_cost_us", "us", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    out.append(("bench.self_share", "ratio", "lower"))
    return out


class _Scope:
    """Stands in for a scope context manager; enter and exit are spans."""

    __slots__ = ("make", "args", "kwargs", "cm", "enter", "exit")

    def __init__(self, make, enter, exit_, args, kwargs):
        self.make, self.enter, self.exit = make, enter, exit_
        self.args, self.kwargs = args, kwargs

    def __enter__(self):
        return self.enter(self)

    def __exit__(self, *exc):
        return self.exit(self, *exc)


def _scope_enter(scope):
    scope.cm = scope.make(*scope.args, **scope.kwargs)
    return scope.cm.__enter__()


def _scope_exit(scope, *exc):
    return scope.cm.__exit__(*exc)


class Tracer:
    def __init__(self, lib, keep: int = 20000):
        self.lib = lib
        self.keep = keep
        self.names: list[str] = []
        self.sid: list[int] = []
        self.t0: list[int] = []
        self.t1: list[int] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.texts: dict[int, str] = {}
        self.patches: list = []
        self.self_ns: defaultdict = defaultdict(int)
        self.calls: defaultdict = defaultdict(int)
        self.tokens = 0
        self.notify_in_ops = 0
        self.kept: list = []
        self.base = 0
        self.span_cost_us = 0.0

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, keep_text: bool = False):
        sid = self._id(name)
        S, T0, T1, P, stack, texts = self.sid, self.t0, self.t1, self.parent, self.stack, self.texts
        pc = time.perf_counter_ns

        def span(*args, **kwargs):
            i = len(T0)
            S.append(sid)
            P.append(stack[-1])
            T1.append(0)
            stack.append(i)
            if keep_text:
                texts[i] = args[0]
            T0.append(pc())
            try:
                return fn(*args, **kwargs)
            finally:
                T1[i] = pc()
                stack.pop()

        span.__wrapped__ = fn
        return span

    def _wrap_resolve_mode(self, fn):
        ambient = self._id("rounding.resolve_mode.ambient")
        explicit = self._id("rounding.resolve_mode.explicit")
        S, T0, T1, P, stack = self.sid, self.t0, self.t1, self.parent, self.stack
        pc = time.perf_counter_ns

        def span(mode):
            i = len(T0)
            S.append(ambient if mode is None else explicit)
            P.append(stack[-1])
            T1.append(0)
            stack.append(i)
            T0.append(pc())
            try:
                return fn(mode)
            finally:
                T1[i] = pc()
                stack.pop()

        return span

    def _wrap_notify(self, fn, current):
        """The disposition comes from outside: mask and style at entry,
        then whether the call returned or raised.  current is the unwrapped
        current_environment, so classifying adds no span."""
        env_mod = self.lib.environment
        ids = {d: self._id(f"environment.notify.{d}") for d in _NOTIFY}
        recording = env_mod.NotificationStyle.RECORDING
        terminating = env_mod.NotificationStyle.TERMINATING
        notification = env_mod.FloatingPointNotification
        S, T0, T1, P, stack = self.sid, self.t0, self.t1, self.parent, self.stack
        pc = time.perf_counter_ns

        def span(kind, operation, operands, continuation):
            env = current()
            if kind in env.mask:
                sid = ids["masked"]
            elif env.style is recording:
                sid = ids["recorded"]
            elif env.style is terminating:
                sid = ids["terminated"]
            else:
                sid = ids["handled"]
            i = len(T0)
            S.append(sid)
            P.append(stack[-1])
            T1.append(0)
            stack.append(i)
            T0.append(pc())
            try:
                return fn(kind, operation, operands, continuation)
            except notification:
                S[i] = ids["raised"]
                raise
            finally:
                T1[i] = pc()
                stack.pop()

        return span

    def _wrap_scope(self, fn):
        enter = self.wrap(_scope_enter, "environment.scope")
        exit_ = self.wrap(_scope_exit, "environment.scope_exit")

        def scope(*args, **kwargs):
            return _Scope(fn, enter, exit_, args, kwargs)

        return scope

    def _patch(self, namespaces, attr, replacement):
        for ns in namespaces:
            if isinstance(ns, dict):
                self.patches.append((ns, attr, ns[attr]))
                ns[attr] = replacement
            else:
                self.patches.append((ns, attr, getattr(ns, attr)))
                setattr(ns, attr, replacement)

    def install(self) -> None:
        lib = self.lib
        fp, rnd, env, ops, ivl, cli, conf = (
            lib.fpcore, lib.rounding, lib.environment, lib.ops, lib.interval, lib.cli,
            lib.conformance,
        )
        current_environment = env.current_environment
        plain = [
            ("fpcore.two_sum", fp, "two_sum", [fp]),
            ("fpcore.is_signaling", fp, "is_signaling", [fp, ops]),
            ("fpcore.residual_sign", fp, "prod_residual_sign", [fp]),
            ("fpcore.residual_sign", fp, "quot_residual_sign", [fp]),
            ("fpcore.residual_sign", fp, "sqrt_residual_sign", [fp]),
            ("fpcore.decimal_form", fp, "decimal_form", [fp, ivl, cli]),
            ("environment.trap_math", env, "trap_math", [env, cli, conf]),
            ("environment.current_environment", env, "current_environment", [env, ops, conf]),
            ("conformance.describe", conf, "describe_conformance", [conf, cli]),
            ("cli.main", cli, "main", [cli]),
            ("cli.render", cli, "render_value", [cli]),
            ("cli.eval", cli.Evaluator, "eval", [cli.Evaluator]),
        ]
        for name in ("add_parts", "mul_parts", "div_parts", "sqrt_parts"):
            plain.append(("rounding.parts", rnd, name, [rnd]))
        for name in ("add_dir", "sub_dir", "mul_dir", "div_dir", "sqrt_dir"):
            plain.append(("rounding.dir", rnd, name, [rnd] + ([conf] if name == "add_dir" else [])))
        for name in _OPS:
            plain.append((f"ops.{name}", ops, name, [ops]))
        for name in ("i_add", "i_sub", "i_mul", "i_div", "make_interval", "radius"):
            plain.append((f"interval.{name}", ivl, name, [ivl]))
        for name in ("i_member", "i_subseteq", "is_point"):
            plain.append(("interval.predicates", ivl, name, [ivl]))
        for metric, owner, attr, namespaces in plain:
            self._patch(namespaces, attr, self.wrap(getattr(owner, attr), metric))
        table = cli._SCALAR_FOR_INTERVAL
        for sym in list(table):
            self._patch([table], sym, getattr(ivl, table[sym].__name__))
        self._patch([cli], "parse", self.wrap(cli.parse, "cli.parse", keep_text=True))
        self._patch([rnd, env], "resolve_mode", self._wrap_resolve_mode(rnd.resolve_mode))
        self._patch([env, ops, ivl], "notify", self._wrap_notify(env.notify, current_environment))
        self._patch([env, cli, conf], "rounding_mode", self._wrap_scope(env.rounding_mode))
        self._patch([env, ivl, cli, conf], "notification_style",
                    self._wrap_scope(env.notification_style))
        self._patch([env, cli, conf], "evaluation_context",
                    self._wrap_scope(env.evaluation_context))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self.patches):
            if isinstance(ns, dict):
                ns[attr] = original
            else:
                setattr(ns, attr, original)
        self.patches.clear()

    def calibrate(self, n: int = 100_000) -> float:
        """Median over 5 rounds of the extra time one wrapped call costs."""

        def noop():
            return None

        wrapped = self.wrap(noop, "trace.calibrate")
        pc = time.perf_counter_ns
        costs = []
        for _ in range(5):
            t = pc()
            for _ in range(n):
                noop()
            plain = pc() - t
            t = pc()
            for _ in range(n):
                wrapped()
            costs.append((pc() - t - plain) / n)
            self.discard()
        costs.sort()
        self.span_cost_us = costs[2] / 1000
        return self.span_cost_us

    def discard(self) -> None:
        """Drop spans recorded outside the timed phase."""
        del self.sid[:], self.t0[:], self.t1[:], self.parent[:]
        self.texts.clear()

    def collect(self) -> None:
        """Fold this chunk's spans into the totals."""
        S, T0, T1, P = self.sid, self.t0, self.t1, self.parent
        n = len(T0)
        dur = [T1[i] - T0[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = P[i]
            if p >= 0:
                child[p] += dur[i]
        ops_ids = {self._id(f"ops.{name}") for name in _OPS}
        notify_ids = {self._id(f"environment.notify.{d}") for d in _NOTIFY}
        for i in range(n):
            s = S[i]
            self.self_ns[s] += dur[i] - child[i]
            self.calls[s] += 1
            if s in notify_ids and P[i] >= 0 and S[P[i]] in ops_ids:
                self.notify_in_ops += 1
        for text in self.texts.values():
            self.tokens += len(_TOKEN.findall(_COMMENT.sub("", text)))
        room = self.keep - len(self.kept)
        for i in range(min(n, max(room, 0))):
            parent = self.base + P[i] if P[i] >= 0 else -1
            self.kept.append((self.names[S[i]], T0[i], T1[i], parent))
        self.base += n
        self.discard()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.kept:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")

    def metrics(self, wall_ns: int, operations: int, overhead_ratio: float) -> dict:
        """Per-layer metrics from the totals of the traced phase."""
        totals_ns: defaultdict = defaultdict(int)
        totals_calls: defaultdict = defaultdict(int)
        for sid, name in enumerate(self.names):
            if name.startswith("trace."):
                continue
            group = name
            if name.startswith("rounding.resolve_mode."):
                group = "rounding.resolve_mode"
            elif name == "environment.scope_exit":
                group = "environment.scope"
                totals_ns[group] += self.self_ns[sid]
                continue
            totals_ns[group] += self.self_ns[sid]
            totals_calls[group] += self.calls[sid]
        out: dict = {}
        for name, unit, _ in per_layer_names():
            base, _, field = name.rpartition(".")
            if field == "calls":
                value = totals_calls[base] / operations
            elif field == "self_us":
                calls = totals_calls[base]
                value = totals_ns[base] / calls / 1000 if calls else 0.0
            else:
                continue
            out[name] = {"value": value, "unit": unit}
        layer_ns = {layer: 0 for layer in LAYERS}
        for group, ns in totals_ns.items():
            layer = group.split(".")[0]
            if layer in layer_ns:
                layer_ns[layer] += ns
        for layer in LAYERS:
            out[f"{layer}.self_share"] = {"value": layer_ns[layer] / wall_ns, "unit": "ratio"}
        out["bench.self_share"] = {
            "value": 1.0 - sum(layer_ns.values()) / wall_ns, "unit": "ratio"}
        resolve = totals_calls["rounding.resolve_mode"]
        ambient = self.calls[self._id("rounding.resolve_mode.ambient")]
        out["rounding.resolve_mode.ambient_ratio"] = {
            "value": ambient / resolve if resolve else 0.0, "unit": "ratio"}
        arith = sum(totals_calls[f"ops.{n}"] for n in _OPS[:5]) + totals_calls["rounding.dir"]
        out["rounding.finite_path_ratio"] = {
            "value": totals_calls["rounding.parts"] / arith if arith else 0.0, "unit": "ratio"}
        ops_calls = sum(totals_calls[f"ops.{n}"] for n in _OPS)
        out["ops.notify_ratio"] = {
            "value": self.notify_in_ops / ops_calls if ops_calls else 0.0, "unit": "ratio"}
        parse_ns = totals_ns["cli.parse"]
        out["cli.parse.us_per_token"] = {
            "value": parse_ns / self.tokens / 1000 if self.tokens else 0.0, "unit": "us"}
        out["trace.span_cost_us"] = {"value": self.span_cost_us, "unit": "us"}
        out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
        return {name: out[name] for name, _, _ in per_layer_names()}
