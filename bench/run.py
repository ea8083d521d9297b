"""liamath benchmark: one closed-loop workload per run, checked by an oracle.

  python3 bench/run.py --workload scalar_sweep --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout: it imports liamath from `src/` there
and refuses to run without it.  With `--trace 0` it measures set-up time
(the median of several fresh interpreters, each importing liamath and
running a warm-up pass), then runs the workload's timed phase and reports
the end-to-end metrics.  Their times are scaled to a host of fixed speed:
a fixed piece of reference work is timed around every chunk (and in every set-up
probe), and each time is multiplied by REF_NS over the reference time then.
With `--trace 1` it runs half the time untraced and half traced, and
reports the per-layer metrics; the spans it kept are written to
`.bench_out/`.  Every result is checked against `oracle.py`.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
# The shared host runs at speeds up to 1.7x apart for seconds to minutes at
# a time, on wall and CPU clocks alike, and that moves every time measured
# here together.  Times are reported as on a host that does the reference
# work in REF_NS: about its time between chunks on the development machine
# (Intel Xeon, 2 vCPUs, Python 3.11.7) at the faster speed.
REF_NS = 3.0e6

import oracle  # noqa: E402  (sibling modules; they need no liamath)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def load_lib():
    """Import liamath from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "liamath" / "__init__.py").is_file():
        raise SystemExit(f"bench: no liamath sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"liamath.{name}") for name in tracing.LAYERS}
    if not Path(modules["ops"].__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit("bench: imported a liamath that is not this checkout's")
    return types.SimpleNamespace(**modules)


def warm_up(lib, name: str, seed: int, chunk) -> None:
    w = workloads.warmup_workload(name, seed)
    w.run(w.prepare(lib, chunk), [], [])


def reference_ns() -> int:
    """Nanoseconds a fixed piece of pure-Python work takes now: the host's
    speed.  Integer arithmetic, then building and formatting small dicts,
    lists and strings; the two together track the speed of all three
    workloads better than either alone.  The collector is off meanwhile, so
    the time does not depend on what the workload left in it."""
    gc.disable()
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(20000):
        s += i * i % 7
    d = {}
    for i in range(3000):
        d[str(i)] = [i, (i, i + 1), {"k": i}]
    "".join(f"{k}:{v[0]}" for k, v in d.items())
    t1 = time.perf_counter_ns()
    gc.enable()
    return t1 - t0


def setup_probe(name: str, seed: int) -> float:
    """Seconds to import liamath and run the warm-up pass, in this process,
    scaled to the reference host.  Warm-up inputs are generated, and the
    reference work timed, before the clock starts."""
    chunk = workloads.warmup_workload(name, seed).next_chunk()
    ref = statistics.median(reference_ns() for _ in range(5))
    t0 = time.perf_counter()
    lib = load_lib()
    warm_up(lib, name, seed, chunk)
    return (time.perf_counter() - t0) * REF_NS / ref


def two_sum_defect_shows(lib) -> bool:
    """Whether the library still has the `two_sum` defect that the
    cli_session generator steers around (see oracle.py)."""
    a, b = oracle.MAX_FINITE, -8.019594311566707e+307
    got = lib.ops.add(a, b, lib.rounding.RoundingMode(oracle.DOWN))
    return oracle.bits(got) != oracle.bits(oracle.op_add(a, b, oracle.DOWN)[0])


def measure_setup(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Phase:
    """Totals of one timed phase: operations, wall time as measured and as
    scaled to the reference host, and a histogram of scaled per-operation
    latencies in nanoseconds."""

    LABEL_SAMPLES = 5000

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.wall_ns = 0
        self.scaled_wall_ns = 0.0
        self.scales: list[float] = []
        self.hist: Counter = Counter()
        self.by_label: dict[str, list[int]] = {}

    def add(self, lat: list[int], wall_ns: int, labels: list[str], scale: float) -> None:
        """One chunk; its times are multiplied by `scale` to the reference host.
        The per-label samples stay as measured."""
        for label, ns in zip(labels, lat):
            kept = self.by_label.setdefault(label, [])
            if len(kept) < self.LABEL_SAMPLES:
                kept.append(ns)
        self.ops += len(lat)
        self.wall_ns += wall_ns
        self.scaled_wall_ns += wall_ns * scale
        self.scales.append(scale)
        self.hist.update(round(ns * scale) for ns in lat)

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.scaled_wall_ns / 1e9)

    @property
    def measured_ops_per_s(self) -> float:
        return self.ops / (self.wall_ns / 1e9)

    def percentile_us(self, q: float) -> float:
        rank = math.ceil(q * self.ops)
        seen = 0
        for ns in sorted(self.hist):
            seen += self.hist[ns]
            if seen >= rank:
                return ns / 1000
        raise ValueError("empty phase")


def run_phase(lib, w, seconds: float, tracer=None) -> Phase:
    """Closed loop until `seconds` of timed work: generate and prepare a
    chunk, run it on the clock, check it off the clock.  Before each chunk
    the garbage of the benchmark's own steps is collected and what is left
    frozen, so that a collection on the clock scans the program's objects,
    not the benchmark's inputs and results."""
    phase = Phase()
    budget = int(seconds * 1e9)
    pc = time.perf_counter_ns
    while phase.wall_ns < budget or phase.ops < 1000:
        chunk = w.next_chunk()
        job = w.prepare(lib, chunk)
        lat: list[int] = []
        results: list = []
        if tracer is not None:
            tracer.discard()
        gc.collect()
        gc.freeze()
        ref = reference_ns()
        t0 = pc()
        w.run(job, lat, results)
        wall = pc() - t0
        scale = 2 * REF_NS / (ref + reference_ns())
        gc.unfreeze()
        if tracer is not None:
            tracer.collect()
        phase.failed += w.check(lib, chunk, job, results)
        if tracer is not None:
            tracer.discard()
        phase.add(lat, wall, w.labels(chunk), scale)
    return phase


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    name, seed = args.workload, args.seed
    setup = measure_setup(name, seed) if args.trace == 0 else []
    warm_chunk = workloads.warmup_workload(name, seed).next_chunk()
    lib = load_lib()
    warm_up(lib, name, seed, warm_chunk)
    w = workloads.WORKLOADS[name](seed)
    meta = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
    }
    print(json.dumps({"meta": meta}))

    if args.trace == 0:
        phase = run_phase(lib, w, args.seconds)
        attempted, failed = phase.ops, phase.failed
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric(phase.ops_per_s, "ops/s"),
            "op_us_p50": metric(phase.percentile_us(0.50), "us"),
            "op_us_p99": metric(phase.percentile_us(0.99), "us"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"samples {phase.ops} (p99 has {phase.ops - math.ceil(0.99 * phase.ops)} beyond it)")
        print(f"measured ops_per_s {phase.measured_ops_per_s:.6g} ops/s, median scale to the "
              f"reference host {statistics.median(phase.scales):.4g}")
        print(f"failed_ratio {failed / attempted:.6g} ratio")
        for label, kept in sorted(phase.by_label.items()):
            print(f"call_us_p50 {label} {statistics.median(kept) / 1000:.4g} us ({len(kept)} samples)")
    else:
        plain = run_phase(lib, w, args.seconds / 2)
        tracer = tracing.Tracer(lib)
        tracer.calibrate()
        tracer.install()
        if name == "cli_session":
            w.stdin_hook = lambda readline: tracer.wrap(readline, "bench.stdin")
        try:
            traced = run_phase(lib, w, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-{seed}.jsonl")
        attempted, failed = plain.ops + traced.ops, plain.failed + traced.failed
        metrics = tracer.metrics(traced.wall_ns, traced.ops, plain.ops_per_s / traced.ops_per_s)
        print(f"failed_ratio {failed / attempted:.6g} ratio")

    if name == "cli_session":
        print(f"redrawn for the two_sum defect: {w.redrawn} statements")
    print(f"two_sum defect: {'present' if two_sum_defect_shows(lib) else 'fixed'}")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
