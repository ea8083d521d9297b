"""Self-tests of the benchmark: deterministic inputs, tracing that changes
no result, and an oracle that agrees with hand-checked values.

  python3 -m pytest -q bench/test_bench.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle as O  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_identical_inputs_in_two_processes(name):
    code = f"import workloads; print(workloads.input_digest({name!r}, 7))"
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
    assert workloads.input_digest(name, 8) != digests[0]


def _results(lib, name, hook=None):
    w = workloads.WORKLOADS[name](11)
    if hook is not None:
        w.stdin_hook = hook
    chunk = w.next_chunk()
    job = w.prepare(lib, chunk)
    lat, results = [], []
    w.run(job, lat, results)
    return w, chunk, job, results


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_gives_identical_result_bits(name):
    lib = run.load_lib()
    w, chunk, job, plain = _results(lib, name)
    assert w.check(lib, chunk, job, plain) == 0
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        _, _, _, traced = _results(lib, name, lambda f: tracer.wrap(f, "bench.stdin"))
        tracer.collect()
    finally:
        tracer.uninstall()
    assert w.fingerprint(traced) == w.fingerprint(plain)
    metrics = tracer.metrics(10**9, len(plain), 1.0)
    assert [m for m, _, _ in tracing.per_layer_names()] == list(metrics)


def test_oracle_known_values():
    down, up = O.op_add(0.1, 0.2, O.DOWN)[0], O.op_add(0.1, 0.2, O.UP)[0]
    assert (down, up) == (0.3, 0.30000000000000004)
    assert O.op_mul(O.MAX_FINITE, 2.0, O.ZERO) == (O.MAX_FINITE, ("inexact",), "overflow")
    assert O.op_div(1.0, 0.0, O.NEAREST_EVEN) == (O.INF, (), "divide-by-zero")
    tiny = O.op_mul(O.MIN_NORMAL, 0.5, O.UP)
    assert tiny == (O.MIN_NORMAL / 2, (), None)          # exact: no underflow
    assert O.op_mul(O.MIN_NORMAL, 0.75 + 2**-53, O.UP)[1:] == (("inexact",), "underflow")
    assert O.op_sqrt(2.0, O.UP)[0] == 1.4142135623730951       # RN(sqrt 2) is above
    assert O.op_sqrt(2.0, O.DOWN)[0] == 1.4142135623730949
    assert O.op_sqrt(4.0, O.DOWN) == (2.0, (), None)


@pytest.mark.xfail(strict=True, reason="library defect: fpcore.two_sum overflows next to "
                   "MAX_FINITE; once fixed, drop this mark and the cli_session redraw")
def test_sum_next_to_max_finite_rounds_in_its_direction():
    assert not run.two_sum_defect_shows(run.load_lib())


def test_cli_session_redraws_a_statement_that_reaches_the_defect(monkeypatch):
    """The statement is drawn again and leaves no flags behind: the stored
    expectations equal a fresh replay of the oracle, which meets no sum
    that reaches the defect."""
    hit = ("arith", "add", O.DOWN, [workloads._num(O.MAX_FINITE, "max-finite"),
                                    workloads._num(-8.019594311566707e+307)])
    draws = [hit]
    real = workloads.random_statement
    monkeypatch.setattr(workloads, "random_statement",
                        lambda rng, terminating=False: draws.pop() if draws else real(rng, terminating))
    w = workloads.CliSession(3)
    session = w.next_chunk()
    assert w.redrawn == 1
    hits = O.two_sum_defect_hits
    for inv in session:
        if inv[0] == "eval":
            assert O.expected_eval(inv[5], *inv[1:4]) == inv[6]
        elif inv[0] == "repl":
            model = O.CliModel(*inv[1:3])
            assert [model.line(node, inv[3]) for _, node, _ in inv[4]] == [
                want for _, _, want in inv[4]]
    assert O.two_sum_defect_hits == hits
