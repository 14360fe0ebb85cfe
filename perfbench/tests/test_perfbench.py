"""Checks of the benchmark itself: generators, oracles and span accounting."""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402

import promiselab.cli as cli  # noqa: E402


def _dispatch(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.dispatch(argv)
    return code, out.getvalue()


def _cheap_ops(tmp_path: Path) -> list[dict]:
    """A few fast ops from each workload's first cycle."""
    picks = {"statevector": [0], "witness": [2, 3, 8, 9],
             "branches": [0, 6], "diagonal": [0, 1, 45]}
    chosen = []
    for name, indices in picks.items():
        _, cycles = workloads.generate(name, 3, 1)
        chosen += [cycles[0][i] for i in indices]
    return chosen


@contextlib.contextmanager
def installed(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_generation_is_seeded_and_never_repeats_an_op():
    for name in workloads.CYCLES:
        warmup, cycles = workloads.generate(name, 7, 2)
        assert (warmup, cycles) == workloads.generate(name, 7, 2)
        every = [repr(spec) for spec in warmup + cycles[0] + cycles[1]]
        assert len(set(every)) == len(every)
        assert workloads.generate(name, 8, 2)[1] != cycles


def test_untraced_answers_pass_the_oracles(tmp_path):
    for spec in _cheap_ops(tmp_path):
        code, out = _dispatch(ops.materialize(spec, str(tmp_path)))
        assert code == 0
        assert oracles.check(spec, out) is None, spec["cmd"]


def test_spans_add_up_and_tracing_keeps_stdout(tmp_path):
    specs = _cheap_ops(tmp_path)
    untraced = [_dispatch(ops.materialize(spec, str(tmp_path)))[1]
                for spec in specs]
    tracer = Tracer()
    with installed(tracer):
        for spec, expected in zip(specs, untraced):
            before = tracer.layer_self_s()
            root_self = tracer.root_self_s
            (code, out), elapsed = tracer.root(
                lambda: _dispatch(ops.materialize(spec, str(tmp_path))))
            assert code == 0 and out == expected, spec["cmd"]
            after = tracer.layer_self_s()
            layers = sum(after[layer] - before[layer] for layer in LAYERS)
            assert layers + tracer.root_self_s - root_self == pytest.approx(
                elapsed, rel=0.01)
    metrics = {name: value for name, (value, _) in
               layer_metrics(tracer, tracer.root_s).items()}
    leaves = sum(math.prod(len(level) for level in s["levels"])
                 for s in specs if s["cmd"] == "branches")
    assert metrics["ptm.leaves"] == leaves
    assert metrics["field.det.calls"] > 0  # the QMA no-instances
    assert metrics["circuit.amp_updates"] > 0
    assert metrics["tm.steps"] > 0 and metrics["promise.classify.calls"] > 0
    assert metrics["enumeration.decide.calls"] > 0
    assert metrics["diagonal.gap_member.calls"] > 0


def test_import_by_name_sites_are_traced():
    import promiselab.circuit as circuit
    import promiselab.field as field

    def sites():
        return (cli.decimal_string, cli.karp_check, circuit.sylvester_psd,
                circuit.real_sign, field.det)

    with installed(Tracer()):
        assert all(hasattr(site, "__wrapped__") for site in sites())
    assert not any(hasattr(site, "__wrapped__") for site in sites())


def test_oracles_reject_wrong_answers(tmp_path):
    _, (statevector,) = workloads.generate("statevector", 3, 1)
    spec = statevector[0]
    _, out = _dispatch(ops.materialize(spec, str(tmp_path)))
    head = out.rsplit("p_acc: ", 1)[0]
    wrong = head + "p_acc: 1/3 + 0/1*r + 0/1*i + 0/1*i*r  (~ 0.3)\n"
    assert oracles.check(spec, wrong) is not None

    _, (witness,) = workloads.generate("witness", 3, 1)
    assert oracles.check(witness[0], "no\n") is not None

    _, (branches,) = workloads.generate("branches", 3, 1)
    _, out = _dispatch(ops.materialize(branches[0], str(tmp_path)))
    assert oracles.check(branches[0], out.replace("\n", "\n1", 1)) is not None

    _, (diagonal,) = workloads.generate("diagonal", 3, 1)
    spec = diagonal[0]
    _, out = _dispatch(ops.materialize(spec, str(tmp_path)))
    assert oracles.check(spec, out[:-2] + "1\n") is not None


def test_tail_has_ten_samples_beyond_it():
    latencies = list(range(100))
    value, percentile = run.tail(latencies)
    assert value == 89 and percentile == 90.0
    assert sum(x > value for x in latencies) == 10


def test_host_clock_reads_during_an_op_and_takes_its_time_out():
    with worker.HostClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    readings = [seconds for _, seconds in clock.readings]
    assert len(readings) >= 3
    assert sum(readings) <= clock.stolen < end - start
    assert min(readings) <= clock.ref_s(start, end) <= max(readings)


def test_end_to_end_metrics_are_the_declared_ones_in_ref_units():
    records = [{"seconds": 0.010 * (i + 1), "ref_s": ref}
               for i, ref in enumerate([0.002, 0.001, 0.001, 0.004, 0.001])]
    result = {"ops": records, "busy_s": 0.15, "peak_rss_mb": 30.0}
    metrics, _ = run.end_to_end(result, setup_s=0.2)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in declared["end_to_end"]} == {
        (name, unit) for name, (_, unit, _) in metrics.items()}
    # Each op in its own ref: 5, 20, 30, 10 and 50.
    assert metrics["op_p50_ref"][0] == pytest.approx(20.0)
    assert metrics["op_tail_ref"][0] == pytest.approx(50.0)
    assert metrics["ops_per_kref"][0] == pytest.approx(1e3 * 5 / 115)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branches",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
