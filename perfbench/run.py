"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``
as it stands; nothing is installed or built.  A run

1. generates the workload's ops from the seed (workloads.py),
2. with --trace 0, times fresh interpreters importing promiselab.cli,
   half of them here and half after step 3,
3. starts worker.py, which issues whole cycles of ops in a closed loop
   for S seconds of op time and then either repeats a sample of them
   (--trace 0) or replays all of them under the span tracer (--trace 1),
4. checks every op's stdout with the oracles (oracles.py), outside any
   timed region,
5. prints a report, then one JSON line with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1).

The end-to-end op times are given in ref units: an op's ref is the time
a fixed reference loop took around it (worker.HostClock).  A shared
host's speed drifts by up to 2x within minutes, and the program and the
loop drift together, so the ratio is steady where seconds are not.  The
report also prints the times in seconds.

It exits 1 if any op failed or answered wrongly, and 2 if the
repository's package is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import oracles
import workloads
from spans import COMPUTED, RATIO_BASES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Cycles generated per run: several times what a run uses at the seed
# commit, so a faster program still finds fresh inputs.
MAX_CYCLES = {"statevector": 200, "witness": 100, "branches": 100, "diagonal": 60}
SETUP_RUNS = 16  # half before the timed ops, half after
WORKER_TIMEOUT_S = 150
SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); "
              "start = time.perf_counter(); import promiselab.cli; "
              "print(time.perf_counter() - start)")


def setup_times(count: int, first: bool = False) -> list[float]:
    """Import times of promiselab.cli in `count` fresh interpreters.

    With `first`, one extra launch before them writes the bytecode cache,
    as any earlier invocation would have, and is not counted.
    """
    times = []
    for launch in range(count + first):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        if launch or not first:
            times.append(float(proc.stdout))
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    """(metrics for the JSON line, extra report lines), each name -> (value, unit, note)."""
    latencies = [rec["seconds"] for rec in result["ops"]]
    refs = [rec["ref_s"] for rec in result["ops"]]
    in_refs = [seconds / ref for seconds, ref in zip(latencies, refs)]
    n = len(latencies)
    p50_s = statistics.median(latencies)
    tail_s, tail_pct = tail(latencies)
    tail_ref, _ = tail(in_refs)
    tail_note = f"p{tail_pct:.1f}, n={n}, 10 samples beyond"
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_RUNS} fresh interpreters, "
                    "half before the ops and half after"),
        "ops_per_kref": (1e3 * n / sum(in_refs), "1/kref",
                         f"n={n}, per 1000 refs of op time"),
        "op_p50_ref": (statistics.median(in_refs), "ref", f"n={n}"),
        "op_tail_ref": (tail_ref, "ref", tail_note),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "worker high-water RSS"),
    }
    quartiles = statistics.quantiles(refs, n=4) if n > 1 else refs * 3
    wall = {
        "ref_ms": (statistics.median(refs) * 1e3, "ms",
                   f"median over ops, quartiles {quartiles[0] * 1e3:.3f}"
                   f"-{quartiles[2] * 1e3:.3f} ms"),
        "ops_per_s": (n / result["busy_s"], "1/s", f"n={n}"),
        "op_p50_ms": (p50_s * 1e3, "ms", f"n={n}"),
        "op_tail_ms": (tail_s * 1e3, "ms", tail_note),
    }
    return metrics, wall


def run_worker(workdir: Path, specs_path: Path, seconds: int, trace: int) -> dict:
    out = workdir / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
         "--specs", str(specs_path), "--out", str(out),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def check_ops(result: dict, cycles: list[list[dict]], workdir: Path) -> list[str]:
    """One line per failed op: nonzero exit, typed error, wrong or unstable output."""
    unstable = set(result["mismatch"]) | set(result["sum_violations"])
    failures = []
    for rec in result["ops"]:
        spec = cycles[rec["cycle"]][rec["index"]]
        if rec["code"] != 0:
            reason = f"exit {rec['code']}: {rec['stderr'].strip()}"
        elif rec["op"] in unstable:
            reason = "stdout differs between repeats or spans do not add up"
        else:
            out = (workdir / f"{rec['op']}.out").read_text(encoding="utf-8")
            reason = oracles.check(spec, out)
        if reason:
            failures.append(f"op {rec['op']} ({spec['cmd']}): {reason}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "promiselab" / "cli.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'promiselab'}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        warmup, cycles = workloads.generate(args.workload, args.seed,
                                            MAX_CYCLES[args.workload])
        specs_path = workdir / "specs.jsonl"
        with open(specs_path, "w", encoding="ascii") as fh:
            for ops in [warmup] + cycles:
                fh.write(json.dumps(ops) + "\n")
        setup = SETUP_RUNS // 2 if args.trace == 0 else 0
        launches = setup_times(setup, first=bool(setup))
        result = run_worker(workdir, specs_path, args.seconds, args.trace)
        launches += setup_times(setup)
        failures = check_ops(result, cycles, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    n = len(result["ops"])
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"closed loop, 1 client: {n} ops in "
          f"{len({rec['cycle'] for rec in result['ops']})} whole cycles, "
          f"{result['busy_s']:.3f} s of op time"
          + (" (input pool exhausted)" if result["exhausted"] else ""))
    for line in failures[:20]:
        print(f"FAILED {line}")
    if args.trace == 0:
        metrics, wall = end_to_end(result, statistics.median(launches))
        report = {**metrics, **wall}
        report["failed_frac"] = (len(failures) / n, "ratio",
                                 f"{len(failures)} of {n} attempted")
        for name, (value, unit, note) in report.items():
            print(f"{name:<14} {value:>14.6g} {unit:<6} ({note})")
    else:
        metrics = {}
        for name, (value, unit) in result["layers"].items():
            note = (f"over {RATIO_BASES[name]}" if name in RATIO_BASES
                    else COMPUTED.get(name, ""))
            metrics[name] = (value, unit, note)
            print(f"{name:<36} {value:>14.6g} {unit:<6} {note}")
        for layer, seconds in result["layer_self_s"].items():
            print(f"layer {layer:<12} self {seconds:.6f} s")
    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
