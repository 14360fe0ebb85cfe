"""Measuring process: one client issuing one workload's ops in a closed loop.

Started by run.py with the op specs in a JSON-lines file (one cycle a
line).  Each op is one ``promiselab.cli.dispatch(argv)`` call in this
process and thread, with stdout captured; the next op starts when the
previous one returns.  Input files are written between ops, outside the
timed region.  Whole cycles run until the summed op time reaches the
requested seconds, so every run has the same mix of ops.  Throughout
those ops a timer signal runs a fixed reference loop every TICK_S seconds,
which reads the host's speed at that moment (see ``HostClock``); its
time is taken out of the op it interrupted.

Afterwards the process reads its peak RSS (it never imports numpy), then
either repeats a sample of the ops to check their stdout is byte-stable
(--trace 0), or replays every op under the span tracer (--trace 1),
checking that traced stdout matches the untraced bytes and that each
op's layer self times plus its root self time add up to its root span.
Results go to --out as JSON; stdouts go to files beside it for the
oracles.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import sys
import time

import ops
from spans import Tracer, layer_metrics

REPEAT_SHARE = 0.1  # share of --seconds spent re-running ops for the byte check
SUM_TOLERANCE = 0.01
REFERENCE_ITERATIONS = 10000  # about 1 ms on a 2-vCPU VM; it defines the ref unit
TICK_S = 0.05  # period of the host-speed readings during the timed ops
WINDOW_S = 0.25  # readings this close to an op set its ref


def reference_s() -> float:
    """Seconds taken by one fixed pure-Python loop: the host's speed now.

    The loop is interpreter work on a few small integers.  Its working
    set is tiny, so its cost does not depend on what the program left in
    the caches or the heap; it is benchmark code, the same on every
    commit measured, so the program under test cannot change its cost.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


class HostClock:
    """Reads the host's speed every TICK_S seconds while it is entered.

    A shared host's speed drifts by up to 2x within seconds to minutes,
    and the program and the reference loop drift together.  A SIGALRM
    handler runs the loop between the program's bytecodes, so the
    readings cover long ops as densely as short ones.  The handler's own
    time goes to `stolen`, which _execute takes out of the op it
    interrupted.  An op's ref is the median reading within WINDOW_S of
    it; run.py gives op times in those units.
    """

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []  # (when, seconds)
        self.stolen = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.readings.append((start, reference_s()))
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_s(self, start: float, end: float) -> float:
        """Median reading taken from WINDOW_S before `start` to WINDOW_S after `end`."""
        times = [when for when, _ in self.readings]
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        near = [seconds for _, seconds in self.readings[lo:hi]]
        return statistics.median(near or [reference_s()])


def _execute(cli, spec: dict, directory: str, run=None,
             clock: HostClock | None = None) -> tuple:
    """(exit code, stdout, stderr, seconds) of one op; untimed file set-up."""
    argv = ops.materialize(spec, directory)
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.dispatch(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # any untyped error is an op failure
                print(f"untyped error: {exc!r}", file=sys.stderr)
                return None

    if run is None:
        stolen = clock.stolen if clock else 0.0
        start = time.perf_counter()
        code = call()
        elapsed = time.perf_counter() - start
        if clock:
            elapsed -= clock.stolen - stolen
    else:
        code, elapsed = run(call)
    return code, out.getvalue(), err.getvalue(), elapsed


def _cycles(path: str, skip: int):
    """Op lists from the JSON-lines spec file, read one line at a time."""
    with open(path, encoding="ascii") as fh:
        for number, line in enumerate(fh):
            if number >= skip:
                yield json.loads(line)


def _peak_rss_mb() -> float:
    """High-water RSS of this process image, in MB.

    getrusage's ru_maxrss is no use here: on Linux it keeps the peak of
    the image before exec, which is the parent's size at fork.  VmHWM
    counts this image only.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--specs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import promiselab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"promiselab imported from {cli.__file__}, not {src}")

    workdir = os.path.dirname(os.path.abspath(args.out))
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    records = []
    busy = 0.0
    for spec in next(_cycles(args.specs, 0)):
        _execute(cli, spec, inputs)  # warm-up, not counted
    windows = []
    with HostClock() as clock:
        for cycle, specs in enumerate(_cycles(args.specs, 1)):
            for index, spec in enumerate(specs):
                start = time.perf_counter()
                code, out, err, elapsed = _execute(cli, spec, inputs, clock=clock)
                windows.append((start, time.perf_counter()))
                busy += elapsed
                name = f"{cycle}-{index}"
                with open(os.path.join(workdir, name + ".out"), "w",
                          encoding="utf-8") as sink:
                    sink.write(out)
                records.append({"op": name, "cycle": cycle, "index": index,
                                "code": code, "stderr": err[-500:],
                                "seconds": elapsed, "digest": _digest(out)})
            if busy >= args.seconds:
                break
    for rec, window in zip(records, windows):
        rec["ref_s"] = clock.ref_s(*window)
    peak_rss_mb = _peak_rss_mb()
    result = {"busy_s": busy, "peak_rss_mb": peak_rss_mb, "ops": records,
              "exhausted": busy < args.seconds, "mismatch": [],
              "sum_violations": []}
    replay = zip(records, (spec for specs in _cycles(args.specs, 1)
                           for spec in specs))

    if args.trace == 0:
        spent = 0.0
        for rec, spec in replay:
            if rec["cycle"] > 0 or spent >= REPEAT_SHARE * args.seconds:
                break
            _, out, _, elapsed = _execute(cli, spec, inputs)
            spent += elapsed
            if _digest(out) != rec["digest"]:
                result["mismatch"].append(rec["op"])
    else:
        tracer = Tracer()
        tracer.install()
        try:
            for rec, spec in replay:
                before = tracer.self_total()
                root_self_before = tracer.root_self_s
                _, out, _, elapsed = _execute(cli, spec, inputs, tracer.root)
                if _digest(out) != rec["digest"]:
                    result["mismatch"].append(rec["op"])
                spans = tracer.self_total() - before
                root_self = tracer.root_self_s - root_self_before
                if abs(spans + root_self - elapsed) > SUM_TOLERANCE * elapsed:
                    result["sum_violations"].append(rec["op"])
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(tracer, busy)
        result["layer_self_s"] = tracer.layer_self_s()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
