"""Seeded workloads: each is a fixed cycle of op slots.

A run issues whole cycles, so every run of a workload has the same mix
of op sizes and verdicts; the seed only changes the concrete inputs.
Every op of a run is distinct (no repeated argv or file content), so a
cache that helps only repeated inputs cannot show up as a gain.  The
inputs avoid cases known to fail at the seed commit, so any failure is a
regression.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from types import SimpleNamespace

from oracles import verdict, witness_spectra

# Qubit counts of one cycle's simulate ops.  Weights favour the small sizes so
# that a run holds enough ops for its median and tail to be steady.
STATEVECTOR_CYCLE = [8, 8, 10, 8, 8, 10, 8, 8, 12, 8, 8, 10]
STATEVECTOR_GATES = {"H": 14, "T": 13, "CNOT": 13}

WITNESS_QUBITS = (1, 2, 3)
WITNESS_WORKSPACE = 2
VERDICTS = ("yes", "no", "outside-promise")
MIN_NO_EIGENVALUE = 0.1
WITNESS_BATCH = 256  # candidate circuits classified per numpy call

# (fan-out, depth, input length): each tree at both input lengths, plus
# three like-sized slots whose latency lies between the nine cheaper
# slots and the nine dearer ones, so the median falls inside that group.
BRANCH_SLOTS = [(k, d, n) for n in (16, 256)
                for k, d in [(2, 12), (2, 14), (2, 16), (3, 8), (3, 9),
                             (3, 10), (4, 6), (4, 7), (4, 8)]] + [(2, 13, 256)] * 3
BRANCH_ACTIONS = [[w, m] for w in ("0", "1", "_") for m in ("L", "R", "N")]

# The contradiction search scans at most 2^14 words from one length up,
# so each presented rival must differ from the diagonalized problem on
# one of the first words of every length.  For a = parity every other
# builtin does.  Against a constant a', len-even and len-1-to-3 agree
# with it on all words of some lengths, so they are left out there.
PARITY_RIVALS = ["const-yes", "const-no", "len-even", "len-1-to-3", "ones-promise"]
APRIME_RIVALS = {"const-no": ["const-yes", "parity", "ones-promise"],
                 "const-yes": ["const-no", "parity", "ones-promise"]}
# Slots: (command, how a is given, bound).  Three machine-backed ladner
# ops at bound 13 make a group of like-sized ops at the tail.  The short
# gaplang ops outnumber the rest four to one, so the median falls near
# the middle of their latencies, where those lie densest, and measures
# what a short invocation costs.  Four of them follow each long op, so
# they sample the host's speed all through the run rather than in one
# burst per cycle.  The cheapest op of each command comes first, as the
# warm-up takes the first op of each command.
DIAGONAL_LONG = (
    [("ladner", "builtin", 12), ("ladner", "builtin", 14)]
    + [("ladner", "machine", 13)] * 3 + [("ladner", "machine", 14)]
    + [("diagonalize", "builtin", 13), ("diagonalize", "machine", 12),
       ("diagonalize", "machine", 14)]
    + [("enumerate", "p", 14)] * 3 + [("enumerate", "np", 14)] * 2)
DIAGONAL_CYCLE = [slot for long in DIAGONAL_LONG
                  for slot in [long] + [("gaplang",)] * 4]


def _bits(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _random_gates(rng: random.Random, n: int, counts: dict[str, int]) -> list[list]:
    """Gates with the given kind counts in random order, touching all n qubits."""
    while True:
        kinds = [k for k, c in counts.items() for _ in range(c)]
        rng.shuffle(kinds)
        gates = [[k, *rng.sample(range(1, n + 1), 2)] if k == "CNOT"
                 else [k, rng.randint(1, n)] for k in kinds]
        if {q for g in gates for q in g[1:]} == set(range(1, n + 1)):
            return gates


def _fresh(run: SimpleNamespace, make) -> dict:
    """Draw specs from make() until one is new to this run."""
    while True:
        spec = make()
        if repr(spec) not in run.seen:
            run.seen.add(repr(spec))
            return spec


def statevector_cycle(run: SimpleNamespace) -> list[dict]:
    return [_fresh(run, lambda: {
                "cmd": "simulate", "qubits": n,
                "gates": _random_gates(run.rng, n, STATEVECTOR_GATES)})
            for n in STATEVECTOR_CYCLE]


def _witness_candidates(rng: random.Random, m: int):
    """Endless stream of (gates, {class: float verdict}) for m witness qubits.

    Candidates are random circuits whose top eigenvalue (the QMA verdict)
    and largest diagonal entry (the QCMA verdict) of the witness-block
    operator both clear each threshold by the margin; no-instances keep a
    top eigenvalue of at least MIN_NO_EIGENVALUE, so Q is not zero.
    """
    n = m + WITNESS_WORKSPACE
    size = 3 * n
    counts = {"H": size // 3 + 1, "T": size // 3, "CNOT": size - 2 * (size // 3) - 1}
    while True:
        batch = [_random_gates(rng, n, counts) for _ in range(WITNESS_BATCH)]
        for gates, top, diag in zip(batch, *witness_spectra(n, m, batch)):
            qma, qcma = verdict(top), verdict(diag)
            if qma and qcma and top >= MIN_NO_EIGENVALUE:
                yield gates, {"qma": qma, "qcma": qcma}


def _witness_instance(run: SimpleNamespace, m: int, kind: str, want: str) -> dict:
    """The oldest unused candidate whose `kind` verdict is `want`.

    Candidates queue under both of their verdicts until a slot takes
    them; each circuit serves one op only, so no two ops share a
    generator.
    """
    queues = run.pending.setdefault(m, defaultdict(deque))
    stream = run.streams.setdefault(m, _witness_candidates(run.rng, m))
    while True:
        queue = queues[kind, want]
        while queue:
            gates = queue.popleft()
            if repr(gates) not in run.seen:
                run.seen.add(repr(gates))
                return {"cmd": "decide", "class": kind, "witness_qubits": m,
                        "qubits": m + WITNESS_WORKSPACE, "gates": gates,
                        "input": _bits(run.rng, 8)}
        gates, verdicts = next(stream)
        for cls, value in verdicts.items():
            queues[cls, value].append(gates)


def witness_cycle(run: SimpleNamespace) -> list[dict]:
    return [_witness_instance(run, m, kind, want)
            for m in WITNESS_QUBITS for want in VERDICTS
            for kind in ("qma", "qcma")]


def branches_cycle(run: SimpleNamespace) -> list[dict]:
    rng = run.rng
    return [_fresh(run, lambda: {
                "cmd": "branches",
                "levels": [rng.sample(BRANCH_ACTIONS, k) for _ in range(depth)],
                "accepting_branches": rng.randint(1, k - 1),
                "input": _bits(rng, length)})
            for k, depth, length in BRANCH_SLOTS]


def _diagonal_op(rng: random.Random, slot: tuple) -> dict:
    cmd = slot[0]
    if cmd == "gaplang":
        return {"cmd": "gaplang", "slope": rng.randint(1, 4),
                "offset": rng.randint(1, 9),
                "member": _bits(rng, rng.randint(0, 400)),
                "table": rng.randint(100, 400)}
    if cmd == "enumerate":
        return {"cmd": "enumerate", "family": slot[1],
                "index": rng.randrange(1 << 40), "max_len": slot[2]}
    # Machine 0 of the presentation fixes r(0); const-no there makes the
    # first interval swallow every checked word, which doubles the cost.
    first = rng.choice([r for r in PARITY_RIVALS if r != "const-no"])
    rest = [r for r in PARITY_RIVALS if r != first]
    spec = {"cmd": cmd, "a": slot[1], "bound": slot[2],
            "pres": [first] + rng.sample(rest, rng.randint(1, 3)),
            "witnesses": rng.randint(2, 3), "table": rng.randint(12, 20)}
    if slot[1] == "machine":
        spec["parity_order"] = rng.sample(range(3), 3)
        spec["parity_padding"] = rng.randint(0, 4)
    if cmd == "diagonalize":
        spec["aprime"] = rng.choice(sorted(APRIME_RIVALS))
        rivals = APRIME_RIVALS[spec["aprime"]]
        spec["aprime_pres"] = rng.sample(rivals, rng.randint(2, len(rivals)))
    return spec


def diagonal_cycle(run: SimpleNamespace) -> list[dict]:
    return [_fresh(run, lambda: _diagonal_op(run.rng, slot))
            for slot in DIAGONAL_CYCLE]


CYCLES = {"statevector": statevector_cycle, "witness": witness_cycle,
          "branches": branches_cycle, "diagonal": diagonal_cycle}


def generate(workload: str, seed: int, cycles: int) -> tuple[list[dict], list[list[dict]]]:
    """(warm-up ops, cycles of timed ops), all distinct, from the seed alone.

    The warm-up is the first op of each command in a spare cycle.
    """
    run = SimpleNamespace(rng=random.Random(f"{workload}:{seed}"), seen=set(),
                          pending={}, streams={})
    make = CYCLES[workload]
    spare = make(run)
    warmup = [spec for i, spec in enumerate(spare)
              if spec["cmd"] not in {s["cmd"] for s in spare[:i]}]
    return warmup, [make(run) for _ in range(cycles)]
