"""Operation specs and the files and argv they stand for.

An op spec is a small JSON-able dict naming a CLI subcommand and the
seeded parameters of its inputs.  ``materialize`` writes the input files
an op needs into a directory and returns the argv for
``promiselab.cli.dispatch``.  The machine and circuit encoders here are
written from the grammar in the package README, not imported from the
package, so the program under test only ever sees finished input files.

This module imports nothing beyond the standard library: the measuring
process imports it, and its peak RSS must not include numpy.
"""

from __future__ import annotations

import os

_SYM = {"0": "1", "1": "10", "_": "11"}
_MOVE = {"L": "1", "R": "10", "N": "11"}
SYMBOLS = ("0", "1", "_")


def quintuple(state: int, read: str, target: int, write: str, move: str) -> str:
    return ("1" * (state + 1) + "0" + _SYM[read] + "0" + "1" * (target + 1)
            + "0" + _SYM[write] + "0" + _MOVE[move] + "00")


def machine_bits(states: int, initial: int, finals: list[int],
                 rules: list[tuple[int, str, int, str, str]]) -> str:
    """Godel encoding: unary header, then one quintuple per rule."""
    parts = ["1" * states, "0", "1" * (initial + 1), "0"]
    for f in sorted(finals):
        parts += ["1" * (f + 1), "0"]
    parts.append("00")
    parts += [quintuple(*rule) for rule in rules]
    return "".join(parts)


def circuit_bits(gates: list[list], witness_qubits: int = 0) -> str:
    """Gates are ["H", q], ["T", q] or ["CNOT", control, target], 1-based."""
    parts = ["1" * witness_qubits + "00"] if witness_qubits else []
    for i, gate in enumerate(gates):
        if i:
            parts.append("0")
        kind, *qubits = gate
        opcode = {"H": "01", "T": "10", "CNOT": "11"}[kind]
        parts.append(opcode + "0" + "0".join("1" * q for q in qubits))
    return "".join(parts)


def const_output_machine(word: str) -> str:
    """A machine that ignores its input and halts with output `word`.

    It steps left twice, so a blank separates it from the input, then
    writes `word` back to front, one state per symbol, and halts on the
    first symbol.  Only the blank-reading rules are ever used; the other
    rules of each state jump to state 0 to keep the encoding short.
    """
    n = len(word)
    final = n + 2
    rules = []
    for sym in SYMBOLS:
        rules.append((0, sym, 1, sym, "L"))
        rules.append((1, sym, 2, sym, "L"))
    for j in range(n):
        state = j + 2
        for sym in SYMBOLS:
            if sym == "_":
                rules.append((state, sym, state + 1, word[n - 1 - j],
                              "N" if j == n - 1 else "L"))
            else:
                rules.append((state, sym, 0, sym, "N"))
    return machine_bits(final + 1, 0, [final], rules)


def tree_ptm(levels: list[list[list[str]]], accepting_branches: int) -> str:
    """A probabilistic machine whose run is a complete tree.

    Level d branches on every action in levels[d] whatever it reads, so
    the tree has prod(len(level)) leaves.  At the last level the first
    `accepting_branches` actions lead to a tail that halts with output
    "1", the others to one that halts with output "0": each tail blanks
    the current cell, steps left and writes its verdict there.
    """
    depth = len(levels)
    acc, acc2, rej, rej2, final = depth, depth + 1, depth + 2, depth + 3, depth + 4
    rules = []
    for d, actions in enumerate(levels):
        for sym in SYMBOLS:
            for j, (write, move) in enumerate(actions):
                if d < depth - 1:
                    target = d + 1
                else:
                    target = acc if j < accepting_branches else rej
                rules.append((d, sym, target, write, move))
    for sym in SYMBOLS:
        rules += [(acc, sym, acc2, "_", "L"), (acc2, sym, final, "1", "N"),
                  (rej, sym, rej2, "_", "L"), (rej2, sym, final, "0", "N")]
    return machine_bits(final + 1, 0, [final], rules)


def parity_machine(order: list[int], padding: int) -> str:
    """Outputs "1" on an odd number of ones and "0" otherwise.

    `order` relabels the three working states and `padding` adds
    unreachable states, so each op gets a distinct encoding of the same
    decider.
    """
    even, odd, done = order
    rules = [(even, "0", even, "0", "R"), (even, "1", odd, "1", "R"),
             (even, "_", done, "0", "N"), (odd, "0", odd, "0", "R"),
             (odd, "1", even, "1", "R"), (odd, "_", done, "1", "N")]
    for extra in range(3, 3 + padding):
        rules += [(extra, sym, extra, sym, "N") for sym in SYMBOLS]
    return machine_bits(3 + padding, even, [done], rules)


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")
    return path


def materialize(spec: dict, directory: str) -> list[str]:
    """Write the op's input files into `directory` and return its argv."""
    cmd = spec["cmd"]
    if cmd == "simulate":
        path = _write(directory, "circuit.qc", circuit_bits(spec["gates"]))
        return ["simulate", "--circuit", path]
    if cmd == "decide":
        circuit = circuit_bits(spec["gates"], spec["witness_qubits"])
        path = _write(directory, "gen.tm", const_output_machine(circuit))
        return ["decide", spec["class"], "--gen", path, "--input", spec["input"]]
    if cmd == "branches":
        path = _write(directory, "tree.ptm",
                      tree_ptm(spec["levels"], spec["accepting_branches"]))
        return ["branches", "--machine", path, "--input", spec["input"]]
    if cmd in ("diagonalize", "ladner"):
        if spec["a"] == "machine":
            a = "machine:" + _write(directory, "parity.tm", parity_machine(
                spec["parity_order"], spec["parity_padding"]))
        else:
            a = "builtin:parity"
        pres = "builtins:" + ",".join(spec["pres"])
        common = ["--bound", str(spec["bound"]),
                  "--witnesses", str(spec["witnesses"]),
                  "--table", str(spec["table"])]
        if cmd == "ladner":
            return ["ladner", "--a", a, "--pres", pres] + common
        return (["diagonalize", "--a", a, "--a-pres", pres,
                 "--aprime", "builtin:" + spec["aprime"],
                 "--aprime-pres", "builtins:" + ",".join(spec["aprime_pres"])]
                + common)
    if cmd == "enumerate":
        return ["enumerate", spec["family"], str(spec["index"]),
                "--max-len", str(spec["max_len"])]
    if cmd == "gaplang":
        return ["gaplang", "--r", f"affine:{spec['slope']}:{spec['offset']}",
                "--member", spec["member"], "--table", str(spec["table"])]
    raise ValueError(f"unknown op command {cmd!r}")
