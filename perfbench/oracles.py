"""Correctness oracles, run outside every timed region.

Each check takes an op spec and the stdout the CLI printed for it and
returns None when the output is right, or a one-line reason.  Circuit
answers are recomputed in floating point with numpy; branch counts,
diagonalization reports, enumerations and gap tables are recomputed
from their closed forms.  Nothing here imports the package under test.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product

import numpy as np

C, S = 2 / 3, 1 / 3
MARGIN = 1e-6
TOLERANCE = 1e-9
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_T = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))


def final_states(n: int, gates: list[list], inputs: list[int]) -> np.ndarray:
    """Float state vectors, one column per basis input; qubit 1 is the MSB."""
    psi = np.zeros((1 << n, len(inputs)), dtype=complex)
    psi[inputs, range(len(inputs))] = 1
    psi = psi.reshape([2] * n + [len(inputs)])
    for kind, *qubits in gates:
        if kind == "H":
            q = qubits[0] - 1
            psi = np.moveaxis(np.tensordot(_H, psi, axes=([1], [q])), 0, q)
        elif kind == "T":
            one = (slice(None),) * (qubits[0] - 1) + (1,)
            psi[one] *= _T
        else:
            control, target = qubits[0] - 1, qubits[1] - 1
            on = (slice(None),) * control + (1,)
            axis = target if target < control else target - 1
            psi[on] = np.flip(psi[on], axis=axis)
    return psi.reshape(1 << n, len(inputs))


def p_acc(n: int, gates: list[list]) -> float:
    """Probability of reading 1 on qubit 1 from the all-zero input."""
    state = final_states(n, gates, [0])[:, 0]
    return float(np.sum(np.abs(state[1 << (n - 1):]) ** 2))


def witness_spectrum(n: int, m: int, gates: list[list]) -> tuple[float, float]:
    """(top eigenvalue, largest diagonal entry) of the witness-block operator.

    The witness register is the m lowest-order qubits and the workspace
    starts at zero, so basis witness y is basis input y.
    """
    accepted = final_states(n, gates, list(range(1 << m)))[1 << (n - 1):]
    q = accepted.conj().T @ accepted
    return float(np.linalg.eigvalsh(q)[-1]), float(np.max(q.diagonal().real))


@functools.cache
def _gate_table(n: int) -> tuple[dict[tuple, int], np.ndarray]:
    """The unitary of every single gate on n qubits, stacked."""
    qubits = range(1, n + 1)
    gates = ([("H", q) for q in qubits] + [("T", q) for q in qubits]
             + [("CNOT", c, t) for c in qubits for t in qubits if c != t])
    basis = list(range(1 << n))
    return ({g: i for i, g in enumerate(gates)},
            np.stack([final_states(n, [list(g)], basis) for g in gates]))


def witness_spectra(n: int, m: int, circuits: list[list[list]]):
    """witness_spectrum for many circuits of one gate count at once.

    Returns arrays of top eigenvalues and largest diagonal entries.  Each
    step multiplies every circuit's state by the matrix of its gate.
    """
    index, table = _gate_table(n)
    psi = np.broadcast_to(np.eye(1 << n, 1 << m, dtype=complex),
                          (len(circuits), 1 << n, 1 << m))
    for step in zip(*circuits):
        psi = table[[index[tuple(gate)] for gate in step]] @ psi
    accepted = psi[:, 1 << (n - 1):]
    q = accepted.conj().transpose(0, 2, 1) @ accepted
    return (np.linalg.eigvalsh(q)[:, -1],
            q.diagonal(axis1=1, axis2=2).real.max(axis=1))


def verdict(value: float) -> str | None:
    """Trichotomy at (c, s) = (2/3, 1/3); None inside the safety margin."""
    if abs(value - C) < MARGIN or abs(value - S) < MARGIN:
        return None
    if value > C:
        return "yes"
    if value < S:
        return "no"
    return "outside-promise"


def _exact_real(text: str) -> float:
    """Float value of a printed 'a + b*r + 0/1*i + 0/1*i*r' element."""
    a, b, c, d = (Fraction(part.split("*")[0]) for part in text.split(" + "))
    if c or d:
        raise ValueError(f"non-real value {text!r}")
    return float(a) + float(b) / math.sqrt(2)


def check_simulate(spec: dict, out: str) -> str | None:
    lines = out.splitlines()
    n = spec["qubits"]
    if len(lines) != 3 or not lines[1].startswith(f"qubits: {n}\t"):
        return f"unexpected simulate report {lines[1:2]!r}"
    exact = _exact_real(lines[2].removeprefix("p_acc: ").split("  (~")[0])
    expected = p_acc(n, spec["gates"])
    if abs(exact - expected) > TOLERANCE:
        return f"p_acc {exact!r} differs from float {expected!r}"
    return None


def check_decide(spec: dict, out: str) -> str | None:
    top, diag = witness_spectrum(spec["qubits"], spec["witness_qubits"],
                                 spec["gates"])
    expected = verdict(top if spec["class"] == "qma" else diag)
    if out != f"{expected}\n":
        return f"verdict {out.strip()!r}, expected {expected!r}"
    return None


def check_branches(spec: dict, out: str) -> str | None:
    total = math.prod(len(level) for level in spec["levels"])
    accepting = total // len(spec["levels"][-1]) * spec["accepting_branches"]
    rejecting = total - accepting
    expected = (f"{accepting}\t{rejecting}\t{total}\t"
                f"{Fraction(accepting, total)}\t{Fraction(rejecting, total)}")
    lines = out.splitlines()
    if len(lines) < 2 or lines[1] != expected:
        return f"branch counts {lines[1:2]!r}, expected {expected!r}"
    return None


def _words_up_to(length: int):
    for size in range(length + 1):
        for bits in product("01", repeat=size):
            yield "".join(bits)


_BUILTINS = {
    "const-yes": lambda w: "yes",
    "const-no": lambda w: "no",
    "parity": lambda w: "yes" if w.count("1") % 2 else "no",
    "len-even": lambda w: "yes" if len(w) % 2 == 0 else "no",
    "len-1-to-3": lambda w: "yes" if 1 <= len(w) <= 3 else "no",
    "ones-promise": lambda w: ("outside-promise" if w and "1" not in w
                               else "yes" if w.count("1") % 2 else "no"),
}


def _sections(out: str) -> dict[str, list[list[str]]]:
    sections: dict[str, list[list[str]]] = {}
    rows: list[list[str]] = []
    for line in out.splitlines():
        if line.startswith("## "):
            rows = sections.setdefault(line[3:], [])
        elif line:
            rows.append(line.split("\t"))
    return sections


def check_diagonal(spec: dict, out: str) -> str | None:
    """Zero violations, all witness rows, and each witness re-verified."""
    sections = _sections(out)
    checks = ["reduction-check"]
    if spec["cmd"] == "ladner":
        checks.append("reduction-to-a")
    words = 2 ** (spec["bound"] + 1) - 1
    for name in checks:
        rows = sections.get(name)
        if rows != [["checked", "violations"], [str(words), "0"]]:
            return f"section {name} reads {rows!r}"
    rows = sections.get("witnesses", [])[1:]
    w = spec["witnesses"]
    expected_keys = ([("even", str(i)) for i in range(w)]
                     + [("odd", str(i)) for i in range(w)])
    if [(row[0], row[1]) for row in rows] != expected_keys:
        return f"witness rows {[(row[0], row[1]) for row in rows]!r}"
    aprime = spec.get("aprime", "const-no")
    for side, index, _, start, end, word, a_verdict, m_verdict in rows:
        if not int(start) < len(word) < int(end):
            return f"witness {word!r} outside interval [{start}, {end})"
        if a_verdict == m_verdict:
            return f"witness {word!r} does not separate ({a_verdict})"
        problem = "parity" if side == "even" else aprime
        if a_verdict != _BUILTINS[problem](word):
            return f"witness {word!r}: a_verdict {a_verdict!r} is wrong"
        pres = spec["pres"] if side == "even" else spec.get("aprime_pres")
        if pres is not None:
            machine = pres[int(index) % len(pres)]
            if m_verdict != _BUILTINS[machine](word):
                return f"witness {word!r}: machine_verdict {m_verdict!r} is wrong"
    return None


def check_enumerate(spec: dict, out: str) -> str | None:
    lines = out.splitlines()
    if lines[:2] != [f"decider: {spec['family']}[{spec['index']}]",
                     "word\tverdict"]:
        return f"enumerate header {lines[:2]!r}"
    words = [w or "(empty)" for w in _words_up_to(spec["max_len"])]
    rows = [line.split("\t") for line in lines[2:]]
    if [row[0] for row in rows] != words:
        return "enumerate word column out of canonical order"
    if any(row[1] not in ("yes", "no") for row in rows):
        return "enumerate verdict outside {yes, no}"
    return None


def check_gaplang(spec: dict, out: str) -> str | None:
    slope, offset = spec["slope"], spec["offset"]
    length = len(spec["member"])
    expected = []
    limit, k, member = 0, 0, None
    while True:
        value = slope * limit + offset
        if member is None and value > length:
            member = "true" if k % 2 == 0 else "false"
        if limit <= spec["table"]:
            expected.append(f"{limit}\t{value}\t{'true' if k % 2 == 0 else 'false'}")
        elif member is not None:
            break
        limit, k = value, k + 1
    if out.splitlines() != [member, "start\tend\tmember"] + expected:
        return "gap language answer or table differs from the closed form"
    return None


CHECKS = {"simulate": check_simulate, "decide": check_decide,
          "branches": check_branches, "diagonalize": check_diagonal,
          "ladner": check_diagonal, "enumerate": check_enumerate,
          "gaplang": check_gaplang}


def check(spec: dict, out: str) -> str | None:
    try:
        return CHECKS[spec["cmd"]](spec, out)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
