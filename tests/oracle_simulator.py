"""Reference exact simulator: one FieldElem per amplitude, gate by gate.

This is the straightforward simulator over Q(1/sqrt2, i) that
`promiselab.circuit.simulate` replaces; it builds a field element for
every amplitude update, so it is slow, and it shares no arithmetic with
the integer Z[w] path except the FieldElem type.  The tests require the
two to agree bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

from oracle_field import abs2
from promiselab.circuit import Circuit, _witness_input
from promiselab.field import (ExactMatrix, FieldElem, ONE, SQRT2_INV, ZERO,
                              scaled_identity)
from promiselab.words import words_of_length

# e^(i*pi/4) = (1 + i)/sqrt(2), the phase T applies to |1>
T_PHASE = FieldElem(Fraction(0), Fraction(1), Fraction(0), Fraction(1))


def simulate(c: Circuit, basis_input: str) -> tuple[FieldElem, ...]:
    n = c.total_qubits
    assert len(basis_input) == n and set(basis_input) <= {"0", "1"}
    size = 1 << n
    amps = [ZERO] * size
    amps[int(basis_input, 2)] = ONE
    for g in c.gates:
        if g.kind == "H":
            bit = 1 << (n - g.qubits[0])
            for i in range(size):
                if i & bit:
                    continue
                j = i | bit
                u, v = amps[i], amps[j]
                amps[i] = (u + v) * SQRT2_INV
                amps[j] = (u - v) * SQRT2_INV
        elif g.kind == "T":
            bit = 1 << (n - g.qubits[0])
            for i in range(size):
                if i & bit:
                    amps[i] = amps[i] * T_PHASE
        else:
            cbit = 1 << (n - g.qubits[0])
            tbit = 1 << (n - g.qubits[1])
            for i in range(size):
                if (i & cbit) and not (i & tbit):
                    j = i | tbit
                    amps[i], amps[j] = amps[j], amps[i]
    return tuple(amps)


def p_acc(c: Circuit, basis_input: str | None = None) -> FieldElem:
    if basis_input is None:
        basis_input = "0" * c.total_qubits
    amps = simulate(c, basis_input)
    if c.trivial:
        return ZERO
    total = ZERO
    for amp in amps[len(amps) // 2:]:
        total = total + abs2(amp)
    return total


def acceptance_operator(c: Circuit) -> ExactMatrix:
    dim = 1 << c.witness_qubits
    if c.trivial:
        return scaled_identity(dim, ZERO)
    states = [simulate(c, _witness_input(c, y))[1 << (c.total_qubits - 1):]
              for y in words_of_length(c.witness_qubits)]
    rows = []
    for left in states:
        row = []
        for right in states:
            acc = ZERO
            for u, v in zip(left, right):
                acc = acc + u.conjugate() * v
            row.append(acc)
        rows.append(tuple(row))
    return ExactMatrix(tuple(rows))
