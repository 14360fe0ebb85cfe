"""Per-character reference parsers for the bit-string grammars.

These are the slow, obviously-correct readers that `promiselab` used
before its decoders became compiled patterns: a cursor over the string
with one `peek()` per bit.  The property tests in
`test_oracles.py::TestParserOracle` require the pattern-based decoders
to agree with them on every input, valid or not, so they are kept here
verbatim and nowhere in the package.
"""

from __future__ import annotations

from promiselab.circuit import TRIVIAL_CIRCUIT, Circuit, Gate
from promiselab.ptm import TRIVIAL_PTM, Action, PTMDesc
from promiselab.tm import (TRIVIAL_MACHINE, MachineDesc, Transition,
                           _CODE_MOVE, _CODE_SYM)

_GATE_KINDS = {"01": "H", "10": "T", "11": "CNOT"}


class _ParseError(Exception):
    pass


class _Parser:
    def __init__(self, bits: str):
        if any(ch not in "01" for ch in bits):
            raise _ParseError("non-binary character")
        self.bits = bits
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.bits)

    def peek(self, offset: int = 0) -> str | None:
        p = self.pos + offset
        return self.bits[p] if p < len(self.bits) else None

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise _ParseError(f"expected {ch!r} at {self.pos}")
        self.pos += 1

    def read_unary(self) -> int:
        n = 0
        while self.peek() == "1":
            n += 1
            self.pos += 1
        if n == 0:
            raise _ParseError(f"expected unary run at {self.pos}")
        return n

    def read_code_mid(self) -> str:
        """A {1,10,11} code followed by "0" and then a unary run.

        The trailing context disambiguates: after "1" the separator is
        followed by "1", after "10" by "0" then "1".
        """
        if self.peek() != "1":
            raise _ParseError(f"expected code at {self.pos}")
        if self.peek(1) == "1":
            code = "11"
            self.pos += 2
        elif self.peek(2) == "1":
            code = "1"
            self.pos += 1
        elif self.peek(2) == "0" and self.peek(3) == "1":
            code = "10"
            self.pos += 2
        else:
            raise _ParseError(f"ambiguous code at {self.pos}")
        self.expect("0")
        return code

    def read_code_end(self) -> str:
        """A {1,10,11} code followed by "00" and then "1" or end of input."""
        if self.peek() != "1":
            raise _ParseError(f"expected code at {self.pos}")
        if self.peek(1) == "1":
            code = "11"
            self.pos += 2
        elif self.peek(3) in (None, "1"):
            code = "1"
            self.pos += 1
        elif self.peek(3) == "0" and self.peek(4) in (None, "1"):
            code = "10"
            self.pos += 2
        else:
            raise _ParseError(f"ambiguous code at {self.pos}")
        self.expect("0")
        self.expect("0")
        return code


def parse_godel_structure(bits: str):
    """(states, initial, finals, quintuple list); raises _ParseError."""
    p = _Parser(bits)
    states = p.read_unary()
    p.expect("0")
    initial = p.read_unary() - 1
    p.expect("0")
    finals = []
    while p.peek() == "1":
        finals.append(p.read_unary() - 1)
        p.expect("0")
    p.expect("0")
    p.expect("0")
    quintuples = []
    while not p.eof():
        s = p.read_unary() - 1
        p.expect("0")
        sym = _CODE_SYM[p.read_code_mid()]
        t = p.read_unary() - 1
        p.expect("0")
        wsym = _CODE_SYM[p.read_code_mid()]
        move = _CODE_MOVE[p.read_code_end()]
        quintuples.append((s, sym, t, wsym, move))
    if len(set(finals)) != len(finals):
        raise _ParseError("repeated final state")
    return states, initial, frozenset(finals), quintuples


def decode_godel(bits: str) -> MachineDesc:
    try:
        states, initial, finals, quintuples = parse_godel_structure(bits)
        transitions: dict[tuple[int, str], Transition] = {}
        for s, sym, t, wsym, move in quintuples:
            if (s, sym) in transitions:
                raise _ParseError("duplicate transition")
            transitions[(s, sym)] = (t, wsym, move)
        return MachineDesc(states, initial, finals, transitions)
    except (_ParseError, ValueError):
        return TRIVIAL_MACHINE


def decode_ptm(bits: str) -> PTMDesc:
    try:
        states, initial, finals, quintuples = parse_godel_structure(bits)
        table: dict[tuple[int, str], set[Action]] = {}
        for s, sym, t, wsym, move in quintuples:
            table.setdefault((s, sym), set()).add((t, wsym, move))
        transitions = {key: tuple(sorted(actions)) for key, actions in table.items()}
        return PTMDesc(states, initial, finals, transitions)
    except (_ParseError, ValueError):
        return TRIVIAL_PTM


def _parse_gate(p: _Parser) -> Gate:
    kind = _GATE_KINDS.get(p.bits[p.pos:p.pos + 2])
    if kind is None:
        raise _ParseError(f"bad opcode at {p.pos}")
    p.pos += 2
    p.expect("0")
    operand = p.read_unary()
    if kind != "CNOT":
        return Gate(kind, (operand,))
    p.expect("0")
    target = p.read_unary()
    if target == operand:
        raise _ParseError("CNOT control equals target")
    return Gate(kind, (operand, target))


def parse_circuit(bits: str, expect_witness_header: bool = False) -> Circuit:
    try:
        p = _Parser(bits)
        m = 0
        if expect_witness_header:
            m = p.read_unary()
            p.expect("0")
            p.expect("0")
        gates = [_parse_gate(p)]
        while not p.eof():
            p.expect("0")
            gates.append(_parse_gate(p))
        return Circuit(tuple(gates), witness_qubits=m)
    except _ParseError:
        return TRIVIAL_CIRCUIT


def parse_oracle_machine(bits: str) -> tuple[MachineDesc, int]:
    try:
        p = _Parser(bits)
        o = p.read_unary() - 1
        p.expect("0")
        base = decode_godel(bits[p.pos:])
        if base.trivial or not 0 <= o < base.states:
            return TRIVIAL_MACHINE, 0
        return base, o
    except _ParseError:
        return TRIVIAL_MACHINE, 0
