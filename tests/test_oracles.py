"""Exact fast paths against their slow exact oracles, bit for bit.

The integer Z[w] simulator in `promiselab.circuit` is checked against the
FieldElem simulator kept in `oracle_simulator`: amplitudes, acceptance
probabilities and the witness-block acceptance operator must be equal as
exact values, not merely close.
"""

import pytest
from hypothesis import given, settings, strategies as st

import oracle_simulator as ref
from promiselab.circuit import (Circuit, Gate, TRIVIAL_CIRCUIT,
                                acceptance_operator, p_acc, simulate)
from promiselab.field import ZERO, scaled_identity

ALL_KINDS = ("H", "T", "CNOT")


@st.composite
def circuits(draw, kinds=ALL_KINDS, witness=st.just(0)):
    n = draw(st.integers(1, 6))
    m = min(draw(witness), n)
    usable = [k for k in kinds if k != "CNOT" or n > 1]
    gates = []
    for kind in draw(st.lists(st.sampled_from(usable), max_size=12)):
        if kind == "CNOT":
            pair = draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                 unique=True))
            gates.append(Gate(kind, tuple(pair)))
        else:
            gates.append(Gate(kind, (draw(st.integers(1, n)),)))
    return Circuit(tuple(gates), witness_qubits=m)


def _basis(data, c: Circuit) -> str:
    n = c.total_qubits
    return format(data.draw(st.integers(0, (1 << n) - 1)), f"0{n}b")


def _assert_matches(c: Circuit, basis: str) -> None:
    state = simulate(c, basis)
    assert state.k == sum(g.kind == "H" for g in c.gates)
    assert state.amplitudes == ref.simulate(c, basis)
    assert p_acc(c, basis) == ref.p_acc(c, basis)


class TestSimulatorOracle:
    @pytest.mark.parametrize("kinds", [ALL_KINDS, ("H",), ("T",)])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_amplitudes_and_p_acc(self, kinds, data):
        c = data.draw(circuits(kinds, witness=st.integers(0, 3)))
        _assert_matches(c, _basis(data, c))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(circuits(witness=st.integers(1, 3)))
    def test_acceptance_operator(self, c):
        assert acceptance_operator(c) == ref.acceptance_operator(c)

    @pytest.mark.parametrize("h_count", range(6))
    def test_both_parities_of_k(self, h_count):
        gates = [Gate("T", (1,)), Gate("CNOT", (1, 2))]
        for i in range(h_count):
            gates += [Gate("H", (1 + i % 2,)), Gate("T", (2,)),
                      Gate("CNOT", (2, 1))]
        c = Circuit(tuple(gates), witness_qubits=1)
        for basis in ("00", "01", "10", "11"):
            _assert_matches(c, basis)
        assert acceptance_operator(c) == ref.acceptance_operator(c)

    def test_trivial_circuit(self):
        for basis in ("0", "1"):
            assert simulate(TRIVIAL_CIRCUIT, basis).amplitudes == \
                ref.simulate(TRIVIAL_CIRCUIT, basis)
            assert p_acc(TRIVIAL_CIRCUIT, basis) == ZERO == \
                ref.p_acc(TRIVIAL_CIRCUIT, basis)
        trivial = Circuit((), witness_qubits=2, trivial=True)
        assert acceptance_operator(trivial) == scaled_identity(4, ZERO) == \
            ref.acceptance_operator(trivial)
