import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from helpers_machines import const_output_machine, diverging_machine
from helpers_values import ONE, amplitudes, fadd, to_complex
from oracle_field import abs2
from promiselab.circuit import (Circuit, Gate, TRIVIAL_CIRCUIT,
                                acceptance_operator, classify_bqp,
                                classify_qcma, classify_qma, encode_circuit,
                                p_acc, parse_circuit, simulate)
from promiselab.config import Config
from promiselab.errors import DimensionCap, GeneratorFuelExhausted
from promiselab.field import FieldElem, ZERO, real_sign
from promiselab.promise import Verdict

# the worked encoding example: H(2), T(1), CNOT(2,3), CNOT(1,3)
EXAMPLE_BITS = "01" "0" "11" "0" "10" "0" "1" "0" "11" "0" "11" "0" "111" \
               "0" "11" "0" "1" "0" "111"
EXAMPLE_GATES = (Gate("H", (2,)), Gate("T", (1,)),
                 Gate("CNOT", (2, 3)), Gate("CNOT", (1, 3)))

GENEROUS = lambda n: 40 * n + 400


# -- independent double-precision state-vector simulator ---------------------

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_MATRIX = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)


def float_simulate(circ: Circuit, basis_input: str) -> np.ndarray:
    n = circ.total_qubits
    state = np.zeros(2 ** n, dtype=complex)
    state[int(basis_input, 2)] = 1.0
    for gate in circ.gates:
        if gate.kind in ("H", "T"):
            matrix = H_MATRIX if gate.kind == "H" else T_MATRIX
            bit = 1 << (n - gate.qubits[0])
            new = state.copy()
            for i in range(2 ** n):
                if i & bit:
                    continue
                j = i | bit
                new[i] = matrix[0, 0] * state[i] + matrix[0, 1] * state[j]
                new[j] = matrix[1, 0] * state[i] + matrix[1, 1] * state[j]
            state = new
        else:
            cbit = 1 << (n - gate.qubits[0])
            tbit = 1 << (n - gate.qubits[1])
            new = state.copy()
            for i in range(2 ** n):
                if i & cbit:
                    new[i ^ tbit] = state[i]
            state = new
    return state


def float_p_acc(circ: Circuit, basis_input: str) -> float:
    state = float_simulate(circ, basis_input)
    half = 2 ** (circ.total_qubits - 1)
    return float(np.sum(np.abs(state[half:]) ** 2))


def random_circuit(rng: random.Random, max_qubits=6, max_gates=40,
                   witness_qubits=0, witness_writes=True) -> Circuit:
    n = rng.randint(max(2, witness_qubits + 1), max_qubits)
    # qubits that may be written (H or CNOT target); T is always fine
    writable = list(range(1, n + 1)) if witness_writes else \
        list(range(1, n - witness_qubits + 1))
    gates = []
    for _ in range(rng.randint(1, max_gates)):
        kind = rng.choice(("H", "T", "CNOT"))
        if kind == "CNOT":
            control = rng.randint(1, n)
            targets = [q for q in writable if q != control]
            if not targets:
                kind = "T"
            else:
                gates.append(Gate("CNOT", (control, rng.choice(targets))))
                continue
        if kind == "H":
            gates.append(Gate("H", (rng.choice(writable),)))
        else:
            gates.append(Gate("T", (rng.randint(1, n),)))
    if all(n not in g.qubits for g in gates):
        # pin the qubit count: T is diagonal, so it is safe on a witness
        gates.append(Gate("T", (n,)))
    return Circuit(tuple(gates), witness_qubits=witness_qubits)


class TestParsing:
    def test_worked_example(self):
        circ = parse_circuit(EXAMPLE_BITS)
        assert circ.gates == EXAMPLE_GATES
        assert not circ.trivial
        assert circ.total_qubits == 3

    def test_worked_example_reencodes_byte_for_byte(self):
        assert encode_circuit(parse_circuit(EXAMPLE_BITS)) == EXAMPLE_BITS

    def test_malformed_is_trivial(self):
        for bits in ("0000", "01", "010", "0101x", "00", "1", "110101"):
            assert parse_circuit(bits) == TRIVIAL_CIRCUIT

    def test_single_h_gate(self):
        assert encode_circuit(Circuit((Gate("H", (1,)),))) == "0101"
        assert parse_circuit("0101").gates == (Gate("H", (1,)),)

    def test_empty_circuit_is_trivial_with_empty_encoding(self):
        assert encode_circuit(TRIVIAL_CIRCUIT) == ""
        assert parse_circuit("") == TRIVIAL_CIRCUIT

    def test_witness_header(self):
        bits = "111" + "00" + "0101"
        circ = parse_circuit(bits, expect_witness_header=True)
        assert circ.witness_qubits == 3
        assert circ.gates == (Gate("H", (1,)),)
        assert circ.total_qubits == 3
        assert encode_circuit(circ) == bits

    def test_header_required_when_expected(self):
        assert parse_circuit("0101", expect_witness_header=True) == TRIVIAL_CIRCUIT

    def test_random_roundtrip(self):
        rng = random.Random(211)
        for _ in range(120):
            m = rng.choice((0, 0, 1, 2))
            circ = random_circuit(rng, witness_qubits=m)
            assert parse_circuit(encode_circuit(circ),
                                 expect_witness_header=m > 0) == circ

    @settings(max_examples=200)
    @given(st.builds(
        Circuit,
        st.lists(st.one_of(
            st.builds(lambda kind, q: Gate(kind, (q,)),
                      st.sampled_from(("H", "T")), st.integers(1, 6)),
            st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True)
            .map(lambda qs: Gate("CNOT", tuple(qs)))),
            min_size=1, max_size=8).map(tuple),
        st.integers(0, 3)))
    def test_roundtrip_property(self, circ):
        assert parse_circuit(encode_circuit(circ),
                             expect_witness_header=circ.witness_qubits > 0) == circ

    @settings(max_examples=300)
    @given(st.text(alphabet="01", max_size=40), st.booleans())
    def test_parser_is_total(self, bits, header):
        circ = parse_circuit(bits, expect_witness_header=header)
        if circ.trivial:
            assert circ == TRIVIAL_CIRCUIT
        else:
            assert encode_circuit(circ) == bits

    def test_encoding_longer_than_gate_count(self):
        rng = random.Random(223)
        for _ in range(50):
            circ = random_circuit(rng)
            assert len(encode_circuit(circ)) >= len(circ.gates)


class TestSimulation:
    def test_h_on_zero(self):
        state = simulate(Circuit((Gate("H", (1,)),)), "0")
        r = FieldElem(Fraction(0), Fraction(1))
        assert amplitudes(state) == (r, r)

    def test_h_squared_is_identity(self):
        circ = Circuit((Gate("H", (1,)), Gate("H", (1,))))
        state = simulate(circ, "0")
        assert amplitudes(state) == (FieldElem(Fraction(1)), ZERO)

    def test_t_preserves_zero(self):
        assert p_acc(Circuit((Gate("T", (1,)),)), "0") == ZERO

    def test_single_h_acceptance_half(self):
        assert p_acc(Circuit((Gate("H", (1,)),)), "0") == FieldElem(Fraction(1, 2))

    def test_trivial_circuit_never_accepts(self):
        assert p_acc(TRIVIAL_CIRCUIT) == ZERO

    def test_norm_preserved_exactly(self):
        rng = random.Random(227)
        for _ in range(25):
            circ = random_circuit(rng, max_qubits=4, max_gates=20)
            basis = "".join(rng.choice("01") for _ in range(circ.total_qubits))
            state = simulate(circ, basis)
            norm = ZERO
            for amp in amplitudes(state):
                norm = fadd(norm, abs2(amp))
            assert norm == FieldElem(Fraction(1))

    def test_matches_float_simulator(self):
        rng = random.Random(229)
        for _ in range(60):
            circ = random_circuit(rng, max_qubits=5, max_gates=30)
            basis = "0" * circ.total_qubits
            exact = simulate(circ, basis)
            oracle = float_simulate(circ, basis)
            for exact_amp, oracle_amp in zip(amplitudes(exact), oracle):
                assert abs(to_complex(exact_amp) - oracle_amp) < 1e-9

    def test_p_acc_in_unit_interval(self):
        rng = random.Random(233)
        for _ in range(40):
            circ = random_circuit(rng, max_qubits=4, max_gates=25)
            p = p_acc(circ, "0" * circ.total_qubits)
            assert real_sign(p) >= 0
            assert real_sign(ONE - p) >= 0


def _basis_keeping(n: int) -> Circuit:
    """H on qubit 1, then T and CNOT gates that leave qubits 2..n in
    basis states: each CNOT's control is one of them."""
    gates = [Gate("H", (1,))]
    for q in range(2, n + 1):
        gates += [Gate("T", (q,)), Gate("CNOT", (q, q % n + 1)),
                  Gate("T", (1,)), Gate("CNOT", (q, 1))]
    return Circuit(tuple(gates))


class TestLaneCount:
    def test_basis_state_qubits_hold_no_lanes(self):
        c = _basis_keeping(20)
        state = simulate(c, "0" + "10" * 9 + "1")
        assert state.lanes == (1,)
        assert all(x >> 2 * state.width == 0 for x in state.packed)
        assert p_acc(c, "0" + "10" * 9 + "1") == FieldElem(Fraction(1, 2))

    def test_hadamard_layer_holds_every_lane(self):
        n = 6
        c = Circuit(tuple(Gate("H", (q,)) for q in range(1, n + 1)))
        state = simulate(c, "0" * n)
        assert sorted(state.lanes) == list(range(1, n + 1))
        # every lane holds at least the bias, so the top one is not 0
        assert all(x.bit_length() > ((1 << n) - 1) * state.width
                   and x >> (state.width << n) == 0 for x in state.packed)

    def test_21_qubits_refused(self):
        c = _basis_keeping(21)
        with pytest.raises(DimensionCap, match=r"^21 qubits exceed cap 20$"):
            simulate(c, "0" * 21)
        with pytest.raises(DimensionCap, match=r"^21 qubits exceed cap 20$"):
            p_acc(c)


class TestQubitCap:
    # qubit 21 is one past the default cap; its 2^21 lanes would take
    # at least 2 MB per coordinate vector
    WIDE = Circuit((Gate("H", (21,)), Gate("CNOT", (1, 21))))

    def _refused_without_lanes(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCap):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_simulate_refuses_before_building_lanes(self):
        self._refused_without_lanes(lambda: simulate(self.WIDE, "0" * 21))

    def test_p_acc_refuses_before_building_lanes(self):
        self._refused_without_lanes(lambda: p_acc(self.WIDE))
        self._refused_without_lanes(lambda: p_acc(self.WIDE, "1" * 21))

    def test_cap_comes_from_config(self):
        assert Config().max_qubits == 20
        circ = Circuit((Gate("H", (3,)),))
        with pytest.raises(DimensionCap):
            simulate(circ, "000", Config(max_qubits=2))
        assert p_acc(circ, config=Config(max_qubits=3)) == ZERO


class TestAcceptanceOperator:
    def test_witness_copy_gives_diag_01(self):
        # CNOT from the witness qubit onto the output qubit
        circ = Circuit((Gate("CNOT", (2, 1)),), witness_qubits=1)
        q = acceptance_operator(circ)
        assert q.entries[0][0] == ZERO
        assert q.entries[1][1] == FieldElem(Fraction(1))
        assert q.entries[0][1] == ZERO and q.entries[1][0] == ZERO

    def test_witness_independent_circuit_is_scalar(self):
        # T on the witness qubit only dephases it, so the operator is the
        # workspace acceptance probability times the identity
        circ = Circuit((Gate("H", (1,)), Gate("T", (2,))), witness_qubits=1)
        q = acceptance_operator(circ)
        half = FieldElem(Fraction(1, 2))
        assert q.entries[0][0] == half and q.entries[1][1] == half
        assert q.entries[0][1] == ZERO and q.entries[1][0] == ZERO

    def test_random_operator_hermitian_with_unit_interval_spectrum(self):
        rng = random.Random(239)
        for _ in range(15):
            circ = random_circuit(rng, max_qubits=4, max_gates=15,
                                  witness_qubits=2)
            q = acceptance_operator(circ)
            matrix = np.array([[to_complex(e) for e in row]
                               for row in q.entries])
            assert np.allclose(matrix, matrix.conj().T)
            eigenvalues = np.linalg.eigvalsh(matrix)
            assert eigenvalues.min() > -1e-9
            assert eigenvalues.max() < 1 + 1e-9

    def test_diagonal_matches_per_witness_p_acc(self):
        rng = random.Random(241)
        circ = random_circuit(rng, max_qubits=4, max_gates=12, witness_qubits=2)
        q = acceptance_operator(circ)
        k = circ.total_qubits - 2
        for y, idx in (("00", 0), ("01", 1), ("10", 2), ("11", 3)):
            assert q.entries[idx][idx] == p_acc(circ, "0" * k + y)


def generator_for(circ: Circuit) -> "MachineDesc":
    return const_output_machine(encode_circuit(circ))


# thresholds below, inside and above [0, 1], at and between its ends
_EDGE_THRESHOLDS = [Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(1, 3),
                    Fraction(1, 2), Fraction(1), Fraction(4, 3)]


class TestClassifiers:
    def test_trivial_generator_is_no(self):
        gen = const_output_machine("")
        for x in ("", "1", "0101"):
            assert classify_bqp(gen, GENEROUS, x) is Verdict.NO

    def test_single_h_is_outside(self):
        gen = generator_for(Circuit((Gate("H", (1,)),)))
        assert classify_bqp(gen, GENEROUS, "1") is Verdict.OUTSIDE

    def test_exact_two_thirds_is_yes(self):
        # p = 2/3 exactly: thresholds are met non-strictly
        circ = Circuit((Gate("H", (1,)),))
        assert classify_bqp(generator_for(circ), GENEROUS, "",
                            config=Config(threshold_c=Fraction(1, 2))) is Verdict.YES

    def test_generator_fuel_exhaustion(self):
        with pytest.raises(GeneratorFuelExhausted):
            classify_bqp(diverging_machine(), lambda n: 8, "11")

    def test_qcma_witness_copy_is_yes(self):
        circ = Circuit((Gate("CNOT", (2, 1)),), witness_qubits=1)
        assert classify_qcma(generator_for(circ), GENEROUS, "0") is Verdict.YES

    def test_qcma_trivial_is_no(self):
        gen = const_output_machine("100")  # header only, no gates: trivial
        assert classify_qcma(gen, GENEROUS, "0") is Verdict.NO

    def test_qcma_half_is_outside(self):
        circ = Circuit((Gate("H", (1,)),), witness_qubits=1)
        assert classify_qcma(generator_for(circ), GENEROUS, "0") is Verdict.OUTSIDE

    def test_qma_witness_copy_is_yes(self):
        circ = Circuit((Gate("CNOT", (2, 1)),), witness_qubits=1)
        assert classify_qma(generator_for(circ), GENEROUS, "0") is Verdict.YES

    def test_qma_trivial_is_no(self):
        gen = const_output_machine("100")
        assert classify_qma(gen, GENEROUS, "0") is Verdict.NO

    def test_qma_scalar_half_is_outside(self):
        circ = Circuit((Gate("H", (1,)), Gate("T", (2,))), witness_qubits=1)
        assert classify_qma(generator_for(circ), GENEROUS, "0") is Verdict.OUTSIDE

    def test_c_equals_s_tests_no_first(self):
        # Q = I/2 on this circuit (the scalar-half one above), so the best
        # acceptance is exactly 1/2; at c = s = 1/2 p <= s wins, as in PP
        circ = Circuit((Gate("H", (1,)), Gate("T", (2,))), witness_qubits=1)
        gen = generator_for(circ)
        assert encode_circuit(circ) == "1000101010011"
        config = Config(threshold_c=Fraction(1, 2), threshold_s=Fraction(1, 2))
        assert {decide(gen, GENEROUS, "0", config) for decide in
                (classify_bqp, classify_qcma, classify_qma)} == {Verdict.NO}
        half = generator_for(Circuit((Gate("H", (1,)),)))
        assert classify_bqp(half, GENEROUS, "", config) is Verdict.NO

    @pytest.mark.parametrize("threshold_c, threshold_s", [
        (c, s) for c in _EDGE_THRESHOLDS for s in _EDGE_THRESHOLDS if c >= s])
    def test_trivial_circuit_accepts_with_probability_zero(self, threshold_c,
                                                           threshold_s):
        # "" parses as the trivial circuit with and without a witness
        # header; no decider treats it apart from its acceptance, 0
        config = Config(threshold_c=threshold_c, threshold_s=threshold_s)
        want = (Verdict.NO if threshold_s >= 0 else
                Verdict.YES if threshold_c <= 0 else Verdict.OUTSIDE)
        gen = const_output_machine("")
        assert [decide(gen, GENEROUS, "0", config) for decide in
                (classify_bqp, classify_qcma, classify_qma)] == [want] * 3

    def test_qma_agrees_with_float_eigenvalues(self):
        rng = random.Random(251)
        checked = 0
        while checked < 25:
            circ = random_circuit(rng, max_qubits=4, max_gates=15,
                                  witness_qubits=rng.randint(1, 2))
            q = acceptance_operator(circ)
            matrix = np.array([[to_complex(e) for e in row]
                               for row in q.entries])
            top = np.linalg.eigvalsh(matrix).max()
            if min(abs(top - 2 / 3), abs(top - 1 / 3)) < 1e-6:
                continue
            expected = (Verdict.YES if top > 2 / 3 else
                        Verdict.NO if top < 1 / 3 else Verdict.OUTSIDE)
            verdict = classify_qma(generator_for(circ), GENEROUS, "0")
            assert verdict is expected
            checked += 1

    def test_qcma_equals_qma_on_witness_diagonal_circuits(self):
        rng = random.Random(257)
        for _ in range(20):
            m = rng.randint(1, 2)
            circ = random_circuit(rng, max_qubits=4, max_gates=15,
                                  witness_qubits=m, witness_writes=False)
            gen = generator_for(circ)
            assert classify_qcma(gen, GENEROUS, "0") is \
                classify_qma(gen, GENEROUS, "0")
