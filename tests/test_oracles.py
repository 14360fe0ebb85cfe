"""Exact fast paths against their slow exact oracles, bit for bit.

The packed-lane Z[w] simulator in `promiselab.circuit` is checked against
the FieldElem simulator kept in `oracle_simulator`: amplitudes, acceptance
probabilities and the witness-block acceptance operator must be equal as
exact values, not merely close, with an explicit example for each kind
of gate on a qubit still in a basis state.  It is also checked against
its slow twin there, the list-slice simulator of the same integer
coordinates, on circuits of up to 80 gates, and on H counts either side
of every change of lane width.  The packed witness runs are checked
against the per-witness twins there: equal operators and QCMA verdicts
for 0 to 4 witness qubits, with `max_qubits` set so that the witness
block splits into runs of every size from one witness to all of them,
and the caps raised in the same order with the same messages; the BQP
decider, which is the QCMA one without a witness register, against the
trichotomy of the FieldElem acceptance probability.  The
pattern-based
decoders of machines, PTMs, circuits and oracle-machine prefixes are
checked against the per-character parsers kept in `oracle_parser`, and
the one-match machine decoder also against the quintuple-at-a-time loop
kept in `oracle_quintuples`, on valid encodings (some with states above
100), on encodings one edit or one flipped bit away from valid, and on
arbitrary strings.  The
list-tape machine run in `promiselab.tm` and the oracle machine run in
`promiselab.promise.cook_run` are checked against the sparse dict-tape
runs kept in `oracle_tm`: equal results on random complete machines, on
a walk 5,000 cells left of cell 0, and with and without oracle queries,
a query in the initial state, in a final state and on the last unit of
fuel included, as are fuel 0 and the trivial base machine.
The depth-first length walk `promiselab.tm.walk` is checked against one
`oracle_tm` run per word: equal outputs, or None past fuel, in canonical
order, on the words alone and after a start word of up to 4 bits, and
a machine-backed decider's verdicts of a whole length against its
verdicts word by word, up to an equal error at the same word.
The merged-configuration branch counter in `promiselab.ptm` is checked
against the depth-first tree walk kept in `oracle_ptm`: equal leaf
counts, and an equal path when a branch runs out of fuel, also at the
fuel and `max-branch-configs` boundaries of a lone walk into a branch
and on a lone walk cut and resumed far left of cell 0; the BPP
decider, which is the MA one at witness length 0, against the threshold
rule written from the definition on that walk's acceptance fraction.
The memos that let one invocation compute each value once are checked
against fresh computation: the gap limits list and its per-length membership
map against the direct iteration in `test_diagonal.reference_gap_member`
(on queries in any order, and with an evaluation that breaks its
accounting checks raising every time it is needed), the memoized
witness-length map and the memoized decider against unmemoized
evaluation.  The integer square-root rendering in
`promiselab.field.decimal_string` is checked against the shrinking
1/sqrt(2) bracket kept in `oracle_decimal`.  The
fraction-free determinant `promiselab.field.det` is checked against the
`Fraction` Gaussian elimination kept in `oracle_field`: equal exact
values on general and Hermitian matrices up to dimension 8, singular
ones and ones that need a row swap included.  The Sylvester tests
`sylvester_pd` and `sylvester_psd`, which read the leading minors first,
are checked against the definitional tests kept there, which take every
leading minor and every principal minor on the oracle determinant:
equal verdicts, a vanishing leading minor and rank-deficient Gram
matrices included.  The one-walk
`promiselab.promise.karp_check` is checked against the single-pair walk
kept in `oracle_promise`, one call per pair: equal reports on random
verdict tables and word maps, and the index walks of `promiselab.words`
against the `itertools.product` walks kept there.  The harder-set
decider of `promiselab.enumeration`, which keeps its checks per word
length, is checked against the per-word walk kept in
`oracle_enumeration`: equal verdicts for a builtin or machine-backed
problem, presentations of one to three builtins, and words in a random
order, some longer than the check cap.  The `p`, `np`, `bqp`, `qcma` and
`qma` deciders of `class_presentation`, which never run the trivial
machine, are checked against the unconditional run kept there: equal
verdicts, or equal error types and messages, on every word up to length
6 and on words that are not binary, for trivial and hand-built indices,
zero fuel, an `np` witness space past its cap, and negative thresholds.
The `np` decider, one walk per word over the unread witness cells, is
checked against the per-witness loop kept there, 2^m runs: equal
verdicts or errors on random verifiers, witness lengths 0 to 8 and one
past the cap, fuel 0 to 80 and words that are not binary, with a
verifier whose output runs on into the unread witness cells.
The `p` and `promisebpp` deciders are checked against the `np` and
`promisema` deciders of the same machine and clock at witness length 0:
equal verdicts or errors on the same words, under negative thresholds
too.
The verdicts of a whole length that every presented decider gives
through `TotalDecider.verdicts` (one walk for a `p` machine, one cap
check for the trivial `p` and `np` verifier) are checked against its
verdicts word by word: equal verdicts, or an equal error after equal
verdicts, at lengths 0 to 8, for every family, on random and hand-built
indices, clocks cut one step short and witness spaces past the cap.
The one-pass argv reader `promiselab.cli._read` is checked against
argparse itself: on argv built from each subcommand's own arguments and
perturbed with abbreviated and =-joined options, bad values, "-1", "",
help flags, "--" and a leading --config, every namespace it returns is
the one `build_parser().parse_args` returns, and it reads every help
argv and every pinned usage error as None.
"""

import contextlib
import io
import random
import time
from argparse import ArgumentTypeError
from fractions import Fraction
from typing import Callable, Iterator
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle_decimal
import oracle_enumeration
import oracle_field
import oracle_parser
import oracle_promise
import oracle_ptm
import oracle_quintuples
import oracle_simulator as ref
import oracle_tm
from helpers_machines import complete_tree_ptm, const_output_machine, \
    costed_toy, fair_coin_ptm, fan_ptm, halt_at_one_machine, \
    identity_machine, last_bits_machine, left_walk_ptm, machine_reduction, \
    parity_machine, witness_equals_one_ptm
from helpers_values import ONE, amplitudes, coords, fadd, fmul, from_rows, \
    scaled_identity
from promiselab import circuit, cli, enumeration, field, ptm, tm
from promiselab.circuit import (Circuit, Gate, TRIVIAL_CIRCUIT,
                                acceptance_operator, classify_bqp,
                                classify_qcma, classify_qma, encode_circuit,
                                p_acc,
                                parse_circuit, simulate)
from promiselab.config import Config
from promiselab.diagonal import (CostedFunction, GapLimits, affine_costed,
                                 build_r_components, gap_member,
                                 time_construct_wrap)
from promiselab.enumeration import HARDER_SET_CHECK_CAP, Polynomial
from promiselab.errors import (AccountingError, BranchFuelExhausted,
                               CapExceeded, DimensionCap, FuelExhausted,
                               NonPromisedQuery, NotTotalDecider,
                               PromiseLabError,
                               WitnessSpaceTooLarge)
from promiselab.field import ZERO, FieldElem, decimal_string
from promiselab.promise import (BUILTIN_PROBLEMS, OracleMachine, TotalDecider,
                                Verdict, builtin, cook_run, karp_check)
from promiselab.words import words_of_length, words_up_to
from test_cli_golden import HELP, USAGE_ERRORS
from test_diagonal import reference_gap_member, toy_instance
from test_enumeration import clock_index, machine_index, ptm_index, \
    query_echo_index

ALL_KINDS = ("H", "T", "CNOT")


@st.composite
def circuits(draw, kinds=ALL_KINDS, witness=st.just(0), max_qubits=6,
             min_gates=0, max_gates=12):
    n = draw(st.integers(1, max_qubits))
    m = min(draw(witness), n)
    usable = [k for k in kinds if k != "CNOT" or n > 1]
    gates = []
    for kind in draw(st.lists(st.sampled_from(usable), min_size=min_gates,
                              max_size=max_gates)):
        if kind == "CNOT":
            pair = draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                 unique=True))
            gates.append(Gate(kind, tuple(pair)))
        else:
            gates.append(Gate(kind, (draw(st.integers(1, n)),)))
    return Circuit(tuple(gates), witness_qubits=m)


def _circuit(*gates: str, witness: int = 0) -> Circuit:
    """The circuit of gates written as "H 1", "T 2" or "CNOT 2 1"."""
    return Circuit(tuple(Gate(kind, tuple(map(int, qubits)))
                         for kind, *qubits in map(str.split, gates)),
                   witness_qubits=witness)


def _basis(data, c: Circuit) -> str:
    n = c.total_qubits
    return format(data.draw(st.integers(0, (1 << n) - 1)), f"0{n}b")


def _assert_matches(c: Circuit, basis: str) -> None:
    state = simulate(c, basis)
    assert state.k == sum(g.kind == "H" for g in c.gates)
    assert amplitudes(state) == ref.simulate(c, basis)
    assert p_acc(c, basis) == ref.p_acc(c, basis)


class TestSimulatorOracle:
    @pytest.mark.parametrize("kinds", [ALL_KINDS, ("H",), ("T",)])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_amplitudes_and_p_acc(self, kinds, data):
        c = data.draw(circuits(kinds, witness=st.integers(0, 3)))
        _assert_matches(c, _basis(data, c))

    # Each gate on a qubit still in a basis state (the input's bit i is
    # qubit i's) has its own branch in the simulator.
    @settings(max_examples=40)
    @given(circuits(), st.integers(0, 63))
    @example(_circuit("H 1"), 1)  # H on |1>: a negated copy
    @example(_circuit("H 1", "H 2"), 0b01)
    @example(_circuit("H 2", "CNOT 2 1"), 0b10)  # lane onto |1>
    @example(_circuit("H 1", "CNOT 1 2"), 0b01)
    @example(_circuit("H 2", "CNOT 1 2"), 0b10)  # |1> onto a lane
    @example(_circuit("H 1", "H 2", "CNOT 3 2"), 0b001)
    @example(_circuit("CNOT 2 1"), 0b01)  # |1> onto |0>
    @example(_circuit("H 3", "CNOT 2 1", "CNOT 1 3"), 0b011)
    @example(_circuit("T 1", "H 1"), 1)  # T on |1>
    @example(_circuit("H 2", "T 1", "CNOT 2 1", "T 1"), 0b10)
    @example(_circuit("H 2", "T 2"), 0b00)  # qubit 1 stays |0>
    @example(_circuit("H 2", "T 2", "CNOT 3 2"), 0b101)  # ... or |1>
    def test_basis_state_branches(self, c, y):
        n = c.total_qubits
        _assert_matches(c, format(y % (1 << n), f"0{n}b"))

    @settings(max_examples=40)
    @given(circuits(witness=st.integers(1, 3)))
    @example(_circuit("H 2", "T 2", "CNOT 2 3", witness=1))  # q1 stays |0>
    # the workspace never leaves |0>
    @example(_circuit("H 3", "T 3", "CNOT 1 3", "H 2", witness=2))
    @example(_circuit("H 4", "CNOT 1 4", "T 2", "CNOT 2 3", "H 3", witness=2))
    @example(_circuit("T 1", "CNOT 1 2", "H 2", witness=2))  # no workspace
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

    @settings(max_examples=60)
    @given(data=st.data())
    def test_lanes_against_slice_twin(self, data):
        # up to 80 gates: lanes of 8, 16, 32 and 64 bits
        gates = data.draw(st.integers(0, 80))
        c = data.draw(circuits(max_qubits=8, min_gates=gates, max_gates=gates))
        basis = _basis(data, c)
        k, twin = ref.simulate_coords(c, basis)
        state = simulate(c, basis)
        assert (state.k, coords(state)) == (k, twin)
        amps = ref.amplitudes(k, twin)
        assert amplitudes(state) == amps
        accept = ZERO
        for amp in amps[len(amps) // 2:]:
            accept = fadd(accept, oracle_field.abs2(amp))
        assert p_acc(c, basis) == accept

    @pytest.mark.parametrize("h_count, width", [
        (6, 8), (12, 8), (13, 16), (14, 16), (28, 16), (29, 32), (30, 32),
        (60, 32), (61, 64), (62, 64), (124, 64), (125, 128), (130, 128)])
    def test_lane_width_boundaries(self, h_count, width):
        gates = []
        for i in range(h_count):
            gates += [Gate("H", (1 + i % 3,)), Gate("T", (1 + (i + 1) % 3,)),
                      Gate("CNOT", (1 + i % 3, 1 + (i + 2) % 3))]
        c = Circuit(tuple(gates), witness_qubits=1)
        for basis in ("000", "011", "101"):
            state = simulate(c, basis)
            assert (state.k, state.width) == (h_count, width)
            assert amplitudes(state) == ref.simulate(c, basis)
            assert p_acc(c, basis) == ref.p_acc(c, basis)
        assert acceptance_operator(c) == ref.acceptance_operator(c)

    def test_h_to_the_64(self):
        # H^2 is 2I over sqrt2^2, so H^64|0> is 2^32|0> over sqrt2^64
        c = Circuit((Gate("H", (1,)),) * 64, witness_qubits=1)
        state = simulate(c, "0")
        assert state.width == 64
        assert coords(state) == ((1 << 32, 0), (0, 0), (0, 0), (0, 0))
        assert amplitudes(state) == ref.simulate(c, "0") == (ONE, ZERO)
        assert p_acc(c, "0") == ZERO == ref.p_acc(c, "0")
        assert acceptance_operator(c) == ref.acceptance_operator(c)

    @pytest.mark.parametrize("h_count, width", [
        (12, 8), (28, 16), (60, 32), (124, 64)])
    def test_largest_coordinate_fits_narrowest_lane(self, h_count, width):
        # the squares of all coordinates sum to 2^h, so no coordinate
        # exceeds 2^(h/2), which H^h|0> = 2^(h/2)|0> over sqrt2^h reaches
        c = Circuit((Gate("H", (1,)),) * h_count)
        state = simulate(c, "0")
        assert state.width == width
        assert coords(state) == ((1 << h_count // 2, 0),
                                 (0, 0), (0, 0), (0, 0))
        assert amplitudes(state) == ref.simulate(c, "0") == (ONE, ZERO)

    def test_every_power_of_h_is_exact(self):
        # H^h|0> reaches the largest coordinate on every lane width h gets
        for h_count in range(131):
            top = 1 << h_count // 2
            state = simulate(Circuit((Gate("H", (1,)),) * h_count), "0")
            want = (top, top) if h_count % 2 else (top, 0)
            assert coords(state)[0] == want

    def test_trivial_circuit(self):
        for basis in ("0", "1"):
            assert amplitudes(simulate(TRIVIAL_CIRCUIT, basis)) == \
                ref.simulate(TRIVIAL_CIRCUIT, basis)
            assert p_acc(TRIVIAL_CIRCUIT, basis) == ZERO == \
                ref.p_acc(TRIVIAL_CIRCUIT, basis)
        trivial = Circuit((), witness_qubits=2, trivial=True)
        assert acceptance_operator(trivial) == scaled_identity(4, ZERO) == \
            ref.acceptance_operator(trivial)


_GEN_RUNTIME = Polynomial((10 ** 6,))
# (c, s) pairs: the defaults, and thresholds at the common values 1/2, 1/4
# and 3/4 of small circuits, so that No, Yes and outside all occur
_THRESHOLDS = st.sampled_from([
    (Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(3, 4), Fraction(1, 4)), (Fraction(1), Fraction(1, 2))])
# and thresholds no probability reaches: s below 0, which rules out No,
# and c above 1, which rules out Yes
_OUT_OF_RANGE = st.sampled_from([
    (Fraction(1, 2), Fraction(-1, 4)), (Fraction(5, 4), Fraction(1, 3))])


def _chunk_configs(c: Circuit, **fields):
    """One config per packed-run size: max_qubits from n, one witness
    per run, up to n + m, the whole block in one run."""
    n = c.total_qubits
    return [Config(max_qubits=n + bits, **fields)
            for bits in range(c.witness_qubits + 1)]


class TestWitnessBlockOracle:
    @settings(max_examples=40)
    @given(circuits(witness=st.integers(1, 4), max_gates=40))
    def test_operator_at_every_chunk_size(self, c):
        # up to 40 gates: lanes of 8, 16 and 32 bits
        want = ref.acceptance_operator_per_witness(c)
        evolve = circuit._evolve
        for bits, config in enumerate(_chunk_configs(c)):
            runs = []

            def spy(c, n, basis, m, chunk):
                state = evolve(c, n, basis, m, chunk)
                runs.append((len(chunk), bits + len(state.lanes)))
                return state

            with mock.patch.object(circuit, "_evolve", spy):
                assert acceptance_operator(c, config) == want
            # 2^(m - bits) runs of 2^bits witnesses, none of them holding
            # more than 2^max_qubits lanes
            assert [blocks for blocks, _ in runs] == \
                [1 << bits] * (1 << c.witness_qubits - bits)
            assert max(size for _, size in runs) <= config.max_qubits

    @pytest.mark.parametrize("h_count, width", [(29, 32), (61, 64), (125, 128)])
    def test_wide_lanes_at_every_chunk_size(self, h_count, width):
        gates = []
        for i in range(h_count):
            gates += [Gate("H", (1 + i % 3,)), Gate("T", (1 + (i + 1) % 3,)),
                      Gate("CNOT", (1 + i % 3, 1 + (i + 2) % 3))]
        c = Circuit(tuple(gates), witness_qubits=2)
        assert simulate(c, "000").width == width
        want = ref.acceptance_operator_per_witness(c)
        for config in _chunk_configs(c):
            assert acceptance_operator(c, config) == want

    @settings(max_examples=40)
    @given(circuits(), _THRESHOLDS | _OUT_OF_RANGE)
    def test_bqp_verdicts_equal_the_definition(self, c, thresholds):
        # header-less: the QCMA runs on no witness register, against the
        # Fraction probability; no gates encode as the trivial circuit
        bits = encode_circuit(c)
        gen = const_output_machine(bits)
        threshold_c, threshold_s = thresholds
        for config in _chunk_configs(parse_circuit(bits),
                                     threshold_c=threshold_c,
                                     threshold_s=threshold_s):
            assert classify_bqp(gen, _GEN_RUNTIME, "", config) == \
                ref.classify_bqp_by_definition(gen, _GEN_RUNTIME, "", config)

    @settings(max_examples=40)
    @given(circuits(witness=st.integers(0, 4)), _THRESHOLDS)
    def test_qcma_verdicts_at_every_chunk_size(self, c, thresholds):
        # m = 0 encodes without a witness header: the trivial circuit
        gen = const_output_machine(encode_circuit(c))
        threshold_c, threshold_s = thresholds
        for config in _chunk_configs(c, threshold_c=threshold_c,
                                     threshold_s=threshold_s):
            assert classify_qcma(gen, _GEN_RUNTIME, "", config) == \
                ref.classify_qcma_per_witness(gen, _GEN_RUNTIME, "", config)

    @settings(max_examples=40)
    @given(circuits(witness=st.integers(1, 4), min_gates=1),
           _THRESHOLDS | _OUT_OF_RANGE)
    # sI - Q = 0: Q = I/2 and c = s = 1/2, where the first leading minor
    # vanishes and the semi-definiteness test reads every principal minor
    @example(_circuit("H 1", "T 3", witness=2), (Fraction(1, 2), Fraction(1, 2)))
    # Q = [[1/2, x], [conj(x), 1/2]], x = (-1 + 1/sqrt2 - i - i/sqrt2)/4,
    # has top eigenvalue 0.933, and 0.604 with the sign of the i/sqrt2
    # coordinates flipped: c = 3/4, then s = 3/4, lies between the two
    @example(_circuit("CNOT 2 1", "T 1", "H 1", "T 1", "H 1", "CNOT 1 2",
                      "T 1", "H 1", witness=1), (Fraction(3, 4), Fraction(1, 4)))
    @example(_circuit("CNOT 2 1", "T 1", "H 1", "T 1", "H 1", "CNOT 1 2",
                      "T 1", "H 1", witness=1), (Fraction(1), Fraction(3, 4)))
    def test_qma_verdicts_at_every_chunk_size(self, c, thresholds):
        gen = const_output_machine(encode_circuit(c))
        threshold_c, threshold_s = thresholds
        for config in _chunk_configs(c, threshold_c=threshold_c,
                                     threshold_s=threshold_s):
            assert classify_qma(gen, _GEN_RUNTIME, "", config) == \
                ref.classify_qma_per_witness(gen, _GEN_RUNTIME, "", config)

    def test_witness_verdicts_build_no_rationals(self):
        # a readout or a field subtraction raises here, so no verdict
        # forms a Fraction matrix or a Fraction probability per witness
        blocks = {Verdict.YES: _circuit("CNOT 2 1", witness=1),
                  Verdict.OUTSIDE: _circuit("H 1", "T 3", witness=2),
                  Verdict.NO: _circuit("H 2", "T 1", witness=1)}
        # no witness register: |1> by H T^4 H = HZH = X, |+>, and H H = I
        plain = {Verdict.YES: _circuit("H 1", *["T 1"] * 4, "H 1"),
                 Verdict.OUTSIDE: _circuit("H 1"),
                 Verdict.NO: _circuit("H 1", "H 1")}
        for fast, slow, circuits_ in (
                (classify_qma, ref.classify_qma_per_witness, blocks),
                (classify_qcma, ref.classify_qcma_per_witness, blocks),
                (classify_bqp, ref.classify_bqp_by_definition, plain)):
            gens = {verdict: const_output_machine(encode_circuit(c))
                    for verdict, c in circuits_.items()}
            assert {verdict: slow(gen, _GEN_RUNTIME, "")
                    for verdict, gen in gens.items()} == {v: v for v in gens}
            with mock.patch.object(field.FieldElem, "__sub__",
                                   side_effect=AssertionError), \
                    mock.patch.object(circuit, "_readout",
                                      side_effect=AssertionError):
                assert {verdict: fast(gen, _GEN_RUNTIME, "")
                        for verdict, gen in gens.items()} == \
                    {v: v for v in gens}

    def test_witness_cap_before_any_simulation(self):
        # three witness qubits over a cap of two, on four qubits over a
        # cap of three: the witness cap is named, and nothing is simulated
        c = Circuit((Gate("H", (4,)), Gate("CNOT", (4, 1))), witness_qubits=3)
        gen = const_output_machine(encode_circuit(c))
        config = Config(max_qubits=3, max_witness_qubits=2)
        with mock.patch.object(circuit, "_evolve", side_effect=AssertionError):
            for decide in (classify_qcma, ref.classify_qcma_per_witness):
                with pytest.raises(WitnessSpaceTooLarge,
                                   match=r"^2\^3 witnesses exceed cap 4$"):
                    decide(gen, _GEN_RUNTIME, "", config)
            for decide in (classify_qma, ref.classify_qma_per_witness):
                with pytest.raises(DimensionCap,
                                   match=r"^2\^3 exceeds cap 4$"):
                    decide(gen, _GEN_RUNTIME, "", config)
            for operator in (acceptance_operator,
                             ref.acceptance_operator_per_witness):
                with pytest.raises(DimensionCap,
                                   match=r"^2\^3 exceeds cap 4$"):
                    operator(c, config)

    def test_qubit_cap_message(self):
        c = Circuit((Gate("H", (4,)), Gate("CNOT", (4, 1))), witness_qubits=2)
        gen = const_output_machine(encode_circuit(c))
        config = Config(max_qubits=3)
        for decide in (classify_qcma, ref.classify_qcma_per_witness,
                       classify_qma, ref.classify_qma_per_witness):
            with pytest.raises(DimensionCap, match=r"^4 qubits exceed cap 3$"):
                decide(gen, _GEN_RUNTIME, "", config)
        # BQP's run on no witness register meets simulate's cap
        plain = c._replace(witness_qubits=0)
        with pytest.raises(DimensionCap, match=r"^4 qubits exceed cap 3$"):
            classify_bqp(const_output_machine(encode_circuit(plain)),
                         _GEN_RUNTIME, "", config)
        with pytest.raises(DimensionCap, match=r"^4 qubits exceed cap 3$"):
            simulate(plain, config=config)
        for operator in (acceptance_operator,
                         ref.acceptance_operator_per_witness):
            with pytest.raises(DimensionCap, match=r"^4 qubits exceed cap 3$"):
                operator(c, config)

    def test_no_witness_register(self):
        for operator in (acceptance_operator,
                         ref.acceptance_operator_per_witness):
            with pytest.raises(ValueError, match="no witness register"):
                operator(Circuit((Gate("H", (1,)),)))


def _tables(draw, states: int, finals: frozenset, branches) -> dict:
    action = st.tuples(st.integers(0, states - 1), st.sampled_from(tm.SYMBOLS),
                       st.sampled_from(tm.MOVES))
    return {(s, sym): draw(branches(action))
            for s in range(states) if s not in finals for sym in tm.SYMBOLS}


@st.composite
def machines(draw, max_states=4):
    states = draw(st.integers(1, max_states))
    finals = draw(st.frozensets(st.integers(0, states - 1)))
    return tm.MachineDesc(states, draw(st.integers(0, states - 1)), finals,
                          _tables(draw, states, finals, lambda a: a))


@st.composite
def ptms(draw, max_states=4):
    states = draw(st.integers(1, max_states))
    finals = draw(st.frozensets(st.integers(0, states - 1)))
    table = _tables(draw, states, finals,
                    lambda a: st.lists(a, min_size=1, max_size=3).map(tuple))
    return ptm.PTMDesc(states, draw(st.integers(0, states - 1)), finals, table)


# Strings in the shape of the grammar that need not be valid, so that
# repeated final states, repeated (state, symbol) pairs and CNOTs with
# control = target all occur.
_RUN = st.integers(0, 3).map(lambda n: "1" * n)


@st.composite
def godel_shaped(draw):
    """A PTM's quintuples in any order, after a header that lists its
    final states in any order, with repeats and other states added."""
    m = draw(ptms())
    finals = sorted(m.finals) + draw(st.lists(st.integers(0, m.states - 1),
                                              max_size=2))
    quintuples = [tm.encode_quintuple(s, sym, *action)
                  for (s, sym), actions in m.transitions.items()
                  for action in actions]
    return ("1" * m.states + "0" + "1" * (m.initial + 1) + "0"
            + "".join("1" * (f + 1) + "0" for f in draw(st.permutations(finals)))
            + "00" + "".join(draw(st.permutations(quintuples))))


def _padded(m, pad: int, shift_action):
    """m with pad final states placed before its own, so that every
    unary run of its quintuples is longer than pad."""
    table = {(s + pad, sym): shift_action(action, pad)
             for (s, sym), action in m.transitions.items()}
    return type(m)(m.states + pad, m.initial + pad,
                   frozenset(range(pad)) | {f + pad for f in m.finals}, table)


def _shift(action, pad):
    t, wsym, move = action
    return t + pad, wsym, move


_PADS = st.integers(101, 130)
# long unary runs: every rule's states are above 100
PADDED_MACHINES = st.builds(lambda m, pad: _padded(m, pad, _shift),
                            machines(), _PADS)
PADDED_PTMS = st.builds(
    lambda m, pad: _padded(m, pad, lambda actions, pad: tuple(
        _shift(a, pad) for a in actions)), ptms(max_states=3), _PADS)


@st.composite
def circuit_shaped(draw):
    gate = st.tuples(st.sampled_from(("01", "10", "11")),
                     st.lists(_RUN, min_size=1, max_size=2)).map(
        lambda g: g[0] + "0" + "0".join(g[1]))
    header = draw(st.sampled_from(("", "00", "100", "11100")))
    return header + "0".join(draw(st.lists(gate, min_size=1, max_size=4)))


@st.composite
def edited(draw, encodings):
    """An encoding after one flip, insert, delete or cut."""
    bits = draw(encodings)
    i = draw(st.integers(0, len(bits)))
    edit = draw(st.sampled_from(("flip", "insert", "delete", "cut")))
    if edit == "flip" and i < len(bits):
        return bits[:i] + "10"[int(bits[i])] + bits[i + 1:]
    if edit == "insert":
        return bits[:i] + draw(st.sampled_from("012\n")) + bits[i:]
    if edit == "delete":
        return bits[:i] + bits[i + 1:]
    return bits[:i]  # cut, or a flip past the end


@st.composite
def flipped(draw, encodings):
    """An encoding with exactly one of its bits flipped."""
    bits = draw(encodings.filter(bool))
    i = draw(st.integers(0, len(bits) - 1))
    return bits[:i] + "10"[int(bits[i])] + bits[i + 1:]


def _words(*encodings):
    encodings = st.one_of(*encodings)
    return st.one_of(encodings, edited(encodings), flipped(encodings),
                     st.text(alphabet="01", max_size=60),
                     st.text(alphabet="012\n", max_size=12))


GODEL_WORDS = _words(machines().map(tm.encode_godel),
                     ptms().map(tm.encode_godel), godel_shaped(),
                     PADDED_MACHINES.map(tm.encode_godel),
                     PADDED_PTMS.map(tm.encode_godel))
CIRCUIT_WORDS = _words(circuits(witness=st.integers(0, 3)).map(encode_circuit),
                       circuit_shaped())


def _outcome(parse, bits: str):
    try:
        return parse(bits)
    except (ValueError, oracle_parser._ParseError):
        return "rejected"


def _godel(states: int, initial: int, finals, quintuples) -> str:
    """The encoding of a header and quintuples, valid or not."""
    return ("1" * states + "0" + "1" * (initial + 1) + "0"
            + "".join("1" * (f + 1) + "0" for f in finals) + "00"
            + "".join(tm.encode_quintuple(*q) for q in quintuples))


# Two states, state 1 final; each case below breaks one rule that the
# grammar leaves to the decoder, but the last, whose final state carries
# a quintuple: its row is None and its rule stays in the transitions.
_RULES = [(0, "0", 0, "0", "R"), (0, "1", 0, "1", "R"),
          (0, tm.BLANK, 1, "1", "N")]
_DECODER_CHECKS = {
    "source out of range": _godel(2, 0, [1], _RULES + [(2, "0", 1, "0", "N")]),
    "target out of range": _godel(2, 0, [1], _RULES[:2]
                                  + [(0, tm.BLANK, 2, "1", "N")]),
    "initial out of range": _godel(2, 2, [1], _RULES),
    "final out of range": _godel(2, 0, [1, 2], _RULES),
    "repeated pair": _godel(2, 0, [1], _RULES + [(0, "0", 1, "0", "L")]),
    "uncovered non-final pair": _godel(2, 0, [1], _RULES[:2]),
    "final state with a quintuple": _godel(2, 0, [1],
                                           _RULES + [(1, "0", 0, "1", "L")]),
}
# A 15-gate circuit on 5 qubits, one of them a witness qubit, whose
# const_output_machine generator encodes in about 25 kbit
_LONG_CIRCUIT = _circuit("H 1", "T 1", "H 1", "T 1", "H 2", "T 1", "H 1",
                         "T 1", "H 1", "CNOT 1 2", "H 1", "T 1", "H 1", "T 1",
                         "H 5", witness=1)


def _decoded_alike(bits: str) -> bool:
    """Whether the package's decoders and the per-character ones agree on
    bits, the rows of the machines included."""
    got, want = tm.decode_godel(bits), oracle_parser.decode_godel(bits)
    return (got == want and got.rows == want.rows
            and ptm.decode_ptm(bits) == oracle_parser.decode_ptm(bits))


class TestParserOracle:
    @settings(max_examples=300)
    @given(GODEL_WORDS)
    @example(_DECODER_CHECKS["source out of range"])
    @example(_DECODER_CHECKS["target out of range"])
    @example(_DECODER_CHECKS["initial out of range"])
    @example(_DECODER_CHECKS["final out of range"])
    @example(_DECODER_CHECKS["repeated pair"])
    @example(_DECODER_CHECKS["uncovered non-final pair"])
    @example(_DECODER_CHECKS["final state with a quintuple"])
    def test_machines_and_ptms(self, bits):
        got = _outcome(tm.parse_godel_structure, bits)
        assert got == _outcome(oracle_quintuples.parse_godel_structure, bits)
        assert got == _outcome(oracle_parser.parse_godel_structure, bits)
        assert _decoded_alike(bits)

    def test_decoder_checks(self):
        decoded = {case: tm.decode_godel(bits)
                   for case, bits in _DECODER_CHECKS.items()}
        kept = decoded.pop("final state with a quintuple")
        assert all(m is tm.TRIVIAL_MACHINE for m in decoded.values())
        assert kept.rows[1] is None and (1, "0") in kept.transitions

    def test_long_body_and_its_flipped_bits(self):
        bits = tm.encode_godel(const_output_machine(encode_circuit(_LONG_CIRCUIT)))
        assert 20_000 < len(bits) < 30_000
        assert not tm.decode_godel(bits).trivial and _decoded_alike(bits)
        for i in range(tm._HEADER.match(bits).end(), len(bits), 97):
            assert _decoded_alike(bits[:i] + "10"[int(bits[i])] + bits[i + 1:])

    def test_a_scan_outside_the_grammar_stays_linear(self):
        # a split that scanned a long unary run again from each of its
        # positions would take quadratic time: minutes, not milliseconds
        bits = "1010" + "00" + "1" * 200_000
        start = time.perf_counter()
        assert tm.decode_godel(bits) is tm.TRIVIAL_MACHINE
        assert parse_circuit("11" + "0" + bits) is TRIVIAL_CIRCUIT
        assert time.perf_counter() - start < 5

    @settings(max_examples=300)
    @given(CIRCUIT_WORDS)
    @example("110101")  # CNOT 1 1
    @example("010100")  # H 1 and trailing bits
    @example("01011001")  # H 1 and T 1 with no separator
    @example("100")  # a witness header and no gates
    def test_circuits(self, bits):
        for header in (False, True):
            assert parse_circuit(bits, header) == \
                oracle_parser.parse_circuit(bits, header)

    @settings(max_examples=150)
    @given(st.sampled_from(("", "0", "10", "110", "11110")),
           GODEL_WORDS)
    def test_oracle_machines(self, prefix, bits):
        assert enumeration.parse_oracle_machine(prefix + bits) == \
            oracle_parser.parse_oracle_machine(prefix + bits)


class TestRoundTrips:
    @settings(max_examples=100)
    @given(st.one_of(machines(), PADDED_MACHINES))
    def test_machine(self, m):
        assert tm.decode_godel(tm.encode_godel(m)) == m

    @settings(max_examples=100)
    @given(st.one_of(ptms(), PADDED_PTMS))
    def test_ptm(self, m):
        assert ptm.decode_ptm(tm.encode_godel(m)) == m


_INPUTS = st.lists(st.text(alphabet="01", max_size=6), max_size=3)
# never consulted: the oracle state of the runs that use it is m.states,
# which no transition enters
_UNASKED = TotalDecider("unasked", fn=lambda w: pytest.fail(f"queried {w!r}"))


def _left_walk_machine(n: int) -> tm.MachineDesc:
    """Blanks cell 0, writes 1 and 0 in turn over the n - 1 cells to its
    left, then 1 in cell -n, and halts there after n + 1 steps."""
    table = {(i, sym): (i + 1, "01"[i % 2] if i else tm.BLANK, "L")
             for i in range(n) for sym in tm.SYMBOLS}
    table.update({(n, sym): (n + 1, "1", "N") for sym in tm.SYMBOLS})
    return tm.MachineDesc(n + 2, 0, frozenset({n + 1}), table)


def _outcomes(verdicts) -> list:
    """The verdicts up to the first NotTotalDecider, then its message."""
    got = []
    try:
        got.extend(verdicts)
    except NotTotalDecider as exc:
        got.append(str(exc))
    return got


def _chain(states: int) -> tm.MachineDesc:
    """States 0 to states - 1, the last one final; every other state keeps
    the symbol it reads, stays, and enters the next."""
    return tm.MachineDesc(states, 0, frozenset({states - 1}), {
        (i, sym): (i + 1, sym, "N")
        for i in range(states - 1) for sym in tm.SYMBOLS})


def _cook_outcome(cook_run, o: OracleMachine, oracle: TotalDecider, x: str):
    try:
        return cook_run(o, oracle, x)
    except FuelExhausted:
        return "fuel"
    except NonPromisedQuery as exc:
        return "outside", exc.word


class TestRunOracle:
    @settings(max_examples=500)
    @given(machines(max_states=6), _INPUTS, st.integers(0, 300))
    def test_random_machines(self, m, inputs, fuel):
        assert tm.run(m, inputs, fuel) == oracle_tm.run(m, inputs, fuel)

    @pytest.mark.parametrize("fuel", [0, 4999, 5000, 5001, 10000])
    def test_far_left_walk(self, fuel):
        # the list tape grows left ten times, doubling each time
        m = _left_walk_machine(5000)
        got = tm.run(m, ["0110"], fuel)
        assert got == oracle_tm.run(m, ["0110"], fuel)
        if fuel > 5000:
            assert got.steps == 5001 and got.output == "1" + "10" * 2499 + "1"

    @pytest.mark.parametrize("m", [tm.TRIVIAL_MACHINE, parity_machine()])
    @pytest.mark.parametrize("inputs", [["0a"], ["1", "_"], ["", "01", "2"]])
    def test_input_checks(self, m, inputs):
        with pytest.raises(ValueError) as want:
            oracle_tm.run(m, inputs, 5)
        with pytest.raises(ValueError) as got:
            tm.run(m, inputs, 5)
        assert str(got.value) == str(want.value)

    @settings(max_examples=300)
    @given(machines(max_states=6), st.text(alphabet="01", max_size=6),
           st.integers(0, 300))
    def test_cook_run_without_queries(self, m, x, fuel):
        o = OracleMachine(m, m.states, lambda n: fuel)
        result = tm.run(m, [x], fuel)
        if result.output is None:
            with pytest.raises(FuelExhausted):
                cook_run(o, _UNASKED, x)
        else:
            assert cook_run(o, _UNASKED, x) is (result.output == "1")

    @settings(max_examples=300)
    @given(machines(max_states=6), st.data(),
           st.text(alphabet="01", max_size=6), st.integers(0, 300),
           st.sampled_from(["parity", "ones-promise", "const-yes"]))
    def test_cook_run_with_queries(self, m, data, x, fuel, oracle):
        o = OracleMachine(m, data.draw(st.integers(0, m.states - 1)),
                          lambda n: fuel)
        assert _cook_outcome(cook_run, o, builtin(oracle), x) == \
            _cook_outcome(oracle_tm.cook_run, o, builtin(oracle), x)

    @pytest.mark.parametrize("m, oracle_state, x, fuel, oracle, outcome", [
        # state 0 is entered by no step, so "1" is never asked
        pytest.param(_chain(2), 0, "1", 5, "const-no", True,
                     id="oracle-state-initial"),
        # the run halts on the answer "1" in place of its input "0"
        pytest.param(_chain(2), 1, "0", 5, "const-yes", True,
                     id="oracle-state-final"),
        # the step into the query spends the last unit of fuel
        pytest.param(_chain(3), 2, "0", 2, "const-yes", True,
                     id="query-on-last-fuel"),
        # out of fuel before any step, so "00", outside, is never asked
        pytest.param(_chain(2), 0, "00", 0, "ones-promise", "fuel",
                     id="fuel-0"),
        pytest.param(tm.TRIVIAL_MACHINE, 0, "1", 0, "const-yes", "fuel",
                     id="trivial-fuel-0"),
        pytest.param(tm.TRIVIAL_MACHINE, 0, "1", 1, "const-yes", False,
                     id="trivial-fuel-1"),
    ])
    def test_cook_run_edge_cases(self, m, oracle_state, x, fuel, oracle,
                                 outcome):
        o = OracleMachine(m, oracle_state, lambda n: fuel)
        got = _cook_outcome(cook_run, o, builtin(oracle), x)
        assert got == _cook_outcome(oracle_tm.cook_run, o, builtin(oracle), x)
        assert got == outcome


_WALKED = [
    (parity_machine(), 8, 300),
    (parity_machine(), 6, 4),
    # halts at once: each output is the whole unread input
    (identity_machine(), 8, 0),
    # grows the tape left before it reads cell 1
    (_left_walk_machine(3), 8, 300),
    # runs out of fuel on the words with a 1 only
    (halt_at_one_machine(loop=True), 8, 300),
    # halts at its first 1, before reading the rest: outputs such as "11"
    # and "100" are no verdicts
    (halt_at_one_machine(), 8, 300),
    (const_output_machine("11"), 5, 300),
    (tm.TRIVIAL_MACHINE, 8, 1),
    (tm.TRIVIAL_MACHINE, 3, 0),
]


def _witness_echo_machine() -> tm.MachineDesc:
    """Walks right over x, steps onto the first witness cell and halts
    there: its output is the whole witness, so a run that halts after
    reading k witness cells runs on into the unread ones."""
    table = {(0, "0"): (0, "0", "R"), (0, "1"): (0, "1", "R"),
             (0, tm.BLANK): (1, tm.BLANK, "R")}
    return tm.MachineDesc(2, 0, frozenset({1}), table)


# (machine, n, fuel, start word x): walks on x and a blank, whose n cells
# after it are the second input
_WALKED_AFTER = [
    (_witness_echo_machine(), 3, 300, "01"),
    (_witness_echo_machine(), 2, 0, ""),
    (identity_machine(), 4, 300, "10"),
    (halt_at_one_machine(), 5, 300, "00"),
    (parity_machine(), 6, 300, "0110"),
    (tm.TRIVIAL_MACHINE, 3, 1, "1"),
]


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return decorate


class TestWalkOracle:
    @settings(max_examples=150)
    @given(machines(max_states=6), st.integers(0, 8), st.integers(0, 300),
           st.one_of(st.none(), st.text(alphabet="01", max_size=4)))
    @_with_examples([(*case, None) for case in _WALKED] + _WALKED_AFTER)
    def test_walk_equals_one_run_per_word(self, m, n, fuel, x):
        # without a start word, the walk runs the words of length n alone
        if x is None:
            want = [oracle_tm.run(m, [w], fuel).output
                    for w in words_of_length(n)]
            assert list(tm.walk(m, n, fuel)) == want
        else:
            want = [oracle_tm.run(m, [x, w], fuel).output
                    for w in words_of_length(n)]
            assert list(tm.walk(m, n, fuel, x + tm.BLANK)) == want

    @settings(max_examples=150)
    @given(machines(max_states=6), st.integers(0, 8), st.integers(0, 300))
    @_with_examples(_WALKED)
    def test_decider_lengths_equal_its_verdicts(self, m, n, fuel):
        decider = TotalDecider.from_machine("m", m, lambda k: fuel)
        assert _outcomes(decider.lengths(n)) == \
            _outcomes(map(decider.fn, words_of_length(n)))

    def test_negative_fuel(self):
        for start in (lambda: next(tm.walk(parity_machine(), 2, -1)),
                      lambda: tm.run(parity_machine(), ["1"], -1),
                      lambda: ptm.enumerate_branches(
                          witness_equals_one_ptm(), ["1"], -1)):
            with pytest.raises(ValueError, match="fuel must be non-negative"):
                start()


def _branch_outcome(enumerate_branches, m, inputs, fuel, on_overrun):
    try:
        return enumerate_branches(m, inputs, fuel, on_overrun)
    except BranchFuelExhausted as exc:
        return "overrun", exc.path, exc.fuel


def _assert_branches_match(m, inputs, fuel, chunks=(2, ptm._CHUNK)) -> None:
    """Both overrun modes, with chunks of two configurations (a split at
    nearly every step) and of the shipped width."""
    for on_overrun in ("raise", "reject"):
        want = _branch_outcome(oracle_ptm.enumerate_branches, m, inputs,
                               fuel, on_overrun)
        for chunk in chunks:
            with mock.patch.object(ptm, "_CHUNK", chunk):
                assert _branch_outcome(ptm.enumerate_branches, m, inputs,
                                       fuel, on_overrun) == want


# The oracle walks every tree path, so the random machines are kept to
# trees of at most this many leaves.
ORACLE_LEAVES = 1024


def _assume_small_tree(m, inputs, fuel, max_leaves=ORACLE_LEAVES) -> None:
    try:
        leaves = ptm.enumerate_branches(
            m, inputs, fuel, "reject",
            config=Config(max_branch_configs=40 * max_leaves)).total
    except CapExceeded:
        leaves = max_leaves + 1
    assume(leaves <= max_leaves)


class TestBranchOracle:
    @settings(max_examples=300)
    @given(ptms(max_states=5),
           st.lists(st.text(alphabet="01", max_size=12), max_size=3),
           st.integers(0, 40))
    def test_random_machines(self, m, inputs, fuel):
        # fuel up to 40 over inputs up to 12 bits: lone configurations
        # write past both ends of the input before the tree branches again
        _assume_small_tree(m, inputs, fuel)
        _assert_branches_match(m, inputs, fuel)

    @settings(max_examples=60)
    @given(ptms(max_states=5),
           st.lists(st.text(alphabet="01", min_size=14, max_size=40),
                    min_size=1, max_size=2),
           st.integers(0, 90))
    def test_inputs_across_int_digits(self, m, inputs, fuel):
        # at two bits a cell, cells 15 and up lie past the first 30-bit
        # digit of a CPython int, so reads and writes there cross digits
        _assume_small_tree(m, inputs, fuel, max_leaves=1000)
        _assert_branches_match(m, inputs, fuel)

    @pytest.mark.parametrize("move, back", [("R", "L"), ("L", "R")])
    def test_lone_walk_far_from_the_written_cells(self, move, back):
        # five merging branch rounds carry the head ten cells past the
        # written ones, where the lone stretch writes a 1, steps on to
        # write a blank, and steps back: each of the 32 paths accepts
        table, s = {}, 0
        for _ in range(5):
            for sym in tm.SYMBOLS:
                table[(s, sym)] = ((s + 1, sym, move), (s + 2, sym, move))
                table[(s + 1, sym)] = table[(s + 2, sym)] = \
                    ((s + 3, sym, move),)
            s += 3
        for sym in tm.SYMBOLS:
            table[(s, sym)] = ((s + 1, "1", move),)
            table[(s + 1, sym)] = ((s + 2, tm.BLANK, back),)
        m = ptm.PTMDesc(s + 3, 0, frozenset({s + 2}), table)
        assert ptm.enumerate_branches(m, ["01"], 40).accepting == 32
        _assert_branches_match(m, ["01"], 40)

    @pytest.mark.parametrize("fuel, want", [
        (8, ("overrun", (), 8)), (9, (1, 2, 3)), (10, (1, 2, 3))])
    def test_fuel_boundary_of_a_lone_walk_into_a_branch(self, fuel, want):
        # eight steps over the input, then a three-way branch on the
        # blank: the lone stretch stops there with a phantom step into a
        # clone state, which must take no fuel, so 8 overruns and 9 halts
        m, x = fan_ptm(1, 3), ["01100101"]
        got = _branch_outcome(ptm.enumerate_branches, m, x, fuel, "raise")
        assert got[:3] == want
        _assert_branches_match(m, x, fuel)

    @pytest.mark.parametrize("on_overrun", ["raise", "reject"])
    def test_cap_boundary_of_a_lone_walk_into_a_branch(self, on_overrun):
        # nor does the phantom step count as a configuration step: eight
        # steps over the input and one to branch
        m, x = fan_ptm(1, 3), ["01100101"]
        stats = ptm.enumerate_branches(m, x, 10, on_overrun,
                                       config=Config(max_branch_configs=9))
        assert (stats.accepting, stats.rejecting, stats.total) == (1, 2, 3)
        with pytest.raises(CapExceeded):
            ptm.enumerate_branches(m, x, 10, on_overrun,
                                   config=Config(max_branch_configs=8))

    def test_lone_left_walk_outruns_its_padding(self):
        # 1,000 cells left of cell 0 in 2,000 steps: the stretch is cut
        # at the left end of each padded tape and resumed on the next,
        # and a cell lost on the way would halt the walk
        m, x = left_walk_ptm(), ["01"]
        with mock.patch.object(tm, "_ends", wraps=tm._ends) as ends:
            got = _branch_outcome(ptm.enumerate_branches, m, x, 2000, "raise")
        assert got == ("overrun", (), 2000) and ends.call_count > 1
        _assert_branches_match(m, x, 2000)
        for on_overrun in ("raise", "reject"):
            with pytest.raises(CapExceeded):
                ptm.enumerate_branches(m, x, 2000, on_overrun,
                                       config=Config(max_branch_configs=1999))
        assert ptm.enumerate_branches(
            m, x, 2000, "reject", config=Config(max_branch_configs=2000)
        ).rejecting == 1

    @pytest.mark.parametrize("fuel", [0, 3, 6, 7, 8, 9])
    def test_wide_trees_split_into_chunks(self, fuel):
        # 3^6 = 729 distinct configurations at depth 6, so the shipped
        # width splits the frontier too; the tree halts at depth 8
        m = complete_tree_ptm(3, 6, 2)
        _assert_branches_match(m, ["0110"], fuel,
                               chunks=(1, 2, 7, ptm._CHUNK))

    @pytest.mark.parametrize("fan_out, depth", [(4, 5), (9, 3)])
    def test_merging_trees(self, fan_out, depth):
        _assert_branches_match(complete_tree_ptm(fan_out, depth, 1), ["1"],
                               depth + 2)

    @settings(max_examples=60)
    @given(ptms(max_states=5), st.text(alphabet="01", max_size=8),
           st.integers(0, 40), _THRESHOLDS | _OUT_OF_RANGE)
    def test_bpp_verdicts_equal_the_definition(self, m, x, fuel, thresholds):
        # classify_bpp is classify_ma at witness length 0; the rule here
        # is the definition's, on the oracle walk's fraction over [x]
        _assume_small_tree(m, [x], fuel)
        c, s = thresholds
        p = oracle_ptm.enumerate_branches(m, [x], fuel, "reject").p_acc
        want = (Verdict.NO if p <= s else Verdict.YES if p >= c
                else Verdict.OUTSIDE)
        config = Config(threshold_c=c, threshold_s=s)
        assert ptm.classify_bpp(m, lambda n: fuel, x, config=config) is want


GAP_LENGTHS = range(401)


def _assert_gaps_match(r, order: list[int]) -> None:
    """Limits-list membership, asked in the given order and then for
    every length, equals the direct iteration and the budgeted test."""
    gaps = GapLimits(r)
    for length in [*order, *GAP_LENGTHS]:
        want = reference_gap_member(r, length)
        assert gaps.member(length) == want == gap_member(r, length)
        assert gaps.member("1" * length) == want


_ORDERS = st.lists(st.sampled_from(GAP_LENGTHS), max_size=20)


class TestGapLimitsOracle:
    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 9), _ORDERS)
    def test_affine(self, slope, offset, order):
        _assert_gaps_match(affine_costed(slope, offset), order)

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8), _ORDERS)
    def test_wrapped_toys(self, table, order):
        # an arbitrary, non-monotone f; the wrap makes it admissible
        r = time_construct_wrap(
            costed_toy("table", lambda n: table[n % len(table)]))
        _assert_gaps_match(r, order)

    @settings(max_examples=10)
    @given(_ORDERS)
    def test_built_r(self, order):
        _assert_gaps_match(build_r_components(toy_instance())[2], order)


# Gap functions: affine ones, and arbitrary tables made admissible by the
# time construction.
_GAP_FUNCTIONS = st.one_of(
    st.builds(affine_costed, st.integers(1, 4), st.integers(1, 9)),
    st.lists(st.integers(0, 50), min_size=1, max_size=8).map(
        lambda table: time_construct_wrap(costed_toy(
            "table", lambda n: table[n % len(table)]))))

# Queries as bare lengths or as words; a list of them goes up, down,
# repeats and jumps across several intervals at once.
_QUERIES = st.lists(st.one_of(
    st.sampled_from(GAP_LENGTHS),
    st.text("01", max_size=12),
    st.sampled_from(GAP_LENGTHS).map(lambda n: "1" * n)), max_size=30)


def _length(query: str | int) -> int:
    return query if isinstance(query, int) else len(query)


class TestGapMembershipMapOracle:
    """The per-length membership map answers like the direct iteration on
    any order of queries, and keeps no answer for a failed evaluation."""

    @settings(max_examples=80)
    @given(_GAP_FUNCTIONS, _QUERIES)
    def test_any_query_order(self, r, queries):
        gaps = GapLimits(r)
        for query in [*queries, *reversed(queries)]:
            want = reference_gap_member(r, _length(query))
            assert gaps.member(query) == want == gaps[_length(query)]
        assert set(gaps) == {_length(query) for query in queries}

    @settings(max_examples=80)
    @given(_GAP_FUNCTIONS, st.integers(0, 6), st.booleans(), _QUERIES)
    def test_a_broken_evaluation_raises_on_every_query_that_needs_it(
            self, r, broken_from, over_cost, queries):
        # the limit evaluated after the first broken_from ones reports a
        # cost above its value, or a value not above its argument
        limits = [0]
        for _ in range(broken_from):
            limits.append(r.value(limits[-1]))
        bad = limits[-1]

        def evaluate(n: int) -> tuple[int, int]:
            if n != bad:
                return r.eval(n)
            return (n + 1, n + 2) if over_cost else (n, 0)

        gaps = GapLimits(CostedFunction("broken", evaluate))
        error = AccountingError if over_cost else ValueError
        for query in queries:
            length = _length(query)
            if length < bad:
                assert gaps.member(query) == reference_gap_member(r, length)
                continue
            for _ in range(2):
                with pytest.raises(error):
                    gaps.member(query)
            assert length not in gaps
        assert gaps.limits == limits[:len(gaps.limits)]


class TestMemoOracle:
    @settings(max_examples=40)
    @given(st.integers(0, 1 << 16),
           st.lists(st.integers(0, 24), min_size=1, max_size=40))
    def test_polyset_series(self, i, ns):
        memo = enumeration.polyset_series(i)
        for n in ns:
            assert memo.eval(n) == enumeration.polyset_series(i).eval(n)

    @settings(max_examples=15)
    @given(st.one_of(
        st.sampled_from(["parity", "len-even", "ones-promise"]).map(builtin),
        st.just(TotalDecider.from_machine("parity", parity_machine(),
                                          lambda n: n + 1)),
        st.builds(lambda j, k: enumeration.class_presentation(
                      "p", enumeration.pair(j, k)),
                  st.integers(0, 1 << 20), st.integers(0, 12))),
        st.integers(0, 1 << 32))
    def test_decider(self, raw, seed):
        memo = raw.memoized()
        words = list(words_up_to(10))
        random.Random(seed).shuffle(words)
        for w in words + words[:100]:
            assert memo.classify(w) is raw.classify(w)


_QUERY_ECHO = query_echo_index()


class TestHarderSetOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.sampled_from(sorted(BUILTIN_PROBLEMS)).map(builtin),
        st.just(TotalDecider.from_machine("parity", parity_machine(),
                                          lambda n: n + 1))),
        st.lists(st.sampled_from(sorted(BUILTIN_PROBLEMS)).map(builtin),
                 min_size=1, max_size=3),
        st.one_of(st.integers(0, 199),
                  st.integers(0, 2).map(lambda k: enumeration.pair(
                      _QUERY_ECHO, k))),
        st.lists(st.text("01", max_size=8), max_size=24),
        st.lists(st.text("01", min_size=HARDER_SET_CHECK_CAP + 1,
                         max_size=HARDER_SET_CHECK_CAP + 2), max_size=2),
        st.integers(0, 1 << 32))
    def test_kept_checks_equal_the_per_word_walk(self, a, pool, i, short,
                                                 long, seed):
        # one decider serves every word, in a random order, so later
        # words meet the checks that earlier ones kept; the short words
        # are those up to length 3 and a draw of those up to length 8
        a = a.memoized()
        pres = enumeration.builtins_presentation(pool)
        fast = enumeration.harder_set(a, pres, i)
        slow = oracle_enumeration.harder_set(a, pres, i)
        words = [*words_up_to(3), *short, *long]
        random.Random(seed).shuffle(words)
        for w in words:
            assert fast.classify(w) is slow.classify(w), w


# Series indices, built as in test_cli_golden.  Index 2^99 of the
# polynomial series is the constant 100 and index 0 the constant 0; the
# clock n gives no step on the empty word only.  Every machine index in
# _TRIVIAL_MACHINES decodes to the trivial machine.
_CLOCK = 1 << 99
_N_CLOCK = clock_index(Polynomial((0, 1)))
_TRIVIAL_MACHINES = (0, 1, 6, 1 << 20)
# np witness lengths: |x|, and min(16, 7n), which passes the witness cap
# at length 2
_WITNESS_LENGTH = enumeration.triple(machine_index(identity_machine()),
                                     _CLOCK, _CLOCK)
_WIDE = enumeration.triple(machine_index(const_output_machine("10000")),
                           _CLOCK, clock_index(Polynomial((0, 7))))
_ONE_WITNESS_QUBIT = Circuit((Gate("H", (2,)), Gate("CNOT", (2, 1))),
                             witness_qubits=1)
_HAND_BUILT = {
    "p": machine_index(parity_machine()),
    # witness_equals_one_ptm branches nowhere: a deterministic verifier
    "np": ptm_index(witness_equals_one_ptm()),
    **{fam: machine_index(const_output_machine(encode_circuit(
        _ONE_WITNESS_QUBIT))) for fam in ("bqp", "qcma", "qma")},
}
_THRESHOLDS = st.lists(st.sampled_from(
    [Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(1, 3),
     Fraction(2, 3), Fraction(1)]), min_size=2, max_size=2).map(sorted)
_NEGATIVE = [Fraction(-1), Fraction(-1, 3)]
_STRADDLING = [Fraction(-1, 3), Fraction(1, 3)]


def _verdict_or_error(decide: Callable[[str], Verdict], x: str):
    try:
        return decide(x)
    except (ValueError, PromiseLabError) as exc:
        return type(exc), str(exc)


class TestPresentedRunOracle:
    """A decider of the trivial machine answers without running it; its
    verdicts and errors are those of running it on every word."""

    @settings(max_examples=60)
    @given(st.sampled_from(sorted(_HAND_BUILT)),
           st.one_of(st.sampled_from(_TRIVIAL_MACHINES), st.just(None)),
           st.one_of(st.sampled_from([0, _N_CLOCK, _CLOCK]),
                     st.integers(0, 40)),
           st.one_of(st.sampled_from([_WITNESS_LENGTH, _WIDE]),
                     st.integers(0, 1 << 12)),
           _THRESHOLDS)
    # zero fuel; a witness space past the cap; a trivial circuit that is
    # Yes, outside the promise, or No with no step on the empty word
    @example("p", 0, 0, 0, [Fraction(1, 3), Fraction(2, 3)])
    @example("np", 0, _CLOCK, _WIDE, [Fraction(1, 3), Fraction(2, 3)])
    @example("bqp", 0, 0, 0, _NEGATIVE)
    @example("qcma", 0, _CLOCK, 0, _NEGATIVE)
    @example("qma", 0, _N_CLOCK, 0, _STRADDLING)
    def test_trivial_machine_verdicts_equal_its_runs(self, family, j, clock,
                                                     wit, thresholds):
        if j is None:
            j = _HAND_BUILT[family]
        else:
            assert enumeration.machine_series(j).trivial
        i = (enumeration.triple(j, clock, wit) if family == "np"
             else enumeration.pair(j, clock))
        config = Config(threshold_s=thresholds[0], threshold_c=thresholds[1])
        fast = enumeration.class_presentation(family, i, config).fn
        slow = oracle_enumeration.run_verdict(family, i, config)
        for x in [*words_up_to(6), "2", "0120"]:
            assert _verdict_or_error(fast, x) == _verdict_or_error(slow, x), x


class TestWitnessWalkOracle:
    """NP's one walk per word: its verdicts and errors are those of the
    per-witness loop, 2^m runs on [x, witness]."""

    @settings(max_examples=150)
    @given(machines(max_states=6),
           st.one_of(st.text(alphabet="01", max_size=4),
                     st.sampled_from(["2", "0120"])),
           st.one_of(st.integers(0, 8), st.just(13)), st.integers(0, 80))
    # a run that halts on its first witness cell: the output is the witness
    @example(_witness_echo_machine(), "01", 1, 80)
    @example(_witness_echo_machine(), "01", 2, 80)
    @example(parity_machine(), "0110", 0, 80)
    # fuel short of the first step, and of the run on every witness
    @example(parity_machine(), "1", 3, 0)
    @example(parity_machine(), "1", 3, 4)
    # the witness cap is checked before the input word
    @example(parity_machine(), "0120", 13, 80)
    def test_walk_verdict_equals_the_witness_loop(self, verifier, x, m, fuel):
        clock, wit_len = (lambda n: fuel), (lambda n: m)
        fast, _ = enumeration._np_verdict(verifier, clock, wit_len, Config())
        slow = oracle_enumeration.np_verdict(verifier, clock, wit_len)
        assert _verdict_or_error(fast, x) == _verdict_or_error(slow, x)


class TestWitnessLengthZero:
    """P is NP and BPP is MA at witness length 0: decider pair(j, k) of
    the witness-free family is decider triple(j, k, 0) of the witness
    family, whose witness length, polyset index 0, is 0 everywhere."""

    @settings(max_examples=40)
    @given(st.sampled_from([("p", "np"), ("promisebpp", "promisema")]),
           st.sampled_from([*_TRIVIAL_MACHINES, *map(ptm_index, (
               parity_machine(), fair_coin_ptm(), fan_ptm(2, 3)))]),
           st.sampled_from([0, _N_CLOCK, _CLOCK]), _THRESHOLDS)
    @example(("promisebpp", "promisema"), ptm_index(fan_ptm(2, 3)), _CLOCK,
             _NEGATIVE)
    @example(("p", "np"), ptm_index(parity_machine()), 0, _NEGATIVE)
    def test_witness_free_family_is_the_witness_one(self, families, j, clock,
                                                   thresholds):
        plain, witness = families
        config = Config(threshold_s=thresholds[0], threshold_c=thresholds[1])
        one = enumeration.class_presentation(
            plain, enumeration.pair(j, clock), config).fn
        other = enumeration.class_presentation(
            witness, enumeration.triple(j, clock, 0), config).fn
        for x in [*words_up_to(6), "2", "0120"]:
            assert _verdict_or_error(one, x) == _verdict_or_error(other, x), x


# Hand-built machine indices for every family: the trivial machine, the
# parity machine, a constant output, one that reads every cell of x and
# one whose output runs on through the unread cells of its word.
_LENGTH_MACHINES = (0, machine_index(parity_machine()),
                    machine_index(const_output_machine("1")),
                    machine_index(last_bits_machine()),
                    machine_index(identity_machine()), *_HAND_BUILT.values())


def _length_outcomes(verdicts: Callable[[], Iterator[Verdict]]) -> list:
    """The verdicts up to the first error, then its type and message."""
    got = []
    try:
        got.extend(verdicts())
    except (ValueError, PromiseLabError) as exc:
        got.append((type(exc), str(exc)))
    return got


class TestLengthVerdictsOracle:
    """A presented decider's verdicts of a whole length, one walk for a
    P machine, are its verdicts word by word: equal verdicts, or an equal
    error after equal verdicts."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(enumeration._PRESENTED)),
           st.one_of(st.sampled_from(_LENGTH_MACHINES), st.integers(0, 1 << 20)),
           st.one_of(st.sampled_from([0, _N_CLOCK, _CLOCK]),
                     st.integers(0, 40)),
           st.one_of(st.sampled_from([0, _WITNESS_LENGTH, _WIDE]),
                     st.integers(0, 1 << 12)),
           st.integers(0, 8), _THRESHOLDS)
    # one walk per length: the parity machine, a constant, every cell
    # read, an output that runs on, zero fuel and the clock n
    @example("p", _LENGTH_MACHINES[1], _CLOCK, 0, 8, _STRADDLING)
    @example("p", _LENGTH_MACHINES[2], _CLOCK, 0, 5, _STRADDLING)
    @example("p", _LENGTH_MACHINES[3], _CLOCK, 0, 8, _STRADDLING)
    @example("p", _LENGTH_MACHINES[4], _CLOCK, 0, 1, _STRADDLING)
    @example("p", _LENGTH_MACHINES[1], 0, 0, 3, _STRADDLING)
    @example("p", _LENGTH_MACHINES[4], _N_CLOCK, 0, 4, _STRADDLING)
    # the parity machine takes n + 1 steps: one short of them, and all
    @example("p", _LENGTH_MACHINES[1], _N_CLOCK, 0, 5, _STRADDLING)
    @example("p", _LENGTH_MACHINES[1], clock_index(Polynomial((1, 1))), 0, 5,
             _STRADDLING)
    # a verifier read word by word; the trivial verifier's one cap check
    # per length, under a witness length min(16, 7n) that passes the cap
    # at length 2, and under |x|
    @example("np", _LENGTH_MACHINES[3], _CLOCK, _WIDE, 1, _STRADDLING)
    @example("np", 0, _CLOCK, _WIDE, 1, _STRADDLING)
    @example("np", 0, _CLOCK, _WIDE, 3, _STRADDLING)
    @example("np", 0, _CLOCK, _WITNESS_LENGTH, 8, _STRADDLING)
    def test_length_verdicts_equal_the_word_verdicts(self, family, j, clock,
                                                     wit, n, thresholds):
        i = (enumeration.triple(j, clock, wit)
             if enumeration._PRESENTED[family][2] else enumeration.pair(j, clock))
        config = Config(threshold_s=thresholds[0], threshold_c=thresholds[1])
        decider = enumeration.class_presentation(family, i, config)
        assert _length_outcomes(lambda: decider.verdicts(n)) == \
            _length_outcomes(lambda: map(decider.fn, words_of_length(n)))


_TABLE_WORDS = list(oracle_promise.words_up_to(6))


@st.composite
def verdict_tables(draw, tag: str) -> TotalDecider:
    """A decider given by a random verdict table on the words up to length
    6, OUTSIDE included."""
    verdicts = draw(st.lists(st.sampled_from(list(Verdict)),
                             min_size=len(_TABLE_WORDS),
                             max_size=len(_TABLE_WORDS)))
    return TotalDecider(tag, fn=dict(zip(_TABLE_WORDS, verdicts)).__getitem__)


@st.composite
def word_maps(draw) -> Callable[[str], str]:
    """A reduction given by a random map of the words up to length 6 into
    themselves, or the machine-backed identity."""
    if draw(st.integers(0, 4)) == 0:
        return machine_reduction("id-machine", identity_machine(),
                                 lambda n: 1)
    images = draw(st.lists(st.sampled_from(_TABLE_WORDS),
                           min_size=len(_TABLE_WORDS),
                           max_size=len(_TABLE_WORDS)))
    return dict(zip(_TABLE_WORDS, images)).__getitem__


class TestKarpCheckOracle:
    @settings(max_examples=200)
    @given(verdict_tables("a"),
           st.lists(st.tuples(word_maps(), verdict_tables("b")),
                    min_size=1, max_size=3),
           st.integers(0, 6))
    def test_one_walk_equals_one_check_per_pair(self, a, pairs, bound):
        got = karp_check(a, pairs, bound)
        assert got == tuple(oracle_promise.karp_check(f, a, b, bound)
                            for f, b in pairs)


class TestWordsOracle:
    @pytest.mark.parametrize("n", range(13))
    def test_index_walks_equal_product_walks(self, n):
        assert list(words_of_length(n)) == \
            list(oracle_promise.words_of_length(n))
        assert list(words_up_to(n)) == list(oracle_promise.words_up_to(n))


_RATIONALS = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 40)))


class TestDecimalOracle:
    @settings(max_examples=400)
    @given(_RATIONALS, _RATIONALS, st.integers(0, 30))
    def test_rendering(self, a, b, digits):
        x = FieldElem(a, b)
        assert decimal_string(x, digits) == \
            oracle_decimal.decimal_string(x, digits)

    @pytest.mark.parametrize("a, b", [
        (0, 0), (0, 1), (0, -1), (Fraction(-1, 2), 0), (-1, 1),
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(1, 2 * 10 ** 12), 0), (Fraction(-1, 2 * 10 ** 12), 0),
        (Fraction(1, 3 ** 50), Fraction(-1, 7 ** 40))])
    def test_rendering_at_edges(self, a, b):
        x = FieldElem(Fraction(a), Fraction(b))
        assert decimal_string(x) == oracle_decimal.decimal_string(x)


# Denominators 3 and 2^k together give D = 3*2^k, as the threshold 1/3
# does for sI - Q on the QMA path.
_COEFFS = st.builds(Fraction, st.integers(-4, 4), st.one_of(
    st.sampled_from([1, 2, 3]), st.integers(2, 12).map(lambda k: 1 << k)))
_ELEMS = st.builds(FieldElem, _COEFFS, _COEFFS, _COEFFS, _COEFFS)
_ENTRIES = st.one_of(st.just(ZERO), _ELEMS, _ELEMS, _ELEMS)  # 1/4 zero


def _rows(draw, count: int, n: int) -> list[list[FieldElem]]:
    cells = draw(st.lists(_ENTRIES, min_size=count * n, max_size=count * n))
    return [cells[i:i + n] for i in range(0, count * n, n)]


def _hermitian(rows: list[list[FieldElem]]) -> list[list[FieldElem]]:
    n = len(rows)
    return [[FieldElem(rows[i][i].a, rows[i][i].b) if i == j else
             rows[i][j] if i < j else rows[j][i].conjugate()
             for j in range(n)] for i in range(n)]


@st.composite
def det_matrices(draw):
    n = draw(st.integers(1, 8))
    rows = _rows(draw, n, n)
    if draw(st.booleans()):
        rows = _hermitian(rows)
    shape = draw(st.sampled_from(
        ["plain", "repeated row", "zero column", "zero pivot"]))
    if shape == "repeated row" and n > 1:
        src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
        rows[dst] = list(rows[src])
    elif shape == "zero column":
        col = draw(st.integers(0, n - 1))
        rows = [[ZERO if j == col else x for j, x in enumerate(row)]
                for row in rows]
    elif shape == "zero pivot" and n > 1:
        rows[0][0] = ZERO  # the elimination must swap or stop at once
        rows[draw(st.integers(1, n - 1))][0] = draw(_ELEMS.filter(
            lambda x: x != ZERO))
    return from_rows(rows)


@st.composite
def hermitian_matrices(draw):
    """Random Hermitian matrices and Gram matrices of at most dim vectors
    (rank-deficient when fewer), shifted by a real multiple of I."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        rows = _hermitian(_rows(draw, n, n))
    else:
        vectors = _rows(draw, draw(st.integers(1, n)), n)
        rows = [[fadd(*(fmul(v[i], v[j].conjugate()) for v in vectors))
                 for j in range(n)] for i in range(n)]
    shift = draw(st.one_of(st.just(ZERO), st.builds(FieldElem, _COEFFS,
                                                    _COEFFS)))
    return from_rows(
        [[x - shift if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(rows)])


# A zero leading minor, then a negative non-leading one.
_DIAG_ZERO_NEG = from_rows([[ZERO, ZERO], [ZERO, FieldElem(Fraction(-1))]])
# Leading minors 1, -3, -3.
_SECOND_LEADING_NEGATIVE = from_rows(
    [[ONE, FieldElem(Fraction(2)), ZERO],
     [FieldElem(Fraction(2)), ONE, ZERO],
     [ZERO, ZERO, ONE]])
# v v^dagger for v = (1, 1/sqrt2, i): leading minors |v_1|^2, then 0.
_V = (ONE, FieldElem(b=Fraction(1)), FieldElem(c=Fraction(1)))
_RANK_ONE_GRAM = from_rows([[fmul(x, y.conjugate()) for y in _V] for x in _V])


class TestDeterminantOracle:
    @settings(max_examples=100)
    @given(det_matrices())
    def test_det(self, m):
        assert field.det(m) == oracle_field.det(m)

    @settings(max_examples=80)
    @given(hermitian_matrices())
    @example(_DIAG_ZERO_NEG)
    @example(_SECOND_LEADING_NEGATIVE)
    @example(_RANK_ONE_GRAM)
    @example(scaled_identity(3, ZERO))
    def test_sylvester_verdicts(self, m):
        want = (oracle_field.positive_definite(m),
                oracle_field.positive_semidefinite(m))
        assert (field.sylvester_pd(m), field.sylvester_psd(m)) == want


def _recorder(name: str, options: dict) -> dict:
    """The options with a type that runs the real one, so that it raises
    as the real one does, and returns (name, text): the real values
    include fresh closures, which never compare equal."""
    parse = options.get("type")
    if parse is None:
        return options

    def record(text: str) -> tuple[str, str]:
        parse(text)
        return name, text
    return {**options, "type": record}


RECORDED = {command: (handler, help_line,
                      tuple((name, _recorder(name, options))
                            for name, options in arguments))
            for command, (handler, help_line, arguments)
            in cli._SUBCOMMANDS.items()}
# valid and invalid texts for every type, choice and file name in the table
ARG_TEXTS = ("0", "1011", "", "7", "-1", "1/2", "1/0", "2,1", "x", "qma",
             "bpp", "presentable", "representable", "builtin:parity",
             "builtin:nope", "machine:m.tm", "builtins:const-yes,parity",
             "builtins:", "family:p", "family:polyfunc", "succ",
             "affine:2:2", "affine:0:1", "run")
STRAY = ("-1", "", "-h", "--help", "--", "--config", "-", "x")


def _valid_texts(options: dict) -> tuple[str, ...]:
    def valid(text: str) -> bool:
        try:
            value = options.get("type", str)(text)
        except (ArgumentTypeError, ValueError):
            return False
        return not text.startswith("-") and value in options.get("choices",
                                                                 (value,))
    return tuple(filter(valid, ARG_TEXTS))


@st.composite
def invocations(draw) -> list[str]:
    """One subcommand's own arguments in any order, each zero to two
    times (a required one mostly once), with texts mostly valid for
    their argument, then up to two perturbations."""
    command = draw(st.sampled_from([*cli._SUBCOMMANDS, "bogus"]))
    chunks = []
    for name, options in cli._SUBCOMMANDS.get(command, (0, 0, ()))[2]:
        pool = draw(st.sampled_from((_valid_texts(options),) * 9
                                    + (ARG_TEXTS,)))
        if not name.startswith("-"):
            chunks.append([draw(st.sampled_from(pool))])
            continue
        counts = [1] * 6 + [0, 2] if options.get("required") \
            else [0, 0, 1, 1, 2]
        for _ in range(draw(st.sampled_from(counts))):
            if options.get("action") == "store_true":
                chunks.append([name])
            else:
                chunks.append([name, draw(st.sampled_from(pool))])
    order = draw(st.permutations(chunks))
    argv = [command, *(arg for chunk in order for arg in chunk)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(1, len(argv)))
        kind = draw(st.sampled_from(["abbrev", "join", "insert", "drop",
                                     "repeat"]))
        if kind == "insert":
            argv.insert(at, draw(st.sampled_from(STRAY)))
        elif at < len(argv) and kind == "drop":
            del argv[at]
        elif at < len(argv) and kind == "repeat":
            argv.insert(at, argv[at])
        elif at + 1 < len(argv) and argv[at].startswith("--"):
            if kind == "abbrev":
                argv[at] = argv[at][:draw(st.integers(2, len(argv[at])))]
            else:
                argv[at:at + 2] = [f"{argv[at]}={argv[at + 1]}"]
    if draw(st.booleans()):
        argv = ["--config", draw(st.sampled_from(["lab.cfg", "run", "", "-1",
                                                  "-h"])),
                *argv]
    return argv


def _argparse(argv: list[str]):
    """build_parser().parse_args(argv), or the exit code it raises."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code


class TestArgvReaderOracle:
    @settings(max_examples=600)
    @given(invocations())
    @example(["--config", "lab.cfg", "decide", "--gen", "g", "qma",
              "--input", "0", "--c", "1/2"])
    @example(["enumerate", "p", "--max-len", "3", "5"])
    @example(["simulate", "--witness-header", "--circuit", "c", "--input", ""])
    @example(["diagonalize", "--a", "builtin:parity", "--a-pres", "family:p",
              "--aprime", "machine:m.tm", "--aprime-pres", "builtins:parity",
              "--aprime-mode", "representable"])
    def test_namespaces_match_argparse(self, argv):
        with mock.patch.object(cli, "_SUBCOMMANDS", RECORDED):
            read = cli._read(argv)
            if read is not None:
                assert _argparse(argv) == read

    @pytest.mark.parametrize("argv", [
        *([command, "--help"] if command else ["--help"] for command in HELP),
        *(argv for argv, _ in USAGE_ERRORS)])
    def test_help_and_usage_errors_are_left_to_argparse(self, argv):
        assert cli._read(argv) is None
