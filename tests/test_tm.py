import random

import pytest

from helpers_machines import (always_accept_machine, const_output_machine,
                              diverging_machine, identity_machine,
                              parity_machine, prepend_zero_machine)
from promiselab.ptm import PTMDesc
from promiselab.tm import (BLANK, MachineDesc, RunResult, SYMBOLS,
                           TRIVIAL_MACHINE, decode_godel, encode_godel, run)


def fig1_completed_machine() -> MachineDesc:
    """One interesting rule (state 0 reading 1 writes 0, moves right into
    the final state); the other two rules just spin in place."""
    return MachineDesc(states=2, initial=0, finals=frozenset({1}), transitions={
        (0, "1"): (1, "0", "R"),
        (0, "0"): (0, "0", "R"),
        (0, BLANK): (0, BLANK, "N"),
    })


def random_machine(rng: random.Random) -> MachineDesc:
    states = rng.randint(1, 5)
    finals = frozenset(s for s in range(states) if rng.random() < 0.4)
    transitions = {}
    for s in range(states):
        if s in finals:
            continue
        for sym in SYMBOLS:
            transitions[(s, sym)] = (rng.randrange(states),
                                     rng.choice(SYMBOLS),
                                     rng.choice(("L", "R", "N")))
    initial = rng.randrange(states)
    return MachineDesc(states, initial, finals, transitions)


class TestTrivialMachine:
    def test_empty_string_decodes_to_trivial(self):
        assert decode_godel("") is TRIVIAL_MACHINE

    def test_garbage_decodes_to_trivial(self):
        for bits in ("0000", "1", "10", "111", "0101010101"):
            assert decode_godel(bits) == TRIVIAL_MACHINE

    def test_halts_in_one_step_with_output_zero(self):
        assert run(TRIVIAL_MACHINE, ["1101"], 10) == RunResult("0", 1)
        assert run(TRIVIAL_MACHINE, [""], 5) == RunResult("0", 1)

    def test_zero_fuel(self):
        assert run(TRIVIAL_MACHINE, ["1"], 0) == RunResult(None, 0)

    def test_checks_input_words(self):
        with pytest.raises(ValueError, match="is not 0 or 1"):
            run(TRIVIAL_MACHINE, ["a2"], 5)

    def test_canonical_encoding_is_empty(self):
        assert encode_godel(TRIVIAL_MACHINE) == ""


class TestRun:
    def test_identity_machine_halts_instantly(self):
        assert run(identity_machine(), ["0110"], 5) == RunResult("0110", 0)

    def test_fig1_first_step(self):
        # on 110...1 the first step writes 0, moves right, enters the
        # final state; the output window starts right of the write
        result = run(fig1_completed_machine(), ["1101"], 100)
        assert result == RunResult("101", 1)

    def test_zero_fuel_on_non_instant_machine(self):
        assert run(parity_machine(), ["1"], 0) == RunResult(None, 0)

    def test_parity_outputs(self):
        m = parity_machine()
        assert run(m, ["101"], 100).output == "0"
        assert run(m, ["1101"], 100).output == "1"
        assert run(m, [""], 100).output == "0"

    def test_prepend_zero(self):
        assert run(prepend_zero_machine(), ["11"], 10) == RunResult("011", 2)

    def test_multiple_inputs_are_blank_separated(self):
        # identity halts on the first input; the second sits past a blank
        assert run(identity_machine(), ["10", "11"], 5).output == "10"

    def test_output_empty_when_head_on_blank(self):
        m = MachineDesc(states=2, initial=0, finals=frozenset({1}), transitions={
            (0, sym): (1, sym, "L") for sym in SYMBOLS})
        assert run(m, ["111"], 10) == RunResult("", 1)

    def test_diverging_machine_exhausts_any_fuel(self):
        for fuel in (0, 1, 17):
            assert run(diverging_machine(), ["0"], fuel) == RunResult(None, fuel)

    def test_determinism_and_monotonicity(self):
        m = parity_machine()
        base = run(m, ["1011"], 100)
        assert base.output is not None
        for fuel in (base.steps, base.steps + 1, base.steps + 50):
            assert run(m, ["1011"], fuel) == base
        # just below the halting step count the run is unfinished
        assert run(m, ["1011"], base.steps - 1) == RunResult(None, base.steps - 1)

    def test_const_output_machines(self):
        for word in ("", "0", "1", "10", "0101", "1100110"):
            m = const_output_machine(word)
            for x in ("", "1", "0110", "11111111"):
                result = run(m, [x], 200)
                assert result.output == word
                assert result.steps == len(x) + max(len(word), 1)

    def test_always_accept(self):
        result = run(always_accept_machine(), ["0011"], 10)
        assert result == RunResult("1", 5)


class TestGodelRoundtrip:
    def test_explicit_machines(self):
        for m in (parity_machine(), identity_machine(), prepend_zero_machine(),
                  always_accept_machine(), fig1_completed_machine()):
            assert decode_godel(encode_godel(m)) == m

    def test_random_roundtrip(self):
        rng = random.Random(101)
        for _ in range(150):
            m = random_machine(rng)
            assert decode_godel(encode_godel(m)) == m

    def test_injectivity_on_samples(self):
        rng = random.Random(103)
        machines = [random_machine(rng) for _ in range(120)]
        encodings = {}
        for m in machines:
            e = encode_godel(m)
            if e in encodings:
                assert encodings[e] == m
            encodings[e] = m

    def test_one_transition_string_lacks_coverage(self):
        # grammar-conforming but missing (0,'0') and (0,blank): the decoder
        # falls back to the trivial machine, which still halts in one step
        bits = ("11" "0" "1" "0" "110"  # 2 states, initial 0, final 1
                "00"
                "1" "0" "10" "0" "11" "0" "1" "0" "10" "00")  # (0,1)->(1,0,R)
        m = decode_godel(bits)
        assert m == TRIVIAL_MACHINE
        assert run(m, ["1"], 10) == RunResult("0", 1)

    def test_duplicate_transition_is_trivial(self):
        good = encode_godel(parity_machine())
        quintuple = good[good.index("00") + 2:]
        first = quintuple[:quintuple.index("00") + 2]
        assert decode_godel(good + first) == TRIVIAL_MACHINE

    def test_ascii_noise_is_trivial(self):
        assert decode_godel("10a10") == TRIVIAL_MACHINE


class TestMachineValidation:
    def test_rejects_partial_transition_table(self):
        with pytest.raises(ValueError):
            MachineDesc(states=2, initial=0, finals=frozenset({1}),
                        transitions={(0, "1"): (1, "0", "R")})

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            MachineDesc(states=1, initial=1, finals=frozenset({0}),
                        transitions={})


# A valid two-state description and one way to break each rule of the
# description check.  TMs and PTMs obey the same rules, so every case runs
# on both; a PTM gets each transition as a one-action branch set.
VALID = {"states": 2, "initial": 0, "finals": frozenset({1}), "transitions": {
    (0, "0"): (0, "0", "R"), (0, "1"): (0, "1", "R"), (0, BLANK): (1, "1", "N")}}
BROKEN = {
    "no states": {"states": 0, "finals": frozenset(), "transitions": {}},
    "initial above range": {"initial": 2},
    "negative initial": {"initial": -1},
    "final out of range": {"finals": frozenset({1, 2})},
    "source state out of range": {"add": {(2, "0"): (1, "0", "N")}},
    "negative source state": {"add": {(-1, "0"): (1, "0", "N")}},
    "target state out of range": {"add": {(0, BLANK): (2, "1", "N")}},
    "read symbol outside the alphabet": {"add": {(0, "2"): (1, "0", "N")}},
    "written symbol outside the alphabet": {"add": {(0, BLANK): (1, "2", "N")}},
    "move outside L, R, N": {"add": {(0, BLANK): (1, "1", "U")}},
    "non-final pair uncovered": {"drop": (0, BLANK)},
}


def _description(kind, change: dict):
    fields = {**VALID, **change}
    fields.pop("add", None)
    fields.pop("drop", None)
    table = {**fields["transitions"], **change.get("add", {})}
    table.pop(change.get("drop"), None)
    if kind is PTMDesc:
        table = {key: (action,) for key, action in table.items()}
    return kind(**{**fields, "transitions": table})


class TestDescriptionCheck:
    @pytest.mark.parametrize("kind", [MachineDesc, PTMDesc])
    def test_valid_description_passes(self, kind):
        # the final state's pairs need no transition
        assert _description(kind, {}).states == 2

    @pytest.mark.parametrize("kind", [MachineDesc, PTMDesc])
    @pytest.mark.parametrize("rule", sorted(BROKEN))
    def test_each_broken_rule_is_rejected(self, kind, rule):
        with pytest.raises(ValueError):
            _description(kind, BROKEN[rule])

    def test_empty_branch_set_is_rejected(self):
        table = {key: (action,) for key, action in VALID["transitions"].items()}
        table[(0, BLANK)] = ()
        with pytest.raises(ValueError):
            PTMDesc(**{**VALID, "transitions": table})

    @pytest.mark.parametrize("kind", [MachineDesc, PTMDesc])
    def test_final_state_pairs_do_not_cover_a_missing_one(self, kind):
        # the final state's own pair brings the count back to three
        change = {"add": {(1, "0"): (1, "0", "N")}, "drop": (0, "1")}
        with pytest.raises(ValueError,
                           match=r"^missing transition for \(0, '1'\)$"):
            _description(kind, change)

    @pytest.mark.parametrize("kind", [MachineDesc, PTMDesc])
    @pytest.mark.parametrize("seed", range(40))
    def test_first_missing_pair_is_named(self, kind, seed):
        # random partial tables over up to four states, final states'
        # pairs included; the message names the first uncovered pair of a
        # non-final state, by state and then symbol order
        rng = random.Random(seed)
        states = rng.randint(1, 4)
        finals = frozenset(s for s in range(states) if rng.random() < 0.3)
        table = {(s, sym): (rng.randrange(states), "1", "R")
                 for s in range(states) for sym in SYMBOLS
                 if rng.random() < 0.8}
        missing = [(s, sym) for s in range(states) if s not in finals
                   for sym in SYMBOLS if (s, sym) not in table]
        if kind is PTMDesc:
            table = {key: (action,) for key, action in table.items()}
        if not missing:
            assert kind(states, 0, finals, table).states == states
            return
        s, sym = missing[0]
        with pytest.raises(ValueError) as got:
            kind(states, 0, finals, table)
        assert str(got.value) == f"missing transition for ({s}, {sym!r})"
