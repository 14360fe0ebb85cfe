from fractions import Fraction
from unittest import mock

import pytest

from helpers_machines import (complete_tree_ptm, det_walk_ptm, fan_ptm,
                              fair_coin_ptm, left_walk_ptm, two_input_fan_ptm,
                              unbalanced_ptm, witness_equals_11_ptm,
                              witness_equals_one_ptm)
from promiselab import tm
from promiselab.config import Config
from promiselab.errors import (BranchFuelExhausted, CapExceeded,
                               WitnessSpaceTooLarge)
from promiselab.ptm import (PTMDesc, TRIVIAL_PTM, classify_bpp, classify_ma,
                            decode_ptm, enumerate_branches)
from promiselab.promise import Verdict
from promiselab.tm import BLANK, encode_godel

LINEAR = lambda n: n + 4


def diverging_ptm() -> PTMDesc:
    return PTMDesc(states=1, initial=0, finals=frozenset(), transitions={
        (0, sym): ((0, sym, "N"),) for sym in ("0", "1", BLANK)})


class TestEnumerateBranches:
    def test_deterministic_accept(self):
        stats = enumerate_branches(det_walk_ptm("1"), ["0110"], 10)
        assert (stats.accepting, stats.rejecting, stats.total) == (1, 0, 1)
        assert stats.p_acc == 1

    def test_fair_coin(self):
        stats = enumerate_branches(fair_coin_ptm(), ["11"], 10)
        assert stats.total == 2
        assert stats.p_acc == Fraction(1, 2)
        assert stats.p_rej == Fraction(1, 2)

    def test_three_way_two_accepting(self):
        stats = enumerate_branches(fan_ptm(2, 3), [""], 10)
        assert stats.total == 3
        assert stats.p_acc == Fraction(2, 3)

    def test_leaf_uniform_weighting_on_unbalanced_tree(self):
        # one accepting leaf at depth 1, one accepting and one rejecting
        # at depth 2: uniformly over leaves that is 2/3, not the 3/4 that
        # per-step coin weighting would give
        stats = enumerate_branches(unbalanced_ptm(), [""], 10)
        assert stats.total == 3
        assert stats.p_acc == Fraction(2, 3)
        assert stats.p_rej == Fraction(1, 3)

    @pytest.mark.parametrize("inputs", [["0a1"], ["01", "2"], ["1" + BLANK]])
    def test_non_binary_input_raises(self, inputs):
        # a blank inside an input word would read as a separator
        with pytest.raises(ValueError, match="is not 0 or 1"):
            enumerate_branches(fair_coin_ptm(), inputs, 10)

    def test_fuel_exhaustion_raises_with_path(self):
        with pytest.raises(BranchFuelExhausted):
            enumerate_branches(diverging_ptm(), ["1"], 8)

    def test_fuel_exhaustion_reject_mode(self):
        stats = enumerate_branches(diverging_ptm(), ["1"], 8,
                                   on_overrun="reject")
        assert (stats.accepting, stats.rejecting, stats.total) == (0, 1, 1)

    def test_trivial_ptm_rejects(self):
        stats = enumerate_branches(TRIVIAL_PTM, ["101"], 5)
        assert stats.p_acc == 0 and stats.p_rej == 1
        # its one step needs fuel 1
        with pytest.raises(BranchFuelExhausted) as exc:
            enumerate_branches(TRIVIAL_PTM, ["101"], 0)
        assert (exc.value.path, exc.value.fuel) == ((), 0)

    def test_trivial_ptm_checks_input_words(self):
        with pytest.raises(ValueError, match="is not 0 or 1"):
            enumerate_branches(TRIVIAL_PTM, ["a2"], 5)

    def test_fraction_sum_bounded(self):
        # a leaf emitting "10" is neither accepting nor rejecting
        m = PTMDesc(states=3, initial=0, finals=frozenset({1, 2}), transitions={
            (0, "0"): ((0, "0", "R"),),
            (0, "1"): ((0, "1", "R"),),
            (0, BLANK): ((1, "1", "N"), (2, BLANK, "N")),
        })
        stats = enumerate_branches(m, ["1"], 10)
        assert stats.total == 2
        assert stats.p_acc + stats.p_rej == Fraction(1, 2)

    def test_denominator_divides_width_power_on_balanced_machines(self):
        # all leaves of a fan sit at the same depth, so the reduced
        # denominator divides the branch width
        for accepting, total in ((1, 2), (2, 3), (3, 4), (5, 8)):
            stats = enumerate_branches(fan_ptm(accepting, total), ["10"], 10)
            denominator = stats.p_acc.denominator
            assert total % denominator == 0


def left_writer_ptm(cells: str) -> PTMDesc:
    """Deterministic PTM: write `cells` over cells -len(cells) to -1 and
    halt on the first of them."""
    k = len(cells)
    table = {(0, sym): ((1, sym, "L"),) for sym in ("0", "1", BLANK)}
    for j in range(1, k + 1):
        table.update({(j, sym): ((j + 1, cells[k - j], "L" if j < k else "N"),)
                      for sym in ("0", "1", BLANK)})
    return PTMDesc(states=k + 2, initial=0, finals=frozenset({k + 1}),
                   transitions=table)


class TestVerdictCells:
    """A leaf's output is read from its head cell rightwards up to the
    next blank, wherever the head halts."""

    @pytest.mark.parametrize("cells, x, verdict", [
        ("1", "", (1, 0)),      # "1" in cell -1, a blank in cell 0
        ("1", "0", (0, 0)),     # cell 0 holds input: output "10"
        ("0", "", (0, 1)),
        ("1_", "", (1, 0)),     # halts on cell -2, cell -1 blank
        ("0_", "0", (0, 1)),
        ("10", "", (0, 0)),
        ("11_", "1", (0, 0)),   # output "11"
        ("_", "1", (0, 0)),     # output ""
    ])
    def test_halt_left_of_cell_0(self, cells, x, verdict):
        stats = enumerate_branches(left_writer_ptm(cells), [x], 10)
        assert (stats.accepting, stats.rejecting, stats.total) == (*verdict, 1)

    @pytest.mark.parametrize("x, verdict", [("0" * 255 + "1", (1, 0)),
                                            ("1" * 255 + "0", (0, 1))])
    def test_halt_on_the_last_cell_of_a_long_input(self, x, verdict):
        m = PTMDesc(states=2, initial=0, finals=frozenset({1}), transitions={
            (0, "0"): ((0, "0", "R"),), (0, "1"): ((0, "1", "R"),),
            (0, BLANK): ((1, BLANK, "L"),)})
        stats = enumerate_branches(m, [x], 300)
        assert (stats.accepting, stats.rejecting, stats.total) == (*verdict, 1)


class TestClosedForms:
    @pytest.mark.parametrize("fan_out, depth", [
        (1, 1), (1, 9), (2, 1), (2, 12), (3, 7), (4, 6), (9, 3)])
    def test_complete_tree_has_k_to_the_d_leaves(self, fan_out, depth):
        for accepting in {0, 1, fan_out}:
            stats = enumerate_branches(
                complete_tree_ptm(fan_out, depth, accepting), ["0110"], 100)
            assert stats.total == fan_out ** depth
            assert stats.accepting == accepting * fan_out ** (depth - 1)
            assert stats.rejecting == stats.total - stats.accepting

    @pytest.mark.parametrize("total", [1, 2, 3, 5, 8])
    def test_fan_has_one_leaf_per_branch(self, total):
        for accepting in range(total + 1):
            stats = enumerate_branches(fan_ptm(accepting, total), ["101"], 10)
            assert (stats.accepting, stats.rejecting, stats.total) == \
                (accepting, total - accepting, total)


def _keep(s: int, t: int, move: str) -> dict:
    """State s goes to t, keeps the symbol it reads and moves."""
    return {(s, sym): ((t, sym, move),) for sym in ("0", "1", BLANK)}


def _write(s: int, t: int, w: str, move: str) -> dict:
    """State s goes to t, writes w whatever it reads and moves."""
    return {(s, sym): ((t, w, move),) for sym in ("0", "1", BLANK)}


class TestBranchConfigCap:
    def test_cap_counts_configuration_steps(self):
        # four steps over "0110" and one to write the answer
        m = det_walk_ptm("1")
        stats = enumerate_branches(m, ["0110"], 10,
                                   config=Config(max_branch_configs=5))
        assert stats.p_acc == 1
        with pytest.raises(CapExceeded, match="max-branch-configs"):
            enumerate_branches(m, ["0110"], 10,
                               config=Config(max_branch_configs=4))

    def test_cap_on_a_branching_walk(self):
        # one configuration steps at depth 0, three at depth 1, and nine
        # at each of the two tail steps; the nine at depth 4 are leaves
        m = complete_tree_ptm(3, 2, 1)
        assert enumerate_branches(
            m, ["1"], 10, config=Config(max_branch_configs=22)).total == 9
        with pytest.raises(CapExceeded):
            enumerate_branches(m, ["1"], 10,
                               config=Config(max_branch_configs=21))

    @pytest.mark.parametrize("out, back", [("R", "L"), ("L", "R")])
    def test_equal_configurations_merge(self, out, back):
        # both branches end with the input's cell 0 and a 1 two cells
        # away, one by restoring cell 0: the two merge before state 5,
        # which then steps once, not twice (1 + 2 * 4 + 1 steps)
        m = PTMDesc(states=7, initial=0, finals=frozenset({6}), transitions={
            **{(0, sym): ((1, "0", out), (1, "1", out))
               for sym in ("0", "1", BLANK)},
            **_keep(1, 2, out), **_write(2, 3, "1", back),
            **_keep(3, 4, back), **_write(4, 5, "0", "N"), **_keep(5, 6, "N")})
        stats = enumerate_branches(m, ["000"], 10,
                                   config=Config(max_branch_configs=10))
        assert (stats.accepting, stats.rejecting, stats.total) == (0, 0, 2)
        with pytest.raises(CapExceeded):
            enumerate_branches(m, ["000"], 10,
                               config=Config(max_branch_configs=9))

    @pytest.mark.parametrize("out, back, verdict", [("R", "L", (0, 2, 2)),
                                                   ("L", "R", (0, 0, 2))])
    def test_blank_restored_tapes_merge(self, out, back, verdict):
        # three cells out, past the input's right end or left of cell 0,
        # one branch writes a 1 there and a blank back over it, the other
        # only waits: the two merge before state 5, which then steps once,
        # not twice (1 + 2 * 4 + 1 steps)
        m = PTMDesc(states=11, initial=0, finals=frozenset({10}), transitions={
            **{(0, sym): ((1, sym, out), (6, sym, out))
               for sym in ("0", "1", BLANK)},
            **_keep(1, 2, out), **_keep(2, 3, out), **_write(3, 4, "1", "N"),
            **_write(4, 5, BLANK, back),
            **_keep(6, 7, out), **_keep(7, 8, out), **_keep(8, 9, "N"),
            **_keep(9, 5, back), **_keep(5, 10, "N")})
        stats = enumerate_branches(m, ["000"], 10,
                                   config=Config(max_branch_configs=10))
        assert (stats.accepting, stats.rejecting, stats.total) == verdict
        with pytest.raises(CapExceeded):
            enumerate_branches(m, ["000"], 10,
                               config=Config(max_branch_configs=9))

    def test_deciders_pass_the_config(self):
        config = Config(max_branch_configs=2)
        with pytest.raises(CapExceeded):
            classify_bpp(det_walk_ptm("1"), LINEAR, "0101", config=config)
        with pytest.raises(CapExceeded):
            classify_ma(witness_equals_one_ptm(), LINEAR, lambda n: 1, "01",
                        config=config)


def _ends_entries(m: PTMDesc, inputs: list[str], fuel: int) -> int:
    """How often a walk enters tm._ends, once for each lone stretch."""
    with mock.patch.object(tm, "_ends", wraps=tm._ends) as ends:
        enumerate_branches(m, inputs, fuel, "reject")
    return ends.call_count


class TestLoneStretches:
    def test_a_long_left_walk_enters_logarithmically_often(self):
        # a stretch is cut at the left end of a tape padded as far as it
        # is long; this walk covers a cell every two steps, so a stretch
        # covers half its padding and the tape grows by half: a tenfold
        # longer walk enters at most log_1.5(10) < 6 times more
        counts = [_ends_entries(left_walk_ptm(), ["01"], steps)
                  for steps in (200, 2000, 20000)]
        assert counts[0] <= 8, counts
        assert all(0 < b - a <= 6 for a, b in zip(counts, counts[1:])), counts

    def test_a_long_right_walk_enters_once(self):
        # the tape grows on the right in tm._ends itself
        assert _ends_entries(fan_ptm(1, 3), ["01" * 2048], 5000) == 1


class TestClassifyBpp:
    def test_always_accept(self):
        assert classify_bpp(det_walk_ptm("1"), LINEAR, "0101") is Verdict.YES

    def test_always_reject(self):
        assert classify_bpp(det_walk_ptm("0"), LINEAR, "0101") is Verdict.NO

    def test_fair_coin_outside(self):
        assert classify_bpp(fair_coin_ptm(), LINEAR, "11") is Verdict.OUTSIDE

    def test_boundary_third_is_no(self):
        assert classify_bpp(fan_ptm(1, 3), LINEAR, "1") is Verdict.NO

    def test_boundary_two_thirds_is_yes(self):
        assert classify_bpp(fan_ptm(2, 3), LINEAR, "1") is Verdict.YES

    def test_threshold_monotonicity(self):
        # loosening c never turns a Yes into a No
        m = fan_ptm(3, 5)
        strict = classify_bpp(m, LINEAR, "1",
                              config=Config(threshold_c=Fraction(3, 5)))
        loose = classify_bpp(m, LINEAR, "1",
                             config=Config(threshold_c=Fraction(1, 2)))
        assert strict is Verdict.YES
        assert loose is Verdict.YES

    def test_c_equals_s_half_is_no(self):
        # p = 1/2 exactly at c = s = 1/2: No is tested first, as in PP
        config = Config(threshold_c=Fraction(1, 2), threshold_s=Fraction(1, 2))
        assert classify_bpp(fair_coin_ptm(), LINEAR, "1",
                            config=config) is Verdict.NO

    def test_unreachable_states_do_not_matter(self):
        base = fan_ptm(2, 3)
        padded = PTMDesc(
            states=base.states + 2,
            initial=base.initial,
            finals=base.finals,
            transitions={
                **base.transitions,
                (base.states, "0"): ((base.states, "0", "N"),),
                (base.states, "1"): ((base.states, "1", "N"),),
                (base.states, BLANK): ((base.states, BLANK, "N"),),
                (base.states + 1, "0"): ((0, "0", "R"),),
                (base.states + 1, "1"): ((0, "1", "R"),),
                (base.states + 1, BLANK): ((0, BLANK, "R"),),
            })
        for x in ("", "0", "11", "0101"):
            assert classify_bpp(base, LINEAR, x) == classify_bpp(padded, LINEAR, x)


def fan_with_overrun_ptm() -> PTMDesc:
    """fan_ptm(1, 3) with its last leaf looping instead of halting: one
    accepting leaf, one rejecting leaf and one branch that overruns any
    fuel."""
    loop = {(3, sym): ((3, sym, "N"),) for sym in ("0", "1", BLANK)}
    return PTMDesc(states=4, initial=0, finals=frozenset({1, 2}),
                   transitions={**fan_ptm(1, 3).transitions, **loop})


class TestOverrunRejects:
    """The deciders count an overrunning branch as a rejecting leaf: the
    machine above decides as fan_ptm(1, 3) does, p_acc = 1/3, where an
    accepting overrun would give 2/3 and a dropped one 1/2."""

    @pytest.mark.parametrize("x", ["", "1", "0110"])
    def test_classify_bpp(self, x):
        with pytest.raises(BranchFuelExhausted):
            enumerate_branches(fan_with_overrun_ptm(), [x], LINEAR(len(x)))
        assert classify_bpp(fan_with_overrun_ptm(), LINEAR, x) is Verdict.NO
        assert classify_bpp(fan_ptm(1, 3), LINEAR, x) is Verdict.NO

    @pytest.mark.parametrize("x", ["", "1", "0110"])
    def test_classify_ma(self, x):
        for m in (fan_with_overrun_ptm(), fan_ptm(1, 3)):
            assert classify_ma(m, LINEAR, lambda n: 2, x) is Verdict.NO


class TestClassifyMa:
    def test_witness_one_is_yes_everywhere(self):
        m = witness_equals_one_ptm()
        for x in ("", "0", "1101"):
            assert classify_ma(m, LINEAR, lambda n: 1, x) is Verdict.YES

    def test_witness_11_is_yes(self):
        assert classify_ma(witness_equals_11_ptm(), lambda n: n + 6,
                           lambda n: 2, "10") is Verdict.YES

    def test_universal_rejection_is_no(self):
        assert classify_ma(det_walk_ptm("0"), LINEAR, lambda n: 2, "1") is Verdict.NO

    def test_half_max_witness_is_outside(self):
        coin = two_input_fan_ptm(1, 2)
        assert classify_ma(coin, lambda n: n + 6, lambda n: 1, "0") is Verdict.OUTSIDE

    def test_witness_cap(self):
        with pytest.raises(WitnessSpaceTooLarge):
            classify_ma(det_walk_ptm("0"), LINEAR, lambda n: 40, "1")

    def test_agrees_with_direct_witness_loop(self):
        # oracle: loop the witnesses by hand over the plain branch counter
        from promiselab.words import words_of_length
        m = witness_equals_11_ptm()
        x = "0"
        best = max(enumerate_branches(m, [x, y], 10).p_acc
                   for y in words_of_length(2))
        assert best == 1
        assert classify_ma(m, lambda n: n + 6, lambda n: 2, x) is Verdict.YES


class TestPtmEncoding:
    def test_roundtrip(self):
        for m in (fair_coin_ptm(), fan_ptm(2, 3), unbalanced_ptm(),
                  witness_equals_one_ptm()):
            assert decode_ptm(encode_godel(m)) == m

    def test_repeated_quintuples_merge(self):
        from promiselab.tm import encode_quintuple
        m = fair_coin_ptm()
        bits = encode_godel(m)
        # appending an exact duplicate of an existing quintuple is idempotent
        (s, sym), actions = sorted(m.transitions.items())[0]
        duplicate = encode_quintuple(s, sym, *actions[0])
        assert decode_ptm(bits + duplicate) == m

    def test_invalid_is_trivial(self):
        assert decode_ptm("0011") == TRIVIAL_PTM
