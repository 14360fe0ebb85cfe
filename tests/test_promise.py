import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers_machines import (always_accept_machine, diverging_machine,
                              emit_outside_machine, halt_at_one_machine,
                              identity_machine,
                              karp_to_cook, machine_reduction,
                              parity_machine, prepend_zero_machine,
                              query_echo_machine)
from promiselab.config import Config
from promiselab.errors import (CapExceeded, FuelExhausted, NonPromisedQuery,
                               NotTotalDecider, WitnessSpaceTooLarge)
from promiselab.promise import (MAX_WITNESS_SPACE, OracleMachine,
                                TotalDecider, Verdict, builtin, cook_run,
                                differences, karp_check,
                                marked_union, witness_verdict)
from promiselab import tm
from promiselab.tm import BLANK, SYMBOLS, TRIVIAL_MACHINE, MachineDesc
from promiselab.words import words_of_length, words_up_to

PARITY = builtin("parity")
CONST_YES = builtin("const-yes")
CONST_NO = builtin("const-no")


class TestClassify:
    def test_builtin_verdicts(self):
        assert CONST_NO.classify("0") is Verdict.NO
        assert CONST_NO.classify("") is Verdict.NO
        assert PARITY.classify("101") is Verdict.NO
        assert PARITY.classify("100") is Verdict.YES

    def test_machine_backed_decider(self):
        decider = TotalDecider.from_machine("parity", parity_machine(),
                                            lambda n: n + 2)
        assert decider.classify("101") is Verdict.NO
        assert decider.classify("01101") is Verdict.YES

    def test_machine_emitting_10_is_outside(self):
        decider = TotalDecider.from_machine("outside", emit_outside_machine(),
                                            lambda n: n + 3)
        assert decider.classify("") is Verdict.OUTSIDE
        assert decider.classify("11") is Verdict.OUTSIDE

    def test_bad_output_raises(self):
        decider = TotalDecider.from_machine("id", identity_machine(),
                                            lambda n: 5)
        with pytest.raises(NotTotalDecider):
            decider.classify("11")

    def test_non_halting_raises_instead_of_looping(self):
        decider = TotalDecider.from_machine("loop", diverging_machine(),
                                            lambda n: 100)
        with pytest.raises(NotTotalDecider):
            decider.classify("0")

    def test_memoized_classifies_each_word_once(self):
        seen = []
        decider = TotalDecider("parity", fn=lambda x: seen.append(x) or
                               PARITY.classify(x)).memoized()
        for x in ("1", "10", "1", "", "10", "1"):
            assert decider.classify(x) is PARITY.classify(x)
        assert seen == ["1", "10", ""]
        assert decider.tag == "parity"

    def test_memoized_machine_decider_runs_each_word_once(self, monkeypatch):
        # words asked one at a time run once each; a walked length fills
        # the memo, so its words need no run afterwards
        runs, run = Counter(), tm.run

        def counted(m, inputs, fuel):
            runs[inputs[0]] += 1
            return run(m, inputs, fuel)

        monkeypatch.setattr(tm, "run", counted)
        decider = TotalDecider.from_machine("parity", parity_machine(),
                                            lambda n: n + 2).memoized()
        for x in ("1", "10", "1", "", "10"):
            assert decider.classify(x) is PARITY.classify(x)
        assert list(decider.lengths(3)) == list(map(PARITY.fn,
                                                    words_of_length(3)))
        for x in words_of_length(3):
            assert decider.classify(x) is PARITY.classify(x)
        assert runs == Counter({"1": 1, "10": 1, "": 1})

    def test_memoized_does_not_remember_errors(self):
        fuel = [1]
        decider = TotalDecider.from_machine(
            "parity", parity_machine(), lambda n: fuel[0]).memoized()
        with pytest.raises(NotTotalDecider):
            decider.classify("101")
        fuel[0] = 10
        assert decider.classify("101") is Verdict.NO


class TestDifferences:
    def test_equal_deciders_have_empty_differences(self):
        report = differences(PARITY, PARITY, 5)
        assert report.sym_diff == report.diff == report.total_diff == frozenset()

    def test_decision_problems_collapse_the_notions(self):
        # for decision problems all four difference sets coincide
        a, b = PARITY, builtin("len-even")
        fwd = differences(a, b, 5)
        bwd = differences(b, a, 5)
        assert fwd.sym_diff == fwd.diff == bwd.diff == fwd.total_diff

    def test_const_no_versus_parity(self):
        report = differences(CONST_NO, PARITY, 4)
        odd = frozenset(w for w in words_up_to(4) if w.count("1") % 2 == 1)
        assert report.sym_diff == odd
        assert report.total_diff >= report.sym_diff

    def test_bound_cap(self):
        from promiselab.errors import CapExceeded
        with pytest.raises(CapExceeded):
            differences(PARITY, CONST_NO, 30)

    def test_containment_diagram(self):
        pairs = [(PARITY, builtin("ones-promise")),
                 (builtin("ones-promise"), CONST_YES),
                 (CONST_NO, builtin("len-1-to-3"))]
        for a, b in pairs:
            fwd = differences(a, b, 5)
            assert fwd.sym_diff <= fwd.total_diff
            assert fwd.diff <= fwd.total_diff


class TestSeparation:
    @pytest.mark.parametrize("va,vb", itertools.product(Verdict, repeat=2))
    def test_matches_the_four_clause_form(self, va, vb):
        four_clause = (va is Verdict.YES and vb is not Verdict.YES) or \
                      (va is Verdict.NO and vb is not Verdict.NO)
        assert va.separates(vb) is four_clause


def _verdict_tables():
    return st.integers(0, 4).flatmap(lambda m: st.lists(
        st.sampled_from(Verdict), min_size=2 ** m, max_size=2 ** m))


class TestWitnessVerdict:
    @settings(max_examples=200)
    @given(_verdict_tables())
    def test_matches_any_all_and_stops_at_first_yes(self, verdicts):
        m = len(verdicts).bit_length() - 1
        table = dict(zip(words_of_length(m), verdicts))
        asked = []

        def verdict_of(y):
            asked.append(y)
            return table[y]

        if any(v is Verdict.YES for v in verdicts):
            expected = Verdict.YES
        elif all(v is Verdict.NO for v in verdicts):
            expected = Verdict.NO
        else:
            expected = Verdict.OUTSIDE
        assert witness_verdict(m, MAX_WITNESS_SPACE, verdict_of) is expected
        stop = verdicts.index(Verdict.YES) + 1 \
            if Verdict.YES in verdicts else len(verdicts)
        assert asked == list(table)[:stop]

    def test_cap_is_checked_before_any_witness(self):
        asked = []
        with pytest.raises(WitnessSpaceTooLarge):
            witness_verdict(3, 7, asked.append)
        assert asked == []

    def test_witness_space_equal_to_cap_is_walked(self):
        asked = []
        assert witness_verdict(3, 8, lambda y: asked.append(y)
                               or Verdict.NO) is Verdict.NO
        assert len(asked) == 8

    def test_huge_witness_length_is_refused_at_once(self):
        # 2^(2^64) is never computed, so this neither stalls nor runs out
        # of memory
        with pytest.raises(WitnessSpaceTooLarge):
            witness_verdict(2 ** 64, MAX_WITNESS_SPACE, lambda y: Verdict.YES)


class TestMarkedUnion:
    def test_routing(self):
        union = marked_union(PARITY, CONST_YES)
        for x in words_up_to(4):
            assert union.classify("0" + x) is PARITY.classify(x)
            assert union.classify("1" + x) is CONST_YES.classify(x)

    def test_empty_word_is_outside(self):
        assert marked_union(PARITY, CONST_YES).classify("") is Verdict.OUTSIDE


class TestKarpCheck:
    def test_identity_self_reduction(self):
        (report,) = karp_check(PARITY, [(lambda x: x, PARITY)], 5)
        assert report.violations == ()

    def test_constant_no_instance_against_empty_yes(self):
        (report,) = karp_check(CONST_NO, [(lambda x: "0", PARITY)], 5)
        assert report.violations == ()

    def test_violation_is_reported(self):
        (report,) = karp_check(PARITY, [(lambda x: x + "1", PARITY)], 4)
        assert report.violations
        bad = report.violations[0]
        assert PARITY.classify(bad.word) is not PARITY.classify(bad.image)

    def test_machine_backed_reduction(self):
        f = machine_reduction("prepend0", prepend_zero_machine(),
                              lambda n: 4)
        union = marked_union(PARITY, CONST_YES)
        assert karp_check(PARITY, [(f, union)], 5)[0].violations == ()

    def test_pairs_share_one_walk(self):
        # ones-promise leaves the non-empty all-zero words outside for
        # every pair; the source classifies each of the 31 words once
        seen = Counter()
        source = builtin("ones-promise")

        def counted(x: str) -> Verdict:
            seen[x] += 1
            return source.classify(x)

        reports = karp_check(TotalDecider("counted", fn=counted),
                             [(lambda x: x, PARITY),
                              (lambda x: x + "1", PARITY)], 4)
        assert set(seen.values()) == {1} and len(seen) == 31
        assert [r.checked for r in reports] == [31, 31]
        assert reports[0].violations == ()
        assert [v.word for v in reports[1].violations] == [
            w for w in words_up_to(4) if "1" in w or not w]
        assert karp_check(PARITY, [], 4) == ()

    def test_bound_cap(self):
        checks = [(lambda x: x, PARITY)]
        with pytest.raises(CapExceeded):
            karp_check(PARITY, checks, 17)
        config = Config(max_word_length=5)
        with pytest.raises(CapExceeded):
            karp_check(PARITY, checks, 6, config=config)
        assert karp_check(PARITY, checks, 5,
                          config=config)[0].checked == 63

    @pytest.mark.parametrize("memoized", [False, True])
    @pytest.mark.parametrize("machine", [parity_machine(),
                                         emit_outside_machine()])
    def test_walked_lengths_give_equal_reports(self, machine, memoized):
        a = TotalDecider.from_machine("m", machine, lambda n: n + 5)
        a = a.memoized() if memoized else a
        checks = [(lambda x: x, PARITY), (lambda x: x + "1", a),
                  (lambda x: "0" + x, marked_union(a, CONST_YES))]
        walked = karp_check(a, checks, 7)
        assert walked == karp_check(dataclasses.replace(a, lengths=None),
                                    checks, 7)

    @pytest.mark.parametrize("memoized", [False, True])
    @pytest.mark.parametrize("machine, output", [
        # "1" loops at its 1, after "0" answers no
        (halt_at_one_machine(loop=True), "<no output within fuel on '1'>"),
        # "11" halts on its first 1 with output "11", after "10" outside
        (halt_at_one_machine(), "11"),
    ])
    def test_walked_lengths_raise_equal_errors(self, machine, output,
                                               memoized):
        a = TotalDecider.from_machine("m", machine, lambda n: 20)
        a = a.memoized() if memoized else a
        for source in (a, dataclasses.replace(a, lengths=None)):
            with pytest.raises(NotTotalDecider) as exc:
                karp_check(source, [(lambda x: x, PARITY)], 5)
            assert str(exc.value) == str(NotTotalDecider(output))

    def test_walk_stops_at_the_first_word_without_a_verdict(self, monkeypatch):
        # every word of length 8 loops after reading all its cells; the
        # walk of length 8 runs one of them, not all 256 to the fuel limit
        table = {(k, sym): (k + 1, sym, "R") for k in range(8) for sym in "01"}
        table.update({(k, BLANK): (9, "0", "N") for k in range(8)})
        table.update({(8, sym): (8, sym, "N") for sym in SYMBOLS})
        a = TotalDecider.from_machine("m", MachineDesc(10, 0, frozenset({9}),
                                                       table),
                                      lambda n: 1000)
        leaves, walk = Counter(), tm.walk

        def counted(m, n, fuel):
            for output in walk(m, n, fuel):
                leaves[n] += 1
                yield output

        monkeypatch.setattr(tm, "walk", counted)
        with pytest.raises(NotTotalDecider) as exc:
            karp_check(a, [(lambda x: x, PARITY)], 8)
        assert exc.value.output == "<no output within fuel on '00000000'>"
        assert leaves == Counter({n: 1 << n for n in range(8)} | {8: 1})

    def test_reduction_timeout_raises(self):
        f = machine_reduction("slow", diverging_machine(), lambda n: 3)
        with pytest.raises(FuelExhausted):
            f("01")


class TestCookRun:
    def test_query_echo_with_parity_oracle(self):
        om = query_echo_machine()
        assert cook_run(om, PARITY, "1") is True
        assert cook_run(om, PARITY, "11") is False
        assert cook_run(om, PARITY, "") is False

    def test_non_promised_query(self):
        om = query_echo_machine()
        with pytest.raises(NonPromisedQuery):
            cook_run(om, builtin("ones-promise"), "00")

    def test_zero_query_machine_is_plain_dtm(self):
        base = always_accept_machine()
        om = OracleMachine(base, base.states + 5, lambda n: n + 2)
        # the oracle state is unreachable, so the oracle is never consulted
        assert cook_run(om, builtin("ones-promise"), "000") is True

    def test_trivial_machine_checks_input_word(self):
        om = OracleMachine(TRIVIAL_MACHINE, 1, lambda n: n + 1)
        with pytest.raises(ValueError, match="is not 0 or 1"):
            cook_run(om, PARITY, "a2")

    def test_runtime_enforced(self):
        om = OracleMachine(diverging_machine(), 7, lambda n: 4)
        with pytest.raises(FuelExhausted):
            cook_run(om, PARITY, "0")

    def test_query_replaces_word_with_answer(self):
        # after the query the echo machine halts on the single answer
        # symbol: the tape beyond it must be blank again
        om = query_echo_machine()
        assert cook_run(om, CONST_YES, "0000") is True


class TestKarpToCook:
    def test_identity_reduction(self):
        om = karp_to_cook(identity_machine(), lambda n: 2)
        for x in words_up_to(5):
            expected = PARITY.classify(x) is Verdict.YES
            assert cook_run(om, PARITY, x) is expected

    def test_prefix_reduction_queries_marked_word(self):
        om = karp_to_cook(prepend_zero_machine(), lambda n: 4)
        union = marked_union(PARITY, CONST_YES)
        for x in words_up_to(5):
            expected = PARITY.classify(x) is Verdict.YES
            assert cook_run(om, union, x) is expected

    def test_agreement_follows_karp_check(self):
        # whenever karp_check passes, the one-query machine agrees with
        # the source problem on all promised words
        machine, runtime = prepend_zero_machine(), lambda n: 4
        f = machine_reduction("prepend0", machine, runtime)
        union = marked_union(PARITY, CONST_YES)
        assert karp_check(PARITY, [(f, union)], 6)[0].violations == ()
        om = karp_to_cook(machine, runtime)
        for x in words_up_to(6):
            assert cook_run(om, union, x) is (PARITY.classify(x) is Verdict.YES)
