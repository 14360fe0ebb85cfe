import gc
import tracemalloc
import weakref
from functools import partial
from itertools import islice

import pytest

from helpers_machines import (eval_counted, identity_machine, parity_machine,
                              step_counted)
from promiselab.diagonal import (CostedFunction, DiagInstance, GapLimits,
                                 PRESENTABLE, REPRESENTABLE, affine_costed,
                                 build_r_components, diagonalize,
                                 find_contradiction, gap_intervals, gap_member,
                                 ladner, time_construct_wrap)
from promiselab.enumeration import builtins_presentation
from promiselab.errors import AccountingError, NoContradictionFound
from promiselab.promise import TotalDecider, Verdict, builtin, karp_check, \
    marked_union
from promiselab.tm import TRIVIAL_MACHINE
from promiselab.words import words_up_to

PARITY = builtin("parity")
CONST_YES = builtin("const-yes")
CONST_NO = builtin("const-no")
OUTSIDE_EVERYWHERE = TotalDecider("outside", fn=lambda x: Verdict.OUTSIDE)


def reference_gap_member(r: CostedFunction, length: int) -> bool:
    """Direct iteration oracle, no budgets involved."""
    limits = [0]
    while limits[-1] <= length:
        limits.append(r.value(limits[-1]))
    return (len(limits) - 2) % 2 == 0


class TestEvalCounted:
    def test_one_step_machine(self):
        for n in range(6):
            assert eval_counted(TRIVIAL_MACHINE, n) == 1

    def test_instant_machine(self):
        for n in range(6):
            assert eval_counted(identity_machine(), n) == 0

    def test_sweep_machine_counts_length_plus_one(self):
        for n in range(8):
            assert eval_counted(parity_machine(), n) == n + 1


class TestTimeConstructWrap:
    def test_constant_zero_becomes_successor(self):
        f = CostedFunction("zero", lambda n: (0, 0))
        r = time_construct_wrap(f)
        for n in range(10):
            assert r.value(n) == n + 1

    def test_dominates_value(self):
        f = CostedFunction("id", lambda n: (n, 3 * n + 2))
        r = time_construct_wrap(f)
        for n in range(10):
            value, cost = r.eval(n)
            assert value == 2 * n + (3 * n + 2) + 1
            assert value >= f.eval(n)[0]
            assert value > n
            assert cost <= value

    def test_accounting_audit_on_machine_backed_function(self):
        counted = step_counted(parity_machine())
        r = time_construct_wrap(counted)
        for n in range(12):
            value, cost = r.eval(n)
            assert cost <= value
            assert value > n
            assert value >= counted.eval(n)[0]


class TestGapMembership:
    def test_empty_word_is_always_member(self):
        for r in (affine_costed(1, 1), affine_costed(2, 2), affine_costed(3, 5)):
            assert gap_member(r, "")

    def test_successor_gap_is_even_lengths(self):
        r = affine_costed(1, 1)
        for length in range(65):
            assert gap_member(r, "0" * length) == (length % 2 == 0)

    def test_doubling_gap_intervals(self):
        r = affine_costed(2, 2)
        # limits: 0, 2, 6, 14, 30, 62, 126 -> even intervals [0,2), [6,14), [30,62)
        member_lengths = {n for n in range(65)
                          if n < 2 or 6 <= n < 14 or 30 <= n < 62}
        for length in range(65):
            assert gap_member(r, length) == (length in member_lengths)

    def test_budgeted_equals_reference_on_toys(self):
        for r in (affine_costed(1, 1), affine_costed(2, 2), affine_costed(1, 3)):
            for length in range(65):
                assert gap_member(r, length) == reference_gap_member(r, length)

    def test_interval_partition(self):
        r = affine_costed(2, 2)
        rows = list(gap_intervals(GapLimits(r), 64))
        for length in range(65):
            containing = [row for row in rows if row[0] <= length < row[1]]
            assert len(containing) == 1
            assert gap_member(r, length) == containing[0][2]

    def test_intervals_evaluate_r_once_per_row_taken(self):
        args = []
        r = CostedFunction("doubling", lambda n: (args.append(n) or 2 * n + 2, 1))
        rows = list(islice(gap_intervals(GapLimits(r), 10 ** 9), 3))
        assert rows == [(0, 2, True), (2, 6, False), (6, 14, True)]
        assert args == [0, 2, 6]

    def test_long_tables_keep_no_limits_past_the_stored_ones(self):
        # keeping the 100,001 limits of this walk takes about 3.8 MiB
        gaps = GapLimits(affine_costed(1, 1))
        assert gaps.member(10)  # stores the limits 0..11
        tracemalloc.start()
        try:
            for row in gap_intervals(gaps, 100_000):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row == (100_000, 100_001, True)
        assert gaps.limits == list(range(12)) and peak < 1 << 18

    def test_limits_list_computes_each_limit_once(self):
        args = []
        r = CostedFunction("doubling", lambda n: (args.append(n) or 2 * n + 2, 1))
        gaps = GapLimits(r)
        for length in (20, 0, 64, 3, 64, 130, 1):
            assert gaps.member(length) == reference_gap_member(
                affine_costed(2, 2), length)
        assert args == [0, 2, 6, 14, 30, 62, 126]
        assert gaps.limits == [0, 2, 6, 14, 30, 62, 126, 254]

    def test_limits_list_keeps_the_accounting_checks(self):
        with pytest.raises(AccountingError):
            GapLimits(CostedFunction("over", lambda n: (n + 2, n + 3))).member(0)
        gaps = GapLimits(CostedFunction("flat", lambda n: (1, 0)))
        assert gaps.member("")
        with pytest.raises(ValueError):
            gaps.member("1")

    def test_negative_lengths_raise_and_are_not_kept(self):
        r = affine_costed(2, 2)
        gaps = GapLimits(r)
        for ask in (gaps.interval, gaps.member, partial(gap_member, r)):
            for length in (-1, -3):
                with pytest.raises(ValueError, match="negative"):
                    ask(length)
        assert dict(gaps) == {} and gaps.limits == [0]

    def test_each_length_is_looked_up_once_and_a_raise_keeps_nothing(self):
        args = []

        def doubling_then_flat(n: int) -> tuple[int, int]:
            args.append(n)
            return (2 * n + 2, 1) if n < 14 else (n, 0)

        gaps = GapLimits(CostedFunction("doubling", doubling_then_flat))
        for length in (5, 0, 5, "01010", 13, 0):
            assert gaps.member(length) == reference_gap_member(
                affine_costed(2, 2), len(length) if isinstance(length, str)
                else length)
        assert dict(gaps) == {5: False, 0: True, 13: True}
        assert args == [0, 2, 6]
        for _ in range(2):  # r(14) = 14 is not above 14
            with pytest.raises(ValueError, match="not above"):
                gaps.member(14)
        assert 14 not in gaps and args == [0, 2, 6, 14, 14]


class TestFindContradiction:
    def test_parity_versus_constant_yes(self):
        z = find_contradiction(PARITY, CONST_YES, 2, PRESENTABLE)[0]
        assert z == "000"

    def test_no_difference_raises(self):
        with pytest.raises(NoContradictionFound):
            find_contradiction(PARITY, PARITY, 0, PRESENTABLE, cap=3)
        # cap 20 asks for 2^21 - 2 words; the scan budget stops at 2^14
        with pytest.raises(NoContradictionFound):
            find_contradiction(PARITY, PARITY, 0, PRESENTABLE, cap=20)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown mode 'weak'$"):
            find_contradiction(PARITY, CONST_YES, 0, "weak")

    def test_representable_counts_noncommittal_machines(self):
        z = find_contradiction(PARITY, OUTSIDE_EVERYWHERE, 0, REPRESENTABLE)[0]
        assert z == "0"

    def test_representable_ignores_machine_side_surplus(self):
        # outside-everywhere problem versus a committed machine: only the
        # machine side differs, which representable mode must not count
        with pytest.raises(NoContradictionFound):
            find_contradiction(OUTSIDE_EVERYWHERE, PARITY, 0, REPRESENTABLE,
                               cap=2)
        z = find_contradiction(OUTSIDE_EVERYWHERE, PARITY, 0, PRESENTABLE)[0]
        assert z == "0"


def toy_instance(search_cap: int = 8) -> DiagInstance:
    return DiagInstance(
        a=PARITY,
        a_prime=CONST_NO,
        pres_c=builtins_presentation([CONST_YES, CONST_NO, builtin("len-even")]),
        pres_c_prime=builtins_presentation(
            [CONST_YES, PARITY, builtin("ones-promise")]),
        search_cap=search_cap,
    )


class TestBuildR:
    def test_q_values_on_the_toy(self):
        # every machine of the toy presentation is contradicted by a word
        # of length n+1, so q(n) = n + 2
        inst = toy_instance()
        for n in range(6):
            lengths = [len(find_contradiction(PARITY, inst.pres_c(i),
                                              n, PRESENTABLE)[0])
                       for i in range(n + 1)]
            assert max(lengths) + 1 == n + 2

    def test_r_dominates_and_accounts(self):
        r = build_r_components(toy_instance())[2]
        for n in range(11):
            value, cost = r.eval(n)
            assert value > n
            assert value >= n + 2  # q(n) from the toy
            assert cost <= value

    def test_missing_contradiction_propagates(self):
        inst = DiagInstance(
            a=PARITY, a_prime=CONST_NO,
            pres_c=builtins_presentation([PARITY]),  # nothing to contradict
            pres_c_prime=builtins_presentation([CONST_YES]),
            search_cap=3)
        with pytest.raises(NoContradictionFound):
            build_r_components(inst)[2].eval(0)


@pytest.fixture(scope="module")
def diag_result():
    return diagonalize(toy_instance(), witness_bound=3)


@pytest.fixture(scope="module")
def ladner_result():
    pres_c = builtins_presentation([CONST_YES, CONST_NO, builtin("len-even")])
    return ladner(PARITY, pres_c, PRESENTABLE)


class TestDiagonalize:
    @pytest.fixture
    def result(self, diag_result):
        return diag_result

    def test_mixer_identity_exhaustive(self, result):
        b, r = result.b, result.r
        for x in words_up_to(12):
            expected = PARITY.classify(x) if gap_member(r, x) \
                else CONST_NO.classify(x)
            assert b.classify(x) is expected

    def test_budgeted_gap_equals_reference_on_built_r(self, result):
        for length in range(65):
            assert gap_member(result.r, length) == \
                reference_gap_member(result.r, length)

    def test_reduction_marks_words(self, result):
        for x in words_up_to(8):
            image = result.reduction(x)
            assert image[0] in "01" and image[1:] == x

    def test_reduction_into_marked_union(self, result):
        target = marked_union(PARITY, CONST_NO)
        (report,) = karp_check(result.b, [(result.reduction, target)], 10)
        assert report.violations == ()

    def test_witnesses_lie_in_correct_intervals(self, result):
        assert len(result.witnesses) == 6
        for w in result.witnesses:
            assert w.interval_start < len(w.word) < w.interval_end
            assert (w.interval_index % 2 == 0) == (w.side == "even")
            assert gap_member(result.r, w.word) == (w.side == "even")

    def test_witnesses_contradict_their_machines(self, result):
        inst = toy_instance()
        for w in result.witnesses:
            a = PARITY if w.side == "even" else CONST_NO
            pres = inst.pres_c if w.side == "even" else inst.pres_c_prime
            va = a.classify(w.word)
            vm = pres(w.machine_index).classify(w.word)
            assert w.a_verdict is va and w.machine_verdict is vm
            in_total_diff = (
                (va is Verdict.YES and vm is not Verdict.YES)
                or (va is Verdict.NO and vm is not Verdict.NO)
                or (vm is Verdict.YES and va is not Verdict.YES)
                or (vm is Verdict.NO and va is not Verdict.NO))
            assert in_total_diff
            # the mixed problem inherits the contradiction
            assert result.b.classify(w.word) is va

    def test_accounting_soundness_over_used_range(self, result):
        r = result.r
        limit = 0
        while limit <= 64:
            value, cost = r.eval(limit)
            assert cost <= value and value > limit
            limit = value


class TestLadner:
    @pytest.fixture
    def result(self, ladner_result):
        return ladner_result

    def test_reduction_to_a_has_no_violations(self, result):
        assert result.reduction_to_a is not None
        (report,) = karp_check(result.b, [(result.reduction_to_a, PARITY)],
                                10)
        assert report.violations == ()

    def test_reduction_lands_in_promise(self, result):
        # every image is either the original word or the fixed no-instance
        for x in words_up_to(8):
            image = result.reduction_to_a(x)
            assert PARITY.classify(image) in (Verdict.YES, Verdict.NO)

    def test_odd_intervals_are_constant_no(self, result):
        r = result.r
        for x in words_up_to(10):
            if not gap_member(r, x):
                assert result.b.classify(x) is Verdict.NO

    def test_b_blows_holes_into_a(self, result):
        # find an odd-interval word where the source problem says Yes
        start = next(s for k, s in enumerate_interval_starts(result.r)
                     if k % 2 == 1)
        word = "0" * (start - 1) + "1" if start >= 1 else "1"
        assert not gap_member(result.r, word)
        assert PARITY.classify(word) is Verdict.YES
        assert result.b.classify(word) is Verdict.NO

    def test_witnesses_verified(self, result):
        assert len(result.witnesses) == 6
        for w in result.witnesses:
            assert w.interval_start < len(w.word) < w.interval_end

    def test_builds_its_own_parts(self, result):
        # a' is the constant-no problem, diagonalized against the Cook
        # harder set of a
        inst = result.inst
        assert inst.a is PARITY and inst.a_prime is builtin("const-no")
        assert inst.pres_c_prime(3).tag == "harder[T,3](parity)"
        # built once per index, so a decider keeps its checks
        assert inst.pres_c_prime(3) is inst.pres_c_prime(3)
        assert inst.mode_c_prime == PRESENTABLE


def test_diagonalize_records_its_instance():
    inst = toy_instance()
    assert diagonalize(inst, witness_bound=0).inst is inst


def test_presented_deciders_are_freed_without_the_cycle_collector():
    # the construction builds each presented decider once and keeps it; a
    # reference cycle through what keeps them would hold them, and a's
    # memo, until a full collection
    pool = [CONST_YES, CONST_NO, builtin("len-even")]
    built = []

    def pres(i: int) -> TotalDecider:
        decider = TotalDecider(f"m{i}", fn=pool[i % len(pool)].fn)
        built.append(weakref.ref(decider))
        return decider

    a = PARITY.memoized()
    freed = weakref.ref(a)
    gc.disable()
    try:
        result = ladner(a, pres, PRESENTABLE)
        assert built
        del a, result
        assert freed() is None
        assert [ref() for ref in built] == [None] * len(built)
    finally:
        gc.enable()


def enumerate_interval_starts(r):
    limit = 0
    for k in range(12):
        yield k, limit
        limit = r.value(limit)
