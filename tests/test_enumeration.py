import gc
import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

from helpers_machines import (always_accept_machine, always_reject_machine,
                              const_output_machine, diverging_machine,
                              fan_ptm, identity_machine, parity_machine,
                              query_echo_machine, reduction_closure,
                              two_input_fan_ptm, witness_equals_one_ptm)
from helpers_values import word_to_index
from promiselab import enumeration
from promiselab.circuit import Circuit, Gate, encode_circuit
from promiselab.enumeration import (Polynomial, builtins_presentation,
                                    class_presentation, family_series,
                                    harder_set, machine_series,
                                    oracle_machine_series, pair,
                                    parse_oracle_machine, poly_series,
                                    polyfunc_series, polyset_series,
                                    triple, unpair, untriple)
from promiselab.config import Config
from promiselab.errors import CapExceeded
from promiselab.promise import TotalDecider, Verdict, builtin
from promiselab.tm import encode_godel
from promiselab.words import index_to_word, words_up_to

PARITY = builtin("parity")


def machine_index(machine) -> int:
    """Index of a deterministic machine in the word series."""
    return word_to_index(encode_godel(machine))


def ptm_index(machine) -> int:
    return word_to_index(encode_godel(machine))


def clock_index(target: Polynomial) -> int:
    """Search the polynomial series for an exact clock, small ranges only."""
    for i in range(50_000):
        if poly_series(i) == target:
            return i
    raise AssertionError(f"{target} not in the first 50000 polynomials")


LINEAR_CLOCK = Polynomial((2, 1))  # n + 2
SEVEN_FAMILIES = ("p", "np", "promisebpp", "promisema", "bqp", "qcma", "qma")


class TestWordBijection:
    def test_base_cases(self):
        assert index_to_word(0) == ""
        assert [index_to_word(i) for i in range(1, 7)] == \
            ["0", "1", "00", "01", "10", "11"]

    def test_roundtrip(self):
        for i in range(2000):
            assert word_to_index(index_to_word(i)) == i


@pytest.mark.parametrize("call, message", [
    (lambda: pair(-1, 0), "pair arguments must be non-negative"),
    (lambda: pair(0, -1), "pair arguments must be non-negative"),
    (lambda: unpair(-1), "unpair argument must be non-negative"),
    (lambda: poly_series(-1), "index must be non-negative"),
    (lambda: index_to_word(-1), "word index must be non-negative"),
    (lambda: builtins_presentation([]), "need at least one decider"),
], ids=["pair-j", "pair-k", "unpair", "poly_series", "index_to_word",
        "builtins_presentation"])
def test_arguments_outside_the_domain(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestPairing:
    def test_base_case(self):
        assert pair(0, 0) == 0

    def test_bijection_on_samples(self):
        rng = random.Random(307)
        for _ in range(10_000):
            j, k = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
            assert unpair(pair(j, k)) == (j, k)

    def test_monotone_in_each_argument(self):
        rng = random.Random(311)
        for _ in range(500):
            j, k = rng.randrange(1000), rng.randrange(1000)
            assert pair(j + 1, k) > pair(j, k)
            assert pair(j, k + 1) > pair(j, k)

    def test_triple_roundtrip(self):
        rng = random.Random(313)
        for _ in range(2000):
            j, k, l = (rng.randrange(10 ** 4) for _ in range(3))
            assert untriple(triple(j, k, l)) == (j, k, l)


class TestPolySeries:
    def test_zero_polynomial_first(self):
        p = poly_series(0)
        assert p.coefficients == ()
        assert p(5) == 0

    def test_surjectivity_hits_targets(self):
        seen = {poly_series(i).coefficients: i for i in range(200)}
        assert (0, 0, 1) in seen      # n^2
        assert (3, 2) in seen         # 2n + 3
        assert seen[(0, 0, 1)] <= 200 and seen[(3, 2)] <= 200

    def test_injective_over_first_500(self):
        forms = [poly_series(i).coefficients for i in range(500)]
        assert len(set(forms)) == 500

    def test_evaluation(self):
        i = clock_index(Polynomial((3, 2)))
        p = poly_series(i)
        assert [p(n) for n in range(4)] == [3, 5, 7, 9]

    def test_monotone_in_coefficients(self):
        rng = random.Random(331)
        for _ in range(200):
            coeffs = [rng.randrange(4) for _ in range(rng.randint(1, 4))]
            coeffs[-1] += 1
            p = Polynomial(tuple(coeffs))
            k = rng.randrange(len(coeffs))
            bumped = list(coeffs)
            bumped[k] += 1
            q = Polynomial(tuple(bumped))
            n = rng.randrange(6)
            assert q(n) >= p(n)


class TestPMachine:
    def test_always_accept_is_constant_yes(self):
        i = pair(machine_index(always_accept_machine()),
                 clock_index(LINEAR_CLOCK))
        decider = class_presentation("p", i)
        for x in ("", "0", "1101"):
            assert decider.classify(x) is Verdict.YES

    def test_diverging_machine_defaults_to_no(self):
        i = pair(machine_index(diverging_machine()), clock_index(LINEAR_CLOCK))
        decider = class_presentation("p", i)
        for x in ("", "01"):
            assert decider.classify(x) is Verdict.NO

    def test_parity_machine_with_sufficient_clock(self):
        i = pair(machine_index(parity_machine()), clock_index(LINEAR_CLOCK))
        decider = class_presentation("p", i)
        for x in words_up_to(8):
            assert decider.classify(x) is PARITY.classify(x)

    def test_never_outside_promise(self):
        rng = random.Random(337)
        for _ in range(50):
            decider = class_presentation("p", rng.randrange(500))
            for x in words_up_to(4):
                assert decider.classify(x) in (Verdict.YES, Verdict.NO)

    def test_index_cap(self):
        with pytest.raises(CapExceeded):
            class_presentation("p", 1 << (10 ** 6 + 1))
        with pytest.raises(CapExceeded):
            class_presentation("p", -1)


class TestPolyFuncSeries:
    def test_identity_function(self):
        i = pair(machine_index(identity_machine()), 0)
        f = polyfunc_series(i)
        for x in words_up_to(6):
            assert f(x) == x

    def test_fuel_starved_machine_gives_empty(self):
        # the parity walker needs n+1 steps; the zero clock starves it
        i = pair(machine_index(parity_machine()), 0)
        f = polyfunc_series(i)
        assert f("01") == ""

    def test_polyset_clamp(self):
        rng = random.Random(347)
        for _ in range(40):
            i = rng.randrange(2000)
            f = polyset_series(i)
            clamp = poly_series(untriple(i)[2])
            for n in range(5):
                value, _ = f.eval(n)
                assert 0 <= value <= clamp(n)


class TestNpMachine:
    def test_witness_one_verifier_is_constant_yes(self):
        # deterministic verifier accepting iff the witness bit is 1
        verifier = _determinize(witness_equals_one_ptm())
        i = triple(machine_index(verifier), clock_index(Polynomial((4, 1))),
                   _polyset_index_for_constant(1))
        decider = class_presentation("np", i)
        for x in ("", "1", "010"):
            assert decider.classify(x) is Verdict.YES

    def test_always_reject_is_constant_no(self):
        i = triple(machine_index(always_reject_machine()),
                   clock_index(LINEAR_CLOCK), _polyset_index_for_constant(1))
        decider = class_presentation("np", i)
        for x in ("", "0", "11"):
            assert decider.classify(x) is Verdict.NO

    def test_matches_brute_force_witness_search(self):
        from promiselab import tm
        from promiselab.words import words_of_length
        verifier = _determinize(witness_equals_one_ptm())
        i = triple(machine_index(verifier), clock_index(Polynomial((4, 1))),
                   _polyset_index_for_constant(1))
        decider = class_presentation("np", i)
        for x in words_up_to(3):
            brute = any(tm.run(verifier, [x, y], len(x) + 4).output == "1"
                        for y in words_of_length(1))
            assert (decider.classify(x) is Verdict.YES) == brute


    def test_witness_length_evaluated_once_per_length(self, monkeypatch):
        # the witness-length machine runs on one input, the verifier on two
        from promiselab import tm
        run = tm.run
        lengths = []

        def counted(machine, inputs, fuel):
            if len(inputs) == 1:
                lengths.append(int(inputs[0], 2))
            return run(machine, inputs, fuel)

        monkeypatch.setattr(tm, "run", counted)
        verifier = _determinize(witness_equals_one_ptm())
        decider = class_presentation("np", triple(
            machine_index(verifier), clock_index(Polynomial((4, 1))),
            _polyset_index_for_constant(1)))
        for x in words_up_to(6):
            assert decider.classify(x) is Verdict.YES
        assert lengths == list(range(7))


def _determinize(ptm_desc):
    """PTMs with singleton branch sets are deterministic machines."""
    from promiselab.tm import MachineDesc
    transitions = {key: actions[0]
                   for key, actions in ptm_desc.transitions.items()}
    assert all(len(a) == 1 for a in ptm_desc.transitions.values())
    return MachineDesc(ptm_desc.states, ptm_desc.initial, ptm_desc.finals,
                       transitions)


def _polyset_index_for_constant(value: int) -> int:
    """Index of a clamped series member that is constantly `value`.

    A machine printing the numeral of `value` under a generous clock,
    clamped by the constant polynomial `value`, stays at `value`.
    """
    printer = const_output_machine(format(value, "b"))
    return triple(machine_index(printer), clock_index(Polynomial((10, 1))),
                  clock_index(Polynomial((value,))))


class TestClassPresentations:
    def test_promisebpp_trivial_index_is_constant_no(self):
        # index 0 decodes to the trivial PTM under the zero clock
        decider = class_presentation("promisebpp", 0)
        for x in ("", "0", "10"):
            assert decider.classify(x) is Verdict.NO

    def test_promisebpp_fair_coin_is_outside_everywhere(self):
        i = pair(ptm_index(fan_ptm(1, 2)), clock_index(LINEAR_CLOCK))
        decider = class_presentation("promisebpp", i)
        for x in ("", "0", "11"):
            assert decider.classify(x) is Verdict.OUTSIDE

    def test_promisema_witness_machine(self):
        i = triple(ptm_index(witness_equals_one_ptm()),
                   clock_index(Polynomial((4, 1))),
                   _polyset_index_for_constant(1))
        decider = class_presentation("promisema", i)
        assert decider.classify("0") is Verdict.YES

    def test_bqp_trivial_generator_is_constant_no(self):
        i = pair(machine_index(const_output_machine("")),
                 clock_index(Polynomial((4, 1))))
        decider = class_presentation("bqp", i)
        for x in ("", "1", "00"):
            assert decider.classify(x) is Verdict.NO

    def test_bqp_single_h_generator_is_outside(self):
        gen = const_output_machine("0101")
        i = pair(machine_index(gen), clock_index(Polynomial((8, 1))))
        decider = class_presentation("bqp", i)
        assert decider.classify("0") is Verdict.OUTSIDE

    def test_qcma_witness_copy_is_constant_yes(self):
        circ = Circuit((Gate("CNOT", (2, 1)),), witness_qubits=1)
        gen = const_output_machine(encode_circuit(circ))
        i = pair(machine_index(gen), clock_index(Polynomial((12, 1))))
        decider = class_presentation("qcma", i)
        for x in ("", "0", "11"):
            assert decider.classify(x) is Verdict.YES

    def test_overrunning_generator_counts_as_trivial(self):
        i = pair(machine_index(diverging_machine()), 0)
        decider = class_presentation("qma", i)
        assert decider.classify("0") is Verdict.NO
        # with s < 0 the trivial circuit (acceptance 0) is Yes, yet an
        # overrun stays No: the diverging machine and the trivial machine
        # (index 0) at the zero clock; at clock 1 the trivial machine
        # halts with the trivial circuit
        config = Config(threshold_s=Fraction(-1, 4),
                        threshold_c=Fraction(-1, 8))
        for family in ("bqp", "qcma", "qma"):
            for j, expected in ((i, Verdict.NO), (pair(0, 0), Verdict.NO),
                                (pair(0, 1), Verdict.YES)):
                decider = class_presentation(family, j, config)
                assert decider.classify("0") is expected, (family, j)

    def test_every_index_is_total_at_small_scale(self):
        for family in SEVEN_FAMILIES:
            for i in range(0, 51, 5):
                decider = class_presentation(family, i)
                for x in words_up_to(6):
                    assert decider.classify(x) in (
                        Verdict.YES, Verdict.NO, Verdict.OUTSIDE)


class TestFamilySeries:
    @pytest.mark.parametrize("name, prefix, tag", [
        ("p", "p", "p[7]"), ("NP", "np", "np[7]"),
        ("promisebpp", "promisebpp*", "promisebpp*[7]"),
        ("PromiseMA", "promisema*", "promisema*[7]"),
        ("bqp", "bqp*", "bqp*[7]"), ("qcma", "qcma*", "qcma*[7]"),
        ("QMA", "qma*", "qma*[7]")])
    def test_label_and_tag(self, name, prefix, tag):
        # the tag is the family's prefix and the index, whatever the case
        # of the name
        series = family_series(name)
        assert series(7).tag == tag
        assert series(0).tag == f"{prefix}[0]"

    def test_polyfunc_members_are_word_functions(self):
        f = family_series("PolyFunc")(pair(machine_index(identity_machine()), 0))
        assert not isinstance(f, TotalDecider)
        assert [f(x) for x in ("", "01", "110")] == ["", "01", "110"]

    def test_series_use_the_configuration(self):
        series = family_series("p", Config(max_enum_index_bits=2))
        series(3)
        with pytest.raises(CapExceeded):
            series(4)

    @pytest.mark.parametrize("family", SEVEN_FAMILIES)
    def test_factory_is_looked_up_when_producing(self, family, monkeypatch):
        # a span wrapper installed on the module global after import must
        # see every decider the series produces
        series = family_series(family)
        produced = []
        monkeypatch.setattr(enumeration, "class_presentation",
                            lambda *args: produced.append(args) or PARITY)
        assert series(9) is PARITY
        assert produced == [(family, 9, Config())]

    @pytest.mark.parametrize("family", SEVEN_FAMILIES)
    def test_machine_series_is_looked_up_when_building(self, family,
                                                       monkeypatch):
        seen = []
        for name in ("machine_series", "ptm_series"):
            original = getattr(enumeration, name)
            monkeypatch.setattr(
                enumeration, name,
                lambda j, name=name, original=original:
                    seen.append(name) or original(j))
        class_presentation(family, 9)
        probabilistic = family in ("promisebpp", "promisema")
        # the witness length of np and promisema is a polyset_series
        # machine, decoded through the module global too
        witness = family in ("np", "promisema")
        assert seen == (["ptm_series" if probabilistic else "machine_series"]
                        + ["machine_series"] * witness)

    @pytest.mark.parametrize("series,i", [(polyfunc_series, pair(7, 2)),
                                          (polyset_series, triple(7, 2, 3))])
    def test_clocked_series_look_up_machine_series_when_decoding(
            self, series, i, monkeypatch):
        # a span wrapper installed on the module global after import must
        # see the decodes of the clocked function series as well
        seen = []
        original = enumeration.machine_series
        monkeypatch.setattr(enumeration, "machine_series",
                            lambda j: seen.append(j) or original(j))
        series(i)
        assert seen == [7]

    def test_unknown_presentation_family(self):
        with pytest.raises(ValueError, match="known: p, np, promisebpp, "
                                             "promisema, bqp, qcma, qma"):
            class_presentation("polyfunc", 0)


class TestReductionClosure:
    def test_identity_index_reproduces_problem(self):
        i = pair(machine_index(identity_machine()), 0)
        decider = reduction_closure(PARITY, i)
        for x in words_up_to(8):
            assert decider.classify(x) is PARITY.classify(x)

    def test_constant_function_gives_constant_problem(self):
        i = pair(machine_index(const_output_machine("1")),
                 clock_index(Polynomial((4, 1))))
        decider = reduction_closure(PARITY, i)
        expected = PARITY.classify("1")
        for x in words_up_to(5):
            assert decider.classify(x) is expected

    def test_composition_matches_direct_oracle(self):
        i = pair(machine_index(identity_machine()), 0)
        f = polyfunc_series(i)
        decider = reduction_closure(PARITY, i)
        for x in words_up_to(6):
            assert decider.classify(x) is PARITY.classify(f(x))


def query_echo_index() -> int:
    """Index of the query-echo oracle machine under its n + 5 clock."""
    om = query_echo_machine()
    bits = "1" * (om.oracle_state + 1) + "0" + encode_godel(om.base)
    return pair(word_to_index(bits), clock_index(Polynomial((5, 1))))


class TestHarderSet:
    def test_failed_checks_fall_back_to_base_problem(self):
        # the query-echo machine with const-yes as its oracle accepts every
        # word, but ones-promise rejects the empty word: the check fails
        # there, so the decider answers like a everywhere
        a = builtin("ones-promise")
        pres = builtins_presentation([builtin("const-yes")])
        decider = harder_set(a, pres, pair(query_echo_index(), 0))
        for x in words_up_to(8):
            assert decider.classify(x) is a.classify(x)

    def test_passing_checks_follow_presented_machine(self):
        # the query-echo machine with parity as its oracle decides
        # ones-promise on its promise: every check goes through cook_run and
        # passes, so the decider is parity, on "00" (outside a's promise)
        # as well
        a = builtin("ones-promise")
        decider = harder_set(a, builtins_presentation([PARITY]),
                             pair(query_echo_index(), 0))
        assert a.classify("00") is Verdict.OUTSIDE
        for x in words_up_to(8):
            assert decider.classify(x) is PARITY.classify(x)

    def test_mode_t_with_trivial_oracle_machine(self):
        # the trivial oracle machine rejects everything: correct for the
        # constant-no problem, so checks pass and the decider follows the
        # presented machine.  j = pair(0, 1): trivial machine under the
        # constant-1 clock, which is just enough fuel for its single step.
        pres = builtins_presentation([builtin("len-even")])
        decider = harder_set(builtin("const-no"), pres, pair(pair(0, 1), 0))
        for x in words_up_to(4):
            assert decider.classify(x) is builtin("len-even").classify(x)

    def test_mode_t_falls_back_when_oracle_machine_wrong(self):
        pres = builtins_presentation([builtin("len-even")])
        decider = harder_set(builtin("const-yes"), pres, 0)
        # trivial oracle machine rejects, but const-yes demands accepts:
        # checks fail from the empty word on
        for x in words_up_to(4):
            assert decider.classify(x) is Verdict.YES

    def test_soundness_on_presented_problem(self):
        # a query outside the oracle's promise fails its check: with
        # ones-promise as the oracle the query-echo machine decides parity
        # on "", but its query on "0" is non-promised, so the decider
        # follows the presented problem only on the empty word
        pres = builtins_presentation([builtin("ones-promise")])
        decider = harder_set(PARITY, pres, pair(query_echo_index(), 0))
        assert decider.classify("") is Verdict.NO
        for x in words_up_to(6):
            if x:
                assert decider.classify(x) is PARITY.classify(x)

    @pytest.mark.parametrize("oracle, checked", [
        # every check passes, so each promised word up to the longest
        # classified one is checked once, shortest first
        (PARITY, [y for y in words_up_to(8)
                  if builtin("ones-promise").classify(y) is not Verdict.OUTSIDE]),
        # the check on the empty word fails, and no later one runs
        (builtin("const-yes"), [""])], ids=["checks-pass", "check-fails"])
    def test_each_check_runs_once(self, oracle, checked, monkeypatch):
        queried = []
        run = enumeration.cook_run
        monkeypatch.setattr(enumeration, "cook_run", lambda o, m, y:
                            queried.append(y) or run(o, m, y))
        decider = harder_set(builtin("ones-promise"),
                             builtins_presentation([oracle]),
                             pair(query_echo_index(), 0))
        words = list(words_up_to(8))
        for x in [*reversed(words), *words]:
            decider.classify(x)
        assert queried == checked

    def test_decider_is_freed_without_the_cycle_collector(self):
        # a decider holds a's memo, so a reference cycle through its kept
        # checks would hold every classified word until a full collection
        a = PARITY.memoized()
        decider = harder_set(a, builtins_presentation([PARITY]),
                             pair(query_echo_index(), 0))
        decider.classify("0110")
        freed = weakref.ref(a)
        gc.disable()
        try:
            del a, decider
            assert freed() is None
        finally:
            gc.enable()

    def test_presentation_wrapper(self):
        # the harder set as a presentation is harder_set with a, the
        # presentation and the configuration bound
        pres = partial(harder_set, PARITY, builtins_presentation([PARITY]),
                       config=Config(max_enum_index_bits=2))
        decider = pres(3)
        assert decider.tag == "harder[T,3](parity)"
        assert decider.classify("1") in (Verdict.YES, Verdict.NO)
        with pytest.raises(CapExceeded):
            pres(4)


class TestOracleMachineSeries:
    def test_invalid_prefix_gives_trivial(self):
        base, state = parse_oracle_machine("")
        assert base.trivial and state == 0

    def test_roundtrip_prefix(self):
        m = always_accept_machine()
        bits = "1" * 2 + "0" + encode_godel(m)  # oracle state 1
        base, state = parse_oracle_machine(bits)
        assert base == m and state == 1

    def test_out_of_range_oracle_state_is_trivial(self):
        m = always_accept_machine()
        bits = "1" * 9 + "0" + encode_godel(m)
        base, state = parse_oracle_machine(bits)
        assert base.trivial

    def test_clock_is_cut_off_at_the_fuel_ceiling(self):
        clock = Polynomial((3, 0, 1))  # n^2 + 3
        j = pair(0, clock_index(clock))
        assert [oracle_machine_series(j).runtime(n) for n in range(6)] == \
            [clock(n) for n in range(6)]
        capped = oracle_machine_series(j, Config(default_fuel=7))
        assert [capped.runtime(n) for n in range(6)] == [3, 4, 7, 7, 7, 7]

    def test_index_cap(self):
        with pytest.raises(CapExceeded):
            oracle_machine_series(8, Config(max_enum_index_bits=3))
