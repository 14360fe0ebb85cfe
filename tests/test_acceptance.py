"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N (...): PASS" line (visible with
pytest -s); a failing assertion marks the criterion FAIL.  Stated runtime
budgets are asserted where the criterion carries one.
"""

import random
import time
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

from helpers_machines import (const_output_machine, det_walk_ptm, fan_ptm,
                              two_input_fan_ptm, unbalanced_ptm,
                              witness_equals_11_ptm, witness_equals_one_ptm)
from helpers_values import to_complex
from test_circuit import float_p_acc, random_circuit
from test_diagonal import reference_gap_member, toy_instance
from promiselab.circuit import (Circuit, Gate, acceptance_operator,
                                classify_bqp, classify_qcma, classify_qma,
                                encode_circuit, parse_circuit)
from promiselab.config import Config
from promiselab.diagonal import (PRESENTABLE, affine_costed, diagonalize,
                                 gap_member, ladner)
from promiselab.enumeration import (builtins_presentation, pair,
                                    poly_series, unpair)
from promiselab.promise import Verdict, builtin, karp_check, marked_union
from promiselab.ptm import classify_bpp, classify_ma, enumerate_branches
from promiselab.tm import MachineDesc, SYMBOLS, decode_godel, encode_godel
from promiselab.words import words_up_to

PAPER_EXAMPLE_BITS = "01011010010110110111011010111"
GENEROUS = lambda n: 40 * n + 400


def report(number: int, name: str, budget: float | None, started: float):
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s"
    suffix = f" [{elapsed:.2f}s]" if budget is not None else ""
    print(f"criterion {number} ({name}): PASS{suffix}")


def test_criterion_1_encoding_fidelity():
    started = time.monotonic()
    circ = parse_circuit(PAPER_EXAMPLE_BITS)
    assert [str(g) for g in circ.gates] == \
        ["H q2", "T q1", "CNOT 2→3", "CNOT 1→3"]
    assert encode_circuit(circ) == PAPER_EXAMPLE_BITS
    report(1, "encoding fidelity", 1.0, started)


def test_criterion_2_exact_versus_float_simulation():
    started = time.monotonic()
    rng = random.Random(20_26)
    for _ in range(200):
        circ = random_circuit(rng, max_qubits=6, max_gates=40)
        exact = float(parse_and_p(circ))
        oracle = float_p_acc(circ, "0" * circ.total_qubits)
        assert abs(exact - oracle) < 1e-9
    report(2, "exact vs float simulation, 200 circuits", 60.0, started)


def parse_and_p(circ):
    from promiselab.circuit import p_acc
    value = p_acc(circ, "0" * circ.total_qubits)
    return to_complex(value).real


def test_criterion_3_sylvester_trichotomy():
    started = time.monotonic()
    rng = random.Random(31_337)
    checked = 0
    while checked < 100:
        m = rng.randint(1, 3)
        circ = random_circuit(rng, max_qubits=5, max_gates=20, witness_qubits=m)
        q = acceptance_operator(circ)
        matrix = np.array([[to_complex(e) for e in row] for row in q.entries])
        top = float(np.linalg.eigvalsh(matrix).max())
        if min(abs(top - 2 / 3), abs(top - 1 / 3)) < 1e-6:
            continue
        expected = (Verdict.YES if top > 2 / 3 else
                    Verdict.NO if top < 1 / 3 else Verdict.OUTSIDE)
        gen = const_output_machine(encode_circuit(circ))
        assert classify_qma(gen, GENEROUS, "0") is expected
        checked += 1
    report(3, "sylvester trichotomy, 100 instances", 120.0, started)


def test_criterion_4_qcma_qma_consistency():
    started = time.monotonic()
    rng = random.Random(40_004)
    for _ in range(30):
        m = rng.randint(1, 2)
        circ = random_circuit(rng, max_qubits=4, max_gates=15,
                              witness_qubits=m, witness_writes=False)
        gen = const_output_machine(encode_circuit(circ))
        assert classify_qcma(gen, GENEROUS, "0") is \
            classify_qma(gen, GENEROUS, "0")
    report(4, "qcma/qma agree on witness-diagonal circuits", None, started)


def test_criterion_5_ptm_exactness():
    started = time.monotonic()
    runtime = lambda n: n + 8
    cases = []
    for total in range(2, 10):
        for accepting in range(total + 1):
            cases.append((fan_ptm(accepting, total), Fraction(accepting, total)))
    cases.append((unbalanced_ptm(), Fraction(2, 3)))
    cases.append((det_walk_ptm("1"), Fraction(1)))
    cases.append((det_walk_ptm("0"), Fraction(0)))
    cases.append((two_input_fan_ptm(1, 2), Fraction(1, 2)))
    assert len(cases) >= 50
    for machine, expected in cases:
        stats = enumerate_branches(machine, ["01"], runtime(2))
        assert stats.p_acc == expected
    # non-strict threshold boundaries
    assert classify_bpp(fan_ptm(1, 3), runtime, "01") is Verdict.NO
    assert classify_bpp(fan_ptm(2, 3), runtime, "01") is Verdict.YES
    # the same boundaries in every threshold family, each decider below
    # accepting with exactly 1/2: acceptance s is No, acceptance c is Yes,
    # and c = s is No, as in PP
    half_ptm, half_ma_ptm = fan_ptm(1, 2), two_input_fan_ptm(1, 2)
    h_gen = const_output_machine(encode_circuit(Circuit((Gate("H", (1,)),))))
    # T on q2 makes the witness qubit q2; on its own, H would act on the
    # witness, and Q would have eigenvalues 0 and 1, not 1/2 twice
    h_witness_gen = const_output_machine(encode_circuit(Circuit(
        (Gate("H", (1,)), Gate("T", (2,))), witness_qubits=1)))
    at_half = {
        "bpp": lambda config: classify_bpp(half_ptm, runtime, "01",
                                           config=config),
        "ma": lambda config: classify_ma(half_ma_ptm, runtime, lambda n: 1,
                                         "01", config=config),
        "bqp": lambda config: classify_bqp(h_gen, GENEROUS, "0", config),
        "qcma": lambda config: classify_qcma(h_witness_gen, GENEROUS, "0",
                                             config),
        "qma": lambda config: classify_qma(h_witness_gen, GENEROUS, "0",
                                           config),
    }
    half = Fraction(1, 2)
    for s, c, expected in ((half, Fraction(2, 3), Verdict.NO),
                           (Fraction(1, 3), half, Verdict.YES),
                           (half, half, Verdict.NO)):
        config = Config(threshold_c=c, threshold_s=s)
        assert {family: decide(config) for family, decide in
                at_half.items()} == dict.fromkeys(at_half, expected)
    report(5, f"ptm exactness, {len(cases)} machines; threshold "
              f"boundaries, {len(at_half)} families", None, started)


def test_criterion_6_gap_language():
    started = time.monotonic()
    for r in (affine_costed(1, 1), affine_costed(2, 2)):
        for length in range(65):
            assert gap_member(r, length) == reference_gap_member(r, length)
    report(6, "budgeted gap membership vs direct iteration", 5.0, started)


@pytest.fixture(scope="module")
def diag_result():
    return diagonalize(toy_instance(), witness_bound=3)


@pytest.fixture(scope="module")
def ladner_result():
    pres_c = builtins_presentation(
        [builtin("const-yes"), builtin("const-no"), builtin("len-even")])
    return ladner(builtin("parity"), pres_c, PRESENTABLE)


def test_criterion_7_diagonalization_toy(diag_result):
    started = time.monotonic()
    parity = builtin("parity")
    const_no = builtin("const-no")
    inst = toy_instance()
    # (a) mixer identity, exhaustive to length 12
    for x in words_up_to(12):
        expected = parity.classify(x) if gap_member(diag_result.r, x) \
            else const_no.classify(x)
        assert diag_result.b.classify(x) is expected
    # (b) reduction into the marked union, zero violations to length 10
    target = marked_union(parity, const_no)
    assert karp_check(diag_result.b, [(diag_result.reduction, target)],
                      10)[0].violations == ()
    # (c) a re-verified contradiction inside the correct parity interval
    # for every presented machine
    assert len(diag_result.witnesses) == 6
    for w in diag_result.witnesses:
        assert w.interval_start < len(w.word) < w.interval_end
        assert gap_member(diag_result.r, w.word) == (w.side == "even")
        a = parity if w.side == "even" else const_no
        pres = inst.pres_c if w.side == "even" else inst.pres_c_prime
        va = a.classify(w.word)
        vm = pres(w.machine_index).classify(w.word)
        committed_mismatch = (
            (va is Verdict.YES and vm is not Verdict.YES)
            or (va is Verdict.NO and vm is not Verdict.NO)
            or (vm is Verdict.YES and va is not Verdict.YES)
            or (vm is Verdict.NO and va is not Verdict.NO))
        assert committed_mismatch
    report(7, "diagonalization toy run", 60.0, started)


def test_criterion_8_ladner_holes(ladner_result):
    started = time.monotonic()
    parity = builtin("parity")
    assert ladner_result.reduction_to_a is not None
    assert karp_check(ladner_result.b,
                      [(ladner_result.reduction_to_a, parity)],
                      10)[0].violations == ()
    # an odd-interval word where the source problem answers Yes but the
    # constructed problem answers No
    limit, k = 0, 0
    while k % 2 == 0:
        limit = ladner_result.r.value(limit)
        k += 1
    hole = "0" * (limit - 1) + "1"
    assert not gap_member(ladner_result.r, hole)
    assert parity.classify(hole) is Verdict.YES
    assert ladner_result.b.classify(hole) is Verdict.NO
    report(8, "ladner reduction and holes", None, started)


def test_criterion_9_accounting_soundness(diag_result, ladner_result):
    started = time.monotonic()
    functions = [affine_costed(1, 1), affine_costed(2, 2),
                 diag_result.r, ladner_result.r]
    for r in functions:
        limit = 0
        while limit <= 64:
            value, cost = r.eval(limit)
            assert cost <= value
            assert value > limit
            limit = value
    report(9, "accounting soundness over criteria 6-8", None, started)


def test_criterion_10_roundtrips_and_enumerations():
    started = time.monotonic()
    rng = random.Random(1010)
    # machine roundtrips
    from test_tm import random_machine
    for _ in range(100):
        m = random_machine(rng)
        assert decode_godel(encode_godel(m)) == m
    # circuit roundtrips
    for _ in range(100):
        m = rng.choice((0, 0, 1, 2))
        circ = random_circuit(rng, witness_qubits=m)
        assert parse_circuit(encode_circuit(circ),
                             expect_witness_header=m > 0) == circ
    # polynomial series: injective prefix that hits the two targets
    forms = [poly_series(i).coefficients for i in range(500)]
    assert len(set(forms)) == 500
    assert (0, 0, 1) in forms and (3, 2) in forms
    # pairing bijection
    for _ in range(10_000):
        j, k = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
        assert unpair(pair(j, k)) == (j, k)
    report(10, "roundtrips and enumerations", None, started)
