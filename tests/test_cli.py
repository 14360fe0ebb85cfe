import argparse
import sys
import time
from collections import Counter

import pytest

from helpers_machines import (const_output_machine, fan_ptm,
                              identity_machine, parity_machine)
from helpers_values import word_to_index
from promiselab import cli, diagonal, enumeration, tm
from promiselab.circuit import Circuit, Gate, encode_circuit
from promiselab.cli import dispatch
from promiselab.enumeration import pair, triple
from promiselab.promise import TotalDecider, Verdict, builtin, karp_check
from promiselab.tm import encode_godel
from promiselab.words import words_up_to
# files is the golden cases' fixture, which writes their input files
from test_cli_golden import CASES, files  # noqa: F401

EXAMPLE_BITS = "01011010010110110111011010111"


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.tm"
    path.write_text(encode_godel(parity_machine()) + "\n")
    return str(path)


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.ptm"
    path.write_text(encode_godel(fan_ptm(1, 2)))
    return str(path)


@pytest.fixture
def example_circuit_file(tmp_path):
    path = tmp_path / "example.qc"
    path.write_text(EXAMPLE_BITS + "\n")
    return str(path)


@pytest.fixture
def h_generator_file(tmp_path):
    gen = const_output_machine("0101")
    path = tmp_path / "gen.tm"
    path.write_text(encode_godel(gen))
    return str(path)


class TestRunCommand:
    def test_parity_run(self, parity_file, capsys):
        code = dispatch(["run", "--machine", parity_file,
                         "--input", "101", "--fuel", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "halted\toutput=0\tsteps=4" in out

    def test_fuel_exhaustion_reported(self, parity_file, capsys):
        code = dispatch(["run", "--machine", parity_file,
                         "--input", "101", "--fuel", "2"])
        assert code == 0
        assert "fuel-exhausted\tsteps=2" in capsys.readouterr().out


class TestBranchesCommand:
    def test_coin_fractions(self, coin_file, capsys):
        code = dispatch(["branches", "--machine", coin_file,
                         "--input", "11", "--fuel", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1\t1\t2\t1/2\t1/2" in out


class TestSimulateCommand:
    def test_worked_example_listing(self, example_circuit_file, capsys):
        code = dispatch(["simulate", "--circuit", example_circuit_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "H q2; T q1; CNOT 2→3; CNOT 1→3" in out
        assert "p_acc" in out

    @pytest.fixture
    def malformed_circuit_file(self, tmp_path):
        path = tmp_path / "malformed.qc"
        path.write_text("0000\n")
        return str(path)

    def test_trivial_circuit_checks_input(self, malformed_circuit_file, capsys):
        code = dispatch(["simulate", "--circuit", malformed_circuit_file,
                         "--input", "01"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "basis input must be 1 bits" in captured.err

    def test_non_binary_input_is_usage_error(self, malformed_circuit_file,
                                             capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["simulate", "--circuit", malformed_circuit_file,
                      "--input", "01x"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a binary word, got '01x'" in captured.err

    def test_trivial_circuit_never_accepts(self, malformed_circuit_file, capsys):
        code = dispatch(["simulate", "--circuit", malformed_circuit_file,
                         "--input", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trivial: yes" in out
        assert "p_acc: 0/1 + 0/1*r + 0/1*i + 0/1*i*r  (~ 0.000000000000)" in out

    def test_identical_invocations_are_byte_identical(self, example_circuit_file,
                                                      capsys):
        dispatch(["simulate", "--circuit", example_circuit_file])
        first = capsys.readouterr().out
        dispatch(["simulate", "--circuit", example_circuit_file])
        second = capsys.readouterr().out
        assert first == second


class TestDecideCommand:
    def test_single_h_is_outside(self, h_generator_file, capsys):
        code = dispatch(["decide", "bqp", "--gen", h_generator_file,
                         "--input", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "outside-promise"

    def test_threshold_flags(self, h_generator_file, capsys):
        code = dispatch(["decide", "bqp", "--gen", h_generator_file,
                         "--input", "1", "--c", "1/2", "--s", "1/3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_gen_runtime_trailing_zero_coefficients_are_dropped(
            self, h_generator_file, capsys):
        outputs = []
        for runtime in ("8,1,0", "8,1"):
            assert dispatch(["decide", "bqp", "--gen", h_generator_file,
                             "--input", "1", "--gen-runtime", runtime]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == ["outside-promise\n"] * 2

    def test_gen_runtime_bounds_the_generator(self, h_generator_file, capsys):
        # the generator needs |x| + 4 = 5 steps; 2 + n gives it 3
        assert dispatch(["decide", "bqp", "--gen", h_generator_file,
                         "--input", "1", "--gen-runtime", "2,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "GeneratorFuelExhausted" in captured.err

    @pytest.mark.parametrize("runtime", ["1,-1", "x"])
    def test_bad_gen_runtime_is_usage_error(self, runtime, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["decide", "bqp", "--gen", "g.tm", "--input", "1",
                      "--gen-runtime", runtime])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad polynomial {runtime!r}" in captured.err


class TestClassifyCommand:
    def test_builtin(self, capsys):
        assert dispatch(["classify", "--problem", "builtin:parity",
                         "--input", "101"]) == 0
        assert capsys.readouterr().out.strip() == "no"

    def test_empty_word(self, capsys):
        assert dispatch(["classify", "--problem", "builtin:len-even",
                         "--input", ""]) == 0
        assert capsys.readouterr().out == "yes\n"

    def test_machine_backed(self, parity_file, capsys):
        assert dispatch(["classify", "--problem", f"machine:{parity_file}",
                         "--input", "011"]) == 0
        assert capsys.readouterr().out.strip() == "no"

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # the identity machine outputs its input, which is not a verdict
        path = tmp_path / "id.tm"
        path.write_text("10101000")
        code = dispatch(["classify", "--problem", f"machine:{path}",
                         "--input", "11"])
        err = capsys.readouterr().err
        assert code == 1
        assert "NotTotalDecider" in err

    def test_missing_file_is_domain_error(self, capsys):
        code = dispatch(["classify", "--problem", "machine:/nonexistent",
                         "--input", "1"])
        assert code == 1


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_problem_reference(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["classify", "--problem", "bogus", "--input", "1"])
        assert exc.value.code == 2

    def test_unknown_builtin_problem(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["classify", "--problem", "builtin:bogus", "--input", "1"])
        assert exc.value.code == 2
        assert "unknown builtin problem 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["classify", "--problem", "builtin:parity", "--input", "abc"],
        ["gaplang", "--r", "succ", "--member", "xyz"],
    ])
    def test_non_binary_word(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected a binary word, got '{argv[-1]}'" in captured.err

    @pytest.mark.parametrize("command", [
        ["run", "--machine"], ["branches", "--machine"], ["decide", "bqp", "--gen"]])
    def test_non_binary_machine_input(self, tmp_path, command, capsys):
        # the empty file is the trivial machine, which reads no input
        path = tmp_path / "empty.tm"
        path.write_text("")
        argv = [*command, str(path), "--input"]
        with pytest.raises(SystemExit) as exc:
            dispatch([*argv, "a2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a binary word, got 'a2'" in captured.err
        assert dispatch([*argv, ""]) == 0

    def test_unknown_builtin_in_presentation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["ladner", "--a", "builtin:parity",
                      "--pres", "builtins:const-yes,bogus"])
        assert exc.value.code == 2
        assert "unknown builtin problem 'bogus'" in capsys.readouterr().err


class TestNumericUsageErrors:
    @pytest.mark.parametrize("spec, reason", [
        ("affine:x:1", "invalid literal for int() with base 10: 'x'"),
        ("affine:0:0", "need slope >= 1 and offset >= 1"),
    ])
    def test_bad_affine_gap_function(self, spec, reason, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["gaplang", "--r", spec, "--member", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"bad gap function spec {spec!r} ({reason}); " \
            "use succ or affine:<a>:<b>" in err
        assert "_r_spec" not in err

    @pytest.mark.parametrize("argv", [
        ["enumerate", "p", "0", "--max-len", "-2"],
        ["gaplang", "--r", "succ", "--table", "-1"],
        ["ladner", "--a", "builtin:parity", "--pres", "builtins:const-yes",
         "--bound", "-1", "--table", "-1"],
        ["ladner", "--a", "builtin:parity", "--pres", "builtins:const-yes",
         "--table", "-1"],
        ["diagonalize", "--a", "builtin:parity", "--a-pres", "builtins:const-yes",
         "--aprime", "builtin:const-no", "--aprime-pres", "builtins:parity",
         "--bound", "-1"],
        ["diagonalize", "--a", "builtin:parity", "--a-pres", "builtins:const-yes",
         "--aprime", "builtin:const-no", "--aprime-pres", "builtins:parity",
         "--table", "x"],
    ])
    def test_negative_length_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a non-negative integer" in captured.err

    @pytest.mark.parametrize("argv, expected", [
        (["run", "--machine", "m.tm", "--fuel", "-1"], "a non-negative"),
        (["branches", "--machine", "m.ptm", "--fuel", "-1"], "a non-negative"),
        (["enumerate", "p", "-1"], "a non-negative"),
        (["ladner", "--a", "builtin:parity", "--pres", "builtins:const-yes",
          "--witnesses", "-1"], "a non-negative"),
        (["ladner", "--a", "builtin:parity", "--pres", "builtins:const-yes",
          "--search-cap", "-5"], "a positive"),
        (["diagonalize", "--a", "builtin:parity", "--a-pres", "builtins:const-yes",
          "--aprime", "builtin:const-no", "--aprime-pres", "builtins:parity",
          "--witnesses", "-1"], "a non-negative"),
        (["diagonalize", "--a", "builtin:parity", "--a-pres", "builtins:const-yes",
          "--aprime", "builtin:const-no", "--aprime-pres", "builtins:parity",
          "--search-cap", "0"], "a positive"),
    ])
    def test_negative_count_is_usage_error(self, argv, expected, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected {expected} integer, got '{argv[-1]}'" in captured.err

    def test_zero_length_is_accepted(self, capsys):
        assert dispatch(["enumerate", "p", "0", "--max-len", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "(empty)\tno"


class TestGaplangCommand:
    def test_succ_member_odd_length_is_false(self, capsys):
        assert dispatch(["gaplang", "--r", "succ", "--member", "101"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_succ_member_even_length_is_true(self, capsys):
        assert dispatch(["gaplang", "--r", "succ", "--member", "11"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_affine_table(self, capsys):
        assert dispatch(["gaplang", "--r", "affine:2:2", "--table", "14"]) == 0
        out = capsys.readouterr().out
        assert "start\tend\tmember" in out
        assert "0\t2\ttrue" in out
        assert "2\t6\tfalse" in out
        assert "6\t14\ttrue" in out


class TestEnumerateCommand:
    def test_p_family_table(self, capsys):
        assert dispatch(["enumerate", "p", "0", "--max-len", "2"]) == 0
        out = capsys.readouterr().out
        assert "word\tverdict" in out
        assert "(empty)\tno" in out

    def test_unknown_family_is_domain_error(self, capsys):
        code = dispatch(["enumerate", "martians", "0"])
        assert code == 1

    def test_unknown_family_lists_every_family(self, capsys):
        assert dispatch(["enumerate", "martians", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ValueError: unknown family 'martians'; known: p, np, "
            "polyfunc, promisebpp, promisema, bqp, qcma, qma\n")

    @pytest.mark.parametrize("argv, error", [
        (["enumerate", "martians", "0", "--max-len", "17"],
         "CapExceeded: --max-len 17 exceeds cap 16"),
        (["--config", "{config}", "enumerate", "martians", "8"],
         "CapExceeded: enumeration index must be a natural of at most 3 bits"),
    ])
    def test_caps_are_checked_before_the_family_name(self, argv, error,
                                                     tmp_path, capsys):
        config = tmp_path / "small.conf"
        config.write_text("max-enum-index-bits = 3\n")
        assert dispatch([arg.format(config=config) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"


    def test_verdict_raising_partway_through_a_length(self, tmp_path, capsys):
        # the identity generator's circuit is the word itself: "01011" is
        # the first word that needs two qubits, so the table ends on the
        # lines of length 5 before it
        config = tmp_path / "one-qubit.conf"
        config.write_text("max-qubits = 1\n")
        index = pair(word_to_index(encode_godel(identity_machine())), 1 << 99)
        assert dispatch(["--config", str(config), "enumerate", "bqp",
                         str(index), "--max-len", "8"]) == 1
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[2:]
        assert [row.split("\t")[0] for row in rows] == \
            ["(empty)", *list(words_up_to(5))[1:word_to_index("01011")]]
        assert captured.err == "error: DimensionCap: 2 qubits exceed cap 1\n"


class TestFamilyPresentations:
    LADNER = ["ladner", "--a", "builtin:parity", "--bound", "2", "--table", "2",
              "--witnesses", "1", "--search-cap", "64"]

    def test_family_name_ignores_case(self, capsys):
        outputs = []
        for spec in ("family:P", "family:p"):
            assert dispatch(self.LADNER + ["--pres", spec]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("spec", ["family:polyfunc", "family:martians",
                                      "family:"])
    def test_non_decider_family_is_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(self.LADNER + ["--pres", spec])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad presentation spec {spec!r}" in captured.err


class TestDiagonalizeCommand:
    def test_toy_run_emits_all_sections(self, capsys):
        code = dispatch([
            "diagonalize",
            "--a", "builtin:parity",
            "--a-pres", "builtins:const-yes,const-no,len-even",
            "--aprime", "builtin:const-no",
            "--aprime-pres", "builtins:const-yes,parity,ones-promise",
            "--bound", "6", "--table", "12",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for section in ("## r-table", "## intervals", "## witnesses",
                        "## reduction-check"):
            assert section in out
        final = out.strip().splitlines()[-1]
        checked, violations = final.split("\t")
        assert violations == "0"

    def test_ladner_run(self, capsys):
        code = dispatch([
            "ladner",
            "--a", "builtin:parity",
            "--pres", "builtins:const-yes,const-no,len-even",
            "--bound", "6", "--table", "8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "## reduction-to-a" in out
        final = out.strip().splitlines()[-1]
        assert final.split("\t")[1] == "0"

    def test_ladner_needs_a_no_instance_of_a(self, capsys):
        code = dispatch(["ladner", "--a", "builtin:const-yes",
                         "--pres", "builtins:const-no"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            "error: NoInstanceOfA: no no-instance of const-yes within ")

    def test_ladner_spot_checks_through_shared_report(self, capsys,
                                                      monkeypatch):
        # the report works out both checks from the result, and runs them
        # in one walk: the reduction into the marked union with const-no,
        # and the one into a
        calls, results = [], []
        construct = diagonal.ladner

        def spy(a, checks, bound, config):
            calls.append((a, [(f, b.tag) for f, b in checks], bound))
            return karp_check(a, checks, bound, config=config)

        monkeypatch.setattr(cli, "karp_check", spy)
        monkeypatch.setattr(diagonal, "ladner", lambda *args, **kwargs:
                            results.append(construct(*args, **kwargs))
                            or results[-1])
        code = dispatch(["ladner", "--a", "builtin:parity",
                         "--pres", "builtins:const-yes,const-no,len-even",
                         "--bound", "8"])
        out = capsys.readouterr().out
        assert code == 0
        (result,) = results
        assert result.b.tag == "diag(parity;const-no)"
        assert calls == [(result.b, [
            (result.reduction, "(parity)(+)(const-no)"),
            (result.reduction_to_a, "parity")], 8)]
        assert out.split("\n\n")[-2:] == [
            "## reduction-check\nchecked\tviolations\n511\t0",
            "## reduction-to-a\nchecked\tviolations\n511\t0\n"]


class TestConstructionWorkCounts:
    """One invocation classifies each word under a problem at most once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        parity = builtin("parity")

        def counted(x: str) -> Verdict:
            counts[x] += 1
            return parity.classify(x)

        def lookup(name: str) -> TotalDecider:
            if name == "parity":
                return TotalDecider("parity", fn=counted)
            return builtin(name)

        monkeypatch.setattr(cli, "builtin", lookup)
        return counts

    @pytest.mark.parametrize("argv", [
        ["ladner", "--a", "builtin:parity",
         "--pres", "builtins:const-yes,const-no,len-even"],
        ["diagonalize", "--a", "builtin:parity",
         "--a-pres", "builtins:const-yes,const-no,len-even",
         "--aprime", "builtin:const-no",
         "--aprime-pres", "builtins:const-yes,ones-promise"],
    ], ids=["ladner", "diagonalize"])
    def test_each_word_classified_once(self, argv, counts, capsys):
        # the construction and both spot-checks over all words up to 8
        assert dispatch(argv + ["--bound", "8"]) == 0
        assert "violations\n511\t0\n" in capsys.readouterr().out
        assert set(words_up_to(8)) <= set(counts)
        assert set(counts.values()) == {1}

    @pytest.mark.parametrize("argv, scanned", [
        (["ladner", "--a", "builtin:parity",
          "--pres", "builtins:const-yes,const-no,len-even"], 1),
        (["diagonalize", "--a", "builtin:parity",
          "--a-pres", "builtins:const-yes,const-no,len-even",
          "--aprime", "builtin:const-no",
          "--aprime-pres", "builtins:const-yes,ones-promise"], 0),
    ], ids=["ladner", "diagonalize"])
    def test_loops_call_verdict_maps_and_look_each_length_up_once(
            self, argv, scanned, monkeypatch, capsys):
        # the walk, the mixer, marked_union, find_contradiction and the
        # harder set call verdict maps directly; classify is entered only
        # for the witness log (a's and the machine's verdict of each of
        # 2 x 3 witnesses) and, in ladner, the scan for a no-instance of
        # parity, which stops at the empty word
        callers, lengths = Counter(), Counter()
        classify, interval = TotalDecider.classify, diagonal.GapLimits.interval

        def counted_classify(decider, x: str) -> Verdict:
            callers[sys._getframe(1).f_code.co_name] += 1
            return classify(decider, x)

        def counted_interval(gaps, length: int) -> int:
            lengths[length] += 1
            return interval(gaps, length)

        monkeypatch.setattr(TotalDecider, "classify", counted_classify)
        monkeypatch.setattr(diagonal.GapLimits, "interval", counted_interval)
        assert dispatch(argv + ["--bound", "8"]) == 0
        assert "violations\n511\t0\n" in capsys.readouterr().out
        assert callers == Counter({"_witness_for": 12, "<genexpr>": scanned})
        assert lengths == Counter(range(9))


    def test_machine_backed_spot_check_walks_each_length_once(
            self, parity_file, monkeypatch, capsys):
        # every length up to 8 lies in the first, even interval, so the
        # spot-checks take all of a's verdicts from its walks; the
        # construction's own words still run one at a time before them
        walked, run_in_check, checking = Counter(), Counter(), [False]
        walk, run, check = tm.walk, tm.run, cli.karp_check

        def counted_walk(m, n: int, fuel: int):
            walked[n] += 1
            return walk(m, n, fuel)

        def counted_run(m, inputs, fuel: int):
            if checking[0]:
                run_in_check[tuple(inputs)] += 1
            return run(m, inputs, fuel)

        def flagged_check(*args, **kwargs):
            checking[0] = True
            try:
                return check(*args, **kwargs)
            finally:
                checking[0] = False

        monkeypatch.setattr(tm, "walk", counted_walk)
        monkeypatch.setattr(tm, "run", counted_run)
        monkeypatch.setattr(cli, "karp_check", flagged_check)
        assert dispatch(["ladner", "--a", f"machine:{parity_file}",
                         "--pres", "builtins:const-yes,const-no,len-even",
                         "--bound", "8"]) == 0
        assert capsys.readouterr().out.count("violations\n511\t0\n") == 2
        assert walked == Counter(range(9))
        assert run_in_check == Counter()

    @pytest.mark.parametrize("argv, built", [
        (["ladner", "--a", "builtin:parity", "--pres", "family:p",
          "--bound", "14"], 290),
        (["diagonalize", "--a", "builtin:parity", "--a-pres", "family:p",
          "--aprime", "builtin:const-no",
          "--aprime-pres", "builtins:const-yes,parity", "--bound", "10"], 218),
    ], ids=["ladner", "diagonalize"])
    def test_each_presented_decider_built_once(self, argv, built, monkeypatch,
                                               capsys):
        # r's evaluations, the witness log and, in ladner, the harder set's
        # oracles all ask for the same indices
        indices = []
        present = enumeration.class_presentation

        def spy(family, i, config):
            indices.append(i)
            return present(family, i, config)

        monkeypatch.setattr(enumeration, "class_presentation", spy)
        assert dispatch(argv) == 0
        assert capsys.readouterr().out.endswith("\t0\n")
        assert len(indices) == len(set(indices)) == built


class TestEnumerateWorkCounts:
    """Series deciders of the trivial machine answer without running it,
    and a P machine's decider walks it once per length."""

    # index 2^99 of the polynomial series is the constant clock 100, and
    # machine index 0 decodes to the trivial machine
    CLOCK = 1 << 99

    @pytest.fixture
    def runs(self, monkeypatch):
        """Machine work: tm.run calls by their number of inputs, and
        tm.walk calls by their number of unread cells."""
        runs = Counter()
        run, walk = tm.run, tm.walk

        def counted_run(machine, inputs, fuel):
            runs["run", len(inputs)] += 1
            return run(machine, inputs, fuel)

        def counted_walk(machine, n, fuel, start=""):
            runs["walk", n] += 1
            return walk(machine, n, fuel, start)

        monkeypatch.setattr(tm, "run", counted_run)
        monkeypatch.setattr(tm, "walk", counted_walk)
        return runs

    def _enumerate(self, family: str, i: int, capsys) -> str:
        assert dispatch(["enumerate", family, str(i), "--max-len", "10"]) == 0
        return capsys.readouterr().out

    def test_trivial_p_machine_never_runs(self, runs, capsys):
        out = self._enumerate("p", pair(0, self.CLOCK), capsys)
        assert out.count("\tno\n") == 2047
        assert runs == {}

    def test_trivial_np_verifier_never_runs(self, runs, capsys):
        # only the witness-length machine runs, once per length
        length = triple(word_to_index(encode_godel(identity_machine())),
                        self.CLOCK, self.CLOCK)
        out = self._enumerate("np", triple(0, self.CLOCK, length), capsys)
        assert out.count("\tno\n") == 2047
        assert runs == {("run", 1): 11}

    def test_machine_walks_once_per_length(self, runs, capsys):
        parity = word_to_index(encode_godel(parity_machine()))
        self._enumerate("p", pair(parity, self.CLOCK), capsys)
        # P is NP at witness length 0: one walk answers all the words of
        # a length, sharing the steps before they differ
        assert runs == {("walk", n): 1 for n in range(11)}


class TestDecideWitnessClasses:
    @pytest.fixture
    def copy_generator_file(self, tmp_path):
        circ = Circuit((Gate("CNOT", (2, 1)),), witness_qubits=1)
        path = tmp_path / "copygen.tm"
        path.write_text(encode_godel(const_output_machine(encode_circuit(circ))))
        return str(path)

    def test_qcma(self, copy_generator_file, capsys):
        assert dispatch(["decide", "qcma", "--gen", copy_generator_file,
                         "--input", "0"]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_qma(self, copy_generator_file, capsys):
        assert dispatch(["decide", "qma", "--gen", copy_generator_file,
                         "--input", "0"]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_qma_no_instance_at_the_witness_cap(self, tmp_path, capsys):
        # H, T, H on the output qubit q1 and a 4-qubit witness register on
        # q2..q5 (the T on q5 only places it there): Q = (2 - sqrt2)/4 * I,
        # top eigenvalue 0.146 < 1/3.  sI - Q is definite, so its 16
        # leading minors decide without the 65,535 principal minors.
        start = time.perf_counter()
        circ = Circuit((Gate("H", (1,)), Gate("T", (1,)), Gate("H", (1,)),
                        Gate("T", (5,))), witness_qubits=4)
        gen = tmp_path / "capgen.tm"
        gen.write_text(encode_godel(const_output_machine(encode_circuit(circ))))
        assert dispatch(["decide", "qma", "--gen", str(gen),
                         "--input", "0"]) == 0
        assert capsys.readouterr().out.strip() == "no"
        assert time.perf_counter() - start < 1.0


def _config_file(tmp_path, text: str) -> str:
    path = tmp_path / "lab.cfg"
    path.write_text(text)
    return str(path)


class TestConfiguredCaps:
    @pytest.mark.parametrize("problem_class,circ", [
        ("bqp", Circuit((Gate("H", (3,)),))),
        ("qcma", Circuit((Gate("CNOT", (3, 1)),), witness_qubits=1)),
        ("qma", Circuit((Gate("CNOT", (3, 1)),), witness_qubits=1)),
    ])
    def test_decide_honours_max_qubits(self, tmp_path, problem_class, circ,
                                       capsys):
        gen = tmp_path / "gen.tm"
        gen.write_text(encode_godel(const_output_machine(encode_circuit(circ))))
        cfg = _config_file(tmp_path, "max-qubits = 2\n")
        code = dispatch(["--config", cfg, "decide", problem_class,
                         "--gen", str(gen), "--input", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "DimensionCap" in captured.err

    def test_machine_problem_runs_under_default_fuel(self, tmp_path,
                                                     parity_file, capsys):
        cfg = _config_file(tmp_path, "default-fuel = 2\n")
        code = dispatch(["--config", cfg, "classify",
                         "--problem", f"machine:{parity_file}",
                         "--input", "011"])
        assert code == 1
        assert "NotTotalDecider" in capsys.readouterr().err

    @pytest.mark.parametrize("config_text,extra", [
        ("max-qubits = 2\n", []),
        ("", ["--input", "01"]),
    ])
    def test_failed_simulate_prints_nothing(self, tmp_path, example_circuit_file,
                                            config_text, extra, capsys):
        cfg = _config_file(tmp_path, config_text)
        code = dispatch(["--config", cfg, "simulate",
                         "--circuit", example_circuit_file] + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_branches_honours_max_branch_configs(self, tmp_path, coin_file,
                                                 capsys):
        # the coin walks over "11" and branches: three configuration steps
        argv = ["branches", "--machine", coin_file, "--input", "11"]
        code = dispatch(["--config", _config_file(
            tmp_path, "max-branch-configs = 2\n")] + argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "CapExceeded" in captured.err
        assert dispatch(["--config", _config_file(
            tmp_path, "max-branch-configs = 3\n")] + argv) == 0
        assert "1\t1\t2\t1/2\t1/2" in capsys.readouterr().out

    def test_enumerate_word_length_cap(self, capsys):
        code = dispatch(["enumerate", "p", "0", "--max-len", "30"])
        assert code == 1
        assert "CapExceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ladner", "--a", "builtin:parity",
         "--pres", "builtins:const-yes,len-even"],
        ["diagonalize", "--a", "builtin:parity",
         "--a-pres", "builtins:const-yes,len-even",
         "--aprime", "builtin:const-no", "--aprime-pres", "builtins:parity"],
    ], ids=["ladner", "diagonalize"])
    def test_spot_check_bound_honours_max_word_length(self, argv, capsys):
        code = dispatch(argv + ["--bound", "17"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "CapExceeded" in captured.err

    def test_raised_max_word_length_admits_the_bound(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, "max-word-length = 17\n")
        code = dispatch(["--config", cfg, "ladner", "--a", "builtin:parity",
                         "--pres", "builtins:const-yes,len-even",
                         "--bound", "17"])
        assert code == 0
        assert capsys.readouterr().out.endswith("262143\t0\n")

    def test_run_uses_default_fuel_from_config(self, tmp_path, parity_file,
                                               capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("default-fuel = 2\n")
        code = dispatch(["--config", str(cfg), "run",
                         "--machine", parity_file, "--input", "101"])
        assert code == 0
        assert "fuel-exhausted\tsteps=2" in capsys.readouterr().out


class TestConfigFile:
    def test_thresholds_from_file(self, tmp_path, h_generator_file, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("threshold-c = 1/2\nthreshold-s = 1/4\n")
        code = dispatch(["--config", str(cfg), "decide", "bqp",
                         "--gen", h_generator_file, "--input", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_flags_override_file(self, tmp_path, h_generator_file, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("threshold-c = 1/2\n")
        code = dispatch(["--config", str(cfg), "decide", "bqp",
                         "--gen", h_generator_file, "--input", "1",
                         "--c", "2/3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "outside-promise"

    def test_unparsable_value_is_domain_error(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, "threshold-c = 1/0\n")
        code = dispatch(["--config", cfg, "classify",
                         "--problem", "builtin:parity", "--input", "1"])
        assert code == 1
        assert f"{cfg}:1: " in capsys.readouterr().err

    def test_c_below_s_same_error_from_flag_and_file(self, tmp_path,
                                                     h_generator_file, capsys):
        argv = ["decide", "bqp", "--gen", h_generator_file, "--input", "1"]
        assert dispatch(argv + ["--c", "1/4"]) == 1
        from_flag = capsys.readouterr().err
        cfg = _config_file(tmp_path, "threshold-c = 1/4\n")
        assert dispatch(["--config", cfg] + argv) == 1
        from_file = capsys.readouterr().err
        # the file's error is the flag's, located at the file's line
        assert from_file == from_flag.replace("ValueError: ",
                                              f"ValueError: {cfg}:1: ")
        assert "threshold c must be at least s" in from_flag

    @pytest.mark.parametrize("text,located", [
        ("# caps\nmax-qubits = 0\n", ":2: max_qubits must be at least 1"),
        ("default-fuel = -3\n", ":1: default_fuel must be at least 1"),
        ("threshold-s = 1/2\nmax-qubits = 3\nthreshold-c = 1/4\n",
         ":3: threshold c must be at least s"),
    ])
    def test_out_of_range_value_names_file_and_line(self, tmp_path, text,
                                                    located, capsys):
        cfg = _config_file(tmp_path, text)
        code = dispatch(["--config", cfg, "classify",
                         "--problem", "builtin:parity", "--input", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{cfg}{located}" in captured.err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("frobnication = 9\n")
        code = dispatch(["--config", str(cfg), "classify",
                         "--problem", "builtin:parity", "--input", "1"])
        assert code == 1
        assert "frobnication" in capsys.readouterr().err


class TestParserWork:
    """A plain invocation is read from the subcommand table and builds no
    argparse parser; help and usage errors still go through argparse."""

    @pytest.fixture
    def parsers(self, monkeypatch) -> Counter:
        built = Counter()
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built["parsers"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return built

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_golden_invocation_builds_none(self, command, files, parsers,
                                           capsys):
        argv = [arg.format_map(files) for arg in CASES[command][0]]
        assert dispatch(argv) == 0
        assert parsers["parsers"] == 0

    def test_leading_config_builds_none(self, tmp_path, parity_file, parsers,
                                        capsys):
        cfg = _config_file(tmp_path, "default-fuel = 3\n")
        assert dispatch(["--config", cfg, "run", "--machine", parity_file,
                         "--input", "1011"]) == 0
        assert capsys.readouterr().out == "fuel-exhausted\tsteps=3\n"
        assert parsers["parsers"] == 0

    @pytest.mark.parametrize("argv,code", [
        (["run"], 2), (["run", "--machine", "m", "--fuel", "-1"], 2),
        (["--help"], 0), (["run", "--help"], 0)])
    def test_help_and_usage_errors_build_parsers(self, argv, code, parsers,
                                                 capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == code
        assert parsers["parsers"] > 0

    def test_abbreviated_option_is_left_to_argparse(self, parity_file,
                                                     parsers, capsys):
        assert dispatch(["run", "--machine", parity_file, "--inp", "1011"]) == 0
        assert capsys.readouterr().out == "halted\toutput=1\tsteps=5\n"
        assert parsers["parsers"] > 0


class TestConsoleScript:
    """main() reads its arguments from sys.argv."""

    def test_same_stdout_as_dispatch(self, parity_file, monkeypatch, capsys):
        argv = ["run", "--machine", parity_file, "--input", "1011"]
        assert dispatch(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["promiselab", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected

    def test_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["promiselab", "run"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2
        assert "the following arguments are required: --machine" in \
            capsys.readouterr().err
