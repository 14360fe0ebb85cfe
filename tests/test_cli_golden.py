"""Byte-exact stdout of one invocation of every subcommand, and of
`enumerate` on each machine family.

Each case runs at the default configuration on input files written from
the hand-built machines, and compares the SHA-256 of its stdout with a
recorded digest.  A refactoring that changes no behaviour leaves every
digest as it is; a deliberate change of output has to re-record them.
The help texts and the usage errors are pinned the same way, at a fixed
80-column width, so a rewrite of the argument parser shows any change.
"""

import hashlib

import pytest

from helpers_machines import (const_output_machine, erase_left_machine,
                              fan_ptm, identity_machine, last_bits_machine,
                              parity_machine, prepend_zero_machine,
                              witness_equals_one_ptm)
from helpers_values import word_to_index
from promiselab.circuit import Circuit, Gate, encode_circuit
from promiselab.cli import dispatch
from promiselab.enumeration import pair, poly_series, triple
from promiselab.tm import encode_godel

SIMULATED = Circuit((Gate("H", (2,)), Gate("T", (1,)), Gate("CNOT", (2, 3)),
                     Gate("H", (1,)), Gate("CNOT", (3, 1))))
# two witness qubits, one of which drives the output through a Hadamard
DECIDED = Circuit((Gate("H", (1,)), Gate("CNOT", (3, 1)), Gate("T", (2,)),
                   Gate("CNOT", (2, 1))), witness_qubits=2)
# two witness qubits whose operator has complex off-diagonal entries: a
# superposed witness reaches 2/3, no basis witness leaves (1/3, 2/3)
ENTANGLED = Circuit((Gate("H", (2,)), Gate("CNOT", (2, 1)), Gate("T", (3,)),
                     Gate("H", (3,)), Gate("CNOT", (3, 1))), witness_qubits=2)

# Series indices of hand-built machines.  Index 2^99 of the polynomial
# series is the constant 100, a clock every machine here keeps; the
# witness length of np and promisema is min(n, 100) = |x|, the numeral
# that the identity machine returns.  witness_equals_one_ptm branches
# nowhere, so its encoding is also a deterministic verifier.
CLOCK = 1 << 99
WITNESS_LENGTH = triple(word_to_index(encode_godel(identity_machine())),
                        CLOCK, CLOCK)
VERIFIER = word_to_index(encode_godel(witness_equals_one_ptm()))
# reads every witness cell, and accepts iff x and the witness end in 1
EVERY_CELL = word_to_index(encode_godel(last_bits_machine()))
# Machine index 0 decodes to the trivial machine.  Under the witness
# length min(16, 7n) its np decider passes the witness cap at length 2.
TRIVIAL = pair(0, CLOCK)
SEVEN_N = next(i for i in range(200) if poly_series(i).coefficients == (0, 7))
WIDE = triple(word_to_index(encode_godel(const_output_machine("10000"))),
              CLOCK, SEVEN_N)


def _clocked(machine) -> str:
    return str(pair(word_to_index(encode_godel(machine)), CLOCK))


def _generator(circuit: Circuit) -> str:
    return _clocked(const_output_machine(encode_circuit(circuit)))


@pytest.fixture
def files(tmp_path):
    contents = {
        "parity": encode_godel(parity_machine()) + "\n",
        "eraser": encode_godel(erase_left_machine()),
        "fan": encode_godel(fan_ptm(2, 3)),
        "circuit": encode_circuit(SIMULATED) + "\n",
        "gen": encode_godel(const_output_machine(encode_circuit(DECIDED))),
        "simgen": encode_godel(const_output_machine(encode_circuit(SIMULATED))),
        "entgen": encode_godel(const_output_machine(encode_circuit(ENTANGLED))),
    }
    paths = {}
    for name, text in contents.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


CASES = {
    "run": (["run", "--machine", "{parity}", "--input", "1011"],
            "00e0ae47f4c73c6b40dc4b9ad1602e98c1f9ca4400230ef3a9ce4df05f4e84bd"),
    # past cell 0 to the left, over cells it blanked
    "run left": (["run", "--machine", "{eraser}", "--input", "0110"],
                 "65a55c29a151aee5a6d5c398759cf2ff681a16967952bfafb9c9a503c30570c9"),
    "run two inputs": (["run", "--machine", "{eraser}", "--input", "101",
                        "--input", "11"],
                       "2bf1ae7d89ab2cb2f1304fee90a03703b9be4ce71fda080805c990575491142c"),
    "run fuel": (["run", "--machine", "{parity}", "--input", "1011",
                  "--fuel", "3"],
                 "784e5aa67cead9671bc1503ee401c4bea05c87cfd8bf724dc4a716c69f7fa08b"),
    "branches": (["branches", "--machine", "{fan}", "--input", "01"],
                 "dc52756717ff026f6875b5301b03b217e4584c66911bff1c482be07374f59220"),
    "simulate": (["simulate", "--circuit", "{circuit}"],
                 "b5881583c438fb0f460b10edc5913c62ad4c3503ac154eae0a9a545484940b4a"),
    "decide": (["decide", "qma", "--gen", "{gen}", "--input", "0"],
               "1cb8a342a530a0d3ef82e2f007b5e9241992a48e6976a657014f73b6474ac9fe"),
    "decide bqp": (["decide", "bqp", "--gen", "{simgen}", "--input", "0"],
                   "1cb8a342a530a0d3ef82e2f007b5e9241992a48e6976a657014f73b6474ac9fe"),
    "decide qcma": (["decide", "qcma", "--gen", "{gen}", "--input", "0"],
                    "1cb8a342a530a0d3ef82e2f007b5e9241992a48e6976a657014f73b6474ac9fe"),
    "decide qcma yes": (["decide", "qcma", "--gen", "{gen}", "--input", "01",
                         "--c", "1/2"],
                        "5040625b1fb6fa4af07226683f6e6003b29e5e70b16f8cfb24be7a752393f0ee"),
    "decide qcma quantum witness": (["decide", "qcma", "--gen", "{entgen}",
                                     "--input", "0"],
                                    "1cb8a342a530a0d3ef82e2f007b5e9241992a48e6976a657014f73b6474ac9fe"),
    "decide qcma no": (["decide", "qcma", "--gen", "{gen}", "--input", "0",
                        "--s", "1/2"],
                       "564739ea8fa5926d4fa5c9734fed462061960a22e6b8d5c06e94969d97891bf2"),
    "decide qma yes": (["decide", "qma", "--gen", "{entgen}", "--input", "0"],
                       "5040625b1fb6fa4af07226683f6e6003b29e5e70b16f8cfb24be7a752393f0ee"),
    "decide qma no": (["decide", "qma", "--gen", "{entgen}", "--input", "0",
                       "--c", "1", "--s", "1"],
                      "564739ea8fa5926d4fa5c9734fed462061960a22e6b8d5c06e94969d97891bf2"),
    "classify": (["classify", "--problem", "machine:{parity}",
                  "--input", "0111"],
                 "5040625b1fb6fa4af07226683f6e6003b29e5e70b16f8cfb24be7a752393f0ee"),
    "enumerate": (["enumerate", "promisebpp", "113102", "--max-len", "3"],
                  "ff59e87813c932efb7e0d6ca8bae92b0fcd3d3b83b2826110df35b42e3cc3cd2"),
    "enumerate p": (["enumerate", "p", _clocked(parity_machine()),
                     "--max-len", "3"],
                    "8a0d48d03c6505e9be3aedf2624600db5a995987af0fcf32d241458adac08476"),
    # one walk per length answers every word of it
    "enumerate p walk": (["enumerate", "p", _clocked(parity_machine()),
                          "--max-len", "10"],
                         "92012ad2a0f58fb649fb44f51ec938f60b8d16d19422ed8ab1df5490cd539439"),
    # the trivial machine and generator, which their deciders never run
    "enumerate p trivial": (["enumerate", "p", str(TRIVIAL), "--max-len", "4"],
                            "f9b6335e3667d456858c4392cba4199cda1baf0ac307dad9d095d9520a836167"),
    "enumerate np trivial": (["enumerate", "np",
                              str(triple(0, CLOCK, WITNESS_LENGTH)),
                              "--max-len", "4"],
                             "c6dd2599d40ac0012615e530a7287d83b3bc322d9478942cd8a0b5c1d2b75218"),
    "enumerate bqp trivial": (["enumerate", "bqp", str(TRIVIAL),
                               "--max-len", "4"],
                              "a25051be7f6717affec3aa161741a54a8e8c130fabcd2f68530c512ac33bd035"),
    "enumerate np": (["enumerate", "np",
                      str(triple(VERIFIER, CLOCK, WITNESS_LENGTH)),
                      "--max-len", "3"],
                     "bc2d4326a6127fd287d351febe67e4e48f27e2169b99075da53aa2b7c8e8e463"),
    # the yes-instances are the words that end in 1
    "enumerate np every cell": (["enumerate", "np",
                                 str(triple(EVERY_CELL, CLOCK, WITNESS_LENGTH)),
                                 "--max-len", "6"],
                                "1e0352446d042ebee45d30e2093ee00625c6773bc4f104cf24bd6b610e374f05"),
    "enumerate polyfunc": (["enumerate", "polyfunc",
                            _clocked(prepend_zero_machine()), "--max-len", "3"],
                           "65d134407706668992bd932af0597604306dcbe81c1d4cebd2a6286d184c1caa"),
    "enumerate promisema": (["enumerate", "promisema",
                             str(triple(VERIFIER, CLOCK, WITNESS_LENGTH)),
                             "--max-len", "3"],
                            "aeae2102f4b6079839dd244d2cbdce02a604c01333510efec775e98c19b1f89f"),
    "enumerate bqp": (["enumerate", "bqp", _generator(SIMULATED),
                       "--max-len", "3"],
                      "9311404e5268bac9cc9e7fa3316f6a71a708b3f107163ef60d5417e0d54c1eb4"),
    "enumerate qcma": (["enumerate", "qcma", _generator(DECIDED),
                        "--max-len", "3"],
                       "249b602b27db89562da1aec146a46c38ee7b83b4888925bd7b80e375c14c4e00"),
    "enumerate qma": (["enumerate", "qma", _generator(DECIDED), "--max-len", "3"],
                      "3f3d4404350b4dee1ff763c0a832e9323d056074be63e4ae7e987d8b2cb587cf"),
    "gaplang": (["gaplang", "--r", "affine:2:2", "--member", "0101",
                 "--table", "14"],
                "3347b70222262043c643e6e7817849b1fcb5713548da5af9baa91e0accba53bc"),
    "diagonalize": (["diagonalize", "--a", "machine:{parity}",
                     "--a-pres", "builtins:const-yes,const-no,len-even",
                     "--aprime", "builtin:const-no",
                     "--aprime-pres", "builtins:const-yes,parity,ones-promise",
                     "--bound", "6", "--table", "12"],
                    "905f79834148eda50b1007e986293c92f65c0fe0e7bf271936911acd117b8348"),
    "ladner": (["ladner", "--a", "builtin:parity",
                "--pres", "builtins:const-yes,const-no,len-even",
                "--bound", "6", "--table", "8"],
               "2d57f9a42db1fdaa8b53116ce559c82521922e291e2fef6d0ed32ba12c8b1e77"),
    # a machine-backed a: the spot-checks walk lengths 0-13 under a and
    # ask const-no word by word at length 14, in the first odd interval
    "ladner machine": (["ladner", "--a", "machine:{parity}",
                        "--pres", "builtins:const-yes,const-no,len-even",
                        "--bound", "14", "--table", "8"],
                       "18140506f6fbc748163c84338a321260ac032d31d05049823e2deab19bcd0ba3"),
    # both constructions over a family presentation: clocked machines as
    # the presented deciders, and in ladner as the harder set's oracles
    "ladner family": (["ladner", "--a", "builtin:parity", "--pres", "family:p",
                       "--bound", "10", "--table", "10"],
                      "6eace1ba70e7536443518c123235037601336d9984ef72d7a9f9aae9325fb0a9"),
    "diagonalize family": (["diagonalize", "--a", "builtin:parity",
                            "--a-pres", "family:p",
                            "--aprime", "builtin:const-no",
                            "--aprime-pres", "builtins:const-yes,parity",
                            "--bound", "10", "--table", "10"],
                           "56d6c03a76dacdd8c4d1ad39f4c61f77ba9487325e18645e7caaa27d78826b2c"),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_stdout_digest(command, files, capsys):
    template, digest = CASES[command]
    argv = [arg.format_map(files) for arg in template]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


HELP = {
    "": "c2c79440bea3c0a16fc86bc296106c3e3a6f8dbfa1a3c3e394a120da7affc8c8",
    "run": "9d5281653358ce3006fe283461070956a640cc298b4f5529fba564e0de0c9025",
    "branches": "a9d3136451db67597fb07f1dacba403cda94914d424d0b9ae26709af7a927f0a",
    "simulate": "762f0d607be4e9b742ef2b2408c26078fb52cb3c49647359a169f89a9a3c711f",
    "decide": "37ad2e41a7451a5b2e0e5c7ee47c1d201336d0a7039d9e4c1c7ee4d7a361c29b",
    "classify": "f6ea764778953e86911a408037b6e35d59da2f2d97de3a1d417bf2ace482a39e",
    "enumerate": "0b263f6f33ea519ac857e0d6f4dad7efaefcde66d4bae768c2b3987b3af13574",
    "gaplang": "a726089b960b0919cbfd21240af1b24a8f445d11d50090786a0f2c525b4e07db",
    "diagonalize": "a79ed04d11333f293b69e68094e92b719f945d0dbf122f87004f659bab8e4433",
    "ladner": "c840632a4aa5e0bdf5a22020aae9f759a326f3c1f779c603b021447a122796f3",
}

USAGE_ERRORS = [
    ([], "37d8e15f2f0e95505e22a19e4ae46529f9331c617b81065b194e592b9c0698c8"),
    (["bogus"], "9b21a1ae1b15d6314736a5d918447b58144121d1470d7da878192556830e9317"),
    (["--config"], "8332d62492c2ee8cf312614d2d5751cda798271917e1f1bf77c6e1869c82dc8d"),
    (["run"], "e31af1aaa7cdcdb1eaf6996ad624ed8717516adebd56303a58b460e6090db448"),
    (["run", "--machine", "m", "--nope"],
     "2f4023a5659eb133a4c1e2fc0adb76f089071a3d7a37cb35a1622385f440e496"),
    (["decide", "bpp", "--gen", "g", "--input", "0"],
     "f30d53649b7b3a218e703184f09746e07f799344e0e90205bac2edab3a0c85c5"),
    (["enumerate", "p"],
     "31fe8c039b276a10de9ab0566292d9ad018a44cc59ef41f901b8736e680931ad"),
    (["gaplang", "--r", "bad"],
     "ae41ea6d56e4884b65b9022bb27111d0b0c02047f7852ac9ccf8409ec5ac8aae"),
    (["ladner", "--a", "builtin:parity", "--pres", "builtins:const-yes",
      "--bound", "-1"],
     "92da5954d9fc6ffb3afe83c7d35feb79dab8f075469adae38925b78fa3aae7e5"),
    (["diagonalize", "--a", "builtin:parity"],
     "2e14b0d4df15bd008ffb8286acd1a60f1a0d6cae1c0cbb6a7951b4f547f1f2a5"),
]


def _exit_code(argv: list[str]) -> int:
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    return exc.value.code


def test_trivial_verifier_past_the_witness_cap(capsys):
    # the rows before the first word of length 2, then the cap's error
    argv = ["enumerate", "np", str(triple(0, CLOCK, WIDE)), "--max-len", "4"]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        "31277dc1fa29b7bab1c3d88c9cf272d4f8f045e3bd10a69f6a54de769d53feaa"
    assert captured.out.endswith("word\tverdict\n(empty)\tno\n0\tno\n1\tno\n")
    assert captured.err == \
        "error: WitnessSpaceTooLarge: 2^14 witnesses exceed cap 4096\n"


def test_trivial_verifier_table_cut_short_at_the_cap(capsys):
    # witness length |x|: every row through length 12, then the cap's
    # error at the first word of length 13
    argv = ["enumerate", "np", str(triple(0, CLOCK, WITNESS_LENGTH)),
            "--max-len", "13"]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        "aa0d82898cdf233c0b65d22ee9ba8f5d0e5bfeb62536ab214315c3ac2c60207f"
    assert captured.out.count("\n") == 2 + (1 << 13) - 1
    assert captured.out.endswith("\n111111111111\tno\n")
    assert captured.err == \
        "error: WitnessSpaceTooLarge: 2^13 witnesses exceed cap 4096\n"


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_digest(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code([command, "--help"] if command else ["--help"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP[command], out


@pytest.mark.parametrize("argv,digest", USAGE_ERRORS,
                         ids=[" ".join(argv) or "(none)" for argv, _ in USAGE_ERRORS])
def test_usage_error_digest(argv, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert hashlib.sha256(captured.err.encode()).hexdigest() == digest, captured.err


def test_option_values_naming_subcommands(tmp_path, monkeypatch, capsys):
    # the subcommand is the first positional word, whatever the option
    # values around it spell
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gaplang").write_text("default-fuel = 500\n")
    (tmp_path / "ladner").write_text(encode_godel(parity_machine()) + "\n")
    assert dispatch(["--config", "gaplang", "run", "--machine", "ladner",
                     "--input", "1011"]) == 0
    assert capsys.readouterr().out == "halted\toutput=1\tsteps=5\n"
    assert dispatch(["--config=gaplang", "classify", "--problem",
                     "machine:ladner", "--input", "0111"]) == 0
    assert capsys.readouterr().out == "yes\n"
