"""Byte-exact stdout of one invocation of every subcommand.

Each case runs at the default configuration on input files written from
the hand-built machines, and compares the SHA-256 of its stdout with a
recorded digest.  A refactoring that changes no behaviour leaves every
digest as it is; a deliberate change of output has to re-record them.
"""

import hashlib

import pytest

from helpers_machines import const_output_machine, fan_ptm, parity_machine
from promiselab.circuit import Circuit, Gate, encode_circuit
from promiselab.cli import dispatch
from promiselab.ptm import encode_ptm
from promiselab.tm import encode_godel

SIMULATED = Circuit((Gate("H", (2,)), Gate("T", (1,)), Gate("CNOT", (2, 3)),
                     Gate("H", (1,)), Gate("CNOT", (3, 1))))
# two witness qubits, one of which drives the output through a Hadamard
DECIDED = Circuit((Gate("H", (1,)), Gate("CNOT", (3, 1)), Gate("T", (2,)),
                   Gate("CNOT", (2, 1))), witness_qubits=2)


@pytest.fixture
def files(tmp_path):
    contents = {
        "parity": encode_godel(parity_machine()) + "\n",
        "fan": encode_ptm(fan_ptm(2, 3)),
        "circuit": encode_circuit(SIMULATED) + "\n",
        "gen": encode_godel(const_output_machine(encode_circuit(DECIDED))),
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
    "branches": (["branches", "--machine", "{fan}", "--input", "01"],
                 "dc52756717ff026f6875b5301b03b217e4584c66911bff1c482be07374f59220"),
    "simulate": (["simulate", "--circuit", "{circuit}"],
                 "b5881583c438fb0f460b10edc5913c62ad4c3503ac154eae0a9a545484940b4a"),
    "decide": (["decide", "qma", "--gen", "{gen}", "--input", "0"],
               "1cb8a342a530a0d3ef82e2f007b5e9241992a48e6976a657014f73b6474ac9fe"),
    "classify": (["classify", "--problem", "machine:{parity}",
                  "--input", "0111"],
                 "5040625b1fb6fa4af07226683f6e6003b29e5e70b16f8cfb24be7a752393f0ee"),
    "enumerate": (["enumerate", "promisebpp", "113102", "--max-len", "3"],
                  "ff59e87813c932efb7e0d6ca8bae92b0fcd3d3b83b2826110df35b42e3cc3cd2"),
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
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_stdout_digest(command, files, capsys):
    template, digest = CASES[command]
    argv = [arg.format_map(files) for arg in template]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
