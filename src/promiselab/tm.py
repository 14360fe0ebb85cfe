"""Deterministic Turing machines with a bit-exact Godel encoding.

Machines work over the tape alphabet {0, 1, blank} on a two-way infinite
tape.  A run starts with the (blank-separated) inputs written from cell 0
and the head on cell 0; entering a final state halts the machine, whose
output is the symbol string from the head position rightwards up to the
next blank.  One step is one transition application; building the initial
configuration is free.

A run steps over the machine's rows table, built once per machine:
rows[state] is None for a final state and otherwise maps each symbol to
(next state, written symbol, head delta).  The tape is a list that
covers every cell the head has visited; a written blank stays in its
cell.  The list grows by one blank on the right, and on the left by a
block of blanks as long as itself, so a machine that walks far left
still runs in linear time.  A walk runs all words of one length, each
after one fixed start, depth first, so the runs share each step taken
before their words differ.  A run's outcome is its output, None past
fuel as in a walk, and its step count.  An oracle machine steps in the
same loop, over rows of its own that stop the loop at each query.

Encoding grammar (every section terminated by "0", the final list closed
by "00"):

    machine    = states initial finals "00" quintuple*
    states     = 1^n "0"                   n >= 1 states
    initial    = 1^(i+1) "0"               initial state index i
    finals     = (1^(f+1) "0")*            final state indices, no repeats
    quintuple  = 1^(s+1) "0" SYM "0" 1^(t+1) "0" SYM "0" MOVE "00"
    SYM, MOVE  in {1, 10, 11}  meaning  {0, 1, blank} / {L, R, N}

Decoding is one pass over the encoding: a compiled pattern matches the
header, one validating match checks that the rest is a run of
quintuples, and one findall reads them.
A string that fails to parse, repeats a (state, symbol) pair, or leaves
some non-final (state, symbol) pair uncovered denotes the designated
trivial machine, which halts after exactly one step with output "0" on
every input.  Its canonical encoding is the empty string.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import product, repeat

BLANK = "_"
SYMBOLS = ("0", "1", BLANK)
MOVES = ("L", "R", "N")

_SYM_CODE = {"0": "1", "1": "10", BLANK: "11"}
_MOVE_CODE = {"L": "1", "R": "10", "N": "11"}
_CODE_SYM = {v: k for k, v in _SYM_CODE.items()}
_CODE_MOVE = {v: k for k, v in _MOVE_CODE.items()}
_MOVE_DELTA = {"L": -1, "R": 1, "N": 0}

Transition = tuple[int, str, str]  # (next state, written symbol, move)
Row = dict[str, tuple[int, str, int]]  # symbol -> (next state, written, delta)


class MachineDesc(namedtuple("MachineDesc",
                             "states initial finals transitions trivial")):
    # no __slots__: the instance dict holds the cached rows

    def __new__(cls, states: int, initial: int, finals: frozenset[int],
                transitions: dict[tuple[int, str], Transition] | None = None,
                trivial: bool = False):
        self = super().__new__(cls, states, initial, finals,
                               {} if transitions is None else transitions,
                               trivial)
        check_description(self)
        return self

    def rules(self) -> Iterable[tuple[tuple[int, str], Transition]]:
        """The (state, symbol) -> action rules, one per pair."""
        return self.transitions.items()

    @cached_property
    def rows(self) -> list[Row | None]:
        """rows[state]: None for a final state, otherwise the state's
        symbol -> (next state, written symbol, head delta) map."""
        finals = self.finals
        rows: list[Row | None] = [None if s in finals else {}
                                  for s in range(self.states)]
        for (s, sym), (t, wsym, move) in self.transitions.items():
            row = rows[s]
            if row is not None:
                row[sym] = (t, wsym, _MOVE_DELTA[move])
        return rows


def check_description(m) -> None:
    """Raise ValueError unless m, a MachineDesc or a ptm.PTMDesc, is well
    formed: states and symbols in range, no empty branch set, and a branch
    set for every (state, symbol) pair of a non-final state."""
    if m.trivial:
        return
    states, finals, table = m.states, m.finals, m.transitions
    if states < 1:
        raise ValueError("machine needs at least one state")
    if not 0 <= m.initial < states:
        raise ValueError("initial state out of range")
    if any(not 0 <= f < states for f in finals):
        raise ValueError("final state out of range")
    if not all(table.values()):  # a TM's action is never empty
        raise ValueError("empty branch set")
    for (s, sym), (t, wsym, move) in m.rules():
        if not (0 <= s < states and 0 <= t < states):
            raise ValueError("transition state out of range")
        if sym not in SYMBOLS or wsym not in SYMBOLS or move not in MOVES:
            raise ValueError("bad transition alphabet")
    # every key is in range, so the keys of non-final states cover all
    # their pairs exactly when there are 3 per non-final state
    final_keys = sum((f, sym) in table for f in finals for sym in SYMBOLS)
    if len(table) - final_keys != len(SYMBOLS) * (states - len(finals)):
        s, sym = next((s, sym) for s in range(states) if s not in finals
                      for sym in SYMBOLS if (s, sym) not in table)
        raise ValueError(f"missing transition for ({s}, {sym!r})")


TRIVIAL_MACHINE = MachineDesc(states=1, initial=0, finals=frozenset(),
                              transitions={}, trivial=True)


RunResult = namedtuple("RunResult", "output steps")  # output None past fuel


def _check_inputs(inputs: list[str] | tuple[str, ...]) -> None:
    """Raise ValueError at the first input symbol that is not 0 or 1."""
    for word in inputs:
        if rest := word.strip("01"):
            raise ValueError(f"input symbol {rest[0]!r} is not 0 or 1")


def _output(tape: list[str], head: int) -> str:
    """Symbols from the head rightwards up to the next blank."""
    return "".join(tape[head:]).partition(BLANK)[0]


def _ends(rows: list[Row | None], stack: list, fuel: int) -> Iterator[tuple]:
    """Run each configuration (state, tape, head, steps, unread input cells
    past the tape) off the stack until it halts or is out of fuel; yield
    it.  At an unread cell it goes on with 0 and pushes a copy with 1.
    A caller may push configurations of its own between yields."""
    while stack:
        state, tape, head, steps, free = stack.pop()
        end = len(tape)
        for steps in range(steps, fuel):
            row = rows[state]
            if row is None:
                break
            state, tape[head], delta = row[tape[head]]
            head += delta
            if head == end:
                if free:
                    free -= 1
                    stack.append((state, tape + ["1"], head, steps + 1, free))
                    tape.append("0")
                else:
                    tape.append(BLANK)
                end += 1
            elif head < 0:
                tape[:0] = [BLANK] * end
                head += end
                end += end
        else:
            steps = fuel
        yield state, tape, head, steps, free


def run(m: MachineDesc, inputs: list[str] | tuple[str, ...], fuel: int) -> RunResult:
    """Fuel-bounded deterministic run; pure in all arguments."""
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    _check_inputs(inputs)
    if m.trivial:
        return RunResult("0", 1) if fuel else RunResult(None, 0)
    state, tape, head, steps, _ = next(_ends(
        m.rows, [(m.initial, list(BLANK.join(inputs) + BLANK), 0, 0, 0)], fuel))
    return RunResult(_output(tape, head) if m.rows[state] is None else None,
                     steps)


def walk(m: MachineDesc, n: int, fuel: int,
         start: str = "") -> Iterator[str | None]:
    """Lazily, the output of m's run on start and then each word of length
    n, in canonical order, or None past fuel.  Depth first, so runs share
    the steps taken before they read a cell where their words differ."""
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    if m.trivial:
        yield from repeat("0" if fuel else None, 1 << n)
        return
    rows = m.rows
    stack = ([(m.initial, list(start), 0, 0, n)] if start
             else [(m.initial, [cell], 0, 0, n - 1) for cell in "10"] if n
             else [(m.initial, [BLANK], 0, 0, 0)])
    for state, tape, head, _, free in _ends(rows, stack, fuel):
        out = _output(tape, head) if rows[state] is None else None
        if not free:
            yield out
        elif out is None or len(out) < len(tape) - head:  # ends at a blank
            yield from repeat(out, 1 << free)
        else:  # the output runs on through the unread cells
            yield from map(out.__add__, map("".join, product("01", repeat=free)))


# One compiled pattern per grammar unit.  A {1, 10, 11} code is told
# apart by what follows it, so each code is matched together with that
# context: a symbol code with the "0" and the unary run or move code after
# it, the move code with its "00" and the "1" or end of string after that.
# Given its context at most one alternative of (11|10|1) matches, so
# backtracking makes the per-bit choice whatever the order, and a string
# splits into quintuples in at most one way.  \Z, not $: $ also matches
# before a trailing newline.
_HEADER = re.compile(r"(1+)0(1+)0((?:1+0)*)00")
_QUINTUPLE = re.compile(r"(1+)0(11|10|1)0(1+)0(11|10|1)0(11|10|1)00(?=1|\Z)")
# The same quintuple without captures, repeated up to the end of the string.
_BODY = re.compile(
    r"(?:1+0(?:11|10|1)01+0(?:11|10|1)0(?:11|10|1)00(?=1|\Z))*\Z")


def parse_godel_structure(bits: str):
    """Shared front end: (states, initial, finals, quintuple list).

    Quintuples are returned in input order, duplicates included; callers
    impose their own (deterministic or branching) semantics.  A string
    outside the grammar raises ValueError.  One match checks the whole
    body after the header; one findall then reads its quintuples, each
    where the previous one ended.
    """
    header = _HEADER.match(bits)
    if header is None or _BODY.match(bits, header.end()) is None:
        raise ValueError("not a machine encoding")
    states, initial, final_runs = header.groups()
    finals = [len(run) - 1 for run in final_runs.split("0")[:-1]]
    if len(set(finals)) != len(finals):
        raise ValueError("repeated final state")
    quintuples = [(len(s) - 1, _CODE_SYM[sym], len(t) - 1, _CODE_SYM[wsym],
                   _CODE_MOVE[move])
                  for s, sym, t, wsym, move in
                  _QUINTUPLE.findall(bits, header.end())]
    return len(states), len(initial) - 1, frozenset(finals), quintuples


def decode_godel(bits: str) -> MachineDesc:
    """Total decoder: anything invalid denotes the trivial machine."""
    try:
        states, initial, finals, quintuples = parse_godel_structure(bits)
        transitions: dict[tuple[int, str], Transition] = {
            (s, sym): (t, wsym, move) for s, sym, t, wsym, move in quintuples}
        if len(transitions) != len(quintuples):
            return TRIVIAL_MACHINE  # a repeated (state, symbol) pair
        return MachineDesc(states, initial, finals, transitions)
    except ValueError:
        return TRIVIAL_MACHINE


def encode_quintuple(s: int, sym: str, t: int, wsym: str, move: str) -> str:
    return ("1" * (s + 1) + "0" + _SYM_CODE[sym] + "0"
            + "1" * (t + 1) + "0" + _SYM_CODE[wsym] + "0"
            + _MOVE_CODE[move] + "00")


def encode_godel(m) -> str:
    """Canonical encoding of a MachineDesc or a ptm.PTMDesc: the header,
    then one quintuple per rule, ordered by state, then symbol in SYMBOLS
    order, then action; decode_godel(encode_godel(m)) equals m for a
    MachineDesc."""
    if m.trivial:
        return ""
    parts = ["1" * m.states, "0", "1" * (m.initial + 1), "0"]
    parts.extend("1" * (f + 1) + "0" for f in sorted(m.finals))
    parts.append("00")
    for (s, sym), action in sorted(
            m.rules(), key=lambda rule: (rule[0][0], SYMBOLS.index(rule[0][1]))):
        parts.append(encode_quintuple(s, sym, *action))
    return "".join(parts)


def load_machine_file(path: str) -> MachineDesc:
    """Machine files are ASCII 0/1 text with an optional trailing newline."""
    with open(path, "r", encoding="ascii") as fh:
        return decode_godel(fh.read().rstrip("\n"))
