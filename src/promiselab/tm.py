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
fuel as in a walk, and its step count.  Oracle machines and the lone
stretches of PTMs step in the same loop, over rows that stop it at a
query or a branch.

Encoding grammar (every section terminated by "0", the final list closed
by "00"):

    machine    = states initial finals "00" quintuple*
    states     = 1^n "0"                   n >= 1 states
    initial    = 1^(i+1) "0"               initial state index i
    finals     = (1^(f+1) "0")*            final state indices, no repeats
    quintuple  = 1^(s+1) "0" SYM "0" 1^(t+1) "0" SYM "0" MOVE "00"
    SYM, MOVE  in {1, 10, 11}  meaning  {0, 1, blank} / {L, R, N}

Decoding is one scan of the encoding: a compiled pattern matches the
header, and one split of the rest by the quintuple pattern yields each
quintuple's captures and the text between quintuples, which must be
empty.  The decoder builds the transitions and the rows in one pass over
those captures and checks only what the grammar leaves open: state
ranges, repeated final states and (state, symbol) pairs, and coverage.
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
        return _tables(self.states, self.finals, (
            (s, sym, *action) for (s, sym), action in self.rules()))[1]


def _tables(states: int, finals: frozenset[int], quintuples: Iterable[tuple]
            ) -> tuple[dict[tuple[int, str], Transition], list[Row | None]]:
    """The transitions and the rows of (s, sym, t, wsym, move) quintuples,
    a repeated (s, sym) pair's last one kept, in one pass; IndexError at a
    source past the last state."""
    transitions = {}
    rows: list[Row | None] = [None if s in finals else {}
                              for s in range(states)]
    for s, sym, t, wsym, move in quintuples:
        transitions[s, sym] = (t, wsym, move)
        row = rows[s]
        if row is not None:
            row[sym] = (t, wsym, _MOVE_DELTA[move])
    return transitions, rows


def check_description(m) -> None:
    """Raise ValueError unless m, a MachineDesc or a ptm.PTMDesc, is well
    formed: at least one state, no empty branch set, every symbol and
    move in its alphabet, and the state rules of `_check_states`."""
    if m.trivial:
        return
    if m.states < 1:
        raise ValueError("machine needs at least one state")
    if not all(m.transitions.values()):  # a TM's action is never empty
        raise ValueError("empty branch set")
    rules = list(m.rules())
    if any(sym not in SYMBOLS or wsym not in SYMBOLS or move not in MOVES
           for (_, sym), (_, wsym, move) in rules):
        raise ValueError("bad transition alphabet")
    _check_states(m.states, m.initial, m.finals, m.transitions,
                  [q for (s, _), (t, _, _) in rules for q in (s, t)])


def _check_states(states: int, initial: int, finals: frozenset[int],
                  table: dict, named: list[int]) -> None:
    """The rules a decoded machine does not meet by its grammar: raise
    ValueError unless the initial state, the final states and the states
    in named lie in range(states), and the keys of table, distinct pairs
    over SYMBOLS, cover every (state, symbol) pair of a non-final state."""
    if not 0 <= initial < states:
        raise ValueError("initial state out of range")
    if any(not 0 <= f < states for f in finals):
        raise ValueError("final state out of range")
    if named and not (0 <= min(named) and max(named) < states):
        raise ValueError("transition state out of range")
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
# before a trailing newline.  A state's index is the length of its run
# past the first "1".  A source run follows the "0" that ends the header
# or the previous quintuple, so (?<!1) drops a search position inside a
# run at once, and a split of a string outside the grammar stays linear.
_HEADER = re.compile(r"(1+)0(1+)0((?:1+0)*)00")
_QUINTUPLE = re.compile(
    r"(?<!1)1(1*)0(11|10|1)01(1*)0(11|10|1)0(11|10|1)00(?=1|\Z)")
# What each quintuple capture reads to: state, symbol, state, symbol, move
_READ = (len, _CODE_SYM.get, len, _CODE_SYM.get, _CODE_MOVE.get)


def _scan(bits: str):
    """(states, initial, finals, columns): the columns are the sources,
    read symbols, targets, written symbols and moves of the quintuples.
    The split's pieces are the text before each quintuple, its five
    captures, and last the text after the last one; the quintuples cover
    the body exactly when all that text is empty.  Raises ValueError."""
    header = _HEADER.match(bits)
    if header is None:
        raise ValueError("not a machine encoding")
    pieces = _QUINTUPLE.split(bits[header.end():])
    if any(pieces[::6]):
        raise ValueError("not a machine encoding")
    states, initial, final_runs = header.groups()
    finals = [len(run) - 1 for run in final_runs.split("0")[:-1]]
    if len(set(finals)) != len(finals):
        raise ValueError("repeated final state")
    columns = [list(map(read, pieces[i::6])) for i, read in enumerate(_READ, 1)]
    return len(states), len(initial) - 1, frozenset(finals), columns


def parse_godel_structure(bits: str):
    """Shared front end: (states, initial, finals, quintuple list).

    Quintuples are returned in input order, duplicates included; callers
    impose their own (deterministic or branching) semantics.  A string
    outside the grammar raises ValueError.
    """
    states, initial, finals, columns = _scan(bits)
    return states, initial, finals, list(zip(*columns))


def decode_godel(bits: str) -> MachineDesc:
    """Total decoder: anything invalid denotes the trivial machine.

    One pass over the scan's columns builds the transitions and the rows.
    The grammar gives every rule an action in the alphabet, so of
    check_description only `_check_states` is left to run.
    """
    try:
        states, initial, finals, columns = _scan(bits)
        sources, _, targets, _, _ = columns
        transitions, rows = _tables(states, finals, zip(*columns))
        if len(transitions) != len(sources):
            return TRIVIAL_MACHINE  # a repeated (state, symbol) pair
        _check_states(states, initial, finals, transitions, sources + targets)
    except (ValueError, IndexError):
        return TRIVIAL_MACHINE
    m = MachineDesc._make((states, initial, finals, transitions, False))
    m.rows = rows  # _make, unlike MachineDesc(...), runs no check
    return m


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
