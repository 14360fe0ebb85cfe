"""Reference deterministic run: a sparse dict tape, one cell per key.

This is the run that `promiselab.tm.run` replaces.  Each step reads the
final states and the transition dict of the machine, looks the move up
by name, and pops a cell when it writes a blank, so the tape holds only
non-blank cells and needs no growth rule on either side.  The property
tests in `test_oracles.py` require the two runs to give equal
`RunResult`s, and the oracle machine run of `promiselab.promise.cook_run`
to agree with its sparse-tape twin here.  The sparse tape helpers also
serve the reference branch walk in `oracle_ptm`.
"""

from __future__ import annotations

from promiselab import tm
from promiselab.errors import FuelExhausted, NonPromisedQuery
from promiselab.promise import OracleMachine, TotalDecider, Verdict
from promiselab.tm import MachineDesc, RunResult


def tape_from_inputs(inputs: list[str] | tuple[str, ...]) -> dict[int, str]:
    """Sparse tape with the inputs written from cell 0, blank-separated."""
    tm._check_inputs(inputs)
    tape: dict[int, str] = {}
    pos = 0
    for word in inputs:
        tape.update(enumerate(word, pos))
        pos += len(word) + 1  # separating blank
    return tape


def output_at(tape: dict[int, str], head: int) -> str:
    """Symbols from the head rightwards up to the next blank."""
    out = []
    pos = head
    while pos in tape:
        out.append(tape[pos])
        pos += 1
    return "".join(out)


def run(m: MachineDesc, inputs: list[str] | tuple[str, ...], fuel: int) -> RunResult:
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    if m.trivial:
        tm._check_inputs(inputs)
        return RunResult("0", 1) if fuel >= 1 else RunResult(None, 0)
    tape = tape_from_inputs(inputs)
    head = 0
    state = m.initial
    steps = 0
    while state not in m.finals:
        if steps == fuel:
            return RunResult(None, steps)
        sym = tape.get(head, tm.BLANK)
        state, wsym, move = m.transitions[(state, sym)]
        if wsym == tm.BLANK:
            tape.pop(head, None)
        else:
            tape[head] = wsym
        head += tm._MOVE_DELTA[move]
        steps += 1
    return RunResult(output_at(tape, head), steps)


def cook_run(o: OracleMachine, oracle: TotalDecider, x: str) -> bool:
    """The oracle machine run of `promiselab.promise.cook_run` on the
    sparse tape: entering the oracle state pops the queried word's cells
    and writes the answer at the head."""
    m = o.base
    fuel = o.runtime(len(x))
    if m.trivial:
        tm._check_inputs([x])
        if fuel < 1:
            raise FuelExhausted(x)
        return False
    tape = tape_from_inputs([x])
    head = 0
    state = m.initial
    steps = 0
    while state not in m.finals:
        if steps == fuel:
            raise FuelExhausted(x)
        sym = tape.get(head, tm.BLANK)
        state, wsym, move = m.transitions[(state, sym)]
        if wsym == tm.BLANK:
            tape.pop(head, None)
        else:
            tape[head] = wsym
        head += tm._MOVE_DELTA[move]
        steps += 1
        if state == o.oracle_state:
            word = output_at(tape, head)
            answer = oracle.classify(word)
            if answer is Verdict.OUTSIDE:
                raise NonPromisedQuery(word)
            for pos in range(head, head + len(word)):
                tape.pop(pos, None)
            tape[head] = "1" if answer is Verdict.YES else "0"
    return output_at(tape, head) == "1"
