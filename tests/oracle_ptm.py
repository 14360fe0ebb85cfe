"""Reference branch enumeration: a depth-first walk of the whole tree.

This is the walk that `promiselab.ptm.enumerate_branches` replaces.  It
visits every computation path once, in lexicographic order of its branch
choices, and copies the tape at every branch, so it costs time in the
number of tree paths, not of distinct configurations.  The property
tests in `test_oracles.py` require the merged-configuration walk to give
the same `BranchStats`, and to raise `BranchFuelExhausted` with the same
path, on every machine they try.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal

from oracle_tm import output_at, tape_from_inputs
from promiselab import tm
from promiselab.errors import BranchFuelExhausted
from promiselab.ptm import BranchStats, PTMDesc


def enumerate_branches(
    m: PTMDesc,
    inputs: list[str] | tuple[str, ...],
    fuel: int,
    on_overrun: Literal["raise", "reject"] = "raise",
) -> BranchStats:
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    if m.trivial:
        if fuel < 1 and on_overrun == "raise":
            raise BranchFuelExhausted((), fuel)
        return BranchStats(0, 1, 1, Fraction(0), Fraction(1))
    accepting = rejecting = total = 0
    root_tape = tape_from_inputs(inputs)
    stack: list[tuple[int, dict[int, str], int, int, tuple[int, ...]]] = [
        (m.initial, root_tape, 0, 0, ())
    ]
    while stack:
        state, tape, head, steps, path = stack.pop()
        while state not in m.finals:
            if steps == fuel:
                if on_overrun == "raise":
                    raise BranchFuelExhausted(path, fuel)
                total += 1
                rejecting += 1
                break
            sym = tape.get(head, tm.BLANK)
            actions = m.transitions[(state, sym)]
            if len(actions) > 1:
                for idx in range(len(actions) - 1, 0, -1):
                    t, wsym, move = actions[idx]
                    child = dict(tape)
                    if wsym == tm.BLANK:
                        child.pop(head, None)
                    else:
                        child[head] = wsym
                    stack.append((t, child,
                                  head + tm._MOVE_DELTA[move],
                                  steps + 1, path + (idx,)))
                path = path + (0,)
            t, wsym, move = actions[0]
            if wsym == tm.BLANK:
                tape.pop(head, None)
            else:
                tape[head] = wsym
            head += tm._MOVE_DELTA[move]
            state = t
            steps += 1
        else:
            output = output_at(tape, head)
            total += 1
            if output == "1":
                accepting += 1
            elif output == "0":
                rejecting += 1
    if total == 0:
        raise AssertionError("a machine run always produces at least one leaf")
    return BranchStats(accepting, rejecting, total,
                       Fraction(accepting, total), Fraction(rejecting, total))
