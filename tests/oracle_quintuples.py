"""The quintuple-at-a-time Godel structure parser.

This is the decoder front end that `promiselab.tm.parse_godel_structure`
replaces: after the header it matches one compiled quintuple pattern at
a time, each where the previous one ended, in a Python loop, and checks
separately that the string is binary.  The package instead reads the
whole body with one split by a pattern of its own, and takes it for a
run of quintuples when no text lies between them.  The pattern here is
a copy kept apart from the package's, so the two stay independent.
`test_oracles.py::TestParserOracle` requires the two, and the
per-character parser in `oracle_parser`, to agree on every input.
"""

from __future__ import annotations

import re

from promiselab.tm import _CODE_MOVE, _CODE_SYM, _HEADER

_QUINTUPLE = re.compile(r"(1+)0(11|10|1)0(1+)0(11|10|1)0(11|10|1)00(?=1|\Z)")


def parse_godel_structure(bits: str):
    """(states, initial, finals, quintuple list); raises ValueError."""
    header = _HEADER.match(bits)
    if header is None or bits.strip("01"):
        raise ValueError("not a machine encoding")
    states, initial, final_runs = header.groups()
    finals = [len(run) - 1 for run in final_runs.split("0")[:-1]]
    if len(set(finals)) != len(finals):
        raise ValueError("repeated final state")
    quintuples = []
    pos, end = header.end(), len(bits)
    while pos < end:
        q = _QUINTUPLE.match(bits, pos)
        if q is None:
            raise ValueError(f"no quintuple at {pos}")
        s, sym, t, wsym, move = q.groups()
        quintuples.append((len(s) - 1, _CODE_SYM[sym], len(t) - 1,
                           _CODE_SYM[wsym], _CODE_MOVE[move]))
        pos = q.end()
    return len(states), len(initial) - 1, frozenset(finals), quintuples
