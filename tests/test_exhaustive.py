"""Bounded-exhaustive cross-checks: a fast path against its slow twin on
every instance up to a size, not on a sample.

Most faults show on some small instance, so a scope that holds every
small instance finds what sampled property tests can miss.  Each scope
asserts its instance count, so a narrowed generator fails too.

Deterministic PTMs: every 2-state PTM with initial state 0, final state
1 and one action per (state, symbol) pair (5,832 machines), on every
word up to length 2 at fuel 12.  Such a run is one lone stretch in
`tm._ends`, cut and resumed when it walks left past its padding;
`enumerate_branches` must count the same leaves as the depth-first walk
of `tests/oracle_ptm.py`, an overrun counted as a rejecting leaf.  The
words of length 3 would double the scope's time to about 2 s, so they
are left out.
"""

from itertools import product

import oracle_ptm
from promiselab import ptm
from promiselab.tm import MOVES, SYMBOLS
from promiselab.words import words_up_to

ACTIONS = list(product(range(2), SYMBOLS, MOVES))


def test_every_deterministic_two_state_ptm():
    words = list(words_up_to(2))
    machines = [ptm.PTMDesc(2, 0, frozenset({1}), {
                    (0, sym): (action,) for sym, action in zip(SYMBOLS, row)})
                for row in product(ACTIONS, repeat=len(SYMBOLS))]
    assert (len(machines), len(words)) == (5832, 7)
    mismatches = [(m, w) for m in machines for w in words
                  if ptm.enumerate_branches(m, [w], 12, "reject")
                  != oracle_ptm.enumerate_branches(m, [w], 12, "reject")]
    assert mismatches == [], mismatches[:3]
