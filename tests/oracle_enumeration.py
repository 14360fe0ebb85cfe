"""Reference harder-set decider: the per-word walk.

This is the decider that `promiselab.enumeration.harder_set` replaces.
On every input x it walks all words y up to length
min(|x|, HARDER_SET_CHECK_CAP) again and checks each one inside a's
promise, keeping nothing from one input to the next.  The property test
in `test_oracles.py` requires the two deciders to give equal verdicts.
"""

from __future__ import annotations

from promiselab.config import Config
from promiselab.enumeration import (HARDER_SET_CHECK_CAP, Presentation,
                                    oracle_machine_series, unpair)
from promiselab.errors import FuelExhausted, NonPromisedQuery
from promiselab.promise import TotalDecider, Verdict, cook_run
from promiselab.words import words_up_to


def harder_set(a: TotalDecider, c_pres: Presentation, i: int, *,
               config: Config = Config()) -> TotalDecider:
    """Decider i = (j, k) of the Cook harder set of a over c_pres."""
    j, k = unpair(i)
    m_k = c_pres(k)
    o_j = oracle_machine_series(j, config)

    def check(y: str, expected: Verdict) -> bool:
        try:
            accepted = cook_run(o_j, m_k, y)
        except (NonPromisedQuery, FuelExhausted):
            return False
        return accepted is (expected is Verdict.YES)

    def decide(x: str) -> Verdict:
        for y in words_up_to(min(len(x), HARDER_SET_CHECK_CAP)):
            va = a.classify(y)
            if va is Verdict.OUTSIDE:
                continue
            if not check(y, va):
                return a.classify(x)
        return m_k.classify(x)

    return TotalDecider(f"harder[T,{i}]({a.tag})", fn=decide)
