"""Reference deciders of `promiselab.enumeration`.

The per-word walk is the harder-set decider that
`promiselab.enumeration.harder_set` replaces.  On every input x it walks
all words y up to length min(|x|, HARDER_SET_CHECK_CAP) again and checks
each one inside a's promise, keeping nothing from one input to the next.

The per-witness loop is the `np` decider that the walk of
`promiselab.enumeration._np_verdict` replaces: on every input x it runs
the verifier once on [x, y] for each witness y of length m in canonical
order, 2^m full runs, until one outputs "1".  The walk runs the verifier
once on x and a blank, with the m witness cells unread, so runs share
every step taken before they read a cell where their witnesses differ.

The unconditional run is the verdict function of a presented `p`, `np`,
`bqp`, `qcma` or `qma` decider that runs its machine on every word, the
trivial machine included, which `class_presentation` never runs; its
`np` decider is the per-witness loop.

The property tests in `test_oracles.py` require each twin and its fast
path to give equal verdicts, or to raise equal errors.
"""

from __future__ import annotations

from typing import Callable

from promiselab import circuit, tm
from promiselab.config import Config
from promiselab.enumeration import (HARDER_SET_CHECK_CAP, Presentation,
                                    _clocked, oracle_machine_series,
                                    polyset_series, unpair)
from promiselab.errors import (FuelExhausted, GeneratorFuelExhausted,
                               NonPromisedQuery)
from promiselab.promise import (MAX_WITNESS_SPACE, TotalDecider, Verdict,
                                cook_run, witness_verdict)
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


def accepts(machine: tm.MachineDesc, inputs: list[str],
            fuel: int) -> Verdict:
    """Yes iff the run halts within fuel with output "1", otherwise No."""
    accepted = tm.run(machine, inputs, fuel).output == "1"
    return Verdict.YES if accepted else Verdict.NO


def np_verdict(verifier: tm.MachineDesc, fuel: Callable[[int], int],
               wit_len: Callable[[int], int]) -> Callable[[str], Verdict]:
    """The per-witness loop: one run of the verifier on [x, y] for each
    witness y of length wit_len(|x|), until one accepts."""

    def decide(x: str) -> Verdict:
        steps = fuel(len(x))
        return witness_verdict(wit_len(len(x)), MAX_WITNESS_SPACE,
                               lambda y: accepts(verifier, [x, y], steps))

    return decide


def run_verdict(family: str, i: int,
                config: Config = Config()) -> Callable[[str], Verdict]:
    """Verdict function of class_presentation(family, i, config) that runs
    the machine of index i on every word, whatever it decodes to."""
    machine, fuel, *rest = _clocked(i, config,
                                    arity=3 if family == "np" else 2)
    if family == "p":
        return lambda x: accepts(machine, [x], fuel(len(x)))
    if rest:
        return np_verdict(machine, fuel, polyset_series(rest[0], config).value)
    classify = getattr(circuit, f"classify_{family}")

    def decide_quantum(x: str) -> Verdict:
        try:
            return classify(machine, fuel, x, config)
        except GeneratorFuelExhausted:
            return Verdict.NO

    return decide_quantum
