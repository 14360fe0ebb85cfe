"""Promise problems as three-valued total deciders, plus their algebra.

A promise problem is a disjoint pair (yes-set, no-set); words outside the
union are non-promised.  A total decider answers Yes / No / OutsidePromise
on every word, mirroring the machine outputs "1" / "0" / "10", and a
machine-backed one also all words of a length at once.  On top of
the deciders this module provides the difference operators, the marked
union, Karp-reduction checking on bounded word ranges, and oracle machines
with promise-respecting query semantics.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType
from typing import Callable, Iterator, Sequence

from . import tm
from .config import Config
from .errors import CapExceeded, FuelExhausted, NonPromisedQuery, \
    NotTotalDecider, WitnessSpaceTooLarge
from .words import index_to_word, words_of_length, words_up_to

# Most witnesses of one word under the NP walk and the MA witness loop.
MAX_WITNESS_SPACE = 4096


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    OUTSIDE = "outside-promise"

    def __repr__(self) -> str:  # keeps test failure output short
        return self.value

    def separates(self, other: "Verdict") -> bool:
        """True when this verdict is committed (yes or no) and other differs.

        A word whose verdicts under A and B are self and other lies in the
        one-sided difference of A and B.
        """
        return self is not Verdict.OUTSIDE and other is not self


_OUTPUT_VERDICT = {"1": Verdict.YES, "0": Verdict.NO, "10": Verdict.OUTSIDE}


@dataclass(frozen=True)
class TotalDecider:
    """Total classification map: fn gives every word its verdict, and
    lengths, when set, those of all words of length n, lazily in order.
    verdicts(n) is how a loop over all words of a length reads it."""

    tag: str
    fn: Callable[[str], Verdict]
    lengths: Callable[[int], Iterator[Verdict]] | None = None

    @staticmethod
    def from_machine(tag: str, machine: tm.MachineDesc,
                     fuel_policy: Callable[[int], int]) -> "TotalDecider":
        """The machine's output "1"/"0"/"10" as the verdict, under its fuel
        policy; any other output, or running out of fuel, raises
        NotTotalDecider instead of silently looping or defaulting."""

        def verdict(x: str, output: str | None) -> Verdict:
            if output in _OUTPUT_VERDICT:
                return _OUTPUT_VERDICT[output]
            raise NotTotalDecider(output if output is not None else
                                  f"<no output within fuel on {x!r}>")

        def decide(x: str) -> Verdict:
            return verdict(x, tm.run(machine, [x], fuel_policy(len(x))).output)

        def lengths(n: int) -> Iterator[Verdict]:
            # one lookup per output; only a refused output builds its word
            walked = tm.walk(machine, n, fuel_policy(n))
            for i, output in enumerate(walked, (1 << n) - 1):  # word index i
                yield _OUTPUT_VERDICT.get(output) or verdict(index_to_word(i), output)

        return TotalDecider(tag, decide, lengths)

    def verdicts(self, n: int) -> Iterator[Verdict]:
        """The verdicts of all words of length n, in canonical order."""
        if self.lengths is not None:
            return self.lengths(n)
        return map(self.fn, words_of_length(n))

    def classify(self, x: str) -> Verdict:
        return self.fn(x)

    def memoized(self) -> "TotalDecider":
        """The same decider, classifying each word at most once while the
        returned decider lives, its lengths included; a raise is not kept."""
        if self.lengths is None:
            return TotalDecider(self.tag, fn=cache(self.fn))
        memo = _Memo()
        memo.fn = self.fn
        return TotalDecider(self.tag, memo.__getitem__, lambda n: map(
            memo.setdefault, words_of_length(n), self.lengths(n)))


class _Memo(dict):
    """fn's value by word, kept from its first lookup unless fn raises."""

    def __missing__(self, x: str) -> Verdict:
        return self.setdefault(x, self.fn(x))


class OracleMachine(namedtuple("OracleMachine",
                               "base oracle_state runtime")):
    """Machine `base` with one distinguished query state, run for at most
    runtime(|x|) steps on input x.

    Entering the oracle state replaces the word under the head (up to the
    next blank) by the oracle's one-symbol answer; the replacement is free,
    the entering transition costs the usual single step.  A run steps
    in tm's one loop, over `rows`, and stops there at each query.
    """
    # no __slots__: the instance dict holds the cached rows

    @cached_property
    def rows(self) -> list[tm.Row | None]:
        """The base machine's rows, in which each transition into the
        oracle state enters one more final state, pending = base.states."""
        query, pending = self.oracle_state, self.base.states
        return [None if row is None else
                {sym: (pending if t == query else t, wsym, delta)
                 for sym, (t, wsym, delta) in row.items()}
                for row in self.base.rows] + [None]


# sym_diff: yes/no clashes; diff: (Ay \ By) | (An \ Bn); total_diff: both
DifferenceReport = namedtuple("DifferenceReport", "sym_diff diff total_diff")


def differences(a: TotalDecider, b: TotalDecider, bound: int,
                config: Config = Config()) -> DifferenceReport:
    """The three difference sets over all words of length <= bound."""
    if bound > config.max_word_length:
        raise CapExceeded(
            f"difference bound {bound} exceeds cap {config.max_word_length}")
    classify_a, classify_b = a.fn, b.fn
    sym, one_sided, total = set(), set(), set()
    for w in words_up_to(bound):
        va, vb = classify_a(w), classify_b(w)
        if va.separates(vb) and vb.separates(va):
            sym.add(w)
        if va.separates(vb):
            one_sided.add(w)
            total.add(w)
        elif vb.separates(va):
            total.add(w)
    return DifferenceReport(frozenset(sym), frozenset(one_sided), frozenset(total))


def _threshold_verdict(excess: Callable[[Fraction], int],
                       config: Config) -> Verdict:
    """The promise trichotomy of every threshold decider: No when
    excess(s) <= 0, else Yes when excess(c) >= 0, else outside, where
    excess(t) has the sign of the acceptance probability minus t.  No is
    tested first, so with c = s Yes means acceptance above s, as in PP."""
    if excess(config.threshold_s) <= 0:
        return Verdict.NO
    if excess(config.threshold_c) >= 0:
        return Verdict.YES
    return Verdict.OUTSIDE


def witness_verdict(m: int, cap: int,
                    verdict_of: Callable[[str], Verdict]) -> Verdict:
    """The witness quantifier of the MA, QCMA and BQP deciders.

    Walks the witnesses of length m in canonical order and stops at the
    first one whose verdict is Yes.  Yes iff some witness gives Yes, No
    iff every witness gives No, otherwise outside the promise.  More than
    cap witnesses raise WitnessSpaceTooLarge before any is tried.
    """
    _check_witness_space(m, cap)
    verdict = Verdict.NO
    for y in words_of_length(m):
        v = verdict_of(y)
        if v is Verdict.YES:
            return v
        if v is Verdict.OUTSIDE:
            verdict = v
    return verdict


def _check_witness_space(m: int, cap: int) -> None:
    """Raise WitnessSpaceTooLarge when the 2^m witnesses exceed cap."""
    if m >= cap.bit_length():  # 2^m > cap, without computing 2^m
        raise WitnessSpaceTooLarge(f"2^{m} witnesses exceed cap {cap}")


def marked_union(a: TotalDecider, a_prime: TotalDecider) -> TotalDecider:
    """0x routes to a, 1x to a_prime; the empty word is non-promised."""
    classify_a, classify_a_prime = a.fn, a_prime.fn

    def decide(x: str) -> Verdict:
        if x == "":
            return Verdict.OUTSIDE
        if x[0] == "0":
            return classify_a(x[1:])
        return classify_a_prime(x[1:])

    return TotalDecider(f"({a.tag})(+)({a_prime.tag})", fn=decide)


KarpViolation = namedtuple("KarpViolation",
                           "word verdict image image_verdict")
KarpReport = namedtuple("KarpReport", "checked violations")


def karp_check(a: TotalDecider,
               checks: Sequence[tuple[Callable[[str], str], TotalDecider]],
               bound: int, config: Config = Config()) -> tuple[KarpReport, ...]:
    """Verify yes->yes and no->no of each reduction f from a to its target
    b, for every (f, b) in checks, on all words of length <= bound.

    One walk serves every pair: a's verdicts are read one length at a
    time through a.verdicts, word by word in canonical order, and a word
    outside a's promise is skipped for every pair.  Returns one report
    per pair, in order; each counts every word walked as checked.
    """
    if bound > config.max_word_length:
        raise CapExceeded(
            f"reduction check bound {bound} exceeds cap {config.max_word_length}")
    pairs = [(f, b.fn, []) for f, b in checks]
    outside = Verdict.OUTSIDE
    for n in range(bound + 1):
        for w, va in zip(words_of_length(n), a.verdicts(n)):
            if va is outside:
                continue
            for f, b, violations in pairs:
                image = f(w)
                vb = b(image)
                if vb is not va:
                    violations.append(KarpViolation(w, va, image, vb))
    checked = (2 << bound) - 1 if bound >= 0 else 0
    return tuple(KarpReport(checked, tuple(violations))
                 for _, _, violations in pairs)


def cook_run(o: OracleMachine, oracle: TotalDecider, x: str) -> bool:
    """Run an oracle machine; True means it accepts (outputs "1").

    Queries outside the oracle's promise raise NonPromisedQuery; running
    beyond the machine's own runtime bound raises FuelExhausted.
    """
    m = o.base
    fuel = o.runtime(len(x))
    tm._check_inputs([x])
    if not m.trivial:
        rows, pending = o.rows, m.states
        stack = [(m.initial, list(x + tm.BLANK), 0, 0, 0)]
        # each stop at pending is a query: answer it and resume the run
        for state, tape, head, steps, _ in tm._ends(rows, stack, fuel):
            if state != pending:
                if rows[state] is None:
                    return tm._output(tape, head) == "1"
                break
            word = tm._output(tape, head)
            answer = oracle.classify(word)
            if answer is Verdict.OUTSIDE:
                raise NonPromisedQuery(word)
            tape[head:head + len(word)] = [tm.BLANK] * len(word)
            tape[head] = "1" if answer is Verdict.YES else "0"
            stack.append((o.oracle_state, tape, head, steps, 0))
    elif fuel >= 1:
        return False
    raise FuelExhausted(f"oracle machine exceeded its runtime on {x!r}")


def _parity(x: str) -> Verdict:
    return Verdict.YES if x.count("1") % 2 == 1 else Verdict.NO


def _length_in(lo: int, hi: int) -> Callable[[str], Verdict]:
    return lambda x: Verdict.YES if lo <= len(x) <= hi else Verdict.NO


# exposed read-only: the registry is fixed at import time
BUILTIN_PROBLEMS: "MappingProxyType[str, TotalDecider]" = MappingProxyType({
    "const-yes": TotalDecider("const-yes", fn=lambda x: Verdict.YES),
    "const-no": TotalDecider("const-no", fn=lambda x: Verdict.NO),
    "parity": TotalDecider("parity", fn=_parity),
    "len-even": TotalDecider(
        "len-even", fn=lambda x: Verdict.YES if len(x) % 2 == 0 else Verdict.NO),
    "len-1-to-3": TotalDecider("len-1-to-3", fn=_length_in(1, 3)),
    # a genuinely partial promise: all-zero words are non-promised
    "ones-promise": TotalDecider(
        "ones-promise",
        fn=lambda x: Verdict.OUTSIDE if x and x.count("1") == 0
        else _parity(x)),
})


def builtin(name: str) -> TotalDecider:
    try:
        return BUILTIN_PROBLEMS[name]
    except KeyError:
        raise KeyError(f"unknown builtin problem {name!r}; "
                       f"known: {', '.join(sorted(BUILTIN_PROBLEMS))}") from None
