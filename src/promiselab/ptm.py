"""Probabilistic Turing machines by exhaustive branch enumeration.

A PTM maps each (state, symbol) pair to a non-empty set of actions; a run
is a tree of branches and the acceptance probability is the exact fraction
of halting leaves whose output is "1" over all leaves, taken uniformly
over leaves regardless of depth (not per-step coin weighting, which
differs on trees with mixed arities).  A leaf accepts on output "1",
rejects on output "0"; any other halting output is neither, which for the
threshold deciders acts as rejection.

The Godel grammar is shared with deterministic machines; repeating a
(state, symbol) pair contributes further actions to its branch set, and
repeating an identical quintuple is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Literal

from . import tm
from .config import Config
from .errors import BranchFuelExhausted
from .promise import MAX_WITNESS_SPACE, Verdict, witness_verdict

Action = tuple[int, str, str]


@dataclass(frozen=True)
class PTMDesc:
    states: int
    initial: int
    finals: frozenset[int]
    transitions: dict[tuple[int, str], tuple[Action, ...]] = field(default_factory=dict)
    trivial: bool = False

    def __post_init__(self):
        if self.trivial:
            return
        # branch sets are sets: canonicalize order and drop repeats
        object.__setattr__(self, "transitions", {
            key: tuple(sorted(set(actions)))
            for key, actions in self.transitions.items()})
        if self.states < 1:
            raise ValueError("machine needs at least one state")
        if not 0 <= self.initial < self.states:
            raise ValueError("initial state out of range")
        if any(not 0 <= f < self.states for f in self.finals):
            raise ValueError("final state out of range")
        for (s, sym), actions in self.transitions.items():
            if not actions:
                raise ValueError("empty branch set")
            if not 0 <= s < self.states or sym not in tm.SYMBOLS:
                raise ValueError("bad transition key")
            for (t, wsym, move) in actions:
                if not 0 <= t < self.states or wsym not in tm.SYMBOLS \
                        or move not in tm.MOVES:
                    raise ValueError("bad action")
        for s in range(self.states):
            if s in self.finals:
                continue
            for sym in tm.SYMBOLS:
                if (s, sym) not in self.transitions:
                    raise ValueError(f"missing branch set for ({s}, {sym!r})")


TRIVIAL_PTM = PTMDesc(states=1, initial=0, finals=frozenset(),
                      transitions={}, trivial=True)


@dataclass(frozen=True)
class BranchStats:
    accepting: int
    rejecting: int
    total: int
    p_acc: Fraction
    p_rej: Fraction


def decode_ptm(bits: str) -> PTMDesc:
    """Total decoder; invalid strings denote the trivial (rejecting) machine."""
    try:
        states, initial, finals, quintuples = tm.parse_godel_structure(bits)
        table: dict[tuple[int, str], set[Action]] = {}
        for s, sym, t, wsym, move in quintuples:
            table.setdefault((s, sym), set()).add((t, wsym, move))
        transitions = {key: tuple(sorted(actions)) for key, actions in table.items()}
        return PTMDesc(states, initial, finals, transitions)
    except ValueError:
        return TRIVIAL_PTM


def encode_ptm(m: PTMDesc) -> str:
    if m.trivial:
        return ""
    parts = [tm._encode_header(m.states, m.initial, m.finals)]
    for (s, sym), actions in sorted(
            m.transitions.items(),
            key=lambda kv: (kv[0][0], tm.SYMBOLS.index(kv[0][1]))):
        for (t, wsym, move) in actions:
            parts.append(tm.encode_quintuple(s, sym, t, wsym, move))
    return "".join(parts)


def load_ptm_file(path: str) -> PTMDesc:
    with open(path, "r", encoding="ascii") as fh:
        return decode_ptm(fh.read().rstrip("\n"))


def enumerate_branches(
    m: PTMDesc,
    inputs: list[str] | tuple[str, ...],
    fuel: int,
    on_overrun: Literal["raise", "reject"] = "raise",
) -> BranchStats:
    """Depth-first walk of every computation path, exact leaf counts.

    A branch that fails to halt within fuel raises BranchFuelExhausted
    with its choice prefix, or with on_overrun="reject" is counted as a
    rejecting leaf (the convention used by the class presentations).
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    if m.trivial:
        if fuel < 1 and on_overrun == "raise":
            raise BranchFuelExhausted((), fuel)
        return BranchStats(0, 1, 1, Fraction(0), Fraction(1))
    accepting = rejecting = total = 0
    root_tape = tm.tape_from_inputs(inputs)
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
            output = tm.output_at(tape, head)
            total += 1
            if output == "1":
                accepting += 1
            elif output == "0":
                rejecting += 1
    if total == 0:
        raise AssertionError("a machine run always produces at least one leaf")
    return BranchStats(accepting, rejecting, total,
                       Fraction(accepting, total), Fraction(rejecting, total))


def classify_bpp(
    m: PTMDesc,
    runtime: Callable[[int], int],
    x: str,
    *,
    on_overrun: Literal["raise", "reject"] = "raise",
    config: Config = Config(),
) -> Verdict:
    """Threshold trichotomy on the exact acceptance fraction.

    Yes iff p_acc >= c, No iff p_acc <= s (both non-strict), otherwise
    the input is outside the promise.  Fuel is runtime(len(x)); a branch
    overrunning it indicates the machine violates its runtime bound.
    """
    stats = enumerate_branches(m, [x], runtime(len(x)), on_overrun=on_overrun)
    return _trichotomy(stats.p_acc, config)


def classify_ma(
    m: PTMDesc,
    runtime: Callable[[int], int],
    wit_len: Callable[[int], int],
    x: str,
    *,
    on_overrun: Literal["raise", "reject"] = "raise",
    config: Config = Config(),
) -> Verdict:
    """Existential/universal witness loop over the second tape input.

    Yes iff some witness of the prescribed length reaches p_acc >= c,
    No iff all stay <= s, otherwise outside the promise.
    """
    m_len = wit_len(len(x))
    fuel = runtime(len(x))
    return witness_verdict(m_len, MAX_WITNESS_SPACE, lambda y: _trichotomy(
        enumerate_branches(m, [x, y], fuel, on_overrun=on_overrun).p_acc,
        config))


def _trichotomy(p: Fraction, config: Config) -> Verdict:
    if p >= config.threshold_c:
        return Verdict.YES
    if p <= config.threshold_s:
        return Verdict.NO
    return Verdict.OUTSIDE
