"""Probabilistic Turing machines by exact branch counting.

A PTM maps each (state, symbol) pair to a non-empty set of actions; a run
is a tree of branches and the acceptance probability is the exact fraction
of halting leaves whose output is "1" over all leaves, taken uniformly
over leaves regardless of depth (not per-step coin weighting, which
differs on trees with mixed arities).  A leaf accepts on output "1",
rejects on output "0"; any other halting output is neither, which for the
threshold deciders acts as rejection.

The leaves are counted over configurations, not tree paths: branches
that reach the same (state, head, tape) at the same step are merged and
carry the number of paths they stand for, as in the path-counting
argument for BPP in PSPACE.  Every leaf still counts once per path, so
the counts and the leaf-uniform weighting are those of the full tree.

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
from .errors import BranchFuelExhausted, CapExceeded
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
        if not self.trivial:
            # branch sets are sets: canonicalize order and drop repeats
            object.__setattr__(self, "transitions", {
                key: tuple(sorted(set(actions)))
                for key, actions in self.transitions.items()})
        tm.check_description(self)

    def rules(self) -> list[tuple[tuple[int, str], Action]]:
        """The (state, symbol) -> action rules, one per action of a branch
        set, in the set's canonical order."""
        return [(key, action) for key, actions in self.transitions.items()
                for action in actions]


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
        table: dict[tuple[int, str], list[Action]] = {}
        for s, sym, t, wsym, move in quintuples:
            table.setdefault((s, sym), []).append((t, wsym, move))
        return PTMDesc(states, initial, finals, table)
    except ValueError:
        return TRIVIAL_PTM


# The grammar is shared: a PTM encodes as its quintuples in canonical order.
encode_ptm = tm.encode_godel


def load_ptm_file(path: str) -> PTMDesc:
    with open(path, "r", encoding="ascii") as fh:
        return decode_ptm(fh.read().rstrip("\n"))


# Configurations stepped together.  Equal configurations merge only
# within one chunk, so the width trades speed against the size of the
# merge tables: on 2^12-2^16-leaf complete trees traced allocations peak
# at 0.32 MB (16-bit inputs) and 0.58 MB (256-bit) at 256, and at up to
# 1.5 and 6.5 MB unchunked, for a walk about 8% slower than unchunked.
_CHUNK = 256


def enumerate_branches(
    m: PTMDesc,
    inputs: list[str] | tuple[str, ...],
    fuel: int,
    on_overrun: Literal["raise", "reject"] = "raise",
    *,
    config: Config = Config(),
) -> BranchStats:
    """Exact leaf counts of the computation tree, over merged configurations.

    The tree is walked one step at a time.  Branches that reach the same
    configuration (state, head, tape) at the same step merge into one
    entry that counts the tree paths it stands for, so each leaf is still
    counted once per path and the fractions stay leaf-uniform.  A frontier
    wider than _CHUNK is cut into ordered chunks that are walked depth
    first, and a lone configuration steps on its own until it branches.

    A branch that fails to halt within fuel raises BranchFuelExhausted
    with the lexicographically least choice sequence of such a path (the
    first a depth-first walk meets), or with on_overrun="reject" is
    counted as a rejecting leaf (the convention used by the class
    presentations).  More than config.max_branch_configs configuration
    steps raise CapExceeded.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    tm._check_inputs(inputs)
    if m.trivial:
        if fuel < 1 and on_overrun == "raise":
            raise BranchFuelExhausted((), fuel)
        return BranchStats(0, 1, 1, Fraction(0), Fraction(1))
    finals, table, delta = m.finals, m.transitions, tm._MOVE_DELTA
    budget = config.max_branch_configs
    expanded = accepting = rejecting = total = 0
    # A configuration is (state, head, lo, text): text is the tape from
    # its first non-blank cell, lo, through its last (see _tape), so equal
    # tapes have equal keys.  Its entry carries the number of tree paths
    # reaching it and the link (choice, parent link) of the least of them;
    # None is the root.
    stack = [(0, [((m.initial, 0, *_tape(0, tm.BLANK.join(inputs))), 1, None)])]
    while stack:
        steps, frontier = stack.pop()
        while frontier:
            if len(frontier) == 1:
                (key, count, link), = frontier
                key, ran = _run_alone(table, finals, key,
                                      min(fuel - steps, budget - expanded))
                steps += ran
                expanded += ran
                frontier = [(key, count, link)]
            # Entries come in the order of their least paths and children
            # are inserted in choice order, so a configuration's first
            # insertion carries its least path and the next frontier is
            # again in that order.
            counts, links = {}, {}
            for key, count, link in frontier:
                state, head, lo, text = key
                i = head - lo
                if state in finals:
                    total += count
                    output = text[i:].partition(tm.BLANK)[0] if i >= 0 else ""
                    if output == "1":
                        accepting += count
                    elif output == "0":
                        rejecting += count
                    continue
                if steps == fuel:
                    if on_overrun == "raise":
                        raise BranchFuelExhausted(_path(link), fuel)
                    total += count
                    rejecting += count
                    continue
                expanded += 1
                if expanded > budget:
                    raise CapExceeded(f"branch enumeration exceeds {budget} "
                                      "configuration steps (max-branch-configs)")
                sym = text[i] if 0 <= i < len(text) else tm.BLANK
                actions = table[(state, sym)]
                branching = len(actions) > 1
                for idx, (t, wsym, move) in enumerate(actions):
                    if wsym == sym:
                        child = (t, head + delta[move], lo, text)
                    else:
                        child = (t, head + delta[move], *_tape(lo, text, i, wsym))
                    if child in counts:
                        counts[child] += count
                    else:
                        counts[child] = count
                        links[child] = (idx, link) if branching else link
            steps += 1
            frontier = list(zip(counts, counts.values(), links.values()))
            if len(frontier) > _CHUNK:
                stack.extend((steps, frontier[i:i + _CHUNK]) for i in
                             reversed(range(0, len(frontier), _CHUNK)))
                break
    if total == 0:
        raise AssertionError("a machine run always produces at least one leaf")
    return BranchStats(accepting, rejecting, total,
                       Fraction(accepting, total), Fraction(rejecting, total))


def _run_alone(table, finals, key, limit: int):
    """Step one configuration for at most `limit` steps, up to its first
    branch or final state; returns it with the number of steps taken."""
    state, head, lo, text = key
    cells = list(text)  # padded with blanks at either end on demand
    i, delta = head - lo, tm._MOVE_DELTA
    steps = 0
    while steps < limit and state not in finals:
        if not 0 <= i < len(cells):
            pad = [tm.BLANK] * (len(cells) + abs(i) + 1)
            if i < 0:
                cells[:0] = pad
                lo -= len(pad)
                i += len(pad)
            else:
                cells += pad
        sym = cells[i]
        actions = table[(state, sym)]
        if len(actions) > 1:
            break
        state, cells[i], move = actions[0]
        i += delta[move]
        steps += 1
    if not steps:
        return key, 0
    return (state, lo + i, *_tape(lo, "".join(cells))), steps


def _tape(lo: int, text: str, i: int = 0, sym: str = "") -> tuple[int, str]:
    """The canonical (lo, text) of the tape holding text from cell lo,
    after writing sym, if given, at index i of text, which may lie outside
    it.  Neither end of the canonical text is a blank, and the blank tape
    is (0, "")."""
    if sym:
        if i < 0:
            text, lo, i = tm.BLANK * -i + text, lo + i, 0
        text = text.ljust(i, tm.BLANK)[:i] + sym + text[i + 1:]
    body = text.lstrip(tm.BLANK)
    if not body:
        return 0, ""
    return lo + len(text) - len(body), body.rstrip(tm.BLANK)


def _path(link) -> tuple[int, ...]:
    path = []
    while link is not None:
        idx, link = link
        path.append(idx)
    return tuple(reversed(path))


def classify_bpp(
    m: PTMDesc,
    runtime: Callable[[int], int],
    x: str,
    *,
    on_overrun: Literal["raise", "reject"] = "raise",
    config: Config = Config(),
) -> Verdict:
    """Threshold trichotomy on the exact acceptance fraction.

    No iff p_acc <= s, else Yes iff p_acc >= c (both non-strict, so at
    c = s Yes means p_acc > s), else outside the promise.  Fuel is
    runtime(len(x)); a branch overrunning it indicates the machine
    violates its runtime bound.
    """
    stats = enumerate_branches(m, [x], runtime(len(x)), on_overrun=on_overrun,
                               config=config)
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

    Yes iff some witness of the prescribed length gets classify_bpp's
    Yes, No iff all get its No, otherwise outside the promise.
    """
    m_len = wit_len(len(x))
    fuel = runtime(len(x))
    return witness_verdict(m_len, MAX_WITNESS_SPACE, lambda y: _trichotomy(
        enumerate_branches(m, [x, y], fuel, on_overrun=on_overrun,
                           config=config).p_acc,
        config))


def _trichotomy(p: Fraction, config: Config) -> Verdict:
    if p <= config.threshold_s:
        return Verdict.NO
    if p >= config.threshold_c:
        return Verdict.YES
    return Verdict.OUTSIDE
