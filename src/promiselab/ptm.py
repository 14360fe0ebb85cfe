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

A configuration is keyed as (state, head, right, left): right holds
cells 0, 1, ... and left cells -1, -2, ..., each as one int of two-bit
cell codes with blank = 0, cell 0 (or -1) in the lowest bits.  Equal
tapes are then equal ints and need no canonical form.  Reading a cell is
a shift and a mask, and writing one XORs in the read code XOR the
written code, which the machine's rows table holds for each action.
A lone configuration steps on its own until it branches, in tm's one
deterministic stepping loop, over the machine's lone_rows.

The Godel grammar is shared with deterministic machines; repeating a
(state, symbol) pair contributes further actions to its branch set, and
repeating an identical quintuple is idempotent.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from typing import Callable, Literal

from . import tm
from .config import Config
from .errors import BranchFuelExhausted, CapExceeded
from .promise import MAX_WITNESS_SPACE, Verdict, _threshold_verdict, \
    witness_verdict

Action = tuple[int, str, str]
# An action on a read code: (next state, read code XOR written code, head
# delta, choice), choice being the action's index in a branch set of two
# or more actions and None in a set of one.
Step = tuple[int, int, int, int | None]

# Two-bit cell codes, blank = 0.  A leaf reads its head cell's code with
# the next cell's above it, so output "1" is the code of 1 over a blank's.
_CODE = {tm.BLANK: 0, "0": 1, "1": 2}
_OUT_ONE, _OUT_ZERO = _CODE["1"], _CODE["0"]
# Between symbols and base-4 digits, and from each hex digit of an int
# tape to its two cells' symbols, the higher cell first.
_TEXT_DIGITS = str.maketrans({sym: str(code) for sym, code in _CODE.items()})
_HEX_SYMBOLS = {ord(f"{hi << 2 | lo:x}"): a + b
                for a, hi in _CODE.items() for b, lo in _CODE.items()}


class PTMDesc(namedtuple("PTMDesc",
                         "states initial finals transitions trivial")):
    # no __slots__: the instance dict holds the cached rows

    def __new__(cls, states: int, initial: int, finals: frozenset[int],
                transitions: dict[tuple[int, str], tuple[Action, ...]]
                | None = None, trivial: bool = False):
        if transitions is None:
            transitions = {}
        elif not trivial:
            # branch sets are sets: canonicalize order and drop repeats
            transitions = {key: tuple(sorted(set(actions)))
                           for key, actions in transitions.items()}
        self = super().__new__(cls, states, initial, finals, transitions,
                               trivial)
        tm.check_description(self)
        return self

    def rules(self) -> list[tuple[tuple[int, str], Action]]:
        """The (state, symbol) -> action rules, one per action of a branch
        set, in the set's canonical order."""
        return [(key, action) for key, actions in self.transitions.items()
                for action in actions]

    @cached_property
    def rows(self) -> list[tuple[tuple[Step, ...], ...] | None]:
        """rows[state]: None for a final state, otherwise its branch sets
        indexed by the code of the symbol read (see Step)."""
        return [None if s in self.finals else tuple(
                    _steps(code, self.transitions[(s, sym)])
                    for sym, code in _CODE.items())
                for s in range(self.states)]

    @cached_property
    def lone_rows(self) -> list[tm.Row | None]:
        """tm's rows for a lone stretch: a pair (s, sym) with a branch set
        steps to final clone state states + s, keeps sym and stays."""
        n = self.states
        return tm._tables(2 * n, self.finals.union(range(n, 2 * n)), (
            (s, sym, *actions[0]) if len(actions) == 1
            else (s, sym, n + s, sym, "N")
            for (s, sym), actions in self.transitions.items()))[1]


def _steps(code: int, actions: tuple[Action, ...]) -> tuple[Step, ...]:
    lone = len(actions) == 1
    return tuple((t, code ^ _CODE[wsym], tm._MOVE_DELTA[move],
                  None if lone else choice)
                 for choice, (t, wsym, move) in enumerate(actions))


TRIVIAL_PTM = PTMDesc(states=1, initial=0, finals=frozenset(),
                      transitions={}, trivial=True)


BranchStats = namedtuple("BranchStats",
                         "accepting rejecting total p_acc p_rej")


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


def load_ptm_file(path: str) -> PTMDesc:
    with open(path, "r", encoding="ascii") as fh:
        return decode_ptm(fh.read().rstrip("\n"))


# Configurations stepped together.  Equal configurations merge only
# within one chunk, so the width trades speed against the size of the
# merge tables: on the 2^12-2^16-leaf complete trees of five perfbench
# `branches` cycles, traced allocations peak at 0.25 MB (16-bit inputs)
# and 0.31 MB (256-bit) at 256, and at up to 1.6 and 1.5 MB unchunked,
# for a walk about 4% slower than unchunked.
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
    counted as a rejecting leaf (the convention of classify_ma, and so of
    classify_bpp, classify_ma at witness length 0).  More than
    config.max_branch_configs configuration steps raise CapExceeded.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    tm._check_inputs(inputs)
    if m.trivial:
        if fuel < 1 and on_overrun == "raise":
            raise BranchFuelExhausted((), fuel)
        return BranchStats(0, 1, 1, Fraction(0), Fraction(1))
    rows = m.rows
    budget = config.max_branch_configs
    expanded = accepting = rejecting = total = 0
    # A configuration is (state, head, right, left), its tape as the two
    # int halves of the module docstring.  Its entry is [the number of
    # tree paths reaching it, the link (choice, parent link) of the least
    # of them]; None is the root.
    digits = tm.BLANK.join(inputs)[::-1].translate(_TEXT_DIGITS)
    root = (m.initial, 0, int(digits or "0", 4), 0)
    stack = [(0, [(root, [1, None])])]
    while stack:
        steps, frontier = stack.pop()
        while frontier:
            if len(frontier) == 1:
                (key, entry), = frontier
                key, ran = _run_alone(m, key,
                                      min(fuel - steps, budget - expanded))
                steps += ran
                expanded += ran
                frontier = [(key, entry)]
            # Entries come in the order of their least paths and children
            # are inserted in choice order, so a configuration's first
            # insertion carries its least path and the next frontier is
            # again in that order.
            children = {}
            for (state, head, right, left), (count, link) in frontier:
                if head >= 0:
                    shift = head << 1
                    sym = right >> shift & 3
                else:
                    shift = ~head << 1
                    sym = left >> shift & 3
                row = rows[state]
                if row is None:
                    total += count
                    out = sym | _cell(head + 1, right, left) << 2
                    if out == _OUT_ONE:
                        accepting += count
                    elif out == _OUT_ZERO:
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
                for t, flip, delta, choice in row[sym]:
                    if not flip:
                        child = (t, head + delta, right, left)
                    elif head >= 0:
                        child = (t, head + delta, right ^ flip << shift, left)
                    else:
                        child = (t, head + delta, right, left ^ flip << shift)
                    new = [count, link if choice is None else (choice, link)]
                    entry = children.setdefault(child, new)
                    if entry is not new:
                        entry[0] += count
            steps += 1
            frontier = children.items()
            if len(frontier) > _CHUNK:
                frontier = list(frontier)
                stack.extend((steps, frontier[i:i + _CHUNK]) for i in
                             reversed(range(0, len(frontier), _CHUNK)))
                break
    if total == 0:
        raise AssertionError("a machine run always produces at least one leaf")
    return BranchStats(accepting, rejecting, total,
                       Fraction(accepting, total), Fraction(rejecting, total))


def _run_alone(m: PTMDesc, key, limit: int):
    """Step one configuration for at most `limit` steps, up to its first
    branch or final state; returns it with the number of steps taken.

    The stretch runs in tm._ends over lone_rows, on one list of symbols
    made from the int tapes and turned back, each in time linear in the
    tape.  _ends moves cell 0 when it grows the list on the left, so the
    list is padded there as far as the tape is long and the fuel keeps
    the head on it; the frontier walk resumes a stretch cut there on a
    tape padded about twice as far, so a long walk stays linear."""
    state, head, right, left = key
    row = m.rows[state]
    if not limit or row is None or len(row[_cell(head, right, left)]) > 1:
        return key, 0
    # cells from -len(lefts) and from 0, each reaching the head, and the
    # cells left of 0 padded as far as the tape is long
    lefts = format(left, "x").translate(_HEX_SYMBOLS).rjust(-head, tm.BLANK)
    rights = format(right, "x").translate(_HEX_SYMBOLS)[::-1].ljust(
        head + 1, tm.BLANK)
    lefts = tm.BLANK * (len(lefts) + len(rights)) + lefts
    zero = len(lefts)
    state, tape, i, steps, _ = next(tm._ends(m.lone_rows, [(
        state, list(lefts + rights), zero + head, 0, 0)],
        min(limit, zero + head)))
    clone, state = divmod(state, m.states)  # 1 after the phantom step
    text = "".join(tape)
    if not text.startswith(lefts):
        left = int(text[:zero].translate(_TEXT_DIGITS), 4)
    return (state, i - zero, int(text[:zero - 1:-1].translate(_TEXT_DIGITS), 4),
            left), steps - clone


def _cell(head: int, right: int, left: int) -> int:
    """The code in cell `head` of the int tapes."""
    return right >> (head << 1) & 3 if head >= 0 else left >> (~head << 1) & 3


def _path(link) -> tuple[int, ...]:
    path = []
    while link is not None:
        idx, link = link
        path.append(idx)
    return tuple(reversed(path))


def classify_bpp(m: PTMDesc, runtime: Callable[[int], int], x: str, *,
                 config: Config = Config()) -> Verdict:
    """classify_ma at witness length 0: a run on [x, ""] is one on [x]."""
    return classify_ma(m, runtime, lambda n: 0, x, config=config)


def classify_ma(
    m: PTMDesc,
    runtime: Callable[[int], int],
    wit_len: Callable[[int], int],
    x: str,
    *,
    config: Config = Config(),
) -> Verdict:
    """Threshold trichotomy on exact acceptance fractions, under a witness
    loop over the second tape input.

    A witness y of length wit_len(len(x)) is No iff the run on [x, y] has
    p_acc <= s, else Yes iff p_acc >= c (both non-strict, so at c = s Yes
    means p_acc > s), else outside the promise.  Yes iff some witness is
    Yes, No iff all are No, otherwise outside the promise.  Fuel is
    runtime(len(x)); a branch overrunning it violates the runtime bound
    and counts as a rejecting leaf, so the verdict is total.
    """
    fuel = runtime(len(x))
    return witness_verdict(wit_len(len(x)), MAX_WITNESS_SPACE, lambda y:
                           _threshold_verdict(enumerate_branches(
                               m, [x, y], fuel, on_overrun="reject",
                               config=config).p_acc.__sub__, config))
