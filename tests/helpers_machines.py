"""Hand-built machines shared across the test modules, and the reductions,
oracle machines and costed functions that tests build from machines.

All deciders follow the same scaffold: walk right over the input, then
emit the answer in the blank region after it, so the head ends on the
first answer symbol with a blank to its right.
"""

from typing import Callable

from promiselab import tm
from promiselab.config import Config
from promiselab.enumeration import CostedFunction, polyfunc_series
from promiselab.errors import FuelExhausted
from promiselab.promise import OracleMachine, TotalDecider
from promiselab.tm import BLANK, MachineDesc, SYMBOLS
from promiselab.ptm import PTMDesc


def total_walk(extra: dict, states: int, finals: set[int],
               initial: int = 0) -> dict:
    """State 0 walks right over 0/1; extra supplies the remaining rules."""
    table = {(0, "0"): (0, "0", "R"), (0, "1"): (0, "1", "R")}
    table.update(extra)
    return {"states": states, "initial": initial,
            "finals": frozenset(finals), "transitions": table}


def parity_machine() -> MachineDesc:
    """Outputs "1" on an odd number of ones, "0" otherwise."""
    return MachineDesc(states=3, initial=0, finals=frozenset({2}), transitions={
        (0, "0"): (0, "0", "R"),
        (0, "1"): (1, "1", "R"),
        (0, BLANK): (2, "0", "N"),
        (1, "0"): (1, "0", "R"),
        (1, "1"): (0, "1", "R"),
        (1, BLANK): (2, "1", "N"),
    })


def identity_machine() -> MachineDesc:
    """Halts immediately; output equals the input."""
    return MachineDesc(states=1, initial=0, finals=frozenset({0}), transitions={})


def prepend_zero_machine() -> MachineDesc:
    """Outputs "0" + input in two steps."""
    table = {}
    for sym in SYMBOLS:
        table[(0, sym)] = (1, sym, "L")
        table[(1, sym)] = (2, "0", "N")
    return MachineDesc(states=3, initial=0, finals=frozenset({2}),
                       transitions=table)


def erase_left_machine() -> MachineDesc:
    """Walks right over the input, back left erasing it, then writes "0"
    and "1" in cells -1 and -2; outputs "10" after 2|x| + 3 steps."""
    table = {(0, "0"): (0, "0", "R"), (0, "1"): (0, "1", "R"),
             (0, BLANK): (1, BLANK, "L"),
             (1, "0"): (1, BLANK, "L"), (1, "1"): (1, BLANK, "L"),
             (1, BLANK): (2, "0", "L")}
    table.update({(2, sym): (3, "1", "N") for sym in SYMBOLS})
    return MachineDesc(states=4, initial=0, finals=frozenset({3}),
                       transitions=table)


def halt_at_one_machine(loop: bool = False) -> MachineDesc:
    """Walks right over 0s: outputs "0" at the blank after them, and at
    the first 1 halts with its output from there, or loops there."""
    table = {(0, "0"): (0, "0", "R"), (0, "1"): (1, "1", "N"),
             (0, BLANK): (2, "0", "N")}
    table.update({(1, sym): (1, sym, "N") for sym in SYMBOLS})
    return MachineDesc(states=3, initial=0,
                       finals=frozenset({2} if loop else {1, 2}),
                       transitions=table)


def last_bits_machine() -> MachineDesc:
    """A verifier on [x, w] that reads every cell of both words: outputs
    "1" iff x and w both end in 1, otherwise "0"."""
    table = {(s, sym): (int(sym), sym, "R") for s in (0, 1) for sym in "01"}
    # state 2 scans w after an x that does not end in 1; states 3 and 4
    # scan it after one that does, in state 4 when its last cell was 1
    table.update({(0, BLANK): (2, BLANK, "R"), (1, BLANK): (3, BLANK, "R"),
                  (2, "0"): (2, "0", "R"), (2, "1"): (2, "1", "R")})
    table.update({(s, sym): (3 + int(sym), sym, "R")
                  for s in (3, 4) for sym in "01"})
    table.update({(s, BLANK): (5, out, "N")
                  for s, out in ((2, "0"), (3, "0"), (4, "1"))})
    return MachineDesc(states=6, initial=0, finals=frozenset({5}),
                       transitions=table)


def always_accept_machine() -> MachineDesc:
    """Walks right and writes "1" after the input."""
    return MachineDesc(**total_walk(
        {(0, BLANK): (1, "1", "N")}, states=2, finals={1}))


def always_reject_machine() -> MachineDesc:
    return MachineDesc(**total_walk(
        {(0, BLANK): (1, "0", "N")}, states=2, finals={1}))


def emit_outside_machine() -> MachineDesc:
    """Outputs "10" (the non-promised token) on every input."""
    return MachineDesc(**total_walk({
        (0, BLANK): (1, "1", "R"),
        (1, BLANK): (2, "0", "L"),
        (1, "0"): (2, "0", "L"),
        (1, "1"): (2, "1", "L"),
    }, states=3, finals={2}))


def diverging_machine() -> MachineDesc:
    table = {(0, sym): (0, sym, "N") for sym in SYMBOLS}
    return MachineDesc(states=1, initial=0, finals=frozenset(),
                       transitions=table)


def parity_decider_machine() -> MachineDesc:
    """Three-valued output: "1" odd ones, "0" even ones; total decision."""
    return parity_machine()


def const_output_machine(word: str) -> MachineDesc:
    """Erases the input, then writes `word` and halts on its first symbol.

    Runs in |input| + max(len(word), 1) steps.
    """
    k = len(word)
    # state 0: erase; states 1..k-1: write word back to front; state k: final
    final = max(k, 1)
    table = {
        (0, "0"): (0, BLANK, "R"),
        (0, "1"): (0, BLANK, "R"),
    }
    if k == 0:
        table[(0, BLANK)] = (final, BLANK, "N")
    else:
        # at the blank after the erased input, write the last symbol and
        # walk left writing the earlier ones
        table[(0, BLANK)] = (1, word[k - 1], "L") if k > 1 else (final, word[0], "N")
        for j in range(1, k):
            # state j writes word[k-1-j]
            sym = word[k - 1 - j]
            move = "L" if j + 1 < k else "N"
            for read in SYMBOLS:
                table[(j, read)] = (j + 1, sym, move)
    return MachineDesc(states=final + 1, initial=0, finals=frozenset({final}),
                       transitions=table)


def runtime_poly(offset: int, slope: int = 1):
    return lambda n: slope * n + offset


# -- reductions, oracle machines and costed functions built from machines ----


def machine_reduction(tag: str, machine: MachineDesc,
                      runtime: Callable[[int], int]) -> Callable[[str], str]:
    """The machine's output as a word function; a run that passes its
    runtime raises FuelExhausted."""

    def apply(x: str) -> str:
        output = tm.run(machine, [x], runtime(len(x))).output
        if output is None:
            raise FuelExhausted(f"reduction {tag} exceeded its runtime on {x!r}")
        return output

    return apply


def karp_to_cook(machine: MachineDesc,
                 runtime: Callable[[int], int]) -> OracleMachine:
    """A reduction machine as a one-query oracle machine.

    The machine runs the reduction, queries the oracle on its output, and
    echoes the answer; with oracle B it decides A on promised words
    whenever the reduction Karp-reduces A to B.
    """
    query, echo = machine.states, machine.states + 1
    transitions = dict(machine.transitions)
    for s in machine.finals:
        for sym in SYMBOLS:
            transitions[(s, sym)] = (query, sym, "N")
    for sym in SYMBOLS:
        transitions[(query, sym)] = (echo, sym, "N")
    composed = MachineDesc(states=machine.states + 2, initial=machine.initial,
                           finals=frozenset({echo}), transitions=transitions)
    return OracleMachine(composed, query, lambda n: runtime(n) + 2)


def query_echo_machine() -> OracleMachine:
    """Queries the oracle on its whole input, halts on the answer.

    Oracle state 1, clock n + 5.
    """
    table = {}
    for sym in SYMBOLS:
        table[(0, sym)] = (1, sym, "N")   # step into the oracle state
        table[(1, sym)] = (2, sym, "N")   # read the answer, halt
    base = MachineDesc(states=3, initial=0, finals=frozenset({2}),
                       transitions=table)
    return OracleMachine(base, 1, lambda n: n + 5)


def reduction_closure(a: TotalDecider, i: int,
                      config: Config = Config()) -> TotalDecider:
    """Decider i of the closure of a under polynomial-time reductions."""
    f = polyfunc_series(i, config)
    return TotalDecider(f"{a.tag}<=m[{i}]", fn=lambda x: a.classify(f(x)))


def costed_toy(name: str, f: Callable[[int], int]) -> CostedFunction:
    """A plain function with unit evaluation cost."""
    return CostedFunction(name, lambda n: (f(n), 1))


def eval_counted(machine: MachineDesc, n: int) -> int:
    """Steps the machine takes on the all-zeros word of length n."""
    result = tm.run(machine, ["0" * n], 100_000)
    assert result.output is not None, "no halt within 100000 steps"
    return result.steps


def step_counted(machine: MachineDesc) -> CostedFunction:
    """n -> (steps on 0^n, steps): a machine-backed costed function whose
    cost is the number of steps simulated."""

    def evaluate(n: int) -> tuple[int, int]:
        steps = eval_counted(machine, n)
        return steps, steps

    return CostedFunction("counted-machine", evaluate)


# -- probabilistic machines ---------------------------------------------------


def det_walk_ptm(emit: str) -> PTMDesc:
    """Deterministic PTM: walk right, then write a single answer symbol."""
    return PTMDesc(states=2, initial=0, finals=frozenset({1}), transitions={
        (0, "0"): ((0, "0", "R"),),
        (0, "1"): ((0, "1", "R"),),
        (0, BLANK): ((1, emit, "N"),),
    })


def left_walk_ptm() -> PTMDesc:
    """Deterministic PTM that walks left for ever over fresh cells, one
    cell every two steps: it writes 1, writes 0 one cell on, and steps
    back to read the 1 and the 0 before it moves on.  A symbol it did not
    write sends it to final state 4, so a run that loses a written cell
    halts instead of running out of fuel."""
    halt = {(s, sym): ((4, sym, "N"),) for s in (1, 2, 3) for sym in SYMBOLS}
    return PTMDesc(states=5, initial=0, finals=frozenset({4}), transitions={
        **halt, **{(0, sym): ((1, "1", "L"),) for sym in SYMBOLS},
        (1, BLANK): ((2, "0", "R"),), (2, "1"): ((3, "1", "L"),),
        (3, "0"): ((0, "0", "L"),)})


def fan_ptm(accepting: int, total: int) -> PTMDesc:
    """Walk right, then branch `total` ways; `accepting` leaves output "1".

    All leaves sit at the same depth, so the acceptance fraction is
    exactly accepting/total by construction.
    """
    if not 0 <= accepting <= total or not 1 <= total:
        raise ValueError("need 0 <= accepting <= total, total >= 1")
    finals = frozenset(range(1, total + 1))
    actions = tuple(
        (t, "1" if t <= accepting else "0", "N")
        for t in range(1, total + 1))
    table = {
        (0, "0"): ((0, "0", "R"),),
        (0, "1"): ((0, "1", "R"),),
        (0, BLANK): actions,
    }
    return PTMDesc(states=total + 1, initial=0, finals=finals,
                   transitions=table)


def complete_tree_ptm(fan_out: int, depth: int, accepting: int) -> PTMDesc:
    """Branches `fan_out` ways at each of `depth` levels: fan_out^depth leaves.

    Level d is state d.  Its actions write 0, 1 or blank and move right,
    then the same moving left, then not moving; with a fan-out up to 3
    every path leaves a different tape (fan_out^d distinct configurations
    at depth d), above 3 some paths merge.  At the last
    level the first `accepting` actions lead to a tail that outputs "1",
    the others to one that outputs "0": each tail blanks its cell, steps
    left and writes the verdict there.
    """
    actions = [(sym, move) for move in ("R", "L", "N") for sym in SYMBOLS]
    if not 1 <= fan_out <= len(actions) or depth < 1 \
            or not 0 <= accepting <= fan_out:
        raise ValueError("need 1 <= fan_out <= 9, depth >= 1, "
                         "0 <= accepting <= fan_out")
    acc, rej, final = depth, depth + 1, depth + 2
    table = {}
    for d in range(depth):
        targets = [d + 1] * fan_out if d < depth - 1 else \
            [acc if j < accepting else rej for j in range(fan_out)]
        for sym in SYMBOLS:
            table[(d, sym)] = tuple((t, w, mv) for t, (w, mv)
                                    in zip(targets, actions))
    for sym in SYMBOLS:
        table[(acc, sym)] = ((final + 1, BLANK, "L"),)
        table[(rej, sym)] = ((final + 2, BLANK, "L"),)
        table[(final + 1, sym)] = ((final, "1", "N"),)
        table[(final + 2, sym)] = ((final, "0", "N"),)
    return PTMDesc(states=final + 3, initial=0, finals=frozenset({final}),
                   transitions=table)


def unbalanced_ptm() -> PTMDesc:
    """One leaf at depth 1, two at depth 2; leaf-uniform p_acc = 2/3.

    (Per-step coin weighting would give 3/4; this machine pins down the
    convention.)
    """
    return PTMDesc(states=4, initial=0, finals=frozenset({2, 3}), transitions={
        (0, "0"): ((0, "0", "R"),),
        (0, "1"): ((0, "1", "R"),),
        (0, BLANK): ((2, "1", "N"), (1, BLANK, "N")),
        (1, "0"): ((2, "1", "N"),),
        (1, "1"): ((2, "1", "N"),),
        (1, BLANK): ((2, "1", "N"), (3, "0", "N")),
    })


def witness_equals_one_ptm() -> PTMDesc:
    """Accepts iff the second input (the witness) is the single bit 1."""
    return PTMDesc(states=3, initial=0, finals=frozenset({2}), transitions={
        (0, "0"): ((0, "0", "R"),),
        (0, "1"): ((0, "1", "R"),),
        (0, BLANK): ((1, BLANK, "R"),),
        (1, "1"): ((2, "1", "N"),),
        (1, "0"): ((2, "0", "N"),),
        (1, BLANK): ((2, BLANK, "N"),),
    })


def witness_equals_11_ptm() -> PTMDesc:
    """Accepts iff the witness is exactly "11"."""
    return PTMDesc(states=4, initial=0, finals=frozenset({2}), transitions={
        (0, "0"): ((0, "0", "R"),),
        (0, "1"): ((0, "1", "R"),),
        (0, BLANK): ((1, BLANK, "R"),),
        (1, "1"): ((3, BLANK, "R"),),
        (1, "0"): ((2, "0", "N"),),
        (1, BLANK): ((2, BLANK, "N"),),
        (3, "1"): ((2, "1", "N"),),
        (3, "0"): ((2, "0", "N"),),
        (3, BLANK): ((2, BLANK, "N"),),
    })


def fair_coin_ptm() -> PTMDesc:
    return fan_ptm(1, 2)


def two_input_fan_ptm(accepting: int, total: int) -> PTMDesc:
    """Walks over both blank-separated inputs before fanning out."""
    finals = frozenset(range(2, total + 2))
    actions = tuple(
        (t, "1" if t - 1 <= accepting else "0", "N")
        for t in range(2, total + 2))
    return PTMDesc(states=total + 2, initial=0, finals=finals, transitions={
        (0, "0"): ((0, "0", "R"),),
        (0, "1"): ((0, "1", "R"),),
        (0, BLANK): ((1, BLANK, "R"),),
        (1, "0"): ((1, "0", "R"),),
        (1, "1"): ((1, "1", "R"),),
        (1, BLANK): actions,
    })
