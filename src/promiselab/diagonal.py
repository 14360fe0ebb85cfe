"""Gap languages and delayed diagonalization.

The cost model is abstract but faithful: one accounting unit per
simulated machine step, per word enumerated in a contradiction scan and
per classification call.  A costed function reports (value, cost) for
each argument; the time-construction wrapper returns
r(n) = value + cost + n + 1, so the wrapped value dominates both the
input value and its own computation cost.  That domination is what makes
the budgeted gap-membership test exact: an iterate whose evaluation cost
alone exceeds the budget |x| + 1 provably has value above |x|, so
aborting it never changes the interval parity.

Membership in the gap language of r holds when the word's length falls
in an even-indexed interval [r^n(0), r^(n+1)(0)).  The diagonalization
construction mixes two problems A and A' along these intervals, choosing
r large enough that every even interval contains a word contradicting
the corresponding presented machine (and every odd interval one for the
other presentation), and ships the prefix-marking reduction to the
marked union of A and A'.  Membership depends on the length alone, so a
construction finds it once per length, and the mixer answers a whole
length from one side; per-word loops call the verdict maps directly.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import cache, partial
from itertools import islice
from typing import Callable, Iterator

from .config import Config
from .enumeration import CostedFunction, Presentation, harder_set
from .errors import AccountingError, NoContradictionFound, NoInstanceOfA
from .promise import TotalDecider, Verdict, builtin
from .words import words_of_length, words_up_to

REPRESENTABLE = "representable"
PRESENTABLE = "presentable"

# Per-contradiction search: lengths scanned above the floor, and the
# total number of words examined before giving up.
DEFAULT_SEARCH_CAP = 8
WORD_SCAN_BUDGET = 1 << 14
NO_INSTANCE_SCAN = 1 << 12  # words ladner scans for a no-instance of a


def affine_costed(slope: int, offset: int) -> CostedFunction:
    """r(n) = slope*n + offset with unit cost; slope, offset >= 1 keeps
    r(n) > n."""
    if slope < 1 or offset < 1:
        raise ValueError("need slope >= 1 and offset >= 1")
    return CostedFunction(f"affine({slope},{offset})",
                          lambda n: (slope * n + offset, 1))


def time_construct_wrap(f: CostedFunction) -> CostedFunction:
    """r(n) = f(n).value + f(n).cost + n + 1.

    Guarantees r(n) >= f(n).value, r(n) > n, and cost(r(n)) <= r(n);
    the last inequality is the accounting form of time-constructibility.
    """

    def evaluate(n: int) -> tuple[int, int]:
        value, cost = f.eval(n)
        return value + cost + n + 1, cost + 1

    return CostedFunction(f"wrap({f.name})", cache(evaluate))


def _checked_eval(r: CostedFunction, n: int) -> tuple[int, int]:
    """r(n) with cost <= value and value > n checked; so an evaluation
    that spent more than a budget has a value above that budget too."""
    value, cost = r.eval(n)
    if cost > value:
        raise AccountingError(
            f"{r.name}({n}) reports cost {cost} above value {value}")
    if value <= n:
        raise ValueError(f"{r.name}({n}) = {value} is not above {n}")
    return value, cost


def gap_member(r: CostedFunction, x: str | int) -> bool:
    """Budgeted membership of a word (or a bare length) in the gap language.

    Iterates the interval limits 0, r(0), r(r(0)), ... up to the first
    one above |x|.  Every evaluation is checked to cost no more than its
    value, so an iterate that would spend more than |x| + 1 accounting
    units has a value above |x| and ends the iteration anyway: the budget
    needs no separate meter.  Equal to the unbudgeted reference on every
    input, in polynomially many accounting units.
    """
    return GapLimits(r).member(x)


class GapLimits(dict):
    """The limits 0, r(0), r(r(0)), ... of one gap function, each computed
    once under _checked_eval's checks as the list grows on demand; as a
    dict, each length's membership, filled on first ask through interval()
    and then one lookup (a length whose limits raise stores nothing).  A
    construction owns its instance, so it equals and hashes by identity.
    """

    __slots__ = ("r", "limits")
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __init__(self, r: CostedFunction):
        super().__init__()
        self.r = r
        self.limits = [0]

    def __missing__(self, length: int) -> bool:
        member = self[length] = self.interval(length) % 2 == 0
        return member

    def limit(self, k: int) -> int:
        """r^k(0), the lower limit of interval k."""
        limits = self.limits
        while len(limits) <= k:
            limits.append(_checked_eval(self.r, limits[-1])[0])
        return limits[k]

    def interval(self, length: int) -> int:
        """The index k with limit(k) <= length < limit(k + 1)."""
        if length < 0:
            raise ValueError(f"length {length} is negative")
        limits = self.limits
        while limits[-1] <= length:
            limits.append(_checked_eval(self.r, limits[-1])[0])
        return bisect_right(limits, length) - 1

    def member(self, x: str | int) -> bool:
        return self[x if isinstance(x, int) else len(x)]


def gap_intervals(gaps: GapLimits, max_length: int) -> Iterator[tuple[int, int, bool]]:
    """(start, end, member) rows of all intervals touching [0, max_length],
    yielded one at a time, each evaluating at most its end limit.  Limits
    past gaps' stored list are not kept, so a long table holds none."""
    limits, k, start = gaps.limits, 0, 0
    while start <= max_length:
        end = (limits[k + 1] if k + 1 < len(limits)
               else _checked_eval(gaps.r, start)[0])
        yield start, end, k % 2 == 0
        start = end
        k += 1


def find_contradiction(
    a: TotalDecider,
    machine: TotalDecider,
    n: int,
    mode: str,
    cap: int = DEFAULT_SEARCH_CAP,
    machine_index: int = -1,
) -> tuple[str, int]:
    """The smallest word z (canonical order) with |z| > n witnessing that
    the machine does not capture a above n; returns (word, accounting
    cost).

    In representable mode the word separates a one-sidedly (a's verdict
    is committed, the machine's differs); in presentable mode either
    side's committed verdict may do the separating.
    """
    representable = mode == REPRESENTABLE
    if mode not in (REPRESENTABLE, PRESENTABLE):
        raise ValueError(f"unknown mode {mode!r}")
    classify_a, classify_m = a.fn, machine.fn
    scanned = 0
    for length in range(n + 1, n + cap + 1):
        for z in words_of_length(length):
            scanned += 1
            if scanned > WORD_SCAN_BUDGET:
                raise NoContradictionFound(machine_index, n, cap)
            va, vm = classify_a(z), classify_m(z)
            if va.separates(vm) or (not representable and vm.separates(va)):
                # 3 per word scanned: one word enumerated, two
                # classification calls
                return z, 3 * scanned
    raise NoContradictionFound(machine_index, n, cap)


class DiagInstance(namedtuple("DiagInstance", "a a_prime pres_c pres_c_prime "
                              "mode_c mode_c_prime search_cap")):
    __slots__ = ()

    def __new__(cls, a: TotalDecider, a_prime: TotalDecider,
                pres_c: Presentation, pres_c_prime: Presentation,
                mode_c: str = PRESENTABLE, mode_c_prime: str = PRESENTABLE,
                search_cap: int = DEFAULT_SEARCH_CAP):
        if search_cap < 1:
            raise ValueError("search cap must be at least 1")
        return super().__new__(cls, a, a_prime, pres_c, pres_c_prime,
                               mode_c, mode_c_prime, search_cap)


# side is "even" or "odd"; a_verdict and machine_verdict are the Verdicts
# of a and of the machine on word.
ContradictionWitness = namedtuple(
    "ContradictionWitness", "side machine_index interval_index interval_start "
    "interval_end word a_verdict machine_verdict")


class DiagResult(namedtuple("DiagResult", "inst b gaps q q_prime reduction "
                            "witnesses reduction_to_a", defaults=(None,))):
    """b, the mixer decider, with its GapLimits, the costed q and q' behind
    them, the reduction into the marked union, the witness log and, from
    ladner, a reduction into a itself."""

    __slots__ = ()

    @property
    def r(self) -> CostedFunction:
        """The gap function of the construction."""
        return self.gaps.r


def build_r_components(inst: DiagInstance) -> tuple[CostedFunction,
                                                    CostedFunction,
                                                    CostedFunction]:
    """(q, q', r) of the construction.

    q(n) is one more than the longest of the contradicting words above n
    for the first n+1 machines of the first presentation, q'(n) likewise
    for the second; r time-constructs their pointwise maximum, hence
    r(n) > n and r(n) >= max(q(n), q'(n)).
    """

    def q_eval(pres: Presentation, a: TotalDecider, mode: str) -> Callable[[int], tuple[int, int]]:
        def evaluate(n: int) -> tuple[int, int]:
            best = 0
            cost = 0
            for i in range(n + 1):
                z, c = find_contradiction(a, pres(i), n, mode,
                                          inst.search_cap, machine_index=i)
                cost += c + 1  # classification bookkeeping per machine
                best = max(best, len(z))
            return best + 1, cost
        return evaluate

    q = CostedFunction("q", cache(q_eval(inst.pres_c, inst.a, inst.mode_c)))
    q_prime = CostedFunction("q'", cache(
        q_eval(inst.pres_c_prime, inst.a_prime, inst.mode_c_prime)))

    def combined(n: int) -> tuple[int, int]:
        v1, c1 = q.eval(n)
        v2, c2 = q_prime.eval(n)
        return max(v1, v2), c1 + c2

    return q, q_prime, time_construct_wrap(CostedFunction("max(q,q')", combined))


def _witness_for(inst: DiagInstance, gaps: GapLimits, side: str,
                 i: int) -> ContradictionWitness:
    even = side == "even"
    a, pres, mode = ((inst.a, inst.pres_c, inst.mode_c) if even else
                     (inst.a_prime, inst.pres_c_prime, inst.mode_c_prime))
    k = 0 if even else 1
    while gaps.limit(k) < i:
        k += 2
    machine = pres(i)
    z, _ = find_contradiction(a, machine, gaps.limit(k), mode,
                              inst.search_cap, machine_index=i)
    return ContradictionWitness(side, i, k, gaps.limit(k), gaps.limit(k + 1),
                                z, a.classify(z), machine.classify(z))


def diagonalize(inst: DiagInstance, witness_bound: int = 3) -> DiagResult:
    """The full construction: mixer decider, reduction, witness log.

    The mixer answers like a on words whose length falls in an even
    interval and like a_prime otherwise; the reduction prefixes "0" or
    "1" accordingly, mapping into the marked union of the two problems.
    The log records, for the first witness_bound machines of each
    presentation, a contradicting word inside an interval of the correct
    parity.  Each presented decider is built once per invocation: r's
    evaluations and the witness log ask for the same indices again and
    again.
    """
    built_once = inst._replace(pres_c=cache(inst.pres_c),
                               pres_c_prime=cache(inst.pres_c_prime))
    q, q_prime, r = build_r_components(built_once)
    gaps = GapLimits(r)
    classify_a, classify_a_prime = inst.a.fn, inst.a_prime.fn

    def mix(x: str) -> Verdict:
        return classify_a(x) if gaps[len(x)] else classify_a_prime(x)

    def gap_mark(x: str) -> str:
        return ("0" if gaps[len(x)] else "1") + x

    def mix_lengths(n: int) -> Iterator[Verdict]:
        return (inst.a if gaps[n] else inst.a_prime).verdicts(n)

    b = TotalDecider(f"diag({inst.a.tag};{inst.a_prime.tag})", mix, mix_lengths)
    witnesses = []
    for side in ("even", "odd"):
        for i in range(witness_bound):
            witnesses.append(_witness_for(built_once, gaps, side, i))
    return DiagResult(inst, b, gaps, q, q_prime, gap_mark, tuple(witnesses))


def ladner(
    a: TotalDecider,
    pres_c: Presentation,
    mode_c: str,
    search_cap: int = DEFAULT_SEARCH_CAP,
    witness_bound: int = 3,
    config: Config = Config(),
) -> DiagResult:
    """Intermediate-problem construction below a.

    Diagonalizes a against pres_c and the constant-no problem against
    the Cook harder set of a (the presentation of the problems of pres_c
    that a Cook-reduces to), then post-composes the marked-union
    reduction with the map sending "0"+x to x and "1"+w to a fixed
    no-instance of a, so the produced problem reduces to a directly.
    Its odd intervals blow no-instance holes into a.  The deciders of
    pres_c and of the harder set are built once per index, so the harder
    set's oracles are those of the construction, and each harder-set
    decider keeps its checks.
    """
    pres_c = cache(pres_c)
    pres_harder = cache(partial(harder_set, a, pres_c, config=config))
    inst = DiagInstance(a, builtin("const-no"), pres_c, pres_harder,
                        mode_c, PRESENTABLE, search_cap)
    result = diagonalize(inst, witness_bound)
    scanned = islice(words_up_to(NO_INSTANCE_SCAN.bit_length() + 1),
                     NO_INSTANCE_SCAN)
    target = next((w for w in scanned if a.classify(w) is Verdict.NO), None)
    if target is None:
        raise NoInstanceOfA(f"no no-instance of {a.tag} within {NO_INSTANCE_SCAN} words")
    gaps = result.gaps

    def gap_or_default(x: str) -> str:
        return x if gaps[len(x)] else target

    return result._replace(reduction_to_a=gap_or_default)
