"""Computable series behind the recursive presentations.

Everything here is an index-to-object map on the naturals: Cantor
pairing, the series of all non-negative-coefficient polynomials, clocked
machine series, and class_presentation, whose table of families presents
P, NP and the extremal problems of the starred classes, one verdict
builder per machine model: P, BPP and BQP are NP, MA and QCMA at witness
length 0.  An NP verdict is one walk of the verifier on x and a blank,
its witness cells unread; for P, one walk answers every word of a
length.  Indices decode as (machine, clock[, witness length]) tuples;
machines come from the word bijection, clocks from the polynomial
series cut off at the fuel ceiling.

Machines that break their clock are absorbed rather than reported: a
clocked decision machine defaults to No, a clocked function machine to
the empty word, an overlong probabilistic branch counts as rejecting,
and a quantum decider whose generator overruns answers No, whatever the
thresholds.  This keeps every produced decider total.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache, partial
from itertools import repeat
from math import comb, isqrt
from typing import Callable, Iterator

from . import circuit as qc
from . import ptm as ptm_mod
from . import tm
from .config import Config
from .errors import CapExceeded, FuelExhausted, GeneratorFuelExhausted, \
    NonPromisedQuery
from .promise import (MAX_WITNESS_SPACE, OracleMachine, TotalDecider,
                      Verdict, _check_witness_space, _threshold_verdict,
                      cook_run)
from .words import index_to_word, words_of_length

HARDER_SET_CHECK_CAP = 12
_ORACLE_PREFIX = re.compile(r"(1+)0")  # 1^(o+1) 0, oracle state o

# A recursive presentation: index i to the i-th decider of a class.
Presentation = Callable[[int], TotalDecider]


class CostedFunction(namedtuple("CostedFunction", "name eval")):
    """A map on the naturals together with exact cost accounting: eval(n)
    is (value, cost)."""

    __slots__ = ()

    def value(self, n: int) -> int:
        return self.eval(n)[0]


class Polynomial(namedtuple("Polynomial", "coefficients")):
    """Non-negative integer coefficients, constant term first."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...]):
        if any(c < 0 for c in coefficients):
            raise ValueError("coefficients must be non-negative")
        if coefficients and coefficients[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")
        return super().__new__(cls, coefficients)

    def __call__(self, n: int) -> int:
        result = 0
        for c in reversed(self.coefficients):
            result = result * n + c
        return result


def pair(j: int, k: int) -> int:
    """Cantor pairing bijection on pairs of naturals."""
    if j < 0 or k < 0:
        raise ValueError("pair arguments must be non-negative")
    return (j + k) * (j + k + 1) // 2 + k


def unpair(i: int) -> tuple[int, int]:
    if i < 0:
        raise ValueError("unpair argument must be non-negative")
    w = (isqrt(8 * i + 1) - 1) // 2
    k = i - w * (w + 1) // 2
    return w - k, k


def triple(j: int, k: int, l: int) -> int:
    return pair(pair(j, k), l)


def untriple(i: int) -> tuple[int, int, int]:
    jk, l = unpair(i)
    j, k = unpair(jk)
    return j, k, l


def _nth_composition(degree: int, total: int, idx: int) -> tuple[int, ...]:
    """idx-th tuple (c0..c_degree), sum=total, last >= 1, in lex order."""
    coeffs = []
    remaining = total
    for position in range(degree):
        slots = degree - position - 1  # inner positions left before the last
        value = 0
        while True:
            count = comb(remaining - value - 1 + slots, slots)
            if idx < count:
                break
            idx -= count
            value += 1
        coeffs.append(value)
        remaining -= value
    coeffs.append(remaining)
    return tuple(coeffs)


def poly_series(i: int) -> Polynomial:
    """Surjective, injective enumeration of all such polynomials.

    Bucket s holds the polynomials whose coefficient sum plus degree
    equals s (2^(s-1) of them, finitely many); inside a bucket the order
    is by degree, then lexicographic on the coefficient tuple.
    """
    if i < 0:
        raise ValueError("index must be non-negative")
    if i == 0:
        return Polynomial(())
    idx = i - 1
    s = 1
    while idx >= (size := 1 << (s - 1)):
        idx -= size
        s += 1
    for degree in range(s):
        total = s - degree
        count = comb(total - 1 + degree, degree)
        if idx < count:
            return Polynomial(_nth_composition(degree, total, idx))
        idx -= count
    raise AssertionError("bucket arithmetic is exhaustive")


def _check_index(i: int, config: Config) -> None:
    if i < 0 or i.bit_length() > config.max_enum_index_bits:
        raise CapExceeded(
            f"enumeration index must be a natural of at most "
            f"{config.max_enum_index_bits} bits")


def machine_series(j: int) -> tm.MachineDesc:
    return tm.decode_godel(index_to_word(j))


def ptm_series(j: int) -> ptm_mod.PTMDesc:
    return ptm_mod.decode_ptm(index_to_word(j))


def _clocked(i: int, config: Config,
             series: Callable[[int], object] | None = None,
             arity: int = 2) -> tuple:
    """Index i of a clocked series, as (machine, clock) or, with arity 3,
    (machine, clock, l): i is pair(j, k) or triple(j, k, l), the machine
    is series(j), machine_series(j) by default (looked up at each call),
    and the clock is p_k as a fuel policy, cut off at the configured
    fuel."""
    _check_index(i, config)
    j, k, *rest = unpair(i) if arity == 2 else untriple(i)
    clock, ceiling = poly_series(k), config.default_fuel
    return ((series or machine_series)(j), lambda n: min(clock(n), ceiling),
            *rest)


def polyfunc_series(i: int, config: Config = Config()) -> Callable[[str], str]:
    """Clocked machines as total word functions (the polynomial-time series).

    A run that exceeds its clock yields the empty word.
    """
    machine, fuel = _clocked(i, config)

    def apply(x: str) -> str:
        return tm.run(machine, [x], fuel(len(x))).output or ""

    return apply


def polyset_series(i: int, config: Config = Config()) -> CostedFunction:
    """Clocked, clamped numeric functions; lands in the polynomial set.

    Returns a costed map n -> (value, cost): the machine for index j runs
    on the binary numeral of n under clock p_k, its numeric output is
    clamped to p_l(n), and the cost is the number of simulated steps.
    Each n is evaluated once; the memo lives as long as the returned map.
    """
    machine, fuel, l = _clocked(i, config, arity=3)
    clamp = poly_series(l)

    def evaluate(n: int) -> tuple[int, int]:
        numeral = format(n, "b")
        output, steps = tm.run(machine, [numeral], fuel(len(numeral)))
        return min(int(output or "0", 2), clamp(n)), steps

    return CostedFunction(f"polyset[{i}]", cache(evaluate))


# Verdict builders: each turns (machine, clock, witness length, config)
# into the (fn, lengths) pair of one presented decider, lengths None
# where every verdict is read word by word.  A trivial machine, the
# decoding of almost every index, is never run: its verdict is known
# when the decider is built, and only the checks of a run are kept.
def _np_verdict(verifier, fuel, wit_len, config) -> tuple:
    if verifier.trivial:
        def reject(x: str) -> Verdict:
            # decide's checks, in its order: the cap, then the word; the
            # trivial verifier never outputs "1", so its walk is No
            _check_witness_space(wit_len(len(x)), MAX_WITNESS_SPACE)
            if x.strip("01"):  # tm._check_inputs's test, without its loop
                tm._check_inputs((x,))  # raises a run's ValueError
            return Verdict.NO

        def rejections(n: int) -> Iterator[Verdict]:
            _check_witness_space(wit_len(n), MAX_WITNESS_SPACE)
            return repeat(Verdict.NO, 1 << n)

        return reject, rejections

    def decide(x: str) -> Verdict:
        m = wit_len(len(x))
        _check_witness_space(m, MAX_WITNESS_SPACE)
        tm._check_inputs((x,))
        return (Verdict.YES if "1" in tm.walk(verifier, m, fuel(len(x)),
                                               x + tm.BLANK) else Verdict.NO)

    def lengths(n: int) -> Iterator[Verdict]:
        # one walk over the words, Yes where the output is "1"
        return map({"1": Verdict.YES}.get, tm.walk(verifier, n, fuel(n)),
                   repeat(Verdict.NO))

    # NP with a witness walks once per word, over its witness cells
    return decide, lengths if wit_len is _NO_WITNESS else None


def _ma_verdict(machine, fuel, wit_len, config) -> tuple:
    return (lambda x: ptm_mod.classify_ma(machine, fuel, wit_len, x,
                                          config=config)), None


def _quantum_verdict(fam, gen, fuel, wit_len, config) -> tuple:
    if gen.trivial:
        # the generator halts in one step with output "0", which parses
        # as the trivial circuit, whose verdict depends on the thresholds
        # alone; with no step it overruns, which counts as No
        emitted = _threshold_verdict(lambda t: -t, config)  # acceptance 0

        def trivial(x: str) -> Verdict:
            tm._check_inputs((x,))
            return emitted if fuel(len(x)) >= 1 else Verdict.NO

        return trivial, None

    classify = getattr(qc, f"classify_{fam}")

    def decide(x: str) -> Verdict:
        try:
            return classify(gen, fuel, x, config)
        except GeneratorFuelExhausted:
            # an overrunning generator counts as No, even where the
            # trivial circuit is not No (s < 0)
            return Verdict.NO

    return decide, None


# Family -> (tag prefix, machine series, index carries a witness-length
# index, verdict builder).  The series is named, and looked up when a
# decider is built, so that a module global rebound after import is the
# one that runs.  One builder serves each machine model: a family whose
# index carries no witness length has witness length 0.
_PRESENTED = {
    "p": ("p", "machine_series", False, _np_verdict),
    "np": ("np", "machine_series", True, _np_verdict),
    "promisebpp": ("promisebpp*", "ptm_series", False, _ma_verdict),
    "promisema": ("promisema*", "ptm_series", True, _ma_verdict),
    **{fam: (f"{fam}*", "machine_series", False,
             partial(_quantum_verdict, fam)) for fam in ("bqp", "qcma", "qma")},
}
_NO_WITNESS = lambda n: 0  # plain, not a polyset map: P's trivial path is hot


def class_presentation(family: str, i: int,
                       config: Config = Config()) -> TotalDecider:
    """Decider i of a presented family: P, NP or a starred promise class.

    The family's row of _PRESENTED names its machine series and whether i
    decodes to (machine, clock) or (machine, clock, l), l indexing a
    witness length in the polynomial set, which is 0 without l; the row's
    builder, one per machine model, makes the verdict function, and for
    P the verdicts of a whole length too, one walk over its words.  Starred
    verdicts may be OutsidePromise: these present extremal promise
    problems.  The tag is the row's prefix and i.
    """
    fam = family.lower()
    if fam not in _PRESENTED:
        raise ValueError(f"unknown presentation family {family!r}; "
                         f"known: {', '.join(_PRESENTED)}")
    prefix, series, witness, build = _PRESENTED[fam]
    machine, fuel, *rest = _clocked(i, config, globals()[series],
                                    3 if witness else 2)
    wit_len = polyset_series(rest[0], config).value if rest else _NO_WITNESS
    return TotalDecider(f"{prefix}[{i}]", *build(machine, fuel, wit_len, config))


def family_series(name: str, config: Config = Config()
                  ) -> Callable[[int], TotalDecider | Callable[[str], str]]:
    """The series of a named family, index to member, the name matched
    ignoring case.

    polyfunc's members are word functions; every other family presents
    deciders through class_presentation.  Both factories are looked up by
    name when a member is produced.
    """
    fam = name.lower()
    if fam == "polyfunc":
        return lambda i: polyfunc_series(i, config)
    if fam not in _PRESENTED:
        p, np, *starred = _PRESENTED
        raise ValueError(f"unknown family {name!r}; known: "
                         f"{', '.join((p, np, 'polyfunc', *starred))}")
    return lambda i: class_presentation(fam, i, config)


def builtins_presentation(deciders: list[TotalDecider] | tuple[TotalDecider, ...]) -> Presentation:
    """Toy presentation cycling through a fixed list of deciders."""
    if not deciders:
        raise ValueError("need at least one decider")
    pool = tuple(deciders)
    return lambda i: pool[i % len(pool)]


def parse_oracle_machine(bits: str) -> tuple[tm.MachineDesc, int]:
    """Oracle grammar: "1"^(o+1) "0" prefix designating the oracle state,
    then the ordinary machine grammar.  Invalid encodings yield the
    trivial machine with a dummy oracle state."""
    prefix = _ORACLE_PREFIX.match(bits)
    if prefix is None:
        return tm.TRIVIAL_MACHINE, 0
    o = len(prefix[1]) - 1
    base = tm.decode_godel(bits[prefix.end():])
    if base.trivial or not 0 <= o < base.states:
        return tm.TRIVIAL_MACHINE, 0
    return base, o


def oracle_machine_series(j: int, config: Config = Config()) -> OracleMachine:
    """The series of all polynomial-time oracle machines, clocked."""
    (base, oracle_state), runtime = _clocked(
        j, config, lambda a: parse_oracle_machine(index_to_word(a)))
    return OracleMachine(base, oracle_state, runtime)


def harder_set(
    a: TotalDecider,
    c_pres: Presentation,
    i: int,
    *,
    config: Config = Config(),
) -> TotalDecider:
    """Presentation of the problems of a class that a Cook-reduces to.

    Index i decodes to (j, k).  On input x the decider checks, for every
    word y up to length min(|x|, HARDER_SET_CHECK_CAP) inside a's
    promise, that oracle machine j with the k-th presented problem as
    oracle stays inside the oracle's promise, halts in time and answers
    like a.  If all checks pass it answers like the presented problem,
    otherwise like a.  The outcome per length is kept for the decider's
    lifetime, so each check runs at most once.
    """
    _check_index(i, config)
    j, k = unpair(i)
    m_k = c_pres(k)
    o_j = oracle_machine_series(j, config)

    def check(y: str, expected: Verdict) -> bool:
        try:
            accepted = cook_run(o_j, m_k, y)
        except (NonPromisedQuery, FuelExhausted):
            return False
        return accepted is (expected is Verdict.YES)

    classify_a, classify_m_k = a.fn, m_k.fn

    def length_passes(n: int) -> bool:
        for y in words_of_length(n):
            va = classify_a(y)
            if va is not Verdict.OUTSIDE and not check(y, va):
                return False
        return True

    passed = []  # passed[n]: every check on the words up to length n passes

    def decide(x: str) -> Verdict:
        length = min(len(x), HARDER_SET_CHECK_CAP)
        # lengths not yet walked are walked in order, so the first failing
        # check is the one of the canonical walk
        while len(passed) <= length:
            passed.append((not passed or passed[-1])
                          and length_passes(len(passed)))
        return classify_m_k(x) if passed[length] else classify_a(x)

    return TotalDecider(f"harder[T,{i}]({a.tag})", fn=decide)
