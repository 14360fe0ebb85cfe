"""Reference exact simulators for `promiselab.circuit.simulate`.

`simulate` is the straightforward simulator over Q(1/sqrt2, i): it builds
a field element for every amplitude update, so it is slow, and it shares
no arithmetic with the integer Z[w] path except the FieldElem type.

`simulate_coords` is the slow twin of the packed-lane simulator: the same
integer coordinates (a, b, c, d) of each amplitude over sqrt2^k, kept as
four Python lists and updated with list slices and `map`.  It needs no
lane width, bias or mask, so it checks those of the fast path on circuits
with as many H gates as a test likes.

`classify_bqp_by_definition` compares the acceptance probability of
`p_acc` above with the thresholds, in `Fraction` coordinates.

`acceptance_operator_per_witness`, `classify_qcma_per_witness` and
`classify_qma_per_witness` are the slow twins of the witness path: one
packed simulation per witness, the full Gram matrix, one dot product
per pair of coordinate lists, with its Hermiticity checked at run time,
one acceptance probability per witness compared with the thresholds as
field elements by a trichotomy of their own, written apart from the
package's rule, and sI - Q and cI - Q built entrywise over the
rationals.  The package packs every witness of a
chunk into one run, forms only the upper triangle, four dot products
per entry, and scales every threshold test to integer coordinates.

The tests require each to agree with the package bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, neg, sub

from helpers_values import ONE, SQRT2_INV, coords, fadd, fmul, scaled_identity
from oracle_field import abs2
from promiselab import circuit
from promiselab.circuit import Circuit
from promiselab.config import Config
from promiselab.errors import DimensionCap
from promiselab.field import ExactMatrix, FieldElem, ZERO, real_sign, \
    sylvester_pd, sylvester_psd
from promiselab.promise import Verdict, witness_verdict
from promiselab.words import words_of_length

# e^(i*pi/4) = (1 + i)/sqrt(2), the phase T applies to |1>
T_PHASE = FieldElem(Fraction(0), Fraction(1), Fraction(0), Fraction(1))


def simulate(c: Circuit, basis_input: str) -> tuple[FieldElem, ...]:
    n = c.total_qubits
    assert len(basis_input) == n and set(basis_input) <= {"0", "1"}
    size = 1 << n
    amps = [ZERO] * size
    amps[int(basis_input, 2)] = ONE
    for g in c.gates:
        if g.kind == "H":
            bit = 1 << (n - g.qubits[0])
            for i in range(size):
                if i & bit:
                    continue
                j = i | bit
                u, v = amps[i], amps[j]
                amps[i] = fmul(fadd(u, v), SQRT2_INV)
                amps[j] = fmul(u - v, SQRT2_INV)
        elif g.kind == "T":
            bit = 1 << (n - g.qubits[0])
            for i in range(size):
                if i & bit:
                    amps[i] = fmul(amps[i], T_PHASE)
        else:
            cbit = 1 << (n - g.qubits[0])
            tbit = 1 << (n - g.qubits[1])
            for i in range(size):
                if (i & cbit) and not (i & tbit):
                    j = i | tbit
                    amps[i], amps[j] = amps[j], amps[i]
    return tuple(amps)


def _slices(n: int, fixed: dict[int, int]) -> list[slice]:
    """Slices covering, once each, the indices < 2^n whose bits at the
    positions in `fixed` hold the given values.

    Each slice steps through the longest run of free bit positions, and
    the slices enumerate the other free bits, so there are few of them:
    at most 2^(n/2) for one fixed bit.
    """
    lo = hi = run = 0  # run: first position of the current free run
    for p in range(n):
        if p in fixed:
            run = p + 1
        elif p + 1 - run > hi - lo:
            lo, hi = run, p + 1
    starts = [sum(v << p for p, v in fixed.items())]
    for p in range(n):
        if p not in fixed and not lo <= p < hi:
            starts += [s | 1 << p for s in starts]
    return [slice(s, s + (1 << hi), 1 << lo) for s in starts]


def _shifted(s: slice, offset: int) -> slice:
    return slice(s.start + offset, s.stop + offset, s.step)


def simulate_coords(c: Circuit, basis_input: str
                    ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(k, coords): amplitude j is (a + b*w + c*w^2 + d*w^3) / sqrt2^k with
    (a, b, c, d) = (coords[0][j], ..., coords[3][j]) and k the H count."""
    n = c.total_qubits
    assert len(basis_input) == n and set(basis_input) <= {"0", "1"}
    coords = [[0] * (1 << n) for _ in range(4)]
    coords[0][int(basis_input, 2)] = 1
    x0, x1, x2, x3 = coords
    k = 0
    for g in c.gates:
        pos = n - g.qubits[0]
        if g.kind == "H":
            for lo in _slices(n, {pos: 0}):
                hi = _shifted(lo, 1 << pos)
                for xs in coords:
                    u, v = xs[lo], xs[hi]
                    xs[lo] = map(add, u, v)
                    xs[hi] = map(sub, u, v)
            k += 1
        elif g.kind == "T":
            for s in _slices(n, {pos: 1}):
                x0[s], x1[s], x2[s], x3[s] = map(neg, x3[s]), x0[s], x1[s], x2[s]
        else:
            tpos = n - g.qubits[1]
            for lo in _slices(n, {pos: 1, tpos: 0}):
                hi = _shifted(lo, 1 << tpos)
                for xs in coords:
                    xs[lo], xs[hi] = xs[hi], xs[lo]
    return k, tuple(map(tuple, coords))


def amplitudes(k: int, coords) -> tuple[FieldElem, ...]:
    """The field elements (a + b*w + c*w^2 + d*w^3) / sqrt2^k, with
    w = (1 + i)/sqrt2 and w^3 = (-1 + i)/sqrt2 expanded directly."""
    scale = fmul(ONE, *[SQRT2_INV] * k)
    w3 = FieldElem(Fraction(0), Fraction(-1), Fraction(0), Fraction(1))
    return tuple(fmul(fadd(FieldElem(Fraction(a)),
                           fmul(FieldElem(Fraction(b)), T_PHASE),
                           FieldElem(Fraction(0), Fraction(0), Fraction(c)),
                           fmul(FieldElem(Fraction(d)), w3)), scale)
                 for a, b, c, d in zip(*coords))


def p_acc(c: Circuit, basis_input: str | None = None) -> FieldElem:
    if basis_input is None:
        basis_input = "0" * c.total_qubits
    amps = simulate(c, basis_input)
    if c.trivial:
        return ZERO
    total = ZERO
    for amp in amps[len(amps) // 2:]:
        total = fadd(total, abs2(amp))
    return total


def acceptance_operator(c: Circuit) -> ExactMatrix:
    dim = 1 << c.witness_qubits
    if c.trivial:
        return scaled_identity(dim, ZERO)
    states = [simulate(c, _witness_input(c, y))[1 << (c.total_qubits - 1):]
              for y in words_of_length(c.witness_qubits)]
    rows = []
    for left in states:
        row = []
        for right in states:
            acc = ZERO
            for u, v in zip(left, right):
                acc = fadd(acc, fmul(u.conjugate(), v))
            row.append(acc)
        rows.append(tuple(row))
    return ExactMatrix(tuple(rows))


def _witness_input(c: Circuit, y: str) -> str:
    k = c.total_qubits - c.witness_qubits
    return "0" * k + y


def _inner(left: list[list[int]],
           right: list[list[int]]) -> tuple[int, int, int, int]:
    """Sum over j of conj(left_j) * right_j in Z[w], as (z0, z1, z2, z3),
    one dot product per pair of coordinate lists.

    conj(w^i) = w^-i, so the product of coordinates i of left and l of
    right lands on w^(l - i); w^4 = -1 turns a negative power into a
    negated one.
    """
    z = [0, 0, 0, 0]
    for i, x in enumerate(left):
        for l, y in enumerate(right):
            term = sum(map(mul, x, y))
            z[(l - i) % 4] += term if l >= i else -term
    return tuple(z)


def acceptance_operator_per_witness(c: Circuit,
                                    config: Config = Config()) -> ExactMatrix:
    """One `simulate` per witness, all dim^2 Gram entries, and a run-time
    Hermiticity check."""
    m = c.witness_qubits
    if m < 1:
        raise ValueError("circuit has no witness register")
    dim = 1 << m
    cap = 1 << config.max_witness_qubits
    if dim > cap:
        raise DimensionCap(f"2^{m} exceeds cap {cap}")
    if c.trivial:
        return scaled_identity(dim, ZERO)
    runs = [circuit.simulate(c, _witness_input(c, y), config)
            for y in words_of_length(m)]
    half = 1 << c.total_qubits - 1
    halves = [[list(xs[half:]) for xs in coords(state)] for state in runs]
    k = runs[0].k
    rows = tuple(tuple(circuit._readout(_inner(left, right), k)
                       for right in halves) for left in halves)
    q = ExactMatrix(rows)
    if not q.is_hermitian():
        raise AssertionError("acceptance operator failed the Hermiticity check")
    return q


def trichotomy(p: FieldElem, config: Config) -> Verdict:
    """The promise trichotomy from its definition, apart from the
    package's rule: No when p <= s, else Yes when p >= c, else outside."""
    if real_sign(p - FieldElem(config.threshold_s)) <= 0:
        return Verdict.NO
    if real_sign(p - FieldElem(config.threshold_c)) >= 0:
        return Verdict.YES
    return Verdict.OUTSIDE


def classify_bqp_by_definition(gen, gen_runtime, x: str,
                               config: Config = Config()):
    """The trichotomy of the acceptance probability that `p_acc` sums
    over the field."""
    circ = circuit.parse_circuit(circuit._generate(gen, gen_runtime, x))
    return trichotomy(p_acc(circ), config)


def classify_qcma_per_witness(gen, gen_runtime, x: str,
                              config: Config = Config()):
    """One `p_acc` per witness, under the package's witness quantifier."""
    circ = circuit.parse_circuit(circuit._generate(gen, gen_runtime, x),
                                 expect_witness_header=True)
    return witness_verdict(
        circ.witness_qubits, 1 << config.max_witness_qubits,
        lambda y: trichotomy(
            circuit.p_acc(circ, _witness_input(circ, y), config), config))


def classify_qma_per_witness(gen, gen_runtime, x: str,
                             config: Config = Config()):
    """The definiteness tests on sI - Q and cI - Q, each subtracted
    entrywise from a scaled identity in `Fraction` coordinates, with Q
    from `acceptance_operator_per_witness`."""
    circ = circuit.parse_circuit(circuit._generate(gen, gen_runtime, x),
                                 expect_witness_header=True)
    if circ.trivial:
        return trichotomy(ZERO, config)
    q = acceptance_operator_per_witness(circ, config)

    def shifted(t: Fraction) -> ExactMatrix:
        scaled = scaled_identity(q.dim, FieldElem(t))
        return ExactMatrix(tuple(tuple(map(sub, *rows)) for rows in
                                 zip(scaled.entries, q.entries)))

    if sylvester_psd(shifted(config.threshold_s)):
        return Verdict.NO
    if not sylvester_pd(shifted(config.threshold_c)):
        return Verdict.YES
    return Verdict.OUTSIDE
