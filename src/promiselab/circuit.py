"""Exact state-vector simulation of {H, T, CNOT} circuits.

Circuits are encoded as bitstrings: a gate is an opcode ("01" = H,
"10" = T, "11" = CNOT), a "0", and the 1-based operand(s) in unary
(CNOT takes control "0" target); gates are joined by single "0"
separators.  A witness header "1"^m "00" may prefix the gate stream.
Anything that fails to parse denotes the trivial circuit that never
accepts (empty gate list, acceptance probability defined as 0); its
canonical encoding is the empty string.

Conventions fixed here: qubit 1 is the most significant bit of the
amplitude index and is the measured output qubit; a witness register of
m qubits occupies the highest-indexed qubits, the remaining workspace
starts in the all-zero state.  H is the standard unitary
(1/sqrt2)[[1,1],[1,-1]]; T applies the phase (1+i)/sqrt2 to |1>.

Every amplitude of such a circuit lies in the ring Z[w, 1/sqrt2] with
w = e^(i*pi/4) = (1+i)/sqrt2.  The simulator stores an amplitude as four
integers (a, b, c, d) meaning (a + b*w + c*w^2 + d*w^3) / sqrt2^k, k the
H count, shared by the whole vector.  Only the qubits that have left
their basis state own lane-index bits; the others are known bits.  Each
coordinate vector is one int of lanes of `width` bits: a lane holds its
coordinate plus the bias 2^(width-1), so no lane is negative or carries
into the next.  The squares of all coordinates sum to exactly 2^k, so
|coordinate| <= 2^(k/2) and width is the least of 8, 16, 32 and 64 with
k + 4 <= 2*width (a multiple of 64 beyond that).  A gate is a few shifts
and masks of whole vectors, or appends a lane-index bit when it takes a
qubit out of its basis state; no rational is formed.  Values enter the
field Q(1/sqrt2, i) of `promiselab.field` only at readout, so acceptance
probabilities and the witness-block acceptance operator are exact.  The
deciders read out nothing: a threshold p/q meets a value v/2^k in the
sign of q*v - p*2^k, so the BQP and QCMA trichotomy (BQP is the QCMA
decider without a witness register) and the QMA definiteness tests run
on integer coordinates.

The witnesses of a QMA or QCMA instance share packed runs: the lowest
lane-index bits number blocks, one per witness, that no gate touches, so
one run evolves them all with the masks and lane width of a single run.
The witness-block operator is the Gram matrix of the blocks' output-1
lanes, formed from its upper triangle.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from operator import mul, neg
from typing import Callable, Iterator

from . import tm
from .config import Config
from .errors import DimensionCap, GeneratorFuelExhausted
from .field import (ZERO, ExactMatrix, FieldElem, real_sign, sylvester_pd,
                    sylvester_psd)
from .promise import Verdict, _threshold_verdict, witness_verdict

_OPCODE = {"H": "01", "T": "10", "CNOT": "11"}
_GATE_KINDS = {code: kind for kind, code in _OPCODE.items()}
# A gate with the "0" before it; the operand count depends on the
# opcode, so H/T and CNOT are separate alternatives.
_GATE = re.compile(r"0(?:(01|10)0(1+)|110(1+)0(1+))")
_WITNESS_HEADER = re.compile(r"(1+)00")
_SIGNED = {8: "b", 16: "h", 32: "i", 64: "q"}  # memoryview formats by width


class Gate(namedtuple("Gate", "kind qubits")):
    """kind is "H", "T" or "CNOT"; qubits are 1-based, (q,) or
    (control, target)."""

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...]):
        if kind in ("H", "T"):
            if len(qubits) != 1 or qubits[0] < 1:
                raise ValueError(f"{kind} takes one positive qubit index")
        elif kind == "CNOT":
            if len(qubits) != 2 or min(qubits) < 1 or qubits[0] == qubits[1]:
                raise ValueError("CNOT takes distinct positive control, target")
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        return super().__new__(cls, kind, qubits)

    def __str__(self) -> str:
        if self.kind == "CNOT":
            return f"CNOT {self.qubits[0]}→{self.qubits[1]}"
        return f"{self.kind} q{self.qubits[0]}"


class Circuit(namedtuple("Circuit", "gates witness_qubits trivial")):
    __slots__ = ()

    def __new__(cls, gates: tuple[Gate, ...], witness_qubits: int = 0,
                trivial: bool = False):
        if witness_qubits < 0:
            raise ValueError("witness register size must be non-negative")
        return super().__new__(cls, gates, witness_qubits, trivial)

    @property
    def total_qubits(self) -> int:
        # At least one qubit so the output qubit always exists; a witness
        # register larger than the gates' reach still occupies qubits.
        referenced = max((q for _, qubits in self.gates for q in qubits),
                         default=0)
        return max(1, referenced, self.witness_qubits)

    def listing(self) -> str:
        return "; ".join(str(g) for g in self.gates) if self.gates else "(no gates)"


TRIVIAL_CIRCUIT = Circuit(gates=(), witness_qubits=0, trivial=True)


class StateVector(namedtuple("StateVector",
                             "num_qubits k width packed lanes basis")):
    """Bit i of a lane index is qubit lanes[i]; every other qubit q is in
    basis state bit n - q of `basis`.  Lane j stands for the amplitude
    index basis + (j's bits at its qubits' places), and packed[0..3] hold
    a, b, c, d + 2^(width-1) in their j-th width-bit lane, the amplitude
    being (a + b*w + c*w^2 + d*w^3) / sqrt2^k, w = e^(i*pi/4).  Every
    other amplitude is 0."""

    __slots__ = ()


def parse_circuit(bits: str, expect_witness_header: bool = False) -> Circuit:
    """Total parser; any failure denotes the trivial never-accepting circuit.

    One split of the gate stream behind a "0" reads every gate: its pieces
    are the text before each gate, the gate's four captures, and last the
    text after the last gate.  The stream is a run of gates exactly when
    all that text is empty."""
    m = pos = 0
    if expect_witness_header:
        header = _WITNESS_HEADER.match(bits)
        if header is None:
            return TRIVIAL_CIRCUIT
        m, pos = len(header[1]), header.end()
    pieces = _GATE.split("0" + bits[pos:])
    if any(pieces[::5]):  # with no gate at all, the "0" is left over
        return TRIVIAL_CIRCUIT
    try:
        gates = tuple(Gate(_GATE_KINDS[kind], (len(qubit),)) if kind
                      else Gate("CNOT", (len(control), len(target)))
                      for kind, qubit, control, target in zip(
                          *(pieces[i::5] for i in range(1, 5))))
    except ValueError:  # a CNOT whose control is its target
        return TRIVIAL_CIRCUIT
    return Circuit(gates, witness_qubits=m)


def encode_circuit(c: Circuit) -> str:
    """Canonical encoding; the trivial circuit encodes to the empty string."""
    if c.trivial or not c.gates:
        return ""
    header = "1" * c.witness_qubits + "00" if c.witness_qubits else ""
    return header + "0".join(
        _OPCODE[g.kind] + "".join("0" + "1" * q for q in g.qubits)
        for g in c.gates)


def load_circuit_file(path: str, expect_witness_header: bool = False) -> Circuit:
    with open(path, "r", encoding="ascii") as fh:
        return parse_circuit(fh.read().rstrip("\n"), expect_witness_header)


def _lane_width(h: int) -> int:
    """Bits per lane after h H gates: H doubles u^2 + v^2 on each lane
    pair and T and CNOT permute and negate, so the squares of all
    coordinates sum to exactly 2^h, |v| <= 2^(h/2), and v + 2^(width-1)
    lies in [0, 2^width) once h + 4 <= 2*width."""
    return next((b for b in (8, 16, 32, 64) if h + 4 <= 2 * b),
                (h + 131) // 128 * 64)


def _low_lanes(n: int, p: int, width: int) -> int:
    """Ones in each of 2^n width-bit lanes whose index has bit p clear;
    shifted up by width << p, ones in the lanes whose bit p is set."""
    run = b"\xff" * (width // 8 << p)
    return int.from_bytes((run + bytes(len(run))) * (1 << n - p - 1), "little")


def simulate(c: Circuit, basis_input: str | None = None,
             config: Config = Config()) -> StateVector:
    """Apply the gate list in order to the given computational basis
    state, the all-zero one by default."""
    n = c.total_qubits
    if basis_input is None:
        basis_input = "0" * n
    if len(basis_input) != n or any(ch not in "01" for ch in basis_input):
        raise ValueError(f"basis input must be {n} bits")
    if n > config.max_qubits:
        raise DimensionCap(f"{n} qubits exceed cap {config.max_qubits}")
    return _evolve(c, n, int(basis_input, 2))


def _evolve(c: Circuit, n: int, basis: int, m: int = 0,
            chunk: range = range(1)) -> StateVector:
    """The gate list applied to one block per witness in `chunk`, block t
    starting on witness chunk[t] in the last m of the n qubits and `basis`
    in the others.  The 2^bits blocks are the lowest lane-index bits,
    which no gate touches, and the witness qubits start as lane qubits:
    block t starts with coordinate 1 in lane t + (chunk[t] << bits).  A
    qubit that leaves its basis state takes the next, top lane-index bit.
    """
    k = sum(kind == "H" for kind, _ in c.gates)
    width = _lane_width(k)
    bits = len(chunk).bit_length() - 1
    lanes = list(range(n, n - m, -1))
    at = [None] * (n + 1)  # lane-index bit of each lane qubit
    for i, q in enumerate(lanes):
        at[q] = bits + i
    size = bits + m  # lane-index bits
    zero = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * (1 << size),
                          "little")
    xs = [zero] * 4  # every lane holds the bias 2^(width-1)
    xs[0] += sum(1 << (t + (y << bits)) * width for t, y in enumerate(chunk))
    for kind, qubits in c.gates:
        q, t = qubits[0], qubits[-1]  # t = q but for CNOT
        p, tp = at[q], at[t]
        if p is None and kind != "H":  # T or CNOT on a basis-state q
            if basis >> n - q & 1:
                if kind == "T":  # (a, b, c, d) <- (-d, a, b, c)
                    xs = [(zero << 1) - xs[3], *xs[:3]]
                elif tp is None:
                    basis ^= 1 << n - t
                else:  # swap every lane pair of the target bit
                    _swap(xs, _low_lanes(size, tp, width), width << tp)
            continue
        if tp is not None:  # on lane qubits only
            if kind == "H":  # (u, v) <- (u + v, u - v), lanes 2^p apart
                shift = width << p
                low = _low_lanes(size, p, width)
                low_bias = low & zero
                for i, x in enumerate(xs):  # u - v + B = 2u - (u + v - B)
                    u = x & low
                    lo = u + (x >> shift & low) - low_bias
                    xs[i] = lo | ((u << 1) - lo) << shift
            elif kind == "T":  # (a, b, c, d) <- (-d, a, b, c) on bit p = 1
                high = _low_lanes(size, p, width) << (width << p)
                # -d stored: 2^width - (d + 2^(width-1)) in each lane of `high`
                neg_d = ((high & zero) << 1) - (xs[3] & high)
                for i in (3, 2, 1):
                    xs[i] ^= (xs[i] ^ xs[i - 1]) & high
                xs[0] ^= xs[0] & high ^ neg_d
            else:  # swap the control-1 lanes of target 0 and target 1
                _swap(xs, _low_lanes(size, p, width) << (width << p)
                      & _low_lanes(size, tp, width), width << tp)
            continue
        # H on basis state t, or a CNOT from a lane qubit onto it: t
        # leaves its basis state for a new top lane-index bit
        shift = width << size
        if kind == "H":
            # |0> -> |0> + |1>, |1> -> |0> - |1>: a copy of the lanes, or
            # a negated one, -v + B = 2B - (v + B), on the new top bit
            one = basis >> n - t & 1
            for i, x in enumerate(xs):
                xs[i] = x | ((zero << 1) - x if one else x) << shift
        else:  # lanes whose control bit differs from t's move up
            low = _low_lanes(size, p, width)
            move = low if basis >> n - t & 1 else low << (width << p)
            for i, x in enumerate(xs):  # moved lanes leave the bias behind
                d = (x ^ zero) & move
                xs[i] = x ^ d | (zero ^ d) << shift
        at[t] = size
        lanes.append(t)
        basis &= ~(1 << n - t)
        zero |= zero << shift
        size += 1
    return StateVector(n, k, width, tuple(xs), tuple(lanes), basis)


def _swap(xs: list[int], src: int, shift: int) -> None:
    """Swap each lane of `src` in every x of xs with the lane `shift`
    bits above it."""
    for i, x in enumerate(xs):
        moved = (x >> shift ^ x) & src
        xs[i] = x ^ moved ^ moved << shift


def _signed(raw: memoryview, width: int, start: int,
            step: int) -> list[int]:
    """Every step-th coordinate from the start-th of a little-endian
    stretch of width-bit two's complement lanes."""
    if sys.byteorder == "little" and width in _SIGNED:
        return raw.cast(_SIGNED[width])[start::step].tolist()
    nbytes = width // 8
    return [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
            for i in range(start * nbytes, len(raw), step * nbytes)]


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _readout(z: tuple[int, int, int, int], e: int) -> FieldElem:
    """(z0 + z1*w + z2*w^2 + z3*w^3) / 2^e as a field element.

    w = r + i*r and w^3 = -r + i*r with r = 1/sqrt2, which gives the
    coordinates (z0, z1 - z3, z2, z1 + z3) in the basis 1, r, i, i*r.
    """
    z0, z1, z2, z3 = z
    den = 1 << e
    return FieldElem(Fraction(z0, den), Fraction(z1 - z3, den),
                     Fraction(z2, den), Fraction(z1 + z3, den))


def _turns(half: list[list[int]]) -> list[list[int]]:
    """half's four coordinate lists end to end, turned by d = 0 to 3:
    lists d to 3, then lists 0 to d - 1 negated.  In Z[w], the sum over j
    of conj(left_j) * right_j has coordinate z_d = _turns(left)[0] .
    _turns(right)[d]: conj(w^i) = w^-i puts the product of coordinates i
    and l on w^(l - i), and w^4 = -1 negates the ones that wrap round."""
    turned = [[*half[0], *half[1], *half[2], *half[3]]]
    lanes = len(half[0])
    for _ in range(3):
        y = turned[-1]
        turned.append(y[lanes:] + list(map(neg, y[:lanes])))
    return turned


def _output_one_bytes(state: StateVector, bits: int) -> list[memoryview]:
    """Each coordinate's output-1 lanes as little-endian width-bit two's
    complement coordinates, which is what a lane is without its bias.

    A qubit 1 in a basis state gives no lanes or all of them.  A lane
    qubit 1 on bit p: the lanes with bit p set move down, by 2^top lanes
    from the upper half and by 2^p from the lower, into the lower half.
    Its masks die here, before the caller builds any list.
    """
    width, lanes = state.width, state.lanes
    size = bits + len(lanes)
    if 1 in lanes:
        p, top = bits + lanes.index(1), size - 1
        high = _low_lanes(size, p, width) << (width << p)
        half = (1 << (width << top)) - 1
        size = top
    elif not state.basis >> state.num_qubits - 1 & 1:
        return [memoryview(b"")] * 4
    nbytes = width // 8
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * (1 << size),
                          "little")
    raws = []
    for x in state.packed:
        if 1 in lanes:
            x &= high
            x = x >> (width << top) | x >> (width << p) & half
        raws.append(memoryview((x ^ bias).to_bytes(nbytes << size, "little")))
    return raws


def _accepting(state: StateVector, bits: int = 0) -> list[list[list[int]]]:
    """Per block of an `_evolve` run, the four coordinate lists of its
    output-1 lanes, in the same order for every block."""
    raws = _output_one_bytes(state, bits)
    return [[_signed(raw, state.width, t, 1 << bits) for raw in raws]
            for t in range(1 << bits)]


def _mass(half: list[list[int]]) -> tuple[int, int]:
    """The probability mass of the output-1 lanes, sqrt2^k times over.

    |a + b*w + c*w^2 + d*w^3|^2 = s1 + sqrt2*s2 with s1 = a^2+b^2+c^2+d^2
    and s2 = ab + bc + cd - da; summed over the lanes, that is (s1, s2),
    and (s1, s2, 0, -s2) in the basis 1, w, w^2, w^3 (w - w^3 = sqrt2).
    """
    x0, x1, x2, x3 = half
    s1 = _dot(x0, x0) + _dot(x1, x1) + _dot(x2, x2) + _dot(x3, x3)
    s2 = _dot(x0, x1) + _dot(x1, x2) + _dot(x2, x3) - _dot(x3, x0)
    return s1, s2


def p_acc(c: Circuit, basis_input: str | None = None,
          config: Config = Config()) -> FieldElem:
    """Exact probability of measuring 1 on the output qubit (qubit 1)."""
    state = simulate(c, basis_input, config)
    if c.trivial:
        return ZERO
    half, = _accepting(state)
    s1, s2 = _mass(half)
    return _readout((s1, s2, 0, -s2), state.k)


def _witness_runs(c: Circuit, config: Config
                  ) -> Iterator[tuple[int, list[list[int]]]]:
    """(k, output-1 lanes) of the run on each witness y with zeroed
    workspace, in canonical order, lazily.

    The workspace is the high index bits, so witness y is basis state y.
    One packed run evolves a chunk of 2^bits witnesses, bits at most
    max_qubits - n, as the blocks of one `_evolve`.  Every run starts
    with the witness qubits as its lane qubits and the zeroed workspace
    as its basis bits, so all runs lay out their lanes alike, and none
    holds more than 2^(bits + n) lanes.
    """
    n, m = c.total_qubits, c.witness_qubits
    if n > config.max_qubits:
        raise DimensionCap(f"{n} qubits exceed cap {config.max_qubits}")
    bits = min(m, config.max_qubits - n)
    for y0 in range(0, 1 << m, 1 << bits):
        state = _evolve(c, n, 0, m, range(y0, y0 + (1 << bits)))
        for half in _accepting(state, bits):
            yield state.k, half


def _gram(c: Circuit, config: Config
          ) -> tuple[int, list[list[tuple[int, int, int, int]]]]:
    """(k, G) with G / 2^k the witness-block operator, G a 2^m x 2^m
    matrix over Z[w] of coordinate tuples (z0, z1, z2, z3); m = 0, as in
    the trivial circuit, gives a 1 x 1 block.

    The witness register meets its cap before the qubits meet theirs,
    both before any simulation.  Entry (y', y) is the overlap of the
    output-1 components of the runs on witnesses y' and y with zeroed
    workspace.  Entries on and above the diagonal are inner products;
    each one below is the Z[w] conjugate of its mirror,
    conj(z0 + z1*w + z2*w^2 + z3*w^3) having coordinates
    (z0, -z3, -z2, -z1) since conj(w^j) = -w^(4-j).
    """
    m = c.witness_qubits
    dim = 1 << m
    cap = 1 << config.max_witness_qubits
    if dim > cap:
        raise DimensionCap(f"2^{m} exceeds cap {cap}")
    if c.trivial:
        return 0, [[(0, 0, 0, 0)] * dim for _ in range(dim)]
    ks, halves = zip(*_witness_runs(c, config))
    turns = [_turns(half) for half in halves]
    rows = [[None] * dim for _ in range(dim)]
    for j, (left, *_) in enumerate(turns):
        for l in range(j, dim):
            z0, z1, z2, z3 = rows[j][l] = tuple(_dot(left, right)
                                                for right in turns[l])
            if l > j:
                rows[l][j] = (z0, -z3, -z2, -z1)
    return ks[0], rows  # k is the H count, the same for every run


def acceptance_operator(c: Circuit, config: Config = Config()) -> ExactMatrix:
    """Exact 2^m x 2^m operator of the witness block, Hermitian by
    construction: `_gram`'s matrix over 2^k.  Its diagonal reproduces
    the per-witness acceptance probabilities."""
    if c.witness_qubits < 1:
        raise ValueError("circuit has no witness register")
    k, gram = _gram(c, config)
    return ExactMatrix(tuple(tuple(_readout(z, k) for z in row)
                             for row in gram))


def _generate(gen: tm.MachineDesc, gen_runtime: Callable[[int], int],
              x: str) -> str:
    output = tm.run(gen, [x], gen_runtime(len(x))).output
    if output is None:
        raise GeneratorFuelExhausted(
            f"circuit generator exceeded its runtime on {x!r}")
    return output


def classify_bqp(gen: tm.MachineDesc, gen_runtime: Callable[[int], int],
                 x: str, config: Config = Config()) -> Verdict:
    """The QCMA decider on a circuit without a witness register."""
    return _best_witness(parse_circuit(_generate(gen, gen_runtime, x)), config)


def classify_qcma(gen: tm.MachineDesc, gen_runtime: Callable[[int], int],
                  x: str, config: Config = Config()) -> Verdict:
    """Trichotomy over the best classical (basis) witness."""
    circ = parse_circuit(_generate(gen, gen_runtime, x), expect_witness_header=True)
    return _best_witness(circ, config)


def _best_witness(circ: Circuit, config: Config) -> Verdict:
    """Trichotomy over the best basis witness of circ's m-qubit register;
    with m = 0, over the one empty witness, run on the all-zero input.

    The witness quantifier asks for the witnesses in canonical order, the
    order in which the packed runs yield their output-1 lanes.  Times
    q*2^k > 0, probability (s1 + sqrt2*s2) / 2^k minus threshold p/q is
    q*s1 - p*2^k + sqrt2*q*s2, with the same sign.
    """
    runs = _witness_runs(circ, config)

    def verdict_of(y: str) -> Verdict:
        k, half = next(runs)
        s1, s2 = _mass(half)
        return _threshold_verdict(lambda t: real_sign(FieldElem(
            t.denominator * s1 - (t.numerator << k), 2 * t.denominator * s2)),
            config)

    return witness_verdict(circ.witness_qubits, 1 << config.max_witness_qubits,
                           verdict_of)


def classify_qma(gen: tm.MachineDesc, gen_runtime: Callable[[int], int],
                 x: str, config: Config = Config()) -> Verdict:
    """Trichotomy over quantum witnesses via definiteness tests.

    With Q the witness-block operator and thresholds (c, s):
    sI - Q positive semi-definite is equivalent to max eigenvalue <= s,
    and cI - Q not positive definite to max eigenvalue >= c, so the
    verdict needs no eigenvalue computation.  For Q = G / 2^k and t = p/q
    each test takes tI - Q times q*2^k > 0, p*2^k*I - q*G, which has
    integer coordinates; an order-j minor is multiplied by (q*2^k)^j, so
    no minor changes sign.
    """
    circ = parse_circuit(_generate(gen, gen_runtime, x), expect_witness_header=True)
    k, gram = _gram(circ, config)
    # _threshold_verdict's No-then-Yes order, on matrices, not on a number
    if sylvester_psd(_scaled_shift(gram, k, config.threshold_s)):
        return Verdict.NO
    if not sylvester_pd(_scaled_shift(gram, k, config.threshold_c)):
        return Verdict.YES
    return Verdict.OUTSIDE


def _scaled_shift(gram: list[list[tuple[int, int, int, int]]], k: int,
                  t: Fraction) -> ExactMatrix:
    """p*2^k*I - q*G for t = p/q, in the integer coordinates of the basis
    1, r, i, i*r that `_readout` gives a Z[w] entry."""
    diag, q = t.numerator << k, t.denominator
    return ExactMatrix(tuple(
        tuple(FieldElem((diag if j == l else 0) - q * z0, q * (z3 - z1),
                        -q * z2, -q * (z1 + z3))
              for l, (z0, z1, z2, z3) in enumerate(row))
        for j, row in enumerate(gram)))
