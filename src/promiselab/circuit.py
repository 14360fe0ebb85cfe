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
w = e^(i*pi/4) = (1+i)/sqrt2.  The simulator stores amplitude j as four
integers (a, b, c, d) meaning (a + b*w + c*w^2 + d*w^3) / sqrt2^k, where
k is the number of H gates applied so far, shared by the whole vector.
H is then an integer sum and difference, T the signed rotation
(a, b, c, d) -> (-d, a, b, c) (multiplication by w, as w^4 = -1), and
CNOT a swap; no rational is formed while the gates run.  Amplitudes enter
the field Q(1/sqrt2, i) of `promiselab.field` only at readout, so
acceptance probabilities and the witness-block acceptance operator are
exact and the threshold trichotomy is decided by integer arithmetic alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Callable

from . import tm
from .config import Config
from .errors import DimensionCap, GeneratorFuelExhausted
from .field import (SQRT2_INV, ZERO, ExactMatrix, FieldElem, real_sign,
                    scaled_identity, sylvester_pd, sylvester_psd)
from .promise import Verdict, witness_verdict
from .words import words_of_length

_OPCODE = {"H": "01", "T": "10", "CNOT": "11"}
_GATE_KINDS = {code: kind for kind, code in _OPCODE.items()}
# Gates are matched one after another, each where the previous one ended.
# The operand count depends on the opcode, so H/T and CNOT are separate
# alternatives; gates after the first carry their "0" separator.
_GATE_BODY = r"(?:(01|10)0(1+)|110(1+)0(1+))"
_GATE = re.compile(_GATE_BODY)
_NEXT_GATE = re.compile("0" + _GATE_BODY)
_WITNESS_HEADER = re.compile(r"(1+)00")


@dataclass(frozen=True)
class Gate:
    kind: str  # "H" | "T" | "CNOT"
    qubits: tuple[int, ...]  # 1-based; (q,) or (control, target)

    def __post_init__(self):
        if self.kind in ("H", "T"):
            if len(self.qubits) != 1 or self.qubits[0] < 1:
                raise ValueError(f"{self.kind} takes one positive qubit index")
        elif self.kind == "CNOT":
            if len(self.qubits) != 2 or min(self.qubits) < 1 \
                    or self.qubits[0] == self.qubits[1]:
                raise ValueError("CNOT takes distinct positive control, target")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "CNOT":
            return f"CNOT {self.qubits[0]}→{self.qubits[1]}"
        return f"{self.kind} q{self.qubits[0]}"


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]
    witness_qubits: int = 0
    trivial: bool = False

    def __post_init__(self):
        if self.witness_qubits < 0:
            raise ValueError("witness register size must be non-negative")

    @property
    def total_qubits(self) -> int:
        # At least one qubit so the output qubit always exists; a witness
        # register larger than the gates' reach still occupies qubits.
        referenced = max((q for g in self.gates for q in g.qubits), default=0)
        return max(1, referenced, self.witness_qubits)

    def listing(self) -> str:
        return "; ".join(str(g) for g in self.gates) if self.gates else "(no gates)"


TRIVIAL_CIRCUIT = Circuit(gates=(), witness_qubits=0, trivial=True)


@dataclass(frozen=True)
class StateVector:
    """Amplitude j is (a + b*w + c*w^2 + d*w^3) / sqrt2^k, w = e^(i*pi/4),
    with (a, b, c, d) = (coords[0][j], coords[1][j], coords[2][j], coords[3][j])."""

    num_qubits: int
    k: int
    coords: tuple[tuple[int, ...], ...]

    @property
    def amplitudes(self) -> tuple[FieldElem, ...]:
        """The amplitudes as exact elements of Q(1/sqrt2, i)."""
        m, odd = divmod(self.k, 2)
        amps = (_readout(r, m) for r in zip(*self.coords))
        return tuple(amp * SQRT2_INV for amp in amps) if odd else tuple(amps)


def parse_circuit(bits: str, expect_witness_header: bool = False) -> Circuit:
    """Total parser; any failure denotes the trivial never-accepting circuit."""
    if bits.strip("01"):
        return TRIVIAL_CIRCUIT
    m = pos = 0
    if expect_witness_header:
        header = _WITNESS_HEADER.match(bits)
        if header is None:
            return TRIVIAL_CIRCUIT
        m, pos = len(header[1]), header.end()
    gates = []
    g = _GATE.match(bits, pos)
    try:
        while g is not None:
            kind, qubit, control, target = g.groups()
            gates.append(Gate(_GATE_KINDS[kind], (len(qubit),)) if kind
                         else Gate("CNOT", (len(control), len(target))))
            pos = g.end()
            g = _NEXT_GATE.match(bits, pos)
    except ValueError:  # a CNOT whose control is its target
        return TRIVIAL_CIRCUIT
    if not gates or pos != len(bits):
        return TRIVIAL_CIRCUIT
    return Circuit(tuple(gates), witness_qubits=m)


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


def simulate(c: Circuit, basis_input: str,
             config: Config = Config()) -> StateVector:
    """Apply the gate list in order to the given computational basis state."""
    n = c.total_qubits
    if len(basis_input) != n or any(ch not in "01" for ch in basis_input):
        raise ValueError(f"basis input must be {n} bits")
    if n > config.max_qubits:
        raise DimensionCap(f"{n} qubits exceed cap {config.max_qubits}")
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
    return StateVector(n, k, tuple(map(tuple, coords)))


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


def _inner(left: list[tuple[int, ...]],
           right: list[tuple[int, ...]]) -> tuple[int, int, int, int]:
    """Sum over j of conj(left_j) * right_j in Z[w], as (z0, z1, z2, z3).

    conj(w^i) = w^-i, so the product of coordinates i of left and l of
    right lands on w^(l - i); w^4 = -1 turns a negative power into a
    negated one.
    """
    z = [0, 0, 0, 0]
    for i, x in enumerate(left):
        for l, y in enumerate(right):
            term = _dot(x, y)
            z[(l - i) % 4] += term if l >= i else -term
    return tuple(z)


def _accepting(state: StateVector) -> list[tuple[int, ...]]:
    """The coordinates of the output-1 half of the state."""
    half = 1 << (state.num_qubits - 1)
    return [x[half:] for x in state.coords]


def p_acc(c: Circuit, basis_input: str | None = None,
          config: Config = Config()) -> FieldElem:
    """Exact probability of measuring 1 on the output qubit (qubit 1).

    |a + b*w + c*w^2 + d*w^3|^2 = s1 + sqrt2*s2 with s1 = a^2+b^2+c^2+d^2
    and s2 = ab + bc + cd - da; summed over the output-1 half, that is
    (s1, s2, 0, -s2) in the basis 1, w, w^2, w^3 (w - w^3 = sqrt2), over
    the shared 2^k.
    """
    if basis_input is None:
        basis_input = "0" * c.total_qubits
    state = simulate(c, basis_input, config)
    if c.trivial:
        return ZERO
    x0, x1, x2, x3 = _accepting(state)
    s1 = _dot(x0, x0) + _dot(x1, x1) + _dot(x2, x2) + _dot(x3, x3)
    s2 = _dot(x0, x1) + _dot(x1, x2) + _dot(x2, x3) - _dot(x3, x0)
    return _readout((s1, s2, 0, -s2), state.k)


def _witness_input(c: Circuit, y: str) -> str:
    k = c.total_qubits - c.witness_qubits
    return "0" * k + y


def acceptance_operator(c: Circuit, config: Config = Config()) -> ExactMatrix:
    """Exact 2^m x 2^m operator of the witness block, Hermitian by check.

    Entry (y', y) is the overlap of the output-1 components of the runs
    on witnesses y' and y with zeroed workspace; its diagonal reproduces
    the per-witness acceptance probabilities.
    """
    m = c.witness_qubits
    if m < 1:
        raise ValueError("circuit has no witness register")
    dim = 1 << m
    cap = 1 << config.max_witness_qubits
    if dim > cap:
        raise DimensionCap(f"2^{m} exceeds cap {cap}")
    if c.trivial:
        return scaled_identity(dim, ZERO)
    runs = [simulate(c, _witness_input(c, y), config)
            for y in words_of_length(m)]
    halves = [_accepting(state) for state in runs]
    k = runs[0].k  # the H count, the same for every run
    rows = tuple(tuple(_readout(_inner(left, right), k) for right in halves)
                 for left in halves)
    q = ExactMatrix(rows)
    if not q.is_hermitian():
        raise AssertionError("acceptance operator failed the Hermiticity check")
    return q


def _generate(gen: tm.MachineDesc, gen_runtime: Callable[[int], int],
              x: str) -> str:
    result = tm.run(gen, [x], gen_runtime(len(x)))
    if isinstance(result, tm.FuelExhaustedResult):
        raise GeneratorFuelExhausted(
            f"circuit generator exceeded its runtime on {x!r}")
    return result.output


def classify_bqp(
    gen: tm.MachineDesc,
    gen_runtime: Callable[[int], int],
    x: str,
    config: Config = Config(),
) -> Verdict:
    """Run the generator, simulate its circuit, apply the trichotomy."""
    circ = parse_circuit(_generate(gen, gen_runtime, x))
    return _trichotomy(p_acc(circ, config=config), config)


def classify_qcma(
    gen: tm.MachineDesc,
    gen_runtime: Callable[[int], int],
    x: str,
    config: Config = Config(),
) -> Verdict:
    """Trichotomy over the best classical (basis) witness."""
    circ = parse_circuit(_generate(gen, gen_runtime, x), expect_witness_header=True)
    return witness_verdict(
        circ.witness_qubits, 1 << config.max_witness_qubits,
        lambda y: _trichotomy(p_acc(circ, _witness_input(circ, y), config),
                              config))


def classify_qma(
    gen: tm.MachineDesc,
    gen_runtime: Callable[[int], int],
    x: str,
    config: Config = Config(),
) -> Verdict:
    """Trichotomy over quantum witnesses via definiteness tests.

    With Q the witness-block operator and thresholds (c, s):
    sI - Q positive semi-definite is equivalent to max eigenvalue <= s,
    and cI - Q not positive definite to max eigenvalue >= c, so the
    verdict needs no eigenvalue computation.
    """
    circ = parse_circuit(_generate(gen, gen_runtime, x), expect_witness_header=True)
    if circ.trivial:
        return _trichotomy(ZERO, config)
    return classify_qma_operator(acceptance_operator(circ, config), config)


def classify_qma_operator(q: ExactMatrix, config: Config = Config()) -> Verdict:
    c, s = FieldElem(config.threshold_c), FieldElem(config.threshold_s)
    if sylvester_psd(scaled_identity(q.dim, s) - q):
        return Verdict.NO
    if not sylvester_pd(scaled_identity(q.dim, c) - q):
        return Verdict.YES
    return Verdict.OUTSIDE


def _trichotomy(p: FieldElem, config: Config) -> Verdict:
    if real_sign(p - FieldElem(config.threshold_s)) <= 0:
        return Verdict.NO
    if real_sign(p - FieldElem(config.threshold_c)) >= 0:
        return Verdict.YES
    return Verdict.OUTSIDE
