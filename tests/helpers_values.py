"""Values and operations that only the tests use.

The package subtracts field elements but never adds, negates or
multiplies them, and it reads a state vector's packed lanes only in
bulk.  So the field's other ring operations (`fadd`, `fneg`, `fmul`),
its constants `ONE` and `SQRT2_INV`, and the coordinates and exact
amplitudes of a `StateVector` live here as functions.  So do
floating-point views of exact values, the inverse of the field's text
form, a matrix from nested lists or a scalar on the diagonal, and the
index of a word in canonical order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce

from promiselab import circuit
from promiselab.circuit import StateVector
from promiselab.field import ZERO, ExactMatrix, FieldElem

ONE = FieldElem(Fraction(1))
SQRT2_INV = FieldElem(Fraction(0), Fraction(1))

_HALF = Fraction(1, 2)
_ELEM_RE = re.compile(
    r"^(-?\d+/\d+) \+ (-?\d+/\d+)\*r \+ (-?\d+/\d+)\*i \+ (-?\d+/\d+)\*i\*r$"
)


def _add2(x: FieldElem, y: FieldElem) -> FieldElem:
    return FieldElem(x.a + y.a, x.b + y.b, x.c + y.c, x.d + y.d)


def _mul2(x: FieldElem, y: FieldElem) -> FieldElem:
    # (1/sqrt2)^2 = 1/2 and i^2 = -1 drive the basis products.
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    return FieldElem(
        a1 * a2 + _HALF * b1 * b2 - c1 * c2 - _HALF * d1 * d2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 + _HALF * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def fadd(x: FieldElem, *rest: FieldElem) -> FieldElem:
    """x + rest[0] + rest[1] + ..."""
    return reduce(_add2, rest, x)


def fneg(x: FieldElem) -> FieldElem:
    return FieldElem(-x.a, -x.b, -x.c, -x.d)


def fmul(x: FieldElem, *rest: FieldElem) -> FieldElem:
    """x * rest[0] * rest[1] * ..."""
    return reduce(_mul2, rest, x)


def coords(state: StateVector) -> tuple[tuple[int, ...], ...]:
    """The four coordinate vectors (a_j), (b_j), (c_j), (d_j) over all
    2^n amplitude indices j, read off the packed lanes as the
    `StateVector` docstring lays them out: 0 where no lane stands."""
    n, lanes = state.num_qubits, state.lanes
    count, nbytes = 1 << len(lanes), state.width // 8
    bias = 1 << state.width - 1
    index = [state.basis | sum((j >> i & 1) << n - q
                               for i, q in enumerate(lanes))
             for j in range(count)]

    def expand(x: int) -> tuple[int, ...]:
        raw = x.to_bytes(count * nbytes, "little")
        full = [0] * (1 << n)
        for j, at in enumerate(index):
            full[at] = int.from_bytes(raw[j * nbytes:(j + 1) * nbytes],
                                      "little") - bias
        return tuple(full)

    return tuple(map(expand, state.packed))


def amplitudes(state: StateVector) -> tuple[FieldElem, ...]:
    """The amplitudes as exact elements of Q(1/sqrt2, i), through the
    package's readout of one amplitude."""
    m, odd = divmod(state.k, 2)
    amps = tuple(circuit._readout(z, m) for z in zip(*coords(state)))
    return tuple(fmul(amp, SQRT2_INV) for amp in amps) if odd else amps


def to_complex(x: FieldElem) -> complex:
    s = 2 ** -0.5
    return complex(float(x.a) + float(x.b) * s, float(x.c) + float(x.d) * s)


def parse_field_elem(text: str) -> FieldElem:
    """Inverse of `promiselab.field.format_field_elem`, bit-exact."""
    m = _ELEM_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a field element rendering: {text!r}")
    return FieldElem(*(Fraction(g) for g in m.groups()))


def scaled_identity(dim: int, value: FieldElem) -> ExactMatrix:
    return ExactMatrix(tuple(
        tuple(value if j == k else ZERO for k in range(dim))
        for j in range(dim)))


def from_rows(rows) -> ExactMatrix:
    return ExactMatrix(tuple(tuple(row) for row in rows))


def word_to_index(w: str) -> int:
    """Inverse of `promiselab.words.index_to_word`."""
    return int("1" + w, 2) - 1
