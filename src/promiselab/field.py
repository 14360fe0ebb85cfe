"""Exact arithmetic in the number field generated by 1/sqrt(2) and i.

Every amplitude and acceptance probability in this package lives in the
4-dimensional rational vector space with basis 1, 1/sqrt(2), i, i/sqrt(2).
An element is stored as four exact rationals, so equality is literal and
sign decisions on the real subfield a + b/sqrt(2) reduce to the integer
comparison of 2*a^2 against b^2.  No floating point is ever consulted.

The module also provides exact Hermitian linear algebra on matrices over
the field: determinants by Gaussian elimination and definiteness tests by
Sylvester's criterion (positive definite iff all leading principal minors
are positive; positive semi-definite iff all principal minors are
non-negative).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

from .errors import NonRealInput, NotHermitian

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


@dataclass(frozen=True, slots=True)
class FieldElem:
    """a*1 + b/sqrt(2) + c*i + d*i/sqrt(2) with rational coefficients."""

    a: Fraction = _ZERO
    b: Fraction = _ZERO
    c: Fraction = _ZERO
    d: Fraction = _ZERO

    def __add__(self, other: "FieldElem") -> "FieldElem":
        return FieldElem(self.a + other.a, self.b + other.b,
                         self.c + other.c, self.d + other.d)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return FieldElem(self.a - other.a, self.b - other.b,
                         self.c - other.c, self.d - other.d)

    def __neg__(self) -> "FieldElem":
        return FieldElem(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        # (1/sqrt2)^2 = 1/2 and i^2 = -1 drive the basis products.
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return FieldElem(
            a1 * a2 + _HALF * b1 * b2 - c1 * c2 - _HALF * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + _HALF * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    def conjugate(self) -> "FieldElem":
        return FieldElem(self.a, self.b, -self.c, -self.d)

    def abs2(self) -> "FieldElem":
        """|z|^2, always an element of the real subfield."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return FieldElem(a * a + c * c + _HALF * (b * b + d * d),
                         2 * (a * b + c * d))

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse of a nonzero element."""
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        norm = self.abs2()  # real: e + f/sqrt(2)
        e, f = norm.a, norm.b
        denom = e * e - _HALF * f * f  # rational, nonzero for nonzero input
        inv_norm = FieldElem(e / denom, -f / denom)
        return self.conjugate() * inv_norm

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_real(self) -> bool:
        return not (self.c or self.d)

    def to_complex(self) -> complex:
        s = 2 ** -0.5
        return complex(float(self.a) + float(self.b) * s,
                       float(self.c) + float(self.d) * s)

    def __str__(self) -> str:
        return format_field_elem(self)


ZERO = FieldElem()
ONE = FieldElem(_ONE)
SQRT2_INV = FieldElem(_ZERO, _ONE)


def real_sign(x: FieldElem) -> int:
    """Exact sign of a + b/sqrt(2); raises NonRealInput off the real line.

    Decided without iteration: when a and b disagree in sign, the side
    with the larger squared magnitude wins, and 2*a^2 = b^2 has no
    nonzero rational solutions.
    """
    if x.c or x.d:
        raise NonRealInput(f"element has imaginary part: {x}")
    a, b = x.a, x.b
    if a == 0 and b == 0:
        return 0
    if a == 0:
        return 1 if b > 0 else -1
    if b == 0:
        return 1 if a > 0 else -1
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    lhs = 2 * a * a
    rhs = b * b
    if lhs > rhs:
        return sa
    if lhs < rhs:
        return sb
    raise ArithmeticError("2a^2 = b^2 is impossible for nonzero rationals")


def decimal_string(x: FieldElem, digits: int = 12) -> str:
    """Decimal rendering of a real field element, correct to `digits` places.

    Over one denominator d, a*10^digits + 1/2 = p/2d and b*10^digits = w/d,
    so the value in last-place units is (p + sign(w)*sqrt(2w^2)) / 2d and
    its floor takes one integer square root.  2w^2 is never a square for
    w != 0, so its ceiling root is isqrt + 1.  The exact fraction stays
    the authoritative value.
    """
    if not x.is_real():
        raise NonRealInput(f"element has imaginary part: {x}")
    scale = 10 ** digits
    u, v = x.a * scale + _HALF, x.b * scale
    d = lcm(u.denominator, v.denominator)
    p, w = int(2 * u * d), int(v * d)
    root = isqrt(2 * w * w)
    ticks = (p + root if w >= 0 else p - root - 1) // (2 * d)
    sign = "-" if ticks < 0 else ""
    whole, frac = divmod(abs(ticks), scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


def format_field_elem(x: FieldElem) -> str:
    """Canonical text form "a + b*r + c*i + d*i*r" with r = 1/sqrt(2)."""

    def frac(q: Fraction) -> str:
        return f"{q.numerator}/{q.denominator}"

    return f"{frac(x.a)} + {frac(x.b)}*r + {frac(x.c)}*i + {frac(x.d)}*i*r"


_ELEM_RE = re.compile(
    r"^(-?\d+/\d+) \+ (-?\d+/\d+)\*r \+ (-?\d+/\d+)\*i \+ (-?\d+/\d+)\*i\*r$"
)


def parse_field_elem(text: str) -> FieldElem:
    """Inverse of format_field_elem, bit-exact."""
    m = _ELEM_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a field element rendering: {text!r}")
    return FieldElem(*(Fraction(g) for g in m.groups()))


@dataclass(frozen=True)
class ExactMatrix:
    """Square matrix over the field, stored as a tuple of row tuples."""

    entries: tuple[tuple[FieldElem, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n < 1 or any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square and non-empty")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(row) for row in rows))

    def is_hermitian(self) -> bool:
        n = self.dim
        return all(self.entries[j][k] == self.entries[k][j].conjugate()
                   for j in range(n) for k in range(j, n))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return ExactMatrix(tuple(
            tuple(x - y for x, y in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))


def scaled_identity(dim: int, value: FieldElem) -> ExactMatrix:
    return ExactMatrix(tuple(
        tuple(value if j == k else ZERO for k in range(dim))
        for j in range(dim)))


def det(m: ExactMatrix) -> FieldElem:
    """Exact determinant by Gaussian elimination, first-nonzero pivoting."""
    n = m.dim
    a = [list(row) for row in m.entries]
    sign_flip = False
    result = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign_flip = not sign_flip
        pivot_value = a[col][col]
        result = result * pivot_value
        inv = pivot_value.inverse()
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            factor = a[r][col] * inv
            for k in range(col, n):
                a[r][k] = a[r][k] - factor * a[col][k]
    return -result if sign_flip else result


def _principal_minor(m: ExactMatrix, idx: tuple[int, ...]) -> FieldElem:
    return det(ExactMatrix(tuple(
        tuple(m.entries[j][k] for k in idx) for j in idx)))


def sylvester_pd(m: ExactMatrix) -> bool:
    """Positive definiteness: all leading principal minors strictly positive."""
    if not m.is_hermitian():
        raise NotHermitian("matrix is not Hermitian")
    return all(
        real_sign(_principal_minor(m, tuple(range(k)))) == 1
        for k in range(1, m.dim + 1))


def sylvester_psd(m: ExactMatrix) -> bool:
    """Positive semi-definiteness: all 2^dim - 1 principal minors >= 0.

    Exponential in the dimension by nature; callers keep dim <= 16.
    """
    if not m.is_hermitian():
        raise NotHermitian("matrix is not Hermitian")
    for size in range(1, m.dim + 1):
        for idx in combinations(range(m.dim), size):
            if real_sign(_principal_minor(m, idx)) < 0:
                return False
    return True
