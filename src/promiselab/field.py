"""Exact arithmetic in the number field generated by 1/sqrt(2) and i.

Every amplitude and acceptance probability in this package lives in the
4-dimensional rational vector space with basis 1, 1/sqrt(2), i, i/sqrt(2).
An element is stored as four exact rationals, so equality is literal and
sign decisions on the real subfield a + b/sqrt(2) reduce to the integer
comparison of 2*a^2 against b^2.  No floating point is ever consulted.
A coordinate may also be an int, whose numerator and denominator `det`
reads as well.  The package adds and multiplies only integer
coordinates, inside `det` and the circuit simulator, so a FieldElem only
subtracts and conjugates.

The module also provides exact Hermitian linear algebra on matrices over
the field: determinants by fraction-free (Bareiss) elimination over the
integers of Z[sqrt(2)][i], whose one division is exact division by an
integer norm, and definiteness tests by Sylvester's criterion.  Positive
definite iff all leading principal minors are positive, and that walk
over the leading minors also settles semi-definiteness: a negative one
rules it out, all positive implies it.  Only after a vanishing leading
minor are all principal minors needed (semi-definite iff all are
non-negative).  A factor lambda > 0 multiplies each order-j minor by
lambda^j and so changes neither test: the QMA verdict of `circuit`
tests p*2^k*I - q*G, with integer coordinates, for (p/q)*I - G/2^k.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

from .errors import NonRealInput, NotHermitian

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class FieldElem(namedtuple("FieldElem", "a b c d",
                           defaults=(_ZERO, _ZERO, _ZERO, _ZERO))):
    """a*1 + b/sqrt(2) + c*i + d*i/sqrt(2) with rational coefficients,
    Fractions or ints, which compare by value."""

    __slots__ = ()

    def _undefined(self, other):
        return NotImplemented

    # the tuple's concatenation, repetition and order mean nothing here
    __add__ = __mul__ = __rmul__ = _undefined
    __lt__ = __le__ = __gt__ = __ge__ = _undefined

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return FieldElem(self.a - other.a, self.b - other.b,
                         self.c - other.c, self.d - other.d)

    def conjugate(self) -> "FieldElem":
        return FieldElem(self.a, self.b, -self.c, -self.d)

    def is_real(self) -> bool:
        return not (self.c or self.d)

    def __str__(self) -> str:
        return format_field_elem(self)


ZERO = FieldElem()


def real_sign(x: FieldElem) -> int:
    """Exact sign of a + b/sqrt(2); raises NonRealInput off the real line.

    Decided without iteration: the term of larger magnitude has the sign,
    a's when 2*a^2 > b^2 and b's otherwise, since 2*a^2 = b^2 has no
    nonzero rational solutions.
    """
    a, b, c, d = x
    if c or d:
        raise NonRealInput(f"element has imaginary part: {x}")
    lead = a if 2 * a * a > b * b else b
    return (lead > 0) - (lead < 0)


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


class ExactMatrix(namedtuple("ExactMatrix", "entries")):
    """Square matrix over the field, stored as a tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[FieldElem, ...], ...]):
        n = len(entries)
        if n < 1 or any(len(row) != n for row in entries):
            raise ValueError("matrix must be square and non-empty")
        return super().__new__(cls, entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_hermitian(self) -> bool:
        n = self.dim
        return all(self.entries[j][k] == self.entries[k][j].conjugate()
                   for j in range(n) for k in range(j, n))


_NIL = (0, 0, 0, 0)


def _mul(x: tuple, y: tuple) -> tuple:
    """Product in Z[sqrt2][i]; (u, v, w, z) is (u + v*sqrt2) + i(w + z*sqrt2)."""
    xu, xv, xw, xz = x
    yu, yv, yw, yz = y
    return (xu * yu - xw * yw + 2 * (xv * yv - xz * yz),
            xu * yv + xv * yu - xw * yz - xz * yw,
            xu * yw + xw * yu + 2 * (xv * yz + xz * yv),
            xu * yz + xz * yu + xv * yw + xw * yv)


def det(m: ExactMatrix) -> FieldElem:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Scaled by sqrt2*D, D the lcm of all denominators, the entries lie in
    Z[sqrt2][i].  Step k sets a_ij <- (p*a_ij - a_ik*a_kj) / prev, with p
    the first nonzero entry of column k (a row swap flips the sign) and
    prev the pivot before it.  The quotient is a minor, so dividing is
    exact: for prev*conj(prev) = e + f*sqrt2, multiply by
    conj(prev)*(e - f*sqrt2) and divide the integers by e^2 - 2f^2.
    """
    n = m.dim
    qs = [q for row in m.entries for a, b, c, d in row for q in (b, a, d, c)]
    scale = lcm(*(q.denominator for q in qs))
    ints = iter([q.numerator * (scale // q.denominator) for q in qs])
    cells = list(zip(ints, ints, ints, ints))
    a = [cells[i:i + n] for i in range(0, n * n, n)]
    negate, norm = False, None  # no division in the first step
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != _NIL), None)
        if pivot is None:
            return ZERO
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            negate = not negate
        row_k = a[k]
        p = row_k[k]
        for row in a[k + 1:]:
            a_ik = row[k]
            for j in range(k + 1, n):
                x = _mul(p, row[j])
                if a_ik != _NIL and row_k[j] != _NIL:
                    y = _mul(a_ik, row_k[j])
                    x = (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])
                if norm is not None:
                    x, rems = zip(*(divmod(c, norm) for c in _mul(x, conj)))
                    if any(rems):
                        raise ArithmeticError("inexact Bareiss division")
                row[j] = x
        pu, pv, pw, pz = p
        e = pu * pu + pw * pw + 2 * (pv * pv + pz * pz)
        f = 2 * (pu * pv + pw * pz)
        conj = (pu * e - 2 * pv * f, pv * e - pu * f,
                2 * pz * f - pw * e, pw * f - pz * e)
        norm = e * e - 2 * f * f
    # The last entry is det * (sqrt2*scale)^n; sqrt2^n = 2^(n//2)*sqrt2^(n%2).
    u, v, w, z = (-c for c in a[-1][-1]) if negate else a[-1][-1]
    coords = (v, u, z, w) if n % 2 else (u, 2 * v, w, 2 * z)
    den = (1 << n // 2) * scale ** n
    return FieldElem(*(Fraction(c, den) for c in coords))


def _principal_minor(m: ExactMatrix, idx: tuple[int, ...]) -> FieldElem:
    return det(ExactMatrix(tuple(
        tuple(m.entries[j][k] for k in idx) for j in idx)))


def _leading_minor_signs(m: ExactMatrix):
    """Signs of the leading principal minors of orders 1..dim, lazily."""
    if not m.is_hermitian():
        raise NotHermitian("matrix is not Hermitian")
    for k in range(1, m.dim + 1):
        yield real_sign(_principal_minor(m, tuple(range(k))))


def sylvester_pd(m: ExactMatrix) -> bool:
    """Positive definiteness: all leading principal minors strictly positive."""
    return all(sign == 1 for sign in _leading_minor_signs(m))


def sylvester_psd(m: ExactMatrix) -> bool:
    """Positive semi-definiteness, from the leading principal minors first.

    A negative leading minor is a negative principal minor, and all of
    them positive means definite, so the dim leading minors decide unless
    one vanishes.  Only then are all 2^dim - 1 principal minors checked
    for a negative one: exponential in the dimension, and callers keep
    dim <= 16.
    """
    for sign in _leading_minor_signs(m):
        if sign < 0:
            return False
        if sign == 0:
            break
    else:
        return True
    for size in range(1, m.dim + 1):
        for idx in combinations(range(m.dim), size):
            if real_sign(_principal_minor(m, idx)) < 0:
                return False
    return True
