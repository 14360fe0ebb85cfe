"""Reference determinant: Gaussian elimination over FieldElem fractions.

This is the determinant that `promiselab.field.det` replaces.  It divides
by each pivot through the field inverse below, so every entry update
builds new `Fraction` coefficients, and it shares no arithmetic with the
fraction-free Z[sqrt2][i] elimination except the FieldElem type.  The
property tests in `test_oracles.py` require the two to agree exactly.
The inverse and |x|^2 (`abs2`, which the simulator checks also use)
live here because only this elimination needs them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from helpers_values import ONE, fmul, fneg
from promiselab.field import ZERO, ExactMatrix, FieldElem, real_sign


def abs2(x: FieldElem) -> FieldElem:
    """|x|^2, always an element of the real subfield."""
    a, b, c, d = x.a, x.b, x.c, x.d
    return FieldElem(a * a + c * c + Fraction(1, 2) * (b * b + d * d),
                     2 * (a * b + c * d))


def _inverse(x: FieldElem) -> FieldElem:
    """Multiplicative inverse of a nonzero element."""
    if x == ZERO:
        raise ZeroDivisionError("field element is zero")
    norm = abs2(x)  # real: e + f/sqrt(2)
    e, f = norm.a, norm.b
    denom = e * e - Fraction(1, 2) * f * f  # rational, nonzero for nonzero x
    return fmul(x.conjugate(), FieldElem(e / denom, -f / denom))


def det(m: ExactMatrix) -> FieldElem:
    """Exact determinant by Gaussian elimination, first-nonzero pivoting."""
    n = m.dim
    a = [list(row) for row in m.entries]
    sign_flip = False
    result = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != ZERO), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign_flip = not sign_flip
        pivot_value = a[col][col]
        result = fmul(result, pivot_value)
        inv = _inverse(pivot_value)
        for r in range(col + 1, n):
            if a[r][col] == ZERO:
                continue
            factor = fmul(a[r][col], inv)
            for k in range(col, n):
                a[r][k] = a[r][k] - fmul(factor, a[col][k])
    return fneg(result) if sign_flip else result


def _minor(m: ExactMatrix, idx: tuple[int, ...]) -> FieldElem:
    return det(ExactMatrix(tuple(
        tuple(m.entries[j][k] for k in idx) for j in idx)))


def positive_definite(m: ExactMatrix) -> bool:
    """Every leading principal minor is strictly positive."""
    return all(real_sign(_minor(m, tuple(range(k)))) == 1
               for k in range(1, m.dim + 1))


def positive_semidefinite(m: ExactMatrix) -> bool:
    """Every principal minor, leading or not, is non-negative."""
    return all(real_sign(_minor(m, idx)) >= 0
               for size in range(1, m.dim + 1)
               for idx in combinations(range(m.dim), size))
