"""Reference decimal rendering: a shrinking rational bracket for 1/sqrt(2).

This is the rendering that `promiselab.field.decimal_string` replaces.
It brackets 1/sqrt(2) by Babylonian iteration and doubles the precision
until both ends of the bracketed value round to the same decimal string,
so it never takes a square root of an integer.  The property tests in
`test_oracles.py` require the two to give the same string.
"""

from __future__ import annotations

from fractions import Fraction

from promiselab.errors import NonRealInput
from promiselab.field import FieldElem

_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def sqrt2_bounds(precision: int) -> tuple[Fraction, Fraction]:
    """Rational bracket for 1/sqrt(2) of width at most 2^-precision.

    Babylonian iteration for sqrt(1/2) starting at 1; the upper iterates
    decrease monotonically, the paired lower bounds (1/2)/hi increase, so
    calls with growing precision return nested intervals.
    """
    if precision < 0:
        raise ValueError("precision must be non-negative")
    hi = _ONE
    lo = _HALF
    width = Fraction(1, 2 ** precision)
    while hi - lo > width:
        hi = (hi + _HALF / hi) / 2
        lo = _HALF / hi
    return lo, hi


def decimal_string(x: FieldElem, digits: int = 12) -> str:
    if not x.is_real():
        raise NonRealInput(f"element has imaginary part: {x}")
    scale = 10 ** digits
    precision = digits * 4 + 8
    while True:
        lo, hi = sqrt2_bounds(precision)
        if x.b >= 0:
            low, high = x.a + x.b * lo, x.a + x.b * hi
        else:
            low, high = x.a + x.b * hi, x.a + x.b * lo
        lo_ticks = (low * scale + _HALF).__floor__()
        hi_ticks = (high * scale + _HALF).__floor__()
        if lo_ticks == hi_ticks:
            sign = "-" if lo_ticks < 0 else ""
            whole, frac = divmod(abs(lo_ticks), scale)
            return f"{sign}{whole}.{frac:0{digits}d}"
        precision *= 2
