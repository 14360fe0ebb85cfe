"""Conversions that only the tests use: floating-point views of exact
values, the inverse of the field's text form, a matrix from nested
lists, and the index of a word in canonical order."""

from __future__ import annotations

import re
from fractions import Fraction

from promiselab.field import ExactMatrix, FieldElem

_ELEM_RE = re.compile(
    r"^(-?\d+/\d+) \+ (-?\d+/\d+)\*r \+ (-?\d+/\d+)\*i \+ (-?\d+/\d+)\*i\*r$"
)


def to_complex(x: FieldElem) -> complex:
    s = 2 ** -0.5
    return complex(float(x.a) + float(x.b) * s, float(x.c) + float(x.d) * s)


def parse_field_elem(text: str) -> FieldElem:
    """Inverse of `promiselab.field.format_field_elem`, bit-exact."""
    m = _ELEM_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a field element rendering: {text!r}")
    return FieldElem(*(Fraction(g) for g in m.groups()))


def from_rows(rows) -> ExactMatrix:
    return ExactMatrix(tuple(tuple(row) for row in rows))


def word_to_index(w: str) -> int:
    """Inverse of `promiselab.words.index_to_word`."""
    return int("1" + w, 2) - 1
