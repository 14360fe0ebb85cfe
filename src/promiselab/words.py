"""Binary words in canonical order: by length, then lexicographically.

The bijection with the naturals sends 0 to the empty word, 1 to "0",
2 to "1", 3 to "00" and so on.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator


def index_to_word(i: int) -> str:
    if i < 0:
        raise ValueError("word index must be non-negative")
    return bin(i + 1)[3:]


def word_to_index(w: str) -> int:
    return int("1" + w, 2) - 1


def words_of_length(length: int) -> Iterator[str]:
    """Yield all words of the given length in lexicographic order, lazily."""
    for bits in product("01", repeat=length):
        yield "".join(bits)


def words_up_to(max_length: int) -> Iterator[str]:
    """Yield all words of length 0..max_length in canonical order."""
    for length in range(max_length + 1):
        yield from words_of_length(length)
