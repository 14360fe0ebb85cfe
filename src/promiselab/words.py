"""Binary words in canonical order: by length, then lexicographically.

The bijection with the naturals sends 0 to the empty word, 1 to "0",
2 to "1", 3 to "00" and so on: word i is the binary numeral of i + 1
without its leading 1.  The generators below walk that bijection over a
range of indices, so canonical order has this one definition.
"""

from __future__ import annotations

from typing import Iterator


def index_to_word(i: int) -> str:
    if i < 0:
        raise ValueError("word index must be non-negative")
    return bin(i + 1)[3:]


def _words(lo: int, hi: int) -> Iterator[str]:
    """Words with index i for lo <= i + 1 < hi, in order, lazily."""
    for i in range(lo, hi):
        yield bin(i)[3:]


def words_of_length(length: int) -> Iterator[str]:
    """Yield all words of the given length in lexicographic order, lazily:
    indices 2^length - 1 up to 2^(length+1) - 2."""
    return _words(1 << length, 2 << length)


def words_up_to(max_length: int) -> Iterator[str]:
    """Yield all words of length 0..max_length in canonical order, lazily:
    indices 0 up to 2^(max_length+1) - 2, none for a negative length."""
    return _words(1, 2 << max_length if max_length >= 0 else 1)
