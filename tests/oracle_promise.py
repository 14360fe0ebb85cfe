"""Reference Karp check and word generators.

These are what `promiselab.promise.karp_check` and the index walks of
`promiselab.words` replace.  The check here verifies one reduction per
walk, through `TotalDecider.classify` and a call of the reduction on every
word; the words come from `itertools.product` over "01", one length at a
time.  The property tests in `test_oracles.py` require the one-walk check
to report what one call here per pair reports, and the two word walks to
yield the same words in the same order.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator

from promiselab.config import Config
from promiselab.errors import CapExceeded
from promiselab.promise import KarpReport, KarpViolation, TotalDecider, Verdict


def words_of_length(length: int) -> Iterator[str]:
    """All words of the given length in lexicographic order, lazily."""
    for bits in product("01", repeat=length):
        yield "".join(bits)


def words_up_to(max_length: int) -> Iterator[str]:
    """All words of length 0..max_length in canonical order."""
    for length in range(max_length + 1):
        yield from words_of_length(length)


def karp_check(f: Callable[[str], str], a: TotalDecider, b: TotalDecider,
               bound: int, config: Config = Config()) -> KarpReport:
    """Verify yes->yes and no->no on all words of length <= bound."""
    if bound > config.max_word_length:
        raise CapExceeded(
            f"reduction check bound {bound} exceeds cap {config.max_word_length}")
    violations = []
    checked = 0
    for w in words_up_to(bound):
        checked += 1
        va = a.classify(w)
        if va is Verdict.OUTSIDE:
            continue
        image = f(w)
        vb = b.classify(image)
        if vb is not va:
            violations.append(KarpViolation(w, va, image, vb))
    return KarpReport(checked, tuple(violations))
