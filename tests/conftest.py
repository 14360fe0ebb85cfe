"""Shared hypothesis settings for every property test.

Examples are derived from each test's source, not drawn at random, so a
run is repeatable; and no per-example deadline is set, because the cost
of an exact example varies widely with its size.  Each test sets only
its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("promiselab", derandomize=True, deadline=None)
settings.load_profile("promiselab")
