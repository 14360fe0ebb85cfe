"""Exception hierarchy.

Class names double as the error tokens printed by the CLI, so they are
kept short and stable.
"""


class PromiseLabError(Exception):
    """Base class for all domain errors raised by this package."""


class NonRealInput(PromiseLabError):
    """Sign requested for a field element with a nonzero imaginary part."""


class NotHermitian(PromiseLabError):
    """Definiteness test applied to a non-Hermitian matrix."""


class BranchFuelExhausted(PromiseLabError):
    """Some computation branch of a probabilistic machine did not halt in time.

    Carries the branch-choice prefix of the offending path.
    """

    def __init__(self, path: tuple[int, ...], fuel: int):
        self.path = path
        self.fuel = fuel
        super().__init__(f"branch {path} exceeded fuel {fuel}")


class WitnessSpaceTooLarge(PromiseLabError):
    """2^m witnesses exceed the configured enumeration cap."""


class GeneratorFuelExhausted(PromiseLabError):
    """A circuit-generating machine exceeded its runtime bound."""


class DimensionCap(PromiseLabError):
    """Matrix or state-vector dimension exceeds the configured cap."""


class NotTotalDecider(PromiseLabError):
    """A machine-backed decider produced something other than 1, 0 or 10."""

    def __init__(self, output: object):
        self.output = output
        super().__init__(f"decider output {output!r} is not one of '1', '0', '10'")


class NonPromisedQuery(PromiseLabError):
    """An oracle machine queried its oracle outside the promise."""

    def __init__(self, word: str):
        self.word = word
        super().__init__(f"oracle queried on non-promised word {word!r}")


class FuelExhausted(PromiseLabError):
    """A bounded run did not halt within its fuel allowance."""


class NoContradictionFound(PromiseLabError):
    """Bounded diagonalization search found no contradicting word.

    Signals that the hypothesis "A lies outside the presented class" is not
    witnessed within the search bounds.
    """

    def __init__(self, machine_index: int, length_floor: int, cap: int):
        self.machine_index = machine_index
        self.length_floor = length_floor
        self.cap = cap
        super().__init__(
            f"no contradiction for machine {machine_index} with word length in "
            f"({length_floor}, {length_floor + cap}]"
        )


class NoInstanceOfA(PromiseLabError):
    """No no-instance of the target problem found within the scan cap."""


class CapExceeded(PromiseLabError):
    """A configured cap (enumeration index, word length, ...) was exceeded."""


class AccountingError(PromiseLabError):
    """A costed function reported a cost above its value."""
