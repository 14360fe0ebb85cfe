"""Every settable cap and threshold of the package, in one frozen object.

Library functions that read a cap or a threshold take a single
``config: Config = Config()`` keyword.  The command line tool builds one
Config from a flat key=value file (``--config``) and its flags, and
passes it down: flags override file values, file values override the
defaults below.  Unknown keys are rejected so typos surface immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction


@dataclass(frozen=True)
class Config:
    max_qubits: int = 20
    max_witness_qubits: int = 4
    # Pairing squares the machine word-index, so indices wrapping even
    # small machines are astronomically large numerals; what needs bounding
    # is the decoded description size, the index bit length.
    max_enum_index_bits: int = 10 ** 6
    max_word_length: int = 16
    default_fuel: int = 10_000
    # Configuration steps of one ptm.enumerate_branches walk.
    max_branch_configs: int = 10 ** 7
    threshold_c: Fraction = Fraction(2, 3)
    threshold_s: Fraction = Fraction(1, 3)

    def __post_init__(self):
        if self.threshold_c < self.threshold_s:
            raise ValueError("threshold c must be at least s")
        for name, parse in _PARSERS.items():
            if parse is int and getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


_PARSERS = {f.name: Fraction if f.type == "Fraction" else int
            for f in fields(Config)}


def load_config(path: str) -> Config:
    """Read a key=value file; every error names the file and the line.

    A c < s conflict is reported at the threshold line read last.
    """
    values = {}
    threshold_line = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            parse = _PARSERS.get(key)
            if parse is None:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = parse(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"{path}:{lineno}: bad value {value!r} for {key}") from None
            if parse is int:
                try:  # an integer's range does not depend on the other keys
                    Config(**{key: values[key]})
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            else:
                threshold_line = lineno
    try:
        return Config(**values)
    except ValueError as exc:  # c < s, the only check left
        raise ValueError(f"{path}:{threshold_line}: {exc}") from None
