"""The package's record types, whatever class machinery builds them.

Every record is a frozen value: assigning a field raises AttributeError,
and records built from equal field values are equal and hash alike.  A
record's mutable field is never shared with another record through a
default, the field element refuses the operations that it does not
define, and each validating constructor rejects bad fields with its own
message.
"""

import inspect
import re
from fractions import Fraction

import pytest

from promiselab.circuit import Circuit, Gate, StateVector
from promiselab.diagonal import (PRESENTABLE, ContradictionWitness,
                                 DiagInstance, DiagResult, GapLimits,
                                 affine_costed)
from promiselab.enumeration import CostedFunction, Polynomial
from promiselab.field import ZERO, ExactMatrix, FieldElem
from promiselab.promise import (DifferenceReport, KarpReport, KarpViolation,
                                OracleMachine, Verdict, builtin)
from promiselab.ptm import BranchStats, PTMDesc
from promiselab.tm import TRIVIAL_MACHINE, MachineDesc, RunResult

_CONST_YES, _CONST_NO = builtin("const-yes"), builtin("const-no")
_GAP = affine_costed(1, 1)
_VIOLATION = KarpViolation("0", Verdict.YES, "1", Verdict.NO)
_INSTANCE = DiagInstance(_CONST_YES, _CONST_NO, builtin, builtin)


def _record(cls, *args, equal=None, invalid=(), fresh=(), undefined=()):
    """A case: cls(*args) against cls(*equal), which has equal fields
    built apart; (args, message) pairs the constructor rejects; fields
    no two records may share; operations that raise TypeError."""
    return pytest.param(cls, args, args if equal is None else equal,
                        invalid, fresh, undefined, id=cls.__name__)


_MACHINE_ERRORS = (
    ((0, 0, frozenset()), "machine needs at least one state"),
    ((1, 1, frozenset()), "initial state out of range"),
    ((1, 0, frozenset({1})), "final state out of range"),
    ((1, 0, frozenset({0}), {(0, "0"): ()}), "empty branch set"),
    ((1, 0, frozenset({0}), {(0, "0"): (1, "0", "R")}),
     "transition state out of range"),
    ((1, 0, frozenset({0}), {(0, "0"): (0, "2", "R")}),
     "bad transition alphabet"),
    ((1, 0, frozenset(), {(0, "0"): (0, "0", "R")}),
     "missing transition for (0, '1')"),
)

RECORDS = [
    _record(MachineDesc, 1, 0, frozenset({0}), invalid=_MACHINE_ERRORS,
            fresh=("transitions",)),
    _record(RunResult, "01", 3),
    _record(PTMDesc, 1, 0, frozenset({0}), fresh=("transitions",), invalid=(
        ((1, 0, frozenset(), {(0, "0"): ()}), "empty branch set"),
        ((1, 0, frozenset(), {(0, "0"): ((0, "0", "R"),)}),
         "missing transition for (0, '1')"))),
    _record(BranchStats, 1, 1, 2, Fraction(1, 2), Fraction(1, 2)),
    _record(Gate, "CNOT", (1, 2), invalid=(
        (("H", (0,)), "H takes one positive qubit index"),
        (("T", (1, 2)), "T takes one positive qubit index"),
        (("CNOT", (2, 2)), "CNOT takes distinct positive control, target"),
        (("CNOT", (1,)), "CNOT takes distinct positive control, target"),
        (("X", (1,)), "unknown gate kind 'X'"))),
    _record(Circuit, (Gate("H", (1,)),), 1, invalid=(
        (((), -1), "witness register size must be non-negative"),)),
    _record(StateVector, 2, 1, 8, (128, 129, 128, 127), (1,), 0),
    _record(FieldElem, 1, 0, -1, 2,
            equal=(Fraction(1), Fraction(0), Fraction(-1), Fraction(2)),
            undefined=(lambda x, y: x + y, lambda x, y: x * 2,
                       lambda x, y: 2 * x, lambda x, y: x < y,
                       lambda x, y: x <= y, lambda x, y: x > y,
                       lambda x, y: x >= y)),
    _record(ExactMatrix, ((FieldElem(1),),),
            equal=(((FieldElem(Fraction(1)),),),), invalid=(
                (((),), "matrix must be square and non-empty"),
                ((((ZERO, ZERO),),), "matrix must be square and non-empty"))),
    _record(CostedFunction, "affine", _GAP.eval),
    _record(Polynomial, (1, 2), invalid=(
        (((-1,),), "coefficients must be non-negative"),
        (((1, 0),), "trailing coefficient must be nonzero"))),
    _record(OracleMachine, TRIVIAL_MACHINE, 0, len),
    _record(KarpViolation, "0", Verdict.YES, "1", Verdict.NO),
    _record(KarpReport, 3, (_VIOLATION,)),
    _record(DifferenceReport, frozenset({"0"}), frozenset({"0", "1"}),
            frozenset({"0", "1", "00"})),
    _record(DiagInstance, _CONST_YES, _CONST_NO, builtin, builtin, invalid=(
        ((_CONST_YES, _CONST_NO, builtin, builtin, PRESENTABLE,
          PRESENTABLE, 0), "search cap must be at least 1"),)),
    _record(ContradictionWitness, "even", 0, 0, 0, 1, "0", Verdict.YES,
            Verdict.NO),
    _record(DiagResult, _INSTANCE, _CONST_YES, GapLimits(_GAP), _GAP, _GAP,
            str, ()),
]


def _hash(record):
    try:
        return hash(record)
    except TypeError:  # a dict field makes the record unhashable
        return None


@pytest.mark.parametrize("cls, args, equal, invalid, fresh, undefined",
                         RECORDS)
def test_record_semantics(cls, args, equal, invalid, fresh, undefined):
    left, right = cls(*args), cls(*equal)
    for name in inspect.signature(cls).parameters:
        with pytest.raises(AttributeError):
            setattr(left, name, getattr(right, name))
    assert left == right and not left != right
    assert _hash(left) == _hash(right)
    for name in fresh:
        assert getattr(left, name) is not getattr(right, name)
    for operation in undefined:
        with pytest.raises(TypeError):
            operation(left, right)
    for bad, message in invalid:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(*bad)
