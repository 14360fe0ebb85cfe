"""Exact total deciders for promise problems, and delayed diagonalization.

The package simulates deterministic and probabilistic Turing machines and
{H, T, CNOT} quantum circuits bit-exactly, classifies inputs against the
standard completeness/soundness thresholds as Yes / No / OutsidePromise,
enumerates the machine series behind the usual complexity classes, and
runs the gap-language diagonalization construction at desk scale.
"""

from .circuit import (Circuit, Gate, StateVector, TRIVIAL_CIRCUIT,
                      acceptance_operator, classify_bqp, classify_qcma,
                      classify_qma, encode_circuit, p_acc, parse_circuit,
                      simulate)
from .diagonal import (CostedFunction, DiagInstance, DiagResult,
                       PRESENTABLE, REPRESENTABLE, affine_costed, diagonalize,
                       find_contradiction, gap_member, ladner,
                       time_construct_wrap)
from .enumeration import (Polynomial, class_presentation, harder_set, pair,
                          poly_series, polyfunc_series, polyset_series,
                          triple, unpair, untriple)
from .field import (ExactMatrix, FieldElem, det, real_sign, sylvester_pd,
                    sylvester_psd)
from .promise import (BUILTIN_PROBLEMS, OracleMachine, TotalDecider, Verdict,
                      builtin, cook_run, differences, karp_check,
                      marked_union)
from .ptm import (BranchStats, PTMDesc, TRIVIAL_PTM, classify_bpp,
                  classify_ma, decode_ptm, enumerate_branches)
from .tm import (MachineDesc, RunResult, TRIVIAL_MACHINE, decode_godel,
                 encode_godel, run)

__all__ = [name for name in dir() if not name.startswith("_")]
