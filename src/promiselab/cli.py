"""Command line entry point.

Subcommands map one-to-one onto the library: run / branches for machine
simulation, simulate / decide for circuits, classify for problems,
enumerate for the presentation series, and gaplang / diagonalize /
ladner for the diagonalization tooling.  Output is deterministic, exact
values are printed as fractions with an advisory 12-digit decimal, and
tables come with a tab-separated header so they parse mechanically.

Exit codes: 0 success, 1 domain error (the error name is printed),
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Callable

from . import circuit as qc
from . import diagonal, enumeration, ptm, tm
from .config import Config, load_config
from .errors import CapExceeded, PromiseLabError
from .field import FieldElem, decimal_string
from .promise import TotalDecider, builtin, karp_check, marked_union
from .words import words_up_to


def _polynomial(text: str) -> enumeration.Polynomial:
    """Comma-separated coefficients, constant term first: "2,1" is 2 + n."""
    try:
        coeffs = tuple(int(part) for part in text.split(","))
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return enumeration.Polynomial(coeffs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad polynomial {text!r}: {exc}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad fraction {text!r}: {exc}")


def _builtin(name: str) -> TotalDecider:
    try:
        return builtin(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _problem(ref: str) -> Callable[[Config], TotalDecider]:
    """Problem references: builtin:<name> or machine:<file>.

    The syntax and builtin names are checked while the arguments are
    parsed; a machine file is loaded once the configuration is known,
    since a machine-backed problem runs under its default fuel.
    """
    kind, _, rest = ref.partition(":")
    if kind == "builtin" and rest:
        decider = _builtin(rest)
        return lambda config: decider
    if kind == "machine" and rest:
        return lambda config: TotalDecider.from_machine(
            ref, tm.load_machine_file(rest), lambda n: config.default_fuel)
    raise argparse.ArgumentTypeError(
        f"bad problem reference {ref!r}; use builtin:<name> or machine:<file>")


def _presentation(spec: str) -> Callable[[Config], enumeration.Enumeration]:
    """Presentation specs: builtins:<name>,<name>,... or family:<name>."""
    kind, _, rest = spec.partition(":")
    if kind == "builtins" and rest:
        pres = enumeration.builtins_presentation(
            [_builtin(name) for name in rest.split(",")])
        return lambda config: pres
    if kind == "family" and rest:
        fam = rest.lower()
        if fam == "p":
            return enumeration.p_presentation
        if fam == "np":
            return enumeration.np_presentation
        if fam in enumeration._STARRED_FAMILIES:
            return lambda config: enumeration.starred_presentation(fam, config)
    raise argparse.ArgumentTypeError(
        f"bad presentation spec {spec!r}; use builtins:a,b,c or family:<name>")


def _r_spec(text: str) -> diagonal.CostedFunction:
    """Gap function specs: succ, or affine:<slope>:<offset>."""
    if text == "succ":
        return diagonal.affine_costed(1, 1)
    reason = ""
    if text.startswith("affine:"):
        parts = text.split(":")
        if len(parts) == 3:
            try:
                return diagonal.affine_costed(int(parts[1]), int(parts[2]))
            except ValueError as exc:
                reason = f" ({exc})"
    raise argparse.ArgumentTypeError(
        f"bad gap function spec {text!r}{reason}; use succ or affine:<a>:<b>")


def _at_least(floor: int, name: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            if (value := int(text)) >= floor:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {name}, got {text!r}")
    return parse


_natural = _at_least(0, "a non-negative integer")  # lengths, counts, fuel
_positive = _at_least(1, "a positive integer")  # search caps


def _print_exact(label: str, value: FieldElem) -> None:
    print(f"{label}: {value}  (~ {decimal_string(value)})")


def _cmd_run(args, config: Config) -> int:
    machine = tm.load_machine_file(args.machine)
    fuel = args.fuel if args.fuel is not None else config.default_fuel
    result = tm.run(machine, args.input, fuel)
    if isinstance(result, tm.Halted):
        print(f"halted\toutput={result.output}\tsteps={result.steps}")
    else:
        print(f"fuel-exhausted\tsteps={result.steps}")
    return 0


def _cmd_branches(args, config: Config) -> int:
    machine = ptm.load_ptm_file(args.machine)
    fuel = args.fuel if args.fuel is not None else config.default_fuel
    stats = ptm.enumerate_branches(machine, args.input, fuel, config=config)
    print("accepting\trejecting\ttotal\tp_acc\tp_rej")
    print(f"{stats.accepting}\t{stats.rejecting}\t{stats.total}"
          f"\t{stats.p_acc}\t{stats.p_rej}")
    _print_exact("p_acc", FieldElem(stats.p_acc))
    return 0


def _cmd_simulate(args, config: Config) -> int:
    circ = qc.load_circuit_file(args.circuit, args.witness_header)
    p = qc.p_acc(circ, args.input, config)
    print(f"gates: {circ.listing()}")
    print(f"qubits: {circ.total_qubits}\twitness: {circ.witness_qubits}"
          f"\ttrivial: {'yes' if circ.trivial else 'no'}")
    _print_exact("p_acc", p)
    return 0


def _cmd_decide(args, config: Config) -> int:
    gen = tm.load_machine_file(args.gen)
    flags = {"threshold_c": args.c, "threshold_s": args.s}
    config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    decide = getattr(qc, f"classify_{args.problem_class}")
    print(decide(gen, args.gen_runtime, args.input, config).value)
    return 0


def _cmd_classify(args, config: Config) -> int:
    print(args.problem(config).classify(args.input).value)
    return 0


def _cmd_enumerate(args, config: Config) -> int:
    if args.max_len > config.max_word_length:
        raise CapExceeded(
            f"--max-len {args.max_len} exceeds cap {config.max_word_length}")
    fam = args.family.lower()
    if fam == "polyfunc":
        f = enumeration.polyfunc_series(args.index, config)
        print("word\timage")
        for w in words_up_to(args.max_len):
            print(f"{w or '(empty)'}\t{f(w) or '(empty)'}")
        return 0
    if fam == "p":
        decider = enumeration.p_machine(args.index, config)
    elif fam == "np":
        decider = enumeration.np_machine(args.index, config)
    else:
        decider = enumeration.class_presentation(fam, args.index, config)
    print(f"decider: {decider.tag}")
    print("word\tverdict")
    for w in words_up_to(args.max_len):
        print(f"{w or '(empty)'}\t{decider.classify(w).value}")
    return 0


def _cmd_gaplang(args, config: Config) -> int:
    r = args.r
    if args.member is not None:
        print("true" if diagonal.gap_member(r, args.member) else "false")
    if args.table is not None:
        print("start\tend\tmember")
        for start, end, member in diagonal.gap_intervals(r, args.table):
            print(f"{start}\t{end}\t{'true' if member else 'false'}")
    return 0


def _emit_diag_report(result: diagonal.DiagResult, target: TotalDecider,
                      bound: int, r_table_rows: int) -> None:
    r = result.r
    print("## r-table")
    print("n\tq\tq_prime\tr")
    for n in range(r_table_rows + 1):
        q = result.q.value(n) if result.q else ""
        q_prime = result.q_prime.value(n) if result.q_prime else ""
        print(f"{n}\t{q}\t{q_prime}\t{r.value(n)}")
    print()
    print("## intervals")
    print("start\tend\tmember")
    for start, end, member in diagonal.gap_intervals(r, r_table_rows):
        print(f"{start}\t{end}\t{'true' if member else 'false'}")
    print()
    print("## witnesses")
    print("side\tmachine\tinterval\tstart\tend\tword\ta_verdict\tmachine_verdict")
    for w in result.witnesses:
        print(f"{w.side}\t{w.machine_index}\t{w.interval_index}"
              f"\t{w.interval_start}\t{w.interval_end}\t{w.word}"
              f"\t{w.a_verdict.value}\t{w.machine_verdict.value}")
    print()
    print("## reduction-check")
    report = karp_check(result.reduction, result.b, target, bound)
    print("checked\tviolations")
    print(f"{report.checked}\t{len(report.violations)}")


def _cmd_diagonalize(args, config: Config) -> int:
    a = args.a(config)
    a_prime = args.aprime(config)
    inst = diagonal.DiagInstance(
        a, a_prime, args.a_pres(config), args.aprime_pres(config),
        args.a_mode, args.aprime_mode, args.search_cap)
    result = diagonal.diagonalize(inst, witness_bound=args.witnesses)
    _emit_diag_report(result, marked_union(a, a_prime), args.bound, args.table)
    return 0


def _cmd_ladner(args, config: Config) -> int:
    a = args.a(config)
    pres_c = args.pres(config)
    pres_harder = enumeration.harder_set_presentation(a, pres_c, "T",
                                                      config=config)
    result = diagonal.ladner(a, pres_c, args.a_mode, pres_harder,
                             search_cap=args.search_cap,
                             witness_bound=args.witnesses)
    _emit_diag_report(result, marked_union(a, builtin("const-no")),
                      args.bound, args.table)
    print()
    print("## reduction-to-a")
    assert result.reduction_to_a is not None
    report = karp_check(result.reduction_to_a, result.b, a, args.bound)
    print("checked\tviolations")
    print(f"{report.checked}\t{len(report.violations)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promiselab",
        description="exact deciders for promise problems and delayed "
                    "diagonalization at desk scale")
    parser.add_argument("--config", help="flat key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a deterministic machine")
    p.add_argument("--machine", required=True)
    p.add_argument("--input", action="append", default=[])
    p.add_argument("--fuel", type=_natural, default=None)

    p = sub.add_parser("branches", help="enumerate probabilistic branches")
    p.add_argument("--machine", required=True)
    p.add_argument("--input", action="append", default=[])
    p.add_argument("--fuel", type=_natural, default=None)

    p = sub.add_parser("simulate", help="parse and simulate a circuit file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--witness-header", action="store_true")
    p.add_argument("--input", default=None, help="basis input bits")

    p = sub.add_parser("decide", help="decide via a circuit generator")
    p.add_argument("problem_class", choices=("bqp", "qcma", "qma"))
    p.add_argument("--gen", required=True, help="generator machine file")
    p.add_argument("--input", required=True)
    p.add_argument("--gen-runtime", type=_polynomial,
                   default=enumeration.Polynomial((1000, 100)))
    p.add_argument("--c", type=_fraction, default=None)
    p.add_argument("--s", type=_fraction, default=None)

    p = sub.add_parser("classify", help="classify a word under a problem")
    p.add_argument("--problem", required=True, type=_problem)
    p.add_argument("--input", required=True)

    p = sub.add_parser("enumerate", help="print a presented decider's verdicts")
    p.add_argument("family")
    p.add_argument("index", type=_natural)
    p.add_argument("--max-len", type=_natural, default=4)

    p = sub.add_parser("gaplang", help="gap language membership")
    p.add_argument("--r", type=_r_spec, required=True)
    p.add_argument("--member", default=None)
    p.add_argument("--table", type=_natural, default=None,
                   help="also print intervals up to this length")

    p = sub.add_parser("diagonalize", help="run the diagonalization construction")
    p.add_argument("--a", required=True, type=_problem)
    p.add_argument("--a-pres", required=True, type=_presentation)
    p.add_argument("--aprime", required=True, type=_problem)
    p.add_argument("--aprime-pres", required=True, type=_presentation)
    p.add_argument("--a-mode", default=diagonal.PRESENTABLE,
                   choices=(diagonal.PRESENTABLE, diagonal.REPRESENTABLE))
    p.add_argument("--aprime-mode", default=diagonal.PRESENTABLE,
                   choices=(diagonal.PRESENTABLE, diagonal.REPRESENTABLE))
    p.add_argument("--bound", type=_natural, default=8,
                   help="reduction spot-check word length")
    p.add_argument("--witnesses", type=_natural, default=3)
    p.add_argument("--search-cap", type=_positive,
                   default=diagonal.DEFAULT_SEARCH_CAP)
    p.add_argument("--table", type=_natural, default=16,
                   help="interval table length bound")

    p = sub.add_parser("ladner", help="intermediate problem construction")
    p.add_argument("--a", required=True, type=_problem)
    p.add_argument("--pres", required=True, type=_presentation)
    p.add_argument("--a-mode", default=diagonal.PRESENTABLE,
                   choices=(diagonal.PRESENTABLE, diagonal.REPRESENTABLE))
    p.add_argument("--bound", type=_natural, default=8)
    p.add_argument("--witnesses", type=_natural, default=3)
    p.add_argument("--search-cap", type=_positive,
                   default=diagonal.DEFAULT_SEARCH_CAP)
    p.add_argument("--table", type=_natural, default=16)

    return parser


_COMMANDS = {"run": _cmd_run, "branches": _cmd_branches,
             "simulate": _cmd_simulate, "decide": _cmd_decide,
             "classify": _cmd_classify, "enumerate": _cmd_enumerate,
             "gaplang": _cmd_gaplang, "diagonalize": _cmd_diagonalize,
             "ladner": _cmd_ladner}


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config) if args.config else Config()
        return _COMMANDS[args.command](args, config)
    except (PromiseLabError, ValueError, KeyError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
