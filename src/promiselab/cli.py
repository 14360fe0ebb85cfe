"""Command line entry point.

Subcommands map one-to-one onto the library: run / branches for machine
simulation, simulate / decide for circuits, classify for problems,
enumerate for the presentation series, and gaplang / diagonalize /
ladner for the diagonalization tooling.  Output is deterministic, exact
values are printed as fractions with an advisory 12-digit decimal, and
tables come with a tab-separated header so they parse mechanically.

A plain invocation is read in one pass over the subcommand table,
`_SUBCOMMANDS`; argparse runs only for help, abbreviated or =-joined
options and usage errors, so every help text and usage error is its own.

Exit codes: 0 success, 1 domain error (the error name is printed),
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from dataclasses import replace
from fractions import Fraction
from typing import Callable

from . import circuit as qc
from . import diagonal, enumeration, ptm, tm
from .config import Config, load_config
from .errors import CapExceeded, PromiseLabError
from .field import FieldElem, decimal_string
from .promise import TotalDecider, builtin, karp_check, marked_union
from .words import words_of_length, words_up_to


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


def _presentation(spec: str) -> Callable[[Config], enumeration.Presentation]:
    """Presentation specs: builtins:<name>,<name>,... or family:<name>."""
    kind, _, rest = spec.partition(":")
    if kind == "builtins" and rest:
        pres = enumeration.builtins_presentation(
            [_builtin(name) for name in rest.split(",")])
        return lambda config: pres
    if kind == "family" and rest.lower() != "polyfunc":
        with suppress(ValueError):  # an unknown family is a usage error
            enumeration.family_series(rest)
            return lambda config: enumeration.family_series(rest, config)
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


def _word(text: str) -> str:
    if text.strip("01"):  # the empty word is a word
        raise argparse.ArgumentTypeError(f"expected a binary word, got {text!r}")
    return text


def _print_exact(label: str, value: FieldElem) -> None:
    print(f"{label}: {value}  (~ {decimal_string(value)})")


def _cmd_run(args, config: Config) -> int:
    machine = tm.load_machine_file(args.machine)
    fuel = args.fuel if args.fuel is not None else config.default_fuel
    result = tm.run(machine, args.input, fuel)
    if result.output is not None:
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
    if given := {k: v for k, v in flags.items() if v is not None}:
        config = replace(config, **given)
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
    # an oversized index is reported before an unknown family name
    enumeration._check_index(args.index, config)
    item = enumeration.family_series(args.family, config)(args.index)
    out = sys.stdout
    if not isinstance(item, TotalDecider):  # a polyfunc word function
        # streamed, one line per word, never held whole
        out.write("word\timage\n")
        out.writelines(f"{w or '(empty)'}\t{item(w) or '(empty)'}\n"
                       for w in words_up_to(args.max_len))
        return 0
    out.write(f"decider: {item.tag}\nword\tverdict\n")
    # one string per length; a verdict that raises ends the table after
    # the lines of its length before it
    for n in range(args.max_len + 1):
        lines = []
        try:
            for w, v in zip(words_of_length(n) if n else ("(empty)",),
                            item.verdicts(n)):
                lines.append(f"{w}\t{v._value_}\n")
        finally:
            out.write("".join(lines))
    return 0


def _print_intervals(gaps: diagonal.GapLimits, max_length: int) -> None:
    print("start\tend\tmember")
    for start, end, member in diagonal.gap_intervals(gaps, max_length):
        print(f"{start}\t{end}\t{'true' if member else 'false'}")


def _cmd_gaplang(args, config: Config) -> int:
    if args.member is not None:
        print("true" if diagonal.gap_member(args.r, args.member) else "false")
    if args.table is not None:
        _print_intervals(diagonal.GapLimits(args.r), args.table)
    return 0


def _report_construction(result: diagonal.DiagResult, args,
                         config: Config) -> int:
    """Run every spot-check of the construction, then print its report."""
    inst = result.inst
    checks = {"reduction-check": (result.reduction,
                                  marked_union(inst.a, inst.a_prime))}
    if result.reduction_to_a is not None:
        checks["reduction-to-a"] = (result.reduction_to_a, inst.a)
    reports = karp_check(result.b, tuple(checks.values()), args.bound,
                         config=config)
    print("## r-table")
    print("n\tq\tq_prime\tr")
    for n in range(args.table + 1):
        print(f"{n}\t{result.q.value(n)}\t{result.q_prime.value(n)}"
              f"\t{result.r.value(n)}")
    print()
    print("## intervals")
    _print_intervals(result.gaps, args.table)
    print()
    print("## witnesses")
    print("side\tmachine\tinterval\tstart\tend\tword\ta_verdict\tmachine_verdict")
    for w in result.witnesses:
        print(f"{w.side}\t{w.machine_index}\t{w.interval_index}"
              f"\t{w.interval_start}\t{w.interval_end}\t{w.word}"
              f"\t{w.a_verdict.value}\t{w.machine_verdict.value}")
    for title, report in zip(checks, reports):
        print()
        print(f"## {title}")
        print("checked\tviolations")
        print(f"{report.checked}\t{len(report.violations)}")
    return 0


# A construction's problems are memoized for the one invocation: the
# construction, the harder-set presentation and the spot-checks all
# classify the same words.

def _cmd_diagonalize(args, config: Config) -> int:
    inst = diagonal.DiagInstance(
        args.a(config).memoized(), args.aprime(config).memoized(),
        args.a_pres(config), args.aprime_pres(config),
        args.a_mode, args.aprime_mode, args.search_cap)
    result = diagonal.diagonalize(inst, witness_bound=args.witnesses)
    return _report_construction(result, args, config)


def _cmd_ladner(args, config: Config) -> int:
    result = diagonal.ladner(args.a(config).memoized(), args.pres(config),
                             args.a_mode, search_cap=args.search_cap,
                             witness_bound=args.witnesses, config=config)
    return _report_construction(result, args, config)


_REQUIRED = {"required": True}
_MACHINE = (("--machine", _REQUIRED),
            ("--input", {"action": "append", "default": [], "type": _word}),
            ("--fuel", {"type": _natural, "default": None}))


def _construction(*sources: tuple, modes: tuple[str, ...] = ("--a-mode",),
                  bound_help: str | None = None,
                  table_help: str | None = None) -> tuple:
    """--a and the other sources, then the five settings both
    constructions share (with --aprime-mode for diagonalize)."""
    mode = {"default": diagonal.PRESENTABLE,
            "choices": (diagonal.PRESENTABLE, diagonal.REPRESENTABLE)}
    return (("--a", {**_REQUIRED, "type": _problem}), *sources,
            *((flag, mode) for flag in modes),
            ("--bound", {"type": _natural, "default": 8, "help": bound_help}),
            ("--witnesses", {"type": _natural, "default": 3}),
            ("--search-cap", {"type": _positive,
                              "default": diagonal.DEFAULT_SEARCH_CAP}),
            ("--table", {"type": _natural, "default": 16, "help": table_help}))


# name: (handler, help line, arguments as (name, add_argument keywords))
_SUBCOMMANDS = {
    "run": (_cmd_run, "run a deterministic machine", _MACHINE),
    "branches": (_cmd_branches, "enumerate probabilistic branches", _MACHINE),
    "simulate": (_cmd_simulate, "parse and simulate a circuit file", (
        ("--circuit", _REQUIRED), ("--witness-header", {"action": "store_true"}),
        ("--input", {"default": None, "type": _word,
                     "help": "basis input bits"}))),
    "decide": (_cmd_decide, "decide via a circuit generator", (
        ("problem_class", {"choices": ("bqp", "qcma", "qma")}),
        ("--gen", {**_REQUIRED, "help": "generator machine file"}),
        ("--input", {**_REQUIRED, "type": _word}),
        ("--gen-runtime", {"type": _polynomial,
                           "default": enumeration.Polynomial((1000, 100))}),
        ("--c", {"type": _fraction, "default": None}),
        ("--s", {"type": _fraction, "default": None}))),
    "classify": (_cmd_classify, "classify a word under a problem", (
        ("--problem", {**_REQUIRED, "type": _problem}),
        ("--input", {**_REQUIRED, "type": _word}))),
    "enumerate": (_cmd_enumerate, "print a presented decider's verdicts", (
        ("family", {}), ("index", {"type": _natural}),
        ("--max-len", {"type": _natural, "default": 4}))),
    "gaplang": (_cmd_gaplang, "gap language membership", (
        ("--r", {**_REQUIRED, "type": _r_spec}),
        ("--member", {"type": _word, "default": None}),
        ("--table", {"type": _natural, "default": None,
                     "help": "also print intervals up to this length"}))),
    "diagonalize": (_cmd_diagonalize, "run the diagonalization construction",
                    _construction(
                        ("--a-pres", {**_REQUIRED, "type": _presentation}),
                        ("--aprime", {**_REQUIRED, "type": _problem}),
                        ("--aprime-pres", {**_REQUIRED, "type": _presentation}),
                        modes=("--a-mode", "--aprime-mode"),
                        bound_help="reduction spot-check word length",
                        table_help="interval table length bound")),
    "ladner": (_cmd_ladner, "intermediate problem construction", _construction(
        ("--pres", {**_REQUIRED, "type": _presentation}))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promiselab",
        description="exact deciders for promise problems and delayed "
                    "diagonalization at desk scale")
    parser.add_argument("--config", help="flat key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, arguments) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        for arg, options in arguments:
            subparser.add_argument(arg, **options)
    return parser


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The namespace that build_parser().parse_args(argv) returns, read
    in one pass over the subcommand's table entry, when argv is plain: an
    optional leading --config FILE, the subcommand, then exact --option
    value pairs, store_true flags and positionals.  Anything else is None
    and left to argparse: help, "--", an abbreviated or =-joined option,
    a value starting with "-", a repeated option, a wrong positional
    count, a missing required option or a value argparse would reject."""
    head = 2 if argv[:1] == ["--config"] else 0
    if len(argv) <= head or argv[head] not in _SUBCOMMANDS \
            or (head and argv[1].startswith("-")):
        return None
    values = {"config": argv[1] if head else None, "command": argv[head]}
    table = dict(_SUBCOMMANDS[argv[head]][2])
    given, positionals = {}, []
    rest = iter(argv[head + 1:])
    for arg in rest:
        if not arg.startswith("-"):
            positionals.append(arg)
        elif arg not in table or (arg in given and
                                  table[arg].get("action") != "append"):
            return None
        elif table[arg].get("action") == "store_true":
            given[arg] = []
        elif (text := next(rest, "-")).startswith("-"):
            return None
        else:
            given.setdefault(arg, []).append(text)
    names = [name for name in table if not name.startswith("-")]
    if len(positionals) != len(names):
        return None
    given.update((name, [text]) for name, text in zip(names, positionals))
    try:
        for name, options in table.items():
            texts, action = given.get(name), options.get("action")
            if texts is None and options.get("required"):
                return None
            parsed = [options.get("type", str)(text) for text in texts or ()]
            if any(v not in options.get("choices", (v,)) for v in parsed):
                return None
            values[name.lstrip("-").replace("-", "_")] = (
                texts is not None if action == "store_true" else
                parsed if action == "append" else
                parsed[0] if parsed else options.get("default"))
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


_DEFAULT_CONFIG = Config()  # frozen, so every invocation may share it


def dispatch(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv) or build_parser().parse_args(argv)
        config = load_config(args.config) if args.config else _DEFAULT_CONFIG
        return _SUBCOMMANDS[args.command][0](args, config)
    except (PromiseLabError, ValueError, KeyError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
