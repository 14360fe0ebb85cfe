"""Import hygiene of the package, checked on its syntax trees.

Every module imports at module level only, so the import graph is
visible at a glance and has no function-local cycle, and every name a
module imports is used in it.  The package ``__init__`` is exempt from
the second rule: its imports are the public re-exports.

Every public member of the package has a caller in it, outside its own
definition and outside ``__init__``: code only tests reach lives under
``tests/``.  A member is a module-level function or constant, or a
method or property of a module-level class; record fields and dunders,
which attribute access, operators and the record machinery reach, are
not members here.  A caller names the member: reads it, takes it as an
attribute or quotes it.  The few members kept without a caller are
allowlisted with their reason, and an entry whose member is gone or has
gained a caller fails the suite, so no entry outlives its reason.

Records are namedtuples, which cost about a tenth as much as dataclasses
to create at import.  The few dataclasses left are allowlisted with
their reason, and an entry whose class is gone or is no longer a
dataclass fails the suite too.

The thresholds c and s are read in ``config`` and, outside it, only by
the one trichotomy rule in ``promise`` and by ``circuit.classify_qma``,
whose definiteness tests follow the rule's order, so the boundary
convention cannot fork again.  In ``circuit``, a circuit's ``trivial``
flag is read only by ``p_acc``, ``_gram`` and ``encode_circuit``, so no
decider gives the trivial circuit a verdict of its own.

``enumeration._PRESENTED`` keeps one verdict builder per machine model:
P shares NP's and BPP shares MA's, at witness length 0, so no witness-free
decider forks from its witness class again.  NP's builder hands its
verifier to ``tm.walk`` alone and reads no ``run`` attribute, so a word
costs one walk over the witness cells, never one run per witness.

A decider's ``lengths`` is read only by ``TotalDecider.verdicts``, the
one reader of all the verdicts of a length, and by ``memoized``, which
wraps them; so no word-range loop forks on whether a decider has them.

``tm._ends`` is the one deterministic stepping loop.  ``promise.cook_run``
loops only over what it yields and has no ``range`` or ``while`` loop of
its own.  Outside ``tm`` and ``ptm``, a machine's ``rows`` are read only
by ``OracleMachine.rows``, from its base machine, and ``cook_run`` reads
only the rows of the oracle machine it is given, so no module steps a
machine table past the one loop.  A PTM's lone stretch steps there too:
``ptm._run_alone`` calls ``tm._ends`` and has no loop of its own, and no
function in ``ptm`` but ``enumerate_branches``, whose frontier walk
steps many configurations at once, subscripts a row table in a loop.

A bit-string grammar is read in one scan.  In ``tm`` and ``circuit`` a
function calls at most one compiled pattern's ``match``, for a header,
and at most one's ``split``, for the body, outside any loop, and no
other pattern method, so no body is read by a second pattern scan or a
match per unit.
"""

import ast
from pathlib import Path

import pytest

from promiselab import enumeration

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "promiselab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, whole quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = (getattr(node, "annotation", None)
                      or getattr(node, "returns", None))
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    tree = _tree(path)
    top = set(map(id, tree.body))
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and id(node) not in top]
    assert nested == [], f"{path.name}: imports below module level at lines {nested}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert unused == {}, f"{path.name}: imported but unused {unused}"


# Public members kept on purpose although nothing in the package reaches
# them: qualified name -> why.
CALLERLESS_API = {
    "circuit.acceptance_operator": "the exact witness-block operator; "
                                   "classify_qma tests the integer Gram "
                                   "matrix behind it instead",
    "circuit.encode_circuit": "inverse of parse_circuit, for writing "
                              "circuit files",
    "circuit.classify_bqp": "reached by getattr(circuit, f'classify_{family}')",
    "circuit.classify_qcma": "reached by getattr(circuit, "
                             "f'classify_{family}')",
    "circuit.classify_qma": "reached by getattr(circuit, f'classify_{family}')",
    "ptm.classify_bpp": "the library's BPP decider; class_presentation "
                        "reaches BPP as classify_ma at witness length 0",
    "enumeration.triple": "inverse of untriple, for naming witness-carrying "
                          "deciders",
    "promise.differences": "the difference sets of two deciders, for the "
                           "paper's second implication",
    "tm.encode_godel": "inverse of decode_godel and ptm.decode_ptm, for "
                       "writing machine files",
}


def _referenced_names(node: ast.AST) -> set[str]:
    """Names read, attributes taken and strings quoted under node; a
    quoted name counts because presentation tables name functions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(getattr(sub, "ctx", None), ast.Store):
            continue
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _members(tree: ast.Module):
    """(defining node, qualified name, name) of each module-level function
    and constant, and of each method and property of a module-level class.
    Record fields, as dataclass annotations or namedtuple field names,
    are not members here."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item, f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield node, sub.id, sub.id


def _units(tree: ast.Module):
    """The module-level statements, a class split into its header and its
    body statements, so a method's own body is a unit of its own."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from node.decorator_list + node.bases + node.keywords
            yield from node.body
        else:
            yield node


def _has_caller() -> dict[str, bool]:
    """Each public member of the package, qualified by its module ->
    whether a unit other than its own definition names it.  The package
    ``__init__`` neither defines nor calls: its imports are re-exports."""
    members, units = [], []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        members += [(node, f"{path.stem}.{qualified}", name)
                    for node, qualified, name in _members(tree)
                    if not name.startswith("_")]
        units += [(unit, _referenced_names(unit)) for unit in _units(tree)]
    return {qualified: any(name in names
                           for unit, names in units if unit is not node)
            for node, qualified, name in members}


def test_every_public_function_has_a_caller():
    """Public functions, methods, properties and module-level constants
    alike: code only tests reach lives under ``tests/``."""
    uncalled = sorted(qualified for qualified, called in _has_caller().items()
                      if not called and qualified not in CALLERLESS_API)
    assert uncalled == [], f"public members with no caller: {uncalled}"


def test_allowlisted_names_are_defined_and_callerless():
    has_caller = _has_caller()
    stale = {qualified: "not defined" if qualified not in has_caller
             else "has a caller"
             for qualified in CALLERLESS_API if has_caller.get(qualified, True)}
    assert stale == {}, f"allowlist entries that outlived their reason: {stale}"


# Classes kept as dataclasses: qualified name -> why a namedtuple will not
# do.
DATACLASSES = {
    "promise.TotalDecider": "perfbench/spans.py rebuilds every presented "
                            "decider with dataclasses.replace",
    "config.Config": "replace re-runs its c >= s check, and load_config "
                     "and tests/test_config.py read its fields",
}


def test_only_allowlisted_classes_are_dataclasses():
    found = {f"{path.stem}.{node.name}" for path in MODULES
             for node in _tree(path).body if isinstance(node, ast.ClassDef)
             and any("dataclass" in _referenced_names(decorator)
                     for decorator in node.decorator_list)}
    unlisted = sorted(found - DATACLASSES.keys())
    stale = sorted(DATACLASSES.keys() - found)
    assert unlisted == [], f"dataclasses not allowlisted: {unlisted}"
    assert stale == [], f"allowlisted but not a dataclass: {stale}"


# Where the thresholds may be read: the one trichotomy rule, and the QMA
# decider, whose definiteness tests apply the same order to matrices.
THRESHOLD_READERS = {"config", "promise._threshold_verdict",
                     "circuit.classify_qma"}


def _readers(*attributes: str) -> set[str]:
    """The module-level function or class, else the module, around each
    read of one of the attributes in the package."""
    readers = set()
    for path in MODULES:
        for node in _tree(path).body:
            name = (f"{path.stem}.{node.name}" if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else path.stem)
            if any(isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load)
                   and sub.attr in attributes
                   for sub in ast.walk(node)):
                readers.add(name)
    return readers


def test_thresholds_are_read_through_one_rule():
    readers = _readers("threshold_s", "threshold_c")
    forks = sorted(name for name in readers if name not in THRESHOLD_READERS
                   and name.split(".")[0] not in THRESHOLD_READERS)
    assert forks == [], f"thresholds read outside the one rule: {forks}"
    assert "promise._threshold_verdict" in readers


# Where circuit may read a circuit's trivial flag: the readout, which
# answers 0 on any basis input, the Gram matrix, whose zero block the QMA
# tests read as acceptance 0, and the encoder.  The deciders reach the
# trivial circuit only through these.
TRIVIAL_READERS = {"circuit.p_acc", "circuit._gram", "circuit.encode_circuit"}


def test_no_circuit_decider_special_cases_the_trivial_circuit():
    readers = {name for name in _readers("trivial")
               if name.split(".")[0] == "circuit"}
    assert readers == TRIVIAL_READERS


def test_one_verdict_builder_per_machine_model():
    builders = {fam: row[3] for fam, row in enumeration._PRESENTED.items()}
    assert builders["p"] is builders["np"]
    assert builders["promisebpp"] is builders["promisema"]
    models = {getattr(build, "func", build) for build in builders.values()}
    assert len(models) == 3, models


def test_np_verifier_runs_only_in_one_walk():
    tree = _tree(PACKAGE / "enumeration.py")
    builder = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_np_verdict")
    callers = {ast.unparse(sub.func) for sub in ast.walk(builder)
               if isinstance(sub, ast.Call)
               and any(isinstance(arg, ast.Name) and arg.id == "verifier"
                       for arg in [*sub.args, *(k.value for k in sub.keywords)])}
    assert callers == {"tm.walk"}, callers
    assert "run" not in {sub.attr for sub in ast.walk(builder)
                         if isinstance(sub, ast.Attribute)}


def _methods_and_functions(path: Path):
    """(name, node) of each module-level function and of each method of a
    module-level class; a node holds its nested functions and lambdas."""
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{path.stem}.{node.name}.{sub.name}", sub)
                        for sub in node.body if isinstance(sub, ast.FunctionDef))


# The one reader of a decider's lengths, and the memo that wraps them.
LENGTHS_READERS = {"promise.TotalDecider.verdicts",
                   "promise.TotalDecider.memoized"}


def test_lengths_are_read_through_one_helper():
    readers = {name for path in MODULES
               for name, node in _methods_and_functions(path)
               if any(isinstance(sub, ast.Attribute) and sub.attr == "lengths"
                      and isinstance(sub.ctx, ast.Load)
                      for sub in ast.walk(node))}
    assert readers == LENGTHS_READERS, sorted(readers - LENGTHS_READERS)


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(node for node in _tree(PACKAGE / f"{module}.py").body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_oracle_machine_steps_only_in_the_one_loop():
    cook_run = _function("promise", "cook_run")
    callers = {ast.unparse(sub.func) for sub in ast.walk(cook_run)
               if isinstance(sub, ast.Call)
               and any(isinstance(arg, ast.Name) and arg.id == "rows"
                       for arg in [*sub.args, *(k.value for k in sub.keywords)])}
    assert callers == {"tm._ends"}, callers
    loops = [ast.unparse(node.iter if isinstance(node, ast.For) else node)
             for node in ast.walk(cook_run)
             if isinstance(node, (ast.For, ast.While))]
    assert [loop.partition("(")[0] for loop in loops] == ["tm._ends"], loops
    assert "range" not in _referenced_names(cook_run)


def test_ptm_stretches_step_only_in_the_one_loop():
    run_alone = _function("ptm", "_run_alone")
    loops = [ast.unparse(node).partition("\n")[0] for node in ast.walk(run_alone)
             if isinstance(node, (ast.For, ast.While))]
    assert loops == [], f"ptm._run_alone steps in a loop of its own: {loops}"
    assert "tm._ends" in {ast.unparse(sub.func) for sub in ast.walk(run_alone)
                          if isinstance(sub, ast.Call)}
    looping = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
               ast.GeneratorExp)
    steppers = {name for name, node in _methods_and_functions(PACKAGE / "ptm.py")
                for loop in ast.walk(node) if isinstance(loop, looping)
                for sub in ast.walk(loop) if isinstance(sub, ast.Subscript)
                and ast.unparse(sub.value).endswith(("row", "rows"))}
    assert steppers == {"ptm.enumerate_branches"}, sorted(steppers)


def _rows_reads(path: Path):
    """(reader, what it reads rows from) for each `.rows` read in the
    module; the reader is the function, the method, else the module."""
    for node in _tree(path).body:
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for unit in node.body if prefix else [node]:
            reader = f"{path.stem}.{prefix}{getattr(unit, 'name', '')}"
            for sub in ast.walk(unit):
                if (isinstance(sub, ast.Attribute) and sub.attr == "rows"
                        and isinstance(sub.ctx, ast.Load)):
                    yield reader.rstrip("."), ast.unparse(sub.value)


def test_machine_rows_are_read_only_by_the_oracle_machine():
    reads: dict[str, set[str]] = {}
    for path in MODULES:
        if path.stem not in ("tm", "ptm"):
            for reader, source in _rows_reads(path):
                reads.setdefault(reader, set()).add(source)
    # cook_run's one argument named o is the OracleMachine it runs
    assert reads == {"promise.OracleMachine.rows": {"self.base"},
                     "promise.cook_run": {"o"}}, reads
    assert _function("promise", "cook_run").args.args[0].arg == "o"


def _pattern_calls(path: Path) -> dict[str, list[tuple[str, bool]]]:
    """For each module-level function, its calls of a method of a
    module-level compiled pattern: ("<pattern>.<method>", in a loop)."""
    tree = _tree(path)
    patterns = {target.id for node in tree.body if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "re.compile"
                for target in node.targets if isinstance(target, ast.Name)}

    def calls(node: ast.AST, looped: bool):
        for sub in ast.iter_child_nodes(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id in patterns):
                yield ast.unparse(sub.func), looped
            yield from calls(sub, looped or isinstance(
                sub, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                      ast.DictComp, ast.GeneratorExp)))

    return {node.name: list(calls(node, False)) for node in tree.body
            if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("module", ["tm", "circuit"])
def test_each_grammar_is_read_in_one_scan(module):
    scans = {}
    for name, calls in _pattern_calls(PACKAGE / f"{module}.py").items():
        methods = [call.rpartition(".")[2] for call, _ in calls]
        if (any(looped for _, looped in calls) or methods.count("match") > 1
                or methods.count("split") > 1
                or set(methods) - {"match", "split"}):
            scans[name] = [call for call, _ in calls]
    assert scans == {}, f"{module}: bodies read by more than one scan: {scans}"
