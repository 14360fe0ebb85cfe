"""Import hygiene of the package, checked on its syntax trees.

Every module imports at module level only, so the import graph is
visible at a glance and has no function-local cycle, and every name a
module imports is used in it.  The package ``__init__`` is exempt from
the second rule: its imports are the public re-exports.  Every public
module-level function has a caller in the package, outside its own
definition and outside ``__init__``: code only tests call lives under
``tests/``.
"""

import ast
from pathlib import Path

import pytest

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


# Public functions kept on purpose although nothing in the package calls
# them: name -> why.
CALLERLESS_API = {
    "encode_circuit": "inverse of parse_circuit, for writing circuit files",
    "classify_bqp": "reached by getattr(circuit, f'classify_{family}')",
    "classify_qcma": "reached by getattr(circuit, f'classify_{family}')",
    "classify_qma": "reached by getattr(circuit, f'classify_{family}')",
    "triple": "inverse of untriple, for naming witness-carrying deciders",
    "differences": "the difference sets of two deciders, for the paper's "
                   "second implication",
}


def _referenced_names(node: ast.AST) -> set[str]:
    """Names read, attributes taken and strings quoted under node; a
    quoted name counts because presentation tables name functions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_public_function_has_a_caller():
    defined, referenced = {}, []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined[node] = f"{path.stem}.{node.name}"
            referenced.append((node, _referenced_names(node)))
    uncalled = sorted(
        qualified for node, qualified in defined.items()
        if node.name not in CALLERLESS_API
        and not any(node.name in names
                    for owner, names in referenced if owner is not node))
    assert uncalled == [], f"public functions with no caller: {uncalled}"
