"""Nothing in ``src/spandet`` is reached only by tests: every module-level
function or class is either exported in ``spandet.__all__`` or named (as an
``ast.Name`` or ``ast.Attribute``) by the library, the benchmark or the demos
somewhere outside its own definition."""

import ast
from pathlib import Path

import spandet

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spandet"
CALLERS = [SRC, ROOT / "perfbench", ROOT / "demos"]


def definitions(tree):
    """The module-level functions and classes of a module."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def references(path):
    """``(name, owner)`` for every ``ast.Name`` and ``ast.Attribute`` in the
    file at `path`: owner is the module-level definition it sits in, or None."""
    tree = ast.parse(path.read_text(), filename=str(path))
    refs = []
    for top in tree.body:
        owner = top.name if top in definitions(tree) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, owner))
    return refs


def test_every_library_definition_has_a_caller_outside_the_tests():
    refs = {path: references(path) for base in CALLERS for path in sorted(base.rglob("*.py"))
            if "tests" not in path.relative_to(base).parts}
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for node in definitions(ast.parse(path.read_text(), filename=str(path))):
            if node.name in spandet.__all__:
                continue
            if not any(name == node.name and not (where == path and owner == node.name)
                       for where, found in refs.items() for name, owner in found):
                unreached.append(f"{path.stem}.{node.name}")
    assert not unreached, f"reached only by tests (or by nothing): {unreached}"
