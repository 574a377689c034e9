"""Every function and class defined in ``src`` is referenced somewhere.

One AST pass over ``src`` collects the names of function and class
definitions, dunders aside.  A second AST pass over the Python files of
src, tests, benchmarks, examples and perfbench counts code references:
names, attribute names, imported names, and the words of string
constants other than docstrings (the perfbench tracer's targets and
``monkeypatch.setattr`` reach methods by a string).  A definition is
unreferenced when nothing but a comment, a docstring or its own ``def``
names it.  The CFG builder reaches its ``_visit_<node type>`` methods
through a name it builds at run time, so that prefix alone is allowed.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples", "perfbench")
#: name prefixes reached only by dispatch on a constructed name
DISPATCHED = ("_visit_",)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (*_DEFS, ast.Module)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ) and isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def _references(tree: ast.AST) -> Counter[str]:
    refs: Counter[str] = Counter()
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def test_every_src_definition_is_referenced():
    refs: Counter[str] = Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            refs.update(_references(ast.parse(path.read_text())))
    unreferenced = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, _DEFS):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name.startswith(DISPATCHED) or refs[name]:
                continue
            unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unreferenced, "referenced nowhere:\n" + "\n".join(unreferenced)
