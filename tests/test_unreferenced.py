"""Every function and class defined in ``src`` is referenced somewhere.

One AST pass over ``src`` collects the names of function and class
definitions, dunders aside.  One word count over the Python files of
src, tests, benchmarks, examples and perfbench then finds those whose
name appears nowhere but in its own definition.  The CFG builder
reaches its ``_visit_<node type>`` methods through a name it builds at
run time, so that prefix alone is allowed.
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


def test_every_src_definition_is_referenced():
    words: Counter[str] = Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    unreferenced = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name.startswith(DISPATCHED) or words[name] > 1:
                continue
            unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unreferenced, "referenced nowhere:\n" + "\n".join(unreferenced)
