"""``left-fold`` — simulated times are summed left to right.

From Python 3.12 the builtin ``sum()`` of floats compensates, so it
rounds differently from the left fold of 3.11 that the digest goldens
were made with; float time sums in ``src`` fold with
:func:`repro.tensorsim.clock.left_sum`.  Flagged: a builtin ``sum``
whose summand (a comprehension's element, else the whole argument)
reads an identifier with a duration suffix from the ``unit-flow``
table (``*_time``, ``*_seconds``, ``*_ms``, …).  A comprehension's loop
and filters are not summed: ``sum(1 for s in stats if s.fwd_time > 0)``
passes, and so do byte and count sums.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.core import FileContext, Finding, Rule, register_rule
from repro.analysis.dataflow.lattice import Unit
from repro.analysis.rules.units import suffix_unit

_DURATIONS = (Unit.SECONDS, Unit.MS)
_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp)


def _duration_in(summand: ast.AST) -> Optional[str]:
    """The first duration-suffixed name or attribute the summand reads."""
    for node in ast.walk(summand):
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        else:
            continue
        if suffix_unit(ident) in _DURATIONS:
            return ident
    return None


@register_rule
class LeftFoldRule(Rule):
    id = "left-fold"
    summary = (
        "builtin sum() over durations (*_time, *_seconds, *_ms) rounds "
        "differently from Python 3.12 on; fold times with left_sum"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes():
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
            ):
                continue
            arg = node.args[0]
            summand = arg.elt if isinstance(arg, _COMPREHENSIONS) else arg
            ident = _duration_in(summand)
            if ident is not None:
                yield self.finding(
                    ctx, node,
                    f"builtin `sum()` over the duration `{ident}` rounds "
                    "differently from Python 3.12 on; fold with "
                    "`repro.tensorsim.clock.left_sum`",
                )
