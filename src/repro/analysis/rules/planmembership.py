"""RPL006 ``plan-membership`` — plan interpretation goes through actions.

The action-layer refactor made :meth:`~repro.planners.base
.ActionAssignment.action_for` the single interpretation point for a
checkpoint plan: one lookup answers "what happens to this unit" for
every action at once.  Code that instead probes the derived legacy sets
(``unit in assignment.checkpoint_units``,
``unit in assignment.swap_units``)
re-derives a frozenset per probe and — worse — resurrects the
three-independent-sets reading of a plan, where a new
:class:`~repro.planners.base.MemoryAction` silently falls through every
membership test that was written before it existed.

Flagged: ``in``/``not in`` tests whose right-hand side reads a
``checkpoint_units``/``swap_units``/``segment_units`` attribute.

Not flagged: reading the sets wholesale (iteration, ``len``, set
algebra) — the sets remain the right vocabulary for *constructing*
assignments and for reporting; only per-unit membership probing is the
anti-pattern.  Planners build plans and strategies execute them, so
``planners/`` and ``engine/strategies.py`` are allowlisted in
``[tool.replint.rules.plan-membership]``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import FileContext, Finding, Rule, register_rule

_UNIT_SET_ATTRS = ("checkpoint_units", "swap_units", "segment_units")


def _reads_unit_set(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _UNIT_SET_ATTRS:
            return True
    return False


@register_rule
class PlanMembershipRule(Rule):
    id = "plan-membership"
    summary = (
        "per-unit membership tests against assignment.checkpoint_units/swap_units "
        "are banned outside planners and strategies; ask "
        "assignment.action_for(unit) instead"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes():
            if not isinstance(node, ast.Compare):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)) and _reads_unit_set(
                    comparator
                ):
                    yield self.finding(
                        ctx, node,
                        "membership test against a derived plan unit set; "
                        "interpret the plan through "
                        "assignment.action_for(unit) so every MemoryAction "
                        "is handled in one place",
                    )
                    break
