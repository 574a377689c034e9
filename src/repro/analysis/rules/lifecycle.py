"""``lifecycle-protocol`` — only the lifecycle controller fits or resets.

The collect→fit→plan lifecycle has exactly one owner:
:class:`repro.core.lifecycle.LifecycleController`.  Every estimator
(re)fit must clear the plan cache, whose plans carry the old fit's
predictions, and every collector reset must go through the
controller's state machine so readiness, drift calibration and
re-collection accounting stay coherent.  A direct
``estimator.fit(...)`` or ``collector.clear(...)`` sprinkled elsewhere
recreates the implicit lifecycle this refactor removed — a fit nobody
tracked, serving cached plans priced off a fit that no longer exists.

The rule matches on the *receiver name*: ``.fit``/``.fit_base`` calls on
a receiver ending in ``estimator`` and ``.clear``/``.evict_oldest``
calls on a receiver containing ``collector``.  Regressor internals
(``tree.fit``) and unrelated ``dict.clear`` calls are untouched.
Sanctioned call sites (the controller itself; the offline Table IV/V
estimator-comparison generators, which never execute plans) are
exempted via ``allow`` globs in ``[tool.replint.rules
.lifecycle-protocol]``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import FileContext, Finding, Rule, dotted_name, register_rule

#: estimator methods that (re)build the fitted state
_FIT_METHODS = {"fit", "fit_base"}
#: collector methods that discard accumulated samples
_RESET_METHODS = {"clear", "evict_oldest"}


@register_rule
class LifecycleProtocolRule(Rule):
    id = "lifecycle-protocol"
    summary = (
        "estimator.fit()/collector.clear() outside the lifecycle "
        "controller bypasses the refit's plan-cache flush"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes():
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            root, _, fn = dotted.rpartition(".")
            if not root:
                continue
            receiver = root.split(".")[-1].lower()
            if fn in _FIT_METHODS and receiver.endswith("estimator"):
                yield self.finding(
                    ctx, node,
                    f"direct `{dotted}(...)`: estimator fits belong to "
                    "LifecycleController._refit, which flushes the plan "
                    "cache; route this through the lifecycle (or "
                    "allowlist an offline-only analysis site)",
                )
            elif fn in _RESET_METHODS and "collector" in receiver:
                yield self.finding(
                    ctx, node,
                    f"direct `{dotted}(...)`: collector resets belong to "
                    "the lifecycle state machine, which re-earns readiness "
                    "and recalibrates the drift monitors; route this "
                    "through the lifecycle (or allowlist an offline-only "
                    "analysis site)",
                )
