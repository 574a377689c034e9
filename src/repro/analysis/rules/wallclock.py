"""RPL002 ``wall-clock`` — host time never reaches the simulated world.

Everything that feeds ``RunResult.digest`` must be a pure function of
the seeds and the simulated :class:`~repro.tensorsim.clock.SimClock`;
the digest deliberately *excludes* wall-clock ``planning_time`` so that
goldens survive machine-speed changes (see docs/architecture.md,
"Invariants the pipeline preserves").  A stray ``time.time()`` or
``perf_counter()`` anywhere else leaks host timing into simulated
state and breaks replay/digest parity only on machines fast or slow
enough to notice — the worst kind of flake.

The sanctioned measurement sites (the estimator's fit/predict latency
and the planner's ``planning_time`` stopwatch, which are *genuine*
planner costs on the real system's critical path) are exempted through
the rule's ``allow`` path globs in ``[tool.replint.rules.wall-clock]``,
so a new wall-clock read anywhere else is an error until it is either
moved behind the clock or explicitly allowlisted in review.

The calls flagged are those :class:`~repro.analysis.dataflow.taint
.SourceDetector` labels ``wall-clock``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import FileContext, Finding, Rule, register_rule
from repro.analysis.dataflow.taint import DATETIME_FNS, detector_for


@register_rule
class WallClockRule(Rule):
    id = "wall-clock"
    summary = (
        "host wall-clock reads (time.time/perf_counter/datetime.now) are "
        "banned outside the allowlisted planner-overhead stopwatch sites"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        detector = detector_for(ctx)
        for node in ctx.nodes():
            if not isinstance(node, ast.Call):
                continue
            source = detector.source_for_call(node)
            if source is None or source.kind != "wall-clock":
                continue
            dotted = source.detail
            root, _, fn = dotted.rpartition(".")
            # ``datetime.now()`` & co. (no ``time`` function has these names)
            if root and fn in DATETIME_FNS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read `{dotted}(...)`: host time must not "
                    "reach digest-bearing state",
                )
            else:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read `{dotted}(...)`: host time must not "
                    "reach digest-bearing state; use the simulated clock, "
                    "or allowlist this file if it measures genuine planner "
                    "overhead",
                )
