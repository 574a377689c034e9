"""``invalidation-reachability`` — every refit path reaches the
plan-cache flush.

The lifecycle protocol (:mod:`repro.core.lifecycle`) is: whenever an
estimator is (re)fitted, the plan cache must be flushed *on the same
path*, because every cached plan carries predictions of the old fit.
It is the only fit-priced cache: replay records and compiled templates
are keyed by the plan's actions, the batch shape and the allocator
state and read no fit, so flushing them does not count.  The syntactic
``lifecycle-protocol`` rule pins *where* fits may happen; this rule
checks the protocol itself: from any function that performs an
estimator fit, some call path must reach a
``.clear()``/``.flush()``/``.invalidate()``/``.evict_all()``/``.reset()``
on a plan-cache receiver (a name containing ``cache``).  A refit helper
that forgets the flush (the exact mutation the test suite injects into
a copy of ``lifecycle.py``) is flagged at the fit call.

Reachability runs over the project-wide call graph from the collect
pass, so the fit and the flush may live in different functions or
files; unresolvable (dynamic) calls contribute no edges, and the rule
only ever *misses* flushes it cannot see — the failure mode is a
false positive asking for an explicit flush, never a silent pass on a
missing one.

Offline analysis code that fits throwaway estimators and never serves
plans (the Table IV/V generators) is exempted via ``allow`` globs, the
same entries the syntactic rule uses.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.core import FileContext, Finding, Rule, dotted_name, register_rule
from repro.analysis.dataflow.callgraph import CallGraph

#: estimator methods that (re)build the fitted state — shared vocabulary
#: with the syntactic lifecycle-protocol rule
_FIT_METHODS = {"fit", "fit_base"}
#: method names that flush cached, fit-priced state
_FLUSH_METHODS = {"clear", "flush", "invalidate", "evict_all", "reset"}
#: receiver-name fragment identifying the fit-priced plan cache
_CACHE_RECEIVER = "cache"


def _is_fit_call(node: ast.Call) -> bool:
    dotted = dotted_name(node.func)
    if dotted is None:
        return False
    root, _, fn = dotted.rpartition(".")
    if not root:
        return False
    receiver = root.split(".")[-1].lower()
    return fn in _FIT_METHODS and receiver.endswith("estimator")


def _is_flush_call(node: ast.Call) -> bool:
    dotted = dotted_name(node.func)
    if dotted is None:
        return False
    root, _, fn = dotted.rpartition(".")
    return (
        bool(root)
        and fn in _FLUSH_METHODS
        and _CACHE_RECEIVER in root.split(".")[-1].lower()
    )


@register_rule
class InvalidationReachabilityRule(Rule):
    id = "invalidation-reachability"
    summary = (
        "every call path performing an estimator refit must reach a "
        "plan-cache flush (the lifecycle protocol)"
    )

    def __init__(self) -> None:
        super().__init__()
        self.graph = CallGraph()
        self._flush_cache: Optional[set[str]] = None

    # ------------------------------------------------------------- pass 1

    def collect(self, ctx: FileContext) -> None:
        self.graph.add_file(ctx)
        self._flush_cache = None

    # ------------------------------------------------------------- pass 2

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        flush_functions = self._flush_functions()
        for info in self.graph.functions.values():
            if info.relpath != ctx.relpath:
                continue
            fits = [sub for sub in info.calls if _is_fit_call(sub)]
            if not fits:
                continue
            reachable = self.graph.reachable_from([info.qualname])
            if reachable & flush_functions:
                continue
            for call in fits:
                yield self.finding(
                    ctx, call,
                    f"estimator refit in `{info.qualname.split(':')[-1]}` "
                    "reaches no plan-cache flush on any call path; the "
                    "lifecycle protocol requires every fit to drop the "
                    "plans priced off the previous fit "
                    "(see core/lifecycle.py)",
                )

    def _flush_functions(self) -> set[str]:
        """Qualnames of functions that *directly* contain a flush call."""
        if self._flush_cache is not None:
            return self._flush_cache
        out: set[str] = set()
        for info in self.graph.functions.values():
            for sub in info.calls:
                if _is_flush_call(sub):
                    out.add(info.qualname)
                    break
        self._flush_cache = out
        return out
