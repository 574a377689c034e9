"""``determinism-taint`` — nondeterminism must not *flow* into digests.

The syntactic ``wall-clock`` and ``rng-discipline`` rules ban the calls
themselves, with allowlists for the sanctioned measurement sites.  This
rule closes the remaining hole: an *allowlisted* source is still a
source, and its value must never reach digest-bearing state.  A
``perf_counter()`` read in the planner is legal; that same value
assigned through two temporaries into an ``IterationStats`` field, an
event payload or a replay record is exactly the silent flake the
digest-parity suite exists to prevent — and no per-call allowlist can
see it.

Mechanics (see docs/static-analysis.md, "Dataflow engine"):

* **sources** — wall-clock reads, stdlib ``random``, numpy legacy-RNG
  draws and unseeded ``default_rng()`` (the
  :class:`~repro.analysis.dataflow.taint.SourceDetector` labels, which
  the syntactic ``wall-clock`` and ``rng-discipline`` rules read too);
* **propagation** — the intraprocedural taint lattice, plus
  interprocedural *return summaries* over the project call graph: a
  helper that returns ``perf_counter() - start`` taints its callers'
  results too, across files;
* **sinks** — construction of the ``sink-types`` classes (default:
  ``IterationStats``, ``RunResult``, ``UnitMeasurement``,
  ``ReplayRecord``, ``CompiledTemplate``) and any ``*.emit(...)``
  payload;
* **the sanctioned hole** — keyword arguments named in ``clean-fields``
  (default: ``planning_time``, the one wall-clock field that
  ``RunResult.digest`` deliberately excludes) neither count as sinks
  nor propagate taint out of the constructed object.
"""

from __future__ import annotations

import ast
from types import SimpleNamespace
from typing import Iterable, Mapping, Optional

from repro.analysis.core import FileContext, Finding, Rule, dotted_name, register_rule
from repro.analysis.dataflow.callgraph import (
    CallGraph,
    FunctionInfo,
    module_name,
)
from repro.analysis.dataflow.cfg import cfg_for_scope, own_exprs, scopes_for, shallow_walk
from repro.analysis.dataflow.lattice import solve_forward, walk_with_env
from repro.analysis.dataflow.taint import (
    EMPTY,
    Taint,
    TaintEngine,
    detector_for,
)

#: default digest-bearing constructors — building one of these with a
#: tainted argument is the error this rule exists for
_SINK_TYPES = (
    "IterationStats",
    "RunResult",
    "UnitMeasurement",
    "ReplayRecord",
    "CompiledTemplate",
)


@register_rule
class DeterminismTaintRule(Rule):
    id = "determinism-taint"
    summary = (
        "wall-clock/unseeded-RNG values must not flow into digest-bearing "
        "state (IterationStats/RunResult/replay records/event payloads)"
    )

    def __init__(self) -> None:
        super().__init__()
        self.sink_types: frozenset[str] = frozenset(_SINK_TYPES)
        self.clean_fields: frozenset[str] = frozenset({"planning_time"})
        self.graph = CallGraph()
        self._contexts: dict[str, FileContext] = {}
        self._summaries: Optional[dict[str, Taint]] = None

    def configure(self, options: Mapping[str, object]) -> None:
        super().configure(options)
        sinks = options.get("sink-types")
        if sinks is not None:
            self.sink_types = frozenset(str(s) for s in sinks)
        clean = options.get("clean-fields")
        if clean is not None:
            self.clean_fields = frozenset(str(c) for c in clean)

    # ------------------------------------------------------------- pass 1

    def collect(self, ctx: FileContext) -> None:
        self.graph.add_file(ctx)
        self._contexts[ctx.relpath] = ctx
        self._summaries = None

    # ---------------------------------------------- interprocedural summaries

    def summaries(self) -> dict[str, Taint]:
        """Return-value taint per function qualname, to fixpoint.

        Seeded only from functions whose own body contains a source
        call, then propagated to callers through reverse call-graph
        edges — functions that can never return taint are never
        analyzed, which is what keeps the self-check bench flat.
        """
        if self._summaries is not None:
            return self._summaries
        self.graph.resolve()
        summaries: dict[str, Taint] = {}
        worklist: list[str] = []
        for info in self.graph.functions.values():
            ctx = self._contexts.get(info.relpath)
            if ctx is None:
                continue
            detector = detector_for(ctx)
            for sub in info.calls:
                if detector.source_for_call(sub):
                    worklist.append(info.qualname)
                    break
        while worklist:
            qualname = worklist.pop()
            info = self.graph.functions[qualname]
            ctx = self._contexts.get(info.relpath)
            if ctx is None:
                continue
            taint = self._return_taint(ctx, info, summaries)
            if taint != summaries.get(qualname, EMPTY):
                summaries[qualname] = taint
                worklist.extend(self.graph.callers_of(qualname))
        self._summaries = summaries
        return summaries

    def _return_taint(
        self, ctx: FileContext, info: FunctionInfo, summaries: dict[str, Taint]
    ) -> Taint:
        engine = self._engine(ctx, info, summaries)
        cfg = cfg_for_scope(ctx, info.node)
        solve_forward(cfg, engine)
        return frozenset(engine.return_taint)

    def _engine(self, ctx: FileContext, caller, summaries) -> TaintEngine:
        def call_summary(call: ast.Call) -> Taint:
            out = EMPTY
            for callee in self.graph.resolve_call(caller, call):
                out |= summaries.get(callee, EMPTY)
            return out

        return TaintEngine(
            detector_for(ctx),
            clean_fields=self.clean_fields,
            call_summary=call_summary,
        )

    # ------------------------------------------------------------- pass 2

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not self._file_has_sinks(ctx):
            return
        summaries = self.summaries()
        module = module_name(ctx.relpath)
        for scope in scopes_for(ctx):
            yield from self._check_scope(ctx, scope, module, summaries)

    def _file_has_sinks(self, ctx: FileContext) -> bool:
        for node in ctx.nodes():
            if isinstance(node, ast.Call) and self._sink_name(node):
                return True
        return False

    def _sink_name(self, call: ast.Call) -> Optional[str]:
        """"IterationStats"/"emit"/... when this call is a sink, else None."""
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "emit"
            and call.args
        ):
            return "emit"
        dotted = dotted_name(call.func)
        if dotted is not None and dotted.split(".")[-1] in self.sink_types:
            return dotted.split(".")[-1]
        return None

    def _check_scope(
        self, ctx: FileContext, scope, module: str, summaries
    ) -> Iterable[Finding]:
        sink_calls = [
            n
            for stmt in scope.body
            for n in shallow_walk(stmt)
            if isinstance(n, ast.Call) and self._sink_name(n)
        ]
        if not sink_calls:
            return
        caller = self.graph.function_for_node(scope)
        if caller is None:
            caller = SimpleNamespace(module=module, cls=None)
        engine = self._engine(ctx, caller, summaries)
        cfg = cfg_for_scope(ctx, scope)
        envs = solve_forward(cfg, engine)
        sink_ids = {id(c) for c in sink_calls}
        for stmt, env in walk_with_env(cfg, engine, envs):
            for expr in own_exprs(stmt):
                for node in shallow_walk(expr):
                    if isinstance(node, ast.Call) and id(node) in sink_ids:
                        yield from self._check_sink(ctx, node, env, engine)

    def _check_sink(
        self, ctx: FileContext, call: ast.Call, env, engine: TaintEngine
    ) -> Iterable[Finding]:
        sink = self._sink_name(call)
        if sink == "emit":
            args = list(call.args)
            target = "event payload"
        else:
            args = list(call.args) + [
                kw.value
                for kw in call.keywords
                if kw.arg is None or kw.arg not in self.clean_fields
            ]
            target = f"{sink}(...)"
        taint: Taint = EMPTY
        for arg in args:
            taint |= engine.eval(arg, env)
        if not taint:
            return
        sources = sorted(
            {s.describe() for s in taint}, key=str
        )
        listed = "; ".join(sources[:3])
        if len(sources) > 3:
            listed += f"; … {len(sources) - 3} more"
        yield self.finding(
            ctx, call,
            f"nondeterministic value flows into {target}: tainted by "
            f"{listed}.  Digest-bearing state must be a pure function of "
            "seeds and the simulated clock (allowlisted sources may "
            "exist, but their values must not escape into digests)",
        )
