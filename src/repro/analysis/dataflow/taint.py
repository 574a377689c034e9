"""Taint propagation: which expressions carry nondeterministic values.

A *taint source* is an expression whose value depends on something
outside the seeded, simulated world — a host wall-clock read or an
unseeded RNG draw.  :class:`SourceDetector` recognises those calls per
file, and the syntactic ``wall-clock`` and ``rng-discipline`` rules flag
the calls it labels, so the two tiers can never disagree about what
counts as a clock.  :class:`TaintEngine` is the
:class:`~repro.analysis.dataflow.lattice.ForwardAnalysis` instance that
pushes source labels through assignments, augmented assigns, tuple
unpacking, attribute stores, container mutation and calls; the abstract
value for a variable is a ``frozenset`` of :class:`TaintSource` labels,
joined by union, so a finding can always name the line the taint was
*born* on, not just where it escaped.

Two deliberate holes, both documented in docs/static-analysis.md:

* kwargs named in ``clean_fields`` neither taint the constructed object
  nor count as sinks — ``planning_time=`` is the sanctioned wall-clock
  field that ``RunResult.digest`` already excludes;
* taint entering a callee through an *argument* is not tracked into the
  callee's body (summaries cover return values only); the sink-side
  constructor checks catch the flows that matter for digest parity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional

from repro.analysis.core import FileContext, dotted_name
from repro.analysis.dataflow.lattice import Env, ForwardAnalysis

Taint = FrozenSet["TaintSource"]
EMPTY: Taint = frozenset()

#: functions of the stdlib ``time`` module that read host time
TIME_FNS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock_gettime",
    "localtime",
    "gmtime",
}
#: ``datetime`` constructors that read host time
DATETIME_FNS = {"now", "utcnow", "today"}
#: attributes of ``numpy.random`` that construct or name generator types
#: rather than drawing from the legacy global state
RNG_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
}

#: container methods that fold an argument's value into the receiver
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "extend",
    "insert",
    "update",
    "setdefault",
    "push",
    "put",
}


@dataclass(frozen=True, slots=True)
class TaintSource:
    """One origin of nondeterminism, carried along every flow from it."""

    #: "wall-clock" | "unseeded-rng" | "legacy-rng" | "stdlib-random"
    kind: str
    #: file the source call lives in (posix relpath)
    path: str
    line: int
    #: the call as written, e.g. ``time.perf_counter``
    detail: str

    def describe(self) -> str:
        return f"{self.kind} `{self.detail}(...)` at {self.path}:{self.line}"


class SourceDetector:
    """Per-file recognition of taint-source calls: the one recognizer
    behind the ``wall-clock`` and ``rng-discipline`` rules and the
    determinism taint.

    Import aliases are resolved once per context (``import time as t``,
    ``from time import perf_counter as pc`` and numpy spellings all
    count).
    """

    def __init__(self, ctx: FileContext) -> None:
        self.relpath = ctx.relpath
        self.time_aliases = {"time"}
        self.time_from: set[str] = set()
        numpy_aliases = {"numpy"}
        self.random_aliases: set[str] = set()
        self.random_from: set[str] = set()
        for node in ctx.nodes():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        self.time_aliases.add(alias.asname or "time")
                    elif alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "random":
                        self.random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in TIME_FNS:
                            self.time_from.add(alias.asname or alias.name)
                elif node.module == "random":
                    for alias in node.names:
                        self.random_from.add(alias.asname or alias.name)
        #: ``numpy.random`` under every name the file imports numpy as
        self.legacy_roots = {f"{a}.random" for a in numpy_aliases}

    def source_for_call(self, node: ast.Call) -> Optional[TaintSource]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        root, _, fn = dotted.rpartition(".")
        kind: Optional[str] = None
        if (root in self.time_aliases and fn in TIME_FNS) or (
            not root and fn in self.time_from
        ):
            kind = "wall-clock"
        elif fn in DATETIME_FNS and root.split(".")[-1] in ("datetime", "date"):
            kind = "wall-clock"
        elif root in self.random_aliases or (not root and fn in self.random_from):
            kind = "stdlib-random"
        elif root in self.legacy_roots and fn not in RNG_CONSTRUCTORS:
            kind = "legacy-rng"
        elif fn == "default_rng" and not node.args and not node.keywords:
            kind = "unseeded-rng"
        if kind is None:
            return None
        return TaintSource(
            kind=kind, path=self.relpath, line=node.lineno, detail=dotted
        )


def detector_for(ctx: FileContext) -> SourceDetector:
    """Memoized :class:`SourceDetector` on the context's cache."""
    det = ctx.cache.get("dataflow.sources")
    if det is None:
        det = SourceDetector(ctx)
        ctx.cache["dataflow.sources"] = det
    return det


class TaintEngine(ForwardAnalysis):
    """Forward taint propagation over one scope's CFG.

    ``call_summary`` is the interprocedural hook: given a Call node it
    returns the taint of the callee's *return value* (the determinism
    rule wires this to call-graph summaries; fixture tests can leave it
    empty).  ``return_taint`` accumulates the taint of every ``return``
    expression seen while solving — that is the scope's own summary.
    """

    def __init__(
        self,
        detector: SourceDetector,
        clean_fields: frozenset[str] = frozenset({"planning_time"}),
        call_summary: Optional[Callable[[ast.Call], Taint]] = None,
    ) -> None:
        self.detector = detector
        self.clean_fields = clean_fields
        self.call_summary = call_summary or (lambda call: EMPTY)
        self.return_taint: set[TaintSource] = set()

    # -------------------------------------------------------------- lattice

    def join_values(self, a: Taint, b: Taint) -> Taint:
        return a | b

    # ----------------------------------------------------------- expressions

    def eval(self, node: Optional[ast.expr], env: Env) -> Taint:
        """The taint of one expression under ``env``."""
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return EMPTY
        if isinstance(node, ast.Name):
            return env.get(node.id, EMPTY)
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None and dotted in env:
                return env[dotted]
            # an attribute of a tainted object is tainted
            return self.eval(node.value, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = taint
            return taint
        if isinstance(node, ast.IfExp):
            return self.eval(node.body, env) | self.eval(node.orelse, env)
        if isinstance(node, ast.BoolOp):
            out = EMPTY
            for value in node.values:
                out |= self.eval(value, env)
            return out
        if isinstance(node, ast.BinOp):
            return self.eval(node.left, env) | self.eval(node.right, env)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, env)
        if isinstance(node, ast.Compare):
            out = self.eval(node.left, env)
            for comp in node.comparators:
                out |= self.eval(comp, env)
            return out
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = EMPTY
            for elt in node.elts:
                out |= self.eval(elt, env)
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for key in node.keys:
                if key is not None:
                    out |= self.eval(key, env)
            for value in node.values:
                out |= self.eval(value, env)
            return out
        if isinstance(node, ast.Subscript):
            return self.eval(node.value, env)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, ast.Await):
            return self.eval(node.value, env)
        if isinstance(node, ast.JoinedStr):
            out = EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self.eval(value.value, env)
            return out
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            out = EMPTY
            for gen in node.generators:
                out |= self.eval(gen.iter, env)
            if isinstance(node, ast.DictComp):
                out |= self.eval(node.key, env) | self.eval(node.value, env)
            else:
                out |= self.eval(node.elt, env)
            return out
        if isinstance(node, ast.Slice):
            return EMPTY
        # conservative default: union over child expressions
        out = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.eval(child, env)
        return out

    def _eval_call(self, node: ast.Call, env: Env) -> Taint:
        taint = EMPTY
        label = self.detector.source_for_call(node)
        if label is not None:
            taint |= frozenset({label})
        taint |= self.call_summary(node)
        # a method's result inherits its receiver's taint (Attribute
        # eval falls through to the receiver); a plain Name callee is
        # deliberately NOT evaluated — a function is not its result
        if isinstance(node.func, ast.Attribute):
            taint |= self.eval(node.func.value, env)
        for arg in node.args:
            taint |= self.eval(arg, env)
        for kw in node.keywords:
            if kw.arg is not None and kw.arg in self.clean_fields:
                continue  # sanctioned wall-clock field: taint stops here
            taint |= self.eval(kw.value, env)
        return taint

    # ------------------------------------------------------------ statements

    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, stmt.value, taint, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                taint = self.eval(stmt.value, env)
                self._assign(stmt.target, stmt.value, taint, env)
        elif isinstance(stmt, ast.AugAssign):
            taint = self.eval(stmt.target, env) | self.eval(stmt.value, env)
            self._assign(stmt.target, None, taint, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_taint |= self.eval(stmt.value, env)
        elif isinstance(stmt, ast.Expr):
            self._effect(stmt.value, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, None, taint, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                dotted = dotted_name(target)
                if dotted is not None:
                    env.pop(dotted, None)

    def transfer_terminator(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self.eval(stmt.iter, env)
            self._assign(stmt.target, None, taint, env)
        else:
            for expr in _terminator_tests(stmt):
                # walrus targets inside a test must land in the env
                self.eval(expr, env)

    # --------------------------------------------------------------- helpers

    def _assign(
        self,
        target: ast.expr,
        value: Optional[ast.expr],
        taint: Taint,
        env: Env,
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = taint
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None:
                env[dotted] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = None
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                elts = value.elts
            for i, sub in enumerate(target.elts):
                sub_taint = self.eval(elts[i], env) if elts else taint
                if isinstance(sub, ast.Starred):
                    sub = sub.value
                self._assign(sub, None, sub_taint, env)
        elif isinstance(target, ast.Subscript):
            # d[k] = tainted  →  the container is tainted
            dotted = dotted_name(target.value)
            if dotted is not None:
                env[dotted] = env.get(dotted, EMPTY) | taint

    def _effect(self, expr: ast.expr, env: Env) -> None:
        """Side effects of an expression statement: container mutation."""
        taint = self.eval(expr, env)  # registers walrus targets too
        if not isinstance(expr, ast.Call):
            return
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            recv = dotted_name(func.value)
            if recv is not None and taint:
                env[recv] = env.get(recv, EMPTY) | taint


def _terminator_tests(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.Assert):
        return [stmt.test]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    return []
