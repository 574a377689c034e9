"""replint dataflow-tier suite: CFG construction, lattice fixpoints,
call-graph resolution, the four semantic rules on bad/good fixtures, and
mutation tests that inject the historical bug classes into copies of the
real engine files and assert the rule reports the exact file:line."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import Finding, analyze_sources, create_rules
from repro.analysis.cli import main as replint_main
from repro.analysis.core import FileContext
from repro.analysis.dataflow.callgraph import CallGraph, module_name
from repro.analysis.dataflow.cfg import (
    build_cfg,
    dominators,
    iter_scopes,
    own_exprs,
    shallow_walk,
)
from repro.analysis.dataflow.lattice import (
    Unit,
    join_units,
    solve_forward,
    units_conflict,
)
from repro.analysis.dataflow.taint import SourceDetector, TaintEngine

REPO_ROOT = Path(__file__).resolve().parents[1]


def rule_ids(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


def only(rule_id: str):
    return create_rules(select=[rule_id])


def fn_cfg(src: str):
    """CFG of the first function in ``src``."""
    tree = ast.parse(src)
    fn = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
    )
    return build_cfg(fn)


def edge_labels(cfg) -> set[str]:
    return {
        lbl
        for block in cfg.blocks
        for _, lbl in block.succs
        if lbl is not None
    }


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


def test_cfg_if_else_branches_and_merge():
    cfg = fn_cfg(
        "def f(x):\n"
        "    if x:\n"
        "        a = 1\n"
        "    else:\n"
        "        a = 2\n"
        "    return a\n"
    )
    assert {"true", "false"} <= edge_labels(cfg)
    branch = next(
        b for b in cfg.reachable() if isinstance(b.terminator, ast.If)
    )
    arms = [succ for succ, _ in branch.succs]
    assert len(arms) == 2
    # both arms are fresh single-predecessor blocks that re-merge
    merges = {succ.id for arm in arms for succ, _ in arm.succs}
    assert len(merges) == 1
    for arm in arms:
        assert arm.preds == [branch]


def test_cfg_while_loop_has_back_edge():
    cfg = fn_cfg(
        "def f(n):\n"
        "    i = 0\n"
        "    while i < n:\n"
        "        i += 1\n"
        "    return i\n"
    )
    header = next(
        b for b in cfg.reachable() if isinstance(b.terminator, ast.While)
    )
    body = next(succ for succ, lbl in header.succs if lbl == "true")
    assert any(succ.id == header.id for succ, _ in body.succs)
    assert any(lbl == "false" for _, lbl in header.succs)


def test_cfg_while_true_has_no_false_edge():
    cfg = fn_cfg(
        "def f():\n"
        "    while True:\n"
        "        work()\n"
    )
    header = next(
        b for b in cfg.reachable() if isinstance(b.terminator, ast.While)
    )
    assert all(lbl != "false" for _, lbl in header.succs)


def test_cfg_try_except_handler_edges():
    cfg = fn_cfg(
        "def f():\n"
        "    try:\n"
        "        a = risky()\n"
        "        b = also_risky()\n"
        "    except ValueError:\n"
        "        b = 0\n"
        "    return b\n"
    )
    exc_edges = [
        (block, succ)
        for block in cfg.reachable()
        for succ, lbl in block.succs
        if lbl == "exc"
    ]
    # each top-level try statement gets its own edge into the handler,
    # so the handler is never dominated by a later try-body statement
    assert len(exc_edges) >= 2
    handler_ids = {succ.id for _, succ in exc_edges}
    assert len(handler_ids) == 1


def test_cfg_code_after_return_is_unreachable():
    cfg = fn_cfg(
        "def f():\n"
        "    return 1\n"
        "    x = dead()\n"
    )
    reachable_stmts = [
        s for b in cfg.reachable() for s in b.stmts
    ]
    assert not any(isinstance(s, ast.Assign) for s in reachable_stmts)


def test_cfg_nested_def_body_stays_out_of_enclosing_scope():
    cfg = fn_cfg(
        "def f():\n"
        "    def g():\n"
        "        inner = 1\n"
        "    return g\n"
    )
    for block in cfg.reachable():
        for stmt in block.stmts:
            for node in shallow_walk(stmt):
                assert not (
                    isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "inner"
                )


def test_dominators_branch_arms_do_not_dominate_merge():
    cfg = fn_cfg(
        "def f(x):\n"
        "    if x:\n"
        "        a = 1\n"
        "    else:\n"
        "        a = 2\n"
        "    return a\n"
    )
    dom = dominators(cfg)
    branch = next(
        b for b in cfg.reachable() if isinstance(b.terminator, ast.If)
    )
    arms = [succ for succ, _ in branch.succs]
    merge = arms[0].succs[0][0]
    assert branch.id in dom[merge.id]
    for arm in arms:
        assert arm.id not in dom[merge.id]
        assert branch.id in dom[arm.id]


def test_own_exprs_excludes_nested_statement_bodies():
    stmt = ast.parse(
        "if cond(x):\n"
        "    nested(y)\n"
    ).body[0]
    flat = [
        n
        for e in own_exprs(stmt)
        for n in shallow_walk(e)
        if isinstance(n, ast.Call)
    ]
    names = {c.func.id for c in flat}
    assert names == {"cond"}


# ---------------------------------------------------------------------------
# Lattice / fixpoint
# ---------------------------------------------------------------------------


def taint_envs(src: str):
    ctx = FileContext("m.py", src)
    fn = next(
        n for n in ast.walk(ctx.tree) if isinstance(n, ast.FunctionDef)
    )
    cfg = build_cfg(fn)
    engine = TaintEngine(SourceDetector(ctx))
    return cfg, engine, solve_forward(cfg, engine)


def test_taint_fixpoint_terminates_on_loop_and_unions():
    cfg, engine, envs = taint_envs(
        "import time\n"
        "def f(n):\n"
        "    acc = 0\n"
        "    for _ in range(n):\n"
        "        acc = acc + time.perf_counter()\n"
        "    return acc\n"
    )
    exit_env = envs[cfg.exit.id]
    assert exit_env.get("acc"), "loop-carried taint must reach the exit"
    assert engine.return_taint, "return value is tainted"


def test_taint_join_is_union_across_branches():
    cfg, engine, envs = taint_envs(
        "import time\n"
        "def f(x):\n"
        "    if x:\n"
        "        t = time.time()\n"
        "    else:\n"
        "        t = 0\n"
        "    return t\n"
    )
    exit_env = envs[cfg.exit.id]
    kinds = {s.kind for s in exit_env.get("t", frozenset())}
    assert kinds == {"wall-clock"}


def test_taint_clean_reassignment_kills():
    cfg, engine, envs = taint_envs(
        "import time\n"
        "def f():\n"
        "    t = time.perf_counter()\n"
        "    t = 0\n"
        "    return t\n"
    )
    assert not engine.return_taint


def test_unit_join_and_conflicts():
    assert join_units(Unit.BYTES, Unit.BYTES) is Unit.BYTES
    assert join_units(Unit.BYTES, Unit.MS) is None
    assert units_conflict(Unit.BYTES, Unit.MS)
    assert units_conflict(Unit.MS, Unit.SECONDS)
    assert not units_conflict(Unit.COUNT, Unit.BYTES)
    assert not units_conflict(None, Unit.BYTES)
    assert not units_conflict(Unit.GB, Unit.GB)


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


def build_graph(sources: dict[str, str]) -> CallGraph:
    graph = CallGraph()
    for rel, src in sources.items():
        graph.add_file(FileContext(rel, src))
    graph.resolve()
    return graph


def test_callgraph_bare_name_and_from_import():
    graph = build_graph(
        {
            "src/pkg/util.py": "def helper():\n    return 1\n",
            "src/pkg/app.py": (
                "from pkg.util import helper\n"
                "def run():\n"
                "    local()\n"
                "    return helper()\n"
                "def local():\n"
                "    return 2\n"
            ),
        }
    )
    run = graph.functions["pkg.app:run"]
    assert run.callees == {"pkg.app:local", "pkg.util:helper"}
    assert graph.callers_of("pkg.util:helper") == {"pkg.app:run"}


def test_callgraph_self_method_and_base_class():
    graph = build_graph(
        {
            "src/pkg/base.py": (
                "class Base:\n"
                "    def shared(self):\n"
                "        return 0\n"
            ),
            "src/pkg/sub.py": (
                "from pkg.base import Base\n"
                "class Child(Base):\n"
                "    def go(self):\n"
                "        return self.shared()\n"
            ),
        }
    )
    go = graph.functions["pkg.sub:Child.go"]
    assert "pkg.base:Base.shared" in go.callees


def test_callgraph_receiver_name_heuristic():
    graph = build_graph(
        {
            "src/pkg/est.py": (
                "class CostEstimator:\n"
                "    def fit(self, data):\n"
                "        return data\n"
            ),
            "src/pkg/use.py": (
                "class Runner:\n"
                "    def refit(self):\n"
                "        self.estimator.fit(None)\n"
            ),
        }
    )
    refit = graph.functions["pkg.use:Runner.refit"]
    assert "pkg.est:CostEstimator.fit" in refit.callees


def test_callgraph_short_receivers_do_not_fan_out():
    graph = build_graph(
        {
            "src/pkg/a.py": (
                "class Anything:\n"
                "    def get(self, k):\n"
                "        return k\n"
            ),
            "src/pkg/b.py": (
                "def use(d):\n"
                "    return d.get(1)\n"
            ),
        }
    )
    assert graph.functions["pkg.b:use"].callees == set()


def test_callgraph_reachability_is_transitive():
    graph = build_graph(
        {
            "src/pkg/m.py": (
                "def a():\n    b()\n"
                "def b():\n    c()\n"
                "def c():\n    pass\n"
                "def unrelated():\n    pass\n"
            )
        }
    )
    reach = graph.reachable_from(["pkg.m:a"])
    assert {"pkg.m:a", "pkg.m:b", "pkg.m:c"} <= reach
    assert "pkg.m:unrelated" not in reach


def test_module_name_strips_src_and_init():
    assert module_name("src/repro/core/planner.py") == "repro.core.planner"
    assert module_name("src/repro/engine/__init__.py") == "repro.engine"


# ---------------------------------------------------------------------------
# determinism-taint fixtures
# ---------------------------------------------------------------------------


def test_determinism_flags_flow_through_temporaries():
    src = (
        "import time\n"
        "def finalize():\n"
        "    t0 = time.perf_counter()\n"
        "    elapsed = time.perf_counter() - t0\n"
        "    stat = elapsed\n"
        "    return IterationStats(optimizer_time=stat)\n"
    )
    findings = analyze_sources({"m.py": src}, rules=only("determinism-taint"))
    assert [f.line for f in findings] == [6]
    assert "time.perf_counter" in findings[0].message


def test_determinism_allows_planning_time_field():
    src = (
        "import time\n"
        "def finalize():\n"
        "    t = time.perf_counter()\n"
        "    return IterationStats(planning_time=t, fwd_time=0.0)\n"
    )
    assert (
        analyze_sources({"m.py": src}, rules=only("determinism-taint")) == []
    )


def test_determinism_flags_tainted_emit_payload():
    src = (
        "import random\n"
        "def publish(bus):\n"
        "    jitter = random.random()\n"
        "    bus.emit(SwapIn(0, 'u', jitter, 0.0))\n"
    )
    findings = analyze_sources({"m.py": src}, rules=only("determinism-taint"))
    assert [f.line for f in findings] == [4]


def test_determinism_interprocedural_return_summary_across_files():
    sources = {
        "src/pkg/timing.py": (
            "import time\n"
            "def elapsed(start):\n"
            "    return time.perf_counter() - start\n"
        ),
        "src/pkg/report.py": (
            "from pkg.timing import elapsed\n"
            "def finalize(start):\n"
            "    wall = elapsed(start)\n"
            "    return RunResult(total_time=wall)\n"
        ),
    }
    findings = analyze_sources(sources, rules=only("determinism-taint"))
    assert [(f.path, f.line) for f in findings] == [("src/pkg/report.py", 4)]


def test_determinism_clean_branch_stays_clean():
    src = (
        "def finalize(comp):\n"
        "    return IterationStats(fwd_time=comp['fwd'], oom=False)\n"
    )
    assert (
        analyze_sources({"m.py": src}, rules=only("determinism-taint")) == []
    )


# ---------------------------------------------------------------------------
# unit-flow fixtures
# ---------------------------------------------------------------------------


def test_unit_flow_flags_mix_through_temporary():
    src = (
        "def headroom(step_ms, alloc_bytes):\n"
        "    window = step_ms\n"
        "    return window + alloc_bytes\n"
    )
    findings = analyze_sources({"m.py": src}, rules=only("unit-flow"))
    assert [f.line for f in findings] == [3]


def test_unit_flow_conversion_neutralizes():
    src = (
        "GB = 1024 ** 3\n"
        "def headroom(budget_gb, alloc_bytes):\n"
        "    budget = budget_gb * GB\n"
        "    return budget + alloc_bytes\n"
    )
    assert analyze_sources({"m.py": src}, rules=only("unit-flow")) == []


def test_unit_flow_flags_comparison_of_different_units():
    src = (
        "def over(limit_mb, used_bytes):\n"
        "    cap = limit_mb\n"
        "    return used_bytes > cap\n"
    )
    findings = analyze_sources({"m.py": src}, rules=only("unit-flow"))
    assert [f.line for f in findings] == [3]


def test_unit_flow_counts_are_dimensionless():
    src = (
        "def total(num_blocks, block_bytes, pad_bytes):\n"
        "    used = num_blocks * block_bytes\n"
        "    return used + pad_bytes\n"
    )
    assert analyze_sources({"m.py": src}, rules=only("unit-flow")) == []


# ---------------------------------------------------------------------------
# guard-dominance fixtures
# ---------------------------------------------------------------------------


def test_guard_dominance_rejects_laundered_guard():
    src = (
        "def alloc(bus, tensor):\n"
        "    checked = bus.wants(TensorAlloc)\n"
        "    if tensor.large or checked:\n"
        "        bus.emit(TensorAlloc(tensor.name))\n"
    )
    findings = analyze_sources({"m.py": src}, rules=only("guard-dominance"))
    assert [f.line for f in findings] == [4]


def test_guard_dominance_accepts_early_return_guard():
    src = (
        "def alloc(bus, tensor):\n"
        "    if not bus.wants(TensorAlloc):\n"
        "        return\n"
        "    bus.emit(TensorAlloc(tensor.name))\n"
    )
    assert analyze_sources({"m.py": src}, rules=only("guard-dominance")) == []


def test_guard_dominance_accepts_and_conjunct():
    src = (
        "def alloc(bus, tensor):\n"
        "    if tensor.large and bus.wants(SwapIn):\n"
        "        bus.emit(SwapIn(tensor.name))\n"
    )
    assert analyze_sources({"m.py": src}, rules=only("guard-dominance")) == []


def test_guard_dominance_rejects_or_guard():
    src = (
        "def alloc(bus, tensor):\n"
        "    if tensor.large or bus.wants(SwapIn):\n"
        "        bus.emit(SwapIn(tensor.name))\n"
    )
    findings = analyze_sources({"m.py": src}, rules=only("guard-dominance"))
    assert [f.line for f in findings] == [3]


# ---------------------------------------------------------------------------
# invalidation-reachability fixtures
# ---------------------------------------------------------------------------


def test_invalidation_flags_fit_without_flush():
    src = (
        "class Controller:\n"
        "    def refit(self):\n"
        "        self.estimator.fit(self.collector)\n"
    )
    findings = analyze_sources(
        {"m.py": src}, rules=only("invalidation-reachability")
    )
    assert [f.line for f in findings] == [3]


def test_invalidation_accepts_flush_on_same_path():
    src = (
        "class Controller:\n"
        "    def refit(self):\n"
        "        self.estimator.fit(self.collector)\n"
        "        self.cache.clear()\n"
    )
    assert (
        analyze_sources({"m.py": src}, rules=only("invalidation-reachability"))
        == []
    )


def test_invalidation_accepts_flush_through_helper():
    src = (
        "class Controller:\n"
        "    def refit(self):\n"
        "        self.estimator.fit(self.collector)\n"
        "        self._after()\n"
        "    def _after(self):\n"
        "        self.plan_cache.flush()\n"
    )
    assert (
        analyze_sources({"m.py": src}, rules=only("invalidation-reachability"))
        == []
    )


def test_invalidation_flags_fast_path_flush_without_plan_cache_flush():
    """Replay records and compiled templates read no fit: flushing them
    is not the protocol's flush."""
    src = (
        "class Controller:\n"
        "    def refit(self):\n"
        "        self.estimator.fit(self.collector)\n"
        "        self.replay.invalidate()\n"
        "    def refit_base(self):\n"
        "        self.estimator.fit_base(self.sizes, self.peaks)\n"
        "        self.compiled.clear()\n"
    )
    findings = analyze_sources(
        {"m.py": src}, rules=only("invalidation-reachability")
    )
    assert [f.line for f in findings] == [3, 6]


# ---------------------------------------------------------------------------
# mutation tests: inject the bug classes into copies of the real files
# ---------------------------------------------------------------------------


def mutate(source: str, old: str, new: str, count: int = 1) -> str:
    assert source.count(old) >= count, f"mutation anchor missing: {old!r}"
    return source.replace(old, new, count)


def line_of(source: str, needle: str, occurrence: int = 1) -> int:
    seen = 0
    for i, line in enumerate(source.splitlines(), 1):
        if needle in line:
            seen += 1
            if seen == occurrence:
                return i
    raise AssertionError(f"{needle!r} not found")


def test_mutation_wallclock_leak_into_strategies_copy():
    original = (REPO_ROOT / "src/repro/engine/strategies.py").read_text()
    mutated = mutate(
        original,
        "from __future__ import annotations\n",
        "from __future__ import annotations\n\nimport time\n",
    )
    mutated = mutate(
        mutated,
        "        return IterationStats(\n",
        "        leak = time.perf_counter()\n"
        "        return IterationStats(\n",
    )
    mutated = mutate(
        mutated,
        'optimizer_time=comp["optimizer"],',
        "optimizer_time=leak,",
    )
    findings = analyze_sources(
        {"src/repro/engine/strategies.py": mutated},
        rules=only("determinism-taint"),
    )
    sink_line = line_of(mutated, "return IterationStats(")
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/engine/strategies.py", sink_line)
    ]
    assert "time.perf_counter" in findings[0].message
    # the unmutated file is clean under the same rule
    assert (
        analyze_sources(
            {"src/repro/engine/strategies.py": original},
            rules=only("determinism-taint"),
        )
        == []
    )


def test_mutation_unit_mix_in_allocator_copy():
    original = (REPO_ROOT / "src/repro/tensorsim/allocator.py").read_text()
    mutated = original + (
        "\n\n"
        "def _mutated_pressure(pool_bytes, window_ms):\n"
        "    slack = window_ms\n"
        "    return pool_bytes - slack\n"
    )
    findings = analyze_sources(
        {"src/repro/tensorsim/allocator.py": mutated},
        rules=only("unit-flow"),
    )
    bad_line = line_of(mutated, "return pool_bytes - slack")
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/tensorsim/allocator.py", bad_line)
    ]
    assert (
        analyze_sources(
            {"src/repro/tensorsim/allocator.py": original},
            rules=only("unit-flow"),
        )
        == []
    )


def test_mutation_unguarded_hot_path_emit_in_strategies_copy():
    original = (REPO_ROOT / "src/repro/engine/strategies.py").read_text()
    mutated = mutate(
        original,
        "if ctx.bus.wants(TensorAlloc):",
        "if True:",
    )
    findings = analyze_sources(
        {"src/repro/engine/strategies.py": mutated},
        rules=only("guard-dominance"),
    )
    guard_line = line_of(mutated, "if True:")
    lines = mutated.splitlines()
    emit_line = next(
        i
        for i in range(guard_line + 1, len(lines) + 1)
        if "ctx.bus.emit(" in lines[i - 1]
    )
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/engine/strategies.py", emit_line)
    ]
    assert "TensorAlloc" in findings[0].message
    assert (
        analyze_sources(
            {"src/repro/engine/strategies.py": original},
            rules=only("guard-dominance"),
        )
        == []
    )


def test_mutation_refit_without_invalidation_via_cli(tmp_path, monkeypatch, capsys):
    """The lifecycle mutation, driven end-to-end through the CLI."""
    original = (REPO_ROOT / "src/repro/core/lifecycle.py").read_text()
    mutated = mutate(original, "self.cache.clear()", "pass")
    (tmp_path / "lifecycle.py").write_text(mutated)
    monkeypatch.chdir(tmp_path)
    rc = replint_main(
        ["lifecycle.py", "--select", "invalidation-reachability",
         "--format", "json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    locations = {
        (f["path"], f["line"]) for f in report["findings"]
    }
    fit_line = line_of(mutated, "self.estimator.fit(")
    assert ("lifecycle.py", fit_line) in locations
    assert all(
        f["rule"] == "invalidation-reachability"
        for f in report["findings"]
    )


def test_unmutated_lifecycle_is_clean_via_cli(tmp_path, monkeypatch, capsys):
    original = (REPO_ROOT / "src/repro/core/lifecycle.py").read_text()
    (tmp_path / "lifecycle.py").write_text(original)
    monkeypatch.chdir(tmp_path)
    rc = replint_main(
        ["lifecycle.py", "--select", "invalidation-reachability",
         "--format", "json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["findings"] == []


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------


def test_sarif_output_shape(tmp_path, monkeypatch, capsys):
    (tmp_path / "m.py").write_text(
        "import time\nt = time.time()\n"
    )
    monkeypatch.chdir(tmp_path)
    rc = replint_main(
        ["m.py", "--select", "wall-clock", "--format", "sarif"]
    )
    sarif = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "replint"
    result = run["results"][0]
    assert result["ruleId"] == "wall-clock"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "m.py"
    assert loc["region"]["startLine"] == 2
    rule_ids_listed = {
        r["id"] for r in run["tool"]["driver"]["rules"]
    }
    assert "wall-clock" in rule_ids_listed
    assert result["ruleIndex"] == sorted(rule_ids_listed).index("wall-clock")


def test_scope_iteration_covers_nested_functions():
    tree = ast.parse(
        "def outer():\n"
        "    def inner():\n"
        "        pass\n"
    )
    names = [
        getattr(s, "name", "<module>") for s in iter_scopes(tree)
    ]
    assert names == ["<module>", "outer", "inner"]
