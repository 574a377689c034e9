"""replint fixture suite: every rule fires on a seeded violation, stays
quiet on the idiomatic version, and the repo itself is clean — the
self-check that backs the CI gate."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    Rule,
    analyze_sources,
    create_rules,
    register_rule,
    registered_rules,
)
from repro.analysis.cli import main as replint_main
from repro.analysis.config import _parse_minimal_toml
from repro.analysis.core import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[1]


def rule_ids(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------


def test_rng_rule_flags_stdlib_random():
    findings = analyze_sources(
        {"m.py": "import random\nx = random.random()\n"}
    )
    assert "rng-discipline" in rule_ids(findings)


def test_rng_rule_flags_legacy_numpy_global():
    findings = analyze_sources(
        {"m.py": "import numpy as np\nx = np.random.uniform(0, 1)\n"}
    )
    assert "rng-discipline" in rule_ids(findings)


def test_rng_rule_flags_unseeded_default_rng():
    findings = analyze_sources(
        {"m.py": "import numpy as np\nrng = np.random.default_rng()\n"}
    )
    assert "rng-discipline" in rule_ids(findings)


def test_rng_rule_allows_seeded_generator_threading():
    clean = (
        "import numpy as np\n"
        "def sample(rng: np.random.Generator) -> int:\n"
        "    return int(rng.integers(0, 10))\n"
        "rng = np.random.default_rng(42)\n"
    )
    assert analyze_sources({"m.py": clean}) == []


# ---------------------------------------------------------------------------
# wall-clock
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nt = time.time()\n",
        "import time\nt = time.perf_counter()\n",
        "from time import perf_counter\nt = perf_counter()\n",
        "import datetime\nt = datetime.datetime.now()\n",
    ],
)
def test_wallclock_rule_flags_host_time(snippet):
    assert rule_ids(analyze_sources({"m.py": snippet})) == {"wall-clock"}


def test_wallclock_backward_stopwatch_stays_on_simulated_clock():
    """The COLLECT backward "stopwatch" in ``CollectStrategy`` times units
    off the simulated clock charge, never host time — so the strategies
    module must pass the wall-clock rule WITHOUT being allowlisted, and
    the pyproject allow list must not quietly grow to include it."""
    strategies = REPO_ROOT / "src/repro/engine/strategies.py"
    source = strategies.read_text()
    assert "BackwardMeasured" in source  # the stopwatch site exists
    rules = create_rules(select=["wall-clock"])
    findings = analyze_sources(
        {"src/repro/engine/strategies.py": source}, rules
    )
    assert findings == []
    config = _parse_minimal_toml((REPO_ROOT / "pyproject.toml").read_text())
    allow = (
        config["tool"]["replint"]["rules"]["wall-clock"]["allow"]
    )
    assert "src/repro/engine/strategies.py" not in allow
    # the sanctioned genuine-overhead stopwatch sites are still exempt
    assert "src/repro/core/estimator.py" in allow
    assert "src/repro/core/planner.py" in allow


def test_wallclock_rule_allows_simulated_clock_and_allowlisted_files():
    clean = "def charge(clock, dt):\n    return clock.now + dt\n"
    assert analyze_sources({"m.py": clean}) == []
    # an allow glob exempts the sanctioned stopwatch site
    rules = create_rules(
        {"wall-clock": {"allow": ["pkg/estimator.py"]}},
        select=["wall-clock"],
    )
    hot = "import time\nstart = time.perf_counter()\n"
    assert analyze_sources({"pkg/estimator.py": hot}, rules) == []
    rules = create_rules(select=["wall-clock"])
    assert analyze_sources({"pkg/estimator.py": hot}, rules) != []


# ---------------------------------------------------------------------------
# mode-branching
# ---------------------------------------------------------------------------


def test_mode_rule_flags_enum_comparison_and_match():
    bad_compare = (
        "from repro.planners.base import ExecutionMode\n"
        "def f(decision):\n"
        "    if decision.mode == ExecutionMode.COLLECT:\n"
        "        return 1\n"
    )
    assert "mode-branching" in rule_ids(analyze_sources({"m.py": bad_compare}))
    bad_match = (
        "from repro.planners.base import ExecutionMode\n"
        "def f(decision):\n"
        "    match decision.mode:\n"
        "        case ExecutionMode.NORMAL:\n"
        "            return 0\n"
    )
    assert "mode-branching" in rule_ids(analyze_sources({"m.py": bad_match}))


def test_mode_rule_flags_string_mode_comparison():
    bad = "def f(stats):\n    return stats.mode == 'collect'\n"
    assert "mode-branching" in rule_ids(analyze_sources({"m.py": bad}))


def test_mode_rule_allows_construction_and_registry_dispatch():
    clean = (
        "from repro.planners.base import ExecutionMode, PlanDecision\n"
        "def f(plan, registry, decision):\n"
        "    d = PlanDecision(plan, mode=ExecutionMode.COLLECT)\n"
        "    cls = registry[decision.mode]\n"
        "    return d, cls, decision.mode.value\n"
    )
    assert analyze_sources({"m.py": clean}) == []


# ---------------------------------------------------------------------------
# event-bus-protocol
# ---------------------------------------------------------------------------


def test_eventbus_rule_requires_frozen_slots_dataclass_cross_file():
    sources = {
        "events.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class UnitDone:\n"
            "    unit: str\n"
        ),
        "publisher.py": "def go(bus):\n    bus.emit(UnitDone('u'))\n",
    }
    findings = analyze_sources(sources)
    assert [f.path for f in findings] == ["events.py", "events.py"]
    assert rule_ids(findings) == {"event-bus-protocol"}

    sources["events.py"] = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class UnitDone:\n"
        "    unit: str\n"
    )
    assert analyze_sources(sources) == []


def test_eventbus_rule_requires_callable_observers():
    bad = (
        "class Peeker:\n"
        "    def attach(self, bus):\n"
        "        return bus.subscribe(self)\n"
    )
    findings = analyze_sources({"m.py": bad})
    assert rule_ids(findings) == {"event-bus-protocol"}
    good = bad + "    def __call__(self, event):\n        pass\n"
    assert analyze_sources({"m.py": good}) == []


def test_guard_dominance_requires_wants_guard_on_hot_events():
    """The v1 lexical guard check moved to the dataflow ``guard-dominance``
    rule; the simple guarded/unguarded shapes still behave identically."""
    bad = (
        "def alloc(bus, t):\n"
        "    bus.emit(TensorAlloc(0, t.nbytes, t.name, 0.0))\n"
    )
    findings = analyze_sources({"m.py": bad})
    assert "guard-dominance" in rule_ids(findings)
    good = (
        "def alloc(bus, t):\n"
        "    if bus.wants(TensorAlloc):\n"
        "        bus.emit(TensorAlloc(0, t.nbytes, t.name, 0.0))\n"
    )
    # TensorAlloc itself is defined elsewhere; only the guard is checked
    assert analyze_sources({"m.py": good}) == []


# ---------------------------------------------------------------------------
# plan-membership
# ---------------------------------------------------------------------------


def test_plan_membership_rule_flags_unit_set_probes():
    bad_checkpoint = (
        "def f(plan, unit):\n"
        "    return unit.name in plan.assignment.checkpoint_units\n"
    )
    assert rule_ids(analyze_sources({"m.py": bad_checkpoint})) == {
        "plan-membership"
    }
    bad_swap = (
        "def f(decision, name):\n"
        "    if name not in decision.plan.assignment.swap_units:\n"
        "        return None\n"
    )
    assert rule_ids(analyze_sources({"m.py": bad_swap})) == {
        "plan-membership"
    }


def test_plan_membership_rule_allows_action_dispatch_and_set_reads():
    clean = (
        "def f(plan, unit, other):\n"
        "    action = plan.assignment.action_for(unit.name)\n"
        "    dropped = len(plan.assignment.checkpoint_units)\n"
        "    order = sorted(plan.assignment.swap_units)\n"
        "    both = plan.assignment.checkpoint_units | plan.assignment.swap_units\n"
        "    return action, dropped, order, both, unit in other\n"
    )
    assert analyze_sources({"m.py": clean}) == []


def test_plan_membership_rule_respects_allow_globs():
    bad = (
        "def f(plan, unit):\n"
        "    return unit in plan.assignment.swap_units\n"
    )
    rules = create_rules(
        {"plan-membership": {"allow": ["src/repro/planners/*"]}},
        select=["plan-membership"],
    )
    assert analyze_sources({"src/repro/planners/x.py": bad}, rules) == []
    assert analyze_sources({"src/repro/engine/x.py": bad}, rules) != []


# ---------------------------------------------------------------------------
# lifecycle-protocol
# ---------------------------------------------------------------------------


def test_lifecycle_rule_flags_direct_estimator_fit():
    bad = (
        "def refit(self, collector):\n"
        "    self.estimator.fit(collector)\n"
    )
    assert "lifecycle-protocol" in rule_ids(analyze_sources({"m.py": bad}))


def test_lifecycle_rule_flags_estimator_fit_base():
    bad = (
        "def refit(estimator, sizes, peaks):\n"
        "    estimator.fit_base(sizes, peaks)\n"
    )
    assert "lifecycle-protocol" in rule_ids(analyze_sources({"m.py": bad}))


def test_lifecycle_rule_flags_collector_resets():
    for call in ("self.collector.clear()", "collector.evict_oldest(keep=2)"):
        bad = f"def reset(self, collector):\n    {call}\n"
        assert "lifecycle-protocol" in rule_ids(
            analyze_sources({"m.py": bad})
        ), call


def test_lifecycle_rule_allows_unrelated_fit_and_clear():
    good = (
        "def f(tree, xs, ys, seen, cache):\n"
        "    tree.fit(xs, ys)\n"       # regressor internals
        "    seen.clear()\n"           # plain containers
        "    cache.clear()\n"          # the plan cache is not a collector
    )
    assert "lifecycle-protocol" not in rule_ids(
        analyze_sources({"m.py": good})
    )


def test_lifecycle_rule_respects_allow_globs():
    bad = "def f(self, c):\n    self.estimator.fit(c)\n"
    rules = create_rules(
        {"lifecycle-protocol": {"allow": ["src/repro/core/lifecycle.py"]}},
        select=["lifecycle-protocol"],
    )
    assert analyze_sources({"src/repro/core/lifecycle.py": bad}, rules) == []
    assert analyze_sources({"src/repro/planners/x.py": bad}, rules) != []


# ---------------------------------------------------------------------------
# unit-flow (formerly byte-units)
# ---------------------------------------------------------------------------


def test_units_rule_flags_mixed_comparison_and_arithmetic():
    bad_cmp = (
        "def fits(budget_gb, peak_bytes):\n"
        "    return peak_bytes < budget_gb\n"
    )
    assert rule_ids(analyze_sources({"m.py": bad_cmp})) == {"unit-flow"}
    bad_sum = (
        "def headroom(budget_bytes, reserve_gb):\n"
        "    return budget_bytes - reserve_gb\n"
    )
    assert rule_ids(analyze_sources({"m.py": bad_sum})) == {"unit-flow"}


def test_units_rule_allows_explicit_conversions():
    clean = (
        "GB = 1024 ** 3\n"
        "def fits(budget_gb, peak_bytes, extra_bytes):\n"
        "    budget_bytes = int(budget_gb * GB)\n"
        "    frac = peak_bytes / (1024 ** 3)\n"
        "    total = peak_bytes + extra_bytes\n"
        "    pad = budget_bytes + GB\n"
        "    return peak_bytes < budget_bytes, frac, total, pad\n"
    )
    assert analyze_sources({"m.py": clean}) == []


# ---------------------------------------------------------------------------
# left-fold
# ---------------------------------------------------------------------------


def test_left_fold_rule_flags_builtin_sum_over_times():
    bad = "def busy(stats):\n    return sum(s.fwd_time for s in stats)\n"
    assert rule_ids(analyze_sources({"m.py": bad})) == {"left-fold"}
    # mutation: RunResult.total_time folded with the builtin again
    path = "src/repro/engine/stats.py"
    fold = "left_sum(s.total_time for s in self.iterations)"
    original = (REPO_ROOT / path).read_text()
    assert original.count(fold) == 1
    mutated = original.replace(fold, "sum(s.total_time for s in self.iterations)")
    line = 1 + mutated[: mutated.index("sum(s.total_time")].count("\n")
    rules = create_rules(select=["left-fold"])
    assert [f.line for f in analyze_sources({path: mutated}, rules)] == [line]
    assert analyze_sources({path: original}, rules) == []


def test_left_fold_rule_allows_left_sum_and_non_time_sums():
    clean = (
        "from repro.tensorsim.clock import left_sum\n"
        "def totals(stats, blocks):\n"
        "    busy = left_sum(s.fwd_time for s in stats)\n"
        "    timed = sum(1 for s in stats if s.fwd_time > 0)\n"
        "    return busy, timed, sum(b.nbytes for b in blocks)\n"
    )
    assert analyze_sources({"m.py": clean}) == []


# ---------------------------------------------------------------------------
# exemption: an allow glob, nothing else
# ---------------------------------------------------------------------------


def test_a_comment_does_not_silence_a_rule():
    src = (
        "import time\n"
        "a = time.time()  # replint: ignore[wall-clock]\n"
        "b = time.time()\n"
    )
    findings = analyze_sources({"m.py": src})
    # the import itself is not flagged, only the calls
    assert [(f.rule, f.line) for f in findings] == [
        ("wall-clock", 2), ("wall-clock", 3),
    ]


def test_allow_glob_is_the_one_exemption():
    rules = create_rules({"wall-clock": {"allow": ["m.py"]}})
    source = "import time\nt = time.time()\n"
    findings = analyze_sources({"m.py": source, "n.py": source}, rules)
    assert [(f.rule, f.path) for f in findings] == [("wall-clock", "n.py")]
    with pytest.raises(ConfigError):
        create_rules({"no-such-rule": {}})


# ---------------------------------------------------------------------------
# registry & config plumbing
# ---------------------------------------------------------------------------


def test_register_rule_mirrors_register_strategy():
    @register_rule
    class NoTodoRule(Rule):
        id = "no-todo-test-rule"
        summary = "test-only"

        def check(self, ctx):
            for lineno, line in enumerate(ctx.lines, 1):
                if "TODO" in line:
                    yield Finding(
                        self.id, ctx.relpath, lineno, 1,
                        "todo found", ctx.code_at(lineno),
                    )

    try:
        assert "no-todo-test-rule" in registered_rules()
        rules = create_rules(select=["no-todo-test-rule"])
        findings = analyze_sources({"m.py": "x = 1  # TODO: later\n"}, rules)
        assert rule_ids(findings) == {"no-todo-test-rule"}
    finally:
        from repro.analysis.core import _RULES

        _RULES.pop("no-todo-test-rule", None)


def test_minimal_toml_parser_matches_tomllib_on_repo_config():
    tomllib = pytest.importorskip("tomllib")
    text = (REPO_ROOT / "pyproject.toml").read_text()
    expected = tomllib.loads(text).get("tool", {}).get("replint", {})
    actual = _parse_minimal_toml(text).get("tool", {}).get("replint", {})
    assert actual == expected


def test_minimal_toml_parser_multiline_arrays():
    text = (
        "[tool.replint.rules.guard-dominance]\n"
        "guarded-events = [\n"
        "    # hot-path per-tensor events\n"
        '    "TensorAlloc",\n'
        '    "SwapIn",\n'
        "\n"
        '    "ReplayHit",\n'
        "]\n"
        "severity = \"error\"\n"
    )
    table = _parse_minimal_toml(text)["tool"]["replint"]["rules"][
        "guard-dominance"
    ]
    assert table["guarded-events"] == ["TensorAlloc", "SwapIn", "ReplayHit"]
    assert table["severity"] == "error"


# ---------------------------------------------------------------------------
# CLI gate
# ---------------------------------------------------------------------------


def test_cli_gate_rejects_seeded_violation(tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
    monkeypatch.chdir(tmp_path)
    code = replint_main(["bad.py", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["summary"]["errors"] == 1
    assert report["findings"][0]["rule"] == "wall-clock"
    # a reviewed allow glob turns the gate green again
    (tmp_path / "pyproject.toml").write_text(
        '[tool.replint.rules.wall-clock]\nallow = ["bad.py"]\n'
    )
    assert replint_main(["bad.py"]) == 0


def test_cli_self_check_repo_is_clean(monkeypatch):
    """`python -m repro.analysis src` exits 0 on the repo."""
    monkeypatch.chdir(REPO_ROOT)
    assert replint_main(["src"]) == 0


def test_every_stock_rule_has_a_doc_section():
    """docs/static-analysis.md is the one rule catalogue: its "## Rules"
    section has a ``### `<id>` `` heading for exactly the stock rules."""
    text = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    section = text.split("\n## Rules\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^### `([\w-]+)`$", section, re.M))
    stock = {
        rule_id
        for rule_id, cls in registered_rules().items()
        if cls.__module__.startswith("repro.analysis.rules")
    }
    assert documented == stock
