"""Wall-time gate on the replint self-check — the lint gate stays fast.

The dataflow tier (CFGs, fixpoint solving, interprocedural taint
summaries, call-graph reachability) runs on every ``src`` file in CI;
this benchmark pins its full-repo wall time in ``perf_baseline.json`` so
an accidentally super-linear analysis (a non-memoized CFG rebuild, a
summary fixpoint that re-analyzes the world) fails perf-smoke instead of
quietly doubling every CI run.

The measured unit is the same work ``python -m repro.analysis src``
does — config load, rule construction, both driver passes — minus
process startup and report rendering, which are constant and noisy.
"""

from pathlib import Path

from repro.analysis import rules as _rules  # noqa: F401  (registers rules)
from repro.analysis.config import load_config
from repro.analysis.core import (
    analyze_contexts,
    create_rules,
    discover_files,
    load_contexts,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _self_check() -> int:
    config = load_config(REPO_ROOT, pyproject=REPO_ROOT / "pyproject.toml")
    rules = create_rules(config.rules)
    files = discover_files([REPO_ROOT / "src"], REPO_ROOT)
    contexts = load_contexts(files, REPO_ROOT)
    findings = analyze_contexts(contexts, rules)
    # the repo ships clean; a finding here means the benchmark is
    # measuring a broken tree, not a slow one
    assert findings == [], [f.location() for f in findings]
    return len(contexts)


def bench_replint_selfcheck(benchmark):
    """Full-repo analysis with every rule, dataflow tier included."""
    n_files = benchmark(_self_check)
    assert n_files > 40  # the sweep actually covered the package
