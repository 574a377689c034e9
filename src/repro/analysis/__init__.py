"""replint — AST-based invariant linter for this reproduction.

The repo's headline guarantees (bit-identical replay, digest parity
across the 23-point grid, serial == parallel sweeps) rest on invariants
that used to live only in docs/architecture.md and surfaced, when
violated, as an opaque run-level digest mismatch.  ``replint`` checks
them statically, at lint time:

============================  =============================================
rule                          invariant
============================  =============================================
``rng-discipline``            all randomness flows through seeded, threaded
                              ``np.random.Generator`` objects
``wall-clock``                host time is confined to the allowlisted
                              planner-overhead stopwatch sites
``mode-branching``            ``ExecutionMode`` dispatch happens only in the
                              strategy registry
``event-bus-protocol``        bus payloads are frozen slotted dataclasses;
                              observers are callable
``determinism-taint``         no wall-clock/unseeded-RNG *value* flows into
                              digest-bearing state (dataflow tier)
``unit-flow``                 inferred bytes/KB/MB/GB/s/ms units never mix
                              additively, even through temporaries
``guard-dominance``           hot-path emits are CFG-dominated by a
                              ``bus.wants()`` branch
``invalidation-reachability``  every estimator-refit call path reaches the
                              plan-cache flush
============================  =============================================

Run it with ``python -m repro.analysis [paths...]`` (or the ``replint``
console script).  Configuration lives in ``[tool.replint]`` in
pyproject.toml; grandfathered findings live in a JSON baseline (see
:mod:`repro.analysis.baseline`); new rules plug in through
:func:`register_rule`, mirroring the execution engine's
``register_strategy``.  docs/static-analysis.md is the user guide.
"""

from repro.analysis.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.config import ReplintConfig, load_config
from repro.analysis.core import (
    ConfigError,
    FileContext,
    Finding,
    Rule,
    analyze_contexts,
    analyze_sources,
    create_rules,
    discover_files,
    load_contexts,
    register_rule,
    registered_rules,
)

# importing the package registers the stock rules
from repro.analysis import rules as _builtin_rules  # noqa: F401

__all__ = [
    "BaselineEntry",
    "ConfigError",
    "FileContext",
    "Finding",
    "ReplintConfig",
    "Rule",
    "analyze_contexts",
    "analyze_sources",
    "apply_baseline",
    "create_rules",
    "discover_files",
    "load_baseline",
    "load_config",
    "load_contexts",
    "register_rule",
    "registered_rules",
    "write_baseline",
]
