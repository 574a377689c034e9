"""replint — AST-based invariant linter for this reproduction.

The repo's headline guarantees (bit-identical replay, digest parity
across the 23-point grid, serial == parallel sweeps) rest on invariants
that used to live only in docs/architecture.md and surfaced, when
violated, as an opaque run-level digest mismatch.  ``replint`` checks
them statically, at lint time.  ``python -m repro.analysis
--list-rules`` prints the registered rules, and docs/static-analysis.md
has one section per rule.

Run it with ``python -m repro.analysis [paths...]`` (or the ``replint``
console script).  Configuration lives in ``[tool.replint]`` in
pyproject.toml, where a rule's reviewed ``allow`` globs are the one way
to exempt a file from it; new rules plug in through
:func:`register_rule`, mirroring the execution engine's
``register_strategy``.  docs/static-analysis.md is the user guide.
"""

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
    "ConfigError",
    "FileContext",
    "Finding",
    "ReplintConfig",
    "Rule",
    "analyze_contexts",
    "analyze_sources",
    "create_rules",
    "discover_files",
    "load_config",
    "load_contexts",
    "register_rule",
    "registered_rules",
]
