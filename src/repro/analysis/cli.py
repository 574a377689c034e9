"""The ``replint`` command line (``python -m repro.analysis``).

Exit codes: 0 no finding, 1 at least one finding, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis import rules as _rules  # noqa: F401  (registers rules)
from repro.analysis.config import ReplintConfig, load_config
from repro.analysis.core import (
    ConfigError,
    create_rules,
    discover_files,
    load_contexts,
    analyze_contexts,
    registered_rules,
)
from repro.analysis.reporting import (
    render_json,
    render_rule_list,
    render_sarif,
    render_text,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replint",
        description=(
            "AST-based invariant linter for this reproduction: determinism "
            "(seeded RNG threading, wall-clock containment), unit safety, "
            "and strategy/event-bus architecture rules."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyze (default: [tool.replint] paths)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text); sarif is the GitHub "
        "code-scanning upload format",
    )
    parser.add_argument(
        "--output",
        type=Path,
        help="write the report to this file as well as stdout",
    )
    parser.add_argument(
        "--config",
        type=Path,
        help="pyproject.toml to read [tool.replint] from "
        "(default: ./pyproject.toml)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print registered rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(render_rule_list(registered_rules().values()))
        return 0
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"replint: error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    root = Path.cwd()
    config: ReplintConfig = load_config(root, pyproject=args.config)
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    rules = create_rules(config.rules, select=select)
    paths = [Path(p) for p in (args.paths or config.paths)]
    files = discover_files(paths, root)
    if not files:
        raise ConfigError(f"no python files found under {paths}")
    contexts = load_contexts(files, root)
    findings = analyze_contexts(contexts, rules)
    if args.format == "json":
        report = render_json(findings)
    elif args.format == "sarif":
        report = render_sarif(findings, rules=registered_rules())
    else:
        report = render_text(findings)
    print(report)
    if args.output:
        args.output.write_text(report + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
