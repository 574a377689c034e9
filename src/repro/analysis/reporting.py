"""Text, JSON and SARIF renderers for replint reports."""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional

from repro.analysis.core import Finding, Rule


def render_text(findings: Iterable[Finding]) -> str:
    """ruff-style ``path:line:col rule: message`` lines, each followed by
    the flagged source line."""
    findings = list(findings)
    lines = []
    for f in findings:
        lines.append(f"{f.location()}: {f.rule}: {f.message}")
        if f.code:
            lines.append(f"    {f.code}")
    lines.append(f"replint: {len(findings)} error(s)")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    findings = list(findings)
    payload = {
        "version": 2,
        "findings": [f.to_json() for f in findings],
        "summary": {"errors": len(findings)},
    }
    return json.dumps(payload, indent=2)


def render_sarif(
    findings: Iterable[Finding],
    rules: Optional[Mapping[str, type[Rule]]] = None,
) -> str:
    """SARIF 2.1.0, the format GitHub code scanning ingests.

    Uploading this from CI turns every finding into an inline
    annotation on the PR diff.  Every finding fails the run, so every
    result, and every rule's default, is level ``error``.
    """
    findings = list(findings)
    rules = dict(rules or {})
    used_ids = sorted(
        {f.rule for f in findings} | set(rules)
    )
    rule_objs = []
    index_of: dict[str, int] = {}
    for i, rule_id in enumerate(used_ids):
        index_of[rule_id] = i
        cls = rules.get(rule_id)
        obj: dict = {"id": rule_id}
        if cls is not None:
            obj["shortDescription"] = {"text": cls.summary}
            obj["defaultConfiguration"] = {"level": "error"}
        rule_objs.append(obj)
    results = []
    for f in findings:
        results.append(
            {
                "ruleId": f.rule,
                "ruleIndex": index_of[f.rule],
                "level": "error",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f.path,
                                "uriBaseId": "%SRCROOT%",
                            },
                            "region": {
                                "startLine": f.line,
                                "startColumn": f.col,
                                "snippet": {"text": f.code},
                            },
                        }
                    }
                ],
            }
        )
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "replint",
                        "rules": rule_objs,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2)


def render_rule_list(rules: Iterable[type[Rule]]) -> str:
    lines = []
    for cls in rules:
        lines.append(cls.id)
        lines.append(f"    {cls.summary}")
    return "\n".join(lines)
