"""AST visitor core, rule registry and the two-pass analysis driver.

``replint`` mirrors the execution engine's architecture on purpose: rules
plug into a registry through :func:`register_rule` exactly the way
execution modes plug into :func:`repro.engine.strategies.register_strategy`,
and the driver never branches on a rule's identity — it only runs the
protocol (``configure`` → ``collect`` over every file → ``check`` over
every file).

The two passes exist because some invariants are cross-file: an event
dataclass is *defined* in ``engine/events.py`` but *emitted* from
``engine/strategies.py``, so the event-bus rule first collects every
emitted/subscribed class name project-wide, then checks definitions.

Suppression layers (outermost wins):

* per-rule ``allow`` path globs in ``[tool.replint.rules.<id>]`` — for
  whole files that are the sanctioned home of an otherwise-banned
  construct (e.g. the estimator's ``perf_counter`` measurement);
* inline ``# replint: ignore[rule-id]`` pragmas on the flagged line;
* the baseline file, for grandfathered findings (see
  :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Optional

#: severity levels, in increasing order of consequence.  ``off`` disables
#: the rule, ``warning`` reports without failing, ``error`` fails the run.
SEVERITIES = ("off", "warning", "error")

_PRAGMA = re.compile(r"#\s*replint:\s*ignore(?:\[(?P<rules>[\w\-, ]+)\])?")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``code`` is the stripped source line — the baseline key, so that
    grandfathered findings survive unrelated edits that shift line
    numbers (see :mod:`repro.analysis.baseline`).
    """

    rule: str
    path: str  # posix-style path relative to the project root
    line: int
    col: int
    message: str
    severity: str
    code: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
            "code": self.code,
        }


class FileContext:
    """One parsed source file, shared by every rule's passes."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.relpath)
        self._ignores: Optional[dict[int, Optional[set[str]]]] = None
        #: scratch space for analyses that derive per-file artifacts worth
        #: sharing across rules (CFGs, scope tables, import maps).  Keyed
        #: by whatever the producing analysis chooses; lives exactly as
        #: long as the context, i.e. one analysis run.
        self.cache: dict = {}
        self._nodes: Optional[tuple[ast.AST, ...]] = None

    # ------------------------------------------------------------- helpers

    def nodes(self) -> tuple[ast.AST, ...]:
        """Every AST node of the file, cached.

        A dozen rules each doing their own ``ast.walk(ctx.tree)`` was
        the single largest cost of a full-repo run; one shared walk per
        file keeps the lint gate fast (see bench_replint_selfcheck).
        """
        if self._nodes is None:
            self._nodes = tuple(ast.walk(self.tree))
        return self._nodes

    def code_at(self, line: int) -> str:
        """The stripped source text of a 1-based line (baseline key)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def ignored(self, rule_id: str, line: int) -> bool:
        """Whether ``# replint: ignore[...]`` suppresses ``rule_id`` here."""
        if self._ignores is None:
            self._ignores = self._scan_pragmas()
        rules = self._ignores.get(line, _MISSING)
        if rules is _MISSING:
            return False
        return rules is None or rule_id in rules

    def _scan_pragmas(self) -> dict[int, Optional[set[str]]]:
        pragmas: dict[int, Optional[set[str]]] = {}
        for lineno, text in enumerate(self.lines, 1):
            m = _PRAGMA.search(text)
            if not m:
                continue
            listed = m.group("rules")
            if listed is None:
                pragmas[lineno] = None  # bare ignore: every rule
            else:
                pragmas[lineno] = {
                    r.strip() for r in listed.split(",") if r.strip()
                }
        return pragmas


_MISSING = object()


class Rule:
    """One invariant checker.

    Subclasses set ``id``/``summary``, optionally override
    :meth:`configure` (rule options from ``[tool.replint.rules.<id>]``),
    :meth:`collect` (project-wide pass 1) and must implement
    :meth:`check` (pass 2, yielding :class:`Finding`\\ s).

    A rule instance lives for one analysis run, so it may accumulate
    cross-file state in ``collect`` — mirroring how a strategy instance
    lives for one iteration.
    """

    #: stable identifier used in config, pragmas, baseline and output
    id: ClassVar[str]
    #: one-line description shown by ``replint --list-rules``
    summary: ClassVar[str]
    default_severity: ClassVar[str] = "error"

    def __init__(self) -> None:
        self.severity: str = self.default_severity
        self.allow: tuple[str, ...] = ()

    # ----------------------------------------------------------- protocol

    def configure(self, options: Mapping[str, object]) -> None:
        """Apply ``[tool.replint.rules.<id>]`` options.

        The base class consumes ``severity`` and ``allow`` (path globs
        where the rule is silent); subclasses handle their own keys and
        should call ``super().configure(options)``.
        """
        severity = options.get("severity", self.severity)
        if severity not in SEVERITIES:
            raise ConfigError(
                f"rule {self.id!r}: severity must be one of {SEVERITIES}, "
                f"got {severity!r}"
            )
        self.severity = severity
        allow = options.get("allow", ())
        if isinstance(allow, str):
            allow = (allow,)
        self.allow = tuple(str(a).replace("\\", "/") for a in allow)

    def collect(self, ctx: FileContext) -> None:
        """Pass 1: gather cross-file facts.  Default: nothing."""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Pass 2: yield findings for one file."""
        raise NotImplementedError

    # ------------------------------------------------------------ helpers

    def allows_path(self, relpath: str) -> bool:
        """Whether ``allow`` globs exempt this file from the rule."""
        return any(
            fnmatch.fnmatch(relpath, pattern) for pattern in self.allow
        )

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id,
            path=ctx.relpath,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
            code=ctx.code_at(line),
        )


class ConfigError(Exception):
    """Bad ``[tool.replint]`` configuration or CLI usage."""


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------


_RULES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Register (or override) the rule class for ``cls.id``.

    Usable as a decorator; this is the pluggable-analysis hook — a new
    invariant registers here without touching the driver, mirroring
    ``repro.engine.strategies.register_strategy``.
    """
    if not getattr(cls, "id", None):
        raise ValueError(f"rule class {cls.__name__} has no id")
    _RULES[cls.id] = cls
    return cls


def registered_rules() -> dict[str, type[Rule]]:
    """A snapshot of the registry, in registration order."""
    return dict(_RULES)


def create_rules(
    rule_options: Mapping[str, Mapping[str, object]] | None = None,
    select: Optional[Iterable[str]] = None,
) -> list[Rule]:
    """Instantiate and configure every active registered rule.

    Args:
        rule_options: per-rule option tables (``[tool.replint.rules.*]``).
        select: restrict to these rule ids (CLI ``--select``).
    """
    rule_options = rule_options or {}
    unknown = set(rule_options) - set(_RULES)
    if unknown:
        raise ConfigError(
            f"configuration for unknown rule(s): {sorted(unknown)}; "
            f"known rules: {sorted(_RULES)}"
        )
    if select is not None:
        wanted = list(select)
        unknown = set(wanted) - set(_RULES)
        if unknown:
            raise ConfigError(
                f"--select names unknown rule(s): {sorted(unknown)}; "
                f"known rules: {sorted(_RULES)}"
            )
    else:
        wanted = list(_RULES)
    rules: list[Rule] = []
    for rule_id in wanted:
        rule = _RULES[rule_id]()
        rule.configure(rule_options.get(rule_id, {}))
        if rule.severity != "off":
            rules.append(rule)
    return rules


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build"}


def discover_files(paths: Iterable[Path], root: Path) -> list[Path]:
    """Every ``.py`` file under ``paths``, sorted for deterministic output."""
    files: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_file() and path.suffix == ".py":
            files.add(path)
        elif path.is_dir():
            for sub in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    files.add(sub)
        elif not path.exists():
            raise ConfigError(f"path does not exist: {path}")
    return sorted(files)


def load_contexts(files: Iterable[Path], root: Path) -> list[FileContext]:
    contexts = []
    for path in files:
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        contexts.append(FileContext(relpath, path.read_text()))
    return contexts


def analyze_contexts(
    contexts: Iterable[FileContext], rules: Iterable[Rule]
) -> list[Finding]:
    """Run the two-pass protocol over already-parsed files."""
    contexts = list(contexts)
    rules = list(rules)
    for rule in rules:
        for ctx in contexts:
            rule.collect(ctx)
    findings: list[Finding] = []
    for ctx in contexts:
        for rule in rules:
            if rule.allows_path(ctx.relpath):
                continue
            for f in rule.check(ctx):
                if not ctx.ignored(rule.id, f.line):
                    findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_sources(
    sources: Mapping[str, str],
    rules: Optional[Iterable[Rule]] = None,
) -> list[Finding]:
    """Analyze in-memory sources (``{relpath: code}``) — the fixture-test
    entry point.  With ``rules=None`` every registered rule runs at its
    defaults."""
    if rules is None:
        rules = create_rules()
    contexts = [FileContext(rel, src) for rel, src in sources.items()]
    return analyze_contexts(contexts, rules)


# ---------------------------------------------------------------------------
# Shared AST helper used by several rules
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
