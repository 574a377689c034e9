"""``[tool.replint]`` configuration, read from pyproject.toml.

Python 3.11+ ships ``tomllib``; on 3.10 (the oldest interpreter this
repo supports, and one leg of the CI matrix) neither ``tomllib`` nor a
third-party TOML parser is guaranteed to be importable, and the repo
policy is to gate missing dependencies rather than require them.  The
fallback parser below therefore understands exactly the TOML subset the
``[tool.replint*]`` tables use — string/bool/int scalars and string
arrays, single-line or spread over multiple lines with trailing commas
and interior comment lines — and nothing more.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from repro.analysis.core import ConfigError

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on 3.10
    try:
        import tomli as _toml  # type: ignore[import-not-found]
    except ImportError:
        _toml = None


@dataclass(slots=True)
class ReplintConfig:
    """Resolved analyzer configuration.

    ``rules`` maps rule id → its option table (allow globs,
    rule-specific keys), passed verbatim to ``Rule.configure``.
    """

    paths: tuple[str, ...] = ("src",)
    rules: dict[str, dict] = field(default_factory=dict)
    root: Path = field(default_factory=Path.cwd)

    @classmethod
    def from_mapping(
        cls, data: Mapping[str, object], root: Path
    ) -> "ReplintConfig":
        cfg = cls(root=root)
        paths = data.get("paths")
        if paths is not None:
            if isinstance(paths, str):
                paths = [paths]
            cfg.paths = tuple(str(p) for p in paths)
        rules = data.get("rules", {})
        if not isinstance(rules, Mapping):
            raise ConfigError("[tool.replint.rules] must be a table")
        cfg.rules = {
            str(rule_id): dict(options)
            for rule_id, options in rules.items()
        }
        return cfg


def load_config(
    root: Path, pyproject: Optional[Path] = None
) -> ReplintConfig:
    """Read ``[tool.replint]`` from ``pyproject.toml`` under ``root``.

    A missing file or missing table yields the defaults — replint runs
    out of the box on an unconfigured tree.
    """
    path = pyproject or root / "pyproject.toml"
    if not path.is_file():
        return ReplintConfig(root=root)
    data = _load_toml(path)
    section = data.get("tool", {}).get("replint", {})
    if not isinstance(section, Mapping):
        raise ConfigError("[tool.replint] must be a table")
    return ReplintConfig.from_mapping(section, root=root)


def _load_toml(path: Path) -> dict:
    if _toml is not None:
        with path.open("rb") as fh:
            return _toml.load(fh)
    return _parse_minimal_toml(path.read_text())


# ---------------------------------------------------------------------------
# Dependency-free fallback (TOML subset; see module docstring)
# ---------------------------------------------------------------------------


_TABLE = re.compile(r"^\[(?P<name>[\w.\-\"]+)\]\s*$")
_KEYVAL = re.compile(r"^(?P<key>[\w\-\"]+)\s*=\s*(?P<value>.+)$")


def _parse_minimal_toml(text: str) -> dict:
    root: dict = {}
    current = root
    lines = iter(text.splitlines())
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[["):
            # array-of-tables ([[tool.mypy.overrides]] etc.): not part of
            # the replint subset — park keys in a throwaway table so they
            # cannot leak into a preceding [tool.replint*] section
            current = {}
            continue
        m = _TABLE.match(line)
        if m:
            current = root
            for part in m.group("name").split("."):
                current = current.setdefault(part.strip('"'), {})
            continue
        m = _KEYVAL.match(line)
        if m:
            value = m.group("value").strip()
            # multi-line array: keep consuming lines until every bracket
            # opened outside a string closes again; interior comment and
            # blank lines are dropped
            while _bracket_depth(value) > 0:
                nxt = next(lines, None)
                if nxt is None:
                    break
                nxt = nxt.strip()
                if not nxt or nxt.startswith("#"):
                    continue
                value += " " + nxt
            current[m.group("key").strip('"')] = _parse_value(value)
    return root


def _bracket_depth(value: str) -> int:
    """Net count of ``[`` not yet closed by ``]``, outside strings."""
    depth, quote = 0, ""
    for ch in value:
        if quote:
            if ch == quote:
                quote = ""
        elif ch in "\"'":
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
    return depth


def _parse_value(value: str):
    # strip a trailing comment outside of quotes (best effort: the
    # replint tables keep comments on their own lines)
    if value == "true":
        return True
    if value == "false":
        return False
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [
            _parse_value(v.strip())
            for v in _split_items(inner)
            if v.strip()  # tolerate the trailing comma of wrapped arrays
        ]
    if (value.startswith('"') and value.endswith('"')) or (
        value.startswith("'") and value.endswith("'")
    ):
        return value[1:-1]
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _split_items(inner: str) -> list[str]:
    items, depth, quote, start = [], 0, "", 0
    for i, ch in enumerate(inner):
        if quote:
            if ch == quote:
                quote = ""
        elif ch in "\"'":
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(inner[start:i])
            start = i + 1
    tail = inner[start:].strip()
    if tail:
        items.append(tail)
    return items
