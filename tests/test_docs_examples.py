"""The documentation must not rot: every Python block in
docs/walkthrough.md executes, every example script parses and shows
--help without crashing, and the drift and memory-timeline examples run
end to end."""

import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _python_blocks(markdown: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


def test_walkthrough_blocks_execute():
    doc = (ROOT / "docs" / "walkthrough.md").read_text()
    blocks = _python_blocks(doc)
    assert len(blocks) >= 5
    namespace: dict[str, object] = {}
    for i, block in enumerate(blocks):
        # shrink the expensive bits so the doc test stays fast
        block = block.replace("iterations=100", "iterations=8")
        block = block.replace('(32, 256)', '(8, 64)')
        block = block.replace(
            '("baseline", "sublinear", "dtr", "mimose")',
            '("baseline", "sublinear")',
        )
        block = block.replace(
            '"mimose", "sublinear"', '"sublinear", "baseline"'
        )
        try:
            exec(compile(block, f"walkthrough-block-{i}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - explicit failure path
            pytest.fail(f"walkthrough block {i} failed: {exc}\n{block}")


@pytest.mark.parametrize(
    "script",
    sorted(p.name for p in (ROOT / "examples").glob("*.py")),
)
def test_example_scripts_show_help(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()


@pytest.mark.parametrize("script,marker", [
    pytest.param("drift_replanning.py", "online refits",
                 id="drift_replanning.py"),
    pytest.param("memory_timeline.py", "peak", id="memory_timeline.py"),
])
def test_example_runs_end_to_end(script, marker):
    """The drift example asserts at least one online refit itself; the
    timeline example draws one curve per plan."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
    if script == "memory_timeline.py":
        assert proc.stdout.count("\n=== ") == 3


def test_examples_exist():
    names = {p.name for p in (ROOT / "examples").glob("*.py")}
    assert {
        "quickstart.py",
        "nlp_finetune.py",
        "object_detection.py",
        "custom_scheduler.py",
        "memory_timeline.py",
        "drift_replanning.py",
    } <= names
