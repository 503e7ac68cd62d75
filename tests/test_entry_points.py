"""The documented entry points run: every demo, the README library
quickstart, and every name the package exports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphmem

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_three_demos_found():
    assert [d.name for d in DEMOS] == [
        "evaluation_protocols.py",
        "memory_lifecycle.py",
        "retrieval_walkthrough.py",
    ]


def source_env():
    """The environment with ``src`` first on ``PYTHONPATH``."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_exits_zero(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=source_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_library_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines and lines[0].startswith("1 e")


def test_every_exported_name_resolves():
    missing = [name for name in graphmem.__all__ if not hasattr(graphmem, name)]
    assert missing == []
    assert len(set(graphmem.__all__)) == len(graphmem.__all__)


def test_cli_import_leaves_requests_unloaded():
    # graphmem depends on numpy alone; the HTTP provider posts with urllib.
    code = "import sys, graphmem.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=source_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
