"""The benchmark's own tests: smoke runs with every output check on.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_is_rendered_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == spec.render()


@pytest.mark.parametrize("workload", [name for name, _ in spec.WORKLOADS])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = run("--workload", workload, "--seed", "3", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert set(result["metrics"]) == {m[0] for m in wanted}
    for name, unit, *_ in wanted:
        assert result["metrics"][name]["unit"] == unit
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_changed_output_fails_the_run(tmp_path):
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    pins["chat"]["smoke"] = "0" * 16
    copy = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", copy / "src")
    shutil.copytree(ROOT / "fixtures", copy / "fixtures")
    shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    (copy / "perfbench" / "pins.json").write_text(json.dumps(pins), encoding="utf-8")
    done = run("--workload", "chat_http", "--smoke", cwd=copy)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("--workload", "ingest_8x", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
