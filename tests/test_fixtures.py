"""The corpora checked in under ``fixtures/`` are exactly what their seeded
generators produce, so tests that read the files and tests that call the
generators see the same data."""

from pathlib import Path

import pytest

from graphmem.fixtures import FIXTURES, write_fixture_files
from graphmem.harness import load_corpus

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_generators_write_the_checked_in_files(tmp_path):
    written = write_fixture_files(tmp_path)
    checked_in = sorted(path.name for path in FIXTURE_DIR.glob("*.jsonl"))
    assert sorted(path.name for path in written) == checked_in
    for path in written:
        assert path.read_bytes() == (FIXTURE_DIR / path.name).read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_loaded_files_equal_the_generated_corpus(name):
    loaded = load_corpus(
        FIXTURE_DIR / f"{name}_turns.jsonl", FIXTURE_DIR / f"{name}_qa.jsonl"
    )
    assert loaded == FIXTURES[name]()
