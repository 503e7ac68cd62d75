"""The corpora the package ships are the files checked in under
``fixtures/``, reached through one copy."""

from importlib.resources import files
from pathlib import Path

import pytest

from graphmem import fixtures
from graphmem.harness import load_corpus

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_packaged_corpora_are_the_checked_in_directory():
    corpora = Path(str(files("graphmem") / "corpora"))
    assert corpora.resolve() == FIXTURE_DIR


@pytest.mark.parametrize("name", ["golden", "scaling", "smoke"])
def test_maker_loads_its_checked_in_pair(name):
    maker = getattr(fixtures, f"make_{name}_corpus")
    loaded = load_corpus(
        FIXTURE_DIR / f"{name}_turns.jsonl", FIXTURE_DIR / f"{name}_qa.jsonl"
    )
    assert maker() == loaded
