"""The synthetic corpora used by the tests, demos and CI runs.

Each corpus is a ``<name>_turns.jsonl``/``<name>_qa.jsonl`` pair in
``fixtures/``, installed as ``graphmem/corpora``.  The suite leans on two
properties of the data: every utterance of a topic contains that topic's
anchor word, and topic vocabularies are pairwise disjoint outside
stopwords, so the keyword discriminator detects exactly the planted shifts.
"""

from importlib.resources import as_file, files

from .harness import DialogueCorpus, load_corpus


def _packaged(name: str) -> DialogueCorpus:
    corpora = files("graphmem") / "corpora"
    with as_file(corpora / f"{name}_turns.jsonl") as turns:
        with as_file(corpora / f"{name}_qa.jsonl") as qa:
            return load_corpus(turns, qa)


def make_smoke_corpus() -> DialogueCorpus:
    """Single session, two topics, planted shift between turns 3 and 4."""
    return _packaged("smoke")


def make_golden_corpus() -> DialogueCorpus:
    """Three sessions, two topics each, ten QA items over planted facts."""
    return _packaged("golden")


def make_scaling_corpus() -> DialogueCorpus:
    """27 sessions, four topics each (ten cycled), 648 turns total."""
    return _packaged("scaling")
