"""Replies from any provider, not only the bundled ones, are judged by the
engine step that uses them: an unusable reply degrades or aborts that step,
only typed errors escape, and every snapshot left behind saves and loads."""

import logging
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.config import EngineConfig
from graphmem.core import RELATION_LABELS, snapshot_hash
from graphmem.engine import MemoryEngine
from graphmem.errors import GraphMemError
from graphmem.providers import (
    MockEmbedder,
    MockRelevanceScorer,
    MockSummarizer,
    SummaryResult,
    mock_bundle,
)
from graphmem.store import load, save

#: Two sessions, each with a topic shift, so every boundary check has a
#: buffer of several turns to cut and later consolidations meet earlier themes.
TURNS = (
    ("s1", "ana", "the puppy needs a new leash"),
    ("s1", "riley", "puppy leash and collar shopping"),
    ("s1", "ana", "my interview offer came in"),
    ("s2", "riley", "garden compost beds need turning"),
    ("s2", "ana", "compost and mulch for the garden"),
    ("s2", "riley", "the interview offer salary talk"),
)


class Cycle:
    """Answers from a fixed list of values, in call order, round and round."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.calls = 0

    def next(self):
        answer = self.answers[self.calls % len(self.answers)]
        self.calls += 1
        return answer


class Discriminator(Cycle):
    def detect(self, utterances):
        return list(self.next())


class Summarizer(Cycle):
    """Answers the mock summary, or a drawn replacement for it."""

    def summarize(self, content):
        result = MockSummarizer().summarize(content)
        summary = self.next()
        return result if summary is None else SummaryResult(result.keywords, summary)


class RelationScorer(Cycle):
    def score(self, first, second):
        return self.next()


class RelevanceScorer(Cycle):
    """Answers the mock relevance, or a drawn replacement for it."""

    def score(self, query, text):
        value = self.next()
        return MockRelevanceScorer().score(query, text) if value is None else value


class Embedder(Cycle):
    """Answers the mock's unit vector, or the drawn vector in its place."""

    def __init__(self, answers, dim):
        super().__init__(answers)
        self.dim = dim
        self.mock = MockEmbedder(dim)

    def embed(self, text):
        vector = self.next()
        return self.mock.embed(text) if vector is None else np.array(vector)


def run(tmp_path, refused=(), **providers):
    """Replay :data:`TURNS` over the mock bundle with ``providers`` swapped
    in, then query.  An error of a type in ``refused`` ends the run early;
    either way the snapshot must save and load to the same hash."""
    config = EngineConfig()
    bundle = mock_bundle(config)
    for name, provider in providers.items():
        setattr(bundle, name, provider)
    engine = MemoryEngine(bundle, config)
    ranked = []
    try:
        for session, speaker, text in TURNS:
            engine.observe(session, speaker, text)
        engine.end_session()
        ranked = engine.query("puppy leash interview")
    except refused:
        pass
    assert all(math.isfinite(c.score) and math.isfinite(c.p_sem) for c in ranked)
    path = Path(tmp_path) / "snapshot.json"
    save(engine.snapshot, path)
    assert snapshot_hash(load(path)) == snapshot_hash(engine.snapshot)
    return engine, ranked


class TestVerifiedReplies:
    def test_fractional_boundary_falls_back_to_the_heuristic(self, tmp_path, caplog):
        # Once took a fractional slice of the buffer: TypeError from observe.
        with caplog.at_level(logging.WARNING, logger="graphmem.boundary"):
            engine, _ = run(tmp_path, discriminator=Discriminator([[0.5]]))
        assert "boundaries must be integers" in caplog.text
        assert engine.snapshot.topic_graph.nodes

    def test_blank_summary_commits_no_theme(self, tmp_path):
        # Once committed a theme whose saved file failed to load.
        engine, _ = run(tmp_path, summarizer=Summarizer(["   "]))
        assert not engine.snapshot.topic_graph.nodes
        assert len(engine.snapshot.buffer) == len(TURNS)

    def test_empty_summary_after_a_theme_aborts_only_that_consolidation(self, tmp_path):
        # Once reached relation scoring: ValueError from observe.
        engine, _ = run(tmp_path, summarizer=Summarizer([None, ""]))
        assert len(engine.snapshot.topic_graph.nodes) == 1
        assert engine.snapshot.buffer

    def test_non_finite_summary_embedding_commits_no_theme(self, tmp_path):
        # Once committed a NaN embedding that could not be saved.
        for value in (math.nan, math.inf):
            vector = [value] + [0.0] * (EngineConfig().embedding_dim - 1)
            engine, _ = run(tmp_path, embedder=Embedder([vector], EngineConfig().embedding_dim))
            assert not engine.snapshot.topic_graph.nodes

    def test_non_finite_relevance_degrades_to_cosine(self, tmp_path):
        # Once returned NaN scores from query.
        for value in (math.nan, math.inf, -math.inf):
            _, ranked = run(tmp_path, relevance_scorer=RelevanceScorer([value]))
            assert ranked and all(c.degraded for c in ranked)


DIM = EngineConfig().embedding_dim
JUNK_LABELS = ("sideways", "", "SUPPORT", "related")
BAD_WEIGHTS = (math.nan, math.inf, -math.inf, -0.5, 1.5)
BAD_RELEVANCE = (math.nan, math.inf, -math.inf)

boundary_replies = st.lists(
    st.one_of(
        st.integers(-3, len(TURNS) + 3),
        st.floats(-2.0, 8.0),
        st.booleans(),
    ),
    max_size=4,
)
summaries = st.sampled_from([None, "", "   ", "A short theme about pets."])
relations = st.tuples(
    st.sampled_from(sorted(RELATION_LABELS) + list(JUNK_LABELS)),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from(BAD_WEIGHTS)),
)
relevances = st.one_of(st.none(), st.floats(0.0, 1.0), st.sampled_from(BAD_RELEVANCE))
# A unit vector (the mock's, or the first basis vector) or the zero vector.
# Embeddings of the wrong dimension are left out: only the HTTP embedder
# checks the dimension against the config.
embeddings = st.sampled_from([None, [1.0] + [0.0] * (DIM - 1), [0.0] * DIM])


@settings(max_examples=60, deadline=None)
@given(
    boundaries=st.lists(boundary_replies, min_size=1, max_size=3),
    summary_answers=st.lists(summaries, min_size=1, max_size=3),
    relation_answers=st.lists(relations, min_size=1, max_size=3),
    relevance_answers=st.lists(relevances, min_size=1, max_size=4),
    embedding_answers=st.lists(embeddings, min_size=1, max_size=4),
)
def test_any_reply_leaves_a_usable_snapshot(
    boundaries, summary_answers, relation_answers, relevance_answers, embedding_answers
):
    providers = {
        "discriminator": Discriminator(boundaries),
        "summarizer": Summarizer(summary_answers),
        "relation_scorer": RelationScorer(relation_answers),
        "relevance_scorer": RelevanceScorer(relevance_answers),
        "embedder": Embedder(embedding_answers, DIM),
    }
    with tempfile.TemporaryDirectory() as workdir:
        run(workdir, refused=GraphMemError, **providers)
