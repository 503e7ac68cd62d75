"""Replies from any provider, not only the bundled ones, are judged by the
engine step that uses them: an unusable reply degrades or aborts that step,
only typed errors escape, and every snapshot left behind saves and loads."""

import logging
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.config import EngineConfig
from graphmem.consolidation import score_relation
from graphmem.core import RELATION_LABELS, snapshot_hash
from graphmem.engine import MemoryEngine
from graphmem.errors import GraphMemError, ProviderParseError, ProviderTransportError
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
QUERY = "puppy leash interview"
THEME = "A short theme about pets."
DIM = EngineConfig().embedding_dim
#: A unit vector of half the configured dimension.
SHORT = [1.0] + [0.0] * (DIM // 2 - 1)
#: A vector whose first entry is an int no float holds.
HUGE = [10**400] + [0.0] * (DIM - 1)


class Reply:
    """A drawn reply that a provider returns as it is, even ``None``."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Reply({self.value!r})"


#: Relevance replies that are not real numbers, or that no float holds.
NOT_REAL = (Reply(None), "high", [0.5], True, 10**400)
#: Relation replies that are no (label, weight) pair of the right types.
BAD_RELATIONS = (
    None,
    "semantic",
    (["semantic"], 0.5),
    ("semantic", None),
    ("semantic", True),
    ("semantic", 10**400),
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
        return self.next()


class Summarizer(Cycle):
    """Answers the mock summary, a drawn replacement for its text, or a
    drawn :class:`SummaryResult` in its place."""

    def summarize(self, content):
        result = MockSummarizer().summarize(content)
        answer = self.next()
        if answer is None:
            return result
        if isinstance(answer, SummaryResult):
            return answer
        if isinstance(answer, Reply):
            return answer.value
        return SummaryResult(result.keywords, answer)


class RelationScorer(Cycle):
    def score(self, first, second):
        return self.next()


class RelevanceScorer(Cycle):
    """Answers the mock relevance, or a drawn replacement for it."""

    def score(self, query, text):
        value = self.next()
        if isinstance(value, Reply):
            return value.value
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


class TextEmbedder:
    """Answers the mock's unit vector, except for the texts in ``vectors``."""

    def __init__(self, vectors):
        self.vectors = vectors
        self.mock = MockEmbedder(DIM)
        self.dim = DIM

    def embed(self, text):
        vector = self.vectors.get(text)
        return self.mock.embed(text) if vector is None else np.array(vector)


class FailingRelevanceScorer:
    """Every relevance call fails, so every candidate degrades to cosine."""

    def score(self, query, text):
        raise ProviderTransportError("relevance service down")


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
        ranked = engine.query(QUERY)
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
        # Once committed a NaN embedding that could not be saved.  The query
        # gets the same vector, which it refuses.
        for value in (math.nan, math.inf):
            vector = [value] + [0.0] * (DIM - 1)
            embedder = Embedder([vector], DIM)
            engine, _ = run(tmp_path, ProviderParseError, embedder=embedder)
            assert not engine.snapshot.topic_graph.nodes

    def test_wrong_length_summary_embedding_commits_no_theme(self, tmp_path):
        # Once committed themes whose saved file failed to load (embedding-dim).
        engine, _ = run(tmp_path, ProviderParseError, embedder=Embedder([SHORT], DIM))
        assert not engine.snapshot.topic_graph.nodes
        assert len(engine.snapshot.buffer) == len(TURNS)

    @pytest.mark.parametrize(
        "reply",
        [
            SummaryResult((), None),
            SummaryResult(("pets",), 42),
            SummaryResult((1, 2), "A short theme about pets."),
            SummaryResult(None, "A short theme about pets."),
            Reply(None),
            Reply({"summary": THEME, "keywords": ("pets",)}),
        ],
        ids=[
            "none_summary",
            "int_summary",
            "int_keywords",
            "none_keywords",
            "none_reply",
            "dict_reply",
        ],
    )
    def test_summary_of_the_wrong_type_commits_no_theme(self, tmp_path, reply):
        # Once raised AttributeError from observe, or committed a theme whose
        # saved file failed to load (field-type); a reply without the two
        # fields (None, a dict) raised AttributeError.
        engine, _ = run(tmp_path, summarizer=Summarizer([reply]))
        assert not engine.snapshot.topic_graph.nodes
        assert len(engine.snapshot.buffer) == len(TURNS)

    @pytest.mark.parametrize("reply", [None, (0,), {0: 1}], ids=["none", "tuple", "dict"])
    def test_boundary_reply_not_a_list_falls_back(self, tmp_path, caplog, reply):
        # None once raised TypeError from observe.
        with caplog.at_level(logging.WARNING, logger="graphmem.boundary"):
            engine, _ = run(tmp_path, discriminator=Discriminator([reply]))
        assert "boundaries must be integers" in caplog.text
        assert engine.snapshot.topic_graph.nodes

    @pytest.mark.parametrize("vector", [[math.nan] * DIM, SHORT], ids=["nan", "short"])
    def test_query_embedding_must_be_finite_and_full_length(self, tmp_path, vector):
        # NaN once gave NaN scores when relevance scoring failed; a short
        # vector raised ValueError from the anchor's dot products.
        engine, _ = run(
            tmp_path,
            ProviderParseError,
            embedder=TextEmbedder({QUERY: vector}),
            relevance_scorer=FailingRelevanceScorer(),
        )
        assert engine.snapshot.topic_graph.nodes
        with pytest.raises(ProviderParseError, match="finite numbers"):
            engine.query(QUERY)

    @pytest.mark.parametrize(
        "vectors",
        [
            {TURNS[0][2]: [math.nan] * DIM},
            {QUERY: [1e300, -1e300] + [0.0] * (DIM - 2), TURNS[0][2]: [1e300] * DIM},
        ],
        ids=["nan_text", "overflowing_cosine"],
    )
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_degraded_path_refuses_a_non_finite_cosine(self, tmp_path, vectors):
        # Both once gave a NaN score.
        engine, _ = run(
            tmp_path,
            ProviderParseError,
            embedder=TextEmbedder(vectors),
            relevance_scorer=FailingRelevanceScorer(),
        )
        with pytest.raises(ProviderParseError):
            engine.query(QUERY)

    def test_summary_embedding_beyond_the_float_range_commits_no_theme(self, tmp_path):
        # Once raised OverflowError from observe.
        engine, _ = run(tmp_path, ProviderParseError, embedder=Embedder([HUGE], DIM))
        assert not engine.snapshot.topic_graph.nodes
        assert len(engine.snapshot.buffer) == len(TURNS)

    @pytest.mark.parametrize(
        "reply", NOT_REAL, ids=["none", "string", "list", "bool", "huge_int"]
    )
    def test_relevance_not_a_real_number_degrades_only_its_candidate(self, tmp_path, reply):
        # None, the string and the list once raised TypeError or ValueError
        # from query, True scored 1.0, and the int raised OverflowError.
        _, ranked = run(tmp_path, relevance_scorer=RelevanceScorer([reply, None]))
        assert len(ranked) == len(TURNS)
        assert sum(c.degraded for c in ranked) == len(TURNS) // 2

    @pytest.mark.parametrize("reply", [1, 0, np.float64(0.5), np.float32(0.25)])
    def test_int_and_numpy_relevance_accepted(self, tmp_path, reply):
        _, ranked = run(tmp_path, relevance_scorer=RelevanceScorer([reply]))
        assert ranked and not any(c.degraded for c in ranked)
        assert {c.p_sem for c in ranked} == {float(reply)}

    def test_non_finite_relevance_degrades_to_cosine(self, tmp_path):
        # Once returned NaN scores from query.
        for value in (math.nan, math.inf, -math.inf):
            _, ranked = run(tmp_path, relevance_scorer=RelevanceScorer([value]))
            assert ranked and all(c.degraded for c in ranked)


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
) | st.sampled_from([None, (0,), "0", 1])
summaries = st.one_of(
    st.sampled_from([None, "", "   ", THEME, 42]),
    st.sampled_from([Reply(None), Reply({"summary": THEME, "keywords": ("pets",)})]),
    st.builds(
        SummaryResult,
        keywords=st.sampled_from([("pets",), (), (1, 2), ("pets", None), None]),
        summary=st.sampled_from([THEME, None, 7.5]),
    ),
)
relations = st.tuples(
    st.sampled_from(sorted(RELATION_LABELS) + list(JUNK_LABELS)),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from(BAD_WEIGHTS)),
) | st.sampled_from(BAD_RELATIONS)
relevances = st.one_of(
    st.none(), st.floats(0.0, 1.0), st.sampled_from(BAD_RELEVANCE + NOT_REAL)
)
# A unit vector (the mock's, or the first basis vector), the zero vector, a
# NaN vector, a unit vector of the wrong dimension, or one with an int no
# float holds.
embeddings = st.sampled_from(
    [None, [1.0] + [0.0] * (DIM - 1), [0.0] * DIM, [math.nan] * DIM, SHORT, HUGE]
)


# Hypothesis's failure report imports a module that warns of its own
# deprecation; as an error it would hide the failing example.
@pytest.mark.filterwarnings("error", "ignore:mypy_extensions:DeprecationWarning")
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


class TestRelationReplies:
    """What ``score_relation`` makes of a relation scorer's reply."""

    @pytest.mark.parametrize(
        "reply",
        BAD_RELATIONS,
        ids=["none", "string", "list_label", "none_weight", "bool_weight", "huge_weight"],
    )
    def test_unusable_reply_scores_unrelated(self, reply, caplog):
        # Each once raised TypeError, ValueError or OverflowError from
        # consolidation, or (for True) scored a weight of 1.0.
        with caplog.at_level(logging.WARNING, logger="graphmem.consolidation"):
            result = score_relation("one", "two", RelationScorer([reply]))
        assert result == ("unrelated", 0.0)
        assert "relation scorer returned invalid" in caplog.text

    @pytest.mark.parametrize("weight", [1, 0, np.float64(0.5), 0.25])
    def test_real_weight_accepted(self, weight):
        label, scored = score_relation("one", "two", RelationScorer([("semantic", weight)]))
        assert (label, scored) == ("semantic", float(weight))
        assert type(scored) is float
