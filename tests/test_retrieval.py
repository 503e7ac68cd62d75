import concurrent.futures
import logging
import math
import random
import sys
from dataclasses import asdict, fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem import retrieval
from graphmem.config import EngineConfig
from graphmem.core import (
    EventGraph,
    EventNode,
    Relation,
    TopicEdge,
    TopicGraph,
    Utterance,
    append_event,
    neighbors,
    new_snapshot,
    snapshot_bytes,
    snapshot_hash,
)
from graphmem.engine import MemoryEngine
from graphmem.errors import (
    CorruptionError,
    ProviderError,
    ProviderParseError,
    ProviderTransportError,
)
from graphmem.providers import mock_bundle, real_number
from graphmem.retrieval import (
    AnchorSet,
    CandidateEvent,
    IndicatorFlags,
    Query,
    RankedCandidate,
    anchor,
    drill_down,
    event_lookup,
    is_time_sensitive,
    rerank,
    retrieve,
    role_indicator,
    time_indicator,
)
from graphmem.store import checked_vector, load, save

from conftest import random_snapshot, unit_vector


def make_candidate(idx, text, speaker="ana", timestamp=None, flag=True):
    node = EventNode(
        f"e{idx:06d}", "s1", idx, speaker, text, timestamp, len(text.split()), flag
    )
    return CandidateEvent(node, "a000001", "t000001")


class MappedRelevance:
    """p_sem looked up by candidate text; the test owns the numbers."""

    def __init__(self, table, default=0.5):
        self.table = table
        self.default = default

    def score(self, query, text):
        return self.table.get(text, self.default)


@lru_cache(maxsize=None)
def small_engine():
    """One consolidated episode plus a live turn; queries only read it."""
    engine = MemoryEngine(mock_bundle())
    for i, text in enumerate(
        ("the garden compost pile", "we turned the soil in may", "riley planted tomatoes")
    ):
        engine.observe("s1", ("ana", "riley")[i % 2], text)
    engine.end_session()
    engine.observe("s2", "ana", "the rook guards the castle")
    return engine


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestQuery:
    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            Query("   ")

    @pytest.mark.parametrize("text", [None, 123, 1.5, b"garden", ["garden"], True])
    def test_rejects_text_that_is_not_a_str(self, text):
        with pytest.raises(ValueError, match="must be a str"):
            Query(text)

    def test_engine_query_refuses_none_with_a_value_error(self):
        # Once an AttributeError from reading ``None.text``.
        with pytest.raises(ValueError):
            small_engine().query(None)

    @settings(max_examples=150, deadline=None)
    @given(value=json_values)
    def test_only_value_errors_escape_the_engine_query(self, value):
        try:
            ranked = small_engine().query(value)
        except ValueError:
            return
        assert type(value) is str and all(type(c) is RankedCandidate for c in ranked)

    def test_ranked_candidate_exposes_all_components(self, golden_snapshot):
        snap, _, providers = golden_snapshot
        ranked = retrieve(snap, Query("garden compost soil"), providers)
        payload = asdict(ranked[0])
        assert set(payload) == {
            "event_node_id",
            "source_archive_id",
            "anchor_topic_id",
            "p_sem",
            "indicators",
            "score",
            "rank",
            "degraded",
        }
        assert set(payload["indicators"]) == {"time", "conf", "role"}


class TestAnchor:
    def test_fewer_nodes_than_k_returns_all_as_seeds(self):
        rng = random.Random(1)
        snap = random_snapshot(rng, 3, edge_probability=0.0)
        result = anchor(snap.topic_graph, np.asarray(unit_vector(rng, 64)), 10)
        assert sorted(s for s, _ in result.seeds) == ["t000001", "t000002", "t000003"]
        assert result.expansions == ()

    def test_chain_expands_one_hop(self):
        rng = random.Random(2)
        snap = random_snapshot(rng, 3, edge_probability=0.0)
        graph = snap.topic_graph
        edges = {
            ("t000001", "t000002"): TopicEdge(
                "t000001", "t000002", Relation.SEMANTIC, 0.9
            ),
            ("t000002", "t000003"): TopicEdge(
                "t000002", "t000003", Relation.SEMANTIC, 0.9
            ),
        }
        graph = TopicGraph(graph.nodes, edges)
        query = np.asarray(graph.nodes["t000001"].embedding)
        result = anchor(graph, query, 1)
        assert [s for s, _ in result.seeds] == ["t000001"]
        assert result.expansions == ("t000002",)
        assert set(result.ids) == {"t000001", "t000002"}

    def test_matches_brute_force_oracle_on_random_graphs(self):
        rng = random.Random(3)
        for trial in range(10):
            snap = random_snapshot(rng, 50 + trial * 15, edge_probability=0.02)
            graph = snap.topic_graph
            query = np.asarray(unit_vector(rng, 64))
            result = anchor(graph, query, 10)
            scored = [
                (tid, float(np.dot(np.asarray(n.embedding), query)))
                for tid, n in graph.nodes.items()
            ]
            scored.sort(key=lambda p: (-p[1], p[0]))
            seeds = scored[:10]
            seed_ids = {s for s, _ in seeds}
            expected_expansion = set()
            for seed in seed_ids:
                expected_expansion |= neighbors(graph, seed)
            expected_expansion -= seed_ids
            assert list(result.seeds) == seeds
            assert set(result.expansions) == expected_expansion

    def test_superset_of_seed_set(self):
        rng = random.Random(4)
        snap = random_snapshot(rng, 40, edge_probability=0.05)
        result = anchor(snap.topic_graph, np.asarray(unit_vector(rng, 64)), 5)
        assert set(result.ids) >= {s for s, _ in result.seeds}

    def test_empty_graph_yields_empty_set(self):
        result = anchor(TopicGraph(), np.eye(64)[0], 10)
        assert result.ids == ()


class TestDrillDown:
    def test_single_anchor_pulls_its_whole_archive(self):
        snap = random_snapshot(random.Random(5), 4, events_per_archive=4)
        result = drill_down(snap, AnchorSet((), ("t000002",)))
        assert len(result) == 4
        assert {c.source_archive_id for c in result} == {"a000002"}
        assert {c.anchor_topic_id for c in result} == {"t000002"}

    def test_disjoint_archives_union(self):
        snap = random_snapshot(random.Random(6), 4, events_per_archive=3)
        big = dict(snap.archive)
        result = drill_down(snap, AnchorSet((), ("t000001", "t000003")))
        assert len(result) == 6
        assert {c.node.id for c in result} == {
            n.id for a in ("a000001", "a000003") for n in big[a].nodes
        }

    def test_duplicate_anchors_do_not_duplicate_candidates(self):
        snap = random_snapshot(random.Random(7), 3, events_per_archive=3)
        result = drill_down(snap, AnchorSet((), ("t000002", "t000002", "t000001")))
        ids = [c.node.id for c in result]
        assert len(ids) == len(set(ids)) == 6

    def test_matches_set_union_oracle(self):
        rng = random.Random(8)
        snap = random_snapshot(rng, 60, events_per_archive=3)
        chosen = [f"t{i:06d}" for i in rng.sample(range(1, 61), 20)]
        result = drill_down(snap, AnchorSet((), tuple(chosen)))
        expected = set()
        for tid in chosen:
            expected |= {n.id for n in snap.archive[snap.cross_index[tid]].nodes}
        assert {c.node.id for c in result} == expected

    def test_provenance_is_smallest_anchor_id(self):
        snap = random_snapshot(random.Random(9), 3)
        result = drill_down(snap, AnchorSet((), ("t000003", "t000001")))
        for candidate in result:
            archive = snap.cross_index[candidate.anchor_topic_id]
            assert candidate.source_archive_id == archive

    def test_unknown_anchor_rejected(self):
        snap = random_snapshot(random.Random(10), 2)
        with pytest.raises(ValueError):
            drill_down(snap, AnchorSet((), ("t999999",)))

    def test_dangling_cross_link_is_corruption(self):
        snap = random_snapshot(random.Random(11), 2)
        topic = snap.topic_graph.nodes["t000002"]
        nodes = dict(snap.topic_graph.nodes)
        nodes["t000002"] = replace(topic, source_archive_id="a999999")
        broken = replace(snap, topic_graph=replace(snap.topic_graph, nodes=nodes))
        with pytest.raises(CorruptionError):
            drill_down(broken, AnchorSet((), ("t000002",)))


class TestIndicators:
    def test_non_time_sensitive_query_zeroes_everything(self):
        query = Query("What color is the car?")
        candidate = EventNode("e1", "s1", 0, "ana", "the car was red last june", "2026-01-01", 6)
        assert time_indicator(is_time_sensitive(query), candidate) == 0

    def test_temporal_query_and_candidate(self):
        query = Query("When did Alice adopt the dog?")
        candidate = EventNode(
            "e1", "s1", 0, "alice", "Alice adopted Max last Tuesday", None, 5
        )
        from graphmem.retrieval import TEMPORAL_RE

        assert TEMPORAL_RE.search(candidate.text)  # oracle: regex hits "last Tuesday"
        assert time_indicator(is_time_sensitive(query), candidate) == 1

    def test_candidate_without_temporal_signal(self):
        query = Query("When did Alice adopt the dog?")
        candidate = EventNode("e1", "s1", 0, "alice", "the dog is fluffy", None, 4)
        assert time_indicator(is_time_sensitive(query), candidate) == 0

    def test_timestamp_counts_as_temporal_metadata(self):
        query = Query("When did it happen?")
        candidate = EventNode("e1", "s1", 0, "ana", "it happened quietly", "2026-02-02T10:00:00", 3)
        assert time_indicator(is_time_sensitive(query), candidate) == 1

    def test_explicit_override_wins(self):
        query = Query("tell me about the car", time_sensitive=True)
        candidate = EventNode("e1", "s1", 0, "ana", "bought in 2019", None, 3)
        assert time_indicator(is_time_sensitive(query), candidate) == 1
        overridden = replace(query, time_sensitive=False)
        assert time_indicator(is_time_sensitive(overridden), candidate) == 0

    def test_role_speaker_mentioned_in_query(self):
        candidate = EventNode("e1", "s1", 0, "Bob", "i like soup", None, 3)
        assert role_indicator("what did bob say", candidate) == 1
        assert role_indicator("what was said", candidate) == 0

    def test_role_matches_containment_oracle_on_multiparty_fixture(self):
        speakers = ["ana", "riley", "jordan", "sam"]
        query = Query("did ana or jordan mention the plan")
        vector = []
        for i, speaker in enumerate(speakers * 3):
            candidate = EventNode(f"e{i}", "s1", i, speaker, "the plan", None, 2)
            vector.append(role_indicator(query.text.lower(), candidate))
        expected = [
            1 if s.lower() in query.text.lower() else 0 for s in speakers * 3
        ]
        assert vector == expected

    def test_conf_flag_reads_the_node_flag(self):
        flagged = make_candidate(1, "text", flag=True)
        unflagged = make_candidate(2, "text", flag=False)
        config = EngineConfig()
        ranked = rerank(Query("anything"), [flagged, unflagged], mock_bundle(config), config)
        assert {c.event_node_id: c.indicators.conf for c in ranked} == {
            "e000001": 1,
            "e000002": 0,
        }


class TestRerank:
    def setup_method(self):
        self.config = EngineConfig()
        self.bundle = mock_bundle(self.config)

    def test_all_indicators_zero_preserves_p_sem_order(self):
        table = {"first text": 0.9, "second text": 0.5, "third text": 0.7}
        self.bundle.relevance_scorer = MappedRelevance(table)
        candidates = [
            make_candidate(1, "first text", flag=False),
            make_candidate(2, "second text", flag=False),
            make_candidate(3, "third text", flag=False),
        ]
        ranked = rerank(Query("anything"), candidates, self.bundle, self.config)
        assert [c.event_node_id for c in ranked] == ["e000001", "e000003", "e000002"]
        assert [c.rank for c in ranked] == [1, 2, 3]
        assert all(c.score == c.p_sem for c in ranked)

    def test_role_boost_arithmetic(self):
        table = {"spoken by bob": 0.5, "spoken by carol": 0.5}
        self.bundle.relevance_scorer = MappedRelevance(table)
        candidates = [
            make_candidate(1, "spoken by carol", speaker="carol", flag=False),
            make_candidate(2, "spoken by bob", speaker="bob", flag=False),
        ]
        ranked = rerank(Query("what did bob say"), candidates, self.bundle, self.config)
        assert ranked[0].event_node_id == "e000002"
        assert ranked[0].score == pytest.approx(0.7, abs=1e-12)
        assert ranked[1].score == pytest.approx(0.5, abs=1e-12)

    def test_fifty_random_candidates_match_brute_force(self):
        rng = random.Random(77)
        candidates = []
        table = {}
        for i in range(50):
            text = f"candidate text number {i}"
            table[text] = round(rng.random(), 6)
            candidates.append(
                make_candidate(
                    i + 1,
                    text,
                    speaker=("bob", "carol")[rng.randrange(2)],
                    timestamp="2026-01-01T00:00:00" if rng.random() < 0.5 else None,
                    flag=rng.random() < 0.5,
                )
            )
        self.bundle.relevance_scorer = MappedRelevance(table)
        query = Query("when did bob do it", time_sensitive=True)
        ranked = rerank(Query(query.text, time_sensitive=True), candidates, self.bundle, self.config, k=50)

        # independent re-evaluation of the multiplicative form
        from graphmem.retrieval import TEMPORAL_RE

        expected = []
        for candidate in candidates:
            node = candidate.node
            p = table[node.text]
            t = 1 if (TEMPORAL_RE.search(node.text) or node.timestamp) else 0
            c = 1 if node.confidence_flag else 0
            r = 1 if node.speaker in query.text else 0
            score = p * 1.4**t * 1.2**c * 1.4**r
            expected.append((node.id, score))
        expected.sort(key=lambda pair: (-pair[1], -int(pair[0][1:]), pair[0]))
        assert [c.event_node_id for c in ranked] == [i for i, _ in expected]
        for got, (_, want) in zip(ranked, expected):
            assert abs(got.score - want) <= 1e-12

    def test_ties_resolve_to_more_recent_then_smaller_id(self):
        table = {"same text a": 0.5, "same text b": 0.5}
        self.bundle.relevance_scorer = MappedRelevance(table)
        candidates = [
            make_candidate(3, "same text a", flag=False),
            make_candidate(9, "same text b", flag=False),
        ]
        ranked = rerank(Query("nothing shared"), candidates, self.bundle, self.config)
        assert [c.event_node_id for c in ranked] == ["e000009", "e000003"]

    def test_top_k_cut(self):
        table = {f"text {i}": (i + 1) / 20 for i in range(12)}
        self.bundle.relevance_scorer = MappedRelevance(table)
        candidates = [make_candidate(i + 1, f"text {i}", flag=False) for i in range(12)]
        ranked = rerank(Query("q"), candidates, self.bundle, self.config)
        assert len(ranked) == self.config.retrieval_k
        assert [c.rank for c in ranked] == list(range(1, 11))

    def test_identity_when_all_betas_are_one(self):
        config = EngineConfig(beta_time=1.0, beta_role=1.0, beta_conf=1.0)
        bundle = mock_bundle(config)
        rng = random.Random(5)
        table = {}
        candidates = []
        for i in range(30):
            text = f"mixed flags text {i}"
            table[text] = round(rng.random(), 6)
            candidates.append(
                make_candidate(
                    i + 1,
                    text,
                    speaker="bob",
                    timestamp="2026-01-01" if rng.random() < 0.5 else None,
                    flag=rng.random() < 0.5,
                )
            )
        bundle.relevance_scorer = MappedRelevance(table)
        ranked = rerank(
            Query("when did bob go", time_sensitive=True), candidates, bundle, config, k=30
        )
        by_p_sem = sorted(
            candidates,
            key=lambda c: (-table[c.node.text], -int(c.node.id[1:]), c.node.id),
        )
        assert [c.event_node_id for c in ranked] == [c.node.id for c in by_p_sem]

    def test_raising_one_beta_never_demotes_the_flagged_candidate(self):
        for beta in (1.1, 1.5, 2.0):
            config = EngineConfig(beta_role=beta, beta_time=1.0, beta_conf=1.0)
            bundle = mock_bundle(config)
            table = {"spoken by bob": 0.4, "spoken by carol": 0.4}
            bundle.relevance_scorer = MappedRelevance(table)
            candidates = [
                make_candidate(1, "spoken by carol", speaker="carol", flag=False),
                make_candidate(2, "spoken by bob", speaker="bob", flag=False),
            ]
            ranked = rerank(Query("ask bob"), candidates, bundle, config)
            assert ranked[0].event_node_id == "e000002"

    def test_degraded_fallback_uses_embedding_cosine(self):
        class Broken:
            def score(self, query, text):
                raise ProviderError("offline")

        self.bundle.relevance_scorer = Broken()
        candidates = [make_candidate(1, "garden soil compost", flag=False)]
        ranked = rerank(Query("garden soil"), candidates, self.bundle, self.config)
        assert ranked[0].degraded
        emb = self.bundle.embedder
        cosine = float(np.dot(emb.embed("garden soil"), emb.embed("garden soil compost")))
        assert ranked[0].p_sem == pytest.approx(max(cosine, 0.01))


class TextReplies:
    """Answers a drawn reply per candidate text; a ``ProviderError`` reply is
    raised by ``score``."""

    def __init__(self, table):
        self.table = table

    def score(self, query, text):
        reply = self.table[text]
        if isinstance(reply, ProviderError):
            raise reply
        return reply


class BatchReplies(TextReplies):
    """The same replies as one batch, a ``ProviderError`` returned as its
    item; ``mode`` breaks the whole batch."""

    def __init__(self, table, mode):
        super().__init__(table)
        self.mode = mode

    def score_many(self, query, texts):
        replies = [self.table[text] for text in texts]
        if self.mode == "raises":
            raise ProviderTransportError("batch endpoint down")
        if self.mode == "short":
            return replies[:-1]
        if self.mode == "long":
            return replies + [0.5]
        if self.mode == "tuple":
            return tuple(replies)
        return replies


relevance_replies = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from((math.nan, math.inf, -math.inf, ProviderTransportError("down"))),
)


@st.composite
def scored_candidates(draw):
    replies = draw(st.lists(relevance_replies, max_size=12))
    order = draw(st.permutations(range(1, len(replies) + 1)))
    candidates = [
        make_candidate(
            idx,
            f"note {idx} about the garden {('rook', 'soil', 'may')[idx % 3]}",
            speaker=draw(st.sampled_from(("bob", "carol"))),
            timestamp=draw(st.sampled_from((None, "2026-01-01T00:00:00"))),
            flag=draw(st.booleans()),
        )
        for idx in order
    ]
    return candidates, {c.node.text: r for c, r in zip(candidates, replies)}


class TestRelevanceBatch:
    """A batch scorer ranks exactly like one answering the same items one
    call at a time; a broken batch fails every item."""

    @settings(max_examples=80, deadline=None)
    @given(
        drawn=scored_candidates(),
        mode=st.sampled_from(("list", "raises", "short", "long", "tuple")),
        query=st.sampled_from(("what did bob plant", "when was the garden soil turned")),
        k=st.one_of(st.none(), st.integers(1, 14)),
    )
    def test_batch_equals_single_calls(self, drawn, mode, query, k):
        candidates, table = drawn
        config = EngineConfig()
        batch_bundle, single_bundle = mock_bundle(config), mock_bundle(config)
        batch_bundle.relevance_scorer = BatchReplies(table, mode)
        if mode != "list":
            table = {text: ProviderTransportError("batch failed") for text in table}
        single_bundle.relevance_scorer = TextReplies(table)
        got = rerank(Query(query), candidates, batch_bundle, config, k)
        assert got == rerank(Query(query), candidates, single_bundle, config, k)
        for ranked in got:
            reply = table[next(c.node.text for c in candidates if c.node.id == ranked.event_node_id)]
            finite = not isinstance(reply, ProviderError) and math.isfinite(reply)
            assert ranked.degraded is not finite

    def test_equal_flags_are_one_shared_object(self):
        candidates = [make_candidate(i, f"plain text {i}", flag=False) for i in range(1, 4)]
        ranked = rerank(Query("anything"), candidates, mock_bundle(), EngineConfig())
        assert len({id(c.indicators) for c in ranked}) == 1


class FailingRelevance:
    def score(self, query, text):
        raise ProviderTransportError("relevance service down")


class RecordingEmbedder:
    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        return self.inner.embed(text)


class TestRetrievePipeline:
    def test_degraded_query_embeds_the_query_once(self, golden_snapshot):
        # The degraded path once embedded the query a second time.
        snap, _, _ = golden_snapshot
        bundle = mock_bundle(snap.config)
        bundle.embedder = RecordingEmbedder(bundle.embedder)
        bundle.relevance_scorer = FailingRelevance()
        question = "which tomato seedlings are in the garden greenhouse"
        ranked = retrieve(snap, Query(question), bundle)
        assert ranked and all(c.degraded for c in ranked)
        assert bundle.embedder.texts.count(question) == 1
        assert len(bundle.embedder.texts) > len(ranked)

    def test_read_only(self, golden_snapshot):
        snap, _, providers = golden_snapshot
        before = snapshot_hash(snap)
        retrieve(snap, Query("which tomato seedlings are in the garden greenhouse"), providers)
        assert snapshot_hash(snap) == before

    def test_empty_topic_graph_falls_back_to_live_buffer(self, bundle):
        snap = new_snapshot()
        snap = append_event(snap, Utterance("s1", "ana", "the garden compost pile"))
        ranked = retrieve(snap, Query("garden compost"), bundle)
        assert [c.event_node_id for c in ranked] == ["e000001"]
        assert ranked[0].anchor_topic_id == "live"

    def test_empty_everything_returns_no_results(self, bundle):
        assert retrieve(new_snapshot(), Query("anything"), bundle) == []

    def test_live_buffer_competes_with_archives(self, golden_snapshot):
        snap, _, providers = golden_snapshot
        assert len(snap.buffer) > 0  # the final chess segment stays live
        ranked = retrieve(
            snap, Query("what did riley say about the chess rook castling"), providers
        )
        lookup = event_lookup(snap)
        top_turns = {
            (lookup[c.event_node_id].session_id, lookup[c.event_node_id].turn_index)
            for c in ranked
        }
        assert ("s3", 13) in top_turns

    def test_event_lookup_covers_archives_and_buffer(self, golden_snapshot):
        snap, _, _ = golden_snapshot
        lookup = event_lookup(snap)
        total = len(snap.buffer) + sum(len(g) for g in snap.archive.values())
        assert len(lookup) == total

    def test_parallel_reads_over_one_snapshot_agree(self, golden_snapshot):
        import concurrent.futures

        snap, _, providers = golden_snapshot
        questions = [item_q for item_q in (
            "which tomato seedlings are in the garden greenhouse",
            "was the quasar from the telescope observatory",
            "when was the passport ferry boarding at the customs",
            "what is with the garden soil from the mulch harvest",
        )]

        def run(question):
            return [
                (c.event_node_id, c.score)
                for c in retrieve(snap, Query(question), providers)
            ]

        sequential = [run(q) for q in questions]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):
                parallel = list(pool.map(run, questions))
                assert parallel == sequential


class CountingRelevance:
    def __init__(self):
        self.calls = 0

    def score(self, query, text):
        self.calls += 1
        return 0.5


class TestTopK:
    """A ``k`` below 1 is refused before any model is asked."""

    @pytest.mark.parametrize("k", [0, -1])
    def test_rerank_refuses_k_below_one_before_scoring(self, k):
        # Once k=0 scored every candidate and returned [], and k=-1 sliced
        # off the last candidate.
        config = EngineConfig()
        bundle = mock_bundle(config)
        bundle.relevance_scorer = CountingRelevance()
        candidates = [make_candidate(i, f"buffered turn {i}") for i in range(1, 6)]
        with pytest.raises(ValueError, match="k must be >= 1"):
            rerank(Query("anything"), candidates, bundle, config, k)
        assert bundle.relevance_scorer.calls == 0

    @pytest.mark.parametrize("k", [0, -1])
    def test_retrieve_refuses_k_below_one_before_embedding(self, golden_snapshot, k):
        snap, _, _ = golden_snapshot
        bundle = mock_bundle(snap.config)
        bundle.embedder = RecordingEmbedder(bundle.embedder)
        with pytest.raises(ValueError, match="k must be >= 1"):
            retrieve(snap, Query("garden compost"), bundle, k)
        assert bundle.embedder.texts == []

    def test_engine_query_records_no_call_for_k_zero(self):
        engine = small_engine()
        before = len(engine.providers.call_log)
        with pytest.raises(ValueError, match="k must be >= 1"):
            engine.query("garden compost", k=0)
        assert len(engine.providers.call_log) == before


def reference_rerank(query, candidates, providers, config, k=None, *, query_vector=None):
    """The per-candidate re-rank loop that the columnar ``rerank`` replaced,
    kept as its oracle."""
    if k is None:
        k = config.retrieval_k
    replies = retrieval.relevance_replies(
        providers.relevance_scorer, query.text, [c.node.text for c in candidates]
    )
    time_sensitive = is_time_sensitive(query)
    lowered_query = query.text.lower()
    rows = []
    for position, (candidate, reply) in enumerate(zip(candidates, replies)):
        node = candidate.node
        p_sem = reply if type(reply) is float else real_number(reply)
        degraded = not math.isfinite(p_sem)
        if degraded:
            failure = reply
            if not isinstance(reply, ProviderError):
                kind = type(reply).__name__
                failure = ProviderParseError(f"relevance {p_sem} ({kind}) is not finite")
            logging.getLogger("graphmem.retrieval").warning(
                "relevance scoring failed for %s (%s); degrading to cosine",
                node.id,
                failure,
            )
            embed, dim = providers.embedder.embed, config.embedding_dim
            if query_vector is None:
                query_vector = checked_vector(embed(query.text), dim)
            text_vector = checked_vector(embed(node.text), dim)
            cosine = float(np.dot(query_vector, text_vector))
            if not math.isfinite(cosine):
                raise ProviderParseError(f"non-finite cosine {cosine}") from failure
            p_sem = max(cosine, 0.01)
        p_sem = min(max(p_sem, 0.0), 1.0)
        t = time_indicator(time_sensitive, node)
        c = int(node.confidence_flag)
        r = role_indicator(lowered_query, node)
        score = p_sem * config.beta_time**t * config.beta_conf**c * config.beta_role**r
        rows.append((-score, -int(node.id[1:]), node.id, position, p_sem, degraded, (t, c, r)))
    rows.sort()
    return [
        RankedCandidate(
            event_node_id=node_id,
            source_archive_id=candidates[position].source_archive_id,
            anchor_topic_id=candidates[position].anchor_topic_id,
            p_sem=p_sem,
            indicators=IndicatorFlags(*flags),
            score=-negative_score,
            rank=rank,
            degraded=degraded,
        )
        for rank, (negative_score, _, node_id, position, p_sem, degraded, flags) in enumerate(
            rows[:k], 1
        )
    ]


class DrawnReplies:
    """Answers the drawn replies in order: one per ``score`` call (a
    ``ProviderError`` is raised), or all at once from ``score_many`` when
    ``mode`` names a batch shape."""

    def __init__(self, replies, mode):
        self.replies = list(replies)
        self.mode = mode
        if mode != "single":
            self.score_many = self._score_many

    def score(self, query, text):
        reply = self.replies.pop(0)
        if isinstance(reply, ProviderError):
            raise reply
        return reply

    def _score_many(self, query, texts):
        if self.mode == "raises":
            raise ProviderTransportError("batch endpoint down")
        if self.mode == "short":
            return self.replies[:-1]
        if self.mode == "long":
            return self.replies + [0.5]
        return list(self.replies)


class WarningCount(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


oracle_replies = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from((0.0, -0.0, 0.5, 1.0, 0.25)),
    st.integers(-2, 3),
    st.just(10**400),
    st.floats(-0.5, 1.5).map(np.float64),
    st.booleans(),
    st.sampled_from((None, "0.7", "", math.nan, math.inf, -math.inf)),
    st.just(ProviderTransportError("down")),
)


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(0, 10))
    candidates = [
        CandidateEvent(
            EventNode(
                # Repeated numbers make equal creation orders and equal nodes.
                id=f"e{draw(st.integers(1, 8)):06d}",
                session_id="s1",
                turn_index=0,
                speaker=draw(st.sampled_from(("", "bob", "Bob", "BOB", "carol", "Carol "))),
                text=f"note about the {draw(st.sampled_from(('rook', 'soil', 'may', 'yesterday', '2019', 'bob')))}",
                timestamp=draw(st.sampled_from((None, "", "2026-01-01T00:00:00"))),
                token_count=4,
                confidence_flag=draw(st.booleans()),
            ),
            draw(st.sampled_from(("a000001", "a000002", "live"))),
            draw(st.sampled_from(("t000001", "t000002", "live"))),
        )
        for _ in range(n)
    ]
    replies = draw(st.lists(oracle_replies, min_size=n, max_size=n))
    query = Query(
        draw(st.sampled_from(
            ("what did bob plant", "when did carol visit", "garden notes", "Bob and Carol  on 12/05")
        )),
        time_sensitive=draw(st.sampled_from((None, True, False))),
    )
    betas = [draw(st.sampled_from((1.0, 1.2, 1.4, 2.0))) for _ in range(3)]
    config = EngineConfig(beta_time=betas[0], beta_conf=betas[1], beta_role=betas[2])
    mode = draw(st.sampled_from(("single", "list", "raises", "short", "long")))
    return query, candidates, replies, config, mode, draw(st.integers(1, n + 2)), draw(st.booleans())


class TestColumnarRerank:
    """``rerank`` scores columns; it must rank exactly like the per-candidate
    loop it replaced, down to the bits of every score and the order of every
    embedding call on the degraded path."""

    @staticmethod
    def run(ranker, query, candidates, replies, config, mode, k, give_vector):
        bundle = mock_bundle(config)
        bundle.relevance_scorer = DrawnReplies(replies, mode)
        bundle.embedder = RecordingEmbedder(bundle.embedder)
        vector = None
        if give_vector:
            vector = checked_vector(mock_bundle(config).embedder.embed(query.text), 64)
        warnings = WarningCount()
        logger = logging.getLogger("graphmem.retrieval")
        logger.addHandler(warnings)
        try:
            ranked = ranker(query, candidates, bundle, config, k, query_vector=vector)
        finally:
            logger.removeHandler(warnings)
        shown = [
            tuple(repr(getattr(c, f.name)) for f in fields(RankedCandidate)) for c in ranked
        ]
        return shown, warnings.count, bundle.call_log.entries(), bundle.embedder.texts

    @settings(max_examples=300, deadline=None)
    @given(case=oracle_cases())
    def test_matches_the_per_candidate_loop(self, case):
        # repr tells -0.0 from 0.0 and a numpy float from a float.
        assert self.run(rerank, *case) == self.run(reference_rerank, *case)


def fresh_drill_down(snapshot, anchors):
    """``drill_down`` as it was before archives cached their candidates:
    every call builds new candidates, deduplicated by event id."""
    candidates, seen = [], set()
    for anchor_id in sorted(anchors.ids):
        archive_id = snapshot.topic_graph.nodes[anchor_id].source_archive_id
        for node in snapshot.archive[archive_id].nodes:
            if node.id not in seen:
                seen.add(node.id)
                candidates.append(CandidateEvent(node, archive_id, anchor_id))
    return candidates


def anchor_sets(snapshot, rng, count=12):
    """Drawn subsets of the theme ids, from one anchor to all of them."""
    ids = sorted(snapshot.topic_graph.nodes)
    return [
        AnchorSet((), tuple(rng.sample(ids, rng.randint(1, len(ids)))))
        for _ in range(count)
    ] + [AnchorSet((), tuple(ids))]


def assert_drill_down_matches_a_fresh_build(snapshot, rng):
    for anchors in anchor_sets(snapshot, rng):
        assert drill_down(snapshot, anchors) == fresh_drill_down(snapshot, anchors)


QUESTIONS = (
    "which tomato seedlings are in the garden greenhouse",
    "what did riley say about the chess rook castling",
    "when was the passport ferry boarding at the customs",
)


class TestCachedCandidates:
    """A frozen archive keeps the candidates it yields as a derived value;
    drill-down over it must equal a fresh, uncached build."""

    def test_forks_sharing_archives_match_a_fresh_build(self, golden_snapshot):
        parent, _, _ = golden_snapshot
        forks = []
        for topic in ("the new telescope mirror arrived", "our puppy chewed the leash"):
            engine = MemoryEngine(mock_bundle(parent.config), snapshot=parent)
            for i in range(4):
                engine.observe("fork", ("ana", "riley")[i % 2], f"{topic} part {i}")
            engine.end_session()
            forks.append(engine.snapshot)
        for archive_id, graph in parent.archive.items():
            assert all(fork.archive[archive_id] is graph for fork in forks)
        rng = random.Random(41)
        for snapshot in (*forks, parent, *forks):
            for question in QUESTIONS:
                retrieve(snapshot, Query(question), mock_bundle(snapshot.config))
            assert_drill_down_matches_a_fresh_build(snapshot, rng)

    def test_a_loaded_copy_matches_a_fresh_build(self, golden_snapshot, tmp_path):
        snapshot, _, providers = golden_snapshot
        retrieve(snapshot, Query(QUESTIONS[0]), providers)
        save(snapshot, tmp_path / "copy.json")
        loaded = load(tmp_path / "copy.json")
        assert all(g.candidates is None for g in loaded.archive.values())
        rng = random.Random(42)
        for _ in range(2):
            assert_drill_down_matches_a_fresh_build(loaded, rng)
            assert retrieve(loaded, Query(QUESTIONS[1]), providers) == retrieve(
                snapshot, Query(QUESTIONS[1]), providers
            )

    def test_two_themes_over_one_archive_keep_the_smaller_anchor(self):
        snapshot = random_snapshot(random.Random(43), 3)
        nodes = dict(snapshot.topic_graph.nodes)
        nodes["t000004"] = replace(nodes["t000002"], id="t000004")
        snapshot = replace(snapshot, topic_graph=TopicGraph(nodes, snapshot.topic_graph.edges))
        for ids in (("t000004",), ("t000004", "t000002"), ("t000004",), ("t000003", "t000004")):
            anchors = AnchorSet((), ids)
            got = drill_down(snapshot, anchors)
            assert got == fresh_drill_down(snapshot, anchors)
            assert {c.anchor_topic_id for c in got if c.source_archive_id == "a000002"} == {
                min(ids) if "t000002" in ids else "t000004"
            }
        again = drill_down(snapshot, AnchorSet((), ("t000003",)))
        assert drill_down(snapshot, AnchorSet((), ("t000003",)))[0] is again[0]

    def test_threads_over_one_snapshot_match_a_fresh_build(self):
        snapshot = random_snapshot(random.Random(44), 30, events_per_archive=4)
        # Some archives under two themes, so threads also replace entries.
        nodes = dict(snapshot.topic_graph.nodes)
        for number in range(31, 41):
            twin = nodes[f"t{number - 30:06d}"]
            nodes[f"t{number:06d}"] = replace(twin, id=f"t{number:06d}")
        snapshot = replace(snapshot, topic_graph=TopicGraph(nodes, snapshot.topic_graph.edges))
        draws = anchor_sets(snapshot, random.Random(45), count=40)
        expected = [fresh_drill_down(snapshot, anchors) for anchors in draws]

        def run(seed):
            order = list(range(len(draws)))
            random.Random(seed).shuffle(order)
            return all(drill_down(snapshot, draws[i]) == expected[i] for i in order * 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                assert all(pool.map(run, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)

    def test_the_cached_candidates_are_never_saved_compared_or_shown(self, bundle):
        snapshot = random_snapshot(random.Random(46), 6)
        fresh = replace(
            snapshot, archive={k: EventGraph(g.nodes) for k, g in snapshot.archive.items()}
        )
        before = snapshot_bytes(snapshot)
        retrieve(snapshot, Query("utterance number 7 about subject 3"), bundle)
        cached = [g for g in snapshot.archive.values() if g.candidates is not None]
        assert cached
        assert all(g.candidates is None for g in fresh.archive.values())
        assert snapshot_bytes(snapshot) == before == snapshot_bytes(fresh)
        assert snapshot == fresh
        assert repr(snapshot) == repr(fresh)
        graph = cached[0]
        assert graph == EventGraph(graph.nodes)
        assert repr(graph) == repr(EventGraph(graph.nodes))
        with pytest.raises(TypeError):
            EventGraph(graph.nodes, candidates=())
