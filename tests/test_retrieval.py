import random
from dataclasses import asdict, replace

import numpy as np
import pytest

from graphmem.config import EngineConfig
from graphmem.core import (
    EventNode,
    Relation,
    TopicEdge,
    TopicGraph,
    Utterance,
    append_event,
    neighbors,
    new_snapshot,
    snapshot_hash,
)
from graphmem.errors import CorruptionError, ProviderError
from graphmem.providers import mock_bundle
from graphmem.retrieval import (
    AnchorSet,
    CandidateEvent,
    Query,
    anchor,
    conf_indicator,
    drill_down,
    event_lookup,
    is_time_sensitive,
    rerank,
    retrieve,
    role_indicator,
    time_indicator,
)

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


class TestQuery:
    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            Query("   ")

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

    def test_conf_indicator_reads_the_flag(self):
        flagged = EventNode("e1", "s1", 0, "ana", "text", None, 1, True)
        unflagged = EventNode("e2", "s1", 1, "ana", "text", None, 1, False)
        assert conf_indicator(flagged) == 1
        assert conf_indicator(unflagged) == 0


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


class TestRetrievePipeline:
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
