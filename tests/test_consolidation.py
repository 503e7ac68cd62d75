import random
from dataclasses import replace

import numpy as np
import pytest

from graphmem.boundary import BoundaryVerdict
from graphmem.config import EngineConfig
from graphmem.consolidation import (
    apply_verdict,
    consolidate_segment,
    score_relation,
    select_candidates,
)
from graphmem.core import (
    Utterance,
    append_event,
    new_snapshot,
    snapshot_bytes,
)
from graphmem.errors import (
    ConsolidationError,
    ProviderError,
    ProviderParseError,
)
from graphmem.providers import MockRelationScorer, ProviderBundle, mock_bundle

from conftest import random_snapshot, unit_vector


def buffered(texts, config=None, session="s1"):
    snap = new_snapshot(config)
    for i, text in enumerate(texts):
        snap = append_event(snap, Utterance(session, ("ana", "riley")[i % 2], text))
    return snap


def clone_bundle_with(bundle, **overrides):
    fields = {
        "embedder": bundle.embedder,
        "discriminator": bundle.discriminator,
        "summarizer": bundle.summarizer,
        "relation_scorer": bundle.relation_scorer,
        "relevance_scorer": bundle.relevance_scorer,
        "entailment": bundle.entailment,
        "call_log": bundle.call_log,
    }
    fields.update(overrides)
    return ProviderBundle(**fields)


class FixedWeightScorer:
    """Returns scripted (relation, weight) pairs in call order."""

    def __init__(self, results):
        self.results = list(results)
        self.calls = 0

    def score(self, first, second):
        result = self.results[self.calls % len(self.results)]
        self.calls += 1
        if isinstance(result, Exception):
            raise result
        return result


class FailingProvider:
    def __init__(self, error=None):
        self.error = error or ProviderError("provider down")

    def summarize(self, content):
        raise self.error

    def embed(self, text):
        raise self.error

    def entails(self, summary, text):
        raise self.error

    def score(self, first, second):
        raise self.error


def grown_snapshot(n_topics, config=None, bundle=None):
    """Snapshot with n committed consolidations of disjoint mini-topics."""
    config = config or EngineConfig()
    bundle = bundle or mock_bundle(config)
    snap = new_snapshot(config)
    for i in range(n_topics):
        snap = append_event(
            snap, Utterance("s1", "ana", f"theme{i} alpha{i} and the theme{i} beta{i}")
        )
        snap = append_event(
            snap, Utterance("s1", "riley", f"more theme{i} gamma{i} with theme{i}")
        )
        _, snap = consolidate_segment(snap, snap.buffer, bundle)
    return snap, bundle


class TestConsolidateSegment:
    def test_first_ever_consolidation(self, bundle):
        snap = buffered(["the garden compost pile", "my garden needs watering"])
        report, snap = consolidate_segment(snap, snap.buffer, bundle)
        assert len(snap.topic_graph.nodes) == 1
        assert report.candidate_pool == ()
        assert report.accepted_edges == 0
        assert snap.buffer == ()

    def test_weights_filtered_by_tau(self):
        config = EngineConfig()
        snap, bundle = grown_snapshot(3, config)
        scripted = FixedWeightScorer(
            [("support", 0.9), ("semantic", 0.6), ("causal", 0.3)]
        )
        bundle = clone_bundle_with(bundle, relation_scorer=scripted)
        snap = append_event(snap, Utterance("s2", "ana", "a brand new discussion topic"))
        report, snap = consolidate_segment(snap, snap.buffer, bundle)
        weights = [w for (_, _, w) in report.scored_relations]
        expected = len([w for w in weights if w > config.tau])  # oracle filter
        assert expected == 2
        assert report.accepted_edges == 2
        stored = [
            e for e in snap.topic_graph.edges.values() if report.new_topic_id in (e.from_id, e.to_id)
        ]
        assert sorted(e.weight for e in stored) == [0.6, 0.9]

    def test_candidate_pool_is_exactly_k_nearest(self):
        config = EngineConfig()
        snap, bundle = grown_snapshot(12, config)
        snap = append_event(snap, Utterance("s2", "ana", "theme3 alpha3 revisited theme3"))
        report, _ = consolidate_segment(snap, snap.buffer, bundle)
        assert len(report.candidate_pool) == 5
        # oracle: brute-force cosine over all 12 stored embeddings
        query = bundle.embedder.embed(
            bundle.summarizer.summarize("\nana: theme3 alpha3 revisited theme3").summary
        )
        graph_before = grown_snapshot(12, config)[0].topic_graph
        scored = sorted(
            (
                (tid, float(np.dot(np.asarray(node.embedding), query)))
                for tid, node in graph_before.nodes.items()
            ),
            key=lambda p: (-p[1], p[0]),
        )
        assert list(report.candidate_pool) == scored[:5]

    def test_directed_edges_point_from_new_node(self):
        snap, bundle = grown_snapshot(1)
        bundle = clone_bundle_with(
            bundle, relation_scorer=FixedWeightScorer([("support", 0.9)])
        )
        snap = append_event(snap, Utterance("s2", "ana", "completely different words"))
        report, snap = consolidate_segment(snap, snap.buffer, bundle)
        edge = next(iter(snap.topic_graph.edges.values()))
        assert edge.from_id == report.new_topic_id
        assert edge.directed

    def test_symmetric_relations_are_undirected(self):
        snap, bundle = grown_snapshot(1)
        bundle = clone_bundle_with(
            bundle, relation_scorer=FixedWeightScorer([("semantic", 0.8)])
        )
        snap = append_event(snap, Utterance("s2", "ana", "completely different words"))
        _, snap = consolidate_segment(snap, snap.buffer, bundle)
        assert not next(iter(snap.topic_graph.edges.values())).directed

    def test_node_count_arithmetic(self):
        snap, _ = grown_snapshot(7)
        assert len(snap.topic_graph.nodes) == 7
        assert len(snap.archive) == 7
        assert len(snap.cross_index) == 7
        assert set(snap.cross_index) == set(snap.topic_graph.nodes)
        assert len(set(snap.cross_index.values())) == 7

    def test_segment_must_be_a_buffer_prefix(self, bundle):
        snap = buffered(["one thing here", "two things here", "three things here"])
        with pytest.raises(ValueError, match="prefix"):
            consolidate_segment(snap, snap.buffer[1:], bundle)
        with pytest.raises(ValueError, match="non-empty"):
            consolidate_segment(snap, (), bundle)

    def test_summarizer_failure_aborts_with_snapshot_intact(self, bundle):
        snap = buffered(["the garden compost", "garden watering cans"])
        before = snapshot_bytes(snap)
        broken = clone_bundle_with(bundle, summarizer=FailingProvider())
        with pytest.raises(ConsolidationError):
            consolidate_segment(snap, snap.buffer, broken)
        assert snapshot_bytes(snap) == before

    def test_embedder_failure_aborts(self, bundle):
        snap = buffered(["the garden compost", "garden watering cans"])
        broken = clone_bundle_with(bundle, embedder=FailingProvider())
        with pytest.raises(ConsolidationError):
            consolidate_segment(snap, snap.buffer, broken)

    def test_relation_failure_skips_candidate_and_commits(self):
        snap, bundle = grown_snapshot(2)
        scripted = FixedWeightScorer(
            [ProviderError("scorer down"), ("semantic", 0.8)]
        )
        bundle = clone_bundle_with(bundle, relation_scorer=scripted)
        snap = append_event(snap, Utterance("s2", "ana", "entirely new material"))
        report, snap = consolidate_segment(snap, snap.buffer, bundle)
        assert len(report.skipped_candidates) == 1
        assert len(report.scored_relations) == 1
        assert len(snap.topic_graph.nodes) == 3

    def test_entailment_failure_defaults_to_trusted(self):
        snap, bundle = grown_snapshot(1)
        bundle = clone_bundle_with(bundle, entailment=FailingProvider())
        snap = append_event(snap, Utterance("s2", "ana", "entirely new material"))
        report, snap = consolidate_segment(snap, snap.buffer, bundle)
        archived = snap.archive[report.archive_id]
        assert all(n.confidence_flag for n in archived.nodes)
        assert report.entailment_defaults == len(archived.nodes)

    @pytest.mark.parametrize(
        "reply, flag, defaults",
        [
            ("false", True, 1),
            (0, True, 1),
            (None, True, 1),
            (np.False_, False, 0),
            (False, False, 0),
        ],
    )
    def test_entailment_reply_must_be_a_bool(self, reply, flag, defaults):
        class Scripted:
            def entails(self, summary, text):
                return reply

        snap, bundle = grown_snapshot(1)
        bundle = clone_bundle_with(bundle, entailment=Scripted())
        snap = append_event(snap, Utterance("s2", "ana", "entirely new material"))
        report, snap = consolidate_segment(snap, snap.buffer, bundle)
        assert [n.confidence_flag for n in snap.archive[report.archive_id].nodes] == [flag]
        assert report.entailment_defaults == defaults

    def test_confidence_flags_follow_the_entailment_rule(self, bundle):
        # ten garden words fill all eight keyword slots, and the filler
        # words sort after them alphabetically, so the summary cannot
        # contain anything from the second utterance
        snap = buffered(
            [
                "garden compost soil mulch herbs pruning harvest trellis greenhouse watering",
                "zz yy xx",
            ]
        )
        report, snap = consolidate_segment(snap, snap.buffer, bundle)
        flags = [n.confidence_flag for n in snap.archive[report.archive_id].nodes]
        assert flags == [True, False]

    def test_relation_calls_bounded_by_candidate_pool(self):
        config = EngineConfig()
        snap, bundle = grown_snapshot(9, config)
        before = bundle.call_log.count("relation_scorer")
        snap = append_event(snap, Utterance("s2", "ana", "a fresh subject entirely"))
        _, snap = consolidate_segment(snap, snap.buffer, bundle)
        assert bundle.call_log.count("relation_scorer") - before <= config.k_cand

    def test_report_tokens_cover_the_transaction_window(self, bundle):
        snap = buffered(["the garden compost pile", "garden watering cans"])
        report, _ = consolidate_segment(snap, snap.buffer, bundle)
        assert report.provider_tokens["input"] > 0
        assert report.provider_tokens["output"] > 0


class TestSelectCandidates:
    def test_empty_graph(self):
        result = select_candidates(
            random_snapshot(random.Random(1), 1).topic_graph.__class__(),
            np.eye(64)[0],
            5,
        )
        assert result == []

    def test_exact_match_ranks_first_with_unit_similarity(self):
        snap = random_snapshot(random.Random(2), 6, edge_probability=0.0)
        target = snap.topic_graph.nodes["t000004"]
        result = select_candidates(snap.topic_graph, np.asarray(target.embedding), 3)
        assert result[0][0] == "t000004"
        assert result[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_matches_exhaustive_oracle_with_tie_order(self):
        rng = random.Random(33)
        snap = random_snapshot(rng, 200, edge_probability=0.0)
        query = np.asarray(unit_vector(rng, 64))
        result = select_candidates(snap.topic_graph, query, 7)
        scored = [
            (tid, float(np.dot(np.asarray(node.embedding), query)))
            for tid, node in snap.topic_graph.nodes.items()
        ]
        scored.sort(key=lambda p: (-p[1], p[0]))
        assert result == scored[:7]

    def test_duplicate_embeddings_tie_break_by_id(self):
        rng = random.Random(4)
        snap = random_snapshot(rng, 3, edge_probability=0.0)
        shared = snap.topic_graph.nodes["t000002"].embedding
        nodes = {
            tid: replace(node, embedding=shared)
            for tid, node in snap.topic_graph.nodes.items()
        }
        graph = replace(snap.topic_graph, nodes=nodes)
        result = select_candidates(graph, np.asarray(shared), 3)
        assert [tid for tid, _ in result] == ["t000001", "t000002", "t000003"]

    def test_requires_unit_norm(self):
        snap = random_snapshot(random.Random(5), 2)
        with pytest.raises(ValueError, match="unit"):
            select_candidates(snap.topic_graph, np.ones(64), 2)

    def test_nan_embedding_rejected(self):
        snap = random_snapshot(random.Random(5), 2)
        with pytest.raises(ValueError, match="unit"):
            select_candidates(snap.topic_graph, np.full(64, np.nan), 2)

    def test_fewer_nodes_than_k_returns_all(self):
        rng = random.Random(6)
        snap = random_snapshot(rng, 2)
        result = select_candidates(snap.topic_graph, np.asarray(unit_vector(rng, 64)), 10)
        assert len(result) == 2


class TestScoreRelation:
    def test_identical_summaries(self):
        assert score_relation("same words", "same words", MockRelationScorer()) == (
            "coreference",
            1.0,
        )

    def test_disjoint_summaries(self):
        assert score_relation(
            "gardens and compost", "quasars and comets", MockRelationScorer()
        ) == ("unrelated", 0.0)

    def test_jaccard_weight_matches_oracle(self):
        from graphmem.providers import content_words, jaccard

        first = "garden compost and herbs"
        second = "compost for the garden soil"
        label, weight = score_relation(first, second, MockRelationScorer())
        assert label == "semantic"
        assert weight == jaccard(content_words(first), content_words(second))

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            score_relation("", "something", MockRelationScorer())

    def test_parse_failure_becomes_unrelated(self):
        class Malformed:
            def score(self, first, second):
                raise ProviderParseError("bad json twice")

        assert score_relation("one", "two", Malformed()) == ("unrelated", 0.0)

    def test_invalid_label_becomes_unrelated(self):
        assert score_relation(
            "one", "two", FixedWeightScorer([("sideways", 0.9)])
        ) == ("unrelated", 0.0)

    def test_out_of_range_weight_becomes_unrelated(self):
        assert score_relation(
            "one", "two", FixedWeightScorer([("support", 1.7)])
        ) == ("unrelated", 0.0)


class TestEdgeAdmissionSweep:
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_admitted_set_equals_oracle_filter(self, tau):
        config = EngineConfig(tau=tau)
        snap, bundle = grown_snapshot(5, config)
        weights = [0.05, 0.3, 0.55, 0.82, 0.95]
        scripted = FixedWeightScorer([("semantic", w) for w in weights])
        bundle = clone_bundle_with(bundle, relation_scorer=scripted)
        snap = append_event(snap, Utterance("s2", "ana", "a wholly new discussion"))
        report, snap = consolidate_segment(snap, snap.buffer, bundle)
        scored = {tid: w for (tid, _, w) in report.scored_relations}
        expected = {tid for tid, w in scored.items() if w > tau}
        stored = {
            e.to_id if e.from_id == report.new_topic_id else e.from_id
            for e in snap.topic_graph.edges.values()
            if report.new_topic_id in (e.from_id, e.to_id)
        }
        assert stored == expected
        assert report.accepted_edges == len(expected)


class TestApplyVerdict:
    def test_no_boundary_is_a_no_op(self, bundle):
        snap = buffered(["one thing", "same one thing"])
        reports, after = apply_verdict(snap, BoundaryVerdict(), bundle)
        assert reports == []
        assert after is snap

    def test_multi_boundary_consolidates_segments_in_order(self, bundle):
        texts = [
            "puppy leash collar",
            "puppy grooming treats",
            "interview offer salary",
            "interview panel hiring",
            "garden compost soil",
            "garden watering herbs",
        ]
        snap = buffered(texts)
        verdict = BoundaryVerdict((1, 3))
        reports, after = apply_verdict(snap, verdict, bundle)
        assert len(reports) == 2
        first = after.archive[reports[0].archive_id]
        second = after.archive[reports[1].archive_id]
        assert [n.text for n in first.nodes] == texts[:2]
        assert [n.text for n in second.nodes] == texts[2:4]
        assert [n.text for n in after.buffer] == texts[4:]

    def test_forced_verdict_consumes_everything(self, bundle):
        snap = buffered(["a b c", "a d e", "a f g"])
        verdict = BoundaryVerdict((2,), forced=True)
        reports, after = apply_verdict(snap, verdict, bundle)
        assert len(reports) == 1
        assert reports[0].forced
        assert after.buffer == ()

    def test_abort_mid_sequence_keeps_committed_prefix(self, bundle):
        texts = ["puppy leash", "interview offer", "garden soil"]
        snap = buffered(texts)

        class FailSecond:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def summarize(self, content):
                self.calls += 1
                if self.calls == 2:
                    raise ProviderError("down")
                return self.inner.summarize(content)

        bundle = clone_bundle_with(bundle, summarizer=FailSecond(bundle.summarizer))
        reports, after = apply_verdict(snap, BoundaryVerdict((0, 1)), bundle)
        assert len(reports) == 1
        assert [n.text for n in after.buffer] == texts[1:]
        assert len(after.topic_graph.nodes) == 1
