import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.config import EngineConfig
from graphmem.core import EventNode
from graphmem.providers import (
    CallLog,
    CallRecord,
    MockBoundaryDiscriminator,
    MockEmbedder,
    MockEntailmentChecker,
    MockRelationScorer,
    MockRelevanceScorer,
    MockSummarizer,
    content_words,
    jaccard,
    mock_bundle,
    record_usage,
    words,
)


def node(text, idx=0, speaker="ana"):
    return EventNode(f"e{idx:06d}", "s1", idx, speaker, text, None, len(text.split()))


class TestMockEmbedder:
    def test_empty_text_is_first_basis_vector(self):
        vec = MockEmbedder(dim=64).embed("")
        expected = np.zeros(64)
        expected[0] = 1.0
        assert np.array_equal(vec, expected)

    def test_unit_norm(self):
        vec = MockEmbedder(dim=64).embed("a perfectly ordinary sentence")
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_unit_norm_everywhere(self, text):
        vec = MockEmbedder(dim=64).embed(text)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_bag_of_words_order_invariance(self):
        embedder = MockEmbedder(dim=64)
        a = embedder.embed("red apple")
        b = embedder.embed("apple red")
        assert float(np.dot(a, b)) == pytest.approx(1.0, abs=1e-12)

    def test_buckets_match_independent_recomputation(self):
        # oracle: rebuild the hashed bag with the same digest arithmetic
        embedder = MockEmbedder(dim=64, seed=3)
        text = "tart green apple pie"
        expected = np.zeros(64)
        for token in words(text):
            digest = hashlib.blake2b(f"3:{token}".encode(), digest_size=8).digest()
            bucket = int.from_bytes(digest[:4], "big") % 64
            expected[bucket] += 1.0 if digest[4] % 2 == 0 else -1.0
        expected = expected / np.linalg.norm(expected)
        assert np.allclose(embedder.embed(text), expected, atol=1e-12)

    def test_seed_changes_the_embedding(self):
        a = MockEmbedder(dim=64, seed=0).embed("same words here")
        b = MockEmbedder(dim=64, seed=1).embed("same words here")
        assert not np.allclose(a, b)

    def test_deterministic_across_instances(self):
        a = MockEmbedder(dim=64, seed=5).embed("stable output wanted")
        b = MockEmbedder(dim=64, seed=5).embed("stable output wanted")
        assert np.array_equal(a, b)


class TestMockScorers:
    def test_relevance_is_floored_jaccard(self):
        scorer = MockRelevanceScorer()
        assert scorer.score("red car", "red car") == 1.0
        assert scorer.score("red car", "blue boat") == 0.01
        expected = jaccard({"red", "car"}, {"red", "bus"})
        assert scorer.score("red car", "red bus") == expected

    def test_relation_exact_match_is_coreference(self):
        assert MockRelationScorer().score("same text", "same text") == (
            "coreference",
            1.0,
        )

    def test_relation_disjoint_is_unrelated(self):
        assert MockRelationScorer().score(
            "gardens and compost", "telescopes and comets"
        ) == ("unrelated", 0.0)

    def test_relation_partial_overlap_weight_matches_oracle(self):
        first = "compost in the garden beds"
        second = "garden compost for tomato beds"
        label, weight = MockRelationScorer().score(first, second)
        assert label == "semantic"
        assert weight == jaccard(content_words(first), content_words(second))
        assert 0.0 < weight < 1.0

    def test_entailment_needs_a_shared_content_word(self):
        checker = MockEntailmentChecker()
        assert checker.entails("about gardens and compost", "my compost pile")
        assert not checker.entails("about gardens", "the stock market")

    def test_summarizer_keywords_are_frequency_ranked(self):
        content = "garden garden compost compost compost soil"
        result = MockSummarizer().summarize(content)
        assert result.keywords[:2] == ("compost", "garden")
        assert "compost" in result.summary

    def test_summarizer_deterministic(self):
        a = MockSummarizer().summarize("one two two three three three")
        b = MockSummarizer().summarize("one two two three three three")
        assert a == b


texts = st.text(alphabet="abc xyz.,!", max_size=24)


class TestRelevanceBatch:
    @settings(max_examples=60, deadline=None)
    @given(query=texts, batch=st.lists(texts, max_size=8))
    def test_batch_equals_single_calls(self, query, batch):
        batch_log, single_log = CallLog(), CallLog()
        many = MockRelevanceScorer(batch_log).score_many(query, batch)
        single = MockRelevanceScorer(single_log)
        assert many == [single.score(query, text) for text in batch]
        assert batch_log.entries() == single_log.entries()


class TestMockDiscriminator:
    def test_detects_content_word_disjunction(self):
        utterances = [
            node("the puppy and the leash", 0),
            node("my puppy needs grooming", 1),
            node("the interview panel and the offer", 2),
            node("that interview offer was good", 3),
        ]
        assert MockBoundaryDiscriminator().detect(utterances) == [1]

    def test_no_boundary_when_anchors_shared(self):
        utterances = [node("the garden soil", 0), node("garden watering time", 1)]
        assert MockBoundaryDiscriminator().detect(utterances) == []


class TestCallLog:
    def test_every_invocation_appends_exactly_one_entry(self):
        log = CallLog()
        embedder = MockEmbedder(dim=8, call_log=log)
        scorer = MockRelevanceScorer(call_log=log)
        embedder.embed("one")
        scorer.score("a b", "b c")
        embedder.embed("two")
        assert [e.provider for e in log.entries()] == [
            "embedder",
            "relevance_scorer",
            "embedder",
        ]

    def test_concurrent_appends_are_all_recorded(self):
        log = CallLog()

        def worker():
            for _ in range(200):
                log.record("p", 1, 1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 1600

    def test_token_totals_window(self):
        log = CallLog()
        log.record("a", 10, 2)
        log.record("b", 20, 3)
        log.record("c", 30, 4)
        assert log.token_totals() == (60, 9)
        assert log.token_totals(start=1) == (50, 7)


    def test_count_that_does_not_fit_appends_nothing(self):
        log = CallLog()
        log.record("a", 1, 2)
        with pytest.raises(OverflowError):
            log.record("a", 2**63, 0)
        with pytest.raises(OverflowError):
            log.record_many("b", [(3, 4), (5, -(2**63) - 1)])
        assert log.entries() == (CallRecord("a", 1, 2),)
        assert log.count("b") == 0

    def test_threaded_batches_stay_whole_and_in_order(self):
        log = CallLog()
        workers, batches, size = 6, 60, 5

        def work(worker):
            for batch in range(batches):
                first = batch * size
                if batch % 2:
                    log.record_many(f"w{worker}", [(t, worker) for t in range(first, first + size)])
                else:
                    for t in range(first, first + size):
                        log.record(f"w{worker}", t, worker)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        entries = log.entries()
        assert len(log) == len(entries) == workers * batches * size
        for worker in range(workers):
            name = f"w{worker}"
            mine = [e.input_tokens for e in entries if e.provider == name]
            assert mine == list(range(batches * size))
            assert all(e.output_tokens == worker for e in entries if e.provider == name)
            assert log.count(name) == batches * size
        # Each batch sits in one unbroken run of the log.
        positions = {(e.provider, e.input_tokens): i for i, e in enumerate(entries)}
        for worker in range(workers):
            for batch in range(1, batches, 2):
                first = positions[f"w{worker}", batch * size]
                assert [positions[f"w{worker}", batch * size + j] for j in range(size)] == list(
                    range(first, first + size)
                )
        assert log.token_totals() == (
            workers * sum(range(batches * size)),
            batches * size * sum(range(workers)),
        )


names = st.sampled_from(("embedder", "relevance_scorer", "summarizer"))
counts = st.integers(0, 2**63 - 1)
log_operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), names, counts, counts),
        st.tuples(st.just("many"), names, st.lists(st.tuples(counts, counts), max_size=4)),
    ),
    max_size=12,
)


class TestColumnarCallLog:
    """The columnar log reads exactly like a plain list of records."""

    @settings(max_examples=80, deadline=None)
    @given(operations=log_operations)
    def test_equals_a_plain_list(self, operations):
        log, reference = CallLog(), []
        for operation in operations:
            if operation[0] == "record":
                _, name, input_tokens, output_tokens = operation
                log.record(name, input_tokens, output_tokens)
                reference.append(CallRecord(name, input_tokens, output_tokens))
            else:
                _, name, usage = operation
                log.record_many(name, usage)
                reference.extend(CallRecord(name, i, o) for i, o in usage)
        assert log.entries() == tuple(reference)
        assert len(log) == len(reference)
        for name in ("embedder", "relevance_scorer", "summarizer", "unknown"):
            assert log.count(name) == sum(1 for r in reference if r.provider == name)
        for start in range(-len(reference) - 1, len(reference) + 2):
            tail = reference[start:]
            assert log.token_totals(start) == (
                sum(r.input_tokens for r in tail),
                sum(r.output_tokens for r in tail),
            )


class TestRecordUsage:
    def test_empty_log_gives_zeros(self):
        assert record_usage(CallLog(), 0) == 0.0
        assert record_usage(CallLog(), 3) == 0.0

    def test_two_calls_over_two_queries(self):
        log = CallLog()
        log.record("x", 100, 50)
        log.record("x", 200, 25)
        assert record_usage(log, 2) == 187.5

    def test_start_index_skips_earlier_entries(self):
        log = CallLog()
        log.record("x", 100, 50)
        log.record("x", 200, 25)
        assert record_usage(log, 5, start=1) == 45.0
        assert record_usage(log, 5, start=2) == record_usage(CallLog(), 5)

    def test_matches_fold_oracle_on_replay_log(self, golden_snapshot):
        _, _, providers = golden_snapshot
        entries = providers.call_log.entries()
        queries = 7
        expected = sum(e.input_tokens + e.output_tokens for e in entries) / queries
        assert record_usage(providers.call_log, queries) == pytest.approx(expected)


class TestBundleDeterminism:
    def test_identical_runs_identical_call_logs(self):
        def run():
            cfg = EngineConfig(seed=4)
            bundle = mock_bundle(cfg)
            bundle.embedder.embed("hello world")
            bundle.summarizer.summarize("garden compost soil")
            bundle.relation_scorer.score("a garden", "a garden bed")
            bundle.relevance_scorer.score("garden", "garden soil")
            bundle.entailment.entails("garden", "garden soil")
            return [
                (e.provider, e.input_tokens, e.output_tokens)
                for e in bundle.call_log.entries()
            ]

        assert run() == run()
