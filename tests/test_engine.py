import pytest

from graphmem.boundary import BoundaryVerdict, TriggerKind
from graphmem.config import EngineConfig
from graphmem.core import snapshot_hash
from graphmem.engine import MemoryEngine
from graphmem.providers import mock_bundle


def fresh_engine(config=None):
    config = config or EngineConfig()
    return MemoryEngine(mock_bundle(config), config)


class TestTriggers:
    def test_session_change_checks_the_old_buffer_first(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "the puppy and the leash")
        engine.observe("s1", "riley", "puppy grooming day")
        reports = engine.observe("s2", "ana", "an interview offer")
        assert engine.trigger_counts[TriggerKind.SESSION_END] == 1
        # single-topic buffer: checked but not consolidated
        assert reports == []
        assert len(engine.snapshot.buffer) == 3

    def test_session_change_consolidates_when_topics_shifted(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "the puppy and the leash")
        engine.observe("s1", "riley", "an interview offer panel")
        reports = engine.observe("s2", "ana", "garden compost beds")
        assert len(reports) == 1
        assert len(engine.snapshot.archive) == 1

    def test_pause_gap_fires_interaction_pause(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "puppy leash", timestamp="2026-01-05T09:00:00")
        engine.observe(
            "s1", "riley", "interview offer", timestamp="2026-01-05T09:31:01"
        )
        assert engine.trigger_counts[TriggerKind.INTERACTION_PAUSE] == 1

    def test_small_gap_does_not_fire(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "puppy leash", timestamp="2026-01-05T09:00:00")
        engine.observe("s1", "riley", "puppy treats", timestamp="2026-01-05T09:29:00")
        assert engine.trigger_counts[TriggerKind.INTERACTION_PAUSE] == 0

    def test_missing_timestamps_never_fire_pause(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "puppy leash")
        engine.observe("s1", "riley", "interview offer", timestamp="2026-01-05T12:00:00")
        assert engine.trigger_counts[TriggerKind.INTERACTION_PAUSE] == 0

    def test_overflow_fires_after_the_breaching_append(self):
        config = EngineConfig(buffer_token_limit=10)
        engine = fresh_engine(config)
        engine.observe("s1", "ana", "garden compost soil beds")  # 4 tokens
        engine.observe("s1", "riley", "garden mulch and herbs here")  # 5 tokens
        reports = engine.observe("s1", "ana", "garden trellis again")  # 12 > 10
        assert engine.trigger_counts[TriggerKind.BUFFER_OVERFLOW] == 1
        assert len(reports) == 1
        assert reports[0].forced
        assert engine.snapshot.buffer == ()

    def test_manual_trigger(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "puppy leash collar")
        engine.observe("s1", "riley", "interview offer panel")
        reports = engine.check_now()
        assert engine.trigger_counts[TriggerKind.MANUAL] == 1
        assert len(reports) == 1

    def test_end_session_on_empty_buffer_is_a_no_op(self):
        engine = fresh_engine()
        assert engine.end_session() == []
        assert engine.trigger_counts[TriggerKind.SESSION_END] == 0

    def test_discriminator_sparsity_over_a_stream(self):
        engine = fresh_engine()
        log = engine.providers.call_log
        sessions = 4
        for s in range(sessions):
            for i in range(5):
                engine.observe(f"s{s}", "ana", f"topic{s} word{i} and topic{s}")
        engine.end_session()
        manual = 0
        engine.check_now()
        manual += 1
        expected = sessions + 0 + manual  # session ends + overflows + manual
        assert log.count("discriminator") == expected


class TestSegmenter:
    def test_default_segmenter_consults_the_discriminator(self):
        engine = fresh_engine()
        assert engine.segmenter == engine.detect_boundary
        engine.observe("s1", "ana", "puppy leash collar")
        engine.check_now()
        assert engine.providers.call_log.count("discriminator") == 1

    def test_custom_segmenter_decides_the_cut(self):
        seen = []

        def keep_everything(snapshot, trigger):
            seen.append((trigger.kind, len(snapshot.buffer)))
            return BoundaryVerdict(False)

        config = EngineConfig()
        engine = MemoryEngine(mock_bundle(config), config)
        engine.segmenter = keep_everything
        engine.observe("s1", "ana", "puppy leash collar")
        engine.observe("s1", "riley", "interview offer panel")
        assert engine.check_now() == []
        assert engine.observe("s2", "ana", "garden compost beds") == []
        assert seen == [(TriggerKind.MANUAL, 2), (TriggerKind.SESSION_END, 2)]
        assert len(engine.snapshot.buffer) == 3
        assert engine.providers.call_log.count("discriminator") == 0


class TestDeterminism:
    def test_same_seed_same_snapshot(self, golden_corpus):
        def run():
            from graphmem.harness import replay

            engine = fresh_engine(EngineConfig(seed=3))
            snapshot, _ = replay(golden_corpus, engine, "semantic")
            return snapshot_hash(snapshot)

        assert run() == run()

    def test_resume_from_snapshot_tracks_last_session(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "puppy leash collar")
        resumed = MemoryEngine(engine.providers, snapshot=engine.snapshot)
        resumed.observe("s2", "riley", "interview offer panel")
        assert resumed.trigger_counts[TriggerKind.SESSION_END] == 1

    def test_conflicting_config_rejected(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "puppy leash")
        with pytest.raises(ValueError):
            MemoryEngine(
                engine.providers,
                config=EngineConfig(tau=0.4),
                snapshot=engine.snapshot,
            )


class TestQueryPath:
    def test_query_accepts_plain_text(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "the garden compost pile")
        ranked = engine.query("garden compost")
        assert ranked and ranked[0].anchor_topic_id == "live"

    def test_query_k_override(self):
        engine = fresh_engine()
        for i in range(5):
            engine.observe("s1", "ana", f"garden words {i} garden")
        assert len(engine.query("garden", k=2)) == 2
