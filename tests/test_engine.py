from dataclasses import replace

import pytest

from graphmem.boundary import BoundaryVerdict, TriggerKind
from graphmem.config import EngineConfig
from graphmem.core import snapshot_hash
from graphmem.engine import MemoryEngine
from graphmem.errors import ProviderTransportError, StateError
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

    def test_offset_on_one_side_only_never_fires_pause(self):
        engine = fresh_engine()
        engine.observe("s1", "ana", "puppy leash", timestamp="2026-01-05T09:00:00Z")
        engine.observe("s1", "riley", "interview offer", timestamp="2026-01-05T12:00:00")
        engine.observe("s1", "ana", "garden beds", timestamp="2026-01-05T15:00:00+01:00")
        assert engine.trigger_counts[TriggerKind.INTERACTION_PAUSE] == 0
        assert len(engine.snapshot.buffer) == 3

    @pytest.mark.parametrize(
        "later, fires",
        [
            ("2026-01-05T10:00", True),
            ("2026-01-05 10:00:00", True),
            ("2026-01-05T10:00:00.500", True),
            ("2026-01-05T10:00:00.500000", True),
            ("2026-01-05T09:10:00", False),
            ("2026-01-06", True),
            # Outside the grammar, though some Python versions parse them.
            ("20260105T100000", False),
            ("2026-01-05T10:00:00.5", False),
            ("2026-W02-1T10:00", False),
            ("2026-01-05T10", False),
            ("2026-01-05x10:00:00", False),
            ("2026-01-05T10:00:00+0100", False),
            ("2026-01-05T10:00:00\n", False),
            # In the grammar, but no such time.
            ("2026-01-05T24:00:00", False),
            ("2026-02-30T10:00:00", False),
        ],
    )
    def test_pause_timestamps_follow_one_grammar(self, later, fires):
        engine = fresh_engine()
        engine.observe("s1", "ana", "puppy leash", timestamp="2026-01-05T09:00:00")
        engine.observe("s1", "riley", "interview offer", timestamp=later)
        assert engine.trigger_counts[TriggerKind.INTERACTION_PAUSE] == int(fires)

    @pytest.mark.parametrize(
        "earlier, later, fires",
        [
            ("2026-01-05T09:00:00Z", "2026-01-05T10:00:00+00:00", True),
            ("2026-01-05T09:00:00+01:00", "2026-01-05T08:20:00Z", False),
            ("2026-01-05T09:00:00-05:30", "2026-01-05T15:01:00+00:00", True),
            ("2026-01-05T09:00:00Z", "2026-01-05T10:00:00+24:00", False),
            ("2026-01-05T09:00:00Z", "2026-01-05T10:00:00+05:60", False),
            ("2026-01-05T09:00:00Z", "2026-01-05T10:00:00z", False),
        ],
    )
    def test_pause_offsets_follow_one_grammar(self, earlier, later, fires):
        engine = fresh_engine()
        engine.observe("s1", "ana", "puppy leash", timestamp=earlier)
        engine.observe("s1", "riley", "interview offer", timestamp=later)
        assert engine.trigger_counts[TriggerKind.INTERACTION_PAUSE] == int(fires)

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
            seen.append((trigger, len(snapshot.buffer)))
            return BoundaryVerdict()

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


class DownDiscriminator:
    def detect(self, utterances):
        raise ProviderTransportError("discriminator down")


def buffered_texts(engine):
    return [node.text for node in engine.snapshot.buffer]


class TestOverflowRule:
    """What a fired check consumes is the engine's decision, whatever the
    segmenter answered."""

    def test_overflow_with_no_shift_forces_whole_buffer(self):
        engine = fresh_engine()
        filler = ("garden " * 41).strip()  # 41 tokens per line
        for _ in range(49):
            assert engine.observe("s1", "ana", filler) == []
        reports = engine.observe("s1", "ana", filler)  # 2050 > 2048
        assert engine.trigger_counts[TriggerKind.BUFFER_OVERFLOW] == 1
        assert [r.forced for r in reports] == [True]
        assert engine.snapshot.buffer == ()
        assert [len(g.nodes) for g in engine.snapshot.archive.values()] == [50]

    def test_overflow_with_real_shift_is_not_forced(self):
        engine = fresh_engine(EngineConfig(buffer_token_limit=5))
        engine.observe("s1", "ana", "the puppy leash")
        reports = engine.observe("s1", "riley", "an interview offer")  # 6 > 5
        assert engine.trigger_counts[TriggerKind.BUFFER_OVERFLOW] == 1
        assert [r.forced for r in reports] == [False]
        # The shift at index 0 consumes only the first turn.
        assert buffered_texts(engine) == ["an interview offer"]

    def test_custom_segmenter_no_split_overflow_empties_the_buffer(self):
        engine = fresh_engine(EngineConfig(buffer_token_limit=10))
        engine.segmenter = lambda snapshot, trigger: BoundaryVerdict()
        forced = []
        for i in range(10):
            forced += [r.forced for r in engine.observe("s1", "ana", f"garden compost soil bed{i}")]
            assert engine.snapshot.active_event_graph.token_total <= 10
        # 4 tokens a turn: every third turn overflows and takes the buffer.
        assert engine.trigger_counts[TriggerKind.BUFFER_OVERFLOW] == 3
        assert forced == [True, True, True]
        assert buffered_texts(engine) == ["garden compost soil bed9"]

    @pytest.mark.parametrize(
        "splits,turns", [((5, 7), 2), ((0, 2), 2), ((1,), 1)], ids=["both", "last", "one"]
    )
    def test_split_past_the_buffer_raises_before_any_provider_call(self, splits, turns):
        engine = fresh_engine()
        engine.segmenter = lambda snapshot, trigger: BoundaryVerdict(splits)
        for i in range(turns):
            engine.observe("s1", "ana", f"puppy leash collar {i}")
        before, calls = engine.snapshot, len(engine.providers.call_log)
        with pytest.raises(StateError, match="past a buffer"):
            engine.end_session()
        assert engine.snapshot is before
        assert len(engine.providers.call_log) == calls


class TestFailedCheck:
    """A check that raises leaves the turn stored only if it fired after
    the append, which only the overflow check does."""

    def engine(self, config=None):
        engine = fresh_engine(config)
        engine.providers = replace(engine.providers, discriminator=DownDiscriminator())
        return engine

    def test_failed_overflow_check_has_stored_the_turn(self):
        engine = self.engine(EngineConfig(buffer_token_limit=5))
        engine.observe("s1", "ana", "garden compost soil")
        with pytest.raises(ProviderTransportError):
            engine.observe("s1", "riley", "garden mulch herbs")  # 6 > 5
        assert engine.trigger_counts[TriggerKind.BUFFER_OVERFLOW] == 1
        assert buffered_texts(engine) == ["garden compost soil", "garden mulch herbs"]

    def test_failed_session_change_check_has_not_stored_the_turn(self):
        engine = self.engine()
        engine.observe("s1", "ana", "garden compost soil")
        with pytest.raises(ProviderTransportError):
            engine.observe("s2", "riley", "garden mulch herbs")
        assert engine.trigger_counts[TriggerKind.SESSION_END] == 1
        assert buffered_texts(engine) == ["garden compost soil"]

    def test_failed_pause_check_has_not_stored_the_turn(self):
        engine = self.engine()
        engine.observe("s1", "ana", "garden compost soil", timestamp="2026-01-05T09:00:00")
        with pytest.raises(ProviderTransportError):
            engine.observe(
                "s1", "riley", "garden mulch herbs", timestamp="2026-01-05T09:31:00"
            )
        assert engine.trigger_counts[TriggerKind.INTERACTION_PAUSE] == 1
        assert buffered_texts(engine) == ["garden compost soil"]


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


class TestRejectedTurns:
    @pytest.mark.parametrize(
        "bad",
        [
            {"speaker": None},
            {"speaker": 7},
            {"session_id": None},
            {"text": b"garden compost beds"},
            {"text": "   "},
            {"timestamp": 5},
            {"timestamp": True},
            {"turn_index": True},
            {"turn_index": 2.0},
            {"turn_index": "3"},
            {"turn_index": -1},
        ],
    )
    def test_raises_before_any_trigger_and_leaves_the_snapshot(self, bad):
        engine = fresh_engine()
        engine.observe("s1", "ana", "the puppy and the leash")
        engine.observe("s1", "riley", "an interview offer panel")
        before = engine.snapshot
        counts = dict(engine.trigger_counts)
        turn = {"session_id": "s2", "speaker": "ana", "text": "garden compost beds"}
        with pytest.raises(ValueError):
            engine.observe(**{**turn, **bad})
        assert engine.snapshot is before
        assert engine.trigger_counts == counts
