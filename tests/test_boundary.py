import logging

import numpy as np
import pytest

from graphmem.boundary import (
    BoundaryVerdict,
    TriggerKind,
    check_boundary,
    heuristic_discriminator,
)
from graphmem.config import EngineConfig
from graphmem.core import Utterance, append_event, new_snapshot, snapshot_hash
from graphmem.errors import ProviderParseError, ProviderTransportError, StateError
from graphmem.providers import MockBoundaryDiscriminator, MockEmbedder, content_words, jaccard


def buffered(texts, session="s1"):
    snap = new_snapshot()
    for text in texts:
        snap = append_event(snap, Utterance(session, "ana", text))
    return snap


def check(snap, discriminator=None):
    return check_boundary(snap, discriminator or MockBoundaryDiscriminator(), MockEmbedder(64))


CUTOFF = EngineConfig().heuristic_cutoff


class StubDiscriminator:
    def __init__(self, result):
        self.result = result

    def detect(self, utterances):
        if isinstance(self.result, Exception):
            raise self.result
        return list(self.result)


class TestVerdict:
    def test_indices_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            BoundaryVerdict((3, 3))
        with pytest.raises(ValueError):
            BoundaryVerdict((4, 2))
        with pytest.raises(ValueError):
            BoundaryVerdict((-1,))

    def test_trigger_kinds_are_a_closed_enum(self):
        assert {k.value for k in TriggerKind} == {
            "session_end",
            "interaction_pause",
            "buffer_overflow",
            "manual",
        }


class TestCheckBoundary:
    def test_single_utterance_no_shift(self):
        snap = buffered(["just one line of talk"])
        verdict = check(snap)
        assert verdict.split_indices == ()
        assert not verdict.forced

    def test_topic_transition_detected_at_the_right_index(self):
        texts = [
            "the puppy adoption at the shelter",
            "my puppy needs a new leash",
            "the interview panel sent an offer",
            "that interview offer has a salary",
        ]
        snap = buffered(texts)
        # oracle: recompute the keyword-divergence rule directly
        expected = [
            i
            for i in range(len(texts) - 1)
            if jaccard(content_words(texts[i]), content_words(texts[i + 1])) == 0.0
        ]
        assert expected == [1]
        verdict = check(snap)
        assert list(verdict.split_indices) == expected

    def test_no_shift_is_an_empty_verdict_on_any_buffer(self):
        filler = "garden " * 41  # 41 tokens per line
        snap = buffered([filler.strip()] * 50)  # 2050 estimated tokens
        assert snap.active_event_graph.token_total > 2048
        assert check(snap) == BoundaryVerdict()

    def test_never_mutates_the_snapshot(self):
        snap = buffered(["puppy leash", "interview offer"])
        before = snapshot_hash(snap)
        check(snap)
        assert snapshot_hash(snap) == before

    def test_out_of_range_indices_filtered(self):
        snap = buffered(["a b", "c d", "e f"])
        verdict = check(snap, StubDiscriminator([-3, 0, 2, 9]))
        assert verdict.split_indices == (0,)

    def test_empty_buffer_is_a_state_bug(self):
        with pytest.raises(StateError):
            check(new_snapshot())

    def test_parse_failure_falls_back_to_heuristic_and_warns(self, caplog):
        snap = buffered(["the puppy leash collar", "an interview offer panel"])
        broken = StubDiscriminator(ProviderParseError("still malformed"))
        with caplog.at_level(logging.WARNING, logger="graphmem.boundary"):
            verdict = check(snap, broken)
        # disjoint halves diverge under the mock embedder
        expected = heuristic_discriminator(snap.buffer, MockEmbedder(64), CUTOFF)
        assert expected == [0]
        assert verdict.split_indices == tuple(expected)
        assert "still malformed" in caplog.text
        assert "using heuristic" in caplog.text

    def test_transport_failure_is_retriable_by_the_caller(self):
        snap = buffered(["a b", "c d"])
        with pytest.raises(ProviderTransportError):
            check(snap, StubDiscriminator(ProviderTransportError("net down")))

    def test_verdict_deterministic_for_identical_buffers(self):
        texts = ["puppy leash collar", "puppy grooming treats", "interview offer salary"]
        a = check(buffered(texts))
        b = check(buffered(texts))
        assert a == b


class TestHeuristicDiscriminator:
    def test_identical_sentences_never_split(self):
        nodes = buffered(["the same sentence again"] * 6).buffer
        assert heuristic_discriminator(nodes, MockEmbedder(64), CUTOFF) == []

    def test_lexically_disjoint_halves_split(self):
        texts = [
            "puppy leash collar grooming",
            "puppy shelter kennel treats",
            "puppy whiskers rescue adoption",
            "interview resume salary offer",
            "interview recruiter panel hiring",
            "interview onboarding references negotiation",
        ]
        splits = heuristic_discriminator(buffered(texts).buffer, MockEmbedder(64), CUTOFF)
        assert splits == [2]

    def test_single_node_buffer_cannot_split(self):
        nodes = buffered(["only one line"]).buffer
        assert heuristic_discriminator(nodes, MockEmbedder(64), CUTOFF) == []

    def test_flip_happens_exactly_at_the_cutoff(self):
        texts = [
            "puppy leash collar grooming",
            "puppy shelter kennel treats",
            "interview resume salary offer",
            "interview recruiter panel hiring",
        ]
        nodes = buffered(texts).buffer
        embedder = MockEmbedder(64)
        # oracle: the decision statistic is the two-half mean cosine
        vectors = np.stack([embedder.embed(n.text) for n in nodes])
        first = vectors[:2].mean(axis=0)
        second = vectors[2:].mean(axis=0)
        similarity = float(
            np.dot(first, second) / (np.linalg.norm(first) * np.linalg.norm(second))
        )
        below = heuristic_discriminator(nodes, embedder, cutoff=similarity - 1e-9)
        at_or_above = heuristic_discriminator(nodes, embedder, cutoff=similarity + 1e-9)
        assert below == []
        assert at_or_above != []
