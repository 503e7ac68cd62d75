"""A hypothesis state machine over ``MemoryEngine`` with the mock providers.

Rules observe turns in three sessions, end sessions, request checks, query,
and round-trip the snapshot through save and load, continuing on the loaded
copy.  A small buffer budget makes overflows fire.  After every step the
engine is checked against a plain model: the list of accepted turns and the
number of committed consolidations.
"""

import os
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from graphmem.config import EngineConfig
from graphmem.core import (
    LIVE_BUFFER_ID,
    EventNode,
    canonical_json,
    snapshot_bytes,
    snapshot_hash,
    snapshot_to_dict,
)
from graphmem.engine import MemoryEngine
from graphmem.providers import mock_bundle
from graphmem.store import load, save, validate_snapshot

WORDS = ("garden", "compost", "puppy", "leash", "ferry", "passport", "yesterday", "the")

texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join) | st.text(
    min_size=1, max_size=20
).filter(str.strip)
# Minutes after 09:00, so gaps both under and over the 30-minute pause occur.
timestamps = st.none() | st.integers(0, 600).map(
    lambda m: f"2026-01-05T{9 + m // 60:02d}:{m % 60:02d}:00"
)


def stored(node: EventNode) -> tuple:
    return (node.session_id, node.speaker, node.text, node.timestamp, node.turn_index)


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        config = EngineConfig(buffer_token_limit=8)
        self.bundle = mock_bundle(config)
        self.engine = MemoryEngine(self.bundle, config)
        self.turns: list[tuple] = []
        self.committed = 0
        self.directory = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.directory.name, "memory.json")

    def teardown(self):
        self.directory.cleanup()

    def nodes(self) -> list[EventNode]:
        """Every stored node: the archives in id order, then the buffer."""
        snapshot = self.engine.snapshot
        archives = [snapshot.archive[k].nodes for k in sorted(snapshot.archive)]
        return [n for nodes in archives for n in nodes] + list(snapshot.buffer)

    @rule(
        session=st.sampled_from(("s1", "s2", "s3")),
        speaker=st.sampled_from(("ana", "riley")),
        text=texts,
        timestamp=timestamps,
        turn_index=st.none() | st.integers(0, 40),
    )
    def observe(self, session, speaker, text, timestamp, turn_index):
        expected = turn_index
        if expected is None:
            # A derived index is one past the session's highest so far.
            expected = 1 + max((t[4] for t in self.turns if t[0] == session), default=-1)
        self.committed += len(self.engine.observe(session, speaker, text, timestamp, turn_index))
        self.turns.append((session, speaker, text, timestamp, expected))

    @rule()
    def end_session(self):
        self.committed += len(self.engine.end_session())

    @rule()
    def check_now(self):
        self.committed += len(self.engine.check_now())

    @rule(text=texts, k=st.integers(1, 5))
    def query(self, text, k):
        before = self.engine.snapshot
        ranked = self.engine.query(text, k=k)
        assert self.engine.snapshot is before
        assert [c.rank for c in ranked] == list(range(1, len(ranked) + 1))
        assert len(ranked) <= k
        assert {c.event_node_id for c in ranked} <= {n.id for n in self.nodes()}

    @rule()
    def continue_on_loaded_copy(self):
        save(self.engine.snapshot, self.path)
        self.engine = MemoryEngine(self.bundle, snapshot=load(self.path))

    @invariant()
    def each_accepted_turn_stored_once_in_id_order(self):
        nodes = self.nodes()
        assert [stored(n) for n in nodes] == self.turns
        ids = [n.id for n in nodes]
        assert ids == sorted(set(ids))

    @invariant()
    def one_theme_per_committed_consolidation(self):
        assert len(self.engine.snapshot.topic_graph.nodes) == self.committed

    @invariant()
    def derived_values_match_a_fresh_build(self):
        snapshot = self.engine.snapshot
        if snapshot.archive_turn_max is not None:
            highest: dict[str, int] = {}
            for graph in snapshot.archive.values():
                for node in graph.nodes:
                    highest[node.session_id] = max(highest.get(node.session_id, -1), node.turn_index)
            assert snapshot.archive_turn_max == highest
        graphs = [*snapshot.archive.items(), (LIVE_BUFFER_ID, snapshot.active_event_graph)]
        for graph_id, graph in graphs:
            if graph.candidates is not None:
                assert [c.node for c in graph.candidates] == list(graph.nodes)
                assert {c.source_archive_id for c in graph.candidates} <= {graph_id}
        assert snapshot_bytes(snapshot) == canonical_json(snapshot_to_dict(snapshot))

    @invariant()
    def hash_survives_save_and_load(self):
        snapshot = self.engine.snapshot
        validate_snapshot(snapshot)
        save(snapshot, self.path)
        assert snapshot_hash(load(self.path)) == snapshot_hash(snapshot)


# About 20 s: long enough runs for overflows, pauses and reloads to mix.
EngineMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
TestEngineMachine = EngineMachine.TestCase
