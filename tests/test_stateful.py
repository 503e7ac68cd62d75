"""A hypothesis state machine over ``MemoryEngine`` with the mock providers.

Rules observe turns in three sessions, end sessions, request checks, query,
round-trip the snapshot through save and load, continuing on the loaded
copy, restart (the same with fresh providers, as a new process would), and
fork: a second engine continues from the current snapshot and saves its
own, so the fork shares archives with the main chain.  A small buffer
budget makes overflows fire.  After every step the engine is checked
against a plain model: the list of accepted turns and the number of
committed consolidations.  Each step that consolidates is also checked
against the calls it adds: one entailment call per distinct text of each
segment, and one relation call per distinct summary of each candidate pool.
"""

import os
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from graphmem.config import EngineConfig, estimate_tokens
from graphmem.core import LIVE_BUFFER_ID, EventNode, MemorySnapshot, TopicGraph, snapshot_hash
from graphmem.engine import MemoryEngine
from graphmem.providers import MockEmbedder, MockRelevanceScorer, mock_bundle
from graphmem.retrieval import anchor, drill_down
from graphmem.store import checked_vector, load, save, validate_snapshot

from conftest import cold_file, highest_turns, stored_nodes

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


def check_saved_bytes(snapshot: MemorySnapshot) -> None:
    """The file a save kept on the snapshot, if any, is the one the whole
    document encoded from scratch gives."""
    if snapshot.saved_bytes is not None:
        assert snapshot.saved_bytes == cold_file(snapshot)


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
        self.fork_path = os.path.join(self.directory.name, "fork.json")

    def teardown(self):
        self.directory.cleanup()

    def nodes(self) -> list[EventNode]:
        return stored_nodes(self.engine.snapshot)

    def consolidate(self, step) -> None:
        """Run an engine step that may consolidate, and count its commits.

        Each consolidation asks the entailment checker once per distinct
        text of its segment and the relation scorer once per distinct
        summary of its candidate pool, each in first-occurrence order; the
        mock records the tokens of each pair it is asked."""
        log = self.engine.providers.call_log
        start = len(log)
        reports = step()
        snapshot = self.engine.snapshot
        entailed, related = [], []
        for report in reports:
            summary = estimate_tokens(snapshot.topic_graph.nodes[report.new_topic_id].summary)
            texts = [n.text for n in snapshot.archive[report.archive_id].nodes]
            pool = [snapshot.topic_graph.nodes[t].summary for t, _ in report.candidate_pool]
            entailed += [summary + estimate_tokens(text) for text in dict.fromkeys(texts)]
            related += [summary + estimate_tokens(other) for other in dict.fromkeys(pool)]
        added = log.entries()[start:]
        assert [r.input_tokens for r in added if r.provider == "entailment"] == entailed
        assert [r.input_tokens for r in added if r.provider == "relation_scorer"] == related
        self.committed += len(reports)

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
        self.consolidate(
            lambda: self.engine.observe(session, speaker, text, timestamp, turn_index)
        )
        self.turns.append((session, speaker, text, timestamp, expected))

    @rule()
    def end_session(self):
        self.consolidate(self.engine.end_session)

    @rule()
    def check_now(self):
        self.consolidate(self.engine.check_now)

    @rule(text=texts, k=st.integers(1, 5))
    def query(self, text, k):
        before = self.engine.snapshot
        call_log = self.engine.providers.call_log
        scored = call_log.count("relevance_scorer")
        ranked = self.engine.query(text, k=k)
        assert self.engine.snapshot is before
        assert [c.rank for c in ranked] == list(range(1, len(ranked) + 1))
        assert len(ranked) <= k
        assert {c.event_node_id for c in ranked} <= {n.id for n in self.nodes()}
        # Stored texts repeat; each distinct candidate text is scored once.
        config = before.config
        vector = MockEmbedder(config.embedding_dim, config.seed).embed(text)
        anchors = anchor(before.topic_graph, checked_vector(vector, config.embedding_dim), k)
        candidates = [c.node for c in drill_down(before, anchors)] + list(before.buffer)
        distinct = {n.text for n in candidates}
        assert call_log.count("relevance_scorer") - scored == len(distinct)
        lookup = {n.id: n.text for n in candidates}
        scorer = MockRelevanceScorer()
        for candidate in ranked:
            assert candidate.p_sem == scorer.score(text, lookup[candidate.event_node_id])

    @rule(
        turns=st.lists(
            st.tuples(st.sampled_from(("s1", "s4")), st.sampled_from(("ana", "riley")), texts),
            min_size=1,
            max_size=8,
        )
    )
    def fork(self, turns):
        # The fork runs on the main snapshot, consolidates, and saves before
        # the main engine saves again.
        parent = self.engine.snapshot
        fork = MemoryEngine(mock_bundle(parent.config), snapshot=parent)
        for session, speaker, text in turns:
            fork.observe(session, speaker, text)
        fork.end_session()
        snapshot = fork.snapshot
        nodes = [stored(n) for n in stored_nodes(snapshot)]
        assert nodes[: len(self.turns)] == self.turns
        added = [node[:4] for node in nodes[len(self.turns) :]]
        assert added == [(session, speaker, text, None) for session, speaker, text in turns]
        validate_snapshot(snapshot)
        save(snapshot, self.fork_path)
        check_saved_bytes(snapshot)
        assert snapshot_hash(load(self.fork_path)) == snapshot_hash(snapshot)
        assert self.engine.snapshot is parent

    @rule()
    def continue_on_loaded_copy(self):
        save(self.engine.snapshot, self.path)
        self.engine = MemoryEngine(self.bundle, snapshot=load(self.path))

    @rule()
    def restart(self):
        # As a new process would: nothing but the file carries over, so the
        # loaded snapshot's derived values are built afresh on first use.
        save(self.engine.snapshot, self.path)
        loaded = load(self.path)
        assert loaded.turn_max is None
        assert loaded.saved_bytes is None
        assert "adjacency" not in vars(loaded.topic_graph)
        self.bundle = mock_bundle(loaded.config)
        self.engine = MemoryEngine(self.bundle, snapshot=loaded)

    @invariant()
    def each_accepted_turn_stored_once_in_id_order(self):
        nodes = self.nodes()
        assert [stored(n) for n in nodes] == self.turns
        ids = [n.id for n in nodes]
        assert ids == sorted(set(ids))

    @invariant()
    def each_id_is_its_creation_position(self):
        snapshot = self.engine.snapshot
        kinds = (
            ("e", [n.id for n in self.nodes()]),
            ("t", list(snapshot.topic_graph.nodes)),
            ("a", list(snapshot.archive)),
        )
        for prefix, ids in kinds:
            assert ids == [f"{prefix}{n:06d}" for n in range(1, len(ids) + 1)]

    @invariant()
    def one_theme_per_committed_consolidation(self):
        assert len(self.engine.snapshot.topic_graph.nodes) == self.committed

    @invariant()
    def derived_values_match_a_fresh_build(self):
        snapshot = self.engine.snapshot
        if snapshot.turn_max is not None:
            assert snapshot.turn_max == highest_turns(stored_nodes(snapshot))
        graph = snapshot.active_event_graph
        if "token_total" in vars(graph):
            assert graph.token_total == sum(n.token_count for n in graph.nodes)
        topic_graph = snapshot.topic_graph
        if "adjacency" in vars(topic_graph):
            assert topic_graph.adjacency == TopicGraph(topic_graph.nodes, topic_graph.edges).adjacency
        graphs = [*snapshot.archive.items(), (LIVE_BUFFER_ID, snapshot.active_event_graph)]
        for graph_id, graph in graphs:
            if graph.candidates is not None:
                assert [c.node for c in graph.candidates] == list(graph.nodes)
                assert {c.source_archive_id for c in graph.candidates} <= {graph_id}
        check_saved_bytes(snapshot)

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
