"""A hypothesis state machine over ``MemoryEngine`` with the mock providers.

Rules observe turns in three sessions, end sessions, request checks, query,
round-trip the snapshot through save and load, continuing on the loaded
copy, restart (the same with fresh providers, as a new process would), and
fork: a second engine continues from the current snapshot, queries and
saves its own, so the fork shares archives with the main chain.  A small
buffer budget makes overflows fire.

Every step is checked against a plain model (the list of accepted turns
and the number of committed consolidations) and against the scan-only
reference engine in ``reference.py``:

- each query's full ranking, down to the bits of every score;
- each committed consolidation's report and committed snapshot, and the
  calls it adds: one entailment call per distinct text of each segment,
  and one relation call per distinct summary of each candidate pool;
- each saved file, which must be byte for byte the file the reference
  writer writes, and which the reference loader must read back as the
  snapshot saved;
- each value the engine carries from snapshot to snapshot, against its
  scan (:meth:`EngineMachine.carried_values_match_a_scan`).  A new carried
  value gets one line there.
"""

import os
import tempfile
from contextlib import contextmanager

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from graphmem import consolidation
from graphmem.config import EngineConfig, estimate_tokens
from graphmem.core import (
    LIVE_BUFFER_ID,
    EventNode,
    MemorySnapshot,
    next_archive_id,
    next_event_id,
    next_topic_id,
    snapshot_hash,
    stable_layer_hash,
)
from graphmem.engine import MemoryEngine
from graphmem.providers import mock_bundle
from graphmem.retrieval import Query
from graphmem.store import load, save, validate_snapshot

from reference import (
    highest_turns,
    next_ids,
    reference_consolidate,
    reference_file,
    reference_load,
    reference_neighbours,
    reference_retrieve,
    stored_nodes,
)

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


def next_turn(turns: list[tuple], session: str) -> int:
    """The turn index the model derives: one past the session's highest."""
    return 1 + max((t[4] for t in turns if t[0] == session), default=-1)


def check_file(snapshot: MemorySnapshot, path: str) -> None:
    """Save ``snapshot``: the file it keeps is the one the reference writer
    writes, and the engine's loader and the reference loader both read it
    back as ``snapshot``, so no carried value is saved or compared."""
    save(snapshot, path)
    assert snapshot.saved_bytes == reference_file(snapshot)
    loaded = load(path)
    assert loaded == reference_load(path) == snapshot
    assert snapshot_hash(loaded) == snapshot_hash(snapshot)


def shown(ranking) -> list[tuple]:
    """Every field of a ranking, each float by its bits."""
    return [
        (c.rank, c.event_node_id, c.source_archive_id, c.anchor_topic_id, c.indicators)
        + (c.p_sem.hex(), c.score.hex(), c.degraded)
        for c in ranking
    ]


def check_query(engine: MemoryEngine, text: str, k: int) -> None:
    """The engine ranks ``text`` as the reference does, leaves its snapshot
    as it was, and asks the relevance scorer as often: once per distinct
    candidate text."""
    before = engine.snapshot
    log = engine.providers.call_log
    scored = log.count("relevance_scorer")
    ranked = engine.query(text, k=k)
    assert engine.snapshot is before
    oracle = mock_bundle(before.config)
    assert shown(ranked) == shown(reference_retrieve(before, Query(text), oracle, k))
    assert log.count("relevance_scorer") - scored == oracle.call_log.count("relevance_scorer")


@contextmanager
def consolidations():
    """Records each consolidation committed inside the block: the snapshot
    it started from, its segment's length, its report and its result."""
    committed = []
    original = consolidation.consolidate_segment

    def recorded(snapshot, segment, providers, forced=False):
        report, result = original(snapshot, segment, providers, forced)
        committed.append((snapshot, len(segment), report, result))
        return report, result

    consolidation.consolidate_segment = recorded
    try:
        yield committed
    finally:
        consolidation.consolidate_segment = original


def check_consolidations(committed: list[tuple], calls) -> None:
    """Each consolidation commits what the reference commits, and ``calls``
    hold each one's scorer calls in order: the entailment checker once per
    distinct text of its segment and the relation scorer once per distinct
    summary of its candidate pool, each in first-occurrence order (the mock
    records the tokens of each pair it is asked)."""
    entailed, related = [], []
    for parent, length, report, result in committed:
        segment = parent.buffer[:length]
        fields, expected = reference_consolidate(parent, segment, mock_bundle(parent.config))
        assert {name: getattr(report, name) for name in fields} == fields
        assert result == expected
        assert stable_layer_hash(result) == stable_layer_hash(expected)
        summary = estimate_tokens(result.topic_graph.nodes[report.new_topic_id].summary)
        pool = [parent.topic_graph.nodes[t].summary for t, _ in report.candidate_pool]
        entailed += [summary + estimate_tokens(t) for t in dict.fromkeys(n.text for n in segment)]
        related += [summary + estimate_tokens(other) for other in dict.fromkeys(pool)]
    assert [r.input_tokens for r in calls if r.provider == "entailment"] == entailed
    assert [r.input_tokens for r in calls if r.provider == "relation_scorer"] == related


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        config = EngineConfig(buffer_token_limit=8)
        self.bundle = mock_bundle(config)
        self.engine = MemoryEngine(self.bundle, config)
        self.turns: list[tuple] = []
        self.committed = 0
        self.checked: MemorySnapshot | None = None
        self.directory = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.directory.name, "memory.json")
        self.fork_path = os.path.join(self.directory.name, "fork.json")

    def teardown(self):
        self.directory.cleanup()

    def consolidate(self, step) -> None:
        """Run an engine step that may consolidate, check what it commits,
        and count its commits."""
        log = self.engine.providers.call_log
        start = len(log)
        with consolidations() as committed:
            reports = step()
        assert reports == [report for _, _, report, _ in committed]
        check_consolidations(committed, log.entries()[start:])
        self.committed += len(reports)

    @rule(
        session=st.sampled_from(("s1", "s2", "s3")),
        speaker=st.sampled_from(("ana", "riley")),
        text=texts,
        timestamp=timestamps,
        turn_index=st.none() | st.integers(0, 40),
    )
    def observe(self, session, speaker, text, timestamp, turn_index):
        expected = next_turn(self.turns, session) if turn_index is None else turn_index
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
        check_query(self.engine, text, k)

    @rule(
        turns=st.lists(
            st.tuples(st.sampled_from(("s1", "s4")), st.sampled_from(("ana", "riley")), texts),
            min_size=1,
            max_size=8,
        ),
        k=st.integers(1, 5),
    )
    def fork(self, turns, k):
        # The fork runs on the main snapshot, consolidates, queries the
        # archives it shares with the main chain, and saves before the main
        # engine saves again.
        parent = self.engine.snapshot
        fork = MemoryEngine(mock_bundle(parent.config), snapshot=parent)
        model = list(self.turns)
        with consolidations() as committed:
            for session, speaker, text in turns:
                fork.observe(session, speaker, text)
                model.append((session, speaker, text, None, next_turn(model, session)))
            fork.end_session()
        check_consolidations(committed, fork.providers.call_log.entries())
        assert [stored(n) for n in stored_nodes(fork.snapshot)] == model
        check_query(fork, turns[0][2], k)
        validate_snapshot(fork.snapshot)
        check_file(fork.snapshot, self.fork_path)
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
        assert all(g.candidates is None for g in loaded.archive.values())
        self.bundle = mock_bundle(loaded.config)
        self.engine = MemoryEngine(self.bundle, snapshot=loaded)

    @invariant()
    def each_accepted_turn_stored_once_in_id_order(self):
        nodes = stored_nodes(self.engine.snapshot)
        assert [stored(n) for n in nodes] == self.turns
        ids = [n.id for n in nodes]
        assert ids == sorted(set(ids))

    @invariant()
    def each_id_is_its_creation_position(self):
        snapshot = self.engine.snapshot
        kinds = (
            ("e", [n.id for n in stored_nodes(snapshot)]),
            ("t", list(snapshot.topic_graph.nodes)),
            ("a", list(snapshot.archive)),
        )
        for prefix, ids in kinds:
            assert ids == [f"{prefix}{n:06d}" for n in range(1, len(ids) + 1)]

    @invariant()
    def one_theme_per_committed_consolidation(self):
        assert len(self.engine.snapshot.topic_graph.nodes) == self.committed

    @invariant()
    def theme_k_consolidates_archive_k(self):
        snapshot = self.engine.snapshot
        themes = len(snapshot.topic_graph.nodes)
        assert len(snapshot.archive) == themes
        assert snapshot.cross_index == {f"t{k:06d}": f"a{k:06d}" for k in range(1, themes + 1)}

    @invariant()
    def carried_values_match_a_scan(self):
        # One line per value the engine carries, checked whenever built.
        snapshot = self.engine.snapshot
        ids = next_ids(snapshot)
        allocated = (next_event_id(snapshot), next_topic_id(snapshot), next_archive_id(snapshot))
        assert allocated == (ids["e"], ids["t"], ids["a"])
        if snapshot.turn_max is not None:
            assert snapshot.turn_max == highest_turns(snapshot)
        buffer = snapshot.active_event_graph
        if "token_total" in vars(buffer):
            assert buffer.token_total == sum(n.token_count for n in buffer.nodes)
        themes = snapshot.topic_graph
        if "adjacency" in vars(themes):
            scanned = {t: ends for t in themes.nodes if (ends := reference_neighbours(themes, t))}
            assert themes.adjacency == scanned
        if themes.vector_index is not None:
            order = sorted(themes.nodes)
            rows = np.array([themes.nodes[t].embedding for t in order], dtype=float)
            assert themes.vector_index.ids == tuple(order)
            assert themes.vector_index.matrix.tobytes() == rows.tobytes()
        for graph_id, graph in [*snapshot.archive.items(), (LIVE_BUFFER_ID, buffer)]:
            if graph.candidates is not None:
                anchor = LIVE_BUFFER_ID if graph_id == LIVE_BUFFER_ID else "t" + graph_id[1:]
                built = [(c.node, c.source_archive_id, c.anchor_topic_id) for c in graph.candidates]
                assert built == [(n, graph_id, anchor) for n in graph.nodes]
        # The bytes a save keeps are checked by check_file.

    @invariant()
    def the_saved_file_reads_back_as_the_snapshot(self):
        # A step that kept the snapshot, such as a query, would only write
        # the same file again.
        snapshot = self.engine.snapshot
        if snapshot is not self.checked:
            validate_snapshot(snapshot)
            check_file(snapshot, self.path)
            self.checked = snapshot


# About 20 to 30 s, by the states drawn: long enough runs for overflows,
# pauses and reloads to mix.
EngineMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
TestEngineMachine = EngineMachine.TestCase
