import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem import core
from graphmem.config import estimate_tokens
from graphmem.core import (
    from_columns,
    EVENT_FIELD_TYPES,
    EventGraph,
    EventNode,
    Relation,
    SEQUENTIAL,
    STORED_MEMBERS,
    TopicEdge,
    TopicGraph,
    TopicNode,
    Utterance,
    append_event,
    archive_segment,
    insert_topic_node,
    neighbors,
    new_snapshot,
    next_archive_id,
    next_event_id,
    next_topic_id,
    raw_text,
    snapshot_bytes,
    snapshot_hash,
    snapshot_to_dict,
    stable_layer_hash,
)
from graphmem.errors import StateError

from conftest import highest_turns, random_snapshot, stored_nodes, unit_vector


def utt(text, session="s1", speaker="ana", ts=None):
    return Utterance(session, speaker, text, ts)


def archive_all(snapshot):
    """Freeze the whole buffer, every node trusted."""
    length = len(snapshot.buffer)
    return archive_segment(snapshot, length, [True] * length)


def with_extra_archive(snapshot, n_events=2):
    """Attach an archive that no topic links to yet."""
    counter = max((int(a[1:]) for a in snapshot.archive), default=0) + 1
    archive_id = f"a{counter:06d}"
    base = max(
        (int(n.id[1:]) for g in snapshot.archive.values() for n in g.nodes), default=0
    )
    nodes = tuple(
        EventNode(
            id=f"e{base + i + 1:06d}",
            session_id="sx",
            turn_index=i,
            speaker="ana",
            text=f"spare utterance number {i}",
            timestamp=None,
            token_count=4,
        )
        for i in range(n_events)
    )
    archives = dict(snapshot.archive)
    archives[archive_id] = EventGraph(nodes)
    return archive_id, replace(snapshot, archive=archives)


def fresh_topic(snapshot, archive_id, node_id=None, rng=None):
    """A theme on ``archive_id``, by default under the next topic id."""
    rng = rng or random.Random(0)
    return TopicNode(
        id=node_id or next_topic_id(snapshot),
        summary="a fresh theme",
        keywords=("fresh",),
        embedding=unit_vector(rng, snapshot.config.embedding_dim),
        created_at=snapshot.logical_clock + 1,
        source_archive_id=archive_id,
    )


class TestAppendEvent:
    def test_append_to_empty_buffer(self):
        snap = append_event(new_snapshot(), utt("hello there"))
        assert len(snap.buffer) == 1
        assert snap.active_event_graph.edges == []

    def test_three_appends_form_a_path(self):
        snap = new_snapshot()
        for text in ("one thing", "two things", "three things"):
            snap = append_event(snap, utt(text))
        ids = [n.id for n in snap.buffer]
        assert len(ids) == 3
        assert snap.active_event_graph.edges == [
            [ids[0], ids[1], SEQUENTIAL],
            [ids[1], ids[2], SEQUENTIAL],
        ]

    def test_event_id_overflow_is_refused(self):
        # A seventh digit would break "lexicographic order = creation order".
        snap = append_event(new_snapshot(), utt("the last id there is"))
        last = replace(snap.buffer[0], id="e999999")
        snap = replace(snap, active_event_graph=EventGraph((last,)))
        before = snapshot_hash(snap)
        with pytest.raises(StateError):
            append_event(snap, utt("one turn too many"))
        assert snapshot_hash(snap) == before

    def test_fifty_appends_leave_topic_layer_untouched(self, golden_snapshot):
        snap, _, _ = golden_snapshot
        rng = random.Random(3)
        before = stable_layer_hash(snap)
        for i in range(50):
            snap = append_event(
                snap, utt(f"filler utterance {rng.randrange(1000)} number {i}")
            )
        assert stable_layer_hash(snap) == before

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            append_event(new_snapshot(), utt("   "))

    def test_token_count_uses_estimator(self):
        snap = append_event(new_snapshot(), utt("alpha  beta gamma"))
        assert snap.buffer[0].token_count == estimate_tokens("alpha  beta gamma") == 3

    def test_turn_index_derived_per_session(self):
        snap = new_snapshot()
        snap = append_event(snap, utt("a one", session="s1"))
        snap = append_event(snap, utt("a two", session="s1"))
        snap = append_event(snap, utt("b one", session="s2"))
        assert [n.turn_index for n in snap.buffer] == [0, 1, 0]

    def test_explicit_turn_index_kept(self):
        snap = append_event(
            new_snapshot(), Utterance("s1", "ana", "hello", None, turn_index=7)
        )
        assert snap.buffer[0].turn_index == 7

    def test_clock_strictly_increases(self):
        snap = new_snapshot()
        clocks = [snap.logical_clock]
        for i in range(5):
            snap = append_event(snap, utt(f"line {i}"))
            clocks.append(snap.logical_clock)
        assert clocks == sorted(set(clocks))

    def test_replaying_a_log_reproduces_the_hash(self):
        log = [utt(f"turn number {i}", speaker=("ana", "riley")[i % 2]) for i in range(12)]
        first = new_snapshot()
        second = new_snapshot()
        for u in log:
            first = append_event(first, u)
            second = append_event(second, u)
        assert snapshot_hash(first) == snapshot_hash(second)

    @given(st.lists(st.text(alphabet="abcdef ghij", min_size=1), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_append_sequence_write_isolation(self, texts):
        snap = new_snapshot()
        before = stable_layer_hash(snap)
        count = 0
        for text in texts:
            if not text.strip():
                continue
            snap = append_event(snap, utt(text))
            count += 1
        assert stable_layer_hash(snap) == before
        assert len(snap.buffer) == count


class TestArchive:
    def _buffered(self, n=4):
        snap = new_snapshot()
        for i in range(n):
            snap = append_event(snap, utt(f"utterance number {i}"))
        return snap

    def test_whole_buffer_archived_and_reset(self):
        archive_id, snap = archive_all(self._buffered(4))
        assert len(snap.archive[archive_id]) == 4
        assert snap.buffer == ()
        ids = [n.id for n in snap.archive[archive_id].nodes]
        assert snap.archive[archive_id].edges == [
            [ids[i], ids[i + 1], SEQUENTIAL] for i in range(3)
        ]

    def test_successive_archives_get_distinct_ids(self):
        first_id, snap = archive_all(self._buffered(2))
        snap = append_event(snap, utt("again one more"))
        second_id, snap = archive_all(snap)
        assert first_id != second_id
        assert set(snap.archive) == {first_id, second_id}
        assert len(snap.archive[first_id]) == 2
        assert len(snap.archive[second_id]) == 1

    def test_archived_graph_is_immutable(self):
        archive_id, snap = archive_all(self._buffered(2))
        frozen = snap.archive[archive_id]
        with pytest.raises(AttributeError):
            frozen.nodes = ()
        with pytest.raises(AttributeError):
            frozen.nodes[0].text = "rewritten"

    def test_empty_buffer_archive_is_a_state_bug(self):
        with pytest.raises(StateError):
            archive_all(new_snapshot())

    def test_prefix_archive_keeps_suffix_path(self):
        snap = self._buffered(5)
        archive_id, snap = archive_segment(snap, 3, [True] * 3)
        assert len(snap.archive[archive_id]) == 3
        assert len(snap.buffer) == 2
        ids = [n.id for n in snap.buffer]
        assert snap.active_event_graph.edges == [[ids[0], ids[1], SEQUENTIAL]]

    def test_confidence_flags_stamped_at_freeze(self):
        snap = self._buffered(3)
        archive_id, snap = archive_segment(snap, 3, [True, False, True])
        assert [n.confidence_flag for n in snap.archive[archive_id].nodes] == [
            True,
            False,
            True,
        ]


class TestIdSequence:
    """Every id is its creation position: the mutations allocate by count
    and refuse to break the sequence."""

    def _event(self, number, text="id sequence check"):
        return EventNode(f"e{number:06d}", "s1", number, "ana", text, None, estimate_tokens(text))

    def _gapped(self, buffered=()):
        """One archive, filed under the second archive id."""
        return replace(
            new_snapshot(),
            archive={"a000002": EventGraph((self._event(1),))},
            active_event_graph=EventGraph(tuple(buffered)),
        )

    def test_a_theme_id_other_than_the_next_is_refused(self):
        base = random_snapshot(random.Random(4), 2, edge_probability=0.0)
        archive_id, snap = with_extra_archive(base)
        for node_id in ("t000004", "t000099", "t3"):
            with pytest.raises(ValueError, match="not the next id, t000003"):
                insert_topic_node(snap, fresh_topic(snap, archive_id, node_id), [])
        inserted = insert_topic_node(snap, fresh_topic(snap, archive_id), [])
        assert "t000003" in inserted.topic_graph.nodes

    def test_an_archive_id_already_taken_is_a_state_error(self):
        snap = self._gapped([self._event(2)])
        assert next_archive_id(snap) == "a000002"
        with pytest.raises(StateError, match="a000002"):
            archive_all(snap)

    def test_a_missing_newest_archive_is_a_state_error(self):
        snap = self._gapped()
        with pytest.raises(StateError, match="a000001"):
            next_event_id(snap)
        with pytest.raises(StateError):
            append_event(snap, utt("one more turn"))


class TestCarriedValues:
    """The buffer's token total is carried from snapshot to snapshot; it
    must equal a fresh scan."""

    def test_token_total_is_carried_by_append(self):
        snap = new_snapshot()
        for i in range(6):
            parent = snap.active_event_graph
            snap = append_event(snap, utt(" ".join(["word"] * (i + 1))))
            # Set on the new graph by the append, not summed on first read.
            assert "token_total" in vars(snap.active_event_graph)
            assert snap.active_event_graph.token_total == parent.token_total + i + 1
        assert snap.active_event_graph.token_total == sum(n.token_count for n in snap.buffer) == 21
        _, snap = archive_segment(snap, 2, [True, True])
        assert snap.active_event_graph.token_total == 18

    def test_carried_values_are_never_saved_compared_or_shown(self):
        snap = append_event(new_snapshot(), utt("one turn"))
        assert "token_total" in vars(snap.active_event_graph)
        bare = replace(snap, active_event_graph=EventGraph(snap.buffer))
        assert "token_total" not in vars(bare.active_event_graph)
        assert bare == snap
        assert repr(bare) == repr(snap)
        assert snapshot_bytes(bare) == snapshot_bytes(snap)

    def test_a_frozen_node_whose_flag_matches_is_stored_as_it_is(self):
        snap = append_event(append_event(new_snapshot(), utt("kept node")), utt("flagged node"))
        buffered = snap.buffer
        archive_id, snap = archive_segment(snap, 2, [True, False])
        frozen = snap.archive[archive_id].nodes
        assert frozen[0] is buffered[0]
        assert frozen[1] == replace(buffered[1], confidence_flag=False)


def _scanned_turn_index(snapshot, session_id):
    """Reference derivation: one past the session's highest turn index in a
    fresh scan of the archives and the buffer."""
    return highest_turns(stored_nodes(snapshot)).get(session_id, -1) + 1


SESSIONS = ("s1", "s2", "s3")

# Each step picks the snapshot it continues from among all made so far, so
# several children grow from one parent.
turn_steps = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.tuples(st.just("turn"), st.sampled_from(SESSIONS), st.none() | st.integers(0, 30))
        | st.tuples(st.just("cut"), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=40,
)


class TestCarriedTurnMaxima:
    """Each session's highest stored turn index is carried from snapshot to
    snapshot; every derived index must equal a scan of the stored nodes."""

    @given(turn_steps)
    @settings(max_examples=100, deadline=None)
    def test_derived_turn_indices_match_a_scan_across_cuts_and_forks(self, steps):
        heads = [new_snapshot()]
        for pick, step in steps:
            parent = heads[pick % len(heads)]
            if step[0] == "turn":
                _, session, turn_index = step
                expected = turn_index
                if expected is None:
                    expected = _scanned_turn_index(parent, session)
                child = append_event(parent, Utterance(session, "ana", "a drawn turn", None, turn_index))
                assert child.buffer[-1].turn_index == expected
            elif parent.buffer:
                length = 1 + step[1] % len(parent.buffer)
                _, child = archive_segment(parent, length, [True] * length)
                assert child.turn_max is parent.turn_max
            else:
                continue
            heads.append(child)
        for head in heads:
            if head.turn_max is not None:
                assert head.turn_max == highest_turns(stored_nodes(head))
            for session in SESSIONS:
                derived = append_event(head, Utterance(session, "riley", "one more turn"))
                assert derived.buffer[-1].turn_index == _scanned_turn_index(head, session)

    def test_appends_without_turn_indices_build_the_map_once(self, monkeypatch):
        scans = []
        scan = core._scan_turn_max

        def counted(snapshot):
            scans.append(snapshot)
            return scan(snapshot)

        monkeypatch.setattr(core, "_scan_turn_max", counted)
        snap = new_snapshot()
        for i in range(200):
            snap = append_event(snap, utt(f"turn number {i}", session=("s1", "s2")[i % 2]))
            if i % 50 == 49:
                _, snap = archive_all(snap)
        # The first turn scanned the (empty) snapshot; every later turn, the
        # archived ones included, read the carried map.
        assert len(scans) == 1
        assert [n.turn_index for n in stored_nodes(snap)] == [i // 2 for i in range(200)]
        assert snap.turn_max == {"s1": 99, "s2": 99}

    def test_explicit_turn_indices_never_build_the_map(self, monkeypatch):
        def refused(snapshot):
            raise AssertionError("an explicit turn index built the map")

        monkeypatch.setattr(core, "_scan_turn_max", refused)
        snap = new_snapshot()
        for i in range(5):
            snap = append_event(snap, Utterance("s1", "ana", f"turn {i}", None, turn_index=i))
        archive_id, snap = archive_segment(snap, 3, [True] * 3)
        snap = insert_topic_node(snap, fresh_topic(snap, archive_id), [])
        assert snap.turn_max is None
        monkeypatch.undo()
        snap = append_event(snap, utt("a derived turn"))
        assert snap.buffer[-1].turn_index == 5
        assert snap.turn_max == {"s1": 5}

    def test_archiving_and_theme_insertion_pass_on_the_parents_map(self):
        # Moving nodes from the buffer into an archive changes no stored
        # turn index, so neither mutation copies or rebuilds the map.
        snap = append_event(append_event(new_snapshot(), utt("one turn")), utt("two turns"))
        built = snap.turn_max
        assert built == {"s1": 1}
        archive_id, archived = archive_segment(snap, 1, [False])
        assert archived.turn_max is built
        inserted = insert_topic_node(archived, fresh_topic(archived, archive_id), [])
        assert inserted.turn_max is built
        assert built == {"s1": 1}

    def test_the_map_is_never_saved_compared_or_shown(self):
        snap = append_event(append_event(new_snapshot(), utt("one turn")), utt("two turns"))
        bare = replace(snap)
        assert snap.turn_max == {"s1": 1} and bare.turn_max is None
        assert bare == snap
        assert repr(bare) == repr(snap)
        assert snapshot_to_dict(bare) == snapshot_to_dict(snap)
        assert snapshot_bytes(bare) == snapshot_bytes(snap)
        assert "turn_max" not in snapshot_to_dict(snap)
        # No graph carries a map of its own any more.
        with pytest.raises(TypeError):
            EventGraph(snap.active_event_graph.nodes, turn_max={})
        with pytest.raises(TypeError):
            core.MemorySnapshot(snap.config, turn_max={})


class TestInsertTopicNode:
    def test_first_node_into_empty_graph(self):
        archive_id, snap = with_extra_archive(new_snapshot())
        node = fresh_topic(snap, archive_id, "t000001")
        snap = insert_topic_node(snap, node, [])
        assert set(snap.topic_graph.nodes) == {"t000001"}
        assert snap.topic_graph.edges == {}
        assert snap.cross_index == {"t000001": archive_id}

    def test_edges_above_threshold_stored(self):
        base = random_snapshot(random.Random(5), 2, edge_probability=0.0)
        archive_id, snap = with_extra_archive(base)
        node = fresh_topic(snap, archive_id)
        edges = [
            TopicEdge(node.id, "t000001", Relation.SUPPORT, 0.9),
            TopicEdge(node.id, "t000002", Relation.SEMANTIC, 0.8),
        ]
        snap = insert_topic_node(snap, node, edges)
        stored = {(e.to_id, e.weight) for e in snap.topic_graph.edges.values()}
        assert stored == {("t000001", 0.9), ("t000002", 0.8)}

    def test_low_weight_edge_rejected_before_any_mutation(self):
        base = random_snapshot(random.Random(6), 2, edge_probability=0.0)
        archive_id, snap = with_extra_archive(base)
        node = fresh_topic(snap, archive_id)
        before = snapshot_bytes(snap)
        admitted = [w for w in (0.9, 0.4) if w > snap.config.tau]
        assert admitted == [0.9]  # oracle: only weights above tau survive
        edges = [
            TopicEdge(node.id, "t000001", Relation.SUPPORT, 0.9),
            TopicEdge(node.id, "t000002", Relation.SEMANTIC, 0.4),
        ]
        with pytest.raises(ValueError, match="tau"):
            insert_topic_node(snap, node, edges)
        assert snapshot_bytes(snap) == before

    def test_nan_weight_edge_rejected(self):
        base = random_snapshot(random.Random(6), 1, edge_probability=0.0)
        archive_id, snap = with_extra_archive(base)
        node = fresh_topic(snap, archive_id)
        edge = TopicEdge(node.id, "t000001", Relation.SUPPORT, float("nan"))
        with pytest.raises(ValueError, match="tau"):
            insert_topic_node(snap, node, [edge])

    def test_duplicate_node_id_rejected(self):
        base = random_snapshot(random.Random(7), 2, edge_probability=0.0)
        archive_id, snap = with_extra_archive(base)
        node = fresh_topic(snap, archive_id, node_id="t000001")
        with pytest.raises(ValueError, match="duplicate"):
            insert_topic_node(snap, node, [])

    def test_dangling_endpoint_rejected(self):
        base = random_snapshot(random.Random(8), 2, edge_probability=0.0)
        archive_id, snap = with_extra_archive(base)
        node = fresh_topic(snap, archive_id)
        edge = TopicEdge(node.id, "t999999", Relation.SEMANTIC, 0.9)
        with pytest.raises(ValueError, match="dangling"):
            insert_topic_node(snap, node, [edge])

    def test_edge_not_touching_node_rejected(self):
        base = random_snapshot(random.Random(9), 2, edge_probability=0.0)
        archive_id, snap = with_extra_archive(base)
        node = fresh_topic(snap, archive_id)
        edge = TopicEdge("t000001", "t000002", Relation.SEMANTIC, 0.9)
        with pytest.raises(ValueError, match="touch"):
            insert_topic_node(snap, node, [edge])

    def test_missing_source_archive_rejected(self):
        snap = random_snapshot(random.Random(10), 2, edge_probability=0.0)
        node = fresh_topic(snap, "a009999")
        with pytest.raises(ValueError, match="archive"):
            insert_topic_node(snap, node, [])

    def test_one_edge_per_pair_higher_weight_wins(self):
        base = random_snapshot(random.Random(11), 1, edge_probability=0.0)
        archive_id, snap = with_extra_archive(base)
        node = fresh_topic(snap, archive_id)
        lower = TopicEdge(node.id, "t000001", Relation.SUPPORT, 0.7)
        higher = TopicEdge("t000001", node.id, Relation.SEMANTIC, 0.9)
        snap_a = insert_topic_node(snap, node, [lower, higher])
        snap_b = insert_topic_node(snap, node, [higher, lower])
        for result in (snap_a, snap_b):
            edges = list(result.topic_graph.edges.values())
            assert len(edges) == 1
            assert edges[0].weight == 0.9
            assert edges[0].relation is Relation.SEMANTIC

    def test_equal_weight_keeps_first(self):
        base = random_snapshot(random.Random(12), 1, edge_probability=0.0)
        archive_id, snap = with_extra_archive(base)
        node = fresh_topic(snap, archive_id)
        first = TopicEdge(node.id, "t000001", Relation.SUPPORT, 0.8)
        second = TopicEdge(node.id, "t000001", Relation.SEMANTIC, 0.8)
        result = insert_topic_node(snap, node, [first, second])
        assert list(result.topic_graph.edges.values())[0].relation is Relation.SUPPORT


class TestNeighbors:
    def test_isolated_node(self):
        snap = random_snapshot(random.Random(1), 1, edge_probability=0.0)
        assert neighbors(snap.topic_graph, "t000001") == set()

    def test_star_graph(self):
        snap = random_snapshot(random.Random(1), 6, edge_probability=0.0)
        edges = {
            ("t000001", f"t{s:06d}"): TopicEdge(
                "t000001", f"t{s:06d}", Relation.SEMANTIC, 0.9
            )
            for s in range(2, 7)
        }
        graph = TopicGraph(snap.topic_graph.nodes, edges)
        assert neighbors(graph, "t000001") == {f"t{s:06d}" for s in range(2, 7)}
        assert neighbors(graph, "t000003") == {"t000001"}

    def test_matches_brute_force_scan_on_random_graph(self):
        rng = random.Random(42)
        snap = random_snapshot(rng, 200, edge_probability=0.03)
        graph = snap.topic_graph
        assert graph.edges  # the sample should actually exercise edges
        for node_id in graph.nodes:
            expected = set()
            for edge in graph.edges.values():
                if edge.from_id == node_id:
                    expected.add(edge.to_id)
                if edge.to_id == node_id:
                    expected.add(edge.from_id)
            assert neighbors(graph, node_id) == expected

    def test_unknown_id(self):
        snap = random_snapshot(random.Random(1), 2)
        with pytest.raises(ValueError):
            neighbors(snap.topic_graph, "t999999")

    def test_insert_carries_a_built_adjacency_map(self):
        snap = random_snapshot(random.Random(21), 5, edge_probability=0.4)
        tau = snap.config.tau
        assert "adjacency" not in vars(insert_topic_node(*self._theme(snap, "t000006"), []).topic_graph)
        graphs = [snap.topic_graph]
        built = graphs[0].adjacency
        inserts = [
            ("t000006", []),  # no edges: no entry, as a fresh build has none
            ("t000007", [("t000001", tau + 0.1), ("t000006", tau + 0.2)]),
            # The same pair twice: the rescored edge replaces the first.
            ("t000008", [("t000002", tau + 0.1), ("t000002", tau + 0.3), ("t000007", tau + 0.2)]),
        ]
        for topic_id, ends in inserts:
            snap, node = self._theme(snap, topic_id)
            edges = [TopicEdge(topic_id, other, Relation.SEMANTIC, weight) for other, weight in ends]
            snap = insert_topic_node(snap, node, edges)
            graph = snap.topic_graph
            assert "adjacency" in vars(graph)
            assert graph.adjacency == TopicGraph(graph.nodes, graph.edges).adjacency
            graphs.append(graph)
        assert "t000006" in graphs[-1].adjacency
        assert "t000006" not in graphs[1].adjacency
        # Every parent's map stays as it was built.
        assert graphs[0].adjacency is built
        for graph in graphs:
            assert graph.adjacency == TopicGraph(graph.nodes, graph.edges).adjacency

    @staticmethod
    def _theme(snapshot, topic_id):
        archive_id, snapshot = with_extra_archive(snapshot)
        return snapshot, fresh_topic(snapshot, archive_id, topic_id)


class TestSerialization:
    def test_equal_snapshots_equal_bytes(self):
        a = new_snapshot()
        b = new_snapshot()
        for text in ("first line here", "second line here"):
            a = append_event(a, utt(text))
            b = append_event(b, utt(text))
        assert snapshot_bytes(a) == snapshot_bytes(b)

    def test_bytes_move_with_content(self):
        a = append_event(new_snapshot(), utt("first line here"))
        b = append_event(new_snapshot(), utt("different line here"))
        assert snapshot_bytes(a) != snapshot_bytes(b)

    def test_state_flag_not_serialized(self):
        # The document holds memory contents only, no lifecycle flag.
        snap = append_event(new_snapshot(), utt("hello world"))
        assert set(snapshot_to_dict(snap)) == {
            "topic_nodes",
            "topic_edges",
            "archives",
            "cross_index",
            "active_buffer",
            "config",
            "logical_clock",
        }

    def test_raw_text_rendering(self):
        nodes = [
            EventNode("e1", "s1", 0, "ana", "hello there", None, 2),
            EventNode("e2", "s1", 1, "riley", "hi again", None, 2),
        ]
        assert raw_text(nodes) == "\nana: hello there\nriley: hi again"


@pytest.mark.parametrize(
    "value",
    [
        EventNode("e000001", "s1", 0, "ana", "hello there", None, 2),
        TopicNode("t000001", "about hello", ("hello",), (1.0, 0.0), 1, "a000001"),
        TopicEdge("t000001", "t000002", Relation.CAUSAL, 0.5),
    ],
    ids=lambda value: type(value).__name__,
)
def test_stored_records_are_slotted(value):
    # A snapshot holds one per utterance, theme and edge.
    assert not hasattr(value, "__dict__")
    assert replace(value) == value


def test_event_field_types_follow_the_node_fields():
    # The loader type-checks each field an event is stored with: every node
    # field but the token count, which it derives from the text.
    assert list(EVENT_FIELD_TYPES) == [f.name for f in fields(EventNode) if f.name != "token_count"]
    snap = append_event(new_snapshot(), utt("hello there"))
    assert list(STORED_MEMBERS["active_buffer"](snap)[0]) == list(EVENT_FIELD_TYPES)


@pytest.mark.parametrize(
    "cls, rows",
    [
        (
            EventNode,
            [
                ("e000001", "s1", 0, "ana", "a line", None, 2, True),
                ("e000002", "s1", 1, "riley", "another line", "2026-01-05T09:00:00", 2, False),
            ],
        ),
        (TopicNode, [("t000001", "summary", ("word",), (1.0, 0.0), 3, "a000001")]),
        (
            TopicEdge,
            [("t000001", "t000002", Relation.CAUSAL, 0.75), ("t000001", "t000003", Relation.SEMANTIC, 0.5)],
        ),
    ],
)
def test_records_from_columns_equal_constructed_records(cls, rows):
    built = from_columns(cls, [list(column) for column in zip(*rows)])
    assert built == [cls(*row) for row in rows]
    assert [hash(record) for record in built] == [hash(cls(*row)) for row in rows]
    assert from_columns(cls, [[] for _ in fields(cls)]) == []
    # Building from columns skips __init__, so construction must check nothing.
    assert not hasattr(cls, "__post_init__")
