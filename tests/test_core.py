import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.config import estimate_tokens
from graphmem.core import (
    EventGraph,
    EventNode,
    Relation,
    SEQUENTIAL,
    TopicEdge,
    TopicGraph,
    TopicNode,
    Utterance,
    append_event,
    archive_segment,
    insert_topic_node,
    neighbors,
    new_snapshot,
    raw_text,
    snapshot_bytes,
    snapshot_hash,
    snapshot_to_dict,
    stable_layer_hash,
)
from graphmem.errors import StateError

from conftest import random_snapshot, unit_vector


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


def fresh_topic(snapshot, archive_id, node_id="t000099", rng=None):
    rng = rng or random.Random(0)
    return TopicNode(
        id=node_id,
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
        assert snap.active_event_graph.edges == ()

    def test_three_appends_form_a_path(self):
        snap = new_snapshot()
        for text in ("one thing", "two things", "three things"):
            snap = append_event(snap, utt(text))
        ids = [n.id for n in snap.buffer]
        assert len(ids) == 3
        assert list(snap.active_event_graph.edges) == [
            (ids[0], ids[1], SEQUENTIAL),
            (ids[1], ids[2], SEQUENTIAL),
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
        assert list(snap.archive[archive_id].edges) == [
            (ids[i], ids[i + 1], SEQUENTIAL) for i in range(3)
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
        assert list(snap.active_event_graph.edges) == [(ids[0], ids[1], SEQUENTIAL)]

    def test_confidence_flags_stamped_at_freeze(self):
        snap = self._buffered(3)
        archive_id, snap = archive_segment(snap, 3, [True, False, True])
        assert [n.confidence_flag for n in snap.archive[archive_id].nodes] == [
            True,
            False,
            True,
        ]


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
        node = fresh_topic(snap, "a000001", node_id="t000099")
        node = replace(node, source_archive_id="a009999")
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
