"""Two-layer graph memory state and the structural mutations over it.

A snapshot combines three parts: the topic graph of consolidated themes,
the active event buffer holding the live episode, and frozen archives of
past episodes.  Each fact is held once: an event graph's sequential edges
follow from its node order and its id from its archive key (``"live"`` for
the buffer); the cross-layer index and a theme's verbatim text follow from
the theme's ``source_archive_id``; an edge's direction follows from its
relation, and an event's token count from its text.  Two documents are
defined here, each field by one writer.  The stored body,
:data:`STORED_MEMBERS`, holds none of those copies: six members, written
by one writer each for an event node, a theme and a topic edge, which
``store.save`` encodes.  The hashed document, :data:`SNAPSHOT_MEMBERS`,
which :func:`snapshot_to_dict` builds and the hashes encode, has seven:
its writers reuse the stored-form ones and add the copies, so a
snapshot's identity does not depend on what the file leaves out.  A save
keeps the file it wrote on the snapshot (``saved_bytes``), so a re-save of
that very object only writes; any other snapshot's save encodes the whole
body.
An :class:`Utterance` is the one turn record, for ``observe`` and corpora
alike.
Every mutation is functional: operations return a new snapshot
and never modify their input, so an append never sees a consolidation that
is building its result, and concurrent reads need no locking.

Identifiers are engine-generated and zero-padded ("e000007", "t000002",
"a000003"), and each is its creation position: the graphs only grow, so
lexicographic order equals creation order and replays are byte-stable; a
counter past 999999 is refused.  The next topic or archive id is the count
plus one, and the next event id follows the newest node, which ends the
buffer or else the newest archive, ``a{count}``.  The mutations refuse to
break this sequence and the loader checks it (``id-sequence``).  The
buffer's token total and, per session, the highest stored turn index are
derived values carried from snapshot to snapshot: never saved, each built
by one scan on first use (after a load, for instance) and then moved on in
constant time by the mutation that changes it.  Archiving moves nodes
without changing their turn indices, so it passes the turn maxima on as
they are.  So a turn costs the same however much is stored or buffered,
with or without a turn index.  Mutations build their results directly
rather than through ``dataclasses.replace``.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict, deque
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, TypeVar

from .config import EngineConfig, estimate_tokens
from .errors import StateError

if TYPE_CHECKING:
    from .retrieval import CandidateEvent
    from .store import VectorIndex

_ID_WIDTH = 6
LIVE_BUFFER_ID = "live"
SEQUENTIAL = "sequential"


class Relation(str, Enum):
    """Storable edge labels; ``unrelated`` pairs never become edges."""

    SUPPORT = "support"
    CONTRADICT = "contradict"
    COREFERENCE = "coreference"
    CAUSAL = "causal"
    SEMANTIC = "semantic"


#: Scorer vocabulary includes this label, but it is never stored as an edge.
UNRELATED = "unrelated"

#: Every label a relation scorer may return.
RELATION_LABELS = frozenset({r.value for r in Relation} | {UNRELATED})

#: Labels whose edges keep their orientation (new node -> candidate).
DIRECTED_RELATIONS = frozenset({Relation.SUPPORT, Relation.CONTRADICT, Relation.CAUSAL})


# Slotted, like TopicNode and TopicEdge: a snapshot holds one per utterance.
@dataclass(frozen=True, slots=True)
class EventNode:
    """One utterance in an episode."""

    id: str
    session_id: str
    turn_index: int
    speaker: str
    text: str
    timestamp: str | None
    token_count: int
    confidence_flag: bool = True


#: The exact JSON types each stored event-node field may have (all but the
#: derived ``token_count``), checked by the loader and by :class:`Utterance`.
#: Nothing is coerced and a bool is not an int, so only values the engine
#: can save, load and query get in.
EVENT_FIELD_TYPES = {
    "id": (str,),
    "session_id": (str,),
    "turn_index": (int,),
    "speaker": (str,),
    "text": (str,),
    "timestamp": (str, type(None)),
    "confidence_flag": (bool,),
}


@dataclass(frozen=True)
class Utterance:
    """Raw input to :func:`append_event` before an id is assigned.

    A field of the wrong type, a negative ``turn_index`` or blank text is a
    ``ValueError`` here, so a bad turn fails before it can fire a trigger.
    """

    session_id: str
    speaker: str
    text: str
    timestamp: str | None = None
    turn_index: int | None = None

    def __post_init__(self) -> None:
        # One expression rather than a loop: this runs on every observe.
        types = EVENT_FIELD_TYPES
        if (
            type(self.session_id) not in types["session_id"]
            or type(self.speaker) not in types["speaker"]
            or type(self.text) not in types["text"]
            or type(self.timestamp) not in types["timestamp"]
        ):
            fields = ("session_id", "speaker", "text", "timestamp")
            bad = next(n for n in fields if type(getattr(self, n)) not in types[n])
            raise ValueError(f"utterance {bad} has the wrong type")
        if self.turn_index is not None:
            if type(self.turn_index) not in types["turn_index"]:
                raise ValueError("utterance turn_index has the wrong type")
            if self.turn_index < 0:
                raise ValueError("turn_index must be non-negative")
        if not self.text.strip():
            raise ValueError("utterance text must be non-empty")


@dataclass(frozen=True)
class EventGraph:
    """Append-only utterance graph; sequential edges join consecutive nodes.

    Two derived values, like ``TopicGraph.vector_index``, are never saved,
    compared or shown.  :attr:`token_total` is summed once per graph, or
    carried by :func:`append_event` as the old total plus the new node's
    count.  ``candidates`` holds the retrieval candidates the graph yields
    under one theme, built by the first query that reaches the graph.  A
    frozen archive is shared by every later snapshot, so each is built once.
    """

    nodes: tuple[EventNode, ...] = ()
    candidates: tuple[CandidateEvent, ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def token_total(self) -> int:
        return sum(n.token_count for n in self.nodes)

    @property
    def edges(self) -> list[list[str]]:
        """The sequential edges as written: ``[from_id, to_id, "sequential"]``."""
        return [[a.id, b.id, SEQUENTIAL] for a, b in zip(self.nodes, self.nodes[1:])]

    def to_dict(self, graph_id: str) -> dict:
        return {
            "graph_id": graph_id,
            "nodes": [_event_node_dict(n) for n in self.nodes],
            "edges": self.edges,
        }


@dataclass(frozen=True, slots=True)
class TopicNode:
    """Consolidated theme: an abstract summary plus a link to its episode,
    whose verbatim text is :func:`topic_raw`."""

    id: str
    summary: str
    keywords: tuple[str, ...]
    embedding: tuple[float, ...]
    created_at: int
    source_archive_id: str


@dataclass(frozen=True, slots=True)
class TopicEdge:
    from_id: str
    to_id: str
    relation: Relation
    weight: float

    @property
    def directed(self) -> bool:
        return self.relation in DIRECTED_RELATIONS


@dataclass(frozen=True)
class TopicGraph:
    """Theme graph; at most one edge per unordered node pair.

    Two derived values are never saved or compared, each built by one scan
    on first use and carried by :func:`insert_topic_node` to the next graph
    when built: :attr:`adjacency`, with the new theme joined to the other
    ends of its edges, and ``vector_index``, the exact-scan index over the
    node embeddings that ``store.topic_index`` builds, with one more row.
    """

    nodes: Mapping[str, TopicNode] = field(default_factory=dict)
    edges: Mapping[tuple[str, str], TopicEdge] = field(default_factory=dict)
    vector_index: VectorIndex | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def edge_list(self) -> list[TopicEdge]:
        return [self.edges[k] for k in sorted(self.edges)]

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        """Node id -> ids sharing an edge with it, ignoring direction."""
        found: dict[str, set[str]] = defaultdict(set)
        for a, b in self.edges:
            found[a].add(b)
            found[b].add(a)
        return {node_id: frozenset(ids) for node_id, ids in found.items()}


def edge_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered-pair key for edge deduplication."""
    return (a, b) if a <= b else (b, a)


_Record = TypeVar("_Record", EventNode, TopicNode, TopicEdge)


def from_columns(cls: type[_Record], columns: Sequence[Sequence]) -> list[_Record]:
    """``[cls(*row) for row in zip(*columns)]``, for ``columns`` of equal
    length in the field order of ``cls``: :class:`EventNode`,
    :class:`TopicNode` or :class:`TopicEdge`.

    The generated ``__init__`` of these frozen, slotted classes only stores
    each argument, one ``object.__setattr__`` call per field in Python.
    Here each field is stored for every record at once through its slot,
    which builds the records of a loaded 8x snapshot about 2.5 times as
    fast.  It suits only classes whose construction checks nothing.
    """
    records = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for name, column in zip([f.name for f in fields(cls)], columns):
        deque(map(getattr(cls, name).__set__, records, column), maxlen=0)
    return records


def raw_text(nodes: Sequence[EventNode]) -> str:
    """Role-attributed verbatim rendering of an episode, one line per node."""
    return "".join(f"\n{n.speaker}: {n.text}" for n in nodes)


@dataclass(frozen=True)
class MemorySnapshot:
    """Composite memory state; see the module docstring for the layout.

    Two derived values, like ``TopicGraph.vector_index``, are never saved,
    compared or shown.  ``turn_max`` maps a session id to its highest turn
    index over the archives and the buffer together: built by one scan on
    first use (a snapshot built by hand or loaded) by the first turn derived
    without an index, carried on by :func:`append_event`, copied when the
    new turn raises it, and passed on as the very object by archiving and
    theme insertion.  A built map is never changed, so snapshots forked from
    one parent may share it.
    ``saved_bytes`` holds the file ``store.save`` wrote for this very
    object, so a re-save writes it again without encoding; a snapshot is
    never changed in place, so the file holds while it lives.  Nothing
    carries it: every mutation, ``dataclasses.replace`` and ``store.load``
    build a new snapshot, which starts without it.
    """

    config: EngineConfig
    topic_graph: TopicGraph = field(default_factory=TopicGraph)
    active_event_graph: EventGraph = field(default_factory=EventGraph)
    archive: Mapping[str, EventGraph] = field(default_factory=dict)
    logical_clock: int = 0
    turn_max: dict[str, int] | None = field(
        default=None, init=False, compare=False, repr=False
    )
    saved_bytes: bytes | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def buffer(self) -> tuple[EventNode, ...]:
        return self.active_event_graph.nodes

    @property
    def cross_index(self) -> dict[str, str]:
        """Theme id -> id of the archive it was consolidated from."""
        return {t.id: t.source_archive_id for t in self.topic_graph.nodes.values()}


def _topic_archive(snapshot: MemorySnapshot, topic_id: str) -> EventGraph:
    """The archive a theme was consolidated from."""
    return snapshot.archive[snapshot.topic_graph.nodes[topic_id].source_archive_id]


def topic_raw(snapshot: MemorySnapshot, topic_id: str) -> str:
    """Verbatim text of the episode a theme was built from."""
    return raw_text(_topic_archive(snapshot, topic_id).nodes)


def new_snapshot(config: EngineConfig | None = None) -> MemorySnapshot:
    return MemorySnapshot(config=config or EngineConfig())


# ---------------------------------------------------------------------------
# id allocation


#: The ids :func:`_id_after` writes, by prefix (event, topic, archive); the
#: loader refuses any other, since allocation parses the digits back.
ID_FORMAT = {prefix: re.compile(f"{prefix}[0-9]{{{_ID_WIDTH}}}") for prefix in "eta"}


def position_id(prefix: str, position: int) -> str:
    """The id of the ``position``-th node of its kind, counting from 1."""
    return f"{prefix}{position:0{_ID_WIDTH}d}"


def _id_after(prefix: str, count: int) -> str:
    """The id at creation position ``count + 1``."""
    if count + 1 >= 10**_ID_WIDTH:
        raise StateError(f"{prefix} id counter exhausted at {_ID_WIDTH} digits")
    return position_id(prefix, count + 1)


def next_event_id(snapshot: MemorySnapshot) -> str:
    # The newest event ends the buffer or, with the buffer empty, the newest
    # archive; archives are never empty.
    newest = snapshot.buffer
    if not newest and snapshot.archive:
        archive_id = position_id("a", len(snapshot.archive))
        if archive_id not in snapshot.archive:
            raise StateError(f"newest archive {archive_id} not found")
        newest = snapshot.archive[archive_id].nodes
    return _id_after("e", int(newest[-1].id[1:]) if newest else 0)


def next_topic_id(snapshot: MemorySnapshot) -> str:
    return _id_after("t", len(snapshot.topic_graph.nodes))


def next_archive_id(snapshot: MemorySnapshot) -> str:
    return _id_after("a", len(snapshot.archive))


# ---------------------------------------------------------------------------
# structural mutations


def _successor(
    snapshot: MemorySnapshot,
    topic_graph: TopicGraph,
    active_event_graph: EventGraph,
    archive: Mapping[str, EventGraph],
    turn_max: dict[str, int] | None,
) -> MemorySnapshot:
    """The next snapshot, one tick on, built directly with the turn maxima
    carried: setting them on the frozen snapshot changes nothing it
    compares or saves."""
    successor = MemorySnapshot(
        snapshot.config, topic_graph, active_event_graph, archive, snapshot.logical_clock + 1
    )
    if turn_max is not None:
        object.__setattr__(successor, "turn_max", turn_max)
    return successor


def append_event(snapshot: MemorySnapshot, utterance: Utterance) -> MemorySnapshot:
    """Append one utterance to the live buffer.

    The topic layer and archives are shared with the input snapshot
    unchanged; only the buffer and the logical clock move.  A missing turn
    index is one past the session's highest, read from the carried
    per-session maxima.
    """
    session_id = utterance.session_id
    turn_index = utterance.turn_index
    highest = snapshot.turn_max
    if turn_index is None:
        if highest is None:
            highest = _scan_turn_max(snapshot)
        turn_index = highest.get(session_id, -1) + 1

    token_count = estimate_tokens(utterance.text)
    node = EventNode(
        next_event_id(snapshot),
        session_id,
        turn_index,
        utterance.speaker,
        utterance.text,
        utterance.timestamp,
        token_count,
    )
    buffer = snapshot.active_event_graph
    graph = EventGraph(buffer.nodes + (node,))
    object.__setattr__(graph, "token_total", buffer.token_total + token_count)
    if highest is not None and turn_index > highest.get(session_id, -1):
        # Copied when raised, never changed in place: forks share the map.
        highest = {**highest, session_id: turn_index}
    return _successor(snapshot, snapshot.topic_graph, graph, snapshot.archive, highest)


def _scan_turn_max(snapshot: MemorySnapshot) -> dict[str, int]:
    """Each session's highest turn index over the archives and the buffer,
    kept on ``snapshot`` so its forks read it too."""
    highest: dict[str, int] = {}
    for graph in (*snapshot.archive.values(), snapshot.active_event_graph):
        for node in graph.nodes:
            if node.turn_index > highest.get(node.session_id, -1):
                highest[node.session_id] = node.turn_index
    object.__setattr__(snapshot, "turn_max", highest)
    return highest


def archive_segment(
    snapshot: MemorySnapshot,
    length: int,
    confidence_flags: Sequence[bool],
) -> tuple[str, MemorySnapshot]:
    """Freeze the first ``length`` buffered nodes into a new archive entry.

    The buffer keeps its suffix and the frozen graph is stored under a fresh
    archive id.  ``confidence_flags`` are the per-node self-consistency
    results stamped at freeze time; a node whose flag already matches is
    stored as it is.
    """
    buffer = snapshot.active_event_graph
    if not buffer.nodes:
        raise StateError("archive of an empty buffer")
    if not 1 <= length <= len(buffer.nodes):
        raise ValueError(f"segment length {length} out of range")
    if len(confidence_flags) != length:
        raise ValueError("confidence_flags length mismatch")

    archive_id = next_archive_id(snapshot)
    if archive_id in snapshot.archive:
        raise StateError(f"archive id {archive_id} already taken")
    frozen_nodes = tuple(
        n
        if n.confidence_flag is flag
        else EventNode(
            n.id, n.session_id, n.turn_index, n.speaker, n.text, n.timestamp, n.token_count, flag
        )
        for n, flag in zip(buffer.nodes[:length], map(bool, confidence_flags))
    )
    new_archive = dict(snapshot.archive)
    new_archive[archive_id] = EventGraph(frozen_nodes)
    return archive_id, _successor(
        snapshot,
        snapshot.topic_graph,
        EventGraph(buffer.nodes[length:]),
        new_archive,
        snapshot.turn_max,
    )


def insert_topic_node(
    snapshot: MemorySnapshot,
    node: TopicNode,
    edges: Sequence[TopicEdge],
) -> MemorySnapshot:
    """Atomically add a theme plus its admitted edges.

    Rejects, before any mutation: duplicate node ids, an id other than
    :func:`next_topic_id`, edges not touching the new node, dangling
    endpoints, weights at or below the admission threshold, and source
    archives that do not exist.
    """
    graph = snapshot.topic_graph
    tau = snapshot.config.tau
    if node.id in graph.nodes:
        raise ValueError(f"duplicate topic node id {node.id}")
    expected = next_topic_id(snapshot)
    if node.id != expected:
        raise ValueError(f"topic node id {node.id} is not the next id, {expected}")
    if node.source_archive_id not in snapshot.archive:
        raise ValueError(f"source archive {node.source_archive_id} not found")
    ends = set()
    for edge in edges:
        if node.id not in (edge.from_id, edge.to_id):
            raise ValueError(f"edge {edge.from_id}->{edge.to_id} does not touch {node.id}")
        other = edge.to_id if edge.from_id == node.id else edge.from_id
        ends.add(other)
        if other not in graph.nodes:
            raise ValueError(f"dangling edge endpoint {other}")
        if not edge.weight > tau:  # written so that NaN fails
            raise ValueError(f"edge weight {edge.weight} <= tau {tau}")

    new_edges = dict(graph.edges)
    for edge in edges:
        key = edge_key(edge.from_id, edge.to_id)
        current = new_edges.get(key)
        # One edge per unordered pair; a rescored relation only wins with a
        # strictly higher weight.
        if current is None or edge.weight > current.weight:
            new_edges[key] = edge
    new_nodes = dict(graph.nodes)
    new_nodes[node.id] = node
    new_graph = TopicGraph(new_nodes, new_edges)
    if graph.vector_index is not None:
        # Derived value: the parent's index stays as it is.
        index = graph.vector_index.with_row(node.id, node.embedding)
        object.__setattr__(new_graph, "vector_index", index)
    if "adjacency" in vars(graph):
        # Derived value, like the index: the parent's map stays as it is,
        # and a theme without edges gets no entry, as in a fresh build.
        adjacency = dict(graph.adjacency)
        if ends:
            adjacency[node.id] = frozenset(ends)
            for other in ends:
                adjacency[other] = adjacency.get(other, frozenset()) | {node.id}
        object.__setattr__(new_graph, "adjacency", adjacency)
    return _successor(
        snapshot, new_graph, snapshot.active_event_graph, snapshot.archive, snapshot.turn_max
    )


def neighbors(topic_graph: TopicGraph, node_id: str) -> frozenset[str]:
    """All nodes sharing an edge with ``node_id``, ignoring direction."""
    if node_id not in topic_graph.nodes:
        raise ValueError(f"unknown topic node {node_id}")
    return topic_graph.adjacency.get(node_id, frozenset())


def memory_stats(snapshot: MemorySnapshot) -> dict[str, int]:
    """Size counts shared by telemetry rows and ``inspect``.

    ``edges`` counts every link in the two-layer graph: topic edges, one
    cross link per theme and the sequential edges inside each archive, one
    fewer than its nodes (archives are never empty).
    """
    archives = snapshot.archive.values()
    return {
        "event_nodes": sum(len(g) for g in archives),
        "buffered": len(snapshot.buffer),
        "topic_nodes": len(snapshot.topic_graph.nodes),
        "edges": len(snapshot.topic_graph.edges)
        + len(snapshot.topic_graph.nodes)
        + sum(len(g) - 1 for g in archives),
    }


# ---------------------------------------------------------------------------
# canonical serialization


def _stored_event(node: EventNode) -> dict:
    return {
        "id": node.id,
        "session_id": node.session_id,
        "turn_index": node.turn_index,
        "speaker": node.speaker,
        "text": node.text,
        "timestamp": node.timestamp,
        "confidence_flag": node.confidence_flag,
    }


def _stored_events(graph: EventGraph) -> list[dict]:
    return [_stored_event(n) for n in graph.nodes]


def _stored_topic(node: TopicNode) -> dict:
    return {
        "id": node.id,
        "summary": node.summary,
        "keywords": list(node.keywords),
        "embedding": [float(x) for x in node.embedding],
        "created_at": node.created_at,
        "source_archive_id": node.source_archive_id,
    }


def _stored_edge(edge: TopicEdge) -> dict:
    return {
        "from_id": edge.from_id,
        "to_id": edge.to_id,
        "relation": edge.relation.value,
        "weight": float(edge.weight),
    }


#: The six members of the stored body, each with its writer; none writes a
#: field the loader derives.
STORED_MEMBERS: dict[str, Callable[[MemorySnapshot], object]] = {
    "topic_nodes": lambda s: [
        _stored_topic(s.topic_graph.nodes[k]) for k in sorted(s.topic_graph.nodes)
    ],
    "topic_edges": lambda s: [_stored_edge(e) for e in s.topic_graph.edge_list()],
    "archives": lambda s: {k: _stored_events(v) for k, v in s.archive.items()},
    "active_buffer": lambda s: _stored_events(s.active_event_graph),
    "config": lambda s: s.config.to_dict(),
    "logical_clock": lambda s: s.logical_clock,
}


def _event_node_dict(node: EventNode) -> dict:
    return {**_stored_event(node), "token_count": node.token_count}


def _topic_node_dict(snapshot: MemorySnapshot, topic_id: str) -> dict:
    theme = _stored_topic(snapshot.topic_graph.nodes[topic_id])
    return {**theme, "raw": topic_raw(snapshot, topic_id)}


def _topic_edge_dict(edge: TopicEdge) -> dict:
    return {**_stored_edge(edge), "directed": edge.directed}


#: The seven top-level members of the hashed document, each with its writer:
#: the stored members with the derived copies added (graph ids, event edges,
#: ``cross_index``, each event's ``token_count``, each theme's ``raw`` and
#: each edge's ``directed``), so the snapshot's identity does not depend on
#: what the file leaves out.
SNAPSHOT_MEMBERS: dict[str, Callable[[MemorySnapshot], object]] = {
    "topic_nodes": lambda s: [_topic_node_dict(s, k) for k in sorted(s.topic_graph.nodes)],
    "topic_edges": lambda s: [_topic_edge_dict(e) for e in s.topic_graph.edge_list()],
    "archives": lambda s: {k: v.to_dict(k) for k, v in s.archive.items()},
    "cross_index": lambda s: s.cross_index,
    "active_buffer": lambda s: s.active_event_graph.to_dict(LIVE_BUFFER_ID),
    "config": STORED_MEMBERS["config"],
    "logical_clock": STORED_MEMBERS["logical_clock"],
}


def snapshot_to_dict(snapshot: MemorySnapshot) -> dict:
    """Plain-type document with the canonical top-level keys."""
    return {name: write(snapshot) for name, write in SNAPSHOT_MEMBERS.items()}


# One encoder for every call: ``json.dumps`` with these options builds a new
# one each time, which costs more than encoding a graph id.  Neither a parsed
# document nor one the writers build can hold itself, so the encoder skips
# the cycle check, which costs 6-15% of an encode.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False
)


def canonical_json(document: object) -> bytes:
    """Key-sorted, separator-fixed encoding: equal documents, equal bytes.
    ``NaN`` and infinities raise ``ValueError``: they are not JSON."""
    return _ENCODER.encode(document).encode("utf-8")


def snapshot_bytes(snapshot: MemorySnapshot) -> bytes:
    return canonical_json(snapshot_to_dict(snapshot))


def snapshot_hash(snapshot: MemorySnapshot) -> str:
    return hashlib.sha256(snapshot_bytes(snapshot)).hexdigest()


def stable_layer_hash(snapshot: MemorySnapshot) -> str:
    """Hash of everything appends must not touch: themes, archives, index."""
    stable = ("topic_nodes", "topic_edges", "archives", "cross_index")
    document = {k: SNAPSHOT_MEMBERS[k](snapshot) for k in stable}
    return hashlib.sha256(canonical_json(document)).hexdigest()
