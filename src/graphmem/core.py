"""Two-layer graph memory state and the structural mutations over it.

A snapshot combines three parts: the topic graph of consolidated themes,
the active event buffer holding the live episode, and frozen archives of
past episodes.  Each fact is held once: an event graph's sequential edges
follow from its node order and its id from its archive key (``"live"`` for
the buffer); the cross-layer index and a theme's verbatim text follow from
the theme's ``source_archive_id``.  The saved document still writes these
copies out, and the loader checks them.  Every mutation is functional:
operations return a new snapshot and never modify their input, which is
what makes transactional consolidation and concurrent reads cheap to reason
about.

Identifiers are engine-generated, zero-padded and monotonic ("e000007",
"t000002", "a000003") so that lexicographic order equals creation order and
replays are byte-stable; a counter past 999999 is refused.  Because event ids
rise through the archives in id order and then the buffer (the loader checks
this), the next event id follows from the newest node alone, and the next
topic or archive id from the highest key.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from .config import EngineConfig, estimate_tokens
from .errors import StateError

if TYPE_CHECKING:
    from .store import VectorIndex

_ID_WIDTH = 6
LIVE_BUFFER_ID = "live"
SEQUENTIAL = "sequential"


class EngineState(Enum):
    EPISODIC_BUFFERING = "episodic_buffering"
    SEMANTIC_CONSOLIDATION = "semantic_consolidation"


class Relation(str, Enum):
    """Storable edge labels; ``unrelated`` pairs never become edges."""

    SUPPORT = "support"
    CONTRADICT = "contradict"
    COREFERENCE = "coreference"
    CAUSAL = "causal"
    SEMANTIC = "semantic"


#: Scorer vocabulary includes this label, but it is never stored as an edge.
UNRELATED = "unrelated"

#: Labels whose edges keep their orientation (new node -> candidate).
DIRECTED_RELATIONS = frozenset({Relation.SUPPORT, Relation.CONTRADICT, Relation.CAUSAL})


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Utterance:
    """Raw input to :func:`append_event` before an id is assigned."""

    session_id: str
    speaker: str
    text: str
    timestamp: str | None = None
    turn_index: int | None = None


@dataclass(frozen=True)
class EventGraph:
    """Append-only utterance graph; sequential edges join consecutive nodes."""

    nodes: tuple[EventNode, ...] = ()

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def token_total(self) -> int:
        return sum(n.token_count for n in self.nodes)

    @property
    def edges(self) -> tuple[tuple[str, str, str], ...]:
        return tuple((a.id, b.id, SEQUENTIAL) for a, b in zip(self.nodes, self.nodes[1:]))

    def to_dict(self, graph_id: str) -> dict:
        nodes = self.nodes
        return {
            "graph_id": graph_id,
            "nodes": [_event_node_dict(n) for n in nodes],
            "edges": [[a.id, b.id, SEQUENTIAL] for a, b in zip(nodes, nodes[1:])],
        }


@dataclass(frozen=True)
class TopicNode:
    """Consolidated theme: an abstract summary plus a link to its episode,
    whose verbatim text is :func:`topic_raw`."""

    id: str
    summary: str
    keywords: tuple[str, ...]
    embedding: tuple[float, ...]
    created_at: int
    source_archive_id: str


@dataclass(frozen=True)
class TopicEdge:
    from_id: str
    to_id: str
    relation: Relation
    weight: float
    directed: bool


@dataclass(frozen=True)
class TopicGraph:
    """Theme graph; at most one edge per unordered node pair.

    Two derived values are built at most once per graph and are never saved
    or compared: :attr:`adjacency`, and ``vector_index``, the exact-scan
    index over the node embeddings that ``store.topic_index`` builds on
    first use and :func:`insert_topic_node` carries to the next graph with
    one more row.
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


def raw_text(nodes: Sequence[EventNode]) -> str:
    """Role-attributed verbatim rendering of an episode, one line per node."""
    return "".join(f"\n{n.speaker}: {n.text}" for n in nodes)


@dataclass(frozen=True)
class MemorySnapshot:
    """Composite memory state; see the module docstring for the layout."""

    config: EngineConfig
    topic_graph: TopicGraph = field(default_factory=TopicGraph)
    active_event_graph: EventGraph = field(default_factory=EventGraph)
    archive: Mapping[str, EventGraph] = field(default_factory=dict)
    state: EngineState = EngineState.EPISODIC_BUFFERING
    logical_clock: int = 0

    @property
    def buffer(self) -> tuple[EventNode, ...]:
        return self.active_event_graph.nodes

    @property
    def cross_index(self) -> dict[str, str]:
        """Theme id -> id of the archive it was consolidated from."""
        return {t.id: t.source_archive_id for t in self.topic_graph.nodes.values()}


def topic_raw(snapshot: MemorySnapshot, topic_id: str) -> str:
    """Verbatim text of the episode a theme was built from."""
    node = snapshot.topic_graph.nodes[topic_id]
    return raw_text(snapshot.archive[node.source_archive_id].nodes)


def new_snapshot(config: EngineConfig | None = None) -> MemorySnapshot:
    return MemorySnapshot(config=config or EngineConfig())


# ---------------------------------------------------------------------------
# id allocation


def _id_after(prefix: str, newest: str | None) -> str:
    """The id following ``newest`` (the first id when there is none)."""
    counter = 1 if newest is None else int(newest[1:]) + 1
    if counter >= 10**_ID_WIDTH:
        raise StateError(f"{prefix} id counter exhausted at {_ID_WIDTH} digits")
    return f"{prefix}{counter:0{_ID_WIDTH}d}"


def next_event_id(snapshot: MemorySnapshot) -> str:
    # The newest event ends the buffer or, with the buffer empty, the newest
    # archive; archives are never empty.
    newest = snapshot.buffer or (
        snapshot.archive[max(snapshot.archive)].nodes if snapshot.archive else ()
    )
    return _id_after("e", newest[-1].id if newest else None)


def next_topic_id(snapshot: MemorySnapshot) -> str:
    return _id_after("t", max(snapshot.topic_graph.nodes, default=None))


def next_archive_id(snapshot: MemorySnapshot) -> str:
    return _id_after("a", max(snapshot.archive, default=None))


# ---------------------------------------------------------------------------
# structural mutations


def append_event(snapshot: MemorySnapshot, utterance: Utterance) -> MemorySnapshot:
    """Append one utterance to the live buffer.

    The topic layer and archives are shared with the input snapshot
    unchanged; only the buffer and the logical clock move.
    """
    if snapshot.state is not EngineState.EPISODIC_BUFFERING:
        raise StateError("append_event during consolidation transaction")
    if not utterance.text.strip():
        raise ValueError("utterance text must be non-empty")

    turn_index = utterance.turn_index
    if turn_index is None:
        turn_index = _derive_turn_index(snapshot, utterance.session_id)
    elif turn_index < 0:
        raise ValueError("turn_index must be non-negative")

    node = EventNode(
        id=next_event_id(snapshot),
        session_id=utterance.session_id,
        turn_index=turn_index,
        speaker=utterance.speaker,
        text=utterance.text,
        timestamp=utterance.timestamp,
        token_count=estimate_tokens(utterance.text),
    )
    return replace(
        snapshot,
        active_event_graph=EventGraph(snapshot.buffer + (node,)),
        logical_clock=snapshot.logical_clock + 1,
    )


def _derive_turn_index(snapshot: MemorySnapshot, session_id: str) -> int:
    seen = [
        n.turn_index
        for n in snapshot.active_event_graph.nodes
        if n.session_id == session_id
    ]
    for graph in snapshot.archive.values():
        seen.extend(n.turn_index for n in graph.nodes if n.session_id == session_id)
    return max(seen, default=-1) + 1


def archive_segment(
    snapshot: MemorySnapshot,
    length: int,
    confidence_flags: Sequence[bool],
) -> tuple[str, MemorySnapshot]:
    """Freeze the first ``length`` buffered nodes into a new archive entry.

    Only the consolidation transaction may call this; the buffer keeps its
    suffix and the frozen graph is stored under a fresh archive id.
    ``confidence_flags`` are the per-node self-consistency results stamped at
    freeze time.
    """
    if snapshot.state is not EngineState.SEMANTIC_CONSOLIDATION:
        raise StateError("archive outside a consolidation transaction")
    buffer = snapshot.active_event_graph
    if not buffer.nodes:
        raise StateError("archive of an empty buffer")
    if not 1 <= length <= len(buffer.nodes):
        raise ValueError(f"segment length {length} out of range")
    if len(confidence_flags) != length:
        raise ValueError("confidence_flags length mismatch")

    archive_id = next_archive_id(snapshot)
    frozen_nodes = tuple(
        replace(n, confidence_flag=bool(flag))
        for n, flag in zip(buffer.nodes[:length], confidence_flags)
    )
    new_archive = dict(snapshot.archive)
    new_archive[archive_id] = EventGraph(frozen_nodes)
    return archive_id, replace(
        snapshot,
        active_event_graph=EventGraph(buffer.nodes[length:]),
        archive=new_archive,
        logical_clock=snapshot.logical_clock + 1,
    )


def insert_topic_node(
    snapshot: MemorySnapshot,
    node: TopicNode,
    edges: Sequence[TopicEdge],
) -> MemorySnapshot:
    """Atomically add a theme plus its admitted edges.

    Rejects, before any mutation: duplicate node ids, edges not touching the
    new node, dangling endpoints, weights at or below the admission
    threshold, and source archives that do not exist.
    """
    graph = snapshot.topic_graph
    tau = snapshot.config.tau
    if node.id in graph.nodes:
        raise ValueError(f"duplicate topic node id {node.id}")
    if node.source_archive_id not in snapshot.archive:
        raise ValueError(f"source archive {node.source_archive_id} not found")
    for edge in edges:
        if node.id not in (edge.from_id, edge.to_id):
            raise ValueError(f"edge {edge.from_id}->{edge.to_id} does not touch {node.id}")
        other = edge.to_id if edge.from_id == node.id else edge.from_id
        if other not in graph.nodes:
            raise ValueError(f"dangling edge endpoint {other}")
        if edge.weight <= tau:
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
    return replace(
        snapshot,
        topic_graph=new_graph,
        logical_clock=snapshot.logical_clock + 1,
    )


def neighbors(topic_graph: TopicGraph, node_id: str) -> frozenset[str]:
    """All nodes sharing an edge with ``node_id``, ignoring direction."""
    if node_id not in topic_graph.nodes:
        raise ValueError(f"unknown topic node {node_id}")
    return topic_graph.adjacency.get(node_id, frozenset())


def memory_stats(snapshot: MemorySnapshot) -> dict[str, int]:
    """Size counts shared by telemetry rows and ``inspect``.

    ``edges`` counts every link in the two-layer graph: topic edges, one
    cross link per theme and the sequential edges inside each archive.
    """
    archives = snapshot.archive.values()
    return {
        "event_nodes": sum(len(g) for g in archives),
        "buffered": len(snapshot.buffer),
        "topic_nodes": len(snapshot.topic_graph.nodes),
        "edges": len(snapshot.topic_graph.edges)
        + len(snapshot.topic_graph.nodes)
        + sum(len(g.edges) for g in archives),
    }


# ---------------------------------------------------------------------------
# canonical serialization


def _event_node_dict(node: EventNode) -> dict:
    return {
        "id": node.id,
        "session_id": node.session_id,
        "turn_index": node.turn_index,
        "speaker": node.speaker,
        "text": node.text,
        "timestamp": node.timestamp,
        "token_count": node.token_count,
        "confidence_flag": node.confidence_flag,
    }


def _topic_node_dict(node: TopicNode, raw: str) -> dict:
    return {
        "id": node.id,
        "summary": node.summary,
        "keywords": list(node.keywords),
        "raw": raw,
        "embedding": [float(x) for x in node.embedding],
        "created_at": node.created_at,
        "source_archive_id": node.source_archive_id,
    }


def _topic_edge_dict(edge: TopicEdge) -> dict:
    return {
        "from_id": edge.from_id,
        "to_id": edge.to_id,
        "relation": edge.relation.value,
        "weight": float(edge.weight),
        "directed": edge.directed,
    }


def snapshot_to_dict(snapshot: MemorySnapshot) -> dict:
    """Plain-type document with the canonical top-level keys.

    The transient state flag is not part of the document: a snapshot at rest
    is always buffering.  Graph ids, event edges, ``cross_index`` and each
    theme's ``raw`` are written out from the derived values.
    """
    graph = snapshot.topic_graph
    return {
        "topic_nodes": [
            _topic_node_dict(graph.nodes[k], topic_raw(snapshot, k))
            for k in sorted(graph.nodes)
        ],
        "topic_edges": [_topic_edge_dict(e) for e in graph.edge_list()],
        "archives": {k: v.to_dict(k) for k, v in snapshot.archive.items()},
        "cross_index": snapshot.cross_index,
        "active_buffer": snapshot.active_event_graph.to_dict(LIVE_BUFFER_ID),
        "config": snapshot.config.to_dict(),
        "logical_clock": snapshot.logical_clock,
    }


def canonical_json(document: object) -> bytes:
    """Key-sorted, separator-fixed encoding: equal documents, equal bytes."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def snapshot_bytes(snapshot: MemorySnapshot) -> bytes:
    return canonical_json(snapshot_to_dict(snapshot))


def snapshot_hash(snapshot: MemorySnapshot) -> str:
    return hashlib.sha256(snapshot_bytes(snapshot)).hexdigest()


def stable_layer_hash(snapshot: MemorySnapshot) -> str:
    """Hash of everything appends must not touch: themes, archives, index."""
    doc = snapshot_to_dict(snapshot)
    stable = {
        k: doc[k] for k in ("topic_nodes", "topic_edges", "archives", "cross_index")
    }
    return hashlib.sha256(canonical_json(stable)).hexdigest()
