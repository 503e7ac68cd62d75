"""Snapshot persistence and the exact-scan vector index.

Files are single JSON documents: the canonical snapshot body, whose members
``graphmem.core`` defines and encodes (reusing each archive's and theme's
bytes kept by an earlier save), plus a ``format_version`` and a
``content_hash`` header over the body, so equal snapshots produce byte-equal
files and any corruption is named on load.  ``load`` checks that hash over
the whole parsed body encoded at once, and the snapshot it returns keeps no
bytes until its first save.  The document spells out five
derived copies (graph ids, event edges, ``cross_index``, each theme's
``raw`` and each edge's ``directed``); the loader rebuilds the snapshot
without them and rejects a file whose copies differ from the derived
values, or whose body differs in any other way from what ``save`` writes
for the rebuilt snapshot, so a loaded snapshot hashes to its file's
``content_hash``.
The vector index is exact: one matrix product shortlists the rows that
could reach the top k, and only those are re-scored with the per-row dot
product whose scores every caller sees, so the answer equals a full per-row
scan bit for bit.  Each topic graph holds one index, built on first use by
:func:`topic_index` and extended by one row, into a new index, when a theme
is inserted.  Indices grown from one another share one row buffer whose
capacity doubles; each index is a read-only view of its first rows.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import tempfile
import threading
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from .config import EngineConfig, estimate_tokens
from .core import (
    EVENT_FIELD_TYPES,
    ID_FORMAT,
    EventGraph,
    EventNode,
    LIVE_BUFFER_ID,
    SNAPSHOT_MEMBERS,
    MemorySnapshot,
    Relation,
    TopicEdge,
    TopicGraph,
    TopicNode,
    canonical_json,
    edge_key,
    join_members,
    snapshot_members,
    topic_raw,
)
from .errors import CorruptionError, ProviderParseError

FORMAT_VERSION = "1.0"


# ---------------------------------------------------------------------------
# exact vector search


class _RowBuffer:
    """Rows shared by indices grown from one another.

    Rows below ``used`` are taken and never written again; an index views a
    prefix of them.  The row at ``used`` goes to the first index that claims
    it, so of two snapshots grown from one parent only one appends in place.
    """

    def __init__(self, rows: np.ndarray, capacity: int) -> None:
        self.data = np.empty((capacity, rows.shape[1]))
        self.data[: len(rows)] = rows
        self.used = len(rows)
        self.lock = threading.Lock()

    def claim(self, position: int) -> bool:
        """Take row ``position`` if it is the next free one."""
        with self.lock:
            if self.used != position or position == len(self.data):
                return False
            self.used += 1
            return True


@dataclass(frozen=True)
class VectorIndex:
    """Exact cosine index over unit vectors, ties broken by smaller id.

    Immutable, so every snapshot sharing a topic graph can share its index.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray
    _rows: _RowBuffer | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    @classmethod
    def empty(cls, dim: int) -> "VectorIndex":
        return cls((), np.zeros((0, dim)))

    @classmethod
    def from_topic_graph(cls, graph: TopicGraph, dim: int) -> "VectorIndex":
        ids = sorted(graph.nodes)
        if not ids:
            return cls.empty(dim)
        matrix = np.array([graph.nodes[i].embedding for i in ids], dtype=float)
        return cls(tuple(ids), matrix)

    def with_row(self, node_id: str, vector: Sequence[float]) -> "VectorIndex":
        """A new index with one more row; must stay equal to a full rebuild.

        A new theme id sorts last, so the row is appended: in place, in the
        shared buffer, unless a sibling index took that row first, in which
        case the rows are copied into a new buffer of twice the size.
        """
        row = np.asarray(vector, dtype=float)
        size = len(self.ids)
        if self.ids and node_id <= self.ids[-1]:
            position = bisect.bisect_left(self.ids, node_id)
            ids = self.ids[:position] + (node_id,) + self.ids[position:]
            return VectorIndex(ids, np.insert(self.matrix, position, row, axis=0))
        rows = self._rows
        if rows is None or not rows.claim(size):
            rows = _RowBuffer(self.matrix, max(2 * size, 8))
            rows.claim(size)
        rows.data[size] = row
        return VectorIndex(self.ids + (node_id,), rows.data[: size + 1], rows)


def checked_vector(vector: Sequence[float], dim: int) -> np.ndarray:
    """An embedder's reply as the index takes it: ``dim`` finite floats.

    Anything else raises :class:`ProviderParseError`: a wrong length breaks
    the matrix product and a NaN ranks nothing.
    """
    try:
        array = np.asarray(vector, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProviderParseError(f"embedding is not numeric: {exc}") from exc
    if array.shape != (dim,) or not np.isfinite(array).all():
        raise ProviderParseError(f"embedding must be {dim} finite numbers")
    return array


def topic_index(graph: TopicGraph, dim: int) -> VectorIndex:
    """The graph's one vector index, built on first use."""
    if graph.vector_index is None:
        # A derived value, so setting it on the frozen graph changes nothing
        # the graph compares or saves.
        object.__setattr__(graph, "vector_index", VectorIndex.from_topic_graph(graph, dim))
    return graph.vector_index


def vector_topk(
    index: VectorIndex, query_vector: np.ndarray, k: int
) -> list[tuple[str, float]]:
    """Exact top-k by cosine over unit vectors, descending, ties by id.

    Fewer than ``k`` entries returns everything.  Similarities are computed
    per row so the arithmetic matches any straightforward scan bit for bit.

    Only a shortlist is scored that way, chosen by one matrix product.  A
    dot product of ``d`` terms, summed in any order, is within
    ``gamma_d * sum_j |r_j q_j|`` of the exact value, where
    ``gamma_d = d*u / (1 - d*u)`` and ``u = 2**-53`` (about 7e-15 for
    ``d = 64``).  For a row of norm 1 that sum is at most
    ``||q||_2 <= ||q||_1``, so a row's product score and its per-row score
    differ by at most ``m = 2 * gamma_d * ||q||_1``.  The k-th largest
    scores of the two kinds then differ by at most ``m``, and every row of
    the exact top k, ties at the k-th score included, has a product score
    within ``2m`` of the product's k-th largest.  ``margin`` is at least
    ``1e-9 * ||q||_1``, over 10^4 times ``2m``, which also covers rows of
    norm up to 10^4.  A query that is not all finite, or an index of at
    most ``k`` rows, is scored row by row in full.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.ids:
        return []
    query = np.asarray(query_vector, dtype=float)
    rows = range(len(index.ids))
    if len(index.ids) > k and np.isfinite(query).all():
        approximate = index.matrix @ query
        kth = np.partition(approximate, -k)[-k]
        margin = 1e-9 * (1.0 + float(np.abs(query).sum()))
        rows = np.flatnonzero(approximate >= kth - margin)
    scored = [(index.ids[i], float(np.dot(index.matrix[i], query))) for i in rows]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


# ---------------------------------------------------------------------------
# save / load


def save(snapshot: MemorySnapshot, path: str | os.PathLike) -> None:
    """Write the canonical document atomically (temp file + rename)."""
    # Each top-level value is encoded once and shared by the hash and the
    # file; each new archive and theme keeps its bytes for later saves.
    members = snapshot_members(snapshot, keep=True)
    content_hash = hashlib.sha256(join_members(members)).hexdigest()
    members["format_version"] = canonical_json(FORMAT_VERSION)
    members["content_hash"] = canonical_json(content_hash)
    payload = join_members(members)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(temp_path, path)
    except OSError:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def load(path: str | os.PathLike) -> MemorySnapshot:
    """Read and fully validate a snapshot; violations raise named errors."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        document = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptionError("well-formed-json", str(exc)) from exc
    if not isinstance(document, dict):
        raise CorruptionError("document-is-object")
    try:
        return _reconstruct(document)
    except CorruptionError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise CorruptionError("document-schema", repr(exc)) from exc


def _reconstruct(document: dict) -> MemorySnapshot:
    version = document.get("format_version")
    if not isinstance(version, str) or "." not in version:
        raise CorruptionError("format-version-present")
    major = version.split(".", 1)[0]
    if major != FORMAT_VERSION.split(".", 1)[0]:
        raise CorruptionError("format-version-known", f"major version {major}")

    body = {}
    for key in SNAPSHOT_MEMBERS:
        if key not in document:
            raise CorruptionError("body-keys-present", key)
        body[key] = document[key]
    recorded = document.get("content_hash")
    actual = hashlib.sha256(canonical_json(body)).hexdigest()
    if recorded != actual:
        raise CorruptionError("content-hash-match")

    config = EngineConfig.from_dict(body["config"])
    graphs = [*body["archives"].values(), body["active_buffer"]]
    _check_types([entry for graph in graphs for entry in graph["nodes"]], EVENT_FIELD_TYPES)
    _check_types(body["topic_nodes"], _TOPIC_TYPES)
    _check_types(body["topic_edges"], _EDGE_TYPES)
    topic_nodes = {}
    raws = {}
    for entry in body["topic_nodes"]:
        for name, item_type in (("keywords", str), ("embedding", float)):
            if not set(map(type, entry[name])) <= {item_type}:
                raise CorruptionError("field-type", f"{entry['id']} {name}")
        node = TopicNode(
            id=entry["id"],
            summary=entry["summary"],
            keywords=tuple(entry["keywords"]),
            embedding=tuple(entry["embedding"]),
            created_at=entry["created_at"],
            source_archive_id=entry["source_archive_id"],
        )
        topic_nodes[node.id] = node
        raws[node.id] = entry["raw"]

    edges = {}
    for entry in body["topic_edges"]:
        edge = TopicEdge(
            from_id=entry["from_id"],
            to_id=entry["to_id"],
            relation=Relation(entry["relation"]),
            weight=entry["weight"],
        )
        key = edge_key(edge.from_id, edge.to_id)
        if entry["directed"] is not edge.directed:
            raise CorruptionError("edge-directed-matches-relation", str(key))
        edges[key] = edge

    strings: dict[str | None, str | None] = {}
    archives = {
        archive_id: _rebuild_graph(graph_dict, archive_id, "archive-graph-id", strings)
        for archive_id, graph_dict in body["archives"].items()
    }
    buffer = _rebuild_graph(
        body["active_buffer"], LIVE_BUFFER_ID, "buffer-graph-id", strings
    )
    clock = body["logical_clock"]
    if type(clock) is not int or clock < 0:
        raise CorruptionError("logical-clock-non-negative")

    snapshot = MemorySnapshot(
        config=config,
        topic_graph=TopicGraph(topic_nodes, edges),
        active_event_graph=buffer,
        archive=archives,
        logical_clock=clock,
    )
    validate_snapshot(snapshot)
    if body["cross_index"] != snapshot.cross_index:
        raise CorruptionError("cross-index-matches-source")
    for topic_id, raw in raws.items():
        if raw != topic_raw(snapshot, topic_id):
            raise CorruptionError("raw-matches-archive", topic_id)
    _check_written_form(body, snapshot)
    return snapshot


def _check_written_form(body: dict, snapshot: MemorySnapshot) -> None:
    """Reject a body that ``save`` would not write for ``snapshot``, in ways
    the rebuilt snapshot would hide, so that a loaded snapshot always hashes
    to its file's ``content_hash``: themes and edges out of key order or
    repeated, an entry with a key the engine does not write, or a config
    whose keys or number types differ from the stored config's."""
    ids = [entry["id"] for entry in body["topic_nodes"]]
    if (unsorted := _first_unsorted(ids)) is not None:
        raise CorruptionError("topic-order", unsorted)
    keys = [edge_key(entry["from_id"], entry["to_id"]) for entry in body["topic_edges"]]
    if (unsorted := _first_unsorted(keys)) is not None:
        raise CorruptionError("edge-order", str(unsorted))
    graphs = [*body["archives"].values(), body["active_buffer"]]
    for entries, names in (
        (body["topic_nodes"], _TOPIC_TYPES.keys()),
        (body["topic_edges"], _EDGE_TYPES.keys()),
        (graphs, {"graph_id", "nodes", "edges"}),
    ):
        if any(entry.keys() != names for entry in entries):
            raise CorruptionError("document-schema", f"a key outside {sorted(names)}")
    if canonical_json(body["config"]) != canonical_json(snapshot.config.to_dict()):
        raise CorruptionError("document-schema", "config differs from the stored form")


def _first_unsorted(keys: list) -> object:
    """The first key not above the one before it, or ``None``."""
    return next((b for a, b in zip(keys, keys[1:]) if not a < b), None)


def _rebuild_graph(
    graph_dict: dict, graph_id: str, id_check: str, strings: dict[str | None, str | None]
) -> EventGraph:
    """Event graph from its document; the stored id and edges must equal
    the ones the engine derives and writes.

    ``strings`` holds one copy of each session id, speaker and timestamp
    seen so far in this load.  Those fields of the parsed entries are
    replaced by the shared copies, so the nodes hold one ``str`` per
    distinct value rather than one per node.
    """
    if graph_dict["graph_id"] != graph_id:
        raise CorruptionError(id_check, graph_id)
    share = strings.setdefault
    for entry in graph_dict["nodes"]:
        entry["session_id"] = share(entry["session_id"], entry["session_id"])
        entry["speaker"] = share(entry["speaker"], entry["speaker"])
        entry["timestamp"] = share(entry["timestamp"], entry["timestamp"])
    # The caller has checked the field types; a field EventNode lacks is a
    # TypeError.
    graph = EventGraph(tuple(EventNode(**entry) for entry in graph_dict["nodes"]))
    if graph_dict["edges"] != graph.edges:
        raise CorruptionError("sequential-path", graph_id)
    return graph


#: The exact JSON types each stored theme and edge field may have (event
#: nodes: :data:`EVENT_FIELD_TYPES`).  Nothing is coerced and a bool is not
#: an int, so a file loads only with values the engine could have written;
#: any other value would fail later, in a query or an append.
_TOPIC_TYPES = {
    "id": (str,),
    "summary": (str,),
    "keywords": (list,),
    "embedding": (list,),
    "created_at": (int,),
    "source_archive_id": (str,),
    "raw": (str,),
}
_EDGE_TYPES = {
    "from_id": (str,),
    "to_id": (str,),
    "relation": (str,),
    "weight": (float,),
    "directed": (bool,),
}


def _check_types(entries: list[dict], types: dict[str, tuple[type, ...]]) -> None:
    """Raise ``field-type`` naming a field and an entry whose value there
    has a type other than ``types`` allows."""
    for name, allowed in types.items():
        # One pass per field in C; only a failure looks for its entry.
        if not set(map(type, map(itemgetter(name), entries))) <= set(allowed):
            entry = next(e for e in entries if type(e[name]) not in allowed)
            where = entry.get("id") or f"{entry.get('from_id')}-{entry.get('to_id')}"
            raise CorruptionError("field-type", f"{where} {name}")


def validate_snapshot(snapshot: MemorySnapshot) -> None:
    """Check every structural invariant, naming the first one that fails."""
    config = snapshot.config
    for archive_id, graph in snapshot.archive.items():
        _check_id_format("a", archive_id)
        if not graph.nodes:
            raise CorruptionError("archive-non-empty", archive_id)

    # Event ids rise through the archives in id order and then the buffer,
    # which makes them unique and lets allocation read only the newest one.
    previous = ""
    archives = [snapshot.archive[k] for k in sorted(snapshot.archive)]
    for graph in [*archives, snapshot.active_event_graph]:
        for node in graph.nodes:
            _check_id_format("e", node.id)
            if node.id <= previous:
                raise CorruptionError("event-id-order", node.id)
            previous = node.id
            if node.turn_index < 0:
                raise CorruptionError("turn-index-non-negative", node.id)
            if node.token_count != estimate_tokens(node.text):
                raise CorruptionError("token-count-matches-estimator", node.id)

    graph = snapshot.topic_graph
    for node in graph.nodes.values():
        _check_id_format("t", node.id)
        if not node.summary.strip():
            # Relation scoring refuses a blank summary in the next consolidation.
            raise CorruptionError("summary-non-empty", node.id)
        if len(node.embedding) != config.embedding_dim:
            raise CorruptionError("embedding-dim", node.id)
        norm = math.sqrt(sum(x * x for x in node.embedding))
        if not abs(norm - 1.0) <= 1e-6:  # written so that NaN fails
            raise CorruptionError("embedding-unit-norm", node.id)
        if node.source_archive_id not in snapshot.archive:
            raise CorruptionError("source-archive-exists", node.id)
    for key, edge in graph.edges.items():
        if key != edge_key(edge.from_id, edge.to_id):
            raise CorruptionError("edge-key-canonical", str(key))
        if edge.from_id not in graph.nodes or edge.to_id not in graph.nodes:
            raise CorruptionError("topic-edge-endpoints", str(key))
        if not edge.weight > config.tau:
            raise CorruptionError("edge-weight-above-tau", str(key))

    sources = [node.source_archive_id for node in graph.nodes.values()]
    if len(sources) != len(set(sources)):
        raise CorruptionError("cross-index-injective")


def _check_id_format(prefix: str, identifier: str) -> None:
    if not ID_FORMAT[prefix].fullmatch(identifier):
        raise CorruptionError("id-format", identifier)
