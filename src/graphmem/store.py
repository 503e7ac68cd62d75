"""Snapshot persistence and the exact-scan vector index.

Files are single JSON documents in format 5.0: the stored body, whose six
members ``graphmem.core`` defines and encodes (``STORED_MEMBERS``), plus a
``format_version`` and a ``content_hash`` header over the body, so equal
snapshots produce byte-equal files and any corruption is named on load.
Each table (themes, edges, the archived events, the buffered events) is
an object of equal-length columns, one per stored field, so a field's
name is written once per table, not once per record; the archives are
one event table and the list of their ``lengths``.  Session ids,
speakers and relations are dictionary columns, each distinct string once
per table and one code per entry, and an edge names its ends by their
themes' positions.  The body stores each fact once; what follows from it
(every id, which is a position, graph ids, event edges, ``cross_index``,
token counts, each theme's ``raw`` and each edge's ``directed``) is
derived on load, not read.  A 1.x to 4.x file is refused as
``format-version-known``.  ``content_hash`` checks the
file's integrity; a snapshot's identity is ``core.snapshot_hash``, over
the hashed document with the derived copies, which no file format
changes.  ``save`` encodes the body once, inserts the header where its
keys sort, and keeps the file on the snapshot, so saving that very object
again only writes.  ``load`` checks the hash over the bytes it read, less
that header, which for a file ``save`` wrote are the canonical body, so
nothing is encoded again; it rejects a number that is not finite and a
body that differs in any way from what ``save`` writes for the rebuilt
snapshot, so saving a loaded snapshot rewrites its file byte for byte,
and returns a snapshot that keeps no file until its first save.
It works a field at a time: each table's columns are read as they are
parsed (:func:`_columns` checks their names, lengths and JSON types, one
pass per column, and decodes each dictionary column, refusing any but
the one ``save`` writes), nodes and edges are built from those columns
and the derived ids, and :func:`validate_snapshot` checks each invariant
over a whole column.  The theme norms come from the topic graph's vector index,
which the loaded graph keeps.
The vector index is exact: one matrix product shortlists the rows that
could reach the top k, and only those are re-scored with the per-row dot
product whose scores every caller sees, so the answer equals a full per-row
scan bit for bit.  Each topic graph holds one index, built on first use by
:func:`topic_index` and extended by one row, into a new index, when a theme
is inserted.  Indices grown from one another share one row buffer whose
capacity doubles; each index is a read-only view of its first rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
import stat
import threading
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from operator import attrgetter, eq, ge, gt, lt
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import EngineConfig, estimate_tokens
from .core import (
    DICTIONARY_FIELDS,
    EVENT_FIELD_TYPES,
    STORED_MEMBERS,
    EventGraph,
    EventNode,
    MemorySnapshot,
    Relation,
    TopicEdge,
    TopicGraph,
    TopicNode,
    canonical_json,
    edge_key,
    from_columns,
    position_id,
    position_ids,
)
from .errors import CorruptionError, ProviderParseError, StateError

FORMAT_VERSION = "5.0"


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

        A new theme's id sorts last (any other is a ``ValueError``), so the
        row is appended: in place, in the shared buffer, unless a sibling
        index took that row first, in which case the rows are copied into a
        new buffer of twice the size.
        """
        if self.ids and node_id <= self.ids[-1]:
            raise ValueError(f"id {node_id} does not sort after {self.ids[-1]}")
        row = np.asarray(vector, dtype=float)
        size = len(self.ids)
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
    """Write the canonical document atomically (temp file + rename).

    The file gets the mode ``open(path, "wb")`` would give it: an existing
    file keeps its mode, and a new one gets ``0o666`` less the umask.  As
    with ``open``, a symbolic link stays a link and the file it names gets
    the bytes.  The bytes go to a temporary file in the target's directory,
    renamed over the target; an ``OSError`` names the path given, not that
    file, and leaves none behind.

    The first save of a snapshot encodes the stored body once, hashes it
    and writes it with the header inserted at its place among the sorted
    keys, and keeps the file's bytes on the snapshot
    (``MemorySnapshot.saved_bytes``); a later save of the same object writes
    those bytes without encoding.  Before it encodes, a snapshot whose ids
    are not their creation positions, or whose archive count is not its
    theme count, raises :class:`StateError` and nothing is written: its
    file would load as another snapshot, or not at all.
    """
    payload = snapshot.saved_bytes
    if payload is None:
        _check_positions(snapshot)
        body = canonical_json({name: write(snapshot) for name, write in STORED_MEMBERS.items()})
        # The header's keys sort just before logical_clock; searched from
        # the end, as no later member has keys of its own choosing.
        at = body.rindex(b',"logical_clock":')
        header = _header(hashlib.sha256(body).hexdigest(), FORMAT_VERSION)
        payload = b"".join((body[:at], header, body[at:]))
        # Set only once the whole payload is encoded, so a save refused
        # for a NaN keeps nothing; a derived value, so setting it on the
        # frozen snapshot changes nothing it compares or saves.
        object.__setattr__(snapshot, "saved_bytes", payload)
    given = os.fspath(path)
    # The file a link names, so the rename replaces that file, not the link.
    path = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    directory = os.path.dirname(path)
    # Named apart from the target, so any name the target may have fits.
    temp_path = os.path.join(directory, f".{secrets.token_hex(8)}.tmp")
    try:
        # Created like open() creates a file, so the kernel applies the umask.
        fd = os.open(temp_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            if mode is not None:
                os.chmod(temp_path, mode)
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
    except OSError as exc:
        # The temporary file is the save's own affair: name the path given.
        if exc.filename != temp_path:
            raise
        raise OSError(exc.errno, exc.strerror, given) from exc


def _check_positions(snapshot: MemorySnapshot) -> None:
    """Raise :class:`StateError` unless a load of the file of ``snapshot``
    gives it back: the archives, themes and events (over the archives in
    order, then the buffer) must each be their creation positions, and the
    archives as many as the themes."""
    themes, archives = snapshot.topic_graph.nodes.values(), snapshot.archive
    if len(archives) != len(themes):
        raise StateError(f"{len(archives)} archives for {len(themes)} themes")
    graphs = (*archives.values(), snapshot.active_event_graph)
    nodes = chain.from_iterable(map(attrgetter("nodes"), graphs))
    kinds = {
        "a": list(archives),
        "t": list(map(attrgetter("id"), themes)),
        "e": list(map(attrgetter("id"), nodes)),
    }
    for prefix, ids in kinds.items():
        expected = position_ids(prefix, len(ids))
        if ids != expected:
            found, position = next((i, p) for i, p in zip(ids, expected) if i != p)
            raise StateError(f"id {found} is not its creation position, {position}")


def load(path: str | os.PathLike) -> MemorySnapshot:
    """Read and fully validate a snapshot; violations raise named errors."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer past the interpreter's digit
        # limit; RecursionError, arrays or objects nested too deep.
        raise CorruptionError("well-formed-json", str(exc)) from exc
    if not isinstance(document, dict):
        raise CorruptionError("document-is-object")
    try:
        return _reconstruct(document, raw)
    except CorruptionError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise CorruptionError("document-schema", repr(exc)) from exc


def _reconstruct(document: dict, raw: bytes) -> MemorySnapshot:
    version = document.get("format_version")
    if not isinstance(version, str) or "." not in version:
        raise CorruptionError("format-version-present")
    major = version.split(".", 1)[0]
    if major != FORMAT_VERSION.split(".", 1)[0]:
        raise CorruptionError("format-version-known", f"major version {major}")

    body = {}
    for key in STORED_MEMBERS:
        if key not in document:
            raise CorruptionError("body-keys-present", key)
        body[key] = document[key]
    recorded = document.get("content_hash")
    if not isinstance(recorded, str) or _body_digest(raw, recorded, version) != recorded:
        raise CorruptionError("content-hash-match")

    config = EngineConfig.from_dict(body["config"])
    archives = body["archives"]
    if type(archives) is not dict or archives.keys() != {"lengths", "events"}:
        raise CorruptionError("document-schema", "archives not an object of lengths and events")
    # The lengths as a table of one column, so they are checked as one.
    lengths = _columns({"lengths": archives["lengths"]}, _LENGTH_TYPES, "archives", "a")["lengths"]
    # One str per distinct session id and speaker in this load, rather than
    # one per table.
    strings: dict = {}
    archived = _columns(archives["events"], EVENT_FIELD_TYPES, "archives.events", "e", strings)
    count = len(archived["text"])
    buffered = _columns(
        body["active_buffer"], EVENT_FIELD_TYPES, "active_buffer", "e", strings, count
    )
    themes = _columns(body["topic_nodes"], _TOPIC_TYPES, "topic_nodes", "t")
    links = _columns(body["topic_edges"], _EDGE_TYPES, "topic_edges", None)
    # Each id is a position: events count over the archives, then the buffer.
    events = {name: archived[name] + buffered[name] for name in EVENT_FIELD_TYPES}
    try:
        events["id"] = position_ids("e", len(events["text"]))
        theme_ids = position_ids("t", len(themes["summary"]))
        archive_ids = position_ids("a", len(lengths))
    except ValueError as exc:
        raise CorruptionError("id-width", str(exc)) from exc
    _require("archive-non-empty", map(ge, lengths, repeat(1)), archive_ids)
    if sum(lengths) != count:
        raise CorruptionError("archive-lengths", f"{sum(lengths)} for {count} archived events")
    for name, item_type in (("keywords", str), ("embedding", float)):
        if not set(map(type, chain.from_iterable(themes[name]))) <= {item_type}:
            where = next(
                theme_id
                for theme_id, items in zip(theme_ids, themes[name])
                if not set(map(type, items)) <= {item_type}
            )
            raise CorruptionError("field-type", f"{where} {name}")
    theme_columns = (
        theme_ids,
        themes["summary"],
        list(map(tuple, themes["keywords"])),
        list(map(tuple, themes["embedding"])),
        themes["created_at"],
    )
    topic_nodes = dict(zip(theme_ids, from_columns(TopicNode, theme_columns)))

    # json.loads reads NaN, Infinity and 1e999 as floats, which save refuses
    # to write.  The config refuses them itself, and no other field takes a
    # float.
    if not _all_finite([links["weight"], *themes["embedding"]]):
        raise CorruptionError("document-schema", "a number that is not finite")

    labels = links["relation"]
    relations = list(map(_RELATIONS.get, labels))
    if None in relations:
        raise CorruptionError("document-schema", f"relation {labels[relations.index(None)]!r}")
    # Each end is a theme's position, t{k} stored as k.
    theme_at = dict(zip(range(1, len(theme_ids) + 1), theme_ids))
    try:
        froms, tos = (list(map(theme_at.__getitem__, links[end])) for end in ("from_id", "to_id"))
    except KeyError:
        ends = zip(links["from_id"], links["to_id"])
        at = next(i for i, pair in enumerate(ends) if not theme_at.keys() >= set(pair))
        raise CorruptionError("topic-edge-endpoints", _edge_name(links, at)) from None
    keys = list(map(edge_key, froms, tos))
    edges = dict(zip(keys, from_columns(TopicEdge, (froms, tos, relations, links["weight"]))))

    # One str per distinct timestamp in this load, rather than one per node.
    share = strings.setdefault
    events["timestamp"] = list(map(share, events["timestamp"], events["timestamp"]))
    # Not stored: the count append_event gave each turn.
    events["token_count"] = list(map(estimate_tokens, events["text"]))
    nodes = tuple(from_columns(EventNode, [events[f.name] for f in fields(EventNode)]))
    rebuilt = []
    end = 0
    for length in [*lengths, len(buffered["text"])]:
        start, end = end, end + length
        rebuilt.append(EventGraph(nodes[start:end]))
    clock = body["logical_clock"]
    if type(clock) is not int or clock < 0:
        raise CorruptionError("logical-clock-non-negative")

    snapshot = MemorySnapshot(
        config=config,
        topic_graph=TopicGraph(topic_nodes, edges),
        active_event_graph=rebuilt.pop(),
        archive=dict(zip(archive_ids, rebuilt)),
        logical_clock=clock,
    )
    validate_snapshot(snapshot)
    _check_written_form(body, keys, snapshot)
    return snapshot


def _header(content_hash: str, version: str) -> bytes:
    """The header's two members as ``save`` writes them into the body."""
    return b"," + canonical_json({"content_hash": content_hash, "format_version": version})[1:-1]


def _body_digest(raw: bytes, recorded: str, version: str) -> str | None:
    """The sha256 of the file's bytes without the header ``save`` writes
    between ``config`` and ``logical_clock``, or ``None`` if it holds no such
    header.  For a file ``save`` wrote, that is the canonical body the header
    hashes, so it is checked without encoding the body again."""
    header = _header(recorded, version)
    start = raw.find(header)
    if start < 0:
        return None
    view = memoryview(raw)
    digest = hashlib.sha256(view[:start])
    digest.update(view[start + len(header) :])
    return digest.hexdigest()


def _all_finite(columns: list[list[float]]) -> bool:
    """Whether every number in ``columns`` is finite.  A NaN or infinite
    term makes the sum one too, so only a sum that is not finite, which
    finite terms can also give by overflowing, has its terms looked at."""
    return math.isfinite(sum(map(sum, columns))) or all(
        map(math.isfinite, chain.from_iterable(columns))
    )


def _check_written_form(body: dict, keys: list, snapshot: MemorySnapshot) -> None:
    """Reject a body that ``save`` would not write for ``snapshot``, in ways
    the rebuilt snapshot would hide, so that saving a loaded snapshot
    rewrites its file byte for byte: edges out of key order or repeated, or
    a config whose keys or number types differ from the stored config's.
    (A table with another column, or a column written as another value
    than a list, was refused when its columns were taken.)"""
    _require("edge-order", map(lt, keys, keys[1:]), keys[1:])
    if canonical_json(body["config"]) != canonical_json(snapshot.config.to_dict()):
        raise CorruptionError("document-schema", "config differs from the stored form")


#: The exact JSON types each stored theme and edge field may have (event
#: nodes: :data:`EVENT_FIELD_TYPES`); an edge's ends are its themes'
#: positions.  Nothing is coerced and a bool is not an int, so a file loads
#: only with values the engine could have written; any other value would
#: fail later, in a query or an append.
_TOPIC_TYPES = {
    "summary": (str,),
    "keywords": (list,),
    "embedding": (list,),
    "created_at": (int,),
}
_EDGE_TYPES = {
    "from_id": (int,),
    "to_id": (int,),
    "relation": (str,),
    "weight": (float,),
}
#: An archive's length: how many of the archived events, taken in order,
#: it holds.
_LENGTH_TYPES = {"lengths": (int,)}
_RELATIONS = {relation.value: relation for relation in Relation}


def _edge_name(links: dict[str, list], at: int) -> str:
    """Edge ``at`` of the stored edge table, named by its ends: the theme
    ids their positions give them, or a stored value that is not a
    position as it is."""
    ends = (links["from_id"][at], links["to_id"][at])
    return "-".join(position_id("t", end) if type(end) is int else repr(end) for end in ends)


def _columns(
    table: object,
    types: dict[str, tuple[type, ...]],
    member: str,
    prefix: str | None,
    strings: dict | None = None,
    before: int = 0,
) -> dict[str, list]:
    """The columns of the stored table ``member``, one per key of ``types``,
    in its order, each as the list of its entries' values.

    The table must be an object whose keys are exactly those of ``types``,
    each a list, or for a field of :data:`DICTIONARY_FIELDS` an object of
    exactly two lists, ``codes`` and ``values``, all of one length (counting
    a dictionary's codes), else ``document-schema``.  Then each field in
    turn: a value whose type ``types`` does not allow is ``field-type``,
    naming the field and the first such entry: by the id its position
    gives it, with ``prefix``, counting on from ``before`` entries of its
    kind, or else (an edge) by its ends.  A dictionary column is checked
    by :func:`_dictionary_values` and decoded, its values shared through
    ``strings`` when given.
    """
    if type(table) is not dict or table.keys() != types.keys():
        raise CorruptionError("document-schema", f"a table not of the columns {sorted(types)}")
    columns = {name: table[name] for name in types}
    dictionaries = {}
    for name in filter(DICTIONARY_FIELDS.__contains__, types):
        stored = columns[name]
        if (
            type(stored) is not dict
            or stored.keys() != {"codes", "values"}
            or {type(stored["codes"]), type(stored["values"])} != {list}
        ):
            raise CorruptionError("document-schema", f"{member}.{name} not codes and values")
        dictionaries[name] = stored["values"]
        columns[name] = stored["codes"]
    if not set(map(type, columns.values())) <= {list}:
        raise CorruptionError("document-schema", f"a column of {sorted(types)} not a list")
    if len(set(map(len, columns.values()))) > 1:
        raise CorruptionError("document-schema", f"columns of {sorted(types)} of unequal length")

    def entry(at: int) -> str:
        if prefix:
            return position_id(prefix, before + at + 1)
        return _edge_name(columns, at)

    for name, allowed in types.items():
        if name in dictionaries:
            values = _dictionary_values(columns[name], dictionaries[name], entry, member, name)
            if strings is not None:
                values = list(map(strings.setdefault, values, values))
            columns[name] = list(map(values.__getitem__, columns[name]))
            continue
        column = columns[name]
        # One pass per field in C; only a failure looks for its entry.
        if not set(map(type, column)) <= set(allowed):
            at = next(i for i, value in enumerate(column) if type(value) not in allowed)
            raise CorruptionError("field-type", f"{entry(at)} {name}")
    return columns


def _dictionary_values(
    codes: list, values: list, entry: Callable[[int], str], member: str, name: str
) -> list[str]:
    """The ``values`` of the dictionary column ``name`` of table ``member``,
    once it is the one :func:`core.dictionary_column` writes.  Refused, in
    README's order, naming the field and the first entry that breaks it (by
    ``entry`` of its position): a code not an int (``field-type``), out of
    range (``dictionary-code``) or new but not the next new one
    (``dictionary-order``); a value no entry uses (``dictionary-unused``,
    named by its place), not a string (``field-type``) or written twice
    (``dictionary-distinct``)."""

    def named(at: int) -> str:
        return f"{entry(at)} {name}"

    if not set(map(type, codes)) <= {int}:
        at = next(i for i, code in enumerate(codes) if type(code) is not int)
        raise CorruptionError("field-type", named(at))
    # The codes in the order they first occur must be 0, 1, 2, ... up to the
    # last value, which also puts every code in range.
    firsts = list(dict.fromkeys(codes))
    if firsts != list(range(len(values))):
        if not all(0 <= code < len(values) for code in firsts):
            at = next(i for i, code in enumerate(codes) if not 0 <= code < len(values))
            raise CorruptionError("dictionary-code", named(at))
        if firsts != list(range(len(firsts))):
            code = next(code for k, code in enumerate(firsts) if code != k)
            raise CorruptionError("dictionary-order", named(codes.index(code)))
        raise CorruptionError("dictionary-unused", f"{member}.{name}.values[{len(firsts)}]")
    if not set(map(type, values)) <= {str}:
        code = next(k for k, value in enumerate(values) if type(value) is not str)
        raise CorruptionError("field-type", named(codes.index(code)))
    if len(set(values)) < len(values):
        code = next(k for k, value in enumerate(values) if value in values[:k])
        raise CorruptionError("dictionary-distinct", named(codes.index(code)))
    return values


def validate_snapshot(snapshot: MemorySnapshot) -> None:
    """Check every structural invariant, naming the first one that fails.

    Each invariant is checked over a whole column at once, in this order:
    the archive count (the theme count: each theme has its own archive),
    non-empty archives; turn indices, texts; summaries, embedding sizes,
    norms; edge endpoints, weights.  The first entry that breaks the first
    failing invariant is named.  The norms come from the topic graph's
    vector index (built here if the graph has none), as NumPy computes them.
    Ids are not checked: a load derives them from positions.
    """
    config = snapshot.config
    graph = snapshot.topic_graph
    themes = list(graph.nodes.values())
    archive_count = len(snapshot.archive)
    if archive_count != len(themes):
        raise CorruptionError("archive-count", f"{archive_count} archives for {len(themes)} themes")
    archives = list(snapshot.archive.values())
    _require("archive-non-empty", map(len, archives), list(snapshot.archive))

    graphs = [*archives, snapshot.active_event_graph]
    nodes = list(chain.from_iterable(map(attrgetter("nodes"), graphs)))
    ids = list(map(attrgetter("id"), nodes))
    turns = map(attrgetter("turn_index"), nodes)
    _require("turn-index-non-negative", map(ge, turns, repeat(0)), ids)
    # Utterance refuses a blank text, so no turn the engine stored has one.
    _require("text-non-empty", map(str.strip, map(attrgetter("text"), nodes)), ids)

    theme_ids = list(map(attrgetter("id"), themes))
    # Relation scoring refuses a blank summary in the next consolidation.
    _require("summary-non-empty", map(str.strip, map(attrgetter("summary"), themes)), theme_ids)
    sizes = map(len, map(attrgetter("embedding"), themes))
    _require("embedding-dim", map(eq, sizes, repeat(config.embedding_dim)), theme_ids)
    index = topic_index(graph, config.embedding_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", index.matrix, index.matrix))
        # Written so that NaN fails.
        unit = (np.abs(norms - 1.0) <= 1e-6).tolist()
    _require("embedding-unit-norm", unit, index.ids)

    keys, edges = list(graph.edges), list(graph.edges.values())
    froms, tos = list(map(attrgetter("from_id"), edges)), list(map(attrgetter("to_id"), edges))
    if not graph.nodes.keys() >= {*froms, *tos}:
        _require("topic-edge-endpoints", map(graph.nodes.__contains__, froms), keys)
        _require("topic-edge-endpoints", map(graph.nodes.__contains__, tos), keys)
    # Compared one by one rather than through min(), which a NaN would pass.
    weights = map(attrgetter("weight"), edges)
    _require("edge-weight-above-tau", map(gt, weights, repeat(config.tau)), keys)


def _require(invariant: str, checks: Iterable[object], names: Sequence[object]) -> None:
    """Raise ``invariant`` naming the first of ``names`` whose check is false."""
    checks = list(checks)
    if not all(checks):
        raise CorruptionError(invariant, str(next(n for c, n in zip(checks, names) if not c)))

