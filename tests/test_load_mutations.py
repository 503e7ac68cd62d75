"""Whole-document mutations, checked against reference loaders.

``reference_load`` is a per-record loader of format 3.0 files, the oracle
of the column passes of ``graphmem.store``.  ``reference_load_v1`` reads
the 1.0 document, which spells out every derived copy, record by record
and checks each copy; it is the oracle for what a 3.0 file leaves out.

Every mutant edits one place in a saved document (a type swap, a deleted
key or entry, a huge or negative int, an empty string, a bare ``NaN``) and
is written as ``save`` writes a file, with a content hash over its edited
body as written, so the load reaches the checks behind the hash.  Each
mutant must be refused with :class:`CorruptionError` by both loaders,
under the same invariant, or be accepted by both as the same snapshot,
which then survives a short run: observe, end the session, query, save,
load.

One difference is meant: the reference takes an empty JSON object or
string where the document writes an empty list of themes, edges or buffered
event nodes, so its snapshot's body does not hash to the file's
``content_hash``; ``store.load`` refuses that as ``document-schema``.
"""

import copy
import hashlib
import json
import math
import random

import pytest

from graphmem.config import EngineConfig, estimate_tokens
from graphmem.core import (
    EVENT_FIELD_TYPES,
    LIVE_BUFFER_ID,
    SEQUENTIAL,
    STORED_MEMBERS,
    EventGraph,
    EventNode,
    MemorySnapshot,
    Relation,
    TopicEdge,
    TopicGraph,
    TopicNode,
    Utterance,
    append_event,
    canonical_json,
    edge_key,
    new_snapshot,
    snapshot_hash,
    snapshot_to_dict,
    topic_raw,
)
from graphmem.engine import MemoryEngine
from graphmem.errors import CorruptionError
from graphmem.fixtures import make_golden_corpus
from graphmem.harness import replay
from graphmem.providers import mock_bundle
from graphmem.store import FORMAT_VERSION, load, save

from conftest import body_hash, random_snapshot, write_rehashed
from test_acceptance import STRATEGY_MATRIX

# ---------------------------------------------------------------------------
# the reference loader: per-record walks over a 3.0 file


def reference_load(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CorruptionError("well-formed-json", str(exc)) from exc
    if not isinstance(document, dict):
        raise CorruptionError("document-is-object")
    try:
        return _reconstruct(document, raw)
    except CorruptionError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise CorruptionError("document-schema", repr(exc)) from exc


def _reconstruct(document, raw):
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
    # The hash covers the file's bytes with the header save writes taken out.
    recorded = document.get("content_hash")
    header = f',"content_hash":{json.dumps(recorded)},"format_version":{json.dumps(version)}'
    header = header.encode()
    if header not in raw or hashlib.sha256(raw.replace(header, b"", 1)).hexdigest() != recorded:
        raise CorruptionError("content-hash-match")

    config = EngineConfig.from_dict(body["config"])
    graphs = [*body["archives"], body["active_buffer"]]
    events = [entry for graph in graphs for entry in graph]
    _check_types(events, EVENT_FIELD_TYPES, "e")
    _check_types(body["topic_nodes"], _TOPIC_TYPES, "t")
    _check_types(body["topic_edges"], _EDGE_TYPES, None)
    for prefix, entries in (("e", events), ("t", body["topic_nodes"]), ("a", body["archives"])):
        if len(entries) >= 10**6:
            raise CorruptionError("id-width", f"{len(entries)} {prefix} ids")
    # Each id is the entry's position, counted from 1.
    topic_nodes = {}
    for position, entry in enumerate(body["topic_nodes"], 1):
        theme_id = f"t{position:06d}"
        for name, item_type in (("keywords", str), ("embedding", float)):
            if not set(map(type, entry[name])) <= {item_type}:
                raise CorruptionError("field-type", f"{theme_id} {name}")
        if not all(map(math.isfinite, entry["embedding"])):
            raise CorruptionError("document-schema", f"{theme_id} embedding")
        topic_nodes[theme_id] = TopicNode(
            id=theme_id,
            summary=entry["summary"],
            keywords=tuple(entry["keywords"]),
            embedding=tuple(entry["embedding"]),
            created_at=entry["created_at"],
        )

    edges = {}
    for entry in body["topic_edges"]:
        if not math.isfinite(entry["weight"]):
            raise CorruptionError("document-schema", "edge weight")
        edge = TopicEdge(
            from_id=entry["from_id"],
            to_id=entry["to_id"],
            relation=Relation(entry["relation"]),
            weight=entry["weight"],
        )
        edges[edge_key(edge.from_id, edge.to_id)] = edge

    strings, numbers = {}, iter(range(1, len(events) + 1))
    archives = {
        f"a{position:06d}": _rebuild_graph(entries, strings, numbers)
        for position, entries in enumerate(body["archives"], 1)
    }
    buffer = _rebuild_graph(body["active_buffer"], strings, numbers)
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
    reference_validate(snapshot)
    _check_written_form(body, snapshot)
    return snapshot


def _check_written_form(body, snapshot):
    keys = [edge_key(entry["from_id"], entry["to_id"]) for entry in body["topic_edges"]]
    if (unsorted := next((b for a, b in zip(keys, keys[1:]) if not a < b), None)) is not None:
        raise CorruptionError("edge-order", str(unsorted))
    for entries, names in (
        (body["topic_nodes"], _TOPIC_TYPES.keys()),
        (body["topic_edges"], _EDGE_TYPES.keys()),
    ):
        if any(entry.keys() != names for entry in entries):
            raise CorruptionError("document-schema", f"a key outside {sorted(names)}")
    if canonical_json(body["config"]) != canonical_json(snapshot.config.to_dict()):
        raise CorruptionError("document-schema", "config differs from the stored form")


def _rebuild_graph(entries, strings, numbers):
    """The graph of ``entries``, each numbered by the next of ``numbers``."""
    share = strings.setdefault
    for entry in entries:
        entry["session_id"] = share(entry["session_id"], entry["session_id"])
        entry["speaker"] = share(entry["speaker"], entry["speaker"])
        entry["timestamp"] = share(entry["timestamp"], entry["timestamp"])
    return EventGraph(
        tuple(
            EventNode(id=f"e{next(numbers):06d}", **entry, token_count=estimate_tokens(entry["text"]))
            for entry in entries
        )
    )


_TOPIC_TYPES = {
    "summary": (str,),
    "keywords": (list,),
    "embedding": (list,),
    "created_at": (int,),
}
_EDGE_TYPES = {
    "from_id": (str,),
    "to_id": (str,),
    "relation": (str,),
    "weight": (float,),
}


def _check_types(entries, types, prefix):
    """Each field's type over every entry; a failure names the entry by the
    id its position gives it (``prefix``) or, for an edge, its ends."""
    for name, allowed in types.items():
        for position, entry in enumerate(entries, 1):
            if type(entry[name]) not in allowed:
                where = (
                    f"{prefix}{position:06d}"
                    if prefix
                    else f"{entry.get('from_id')}-{entry.get('to_id')}"
                )
                raise CorruptionError("field-type", f"{where} {name}")


def reference_validate(snapshot):
    config = snapshot.config
    graph = snapshot.topic_graph
    # Theme t{k} consolidates archive a{k}.
    if len(snapshot.archive) != len(graph.nodes):
        raise CorruptionError("archive-count")
    for archive_id, events in snapshot.archive.items():
        if not events.nodes:
            raise CorruptionError("archive-non-empty", archive_id)
    for events in [*snapshot.archive.values(), snapshot.active_event_graph]:
        for node in events.nodes:
            if node.turn_index < 0:
                raise CorruptionError("turn-index-non-negative", node.id)
            if not node.text.strip():
                raise CorruptionError("text-non-empty", node.id)

    for node in graph.nodes.values():
        if not node.summary.strip():
            raise CorruptionError("summary-non-empty", node.id)
        if len(node.embedding) != config.embedding_dim:
            raise CorruptionError("embedding-dim", node.id)
        norm = math.sqrt(sum(x * x for x in node.embedding))
        if not abs(norm - 1.0) <= 1e-6:
            raise CorruptionError("embedding-unit-norm", node.id)
    for key, edge in graph.edges.items():
        if edge.from_id not in graph.nodes or edge.to_id not in graph.nodes:
            raise CorruptionError("topic-edge-endpoints", str(key))
        if not edge.weight > config.tau:
            raise CorruptionError("edge-weight-above-tau", str(key))


# ---------------------------------------------------------------------------
# the 1.0 reference loader: a document with every derived copy spelled out


def reference_load_v1(document):
    """The snapshot a 1.0 document describes, read record by record, with
    each derived copy checked against the value it copies."""
    topic_nodes = {
        entry["id"]: TopicNode(
            entry["id"],
            entry["summary"],
            tuple(entry["keywords"]),
            tuple(entry["embedding"]),
            entry["created_at"],
        )
        for entry in document["topic_nodes"]
    }
    edges = {}
    for entry in document["topic_edges"]:
        edge = TopicEdge(entry["from_id"], entry["to_id"], Relation(entry["relation"]), entry["weight"])
        assert entry["directed"] is edge.directed
        edges[edge_key(edge.from_id, edge.to_id)] = edge
    snapshot = MemorySnapshot(
        config=EngineConfig.from_dict(document["config"]),
        topic_graph=TopicGraph(topic_nodes, edges),
        active_event_graph=_rebuild_graph_v1(document["active_buffer"], LIVE_BUFFER_ID),
        archive={k: _rebuild_graph_v1(g, k) for k, g in document["archives"].items()},
        logical_clock=document["logical_clock"],
    )
    assert document["cross_index"] == {k: v.source_archive_id for k, v in topic_nodes.items()}
    for entry in document["topic_nodes"]:
        assert entry["source_archive_id"] == topic_nodes[entry["id"]].source_archive_id
        assert entry["raw"] == topic_raw(snapshot, entry["id"])
    reference_validate(snapshot)
    return snapshot


def _rebuild_graph_v1(graph_dict, graph_id):
    assert graph_dict.keys() == {"graph_id", "nodes", "edges"}
    assert graph_dict["graph_id"] == graph_id
    nodes = tuple(EventNode(**entry) for entry in graph_dict["nodes"])
    assert all(node.token_count == estimate_tokens(node.text) for node in nodes)
    path = [[a.id, b.id, SEQUENTIAL] for a, b in zip(nodes, nodes[1:])]
    assert graph_dict["edges"] == path
    return EventGraph(nodes)


# ---------------------------------------------------------------------------
# mutants

def _with_buffer(snapshot):
    for minute, text in ((1, "one more buffered line"), (2, "and a second buffered line")):
        utterance = Utterance("s99", "ana", text, f"2026-01-05T09:0{minute}:00")
        snapshot = append_event(snapshot, utterance)
    return snapshot


@pytest.fixture(scope="module")
def saved_documents(tmp_path_factory):
    """Saved documents as bytes: a synthetic one with edges and a buffer,
    the golden replay with timestamps, and one with no edges or buffer."""
    engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
    golden, _ = replay(make_golden_corpus(), engine, "semantic")
    synthetic = _with_buffer(random_snapshot(random.Random(5), 7, edge_probability=0.6))
    # No edges and an empty buffer: members written as empty lists.
    bare = random_snapshot(random.Random(6), 3, edge_probability=0.0)
    documents = {}
    for name, snapshot in (("synthetic", synthetic), ("golden", golden), ("bare", bare)):
        path = tmp_path_factory.mktemp("saved") / f"{name}.json"
        save(snapshot, path)
        documents[name] = path.read_bytes()
    return documents


def _paths(value, prefix=()):
    """Every place in a parsed document, as a key path, containers included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


def _replacements(value):
    """What a mutant may put in place of ``value``: another type, a huge or
    negative int, an empty string, a bare NaN."""
    swaps = [None, True, 0, 0.5, "x", [], {}]
    if type(value) is str:
        return ["", " ", "e000001", *swaps]
    if type(value) is int:
        return [-1, 10**30, -(10**30), 2**63, value + 1, float(value), *swaps]
    if type(value) is float:
        return [float("nan"), -value, 1e308, int(value), value * 2, *swaps]
    if type(value) is bool:
        return [not value, int(value), *swaps]
    return swaps


def mutants(document, rng, count):
    """``count`` mutants of ``document``, each with one edit, and its name."""
    # Past its first two numbers an embedding adds nothing new to edit.
    places = [
        p
        for p in _paths(document)
        if p and p[0] != "content_hash" and not (len(p) > 1 and p[-2] == "embedding" and p[-1] > 1)
    ]
    for _ in range(count):
        path = places[rng.randrange(len(places))]
        mutant = copy.deepcopy(document)
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        options = _replacements(parent[key])
        choice = rng.randrange(len(options) + 1)
        if choice == len(options):
            del parent[key]
            yield mutant, f"delete {path}"
        else:
            parent[key] = options[choice]
            yield mutant, f"{path} = {options[choice]!r}"


def outcome(loader, path):
    try:
        return loader(path)
    except CorruptionError as err:
        return err.invariant


def short_run(snapshot, path):
    """Observe, end the session, query, save and load a loaded snapshot."""
    engine = MemoryEngine(mock_bundle(snapshot.config), snapshot=snapshot)
    engine.observe("s-new", "ana", "a fresh line about the garden", "2026-02-01T10:00:00")
    engine.end_session()
    engine.query("garden")
    save(engine.snapshot, path)
    assert snapshot_hash(load(path)) == snapshot_hash(engine.snapshot)


@pytest.mark.filterwarnings("ignore:beta_:UserWarning")
class TestReferenceLoader:
    def test_saved_documents_load_alike(self, saved_documents, tmp_path):
        for name, data in saved_documents.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(data)
            loaded, reference = load(path), reference_load(path)
            assert loaded == reference
            assert snapshot_hash(loaded) == snapshot_hash(reference)

    @pytest.mark.parametrize("name, seed", [("synthetic", 1), ("golden", 2), ("bare", 3)])
    def test_mutants_are_refused_alike_or_survive_a_short_run(
        self, saved_documents, tmp_path, name, seed
    ):
        original = json.loads(saved_documents[name])
        path, run_path = tmp_path / "mutant.json", tmp_path / "run.json"
        accepted = 0
        for mutant, edit in mutants(original, random.Random(seed), 500):
            write_rehashed(mutant, path)
            expected, actual = outcome(reference_load, path), outcome(load, path)
            if isinstance(expected, str):
                assert actual == expected, edit
                continue
            if body_hash(expected) != mutant["content_hash"]:
                # The one meant difference (see the module docstring).
                assert actual == "document-schema", edit
                continue
            assert not isinstance(actual, str), (edit, actual)
            assert actual == expected, edit
            assert snapshot_hash(actual) == snapshot_hash(expected)
            assert body_hash(actual) == mutant["content_hash"]
            short_run(actual, run_path)
            accepted += 1
        # Some edits keep the document valid (a speaker, a summary, a seed).
        assert accepted > 0


@pytest.mark.parametrize("value", [{}, ""])
@pytest.mark.parametrize("member", ["topic_nodes", "topic_edges", "nodes"])
def test_an_empty_list_written_as_another_value_is_refused(tmp_path, member, value):
    # A new snapshot writes every one of these members as an empty list;
    # "nodes" is the buffer's list of event nodes.
    path = tmp_path / "memory.json"
    save(new_snapshot(), path)
    document = json.loads(path.read_text())
    document["active_buffer" if member == "nodes" else member] = value
    write_rehashed(document, path)
    # The reference loader takes it, as a snapshot that saves differently.
    assert body_hash(reference_load(path)) != document["content_hash"]
    with pytest.raises(CorruptionError) as err:
        load(path)
    assert err.value.invariant == "document-schema"


@pytest.mark.filterwarnings("ignore:beta_:UserWarning")
@pytest.mark.parametrize("strategy", STRATEGY_MATRIX)
@pytest.mark.parametrize("corpus", ["golden", "scaling"])
def test_the_1_0_document_and_the_2_0_file_hold_one_snapshot(corpus, strategy, tmp_path, request):
    engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
    snapshot, _ = replay(request.getfixturevalue(f"{corpus}_corpus"), engine, strategy)
    path, again = tmp_path / "memory.json", tmp_path / "again.json"
    save(snapshot, path)
    loaded = load(path)
    expected = reference_load_v1(json.loads(canonical_json(snapshot_to_dict(snapshot))))
    assert loaded == expected
    assert snapshot_hash(loaded) == snapshot_hash(expected) == snapshot_hash(snapshot)
    save(loaded, again)
    assert again.read_bytes() == path.read_bytes()
