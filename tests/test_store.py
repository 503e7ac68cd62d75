import dataclasses
import hashlib
import json
import os
import random
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphmem.config import EngineConfig
from graphmem.consolidation import select_candidates
from graphmem.core import (
    EventGraph,
    EventNode,
    MemorySnapshot,
    TopicGraph,
    Utterance,
    append_event,
    archive_segment,
    canonical_json,
    neighbors,
    next_archive_id,
    next_event_id,
    next_topic_id,
    snapshot_bytes,
    snapshot_hash,
    snapshot_to_dict,
)
from graphmem.engine import MemoryEngine
from graphmem.errors import CorruptionError, GraphMemError
from graphmem.harness import replay
from graphmem.providers import mock_bundle
from graphmem.retrieval import Query, anchor, retrieve
from graphmem.store import (
    FORMAT_VERSION,
    VectorIndex,
    load,
    save,
    topic_index,
    validate_snapshot,
    vector_topk,
)

from conftest import interleaved_corpora, random_snapshot, unit_vector

BODY_KEYS = (
    "topic_nodes",
    "topic_edges",
    "archives",
    "cross_index",
    "active_buffer",
    "config",
    "logical_clock",
)


@pytest.fixture
def snapshot():
    return random_snapshot(random.Random(21), 12, edge_probability=0.05)


@pytest.fixture
def buffered_snapshot(snapshot):
    for text in ("one more buffered line", "and a second buffered line"):
        snapshot = append_event(snapshot, Utterance("s99", "ana", text))
    return snapshot


def rewrite(document, path):
    """Write ``document`` with a content hash matching its body, so the load
    reaches the structural checks behind the hash."""
    body = {k: document[k] for k in BODY_KEYS}
    document["content_hash"] = hashlib.sha256(canonical_json(body)).hexdigest()
    path.write_text(json.dumps(document))


def saved_document(snapshot, path):
    save(snapshot, path)
    return json.loads(path.read_text())


class TestSaveLoad:
    def test_round_trip_preserves_hash(self, snapshot, tmp_path):
        path = tmp_path / "memory.json"
        save(snapshot, path)
        assert snapshot_hash(load(path)) == snapshot_hash(snapshot)

    def test_equal_snapshots_equal_files(self, snapshot, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save(snapshot, first)
        save(snapshot, second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_shares_equal_strings(self, golden_snapshot, tmp_path):
        snap = golden_snapshot[0]
        path = tmp_path / "memory.json"
        save(snap, path)
        loaded = load(path)
        nodes = [n for g in (*loaded.archive.values(), loaded.active_event_graph) for n in g.nodes]
        for name in ("session_id", "speaker", "timestamp"):
            values = [getattr(n, name) for n in nodes if getattr(n, name) is not None]
            assert len({id(v) for v in values}) == len(set(values))
        assert len({n.speaker for n in nodes}) < len(nodes)
        assert snapshot_hash(loaded) == snapshot_hash(snap)
        again = tmp_path / "again.json"
        save(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_unwritable_path_raises_oserror(self, snapshot):
        with pytest.raises(OSError):
            save(snapshot, "/nonexistent-root-dir/nope/memory.json")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load(tmp_path / "never-written.json")

    @pytest.mark.parametrize("corpus", ["golden", "scaling"])
    def test_saved_bytes_are_the_canonical_document(self, corpus, tmp_path, request):
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, _ = replay(request.getfixturevalue(f"{corpus}_corpus"), engine, "semantic")
        body = snapshot_to_dict(snapshot)
        document = {
            **body,
            "format_version": FORMAT_VERSION,
            "content_hash": hashlib.sha256(canonical_json(body)).hexdigest(),
        }
        path = tmp_path / "memory.json"
        save(snapshot, path)
        assert path.read_bytes() == canonical_json(document)

    def test_scaling_snapshot_round_trips_under_a_second(self, tmp_path):
        from graphmem.config import EngineConfig
        from graphmem.engine import MemoryEngine
        from graphmem.fixtures import make_scaling_corpus
        from graphmem.harness import replay
        from graphmem.providers import mock_bundle

        config = EngineConfig()
        engine = MemoryEngine(mock_bundle(config), config)
        snapshot, _ = replay(make_scaling_corpus(), engine, "semantic")
        assert sum(len(g) for g in snapshot.archive.values()) + len(snapshot.buffer) == 648
        path = tmp_path / "big.json"
        started = time.perf_counter()
        save(snapshot, path)
        reloaded = load(path)
        elapsed = time.perf_counter() - started
        assert snapshot_hash(reloaded) == snapshot_hash(snapshot)
        assert elapsed < 1.0


class TestValidation:
    def _document(self, snapshot, tmp_path):
        path = tmp_path / "memory.json"
        save(snapshot, path)
        return json.loads(path.read_text()), path

    def _rewrite(self, document, path):
        rewrite(document, path)

    def test_cross_index_pointing_at_missing_archive(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["cross_index"]["t000001"] = "a999999"
        self._rewrite(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert "cross-index" in str(err.value)

    def test_tampered_body_fails_hash_check(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["logical_clock"] += 1
        path.write_text(json.dumps(document))
        with pytest.raises(CorruptionError, match="content-hash"):
            load(path)

    def test_unknown_major_version_rejected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["format_version"] = "2.0"
        path.write_text(json.dumps(document))
        with pytest.raises(CorruptionError, match="format-version"):
            load(path)

    def test_minor_version_accepted(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        major = FORMAT_VERSION.split(".")[0]
        document["format_version"] = f"{major}.9"
        path.write_text(json.dumps(document))
        assert snapshot_hash(load(path)) == snapshot_hash(snapshot)

    def test_duplicate_event_id_detected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        first_archive = sorted(document["archives"])[0]
        nodes = document["archives"][first_archive]["nodes"]
        nodes[1]["id"] = nodes[0]["id"]
        self._rewrite(document, path)
        with pytest.raises(CorruptionError, match="event-id-unique|sequential-path"):
            load(path)

    def test_bad_token_count_detected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        first_archive = sorted(document["archives"])[0]
        document["archives"][first_archive]["nodes"][0]["token_count"] = 999
        self._rewrite(document, path)
        with pytest.raises(CorruptionError, match="token-count"):
            load(path)

    def test_edge_weight_below_tau_detected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        if not document["topic_edges"]:
            pytest.skip("sampled graph has no edges")
        document["topic_edges"][0]["weight"] = 0.1
        self._rewrite(document, path)
        with pytest.raises(CorruptionError, match="weight"):
            load(path)

    def test_non_unit_embedding_detected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["topic_nodes"][0]["embedding"][0] += 0.5
        self._rewrite(document, path)
        with pytest.raises(CorruptionError, match="unit-norm"):
            load(path)

    def test_config_the_engine_cannot_use_rejected(self, snapshot, tmp_path):
        # A fractional retrieval_k would load and then fail every query.
        document, path = self._document(snapshot, tmp_path)
        document["config"]["retrieval_k"] = 2.5
        self._rewrite(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "document-schema"

    def test_negative_pause_gap_rejected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["config"]["pause_gap_minutes"] = -5
        self._rewrite(document, path)
        with pytest.raises(CorruptionError, match="pause_gap_minutes") as err:
            load(path)
        assert err.value.invariant == "document-schema"

    def test_unknown_event_field_rejected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        _first_archive(document)["nodes"][0]["mood"] = "cheerful"
        self._rewrite(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "document-schema"

    def test_boolean_logical_clock_rejected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["logical_clock"] = True
        self._rewrite(document, path)
        with pytest.raises(CorruptionError, match="logical-clock"):
            load(path)

    def test_validate_passes_on_generated_snapshots(self):
        for seed in range(5):
            validate_snapshot(random_snapshot(random.Random(seed), 8))


def _first_archive(document):
    return document["archives"][sorted(document["archives"])[0]]


def _tamper_event_edge(document):
    edge = _first_archive(document)["edges"][0]
    edge[0], edge[1] = edge[1], edge[0]


def _tamper_archive_graph_id(document):
    first, second = sorted(document["archives"])[:2]
    document["archives"][first]["graph_id"] = second


def _tamper_buffer_graph_id(document):
    document["active_buffer"]["graph_id"] = "buffer"


def _tamper_cross_index(document):
    index = document["cross_index"]
    index["t000001"], index["t000002"] = index["t000002"], index["t000001"]


def _tamper_raw(document):
    document["topic_nodes"][0]["raw"] += "\nana: an utterance never stored"


def _tamper_directed(document):
    edge = document["topic_edges"][0]
    edge["directed"] = not edge["directed"]


class TestRepeatedFacts:
    """The document repeats five derived facts; each copy is checked."""

    @pytest.mark.parametrize(
        "tamper, invariant",
        [
            (_tamper_event_edge, "sequential-path"),
            (_tamper_archive_graph_id, "archive-graph-id"),
            (_tamper_buffer_graph_id, "buffer-graph-id"),
            (_tamper_cross_index, "cross-index-matches-source"),
            (_tamper_raw, "raw-matches-archive"),
            (_tamper_directed, "edge-directed-matches-relation"),
        ],
    )
    def test_tampered_copy_is_named(self, buffered_snapshot, tmp_path, tamper, invariant):
        path = tmp_path / "memory.json"
        document = saved_document(buffered_snapshot, path)
        tamper(document)
        rewrite(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == invariant


def _malformed_event_id(document):
    # The buffer's last node becomes "ezz", its edge renamed to match.
    buffer = document["active_buffer"]
    buffer["nodes"][-1]["id"] = "ezz"
    buffer["edges"][-1][1] = "ezz"


def _malformed_topic_id(document):
    topic = next(
        t
        for t in document["topic_nodes"]
        if not any(t["id"] in (e["from_id"], e["to_id"]) for e in document["topic_edges"])
    )
    document["cross_index"]["t12"] = document["cross_index"].pop(topic["id"])
    topic["id"] = "t12"


def _malformed_archive_id(document):
    document["archives"]["a1"] = document["archives"].pop("a000001")
    document["archives"]["a1"]["graph_id"] = "a1"
    document["cross_index"]["t000001"] = "a1"
    document["topic_nodes"][0]["source_archive_id"] = "a1"


def _buffer_below_archives(document):
    # The single buffered node takes an id below every archived one.
    document["active_buffer"]["nodes"][0]["id"] = "e000000"


def _archives_swapped(document):
    # The first two archives trade episodes, edges included.
    first, second = (document["archives"][k] for k in sorted(document["archives"])[:2])
    for key in ("nodes", "edges"):
        first[key], second[key] = second[key], first[key]


def _buffered_node(document):
    return document["active_buffer"]["nodes"][0]


def _archived_node(document):
    return _first_archive(document)["nodes"][0]


@pytest.mark.parametrize(
    "tamper, field",
    [
        (lambda d: _buffered_node(d).update(speaker=None), "speaker"),
        (lambda d: _buffered_node(d).update(speaker=7), "speaker"),
        (lambda d: _buffered_node(d).update(timestamp=5), "timestamp"),
        (lambda d: _archived_node(d).update(turn_index="3"), "turn_index"),
        (lambda d: _archived_node(d).update(turn_index=True), "turn_index"),
        (lambda d: _archived_node(d).update(token_count=6.0), "token_count"),
        (lambda d: _archived_node(d).update(confidence_flag="false"), "confidence_flag"),
        (lambda d: _archived_node(d).update(confidence_flag=1), "confidence_flag"),
        (lambda d: _archived_node(d).update(session_id=1), "session_id"),
        (lambda d: d["topic_nodes"][0].update(created_at="3"), "created_at"),
        (lambda d: d["topic_nodes"][0].update(created_at=False), "created_at"),
        (lambda d: d["topic_nodes"][0].update(summary=None), "summary"),
        (lambda d: d["topic_nodes"][0].update(keywords=[1]), "keywords"),
        (lambda d: d["topic_nodes"][0].update(keywords="word"), "keywords"),
        (lambda d: d["topic_nodes"][0]["embedding"].__setitem__(0, "0.5"), "embedding"),
        (lambda d: d["topic_nodes"][0].update(source_archive_id=1), "source_archive_id"),
        (lambda d: d["topic_edges"][0].update(weight=True), "weight"),
        (lambda d: d["topic_edges"][0].update(weight="0.9"), "weight"),
    ],
)
def test_field_of_the_wrong_type_is_rejected(buffered_snapshot, tmp_path, tamper, field):
    path = tmp_path / "memory.json"
    document = saved_document(buffered_snapshot, path)
    tamper(document)
    rewrite(document, path)
    with pytest.raises(CorruptionError) as err:
        load(path)
    assert err.value.invariant == "field-type"
    assert field in str(err.value)


@pytest.mark.parametrize("summary", ["", "   "])
def test_blank_theme_summary_is_rejected(golden_snapshot, tmp_path, summary):
    # Loaded, such a theme would make the next consolidation's relation
    # scoring raise ValueError.
    path = tmp_path / "memory.json"
    document = saved_document(golden_snapshot[0], path)
    document["topic_nodes"][0]["summary"] = summary
    rewrite(document, path)
    with pytest.raises(CorruptionError) as err:
        load(path)
    assert err.value.invariant == "summary-non-empty"
    assert document["topic_nodes"][0]["id"] in str(err.value)


class TestNonFinite:
    def test_nan_embedding_fails_unit_norm(self, snapshot):
        first = min(snapshot.topic_graph.nodes)
        nodes = dict(snapshot.topic_graph.nodes)
        embedding = (float("nan"),) + nodes[first].embedding[1:]
        nodes[first] = dataclasses.replace(nodes[first], embedding=embedding)
        graph = TopicGraph(nodes, snapshot.topic_graph.edges)
        with pytest.raises(CorruptionError, match="embedding-unit-norm"):
            validate_snapshot(dataclasses.replace(snapshot, topic_graph=graph))

    def test_canonical_encoding_refuses_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"weight": float("nan")})

    def test_file_with_a_bare_nan_is_rejected(self, snapshot, tmp_path):
        path = tmp_path / "memory.json"
        document = saved_document(snapshot, path)
        document["topic_nodes"][0]["embedding"][0] = float("nan")
        body = {k: document[k] for k in BODY_KEYS}
        encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
        document["content_hash"] = hashlib.sha256(encoded.encode()).hexdigest()
        path.write_text(json.dumps(document))
        assert "NaN" in path.read_text()
        with pytest.raises(CorruptionError):
            load(path)


class TestEventIdOrder:
    """Allocation reads only the newest event, so the loader insists that
    ids rise through the archives in id order and then the buffer."""

    @pytest.mark.parametrize("tamper", [_buffer_below_archives, _archives_swapped])
    def test_out_of_order_ids_rejected(self, snapshot, tmp_path, tamper):
        snapshot = append_event(snapshot, Utterance("s99", "ana", "one buffered line"))
        path = tmp_path / "memory.json"
        document = saved_document(snapshot, path)
        tamper(document)
        rewrite(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "event-id-order"


class TestIdFormat:
    @pytest.mark.parametrize(
        "malform", [_malformed_event_id, _malformed_topic_id, _malformed_archive_id]
    )
    def test_malformed_id_rejected(self, buffered_snapshot, tmp_path, malform):
        path = tmp_path / "memory.json"
        document = saved_document(buffered_snapshot, path)
        malform(document)
        rewrite(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "id-format"


class TestEngineSnapshotProperties:
    @settings(max_examples=25, deadline=None)
    @given(corpus=interleaved_corpora(), limit=st.sampled_from((8, 24, 2048)))
    def test_every_snapshot_validates_round_trips_and_keeps_ingesting(
        self, corpus, limit
    ):
        # The engine restarts from the reloaded copy after every turn, so the
        # final state also proves that loaded snapshots ingest like live ones.
        config = EngineConfig(buffer_token_limit=limit)
        bundle = mock_bundle(config)
        continuous = MemoryEngine(mock_bundle(config), config)
        engine = MemoryEngine(bundle, config)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "memory.json")
            for turn in corpus.turns:
                args = (turn.session_id, turn.speaker, turn.text, turn.timestamp)
                continuous.observe(*args, turn.turn_index)
                engine.observe(*args, turn.turn_index)
                snapshot = engine.snapshot
                validate_snapshot(snapshot)
                save(snapshot, path)
                loaded = load(path)
                assert snapshot_bytes(loaded) == snapshot_bytes(snapshot)
                engine = MemoryEngine(bundle, snapshot=loaded)
        continuous.end_session()
        engine.end_session()
        validate_snapshot(engine.snapshot)
        assert snapshot_bytes(engine.snapshot) == snapshot_bytes(continuous.snapshot)


@pytest.fixture(scope="module")
def saved_fixture_documents(tmp_path_factory, golden_corpus, scaling_corpus):
    """The saved golden and scaling documents, as file bytes."""
    documents = {}
    for name, corpus in (("golden", golden_corpus), ("scaling", scaling_corpus)):
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, _ = replay(corpus, engine, "semantic")
        path = tmp_path_factory.mktemp("saved") / f"{name}.json"
        save(snapshot, path)
        documents[name] = path.read_bytes()
    return documents


# Each mutation edits a saved document in place; ``pick(n)`` chooses an
# index in ``range(n)`` for every choice it makes.


def _reorder(pick, entries):
    first = pick(len(entries))
    second = (first + 1 + pick(len(entries) - 1)) % len(entries)
    entries[first], entries[second] = entries[second], entries[first]


def _duplicate(pick, entries):
    entries.insert(pick(len(entries) + 1), dict(entries[pick(len(entries))]))


def _add_key(pick, document):
    sections = [
        document["topic_nodes"],
        document["topic_edges"],
        list(document["archives"].values()),
        [document["active_buffer"]],
    ]
    sections = [entries for entries in sections if entries]
    entries = sections[pick(len(sections))]
    values = [None, 0, "x", []]
    entries[pick(len(entries))]["extra"] = values[pick(len(values))]


def _drop_config_key(pick, document):
    names = sorted(document["config"])
    del document["config"][names[pick(len(names))]]


def _config_float_as_int(pick, document):
    config = document["config"]
    names = sorted(k for k, v in config.items() if type(v) is float)
    name = names[pick(len(names))]
    config[name] = int(config[name])


WRITTEN_FORM_MUTATIONS = {
    "reorder-themes": lambda pick, doc: _reorder(pick, doc["topic_nodes"]),
    "duplicate-theme": lambda pick, doc: _duplicate(pick, doc["topic_nodes"]),
    "reorder-edges": lambda pick, doc: _reorder(pick, doc["topic_edges"]),
    "duplicate-edge": lambda pick, doc: _duplicate(pick, doc["topic_edges"]),
    "add-key": _add_key,
    "drop-config-key": _drop_config_key,
    "config-float-as-int": _config_float_as_int,
}


class TestWrittenForm:
    """The loader accepts only the form ``save`` writes, so a loaded
    snapshot hashes to its file's ``content_hash``."""

    @settings(max_examples=100, deadline=None)
    @given(
        corpus=st.sampled_from(("golden", "scaling")),
        mutation=st.sampled_from(sorted(WRITTEN_FORM_MUTATIONS)),
        data=st.data(),
    )
    def test_rehashed_mutant_is_rejected_or_hashes_to_its_record(
        self, saved_fixture_documents, tmp_path_factory, corpus, mutation, data
    ):
        document = json.loads(saved_fixture_documents[corpus])
        # The golden snapshot has no topic edges.
        assume("edge" not in mutation or len(document["topic_edges"]) >= 2)
        pick = lambda n: data.draw(st.integers(0, n - 1))  # noqa: E731
        WRITTEN_FORM_MUTATIONS[mutation](pick, document)
        path = tmp_path_factory.mktemp("mutant") / "mutant.json"
        rewrite(document, path)
        try:
            loaded = load(path)
        except CorruptionError:
            return
        assert snapshot_hash(loaded) == document["content_hash"]

    @pytest.mark.parametrize(
        "mutation, invariant",
        [
            ("reorder-themes", "topic-order"),
            ("duplicate-theme", "topic-order"),
            ("reorder-edges", "edge-order"),
            ("duplicate-edge", "edge-order"),
            ("add-key", "document-schema"),
            ("drop-config-key", "document-schema"),
            ("config-float-as-int", "document-schema"),
        ],
    )
    def test_each_mutation_is_named(self, saved_fixture_documents, tmp_path, mutation, invariant):
        document = json.loads(saved_fixture_documents["scaling"])
        # The first choice every time: the first two entries, the first
        # section, entry and value, the first config key of its kind.
        WRITTEN_FORM_MUTATIONS[mutation](lambda n: 0, document)
        path = tmp_path / "mutant.json"
        rewrite(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == invariant


class TestMutationFuzz:
    def test_single_byte_mutations_never_escape_typed_errors(self, snapshot, tmp_path):
        path = tmp_path / "memory.json"
        save(snapshot, path)
        original = bytearray(path.read_bytes())
        reference = snapshot_hash(snapshot)
        rng = random.Random(99)
        mutant_path = tmp_path / "mutant.json"
        for _ in range(300):
            mutated = bytearray(original)
            position = rng.randrange(len(mutated))
            mutated[position] = (mutated[position] + rng.randrange(1, 256)) % 256
            mutant_path.write_bytes(bytes(mutated))
            try:
                result = load(mutant_path)
            except GraphMemError:
                continue
            assert snapshot_hash(result) == reference


class TestVectorIndex:
    def test_topk_ties_by_id(self):
        shared = np.array([1.0, 0.0, 0.0, 0.0])
        index = (
            VectorIndex.empty(4)
            .with_row("t000002", shared)
            .with_row("t000001", shared)
            .with_row("t000003", np.array([0.0, 1.0, 0.0, 0.0]))
        )
        result = vector_topk(index, shared, 3)
        assert [i for i, _ in result] == ["t000001", "t000002", "t000003"]
        assert result[0][1] == pytest.approx(1.0)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            vector_topk(VectorIndex.empty(4), np.zeros(4), 0)

    def test_empty_index(self):
        assert vector_topk(VectorIndex.empty(4), np.zeros(4), 5) == []

    def test_incremental_add_equals_rebuild(self):
        rng = random.Random(13)
        snapshot = random_snapshot(rng, 30, edge_probability=0.0)
        graph = snapshot.topic_graph
        rebuilt = VectorIndex.from_topic_graph(graph, 64)
        incremental = VectorIndex.empty(64)
        order = list(graph.nodes)
        rng.shuffle(order)
        for tid in order:
            extended = incremental.with_row(tid, graph.nodes[tid].embedding)
            assert len(incremental.ids) == len(extended.ids) - 1
            incremental = extended
        assert incremental.ids == rebuilt.ids
        assert np.array_equal(incremental.matrix, rebuilt.matrix)
        query = np.asarray(unit_vector(rng, 64))
        assert vector_topk(incremental, query, 7) == vector_topk(rebuilt, query, 7)

    def test_index_coherent_after_mutations(self):
        # grow a graph through real consolidations and compare both paths
        from graphmem.config import EngineConfig
        from graphmem.consolidation import consolidate_segment
        from graphmem.core import Utterance, append_event, new_snapshot
        from graphmem.providers import mock_bundle

        config = EngineConfig()
        bundle = mock_bundle(config)
        snap = new_snapshot(config)
        incremental = VectorIndex.empty(config.embedding_dim)
        for i in range(6):
            snap = append_event(
                snap, Utterance("s1", "ana", f"theme{i} alpha{i} with theme{i}")
            )
            report, snap = consolidate_segment(snap, snap.buffer, bundle)
            node = snap.topic_graph.nodes[report.new_topic_id]
            incremental = incremental.with_row(node.id, node.embedding)
            rebuilt = VectorIndex.from_topic_graph(snap.topic_graph, config.embedding_dim)
            assert incremental.ids == rebuilt.ids
            assert incremental.matrix.tobytes() == rebuilt.matrix.tobytes()


def _scan_topk(index, query, k):
    """Reference top-k: every row scored by its own dot product, then sorted."""
    scored = [
        (node_id, float(np.dot(index.matrix[i], query)))
        for i, node_id in enumerate(index.ids)
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


@st.composite
def indexed_queries(draw):
    """An index with forced ties and near-duplicate rows, a query and a k.

    Copies of a row tie exactly; a row one ulp away from another may score
    above, below or equal to it.  The query is a row (so copies tie at the
    top), a unit vector, a scaled one, zero, or partly NaN; ``k`` runs past
    the number of rows.
    """
    dim = draw(st.sampled_from((3, 8, 64)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [unit_vector(rng, dim) for _ in range(draw(st.integers(1, 30)))]
    for _ in range(draw(st.integers(0, len(rows)))):
        row = list(rows[draw(st.integers(0, len(rows) - 1))])
        if draw(st.booleans()):
            j = draw(st.integers(0, dim - 1))
            row[j] = float(np.nextafter(row[j], draw(st.sampled_from((-1.0, 2.0)))))
        rows.append(tuple(row))
    numbers = draw(st.permutations(range(1, len(rows) + 1)))
    index = VectorIndex.empty(dim)
    for number, row in zip(numbers, rows):
        index = index.with_row(f"t{number:06d}", row)
    kind = draw(st.sampled_from(("row", "unit", "scaled", "zero", "nan")))
    if kind == "row":
        query = np.array(rows[draw(st.integers(0, len(rows) - 1))])
    elif kind == "zero":
        query = np.zeros(dim)
    else:
        query = np.array(unit_vector(rng, dim))
        if kind == "scaled":
            query *= draw(st.sampled_from((1e-6, 0.5, 3.0, 1e4)))
        if kind == "nan":
            query[draw(st.integers(0, dim - 1))] = np.nan
    return index, query, draw(st.integers(1, len(rows) + 3))


class TestVectorIndexProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=indexed_queries())
    def test_topk_equals_a_full_per_row_scan(self, case):
        index, query, k = case
        # repr tells -0.0 from 0.0 and compares NaN scores too
        def exact(ranking):
            return [(node_id, repr(score)) for node_id, score in ranking]

        assert exact(vector_topk(index, query, k)) == exact(_scan_topk(index, query, k))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 12),
        branches=st.lists(st.sampled_from((0, 1)), max_size=24),
    )
    def test_sibling_indices_grown_from_one_parent(self, seed, size, branches):
        # Two snapshots grown from one parent take turns appending; every
        # index along both lines must stay equal to a full rebuild.
        rng = random.Random(seed)
        parent_rows = [unit_vector(rng, 8) for _ in range(size)]
        parent = VectorIndex.empty(8)
        for number, row in enumerate(parent_rows, 1):
            parent = parent.with_row(f"t{number:06d}", row)
        lines = [[(parent, parent_rows)], [(parent, parent_rows)]]
        for branch in branches:
            index, rows = lines[branch][-1]
            row = unit_vector(rng, 8)
            grown = index.with_row(f"t{len(rows) + 1:06d}", row)
            lines[branch].append((grown, rows + [row]))
        for index, rows in [pair for line in lines for pair in line]:
            rebuilt = np.array(rows, dtype=float).reshape(len(rows), 8)
            assert index.ids == tuple(f"t{n:06d}" for n in range(1, len(rows) + 1))
            assert index.matrix.tobytes() == rebuilt.tobytes()
            assert not index.matrix.flags.writeable

    def test_threads_growing_one_parent_each_keep_their_rows(self):
        # More threads than cores append to one shared parent at once; a row
        # taken twice would leave some thread's index holding another's row.
        parent = VectorIndex.empty(4).with_row("t000001", (1.0, 0.0, 0.0, 0.0))
        results = {}

        def grow(worker):
            index = parent
            for step in range(200):
                index = index.with_row(f"t{step + 2:06d}", (0.0, worker, step, 0.0))
            results[worker] = index

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for worker, index in results.items():
            grown = [(0.0, worker, step, 0.0) for step in range(200)]
            expected = np.array([(1.0, 0.0, 0.0, 0.0), *grown])
            assert index.matrix.tobytes() == expected.tobytes()
        assert sorted(results) == list(range(6))
        assert parent.matrix.tobytes() == np.array([(1.0, 0.0, 0.0, 0.0)]).tobytes()


def _scan_next_id(prefix, ids):
    """Reference allocator: one past the largest number among all ids."""
    return f"{prefix}{max((int(i[1:]) for i in ids), default=0) + 1:06d}"


def _engine(limit):
    config = EngineConfig(buffer_token_limit=limit)
    return MemoryEngine(mock_bundle(config), config)


def _observe(engine, turn):
    engine.observe(turn.session_id, turn.speaker, turn.text, turn.timestamp, turn.turn_index)


@st.composite
def turn_programs(draw):
    """Steps over 1-3 interleaved sessions: turns with the turn index left
    out or given (also below the session's highest), explicit checks, and
    save/load round trips."""
    sessions = ("s1", "s2", "s3")[: draw(st.integers(1, 3))]
    vocabulary = ("garden", "compost", "puppy", "leash", "interview", "offer")
    steps = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("turn", "turn", "turn", "end_session", "check_now", "reload")))
        if kind == "turn":
            session = draw(st.sampled_from(sessions))
            turn_index = draw(st.none() | st.integers(0, 40))
            words = draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=5))
            steps.append((kind, session, turn_index, " ".join(words)))
        else:
            steps.append((kind,))
    return steps


def _next_turn(snapshot, session_id):
    """The turn index an append without one gets."""
    return append_event(snapshot, Utterance(session_id, "ana", "probe")).buffer[-1].turn_index


def _archived_session(session_id, turns):
    """A snapshot whose one archive holds ``turns`` turns of one session."""
    snapshot = MemorySnapshot(EngineConfig())
    for turn in range(turns):
        snapshot = append_event(snapshot, Utterance(session_id, "ana", f"garden turn {turn}"))
    return archive_segment(snapshot, turns, [True] * turns)[1]


def _scan_next_turn(snapshot, session_id):
    """Reference derivation: one past the session's highest stored turn."""
    graphs = (snapshot.active_event_graph, *snapshot.archive.values())
    turns = [n.turn_index for g in graphs for n in g.nodes if n.session_id == session_id]
    return max(turns, default=-1) + 1


class TestDerivedValueProperties:
    """Id allocation, turn-index derivation, the carried vector index and
    the adjacency map read only derived state; each must equal the full scan
    it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(corpus=interleaved_corpora(), limit=st.sampled_from((8, 24, 2048)))
    def test_each_turn_matches_a_full_scan(self, corpus, limit):
        engine = _engine(limit)
        dim = engine.config.embedding_dim
        query = engine.providers.embedder.embed("garden puppy offer")
        for turn in corpus.turns:
            _observe(engine, turn)
            snapshot = engine.snapshot
            graphs = (snapshot.active_event_graph, *snapshot.archive.values())
            events = [n.id for g in graphs for n in g.nodes]
            assert next_event_id(snapshot) == _scan_next_id("e", events)
            assert next_topic_id(snapshot) == _scan_next_id("t", snapshot.topic_graph.nodes)
            assert next_archive_id(snapshot) == _scan_next_id("a", snapshot.archive)

            graph = snapshot.topic_graph
            carried = topic_index(graph, dim)
            rebuilt = VectorIndex.from_topic_graph(graph, dim)
            assert carried.ids == rebuilt.ids
            assert carried.matrix.tobytes() == rebuilt.matrix.tobytes()
            k = max(len(graph.nodes), 1)
            expected = vector_topk(rebuilt, query, k)
            assert select_candidates(graph, query, k) == expected
            assert anchor(graph, query, k).seeds == tuple(expected)

            for node_id in graph.nodes:
                scanned = {b if a == node_id else a for a, b in graph.edges if node_id in (a, b)}
                assert neighbors(graph, node_id) == scanned

    @settings(max_examples=25, deadline=None)
    @given(corpus=interleaved_corpora(), limit=st.sampled_from((8, 24)))
    def test_consolidation_leaves_the_parent_index_alone(self, corpus, limit):
        engine = _engine(limit)
        query = Query("what about the garden and the puppy")
        for turn in corpus.turns:
            before = engine.snapshot
            ranking = retrieve(before, query, engine.providers)
            index = before.topic_graph.vector_index
            matrix = index.matrix.tobytes()
            _observe(engine, turn)
            # Querying the new snapshot uses the index carried from ``before``.
            engine.query(query)
            assert before.topic_graph.vector_index is index
            assert index.matrix.tobytes() == matrix
            assert len(index.ids) == len(before.topic_graph.nodes)
            assert retrieve(before, query, engine.providers) == ranking

    @settings(max_examples=40, deadline=None)
    @given(steps=turn_programs(), limit=st.sampled_from((8, 24, 2048)))
    def test_derived_turn_index_matches_a_full_scan(self, steps, limit):
        engine = _engine(limit)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "snapshot.json")
            for step in steps:
                if step[0] == "turn":
                    _, session, turn_index, text = step
                    engine.observe(session, "ana", text, None, turn_index)
                elif step[0] == "reload":
                    save(engine.snapshot, path)
                    engine = MemoryEngine(engine.providers, snapshot=load(path))
                else:
                    getattr(engine, step[0])()
                snapshot = engine.snapshot
                for session in ("s1", "s2", "s3"):
                    assert _next_turn(snapshot, session) == _scan_next_turn(snapshot, session)

    def test_forks_derive_from_their_own_history(self):
        parent = _archived_session("s1", 12)
        assert _next_turn(parent, "s1") == 12
        built = parent.archive_turn_max
        frozen = dict(built)

        high = append_event(parent, Utterance("s1", "ana", "a late turn", turn_index=50))
        low = append_event(parent, Utterance("s2", "riley", "another session"))
        for child, expected in ((high, 51), (low, 12)):
            assert _next_turn(child, "s1") == expected
            _, archived = archive_segment(child, len(child.buffer), [True] * len(child.buffer))
            assert not archived.buffer
            assert _next_turn(archived, "s1") == expected
        assert parent.archive_turn_max is built
        assert built == frozen
        assert _next_turn(parent, "s1") == 12

    def test_replaced_archives_derive_from_the_new_ones(self):
        long, short = _archived_session("s1", 12), _archived_session("s1", 4)
        assert _next_turn(long, "s1") == 12
        swapped = dataclasses.replace(long, archive=short.archive)
        assert _next_turn(swapped, "s1") == 4

    def test_the_derived_map_is_never_saved_compared_or_shown(self):
        snapshot = _archived_session("s1", 6)
        fresh = dataclasses.replace(snapshot)
        _next_turn(snapshot, "s1")
        assert snapshot.archive_turn_max == {"s1": 5}
        assert fresh.archive_turn_max is None
        assert snapshot == fresh
        assert repr(snapshot) == repr(fresh)
        assert snapshot_to_dict(snapshot) == snapshot_to_dict(fresh)
        with pytest.raises(TypeError):
            MemorySnapshot(snapshot.config, archive_turn_max={})

    def test_turns_after_the_first_never_iterate_an_archive(self):
        # The per-turn cost stays flat: once derived, the archived maximum is
        # carried, so appending more turns reads no archived node.
        iterations = []

        class CountingNodes(tuple):
            def __iter__(self):
                iterations.append(1)
                return super().__iter__()

        archives = {}
        for number in range(1, 201):
            nodes = CountingNodes(
                EventNode(
                    id=f"e{5 * (number - 1) + i + 1:06d}",
                    session_id=f"s{number % 10}",
                    turn_index=number + i,
                    speaker="ana",
                    text="an archived turn",
                    timestamp=None,
                    token_count=4,
                )
                for i in range(5)
            )
            archives[f"a{number:06d}"] = EventGraph(nodes)
        config = EngineConfig()
        engine = MemoryEngine(mock_bundle(config), config, MemorySnapshot(config, archive=archives))

        engine.observe("s3", "ana", "the first new turn")
        assert len(iterations) == len(archives)
        for turn in range(50):
            engine.observe("s3", "ana", f"another new turn {turn}")
        assert len(iterations) == len(archives)
        assert engine.snapshot.archive == archives  # no turn was consolidated
        turns = [n.turn_index for n in engine.snapshot.buffer]
        assert turns == list(range(198, 249))
