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
from graphmem.consolidation import consolidate_segment, select_candidates
from graphmem.core import (
    EventGraph,
    EventNode,
    STORED_MEMBERS,
    MemorySnapshot,
    Relation,
    TopicEdge,
    TopicGraph,
    TopicNode,
    Utterance,
    append_event,
    archive_segment,
    canonical_json,
    insert_topic_node,
    neighbors,
    next_archive_id,
    next_event_id,
    next_topic_id,
    snapshot_bytes,
    snapshot_hash,
    snapshot_to_dict,
    stable_layer_hash,
)
from graphmem.engine import MemoryEngine
from graphmem.errors import CorruptionError, GraphMemError
from graphmem.harness import replay
from graphmem.providers import mock_bundle
from graphmem.retrieval import Query, anchor, retrieve
from graphmem.store import (
    FORMAT_VERSION,
    VectorIndex,
    _body_digest,
    load,
    save,
    topic_index,
    validate_snapshot,
    vector_topk,
)

from conftest import (
    as_saved,
    body_hash,
    cold_file,
    interleaved_corpora,
    random_snapshot,
    stored_body,
    unit_vector,
    write_rehashed,
)
from test_acceptance import STRATEGY_MATRIX


@pytest.fixture
def snapshot():
    return random_snapshot(random.Random(21), 12, edge_probability=0.05)


@pytest.fixture
def buffered_snapshot(snapshot):
    for text in ("one more buffered line", "and a second buffered line"):
        snapshot = append_event(snapshot, Utterance("s99", "ana", text))
    return snapshot


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

    def test_the_file_holds_no_derived_copy(self, buffered_snapshot, tmp_path):
        # Graph ids, event edges, token counts, the cross index, each
        # theme's raw text and each edge's direction follow from the rest.
        document = saved_document(buffered_snapshot, tmp_path / "memory.json")
        assert document["topic_edges"] and document["active_buffer"]
        keys, values = set(), [document]
        while values:
            value = values.pop()
            if isinstance(value, dict):
                keys |= value.keys()
                values += value.values()
            elif isinstance(value, list):
                values += value
        copies = {"graph_id", "edges", "token_count", "cross_index", "raw", "directed"}
        assert keys & copies == set()

    def test_unwritable_path_raises_oserror(self, snapshot):
        with pytest.raises(OSError):
            save(snapshot, "/nonexistent-root-dir/nope/memory.json")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load(tmp_path / "never-written.json")

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


@pytest.fixture
def umask():
    """Sets the process umask for one test and restores it afterwards."""
    previous = os.umask(0o022)
    yield os.umask
    os.umask(previous)


def _mode(path):
    return os.stat(path).st_mode & 0o777


class TestFileMode:
    """A save gives its file the mode a plain ``open(path, "wb")`` would."""

    @pytest.mark.parametrize(
        "mask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
    )
    def test_a_new_file_gets_0666_minus_the_umask(self, snapshot, tmp_path, umask, mask, mode):
        umask(mask)
        path = tmp_path / "memory.json"
        save(snapshot, path)
        assert _mode(path) == mode

    @pytest.mark.parametrize("mask", [0o022, 0o077], ids=oct)
    @pytest.mark.parametrize("mode", [0o640, 0o644, 0o600], ids=oct)
    def test_an_existing_file_keeps_its_mode(self, snapshot, tmp_path, umask, mask, mode):
        umask(mask)
        path = tmp_path / "memory.json"
        path.write_bytes(b"older contents")
        path.chmod(mode)
        save(snapshot, path)
        assert _mode(path) == mode
        assert snapshot_hash(load(path)) == snapshot_hash(snapshot)

    def test_a_target_name_of_240_bytes_is_saved(self, snapshot, tmp_path):
        # The temporary file is named apart from the target, so it fits
        # whatever fits the target.
        path = tmp_path / ("m" * 235 + ".json")
        save(snapshot, path)
        assert snapshot_hash(load(path)) == snapshot_hash(snapshot)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_a_save_through_a_symbolic_link_writes_its_target(self, snapshot, tmp_path):
        # As open(path, "wb") would: the link stays, the file it names
        # gets the bytes and keeps its mode.
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "real.json"
        target.write_bytes(b"older contents")
        target.chmod(0o640)
        link = tmp_path / "memory.json"
        link.symlink_to(os.path.join("data", "real.json"))
        save(snapshot, link)
        assert link.is_symlink()
        assert os.readlink(link) == os.path.join("data", "real.json")
        assert snapshot_hash(load(target)) == snapshot_hash(snapshot)
        assert _mode(target) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "memory.json"]
        assert [p.name for p in target.parent.iterdir()] == ["real.json"]

    def test_a_save_through_a_dangling_link_creates_its_target(self, snapshot, tmp_path, umask):
        umask(0o022)
        link = tmp_path / "memory.json"
        link.symlink_to(tmp_path / "chain.json")
        (tmp_path / "chain.json").symlink_to(tmp_path / "real.json")
        save(snapshot, link)
        assert link.is_symlink() and (tmp_path / "chain.json").is_symlink()
        assert snapshot_hash(load(tmp_path / "real.json")) == snapshot_hash(snapshot)
        assert _mode(tmp_path / "real.json") == 0o644

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError, RuntimeError])
    def test_a_write_that_raises_leaves_no_temporary_file(self, snapshot, tmp_path, monkeypatch, error):
        path = tmp_path / "memory.json"
        path.write_bytes(b"older contents")

        def interrupted(*args, **kwargs):
            raise error("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(error):
            save(snapshot, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["memory.json"]
        assert path.read_bytes() == b"older contents"


class TestValidation:
    def _document(self, snapshot, tmp_path):
        path = tmp_path / "memory.json"
        save(snapshot, path)
        return json.loads(path.read_text()), path

    def test_cross_index_pointing_at_missing_archive(self, snapshot, tmp_path):
        # The cross index is each theme's source archive.
        document, path = self._document(snapshot, tmp_path)
        document["topic_nodes"][0]["source_archive_id"] = "a999999"
        write_rehashed(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "source-archive-exists"

    def test_tampered_body_fails_hash_check(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["logical_clock"] += 1
        path.write_bytes(as_saved(document))
        with pytest.raises(CorruptionError, match="content-hash"):
            load(path)

    def test_unknown_major_version_rejected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["format_version"] = "3.0"
        path.write_bytes(as_saved(document))
        with pytest.raises(CorruptionError, match="format-version"):
            load(path)

    @pytest.mark.parametrize("version", ["1.0", "1.9"])
    def test_a_version_1_file_is_refused(self, buffered_snapshot, tmp_path, version):
        # The whole 1.0 document, derived copies included, under its own hash.
        body = snapshot_to_dict(buffered_snapshot)
        content_hash = hashlib.sha256(canonical_json(body)).hexdigest()
        path = tmp_path / "memory.json"
        path.write_bytes(
            canonical_json({**body, "format_version": version, "content_hash": content_hash})
        )
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "format-version-known"
        assert str(err.value).endswith("major version 1")

    def test_minor_version_accepted(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        major = FORMAT_VERSION.split(".")[0]
        document["format_version"] = f"{major}.9"
        path.write_bytes(as_saved(document))
        assert snapshot_hash(load(path)) == snapshot_hash(snapshot)

    def test_duplicate_event_id_detected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        nodes = _first_archive(document)
        nodes[1]["id"] = nodes[0]["id"]
        write_rehashed(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "event-id-order"
        assert str(err.value).endswith(nodes[0]["id"])

    def test_edge_weight_below_tau_detected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        if not document["topic_edges"]:
            pytest.skip("sampled graph has no edges")
        document["topic_edges"][0]["weight"] = 0.1
        write_rehashed(document, path)
        with pytest.raises(CorruptionError, match="weight"):
            load(path)

    def test_non_unit_embedding_detected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["topic_nodes"][0]["embedding"][0] += 0.5
        write_rehashed(document, path)
        with pytest.raises(CorruptionError, match="unit-norm"):
            load(path)

    def test_config_the_engine_cannot_use_rejected(self, snapshot, tmp_path):
        # A fractional retrieval_k would load and then fail every query.
        document, path = self._document(snapshot, tmp_path)
        document["config"]["retrieval_k"] = 2.5
        write_rehashed(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "document-schema"

    def test_negative_pause_gap_rejected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["config"]["pause_gap_minutes"] = -5
        write_rehashed(document, path)
        with pytest.raises(CorruptionError, match="pause_gap_minutes") as err:
            load(path)
        assert err.value.invariant == "document-schema"

    def test_unknown_event_field_rejected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        _first_archive(document)[0]["mood"] = "cheerful"
        write_rehashed(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "document-schema"

    def test_boolean_logical_clock_rejected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["logical_clock"] = True
        write_rehashed(document, path)
        with pytest.raises(CorruptionError, match="logical-clock"):
            load(path)

    def test_validate_passes_on_generated_snapshots(self):
        for seed in range(5):
            validate_snapshot(random_snapshot(random.Random(seed), 8))


def _first_archive(document):
    return document["archives"][sorted(document["archives"])[0]]


def _malformed_event_id(document):
    # The buffer's last node becomes "ezz".
    document["active_buffer"][-1]["id"] = "ezz"


def _malformed_topic_id(document):
    topic = next(
        t
        for t in document["topic_nodes"]
        if not any(t["id"] in (e["from_id"], e["to_id"]) for e in document["topic_edges"])
    )
    topic["id"] = "t12"


def _malformed_archive_id(document):
    document["archives"]["a1"] = document["archives"].pop("a000001")
    document["topic_nodes"][0]["source_archive_id"] = "a1"


def _buffer_below_archives(document):
    # The single buffered node takes an id below every archived one.
    document["active_buffer"][0]["id"] = "e000000"


def _archives_swapped(document):
    # The first two archives trade episodes.
    archives = document["archives"]
    first, second = sorted(archives)[:2]
    archives[first], archives[second] = archives[second], archives[first]


def _buffered_node(document):
    return document["active_buffer"][0]


def _archived_node(document):
    return _first_archive(document)[0]


@pytest.mark.parametrize(
    "tamper, field",
    [
        (lambda d: _buffered_node(d).update(speaker=None), "speaker"),
        (lambda d: _buffered_node(d).update(speaker=7), "speaker"),
        (lambda d: _buffered_node(d).update(timestamp=5), "timestamp"),
        (lambda d: _archived_node(d).update(turn_index="3"), "turn_index"),
        (lambda d: _archived_node(d).update(turn_index=True), "turn_index"),
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
    write_rehashed(document, path)
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
    write_rehashed(document, path)
    with pytest.raises(CorruptionError) as err:
        load(path)
    assert err.value.invariant == "summary-non-empty"
    assert document["topic_nodes"][0]["id"] in str(err.value)


@pytest.mark.parametrize("where, text", [("archived", ""), ("buffered", "   ")])
def test_blank_event_text_is_rejected(buffered_snapshot, tmp_path, where, text):
    # Utterance refuses such a text, so observe never stores one.
    path = tmp_path / "memory.json"
    document = saved_document(buffered_snapshot, path)
    node = (_archived_node if where == "archived" else _buffered_node)(document)
    node["text"] = text
    write_rehashed(document, path)
    with pytest.raises(CorruptionError) as err:
        load(path)
    assert err.value.invariant == "text-non-empty"
    assert str(err.value).endswith(node["id"])


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
        write_rehashed(document, path)
        assert "NaN" in path.read_text()
        with pytest.raises(CorruptionError):
            load(path)

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"1e999"])
    @pytest.mark.parametrize("place", ["edge weight", "embedding item", "config float"])
    def test_a_number_that_is_not_finite_is_a_schema_error(
        self, buffered_snapshot, tmp_path, place, token
    ):
        path = tmp_path / "memory.json"
        document = saved_document(buffered_snapshot, path)
        marker = "number-to-spell"
        if place == "edge weight":
            document["topic_edges"][0]["weight"] = marker
        elif place == "embedding item":
            document["topic_nodes"][0]["embedding"][5] = marker
        else:
            document["config"]["heuristic_cutoff"] = marker

        def spelled(data):
            # The token in the file's bytes, under a hash over them.
            return as_saved(data).replace(f'"{marker}"'.encode(), token)

        body = {k: document[k] for k in STORED_MEMBERS}
        document["content_hash"] = hashlib.sha256(spelled(body)).hexdigest()
        path.write_bytes(spelled(document))
        assert token in path.read_bytes()
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "document-schema"

    def test_finite_numbers_whose_sum_overflows_pass_as_finite(self, buffered_snapshot, tmp_path):
        path = tmp_path / "memory.json"
        document = saved_document(buffered_snapshot, path)
        document["topic_nodes"][0]["embedding"][:2] = [1e308, 1e308]
        write_rehashed(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "embedding-unit-norm"


class TestContentHash:
    """The hash covers the bytes a load read, less the header; for a file
    ``save`` wrote, those are the canonical body."""

    @settings(max_examples=25, deadline=None)
    @given(corpus=interleaved_corpora(), limit=st.sampled_from((8, 24, 2048)))
    def test_the_digest_of_a_saved_file_is_the_canonical_body_hash(self, corpus, limit):
        config = EngineConfig(buffer_token_limit=limit)
        snapshot, _ = replay(corpus, MemoryEngine(mock_bundle(config), config), "semantic")
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "memory.json")
            save(snapshot, path)
            with open(path, "rb") as handle:
                raw = handle.read()
        recorded = json.loads(raw)["content_hash"]
        expected = hashlib.sha256(canonical_json(stored_body(snapshot))).hexdigest()
        assert _body_digest(raw, recorded, FORMAT_VERSION) == expected == recorded

    def _spaced(self, snapshot, path):
        """A file of ``snapshot`` as ``save`` writes it, then with a space
        after each key of a list and a final newline, and its recorded hash."""
        save(snapshot, path)
        spaced = path.read_bytes().replace(b'":[', b'": [') + b"\n"
        return spaced, json.loads(spaced)["content_hash"]

    def test_a_file_that_is_not_canonical_fails_the_canonical_hash(
        self, buffered_snapshot, tmp_path
    ):
        path = tmp_path / "memory.json"
        spaced, _ = self._spaced(buffered_snapshot, path)
        path.write_bytes(spaced)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "content-hash-match"

    def test_a_file_that_is_not_canonical_loads_under_a_hash_of_its_bytes(
        self, buffered_snapshot, tmp_path
    ):
        path, again = tmp_path / "memory.json", tmp_path / "again.json"
        spaced, recorded = self._spaced(buffered_snapshot, path)
        canonical = path.read_bytes()
        header = f',"content_hash":"{recorded}","format_version":"{FORMAT_VERSION}"'.encode()
        own = hashlib.sha256(spaced.replace(header, b"")).hexdigest()
        path.write_bytes(spaced.replace(recorded.encode(), own.encode()))
        loaded = load(path)
        assert snapshot_hash(loaded) == snapshot_hash(buffered_snapshot)
        # Saved again, it is the canonical file, not the file it came from.
        save(loaded, again)
        assert again.read_bytes() == canonical


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestUnparsable:
    """Input that ``json.loads`` refuses with other errors than
    ``JSONDecodeError`` is ``well-formed-json`` too."""

    @pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter parses any integer")
    def test_an_integer_past_the_digit_limit(self, snapshot, tmp_path):
        path = tmp_path / "memory.json"
        save(snapshot, path)
        clock = b'"logical_clock":%d' % snapshot.logical_clock
        huge = b'"logical_clock":' + b"7" * (_DIGIT_LIMIT + 1)
        path.write_bytes(path.read_bytes().replace(clock, huge))
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "well-formed-json"

    def test_arrays_nested_too_deep(self, tmp_path):
        path = tmp_path / "memory.json"
        path.write_bytes(b"[" * 100_000 + b"]" * 100_000)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "well-formed-json"


class TestEventIdOrder:
    """Allocation reads only the newest event, so the loader insists that
    ids rise through the archives in id order and then the buffer."""

    @pytest.mark.parametrize("tamper", [_buffer_below_archives, _archives_swapped])
    def test_out_of_order_ids_rejected(self, snapshot, tmp_path, tamper):
        snapshot = append_event(snapshot, Utterance("s99", "ana", "one buffered line"))
        path = tmp_path / "memory.json"
        document = saved_document(snapshot, path)
        tamper(document)
        write_rehashed(document, path)
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
        write_rehashed(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "id-format"


def _next_number(identifier):
    return f"{identifier[0]}{int(identifier[1:]) + 1:06d}"


def _event_gap(document):
    # The buffer's last node skips one id.
    node = document["active_buffer"][-1]
    node["id"] = _next_number(node["id"])


def _first_event_gone(document):
    del _first_archive(document)[0]


def _theme_gap(document):
    # The last theme skips one id.
    theme = document["topic_nodes"][-1]
    theme["id"] = _next_number(theme["id"])


def _archive_gap(document):
    # The last archive skips one id.
    archives = document["archives"]
    last = max(archives)
    archives[_next_number(last)] = archives.pop(last)


class TestIdSequence:
    """Each id is its creation position, so the loader refuses ids that do
    not run from the first position without a gap."""

    @pytest.mark.parametrize(
        "tamper, detail",
        [
            (_event_gap, "38 ids from e000001 to e000039"),
            (_first_event_gone, "37 ids from e000002 to e000038"),
            (_theme_gap, "12 ids from t000001 to t000013"),
            (_archive_gap, "12 ids from a000001 to a000013"),
        ],
    )
    def test_a_gap_is_refused(self, buffered_snapshot, tmp_path, tamper, detail):
        path = tmp_path / "memory.json"
        document = saved_document(buffered_snapshot, path)
        tamper(document)
        write_rehashed(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "id-sequence"
        assert str(err.value).endswith(detail)


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
        [e for entries in document["archives"].values() for e in entries],
        document["active_buffer"],
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
    snapshot's body hashes to its file's ``content_hash``."""

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
        write_rehashed(document, path)
        try:
            loaded = load(path)
        except CorruptionError:
            return
        assert body_hash(loaded) == document["content_hash"]

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
        write_rehashed(document, path)
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


class TestLoadedIndex:
    """A load checks theme norms on the vector index and leaves it on the
    loaded topic graph, so the first query does not build it again."""

    def test_the_loaded_index_is_the_rebuilt_index(self, golden_snapshot, scaling_corpus, tmp_path):
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        scaling, _ = replay(scaling_corpus, engine, "semantic")
        for snapshot in (golden_snapshot[0], scaling):
            path = tmp_path / "memory.json"
            save(snapshot, path)
            graph = load(path).topic_graph
            kept = graph.vector_index
            rebuilt = VectorIndex.from_topic_graph(graph, snapshot.config.embedding_dim)
            assert kept is not None and kept.ids == rebuilt.ids
            assert kept.matrix.dtype == rebuilt.matrix.dtype
            assert kept.matrix.tobytes() == rebuilt.matrix.tobytes()
            assert not kept.matrix.flags.writeable
            with pytest.raises(ValueError):
                kept.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("name", ["golden", "scaling"])
    def test_a_loaded_copy_ranks_with_identical_scores(
        self, name, golden_corpus, scaling_corpus, tmp_path, monkeypatch
    ):
        corpus = {"golden": golden_corpus, "scaling": scaling_corpus}[name]
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, _ = replay(corpus, engine, "semantic")
        path = tmp_path / "memory.json"
        save(snapshot, path)
        loaded = load(path)
        builds = []
        original = VectorIndex.from_topic_graph.__func__
        monkeypatch.setattr(
            VectorIndex,
            "from_topic_graph",
            classmethod(lambda cls, *args: builds.append(args) or original(cls, *args)),
        )

        def rankings(snapshot):
            bundle = mock_bundle(snapshot.config)
            return [
                [(r.event_node_id, r.score.hex()) for r in retrieve(snapshot, Query(q), bundle)]
                for q in [item.question for item in corpus.qa]
            ]

        ranked = rankings(loaded)
        # The loaded copy queried with the index its load built.
        assert builds == []
        assert ranked == rankings(snapshot)

    def test_an_in_memory_check_leaves_an_equal_index(self, snapshot):
        graph = TopicGraph(dict(snapshot.topic_graph.nodes), snapshot.topic_graph.edges)
        assert graph.vector_index is None
        validate_snapshot(dataclasses.replace(snapshot, topic_graph=graph))
        kept = graph.vector_index
        rebuilt = VectorIndex.from_topic_graph(graph, snapshot.config.embedding_dim)
        assert kept.ids == rebuilt.ids and kept.matrix.tobytes() == rebuilt.matrix.tobytes()


def _with_first_embedding(snapshot, embedding):
    nodes = dict(snapshot.topic_graph.nodes)
    first = min(nodes)
    nodes[first] = dataclasses.replace(nodes[first], embedding=tuple(embedding))
    return dataclasses.replace(snapshot, topic_graph=TopicGraph(nodes, snapshot.topic_graph.edges))


class TestNormTolerance:
    """A theme's embedding norm must lie within 1e-6 of 1; the norm comes
    from NumPy, which may differ from ``math.sqrt(sum(...))`` in the last
    bits, far inside the 1e-9 margins below."""

    @pytest.mark.parametrize(
        "norm, accepted",
        [
            (1.0 + 1e-6 - 1e-9, True),
            (1.0 - 1e-6 + 1e-9, True),
            (1.0 + 1e-6 + 1e-9, False),
            (1.0 - 1e-6 - 1e-9, False),
        ],
    )
    def test_norms_near_the_tolerance(self, snapshot, tmp_path, norm, accepted):
        first = snapshot.topic_graph.nodes[min(snapshot.topic_graph.nodes)].embedding
        unit = np.asarray(first) / np.linalg.norm(first)
        changed = _with_first_embedding(snapshot, (unit * norm).tolist())
        document = json.loads(canonical_json(stored_body(changed)))
        path = tmp_path / "memory.json"
        document["format_version"] = FORMAT_VERSION
        write_rehashed(document, path)
        for check in (lambda: validate_snapshot(changed), lambda: load(path)):
            if accepted:
                check()
            else:
                with pytest.raises(CorruptionError) as err:
                    check()
                assert err.value.invariant == "embedding-unit-norm"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e200])
    def test_a_non_finite_or_overflowing_norm_fails(self, snapshot, value):
        first = snapshot.topic_graph.nodes[min(snapshot.topic_graph.nodes)].embedding
        changed = _with_first_embedding(snapshot, (value,) + first[1:])
        with pytest.raises(CorruptionError) as err:
            validate_snapshot(changed)
        assert err.value.invariant == "embedding-unit-norm"


class TestVectorIndex:
    def test_topk_ties_by_id(self):
        shared = np.array([1.0, 0.0, 0.0, 0.0])
        index = (
            VectorIndex.empty(4)
            .with_row("t000001", shared)
            .with_row("t000002", shared)
            .with_row("t000003", np.array([0.0, 1.0, 0.0, 0.0]))
        )
        result = vector_topk(index, shared, 3)
        assert [i for i, _ in result] == ["t000001", "t000002", "t000003"]
        assert result[0][1] == pytest.approx(1.0)

    @pytest.mark.parametrize("node_id", ["t000001", "t000002", "t0000021"])
    def test_a_row_whose_id_does_not_sort_last_is_refused(self, node_id):
        index = VectorIndex.empty(4).with_row("t000001", (1.0, 0.0, 0.0, 0.0))
        index = index.with_row("t000003", (0.0, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="does not sort after t000003"):
            index.with_row(node_id, (0.0, 0.0, 1.0, 0.0))

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
        for tid in graph.nodes:
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
    # Shuffled, so a copy's id may sort before or after its original's.
    rows = draw(st.permutations(rows))
    index = VectorIndex.empty(dim)
    for number, row in enumerate(rows, 1):
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
def turn_programs(draw, others=("end_session", "check_now", "reload"), sessions=3):
    """Steps over 1 to ``sessions`` interleaved sessions ("s1", "s2", ...):
    turns with the turn index left out or given (also below the session's
    highest), and ``others``: by default explicit checks, session ends and
    save/load round trips."""
    sessions = [f"s{i}" for i in range(1, draw(st.integers(1, sessions)) + 1)]
    vocabulary = ("garden", "compost", "puppy", "leash", "interview", "offer")
    steps = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("turn", "turn", "turn", *others)))
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


def _check_derived_turns(steps, limit, sessions):
    """Runs ``steps`` on an engine; after each, every session in
    ``sessions`` must derive the index a full scan gives."""
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
            for session in sessions:
                assert _next_turn(snapshot, session) == _scan_next_turn(snapshot, session)


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
            assert snapshot.active_event_graph.token_total == sum(n.token_count for n in snapshot.buffer)
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
        _check_derived_turns(steps, limit, ("s1", "s2", "s3"))

    @settings(max_examples=25, deadline=None)
    @given(steps=turn_programs(sessions=8), limit=st.sampled_from((8, 24, 2048)))
    def test_derived_turn_index_matches_a_full_scan_over_many_sessions(self, steps, limit):
        _check_derived_turns(steps, limit, [f"s{i}" for i in range(1, 10)])

    def test_forks_derive_from_their_own_history(self):
        parent = _archived_session("s1", 12)
        assert _next_turn(parent, "s1") == 12
        built = parent.turn_max
        frozen = dict(built)

        high = append_event(parent, Utterance("s1", "ana", "a late turn", turn_index=50))
        low = append_event(parent, Utterance("s2", "riley", "another session"))
        for child, expected in ((high, 51), (low, 12)):
            assert _next_turn(child, "s1") == expected
            _, archived = archive_segment(child, len(child.buffer), [True] * len(child.buffer))
            assert not archived.buffer
            assert archived.turn_max is child.turn_max
            assert _next_turn(archived, "s1") == expected
        assert parent.turn_max is built
        assert built == frozen
        assert _next_turn(parent, "s1") == 12

    def test_replaced_archives_derive_from_the_new_ones(self):
        long, short = _archived_session("s1", 12), _archived_session("s1", 4)
        assert _next_turn(long, "s1") == 12
        swapped = dataclasses.replace(long, archive=short.archive)
        assert _next_turn(swapped, "s1") == 4

    def test_the_derived_map_is_never_saved_compared_or_shown(self):
        # The map is built over the archive and carried past the buffered turn.
        snapshot = _archived_session("s1", 6)
        snapshot = append_event(snapshot, Utterance("s1", "ana", "a buffered turn"))
        fresh = dataclasses.replace(snapshot)
        assert snapshot.turn_max == {"s1": 6}
        assert fresh.turn_max is None
        assert snapshot == fresh
        assert repr(snapshot) == repr(fresh)
        assert snapshot_to_dict(snapshot) == snapshot_to_dict(fresh)
        assert snapshot_bytes(snapshot) == snapshot_bytes(fresh)
        with pytest.raises(TypeError):
            MemorySnapshot(snapshot.config, turn_max={})

    def test_turns_after_the_first_never_iterate_an_archive(self):
        # The per-turn cost stays flat: once derived, the turn maxima are
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


def _theme_over(snapshot, archive_id, first):
    """A theme on ``archive_id`` whose embedding starts with ``first``."""
    embedding = (first,) + (0.0,) * (snapshot.config.embedding_dim - 2) + (1.0,)
    return TopicNode(next_topic_id(snapshot), "a fork's theme", ("fork",), embedding, 1, archive_id)


def _count_member_writes(monkeypatch):
    """Counts the calls of every stored member's writer from here on, by
    name."""
    calls = []
    for name, write in STORED_MEMBERS.items():

        def counted(snapshot, name=name, write=write):
            calls.append(name)
            return write(snapshot)

        monkeypatch.setitem(STORED_MEMBERS, name, counted)
    return calls


class TestCachedBytes:
    """A save keeps the file it wrote on the snapshot, and a re-save of that
    very object writes it again without encoding; every file must equal the
    whole document encoded from scratch."""

    @pytest.mark.parametrize("strategy", STRATEGY_MATRIX)
    @pytest.mark.parametrize("corpus", ["golden", "scaling"])
    def test_warm_bytes_are_the_cold_bytes(self, corpus, strategy, tmp_path, request, monkeypatch):
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, _ = replay(request.getfixturevalue(f"{corpus}_corpus"), engine, strategy)
        cold = cold_file(snapshot)
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        save(snapshot, first)
        assert first.read_bytes() == cold
        assert snapshot.saved_bytes == cold
        calls = _count_member_writes(monkeypatch)
        save(snapshot, again)
        assert calls == []
        assert again.read_bytes() == cold
        loaded = load(again)
        assert loaded.saved_bytes is None
        assert snapshot_hash(loaded) == snapshot_hash(snapshot)
        assert body_hash(loaded) == body_hash(snapshot) == json.loads(cold)["content_hash"]

    def test_a_hash_keeps_nothing(self, snapshot):
        snapshot_hash(snapshot)
        stable_layer_hash(snapshot)
        assert snapshot.saved_bytes is None

    def test_forks_adding_themes_to_one_parent(self, tmp_path):
        # Two forks put a theme on the parent's one unthemed archive.  The
        # forks compare equal (0.0 == -0.0) yet are written apart, so each
        # fork's file must be its own.
        parent = append_event(random_snapshot(random.Random(5), 6), Utterance("s9", "ana", "x"))
        archive_id, parent = archive_segment(parent, 1, [True])
        path = tmp_path / "memory.json"
        save(parent, path)
        plus, minus = (_theme_over(parent, archive_id, z) for z in (0.0, -0.0))
        forks = [insert_topic_node(parent, node, []) for node in (plus, minus)]
        assert forks[0] == forks[1]
        files = {}
        for fork in forks + forks[::-1] + [parent]:
            save(fork, path)
            assert path.read_bytes() == cold_file(fork)
            files.setdefault(id(fork), path.read_bytes())
        assert len(set(files.values())) == 3

    def test_replaced_archives_start_cold(self, snapshot, tmp_path):
        path = tmp_path / "memory.json"
        save(snapshot, path)
        warm = path.read_bytes()
        first, second = sorted(snapshot.archive)[:2]
        graph = snapshot.archive[first]
        renamed = tuple(dataclasses.replace(n, session_id="renamed") for n in graph.nodes)
        replaced = dataclasses.replace(
            snapshot, archive={**snapshot.archive, first: dataclasses.replace(graph, nodes=renamed)}
        )
        swapped = dataclasses.replace(
            snapshot,
            archive={
                **snapshot.archive,
                first: snapshot.archive[second],
                second: snapshot.archive[first],
            },
        )
        assert replaced.saved_bytes is None and swapped.saved_bytes is None
        for variant in (replaced, swapped, snapshot, swapped, replaced):
            save(variant, path)
            assert path.read_bytes() == cold_file(variant)
        assert len({replaced.saved_bytes, swapped.saved_bytes, warm}) == 3
        assert snapshot.saved_bytes == warm

    def test_no_mutation_carries_the_saved_document(self, snapshot, tmp_path, monkeypatch):
        # Each mutation builds a new snapshot, whose first save encodes
        # every member once, whatever its parent saved.
        path = tmp_path / "memory.json"
        save(snapshot, path)
        appended = append_event(snapshot, Utterance("s9", "ana", "a new episode"))
        archive_id, archived = archive_segment(appended, 1, [True])
        older = min(archived.topic_graph.nodes)
        new = _theme_over(archived, archive_id, 0.0)
        themed = insert_topic_node(archived, new, [TopicEdge(new.id, older, Relation.CAUSAL, 0.9)])
        calls = _count_member_writes(monkeypatch)
        for child in (appended, archived, themed):
            assert child.saved_bytes is None
            calls.clear()
            save(child, path)
            assert sorted(calls) == sorted(STORED_MEMBERS)
            assert path.read_bytes() == cold_file(child)

    def test_forks_linking_new_themes_to_one_older_theme(self, snapshot, tmp_path):
        # Each fork adds a theme on the parent's one unthemed archive with an
        # edge to the same older theme; each save writes that fork's file.
        parent = append_event(snapshot, Utterance("s9", "ana", "a new episode"))
        archive_id, parent = archive_segment(parent, 1, [True])
        older = min(parent.topic_graph.nodes)
        forks = [
            insert_topic_node(parent, new, [TopicEdge(new.id, older, relation, weight)])
            for new, relation, weight in (
                (_theme_over(parent, archive_id, 0.0), Relation.SEMANTIC, 0.9),
                (_theme_over(parent, archive_id, -0.0), Relation.CAUSAL, 0.8),
            )
        ]
        assert forks[0].topic_graph.edges != forks[1].topic_graph.edges
        save(parent, tmp_path / "parent.json")
        files = {}
        for number, fork in enumerate(forks * 3 + [parent]):
            path = tmp_path / f"{number}.json"
            save(fork, path)
            files.setdefault(id(fork), path.read_bytes())
            assert path.read_bytes() == files[id(fork)] == cold_file(fork)
            assert snapshot_hash(load(path)) == snapshot_hash(fork)
        assert len(set(files.values())) == 3

    def test_threads_saving_forks_of_one_parent(self, scaling_corpus, tmp_path):
        # Eight threads save forks of one saved parent.  Each fork puts a
        # theme of its own on the same archive and links it to the same
        # older themes.
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        parent, _ = replay(scaling_corpus, engine, "semantic")
        parent = append_event(parent, Utterance("s9", "ana", "a new episode"))
        archive_id, parent = archive_segment(parent, len(parent.buffer), [True] * len(parent.buffer))
        save(parent, tmp_path / "parent.json")
        older = sorted(parent.topic_graph.nodes)[:6]
        forks = []
        for worker in range(8):
            new = dataclasses.replace(_theme_over(parent, archive_id, 0.0), summary=f"fork {worker}")
            weight = 0.55 + worker / 20
            links = [TopicEdge(new.id, t, Relation.SEMANTIC, weight) for t in older]
            forks.append(insert_topic_node(parent, new, links))
        expected = [cold_file(fork) for fork in forks]
        failures = []

        def work(worker):
            path = tmp_path / f"fork-{worker}.json"
            for _ in range(15):
                save(forks[worker], path)
                if path.read_bytes() != expected[worker]:
                    failures.append(worker)

        _run_threads([(work, worker) for worker in range(8)])
        assert failures == []
        assert len(set(expected)) == 8

    def test_threads_saving_shared_archives(self, scaling_corpus, tmp_path):
        # Eight threads save two snapshots, each not saved before, that hold
        # the same graphs under rotated archive ids, so the first saves of
        # one object race.
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, _ = replay(scaling_corpus, engine, "semantic")
        path = tmp_path / "memory.json"
        save(snapshot, path)
        cold = load(path)
        ids = sorted(cold.archive)
        rotated = {a: cold.archive[b] for a, b in zip(ids, ids[1:] + ids[:1])}
        swapped = dataclasses.replace(cold, archive=rotated)
        expected = {id(s): cold_file(s) for s in (cold, swapped)}
        failures = []

        def work(worker, target):
            path = tmp_path / f"thread-{worker}.json"
            for _ in range(10):
                save(target, path)
                if path.read_bytes() != expected[id(target)]:
                    failures.append(worker)

        _run_threads([(work, worker, (cold, swapped)[worker % 2]) for worker in range(8)])
        assert failures == []
        assert cold.saved_bytes == path.read_bytes()

    def test_the_kept_bytes_are_never_saved_compared_or_shown(self, snapshot, tmp_path):
        warm = tmp_path / "warm.json"
        save(snapshot, warm)
        fresh = dataclasses.replace(snapshot)
        assert snapshot.saved_bytes is not None and fresh.saved_bytes is None
        assert snapshot == fresh
        assert repr(snapshot) == repr(fresh)
        assert snapshot_to_dict(snapshot) == snapshot_to_dict(fresh)
        assert "saved_bytes" not in json.loads(warm.read_bytes())
        save(fresh, tmp_path / "cold.json")
        assert (tmp_path / "cold.json").read_bytes() == warm.read_bytes()
        with pytest.raises(TypeError):
            MemorySnapshot(snapshot.config, saved_bytes=None)

    def test_a_nan_entry_is_refused_and_keeps_nothing(self, snapshot, tmp_path):
        topic_id = max(snapshot.topic_graph.nodes)
        node = snapshot.topic_graph.nodes[topic_id]
        nan_node = dataclasses.replace(node, embedding=(float("nan"),) + node.embedding[1:])
        key, edge = next(iter(snapshot.topic_graph.edges.items()))
        nan_edge = dataclasses.replace(edge, weight=float("nan"))
        graph = snapshot.topic_graph
        path = tmp_path / "memory.json"
        for variant in (
            dataclasses.replace(snapshot, topic_graph=TopicGraph({**graph.nodes, topic_id: nan_node}, graph.edges)),
            dataclasses.replace(snapshot, topic_graph=TopicGraph(graph.nodes, {**graph.edges, key: nan_edge})),
        ):
            with pytest.raises(ValueError):
                save(variant, path)
            assert not path.exists()
            assert variant.saved_bytes is None

    @settings(max_examples=40, deadline=None)
    @given(
        steps=turn_programs(others=("end_session", "save")),
        limit=st.sampled_from((8, 24, 2048)),
    )
    def test_every_save_writes_the_cold_bytes(self, steps, limit):
        engine = _engine(limit)
        saved = []
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "snapshot.json")
            for step in steps + [("save",)]:
                if step[0] == "turn":
                    _, session, turn_index, text = step
                    engine.observe(session, "ana", text, None, turn_index)
                elif step[0] == "save":
                    save(engine.snapshot, path)
                    saved.append(engine.snapshot)
                    with open(path, "rb") as handle:
                        assert handle.read() == cold_file(engine.snapshot)
                else:
                    engine.end_session()
        # A later snapshot's save leaves every earlier one's file intact.
        for snapshot in saved:
            assert snapshot.saved_bytes == cold_file(snapshot)


def _run_threads(jobs):
    """Runs each ``(target, *args)`` in a thread of its own, switching
    between threads as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=args) for target, *args in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
