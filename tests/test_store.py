import dataclasses
import hashlib
import json
import os
import pathlib
import random
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphmem import core
from graphmem.config import EngineConfig
from graphmem.core import (
    DICTIONARY_FIELDS,
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
    new_snapshot,
    next_topic_id,
    snapshot_hash,
    snapshot_to_dict,
)
from graphmem.engine import MemoryEngine
from graphmem.errors import CorruptionError, GraphMemError, StateError
from graphmem.harness import replay
from graphmem.providers import mock_bundle
from graphmem.retrieval import Query, retrieve
from graphmem.store import (
    FORMAT_VERSION,
    VectorIndex,
    _body_digest,
    load,
    save,
    validate_snapshot,
    vector_topk,
)

from conftest import (
    as_saved,
    body_hash,
    interleaved_corpora,
    random_snapshot,
    set_table_rows,
    stored_body,
    table_rows,
    unit_vector,
    write_rehashed,
)
from reference import reference_file, reference_topk, stored_nodes
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


def _all_keys(document):
    """Every object key anywhere in a parsed document."""
    keys, values = set(), [document]
    while values:
        value = values.pop()
        if isinstance(value, dict):
            keys |= value.keys()
            values += value.values()
        elif isinstance(value, list):
            values += value
    return keys


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
        assert document["topic_edges"]["weight"] and document["active_buffer"]["text"]
        copies = {"graph_id", "edges", "token_count", "cross_index", "raw", "directed"}
        assert _all_keys(document) & copies == set()

    def test_unwritable_path_raises_oserror(self, snapshot):
        with pytest.raises(OSError):
            save(snapshot, "/nonexistent-root-dir/nope/memory.json")

    def test_a_missing_directory_is_named_by_the_path_given(self, snapshot, tmp_path):
        # Not by the temporary file the save would have written first.
        path = tmp_path / "nowhere" / "memory.json"
        with pytest.raises(FileNotFoundError) as err:
            save(snapshot, path)
        assert err.value.filename == str(path)
        assert str(err.value).endswith(f"'{path}'")
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_as_the_target_is_named_and_leaves_no_temporary_file(
        self, snapshot, tmp_path
    ):
        path = tmp_path / "memory.json"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as err:
            save(snapshot, path)
        assert err.value.filename == str(path) and err.value.filename2 is None
        assert [p.name for p in tmp_path.iterdir()] == ["memory.json"]

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

    @pytest.mark.parametrize(
        "tamper, detail",
        [
            (lambda archives: archives.pop(), "11 archives for 12 themes"),
            (lambda archives: archives.append(archives[0]), "13 archives for 12 themes"),
        ],
    )
    def test_an_archive_count_other_than_the_theme_count(
        self, snapshot, tmp_path, tamper, detail
    ):
        # Theme t{k} consolidates archive a{k}, and the engine makes no
        # archive without its theme: one that waited for it would fail the
        # next consolidation.
        document, path = self._document(snapshot, tmp_path)
        archives = _archives(document)
        tamper(archives)
        _set_archives(document, archives)
        write_rehashed(document, path)
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "archive-count"
        assert str(err.value).endswith(detail)


    def test_tampered_body_fails_hash_check(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["logical_clock"] += 1
        path.write_bytes(as_saved(document))
        with pytest.raises(CorruptionError, match="content-hash"):
            load(path)

    def test_unknown_major_version_rejected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["format_version"] = "6.0"
        path.write_bytes(as_saved(document))
        with pytest.raises(CorruptionError, match="format-version"):
            load(path)

    def test_a_version_2_file_is_refused(self, buffered_snapshot, tmp_path):
        # The header names the version, and no 2.x file loads.
        path = tmp_path / "memory.json"
        save(buffered_snapshot, path)
        current = f'"format_version":"{FORMAT_VERSION}"'.encode()
        path.write_bytes(path.read_bytes().replace(current, b'"format_version":"2.0"'))
        with pytest.raises(CorruptionError) as err:
            load(path)
        assert err.value.invariant == "format-version-known"
        assert str(err.value).endswith("major version 2")

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

    def test_edge_weight_below_tau_detected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        if not document["topic_edges"]["weight"]:
            pytest.skip("sampled graph has no edges")
        document["topic_edges"]["weight"][0] = 0.1
        write_rehashed(document, path)
        with pytest.raises(CorruptionError, match="weight"):
            load(path)

    def test_non_unit_embedding_detected(self, snapshot, tmp_path):
        document, path = self._document(snapshot, tmp_path)
        document["topic_nodes"]["embedding"][0][0] += 0.5
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
        events = _tables(document)["archived"]
        events["mood"] = ["cheerful"] * len(events["text"])
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


def _tables(document):
    """The four tables of a parsed file, by the records they hold."""
    return {
        "archived": document["archives"]["events"],
        "buffered": document["active_buffer"],
        "theme": document["topic_nodes"],
        "edge": document["topic_edges"],
    }


def _archives(document):
    """Each archive's event records, in order."""
    rows, archives = table_rows(document["archives"]["events"]), []
    for length in document["archives"]["lengths"]:
        archives.append(rows[:length])
        rows = rows[length:]
    return archives


def _set_archives(document, archives):
    document["archives"]["lengths"] = [len(rows) for rows in archives]
    set_table_rows(document["archives"]["events"], [row for rows in archives for row in rows])


@pytest.mark.parametrize(
    "table, field, value",
    [
        ("buffered", "speaker", None),
        ("buffered", "speaker", 7),
        ("buffered", "timestamp", 5),
        ("archived", "turn_index", "3"),
        ("archived", "turn_index", True),
        ("archived", "confidence_flag", "false"),
        ("archived", "confidence_flag", 1),
        ("archived", "session_id", 1),
        ("theme", "created_at", "3"),
        ("theme", "created_at", False),
        ("theme", "summary", None),
        ("theme", "keywords", [1]),
        ("theme", "keywords", "word"),
        ("theme", "embedding", ["0.5"]),
        ("edge", "weight", True),
        ("edge", "weight", "0.9"),
    ],
)
def test_field_of_the_wrong_type_is_rejected(buffered_snapshot, tmp_path, table, field, value):
    path = tmp_path / "memory.json"
    document = saved_document(buffered_snapshot, path)
    edges = document["topic_edges"]
    # The first record of each table, named by the id its position gives it
    # (an edge, by the ids of its ends).
    named = {
        "archived": "e000001",
        "buffered": "e000037",
        "theme": "t000001",
        "edge": f"t{edges['from_id'][0]:06d}-t{edges['to_id'][0]:06d}",
    }[table]
    column = _tables(document)[table][field]
    if field in DICTIONARY_FIELDS:
        # The value of the first entry, which is the first to use it.
        column["values"][column["codes"][0]] = value
    else:
        column[0] = value
    write_rehashed(document, path)
    with pytest.raises(CorruptionError) as err:
        load(path)
    assert err.value.invariant == "field-type"
    assert str(err.value).endswith(f"{named} {field}")


@pytest.mark.parametrize("summary", ["", "   "])
def test_blank_theme_summary_is_rejected(golden_snapshot, tmp_path, summary):
    # Loaded, such a theme would make the next consolidation's relation
    # scoring raise ValueError.
    path = tmp_path / "memory.json"
    document = saved_document(golden_snapshot[0], path)
    document["topic_nodes"]["summary"][0] = summary
    write_rehashed(document, path)
    with pytest.raises(CorruptionError) as err:
        load(path)
    assert err.value.invariant == "summary-non-empty"
    assert str(err.value).endswith("t000001")


@pytest.mark.parametrize(
    "where, text, named", [("archived", "", "e000001"), ("buffered", "   ", "e000037")]
)
def test_blank_event_text_is_rejected(buffered_snapshot, tmp_path, where, text, named):
    # Utterance refuses such a text, so observe never stores one.  The node
    # is named by the id its position gives it.
    path = tmp_path / "memory.json"
    document = saved_document(buffered_snapshot, path)
    _tables(document)[where]["text"][0] = text
    write_rehashed(document, path)
    with pytest.raises(CorruptionError) as err:
        load(path)
    assert err.value.invariant == "text-non-empty"
    assert str(err.value).endswith(named)


@pytest.mark.parametrize(
    "where, key",
    [("buffered", "id"), ("archived", "id"), ("theme", "id"), ("theme", "source_archive_id")],
)
def test_a_stored_id_is_refused(buffered_snapshot, tmp_path, where, key):
    # Every id follows from a position, so the file holds none.
    path = tmp_path / "memory.json"
    document = saved_document(buffered_snapshot, path)
    table = _tables(document)[where]
    table[key] = ["e000001" if where != "theme" else "t000001"] * len(table_rows(table))
    write_rehashed(document, path)
    with pytest.raises(CorruptionError) as err:
        load(path)
    assert err.value.invariant == "document-schema"


#: The loader's refusals of a dictionary that is not the one save writes.
_DICTIONARY_REFUSALS = {"dictionary-order", "dictionary-unused", "dictionary-distinct"}


@st.composite
def speaker_columns(draw):
    """A buffer's speakers, from few or many distinct strings, non-ASCII
    included, and another encoding of them: the distinct speakers in any
    order, perhaps with values no entry needs, one repeating a speaker,
    and per entry any index holding its speaker."""
    pool = draw(st.lists(st.text(max_size=3), min_size=1, max_size=6, unique=True))
    speakers = draw(st.lists(st.sampled_from(pool), max_size=10))
    distinct = list(dict.fromkeys(speakers))
    extras = draw(st.lists(st.sampled_from(pool) | st.text(max_size=2), max_size=2))
    values = draw(st.permutations(distinct + extras))
    codes = [
        draw(st.sampled_from([k for k, value in enumerate(values) if value == speaker]))
        for speaker in speakers
    ]
    return speakers, {"codes": codes, "values": values}


class TestDictionaryColumn:
    @settings(max_examples=150, deadline=None)
    @given(columns=speaker_columns())
    @example(columns=([], {"codes": [], "values": []}))
    @example(columns=(["ana"], {"codes": [0], "values": ["ana"]}))
    @example(columns=(["ana"] * 3, {"codes": [0, 0, 0], "values": ["ana"]}))
    @example(columns=(["ana", "riley", "jo"], {"codes": [0, 1, 2], "values": ["ana", "riley", "jo"]}))
    @example(columns=(["ána", "🌱", "ána"], {"codes": [1, 0, 1], "values": ["🌱", "ána"]}))
    def test_the_written_column_is_the_one_encoding_a_load_accepts(self, columns):
        speakers, other = columns
        snapshot = new_snapshot()
        for number, speaker in enumerate(speakers):
            snapshot = append_event(snapshot, Utterance("s1", speaker, f"line {number}"))
        with tempfile.TemporaryDirectory() as directory:
            path = pathlib.Path(directory) / "memory.json"
            save(snapshot, path)
            document = json.loads(path.read_bytes())
            written = document["active_buffer"]["speaker"]
            assert [written["values"][code] for code in written["codes"]] == speakers
            assert [node.speaker for node in load(path).buffer] == speakers
            document["active_buffer"]["speaker"] = other
            write_rehashed(document, path)
            try:
                loaded = load(path)
            except CorruptionError as err:
                assert other != written and err.invariant in _DICTIONARY_REFUSALS
            else:
                assert other == written
                assert [node.speaker for node in loaded.buffer] == speakers


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
        document["topic_nodes"]["embedding"][0][0] = float("nan")
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
            document["topic_edges"]["weight"][0] = marker
        elif place == "embedding item":
            document["topic_nodes"]["embedding"][0][5] = marker
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
        document["topic_nodes"]["embedding"][0][:2] = [1e308, 1e308]
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


def _event_gap(snapshot):
    # The buffer's last node skips one id.
    last = snapshot.buffer[-1]
    skipped = dataclasses.replace(last, id=f"e{int(last.id[1:]) + 1:06d}")
    return dataclasses.replace(
        snapshot, active_event_graph=EventGraph(snapshot.buffer[:-1] + (skipped,))
    )


def _theme_gap(snapshot):
    # The last theme skips one id.
    nodes = dict(snapshot.topic_graph.nodes)
    last = nodes.pop(max(nodes))
    nodes["t000013"] = dataclasses.replace(last, id="t000013")
    return dataclasses.replace(snapshot, topic_graph=TopicGraph(nodes, {}))


def _archive_gap(snapshot):
    # The last archive skips one id.
    archives = dict(snapshot.archive)
    archives["a000013"] = archives.pop("a000012")
    return dataclasses.replace(snapshot, archive=archives)


def _archives_out_of_order(snapshot):
    # The same archives, listed last first: read back, they would trade ids.
    archives = dict(reversed(snapshot.archive.items()))
    return dataclasses.replace(snapshot, archive=archives)


def _archives_swapped(snapshot):
    # The first two archives trade episodes, so event ids no longer rise.
    archives = dict(snapshot.archive)
    archives["a000001"], archives["a000002"] = archives["a000002"], archives["a000001"]
    return dataclasses.replace(snapshot, archive=archives)


def _archive_missing(snapshot):
    archives = dict(snapshot.archive)
    del archives["a000012"]
    return dataclasses.replace(snapshot, archive=archives)


class TestSaveGuard:
    """A file stores no id: a load numbers each kind by position.  So a
    save refuses a snapshot, built by hand, whose ids are not their
    positions or whose archive count breaks the archive rule, and writes
    nothing, rather than write a file that loads as another snapshot."""

    @pytest.mark.parametrize(
        "tamper, detail",
        [
            (_event_gap, "id e000039 is not its creation position, e000038"),
            (_theme_gap, "id t000013 is not its creation position, t000012"),
            (_archive_gap, "id a000013 is not its creation position, a000012"),
            (_archives_out_of_order, "id a000012 is not its creation position, a000001"),
            (_archives_swapped, "id e000004 is not its creation position, e000001"),
            (_archive_missing, "11 archives for 12 themes"),
        ],
    )
    def test_ids_that_are_not_positions_are_refused(
        self, buffered_snapshot, tmp_path, tamper, detail
    ):
        path = tmp_path / "memory.json"
        tampered = tamper(buffered_snapshot)
        with pytest.raises(StateError) as err:
            save(tampered, path)
        assert str(err.value) == detail
        assert list(tmp_path.iterdir()) == []
        assert tampered.saved_bytes is None
        path.write_bytes(b"older contents")
        with pytest.raises(StateError):
            save(tampered, path)
        assert path.read_bytes() == b"older contents"


class TestIdWidth:
    """Each id has six digits, so a file with more entries of one kind than
    they number is refused; shown with the width cut to one digit, over
    files saved under six."""

    @pytest.mark.parametrize("buffered, accepted", [(0, True), (1, False)])
    def test_nine_events_fit_in_one_digit_and_ten_do_not(
        self, tmp_path, monkeypatch, buffered, accepted
    ):
        # Edges store their ends as positions, so they load under one digit too.
        snapshot = random_snapshot(random.Random(3), 3, edge_probability=1.0)
        for turn in range(buffered):
            snapshot = append_event(snapshot, Utterance("s9", "ana", f"buffered turn {turn}"))
        path = tmp_path / "memory.json"
        save(snapshot, path)
        monkeypatch.setattr(core, "ID_WIDTH", 1)
        monkeypatch.setattr(core, "_ID_FORMATS", {prefix: f"{prefix}%01d" for prefix in "eta"})
        if not accepted:
            with pytest.raises(CorruptionError) as err:
                load(path)
            assert err.value.invariant == "id-width"
            assert str(err.value).endswith("10 e ids do not fit in 1 digits")
            return
        loaded = load(path)
        assert [n.id for n in stored_nodes(loaded)] == [f"e{i}" for i in range(1, 10)]
        assert list(loaded.topic_graph.nodes) == ["t1", "t2", "t3"]
        assert list(loaded.topic_graph.edges) == [("t1", "t2"), ("t1", "t3"), ("t2", "t3")]
        assert list(loaded.archive) == ["a1", "a2", "a3"]


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

        expected = reference_topk(zip(index.ids, index.matrix), query, k)
        assert exact(vector_topk(index, query, k)) == exact(expected)

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


class TestDerivedTurnIndexCost:
    """The state machine checks every derived turn index against a scan;
    this checks what the carried maxima save."""

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


def _theme_over(snapshot, first):
    """The next theme, whose embedding starts with ``first``."""
    embedding = (first,) + (0.0,) * (snapshot.config.embedding_dim - 2) + (1.0,)
    return TopicNode(next_topic_id(snapshot), "a fork's theme", ("fork",), embedding, 1)


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
    reference writer's file, built from scratch."""

    @pytest.mark.parametrize("strategy", STRATEGY_MATRIX)
    @pytest.mark.parametrize("corpus", ["golden", "scaling"])
    def test_warm_bytes_are_the_cold_bytes(self, corpus, strategy, tmp_path, request, monkeypatch):
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, _ = replay(request.getfixturevalue(f"{corpus}_corpus"), engine, strategy)
        cold = reference_file(snapshot)
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

    def test_forks_adding_themes_to_one_parent(self, tmp_path):
        # Two forks put a theme on the parent's buffered episode, archived
        # once.  The forks compare equal (0.0 == -0.0) yet are written
        # apart, so each fork's file must be its own.
        parent = append_event(random_snapshot(random.Random(5), 6), Utterance("s9", "ana", "x"))
        _, archived = archive_segment(parent, 1, [True])
        path = tmp_path / "memory.json"
        save(parent, path)
        plus, minus = (_theme_over(archived, z) for z in (0.0, -0.0))
        forks = [insert_topic_node(archived, node, []) for node in (plus, minus)]
        assert forks[0] == forks[1]
        files = {}
        for fork in forks + forks[::-1] + [parent]:
            save(fork, path)
            assert path.read_bytes() == reference_file(fork)
            files.setdefault(id(fork), path.read_bytes())
        assert len(set(files.values())) == 3

    def test_threads_saving_forks_of_one_parent(self, scaling_corpus, tmp_path):
        # Eight threads save forks of one saved parent.  Each fork puts a
        # theme of its own on the same archive, the parent's buffer, and
        # links it to the same older themes.
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        parent, _ = replay(scaling_corpus, engine, "semantic")
        parent = append_event(parent, Utterance("s9", "ana", "a new episode"))
        save(parent, tmp_path / "parent.json")
        _, archived = archive_segment(parent, len(parent.buffer), [True] * len(parent.buffer))
        older = sorted(parent.topic_graph.nodes)[:6]
        forks = []
        for worker in range(8):
            new = dataclasses.replace(_theme_over(archived, 0.0), summary=f"fork {worker}")
            weight = 0.55 + worker / 20
            links = [TopicEdge(new.id, t, Relation.SEMANTIC, weight) for t in older]
            forks.append(insert_topic_node(archived, new, links))
        expected = [reference_file(fork) for fork in forks]
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
        # the same archive graphs, one a tick later than the other, so the
        # first saves of one object race.
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, _ = replay(scaling_corpus, engine, "semantic")
        path = tmp_path / "memory.json"
        save(snapshot, path)
        cold = load(path)
        later = dataclasses.replace(cold, logical_clock=cold.logical_clock + 1)
        expected = {id(s): reference_file(s) for s in (cold, later)}
        failures = []

        def work(worker, target):
            path = tmp_path / f"thread-{worker}.json"
            for _ in range(10):
                save(target, path)
                if path.read_bytes() != expected[id(target)]:
                    failures.append(worker)

        _run_threads([(work, worker, (cold, later)[worker % 2]) for worker in range(8)])
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


def _run_threads(jobs):
    """Runs each ``(target, *args)`` in a thread of its own, switching
    between threads as often as the interpreter allows; an exception in any
    thread fails the test."""
    errors = []

    def guarded(target, *args):
        try:
            target(*args)
        except BaseException as exc:  # reported below, on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=job) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
