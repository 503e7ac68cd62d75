"""Whole-document mutations, checked against the reference loaders.

``reference.reference_load`` reads a format 5.0 file a record at a time,
walking each table's columns position by position; it is the oracle of
the column passes of ``graphmem.store``.  ``reference.reference_load_v1``
reads the 1.0 document, which spells out every derived copy, record by
record and checks each copy; it is the oracle for what a 5.0 file leaves
out.

Every mutant edits one place in a saved document (a type swap, a deleted
key, column or entry, a huge or negative int, an empty string, a bare
``NaN``) and is written as ``save`` writes a file, with a content hash
over its edited body as written, so the load reaches the checks behind
the hash.  Each mutant must be refused with :class:`CorruptionError` by
both loaders, under the same invariant, or be accepted by both as the
same snapshot, whose body hashes to the file's ``content_hash`` and which
then survives a short run: observe, end the session, query, save, load.

No difference is meant.  Each loader takes a table only as an object of
exactly its columns, each a list, so an empty table or column written as
another empty value (``{}``, ``""``) is ``document-schema`` in both.
"""

import copy
import json
import random

import pytest

from graphmem.config import EngineConfig
from graphmem.core import (
    Utterance,
    append_event,
    canonical_json,
    new_snapshot,
    snapshot_hash,
    snapshot_to_dict,
)
from graphmem.engine import MemoryEngine
from graphmem.errors import CorruptionError
from graphmem.fixtures import make_golden_corpus
from graphmem.harness import replay
from graphmem.providers import mock_bundle
from graphmem.store import FORMAT_VERSION, load, save

from conftest import (
    as_saved,
    body_hash,
    random_snapshot,
    set_table_rows,
    table_rows,
    write_rehashed,
)
from reference import reference_load, reference_load_v1
from test_acceptance import STRATEGY_MATRIX

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
        if p and p[0] != "content_hash" and not (len(p) > 3 and p[-3] == "embedding" and p[-1] > 1)
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
            assert not isinstance(actual, str), (edit, actual)
            assert actual == expected, edit
            assert snapshot_hash(actual) == snapshot_hash(expected)
            assert body_hash(actual) == mutant["content_hash"]
            short_run(actual, run_path)
            accepted += 1
        # Some edits keep the document valid (a speaker, a summary, a seed).
        assert accepted > 0


@pytest.mark.parametrize("value", [{}, ""])
@pytest.mark.parametrize("member", ["topic_nodes", "topic_edges", "active_buffer", "lengths"])
def test_an_empty_table_or_column_written_as_another_value_is_refused(tmp_path, member, value):
    # A new snapshot writes every table with empty columns, and no lengths.
    path = tmp_path / "memory.json"
    save(new_snapshot(), path)
    document = json.loads(path.read_text())
    if member == "lengths":
        document["archives"]["lengths"] = value
    else:
        document[member] = value
    write_rehashed(document, path)
    assert outcome(reference_load, path) == outcome(load, path) == "document-schema"


def _extra_column(document):
    buffered = document["active_buffer"]
    buffered["id"] = ["e000001"] * len(buffered["text"])


def _empty_archive(document):
    # The lengths still sum to the archived events.
    lengths = document["archives"]["lengths"]
    lengths[1] += lengths[0]
    lengths[0] = 0


def _lengths_off_by_one(document):
    document["archives"]["lengths"][-1] += 1


def _first_record_twice(table):
    """The edit that writes the first record of ``table`` twice."""

    def edit(document):
        rows = table_rows(document[table])
        set_table_rows(document[table], rows[:1] + rows)

    return edit


def _first_two_records_swapped(table):
    """The edit that swaps the first two records of ``table``."""

    def edit(document):
        rows = table_rows(document[table])
        set_table_rows(document[table], [rows[1], rows[0], *rows[2:]])

    return edit


def _first_two_archives_swapped(document):
    archives = document["archives"]
    first, second = archives["lengths"][:2]
    rows = table_rows(archives["events"])
    rows[: first + second] = rows[first : first + second] + rows[:first]
    set_table_rows(archives["events"], rows)
    archives["lengths"][:2] = [second, first]


def _first_archive_twice(document):
    archives = document["archives"]
    first = archives["lengths"][0]
    rows = table_rows(archives["events"])
    set_table_rows(archives["events"], rows[:first] + rows)
    archives["lengths"].insert(0, first)


def _theme_extra_column(document):
    themes = document["topic_nodes"]
    themes["extra"] = [None] * len(themes["summary"])


def _config_float_as_int(document):
    config = document["config"]
    name = min(k for k, v in config.items() if type(v) is float)
    config[name] = int(config[name])


def _set(*keys_and_value):
    """The edit that puts the last argument at the place the others name."""
    *keys, last, value = keys_and_value

    def put(document):
        for key in keys:
            document = document[key]
        document[last] = value

    return put


#: Edits of a saved file that each loader must refuse, with the invariant
#: each must name.
MALFORMED = {
    "version-3": (_set("format_version", "3.0"), "format-version-known"),
    "version-3-minor": (_set("format_version", "3.7"), "format-version-known"),
    "missing-column": (lambda d: d["topic_nodes"].pop("keywords"), "document-schema"),
    "extra-column": (_extra_column, "document-schema"),
    "column-an-object": (_set("topic_edges", "weight", {}), "document-schema"),
    "column-a-string": (_set("archives", "events", "speaker", "ana"), "document-schema"),
    "unequal-columns": (lambda d: d["archives"]["events"]["text"].pop(), "document-schema"),
    "archives-extra-key": (_set("archives", "extra", []), "document-schema"),
    "archives-a-list": (_set("archives", []), "document-schema"),
    "archive-length-0": (_empty_archive, "archive-non-empty"),
    "archive-length-negative": (_set("archives", "lengths", 0, -1), "archive-non-empty"),
    "archive-length-float": (_set("archives", "lengths", 0, 3.0), "field-type"),
    "archive-length-bool": (_set("archives", "lengths", 0, True), "field-type"),
    "archive-length-string": (_set("archives", "lengths", 0, "3"), "field-type"),
    "lengths-sum": (_lengths_off_by_one, "archive-lengths"),
    "duplicate-theme": (_first_record_twice("topic_nodes"), "archive-count"),
    "duplicate-archive": (_first_archive_twice, "archive-count"),
    "reorder-edges": (_first_two_records_swapped("topic_edges"), "edge-order"),
    "duplicate-edge": (_first_record_twice("topic_edges"), "edge-order"),
    "theme-extra-column": (_theme_extra_column, "document-schema"),
    "drop-config-key": (lambda d: d["config"].pop(min(d["config"])), "document-schema"),
    "config-float-as-int": (_config_float_as_int, "document-schema"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_file_is_refused_alike(saved_documents, tmp_path, case):
    edit, invariant = MALFORMED[case]
    document = json.loads(saved_documents["synthetic"])
    edit(document)
    path = tmp_path / "memory.json"
    if document["format_version"] == FORMAT_VERSION:
        write_rehashed(document, path)
    else:
        # The version is part of the header the hash leaves out.
        path.write_bytes(as_saved(document))
    assert outcome(reference_load, path) == outcome(load, path) == invariant


def _relation_values_swapped(document):
    # The same relations, under a dictionary whose first two values are
    # swapped, so the first entry's code is 1.
    relation = document["topic_edges"]["relation"]
    relation["values"][:2] = relation["values"][1::-1]
    relation["codes"] = [{0: 1, 1: 0}.get(code, code) for code in relation["codes"]]


_ARCHIVED = ("archives", "events")

#: Edits of the synthetic file's dictionary columns and edge ends that each
#: loader must refuse, with the invariant and the entry each must name: an
#: event by its id, an edge by the ids of its ends (stored as 1 and 3), and
#: an unused value by its place, as no entry uses it.  The synthetic file
#: holds 21 archived events, under speakers ana and riley and sessions s1
#: to s7, then two buffered ones by ana in s99.
REFUSED = {
    "code-negative": (
        _set(*_ARCHIVED, "speaker", "codes", 4, -1),
        "dictionary-code",
        "e000005 speaker",
    ),
    "code-past-values": (
        _set(*_ARCHIVED, "session_id", "codes", 3, 7),
        "dictionary-code",
        "e000004 session_id",
    ),
    "relation-code-past-values": (
        _set("topic_edges", "relation", "codes", 0, 5),
        "dictionary-code",
        "t000001-t000003 relation",
    ),
    "code-true": (
        _set("active_buffer", "speaker", "codes", 1, True),
        "field-type",
        "e000023 speaker",
    ),
    "code-false": (
        _set("active_buffer", "session_id", "codes", 0, False),
        "field-type",
        "e000022 session_id",
    ),
    "value-twice": (
        _set(*_ARCHIVED, "speaker", "values", 1, "ana"),
        "dictionary-distinct",
        "e000002 speaker",
    ),
    "value-unused": (
        lambda d: d["archives"]["events"]["speaker"]["values"].append("sam"),
        "dictionary-unused",
        "archives.events.speaker.values[2]",
    ),
    "values-out-of-order": (
        _relation_values_swapped,
        "dictionary-order",
        "t000001-t000003 relation",
    ),
    "edge-end-0": (
        _set("topic_edges", "from_id", 0, 0),
        "topic-edge-endpoints",
        "t000000-t000003",
    ),
    "edge-end-past-the-themes": (
        _set("topic_edges", "to_id", 0, 8),
        "topic-edge-endpoints",
        "t000001-t000008",
    ),
    "edge-end-true": (
        _set("topic_edges", "from_id", 0, True),
        "field-type",
        "True-t000003 from_id",
    ),
}


def refusal(loader, path):
    try:
        loader(path)
    except CorruptionError as err:
        return err.invariant, str(err)
    return None


@pytest.mark.parametrize("case", REFUSED)
def test_a_dictionary_or_edge_end_save_never_writes_is_refused_alike(
    saved_documents, tmp_path, case
):
    edit, invariant, named = REFUSED[case]
    document = json.loads(saved_documents["synthetic"])
    edit(document)
    path = tmp_path / "memory.json"
    write_rehashed(document, path)
    expected = refusal(reference_load, path)
    assert refusal(load, path) == expected
    assert expected[0] == invariant and expected[1].endswith(named)


@pytest.mark.parametrize(
    "edit", [_first_two_records_swapped("topic_nodes"), _first_two_archives_swapped]
)
def test_reordered_records_load_alike_and_hash_to_the_file(saved_documents, tmp_path, edit):
    # Ids are positions, so a file with two themes or two archives swapped
    # holds another valid snapshot, whose body the file's hash covers.
    document = json.loads(saved_documents["synthetic"])
    edit(document)
    path = tmp_path / "memory.json"
    write_rehashed(document, path)
    loaded = load(path)
    assert loaded == reference_load(path)
    assert body_hash(loaded) == document["content_hash"]


@pytest.mark.filterwarnings("ignore:beta_:UserWarning")
@pytest.mark.parametrize("strategy", STRATEGY_MATRIX)
@pytest.mark.parametrize("corpus", ["golden", "scaling"])
def test_the_1_0_document_and_the_saved_file_hold_one_snapshot(corpus, strategy, tmp_path, request):
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
