"""Whole-document mutations, checked against the reference loaders.

``reference.reference_load`` is a per-record loader of format 3.0 files,
the oracle of the column passes of ``graphmem.store``.
``reference.reference_load_v1`` reads the 1.0 document, which spells out
every derived copy, record by record and checks each copy; it is the
oracle for what a 3.0 file leaves out.

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
from graphmem.store import load, save

from conftest import body_hash, random_snapshot, write_rehashed
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
def test_the_1_0_document_and_the_3_0_file_hold_one_snapshot(corpus, strategy, tmp_path, request):
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
