import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from graphmem.config import EngineConfig
from graphmem.core import (
    DICTIONARY_FIELDS,
    STORED_MEMBERS,
    EventGraph,
    EventNode,
    MemorySnapshot,
    Relation,
    TopicEdge,
    TopicGraph,
    TopicNode,
    Utterance,
    canonical_json,
    dictionary_column,
    edge_key,
)
from graphmem.engine import MemoryEngine
from graphmem.fixtures import make_golden_corpus, make_scaling_corpus, make_smoke_corpus
from graphmem.harness import DialogueCorpus, replay
from graphmem.providers import mock_bundle
from graphmem.store import validate_snapshot


@pytest.fixture
def config():
    return EngineConfig()


@pytest.fixture
def bundle(config):
    return mock_bundle(config)


@pytest.fixture
def engine(bundle, config):
    return MemoryEngine(bundle, config)


@pytest.fixture(scope="session")
def smoke_corpus():
    return make_smoke_corpus()


@pytest.fixture(scope="session")
def golden_corpus():
    return make_golden_corpus()


@pytest.fixture(scope="session")
def scaling_corpus():
    return make_scaling_corpus()


@pytest.fixture(scope="session")
def golden_snapshot():
    """Golden corpus replayed semantically; shared read-only state."""
    providers = mock_bundle(EngineConfig())
    engine = MemoryEngine(providers, EngineConfig())
    snapshot, telemetry = replay(make_golden_corpus(), engine, "semantic")
    return snapshot, telemetry, providers


def unit_vector(rng: random.Random, dim: int) -> tuple[float, ...]:
    vec = np.array([rng.gauss(0, 1) for _ in range(dim)])
    norm = np.linalg.norm(vec)
    if norm < 1e-9:
        vec = np.zeros(dim)
        vec[0] = 1.0
        norm = 1.0
    return tuple(float(x) for x in vec / norm)


def random_snapshot(
    rng: random.Random,
    n_topics: int,
    config: EngineConfig | None = None,
    events_per_archive: int = 3,
    edge_probability: float = 0.02,
) -> MemorySnapshot:
    """Structurally valid synthetic snapshot for retrieval and store tests."""
    config = config or EngineConfig()
    archives = {}
    topic_nodes = {}
    event_counter = 0
    for i in range(1, n_topics + 1):
        archive_id = f"a{i:06d}"
        nodes = []
        for j in range(events_per_archive):
            event_counter += 1
            text = f"utterance number {event_counter} about subject {i}"
            nodes.append(
                EventNode(
                    id=f"e{event_counter:06d}",
                    session_id=f"s{i}",
                    turn_index=j,
                    speaker=("ana", "riley")[j % 2],
                    text=text,
                    timestamp=None,
                    token_count=len(text.split()),
                    confidence_flag=rng.random() < 0.8,
                )
            )
        archives[archive_id] = EventGraph(tuple(nodes))
        topic_id = f"t{i:06d}"
        topic_nodes[topic_id] = TopicNode(
            id=topic_id,
            summary=f"subject {i} summary",
            keywords=(f"subject{i}",),
            embedding=unit_vector(rng, config.embedding_dim),
            created_at=i,
        )

    edges = {}
    ids = sorted(topic_nodes)
    relations = list(Relation)
    for i, first in enumerate(ids):
        for second in ids[i + 1 :]:
            if rng.random() < edge_probability:
                relation = relations[rng.randrange(len(relations))]
                edges[edge_key(first, second)] = TopicEdge(
                    from_id=first,
                    to_id=second,
                    relation=relation,
                    weight=config.tau + (1 - config.tau) * (0.05 + 0.95 * rng.random()),
                )
    snapshot = MemorySnapshot(
        config=config,
        topic_graph=TopicGraph(topic_nodes, edges),
        archive=archives,
        logical_clock=3 * n_topics,
    )
    validate_snapshot(snapshot)
    return snapshot


@st.composite
def interleaved_corpora(draw):
    """Small corpora whose sessions may interleave and pause."""
    vocabulary = ("garden", "compost", "puppy", "leash", "interview", "offer", "the")
    counters: dict[str, int] = {}
    minute = 0
    turns = []
    for row in range(draw(st.integers(1, 24))):
        session = draw(st.sampled_from(("s1", "s2", "s3")))
        index = counters.get(session, 0)
        counters[session] = index + 1
        minute += draw(st.integers(0, 45))
        words = draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=6))
        turns.append(
            Utterance(
                session,
                ("ana", "riley")[row % 2],
                " ".join(words),
                f"2026-01-05T{9 + minute // 60:02d}:{minute % 60:02d}:00",
                index,
            )
        )
    return DialogueCorpus(tuple(turns))


def stored_body(snapshot):
    """The body ``save`` writes for ``snapshot``: every stored member's
    writer run at once."""
    return {name: write(snapshot) for name, write in STORED_MEMBERS.items()}


def body_hash(snapshot):
    """The ``content_hash`` a file of ``snapshot`` records."""
    return hashlib.sha256(canonical_json(stored_body(snapshot))).hexdigest()


def as_saved(document):
    """``document`` encoded as ``save`` writes a file (sorted keys, no
    spaces); a bare NaN or infinity is spelled as Python's encoder spells
    it."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def write_rehashed(document, path):
    """Write ``document`` as ``save`` writes a file, with a content hash over
    its body as written, so the load reaches the checks behind the hash."""
    body = {k: document[k] for k in STORED_MEMBERS if k in document}
    document["content_hash"] = hashlib.sha256(as_saved(body)).hexdigest()
    path.write_bytes(as_saved(document))


def table_rows(table):
    """A stored table's records, the k-th a dict of entry k of each column,
    a dictionary column's entry as its value."""
    columns = {
        name: [column["values"][code] for code in column["codes"]]
        if name in DICTIONARY_FIELDS
        else column
        for name, column in table.items()
    }
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def set_table_rows(table, rows):
    """Writes ``rows`` back into ``table`` a column at a time, each
    dictionary column as ``save`` writes it."""
    for name in table:
        column = [row[name] for row in rows]
        table[name] = dictionary_column(column) if name in DICTIONARY_FIELDS else column
