"""The reference engine: plain scans that the tests check graphmem against.

graphmem keeps a turn, a query and a consolidation cheap by carrying
derived values from snapshot to snapshot (the turn maxima, the buffer's
token total, the topic graph's adjacency and vector index, each graph's
retrieval candidates, a save's bytes) and by working in columns and
shortlists.  Nothing here does.  Each value is one plain scan over what a
snapshot stores, each record is built by its own constructor, and no
``core`` mutation, carried value, cache or shortlist is used:

- the carried values: :func:`stored_nodes`, :func:`next_ids`,
  :func:`highest_turns`, :func:`reference_topk` (top k by per-row dot
  product), :func:`reference_neighbours` (by edge scan) and
  :func:`reference_drill_down`;
- a query: :func:`reference_retrieve`, through the per-candidate re-rank
  loop :func:`reference_rerank` and its own gathering of the relevance
  replies, :func:`reference_replies`;
- a consolidation: :func:`reference_consolidate`, which asks each scorer
  once per position, says when a provider's reply aborts it, and builds
  the committed state with the plain constructors;
- a file: :func:`reference_file` writes a 5.0 file with plain loops over
  the records, :func:`reference_load` reads one position by position and
  checks it with :func:`reference_validate`; :func:`reference_load_v1`
  reads a 1.0 document, which spells out every derived copy, and checks
  each copy.

``tests/test_stateful.py`` checks every step of the engine against this
module; the other tests use it as the oracle of one part.
"""

import hashlib
import json
import logging
import math
from dataclasses import replace

import numpy as np

from graphmem.config import EngineConfig, estimate_tokens
from graphmem.core import (
    EVENT_FIELD_TYPES,
    LIVE_BUFFER_ID,
    RELATION_LABELS,
    SEQUENTIAL,
    UNRELATED,
    EventGraph,
    EventNode,
    MemorySnapshot,
    Relation,
    TopicEdge,
    TopicGraph,
    TopicNode,
    canonical_json,
    edge_key,
    raw_text,
    topic_raw,
)
from graphmem.errors import CorruptionError, ProviderError, ProviderParseError
from graphmem.providers import real_number
from graphmem.retrieval import (
    CandidateEvent,
    IndicatorFlags,
    RankedCandidate,
    is_time_sensitive,
    role_indicator,
    time_indicator,
)
from graphmem.store import FORMAT_VERSION, checked_vector

# ---------------------------------------------------------------------------
# the carried values, each by one scan


def stored_nodes(snapshot):
    """Every stored node: the archives in id order, then the buffer."""
    archives = [snapshot.archive[k].nodes for k in sorted(snapshot.archive)]
    return [n for nodes in archives for n in nodes] + list(snapshot.buffer)


def next_ids(snapshot):
    """Prefix -> the id one past the largest stored number of its kind."""
    stored = {
        "e": [n.id for n in stored_nodes(snapshot)],
        "t": list(snapshot.topic_graph.nodes),
        "a": list(snapshot.archive),
    }
    return {
        prefix: f"{prefix}{max((int(i[1:]) for i in ids), default=0) + 1:06d}"
        for prefix, ids in stored.items()
    }


def highest_turns(snapshot):
    """Session id -> its highest stored turn index; a turn derived without
    an index takes one more (or 0 in a session not stored)."""
    highest = {}
    for node in stored_nodes(snapshot):
        highest[node.session_id] = max(highest.get(node.session_id, -1), node.turn_index)
    return highest


def reference_topk(rows, query, k):
    """The first ``k`` of ``(id, vector)`` rows, each scored by its own dot
    product with ``query``, in descending score, ties by id."""
    scored = [
        (row_id, float(np.dot(np.asarray(vector, dtype=float), query))) for row_id, vector in rows
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def theme_rows(topic_graph):
    """Each theme's ``(id, embedding)``, the rows :func:`reference_topk` takes."""
    return [(topic_id, node.embedding) for topic_id, node in topic_graph.nodes.items()]


def reference_neighbours(topic_graph, node_id):
    """The themes sharing an edge with ``node_id``, by a scan of every edge."""
    return frozenset(
        edge.to_id if edge.from_id == node_id else edge.from_id
        for edge in topic_graph.edges.values()
        if node_id in (edge.from_id, edge.to_id)
    )


def reference_drill_down(snapshot, anchor_ids):
    """A new candidate for each node of each anchor's archive, anchors in
    id order, each event once."""
    candidates, seen = [], set()
    for anchor_id in sorted(set(anchor_ids)):
        archive_id = snapshot.topic_graph.nodes[anchor_id].source_archive_id
        for node in snapshot.archive[archive_id].nodes:
            if node.id not in seen:
                seen.add(node.id)
                candidates.append(CandidateEvent(node, archive_id, anchor_id))
    return candidates


# ---------------------------------------------------------------------------
# a query


def reference_retrieve(snapshot, query, providers, k):
    """The ranking ``retrieve`` must give: the top ``k`` themes and their
    neighbours, every node of their archives and the buffer, re-ranked."""
    config = snapshot.config
    vector = checked_vector(providers.embedder.embed(query.text), config.embedding_dim)
    graph = snapshot.topic_graph
    seeds = {topic_id for topic_id, _ in reference_topk(theme_rows(graph), vector, k)}
    reached = seeds.union(*(reference_neighbours(graph, s) for s in seeds))
    candidates = reference_drill_down(snapshot, reached)
    candidates += [CandidateEvent(n, LIVE_BUFFER_ID, LIVE_BUFFER_ID) for n in snapshot.buffer]
    if not candidates:
        return []
    return reference_rerank(query, candidates, providers, config, k, vector)


def reference_replies(scorer, query, texts):
    """How ``rerank`` gathers its replies, written out apart from
    ``providers.distinct_replies`` so that the oracle sees a change there:
    each distinct text is asked once, in first-occurrence order, and each
    position takes the reply for its text."""
    distinct = []
    for text in texts:
        if text not in distinct:
            distinct.append(text)
    if not hasattr(scorer, "score_many"):
        answers = []
        for text in distinct:
            try:
                answers.append(scorer.score(query, text))
            except ProviderError as exc:
                answers.append(exc)
    else:
        try:
            answers = scorer.score_many(query, distinct)
        except ProviderError as exc:
            return [exc] * len(texts)
        if type(answers) is not list or len(answers) != len(distinct):
            failure = ProviderParseError(f"batch reply is not a list of {len(distinct)} items")
            return [failure] * len(texts)
    return [answers[distinct.index(text)] for text in texts]


def reference_rerank(query, candidates, providers, config, k, query_vector):
    """The per-candidate re-rank loop that the columnar ``rerank`` replaced,
    with ``query_vector`` the checked query embedding."""
    replies = reference_replies(
        providers.relevance_scorer, query.text, [c.node.text for c in candidates]
    )
    time_sensitive = is_time_sensitive(query)
    lowered_query = query.text.lower()
    rows = []
    for position, (candidate, reply) in enumerate(zip(candidates, replies)):
        node = candidate.node
        p_sem = reply if type(reply) is float else real_number(reply)
        degraded = not math.isfinite(p_sem)
        if degraded:
            failure = reply
            if not isinstance(reply, ProviderError):
                kind = type(reply).__name__
                failure = ProviderParseError(f"relevance {p_sem} ({kind}) is not finite")
            logging.getLogger("graphmem.retrieval").warning(
                "relevance scoring failed for %s (%s); degrading to cosine",
                node.id,
                failure,
            )
            text_vector = checked_vector(providers.embedder.embed(node.text), config.embedding_dim)
            cosine = float(np.dot(query_vector, text_vector))
            if not math.isfinite(cosine):
                raise ProviderParseError(f"non-finite cosine {cosine}") from failure
            p_sem = max(cosine, 0.01)
        p_sem = min(max(p_sem, 0.0), 1.0)
        t = time_indicator(time_sensitive, node)
        c = int(node.confidence_flag)
        r = role_indicator(lowered_query, node)
        score = p_sem * config.beta_time**t * config.beta_conf**c * config.beta_role**r
        rows.append((-score, -int(node.id[1:]), node.id, position, p_sem, degraded, (t, c, r)))
    rows.sort()
    return [
        RankedCandidate(
            event_node_id=node_id,
            source_archive_id=candidates[position].source_archive_id,
            anchor_topic_id=candidates[position].anchor_topic_id,
            p_sem=p_sem,
            indicators=IndicatorFlags(*flags),
            score=-negative_score,
            rank=rank,
            degraded=degraded,
        )
        for rank, (negative_score, _, node_id, position, p_sem, degraded, flags) in enumerate(
            rows[:k], 1
        )
    ]


# ---------------------------------------------------------------------------
# a consolidation


def reference_consolidate(snapshot, segment, providers):
    """Consolidate ``segment``, a prefix of the buffer, asking the
    entailment checker once per utterance and the relation scorer once per
    candidate; it logs nothing.  Returns ``None`` if the consolidation
    aborts: the summarizer or embedder raises a ``ProviderError``, the
    summary or a keyword is not a ``str``, the summary is blank, or the
    embedding is not ``embedding_dim`` finite numbers with a norm in
    ``[1e-12, inf)``.  Otherwise returns the report fields the scorers and
    the ids decide, and the committed snapshot, built by the plain
    constructors one tick past the archived one."""
    config = snapshot.config
    graph = snapshot.topic_graph
    try:
        summary_result = providers.summarizer.summarize(raw_text(segment))
        summary = getattr(summary_result, "summary", None)
        keywords = getattr(summary_result, "keywords", None)
        if type(summary) is not str or not summary.strip():
            return None
        if not isinstance(keywords, (tuple, list)) or {type(k) for k in keywords} - {str}:
            return None
        embedding = checked_vector(providers.embedder.embed(summary), config.embedding_dim)
    except ProviderError:
        return None
    norm = float(np.linalg.norm(embedding))
    if not 1e-12 <= norm < math.inf:
        return None
    embedding = embedding / norm
    flags, defaults = [], 0
    for node in segment:
        try:
            reply = providers.entailment.entails(summary, node.text)
        except ProviderError:
            reply = None
        trusted = not isinstance(reply, (bool, np.bool_))
        flags.append(True if trusted else bool(reply))
        defaults += trusted
    ids = next_ids(snapshot)
    new_id, archive_id = ids["t"], ids["a"]
    candidates = reference_topk(theme_rows(graph), embedding, config.k_cand)
    scored, skipped = [], []
    for topic_id, _similarity in candidates:
        other = graph.nodes[topic_id].summary
        try:
            reply = providers.relation_scorer.score(summary, other)
        except ProviderParseError:
            reply = None
        except ProviderError:
            skipped.append(topic_id)
            continue
        scored.append((topic_id, *reference_relation(reply)))
    edges = dict(graph.edges)
    for topic_id, label, weight in scored:
        if label != UNRELATED and weight > config.tau:
            edges[edge_key(new_id, topic_id)] = TopicEdge(new_id, topic_id, Relation(label), weight)
    node = TopicNode(
        id=new_id,
        summary=summary,
        keywords=tuple(keywords),
        embedding=tuple(float(x) for x in embedding),
        created_at=snapshot.logical_clock + 1,
    )
    archived = tuple(replace(n, confidence_flag=flag) for n, flag in zip(segment, flags))
    committed = MemorySnapshot(
        config=config,
        topic_graph=TopicGraph({**graph.nodes, new_id: node}, edges),
        active_event_graph=EventGraph(snapshot.buffer[len(segment) :]),
        archive={**snapshot.archive, archive_id: EventGraph(archived)},
        logical_clock=snapshot.logical_clock + 2,
    )
    fields = {
        "new_topic_id": new_id,
        "archive_id": archive_id,
        "candidate_pool": tuple(candidates),
        "scored_relations": tuple(scored),
        "skipped_candidates": tuple(skipped),
        "entailment_defaults": defaults,
        "accepted_edges": len(edges) - len(graph.edges),
    }
    return fields, committed


def reference_relation(reply):
    """The label and weight a relation scorer's reply stands for: a pair of
    a known label and a real weight in ``[0, 1]``, else unrelated at 0."""
    try:
        label, weight = reply
    except (TypeError, ValueError):
        return UNRELATED, 0.0
    weight = real_number(weight)
    if isinstance(label, str) and label in RELATION_LABELS and 0.0 <= weight <= 1.0:
        return label, weight
    return UNRELATED, 0.0


# ---------------------------------------------------------------------------
# a 5.0 file, record by record

#: The fields of each record, in the order README's "Snapshot file format"
#: lists them.
_EVENT_FIELDS = ["session_id", "turn_index", "speaker", "text", "timestamp", "confidence_flag"]
_TOPIC_FIELDS = ["summary", "keywords", "embedding", "created_at"]
_EDGE_FIELDS = ["from_id", "to_id", "relation", "weight"]
#: The dictionary columns: ``{codes, values}``.
_DICTIONARY_FIELDS = ["session_id", "speaker", "relation"]


def _as_table(rows, names):
    """Rows, each a list of values in the order of ``names``, as an object
    of one column per name, a dictionary column as ``{codes, values}``:
    the distinct values in the order they first occur, and per entry the
    index of its value."""
    table = {name: [] for name in names}
    for row in rows:
        for name, value in zip(names, row):
            table[name].append(value)
    for name in names:
        if name in _DICTIONARY_FIELDS:
            values, codes = [], []
            for value in table[name]:
                if value not in values:
                    values.append(value)
                codes.append(values.index(value))
            table[name] = {"codes": codes, "values": values}
    return table


def _event_table(nodes):
    return _as_table([[getattr(node, name) for name in _EVENT_FIELDS] for node in nodes], _EVENT_FIELDS)


def _encoded(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def reference_file(snapshot):
    """The file ``save`` writes for ``snapshot``, from README's "Snapshot
    file format": each table an object of columns, entry k of each column
    the k-th record's field, session ids, speakers and relations as
    dictionaries; themes and archives in id order, edges in pair order,
    each end as the position of its theme, the archived events in one
    table split by ``lengths``; under a ``content_hash`` of the encoded
    body."""
    graph = snapshot.topic_graph
    theme_ids = sorted(graph.nodes)
    themes = []
    for topic_id in theme_ids:
        node = graph.nodes[topic_id]
        embedding = [float(x) for x in node.embedding]
        themes.append([node.summary, list(node.keywords), embedding, node.created_at])
    edges = []
    for key in sorted(graph.edges):
        edge = graph.edges[key]
        ends = [theme_ids.index(edge.from_id) + 1, theme_ids.index(edge.to_id) + 1]
        edges.append([*ends, edge.relation.value, float(edge.weight)])
    lengths, archived = [], []
    for archive_id in sorted(snapshot.archive):
        nodes = snapshot.archive[archive_id].nodes
        lengths.append(len(nodes))
        archived.extend(nodes)
    body = {
        "topic_nodes": _as_table(themes, _TOPIC_FIELDS),
        "topic_edges": _as_table(edges, _EDGE_FIELDS),
        "archives": {"lengths": lengths, "events": _event_table(archived)},
        "active_buffer": _event_table(snapshot.buffer),
        "config": snapshot.config.to_dict(),
        "logical_clock": snapshot.logical_clock,
    }
    header = {"content_hash": hashlib.sha256(_encoded(body)).hexdigest(), "format_version": "5.0"}
    return _encoded({**body, **header})


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
    for key in ("topic_nodes", "topic_edges", "archives", "active_buffer", "config", "logical_clock"):
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
    archives = body["archives"]
    if type(archives) is not dict or sorted(archives) != ["events", "lengths"]:
        raise CorruptionError("document-schema", "archives")
    lengths = archives["lengths"]
    if type(lengths) is not list:
        raise CorruptionError("document-schema", "archive lengths")
    for position, length in enumerate(lengths, 1):
        if type(length) is not int:
            raise CorruptionError("field-type", f"a{position:06d} lengths")
    archived = _records(archives["events"], EVENT_FIELD_TYPES, "e", 0, "archives.events")
    buffered = _records(
        body["active_buffer"], EVENT_FIELD_TYPES, "e", len(archived), "active_buffer"
    )
    themes = _records(body["topic_nodes"], _TOPIC_TYPES, "t", 0, "topic_nodes")
    links = _records(body["topic_edges"], _EDGE_TYPES, None, 0, "topic_edges")
    for prefix, records in (("e", archived + buffered), ("t", themes), ("a", lengths)):
        if len(records) >= 10**6:
            raise CorruptionError("id-width", f"{len(records)} {prefix} ids")
    for position, length in enumerate(lengths, 1):
        if length < 1:
            raise CorruptionError("archive-non-empty", f"a{position:06d}")
    if sum(lengths) != len(archived):
        raise CorruptionError("archive-lengths")
    # Each id is the record's position, counted from 1.
    topic_nodes = {}
    for position, record in enumerate(themes, 1):
        theme_id = f"t{position:06d}"
        for name, item_type in (("keywords", str), ("embedding", float)):
            if not set(map(type, record[name])) <= {item_type}:
                raise CorruptionError("field-type", f"{theme_id} {name}")
        if not all(map(math.isfinite, record["embedding"])):
            raise CorruptionError("document-schema", f"{theme_id} embedding")
        topic_nodes[theme_id] = TopicNode(
            id=theme_id,
            summary=record["summary"],
            keywords=tuple(record["keywords"]),
            embedding=tuple(record["embedding"]),
            created_at=record["created_at"],
        )

    for record in links:
        if not math.isfinite(record["weight"]):
            raise CorruptionError("document-schema", "edge weight")
        if record["relation"] not in [relation.value for relation in Relation]:
            raise CorruptionError("document-schema", "edge relation")
    # An end is a theme's position: k names t{k}.
    edges = {}
    for record in links:
        ends = (record["from_id"], record["to_id"])
        if not all(1 <= end <= len(themes) for end in ends):
            raise CorruptionError("topic-edge-endpoints", _edge_name(record))
        edge = TopicEdge(
            from_id=f"t{record['from_id']:06d}",
            to_id=f"t{record['to_id']:06d}",
            relation=Relation(record["relation"]),
            weight=record["weight"],
        )
        edges[edge_key(edge.from_id, edge.to_id)] = edge

    strings, numbers = {}, iter(range(1, len(archived) + len(buffered) + 1))
    archive_graphs, start = {}, 0
    for position, length in enumerate(lengths, 1):
        archive_graphs[f"a{position:06d}"] = _rebuild_graph(
            archived[start : start + length], strings, numbers
        )
        start += length
    buffer = _rebuild_graph(buffered, strings, numbers)
    clock = body["logical_clock"]
    if type(clock) is not int or clock < 0:
        raise CorruptionError("logical-clock-non-negative")

    snapshot = MemorySnapshot(
        config=config,
        topic_graph=TopicGraph(topic_nodes, edges),
        active_event_graph=buffer,
        archive=archive_graphs,
        logical_clock=clock,
    )
    reference_validate(snapshot)
    _check_written_form(body, links, snapshot)
    return snapshot


def _check_written_form(body, links, snapshot):
    keys = [edge_key(record["from_id"], record["to_id"]) for record in links]
    if (unsorted := next((b for a, b in zip(keys, keys[1:]) if not a < b), None)) is not None:
        raise CorruptionError("edge-order", str(unsorted))
    if canonical_json(body["config"]) != canonical_json(snapshot.config.to_dict()):
        raise CorruptionError("document-schema", "config differs from the stored form")


def _rebuild_graph(records, strings, numbers):
    """The graph of ``records``, each numbered by the next of ``numbers``."""
    share = strings.setdefault
    for record in records:
        record["session_id"] = share(record["session_id"], record["session_id"])
        record["speaker"] = share(record["speaker"], record["speaker"])
        record["timestamp"] = share(record["timestamp"], record["timestamp"])
    return EventGraph(
        tuple(
            EventNode(id=f"e{next(numbers):06d}", **record, token_count=estimate_tokens(record["text"]))
            for record in records
        )
    )


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


def _edge_name(record):
    """An edge named by its ends: ``t{k}`` for a position k, else the value."""
    ends = (record["from_id"], record["to_id"])
    return "-".join(f"t{end:06d}" if type(end) is int else repr(end) for end in ends)


def _records(table, types, prefix, before, member):
    """The records of the table ``member``, the k-th holding entry k of
    each column, a dictionary column's entry as its value.

    The table must be an object of exactly the columns of ``types``, each
    a list or, for a dictionary column, an object of two lists, ``codes``
    and ``values``, all of one length; then each field is checked over
    every record (a dictionary column by :func:`_decode`), and a failure
    names the record by the id its position gives it (``prefix``, counting
    on from ``before`` records) or, for an edge, its ends."""
    if type(table) is not dict or sorted(table) != sorted(types):
        raise CorruptionError("document-schema", f"columns {sorted(types)}")
    columns = {}
    for name in types:
        column = table[name]
        if name in _DICTIONARY_FIELDS:
            if type(column) is not dict or sorted(column) != ["codes", "values"]:
                raise CorruptionError("document-schema", f"column {name}")
            if type(column["codes"]) is not list or type(column["values"]) is not list:
                raise CorruptionError("document-schema", f"column {name}")
            column = column["codes"]
        elif type(column) is not list:
            raise CorruptionError("document-schema", f"column {name}")
        columns[name] = column
    count = len(columns[next(iter(types))])
    for name in types:
        if len(columns[name]) != count:
            raise CorruptionError("document-schema", f"column {name} of unequal length")
    records = []
    for position in range(count):
        records.append({name: columns[name][position] for name in types})

    def named(position, record):
        return f"{prefix}{before + position:06d}" if prefix else _edge_name(record)

    for name, allowed in types.items():
        if name in _DICTIONARY_FIELDS:
            _decode(records, name, table[name]["values"], f"{member}.{name}", named)
            continue
        for position, record in enumerate(records, 1):
            if type(record[name]) not in allowed:
                raise CorruptionError("field-type", f"{named(position, record)} {name}")
    return records


def _decode(records, name, values, where, named):
    """Puts each record's value in place of its code in the dictionary
    column ``name``, checking, in README's order, that the codes are ints
    in range, that the values are the column's distinct strings in the
    order they first occur, and every one used."""
    for position, record in enumerate(records, 1):
        if type(record[name]) is not int:
            raise CorruptionError("field-type", f"{named(position, record)} {name}")
    for position, record in enumerate(records, 1):
        if not 0 <= record[name] < len(values):
            raise CorruptionError("dictionary-code", f"{named(position, record)} {name}")
    used = 0
    for position, record in enumerate(records, 1):
        if record[name] == used:
            used += 1
        elif record[name] > used:
            raise CorruptionError("dictionary-order", f"{named(position, record)} {name}")
    if used < len(values):
        raise CorruptionError("dictionary-unused", f"{where}.values[{used}]")
    for position, record in enumerate(records, 1):
        if type(values[record[name]]) is not str:
            raise CorruptionError("field-type", f"{named(position, record)} {name}")
    codes = {}
    for position, record in enumerate(records, 1):
        if codes.setdefault(values[record[name]], record[name]) != record[name]:
            raise CorruptionError("dictionary-distinct", f"{named(position, record)} {name}")
    for record in records:
        record[name] = values[record[name]]


def reference_validate(snapshot):
    config = snapshot.config
    graph = snapshot.topic_graph
    # Theme t{k} consolidates archive a{k}.
    if len(snapshot.archive) != len(graph.nodes):
        raise CorruptionError("archive-count")
    for archive_id, events in snapshot.archive.items():
        if not events.nodes:
            raise CorruptionError("archive-non-empty", archive_id)
    for node in stored_nodes(snapshot):
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
# a 1.0 document, with every derived copy spelled out


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
