"""Span tracing from outside the program, for the per-layer metrics.

Nothing in ``src/`` knows about tracing.  :func:`instrument` replaces each
measured function with a wrapper in the module where its caller looks the
name up (``graphmem.engine.append_event``, ``graphmem.retrieval.neighbors``,
...), and restores the originals on exit.  A span records its name, start,
end, parent span and request id; a span opened with no parent starts a new
request, so every span under one ``observe`` or ``query`` shares an id.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute, span name) for every function measured.  The span
#: name's first part is the layer: the module that defines the function.
PATCHES = (
    ("graphmem.engine", "MemoryEngine.observe", "engine.observe"),
    ("graphmem.engine", "MemoryEngine.end_session", "engine.end_session"),
    ("graphmem.engine", "MemoryEngine.query", "engine.query"),
    ("graphmem.engine", "append_event", "core.append_event"),
    ("graphmem.engine", "check_boundary", "boundary.check_boundary"),
    ("graphmem.engine", "apply_verdict", "consolidation.apply_verdict"),
    ("graphmem.engine", "retrieve", "retrieval.retrieve"),
    ("graphmem.core", "next_event_id", "core.next_event_id"),
    ("graphmem.core", "next_archive_id", "core.next_archive_id"),
    ("graphmem.consolidation", "consolidate_segment", "consolidation.consolidate_segment"),
    ("graphmem.consolidation", "select_candidates", "consolidation.select_candidates"),
    ("graphmem.consolidation", "score_relation", "consolidation.score_relation"),
    ("graphmem.consolidation", "next_topic_id", "core.next_topic_id"),
    ("graphmem.consolidation", "archive_segment", "core.archive_segment"),
    ("graphmem.consolidation", "insert_topic_node", "core.insert_topic_node"),
    ("graphmem.consolidation", "vector_topk", "store.vector_topk"),
    ("graphmem.retrieval", "vector_topk", "store.vector_topk"),
    ("graphmem.retrieval", "anchor", "retrieval.anchor"),
    ("graphmem.retrieval", "drill_down", "retrieval.drill_down"),
    ("graphmem.retrieval", "rerank", "retrieval.rerank"),
    ("graphmem.retrieval", "neighbors", "core.neighbors"),
    ("graphmem.store", "VectorIndex.from_topic_graph", "store.VectorIndex.from_topic_graph"),
    ("graphmem.store", "validate_snapshot", "store.validate_snapshot"),
    ("graphmem.store", "save", "store.save"),
    ("graphmem.store", "load", "store.load"),
    ("graphmem.http", "HttpClient.chat", "http.client.chat"),
    ("graphmem.http", "HttpClient.embed", "http.client.embed"),
)

#: Bundle field -> method measured as ``providers.<field>``.
PROVIDER_METHODS = {
    "embedder": "embed",
    "discriminator": "detect",
    "summarizer": "summarize",
    "relation_scorer": "score",
    "relevance_scorer": "score",
    "entailment": "entails",
}

SPAN_FIELDS = ("name", "start", "end", "parent", "request")

LAYERS = ("engine", "core", "boundary", "consolidation", "retrieval", "store", "providers", "http")


def _count_splits(counters, result, args):
    counters["boundary.splits"] += len(result.split_indices)


def _count_edges(counters, result, args):
    report = result[0]
    counters["consolidation.scored"] += len(report.scored_relations)
    counters["consolidation.admitted"] += report.accepted_edges


def _count_expansions(counters, result, args):
    counters["retrieval.expansions"] += len(result.expansions)


def _count_candidates(counters, result, args):
    counters["retrieval.drill_candidates"] += len(result)


def _count_rerank(counters, result, args):
    counters["retrieval.rerank_in"] += len(args[1])
    counters["retrieval.rerank_out"] += len(result)


OBSERVERS = {
    "boundary.check_boundary": _count_splits,
    "consolidation.consolidate_segment": _count_edges,
    "retrieval.anchor": _count_expansions,
    "retrieval.drill_down": _count_candidates,
    "retrieval.rerank": _count_rerank,
}


class Tracer:
    """In-memory span store plus the counters observed at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One column per span field.  Columns of numbers, rather than a list
        # per span, add no objects for the garbage collector to traverse.
        self.columns: dict[str, list] = {f: [] for f in SPAN_FIELDS}
        self._stack: list[int] = []
        self._requests = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.bundles: list = []
        self.transports: list = []

    def wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        observe = OBSERVERS.get(name)
        names, starts, ends, parents, requests = self.columns.values()
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                request = requests[parent]
            else:
                parent = -1
                self._requests += 1
                request = self._requests
            index = len(names)
            names.append(name_id)
            parents.append(parent)
            requests.append(request)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters, result, args)
            return result

        return traced

    def add_bundle(self, bundle, transport=None):
        """Measure one provider bundle's calls (and its transport, if any)."""
        for field, method in PROVIDER_METHODS.items():
            provider = getattr(bundle, field)
            setattr(provider, method, self.wrap(f"providers.{field}", getattr(provider, method)))
        self.bundles.append(bundle)
        if transport is not None:
            self.transports.append(transport)
            client = bundle.embedder.client
            client.transport = self.wrap("http.transport", client.transport)
            client.sleep = self.wrap("http.backoff", client.sleep)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"names": self.names, "spans": self.columns}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper in :data:`PATCHES`; restore the originals after."""
    restore = []
    try:
        for module_name, attribute, span in PATCHES:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(span, original.__func__))
            else:
                wrapped = tracer.wrap(span, original)
            setattr(owner, name, wrapped)
            restore.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans; also the notes printed beside them."""
    name_ids, starts, ends, parents, requests = tracer.columns.values()
    durations = [end - start for start, end in zip(starts, ends)]
    child = [0.0] * len(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += durations[i]
    by_name: dict[str, list[float]] = defaultdict(list)
    self_by_name: dict[str, float] = defaultdict(float)
    root_name = {}
    self_in_observe: dict[str, float] = defaultdict(float)
    observe_total = 0.0
    for i, name_id in enumerate(name_ids):
        name = tracer.names[name_id]
        by_name[name].append(durations[i])
        own = durations[i] - child[i]
        self_by_name[name] += own
        if parents[i] < 0:
            root_name[requests[i]] = name
            if name == "engine.observe":
                observe_total += durations[i]
        if root_name.get(requests[i]) == "engine.observe":
            self_in_observe[name] += own

    def calls(name):
        return float(len(by_name.get(name, ())))

    def ms_total(name):
        return sum(by_name.get(name, ())) * 1e3

    def p50_ms(name):
        return _p50(by_name.get(name, [])) * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    queries = calls("retrieval.retrieve")
    m: dict[str, float] = {}
    m["core.next_event_id.calls"] = calls("core.next_event_id")
    m["core.next_event_id.ms_total"] = ms_total("core.next_event_id")
    m["core.next_event_id.observe_self_share"] = ratio(
        self_in_observe["core.next_event_id"], observe_total
    )
    m["core.append_event.p50_us"] = p50_ms("core.append_event") * 1e3
    m["core.neighbors.calls"] = calls("core.neighbors")
    m["core.neighbors.ms_total"] = ms_total("core.neighbors")
    m["core.archive_segment.ms_total"] = ms_total("core.archive_segment")
    m["core.insert_topic_node.ms_total"] = ms_total("core.insert_topic_node")
    checks = calls("boundary.check_boundary")
    m["boundary.check_boundary.calls"] = checks
    m["boundary.check_boundary.ms_total"] = ms_total("boundary.check_boundary")
    m["boundary.check_boundary.splits_per_check"] = ratio(c["boundary.splits"], checks)
    m["consolidation.consolidate_segment.calls"] = calls("consolidation.consolidate_segment")
    m["consolidation.consolidate_segment.p50_ms"] = p50_ms("consolidation.consolidate_segment")
    m["consolidation.select_candidates.ms_total"] = ms_total("consolidation.select_candidates")
    m["consolidation.score_relation.calls"] = calls("consolidation.score_relation")
    m["consolidation.score_relation.ms_total"] = ms_total("consolidation.score_relation")
    m["consolidation.edges_admitted_per_scored"] = ratio(
        c["consolidation.admitted"], c["consolidation.scored"]
    )
    for stage in ("anchor", "drill_down", "rerank"):
        m[f"retrieval.{stage}.p50_ms"] = p50_ms(f"retrieval.{stage}")
    m["retrieval.anchor.expansions_per_query"] = ratio(c["retrieval.expansions"], queries)
    m["retrieval.drill_down.candidates_per_query"] = ratio(
        c["retrieval.drill_candidates"], queries
    )
    m["retrieval.rerank.results_per_candidate"] = ratio(
        c["retrieval.rerank_out"], c["retrieval.rerank_in"]
    )
    m["store.VectorIndex.from_topic_graph.calls"] = calls("store.VectorIndex.from_topic_graph")
    m["store.VectorIndex.from_topic_graph.ms_total"] = ms_total("store.VectorIndex.from_topic_graph")
    m["store.vector_topk.ms_total"] = ms_total("store.vector_topk")
    m["store.validate_snapshot.ms"] = p50_ms("store.validate_snapshot")

    tokens: dict[str, int] = defaultdict(int)
    for bundle in tracer.bundles:
        for entry in bundle.call_log.entries():
            tokens[entry.provider] += entry.input_tokens + entry.output_tokens
    for field in PROVIDER_METHODS:
        m[f"providers.{field}.calls"] = calls(f"providers.{field}")
        m[f"providers.{field}.tokens"] = float(tokens[field])
        m[f"providers.{field}.ms_total"] = ms_total(f"providers.{field}")

    transport_calls = calls("http.transport")
    wait_ms = ms_total("http.transport")
    client_self = self_by_name["http.client.chat"] + self_by_name["http.client.embed"]
    m["http.transport.calls"] = transport_calls
    m["http.transport.wait_ms_total"] = wait_ms
    m["http.wait_share"] = ratio(wait_ms / 1e3, wall_s)
    m["http.client.overhead_us_per_call"] = ratio(client_self * 1e6, transport_calls)
    m["http.retries"] = float(sum(t.served_503 for t in tracer.transports))
    m["http.repairs"] = float(sum(t.repairs_seen for t in tracer.transports))

    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * sum(
            v for k, v in self_by_name.items() if k.split(".", 1)[0] == layer
        )
    m["tracing.spans"] = float(len(durations))

    top = sorted(self_in_observe.items(), key=lambda kv: -kv[1])[:5]
    notes = [
        "self time inside engine.observe: "
        + ", ".join(f"{k} {ratio(v, observe_total):.1%}" for k, v in top)
    ]
    return m, notes
