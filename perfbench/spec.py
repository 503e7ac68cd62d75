"""What the benchmark measures; ``BENCHMARK.json`` is rendered from here."""

from __future__ import annotations

import json
from pathlib import Path

from tracing import LAYERS, PROVIDER_METHODS

RUN_SECONDS = 10

WORKLOADS = (
    (
        "ingest_8x",
        "write path at the largest scale: the fixture x8 with renamed sessions through observe;"
        " id allocation, boundary checks and consolidation all grow here",
    ),
    (
        "query_8x",
        "read path with no writes over a pre-built 8x snapshot: anchor, one-hop expand,"
        " drill-down and about 190 relevance calls per query; seeded mixed questions",
    ),
    (
        "chat_http",
        "one long chat over http_bundle and a fake 0.5 ms transport: waiting on serial model"
        " calls dominates, boundaries fire on buffer overflow, reads interleave with writes",
    ),
)

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ingest_turns_per_s", "turns/s", "higher", 0.25),
    ("observe_p50_ms", "ms", "lower", 0.25),
    ("observe_tail_ms", "ms", "lower", 0.25),
    ("consolidation_p50_ms", "ms", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_tail_ms", "ms", "lower", 0.25),
    ("snapshot_save_ms", "ms", "lower", 0.25),
    ("snapshot_load_ms", "ms", "lower", 0.25),
    ("snapshot_bytes_per_input_byte", "ratio", "lower", 0.05),
    ("provider_calls_per_query", "count", "lower", 0.1),
    ("tokens_per_query", "count", "lower", 0.1),
    ("tokens_per_turn", "count", "lower", 0.05),
    ("recall_at_10", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better)
PER_LAYER = (
    ("core.next_event_id.calls", "count", "lower"),
    ("core.next_event_id.ms_total", "ms", "lower"),
    ("core.next_event_id.observe_self_share", "ratio", "lower"),
    ("core.append_event.p50_us", "us", "lower"),
    ("core.neighbors.calls", "count", "lower"),
    ("core.neighbors.ms_total", "ms", "lower"),
    ("core.archive_segment.ms_total", "ms", "lower"),
    ("core.insert_topic_node.ms_total", "ms", "lower"),
    ("boundary.check_boundary.calls", "count", "lower"),
    ("boundary.check_boundary.ms_total", "ms", "lower"),
    ("boundary.check_boundary.splits_per_check", "count", "lower"),
    ("engine.triggers.session_end", "count", "lower"),
    ("engine.triggers.interaction_pause", "count", "lower"),
    ("engine.triggers.buffer_overflow", "count", "lower"),
    ("engine.observe.p50_ms.first_quarter", "ms", "lower"),
    ("engine.observe.p50_ms.last_quarter", "ms", "lower"),
    ("engine.observe.p50_ms.quarter_ratio", "ratio", "lower"),
    ("consolidation.consolidate_segment.calls", "count", "lower"),
    ("consolidation.consolidate_segment.p50_ms", "ms", "lower"),
    ("consolidation.select_candidates.ms_total", "ms", "lower"),
    ("consolidation.score_relation.calls", "count", "lower"),
    ("consolidation.score_relation.ms_total", "ms", "lower"),
    ("consolidation.edges_admitted_per_scored", "ratio", "higher"),
    ("retrieval.anchor.p50_ms", "ms", "lower"),
    ("retrieval.drill_down.p50_ms", "ms", "lower"),
    ("retrieval.rerank.p50_ms", "ms", "lower"),
    ("retrieval.anchor.expansions_per_query", "count", "lower"),
    ("retrieval.drill_down.candidates_per_query", "count", "lower"),
    ("retrieval.rerank.results_per_candidate", "ratio", "higher"),
    ("store.VectorIndex.from_topic_graph.calls", "count", "lower"),
    ("store.VectorIndex.from_topic_graph.ms_total", "ms", "lower"),
    ("store.vector_topk.ms_total", "ms", "lower"),
    ("store.validate_snapshot.ms", "ms", "lower"),
    *(
        (f"providers.{p}.{k}", unit, "lower")
        for p in PROVIDER_METHODS
        for k, unit in (("calls", "count"), ("tokens", "count"), ("ms_total", "ms"))
    ),
    ("http.transport.calls", "count", "lower"),
    ("http.transport.wait_ms_total", "ms", "lower"),
    ("http.wait_share", "ratio", "lower"),
    ("http.client.overhead_us_per_call", "us", "lower"),
    ("http.retries", "count", "lower"),
    ("http.repairs", "count", "lower"),
    *((f"{layer}.self_ms", "ms", "lower") for layer in LAYERS),
    ("tracing.spans", "count", "lower"),
    ("tracing.overhead_share", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def document() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(document(), indent=2) + "\n"


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(render(), encoding="utf-8")
    return path
