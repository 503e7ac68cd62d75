"""Non-interactive command surface: ingest, query, eval, inspect.

Exit codes: 0 on success, 1 when a criteria file threshold is violated,
2 for usage or I/O problems.  Every command is deterministic under
``--provider mock`` with a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .config import EngineConfig
from .core import memory_stats
from .engine import MemoryEngine
from .errors import GraphMemError
from .harness import (
    NoiseSpec,
    check_criteria,
    evaluate,
    format_table,
    load_corpus,
    parse_strategy,
    replay,
    validate_criteria,
)
from .http import HttpConfig, http_bundle
from .providers import mock_bundle
from .retrieval import Query, event_lookup
from .store import load, save

_HTTP_KEYS = ("http_base_url", "http_model", "http_embed_model", "api_key_env")


def _formatter(prog: str) -> argparse.HelpFormatter:
    return argparse.HelpFormatter(prog, width=96)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmem",
        description="Two-layer graph memory engine: ingestion, querying and evaluation.",
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--provider",
            choices=("mock", "http"),
            default="mock",
            help="model backend (default: mock)",
        )
        p.add_argument("--seed", type=int, default=None, help="mock provider seed")
        p.add_argument("--config", type=Path, default=None, help="key=value config file")

    ingest = sub.add_parser(
        "ingest",
        help="replay a corpus into a snapshot file",
        formatter_class=_formatter,
    )
    ingest.add_argument("--corpus", type=Path, required=True, help="turns JSONL file")
    ingest.add_argument(
        "--strategy",
        default="semantic",
        help="semantic, session, fixed_window:N or fixed_turns:N",
    )
    ingest.add_argument("--snapshot-out", type=Path, required=True)
    common(ingest)

    query = sub.add_parser(
        "query",
        help="rank memory against a question",
        formatter_class=_formatter,
    )
    query.add_argument("--snapshot", type=Path, required=True)
    query.add_argument("--text", required=True, help="query text")
    query.add_argument("--k", type=int, default=None, help="results to return")
    query.add_argument(
        "--explain",
        action="store_true",
        help="show relevance, indicator flags and boost contributions",
    )
    common(query)

    evaluate_p = sub.add_parser(
        "eval",
        help="replay, evaluate and emit a report",
        formatter_class=_formatter,
    )
    evaluate_p.add_argument("--corpus", type=Path, required=True)
    evaluate_p.add_argument("--qa", type=Path, default=None, help="QA JSONL (default: sibling *_qa.jsonl)")
    evaluate_p.add_argument(
        "--strategy",
        default="semantic",
        help="one strategy or a comma-separated matrix",
    )
    evaluate_p.add_argument("--noise", type=float, default=None, help="segmentation noise level")
    evaluate_p.add_argument("--report", type=Path, required=True, help="report JSON output path")
    evaluate_p.add_argument("--criteria", type=Path, default=None, help="threshold rules JSON")
    common(evaluate_p)

    inspect = sub.add_parser(
        "inspect",
        help="show snapshot contents",
        formatter_class=_formatter,
    )
    inspect.add_argument("--snapshot", type=Path, required=True)
    group = inspect.add_mutually_exclusive_group()
    group.add_argument("--topic", default=None, help="topic node id")
    group.add_argument("--archive", default=None, help="archive id")
    group.add_argument("--stats", action="store_true", help="aggregate counts")
    return parser


def _load_kv_config(path: Path | None) -> dict:
    if path is None:
        return {}
    values: dict = {}
    for row, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {row + 1}: expected key = value")
        key, _, raw = line.partition("=")
        raw = raw.strip()
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        values[key.strip()] = value
    return values


def _engine_config(args, kv: dict) -> EngineConfig:
    engine_keys = {k: v for k, v in kv.items() if k not in _HTTP_KEYS}
    config = EngineConfig.from_dict({**EngineConfig().to_dict(), **engine_keys})
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _bundle(args, config: EngineConfig, kv: dict):
    if args.provider == "mock":
        return mock_bundle(config)
    base_url = kv.get("http_base_url")
    if not base_url:
        raise ValueError("http provider requires http_base_url in the config file")
    http_config = HttpConfig(
        base_url=str(base_url),
        model=str(kv.get("http_model", "")),
        embed_model=str(kv.get("http_embed_model", "")),
        api_key_env=str(kv.get("api_key_env", "GRAPHMEM_API_KEY")),
    )
    return http_bundle(http_config, config.embedding_dim)


def _qa_sibling(corpus_path: Path, qa: Path | None) -> Path:
    """The QA file ``eval`` reads: ``qa`` or the corpus's ``*_qa.jsonl``
    sibling, which must exist, since 0 items would evaluate as a pass."""
    if qa is not None:
        return qa
    # Only the last "turns": "returns_turns.jsonl" pairs with "returns_qa.jsonl".
    candidate = corpus_path.with_name("qa".join(corpus_path.name.rsplit("turns", 1)))
    if candidate == corpus_path:
        raise ValueError(f"no QA file: {corpus_path} has no 'turns' in its name; pass --qa")
    if not candidate.exists():
        raise ValueError(f"no QA file: {candidate} not found; pass --qa")
    return candidate


def cmd_ingest(args) -> int:
    kv = _load_kv_config(args.config)
    config = _engine_config(args, kv)
    providers = _bundle(args, config, kv)
    corpus = load_corpus(args.corpus)
    engine = MemoryEngine(providers, config)
    snapshot, telemetry = replay(corpus, engine, args.strategy)
    for report in telemetry.reports:
        print(
            f"consolidated topic={report.new_topic_id} archive={report.archive_id} "
            f"candidates={len(report.candidate_pool)} edges={report.accepted_edges} "
            f"forced={report.forced} "
            f"tokens={report.provider_tokens['input']}+{report.provider_tokens['output']}"
        )
    save(snapshot, args.snapshot_out)
    print(
        f"ingested turns={telemetry.turns} sessions={telemetry.sessions} "
        f"consolidations={telemetry.consolidations} strategy={args.strategy} "
        f"snapshot={args.snapshot_out}"
    )
    return 0


def cmd_query(args) -> int:
    if not args.text.strip():
        raise ValueError("--text must be non-empty")
    kv = _load_kv_config(args.config)
    engine_keys = sorted(set(kv) - set(_HTTP_KEYS))
    if engine_keys:
        raise ValueError(
            f"query reads only {', '.join(_HTTP_KEYS)} from --config; the engine "
            f"config comes from the snapshot (use --k for the result count): {engine_keys}"
        )
    snapshot = load(args.snapshot)
    config = snapshot.config if args.seed is None else replace(snapshot.config, seed=args.seed)
    providers = _bundle(args, config, kv)
    engine = MemoryEngine(providers, snapshot=snapshot)
    ranked = engine.query(Query(args.text), k=args.k)
    lookup = event_lookup(snapshot)
    rows = []
    for candidate in ranked:
        node = lookup[candidate.event_node_id]
        row = {
            "rank": candidate.rank,
            "event": candidate.event_node_id,
            "score": candidate.score,
            "speaker": node.speaker,
            "text": node.text,
        }
        if args.explain:
            flags = candidate.indicators
            row.update(
                {
                    "p_sem": candidate.p_sem,
                    "time": flags.time,
                    "conf": flags.conf,
                    "role": flags.role,
                    "boost": candidate.score / candidate.p_sem if candidate.p_sem else 1.0,
                    "anchor": candidate.anchor_topic_id,
                }
            )
        rows.append(row)
    columns = ["rank", "event", "score", "speaker"]
    if args.explain:
        columns += ["p_sem", "time", "conf", "role", "boost", "anchor"]
    columns.append("text")
    print(format_table(rows, columns) if rows else "no results")
    return 0


def cmd_eval(args) -> int:
    kv = _load_kv_config(args.config)
    config = _engine_config(args, kv)
    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]
    if not strategies:
        raise ValueError("--strategy must name at least one strategy")
    for name in strategies:
        parse_strategy(name)
    repeated = next((name for name in strategies if strategies.count(name) > 1), None)
    if repeated is not None:
        raise ValueError(f"--strategy names {repeated} more than once")
    qa_path = _qa_sibling(args.corpus, args.qa)
    corpus = load_corpus(args.corpus, qa_path)
    noise = NoiseSpec(args.noise, config.seed) if args.noise is not None else None
    rules = None
    if args.criteria is not None:
        # Read before any replay, so a bad file fails fast and writes nothing.
        try:
            rules = validate_criteria(json.loads(args.criteria.read_text(encoding="utf-8")))
        except RecursionError as exc:
            raise ValueError(f"{args.criteria}: nested too deep") from exc

    report: dict = {
        "corpus": str(args.corpus),
        "k": config.retrieval_k,
        "noise": {"eta": noise.eta, "seed": noise.seed} if noise else None,
        "strategies": {},
    }
    rows = []
    for name in strategies:
        providers = _bundle(args, config, kv)
        engine = MemoryEngine(providers, config)
        snapshot, telemetry = replay(corpus, engine, name, noise=noise)
        metrics = evaluate(corpus, snapshot, providers)
        report["strategies"][name] = {
            "consolidations": telemetry.consolidations,
            "topic_nodes": len(snapshot.topic_graph.nodes),
            "discriminator_calls": telemetry.discriminator_calls,
            "metrics": asdict(metrics),
        }
        rows.append(
            {
                "strategy": name,
                "consolidations": telemetry.consolidations,
                "topic_nodes": len(snapshot.topic_graph.nodes),
                "recall_at_k": metrics.recall_at_k,
                "tokens_per_query": metrics.tokens_per_query,
            }
        )
    print(
        format_table(
            rows,
            [
                "strategy",
                "consolidations",
                "topic_nodes",
                "recall_at_k",
                "tokens_per_query",
            ],
        )
    )
    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"report written to {args.report}")

    if rules is not None:
        violations = check_criteria(report, rules)
        for violation in violations:
            print(f"criteria violation: {violation}", file=sys.stderr)
        if violations:
            return 1
    return 0


def cmd_inspect(args) -> int:
    snapshot = load(args.snapshot)
    if args.topic:
        node = snapshot.topic_graph.nodes.get(args.topic)
        if node is None:
            raise ValueError(f"unknown topic node {args.topic}")
        print(f"topic {node.id} (archive {node.source_archive_id})")
        print(f"summary: {node.summary}")
        print(f"keywords: {', '.join(node.keywords)}")
        edges = [
            e
            for e in snapshot.topic_graph.edge_list()
            if args.topic in (e.from_id, e.to_id)
        ]
        for edge in edges:
            arrow = "->" if edge.directed else "--"
            print(f"edge {edge.from_id} {arrow} {edge.to_id} {edge.relation.value} {edge.weight:.3f}")
        return 0
    if args.archive:
        graph = snapshot.archive.get(args.archive)
        if graph is None:
            raise ValueError(f"unknown archive {args.archive}")
        for node in graph.nodes:
            print(f"{node.id} {node.session_id}:{node.turn_index} {node.speaker}: {node.text}")
        return 0
    sessions = {n.session_id for g in snapshot.archive.values() for n in g.nodes}
    sessions |= {n.session_id for n in snapshot.buffer}
    row = {
        "sessions": len(sessions),
        **memory_stats(snapshot),
        "logical_clock": snapshot.logical_clock,
    }
    print(
        format_table(
            [row],
            ["sessions", "event_nodes", "buffered", "topic_nodes", "edges", "logical_clock"],
        )
    )
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "query": cmd_query,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GraphMemError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
