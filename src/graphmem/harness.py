"""Replay, evaluation and protocol-reproduction harness.

Feeds dialogue corpora through the engine under interchangeable partitioning
strategies, evaluates QA retrieval by evidence recall and tokens per query,
injects segmentation noise, and emits scaling telemetry.  A strategy is a
segmenter on the engine: it only decides where a fired boundary check cuts
the buffer.  Ingestion (``observe``, trigger counting, the overflow rule),
consolidation internals and the retrieval path are identical across all of
them.

Corpus wire format: JSON-lines, one turn per line with fields
``session_id``, ``turn_index``, ``speaker``, ``text`` and optional
``timestamp``, read into the :class:`~graphmem.core.Utterance` that
``observe`` takes, with its ``turn_index`` required; QA items live in a
sibling JSONL file with ``question``, ``gold_answer``, ``category`` and
optional ``evidence_turn_ids`` referencing turns as
``"<session_id>:<turn_index>"``.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .boundary import BoundaryVerdict, TriggerKind
from .consolidation import ConsolidationReport
from .core import MemorySnapshot, Utterance, memory_stats
from .engine import MemoryEngine, Segmenter
from .errors import GraphMemError
from .metrics import recall_at_k
from .providers import ProviderBundle, record_usage
from .retrieval import Query, event_lookup, retrieve

logger = logging.getLogger(__name__)

CATEGORIES = ("single_hop", "multi_hop", "temporal", "open_domain")


# ---------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class QAItem:
    question: str
    gold_answer: str
    category: str
    evidence_turn_ids: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        # The rule ``retrieval.Query`` applies, so a bad question is refused
        # at its row rather than after the corpus was replayed.
        if type(self.question) is not str:
            raise ValueError("QA question must be a str")
        if not self.question.strip():
            raise ValueError("QA question must be non-empty")


@dataclass(frozen=True)
class DialogueCorpus:
    """Turns, each with its ``turn_index``, and the QA items over them."""

    turns: tuple[Utterance, ...]
    qa: tuple[QAItem, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for row, turn in enumerate(self.turns):
            if turn.turn_index is None:
                raise ValueError(f"turn row {row}: turn_index is required")
            turn_id = f"{turn.session_id}:{turn.turn_index}"
            if turn_id in seen:
                raise ValueError(f"turn row {row}: duplicate id {turn_id}")
            seen.add(turn_id)
        for row, item in enumerate(self.qa):
            if item.category not in CATEGORIES:
                raise ValueError(f"qa row {row}: unknown category {item.category!r}")
            missing = item.evidence_turn_ids - seen
            if missing:
                raise ValueError(f"qa row {row}: unknown evidence {sorted(missing)}")

    @property
    def sessions(self) -> tuple[str, ...]:
        """Distinct session ids in order of first appearance."""
        return tuple(dict.fromkeys(t.session_id for t in self.turns))


def load_corpus(turns_path: str | Path, qa_path: str | Path | None = None) -> DialogueCorpus:
    """Read the JSONL pair, rejecting malformed rows with their row number.

    Nothing is coerced: a turn row must hold what ``observe`` accepts as
    given, ``turn_index`` included, and a QA row strings and a list of
    string turn ids.
    """
    turns = _read_jsonl(turns_path, _turn)
    qa = _read_jsonl(qa_path, _qa_item) if qa_path is not None else []
    return DialogueCorpus(tuple(turns), tuple(qa))


def _turn(payload: dict) -> Utterance:
    turn = Utterance(
        payload["session_id"],
        payload["speaker"],
        payload["text"],
        payload.get("timestamp"),
        payload["turn_index"],
    )
    if turn.turn_index is None:
        raise ValueError("turn_index is required")
    return turn


def _qa_item(payload: dict) -> QAItem:
    fields = [payload["question"], payload["gold_answer"], payload["category"]]
    evidence = payload.get("evidence_turn_ids", [])
    if type(evidence) is not list or any(type(v) is not str for v in fields + evidence):
        raise ValueError("QA fields must be strings, evidence_turn_ids a list of them")
    return QAItem(*fields, frozenset(evidence))


def _read_jsonl(path: str | Path, parse) -> list:
    """``parse`` applied to the object on each non-blank line; an error,
    a line nested too deep to decode included, is a ``ValueError`` naming
    the file and the 0-based line number."""
    items = []
    with open(path, "rb") as handle:
        for row, raw in enumerate(handle):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("expected an object")
                items.append(parse(payload))
            except (KeyError, ValueError, RecursionError) as exc:
                raise ValueError(f"{path} row {row}: {exc!r}") from exc
    return items


# ---------------------------------------------------------------------------
# segmentation noise


@dataclass(frozen=True)
class NoiseSpec:
    eta: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 0.4:
            raise ValueError("eta must lie in [0, 0.4]")
        if self.seed < 0:
            # random.Random seeds with abs(seed): -1 would replay seed 1.
            raise ValueError("noise seed must be >= 0")


def inject_noise(
    boundaries: Sequence[int], spec: NoiseSpec, n_positions: int
) -> list[int]:
    """Simulate miss / shift / extra segmentation failures.

    Each boundary is perturbed with probability ``spec.eta``: a fair coin
    picks deletion or a uniform shift from {-2, -1, +1, +2} clamped into
    range.  Afterwards ``round(eta * len(boundaries))`` extra uniform cut
    points are inserted.  Only ``Random.random()`` draws are used, in a fixed
    order, so the stream is reproducible and easy to mirror in an oracle.
    """
    eta = spec.eta
    rng = random.Random(spec.seed)
    kept: list[int] = []
    for boundary in sorted(boundaries):
        if rng.random() < eta:
            if rng.random() < 0.5:
                continue
            shift = (-2, -1, 1, 2)[int(rng.random() * 4)]
            kept.append(min(max(boundary + shift, 0), n_positions - 1))
        else:
            kept.append(boundary)
    extras = round(eta * len(boundaries))
    for _ in range(extras):
        kept.append(int(rng.random() * n_positions))
    return sorted(set(kept))


def _noisy_segmenter(segmenter: Segmenter, spec: NoiseSpec) -> Segmenter:
    """Perturb every verdict of ``segmenter`` with ``spec``.

    Each check draws its own stream, seeded from ``spec.seed`` and the
    snapshot's logical clock, so runs are reproducible and checks independent.
    """

    def segment(snapshot: MemorySnapshot, trigger: TriggerKind) -> BoundaryVerdict:
        verdict = segmenter(snapshot, trigger)
        buffer_len = len(snapshot.buffer)
        if buffer_len < 2:
            return verdict
        check_spec = replace(spec, seed=spec.seed * 2**32 + snapshot.logical_clock)
        perturbed = inject_noise(verdict.split_indices, check_spec, buffer_len - 1)
        return BoundaryVerdict(tuple(perturbed))

    return segment


def _whole_buffer_segmenter(cut_at_session_end: bool) -> Segmenter:
    """Heuristic strategies never consult the discriminator: a fired check
    consumes the whole buffer on an explicit request and at a session end if
    the strategy cuts there, and otherwise keeps it for the engine to judge."""

    def segment(snapshot: MemorySnapshot, trigger: TriggerKind) -> BoundaryVerdict:
        if trigger is TriggerKind.MANUAL or (
            cut_at_session_end and trigger is TriggerKind.SESSION_END
        ):
            return BoundaryVerdict((len(snapshot.buffer) - 1,))
        return BoundaryVerdict()

    return segment


# ---------------------------------------------------------------------------
# replay


@dataclass
class ReplayTelemetry:
    turns: int = 0
    sessions: int = 0
    reports: list[ConsolidationReport] = field(default_factory=list)
    session_end_triggers: int = 0
    pause_triggers: int = 0
    overflow_triggers: int = 0
    manual_triggers: int = 0
    discriminator_calls: int = 0

    @property
    def consolidations(self) -> int:
        return len(self.reports)


def parse_strategy(name: str) -> tuple[str, int | None]:
    """Split ``fixed_window:256`` style names into (kind, parameter)."""
    kind, _, param = name.partition(":")
    if kind in ("semantic", "session"):
        if param:
            raise ValueError(f"strategy {kind} takes no parameter")
        return kind, None
    if kind in ("fixed_window", "fixed_turns"):
        if not param.isdigit() or int(param) < 1:
            raise ValueError(f"strategy {kind} needs a positive integer parameter")
        return kind, int(param)
    raise ValueError(f"unknown strategy {name!r}")


def replay(
    corpus: DialogueCorpus,
    engine: MemoryEngine,
    strategy: str = "semantic",
    noise: NoiseSpec | None = None,
) -> tuple[MemorySnapshot, ReplayTelemetry]:
    """Feed the corpus through the engine under one partitioning strategy.

    Every strategy runs the same loop: ``observe`` per turn, then
    ``end_session``.  The strategy is installed as the engine's segmenter.
    Semantic consults the discriminator at each fired trigger, its verdicts
    perturbed when ``noise`` is given.  The heuristic strategies cut whole
    buffers: ``session`` at session ends, ``fixed_turns``/``fixed_window``
    through an explicit check (counted as ``manual``) once the buffer holds
    the configured number of turns or tokens.
    """
    kind, param = parse_strategy(strategy)
    if kind == "semantic":
        engine.segmenter = engine.detect_boundary
        if noise is not None:
            engine.segmenter = _noisy_segmenter(engine.segmenter, noise)
    else:
        engine.segmenter = _whole_buffer_segmenter(kind == "session")
    telemetry = ReplayTelemetry()
    triggers_before = dict(engine.trigger_counts)
    discriminator_before = engine.providers.call_log.count("discriminator")

    for turn in corpus.turns:
        telemetry.reports.extend(
            engine.observe(
                turn.session_id,
                turn.speaker,
                turn.text,
                turn.timestamp,
                turn.turn_index,
            )
        )
        telemetry.turns += 1
        buffered = engine.snapshot.active_event_graph
        if (kind == "fixed_turns" and len(buffered) >= param) or (
            kind == "fixed_window" and buffered.token_total >= param
        ):
            telemetry.reports.extend(engine.check_now())
    telemetry.reports.extend(engine.end_session())

    fired = {k: n - triggers_before[k] for k, n in engine.trigger_counts.items()}
    telemetry.sessions = len(corpus.sessions)
    telemetry.session_end_triggers = fired[TriggerKind.SESSION_END]
    telemetry.pause_triggers = fired[TriggerKind.INTERACTION_PAUSE]
    telemetry.overflow_triggers = fired[TriggerKind.BUFFER_OVERFLOW]
    telemetry.manual_triggers = fired[TriggerKind.MANUAL]
    telemetry.discriminator_calls = (
        engine.providers.call_log.count("discriminator") - discriminator_before
    )
    return engine.snapshot, telemetry


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    items: int
    failed_items: int
    recall_at_k: float | None
    per_category: dict
    tokens_per_query: float


def evaluate(
    corpus: DialogueCorpus,
    snapshot: MemorySnapshot,
    providers: ProviderBundle,
) -> EvalResult:
    """Run every QA item through retrieval and aggregate the metrics.

    Evidence recall@k is averaged over the items that name evidence turns,
    overall and per category.  Per-item failures are logged, counted and
    excluded.  The snapshot is never mutated.
    """
    lookup = event_lookup(snapshot)
    log_start = len(providers.call_log)
    recalls: dict[str, list[float]] = {c: [] for c in CATEGORIES}
    failed = 0
    evaluated = 0

    for item in corpus.qa:
        try:
            ranked = retrieve(snapshot, Query(item.question), providers)
        except GraphMemError as exc:
            logger.warning("QA item failed, excluded: %s", exc)
            failed += 1
            continue
        evaluated += 1
        if item.evidence_turn_ids:
            retrieved_turns = [
                f"{lookup[c.event_node_id].session_id}:{lookup[c.event_node_id].turn_index}"
                for c in ranked
            ]
            recalls[item.category].append(
                recall_at_k(retrieved_turns, item.evidence_turn_ids)
            )

    per_category = {
        c: {"count": len(recalls[c]), "recall_at_k": _mean(recalls[c])}
        for c in CATEGORIES
    }
    return EvalResult(
        items=evaluated,
        failed_items=failed,
        recall_at_k=_mean([v for vs in recalls.values() for v in vs]),
        per_category=per_category,
        tokens_per_query=record_usage(providers.call_log, evaluated, log_start),
    )


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# scaling telemetry


def scaling_report(
    corpus: DialogueCorpus,
    engine: MemoryEngine,
    checkpoints: Sequence[int],
) -> list[dict]:
    """Replay incrementally and snapshot growth plus query cost per checkpoint.

    The engine must start empty.  A session counts as done when the next
    turn belongs to another session or the corpus ends.  At each checkpoint
    the turns since the previous one are replayed semantically (which
    flushes the pending session end) and the QA set is evaluated; each row
    reports archived event nodes, theme count, total edge count, and
    per-query token cost.  Turns after the last checkpoint reached are not
    ingested, since no row reports them.
    """
    if engine.snapshot.logical_clock != 0:
        raise ValueError("scaling_report needs a fresh engine")
    checkpoints = set(checkpoints)
    turns = corpus.turns
    rows = []
    sessions_done = replayed = 0
    for end in range(1, len(turns) + 1):
        if end < len(turns) and turns[end].session_id == turns[end - 1].session_id:
            continue
        sessions_done += 1
        if sessions_done in checkpoints:
            snapshot, _ = replay(DialogueCorpus(turns[replayed:end]), engine)
            replayed = end
            tokens = evaluate(corpus, snapshot, engine.providers).tokens_per_query
            rows.append(
                {"sessions": sessions_done, **memory_stats(snapshot), "tokens_per_query": tokens}
            )
    return rows


# ---------------------------------------------------------------------------
# reports and criteria


def format_table(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """Aligned-column text table for terminal output."""
    def render(value) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        if value is None:
            return "-"
        return str(value)

    table = [[render(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(header), *(len(line[i]) for line in table)) if table else len(header)
        for i, header in enumerate(columns)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for line in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


_OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_criteria(criteria: object) -> list[dict]:
    """``criteria`` itself if it is a list of well-formed {metric, op, value}
    rules; raises ``ValueError`` naming the first malformed rule otherwise."""
    if not isinstance(criteria, list):
        raise ValueError("criteria must be a list of rules")
    for row, rule in enumerate(criteria):
        if not isinstance(rule, dict) or not isinstance(rule.get("metric"), str):
            raise ValueError(f"criteria rule {row}: expected an object with a metric")
        op = rule.get("op")
        if not isinstance(op, str) or op not in _OPS:
            raise ValueError(f"criteria rule {row}: unknown op {op!r}")
        if not _is_number(rule.get("value")):
            raise ValueError(f"criteria rule {row}: value must be a number")
    return criteria


def check_criteria(report: dict, criteria: list[dict]) -> list[str]:
    """Evaluate threshold rules of the form {metric, op, value} against a
    report; ``metric`` is a dotted path into the report document.

    Malformed rules (see :func:`validate_criteria`), or a rule naming a
    report value that is neither a number nor null, raise ``ValueError``; a
    missing or null value and a failed comparison are violations.
    """
    violations = []
    for row, rule in enumerate(validate_criteria(criteria)):
        path, op, target = rule["metric"], rule["op"], rule["value"]
        value = report
        try:
            for part in path.split("."):
                value = value[part]
        except (KeyError, TypeError):
            violations.append(f"{path}: missing from report")
            continue
        if value is not None and not _is_number(value):
            raise ValueError(f"criteria rule {row}: {path} is not a number")
        if value is None or not _OPS[op](value, target):
            violations.append(f"{path}: {value} not {op} {target}")
    return violations
