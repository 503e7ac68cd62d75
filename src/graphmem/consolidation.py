"""Transactional merge of a buffered episode into the topic layer.

One consolidation summarizes a buffer prefix, embeds the summary, scores it
against a small vector-retrieved candidate pool (never the whole graph),
admits edges above the confidence threshold, archives the prefix, and wires
the cross-layer link.  The entire transition is all-or-nothing: a failed
summary or embedding (a summary or keyword that is not a string, a blank
summary, or an embedding that is not ``embedding_dim`` finite numbers with
a positive norm) leaves the caller's snapshot untouched, while a failed
relation score only drops that one candidate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary import BoundaryVerdict
from .core import (
    EventNode,
    MemorySnapshot,
    Relation,
    RELATION_LABELS,
    TopicEdge,
    TopicGraph,
    TopicNode,
    UNRELATED,
    archive_segment,
    insert_topic_node,
    next_topic_id,
    raw_text,
)
from .errors import ConsolidationError, ProviderError, ProviderParseError
from .providers import ProviderBundle, RelationScorer, real_number
from .store import checked_vector, topic_index, vector_topk

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConsolidationReport:
    """Audit record for one committed consolidation."""

    new_topic_id: str
    archive_id: str
    candidate_pool: tuple[tuple[str, float], ...]
    scored_relations: tuple[tuple[str, str, float], ...]
    accepted_edges: int
    forced: bool
    provider_tokens: dict
    skipped_candidates: tuple[str, ...] = ()
    entailment_defaults: int = 0


def select_candidates(
    topic_graph: TopicGraph,
    summary_embedding: np.ndarray,
    k_cand: int,
) -> list[tuple[str, float]]:
    """The coarse retrieval step: nearest themes by cosine, ties by id."""
    vector = np.asarray(summary_embedding, dtype=float)
    norm = float(np.linalg.norm(vector))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"summary embedding must be unit-normalized, norm={norm}")
    return vector_topk(topic_index(topic_graph, vector.shape[0]), vector, k_cand)


def score_relation(
    first_summary: str,
    second_summary: str,
    scorer: RelationScorer,
) -> tuple[str, float]:
    """Label and weight for one candidate pair.

    Output that is still malformed after the provider's own repair pass, or
    that is not a pair of a label in ``RELATION_LABELS`` and a real weight
    in ``[0, 1]``, is demoted to ``(unrelated, 0)`` and logged rather than
    failing the transaction; transport failures propagate so the caller can
    skip the candidate.
    """
    if not first_summary or not second_summary:
        raise ValueError("both summaries must be non-empty")
    try:
        reply = scorer.score(first_summary, second_summary)
    except ProviderParseError as exc:
        logger.warning("relation scorer output unusable (%s); treating as unrelated", exc)
        return UNRELATED, 0.0
    try:
        label, weight = reply
    except (TypeError, ValueError):
        label = weight = None
    weight = weight if type(weight) is float else real_number(weight)
    if not (isinstance(label, str) and label in RELATION_LABELS and 0.0 <= weight <= 1.0):
        logger.warning("relation scorer returned invalid %r", reply)
        return UNRELATED, 0.0
    return label, weight


def consolidate_segment(
    snapshot: MemorySnapshot,
    segment: Sequence[EventNode],
    providers: ProviderBundle,
    forced: bool = False,
) -> tuple[ConsolidationReport, MemorySnapshot]:
    """Merge the given buffer prefix into the topic layer.

    ``segment`` must be exactly a prefix of the active buffer; the committed
    snapshot has that prefix archived, one new theme, one new cross link,
    and the remaining suffix still buffered.  Raises
    :class:`ConsolidationError` on abort, leaving the input snapshot the
    caller holds fully intact.
    """
    buffer = snapshot.buffer
    if not segment:
        raise ValueError("segment must be non-empty")
    if len(segment) > len(buffer) or any(
        node.id != buffer[i].id for i, node in enumerate(segment)
    ):
        raise ValueError("segment must be a prefix of the active buffer")

    config = snapshot.config
    log_start = len(providers.call_log)
    segment_nodes = buffer[: len(segment)]
    content = raw_text(segment_nodes)

    try:
        summary_result = providers.summarizer.summarize(content)
        summary = getattr(summary_result, "summary", None)
        keywords = getattr(summary_result, "keywords", None)
        # Exact types, as the loader reads them back.
        if not (
            type(summary) is str
            and isinstance(keywords, (tuple, list))
            and all(type(keyword) is str for keyword in keywords)
        ):
            raise ConsolidationError("aborted: summary and keywords must be strings")
        if not summary.strip():
            raise ConsolidationError("aborted: blank summary")
        embedding = checked_vector(
            providers.embedder.embed(summary), config.embedding_dim
        )
    except ProviderError as exc:
        raise ConsolidationError(f"aborted: {exc}") from exc
    norm = float(np.linalg.norm(embedding))
    # Finite entries can still overflow the norm, which would normalize to NaN.
    if not 1e-12 <= norm < math.inf:
        raise ConsolidationError("aborted: degenerate summary embedding")
    embedding = embedding / norm

    flags = []
    entailment_defaults = 0
    for node in segment_nodes:
        try:
            flags.append(bool(providers.entailment.entails(summary, node.text)))
        except ProviderError:
            # The flag is advisory; default to trusted rather than aborting.
            flags.append(True)
            entailment_defaults += 1

    new_id = next_topic_id(snapshot)
    candidates = select_candidates(snapshot.topic_graph, embedding, config.k_cand)
    scored: list[tuple[str, str, float]] = []
    skipped: list[str] = []
    for topic_id, _similarity in candidates:
        other = snapshot.topic_graph.nodes[topic_id]
        try:
            label, weight = score_relation(
                summary, other.summary, providers.relation_scorer
            )
        except ProviderError as exc:
            logger.warning("relation scoring failed for %s: %s", topic_id, exc)
            skipped.append(topic_id)
            continue
        scored.append((topic_id, label, weight))

    edges = [
        TopicEdge(
            from_id=new_id, to_id=topic_id, relation=Relation(label), weight=weight
        )
        for topic_id, label, weight in scored
        if label != UNRELATED and weight > config.tau
    ]

    archive_id, archived = archive_segment(snapshot, len(segment_nodes), flags)
    node = TopicNode(
        id=new_id,
        summary=summary,
        keywords=tuple(keywords),
        embedding=tuple(float(x) for x in embedding),
        created_at=archived.logical_clock,
        source_archive_id=archive_id,
    )
    committed = insert_topic_node(archived, node, edges)

    tokens_in, tokens_out = providers.call_log.token_totals(log_start)
    report = ConsolidationReport(
        new_topic_id=new_id,
        archive_id=archive_id,
        candidate_pool=tuple(candidates),
        scored_relations=tuple(scored),
        accepted_edges=len(edges),
        forced=forced,
        provider_tokens={"input": tokens_in, "output": tokens_out},
        skipped_candidates=tuple(skipped),
        entailment_defaults=entailment_defaults,
    )
    return report, committed


def apply_verdict(
    snapshot: MemorySnapshot,
    verdict: BoundaryVerdict,
    providers: ProviderBundle,
) -> tuple[list[ConsolidationReport], MemorySnapshot]:
    """Consolidate each maximal segment a verdict identifies, in order.

    Content after the last split stays buffered; a forced verdict consumes
    the whole buffer.  If a segment aborts, earlier committed segments stay
    committed and the remaining buffer is retained untouched.
    """
    reports = []
    consumed = -1
    for split in verdict.split_indices:
        # Splits are positions in the original buffer; each consumed prefix
        # shifts the remaining indices left.
        length = split - consumed
        segment = snapshot.buffer[:length]
        try:
            report, snapshot = consolidate_segment(
                snapshot, segment, providers, forced=verdict.forced
            )
        except ConsolidationError as exc:
            logger.warning("segment consolidation aborted, buffer retained: %s", exc)
            break
        reports.append(report)
        consumed = split
    return reports, snapshot
