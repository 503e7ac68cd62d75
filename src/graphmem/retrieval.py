"""Graph-guided retrieval: anchor on themes, drill into archives, re-rank.

Stage one finds the nearest themes by embedding and widens the set with
their one-hop graph neighbors.  Stage two follows cross-layer links down to
the archived utterances behind those themes (plus the live buffer, so the
ongoing episode is never invisible).  Stage three scores each utterance with
a pairwise relevance probability modulated multiplicatively by temporal,
confidence and speaker-match boosts.

The whole path is read-only and safe to run concurrently over one snapshot.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import EngineConfig
from .core import EventNode, LIVE_BUFFER_ID, MemorySnapshot, TopicGraph, neighbors
from .errors import CorruptionError, ProviderError, ProviderParseError
from .providers import ProviderBundle
from .store import checked_vector, topic_index, vector_topk

logger = logging.getLogger(__name__)

LIVE_PROVENANCE = LIVE_BUFFER_ID

# Documented stand-in inventory for temporal expressions: month and weekday
# names, a few relative markers (including interrogative "when"), 4-digit
# years, and clock/date digit pairs.
TEMPORAL_RE = re.compile(
    r"\b(?:january|february|march|april|may|june|july|august|september"
    r"|october|november|december"
    r"|monday|tuesday|wednesday|thursday|friday|saturday|sunday"
    r"|yesterday|today|tomorrow|last|ago|next|when)\b"
    r"|\b\d{4}\b"
    r"|\b\d{1,2}[:/]\d{2}\b",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Query:
    text: str
    time_sensitive: bool | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("query text must be non-empty")


@dataclass(frozen=True)
class AnchorSet:
    """Top themes by similarity plus their one-hop expansions."""

    seeds: tuple[tuple[str, float], ...]
    expansions: tuple[str, ...]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.seeds) + self.expansions


@dataclass(frozen=True)
class CandidateEvent:
    node: EventNode
    source_archive_id: str
    anchor_topic_id: str


@dataclass(frozen=True, slots=True)
class IndicatorFlags:
    time: int
    conf: int
    role: int


# Slotted, like IndicatorFlags: callers such as evaluation keep every ranking.
@dataclass(frozen=True, slots=True)
class RankedCandidate:
    event_node_id: str
    source_archive_id: str
    anchor_topic_id: str
    p_sem: float
    indicators: IndicatorFlags
    score: float
    rank: int
    degraded: bool = False


def anchor(topic_graph: TopicGraph, query_embedding: np.ndarray, k: int) -> AnchorSet:
    """Seed on the top-k themes and expand one hop along theme edges."""
    if k < 1:
        raise ValueError("k must be >= 1")
    vector = np.asarray(query_embedding, dtype=float)
    seeds = vector_topk(topic_index(topic_graph, vector.shape[0]), vector, k)
    seed_ids = {s for s, _ in seeds}
    expanded: set[str] = set()
    for seed_id in seed_ids:
        expanded |= neighbors(topic_graph, seed_id)
    return AnchorSet(tuple(seeds), tuple(sorted(expanded - seed_ids)))


def drill_down(snapshot: MemorySnapshot, anchors: AnchorSet) -> list[CandidateEvent]:
    """Collect the archived utterances behind every anchor, deduplicated.

    Anchors are visited in ascending id order, so on any overlap a candidate
    keeps the smallest anchor id as its provenance.
    """
    candidates: list[CandidateEvent] = []
    seen: set[str] = set()
    for anchor_id in sorted(anchors.ids):
        if anchor_id not in snapshot.topic_graph.nodes:
            raise ValueError(f"unknown anchor {anchor_id}")
        archive_id = snapshot.topic_graph.nodes[anchor_id].source_archive_id
        graph = snapshot.archive.get(archive_id)
        if graph is None:
            raise CorruptionError("cross-index-target-exists", archive_id)
        for node in graph.nodes:
            if node.id not in seen:
                seen.add(node.id)
                candidates.append(CandidateEvent(node, archive_id, anchor_id))
    return candidates


def is_time_sensitive(query: Query) -> bool:
    if query.time_sensitive is not None:
        return query.time_sensitive
    return bool(TEMPORAL_RE.search(query.text))


def time_indicator(time_sensitive: bool, candidate: EventNode) -> int:
    """1 when a time-sensitive query meets a timestamped utterance or one
    with a temporal expression; the text is searched only when needed."""
    return int(
        time_sensitive
        and bool(candidate.timestamp or TEMPORAL_RE.search(candidate.text))
    )


def role_indicator(lowered_query: str, candidate: EventNode) -> int:
    """1 when the speaker's name occurs in the lower-cased query text."""
    speaker = candidate.speaker.lower()
    return int(bool(speaker) and speaker in lowered_query)


def conf_indicator(candidate: EventNode) -> int:
    return int(candidate.confidence_flag)


def rerank(
    query: Query,
    candidates: Sequence[CandidateEvent],
    providers: ProviderBundle,
    config: EngineConfig,
    k: int | None = None,
) -> list[RankedCandidate]:
    """Score, boost and order candidates; return the top ``k``.

    The score is exactly ``p_sem * beta_time^t * beta_conf^c * beta_role^r``.
    Ties resolve to the more recent utterance (larger creation order), then
    the smaller node id.  A relevance-provider failure, or a score that is
    not finite, degrades that candidate to embedding cosine and marks it;
    an embedding that is not ``embedding_dim`` finite numbers, or a cosine
    that is not finite, raises :class:`ProviderParseError`.
    """
    if k is None:
        k = config.retrieval_k
    scored: list[RankedCandidate] = []
    query_vector = None
    time_sensitive = is_time_sensitive(query)
    lowered_query = query.text.lower()
    for candidate in candidates:
        degraded = False
        try:
            p_sem = float(providers.relevance_scorer.score(query.text, candidate.node.text))
            if not math.isfinite(p_sem):
                raise ProviderParseError(f"non-finite relevance {p_sem}")
        except ProviderError as exc:
            logger.warning(
                "relevance scoring failed for %s (%s); degrading to cosine",
                candidate.node.id,
                exc,
            )
            embed, dim = providers.embedder.embed, config.embedding_dim
            if query_vector is None:
                query_vector = checked_vector(embed(query.text), dim)
            text_vector = checked_vector(embed(candidate.node.text), dim)
            cosine = float(np.dot(query_vector, text_vector))
            if not math.isfinite(cosine):
                raise ProviderParseError(f"non-finite cosine {cosine}") from exc
            p_sem = max(cosine, 0.01)
            degraded = True
        p_sem = min(max(p_sem, 0.0), 1.0)
        flags = IndicatorFlags(
            time=time_indicator(time_sensitive, candidate.node),
            conf=conf_indicator(candidate.node),
            role=role_indicator(lowered_query, candidate.node),
        )
        score = (
            p_sem
            * config.beta_time**flags.time
            * config.beta_conf**flags.conf
            * config.beta_role**flags.role
        )
        scored.append(
            RankedCandidate(
                event_node_id=candidate.node.id,
                source_archive_id=candidate.source_archive_id,
                anchor_topic_id=candidate.anchor_topic_id,
                p_sem=p_sem,
                indicators=flags,
                score=score,
                rank=0,
                degraded=degraded,
            )
        )
    scored.sort(
        key=lambda c: (-c.score, -int(c.event_node_id[1:]), c.event_node_id)
    )
    return [
        replace(c, rank=position + 1) for position, c in enumerate(scored[:k])
    ]


def retrieve(
    snapshot: MemorySnapshot,
    query: Query,
    providers: ProviderBundle,
    k: int | None = None,
) -> list[RankedCandidate]:
    """Full three-stage pipeline over one immutable snapshot; the live
    buffer is always a candidate source.  A query embedding that is not
    ``embedding_dim`` finite numbers raises :class:`ProviderParseError`."""
    config = snapshot.config
    if k is None:
        k = config.retrieval_k
    query_vector = checked_vector(
        providers.embedder.embed(query.text), config.embedding_dim
    )
    anchors = anchor(snapshot.topic_graph, query_vector, k)
    candidates = drill_down(snapshot, anchors)
    candidates.extend(
        CandidateEvent(node, LIVE_PROVENANCE, LIVE_PROVENANCE)
        for node in snapshot.buffer
    )
    if not candidates:
        return []
    return rerank(query, candidates, providers, config, k)


def event_lookup(snapshot: MemorySnapshot) -> dict[str, EventNode]:
    """Event id to node map across archives and the live buffer."""
    table = {n.id: n for n in snapshot.buffer}
    for graph in snapshot.archive.values():
        for node in graph.nodes:
            table[node.id] = node
    return table
