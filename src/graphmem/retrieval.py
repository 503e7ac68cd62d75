"""Graph-guided retrieval: anchor on themes, drill into archives, re-rank.

Stage one finds the nearest themes by embedding and widens the set with
their one-hop graph neighbors.  Stage two follows cross-layer links down to
the archived utterances behind those themes (plus the live buffer, so the
ongoing episode is never invisible); a frozen archive builds its candidates
on the first visit and keeps them as a derived value for every later query.
Stage three scores each utterance with a pairwise relevance probability
modulated multiplicatively by temporal, confidence and speaker-match boosts,
one column per factor, and builds result objects only for the top k.

The whole path is read-only and safe to run concurrently over one snapshot:
the cached candidates are never saved or compared, and a thread that finds
them missing or built under another theme builds its own.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import EngineConfig
from .core import (
    EventGraph,
    EventNode,
    LIVE_BUFFER_ID,
    MemorySnapshot,
    TopicGraph,
    neighbors,
)
from .errors import CorruptionError, ProviderError, ProviderParseError
from .providers import ProviderBundle, distinct_replies, real_number
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
        if type(self.text) is not str:
            raise ValueError("query text must be a str")
        if not self.text.strip():
            raise ValueError("query text must be non-empty")
        # Any other value would be taken by its truth: "no" would boost.
        if self.time_sensitive is not None and type(self.time_sensitive) is not bool:
            raise ValueError("query time_sensitive must be None or a bool")


@dataclass(frozen=True)
class AnchorSet:
    """Top themes by similarity plus their one-hop expansions."""

    seeds: tuple[tuple[str, float], ...]
    expansions: tuple[str, ...]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.seeds) + self.expansions


# Slotted: every archived utterance a query reaches keeps one, cached.
@dataclass(frozen=True, slots=True)
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
    """Collect the archived utterances behind every anchor, each once.

    Distinct anchors are visited in ascending id order.  Each theme
    consolidates an archive of its own (``t{k}`` is ``a{k}``'s), so no
    utterance is reached twice.
    """
    candidates: list[CandidateEvent] = []
    for anchor_id in sorted(set(anchors.ids)):
        if anchor_id not in snapshot.topic_graph.nodes:
            raise ValueError(f"unknown anchor {anchor_id}")
        archive_id = snapshot.topic_graph.nodes[anchor_id].source_archive_id
        graph = snapshot.archive.get(archive_id)
        if graph is None:
            raise CorruptionError("cross-index-target-exists", archive_id)
        candidates.extend(_graph_candidates(graph, archive_id, anchor_id))
    return candidates


def _graph_candidates(
    graph: EventGraph, archive_id: str, anchor_id: str
) -> tuple[CandidateEvent, ...]:
    """One candidate per node of ``graph`` under this provenance, kept on
    the graph as its derived ``candidates`` and reused while the provenance
    matches; a frozen archive is built once and shared by later snapshots."""
    cached = graph.candidates
    # The first candidate carries the provenance of the whole tuple; the
    # anchor names the archive.
    if cached and cached[0].anchor_topic_id == anchor_id:
        return cached
    built = tuple(CandidateEvent(node, archive_id, anchor_id) for node in graph.nodes)
    # A derived value: setting it changes nothing the graph saves or compares.
    object.__setattr__(graph, "candidates", built)
    return built


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


#: One shared, immutable IndicatorFlags per combination, indexed by
#: ``4 * time + 2 * conf + role``.
_FLAGS = tuple(IndicatorFlags(t, c, r) for t in (0, 1) for c in (0, 1) for r in (0, 1))


def _top_k(k: int | None, config: EngineConfig) -> int:
    """``k``, or the configured default for ``None``; anything but an int
    of at least 1 (a bool is not one) is a ``ValueError``."""
    if k is None:
        return config.retrieval_k
    if type(k) is not int:
        raise ValueError(f"k must be an int, not {type(k).__name__}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return k


def rerank(
    query: Query,
    candidates: Sequence[CandidateEvent],
    providers: ProviderBundle,
    config: EngineConfig,
    k: int | None = None,
    *,
    query_vector: np.ndarray | None = None,
) -> list[RankedCandidate]:
    """Score, boost and order candidates; return the top ``k``.

    Candidates are scored through
    :func:`~graphmem.providers.distinct_replies`, once per distinct text
    and in one batch when the scorer has ``score_many``.  The
    score is exactly
    ``p_sem * beta_time^t * beta_conf^c * beta_role^r``, computed as one
    column per factor.  Ties resolve to the more recent utterance (larger
    creation order, the number in its id), then the earlier candidate; only
    the top ``k`` become :class:`RankedCandidate` objects.  A failed item,
    or a score that is not a finite real number (see
    :func:`~graphmem.providers.real_number`), degrades every candidate with
    that text to its own embedding cosine, logs a warning for each, and
    marks it.  The cosine uses ``query_vector`` when
    given (the caller's checked query embedding), else embeds the query
    once; an embedding that is not ``embedding_dim`` finite numbers, or a
    cosine that is not finite, raises :class:`ProviderParseError`.  A ``k``
    that is not an int of at least 1 is a ``ValueError`` before any
    provider call.
    """
    k = _top_k(k, config)
    nodes = [c.node for c in candidates]
    scorer = providers.relevance_scorer
    replies = distinct_replies(
        scorer.score, query.text, [n.text for n in nodes], getattr(scorer, "score_many", None)
    )
    # A float, the common reply, pays one type test.
    values = [r if type(r) is float else real_number(r) for r in replies]
    p_sem = np.array(values, dtype=float)
    degraded = ~np.isfinite(p_sem)
    for position in np.flatnonzero(degraded).tolist():
        reply, node = replies[position], nodes[position]
        failure = reply
        if not isinstance(reply, ProviderError):
            kind = type(reply).__name__
            failure = ProviderParseError(f"relevance {values[position]} ({kind}) is not finite")
        logger.warning(
            "relevance scoring failed for %s (%s); degrading to cosine", node.id, failure
        )
        embed, dim = providers.embedder.embed, config.embedding_dim
        if query_vector is None:
            query_vector = checked_vector(embed(query.text), dim)
        text_vector = checked_vector(embed(node.text), dim)
        cosine = float(np.dot(query_vector, text_vector))
        if not math.isfinite(cosine):
            raise ProviderParseError(f"non-finite cosine {cosine}") from failure
        p_sem[position] = max(cosine, 0.01)
    # Clamp into [0, 1] as min(max(p, 0.0), 1.0) does, keeping -0.0.
    p_sem[p_sem < 0.0] = 0.0
    p_sem[p_sem > 1.0] = 1.0

    if is_time_sensitive(query):
        t = np.array([time_indicator(True, n) for n in nodes], dtype=np.intp)
    else:
        t = np.zeros(len(nodes), dtype=np.intp)
    c = np.array([n.confidence_flag for n in nodes], dtype=np.intp)
    lowered_query = query.text.lower()
    # The speaker match is computed once per distinct speaker.
    speakers = {n.speaker: n for n in nodes}
    role = {s: role_indicator(lowered_query, n) for s, n in speakers.items()}
    r = np.array([role[n.speaker] for n in nodes], dtype=np.intp)
    # Multiplied left to right like the formula, so every score is bit-exact.
    score = (
        p_sem
        * np.where(t, config.beta_time, 1.0)
        * np.where(c, config.beta_conf, 1.0)
        * np.where(r, config.beta_role, 1.0)
    )
    # Only rows scoring at least the k-th largest can rank, so only their ids
    # are parsed; a stable sort of that ascending shortlist orders it as a
    # sort of every row would.
    shortlist = np.arange(len(nodes))
    if len(nodes) > k:
        shortlist = np.flatnonzero(score >= np.partition(score, -k)[-k])
    creation = np.array([int(nodes[i].id[1:]) for i in shortlist.tolist()], dtype=np.int64)
    top = shortlist[np.lexsort((-creation, -score[shortlist]))[:k]]
    flags = 4 * t + 2 * c + r
    rows = zip(
        top.tolist(),
        p_sem[top].tolist(),
        score[top].tolist(),
        flags[top].tolist(),
        degraded[top].tolist(),
    )
    return [
        RankedCandidate(
            event_node_id=nodes[i].id,
            source_archive_id=candidates[i].source_archive_id,
            anchor_topic_id=candidates[i].anchor_topic_id,
            p_sem=p,
            indicators=_FLAGS[f],
            score=value,
            rank=rank,
            degraded=d,
        )
        for rank, (i, p, value, f, d) in enumerate(rows, 1)
    ]


def retrieve(
    snapshot: MemorySnapshot,
    query: Query,
    providers: ProviderBundle,
    k: int | None = None,
) -> list[RankedCandidate]:
    """Full three-stage pipeline over one immutable snapshot; the live
    buffer is always a candidate source.  A ``k`` that is not an int of at
    least 1 is a ``ValueError`` before the query is embedded; a query
    embedding that is not ``embedding_dim`` finite numbers raises
    :class:`ProviderParseError`."""
    config = snapshot.config
    k = _top_k(k, config)
    query_vector = checked_vector(
        providers.embedder.embed(query.text), config.embedding_dim
    )
    anchors = anchor(snapshot.topic_graph, query_vector, k)
    candidates = drill_down(snapshot, anchors)
    candidates.extend(
        _graph_candidates(snapshot.active_event_graph, LIVE_PROVENANCE, LIVE_PROVENANCE)
    )
    if not candidates:
        return []
    return rerank(query, candidates, providers, config, k, query_vector=query_vector)


def event_lookup(snapshot: MemorySnapshot) -> dict[str, EventNode]:
    """Event id to node map across archives and the live buffer."""
    table = {n.id: n for n in snapshot.buffer}
    for graph in snapshot.archive.values():
        for node in graph.nodes:
            table[node.id] = node
    return table
