"""Single-writer driver tying buffering, triggers and consolidation together.

The engine owns the current snapshot and is the only thing that mutates it.
Boundary checks fire solely on sparse events: a session change, an
interaction pause longer than the configured gap, buffer overflow after an
append, or an explicit request.  What a fired check cuts is the segmenter's
decision; the default consults the discriminator once.  Reads (``query``)
run against the immutable snapshot and can be shared freely across threads.
"""

from __future__ import annotations

import logging
from datetime import datetime
from typing import Callable

from .boundary import BoundaryTrigger, BoundaryVerdict, TriggerKind, check_boundary
from .config import EngineConfig
from .consolidation import ConsolidationReport, apply_verdict
from .core import MemorySnapshot, Utterance, append_event, new_snapshot
from .providers import ProviderBundle
from .retrieval import Query, RankedCandidate, retrieve

logger = logging.getLogger(__name__)

Segmenter = Callable[[MemorySnapshot, BoundaryTrigger], BoundaryVerdict]


def _parse_timestamp(value: str | None) -> datetime | None:
    if not value:
        return None
    try:
        return datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        return None


class MemoryEngine:
    """Owns one snapshot and applies the full maintenance lifecycle to it."""

    def __init__(
        self,
        providers: ProviderBundle,
        config: EngineConfig | None = None,
        snapshot: MemorySnapshot | None = None,
    ):
        if snapshot is not None and config is not None and snapshot.config != config:
            raise ValueError("snapshot carries a different config")
        self.providers = providers
        self._snapshot = snapshot if snapshot is not None else new_snapshot(config)
        self.segmenter: Segmenter = self.detect_boundary
        self.trigger_counts: dict[TriggerKind, int] = {k: 0 for k in TriggerKind}
        buffer = self._snapshot.buffer
        self._last_session = buffer[-1].session_id if buffer else None
        self._last_timestamp = buffer[-1].timestamp if buffer else None

    @property
    def snapshot(self) -> MemorySnapshot:
        return self._snapshot

    @property
    def config(self) -> EngineConfig:
        return self._snapshot.config

    def observe(
        self,
        session_id: str,
        speaker: str,
        text: str,
        timestamp: str | None = None,
        turn_index: int | None = None,
    ) -> list[ConsolidationReport]:
        """Ingest one utterance, firing any trigger it implies first.

        A session change checks the old buffer before the new session's turn
        lands; a pause does the same within a session.  Overflow is checked
        after the append so the budget breach itself is what forces the
        consolidation.
        """
        reports: list[ConsolidationReport] = []
        if self._snapshot.buffer:
            if self._last_session is not None and session_id != self._last_session:
                reports.extend(self._fire(TriggerKind.SESSION_END))
            elif self._pause_exceeded(timestamp):
                reports.extend(self._fire(TriggerKind.INTERACTION_PAUSE))
        self._snapshot = append_event(
            self._snapshot,
            Utterance(session_id, speaker, text, timestamp, turn_index),
        )
        self._last_session = session_id
        self._last_timestamp = timestamp
        if self._snapshot.active_event_graph.token_total > self.config.buffer_token_limit:
            reports.extend(self._fire(TriggerKind.BUFFER_OVERFLOW))
        return reports

    def end_session(self) -> list[ConsolidationReport]:
        """Fire the session-end check for whatever is buffered."""
        return self._fire(TriggerKind.SESSION_END)

    def check_now(self) -> list[ConsolidationReport]:
        """Explicitly requested boundary check."""
        return self._fire(TriggerKind.MANUAL)

    def detect_boundary(
        self, snapshot: MemorySnapshot, trigger: BoundaryTrigger
    ) -> BoundaryVerdict:
        """The default segmenter: one consultation of the bundle's
        discriminator, falling back to the embedding heuristic."""
        return check_boundary(
            snapshot,
            trigger,
            self.providers.discriminator,
            fallback_embedder=self.providers.embedder,
        )

    def query(self, query: Query | str, k: int | None = None) -> list[RankedCandidate]:
        if isinstance(query, str):
            query = Query(text=query)
        return retrieve(self._snapshot, query, self.providers, k)

    def _pause_exceeded(self, incoming: str | None) -> bool:
        previous = _parse_timestamp(self._last_timestamp)
        current = _parse_timestamp(incoming)
        if previous is None or current is None:
            return False
        gap = (current - previous).total_seconds() / 60.0
        return gap > self.config.pause_gap_minutes

    def _fire(self, kind: TriggerKind) -> list[ConsolidationReport]:
        if not self._snapshot.buffer:
            return []
        self.trigger_counts[kind] += 1
        trigger = BoundaryTrigger(kind, self._snapshot.logical_clock)
        verdict = self.segmenter(self._snapshot, trigger)
        reports, self._snapshot = apply_verdict(
            self._snapshot, verdict, self.providers
        )
        return reports
