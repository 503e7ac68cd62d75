"""Single-writer driver tying buffering, triggers and consolidation together.

The engine owns the current snapshot and is the only thing that mutates it.
Boundary checks fire solely on sparse events: a session change, an
interaction pause longer than the configured gap, buffer overflow after an
append, or an explicit request.  Where a fired check cuts is the
segmenter's decision; the default consults the discriminator once.  What
the cut consumes is the engine's: each segment up to the last split (a
shift at index 0 takes one turn, even on overflow), or the whole buffer for
an overflow verdict with no split.  Reads (``query``) run against the
immutable snapshot and can be shared freely across threads.
"""

from __future__ import annotations

import logging
import re
from datetime import datetime
from typing import Callable

from .boundary import BoundaryVerdict, TriggerKind, check_boundary
from .config import EngineConfig
from .consolidation import ConsolidationReport, apply_verdict
from .core import MemorySnapshot, Utterance, append_event, new_snapshot
from .providers import ProviderBundle
from .retrieval import Query, RankedCandidate, retrieve

logger = logging.getLogger(__name__)

Segmenter = Callable[[MemorySnapshot, TriggerKind], BoundaryVerdict]


#: The one timestamp grammar, on every Python version: ``YYYY-MM-DD``, then
#: optionally ``T`` or a space, ``HH:MM[:SS[.fff|.ffffff]]`` and a ``Z`` or
#: ``+HH:MM``/``-HH:MM`` offset.  ``datetime.fromisoformat`` alone accepts
#: more from Python 3.11 on (``20240101T100000``, ``10:00:00.5``), so the
#: same corpus would fire different pauses on different versions.
_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}|\.[0-9]{6})?)?"
    r"(?:Z|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?)?"
)


def _parse_timestamp(value: str | None) -> datetime | None:
    """The time a timestamp in the grammar names; ``None`` for anything
    else, including a date that does not exist."""
    if not value or _TIMESTAMP.fullmatch(value) is None:
        return None
    if value.endswith("Z"):
        value = value[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(value)
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
        # The last timestamp parsed, with its parse: a pause check reads the
        # previous turn's timestamp, which that turn's check parsed as its own.
        self._parsed: tuple[str | None, datetime | None] = (None, None)

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
        lands; a pause does the same within a session.  Both compare against
        the newest buffered turn: consolidation only ever takes a prefix, so
        while anything is buffered that is the previous turn.  Overflow is
        checked after the append so the budget breach itself is what forces
        the consolidation.  A turn that :class:`Utterance` rejects raises
        ``ValueError`` before any trigger fires, so the snapshot is unchanged.
        A fired check that raises propagates: the turn is not stored after a
        session-change or pause check, but is after an overflow check, so
        retrying that call would store it twice.
        """
        utterance = Utterance(session_id, speaker, text, timestamp, turn_index)
        reports: list[ConsolidationReport] = []
        if self._snapshot.buffer:
            last = self._snapshot.buffer[-1]
            if session_id != last.session_id:
                reports.extend(self._fire(TriggerKind.SESSION_END))
            elif self._pause_exceeded(last.timestamp, timestamp):
                reports.extend(self._fire(TriggerKind.INTERACTION_PAUSE))
        self._snapshot = append_event(self._snapshot, utterance)
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
        self, snapshot: MemorySnapshot, trigger: TriggerKind
    ) -> BoundaryVerdict:
        """The default segmenter: one consultation of the bundle's
        discriminator, falling back to the embedding heuristic."""
        return check_boundary(
            snapshot, self.providers.discriminator, self.providers.embedder
        )

    def query(self, query: Query | str, k: int | None = None) -> list[RankedCandidate]:
        """Retrieve over the current snapshot; any value that is not a
        :class:`Query` is taken as its text, so a non-string is a
        ``ValueError``."""
        if not isinstance(query, Query):
            query = Query(text=query)
        return retrieve(self._snapshot, query, self.providers, k)

    def _pause_exceeded(self, last: str | None, incoming: str | None) -> bool:
        """A gap needs two comparable times: a timestamp that is missing or
        outside the grammar (:data:`_TIMESTAMP`), or a UTC offset on only
        one side, never fires a pause."""
        previous = self._parse(last)
        current = self._parse(incoming)
        if previous is None or current is None:
            return False
        if (previous.tzinfo is None) != (current.tzinfo is None):
            return False
        gap = (current - previous).total_seconds() / 60.0
        return gap > self.config.pause_gap_minutes

    def _parse(self, value: str | None) -> datetime | None:
        if value != self._parsed[0]:
            self._parsed = (value, _parse_timestamp(value))
        return self._parsed[1]

    def _fire(self, kind: TriggerKind) -> list[ConsolidationReport]:
        if not self._snapshot.buffer:
            return []
        self.trigger_counts[kind] += 1
        verdict = self.segmenter(self._snapshot, kind)
        if kind is TriggerKind.BUFFER_OVERFLOW and not verdict.split_indices:
            verdict = BoundaryVerdict((len(self._snapshot.buffer) - 1,), forced=True)
        reports, self._snapshot = apply_verdict(
            self._snapshot, verdict, self.providers
        )
        return reports
