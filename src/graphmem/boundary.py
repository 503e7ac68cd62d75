"""Event-driven topic boundary detection over the live buffer.

The discriminator is only consulted at sparse maintenance events (session
end, a long interaction pause, buffer overflow, or an explicit request),
never per turn.  An overflow with no detected shift still forces a
whole-buffer consolidation so the token budget holds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import EventNode, MemorySnapshot
from .errors import ProviderParseError, StateError
from .providers import BoundaryDiscriminator, Embedder

logger = logging.getLogger(__name__)


class TriggerKind(Enum):
    SESSION_END = "session_end"
    INTERACTION_PAUSE = "interaction_pause"
    BUFFER_OVERFLOW = "buffer_overflow"
    MANUAL = "manual"


@dataclass(frozen=True)
class BoundaryTrigger:
    kind: TriggerKind
    observed_at: int


@dataclass(frozen=True)
class BoundaryVerdict:
    """Outcome of one discriminator consultation.

    ``split_indices`` are strictly increasing positions ``i`` meaning the
    topic changes between utterance ``i`` and ``i + 1``; a boundary is
    detected exactly when there is one.  A forced verdict carries the single
    index ``len(buffer) - 1``, which consumes the whole buffer.  ``degraded``
    marks verdicts produced by the heuristic fallback after the primary
    discriminator returned garbage.
    """

    split_indices: tuple[int, ...] = ()
    forced: bool = False
    degraded: bool = False

    def __post_init__(self) -> None:
        if list(self.split_indices) != sorted(set(self.split_indices)):
            raise ValueError("split_indices must be strictly increasing")
        if self.split_indices and self.split_indices[0] < 0:
            raise ValueError("split_indices must be non-negative")

    @property
    def boundary_detected(self) -> bool:
        return bool(self.split_indices)


def check_boundary(
    snapshot: MemorySnapshot,
    trigger: BoundaryTrigger,
    discriminator: BoundaryDiscriminator,
    fallback_embedder: Embedder | None = None,
) -> BoundaryVerdict:
    """Consult the discriminator once and normalise the outcome.

    Transport failures propagate (they are retriable by the caller); a parse
    failure that survived the provider's own repair pass degrades to the
    embedding heuristic when a fallback embedder is available.  Never
    mutates the snapshot.
    """
    buffer = snapshot.buffer
    if not buffer:
        raise StateError("boundary check on an empty buffer")
    if (
        trigger.kind is TriggerKind.BUFFER_OVERFLOW
        and snapshot.active_event_graph.token_total <= snapshot.config.buffer_token_limit
    ):
        raise StateError("overflow trigger without an overflowing buffer")

    degraded = False
    try:
        indices = discriminator.detect(buffer)
    except ProviderParseError as exc:
        if fallback_embedder is None:
            raise
        logger.warning("discriminator output unusable (%s); using heuristic", exc)
        verdict = heuristic_discriminator(
            buffer, fallback_embedder, snapshot.config.heuristic_cutoff
        )
        indices = list(verdict.split_indices)
        degraded = True

    valid = tuple(sorted({i for i in indices if 0 <= i < len(buffer) - 1}))
    if trigger.kind is TriggerKind.BUFFER_OVERFLOW and not valid:
        return BoundaryVerdict((len(buffer) - 1,), forced=True, degraded=degraded)
    return BoundaryVerdict(valid, degraded=degraded)


def heuristic_discriminator(
    buffer: Sequence[EventNode],
    embedder: Embedder,
    cutoff: float = 0.35,
) -> BoundaryVerdict:
    """Offline stand-in for the model discriminator.

    Declares a shift when the mean embeddings of the buffer's two halves
    diverge (cosine below ``cutoff``); the reported split sits at the
    prefix/suffix cut with the lowest cosine.
    """
    if not buffer:
        raise StateError("boundary check on an empty buffer")
    if len(buffer) < 2:
        return BoundaryVerdict()

    vectors = np.stack([embedder.embed(n.text) for n in buffer])
    half = len(buffer) // 2
    similarity = _mean_cosine(vectors[:half], vectors[half:])
    if similarity >= cutoff:
        return BoundaryVerdict()
    cuts = [
        _mean_cosine(vectors[: i + 1], vectors[i + 1 :])
        for i in range(len(buffer) - 1)
    ]
    split = int(np.argmin(cuts))
    return BoundaryVerdict((split,))


def _mean_cosine(first: np.ndarray, second: np.ndarray) -> float:
    a = first.mean(axis=0)
    b = second.mean(axis=0)
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom < 1e-12:
        return 0.0
    return float(np.dot(a, b) / denom)
