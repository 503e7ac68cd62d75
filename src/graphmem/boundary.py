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
from .store import checked_vector

logger = logging.getLogger(__name__)


class TriggerKind(Enum):
    SESSION_END = "session_end"
    INTERACTION_PAUSE = "interaction_pause"
    BUFFER_OVERFLOW = "buffer_overflow"
    MANUAL = "manual"


@dataclass(frozen=True)
class BoundaryVerdict:
    """Outcome of one discriminator consultation.

    ``split_indices`` are strictly increasing positions ``i`` meaning the
    topic changes between utterance ``i`` and ``i + 1``.  A forced verdict
    carries the single index ``len(buffer) - 1``, which consumes the whole
    buffer.
    """

    split_indices: tuple[int, ...] = ()
    forced: bool = False

    def __post_init__(self) -> None:
        if list(self.split_indices) != sorted(set(self.split_indices)):
            raise ValueError("split_indices must be strictly increasing")
        if self.split_indices and self.split_indices[0] < 0:
            raise ValueError("split_indices must be non-negative")


def check_boundary(
    snapshot: MemorySnapshot,
    trigger: TriggerKind,
    discriminator: BoundaryDiscriminator,
    embedder: Embedder,
) -> BoundaryVerdict:
    """Consult the discriminator once and normalise the outcome.

    Transport failures propagate (they are retriable by the caller), and
    so does an unusable embedding in the heuristic.  A
    parse failure that survived the provider's own repair pass, or a reply
    that is not a list of exact integers, falls back to the embedding
    heuristic over ``embedder``, with a logged warning.  Never mutates the
    snapshot.
    """
    buffer = snapshot.buffer
    if not buffer:
        raise StateError("boundary check on an empty buffer")
    if (
        trigger is TriggerKind.BUFFER_OVERFLOW
        and snapshot.active_event_graph.token_total <= snapshot.config.buffer_token_limit
    ):
        raise StateError("overflow trigger without an overflowing buffer")

    try:
        indices = discriminator.detect(buffer)
        if type(indices) is not list or not all(type(i) is int for i in indices):
            raise ProviderParseError("boundaries must be integers in a list")
    except ProviderParseError as exc:
        logger.warning("discriminator output unusable (%s); using heuristic", exc)
        indices = heuristic_discriminator(
            buffer, embedder, snapshot.config.heuristic_cutoff
        )

    valid = tuple(sorted({i for i in indices if 0 <= i < len(buffer) - 1}))
    if trigger is TriggerKind.BUFFER_OVERFLOW and not valid:
        return BoundaryVerdict((len(buffer) - 1,), forced=True)
    return BoundaryVerdict(valid)


def heuristic_discriminator(
    buffer: Sequence[EventNode],
    embedder: Embedder,
    cutoff: float,
) -> list[int]:
    """Offline stand-in for the model discriminator, answering as ``detect``.

    Declares a shift when the mean embeddings of the buffer's two halves
    diverge (cosine below ``cutoff``); the reported split sits at the
    prefix/suffix cut with the lowest cosine.  An embedding that is not
    ``embedder.dim`` finite numbers raises :class:`ProviderParseError`.
    """
    if len(buffer) < 2:
        return []

    vectors = np.stack(
        [checked_vector(embedder.embed(n.text), embedder.dim) for n in buffer]
    )
    half = len(buffer) // 2
    similarity = _mean_cosine(vectors[:half], vectors[half:])
    if similarity >= cutoff:
        return []
    cuts = [
        _mean_cosine(vectors[: i + 1], vectors[i + 1 :])
        for i in range(len(buffer) - 1)
    ]
    return [int(np.argmin(cuts))]


def _mean_cosine(first: np.ndarray, second: np.ndarray) -> float:
    a = first.mean(axis=0)
    b = second.mean(axis=0)
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom < 1e-12:
        return 0.0
    return float(np.dot(a, b) / denom)
