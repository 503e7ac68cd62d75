"""Evidence recall: the share of a QA item's evidence turns that retrieval
returned."""

from __future__ import annotations

from typing import Collection, Iterable


def recall_at_k(retrieved_ids: Iterable[str], evidence_ids: Collection[str]) -> float:
    if not evidence_ids:
        return 0.0
    hits = set(retrieved_ids) & set(evidence_ids)
    return len(hits) / len(evidence_ids)
