"""Embeddable two-layer graph memory engine for long-horizon dialogue.

Fast episodic buffering is decoupled from event-triggered semantic
consolidation over a topic graph, with graph-guided multi-factor retrieval
bridging the layers.  Deterministic mock providers make the whole engine
testable offline; an HTTP adapter swaps real models in behind the same
interfaces.
"""

from .boundary import (
    BoundaryTrigger,
    BoundaryVerdict,
    TriggerKind,
    check_boundary,
    heuristic_discriminator,
)
from .config import EngineConfig, estimate_tokens
from .consolidation import (
    ConsolidationReport,
    apply_verdict,
    consolidate_segment,
    score_relation,
    select_candidates,
)
from .core import (
    EngineState,
    EventGraph,
    EventNode,
    MemorySnapshot,
    Relation,
    TopicEdge,
    TopicGraph,
    TopicNode,
    Utterance,
    append_event,
    insert_topic_node,
    neighbors,
    new_snapshot,
    snapshot_hash,
)
from .engine import MemoryEngine
from .errors import (
    ConsolidationError,
    CorruptionError,
    GraphMemError,
    ProviderError,
    ProviderParseError,
    ProviderTransportError,
    StateError,
)
from .harness import (
    DialogueCorpus,
    NoiseSpec,
    QAItem,
    Turn,
    evaluate,
    inject_noise,
    load_corpus,
    replay,
    scaling_report,
)
from .providers import CallLog, ProviderBundle, mock_bundle, record_usage
from .retrieval import (
    Query,
    RankedCandidate,
    anchor,
    drill_down,
    rerank,
    retrieve,
)
from .store import load, save, vector_topk

__version__ = "0.1.0"

__all__ = [
    "BoundaryTrigger",
    "BoundaryVerdict",
    "CallLog",
    "ConsolidationError",
    "ConsolidationReport",
    "CorruptionError",
    "DialogueCorpus",
    "EngineConfig",
    "EngineState",
    "EventGraph",
    "EventNode",
    "GraphMemError",
    "MemoryEngine",
    "MemorySnapshot",
    "NoiseSpec",
    "ProviderBundle",
    "ProviderError",
    "ProviderParseError",
    "ProviderTransportError",
    "QAItem",
    "Query",
    "RankedCandidate",
    "Relation",
    "StateError",
    "TopicEdge",
    "TopicGraph",
    "TopicNode",
    "TriggerKind",
    "Turn",
    "Utterance",
    "anchor",
    "append_event",
    "apply_verdict",
    "check_boundary",
    "consolidate_segment",
    "drill_down",
    "estimate_tokens",
    "evaluate",
    "heuristic_discriminator",
    "inject_noise",
    "insert_topic_node",
    "load",
    "load_corpus",
    "mock_bundle",
    "neighbors",
    "new_snapshot",
    "record_usage",
    "replay",
    "rerank",
    "retrieve",
    "save",
    "scaling_report",
    "score_relation",
    "select_candidates",
    "snapshot_hash",
    "vector_topk",
]
