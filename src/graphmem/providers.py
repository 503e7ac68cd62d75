"""Model-facing interfaces plus the deterministic mock implementations.

The mock providers are the test substrate: pure functions of their inputs
and the config seed, so any two runs produce identical call logs and
identical downstream snapshots.  Real model backends plug in through the
same protocols (see :mod:`graphmem.http`).
"""

from __future__ import annotations

import hashlib
import math
import numbers
import re
import threading
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

import numpy as np

from .config import EngineConfig, estimate_tokens
from .core import UNRELATED, EventNode, Relation
from .errors import ProviderError, ProviderParseError

_WORD_RE = re.compile(r"[a-z0-9]+")

#: Small closed stopword list for keyword/divergence mocks.  Content words
#: are whatever survives this filter.
STOPWORDS = frozenset(
    """a an the and or but if then so of to in on at for with from by as is are
    was were be been being am do does did have has had will would can could
    should not no yes it its this that these those i you he she we they me him
    her us them my your his our their what which who whom when where how why
    about""".split()
)


def words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def content_words(text: str) -> set[str]:
    return {w for w in words(text) if w not in STOPWORDS and len(w) > 1}


def jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


# ---------------------------------------------------------------------------
# protocols


class Embedder(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


class BoundaryDiscriminator(Protocol):
    def detect(self, utterances: Sequence[EventNode]) -> list[int]: ...


class Summarizer(Protocol):
    def summarize(self, content: str) -> "SummaryResult": ...


class RelationScorer(Protocol):
    """Labels and weighs the relation between two theme summaries.

    A consolidation asks it once per distinct candidate summary (see
    :func:`distinct_replies`) and gives every candidate with that summary
    the same reply.
    """

    def score(self, first: str, second: str) -> tuple[str, float]: ...


class RelevanceScorer(Protocol):
    """Scores one text against a query.

    A scorer may also define ``score_many(query, texts)``, answering one
    item per text in order, each a score or a :class:`ProviderError`; the
    re-rank then scores a query's distinct candidate texts in one call.
    The re-rank asks each distinct text once, through either method, and
    gives every candidate with that text the same reply.
    """

    def score(self, query: str, text: str) -> float: ...


class EntailmentChecker(Protocol):
    """Says whether a summary entails an utterance's text.

    A consolidation asks it once per distinct utterance text (see
    :func:`distinct_replies`) and gives every utterance with that text the
    same flag.
    """

    def entails(self, summary: str, text: str) -> bool: ...


Reply = TypeVar("Reply")


def distinct_replies(
    ask: Callable[[str, str], Reply],
    first: str,
    texts: Sequence[str],
    ask_many: Callable[[str, list[str]], object] | None = None,
) -> list[Reply | ProviderError]:
    """One reply per text to ``ask(first, text)``, or the
    :class:`ProviderError` that stands for a failed item.

    A scorer sees only ``first`` and the text, so it is asked once per
    distinct text, in first-occurrence order, and every position takes the
    reply for its text.  With ``ask_many`` (a batch method such as
    ``score_many``) the distinct texts go in one batch; a batch that raises
    ``ProviderError``, or whose reply is not a list of one item per
    distinct text, fails every item.  Otherwise ``ask`` is called once per
    distinct text, and a ``ProviderError`` fails that text alone.
    """
    distinct = list(dict.fromkeys(texts))
    if ask_many is None:
        replies: list = []
        for text in distinct:
            try:
                replies.append(ask(first, text))
            except ProviderError as exc:
                replies.append(exc)
    else:
        try:
            replies = ask_many(first, distinct)
        except ProviderError as exc:
            return [exc] * len(texts)
        if type(replies) is not list or len(replies) != len(distinct):
            failure = ProviderParseError(f"batch reply is not a list of {len(distinct)} items")
            return [failure] * len(texts)
    by_text = dict(zip(distinct, replies))
    return [by_text[text] for text in texts]


def real_number(reply: object) -> float:
    """A scorer's numeric reply as a float: an int, float or numpy float
    that a float holds.  Anything else (``None``, a string, a bool, an int
    beyond the float range) is NaN, which the engine refuses like any NaN."""
    if isinstance(reply, numbers.Real) and not isinstance(reply, bool):
        try:
            return float(reply)
        except OverflowError:
            pass
    return math.nan


@dataclass(frozen=True)
class SummaryResult:
    keywords: tuple[str, ...]
    summary: str


# ---------------------------------------------------------------------------
# call log


# One call as :meth:`CallLog.entries` returns it; the log itself keeps columns.
@dataclass(frozen=True, slots=True)
class CallRecord:
    provider: str
    input_tokens: int
    output_tokens: int


class CallLog:
    """Append-only, thread-safe record of every provider invocation.

    Records are kept as columns: an index into a table of provider names,
    and the input and output tokens, each an ``array`` of machine integers
    (so a token count must fit a signed 64-bit integer).  The counts are
    converted before anything is appended, so a count that does not fit
    raises ``OverflowError`` and leaves the log as it was.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._providers = array("I")
        self._input_tokens = array("q")
        self._output_tokens = array("q")
        self._lock = threading.Lock()

    def record(self, provider: str, input_tokens: int, output_tokens: int) -> None:
        counts = array("q", (input_tokens, output_tokens))
        with self._lock:
            self._providers.append(self._name_id(provider))
            self._input_tokens.append(counts[0])
            self._output_tokens.append(counts[1])

    def record_many(self, provider: str, usage: Iterable[tuple[int, int]]) -> None:
        """Append one record per ``(input_tokens, output_tokens)`` pair, in
        order and under one lock."""
        pairs = list(usage)
        inputs = array("q", [pair[0] for pair in pairs])
        outputs = array("q", [pair[1] for pair in pairs])
        with self._lock:
            self._providers.extend(array("I", [self._name_id(provider)]) * len(pairs))
            self._input_tokens.extend(inputs)
            self._output_tokens.extend(outputs)

    def _name_id(self, provider: str) -> int:
        """The provider's row in the name table, added on first use; called
        under the lock."""
        name_id = self._name_ids.get(provider)
        if name_id is None:
            name_id = self._name_ids[provider] = len(self._names)
            self._names.append(provider)
        return name_id

    def entries(self) -> tuple[CallRecord, ...]:
        with self._lock:
            names = tuple(self._names)
            providers = self._providers[:]
            inputs = self._input_tokens[:]
            outputs = self._output_tokens[:]
        return tuple(map(CallRecord, map(names.__getitem__, providers), inputs, outputs))

    def __len__(self) -> int:
        with self._lock:
            return len(self._providers)

    def count(self, provider: str) -> int:
        with self._lock:
            name_id = self._name_ids.get(provider)
            return 0 if name_id is None else self._providers.count(name_id)

    def token_totals(self, start: int = 0) -> tuple[int, int]:
        with self._lock:
            return sum(self._input_tokens[start:]), sum(self._output_tokens[start:])


def record_usage(call_log: CallLog, queries: int, start: int = 0) -> float:
    """Tokens per query over the call log from entry ``start`` on."""
    if queries <= 0:
        return 0.0
    return sum(call_log.token_totals(start)) / queries


# ---------------------------------------------------------------------------
# mock providers


class _MockProvider:
    """Shared recording for the mocks: each call is logged under ``name``
    when a call log is set."""

    name = ""

    def __init__(self, call_log: CallLog | None = None):
        self.call_log = call_log

    def _record(self, input_tokens: int, output_tokens: int) -> None:
        if self.call_log is not None:
            self.call_log.record(self.name, input_tokens, output_tokens)

    def _record_many(self, usage: Iterable[tuple[int, int]]) -> None:
        if self.call_log is not None:
            self.call_log.record_many(self.name, usage)


class MockEmbedder(_MockProvider):
    """Hashed bag-of-words embedder.

    Tokens are lowercased, punctuation-stripped, hashed into ``dim`` buckets
    with a +/-1 sign from a second hash, then L2-normalized.  Text with no
    tokens (and the measure-zero case of full cancellation) maps to the first
    basis vector.
    """

    name = "embedder"

    def __init__(self, dim: int = 64, seed: int = 0, call_log: CallLog | None = None):
        super().__init__(call_log)
        self.dim = dim
        self.seed = seed

    def _bucket(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(
            f"{self.seed}:{token}".encode(), digest_size=8
        ).digest()
        bucket = int.from_bytes(digest[:4], "big") % self.dim
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        return bucket, sign

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim)
        for token in words(text):
            bucket, sign = self._bucket(token)
            vec[bucket] += sign
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            vec = np.zeros(self.dim)
            vec[0] = 1.0
        else:
            vec = vec / norm
        self._record(estimate_tokens(text), 0)
        return vec


class MockBoundaryDiscriminator(_MockProvider):
    """Keyword-divergence rule: a boundary sits between adjacent utterances
    whose content-word sets do not overlap."""

    name = "discriminator"

    def detect(self, utterances: Sequence[EventNode]) -> list[int]:
        boundaries = []
        for i in range(len(utterances) - 1):
            overlap = jaccard(
                content_words(utterances[i].text),
                content_words(utterances[i + 1].text),
            )
            if overlap <= 0.0:
                boundaries.append(i)
        self._record(sum(n.token_count for n in utterances), len(boundaries) + 2)
        return boundaries


class MockSummarizer(_MockProvider):
    """Keyword-frequency summarizer over utterance content.

    Role-attributed lines ("speaker: text") are stripped to their text so
    speaker names never crowd out topical words.  The eight most frequent
    content words (count desc, then alphabetical) become the keywords, and
    all of them appear in the one-sentence summary.
    """

    name = "summarizer"

    def summarize(self, content: str) -> SummaryResult:
        counts: dict[str, int] = {}
        for line in content.split("\n"):
            _speaker, sep, rest = line.partition(": ")
            text = rest if sep else line
            for w in words(text):
                if w in STOPWORDS or len(w) <= 1:
                    continue
                counts[w] = counts.get(w, 0) + 1
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        keywords = tuple(ranked[:8])
        summary = (
            "Conversation about " + ", ".join(keywords) + "."
            if keywords
            else "Empty conversation."
        )
        self._record(estimate_tokens(content), estimate_tokens(summary) + len(keywords))
        return SummaryResult(keywords, summary)


class MockRelationScorer(_MockProvider):
    """Exact match -> coreference/1.0; partial content overlap -> semantic
    weighted by Jaccard; anything else -> unrelated/0."""

    name = "relation_scorer"

    def score(self, first: str, second: str) -> tuple[str, float]:
        if first == second:
            result = (Relation.COREFERENCE.value, 1.0)
        else:
            overlap = jaccard(content_words(first), content_words(second))
            if 0.0 < overlap < 1.0:
                result = (Relation.SEMANTIC.value, overlap)
            else:
                result = (UNRELATED, 0.0)
        self._record(estimate_tokens(first) + estimate_tokens(second), 3)
        return result


class MockRelevanceScorer(_MockProvider):
    """Token-level Jaccard floored at 0.01 so every candidate stays boostable.

    A batch tokenizes and counts the query once and records one call per
    text; :meth:`score` is a batch of one.
    """

    name = "relevance_scorer"

    def score(self, query: str, text: str) -> float:
        return self.score_many(query, [text])[0]

    def score_many(self, query: str, texts: Sequence[str]) -> list[float]:
        query_words = set(words(query))
        query_tokens = estimate_tokens(query)
        values = [max(jaccard(query_words, set(words(text))), 0.01) for text in texts]
        self._record_many([(query_tokens + estimate_tokens(text), 1) for text in texts])
        return values


class MockEntailmentChecker(_MockProvider):
    """A summary entails an utterance iff they share a content word."""

    name = "entailment"

    def entails(self, summary: str, text: str) -> bool:
        result = bool(content_words(summary) & content_words(text))
        self._record(estimate_tokens(summary) + estimate_tokens(text), 1)
        return result


# ---------------------------------------------------------------------------
# bundle


@dataclass
class ProviderBundle:
    """The model-facing surface of the engine plus its shared call log."""

    embedder: Embedder
    discriminator: BoundaryDiscriminator
    summarizer: Summarizer
    relation_scorer: RelationScorer
    relevance_scorer: RelevanceScorer
    entailment: EntailmentChecker
    call_log: CallLog = field(default_factory=CallLog)


def mock_bundle(config: EngineConfig | None = None) -> ProviderBundle:
    """Fully deterministic bundle driven only by inputs and the config seed."""
    cfg = config or EngineConfig()
    log = CallLog()
    return ProviderBundle(
        embedder=MockEmbedder(cfg.embedding_dim, cfg.seed, log),
        discriminator=MockBoundaryDiscriminator(call_log=log),
        summarizer=MockSummarizer(log),
        relation_scorer=MockRelationScorer(log),
        relevance_scorer=MockRelevanceScorer(log),
        entailment=MockEntailmentChecker(log),
        call_log=log,
    )
