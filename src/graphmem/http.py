"""HTTP provider adapter speaking the common chat/embeddings JSON wire format.

Requests go to ``{base_url}/chat/completions`` and ``{base_url}/embeddings``
with the usual ``{"model": ..., "messages": [...]}`` and
``{"model": ..., "input": ...}`` payloads; responses are read from
``choices[0].message.content`` / ``data[0].embedding`` with token usage taken
from the ``usage`` object.  Chat calls are schema-checked and get one
automatic repair re-prompt; transport failures are retried with bounded
exponential backoff.

The transport is injectable so contract tests run without a network.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import requests

from .config import estimate_tokens
from .core import EventNode
from .errors import ProviderParseError, ProviderTransportError
from .providers import CallLog, SummaryResult

RELATION_PROMPT = """Determine the relationship between the following two memories.

Memory 1: {memory_1_content}
Memory 2: {memory_2_content}

Possible relations:
- "support": one memory supports the other (asymmetric)
- "contradict": one memory contradicts the other (asymmetric)
- "coreference": same entity or event (symmetric)
- "causal": one memory leads to the other (asymmetric)
- "semantic": similar meaning (symmetric)
- "unrelated": no meaningful relation

Return JSON strictly in the format: {{"relation": "...", "confidence": 0-1}}"""

SUMMARY_PROMPT = """Generate a structured analysis of the following content by:
1. Identifying the most salient keywords and core themes (focus on nouns, verbs, and key concepts).
2. Writing a concise summary (one to two sentences). Don't be redundant, summarize everything in the fewest words possible.

Format the response as a JSON object:
{{
  "keywords": [
    // several specific, distinct keywords...
    // Order from most to least important...
  ],
  "summary":
    // a concise one to two sentence summary...
}}

Content for analysis:
{content}"""

BOUNDARY_PROMPT = """Please analyze the following conversation and identify where topic changes occur. A topic change happens when the conversation shifts to a completely different subject or theme.

Conversation:
{dialogue_text}

Identify the indices (positions) where topic boundaries occur. A boundary at index i means that the topic changes between utterance i and utterance i+1.
Return only the boundary indices as a JSON array.

Return your response as a JSON object with exactly this structure:
{{ "boundaries": [array_of_indices] }}

Example: {{ "boundaries": [2, 6] }}"""

_REPAIR_SUFFIX = (
    "\n\nYour previous reply was not valid JSON with the required keys. "
    "Respond again with only the JSON object."
)


def _reject_constant(name: str) -> float:
    raise ProviderParseError(f"non-finite number {name}")


def extract_json_object(text: str) -> dict:
    """Decode the JSON object that starts at the first brace of possibly
    prosy text; whatever follows the object is ignored.  ``NaN`` and
    ``Infinity`` are refused: no score, confidence or index may be one."""
    start = text.find("{")
    if start < 0:
        raise ProviderParseError("no JSON object in response")
    try:
        return json.JSONDecoder(parse_constant=_reject_constant).raw_decode(text, start)[0]
    except json.JSONDecodeError as exc:
        raise ProviderParseError(f"unparseable JSON object: {exc}") from exc


def validate_schema(payload: dict, schema: dict[str, type | tuple[type, ...]]) -> dict:
    """Check required keys and their types; raise on any mismatch.

    A JSON boolean decodes to a Python ``int`` subclass; it satisfies only a
    key whose schema names ``bool``.
    """
    for key, expected in schema.items():
        if key not in payload:
            raise ProviderParseError(f"missing key {key!r}")
        value = payload[key]
        types = expected if isinstance(expected, tuple) else (expected,)
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise ProviderParseError(f"key {key!r} has wrong type")
    return payload


Transport = Callable[[str, dict, dict, float], tuple[int, dict]]


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float):
    try:
        response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise ProviderTransportError(str(exc)) from exc
    try:
        body = response.json()
    except ValueError as exc:
        raise ProviderTransportError("non-JSON response body") from exc
    return response.status_code, body


@dataclass
class HttpConfig:
    base_url: str
    model: str
    embed_model: str = ""
    api_key_env: str = "GRAPHMEM_API_KEY"
    timeout: float = 30.0
    max_attempts: int = 3
    backoff: float = 0.5


class HttpClient:
    """Minimal chat/embeddings client with retry, extraction and repair."""

    def __init__(
        self,
        config: HttpConfig,
        call_log: CallLog | None = None,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self.call_log = call_log
        self.transport = transport or _requests_transport
        self.sleep = sleep

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        url = self.config.base_url.rstrip("/") + path
        last: Exception | None = None
        for attempt in range(self.config.max_attempts):
            try:
                status, body = self.transport(
                    url, payload, self._headers(), self.config.timeout
                )
            except ProviderTransportError as exc:
                last = exc
            else:
                if status == 200:
                    return body
                last = ProviderTransportError(f"HTTP {status}")
            if attempt + 1 < self.config.max_attempts:
                self.sleep(self.config.backoff * 2**attempt)
        raise ProviderTransportError(f"gave up after {self.config.max_attempts} attempts: {last}")

    def _record(self, provider: str, body: dict, prompt: str, output: str):
        """Log the reply's token usage; a count the reply omits is estimated
        from the text, and a ``usage`` that is not an object or a count that
        is not a JSON integer in ``[0, 2**63)``, the call log's range, is a
        parse error."""
        if self.call_log is None:
            return
        usage = body.get("usage", {})
        if type(usage) is not dict:
            raise ProviderParseError("usage is not an object")
        counts = []
        for key, text in (("prompt_tokens", prompt), ("completion_tokens", output)):
            count = usage.get(key, estimate_tokens(text))
            if type(count) is not int or not 0 <= count < 2**63:
                raise ProviderParseError(f"usage {key} is not a non-negative 64-bit integer")
            counts.append(count)
        self.call_log.record(provider, *counts)

    def chat(
        self,
        prompt: str,
        schema: dict[str, type | tuple[type, ...]],
        provider: str = "chat",
    ) -> dict:
        """One chat completion returning schema-valid JSON.

        A single repair re-prompt is attempted when the first reply fails
        extraction or validation; a second failure surfaces as a parse error
        for the caller's fallback logic.
        """
        attempt_prompt = prompt
        last_error: ProviderParseError | None = None
        for _ in range(2):
            body = self._post(
                "/chat/completions",
                {
                    "model": self.config.model,
                    "messages": [{"role": "user", "content": attempt_prompt}],
                },
            )
            try:
                content = body["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError) as exc:
                raise ProviderTransportError("malformed completion envelope") from exc
            self._record(provider, body, attempt_prompt, content)
            try:
                return validate_schema(extract_json_object(content), schema)
            except ProviderParseError as exc:
                last_error = exc
                attempt_prompt = prompt + _REPAIR_SUFFIX
        raise last_error  # type: ignore[misc]

    def embed(self, text: str) -> np.ndarray:
        body = self._post(
            "/embeddings",
            {"model": self.config.embed_model or self.config.model, "input": text},
        )
        try:
            vector = np.asarray(body["data"][0]["embedding"], dtype=float)
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderParseError("malformed embeddings envelope") from exc
        self._record("embedder", body, text, "")
        if not np.isfinite(vector).all():
            raise ProviderParseError("non-finite embedding")
        norm = float(np.linalg.norm(vector))
        if norm < 1e-12:
            raise ProviderParseError("zero-norm embedding")
        return vector / norm


def linearize_buffer(utterances: Sequence[EventNode]) -> str:
    return "\n".join(f"{i}. {n.speaker}: {n.text}" for i, n in enumerate(utterances))


def logistic(x: float) -> float:
    # Far below zero, exp overflows to inf and the result is exactly 0.0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + float(np.exp(-x)))


class HttpEmbedder:
    def __init__(self, client: HttpClient, dim: int):
        self.client = client
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        vector = self.client.embed(text)
        if vector.shape[0] != self.dim:
            raise ProviderParseError(
                f"embedding dim {vector.shape[0]} != configured {self.dim}"
            )
        return vector


class _ChatAdapter:
    """A provider answered by chat completions through one shared client.

    Adapters only parse: whether a reply is usable is decided by the engine
    step that uses it, alike for every provider.
    """

    def __init__(self, client: HttpClient):
        self.client = client


class HttpBoundaryDiscriminator(_ChatAdapter):
    def detect(self, utterances: Sequence[EventNode]) -> list[int]:
        payload = self.client.chat(
            BOUNDARY_PROMPT.format(dialogue_text=linearize_buffer(utterances)),
            {"boundaries": list},
            provider="discriminator",
        )
        return list(payload["boundaries"])


class HttpSummarizer(_ChatAdapter):
    def summarize(self, content: str) -> SummaryResult:
        payload = self.client.chat(
            SUMMARY_PROMPT.format(content=content),
            {"keywords": list, "summary": str},
            provider="summarizer",
        )
        return SummaryResult(
            tuple(str(k) for k in payload["keywords"]), payload["summary"]
        )


class HttpRelationScorer(_ChatAdapter):
    def score(self, first: str, second: str) -> tuple[str, float]:
        payload = self.client.chat(
            RELATION_PROMPT.format(memory_1_content=first, memory_2_content=second),
            {"relation": str, "confidence": (int, float)},
            provider="relation_scorer",
        )
        return payload["relation"], float(payload["confidence"])


RELEVANCE_PROMPT = """Rate how relevant the following memory is to the query.

Query: {query}
Memory: {text}

Return JSON strictly in the format: {{"score": <number>}}"""

ENTAILMENT_PROMPT = """Does the summary below entail the statement?

Summary: {summary}
Statement: {text}

Return JSON strictly in the format: {{"entailed": true_or_false}}"""


class HttpRelevanceScorer(_ChatAdapter):
    """Pairwise scorer; raw model scores pass through the logistic into [0, 1]."""

    def score(self, query: str, text: str) -> float:
        payload = self.client.chat(
            RELEVANCE_PROMPT.format(query=query, text=text),
            {"score": (int, float)},
            provider="relevance_scorer",
        )
        return logistic(float(payload["score"]))


class HttpEntailmentChecker(_ChatAdapter):
    def entails(self, summary: str, text: str) -> bool:
        payload = self.client.chat(
            ENTAILMENT_PROMPT.format(summary=summary, text=text),
            {"entailed": bool},
            provider="entailment",
        )
        return bool(payload["entailed"])


def http_bundle(
    http_config: HttpConfig,
    embedding_dim: int,
    transport: Transport | None = None,
) -> "ProviderBundle":
    """Bundle wired to a chat/embeddings endpoint; shares one call log."""
    from .providers import ProviderBundle

    log = CallLog()
    client = HttpClient(http_config, call_log=log, transport=transport)
    return ProviderBundle(
        embedder=HttpEmbedder(client, embedding_dim),
        discriminator=HttpBoundaryDiscriminator(client),
        summarizer=HttpSummarizer(client),
        relation_scorer=HttpRelationScorer(client),
        relevance_scorer=HttpRelevanceScorer(client),
        entailment=HttpEntailmentChecker(client),
        call_log=log,
    )

