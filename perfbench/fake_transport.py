"""In-process stand-in for a chat/embeddings endpoint.

It never touches the network.  Each call sleeps a fixed delay, then answers
by parsing the prompt with the program's own prompt templates and handing
the fields to the mock providers, so an HTTP bundle over this transport
makes the same decisions as the mock bundle.  A seeded share of replies are
503s or prose with no JSON in it, so the client's retry and repair paths
run; a fault is never followed by another, so every retry and every repair
succeeds and the faults do not change any result.  Clean replies are
sometimes wrapped in prose, which the client's extraction handles.
"""

from __future__ import annotations

import json
import math
import random
import re
import string
import time

from graphmem import http as gm_http
from graphmem.config import EngineConfig, estimate_tokens
from graphmem.core import EventNode
from graphmem.providers import (
    MockBoundaryDiscriminator,
    MockEmbedder,
    MockEntailmentChecker,
    MockRelationScorer,
    MockRelevanceScorer,
    MockSummarizer,
)

_LINE = re.compile(r"(\d+)\. ([^:\n]*): (.*)")
#: Share of calls answered with a fault (a 503 or a reply with no JSON).
FAULT_RATE = 0.02
#: Share of clean replies wrapped in prose.
PROSE_RATE = 0.1


def _template_parser(template: str):
    """Parser recovering the fields of a prompt made by ``template.format``."""
    steps: list[tuple[str, str]] = []  # (literal before the field, field name)
    literal = ""
    for text, name, _, _ in string.Formatter().parse(template):
        literal += text
        if name is not None:
            steps.append((literal, name))
            literal = ""
    tail = literal

    def parse(prompt: str) -> dict[str, str] | None:
        position = 0
        values = {}
        for i, (before, name) in enumerate(steps):
            if not prompt.startswith(before, position):
                return None
            position += len(before)
            following = steps[i + 1][0] if i + 1 < len(steps) else tail
            end = prompt.find(following, position) if following else len(prompt)
            if end < 0:
                return None
            values[name] = prompt[position:end]
            position = end
        return values if prompt[position:] == tail else None

    return parse


def _logit(p: float) -> float:
    """Inverse of the client's logistic squash, clamped away from 0 and 1."""
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return math.log(p / (1.0 - p))


class FakeTransport:
    """Deterministic ``Transport`` (see :mod:`graphmem.http`) with counters.

    ``calls`` counts every request, ``wait_s`` the time spent sleeping (in
    calls and in the client's backoff, see :meth:`sleep`) and
    ``nominal_wait_s`` the time asked for, ``served_503`` and
    ``served_unparseable`` the injected faults, and ``repairs_seen`` the
    repair re-prompts that followed them.
    """

    def __init__(self, config: EngineConfig, delay: float, seed: int):
        self.delay = delay
        self.rng = random.Random(seed)
        self.embedder = MockEmbedder(config.embedding_dim, config.seed)
        self.discriminator = MockBoundaryDiscriminator()
        self.summarizer = MockSummarizer()
        self.relation = MockRelationScorer()
        self.relevance = MockRelevanceScorer()
        self.entailment = MockEntailmentChecker()
        self.parsers = [
            (_template_parser(gm_http.RELATION_PROMPT), self._relation),
            (_template_parser(gm_http.SUMMARY_PROMPT), self._summary),
            (_template_parser(gm_http.BOUNDARY_PROMPT), self._boundary),
            (_template_parser(gm_http.RELEVANCE_PROMPT), self._relevance),
            (_template_parser(gm_http.ENTAILMENT_PROMPT), self._entailment),
        ]
        self.calls = 0
        self.wait_s = 0.0
        self.nominal_wait_s = 0.0
        self.served_503 = 0
        self.served_unparseable = 0
        self.repairs_seen = 0
        self._last_fault = False
        self._unparseable_prompt: str | None = None

    def sleep(self, seconds: float) -> None:
        """Sleep ``seconds``, counting the wait; also the client's backoff."""
        started = time.perf_counter()
        time.sleep(seconds)
        self.wait_s += time.perf_counter() - started
        self.nominal_wait_s += seconds

    def __call__(self, url: str, payload: dict, headers: dict, timeout: float):
        self.sleep(self.delay)
        self.calls += 1
        fault = not self._last_fault and self.rng.random() < FAULT_RATE
        prose = self.rng.random() < PROSE_RATE
        if fault and self.rng.random() < 0.5:
            self._last_fault = True
            self.served_503 += 1
            return 503, {"error": "service unavailable"}
        if url.endswith("/embeddings"):
            self._last_fault = False
            vector = self.embedder.embed(payload["input"])
            return 200, {"data": [{"embedding": [float(x) for x in vector]}]}

        prompt = payload["messages"][0]["content"]
        if self._unparseable_prompt is not None and prompt.startswith(
            self._unparseable_prompt
        ):
            # The client's repair re-prompt: the original prompt plus a suffix.
            self.repairs_seen += 1
            prompt = self._unparseable_prompt
        self._unparseable_prompt = None
        if fault:
            self._last_fault = True
            self.served_unparseable += 1
            self._unparseable_prompt = prompt
            return 200, _completion("Sure, I can help with that request.")
        self._last_fault = False
        answer = json.dumps(self.answer(prompt))
        if prose:
            answer = f"Here is the result you asked for: {answer} Let me know."
        return 200, _completion(answer)

    def answer(self, prompt: str) -> dict:
        for parse, respond in self.parsers:
            fields = parse(prompt)
            if fields is not None:
                return respond(fields)
        raise ValueError(f"unrecognised prompt: {prompt[:60]!r}")

    def _relation(self, f: dict) -> dict:
        label, weight = self.relation.score(f["memory_1_content"], f["memory_2_content"])
        return {"relation": label, "confidence": weight}

    def _summary(self, f: dict) -> dict:
        result = self.summarizer.summarize(f["content"])
        return {"keywords": list(result.keywords), "summary": result.summary}

    def _boundary(self, f: dict) -> dict:
        nodes = []
        for line in f["dialogue_text"].split("\n"):
            match = _LINE.fullmatch(line)
            if match is None:
                raise ValueError(f"unparseable dialogue line {line!r}")
            index, speaker, text = match.groups()
            nodes.append(
                EventNode(f"x{index}", "", int(index), speaker, text, None, estimate_tokens(text))
            )
        return {"boundaries": self.discriminator.detect(nodes)}

    def _relevance(self, f: dict) -> dict:
        return {"score": _logit(self.relevance.score(f["query"], f["text"]))}

    def _entailment(self, f: dict) -> dict:
        return {"entailed": self.entailment.entails(f["summary"], f["text"])}


def _completion(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}
