import numpy as np
import pytest

from graphmem.core import EventNode
from graphmem.errors import ProviderParseError, ProviderTransportError
from graphmem.http import (
    BOUNDARY_PROMPT,
    HttpBoundaryDiscriminator,
    HttpClient,
    HttpConfig,
    HttpEmbedder,
    HttpRelationScorer,
    HttpRelevanceScorer,
    HttpSummarizer,
    extract_json_object,
    linearize_buffer,
    logistic,
    validate_schema,
)
from graphmem.providers import CallLog


def chat_body(content, prompt_tokens=10, completion_tokens=5):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        },
    }


class ScriptedTransport:
    """Returns queued (status, body) pairs or raises queued exceptions."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def __call__(self, url, payload, headers, timeout):
        self.requests.append((url, payload, headers))
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def client(responses, **overrides):
    transport = ScriptedTransport(responses)
    config = HttpConfig(
        base_url="http://model.test/v1", model="chat-model", embed_model="embed-model"
    )
    log = overrides.pop("call_log", CallLog())
    sleeps = []
    http = HttpClient(config, call_log=log, transport=transport, sleep=sleeps.append)
    return http, transport, sleeps


class TestJsonExtraction:
    def test_plain_object(self):
        assert extract_json_object('{"boundaries": [2, 6]}') == {"boundaries": [2, 6]}

    def test_prose_wrapper_uses_first_balanced_braces(self):
        text = 'Sure! Here is the JSON you asked for: {"a": {"b": 1}} hope it helps'
        assert extract_json_object(text) == {"a": {"b": 1}}

    def test_braces_inside_strings_do_not_confuse_the_scan(self):
        text = '{"note": "curly { brace } soup", "x": 1}'
        assert extract_json_object(text) == {"note": "curly { brace } soup", "x": 1}

    def test_no_object_raises(self):
        with pytest.raises(ProviderParseError):
            extract_json_object("there is no json here")

    def test_unbalanced_raises(self):
        with pytest.raises(ProviderParseError):
            extract_json_object('{"open": [1, 2')

    def test_schema_validation(self):
        with pytest.raises(ProviderParseError, match="missing"):
            validate_schema({"a": 1}, {"b": int})
        with pytest.raises(ProviderParseError, match="wrong type"):
            validate_schema({"a": "x"}, {"a": int})


class TestChat:
    def test_valid_boundaries_payload(self):
        http, transport, _ = client([(200, chat_body('{"boundaries": [2, 6]}'))])
        result = http.chat("prompt", {"boundaries": list})
        assert result == {"boundaries": [2, 6]}
        assert transport.requests[0][0] == "http://model.test/v1/chat/completions"

    def test_repair_reprompt_once_then_success(self):
        http, transport, _ = client(
            [
                (200, chat_body("sorry, no json")),
                (200, chat_body('{"boundaries": []}')),
            ]
        )
        assert http.chat("prompt", {"boundaries": list}) == {"boundaries": []}
        assert len(transport.requests) == 2
        second_prompt = transport.requests[1][1]["messages"][0]["content"]
        assert "not valid JSON" in second_prompt

    def test_invalid_twice_surfaces_parse_error(self):
        http, _, _ = client(
            [(200, chat_body("garbage")), (200, chat_body("more garbage"))]
        )
        with pytest.raises(ProviderParseError):
            http.chat("prompt", {"boundaries": list})

    def test_network_retry_with_backoff(self):
        http, transport, sleeps = client(
            [
                ProviderTransportError("boom"),
                (503, {}),
                (200, chat_body('{"ok": true}')),
            ]
        )
        assert http.chat("prompt", {"ok": bool}) == {"ok": True}
        assert len(transport.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_gives_up_after_three_attempts(self):
        http, _, _ = client([ProviderTransportError("a")] * 3)
        with pytest.raises(ProviderTransportError, match="gave up"):
            http.chat("prompt", {"ok": bool})

    def test_usage_recorded_in_call_log(self):
        log = CallLog()
        http, _, _ = client(
            [(200, chat_body('{"ok": true}', 123, 7))], call_log=log
        )
        http.chat("prompt", {"ok": bool}, provider="relation_scorer")
        entry = log.entries()[0]
        assert entry.provider == "relation_scorer"
        assert (entry.input_tokens, entry.output_tokens) == (123, 7)

    def test_auth_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("GRAPHMEM_API_KEY", "secret-token")
        http, transport, _ = client([(200, chat_body('{"ok": true}'))])
        http.chat("prompt", {"ok": bool})
        assert transport.requests[0][2]["Authorization"] == "Bearer secret-token"


class TestEmbeddings:
    def test_vector_normalized(self):
        body = {"data": [{"embedding": [3.0, 4.0]}], "usage": {"prompt_tokens": 2}}
        http, transport, _ = client([(200, body)])
        vec = http.embed("hello")
        assert np.allclose(vec, [0.6, 0.8])
        assert transport.requests[0][0] == "http://model.test/v1/embeddings"

    def test_usage_recorded_with_no_output_tokens(self):
        log = CallLog()
        bodies = [
            {"data": [{"embedding": [1.0, 0.0]}], "usage": {}},
            {"data": [{"embedding": [1.0, 0.0]}], "usage": {"prompt_tokens": 9}},
        ]
        http, _, _ = client([(200, body) for body in bodies], call_log=log)
        http.embed("three word text")
        http.embed("hello")
        assert [(e.provider, e.input_tokens, e.output_tokens) for e in log.entries()] == [
            ("embedder", 3, 0),
            ("embedder", 9, 0),
        ]

    def test_dimension_checked_by_adapter(self):
        body = {"data": [{"embedding": [1.0, 0.0, 0.0]}], "usage": {}}
        http, _, _ = client([(200, body)])
        embedder = HttpEmbedder(http, dim=5)
        with pytest.raises(ProviderParseError, match="dim"):
            embedder.embed("hello")

    def test_zero_vector_rejected(self):
        body = {"data": [{"embedding": [0.0, 0.0]}], "usage": {}}
        http, _, _ = client([(200, body)])
        with pytest.raises(ProviderParseError, match="zero-norm"):
            http.embed("hello")


class TestProviderAdapters:
    def test_discriminator_formats_numbered_lines(self):
        http, transport, _ = client([(200, chat_body('{"boundaries": [0]}'))])
        utterances = [
            EventNode("e1", "s1", 0, "ana", "first line", None, 2),
            EventNode("e2", "s1", 1, "riley", "second line", None, 2),
        ]
        assert HttpBoundaryDiscriminator(http).detect(utterances) == [0]
        prompt = transport.requests[0][1]["messages"][0]["content"]
        assert "0. ana: first line" in prompt
        assert "1. riley: second line" in prompt
        assert prompt == BOUNDARY_PROMPT.format(
            dialogue_text=linearize_buffer(utterances)
        )

    def test_discriminator_rejects_non_integers(self):
        http, _, _ = client(
            [
                (200, chat_body('{"boundaries": ["x"]}')),
                (200, chat_body('{"boundaries": ["x"]}')),
            ]
        )
        with pytest.raises(ProviderParseError):
            HttpBoundaryDiscriminator(http).detect(
                [EventNode("e1", "s1", 0, "ana", "line", None, 1)]
            )

    def test_summarizer_payload(self):
        http, _, _ = client(
            [(200, chat_body('{"keywords": ["a", "b"], "summary": "about a and b"}'))]
        )
        result = HttpSummarizer(http).summarize("content")
        assert result.keywords == ("a", "b")
        assert result.summary == "about a and b"

    def test_relation_label_validated(self):
        http, _, _ = client(
            [
                (200, chat_body('{"relation": "sideways", "confidence": 0.5}')),
            ]
        )
        with pytest.raises(ProviderParseError, match="label"):
            HttpRelationScorer(http).score("one", "two")

    def test_relation_confidence_range_validated(self):
        http, _, _ = client(
            [(200, chat_body('{"relation": "support", "confidence": 1.5}'))]
        )
        with pytest.raises(ProviderParseError, match="confidence"):
            HttpRelationScorer(http).score("one", "two")

    def test_relation_happy_path(self):
        http, _, _ = client(
            [(200, chat_body('{"relation": "support", "confidence": 0.8}'))]
        )
        assert HttpRelationScorer(http).score("one", "two") == ("support", 0.8)

    def test_relevance_squashes_raw_scores(self):
        http, _, _ = client([(200, chat_body('{"score": 2.0}'))])
        assert HttpRelevanceScorer(http).score("q", "t") == pytest.approx(logistic(2.0))
