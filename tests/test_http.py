import json
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.boundary import check_boundary, heuristic_discriminator
from graphmem.config import EngineConfig
from graphmem.consolidation import consolidate_segment, score_relation
from graphmem.core import EventNode, Utterance, append_event, new_snapshot, snapshot_hash
from graphmem.engine import MemoryEngine
from graphmem.errors import (
    ConsolidationError,
    ProviderError,
    ProviderParseError,
    ProviderTransportError,
)
from graphmem.harness import DialogueCorpus, replay
from graphmem.http import (
    BOUNDARY_PROMPT,
    SUMMARY_PROMPT,
    HttpBoundaryDiscriminator,
    HttpClient,
    HttpConfig,
    HttpEmbedder,
    HttpEntailmentChecker,
    HttpRelationScorer,
    HttpRelevanceScorer,
    HttpSummarizer,
    extract_json_object,
    http_bundle,
    linearize_buffer,
    logistic,
    validate_schema,
)
from graphmem.providers import CallLog, MockEmbedder


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


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


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

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_rejected(self, constant):
        with pytest.raises(ProviderParseError, match="non-finite"):
            extract_json_object(f'{{"score": {constant}}}')

    def test_schema_validation(self):
        with pytest.raises(ProviderParseError, match="missing"):
            validate_schema({"a": 1}, {"b": int})
        with pytest.raises(ProviderParseError, match="wrong type"):
            validate_schema({"a": "x"}, {"a": int})

    def test_boolean_satisfies_only_a_bool_key(self):
        # json decodes true to True, which is also an int.
        for number_type in (int, float, (int, float)):
            with pytest.raises(ProviderParseError, match="wrong type"):
                validate_schema({"a": True}, {"a": number_type})
        assert validate_schema({"a": False}, {"a": bool}) == {"a": False}
        assert validate_schema({"a": 2}, {"a": (int, float)}) == {"a": 2}

    @given(
        prose=st.text(alphabet=st.characters(blacklist_characters="{}")),
        obj=st.dictionaries(st.text(), JSON_VALUES, max_size=4),
        suffix=st.text(),
    )
    def test_object_after_prose_decodes_whatever_follows(self, prose, obj, suffix):
        assert extract_json_object(prose + json.dumps(obj) + suffix) == obj


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

    def test_non_string_content_is_a_malformed_envelope(self):
        # Once raised AttributeError from the JSON extraction.
        for content in (5, None, ["{}"], {"score": 1}):
            log = CallLog()
            http, _, _ = client([(200, chat_body(content))], call_log=log)
            with pytest.raises(ProviderTransportError, match="malformed completion"):
                HttpRelevanceScorer(http).score("q", "t")
            assert len(log) == 0

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


BAD_USAGE = [
    {"prompt_tokens": None},
    {"prompt_tokens": 1e400},
    {"prompt_tokens": "x"},
    {"prompt_tokens": -5},
    {"completion_tokens": 2**63},
    {"prompt_tokens": True},
    {"prompt_tokens": 2.7},
    {"completion_tokens": 2.0},
    ["prompt_tokens", 3],
    "prompt_tokens",
    None,
]


class TestUsage:
    """A reply's token usage is logged only as non-negative JSON integers;
    anything else is a parse error, never a crash or a silent record."""

    @pytest.mark.parametrize("usage", BAD_USAGE)
    def test_bad_chat_usage_is_a_parse_error(self, usage):
        log = CallLog()
        body = {"choices": [{"message": {"content": '{"ok": true}'}}], "usage": usage}
        http, _, _ = client([(200, body)], call_log=log)
        with pytest.raises(ProviderParseError, match="usage"):
            http.chat("prompt", {"ok": bool})
        assert len(log) == 0

    @pytest.mark.parametrize("usage", BAD_USAGE)
    def test_bad_embedding_usage_is_a_parse_error(self, usage):
        log = CallLog()
        body = {"data": [{"embedding": [1.0, 0.0]}], "usage": usage}
        http, _, _ = client([(200, body)], call_log=log)
        with pytest.raises(ProviderParseError, match="usage"):
            http.embed("hello")
        assert len(log) == 0

    def test_missing_usage_falls_back_to_the_estimate(self):
        log = CallLog()
        body = {"choices": [{"message": {"content": '{"ok": true}'}}]}
        http, _, _ = client([(200, body)], call_log=log)
        http.chat("two words", {"ok": bool})
        assert [(e.input_tokens, e.output_tokens) for e in log.entries()] == [(2, 2)]


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

    @pytest.mark.parametrize(
        "vector",
        [[1.0, 0.0, 0.0], [math.nan, 1.0], [math.inf, 0.0], [0.0, 0.0]],
        ids=["short", "nan", "inf", "zero"],
    )
    @pytest.mark.filterwarnings("error")
    def test_unusable_embedding_refused_by_the_engine(self, vector):
        # The adapter only divides by the norm, which makes a zero or
        # non-finite vector NaN; the engine refuses it wherever it embeds.
        def transport(url, payload, headers, timeout):
            if url.endswith("/embeddings"):
                return 200, {"data": [{"embedding": vector}], "usage": {}}
            return 200, chat_body('{"keywords": ["garden"], "summary": "garden beds"}')

        config = EngineConfig()
        bundle = http_bundle(
            HttpConfig(base_url="http://model.test/v1", model="chat-model"),
            config.embedding_dim,
            transport=transport,
        )
        engine = MemoryEngine(bundle, config)
        corpus = DialogueCorpus(
            (
                Utterance("s1", "ana", "garden compost beds", turn_index=0),
                Utterance("s2", "riley", "garden mulch herbs", turn_index=0),
            )
        )
        snapshot, telemetry = replay(corpus, engine, "session")
        assert telemetry.consolidations == 0
        assert [n.text for n in snapshot.buffer] == [t.text for t in corpus.turns]
        with pytest.raises(ProviderParseError, match="finite numbers"):
            engine.query("garden")

    @pytest.mark.parametrize(
        "vector",
        [["a", "b"], [[1.0], [1.0, 2.0]], [10**400, 1.0]],
        ids=["strings", "ragged", "huge_int"],
    )
    def test_unreadable_embedding_list_is_a_malformed_envelope(self, vector):
        # Once raised ValueError or OverflowError from np.asarray.
        http, _, _ = client([(200, {"data": [{"embedding": vector}], "usage": {}})])
        with pytest.raises(ProviderParseError, match="malformed embeddings"):
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

    def test_summarizer_payload(self):
        http, _, _ = client(
            [(200, chat_body('{"keywords": ["a", "b"], "summary": "about a and b"}'))]
        )
        result = HttpSummarizer(http).summarize("content")
        assert result.keywords == ("a", "b")
        assert result.summary == "about a and b"

    def test_relevance_rejects_nan_score(self):
        # Once as sent, once after the repair.
        http, _, _ = client([(200, chat_body('{"score": NaN}'))] * 2)
        with pytest.raises(ProviderParseError, match="non-finite"):
            HttpRelevanceScorer(http).score("q", "t")

    @pytest.mark.parametrize(
        "number",
        ["1e400", "-1e400", "1" * 400, "1" * 4301],
        ids=["1e400", "-1e400", "400_digits", "4301_digits"],
    )
    def test_number_no_finite_float_holds_is_refused(self, number):
        # 1e400 once decoded to inf and scored 1.0; a 400-digit integer
        # raised OverflowError and a 4301-digit one ValueError.
        with pytest.raises(ProviderParseError, match="non-finite"):
            extract_json_object(f'{{"score": {number}}}')
        http, _, _ = client([(200, chat_body(f'{{"score": {number}}}'))] * 2)
        with pytest.raises(ProviderParseError, match="non-finite"):
            HttpRelevanceScorer(http).score("q", "t")
        reply = chat_body(f'{{"relation": "support", "confidence": {number}}}')
        http, _, _ = client([(200, reply)] * 2)
        with pytest.raises(ProviderParseError, match="non-finite"):
            HttpRelationScorer(http).score("one", "two")

    def test_relation_happy_path(self):
        http, _, _ = client(
            [(200, chat_body('{"relation": "support", "confidence": 0.8}'))]
        )
        assert HttpRelationScorer(http).score("one", "two") == ("support", 0.8)

    def test_relevance_squashes_raw_scores(self):
        http, _, _ = client([(200, chat_body('{"score": 2.0}'))])
        assert HttpRelevanceScorer(http).score("q", "t") == pytest.approx(logistic(2.0))

    def test_boolean_score_and_confidence_rejected(self):
        # Each reply is wrong twice: once as sent, once after the repair.
        http, _, _ = client([(200, chat_body('{"score": true}'))] * 2)
        with pytest.raises(ProviderParseError, match="wrong type"):
            HttpRelevanceScorer(http).score("q", "t")
        reply = chat_body('{"relation": "support", "confidence": true}')
        http, _, _ = client([(200, reply)] * 2)
        with pytest.raises(ProviderParseError, match="wrong type"):
            HttpRelationScorer(http).score("one", "two")

    def test_logistic_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logistic(-1000.0) == 0.0
            assert logistic(1000.0) == 1.0


def scripted_bundle(chat_replies):
    """An HTTP bundle whose chat replies are scripted in call order and whose
    embeddings come from the mock embedder; ``urls`` lists every request."""
    config = EngineConfig()
    embedder = MockEmbedder(config.embedding_dim, config.seed)
    replies = list(chat_replies)
    urls = []

    def transport(url, payload, headers, timeout):
        urls.append(url)
        if url.endswith("/embeddings"):
            vector = [float(x) for x in embedder.embed(payload["input"])]
            return 200, {"data": [{"embedding": vector}], "usage": {}}
        return 200, chat_body(replies.pop(0))

    bundle = http_bundle(
        HttpConfig(base_url="http://model.test/v1", model="chat-model"),
        config.embedding_dim,
        transport=transport,
    )
    return bundle, urls


def buffered(texts):
    snap = new_snapshot()
    for text in texts:
        snap = append_event(snap, Utterance("s1", "ana", text))
    return snap


class TestEngineJudgesReplies:
    """The adapters only parse; the engine step that uses a reply decides
    whether it is usable, with the same rule as for any other provider."""

    def check_falls_back_to_heuristic(self, reply, caplog):
        bundle, _ = scripted_bundle([reply])
        snap = buffered(["the puppy leash collar", "an interview offer panel"])
        with caplog.at_level(logging.WARNING, logger="graphmem.boundary"):
            verdict = check_boundary(snap, bundle.discriminator, bundle.embedder)
        expected = heuristic_discriminator(
            snap.buffer, bundle.embedder, snap.config.heuristic_cutoff
        )
        assert verdict.split_indices == tuple(expected) == (0,)
        assert "boundaries must be integers" in caplog.text
        assert "using heuristic" in caplog.text

    def test_non_integer_boundaries_fall_back_to_the_heuristic(self, caplog):
        self.check_falls_back_to_heuristic('{"boundaries": ["x"]}', caplog)

    def test_boolean_boundaries_fall_back_to_the_heuristic(self, caplog):
        self.check_falls_back_to_heuristic('{"boundaries": [true, 2]}', caplog)

    @pytest.mark.parametrize("summary", ["", "   "], ids=["empty", "spaces"])
    def test_blank_summary_aborts_consolidation(self, summary):
        bundle, urls = scripted_bundle([json.dumps({"keywords": ["a"], "summary": summary})])
        snap = buffered(["the garden compost", "garden watering cans"])
        before = snapshot_hash(snap)
        with pytest.raises(ConsolidationError, match="blank summary"):
            consolidate_segment(snap, snap.buffer, bundle)
        assert snapshot_hash(snap) == before
        # Refused before the summary is embedded.
        assert urls == ["http://model.test/v1/chat/completions"]

    def test_non_string_keyword_aborts_consolidation(self):
        # The adapter once stored the keywords "None" and "1".
        reply = '{"keywords": [null, 1, "garden"], "summary": "garden beds"}'
        bundle, _ = scripted_bundle([reply])
        snap = buffered(["the garden compost", "garden watering cans"])
        with pytest.raises(ConsolidationError, match="must be strings"):
            consolidate_segment(snap, snap.buffer, bundle)

    @pytest.mark.parametrize(
        "reply",
        [
            '{"relation": "sideways", "confidence": 0.5}',
            '{"relation": "support", "confidence": 1.5}',
        ],
        ids=["unknown_label", "confidence_above_one"],
    )
    def test_invalid_relation_scores_unrelated(self, reply, caplog):
        bundle, _ = scripted_bundle([reply])
        with caplog.at_level(logging.WARNING, logger="graphmem.consolidation"):
            result = score_relation("one", "two", bundle.relation_scorer)
        assert result == ("unrelated", 0.0)
        assert "relation scorer returned invalid" in caplog.text


def blank_summary_transport(url, payload, headers, timeout):
    """A model that embeds every text alike and summarizes to nothing."""
    if url.endswith("/embeddings"):
        return 200, {"data": [{"embedding": [1.0] + [0.0] * 63}], "usage": {}}
    prompt = payload["messages"][0]["content"]
    assert prompt.startswith(SUMMARY_PROMPT[:40])
    return 200, chat_body('{"keywords": ["garden"], "summary": ""}')


class TestBundle:
    def test_blank_summary_aborts_consolidation_and_keeps_the_buffer(self):
        config = EngineConfig()
        bundle = http_bundle(
            HttpConfig(base_url="http://model.test/v1", model="chat-model"),
            config.embedding_dim,
            transport=blank_summary_transport,
        )
        corpus = DialogueCorpus(
            (
                Utterance("s1", "ana", "garden compost beds", turn_index=0),
                Utterance("s2", "riley", "garden mulch herbs", turn_index=0),
            )
        )
        snapshot, telemetry = replay(corpus, MemoryEngine(bundle, config), "session")
        assert telemetry.consolidations == 0
        assert not snapshot.topic_graph.nodes
        assert [n.text for n in snapshot.buffer] == [t.text for t in corpus.turns]


#: Number texts that no finite float holds; the last is past int()'s limit.
HUGE_NUMBERS = ("1e400", "-1e400", "1" * 400, "-" + "1" * 400, "1" * 4301)
number_texts = (
    st.sampled_from(HUGE_NUMBERS)
    | st.integers().map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
)
#: The keys the five chat adapters read.
REPLY_KEYS = (
    "boundaries", "keywords", "summary", "relation", "confidence", "score", "entailed"
)


@st.composite
def chat_contents(draw):
    """A chat message's ``content``: any JSON value (most not a string),
    prose, or an object with the adapters' keys holding drawn values or
    drawn number texts."""
    kind = draw(st.sampled_from(["value", "prose", "object", "number"]))
    if kind == "value":
        return draw(JSON_VALUES)
    if kind == "prose":
        return draw(st.text())
    if kind == "object":
        return json.dumps(draw(st.dictionaries(st.sampled_from(REPLY_KEYS), JSON_VALUES)))
    fields = draw(st.dictionaries(st.sampled_from(REPLY_KEYS), number_texts, min_size=1))
    return "{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()) + "}"


def with_usage(body, usage):
    """``body`` with ``usage`` as its token usage, or without one for None."""
    return body if usage is None else {**body, "usage": usage}


usages = st.none() | JSON_VALUES | st.fixed_dictionaries(
    {}, optional={"prompt_tokens": JSON_VALUES, "completion_tokens": st.integers()}
)
embedding_lists = JSON_VALUES | st.lists(
    st.floats() | st.integers() | st.sampled_from([10**400, -(10**400), 1e300]),
    max_size=6,
)
#: Any JSON value as the whole body, or the expected envelope.
chat_bodies = JSON_VALUES | st.builds(
    lambda content, usage: with_usage({"choices": [{"message": {"content": content}}]}, usage),
    chat_contents(),
    usages,
)
embedding_bodies = JSON_VALUES | st.builds(
    lambda vector, usage: with_usage({"data": [{"embedding": vector}]}, usage),
    embedding_lists,
    usages,
)

ADAPTER_CALLS = {
    "discriminator": lambda http: HttpBoundaryDiscriminator(http).detect(
        [EventNode("e1", "s1", 0, "ana", "first line", None, 2)]
    ),
    "summarizer": lambda http: HttpSummarizer(http).summarize("content"),
    "relation_scorer": lambda http: HttpRelationScorer(http).score("one", "two"),
    "relevance_scorer": lambda http: HttpRelevanceScorer(http).score("q", "t"),
    "entailment": lambda http: HttpEntailmentChecker(http).entails("summary", "text"),
    "embedder": lambda http: HttpEmbedder(http, 4).embed("text"),
}


class TestReplyFuzzing:
    """Any reply body maps to a value or a typed ``ProviderError``, with no
    warning: the adapters parse the wire format and judge nothing else."""

    @pytest.mark.parametrize("adapter", sorted(ADAPTER_CALLS))
    # Hypothesis's failure report imports a module that warns of its own
    # deprecation; as an error it would hide the failing example.
    @pytest.mark.filterwarnings("error", "ignore:mypy_extensions:DeprecationWarning")
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_reply_maps_to_a_value_or_a_provider_error(self, adapter, data):
        bodies = embedding_bodies if adapter == "embedder" else chat_bodies
        # The first reply and the one to the repair re-prompt.
        replies = data.draw(st.tuples(bodies, bodies))
        http, _, _ = client([(200, body) for body in replies])
        try:
            ADAPTER_CALLS[adapter](http)
        except ProviderError:
            pass
