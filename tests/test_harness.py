import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.boundary import TriggerKind
from graphmem.config import EngineConfig
from graphmem.core import Utterance, snapshot_hash
from graphmem.engine import MemoryEngine
from graphmem.harness import (
    DialogueCorpus,
    NoiseSpec,
    QAItem,
    check_criteria,
    evaluate,
    format_table,
    inject_noise,
    load_corpus,
    parse_strategy,
    replay,
    scaling_report,
    write_corpus,
)
from graphmem.providers import mock_bundle

from conftest import interleaved_corpora

STRATEGY_NAMES = (
    "semantic",
    "session",
    "fixed_window:256",
    "fixed_window:512",
    "fixed_turns:3",
    "fixed_turns:5",
)


def mini_corpus(n_turns=4, sessions=1, text="the same garden topic"):
    turns = []
    for s in range(sessions):
        for i in range(n_turns):
            speaker = ("ana", "riley")[i % 2]
            turns.append(Utterance(f"s{s + 1}", speaker, f"{text} line {i}", turn_index=i))
    return DialogueCorpus(tuple(turns))


class TestCorpus:
    def test_duplicate_turn_ids_rejected(self):
        turns = (
            Utterance("s1", "ana", "a", turn_index=0),
            Utterance("s1", "riley", "b", turn_index=0),
        )
        with pytest.raises(ValueError, match="duplicate"):
            DialogueCorpus(turns)

    def test_unknown_evidence_rejected(self):
        turns = (Utterance("s1", "ana", "a", turn_index=0),)
        qa = (QAItem("q", "a", "single_hop", frozenset({"s1:9"})),)
        with pytest.raises(ValueError, match="evidence"):
            DialogueCorpus(turns, qa)

    def test_unknown_category_rejected(self):
        turns = (Utterance("s1", "ana", "a", turn_index=0),)
        qa = (QAItem("q", "a", "mystery"),)
        with pytest.raises(ValueError, match="category"):
            DialogueCorpus(turns, qa)

    def test_jsonl_round_trip(self, tmp_path, golden_corpus):
        turns_path = tmp_path / "turns.jsonl"
        qa_path = tmp_path / "qa.jsonl"
        write_corpus(golden_corpus, turns_path, qa_path)
        loaded = load_corpus(turns_path, qa_path)
        assert loaded == golden_corpus

    def test_malformed_row_is_reported_with_its_number(self, tmp_path):
        path = tmp_path / "turns.jsonl"
        path.write_text(
            '{"session_id": "s1", "turn_index": 0, "speaker": "a", "text": "x"}\n'
            '{"session_id": "s1"}\n'
        )
        with pytest.raises(ValueError, match="row 1"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("turn_index", 1.7),
            ("turn_index", True),
            ("turn_index", -1),
            ("turn_index", None),
            ("turn_index", KeyError),
            ("speaker", None),
            ("timestamp", 5),
            ("text", "  "),
        ],
    )
    def test_turn_row_is_checked_as_observe_would_check_it(self, tmp_path, field, value):
        row = {"session_id": "s1", "turn_index": 1, "speaker": "ana", "text": "x"}
        if value is KeyError:
            del row[field]
        else:
            row[field] = value
        path = tmp_path / "turns.jsonl"
        path.write_text(
            '{"session_id": "s1", "turn_index": 0, "speaker": "a", "text": "x"}\n'
            + json.dumps(row)
            + "\n"
        )
        with pytest.raises(ValueError, match=f"{path.name} row 1"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("question", 3),
            ("gold_answer", None),
            ("category", ["single_hop"]),
            ("evidence_turn_ids", "s1:0"),
            ("evidence_turn_ids", [0]),
        ],
    )
    def test_qa_row_holds_strings_and_a_list_of_ids(self, tmp_path, field, value):
        turns_path = tmp_path / "turns.jsonl"
        turns_path.write_text(
            '{"session_id": "s1", "turn_index": 0, "speaker": "a", "text": "x"}\n'
        )
        row = {
            "question": "q",
            "gold_answer": "a",
            "category": "single_hop",
            "evidence_turn_ids": ["s1:0"],
        }
        row[field] = value
        qa_path = tmp_path / "qa.jsonl"
        qa_path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=f"{qa_path.name} row 0"):
            load_corpus(turns_path, qa_path)

    def test_invalid_json_row_reported(self, tmp_path):
        path = tmp_path / "turns.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ValueError, match="row 0"):
            load_corpus(path)

    def test_sessions_property_orders_first_appearance(self):
        corpus = mini_corpus(2, sessions=3)
        assert corpus.sessions == ("s1", "s2", "s3")


class TestStrategyParsing:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("semantic", ("semantic", None)),
            ("session", ("session", None)),
            ("fixed_window:256", ("fixed_window", 256)),
            ("fixed_turns:5", ("fixed_turns", 5)),
        ],
    )
    def test_valid_names(self, name, expected):
        assert parse_strategy(name) == expected

    @pytest.mark.parametrize(
        "name", ["mystery", "fixed_turns", "fixed_turns:0", "semantic:3"]
    )
    def test_invalid_names(self, name):
        with pytest.raises(ValueError):
            parse_strategy(name)


class TestReplay:
    def test_session_strategy_one_consolidation_for_one_session(self):
        corpus = mini_corpus(4)
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, telemetry = replay(corpus, engine, "session")
        assert telemetry.consolidations == 1
        assert len(snapshot.archive) == 1
        assert snapshot.buffer == ()

    def test_second_replay_reports_only_its_own_triggers(self):
        corpus = mini_corpus(2, sessions=3)
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        _, first = replay(corpus, engine, "session")
        _, second = replay(corpus, engine, "session")
        assert first.session_end_triggers == second.session_end_triggers == 3
        for field, kind in (
            ("session_end_triggers", TriggerKind.SESSION_END),
            ("pause_triggers", TriggerKind.INTERACTION_PAUSE),
            ("overflow_triggers", TriggerKind.BUFFER_OVERFLOW),
            ("manual_triggers", TriggerKind.MANUAL),
        ):
            total = getattr(first, field) + getattr(second, field)
            assert total == engine.trigger_counts[kind], field

    def test_fixed_turns_cuts_every_three(self):
        corpus = mini_corpus(10)
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, telemetry = replay(corpus, engine, "fixed_turns:3")
        assert telemetry.consolidations == 3
        sizes = [len(g) for g in snapshot.archive.values()]
        assert sizes == [3, 3, 3]
        assert len(snapshot.buffer) == 1

    def test_fixed_window_cuts_on_token_budget(self):
        corpus = mini_corpus(12, text="four word lines here")
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, telemetry = replay(corpus, engine, "fixed_window:12")
        # 6 tokens per line, cut once the running total reaches 12
        assert telemetry.consolidations == 6
        assert all(len(g) == 2 for g in snapshot.archive.values())

    def test_semantic_consolidates_exactly_at_planted_shifts(self, smoke_corpus):
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, telemetry = replay(smoke_corpus, engine, "semantic")
        assert telemetry.consolidations == 1
        archived = next(iter(snapshot.archive.values()))
        assert [n.turn_index for n in archived.nodes] == [0, 1, 2, 3]
        assert len(snapshot.buffer) == 4  # second topic stays live

    def test_heuristic_strategies_never_call_the_discriminator(self, golden_corpus):
        for strategy in ("session", "fixed_turns:3", "fixed_window:256"):
            bundle = mock_bundle(EngineConfig())
            engine = MemoryEngine(bundle, EngineConfig())
            replay(golden_corpus, engine, strategy)
            assert bundle.call_log.count("discriminator") == 0

    def test_semantic_discriminator_calls_equal_session_ends(self, golden_corpus):
        bundle = mock_bundle(EngineConfig())
        engine = MemoryEngine(bundle, EngineConfig())
        _, telemetry = replay(golden_corpus, engine, "semantic")
        assert telemetry.discriminator_calls == len(golden_corpus.sessions)
        assert telemetry.session_end_triggers == len(golden_corpus.sessions)

    def test_replay_is_deterministic(self, golden_corpus):
        def run():
            engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
            snapshot, _ = replay(golden_corpus, engine, "semantic")
            return snapshot_hash(snapshot)

        assert run() == run()

    @pytest.mark.parametrize(
        "strategy,consolidations,digest",
        [
            ("semantic", 5, "7c69ac89acf52e5048ad39713b36665c52b1a367c856dd4c4b9a1f811f68e6e0"),
            ("session", 3, "70a200ad08b994ac3b18c6fed3d232f4fcb8032488ab8812e63c4c23ce249d1f"),
            ("fixed_window:256", 1, "56d50982f70382172afda4b77adb5c7ef0f0191877b8fa2d42f3fbf039b9f9c1"),
            ("fixed_window:512", 0, "9f1aa6f0c07e2f7a8ca2f09651e573a7fd9207daca7fa961c977e755b79ac6be"),
            ("fixed_turns:3", 16, "6bb75c5ae058245992cebc73beb98e5c9e3cac3111564ea18e9b174c0c244c81"),
            ("fixed_turns:5", 9, "cc64189e816081801f615f1062dcddbc4c64f8286ac244655efa2f0f03f44ad6"),
        ],
    )
    def test_golden_strategy_snapshots_are_pinned(
        self, golden_corpus, strategy, consolidations, digest
    ):
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, telemetry = replay(golden_corpus, engine, strategy)
        assert telemetry.consolidations == consolidations
        assert snapshot_hash(snapshot) == digest

    def test_fixed_cuts_count_as_manual_triggers(self):
        corpus = mini_corpus(4, sessions=2)
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        _, telemetry = replay(corpus, engine, "fixed_turns:3")
        assert telemetry.manual_triggers == telemetry.consolidations == 2
        # session ends fire but never cut a fixed-size strategy's buffer
        assert telemetry.session_end_triggers == 2
        assert len(engine.snapshot.buffer) == 2

    def test_heuristic_strategies_obey_the_overflow_rule(self):
        config = EngineConfig(buffer_token_limit=10)
        corpus = mini_corpus(6, text="four word lines here")
        engine = MemoryEngine(mock_bundle(config), config)
        snapshot, telemetry = replay(corpus, engine, "session")
        # 6 tokens per line: every second append breaches the 10-token budget
        assert telemetry.overflow_triggers == 3
        assert [r.forced for r in telemetry.reports] == [True, True, True]
        assert snapshot.buffer == ()
        assert telemetry.discriminator_calls == 0


class TestReplayProperties:
    @settings(max_examples=30, deadline=None)
    @given(corpus=interleaved_corpora(), limit=st.sampled_from((8, 24, 2048)))
    def test_every_turn_stored_exactly_once_under_every_strategy(self, corpus, limit):
        config = EngineConfig(buffer_token_limit=limit)
        expected = sorted((t.session_id, t.turn_index) for t in corpus.turns)
        for strategy in STRATEGY_NAMES:
            engine = MemoryEngine(mock_bundle(config), config)
            snapshot, telemetry = replay(corpus, engine, strategy)
            stored = [
                (n.session_id, n.turn_index)
                for graph in snapshot.archive.values()
                for n in graph.nodes
            ] + [(n.session_id, n.turn_index) for n in snapshot.buffer]
            assert sorted(stored) == expected, strategy
            assert telemetry.turns == len(corpus.turns)
            if strategy != "semantic":
                assert telemetry.discriminator_calls == 0, strategy


class TestNoise:
    def test_eta_zero_is_identity(self):
        boundaries = [2, 5, 9]
        assert inject_noise(boundaries, NoiseSpec(0.0, 7), 20) == boundaries

    def test_matches_independent_sampler_oracle(self):
        boundaries = list(range(0, 30, 3))
        assert len(boundaries) == 10
        for seed in (0, 1, 7, 99):
            got = inject_noise(boundaries, NoiseSpec(0.4, seed), 60)
            want = _oracle_perturb(boundaries, 60, 0.4, seed)
            assert got == want

    def test_deterministic_under_spec(self):
        spec = NoiseSpec(0.3, 42)
        first = inject_noise([1, 5, 9], spec, 30)
        second = inject_noise([1, 5, 9], spec, 30)
        assert first == second

    def test_spec_range_enforced(self):
        with pytest.raises(ValueError):
            NoiseSpec(0.5, 1)
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 1)

    def test_negative_seed_rejected(self):
        # random.Random(-1) replays random.Random(1); a negative seed would
        # silently alias its absolute value.
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(0.2, -1)
        assert NoiseSpec(0.2, 0).seed == 0

    def test_noisy_semantic_replay_completes(self, golden_corpus):
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, telemetry = replay(
            golden_corpus, engine, "semantic", noise=NoiseSpec(0.4, 11)
        )
        assert telemetry.turns == len(golden_corpus.turns)
        assert len(snapshot.topic_graph.nodes) == len(snapshot.archive)

    def _semantic_hash(self, corpus, noise):
        engine = MemoryEngine(mock_bundle(EngineConfig()), EngineConfig())
        snapshot, _ = replay(corpus, engine, "semantic", noise=noise)
        return snapshot_hash(snapshot)

    def test_each_check_draws_its_own_noise(self, scaling_corpus):
        # Reseeding every check with the spec seed replays one draw (0.844
        # for seed 0) at every check, which never perturbs at eta 0.1.
        noiseless = self._semantic_hash(scaling_corpus, None)
        assert self._semantic_hash(scaling_corpus, NoiseSpec(0.1, 0)) != noiseless

    def test_noisy_replay_is_reproducible(self, golden_corpus):
        spec = NoiseSpec(0.3, 4)
        first = self._semantic_hash(golden_corpus, spec)
        assert self._semantic_hash(golden_corpus, spec) == first


def _oracle_perturb(boundaries, n_positions, eta, seed):
    """Independent reimplementation sharing only the seed stream contract."""
    rng = random.Random(seed)
    out = []
    for b in sorted(boundaries):
        if rng.random() < eta:
            if rng.random() < 0.5:
                continue
            offset = (-2, -1, 1, 2)[int(rng.random() * 4)]
            shifted = b + offset
            if shifted < 0:
                shifted = 0
            if shifted > n_positions - 1:
                shifted = n_positions - 1
            out.append(shifted)
        else:
            out.append(b)
    for _ in range(round(eta * len(boundaries))):
        out.append(int(rng.random() * n_positions))
    return sorted(set(out))


class TestEvaluate:
    def test_recall_and_purity(self, golden_snapshot, golden_corpus):
        snapshot, _, providers = golden_snapshot
        before = snapshot_hash(snapshot)
        result = evaluate(golden_corpus, snapshot, providers)
        assert snapshot_hash(snapshot) == before
        assert result.items == len(golden_corpus.qa)
        assert result.failed_items == 0
        assert result.recall_at_k == 1.0
        assert set(result.per_category) == {
            "single_hop",
            "multi_hop",
            "temporal",
            "open_domain",
        }

    def test_eval_window_uses_only_read_path_providers(self, golden_snapshot, golden_corpus):
        snapshot, _, providers = golden_snapshot
        start = len(providers.call_log)
        evaluate(golden_corpus, snapshot, providers)
        used = {e.provider for e in providers.call_log.entries()[start:]}
        assert used <= {"embedder", "relevance_scorer"}

    def test_strategy_choice_never_touches_the_retrieval_path(self, golden_corpus):
        # call-log inspection: the eval window is identical in provider kind
        # no matter which strategy produced the snapshot
        for strategy in ("semantic", "session", "fixed_turns:3", "fixed_window:256"):
            bundle = mock_bundle(EngineConfig())
            engine = MemoryEngine(bundle, EngineConfig())
            snapshot, _ = replay(golden_corpus, engine, strategy)
            start = len(bundle.call_log)
            evaluate(golden_corpus, snapshot, bundle)
            used = {e.provider for e in bundle.call_log.entries()[start:]}
            assert used == {"embedder", "relevance_scorer"}, strategy

    def test_tokens_per_query_positive(self, golden_snapshot, golden_corpus):
        snapshot, _, providers = golden_snapshot
        result = evaluate(golden_corpus, snapshot, providers)
        assert result.tokens_per_query > 0


class TestScalingReport:
    def test_checkpoint_rows_monotone(self, scaling_corpus):
        config = EngineConfig()
        engine = MemoryEngine(mock_bundle(config), config)
        rows = scaling_report(scaling_corpus, engine, [3, 15, 27])
        assert [r["sessions"] for r in rows] == [3, 15, 27]
        for column in ("event_nodes", "topic_nodes", "edges"):
            values = [r[column] for r in rows]
            assert values == sorted(values)

    def test_event_nodes_equal_turns_consumed_minus_live_buffer(self, scaling_corpus):
        config = EngineConfig()
        engine = MemoryEngine(mock_bundle(config), config)
        rows = scaling_report(scaling_corpus, engine, [3, 15, 27])
        sessions = list(scaling_corpus.sessions)
        for row in rows:
            consumed_sessions = set(sessions[: row["sessions"]])
            turns_consumed = sum(
                1 for t in scaling_corpus.turns if t.session_id in consumed_sessions
            )
            assert row["event_nodes"] == turns_consumed - row["buffered"]
            assert row["event_nodes"] > 0

    def test_interleaved_sessions_lose_no_turns(self):
        corpus = DialogueCorpus(
            (
                Utterance("s1", "ana", "garden compost beds", turn_index=0),
                Utterance("s2", "riley", "an interview offer", turn_index=0),
                Utterance("s1", "ana", "garden mulch herbs", turn_index=1),
            )
        )
        config = EngineConfig()
        engine = MemoryEngine(mock_bundle(config), config)
        rows = scaling_report(corpus, engine, [3])
        assert [r["sessions"] for r in rows] == [3]
        assert rows[0]["event_nodes"] + rows[0]["buffered"] == 3
        assert engine.trigger_counts[TriggerKind.SESSION_END] == 3


class TestReports:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 223, "b": None}]
        table = format_table(rows, ["a", "b"])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert len({len(line) for line in lines}) == 1

    def test_check_criteria(self):
        report = {"strategies": {"semantic": {"recall": 0.9}}}
        rules = [
            {"metric": "strategies.semantic.recall", "op": ">=", "value": 0.5},
            {"metric": "strategies.semantic.recall", "op": ">=", "value": 0.95},
            {"metric": "strategies.missing.recall", "op": ">=", "value": 0.1},
        ]
        violations = check_criteria(report, rules)
        assert len(violations) == 2
        assert any("missing" in v for v in violations)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            check_criteria({}, [{"metric": "x", "op": "~", "value": 1}])

    @pytest.mark.parametrize(
        "rules",
        [
            {"metric": "k", "op": ">=", "value": 1},
            ["k >= 1"],
            [{"op": ">=", "value": 1}],
            [{"metric": "k", "value": 1}],
            [{"metric": "k", "op": ["=="], "value": 1}],
            [{"metric": "k", "op": ">=", "value": "1"}],
            [{"metric": "k", "op": ">=", "value": True}],
            [{"metric": "k", "op": ">="}],
            [{"metric": "names", "op": ">=", "value": 1}],
            [{"metric": "flag", "op": "==", "value": 1}],
        ],
    )
    def test_malformed_rule_or_value_rejected(self, rules):
        report = {"k": 10, "names": {"a": 1}, "flag": True}
        with pytest.raises(ValueError):
            check_criteria(report, rules)

    def test_null_report_value_is_a_violation(self):
        rules = [{"metric": "recall", "op": ">=", "value": 0.5}]
        assert check_criteria({"recall": None}, rules) == ["recall: None not >= 0.5"]
