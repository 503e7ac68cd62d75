import json
import subprocess
import sys
from pathlib import Path

import pytest

from graphmem.cli import build_parser, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def smoke_paths(tmp_path):
    return {
        "corpus": FIXTURES / "smoke_turns.jsonl",
        "qa": FIXTURES / "smoke_qa.jsonl",
        "snapshot": tmp_path / "smoke.snapshot.json",
        "report": tmp_path / "report.json",
    }


@pytest.fixture
def golden_snapshot_file(tmp_path):
    path = tmp_path / "golden.snapshot.json"
    code = main(
        [
            "ingest",
            "--corpus",
            str(FIXTURES / "golden_turns.jsonl"),
            "--strategy",
            "semantic",
            "--snapshot-out",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestIngest:
    def test_smoke_ingest_exits_zero_and_writes_snapshot(self, smoke_paths, capsys):
        code, out, _ = run_cli(
            [
                "ingest",
                "--corpus",
                smoke_paths["corpus"],
                "--strategy",
                "semantic",
                "--snapshot-out",
                smoke_paths["snapshot"],
            ],
            capsys,
        )
        assert code == 0
        assert smoke_paths["snapshot"].exists()
        assert "consolidated topic=t000001" in out

    def test_missing_corpus_exits_two_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.jsonl"
        code, _, err = run_cli(
            [
                "ingest",
                "--corpus",
                missing,
                "--strategy",
                "semantic",
                "--snapshot-out",
                tmp_path / "out.json",
            ],
            capsys,
        )
        assert code == 2
        assert str(missing) in err

    def test_fixed_window_strategy_engaged(self, smoke_paths, capsys):
        code, out, _ = run_cli(
            [
                "ingest",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--strategy",
                "fixed_window:256",
                "--snapshot-out",
                smoke_paths["snapshot"],
            ],
            capsys,
        )
        assert code == 0
        assert "strategy=fixed_window:256" in out

    def test_http_provider_without_endpoint_config_exits_two(self, smoke_paths, capsys):
        code, _, err = run_cli(
            [
                "ingest",
                "--corpus",
                smoke_paths["corpus"],
                "--strategy",
                "semantic",
                "--snapshot-out",
                smoke_paths["snapshot"],
                "--provider",
                "http",
            ],
            capsys,
        )
        assert code == 2
        assert "http_base_url" in err

    def test_config_file_overrides_engine_defaults(self, smoke_paths, tmp_path, capsys):
        config_file = tmp_path / "engine.conf"
        config_file.write_text("# custom operating point\nretrieval_k = 3\ntau = 0.4\n")
        code, _, _ = run_cli(
            [
                "ingest",
                "--corpus",
                smoke_paths["corpus"],
                "--strategy",
                "semantic",
                "--snapshot-out",
                smoke_paths["snapshot"],
                "--config",
                config_file,
            ],
            capsys,
        )
        assert code == 0
        from graphmem.store import load

        snapshot = load(smoke_paths["snapshot"])
        assert snapshot.config.retrieval_k == 3
        assert snapshot.config.tau == 0.4

    def test_config_value_of_wrong_type_exits_two(self, smoke_paths, tmp_path, capsys):
        config_file = tmp_path / "engine.conf"
        config_file.write_text("k_cand = 2.5\n")
        code, _, err = run_cli(
            [
                "ingest",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--snapshot-out",
                smoke_paths["snapshot"],
                "--config",
                config_file,
            ],
            capsys,
        )
        assert code == 2
        assert "k_cand must be an integer" in err
        assert not smoke_paths["snapshot"].exists()

    def test_unknown_strategy_exits_two(self, smoke_paths, capsys):
        code, _, err = run_cli(
            [
                "ingest",
                "--corpus",
                smoke_paths["corpus"],
                "--strategy",
                "mystery",
                "--snapshot-out",
                smoke_paths["snapshot"],
            ],
            capsys,
        )
        assert code == 2
        assert "strategy" in err


class TestQuery:
    def test_planted_question_hits_evidence(self, golden_snapshot_file, capsys):
        code, out, _ = run_cli(
            [
                "query",
                "--snapshot",
                golden_snapshot_file,
                "--text",
                "which tomato seedlings are in the garden greenhouse",
            ],
            capsys,
        )
        assert code == 0
        assert "heirloom tomato seedlings" in out

    def test_k_one_returns_single_row(self, golden_snapshot_file, capsys):
        code, out, _ = run_cli(
            [
                "query",
                "--snapshot",
                golden_snapshot_file,
                "--text",
                "garden compost",
                "--k",
                "1",
            ],
            capsys,
        )
        assert code == 0
        data_lines = [l for l in out.splitlines() if l.startswith(("1", "2"))]
        assert len(data_lines) == 1

    def test_empty_text_is_a_usage_error(self, golden_snapshot_file, capsys):
        code, _, err = run_cli(
            ["query", "--snapshot", golden_snapshot_file, "--text", "   "],
            capsys,
        )
        assert code == 2
        assert "non-empty" in err

    def test_config_with_engine_keys_is_a_usage_error(self, golden_snapshot_file, tmp_path, capsys):
        config_file = tmp_path / "engine.conf"
        config_file.write_text("retrieval_k = 2\nbogus_key = 5\n")
        code, out, err = run_cli(
            ["query", "--snapshot", golden_snapshot_file, "--text", "garden", "--config", config_file],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "['bogus_key', 'retrieval_k']" in err
        assert "--k" in err

    def test_config_with_only_http_keys_is_accepted(self, golden_snapshot_file, tmp_path, capsys):
        config_file = tmp_path / "http.conf"
        config_file.write_text("http_base_url = http://model.test/v1\nhttp_model = chat\n")
        code, out, _ = run_cli(
            ["query", "--snapshot", golden_snapshot_file, "--text", "garden", "--config", config_file],
            capsys,
        )
        assert code == 0
        assert len([l for l in out.splitlines() if l[:2].strip().isdigit()]) == 10

    def test_explain_exposes_score_components(self, golden_snapshot_file, capsys):
        code, out, _ = run_cli(
            [
                "query",
                "--snapshot",
                golden_snapshot_file,
                "--text",
                "when was the passport ferry boarding at the customs",
                "--explain",
            ],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0]
        for column in ("p_sem", "time", "conf", "role", "boost", "anchor"):
            assert column in header


@pytest.mark.parametrize("command", ["ingest", "query", "eval"])
def test_config_file_read_once_per_command(
    command, smoke_paths, golden_snapshot_file, tmp_path, capsys, monkeypatch
):
    """Also over ``--provider http`` (with the mocks behind it), where the
    provider reads its endpoint from the same file, and for every strategy
    of an ``eval`` matrix."""
    import graphmem.cli as cli
    from graphmem.providers import mock_bundle

    reads = []
    read = cli._load_kv_config
    monkeypatch.setattr(cli, "_load_kv_config", lambda path: reads.append(path) or read(path))
    monkeypatch.setattr(cli, "http_bundle", lambda http_config, dim: mock_bundle())
    config_file = tmp_path / "engine.conf"
    config_file.write_text("http_base_url = http://localhost:1\n")
    arguments = {
        "ingest": ["--corpus", smoke_paths["corpus"], "--snapshot-out", smoke_paths["snapshot"]],
        "query": ["--snapshot", golden_snapshot_file, "--text", "garden"],
        "eval": [
            "--corpus",
            FIXTURES / "golden_turns.jsonl",
            "--strategy",
            "semantic,session",
            "--report",
            smoke_paths["report"],
        ],
    }[command]
    code, _, err = run_cli(
        [command, *arguments, "--provider", "http", "--config", config_file], capsys
    )
    assert code == 0, err
    assert reads == [config_file]


class TestEval:
    def test_matrix_emits_three_rows_and_report(self, smoke_paths, capsys):
        code, out, _ = run_cli(
            [
                "eval",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--strategy",
                "semantic,session,fixed_turns:3",
                "--report",
                smoke_paths["report"],
            ],
            capsys,
        )
        assert code == 0
        table_rows = [
            line
            for line in out.splitlines()
            if line.startswith(("semantic", "session", "fixed_turns:3"))
        ]
        assert len(table_rows) == 3
        report = json.loads(smoke_paths["report"].read_text())
        assert set(report["strategies"]) == {"semantic", "session", "fixed_turns:3"}

    def test_explicit_qa_file(self, smoke_paths, capsys):
        code, _, _ = run_cli(
            [
                "eval",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--qa",
                FIXTURES / "golden_qa.jsonl",
                "--strategy",
                "semantic",
                "--report",
                smoke_paths["report"],
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(smoke_paths["report"].read_text())
        assert report["strategies"]["semantic"]["metrics"]["items"] == 10

    def test_report_holds_only_measured_metrics(self, smoke_paths, capsys):
        code, out, _ = run_cli(
            [
                "eval",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--strategy",
                "semantic,session",
                "--report",
                smoke_paths["report"],
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0].split() == [
            "strategy",
            "consolidations",
            "topic_nodes",
            "recall_at_k",
            "tokens_per_query",
        ]
        report = json.loads(smoke_paths["report"].read_text())
        for entry in report["strategies"].values():
            metrics = entry["metrics"]
            assert set(metrics) == {
                "items",
                "failed_items",
                "recall_at_k",
                "per_category",
                "tokens_per_query",
            }
            assert set(metrics["per_category"]) == {
                "single_hop",
                "multi_hop",
                "temporal",
                "open_domain",
            }
            for category in metrics["per_category"].values():
                assert set(category) == {"count", "recall_at_k"}

    def test_noise_spec_echoed_in_report(self, smoke_paths, capsys):
        code, _, _ = run_cli(
            [
                "eval",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--strategy",
                "semantic",
                "--noise",
                "0.4",
                "--seed",
                "5",
                "--report",
                smoke_paths["report"],
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(smoke_paths["report"].read_text())
        assert report["noise"] == {"eta": 0.4, "seed": 5}

    def test_negative_noise_seed_exits_two(self, smoke_paths, capsys):
        code, _, err = run_cli(
            [
                "eval",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--strategy",
                "semantic",
                "--noise",
                "0.2",
                "--seed",
                "-1",
                "--report",
                smoke_paths["report"],
            ],
            capsys,
        )
        assert code == 2
        assert "noise seed" in err
        assert not smoke_paths["report"].exists()

    def test_criteria_violation_exits_one(self, smoke_paths, tmp_path, capsys):
        criteria = tmp_path / "criteria.json"
        criteria.write_text(
            json.dumps(
                [
                    {
                        "metric": "strategies.semantic.metrics.recall_at_k",
                        "op": ">=",
                        "value": 2.0,
                    }
                ]
            )
        )
        code, _, err = run_cli(
            [
                "eval",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--strategy",
                "semantic",
                "--report",
                smoke_paths["report"],
                "--criteria",
                criteria,
            ],
            capsys,
        )
        assert code == 1
        assert "criteria violation" in err

    def test_criteria_satisfied_exits_zero(self, smoke_paths, tmp_path, capsys):
        criteria = tmp_path / "criteria.json"
        criteria.write_text(
            json.dumps(
                [
                    {
                        "metric": "strategies.semantic.metrics.recall_at_k",
                        "op": ">=",
                        "value": 0.5,
                    }
                ]
            )
        )
        code, _, _ = run_cli(
            [
                "eval",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--strategy",
                "semantic",
                "--report",
                smoke_paths["report"],
                "--criteria",
                criteria,
            ],
            capsys,
        )
        assert code == 0

    @pytest.mark.parametrize(
        "rules",
        [
            [{"metric": "strategies", "op": ">=", "value": 1}],
            [{"metric": "k", "value": 1}],
            {"metric": "k"},
        ],
        ids=["non-numeric-report-value", "missing-op", "bare-object"],
    )
    def test_malformed_criteria_exit_two(self, smoke_paths, tmp_path, capsys, rules):
        criteria = tmp_path / "criteria.json"
        criteria.write_text(json.dumps(rules))
        code, _, err = run_cli(
            [
                "eval",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--strategy",
                "semantic",
                "--report",
                smoke_paths["report"],
                "--criteria",
                criteria,
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: criteria")

    @pytest.mark.parametrize(
        "content",
        [None, "[{", json.dumps([{"metric": "k", "value": 1}])],
        ids=["missing-file", "invalid-json", "missing-op"],
    )
    def test_bad_criteria_file_fails_before_any_replay(
        self, smoke_paths, tmp_path, capsys, content
    ):
        criteria = tmp_path / "criteria.json"
        if content is not None:
            criteria.write_text(content)
        code, out, err = run_cli(
            [
                "eval",
                "--corpus",
                FIXTURES / "golden_turns.jsonl",
                "--strategy",
                "semantic",
                "--report",
                smoke_paths["report"],
                "--criteria",
                criteria,
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")
        assert out == ""
        assert not smoke_paths["report"].exists()


class TestInspect:
    def test_stats(self, golden_snapshot_file, capsys):
        code, out, _ = run_cli(
            ["inspect", "--snapshot", golden_snapshot_file, "--stats"], capsys
        )
        assert code == 0
        assert "topic_nodes" in out

    def test_topic_detail(self, golden_snapshot_file, capsys):
        code, out, _ = run_cli(
            ["inspect", "--snapshot", golden_snapshot_file, "--topic", "t000001"],
            capsys,
        )
        assert code == 0
        assert "summary:" in out

    def test_archive_detail(self, golden_snapshot_file, capsys):
        code, out, _ = run_cli(
            ["inspect", "--snapshot", golden_snapshot_file, "--archive", "a000001"],
            capsys,
        )
        assert code == 0
        assert "s1:0" in out

    @pytest.mark.parametrize(
        "option", [["--provider", "mock"], ["--seed", "3"], ["--config", "x.cfg"]]
    )
    def test_provider_options_are_not_accepted(self, option):
        # inspect reads only the snapshot file, so it takes no provider setup.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["inspect", "--snapshot", "s.json", *option])
        assert exit_info.value.code == 2

    def test_unknown_topic_exits_two(self, golden_snapshot_file, capsys):
        code, _, err = run_cli(
            ["inspect", "--snapshot", golden_snapshot_file, "--topic", "t999999"],
            capsys,
        )
        assert code == 2
        assert "unknown topic" in err


class TestHelp:
    def test_help_text_is_pinned(self, capsys):
        golden = Path(__file__).parent / "data" / "cli_help.txt"
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out == golden.read_text()

    def test_every_subcommand_documents_its_flags(self, capsys):
        for command, flags in {
            "ingest": ["--corpus", "--strategy", "--snapshot-out", "--provider", "--seed"],
            "query": ["--snapshot", "--text", "--k", "--explain"],
            "eval": ["--corpus", "--strategy", "--noise", "--report", "--criteria"],
            "inspect": ["--snapshot", "--topic", "--archive", "--stats"],
        }.items():
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            out = capsys.readouterr().out
            for flag in flags:
                assert flag in out, (command, flag)


class TestEntryPoint:
    def test_module_invocation_works(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "graphmem.cli",
                "ingest",
                "--corpus",
                str(FIXTURES / "smoke_turns.jsonl"),
                "--strategy",
                "session",
                "--snapshot-out",
                str(tmp_path / "snap.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "snap.json").exists()
