"""CLI subcommands and exit codes."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from docturn import gateway
from docturn.cli import main
from docturn.costing import DocShape, compare_strategies, comparison_csv
from docturn.runner import executor
from docturn.runner.config import load_run_config

from .conftest import write_jsonl
from .test_runner import minimal_plan_dict

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture
def runner():
    return CliRunner()


class TestValidateCorpus:
    def test_valid_corpus_exit_0(self, runner, corpus_file):
        result = runner.invoke(main, ["validate-corpus", str(corpus_file)])
        assert result.exit_code == 0
        assert "documents:  3" in result.output

    def test_misaligned_corpus_exit_1_names_doc(self, runner, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(
            path,
            [{"id": "bad-doc", "src_lang": "en", "tgt_lang": "de", "domain": "n",
              "src": ["a", "b"], "ref": ["A"]}],
        )
        result = runner.invoke(main, ["validate-corpus", str(path)])
        assert result.exit_code == 1
        assert "bad-doc" in result.output

    @pytest.mark.parametrize("command", ["validate-corpus", "run"])
    @pytest.mark.parametrize("content, problem", [
        (b'{"id": "d", "src_lang": "en", "tgt_lang": "de", "src": [1, 2]}\n',
         "line 1: 'src' must be a list of strings"),
        (b'{"id": "d", "src_lang": "en", "tgt_lang": "de", "src": ["a"]}\r\n'
         b'{"id": "caf\xe9", "src_lang": "en", "tgt_lang": "de", "src": ["a"]}\n',
         "line 2: not valid UTF-8"),
    ], ids=["segments_not_strings", "not_utf8"])
    def test_malformed_corpus_exit_1_names_line(self, runner, tmp_path, command, content,
                                                problem):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(content)
        args = [str(path)]
        if command == "run":
            plan = tmp_path / "plan.json"
            plan.write_text(json.dumps(minimal_plan_dict(tmp_path)), "utf-8")
            args = ["--config", str(plan)]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 1
        prefix = "error: " if command == "run" else "invalid corpus: "
        assert result.output.startswith(prefix + problem), result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert not (tmp_path / "runs").exists()


class TestRun:
    def write_config(self, tmp_path, record) -> str:
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(record), "utf-8")
        return str(path)

    def test_mock_run_exit_0_writes_reports(self, runner, tmp_path):
        config = self.write_config(tmp_path, minimal_plan_dict(tmp_path))
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 0, result.output
        reports = tmp_path / "runs" / "test-run" / "reports"
        assert (reports / "main.csv").exists()
        assert f"wrote {len(list(reports.iterdir()))} report files" in result.output

    def test_unknown_config_key_exit_1(self, runner, tmp_path):
        record = minimal_plan_dict(tmp_path)
        record["temprature"] = 0
        config = self.write_config(tmp_path, record)
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 1
        assert "temprature" in result.output

    def test_tokenizer_key_exit_1_unknown_key(self, runner, tmp_path):
        """A plan that still sets a tokenizer, even to the old default, is
        refused as invalid before anything is written: each document is
        counted by its target language."""
        record = minimal_plan_dict(tmp_path, tokenizer="auto")
        result = runner.invoke(main, ["run", "--config", self.write_config(tmp_path, record)])
        assert result.exit_code == 1
        assert "invalid config: tokenizer: unknown key" in result.output
        assert not (tmp_path / "runs").exists()

    def test_missing_api_key_exit_1_before_requests(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("DOCTURN_SMOKE_KEY", raising=False)
        record = minimal_plan_dict(tmp_path)
        record["backends"] = [{
            "kind": "openai_compatible", "name": "real", "base_url": "http://localhost:1",
            "api_key_env_var": "DOCTURN_SMOKE_KEY",
        }]
        config = self.write_config(tmp_path, record)
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 1
        assert "API key" in result.output
        assert not (tmp_path / "runs" / "test-run").exists()

    def test_rejected_api_key_exit_2_run_failed(self, runner, tmp_path, monkeypatch):
        """A key the backend refuses is only known once a request was sent: a
        halting run fails at run time, not as a validation error."""
        monkeypatch.setenv("DOCTURN_TEST_KEY", "sk-wrong")
        sent = []

        class Unauthorized:
            status_code = 401
            text = '{"error": {"message": "Incorrect API key provided: sk-wrong."}}'

        def post(url, **kwargs):
            sent.append(url)
            return Unauthorized()

        monkeypatch.setattr(gateway.requests, "post", post)
        record = minimal_plan_dict(tmp_path, fail_policy="halt")
        record["backends"] = [{
            "kind": "openai_compatible", "name": "real", "base_url": "http://fake",
            "api_key_env_var": "DOCTURN_TEST_KEY",
        }]
        config = self.write_config(tmp_path, record)
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 2, result.output
        assert "run failed: HTTP 401" in result.output
        assert "Incorrect API key" in result.output
        assert len(sent) == 1

    def test_report_prints_the_paths_then_the_main_table(self, runner, tmp_path):
        config = self.write_config(tmp_path, minimal_plan_dict(tmp_path))
        assert runner.invoke(main, ["run", "--config", config]).exit_code == 0
        report = runner.invoke(main, ["report", "--config", config])
        assert report.exit_code == 0
        reports = tmp_path / "runs" / "test-run" / "reports"
        main_md = (reports / "main.md").read_text("utf-8")
        assert "| 100.00 |" in main_md
        paths, table = report.output[: -len(main_md)], report.output[-len(main_md):]
        assert table == main_md
        assert str(reports / "per_domain.csv") in paths.splitlines()
        assert str(reports / "per_domain.md") in paths.splitlines()

    def test_report_after_interrupted_first_run_exit_0(self, runner, tmp_path):
        config = self.write_config(tmp_path, minimal_plan_dict(tmp_path))
        calls = []

        def interrupted(request, backend):
            if len(calls) == 3:  # segment_level/doc-1 has completed
                raise RuntimeError("simulated interrupt")
            calls.append(request.request_tag)
            return gateway.complete(request, backend)

        with pytest.raises(RuntimeError):
            executor.execute(load_run_config(config), complete_fn=interrupted)
        report = runner.invoke(main, ["report", "--config", config])
        assert report.exit_code == 0, report.output
        assert "main.csv" in report.output

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_test_set_parsed_once_per_command(self, runner, tmp_path, monkeypatch, command):
        config = self.write_config(tmp_path, minimal_plan_dict(tmp_path))
        if command == "report":
            assert runner.invoke(main, ["run", "--config", config]).exit_code == 0
        parsed = []
        original = executor.load_corpus

        def load_corpus(path):
            parsed.append(path)
            return original(path)

        monkeypatch.setattr(executor, "load_corpus", load_corpus)
        result = runner.invoke(main, [command, "--config", config])
        assert result.exit_code == 0, result.output
        assert parsed == [str(tmp_path / "corpus.jsonl")]

    def test_missing_dictionary_exit_1_names_key(self, runner, tmp_path):
        record = minimal_plan_dict(tmp_path, backends=[
            {"kind": "mock_dictionary", "name": "dict", "dictionary_path": "missing.json"}
        ])
        config = self.write_config(tmp_path, record)
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 1
        assert "backends[0].dictionary_path" in result.output
        assert not (tmp_path / "runs" / "test-run").exists()

    def test_dictionary_backend_without_path_exit_1_names_key(self, runner, tmp_path):
        record = minimal_plan_dict(tmp_path, backends=[{"kind": "mock_dictionary", "name": "dict"}])
        config = self.write_config(tmp_path, record)
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 1
        assert "invalid config: backends[0].dictionary_path: required by mock_dictionary" in (
            result.output
        )
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name, content", [
        ("file.json", b'{"First": '),
        ("file.json", b'["First"]'),
        ("plan.json", b'{"run_id": "caf\xe9"}'),
    ], ids=["dictionary_invalid_json", "dictionary_not_an_object", "plan_not_utf8"])
    def test_malformed_file_exit_1_names_key(self, runner, tmp_path, name, content):
        record = minimal_plan_dict(tmp_path)
        record["backends"] = [
            {"kind": "mock_dictionary", "name": "dict", "dictionary_path": "file.json"}
        ]
        config = self.write_config(tmp_path, record)
        (tmp_path / name).write_bytes(content)
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        if name == "file.json":
            assert "backends[0].dictionary_path" in result.output
        else:
            assert result.output == f"invalid config: {config}: not valid UTF-8\n"
        assert not (tmp_path / "runs" / "test-run").exists()

    def test_report_on_unreadable_header_exit_1(self, runner, tmp_path):
        config = self.write_config(tmp_path, minimal_plan_dict(tmp_path))
        assert runner.invoke(main, ["run", "--config", config]).exit_code == 0
        log = tmp_path / "runs" / "test-run" / "run.jsonl"
        log.write_text('{"torn\n' + log.read_text("utf-8").split("\n", 1)[1], "utf-8")
        result = runner.invoke(main, ["report", "--config", config])
        assert result.exit_code == 1
        assert result.output == f"error: {log}: line 1 does not hold a JSON object header\n"
        assert isinstance(result.exception, SystemExit)  # no traceback

    @pytest.mark.parametrize("no_reports, reasons", [
        (False, "reports/exclusions.csv"), (True, "run.jsonl"),
    ], ids=["reports", "no_reports"])
    def test_run_names_where_the_exclusion_reasons_are(
        self, runner, tmp_path, no_reports, reasons
    ):
        """The reasons are in exclusions.csv once reports are written, and in
        the log's skipped-cell records under --no-reports."""
        config = self.write_config(tmp_path, minimal_plan_dict(tmp_path, max_context_tokens=8))
        result = runner.invoke(main, ["run", "--config", config] + ["--no-reports"] * no_reports)
        assert result.exit_code == 0, result.output
        assert f"excluded 4 cells (see {reasons})\n" in result.output
        run_dir = tmp_path / "runs" / "test-run"
        if no_reports:
            records = (run_dir / reasons).read_text("utf-8").splitlines()[1:]
            assert [json.loads(record)[3] for record in records] == 4 * [None]
        else:
            assert len((run_dir / reasons).read_text("utf-8").splitlines()) == 1 + 4

    @pytest.mark.parametrize("command", ["run", "report"])
    @pytest.mark.parametrize("scorer", ["missing", "failing"])
    def test_scorer_failure_exit_2(self, runner, tmp_path, command, scorer):
        scorer_command = (
            [str(tmp_path / "no-such-scorer")] if scorer == "missing"
            else [sys.executable, "-c", "raise SystemExit(3)"]
        )
        record = minimal_plan_dict(tmp_path, scoring={"scorer_command": scorer_command})
        config = self.write_config(tmp_path, record)
        if command == "report":
            assert runner.invoke(main, ["run", "--config", config, "--no-reports"]).exit_code == 0
        result = runner.invoke(main, [command, "--config", config])
        assert result.exit_code == 2
        error = result.output.splitlines()[-1]
        assert error.startswith("error: ")
        assert ("no-such-scorer" if scorer == "missing" else "code 3") in error
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_report_without_run_exit_2(self, runner, tmp_path):
        config = self.write_config(tmp_path, minimal_plan_dict(tmp_path))
        result = runner.invoke(main, ["report", "--config", config])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_missing_test_set_exit_1(self, runner, tmp_path, command):
        """A test set that cannot be read is a validation error for either
        command, reported in one line."""
        config = self.write_config(tmp_path, minimal_plan_dict(tmp_path))
        assert runner.invoke(main, ["run", "--config", config]).exit_code == 0
        corpus = tmp_path / "corpus.jsonl"
        corpus.unlink()
        result = runner.invoke(main, [command, "--config", config])
        assert result.exit_code == 1
        assert result.output == (
            f"error: testsets[0]: cannot read {corpus} (No such file or directory)\n"
        )
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_output_dir_under_a_file_exit_2(self, runner, tmp_path):
        (tmp_path / "file").write_text("", "utf-8")
        output_dir = tmp_path / "file" / "runs"
        record = minimal_plan_dict(tmp_path, output_dir=str(output_dir))
        config = self.write_config(tmp_path, record)
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 2
        assert result.output.startswith("run failed: ") and result.output.count("\n") == 1
        assert "Not a directory" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback


class TestSimulateCost:
    def test_output_matches_costing_module(self, runner):
        result = runner.invoke(
            main,
            ["simulate-cost", "--segments", "8", "--seg-tokens", "100", "--out-tokens", "100"],
        )
        assert result.exit_code == 0
        expected = comparison_csv(compare_strategies(DocShape.uniform(8, 100, 100)))
        assert result.output == expected

    def test_readme_example_is_byte_identical(self, runner):
        result = runner.invoke(
            main,
            ["simulate-cost", "--segments", "8", "--seg-tokens", "100", "--out-tokens", "100"],
        )
        assert result.exit_code == 0
        assert result.output == (GOLDEN / "simulate_cost_readme.csv").read_text("utf-8")

    def test_writes_csv_file(self, runner, tmp_path):
        out = tmp_path / "costs.csv"
        result = runner.invoke(
            main,
            ["simulate-cost", "--segments", "4", "--seg-tokens", "10",
             "--out-tokens", "10", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text("utf-8").startswith("strategy,cache_mode,")

    def test_out_in_missing_directory_exit_2(self, runner, tmp_path):
        out = tmp_path / "nodir" / "x.csv"
        result = runner.invoke(
            main,
            ["simulate-cost", "--segments", "4", "--seg-tokens", "10",
             "--out-tokens", "10", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert str(out) in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback

    @pytest.mark.parametrize(
        "option, value, field",
        [("--segments", "0", "at least one segment"),
         ("--seg-tokens", "-1", "source_tokens"),
         ("--out-tokens", "-1", "target_tokens"),
         ("--overhead", "-50", "instruction_overhead"),
         ("--primer-overhead", "-1", "primer_intro_overhead"),
         ("--shared-prefix", "-7", "shared_prefix_tokens")],
        ids=["segments", "seg_tokens", "out_tokens", "overhead", "primer_overhead",
             "shared_prefix"],
    )
    def test_invalid_segments_exit_1(self, runner, option, value, field):
        args = {"--segments": "3", "--seg-tokens": "10", "--out-tokens": "10", option: value}
        result = runner.invoke(main, ["simulate-cost", *(x for kv in args.items() for x in kv)])
        assert result.exit_code == 1
        assert result.output.startswith("error: ") and field in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
