"""Run-plan validation, matrix execution, resume, and report determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from docturn import gateway
from docturn.errors import ConfigError, GatewayError, ResumeMismatchError
from docturn.runner.config import load_run_config, plan_from_dict
from docturn.runner.executor import execute, load_artifacts, load_testsets
from docturn.runner.reports import emit_reports

from .conftest import write_jsonl


def minimal_plan_dict(tmp_path: Path, **overrides) -> dict:
    corpus = tmp_path / "corpus.jsonl"
    if not corpus.exists():
        write_jsonl(
            corpus,
            [
                {
                    "id": "doc-1",
                    "src_lang": "en",
                    "tgt_lang": "de",
                    "domain": "news",
                    "src": ["One two three.", "Four five six.", "Seven eight nine."],
                    "ref": ["One two three.", "Four five six.", "Seven eight nine."],
                },
                {
                    "id": "doc-2",
                    "src_lang": "en",
                    "tgt_lang": "de",
                    "domain": "literary",
                    "src": ["Ten eleven twelve.", "Thirteen fourteen fifteen."],
                    "ref": ["Ten eleven twelve.", "Thirteen fourteen fifteen."],
                },
            ],
        )
    plan = {
        "run_id": "test-run",
        "testsets": [str(corpus)],
        "backends": [{"kind": "mock_identity", "name": "identity"}],
        "strategies": [{"mode": "segment_level"}, {"mode": "multi_turn"}],
        "output_dir": str(tmp_path / "runs"),
    }
    plan.update(overrides)
    return plan


class TestConfig:
    def test_minimal_config_valid(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        assert plan.run_id == "test-run"
        assert len(plan.backends) == 1 and len(plan.strategies) == 2

    def test_unknown_key_named(self, tmp_path):
        record = minimal_plan_dict(tmp_path)
        record["temprature"] = 0
        with pytest.raises(ConfigError, match="temprature"):
            plan_from_dict(record)

    def test_unknown_nested_key_has_path(self, tmp_path):
        record = minimal_plan_dict(tmp_path)
        record["backends"][0]["basurl"] = "x"
        with pytest.raises(ConfigError, match=r"backends\[0\]\.basurl"):
            plan_from_dict(record)

    def test_icl_with_two_exemplars_rejected(self, tmp_path):
        record = minimal_plan_dict(tmp_path)
        record["strategies"] = [{
            "mode": "multi_turn",
            "icl": True,
            "exemplars": [
                {"source": "a", "target": "b", "src_lang": "en", "tgt_lang": "de"},
                {"source": "c", "target": "d", "src_lang": "en", "tgt_lang": "de"},
            ],
        }]
        with pytest.raises(ConfigError, match="3 exemplars"):
            plan_from_dict(record)

    def test_load_from_file_resolves_relative_paths(self, tmp_path):
        record = minimal_plan_dict(tmp_path)
        record["testsets"] = ["corpus.jsonl"]
        record["output_dir"] = "runs"
        config_path = tmp_path / "plan.json"
        config_path.write_text(json.dumps(record), "utf-8")
        plan = load_run_config(config_path)
        assert plan.testsets == [str(tmp_path / "corpus.jsonl")]
        assert plan.output_dir == str(tmp_path / "runs")

    def test_unsafe_run_id_rejected(self, tmp_path):
        record = minimal_plan_dict(tmp_path, run_id="../evil")
        with pytest.raises(ConfigError, match="run_id"):
            plan_from_dict(record)

    def test_config_hash_stable_and_sensitive(self, tmp_path):
        a = plan_from_dict(minimal_plan_dict(tmp_path))
        b = plan_from_dict(minimal_plan_dict(tmp_path))
        assert a.config_hash == b.config_hash
        c = plan_from_dict(minimal_plan_dict(tmp_path, fail_policy="halt"))
        assert c.config_hash != a.config_hash


class TestExecute:
    def test_matrix_produces_all_cells(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        artifacts = execute(plan)
        assert len(artifacts.cells) == 1 * 2 * 2  # backends x strategies x documents
        for (backend, strategy, doc_id), cell in artifacts.cells.items():
            assert cell.translation.alignment_ok
        log = artifacts.run_dir / "cells" / "identity" / "multi_turn" / "doc-1.jsonl"
        assert log.read_text("utf-8").count("\n") == 3

    def test_identity_run_translations_equal_sources(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        artifacts = execute(plan)
        testset = load_testsets(plan)
        for (backend, strategy, doc_id), cell in artifacts.cells.items():
            assert cell.translation.hypothesis_segments == testset.by_id(doc_id).source_segments

    def test_ledgers_persisted_for_both_modes(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        artifacts = execute(plan)
        cell = artifacts.cells[("identity", "multi_turn", "doc-1")]
        assert set(cell.ledgers) == {"cached", "uncached"}
        assert (
            cell.ledgers["uncached"]["totals"]["prefill_new"]
            >= cell.ledgers["cached"]["totals"]["prefill_new"]
        )

    def test_resume_reuses_completed_cells(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        calls = []

        class Interrupted(RuntimeError):
            pass

        def flaky(request, backend):
            if len(calls) >= 4:
                raise Interrupted("simulated interrupt")
            calls.append(request.request_tag)
            return gateway.complete(request, backend)

        with pytest.raises(Interrupted):
            execute(plan, complete_fn=flaky)

        counted = []

        def counting(request, backend):
            counted.append(request.request_tag)
            return gateway.complete(request, backend)

        artifacts = execute(plan, complete_fn=counting)
        assert len(artifacts.cells) == 4
        # segment_level/doc-1 completed before the interrupt and is reused;
        # the remaining cells need 2 + 3 + 2 = 7 turns.
        assert len(counted) == 7

    def test_resume_with_different_config_rejected(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        changed = plan_from_dict(minimal_plan_dict(tmp_path, fail_policy="halt"))
        with pytest.raises(ResumeMismatchError):
            execute(changed)

    def test_skip_and_report_records_exclusion(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))

        def failing_for_doc2(request, backend):
            if request.request_tag.startswith("doc-2"):
                raise GatewayError("backend exploded")
            return gateway.complete(request, backend)

        artifacts = execute(plan, complete_fn=failing_for_doc2)
        assert len(artifacts.cells) == 2  # doc-1 under both strategies
        assert len(artifacts.exclusions) == 2
        manifest = json.loads((artifacts.run_dir / "manifest.json").read_text("utf-8"))
        assert {e["doc_id"] for e in manifest["exclusions"]} == {"doc-2"}

    def test_halt_policy_raises(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path, fail_policy="halt"))

        def failing(request, backend):
            raise GatewayError("down")

        with pytest.raises(GatewayError):
            execute(plan, complete_fn=failing)

    def test_missing_api_key_fails_before_any_request(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DOCTURN_NO_SUCH_KEY", raising=False)
        record = minimal_plan_dict(tmp_path)
        record["backends"] = [{
            "kind": "openai_compatible", "name": "real", "base_url": "http://x",
            "api_key_env_var": "DOCTURN_NO_SUCH_KEY",
        }]
        plan = plan_from_dict(record)
        with pytest.raises(GatewayError, match="API key"):
            execute(plan)
        assert not (Path(plan.output_dir) / plan.run_id / "cells").exists()

    def test_context_budget_overflow_excluded(self, tmp_path):
        record = minimal_plan_dict(tmp_path, max_context_tokens=8)
        plan = plan_from_dict(record)
        artifacts = execute(plan)
        assert any("context_overflow" in e["reason"] for e in artifacts.exclusions)

    def test_concurrent_execution_matches_sequential(self, tmp_path):
        sequential = plan_from_dict(minimal_plan_dict(tmp_path, run_id="seq"))
        concurrent = plan_from_dict(
            minimal_plan_dict(tmp_path, run_id="par", max_concurrent_documents=4)
        )
        cells_seq = execute(sequential).cells
        cells_par = execute(concurrent).cells
        assert {
            key: cell.translation.hypothesis_segments for key, cell in cells_seq.items()
        } == {key: cell.translation.hypothesis_segments for key, cell in cells_par.items()}


EXEMPLARS = [
    {"source": f"Example {i}.", "target": f"Beispiel {i}.", "src_lang": "en", "tgt_lang": "de"}
    for i in range(3)
]


def mixed_plan_dict(tmp_path: Path, **overrides) -> dict:
    """Every mode with and without ICL, on two backends."""
    strategies = []
    for mode in ("single_turn", "segment_level", "multi_turn", "multi_turn_sp"):
        strategies.append({"mode": mode})
        strategies.append({"mode": mode, "icl": True, "exemplars": EXEMPLARS})
    return minimal_plan_dict(
        tmp_path,
        backends=[
            {"kind": "mock_identity", "name": "identity"},
            {"kind": "mock_tail_dropper", "name": "dropper", "drop_fraction": 0.5},
        ],
        strategies=strategies,
        **overrides,
    )


def cell_log(plan, backend: str, strategy: str, doc_id: str) -> Path:
    return Path(plan.output_dir) / plan.run_id / "cells" / backend / strategy / f"{doc_id}.jsonl"


class TestCellLog:
    def test_loaded_cells_equal_fresh_cells(self, tmp_path):
        plan = plan_from_dict(mixed_plan_dict(tmp_path))
        executed = execute(plan)
        loaded = load_artifacts(plan)
        assert len(executed.cells) == 2 * 8 * 2 and set(loaded.cells) == set(executed.cells)
        for key, cell in executed.cells.items():
            assert loaded.cells[key].translation == cell.translation
            assert loaded.cells[key].ledgers == cell.ledgers
            assert loaded.cells[key].transcript is None

    def test_run_directory_holds_one_log_per_cell(self, tmp_path):
        plan = plan_from_dict(mixed_plan_dict(tmp_path))
        artifacts = execute(plan)
        emit_reports(artifacts)
        run_dir = artifacts.run_dir
        files = {
            p.relative_to(run_dir) for p in run_dir.rglob("*")
            if p.is_file() and p.parts[len(run_dir.parts)] != "reports"
        }
        logs = {cell_log(plan, *key).relative_to(run_dir) for key in artifacts.cells}
        assert files == {Path("manifest.json")} | logs
        for key, cell in artifacts.cells.items():
            lines = cell_log(plan, *key).read_text("utf-8").count("\n")
            assert lines == len(cell.transcript.turns)

    def test_log_line_stores_only_the_appended_messages(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        lines = cell_log(plan, "identity", "multi_turn", "doc-1").read_text("utf-8").splitlines()
        entries = [json.loads(line) for line in lines]
        # Each later request reuses the whole previous request plus its reply.
        assert [(e["keep"], len(e["append"])) for e in entries] == [(0, 1), (2, 1), (4, 1)]
        assert set(entries[0]) == {"keep", "append", "response", "elapsed_ms"}

    def _tamper(self, tmp_path, edit):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        log = cell_log(plan, "identity", "multi_turn", "doc-1")
        lines = log.read_text("utf-8").splitlines(keepends=True)
        log.write_text("".join(edit(lines)), "utf-8")
        return plan, log

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda lines: lines[:-1], "turn 2: line missing"),
            (lambda lines: lines + lines[-1:], "turn 3: extra line"),
            (lambda lines: lines[:1] + ["{not json\n"] + lines[2:], "turn 1: unparseable"),
            (
                lambda lines: lines[:1]
                + [lines[1].replace("Four five six.", "Four five seven.")]
                + lines[2:],
                "turn 1: logged request differs",
            ),
        ],
        ids=["truncated", "extra_line", "unparseable", "tampered_append"],
    )
    def test_tampered_log_rejected_on_load_and_resume(self, tmp_path, edit, problem):
        plan, log = self._tamper(tmp_path, edit)
        for load in (load_artifacts, execute):
            with pytest.raises(ResumeMismatchError, match=problem) as info:
                load(plan)
            assert str(log) in str(info.value)

    def test_pre_v2_manifest_rejected(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        manifest_path = Path(plan.output_dir) / plan.run_id / "manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        del manifest["layout_version"]
        manifest_path.write_text(json.dumps(manifest), "utf-8")
        for load in (load_artifacts, execute):
            with pytest.raises(ResumeMismatchError, match="layout"):
                load(plan)

    def test_interrupt_mid_cell_leaves_no_log_and_resume_reruns_it(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        log = cell_log(plan, "identity", "multi_turn", "doc-2")
        calls = []

        class Interrupted(RuntimeError):
            pass

        def interrupted_in_last_cell(request, backend):
            # 3 + 2 segment-level turns, 3 multi-turn turns for doc-1, then
            # multi_turn/doc-2 is interrupted after its first turn. Its log
            # must not exist yet: a process killed here leaves no .jsonl.
            if len(calls) == 9:
                assert not log.exists()
                raise Interrupted("simulated interrupt")
            calls.append(request.request_tag)
            return gateway.complete(request, backend)

        with pytest.raises(Interrupted):
            execute(plan, complete_fn=interrupted_in_last_cell)
        cells_dir = Path(plan.output_dir) / plan.run_id / "cells"
        assert sorted(p.relative_to(cells_dir).as_posix() for p in cells_dir.rglob("*.*")) == [
            "identity/multi_turn/doc-1.jsonl",
            "identity/segment_level/doc-1.jsonl",
            "identity/segment_level/doc-2.jsonl",
        ]

        resumed = []

        def counting(request, backend):
            resumed.append(request.request_tag)
            return gateway.complete(request, backend)

        artifacts = execute(plan, complete_fn=counting)
        assert resumed == ["doc-2:turn_0", "doc-2:turn_1"]
        assert log.read_text("utf-8").count("\n") == 2
        assert len(artifacts.cells) == 4


def report_bytes(run_dir: Path) -> dict[str, bytes]:
    reports = run_dir / "reports"
    return {path.name: path.read_bytes() for path in sorted(reports.iterdir())}


class TestReports:
    def test_identity_run_main_table_all_100(self, tmp_path):
        record = minimal_plan_dict(tmp_path)
        record["strategies"] = [
            {"mode": "single_turn"}, {"mode": "segment_level"}, {"mode": "multi_turn"},
            {"mode": "multi_turn_sp"},
        ]
        plan = plan_from_dict(record)
        artifacts = execute(plan)
        emit_reports(artifacts)
        main = (artifacts.run_dir / "reports" / "main.csv").read_text("utf-8").splitlines()
        assert main[0] == "backend,strategy,dbleu,segment_mean,blonde_lite_f1"
        for line in main[1:]:
            assert ",100.00," in line

    def test_single_turn_segment_mean_rendered_as_dash(self, tmp_path):
        record = minimal_plan_dict(tmp_path)
        record["strategies"] = [{"mode": "single_turn"}, {"mode": "multi_turn"}]
        plan = plan_from_dict(record)
        artifacts = execute(plan)
        emit_reports(artifacts)
        main = (artifacts.run_dir / "reports" / "main.csv").read_text("utf-8").splitlines()
        single_row = next(line for line in main if line.startswith("identity,Single-turn"))
        assert single_row.split(",")[3] == "-"

    def test_determinism_byte_identical_reports(self, tmp_path):
        plan_a = plan_from_dict(minimal_plan_dict(tmp_path, run_id="run-a"))
        plan_b = plan_from_dict(minimal_plan_dict(tmp_path, run_id="run-b"))
        artifacts_a = execute(plan_a)
        artifacts_b = execute(plan_b)
        emit_reports(artifacts_a)
        emit_reports(artifacts_b)
        assert report_bytes(artifacts_a.run_dir) == report_bytes(artifacts_b.run_dir)

    def test_resumed_run_reports_equal_uninterrupted(self, tmp_path):
        plan_full = plan_from_dict(minimal_plan_dict(tmp_path, run_id="full"))
        emit_reports(execute(plan_full))

        plan_resumed = plan_from_dict(minimal_plan_dict(tmp_path, run_id="resumed"))
        calls = []

        def flaky(request, backend):
            if len(calls) >= 3:
                raise RuntimeError("interrupt")
            calls.append(1)
            return gateway.complete(request, backend)

        with pytest.raises(RuntimeError):
            execute(plan_resumed, complete_fn=flaky)
        emit_reports(execute(plan_resumed))
        assert report_bytes(Path(plan_full.output_dir) / "full") == report_bytes(
            Path(plan_resumed.output_dir) / "resumed"
        )

    def test_load_artifacts_round_trip(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        executed = execute(plan)
        loaded = load_artifacts(plan)
        assert set(loaded.cells) == set(executed.cells)
        assert all(
            loaded.cells[key].translation == executed.cells[key].translation
            for key in executed.cells
        )

    def test_corpus_without_references_renders_dashes(self, tmp_path):
        corpus = tmp_path / "norefs.jsonl"
        write_jsonl(
            corpus,
            [{"id": "only-src", "src_lang": "en", "tgt_lang": "de", "domain": "news",
              "src": ["Some text here.", "More text there."]}],
        )
        record = minimal_plan_dict(tmp_path, testsets=[str(corpus)])
        plan = plan_from_dict(record)
        artifacts = execute(plan)
        emit_reports(artifacts)
        main = (artifacts.run_dir / "reports" / "main.csv").read_text("utf-8").splitlines()
        for line in main[1:]:
            assert line.endswith(",-,-,-")  # dbleu, segment_mean, blonde all missing

    def test_length_truncation_warning_attached(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))

        def truncating(request, backend):
            response = gateway.complete(request, backend)
            return type(response)(
                content=response.content,
                prompt_tokens=response.prompt_tokens,
                completion_tokens=response.completion_tokens,
                finish_reason="length",
                latency_ms=response.latency_ms,
            )

        artifacts = execute(plan, complete_fn=truncating)
        cell = artifacts.cells[("identity", "multi_turn", "doc-1")]
        assert any("finish_reason=length" in w for w in cell.translation.warnings)
