"""Run-plan validation, matrix execution, resume, and report determinism."""

from __future__ import annotations

import builtins
import copy
import csv
import dataclasses
import errno
import hashlib
import importlib
import io
import json
import logging
import os
import pkgutil
import re
import shutil
import sys
import threading
import time
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from click.testing import CliRunner

import docturn
from docturn import costing, gateway
from docturn import strategy as strategy_module
from docturn.chat import ChatResponse, Message, assistant, user
from docturn.cli import main
from docturn.corpus import Exemplar
from docturn.costing import Transcript, TranscriptTurn
from docturn.errors import ConfigError, DocturnError, GatewayError, ResumeMismatchError
from docturn.gateway import BackendConfig
from docturn.metrics import report as report_module
from docturn.prompts import extract_fenced_payload, load_template_set
from docturn.runner import executor
from docturn.runner.config import RunPlan, ScoringConfig, load_run_config, plan_from_dict
from docturn.runner.executor import execute, load_artifacts, load_testsets
from docturn.runner.reports import emit_reports
from docturn.strategy import Mode, StrategyConfig

from .conftest import counted_messages, write_jsonl


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
        c = plan_from_dict(minimal_plan_dict(tmp_path, max_context_tokens=100))
        assert c.config_hash != a.config_hash


class TestExecute:
    def test_matrix_produces_all_cells(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        artifacts = execute(plan)
        assert len(artifacts.cells) == 1 * 2 * 2  # backends x strategies x documents
        for (backend, strategy, doc_id), cell in artifacts.cells.items():
            assert cell.translation.alignment_ok
        assert len(read_records(plan)[("identity", "multi_turn", "doc-1")][4:]) == 3

    def test_header_records_the_shipped_template_set(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        shipped = (Path(docturn.__file__).parent / "resources" / "templates"
                   / "wmt24_style_v1.txt").read_bytes()
        header = run_log(plan).read_text("utf-8").splitlines()[0]
        assert header == (
            '{"layout_version":8,"run_id":"test-run","config_hash":"%s",'
            '"template_set":"wmt24-style-v1","template_set_hash":"%s"}'
            % (plan.config_hash, hashlib.sha256(shipped).hexdigest())
        )

    def test_identity_run_translations_equal_sources(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        artifacts = execute(plan)
        docs = {doc.id: doc for doc in load_testsets(plan)}
        for (backend, strategy, doc_id), cell in artifacts.cells.items():
            assert cell.translation.hypothesis_segments == docs[doc_id].source_segments

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
        changed = plan_from_dict(minimal_plan_dict(tmp_path, max_context_tokens=100))
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
        # Each skipped cell is logged when it fails, after the cell before it.
        lines = log_lines(plan)[1:]
        assert [tuple(line[:3]) for line in lines] == PLAN_ORDER
        assert [line[2:] for line in lines if line[3] is None] == 2 * [
            ["doc-2", None, "backend exploded"]
        ]
        assert load_artifacts(plan).exclusions == sorted(
            artifacts.exclusions, key=lambda e: (e["backend"], e["strategy"], e["doc_id"])
        )

    def test_loading_keeps_each_skipped_cell_last_reason(self, tmp_path):
        """A resume retries each skipped cell and logs its new reason; execute
        and loading list the last reason of each cell that never completed."""
        plan = plan_from_dict(minimal_plan_dict(tmp_path))

        def failing(doc_id: str, reason: str):
            def complete(request, backend):
                if request.request_tag.startswith(doc_id):
                    raise GatewayError(reason)
                return gateway.complete(request, backend)

            return complete

        assert len(execute(plan, complete_fn=failing("doc-", "first")).exclusions) == 4
        second = execute(plan, complete_fn=failing("doc-2", "second"))
        assert [(e["doc_id"], e["reason"]) for e in second.exclusions] == 2 * [("doc-2", "second")]
        assert second.exclusions == load_artifacts(plan).exclusions
        assert sum(line[3] is None for line in log_lines(plan)[1:]) == 6
        loaded = load_artifacts(plan)
        assert set(loaded.cells) == {key for key in PLAN_ORDER if key[2] == "doc-1"}
        assert loaded.exclusions == [
            {"backend": "identity", "strategy": strategy, "doc_id": "doc-2", "reason": "second"}
            for strategy in ("multi_turn", "segment_level")
        ]

    def test_cells_follow_the_log_lines_on_run_resume_and_load(self, tmp_path):
        """A run that skips doc-1 and a resume that completes it log doc-2's
        cells first; the resumed and the loaded cells follow those lines."""
        plan = plan_from_dict(minimal_plan_dict(tmp_path))

        def doc_1_down(request, backend):
            if request.request_tag.startswith("doc-1"):
                raise GatewayError("down")
            return gateway.complete(request, backend)

        assert len(execute(plan, complete_fn=doc_1_down).exclusions) == 2
        resumed = execute(plan)
        completed = list(read_records(plan))
        assert completed == [
            ("identity", strategy, doc) for doc in ("doc-2", "doc-1")
            for strategy in ("segment_level", "multi_turn")
        ]
        assert list(resumed.cells) == completed
        assert list(load_artifacts(plan).cells) == completed

    def test_halt_policy_raises(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path, fail_policy="halt"))

        def failing(request, backend):
            raise GatewayError("down")

        with pytest.raises(GatewayError):
            execute(plan, complete_fn=failing)

    def test_halt_starts_no_queued_cell(self, tmp_path):
        corpus = tmp_path / "eight.jsonl"
        write_jsonl(corpus, [
            {"id": f"doc-{i}", "src_lang": "en", "tgt_lang": "de", "domain": "news",
             "src": [f"Segment {i} a.", f"Segment {i} b."]}
            for i in range(8)
        ])
        plan = plan_from_dict(minimal_plan_dict(
            tmp_path, testsets=[str(corpus)], strategies=[{"mode": "segment_level"}],
            fail_policy="halt", max_concurrent_documents=2,
        ))
        failed = threading.Event()
        sent: list[tuple[str, bool]] = []  # (request tag, sent after the failure)

        def complete(request, backend):
            sent.append((request.request_tag, failed.is_set()))
            if request.request_tag == "doc-0:turn_0":
                failed.set()
                raise GatewayError("down")
            # Hold the other worker's cell until the failure has been raised
            # and handled, so that its next cell starts after it.
            failed.wait(timeout=5)
            time.sleep(0.05)
            return gateway.complete(request, backend)

        with pytest.raises(GatewayError, match="down"):
            execute(plan, complete_fn=complete)
        started_after_failure = [
            tag for tag, after in sent if after and tag.endswith(":turn_0")
        ]
        assert started_after_failure == []
        assert {tag.split(":")[0] for tag, _ in sent} <= {"doc-0", "doc-1"}

    def test_failed_append_starts_no_queued_cell(self, tmp_path, monkeypatch):
        """An append that raises, on a full disk say, ends the run even under
        skip_and_report: the worker whose append failed starts no queued
        cell."""
        corpus = tmp_path / "eight.jsonl"
        write_jsonl(corpus, [
            {"id": f"doc-{i}", "src_lang": "en", "tgt_lang": "de", "domain": "news",
             "src": [f"Segment {i} a.", f"Segment {i} b."]}
            for i in range(8)
        ])
        plan = plan_from_dict(minimal_plan_dict(
            tmp_path, testsets=[str(corpus)], strategies=[{"mode": "segment_level"}],
            max_concurrent_documents=2,
        ))
        failed = threading.Event()
        append = executor._Log.append

        def full_disk(log, line: bytes, *cell) -> None:
            if b'"doc-0"' in line:
                failed.set()
                raise OSError(errno.ENOSPC, "No space left on device")
            return append(log, line, *cell)

        sent: list[str] = []

        def complete(request, backend):
            sent.append(request.request_tag)
            if not request.request_tag.startswith("doc-0:"):
                # Hold the other worker's cell until doc-0's append has
                # failed, so that no cell completes before it.
                failed.wait(timeout=5)
                time.sleep(0.05)
            return gateway.complete(request, backend)

        monkeypatch.setattr(executor._Log, "append", full_disk)
        with pytest.raises(OSError, match="No space left on device"):
            execute(plan, complete_fn=complete)
        assert {tag.split(":")[0] for tag in sent} <= {"doc-0", "doc-1"}

    def test_missing_api_key_fails_before_any_request(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DOCTURN_NO_SUCH_KEY", raising=False)
        record = minimal_plan_dict(tmp_path)
        record["backends"] = [{
            "kind": "openai_compatible", "name": "real", "base_url": "http://x",
            "api_key_env_var": "DOCTURN_NO_SUCH_KEY",
        }]
        plan = plan_from_dict(record)
        with pytest.raises(ConfigError, match=r"backends\[0\]\.api_key_env_var: .*API key"):
            execute(plan)
        assert not (Path(plan.output_dir) / plan.run_id).exists()

    def test_context_budget_overflow_excluded(self, tmp_path):
        record = minimal_plan_dict(tmp_path, max_context_tokens=8)
        plan = plan_from_dict(record)
        artifacts = execute(plan)
        assert any("context_overflow" in e["reason"] for e in artifacts.exclusions)

    def test_empty_reply_excluded(self, tmp_path):
        def complete(request, backend):
            response = gateway.complete(request, backend)
            if request.request_tag == "doc-1:turn_1":
                return dataclasses.replace(response, content="Translation: ")
            return response

        plan = plan_from_dict(minimal_plan_dict(tmp_path, strategies=[{"mode": "multi_turn"}]))
        artifacts = execute(plan, complete)
        assert artifacts.exclusions == [{
            "backend": "identity", "strategy": "multi_turn", "doc_id": "doc-1",
            "reason": "empty_output: document 'doc-1' at turn 1",
        }]
        assert set(artifacts.cells) == {("identity", "multi_turn", "doc-2")}

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


# The minimal plan's cells in plan order, the order a sequential run logs them.
PLAN_ORDER = [
    ("identity", strategy, doc) for strategy in ("segment_level", "multi_turn")
    for doc in ("doc-1", "doc-2")
]


def run_log(plan) -> Path:
    return Path(plan.output_dir) / plan.run_id / "run.jsonl"


def log_lines(plan) -> list:
    """Every line of a run's log, parsed: the header, then the records."""
    return [json.loads(line) for line in run_log(plan).read_text("utf-8").splitlines()]


def read_records(plan) -> dict[tuple, list]:
    """The completed cells' records by cell, in log order."""
    return {tuple(line[:3]): line for line in log_lines(plan)[1:] if line[3] is not None}


def edit_record(edit):
    """A log edit that rewrites line 4, the minimal plan's record of
    identity/multi_turn/doc-1."""

    def apply(lines: list[str]) -> list[str]:
        record = json.loads(lines[3])
        assert record[:3] == ["identity", "multi_turn", "doc-1"]
        return lines[:3] + [json.dumps(edit(record), ensure_ascii=False) + "\n"] + lines[4:]

    return apply


def edit_turns(edit):
    """A log edit that rewrites the turns of line 4's record."""
    return edit_record(lambda record: record[:4] + edit(record[4:]))


def edit_row(index: int, edit):
    """A log edit that rewrites turn `index` of line 4's record."""
    return edit_turns(lambda turns: [
        edit(turn) if i == index else turn for i, turn in enumerate(turns)
    ])


def recording(tags: list):
    def complete(request, backend):
        tags.append(request.request_tag)
        return gateway.complete(request, backend)

    return complete


class TestCellLog:
    @pytest.mark.parametrize("backends", ["mocks", "http"])
    def test_loaded_cells_equal_fresh_cells(self, tmp_path, monkeypatch, backends):
        """Every mode with and without ICL, on two mocks or on an HTTP
        backend whose usage reports a prefix cache: each loaded cell equals
        the fresh one, and each loaded turn's response is the one its
        backend sent, cached_tokens included."""
        record = mixed_plan_dict(tmp_path)
        if backends == "http":
            monkeypatch.setenv("DOCTURN_TEST_KEY", "sk-test")
            record["backends"] = [
                {"kind": "openai_compatible", "name": "http", "base_url": "http://fake",
                 "api_key_env_var": "DOCTURN_TEST_KEY"},
            ]
        plan = plan_from_dict(record)
        sent_cached: list[int] = []
        server = prefix_caching_server(sent_cached)
        executed = execute(plan, gateway.Gateway(plan.backends, http_post=server).complete)
        loaded = load_artifacts(plan)
        assert len(executed.cells) == len(plan.backends) * 8 * 2
        assert set(loaded.cells) == set(executed.cells)
        for key, cell in executed.cells.items():
            assert loaded.cells[key].translation == cell.translation
            assert loaded.cells[key].transcript == cell.transcript
            assert [t.response for t in loaded.cells[key].transcript.turns] == [
                t.response for t in cell.transcript.turns
            ]
            assert loaded.cells[key].ledgers == cell.ledgers
        cached = [
            t.response.cached_tokens for cell in loaded.cells.values() for t in cell.transcript.turns
        ]
        # A mock has no prefix cache; a sequential run sends its requests in
        # plan order, the order of the cells.
        assert cached == (sent_cached if backends == "http" else [None] * len(cached))

    def test_run_directory_holds_one_log(self, tmp_path):
        """One log for the run: its header, then one record per cell in the
        order the cells completed, which is plan order in a sequential run."""
        plan = plan_from_dict(mixed_plan_dict(tmp_path))
        artifacts = execute(plan)
        emit_reports(artifacts)
        run_dir = artifacts.run_dir
        files = {
            p.relative_to(run_dir) for p in run_dir.rglob("*")
            if p.is_file() and p.parts[len(run_dir.parts)] != "reports"
        }
        assert files == {Path("run.jsonl")}
        recorded = {key: len(record[4:]) for key, record in read_records(plan).items()}
        assert list(recorded) == list(artifacts.cells)
        assert recorded == {key: len(cell.transcript.turns) for key, cell in artifacts.cells.items()}

    def test_record_stores_the_replies_and_one_digest(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        artifacts = execute(plan)
        key = ("identity", "multi_turn", "doc-1")
        record = read_records(plan)[key]
        transcript = artifacts.cells[key].transcript
        assert record[:4] == [*key, executor.requests_digest(transcript)]
        assert re.fullmatch("[0-9a-f]{32}", record[3])
        # [content, prompt_tokens, cached_tokens, completion_tokens, finish_reason];
        # a mock has no prefix cache.
        assert [[type(item) for item in turn] for turn in record[4:]] == 3 * [
            [str, int, type(None), int, str]
        ]
        assert "Translate" not in run_log(plan).read_text("utf-8")  # no request text is stored

    def _tamper(self, tmp_path, edit):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        log = run_log(plan)
        lines = log.read_text("utf-8").splitlines(keepends=True)
        log.write_text("".join(edit(lines)), "utf-8")
        return plan, log

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (edit_turns(lambda turns: turns[:-1]), "line 4: MT1: turn 2: turn missing"),
            (edit_turns(lambda turns: turns + turns[-1:]), "line 4: MT1: turn 3: extra turn"),
            (lambda lines: lines[:3] + ["{not json\n"] + lines[4:], "line 4: unparseable record"),
            (
                edit_record(lambda record: [*record[:3], "0" * 32, *record[4:]]),
                "line 4: MT1: logged requests differ from the rebuilt ones",
            ),
            (
                edit_record(lambda record: record[:3] + record[4:]),
                "line 4: unparseable record .*requests is not a string",
            ),
            (
                edit_record(lambda record: [*record[:3], 5, *record[4:]]),
                "line 4: unparseable record .*requests is not a string",
            ),
            (
                edit_record(lambda record: [*record[:3], None, *record[4:]]),
                "line 4: unparseable record .*nor null before a reason",
            ),
            (
                edit_record(lambda record: [*record[:3], None]),
                "line 4: unparseable record .*nor null before a reason",
            ),
            (
                lambda lines: lines[:3] + ['{"doc":"doc-1","requests":"0","turns":[]}\n'] + lines[4:],
                "line 4: unparseable record .*not an array",
            ),
            (
                edit_turns(lambda turns: turns[:1] + [["x"]] + turns[2:]),
                "line 4: MT1: turn 1: unparseable turn .*1 items, not 5",
            ),
            (
                edit_row(1, lambda row: dict(zip(
                    ("content", "prompt_tokens", "completion_tokens", "finish_reason"),
                    row[:2] + row[3:],
                ))),
                "line 4: MT1: turn 1: unparseable turn .*not an array",
            ),
            (
                edit_row(1, lambda row: row[:4]),
                "line 4: MT1: turn 1: unparseable turn .*4 items, not 5",
            ),
            (
                edit_row(2, lambda row: [row[0], "5", *row[2:]]),
                "line 4: MT1: turn 2: unparseable turn .*prompt_tokens",
            ),
            (
                edit_row(2, lambda row: [*row[:3], -5, row[4]]),
                "line 4: MT1: turn 2: unparseable turn .*completion_tokens is negative",
            ),
            (
                edit_row(2, lambda row: [*row[:2], row[1] + 1, *row[3:]]),
                "line 4: MT1: turn 2: unparseable turn .*cached_tokens .* exceeds",
            ),
            (
                edit_row(2, lambda row: [*row[:4], "eos"]),
                "line 4: MT1: turn 2: unparseable turn .*finish_reason is 'eos'",
            ),
            (
                edit_row(1, lambda row: [" ", *row[1:]]),
                "line 4: MT1: replay failed: empty_output: document 'doc-1' at turn 1$",
            ),
            (
                lambda lines: lines + lines[3:4],
                "line 6: MT1: duplicate record, the first is on line 4",
            ),
            (
                edit_record(lambda record: ["identity", "multi_turn", "doc-9", *record[3:]]),
                "line 4: identity/multi_turn doc 'doc-9' is not a cell of the plan",
            ),
            (
                edit_record(lambda record: ["identity", "single_turn", *record[2:]]),
                "line 4: identity/single_turn doc 'doc-1' is not a cell of the plan",
            ),
        ],
        ids=["truncated", "extra_line", "unparseable", "tampered_digest", "no_digest",
             "digest_not_a_string", "null_digest_before_rows", "skip_without_reason",
             "layout_7_record", "unparseable_turn", "layout_6_turn", "no_finish_reason",
             "string_prompt_tokens", "negative_completion_tokens", "cached_exceeds_prompt",
             "unknown_finish_reason", "empty_reply", "duplicate_doc", "unknown_doc",
             "unknown_strategy"],
    )
    def test_tampered_log_rejected_on_load_and_resume(self, tmp_path, edit, problem):
        plan, log = self._tamper(tmp_path, edit)
        problem = problem.replace("MT1", "identity/multi_turn doc 'doc-1'")
        sent: list[str] = []
        for load in (load_artifacts, partial(execute, complete_fn=recording(sent))):
            with pytest.raises(ResumeMismatchError, match=problem) as info:
                load(plan)
            assert str(log) in str(info.value)
        assert sent == []

    @pytest.mark.parametrize("layout_version", [None, 7, 9], ids=["none", "7", "9"])
    def test_header_of_another_layout_rejected_before_any_request(self, tmp_path, layout_version):
        """A header without this version's layout_version is refused before
        any record is read: nothing is replayed, sent or written."""
        assert executor.LAYOUT_VERSION == 8
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        log = run_log(plan)
        header, *records = log.read_text("utf-8").splitlines(keepends=True)
        edited = {**json.loads(header), "layout_version": layout_version}
        if layout_version is None:
            del edited["layout_version"]
        log.write_text(json.dumps(edited) + "\n" + records[0], "utf-8")  # 3 cells to run
        before = run_dir_bytes(log.parent)
        sent: list[str] = []
        problem = (
            f"artifact layout {layout_version}, this version reads layout 8; "
            "re-run into a new directory"
        )
        for load in (load_artifacts, partial(execute, complete_fn=recording(sent))):
            with pytest.raises(ResumeMismatchError, match=problem):
                load(plan)
        assert sent == []
        assert run_dir_bytes(log.parent) == before

    @pytest.mark.parametrize(
        "files",
        [
            {"raw/identity/segment_level/doc-1/turn_0.json": "{}"},
            {
                "manifest.json": '{"layout_version": 7, "exclusions": []}\n',
                "cells/identity/segment_level.jsonl":
                    '{"doc":"doc-1","requests":"%s","turns":[]}\n' % ("0" * 32),
            },
            {"manifest.json.tmp": '{"torn'},
            {"run.jsonl": '{"layout_version":8,', "reports/main.csv": "backend\n"},
        ],
        ids=["layout_1", "layouts_2_to_7", "layout_7_staged_manifest", "torn_header_and_reports"],
    )
    def test_directory_without_a_log_header_rejected_before_any_request(self, tmp_path, files):
        """Layouts 1-7 wrote no run.jsonl: a directory whose log has no
        complete header and that holds any other file is refused by execute
        and load_artifacts, and nothing is sent or written."""
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        run_dir = Path(plan.output_dir) / plan.run_id
        for name, content in files.items():
            (run_dir / name).parent.mkdir(parents=True, exist_ok=True)
            (run_dir / name).write_text(content, "utf-8")
        before = run_dir_bytes(run_dir)
        sent: list[str] = []
        for load in (load_artifacts, partial(execute, complete_fn=recording(sent))):
            with pytest.raises(ResumeMismatchError, match="no run.jsonl header: an older layout"):
                load(plan)
        assert sent == []
        assert run_dir_bytes(run_dir) == before

    def test_log_bytes(self, tmp_path, monkeypatch):
        """A two-turn multi_turn cell on a mock and on an HTTP backend whose
        usage reports cached_tokens: the log is the header and one line per
        cell, each turn logs the cached_tokens its backend sent (none from
        the mock), and the loaded cells equal the fresh ones."""
        monkeypatch.setenv("DOCTURN_TEST_KEY", "sk-test")
        write_jsonl(tmp_path / "corpus.jsonl", [{
            "id": "doc-1", "src_lang": "en", "tgt_lang": "de", "domain": "news",
            "src": ["Eins zwei.", "Drei vier fünf."], "ref": ["Eins zwei.", "Drei vier fünf."],
        }])
        plan = plan_from_dict(minimal_plan_dict(
            tmp_path, strategies=[{"mode": "multi_turn"}],
            backends=[{"kind": "mock_identity", "name": "identity"},
                      {"kind": "openai_compatible", "name": "http", "base_url": "http://fake",
                       "api_key_env_var": "DOCTURN_TEST_KEY"}],
        ))
        sent_cached = []

        backends = gateway.Gateway(plan.backends, http_post=prefix_caching_server(sent_cached))
        fresh = execute(plan, complete_fn=backends.complete)
        requests = "584e3664734ed44af0d9b05891863933"
        header = run_log(plan).read_bytes().split(b"\n")[0]
        assert run_log(plan).read_bytes() == header + (
            '\n["identity","multi_turn","doc-1","%s",'
            '["Eins zwei.",20,null,2,"stop"],["Drei vier fünf.",43,null,3,"stop"]]\n'
            '["http","multi_turn","doc-1","%s",'
            '["Eins zwei.",20,0,2,"stop"],["Drei vier fünf.",43,22,3,"stop"]]\n'
            % (requests, requests)
        ).encode("utf-8")
        assert sent_cached == [0, 22]
        assert load_artifacts(plan).cells == fresh.cells

    def test_readme_names_the_layout_version(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        assert f"`layout_version: {executor.LAYOUT_VERSION}`" in readme

    def test_interrupt_mid_cell_leaves_no_record_and_resume_reruns_it(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        calls = []

        class Interrupted(RuntimeError):
            pass

        def interrupted_in_last_cell(request, backend):
            # 3 + 2 segment-level turns, 3 multi-turn turns for doc-1, then
            # multi_turn/doc-2 is interrupted after its first turn. Its record
            # must not be written yet: a process killed here leaves only the
            # three records before it.
            if len(calls) == 9:
                assert list(read_records(plan)) == PLAN_ORDER[:3]
                raise Interrupted("simulated interrupt")
            calls.append(request.request_tag)
            return gateway.complete(request, backend)

        with pytest.raises(Interrupted):
            execute(plan, complete_fn=interrupted_in_last_cell)
        run_dir = Path(plan.output_dir) / plan.run_id
        assert [p.name for p in run_dir.iterdir()] == ["run.jsonl"]
        assert list(read_records(plan)) == PLAN_ORDER[:3]

        resumed: list[str] = []
        artifacts = execute(plan, complete_fn=recording(resumed))
        assert resumed == ["doc-2:turn_0", "doc-2:turn_1"]
        assert list(read_records(plan)) == PLAN_ORDER
        assert len(read_records(plan)[PLAN_ORDER[3]][4:]) == 2
        assert len(artifacts.cells) == 4

    @pytest.mark.parametrize("cut", ["half", "before_newline"])
    def test_torn_record_ignored_on_load_and_resent_on_resume(self, tmp_path, cut):
        """A crash while appending the last cell's record leaves part of it
        after the last newline; that cell counts as not run."""
        uninterrupted = plan_from_dict(minimal_plan_dict(tmp_path, run_id="uninterrupted"))
        full = execute(uninterrupted)
        emit_reports(full)
        plan = plan_from_dict(minimal_plan_dict(tmp_path, run_id="torn"))
        execute(plan)
        log = run_log(plan)
        *first, last = log.read_bytes().splitlines(keepends=True)
        torn = last[: len(last) // 2] if cut == "half" else last[:-1]
        log.write_bytes(b"".join(first) + torn)

        loaded = load_artifacts(plan)
        assert set(loaded.cells) == set(full.cells) - {("identity", "multi_turn", "doc-2")}
        resent: list[str] = []
        artifacts = execute(plan, complete_fn=recording(resent))
        assert resent == ["doc-2:turn_0", "doc-2:turn_1"]
        assert log.read_bytes() == b"".join(first) + last
        emit_reports(artifacts)
        assert report_bytes(artifacts.run_dir) == report_bytes(
            Path(uninterrupted.output_dir) / uninterrupted.run_id
        )
        assert set(load_artifacts(plan).cells) == set(artifacts.cells)

    @pytest.mark.parametrize("cut", ["empty", "half", "before_newline"])
    def test_torn_header_alone_starts_the_run_anew(self, tmp_path, cut):
        """A crash while appending the header leaves no complete line: there
        is no run to load, and the next run starts the log anew."""
        uninterrupted = plan_from_dict(minimal_plan_dict(
            tmp_path, output_dir=str(tmp_path / "uninterrupted")
        ))
        emit_reports(execute(uninterrupted))
        expected = run_log(uninterrupted).read_bytes()
        plan = plan_from_dict(minimal_plan_dict(tmp_path, output_dir=str(tmp_path / "torn")))
        header = expected.splitlines(keepends=True)[0]
        run_log(plan).parent.mkdir(parents=True)
        run_log(plan).write_bytes({
            "empty": b"", "half": header[: len(header) // 2], "before_newline": header[:-1],
        }[cut])

        with pytest.raises(DocturnError, match="no run found"):
            load_artifacts(plan)
        resent: list[str] = []
        artifacts = execute(plan, complete_fn=recording(resent))
        assert len(resent) == 10
        assert run_log(plan).read_bytes() == expected
        emit_reports(artifacts)
        assert report_bytes(artifacts.run_dir) == report_bytes(
            Path(uninterrupted.output_dir) / uninterrupted.run_id
        )

    def test_complete_resume_writes_nothing(self, tmp_path, monkeypatch):
        """A resume with no cell left to run opens nothing for writing and
        leaves the log as it was, torn tail and all."""
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        log = run_log(plan)
        log.write_bytes(log.read_bytes() + b'["identity","multi')  # a torn line
        before = log.stat()
        opened: list[tuple[str, str]] = []

        def spied(open_file, file, mode="r", *args, **kwargs):
            opened.append((file_name(file), mode))
            return open_file(file, mode, *args, **kwargs)

        patch_open(monkeypatch, spied)
        sent: list[str] = []
        assert len(execute(plan, complete_fn=recording(sent)).cells) == 4
        monkeypatch.undo()
        assert sent == []
        assert [mode for name, mode in opened if name == "run.jsonl"] == ["rb"]
        assert (log.stat().st_size, log.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)


def icl_plan_dict(tmp_path: Path, **overrides) -> dict:
    return minimal_plan_dict(
        tmp_path,
        strategies=[{"mode": "segment_level"}, {"mode": "multi_turn", "icl": True, "exemplars": EXEMPLARS}],
        **overrides,
    )


class TestExemplarPrefix:
    """The exemplar messages every request of an ICL group starts with are
    built once per group and logged nowhere: each record's digest covers
    them."""

    @pytest.mark.parametrize("documents", [1, 6])
    def test_no_exemplar_message_is_logged(self, tmp_path, documents):
        corpus = tmp_path / "many.jsonl"
        write_jsonl(corpus, [
            {"id": f"doc-{i}", "src_lang": "en", "tgt_lang": "de",
             "src": [f"Segment {i} one.", f"Segment {i} two."]}
            for i in range(documents)
        ])
        plan = plan_from_dict(mixed_plan_dict(tmp_path, testsets=[str(corpus)]))
        artifacts = execute(plan)
        templates = load_template_set()
        text = run_log(plan).read_text("utf-8")
        for strategy in plan.strategies:
            prefix = strategy_module.exemplar_messages(strategy, templates)
            assert len(prefix) == (6 if strategy.icl else 0)
            for message in prefix:
                assert json.dumps(message.content, ensure_ascii=False) not in text
        assert len(text.splitlines()) == 1 + 2 * 8 * documents
        assert len(artifacts.cells) == 2 * 8 * documents

    def test_direction_mismatch_warned_once_per_icl_strategy(self, tmp_path, caplog):
        """An en->zh document under en->de exemplars is warned once per ICL
        strategy, whatever the backends, when execute has cells of that
        strategy to run; a matching corpus, a resume with nothing pending, a
        resume whose only pending cell is not ICL and a load warn of
        nothing."""
        mixed = tmp_path / "mixed.jsonl"
        write_jsonl(mixed, [
            {"id": "de-doc", "src_lang": "en", "tgt_lang": "de", "src": ["One two."]},
            {"id": "zh-doc", "src_lang": "en", "tgt_lang": "zh", "src": ["Three four."]},
        ])

        def logged() -> list[str]:
            messages = [r.getMessage() for r in caplog.records if r.name == executor.__name__]
            caplog.clear()
            return messages

        with caplog.at_level(logging.WARNING):
            plan = plan_from_dict(mixed_plan_dict(tmp_path, testsets=[str(mixed)]))
            execute(plan)
            assert logged() == [
                f"{mode}+icl: exemplar direction(s) en-de differ from test-set direction(s) en-zh"
                for mode in ("single_turn", "segment_level", "multi_turn", "multi_turn_sp")
            ]
            execute(plan)
            load_artifacts(plan)
            assert logged() == []
            execute(plan_from_dict(mixed_plan_dict(tmp_path, run_id="matching")))
            assert logged() == []
            header, *records = run_log(plan).read_text("utf-8").splitlines(keepends=True)
            dropped = ["identity", "segment_level", "zh-doc"]
            kept = [line for line in records if json.loads(line)[:3] != dropped]
            assert len(kept) == len(records) - 1
            run_log(plan).write_text(header + "".join(kept), "utf-8")
            assert len(execute(plan).cells) == len(records)
            assert logged() == []

    def test_prefix_built_once_per_group(self, tmp_path, monkeypatch):
        """exemplar_messages runs once per (backend, strategy), never per
        document or per request, on a run and on a load."""
        calls = []
        original = strategy_module.exemplar_messages

        def counted(config, templates):
            calls.append(config.label)
            return original(config, templates)

        monkeypatch.setattr(strategy_module, "exemplar_messages", counted)
        monkeypatch.setattr(executor, "exemplar_messages", counted)
        plan = plan_from_dict(mixed_plan_dict(tmp_path))
        groups = Counter(s.label for _ in plan.backends for s in plan.strategies)
        execute(plan)
        assert Counter(calls) == groups
        calls.clear()
        load_artifacts(plan)
        assert Counter(calls) == groups


class TestRequestsDigest:
    """A record's `requests` digest is the only trace of the requests its
    cell sent, so a replay that rebuilds other requests is refused."""

    def test_digest_hashes_the_documented_bytes(self):
        prompt, reply, follow_up = user("Grüße, Welt."), "Hallo.", user("Und?")
        transcript = Transcript([
            TranscriptTurn((prompt,), ChatResponse(reply)),
            TranscriptTurn((prompt, assistant(reply), follow_up), ChatResponse("Ja.")),
        ])
        # Turn 0 keeps nothing; turn 1 keeps the first request and its reply.
        payload = "0\nuser 14\nGrüße, Welt.2\nuser 4\nUnd?".encode("utf-8")
        expected = hashlib.blake2b(payload, digest_size=16).hexdigest()
        assert executor.requests_digest(transcript) == expected
        assert executor.requests_digest(Transcript()) == hashlib.blake2b(digest_size=16).hexdigest()

    def _assert_resume_refused(self, plan, where: str) -> None:
        sent: list[str] = []
        for load in (load_artifacts, partial(execute, complete_fn=recording(sent))):
            with pytest.raises(ResumeMismatchError) as info:
                load(plan)
            assert str(info.value) == (
                f"{run_log(plan)}: {where} doc 'doc-1': logged requests differ from the rebuilt ones"
            )
        assert sent == []

    def test_changed_template_text_refused_on_load_and_resume(self, tmp_path, monkeypatch):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        original = executor.load_template_set

        def edited():
            templates = original()
            segment = templates.slots["segment"].replace("Reply with", "Answer with")
            return dataclasses.replace(templates, slots={**templates.slots, "segment": segment})

        monkeypatch.setattr(executor, "load_template_set", edited)
        self._assert_resume_refused(plan, "line 2: identity/segment_level")

    def test_changed_template_set_hash_refused_before_any_replay(self, tmp_path, monkeypatch):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        shipped = load_template_set()
        edited = dataclasses.replace(shipped, content_hash="0" * 64)
        monkeypatch.setattr(executor, "load_template_set", lambda: edited)
        replayed: list[str] = []
        monkeypatch.setattr(executor, "_replay_cell", lambda *args: replayed.append(args[-1]))
        sent: list[str] = []
        message = (
            f"template set 'wmt24-style-v1' with hash '{shipped.content_hash}', "
            f"the shipped set hashes to '{'0' * 64}'"
        )
        for load in (load_artifacts, partial(execute, complete_fn=recording(sent))):
            with pytest.raises(ResumeMismatchError, match=re.escape(message)):
                load(plan)
        assert sent == [] and replayed == []

    def test_changed_exemplar_rendering_refused_on_load_and_resume(self, tmp_path, monkeypatch):
        plan = plan_from_dict(icl_plan_dict(tmp_path))
        execute(plan)
        original = executor.exemplar_messages

        def edited(config, templates):
            return tuple(
                Message(m.role, m.content.replace("Beispiel 1.", "Beispiel eins."))
                for m in original(config, templates)
            )

        monkeypatch.setattr(executor, "exemplar_messages", edited)
        self._assert_resume_refused(plan, "line 4: identity/multi_turn+icl")


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

    def test_single_turn_segment_mean_is_dash_with_a_scorer(self, tmp_path):
        """Only single-turn is kept from the external scorer: its row is "-"
        where every other row carries the scorer's mean."""
        scorer = [sys.executable, "-c", "import sys\nfor _ in sys.stdin: print(0.25)"]
        record = minimal_plan_dict(tmp_path, scoring={"scorer_command": scorer})
        record["strategies"] = [{"mode": "single_turn"}, {"mode": "multi_turn"}]
        artifacts = execute(plan_from_dict(record))
        emit_reports(artifacts)
        main = (artifacts.run_dir / "reports" / "main.csv").read_text("utf-8").splitlines()
        assert [line.split(",")[3] for line in main[1:]] == ["-", "0.2500"]

    def test_comma_bearing_ids_round_trip_through_every_csv(self, tmp_path):
        """A document id holding a comma, a quote or a lone carriage return is
        one cell of its row in the length and exclusion tables, and so is an
        exclusion reason that holds such an id, as csv.reader reads them back."""
        ids = ["a\rb", 'wmt24,doc-1', 'wmt24,"doc"-2']
        write_jsonl(tmp_path / "corpus.jsonl", [
            {"id": ids[0], "src_lang": "en", "tgt_lang": "de",
             "src": ["One two three.", "Four five six."], "ref": ["Eins.", "Zwei."]},
            {"id": ids[1], "src_lang": "en", "tgt_lang": "de",
             "src": ["Seven eight nine."], "ref": ["Drei."]},
            {"id": ids[2], "src_lang": "en", "tgt_lang": "de",
             "src": ["Ten eleven."], "ref": ["Vier."]},
        ])
        free = execute(plan_from_dict(minimal_plan_dict(tmp_path, run_id="free")))
        # The longest segment-level request fits; multi-turn's second request of
        # the first document does not.
        budget = max(sum(len(m.content.split()) for m in t.request_messages)
                     for (_, strategy, _), cell in free.cells.items() if strategy == "segment_level"
                     for t in cell.transcript.turns)
        artifacts = execute(plan_from_dict(minimal_plan_dict(tmp_path, max_context_tokens=budget)))
        assert [e["doc_id"] for e in artifacts.exclusions] == [ids[0]]
        emit_reports(artifacts)
        reports = artifacts.run_dir / "reports"

        def rows(name: str) -> list[list[str]]:
            with (reports / name).open(encoding="utf-8", newline="") as fh:
                return list(csv.reader(fh))

        lengths = rows("lengths_identity_segment_level.csv")
        assert lengths[0] == ["doc_id", "ref_tokens", "hyp_tokens", "ratio"]
        assert sorted(row[0] for row in lengths[1:-1]) == sorted(ids)
        assert all(len(row) == 4 for row in lengths)
        exclusions = rows("exclusions.csv")
        assert exclusions[0] == ["backend", "strategy", "doc_id", "reason"]
        assert exclusions[1][:3] == ["identity", "multi_turn", ids[0]]
        assert "\r" in exclusions[1][3] and exclusions[1][3] == artifacts.exclusions[0]["reason"]
        assert len(exclusions) == 2

    def test_comma_bearing_domain_round_trips_through_per_domain_csv(self, tmp_path):
        """A domain holding a comma or a `|` is one cell of per_domain.csv,
        kept as written, and its Markdown twin shows it unquoted, with a `|`
        escaped, so each row keeps the header's columns."""
        domains = ['news, "politics"', "news|politics"]
        write_jsonl(tmp_path / "corpus.jsonl", [
            {"id": f"doc-{i}", "src_lang": "en", "tgt_lang": "de", "domain": domain,
             "src": ["One two three."], "ref": ["One two three."]}
            for i, domain in enumerate(domains)
        ])
        artifacts = execute(plan_from_dict(minimal_plan_dict(tmp_path)))
        emit_reports(artifacts)
        reports = artifacts.run_dir / "reports"
        with (reports / "per_domain.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["backend", "domain", "Segment-level", "Multi-turn"]
        assert [row[:2] for row in rows[1:]] == [["identity", domain] for domain in domains]
        assert all(len(row) == 4 for row in rows)
        markdown = (reports / "per_domain.md").read_text("utf-8")
        assert f"| {domains[0]} |" in markdown and "| news\\|politics " in markdown
        assert {len(re.split(r"(?<!\\)\|", line)) for line in markdown.splitlines()} == {6}

    def test_returns_every_file_it_writes(self, tmp_path):
        """Each csv table's Markdown twin is returned beside it."""
        artifacts = execute(plan_from_dict(mixed_plan_dict(tmp_path)))
        written = emit_reports(artifacts)
        assert len(set(written)) == len(written)
        assert set(written) == set((artifacts.run_dir / "reports").iterdir())
        assert {"main.md", "per_direction.md", "per_domain.md"} <= {p.name for p in written}

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
        # A scorer that fails when called: no segment has a reference to score.
        record = minimal_plan_dict(
            tmp_path, testsets=[str(corpus)],
            scoring={"scorer_command": [sys.executable, "-c", "raise SystemExit(3)"]},
        )
        plan = plan_from_dict(record)
        artifacts = execute(plan)
        emit_reports(artifacts)
        reports = artifacts.run_dir / "reports"
        main = (reports / "main.csv").read_text("utf-8").splitlines()
        assert len(main) == 3
        for line in main[1:]:
            assert line.endswith(",-,-,-")  # dbleu, segment_mean, blonde all missing
        for strategy in ("segment_level", "multi_turn"):
            lengths = (reports / f"lengths_identity_{strategy}.csv").read_text("utf-8")
            assert lengths == "doc_id,ref_tokens,hyp_tokens,ratio\nTOTAL,0,0,nan\n"
        scores = json.loads((reports / "scores.json").read_text("utf-8"))
        assert {cell: m["flags"] for cell, m in scores.items()} == {
            "identity/segment_level": ["no_reference"], "identity/multi_turn": ["no_reference"]
        }
        assert all(m["dbleu"] is None and m["blonde"] is None for m in scores.values())

    def test_length_truncation_warning_attached(self, tmp_path):
        """A reply cut at the output limit stays in its turn's response, in
        the fresh cell and in the cell loaded from its record."""
        plan = plan_from_dict(minimal_plan_dict(tmp_path))

        def truncating(request, backend):
            response = gateway.complete(request, backend)
            return type(response)(
                content=response.content,
                prompt_tokens=response.prompt_tokens,
                completion_tokens=response.completion_tokens,
                finish_reason="length",
            )

        key = ("identity", "multi_turn", "doc-1")
        cell = execute(plan, complete_fn=truncating).cells[key]
        assert [t.response.finish_reason for t in cell.transcript.turns] == ["length"] * 3
        assert load_artifacts(plan).cells[key] == cell


def run_dir_bytes(run_dir: Path) -> dict[Path, bytes]:
    return {p.relative_to(run_dir): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}


class TestWallClockFields:
    """A run directory holds no wall-clock field: it is a function of the
    plan and the backend's replies alone."""

    def test_two_runs_write_byte_identical_run_directories(self, tmp_path, monkeypatch):
        """Two runs of one plan into two output directories, on mocks and on
        an HTTP backend whose every request is refused with 429, then 503,
        before it succeeds, write the same bytes at every path."""
        monkeypatch.setenv("DOCTURN_TEST_KEY", "sk-test")
        attempts = []

        def post(url, json=None, headers=None, timeout=None):
            attempts.append(url)
            status = (429, 503, 200)[(len(attempts) - 1) % 3]
            payload = extract_fenced_payload(json["messages"][-1]["content"])
            response = FakeResponse({
                "choices": [{"message": {"content": f"[de] {payload}"}, "finish_reason": "stop"}],
                "usage": {"prompt_tokens": len(json["messages"]), "completion_tokens": 2},
            })
            response.status_code = status
            return response

        runs = []
        for output_dir in ("first", "second"):
            mocks = mixed_plan_dict(tmp_path, output_dir=str(tmp_path / output_dir))
            http = mixed_plan_dict(tmp_path, output_dir=str(tmp_path / f"{output_dir}-http"))
            http["backends"][1] = {"kind": "openai_compatible", "name": "http",
                                   "base_url": "http://fake", "api_key_env_var": "DOCTURN_TEST_KEY"}
            for plan in map(plan_from_dict, (mocks, http)):
                backends = gateway.Gateway(plan.backends, http_post=post, sleeper=lambda s: None)
                artifacts = execute(plan, complete_fn=backends.complete)
                assert len(artifacts.cells) == 2 * 8 * 2 and not artifacts.exclusions
                emit_reports(artifacts)
                runs.append(run_dir_bytes(artifacts.run_dir))
        for first, second in (runs[0], runs[2]), (runs[1], runs[3]):
            assert {p.parts[0] for p in first} == {"run.jsonl", "reports"}
            assert first == second
        # One logged turn per request, whatever its attempts.
        logged = [
            turn for line in runs[3][Path("run.jsonl")].splitlines()[1:]
            for turn in json.loads(line)[4:] if json.loads(line)[0] == "http"
        ]
        assert len(attempts) == 2 * 3 * len(logged)

    def test_concurrent_run_writes_the_same_lines(self, tmp_path):
        """At max_concurrent_documents 4 records are appended in the order
        their cells complete: the log holds the same lines as a sequential
        run's, each group's after the group before it, and every other file
        is byte-identical. The run's cells and the loaded cells follow the
        log's completed lines, which doc-0, held until doc-1's line is in
        its group, puts out of plan order."""
        documents = [
            {"id": f"doc-{i}", "src_lang": "en", "tgt_lang": "de", "domain": "news",
             "src": [f"Paragraph {j} of {i}." for j in range(1 + i % 3)]}
            for i in range(8)
        ]
        write_jsonl(tmp_path / "corpus.jsonl", documents)
        runs = []
        for output_dir, concurrency in (("sequential", 1), ("concurrent", 4)):
            plan = plan_from_dict(mixed_plan_dict(
                tmp_path, output_dir=str(tmp_path / output_dir),
                max_concurrent_documents=concurrency,
            ))

            def doc_0_after_doc_1(request, backend):
                # Each earlier group has logged one doc-0 and one doc-1
                # line, so one more doc-1 line is this group's.
                deadline = time.monotonic() + 5
                while request.request_tag.startswith("doc-0:") and time.monotonic() < deadline:
                    lines = run_log(plan).read_bytes().split(b"\n")[1:-1]  # records, none torn
                    logged = [json.loads(line)[2:3] for line in lines]
                    if logged.count(["doc-1"]) > logged.count(["doc-0"]):
                        break
                    time.sleep(0.001)
                return gateway.complete(request, backend)

            artifacts = execute(plan, complete_fn=doc_0_after_doc_1 if concurrency > 1 else None)
            emit_reports(artifacts)
            runs.append(run_dir_bytes(artifacts.run_dir))
        completed = list(read_records(plan))
        assert completed != [
            (b.name, s.label, d.id)
            for b in plan.backends for s in plan.strategies for d in load_testsets(plan)
        ]
        assert list(artifacts.cells) == completed
        assert list(load_artifacts(plan).cells) == completed
        sequential, concurrent = runs
        assert sequential.keys() == concurrent.keys()
        for path, data in sequential.items():
            if path == Path("run.jsonl"):
                lines = data.splitlines()
                assert len(lines) == 1 + 2 * 8 * len(documents)
                for start in range(1, len(lines), len(documents)):  # one group at a time
                    group = slice(start, start + len(documents))
                    assert Counter(concurrent[path].splitlines()[group]) == Counter(lines[group])
            else:
                assert concurrent[path] == data


class TestMalformedBackendReply:
    def test_garbage_reply_excludes_only_its_cell(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DOCTURN_TEST_KEY", "sk-test")
        record = minimal_plan_dict(
            tmp_path,
            backends=[{"kind": "openai_compatible", "name": "real", "base_url": "http://fake",
                       "api_key_env_var": "DOCTURN_TEST_KEY"}],
            strategies=[{"mode": "segment_level"}, {"mode": "multi_turn"}],
            fail_policy="skip_and_report",
        )
        plan = plan_from_dict(record)

        class Reply:
            status_code = 200

            def __init__(self, text):
                self.text = text

            def json(self):
                return json.loads(self.text)

        def post(url, **kwargs):
            messages = kwargs["json"]["messages"]
            # Turn 1 of doc-2 under segment_level, the one request without history.
            if "Thirteen" in messages[-1]["content"] and "assistant" not in {
                m["role"] for m in messages
            }:
                return Reply("<html>upstream garbage</html>")
            return Reply(json.dumps({"choices": [{"message": {"content": "Übersetzt."}}]}))

        def complete_fn(request, backend):
            return gateway.complete(request, backend, http_post=post, sleeper=lambda s: None)

        artifacts = execute(plan, complete_fn=complete_fn)
        assert set(artifacts.cells) == {
            ("real", "segment_level", "doc-1"),
            ("real", "multi_turn", "doc-1"),
            ("real", "multi_turn", "doc-2"),
        }
        emit_reports(artifacts)
        lines = (artifacts.run_dir / "reports" / "exclusions.csv").read_text("utf-8").splitlines()
        assert lines[0] == "backend,strategy,doc_id,reason"
        assert len(lines) == 2
        assert lines[1].startswith("real,segment_level,doc-2,malformed response for doc-2:turn_1")


# Every field that feeds a run, either covered by the resume-identity hash
# (it decides a request or its reply) or declared operational (it decides
# neither). A new field must be added to one of the two sets.
HASHED_FIELDS = {
    RunPlan: {"run_id", "testsets", "backends", "strategies", "max_context_tokens"},
    BackendConfig: {"kind", "name", "model", "base_url", "api_key_env_var", "dictionary_path",
                    "drop_fraction"},
    StrategyConfig: {"mode", "icl", "exemplars", "max_tokens"},
    Exemplar: {"source", "target", "src_lang", "tgt_lang"},
    ScoringConfig: set(),
}
OPERATIONAL_FIELDS = {
    RunPlan: {"output_dir", "max_concurrent_documents", "fail_policy", "scoring"},
    BackendConfig: {"timeout_s", "max_retries", "requests_per_minute"},
    StrategyConfig: set(),
    Exemplar: set(),
    ScoringConfig: {"blonde", "scorer_command", "top_n", "case_sensitive", "max_n"},
}


def _identity_plan(tmp_path: Path) -> RunPlan:
    """Two strategies: strategies[0] without ICL, strategies[1] with it."""
    return plan_from_dict(
        minimal_plan_dict(
            tmp_path,
            strategies=[{"mode": "segment_level"},
                        {"mode": "multi_turn", "icl": True, "exemplars": EXEMPLARS}],
        )
    )


def _with_backend(plan: RunPlan, **change) -> RunPlan:
    return dataclasses.replace(plan, backends=[dataclasses.replace(plan.backends[0], **change)])


def _with_strategy(plan: RunPlan, index: int, **change) -> RunPlan:
    strategies = list(plan.strategies)
    strategies[index] = dataclasses.replace(strategies[index], **change)
    return dataclasses.replace(plan, strategies=strategies)


def _with_exemplar(plan: RunPlan, **change) -> RunPlan:
    exemplars = list(plan.strategies[1].exemplars)
    exemplars[0] = dataclasses.replace(exemplars[0], **change)
    return _with_strategy(plan, 1, exemplars=tuple(exemplars))


def _single_field_changes(plan: RunPlan, tmp_path: Path) -> dict:
    """(class, field) -> the plan with only that field changed."""
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(Path(plan.testsets[0]).read_bytes())
    dictionary = tmp_path / "dict.json"
    dictionary.write_text('{"One": "Eins"}', "utf-8")
    return {
        (RunPlan, "run_id"): dataclasses.replace(plan, run_id="other-run"),
        (RunPlan, "testsets"): dataclasses.replace(plan, testsets=[str(copy)]),
        (RunPlan, "backends"): dataclasses.replace(
            plan, backends=plan.backends + [BackendConfig(kind="mock_identity", name="extra")]
        ),
        (RunPlan, "strategies"): dataclasses.replace(plan, strategies=plan.strategies[:1]),
        (RunPlan, "scoring"): dataclasses.replace(plan, scoring=ScoringConfig(top_n=3)),
        (RunPlan, "fail_policy"): dataclasses.replace(plan, fail_policy="halt"),
        (RunPlan, "max_context_tokens"): dataclasses.replace(plan, max_context_tokens=100),
        (RunPlan, "output_dir"): dataclasses.replace(plan, output_dir=str(tmp_path / "elsewhere")),
        (RunPlan, "max_concurrent_documents"): dataclasses.replace(
            plan, max_concurrent_documents=4
        ),
        (BackendConfig, "kind"): _with_backend(plan, kind="mock_tail_dropper"),
        (BackendConfig, "name"): _with_backend(plan, name="renamed"),
        (BackendConfig, "model"): _with_backend(plan, model="other-model"),
        (BackendConfig, "base_url"): _with_backend(plan, base_url="http://other"),
        (BackendConfig, "api_key_env_var"): _with_backend(plan, api_key_env_var="OTHER_KEY"),
        (BackendConfig, "max_retries"): _with_backend(plan, max_retries=9),
        (BackendConfig, "requests_per_minute"): _with_backend(plan, requests_per_minute=10),
        (BackendConfig, "dictionary_path"): _with_backend(plan, dictionary_path=str(dictionary)),
        (BackendConfig, "drop_fraction"): _with_backend(plan, drop_fraction=0.5),
        (BackendConfig, "timeout_s"): _with_backend(plan, timeout_s=5.0),
        (StrategyConfig, "mode"): _with_strategy(plan, 0, mode=Mode.SINGLE_TURN),
        (StrategyConfig, "icl"): _with_strategy(plan, 1, icl=False),
        (StrategyConfig, "exemplars"): _with_strategy(
            plan, 1, exemplars=plan.strategies[1].exemplars[::-1]
        ),
        (StrategyConfig, "max_tokens"): _with_strategy(plan, 0, max_tokens=64),
        (Exemplar, "source"): _with_exemplar(plan, source="Other."),
        (Exemplar, "target"): _with_exemplar(plan, target="Andere."),
        (Exemplar, "src_lang"): _with_exemplar(plan, src_lang="fr"),
        (Exemplar, "tgt_lang"): _with_exemplar(plan, tgt_lang="it"),
        (ScoringConfig, "blonde"): dataclasses.replace(plan, scoring=ScoringConfig(blonde=False)),
        (ScoringConfig, "scorer_command"): dataclasses.replace(
            plan, scoring=ScoringConfig(
                scorer_command=(sys.executable, "-c", "import sys\nfor _ in sys.stdin: print(0.5)")
            )
        ),
        (ScoringConfig, "top_n"): dataclasses.replace(plan, scoring=ScoringConfig(top_n=3)),
        (ScoringConfig, "case_sensitive"): dataclasses.replace(
            plan, scoring=ScoringConfig(case_sensitive=False)
        ),
        (ScoringConfig, "max_n"): dataclasses.replace(plan, scoring=ScoringConfig(max_n=2)),
    }


class TestResumeIdentity:
    def test_every_field_is_hashed_or_declared_operational(self):
        for cls, hashed in HASHED_FIELDS.items():
            operational = OPERATIONAL_FIELDS[cls]
            assert not hashed & operational, cls.__name__
            assert hashed | operational == {f.name for f in dataclasses.fields(cls)}, cls.__name__

    def test_hash_moves_with_exactly_the_hashed_fields(self, tmp_path):
        plan = _identity_plan(tmp_path)
        changes = _single_field_changes(plan, tmp_path)
        declared = {(cls, name) for cls, names in HASHED_FIELDS.items() for name in names}
        declared |= {(cls, name) for cls, names in OPERATIONAL_FIELDS.items() for name in names}
        assert set(changes) == declared
        for (cls, name), changed in changes.items():
            if name in HASHED_FIELDS[cls]:
                assert changed.config_hash != plan.config_hash, f"{cls.__name__}.{name}"
            else:
                assert changed.config_hash == plan.config_hash, f"{cls.__name__}.{name}"

    def test_operational_edit_resumes_and_a_hashed_one_refuses(self, tmp_path):
        """A run resumes across an edit of any operational field alone (a
        moved output_dir, once its directory is moved there) with no request
        sent and its cells untouched, and its reports are re-scored. An edit
        of any hashed field alone, its directory moved along with a renamed
        run, is refused by execute and load_artifacts before any request."""
        plan = _identity_plan(tmp_path)
        emit_reports(execute(plan))
        run_dir = Path(plan.output_dir) / plan.run_id
        log = run_log(plan).read_bytes()
        for (cls, name), changed in _single_field_changes(plan, tmp_path).items():
            field_name = f"{cls.__name__}.{name}"
            changed_dir = Path(changed.output_dir) / changed.run_id
            if changed_dir != run_dir:
                shutil.copytree(run_dir, changed_dir, dirs_exist_ok=True)
            sent: list[str] = []
            if name in HASHED_FIELDS[cls]:
                for load in (load_artifacts, partial(execute, complete_fn=recording(sent))):
                    with pytest.raises(ResumeMismatchError, match="config_hash"):
                        load(changed)
                assert sent == [], field_name
                continue
            artifacts = execute(changed, complete_fn=recording(sent))
            assert sent == [], field_name
            assert run_log(changed).read_bytes() == log, field_name
            assert len(artifacts.cells) == 4
            emit_reports(load_artifacts(changed))

    def test_report_rescores_after_a_top_n_edit(self, tmp_path):
        """`docturn report` re-scores a finished run under an edited scoring
        key: a larger top_n adds a row to each lengths table."""
        record = minimal_plan_dict(tmp_path, scoring={"top_n": 1})
        config = tmp_path / "plan.json"
        config.write_text(json.dumps(record), "utf-8")
        runner = CliRunner()
        assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
        lengths = Path(record["output_dir"]) / "test-run" / "reports" / (
            "lengths_identity_multi_turn.csv"
        )
        assert len(lengths.read_text("utf-8").splitlines()) == 3  # header, top 1, TOTAL
        config.write_text(json.dumps({**record, "scoring": {"top_n": 2}}), "utf-8")
        result = runner.invoke(main, ["report", "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert len(lengths.read_text("utf-8").splitlines()) == 4

    def test_edited_corpus_refuses_resume(self, tmp_path):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        corpus = Path(plan.testsets[0])
        corpus.write_text(
            corpus.read_text("utf-8").replace("Seven eight nine.", "Seven eight ten."), "utf-8"
        )
        edited = plan_from_dict(minimal_plan_dict(tmp_path))
        assert edited.testsets == plan.testsets
        with pytest.raises(ResumeMismatchError, match="config_hash"):
            execute(edited)

    def test_edited_dictionary_refuses_resume(self, tmp_path):
        """A mock dictionary edited between an interrupted run and its resume
        would translate the remaining documents differently."""
        dictionary = tmp_path / "dict.json"
        dictionary.write_text('{"One": "Eins"}', "utf-8")
        record = minimal_plan_dict(tmp_path, backends=[
            {"kind": "mock_dictionary", "name": "dict", "dictionary_path": str(dictionary)}
        ])
        plan = plan_from_dict(record)

        def interrupted_after_doc_1(request, backend):
            if request.request_tag.startswith("doc-2"):
                raise RuntimeError("simulated interrupt")
            return gateway.complete(request, backend)

        with pytest.raises(RuntimeError):
            execute(plan, complete_fn=interrupted_after_doc_1)
        dictionary.write_text('{"One": "Uno"}', "utf-8")
        edited = plan_from_dict(record)
        assert edited.backends == plan.backends
        sent: list[str] = []
        with pytest.raises(ResumeMismatchError, match="config_hash"):
            execute(edited, complete_fn=recording(sent))
        assert sent == []

    @pytest.mark.parametrize("key", ["testsets[0]", "backends[0].dictionary_path"])
    def test_missing_file_is_a_config_error_before_any_request(self, tmp_path, key):
        record = minimal_plan_dict(tmp_path)
        if key == "testsets[0]":
            record["testsets"] = ["missing.jsonl"]
        else:
            record["backends"] = [
                {"kind": "mock_dictionary", "name": "dict", "dictionary_path": "missing.json"}
            ]
        plan = plan_from_dict(record, base_dir=tmp_path)
        sent: list[str] = []
        with pytest.raises(ConfigError, match=re.escape(f"{key}: cannot read")):
            execute(plan, complete_fn=recording(sent))
        assert sent == []
        assert not (Path(plan.output_dir) / plan.run_id).exists()


class TestCountOnce:
    def test_overflow_fires_at_the_same_turn_with_the_same_text(self, tmp_path):
        free = execute(plan_from_dict(minimal_plan_dict(
            tmp_path, run_id="free", strategies=[{"mode": "multi_turn"}]
        )))
        turns = free.cells[("identity", "multi_turn", "doc-1")].transcript.turns
        sizes = [sum(len(m.content.split()) for m in t.request_messages) for t in turns]
        budget = sizes[1]  # requests grow, so turn 2 is the first over budget
        tags = []

        def complete(request, backend):
            tags.append(request.request_tag)
            return gateway.complete(request, backend)

        artifacts = execute(plan_from_dict(minimal_plan_dict(
            tmp_path, run_id="budget", strategies=[{"mode": "multi_turn"}],
            max_context_tokens=budget,
        )), complete)
        reasons = {e["doc_id"]: e["reason"] for e in artifacts.exclusions}
        assert reasons["doc-1"] == (
            f"context_overflow: request of {sizes[2]} tokens exceeds budget {budget} "
            "for document 'doc-1'"
        )
        assert [t for t in tags if t.startswith("doc-1:")] == ["doc-1:turn_0", "doc-1:turn_1"]

    def test_execute_counts_nothing_without_a_budget(self, tmp_path, monkeypatch):
        counted = counted_messages(monkeypatch)

        def complete(request, backend):  # the identity mock's reply, without its usage
            return ChatResponse(gateway._identity_reply(request))

        artifacts = execute(plan_from_dict(minimal_plan_dict(
            tmp_path, strategies=[{"mode": "multi_turn"}, {"mode": "segment_level"}]
        )), complete)
        assert len(artifacts.cells) == 4 and counted == []

    def test_execute_counts_each_request_message_once_with_a_budget(self, tmp_path, monkeypatch):
        counted = counted_messages(monkeypatch)
        artifacts = execute(plan_from_dict(minimal_plan_dict(
            tmp_path, strategies=[{"mode": "multi_turn"}, {"mode": "multi_turn_sp"}],
            max_context_tokens=10_000,
        )))
        cells = artifacts.cells.values()
        sent = {id(m): m for cell in cells for t in cell.transcript.turns for m in t.request_messages}
        # The budget check and the mock count each message object once: a
        # session's requests share their message objects.
        assert len(counted) == len(sent) and {id(m) for m in counted} == sent.keys()
        # Reading the ledgers adds one count per reply, for the fresh
        # assistant message each ledger turn is given.
        for cell in cells:
            cell.ledgers
        assert len(counted) == len(sent) + sum(len(cell.transcript.turns) for cell in cells)

    def test_reference_side_built_once_per_document(self, tmp_path, monkeypatch):
        """One reference side per document, one hypothesis side per distinct
        (document, hypothesis segments, alignment_ok) over every cell."""
        plan = plan_from_dict(mixed_plan_dict(tmp_path))
        artifacts = execute(plan)
        testset = artifacts.testset
        references = {id(doc.reference_segments): doc.id for doc in testset}
        built: Counter = Counter()
        original = report_module.document_side

        def document_side(segments, *args):
            built[references.get(id(segments), "hypothesis")] += 1
            return original(segments, *args)

        monkeypatch.setattr(report_module, "document_side", document_side)
        emit_reports(artifacts)
        distinct = distinct_hypotheses(artifacts)
        assert len(distinct) < len(artifacts.cells)
        assert built == Counter({"doc-1": 1, "doc-2": 1, "hypothesis": len(distinct)})

    def test_each_distinct_pair_clipped_once(self, tmp_path, monkeypatch):
        """Two strategies that send the identity backend the same segments
        produce identical translations; each pair is clipped once, for BLEU
        and for BlonDE-lite (English targets have its resources)."""
        write_jsonl(tmp_path / "corpus.jsonl", [
            {"id": "doc-1", "src_lang": "de", "tgt_lang": "en", "domain": "news",
             "src": ["He came.", "However, she left."], "ref": ["He came.", "She left."]},
            {"id": "doc-2", "src_lang": "de", "tgt_lang": "en", "domain": "news",
             "src": ["They will go."], "ref": ["They went."]},
        ])
        artifacts = execute(plan_from_dict(minimal_plan_dict(
            tmp_path, strategies=[{"mode": "segment_level"}, {"mode": "multi_turn"}]
        )))
        calls: Counter = Counter()
        for name in ("stats_against", "counts_against"):
            original = getattr(report_module, name)

            def counted(hyp, ref, name=name, original=original):
                calls[name] += 1
                return original(hyp, ref)

            monkeypatch.setattr(report_module, name, counted)
        emit_reports(artifacts)
        distinct = distinct_hypotheses(artifacts)
        assert len(distinct) == len(artifacts.testset) < len(artifacts.cells)
        assert calls == Counter({"stats_against": len(distinct), "counts_against": len(distinct)})


def zh_corpus_plan_dict(tmp_path: Path, **overrides) -> dict:
    """A zh->en and an en->zh document, segment-level and multi-turn."""
    corpus = tmp_path / "zh.jsonl"
    write_jsonl(corpus, [
        {"id": "zh-en", "src_lang": "zh", "tgt_lang": "en", "domain": "news",
         "src": ["他说：“338.0 人”。", "我们今天去北京了。"],
         "ref": ["He said: 338.0 people.", "We went to Beijing today."]},
        {"id": "en-zh", "src_lang": "en", "tgt_lang": "zh", "domain": "news",
         "src": ["One two three.", "Four five."], "ref": ["一二三。", "四五。"]},
    ])
    return minimal_plan_dict(
        tmp_path, testsets=[str(corpus)], fail_policy="skip_and_report", **overrides
    )


def parent_count(tgt_lang: str, text: str) -> int:
    """The count the harness used before its one rule: characters for a zh
    or ja target, whitespace-separated words otherwise, over whole messages."""
    return len(text) if tgt_lang in ("zh", "ja") else len(text.split())


class TestResumeAcrossTheCountRule:
    """A run written while a zh or ja target's requests were counted in
    characters, and every other request in words, resumes under the one rule
    either to the cells and reports of a fresh run, or is refused before any
    request is sent: a cell is never counted both ways."""

    def request_sizes(self, tmp_path) -> dict[str, tuple[int, int]]:
        """Each document's largest request, under the old and the new rule."""
        free = execute(plan_from_dict(zh_corpus_plan_dict(tmp_path, run_id="free")))
        target = {doc.id: doc.tgt_lang for doc in free.testset}
        sizes: dict[str, tuple[int, int]] = {}
        for (_, _, doc_id), cell in free.cells.items():
            tgt_lang = target[doc_id]
            for turn in cell.transcript.turns:
                old = sum(parent_count(tgt_lang, m.content) for m in turn.request_messages)
                new = sum(m.tokens for m in turn.request_messages)
                sizes[doc_id] = tuple(map(max, sizes.get(doc_id, (0, 0)), (old, new)))
        return sizes

    def execute_under_the_old_rule(self, plan, monkeypatch) -> None:
        """execute with the old rule's context budget and mock usage."""
        target: list[str] = []
        drive = executor._drive_cell

        def drive_cell(artifacts, group, doc, *args):
            target[:] = [doc.tgt_lang]
            return drive(artifacts, group, doc, *args)

        def complete(request, backend):
            response = gateway.complete(request, backend)
            return dataclasses.replace(
                response,
                prompt_tokens=sum(len(m.content.split()) for m in request.messages),
                completion_tokens=len(response.content.split()),
            )

        with monkeypatch.context() as patch:
            patch.setattr(executor, "_drive_cell", drive_cell)
            patch.setattr(Message, "tokens", property(lambda m: parent_count(target[0], m.content)))
            execute(plan, complete)

    def test_a_cell_over_budget_under_the_new_rule_is_refused(self, tmp_path, monkeypatch):
        sizes = self.request_sizes(tmp_path)
        # zh->en fits under the old rule, which counted its Chinese in words.
        budget = sizes["zh-en"][0]
        assert sizes["zh-en"][1] > budget
        plan = plan_from_dict(zh_corpus_plan_dict(tmp_path, max_context_tokens=budget))
        self.execute_under_the_old_rule(plan, monkeypatch)
        assert ("identity", "multi_turn", "zh-en") in read_records(plan)
        sent: list[str] = []
        with pytest.raises(ResumeMismatchError, match="replay failed: context_overflow"):
            execute(plan, recording(sent))
        assert sent == []

    def test_a_cell_within_budget_under_both_rules_resumes_to_a_fresh_run(
        self, tmp_path, monkeypatch
    ):
        """The resumed run's translations, requests and reports are a fresh
        run's. Its zh->en cells keep the usage their old-rule rows logged, so
        only its en->zh cells, run under the new rule, equal fresh cells."""
        sizes = self.request_sizes(tmp_path)
        # Every request fits under the new rule; en->zh did not under the old
        # one, which counted its English in characters.
        budget = max(new for _, new in sizes.values())
        assert sizes["zh-en"][0] <= budget < sizes["en-zh"][0]
        resumed = plan_from_dict(zh_corpus_plan_dict(
            tmp_path, run_id="resumed", max_context_tokens=budget
        ))
        self.execute_under_the_old_rule(resumed, monkeypatch)
        old_rule_records = read_records(resumed)
        assert set(old_rule_records) == {
            ("identity", strategy, "zh-en") for strategy in ("segment_level", "multi_turn")
        }
        sent: list[str] = []
        execute(resumed, recording(sent))
        assert sent and all(tag.startswith("en-zh:") for tag in sent)

        fresh = plan_from_dict(zh_corpus_plan_dict(
            tmp_path, run_id="fresh", max_context_tokens=budget
        ))
        execute(fresh)
        loaded = {plan.run_id: load_artifacts(plan) for plan in (resumed, fresh)}

        def sent_and_translated(artifacts) -> dict:
            return {
                key: ([t.request_messages for t in cell.transcript.turns], cell.translation)
                for key, cell in artifacts.cells.items()
            }

        assert sent_and_translated(loaded["resumed"]) == sent_and_translated(loaded["fresh"])
        for key, cell in loaded["resumed"].cells.items():
            rows = [list(t.response.to_row()) for t in cell.transcript.turns]
            if key in old_rule_records:
                assert rows == old_rule_records[key][4:]
                assert cell != loaded["fresh"].cells[key]  # counted in words, not per character
            else:
                assert cell == loaded["fresh"].cells[key]
        assert loaded["resumed"].exclusions == loaded["fresh"].exclusions == []
        for artifacts in loaded.values():
            emit_reports(artifacts)
        assert report_bytes(loaded["resumed"].run_dir) == report_bytes(loaded["fresh"].run_dir)


def distinct_hypotheses(artifacts) -> set[tuple[str, tuple[str, ...], bool]]:
    return {
        (doc_id, cell.translation.hypothesis_segments, cell.translation.alignment_ok)
        for (_, _, doc_id), cell in artifacts.cells.items()
    }


MULTI_TURN_DOC_2 = ("identity", "multi_turn", "doc-2")
ALL_CELLS = {
    ("identity", strategy, doc) for strategy in ("segment_level", "multi_turn")
    for doc in ("doc-1", "doc-2")
}


def failing_at_multi_turn_doc_2_turn_1(fault: BaseException, sent: list):
    """A backend that raises fault at turn 1 of doc-2's multi-turn cell, the
    last cell of the minimal plan, and records every request it answers."""

    def complete(request, backend):
        # Only a multi-turn request carries an earlier reply.
        if request.request_tag == "doc-2:turn_1" and any(
            m.role == "assistant" for m in request.messages
        ):
            raise fault
        sent.append(request.request_tag)
        return gateway.complete(request, backend)

    return complete


class TestInterruptedRun:
    """A run that fails part-way, even a first run, leaves a log with its
    header, so it can be loaded, scored, refused under another config and
    resumed."""

    @pytest.mark.parametrize(
        "policy, fault",
        [
            ("skip_and_report", GatewayError("backend exploded")),
            ("halt", GatewayError("backend exploded")),
            ("skip_and_report", RuntimeError("process killed")),
        ],
        ids=["gateway_error_skipped", "gateway_error_halts", "runtime_error"],
    )
    def test_first_run_fault(self, tmp_path, policy, fault):
        plan = plan_from_dict(minimal_plan_dict(tmp_path, fail_policy=policy))
        run_dir = Path(plan.output_dir) / plan.run_id
        complete = failing_at_multi_turn_doc_2_turn_1(fault, [])
        excluded = policy == "skip_and_report" and isinstance(fault, GatewayError)
        if excluded:
            execute(plan, complete_fn=complete)
        else:
            with pytest.raises(type(fault)):
                execute(plan, complete_fn=complete)

        header, *records = log_lines(plan)
        assert header["config_hash"] == plan.config_hash
        listed = [tuple(record[:3]) for record in records if record[3] is None]
        assert listed == ([MULTI_TURN_DOC_2] if excluded else [])
        loaded = load_artifacts(plan)
        assert set(loaded.cells) == ALL_CELLS - {MULTI_TURN_DOC_2}
        assert [(e["backend"], e["strategy"], e["doc_id"]) for e in loaded.exclusions] == listed
        emit_reports(loaded)
        assert (run_dir / "reports" / "main.csv").exists()

        changed = dataclasses.replace(plan, max_context_tokens=1000)
        refused: list[str] = []
        with pytest.raises(ResumeMismatchError, match="config_hash"):
            load_artifacts(changed)
        with pytest.raises(ResumeMismatchError, match="config_hash"):
            execute(changed, complete_fn=recording(refused))
        assert refused == []

        resent: list[str] = []
        artifacts = execute(plan, complete_fn=recording(resent))
        assert resent == ["doc-2:turn_0", "doc-2:turn_1"]
        assert set(artifacts.cells) == ALL_CELLS and artifacts.exclusions == []
        assert set(read_records(plan)) == ALL_CELLS
        assert load_artifacts(plan).exclusions == []

    def test_interrupted_resume_drops_exclusions_it_completed(self, tmp_path):
        """The log keeps the first run's skipped cells, so loading must not
        list a cell the interrupted resume completed."""
        plan = plan_from_dict(minimal_plan_dict(tmp_path))

        def doc_2_down(request, backend):
            if request.request_tag.startswith("doc-2"):
                raise GatewayError("down")
            return gateway.complete(request, backend)

        assert len(execute(plan, complete_fn=doc_2_down).exclusions) == 2
        sent: list[str] = []

        def interrupted_after_two(request, backend):
            if len(sent) == 2:  # segment_level/doc-2 has completed
                raise RuntimeError("simulated interrupt")
            sent.append(request.request_tag)
            return gateway.complete(request, backend)

        with pytest.raises(RuntimeError):
            execute(plan, complete_fn=interrupted_after_two)
        loaded = load_artifacts(plan)
        assert set(loaded.cells) == ALL_CELLS - {MULTI_TURN_DOC_2}
        listed = [(e["backend"], e["strategy"], e["doc_id"]) for e in loaded.exclusions]
        assert listed == [MULTI_TURN_DOC_2]

    def test_truncated_turn_warns_its_cells_on_run_resume_and_load(self, tmp_path, caplog):
        """A reply cut at the output limit at doc-2's turn 1 is in doc-2's
        cells only, and it is rebuilt from the log on resume and load. Each
        of those cells is logged as a warning once, when it runs."""
        plan = plan_from_dict(minimal_plan_dict(tmp_path))

        def truncating_doc_2_turn_1(request, backend):
            response = gateway.complete(request, backend)
            if request.request_tag == "doc-2:turn_1":
                return dataclasses.replace(response, finish_reason="length")
            return response

        def truncated(artifacts) -> dict:
            return {
                key: [i for i, t in enumerate(cell.transcript.turns)
                      if t.response.finish_reason == "length"]
                for key, cell in artifacts.cells.items()
            }

        def logged() -> list[str]:
            messages = [r.getMessage() for r in caplog.records if r.name == executor.__name__]
            caplog.clear()
            return messages

        with caplog.at_level(logging.WARNING):
            fresh = truncated(execute(plan, complete_fn=truncating_doc_2_turn_1))
            assert logged() == [
                f"identity/{strategy}/doc-2: output truncated (finish_reason=length) at turn 1"
                for strategy in ("segment_level", "multi_turn")
            ]
            assert fresh == {key: [1] if key[2] == "doc-2" else [] for key in ALL_CELLS}
            sent: list[str] = []
            assert truncated(execute(plan, complete_fn=recording(sent))) == fresh
            assert sent == []
            assert truncated(load_artifacts(plan)) == fresh
            assert logged() == []  # a replayed cell is not logged again


class Crash(BaseException):
    """A crash that no handler of the harness catches."""


# How much of the line being appended a crash leaves in the log.
CUTS = {
    "nothing": lambda line: b"",
    "half": lambda line: line[: len(line) // 2],
    "all_but_one_byte": lambda line: line[:-1],
    "all": lambda line: line,
}


def three_strategy_plan(tmp_path: Path, output_dir: str) -> RunPlan:
    return plan_from_dict(minimal_plan_dict(
        tmp_path, output_dir=str(tmp_path / output_dir),
        strategies=[{"mode": "segment_level"}, {"mode": "multi_turn"}, {"mode": "multi_turn_sp"}],
    ))


class TestCrashResume:
    """A crash at any append of the log, the header's included, however much
    of the line it leaves, resumes with execute and emit_reports into the
    bytes of an uninterrupted run."""

    @pytest.mark.parametrize("cut", list(CUTS))
    @pytest.mark.parametrize("crash_at", range(1 + 3 * 2))  # the header, then 6 cells
    def test_crash_at_an_append_resumes_to_the_uninterrupted_bytes(
        self, tmp_path, monkeypatch, crash_at, cut
    ):
        uninterrupted = three_strategy_plan(tmp_path, "uninterrupted")
        emit_reports(execute(uninterrupted))
        expected = run_dir_bytes(run_log(uninterrupted).parent)
        assert len(expected[Path("run.jsonl")].splitlines()) == 1 + 3 * 2

        plan = three_strategy_plan(tmp_path, "crashed")
        appended: list[bytes] = []
        append = executor._Log.append

        def crashing(log, line: bytes, *cell) -> None:
            appended.append(line)
            if len(appended) <= crash_at:
                return append(log, line, *cell)
            log.file.write(CUTS[cut](line))
            log.file.flush()
            raise Crash

        monkeypatch.setattr(executor._Log, "append", crashing)
        with pytest.raises(Crash):
            execute(plan)
        monkeypatch.undo()
        emit_reports(execute(plan))
        assert run_dir_bytes(run_log(plan).parent) == expected


def ledger_walks(monkeypatch) -> list[int]:
    """The turns of every ledger walk from now on, in order."""
    walks: list[int] = []
    original = costing._ledger_over_keyed_turns

    def walk(turns, keyed):
        turns = list(turns)
        walks.append(len(turns))
        return original(turns, keyed)

    monkeypatch.setattr(costing, "_ledger_over_keyed_turns", walk)
    return walks


class TestLedgersOnRead:
    def test_run_load_and_reports_walk_no_ledger(self, tmp_path, monkeypatch):
        walks = ledger_walks(monkeypatch)
        plan = plan_from_dict(mixed_plan_dict(tmp_path))
        emit_reports(execute(plan))
        resumed = execute(plan)
        emit_reports(load_artifacts(plan))
        assert len(resumed.cells) == 2 * 8 * 2 and walks == []

    def test_first_read_walks_the_cell_once(self, tmp_path, monkeypatch):
        walks = ledger_walks(monkeypatch)
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        cell = load_artifacts(plan).cells[("identity", "multi_turn", "doc-1")]
        first = cell.ledgers
        assert walks == [3]
        assert cell.ledgers is first and walks == [3]


class TestOnePass:
    def test_one_prefix_check_per_multi_turn_cell(self, tmp_path, monkeypatch):
        """Running a cell or loading it checks its transcript once; reading
        its ledgers checks nothing."""
        checked: list[int] = []  # turns of each checked transcript
        original = strategy_module.check_prefix_stability

        def check(requests, replies=None):
            checked.append(len(requests))
            return original(requests, replies)

        # Every docturn module that binds the checker, so no second caller hides.
        for name, module in list(sys.modules.items()):
            binds = vars(module).get("check_prefix_stability") is original
            if name.startswith("docturn") and binds:
                monkeypatch.setattr(module, "check_prefix_stability", check)
        plan = plan_from_dict(minimal_plan_dict(tmp_path, strategies=[
            {"mode": "segment_level"}, {"mode": "multi_turn"}, {"mode": "multi_turn_sp"}
        ]))
        fresh = execute(plan)
        # doc-1 has 3 turns and doc-2 has 2, under each multi-turn strategy.
        assert sorted(checked) == [2, 2, 3, 3]
        checked.clear()
        loaded = load_artifacts(plan)
        assert sorted(checked) == [2, 2, 3, 3]
        for cell in [*fresh.cells.values(), *loaded.cells.values()]:
            assert set(cell.ledgers) == {"cached", "uncached"}
        assert sorted(checked) == [2, 2, 3, 3]

    def test_one_reply_message_per_turn(self, tmp_path, monkeypatch):
        """The digest compares each request with the previous request plus
        its reply. The request carries the previous request's own message
        objects, and the reply's content is the very string the request's
        reply message holds, so the comparison stops at identity."""
        write_jsonl(tmp_path / "corpus.jsonl", [{
            "id": "doc-1", "src_lang": "en", "tgt_lang": "de", "domain": "news",
            "src": [f"Paragraph number {i}." for i in range(16)],
            "ref": [f"Paragraph number {i}." for i in range(16)],
        }])
        compared: list[tuple[tuple, tuple]] = []  # (request, previous request-plus-reply)
        original = executor.common_prefix_length

        def common_prefix_length(request, state):
            compared.append((request, state))
            return original(request, state)

        monkeypatch.setattr(executor, "common_prefix_length", common_prefix_length)
        execute(plan_from_dict(minimal_plan_dict(tmp_path, strategies=[{"mode": "multi_turn"}])))
        assert len(compared) == 16
        for (previous, _), (request, state) in zip(compared, compared[1:]):
            assert len(state) == len(previous) + 1 == len(request) - 1
            assert all(a is b for a, b in zip(state, previous))
            assert all(a is b for a, b in zip(request[:-2], state))
            assert request[-2] == state[-1] and request[-2].content is state[-1].content

    def test_test_set_parsed_once_per_run(self, tmp_path, monkeypatch):
        parsed: list[str] = []
        original = executor.load_corpus

        def load_corpus(path):
            parsed.append(path)
            return original(path)

        monkeypatch.setattr(executor, "load_corpus", load_corpus)
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        emit_reports(execute(plan))
        assert parsed == plan.testsets
        parsed.clear()
        emit_reports(load_artifacts(plan))
        assert parsed == plan.testsets


def first_paragraph_corpus(tmp_path: Path) -> None:
    """The minimal plan's corpus file, holding one document: "First paragraph."."""
    write_jsonl(tmp_path / "corpus.jsonl", [{
        "id": "doc-1", "src_lang": "en", "tgt_lang": "de", "domain": "news",
        "src": ["First paragraph."], "ref": ["Erster Absatz."],
    }])


def file_name(file) -> str | None:
    return Path(file).name if isinstance(file, (str, os.PathLike)) else None


def patch_open(monkeypatch, wrapper) -> None:
    """Send every file open, through pathlib or the open builtin, to
    wrapper(open_file, file, *args, **kwargs)."""
    original = io.open
    monkeypatch.setattr(io, "open", partial(wrapper, original))
    monkeypatch.setattr(builtins, "open", partial(wrapper, original))


class TestRunOwnsItsState:
    """Each run reads its files once, when it starts: nothing read by an
    earlier run in the same process is reused."""

    def test_edited_dictionary_takes_effect_in_the_next_run(self, tmp_path):
        first_paragraph_corpus(tmp_path)
        dictionary = tmp_path / "dict.json"
        dictionary.write_text('{"First": "Erster"}', "utf-8")
        record = minimal_plan_dict(tmp_path, strategies=[{"mode": "segment_level"}], backends=[
            {"kind": "mock_dictionary", "name": "dict", "dictionary_path": str(dictionary)}
        ])
        a = execute(plan_from_dict({**record, "run_id": "a"}))
        dictionary.write_text('{"First": "UNO"}', "utf-8")
        b = execute(plan_from_dict({**record, "run_id": "b"}))
        key = ("dict", "segment_level", "doc-1")
        assert a.cells[key].translation.hypothesis_segments == ("Erster paragraph.",)
        assert b.cells[key].translation.hypothesis_segments == ("UNO paragraph.",)

    def test_each_file_read_once_per_run(self, tmp_path, monkeypatch):
        dictionary = tmp_path / "dict.json"
        dictionary.write_text('{"One": "Eins"}', "utf-8")
        record = minimal_plan_dict(
            tmp_path,
            backends=[{"kind": "mock_dictionary", "name": "dict", "dictionary_path": str(dictionary)}],
        )
        reads: Counter = Counter()

        def counted(open_file, file, *args, **kwargs):
            reads[file_name(file)] += 1
            return open_file(file, *args, **kwargs)

        patch_open(monkeypatch, counted)
        plan = plan_from_dict(record)
        emit_reports(execute(plan))
        assert (reads["corpus.jsonl"], reads["dict.json"]) == (1, 1)
        reads.clear()
        emit_reports(load_artifacts(plan))
        assert (reads["corpus.jsonl"], reads["dict.json"]) == (1, 1)

    def test_file_edited_after_its_one_read_runs_as_hashed(self, tmp_path, monkeypatch):
        """The config hash and the translations come from one read of the
        dictionary, so an edit landing right after it changes neither."""
        first_paragraph_corpus(tmp_path)
        dictionary = tmp_path / "dict.json"
        dictionary.write_text('{"First": "Erster"}', "utf-8")
        plan = plan_from_dict(minimal_plan_dict(tmp_path, strategies=[{"mode": "segment_level"}], backends=[
            {"kind": "mock_dictionary", "name": "dict", "dictionary_path": str(dictionary)}
        ]))
        hashed = plan.config_hash

        def edited_after_read(open_file, file, mode="r", *args, **kwargs):
            handle = open_file(file, mode, *args, **kwargs)
            if file_name(file) != "dict.json" or "r" not in mode:
                return handle
            with handle:
                content = handle.read()
            with open_file(file, "w", encoding="utf-8") as out:
                out.write('{"First": "UNO"}')
            return io.BytesIO(content) if "b" in mode else io.StringIO(content)

        patch_open(monkeypatch, edited_after_read)
        artifacts = execute(plan)
        monkeypatch.undo()
        assert dictionary.read_text("utf-8") == '{"First": "UNO"}'
        key = ("dict", "segment_level", "doc-1")
        assert artifacts.cells[key].translation.hypothesis_segments == ("Erster paragraph.",)
        assert log_lines(plan)[0]["config_hash"] == hashed

    @pytest.mark.parametrize("content", ['{"First": ', '["First"]'],
                             ids=["dictionary_invalid_json", "dictionary_not_an_object"])
    def test_malformed_file_is_a_config_error_before_any_request(self, tmp_path, content):
        first_paragraph_corpus(tmp_path)
        (tmp_path / "file.json").write_text(content, "utf-8")
        record = minimal_plan_dict(tmp_path)
        record["backends"] = [
            {"kind": "mock_dictionary", "name": "dict", "dictionary_path": "file.json"}
        ]
        plan = plan_from_dict(record, base_dir=tmp_path)
        sent: list[str] = []
        with pytest.raises(ConfigError, match=re.escape("backends[0].dictionary_path")):
            execute(plan, complete_fn=recording(sent))
        assert sent == []
        assert not (Path(plan.output_dir) / plan.run_id).exists()

    @pytest.mark.parametrize("content", ['{"torn', '["not", "an", "object"]'],
                             ids=["invalid_json", "not_an_object"])
    def test_unreadable_header_is_refused(self, tmp_path, content):
        plan = plan_from_dict(minimal_plan_dict(tmp_path))
        execute(plan)
        log = run_log(plan)
        records = log.read_text("utf-8").splitlines(keepends=True)[1:]
        log.write_text("".join([content + "\n", *records]), "utf-8")
        problem = re.escape(f"{log}: line 1 does not hold a JSON object header")
        with pytest.raises(ResumeMismatchError, match=problem):
            load_artifacts(plan)
        sent: list[str] = []
        with pytest.raises(ResumeMismatchError, match=problem):
            execute(plan, complete_fn=recording(sent))
        assert sent == []

    def test_no_module_state_changes(self, tmp_path, monkeypatch):
        """No module-level or class-level dict, list or set in docturn changes
        over a run and its reports, with every backend kind that keeps state:
        a mock dictionary and a rate-limited HTTP backend."""
        monkeypatch.setenv("DOCTURN_TEST_KEY", "sk-test")
        dictionary = tmp_path / "dict.json"
        dictionary.write_text('{"One": "Eins"}', "utf-8")
        record = minimal_plan_dict(
            tmp_path,
            backends=[
                {"kind": "mock_dictionary", "name": "dict", "dictionary_path": str(dictionary)},
                {"kind": "openai_compatible", "name": "http", "base_url": "http://fake",
                 "api_key_env_var": "DOCTURN_TEST_KEY", "requests_per_minute": 600},
            ],
        )

        def post(url, json=None, headers=None, timeout=None):
            return FakeResponse({"choices": [{"message": {"content": "Übersetzt."}}]})

        monkeypatch.setattr(gateway.requests, "post", post)
        before = module_state()
        artifacts = execute(plan_from_dict(record))
        emit_reports(artifacts)
        assert len(artifacts.cells) == 8 and not artifacts.exclusions
        assert module_state() == before


class FakeResponse:
    status_code = 200

    def __init__(self, payload: dict):
        self.payload = payload
        self.text = json.dumps(payload)

    def json(self):
        return self.payload


def prefix_caching_server(sent_cached: list[int]):
    """An http_post seam for an identity backend with a prefix cache that
    holds every message but the new one. Each reply's usage counts words;
    the cached_tokens it reports are appended to sent_cached."""

    def post(url, json=None, headers=None, timeout=None):
        *history, final = json["messages"]
        payload = extract_fenced_payload(final["content"])
        sent_cached.append(sum(len(m["content"].split()) for m in history))
        return FakeResponse({
            "choices": [{"message": {"content": payload}, "finish_reason": "stop"}],
            "usage": {
                "prompt_tokens": sent_cached[-1] + len(final["content"].split()),
                "completion_tokens": len(payload.split()),
                "prompt_tokens_details": {"cached_tokens": sent_cached[-1]},
            },
        })

    return post


def module_state() -> dict[str, object]:
    """A copy of every module-level and class-level dict, list and set in the
    docturn package, by qualified name; dunder names are left out."""

    def copied(value):
        try:
            return copy.deepcopy(value)
        except TypeError:  # holds something that cannot be copied, e.g. a lock
            return copy.copy(value)

    def containers(namespace: dict, prefix: str):
        for name, value in namespace.items():
            if not (name.startswith("__") and name.endswith("__")):
                if isinstance(value, (dict, list, set)):
                    yield f"{prefix}.{name}", copied(value)

    modules = [docturn] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(docturn.__path__, "docturn.")
    ]
    state: dict[str, object] = {}
    for module in modules:
        state.update(containers(vars(module), module.__name__))
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                state.update(containers(vars(value), f"{module.__name__}.{name}"))
    return state
