"""One repetition of a workload through docturn's public API.

A repetition sets up (corpus generation, JSONL, run plan) SETUP_REPEATS
times, runs ``execute`` into an empty run directory, scores with
``emit_reports`` REPORT_REPEATS times, re-runs ``execute`` over the finished
directory RESUME_REPEATS times (the resume path, which must send no
request), and may time ``compare_strategies`` + ``comparison_csv`` over the
cost sweep. Every repetition then checks its outputs; a failed check is
recorded as an error and fails the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import synth
from checks import check_rep
from fake_openai import FakeOpenAIServer
from tracing import Tracer

from docturn import gateway
from docturn.costing import DocShape, compare_strategies, comparison_csv
from docturn.metrics import blonde as blonde_layer
from docturn.metrics import report as report_layer
from docturn.runner import executor as executor_layer
from docturn.runner import reports as reports_layer
from docturn.runner.config import plan_from_dict

MODES = ("single_turn", "segment_level", "multi_turn", "multi_turn_sp")
API_KEY_ENV = "DOCTURN_BENCH_API_KEY"
FAKE_FAULT_SHARE = 0.15
FAKE_MAX_RETRIES = 3

# Cost sweep: uniform shapes, s source and o generated tokens per segment,
# v instruction tokens per user message.
SWEEP_KS = (50, 100, 200, 400)
SWEEP_S, SWEEP_O, SWEEP_V, SWEEP_PRIMER = 30, 32, 24, 40

SETUP_REPEATS = 5
REPORT_REPEATS = 2
RESUME_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    shape: synth.WorkloadShape
    backends: tuple[dict, ...]
    icl: bool


def _short_paragraphs(documents: int) -> tuple[int, ...]:
    rng = random.Random(f"{synth.LAYOUT_SEED}:short_docs:paragraphs")
    return tuple(rng.randint(1, 4) for _ in range(documents))


WORKLOADS = {
    "long_docs": Workload(
        shape=synth.WorkloadShape(
            name="long_docs",
            paragraphs=(64, 40, 32, 24, 20, 18, 16, 16, 14, 14, 12, 12,
                        12, 10, 10, 10, 10, 10, 8, 8, 8, 8, 8, 8),
            sentences=(1, 1),
            words=(5, 12),
            directions=(("de-en", 5), ("fr-en", 2), ("en-de", 1)),
            domains=("news", "literary", "speech"),
        ),
        backends=(
            {"kind": "mock_identity", "name": "identity"},
            {"kind": "mock_tail_dropper", "name": "dropper", "drop_fraction": 0.3},
        ),
        icl=False,
    ),
    "short_docs": Workload(
        shape=synth.WorkloadShape(
            name="short_docs",
            paragraphs=_short_paragraphs(96),
            sentences=(1, 3),
            words=(6, 16),
            directions=(("de-en", 1), ("zh-en", 1), ("en-de", 1), ("en-zh", 1)),
            domains=("news", "literary", "speech", "social"),
        ),
        backends=(
            {"kind": "mock_identity", "name": "identity"},
            {
                "kind": "openai_compatible",
                "name": "fake_openai",
                # Never contacted: the benchmark passes the in-process fake as http_post.
                "base_url": "http://127.0.0.1:9",
                "api_key_env_var": API_KEY_ENV,
                "max_retries": FAKE_MAX_RETRIES,
            },
        ),
        icl=True,
    ),
}

SMOKE_WORKLOADS = {
    "long_docs": synth.WorkloadShape(
        "long_docs", (12, 6, 3), (1, 2), (6, 14), (("de-en", 2), ("en-de", 1)), ("news",)
    ),
    "short_docs": synth.WorkloadShape(
        "short_docs", (1, 2, 3, 4, 2, 1, 3, 2),
        (1, 3), (6, 16), (("de-en", 1), ("zh-en", 1), ("en-de", 1), ("en-zh", 1)), ("news", "social"),
    ),
}


@dataclass
class RepResult:
    traced: bool
    setup_s: list[float] = field(default_factory=list)
    run_s: float = 0.0
    report_s: list[float] = field(default_factory=list)
    resume_s: list[float] = field(default_factory=list)
    simulate_cost_s: float | None = None
    turn_gaps_ms: list[float] = field(default_factory=list)
    artifact_bytes: int = 0
    artifact_files: int = 0
    cells_attempted: int = 0
    cells_failed: int = 0
    report_hashes: dict[str, str] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


class CallLog:
    """complete_fn wrapper state: one (backend, request tag, start, end) per call."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, str, float, float]] = []

    def turn_gaps_ms(self) -> list[float]:
        """Harness time between turn i's return and turn i+1's call, per session."""
        gaps = []
        for prev, cur in zip(self.calls, self.calls[1:]):
            prev_doc, _, prev_turn = prev[1].rpartition(":turn_")
            cur_doc, _, cur_turn = cur[1].rpartition(":turn_")
            if prev[0] == cur[0] and prev_doc == cur_doc and int(cur_turn) == int(prev_turn) + 1:
                gaps.append((cur[2] - prev[3]) * 1000.0)
        return gaps


def make_complete_fn(log: CallLog, server: FakeOpenAIServer, rng: random.Random):
    def complete_fn(request, backend):
        start = perf_counter()
        if backend.kind == "openai_compatible":
            response = gateway.complete(
                request, backend, http_post=server.post, sleeper=server.sleep, rng=rng
            )
        else:
            response = gateway.complete(request, backend)
        log.calls.append((backend.name, request.request_tag, start, perf_counter()))
        return response

    return complete_fn


def setup(workload: Workload, shape: synth.WorkloadShape, seed: int, rep_dir: Path):
    """Generate the corpus, write the JSONL and build the run plan."""
    records = synth.documents(shape, seed)
    corpus_path = rep_dir / "corpus.jsonl"
    with corpus_path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    strategies = [{"mode": mode} for mode in MODES]
    if workload.icl:
        examples = synth.exemplars(seed)
        strategies = [{**s, "icl": True, "exemplars": examples} for s in strategies]
    plan = plan_from_dict(
        {
            "run_id": "bench",
            "testsets": [str(corpus_path)],
            "backends": list(workload.backends),
            "strategies": strategies,
            "output_dir": str(rep_dir / "runs"),
            "max_concurrent_documents": 1,
            "fail_policy": "skip_and_report",
        }
    )
    return records, plan


def sweep_shape(k: int) -> DocShape:
    return DocShape.uniform(
        k, SWEEP_S, SWEEP_O, instruction_overhead=SWEEP_V, primer_intro_overhead=SWEEP_PRIMER
    )


def _tree_size(root: Path) -> tuple[int, int]:
    total = files = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
            files += 1
    return total, files


def _install_tracing(tracer: Tracer) -> None:
    ex = executor_layer
    tracer.patch(ex, "load_corpus", "corpus.load")
    tracer.patch(ex, "init_session", "strategy.init_session",
                 span_id=lambda config, doc, *_: f"{config.label}/{doc.id}")
    tracer.patch(ex, "next_request", "strategy.next_request",
                 span_id=lambda s: f"{s.config.label}/{s.document.id}:turn_{s.requests_issued}")
    tracer.patch(ex, "ingest_response", "strategy.ingest")
    tracer.patch(ex, "assemble_hypothesis", "strategy.assemble")
    tracer.patch(ex, "check_prefix_stability", "strategy.prefix_check")
    tracer.patch(ex, "ledger_for_session", "costing.ledger")
    tracer.patch(reports_layer, "score_strategy", "report.score_strategy")
    tracer.patch(report_layer, "doc_bleu", "bleu.doc_bleu",
                 count=lambda result, hyps, *_: {"bleu.docs_tokenized": 2 * len(hyps)})
    tracer.patch(report_layer, "category_counts", "blonde.category_counts")
    tracer.patch(report_layer, "load_blonde_resources", "blonde.resource_load")
    tracer.patch(report_layer, "length_report", "lengths.report")
    extractors = {
        "pronouns": "extract_pronouns",
        "connectives": "extract_connectives",
        "tense": "extract_tense_markers",
        "entities": "extract_entities",
    }
    for category, fn_name in extractors.items():
        original = getattr(blonde_layer, fn_name)
        tracer.patch(blonde_layer, fn_name, f"blonde.{category}")
        # category_counts dispatches through a table holding the functions
        # themselves, so its entries are wrapped as well.
        for table in [v for v in vars(blonde_layer).values() if isinstance(v, dict)]:
            for key, fn in list(table.items()):
                if fn is original:
                    tracer.patch(table, key, f"blonde.{category}")


def run_rep(
    name: str,
    seed: int,
    rep_dir: Path,
    *,
    smoke: bool = False,
    tracer: Tracer | None = None,
    sweep: bool = True,
) -> RepResult:
    workload = WORKLOADS[name]
    shape = SMOKE_WORKLOADS[name] if smoke else workload.shape
    os.environ[API_KEY_ENV] = "bench-dummy-key"
    result = RepResult(traced=tracer is not None)
    rep_dir.mkdir(parents=True)

    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = perf_counter()
        records, plan = setup(workload, shape, seed, rep_dir)
        result.setup_s.append(perf_counter() - started)

    log = CallLog()
    server = FakeOpenAIServer(seed, FAKE_FAULT_SHARE, FAKE_MAX_RETRIES)
    complete_fn = make_complete_fn(log, server, random.Random(seed))
    execute = executor_layer.execute
    emit_reports = reports_layer.emit_reports
    resume = execute
    marks: dict[str, int] = {}

    def phase(name: str) -> None:
        if tracer is not None:
            marks[name] = tracer.mark()

    if tracer is not None:
        _install_tracing(tracer)
        server.post = tracer.wrap("backend.fake_server", server.post)
        complete_fn = tracer.wrap("gateway.complete", complete_fn)
        execute = tracer.wrap("execute.run", execute)
        resume = tracer.wrap("execute.resume", resume)
        emit_reports = tracer.wrap("reports.emit", emit_reports)
    try:
        phase("run")
        gc.collect()
        started = perf_counter()
        artifacts = execute(plan, complete_fn)
        result.run_s = perf_counter() - started
        result.artifact_bytes, result.artifact_files = _tree_size(artifacts.run_dir)
        run_dir_sizes = {
            part: _tree_size(artifacts.run_dir / part) for part in ("raw", "translations", "ledgers")
        }

        phase("report")
        for _ in range(REPORT_REPEATS):
            gc.collect()
            started = perf_counter()
            written = emit_reports(artifacts)
            result.report_s.append(perf_counter() - started)

        phase("resume")
        calls_after_run = len(log.calls)
        resumed_cells = []
        for _ in range(RESUME_REPEATS):
            gc.collect()
            started = perf_counter()
            resumed = resume(plan, complete_fn)
            result.resume_s.append(perf_counter() - started)
            resumed_cells.append(len(resumed.cells))

        phase("sweep")
        sweep_rows = {}
        if sweep:
            gc.collect()
            started = perf_counter()
            for k in SWEEP_KS:
                compare = compare_strategies
                if tracer is not None:
                    compare = tracer.wrap(f"costing.compare_k{k}", compare_strategies)
                rows = compare(sweep_shape(k))
                sweep_rows[k] = (rows, comparison_csv(rows))
            result.simulate_cost_s = perf_counter() - started
        phase("end")
    finally:
        if tracer is not None:
            tracer.restore()

    result.turn_gaps_ms = log.turn_gaps_ms()
    result.cells_attempted = len(plan.backends) * len(plan.strategies) * len(records)
    result.cells_failed = len(artifacts.exclusions)
    result.report_hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written
    }
    result.errors = check_rep(
        records=records,
        plan=plan,
        artifacts=artifacts,
        calls=log.calls[:calls_after_run],
        resume_calls=len(log.calls) - calls_after_run,
        resumed_cells=resumed_cells,
        server=server,
        scores=json.loads((artifacts.run_dir / "reports" / "scores.json").read_text("utf-8")),
        sweep_rows=sweep_rows,
        sweep_params=(SWEEP_S, SWEEP_O, SWEEP_V),
    )
    if tracer is not None:
        order = list(marks)
        summaries = {
            name: tracer.summary(marks[name], marks[following])
            for name, following in zip(order, order[1:])
        }
        result.layer = layer_metrics(
            summaries, records, artifacts, log, server, written, run_dir_sizes, result
        )
    # Deleted right after its checks, a repetition's files are mostly gone
    # before the kernel writes them back, so that writeback does not slow
    # the repetitions that follow.
    shutil.rmtree(rep_dir)
    return result


PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.documents": "count",
    "corpus.segments": "count",
    "strategy.init_session_s": "s",
    "strategy.next_request_s": "s",
    "strategy.ingest_s": "s",
    "strategy.assemble_s": "s",
    "strategy.prefix_check_s": "s",
    "strategy.requests_built": "count",
    "strategy.messages_per_request_max": "count",
    "gateway.complete_s": "s",
    "gateway.requests": "count",
    "gateway.attempts": "count",
    "gateway.retries_429": "count",
    "gateway.retries_5xx": "count",
    "gateway.failed": "count",
    "gateway.success_per_attempt": "ratio",
    # Backoff the gateway asked for; the fake server's sleeper never sleeps.
    "gateway.backoff_virtual_s": "virtual_s",
    "gateway.request_bytes": "bytes",
    "costing.ledger_s": "s",
    "costing.ledger_turns": "count",
    "costing.prefill_cached_tokens": "tokens",
    "costing.prefill_uncached_tokens": "tokens",
    "costing.predicted_reuse_ratio": "ratio",
    **{f"costing.compare_k{k}_s": "s" for k in SWEEP_KS},
    "executor.self_s": "s",
    "executor.resume_self_s": "s",
    "executor.raw_bytes": "bytes",
    "executor.raw_files": "count",
    "executor.translation_bytes": "bytes",
    "executor.ledger_bytes": "bytes",
    "executor.bytes_per_source_byte": "ratio",
    "bleu.doc_bleu_s": "s",
    "bleu.doc_bleu_calls": "count",
    "bleu.docs_tokenized": "count",
    "blonde.category_counts_s": "s",
    "blonde.category_counts_calls": "count",
    "blonde.resource_loads": "count",
    "blonde.resource_load_s": "s",
    "blonde.pronouns_s": "s",
    "blonde.connectives_s": "s",
    "blonde.tense_s": "s",
    "blonde.entities_s": "s",
    "lengths.report_s": "s",
    "report.score_strategy_self_s": "s",
    "report.score_strategy_calls": "count",
    "reports.self_s": "s",
    "reports.files": "count",
    "reports.bytes": "bytes",
    "trace.overhead_run_s": "s",
    "trace.overhead_report_s": "s",
}


def layer_metrics(summaries, records, artifacts, log, server, written, run_dir_sizes, rep):
    """Per-layer figures of one traced repetition, per pass: one execute,
    one emit_reports and one resumed execute."""
    run, _ = summaries["run"]
    report, report_counts = summaries["report"]
    resume, _ = summaries["resume"]
    sweep, _ = summaries["sweep"]

    def per_report(name: str, field: str = "total_s") -> float:
        return report[name][field] / REPORT_REPEATS

    transcripts = [c.transcript for c in artifacts.cells.values() if c.transcript is not None]
    cached_new = cached_reused = uncached_new = ledger_turns = 0
    for cell in artifacts.cells.values():
        cached, uncached = cell.ledgers["cached"], cell.ledgers["uncached"]
        cached_new += cached["totals"]["prefill_new"]
        cached_reused += cached["totals"]["prefill_reused"]
        uncached_new += uncached["totals"]["prefill_new"]
        ledger_turns += len(cached["entries"]) + len(uncached["entries"])

    # Mock requests never reach a wire; count the body requests would send,
    # as the fake server does for its own.
    models = {b.name: b.model for b in artifacts.plan.backends if b.kind != "openai_compatible"}
    mock_requests = mock_bytes = 0
    for (backend, _, _), cell in artifacts.cells.items():
        if backend in models:
            for turn in cell.transcript.turns:
                body = {"model": models[backend], "temperature": 0.0,
                        "messages": [m.to_dict() for m in turn.request_messages]}
                mock_bytes += len(json.dumps(body).encode("utf-8"))
                mock_requests += 1
    attempts = server.attempts + mock_requests
    source_bytes = sum(len(s.encode("utf-8")) for r in records for s in r["src"])
    report_bytes = sum(path.stat().st_size for path in written)
    out = {
        "corpus.load_s": run["corpus.load"]["total_s"],
        "corpus.documents": len(records),
        "corpus.segments": sum(len(r["src"]) for r in records),
        "strategy.init_session_s": run["strategy.init_session"]["total_s"],
        "strategy.next_request_s": run["strategy.next_request"]["total_s"],
        "strategy.ingest_s": run["strategy.ingest"]["total_s"],
        "strategy.assemble_s": run["strategy.assemble"]["total_s"],
        "strategy.prefix_check_s": run["strategy.prefix_check"]["total_s"],
        "strategy.requests_built": sum(len(t.turns) for t in transcripts),
        "strategy.messages_per_request_max": max(
            len(turn.request_messages) for t in transcripts for turn in t.turns
        ),
        "gateway.complete_s": run["gateway.complete"]["self_s"],
        "gateway.requests": run["gateway.complete"]["calls"],
        "gateway.attempts": attempts,
        "gateway.retries_429": server.statuses[429],
        "gateway.retries_5xx": server.statuses[503],
        "gateway.failed": run["gateway.complete"]["calls"] - len(log.calls),
        "gateway.success_per_attempt": len(log.calls) / attempts,
        "gateway.backoff_virtual_s": server.backoff_s,
        "gateway.request_bytes": server.request_bytes + mock_bytes,
        "costing.ledger_s": run["costing.ledger"]["total_s"],
        "costing.ledger_turns": ledger_turns,
        "costing.prefill_cached_tokens": cached_new,
        "costing.prefill_uncached_tokens": uncached_new,
        "costing.predicted_reuse_ratio": cached_reused / (cached_new + cached_reused),
        "executor.self_s": run["execute.run"]["self_s"],
        "executor.resume_self_s": resume["execute.resume"]["self_s"] / RESUME_REPEATS,
        "executor.raw_bytes": run_dir_sizes["raw"][0],
        "executor.raw_files": run_dir_sizes["raw"][1],
        "executor.translation_bytes": run_dir_sizes["translations"][0],
        "executor.ledger_bytes": run_dir_sizes["ledgers"][0],
        "executor.bytes_per_source_byte": rep.artifact_bytes / source_bytes,
        "bleu.doc_bleu_s": per_report("bleu.doc_bleu"),
        "bleu.doc_bleu_calls": per_report("bleu.doc_bleu", "calls"),
        "bleu.docs_tokenized": report_counts["bleu.docs_tokenized"] / REPORT_REPEATS,
        "blonde.category_counts_s": per_report("blonde.category_counts"),
        "blonde.category_counts_calls": per_report("blonde.category_counts", "calls"),
        "blonde.resource_loads": per_report("blonde.resource_load", "calls"),
        "blonde.resource_load_s": per_report("blonde.resource_load"),
        "blonde.pronouns_s": per_report("blonde.pronouns"),
        "blonde.connectives_s": per_report("blonde.connectives"),
        "blonde.tense_s": per_report("blonde.tense"),
        "blonde.entities_s": per_report("blonde.entities"),
        "lengths.report_s": per_report("lengths.report"),
        "report.score_strategy_self_s": per_report("report.score_strategy", "self_s"),
        "report.score_strategy_calls": per_report("report.score_strategy", "calls"),
        "reports.self_s": per_report("reports.emit", "self_s"),
        "reports.files": len(written),
        "reports.bytes": report_bytes,
    }
    for k in SWEEP_KS:
        out[f"costing.compare_k{k}_s"] = sweep[f"costing.compare_k{k}"]["total_s"]
    return out
