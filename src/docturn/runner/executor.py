"""Run-matrix execution with per-cell persistence and resume.

A cell is one (backend, strategy, document) combination and the unit of
resume. Its transcript is logged as one record, one JSON line in the
append-only log of its (backend, strategy) group: `doc`, the document id,
`requests`, the requests_digest of the requests the cell sent, and `turns`,
the backend's response to each request as a ChatResponse row: [content,
prompt_tokens, cached_tokens, completion_tokens, finish_reason]. No field
holds wall-clock time. The requests themselves are not stored: they are a
function of the hashed plan, the shipped templates and the replies. Loading
a cell replays its record through the strategy, which rebuilds its
requests, transcript and translation, and refuses the record unless the
rebuilt requests hash to its digest. The cost ledgers are pure functions
of the transcript and its document's count rule, so none is stored: a cell
walks its ledgers only when they are first read, and the walk cannot fail.

A record is built in memory while its cell runs and appended, with one write
and a flush, only once the cell has completed: concurrent cells append in
the order they complete, and a failed or interrupted cell leaves nothing, so
re-executing the run executes exactly the missing cells. Bytes after a log's
last newline are a record torn by a crash: loading ignores them and execute
truncates them away before it appends. ResumeMismatchError refuses a line
that does not parse, a second record for one document, a record for a
document outside the test set, a record whose requests differ from the
rebuilt ones or that has a missing, extra or unparseable turn, and a
directory from a different configuration, template set or layout.

The manifest is written before the first request, so an interrupted first
run can be loaded, scored and resumed, and is replaced whole at the end with
the run's exclusions. A run directory holding files but no manifest is from
an older version, which wrote the manifest last, and is refused.

Layout under <output_dir>/<run_id>/:
    manifest.json
    cells/<backend>/<strategy>.jsonl
    reports/*.csv, *.md
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import BinaryIO, Callable

from .. import gateway
from ..chat import ChatRequest, ChatResponse, Message, assistant, common_prefix_length
from ..corpus import Document, TestSet, parse_corpus
from ..costing import Transcript, TranscriptTurn, ledger_for_session, message_tokens
from ..costing import TokenizerSpec, spec_for_target_language
from ..errors import ConfigError, DocturnError, GatewayError, ResumeMismatchError
from ..prompts import PromptTemplateSet, load_template_set
from ..strategy import (
    DocumentTranslation,
    StrategyConfig,
    assemble_hypothesis,
    check_prefix_stability,
    exemplar_messages,
    ingest_response,
    init_session,
    next_request,
)
from .config import RunPlan

logger = logging.getLogger(__name__)

LAYOUT_VERSION = 7
MANIFEST = "manifest.json"

CompleteFn = Callable[[ChatRequest, gateway.BackendConfig], ChatResponse]

CellKey = tuple[str, str, str]  # (backend name, strategy label, doc id)


@dataclass
class CellArtifact:
    """A completed cell: its translation, its transcript and what its ledgers
    count with. A fresh cell and the same cell loaded from its record are
    equal field for field."""

    translation: DocumentTranslation
    transcript: Transcript
    spec: TokenizerSpec  # its document's target-language count rule

    @cached_property
    def ledgers(self) -> dict[str, dict]:
        """Cache mode -> serialized ledger, walked on first read and kept."""
        ledgers = ledger_for_session(self.transcript, self.spec)
        return {mode: ledger.to_dict() for mode, ledger in ledgers.items()}


@dataclass
class RunArtifacts:
    run_dir: Path
    plan: RunPlan
    testset: TestSet
    cells: dict[CellKey, CellArtifact] = field(default_factory=dict)
    exclusions: list[dict] = field(default_factory=list)

    def translations_for(self, backend_name: str, strategy_label: str) -> dict[str, DocumentTranslation]:
        return {
            doc_id: cell.translation
            for (b, s, doc_id), cell in self.cells.items()
            if b == backend_name and s == strategy_label
        }


def load_corpus(path: str) -> tuple[TestSet, bytes]:
    """The test set at path and the bytes it was parsed from, read once."""
    data = Path(path).read_bytes()
    return parse_corpus(data, path), data


def load_testsets(plan: RunPlan, files: dict[str, bytes] | None = None) -> TestSet:
    """All plan test sets merged; document ids must be globally unique. The
    bytes read from each test set are added to files, by path."""
    documents = []
    for i, path in enumerate(plan.testsets):
        try:
            testset, data = load_corpus(path)
        except OSError as exc:
            raise ConfigError(f"testsets[{i}]: cannot read {path} ({exc.strerror})") from None
        documents.extend(testset.documents)
        if files is not None:
            files[path] = data
    return TestSet(name=plan.run_id, documents=documents)


def _open_run(plan: RunPlan, files: dict[str, bytes]) -> tuple[RunArtifacts, str]:
    """A run's artifacts, with no cell loaded yet, and its config hash. files
    holds the bytes already read, by path; each other file the run reads is
    read once and added, so the hash covers exactly the bytes that are
    parsed. Nothing is written."""
    testset = load_testsets(plan, files)
    config_hash = plan.config_hash_of(files)
    run_dir = Path(plan.output_dir) / plan.run_id
    return RunArtifacts(run_dir, plan, testset), config_hash


def _group_log(run_dir: Path, backend: str, strategy: str) -> Path:
    return run_dir / "cells" / backend / f"{strategy}.jsonl"


@dataclass
class _Group:
    """One (backend, strategy) of the matrix as found on disk."""

    backend: gateway.BackendConfig
    strategy: StrategyConfig
    log: Path
    prefix: tuple[Message, ...]  # the strategy's exemplar messages, shared by its sessions
    complete_bytes: int = 0  # length of the log up to its last newline
    pending: list[Document] = field(default_factory=list)  # documents without a record


def requests_digest(transcript: Transcript) -> str:
    """BLAKE2b-128 hex digest of a transcript's requests as deltas. Each turn
    adds `keep`, the length of the prefix its request shares with the
    previous request plus its reply (nothing before turn 0), in decimal and a
    newline, then each message after those as its role, a space, the UTF-8
    byte length of its content in decimal, a newline and the content's UTF-8
    bytes. A request that extends the previous one shares its message
    objects, so finding `keep` stops at them by identity."""
    digest = hashlib.blake2b(digest_size=16)
    state: tuple[Message, ...] = ()
    for turn in transcript.turns:
        request = turn.request_messages
        keep = common_prefix_length(request, state)
        digest.update(b"%d\n" % keep)
        for message in request[keep:]:
            content = message.content.encode("utf-8")
            digest.update(b"%s %d\n%s" % (message.role.encode("ascii"), len(content), content))
        state = request + (assistant(turn.response_text),)
    return digest.hexdigest()


def _drive_cell(
    artifacts: RunArtifacts,
    group: _Group,
    doc: Document,
    templates: PromptTemplateSet,
    reply: Callable[[int, ChatRequest], ChatResponse],
) -> CellArtifact:
    """Run one document session, taking each reply from reply(turn, request),
    then check a multi-turn transcript's prefix stability and assemble the
    translation. The ledgers are left to the cell's first read of them."""
    strategy = group.strategy
    session = init_session(strategy, doc, templates, group.prefix)
    transcript = Transcript()
    plan = artifacts.plan
    spec = spec_for_target_language(doc.tgt_lang)

    while (request := next_request(session)) is not None:
        turn = len(transcript.turns)
        if plan.max_context_tokens is not None:
            request_tokens = sum(message_tokens(m, spec) for m in request.messages)
            if request_tokens > plan.max_context_tokens:
                raise GatewayError(
                    f"context_overflow: request of {request_tokens} tokens exceeds "
                    f"budget {plan.max_context_tokens} for document '{doc.id}'"
                )
        response = reply(turn, request)
        transcript.turns.append(
            TranscriptTurn(request_messages=request.messages, response_text=response.content)
        )
        if response.finish_reason == "length":
            session.warnings.append(f"turn {turn}: output truncated (finish_reason=length)")
        ingest_response(session, response.content)

    if strategy.mode.is_multi_turn:
        check_prefix_stability(
            [t.request_messages for t in transcript.turns],
            [t.response_text for t in transcript.turns],
        )
    return CellArtifact(assemble_hypothesis(session), transcript, spec)


def _run_cell(
    artifacts: RunArtifacts,
    group: _Group,
    doc: Document,
    templates: PromptTemplateSet,
    complete: CompleteFn,
) -> tuple[CellArtifact, bytes]:
    """A fresh cell: replies come from the backend. Returns the cell and its
    record, one line for the group log. A completed cell with a reply cut at
    the output limit is logged as a warning."""
    rows: list[tuple] = []
    truncated: list[str] = []

    def reply(turn: int, request: ChatRequest) -> ChatResponse:
        response = complete(request, group.backend)
        rows.append(response.to_row())
        if response.finish_reason == "length":
            truncated.append(str(turn))
        return response

    cell = _drive_cell(artifacts, group, doc, templates, reply)
    if truncated:
        logger.warning(
            "%s/%s/%s: output truncated (finish_reason=length) at turn %s",
            group.backend.name, group.strategy.label, doc.id, ", ".join(truncated),
        )
    record = {"doc": doc.id, "requests": requests_digest(cell.transcript), "turns": rows}
    return cell, _json_line(record)


def _json_line(value: dict) -> bytes:
    return (json.dumps(value, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


def _replay_cell(
    artifacts: RunArtifacts,
    group: _Group,
    doc: Document,
    templates: PromptTemplateSet,
    record: dict,
    where: str,
) -> CellArtifact:
    """A completed cell: replies come from its record's turns, and the
    requests the session rebuilds must hash to the record's digest. `where`
    names the record in errors. The cell keeps the rebuilt transcript, so it
    equals the cell the run produced."""
    turns = record["turns"]

    def mismatch(turn: int, problem: str) -> ResumeMismatchError:
        return ResumeMismatchError(f"{where}: turn {turn}: {problem}")

    def reply(turn: int, request: ChatRequest) -> ChatResponse:
        if turn >= len(turns):
            raise mismatch(turn, f"turn missing, the record has {len(turns)}")
        try:
            return ChatResponse.from_row(turns[turn])
        except (ValueError, TypeError) as exc:
            raise mismatch(turn, f"unparseable turn ({exc})") from None

    try:
        cell = _drive_cell(artifacts, group, doc, templates, reply)
    except GatewayError as exc:
        raise ResumeMismatchError(f"{where}: replay failed: {exc}") from None
    sent = len(cell.transcript.turns)
    if len(turns) != sent:
        raise mismatch(sent, f"extra turn, the session sent {sent} requests")
    if requests_digest(cell.transcript) != record["requests"]:
        raise ResumeMismatchError(f"{where}: logged requests differ from the rebuilt ones")
    return cell


def _read_group_log(log: Path, doc_ids: set[str]) -> tuple[dict[str, tuple[int, dict]], int]:
    """The records of a group log as doc id -> (line number, record), and
    the length of the log up to its last newline. Bytes after the last
    newline are a record torn by a crash and are ignored."""
    try:
        data = log.read_bytes()
    except FileNotFoundError:
        return {}, 0
    complete_bytes = data.rfind(b"\n") + 1
    records: dict[str, tuple[int, dict]] = {}
    for number, line in enumerate(data[:complete_bytes].split(b"\n")[:-1], start=1):
        try:
            record = json.loads(line)
            doc_id = record["doc"]
            if not isinstance(doc_id, str) or not isinstance(record["turns"], list):
                raise TypeError("doc is not a string or turns is not a list")
            if not isinstance(record["requests"], str):
                raise TypeError("requests is not a string")
        except (ValueError, KeyError, TypeError) as exc:
            raise ResumeMismatchError(f"{log}: line {number}: unparseable record ({exc})") from None
        if doc_id in records:
            raise ResumeMismatchError(
                f"{log}: line {number}: duplicate record for doc '{doc_id}', "
                f"first on line {records[doc_id][0]}"
            )
        if doc_id not in doc_ids:
            raise ResumeMismatchError(f"{log}: line {number}: doc '{doc_id}' is not in the test set")
        records[doc_id] = (number, record)
    return records, complete_bytes


def _read_manifest(
    run_dir: Path, config_hash: str, templates: PromptTemplateSet
) -> dict | None:
    """The run directory's manifest, None if it has none; refused unless its
    layout is this version's, its config hash is config_hash and its
    template set hash is that of templates."""
    try:
        manifest = json.loads((run_dir / MANIFEST).read_text("utf-8"))
    except FileNotFoundError:
        return None
    except ValueError:
        manifest = None
    if not isinstance(manifest, dict):
        raise ResumeMismatchError(f"{run_dir / MANIFEST} does not hold a JSON object")
    if manifest.get("layout_version") != LAYOUT_VERSION:
        raise ResumeMismatchError(
            f"{run_dir} has artifact layout {manifest.get('layout_version')!r}, "
            f"this version reads layout {LAYOUT_VERSION}; re-run into a new directory"
        )
    if manifest.get("config_hash") != config_hash:
        raise ResumeMismatchError(
            f"{run_dir} was produced by config_hash {manifest.get('config_hash')!r}, "
            f"current plan hashes to {config_hash!r}; refusing to mix runs"
        )
    if manifest.get("template_set_hash") != templates.content_hash:
        raise ResumeMismatchError(
            f"{run_dir} was produced by template set {templates.set_id!r} with hash "
            f"{manifest.get('template_set_hash')!r}, the shipped set hashes to "
            f"{templates.content_hash!r}; refusing to mix runs"
        )
    return manifest


def _write_manifest(run_dir: Path, manifest: dict) -> None:
    """Replace the manifest whole, so a crash leaves the old one or the new one."""
    staged = run_dir / f"{MANIFEST}.tmp"
    staged.write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    os.replace(staged, run_dir / MANIFEST)


def _load_completed(artifacts: RunArtifacts, templates: PromptTemplateSet) -> list[_Group]:
    """Replay every cell that has a record into artifacts.cells, reading each
    group log once; return every (backend, strategy) group with the documents
    that have no record."""
    doc_ids = {doc.id for doc in artifacts.testset}
    groups = []
    for backend in artifacts.plan.backends:
        for strategy in artifacts.plan.strategies:
            log = _group_log(artifacts.run_dir, backend.name, strategy.label)
            group = _Group(backend, strategy, log, exemplar_messages(strategy, templates))
            records, group.complete_bytes = _read_group_log(log, doc_ids)
            for doc in artifacts.testset:
                if doc.id in records:
                    number, record = records[doc.id]
                    artifacts.cells[(backend.name, strategy.label, doc.id)] = _replay_cell(
                        artifacts, group, doc, templates, record,
                        f"{log}: line {number}: doc '{doc.id}'",
                    )
                else:
                    group.pending.append(doc)
            groups.append(group)
    return groups


def execute(plan: RunPlan, complete_fn: CompleteFn | None = None) -> RunArtifacts:
    """Run every (backend, strategy, document) cell of the plan.

    Completed cells found on disk are reused. Failures follow
    plan.fail_policy: 'halt' re-raises immediately (completed cells remain
    for resume), 'skip_and_report' records an exclusion and continues.
    """
    # Each file and key the run reads is read once, before the run directory exists.
    backends = gateway.Gateway(plan.backends)
    artifacts, config_hash = _open_run(plan, dict(backends.files))
    complete = complete_fn or backends.complete
    templates = load_template_set()
    run_dir = artifacts.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    found = _read_manifest(run_dir, config_hash, templates)
    if found is None and any(p.name != f"{MANIFEST}.tmp" for p in run_dir.iterdir()):
        raise ResumeMismatchError(
            f"{run_dir} has files but no {MANIFEST}: an older version wrote it; "
            "re-run into a new directory"
        )
    manifest = {
        "run_id": plan.run_id,
        "layout_version": LAYOUT_VERSION,
        "config_hash": config_hash,
        "template_set": templates.set_id,
        "template_set_hash": templates.content_hash,
        "exclusions": [],
    }
    if found is None:
        _write_manifest(run_dir, manifest)

    for group in _load_completed(artifacts, templates):
        if group.pending:
            group.log.parent.mkdir(parents=True, exist_ok=True)
            with group.log.open("ab") as log:
                log.truncate(group.complete_bytes)  # drop a record torn by a crash
                _run_group(artifacts, group, templates, complete, log)

    manifest["exclusions"] = sorted(
        artifacts.exclusions, key=lambda e: (e["backend"], e["strategy"], e["doc_id"])
    )
    manifest["completed_cells"] = len(artifacts.cells)
    _write_manifest(run_dir, manifest)
    return artifacts


def _run_group(
    artifacts: RunArtifacts,
    group: _Group,
    templates: PromptTemplateSet,
    complete: CompleteFn,
    log: BinaryIO,
) -> None:
    """Run a group's pending cells, appending each completed cell's record to
    its log, up to plan.max_concurrent_documents at a time."""
    plan, backend, strategy = artifacts.plan, group.backend, group.strategy
    write_lock = threading.Lock()
    run_ends = threading.Event()

    def run_one(doc: Document) -> CellArtifact | None:
        # A queued cell can start between a run-ending failure and the
        # cancellation of the queue; it must send nothing.
        if run_ends.is_set():
            return None
        try:
            cell, record = _run_cell(artifacts, group, doc, templates, complete)
        except BaseException as exc:
            if plan.fail_policy == "halt" or not isinstance(exc, DocturnError):
                run_ends.set()
            raise
        with write_lock:
            log.write(record)
            log.flush()
        return cell

    def settle(doc: Document, result: Callable[[], CellArtifact | None]) -> None:
        try:
            artifacts.cells[(backend.name, strategy.label, doc.id)] = result()
        except DocturnError as exc:
            _handle_failure(artifacts, backend.name, strategy.label, doc.id, exc)

    if plan.max_concurrent_documents > 1 and len(group.pending) > 1:
        pool = ThreadPoolExecutor(max_workers=plan.max_concurrent_documents)
        try:
            futures = [(doc, pool.submit(run_one, doc)) for doc in group.pending]
            for doc, future in futures:
                settle(doc, future.result)
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        for doc in group.pending:
            settle(doc, partial(run_one, doc))


def _handle_failure(
    artifacts: RunArtifacts,
    backend: str,
    strategy: str,
    doc_id: str,
    exc: DocturnError,
) -> None:
    if artifacts.plan.fail_policy == "halt":
        raise exc
    logger.warning("skipping %s/%s/%s: %s", backend, strategy, doc_id, exc)
    artifacts.exclusions.append(
        {"backend": backend, "strategy": strategy, "doc_id": doc_id, "reason": str(exc)}
    )


def load_artifacts(plan: RunPlan) -> RunArtifacts:
    """Load previously executed cells from disk (for the report command)."""
    artifacts, config_hash = _open_run(plan, {})
    templates = load_template_set()
    manifest = _read_manifest(artifacts.run_dir, config_hash, templates)
    if manifest is None:
        raise DocturnError(f"no run found at {artifacts.run_dir} (missing {MANIFEST})")
    _load_completed(artifacts, templates)
    # An interrupted resume leaves stale exclusions for cells it completed.
    artifacts.exclusions = [
        e for e in manifest.get("exclusions", [])
        if (e["backend"], e["strategy"], e["doc_id"]) not in artifacts.cells
    ]
    return artifacts
