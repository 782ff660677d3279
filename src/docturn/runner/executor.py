"""Run-matrix execution with per-cell persistence and resume.

A cell is one (backend, strategy, document) combination and the unit of
resume. A run is one append-only log, <output_dir>/<run_id>/run.jsonl, one
JSON value per line, in the order the lines were written:

- the header, {layout_version, run_id, config_hash, template_set,
  template_set_hash}, written before the first request, so an interrupted
  first run can be loaded, scored and resumed;
- a completed cell, [backend, strategy label, doc id, requests, row...]:
  the requests_digest of the requests it sent, then the backend's response
  to each as a ChatResponse row [content, prompt_tokens, cached_tokens,
  completion_tokens, finish_reason];
- a cell skipped under fail_policy skip_and_report,
  [backend, strategy label, doc id, null, reason].

No field holds wall-clock time, and the requests are not stored: they are a
function of the hashed plan, the shipped templates and the replies. Each
turn of a cell's transcript keeps the backend's ChatResponse, so a record is
built from the completed cell: its transcript's requests_digest, then each
turn's response as its row. Loading a cell replays its record through the
strategy, which rebuilds its requests, transcript and translation, and
refuses the record unless the rebuilt requests hash to its digest; the
loaded transcript holds the responses its rows logged, usage included, so
the loaded cell equals the fresh one. The cost ledgers are pure functions of
the transcript, so none is stored: a cell walks its ledgers only when they
are first read, and the walk cannot fail.

A record is appended, with one write and a flush under one lock, once its
cell has completed or been skipped, and applied to the run's artifacts
under that lock; loading reads the log in one pass, replaying each record
as its line is read. So on run, resume and load alike artifacts.cells is in
the order of the lines, and the exclusions are the last skip reason of each
cell with no completed record, by cell. An interrupted cell leaves nothing,
a run with no cell to execute writes nothing, and any failure that leaves a
cell, a failed append included, ends the run, except a skip under
skip_and_report. Bytes after the log's last newline are a line torn by a
crash: loading ignores them and execute truncates them away before it
appends. ResumeMismatchError refuses a header from another layout,
configuration or template set before any record is read; then, at its
line, one that does not parse, a second completed record for a cell, a
record for a cell outside the plan, and a record whose requests differ from
the rebuilt ones or that has a missing, extra or unparseable turn. A
directory whose log has no complete header must hold nothing else: any
other is from an older layout and is refused too.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable

from .. import gateway
from ..chat import ChatRequest, ChatResponse, Message, assistant, common_prefix_length
from ..corpus import Document, TestSet, parse_corpus
from ..costing import Transcript, TranscriptTurn, ledger_for_session
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

LAYOUT_VERSION = 8
LOG = "run.jsonl"

CompleteFn = Callable[[ChatRequest, gateway.BackendConfig], ChatResponse]

CellKey = tuple[str, str, str]  # (backend name, strategy label, doc id)


@dataclass
class CellArtifact:
    """A completed cell: its translation and its transcript. A fresh cell and
    the same cell loaded from its record are equal field for field."""

    translation: DocumentTranslation
    transcript: Transcript

    @cached_property
    def ledgers(self) -> dict[str, dict]:
        """Cache mode -> serialized ledger, walked on first read and kept."""
        ledgers = ledger_for_session(self.transcript)
        return {mode: ledger.to_dict() for mode, ledger in ledgers.items()}


@dataclass
class RunArtifacts:
    run_dir: Path
    plan: RunPlan
    testset: TestSet
    cells: dict[CellKey, CellArtifact] = field(default_factory=dict)  # in log line order
    skipped: dict[CellKey, str] = field(default_factory=dict)  # each skipped cell's last reason

    @property
    def exclusions(self) -> list[dict]:
        """The last skip reason of each cell with no completed record, by cell."""
        return [
            {"backend": backend, "strategy": strategy, "doc_id": doc_id, "reason": reason}
            for (backend, strategy, doc_id), reason in sorted(self.skipped.items())
            if (backend, strategy, doc_id) not in self.cells
        ]

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


@dataclass
class _Group:
    """One (backend, strategy) of the matrix as found on disk."""

    backend: gateway.BackendConfig
    strategy: StrategyConfig
    prefix: tuple[Message, ...]  # the strategy's exemplar messages, shared by its sessions
    pending: list[Document] = field(default_factory=list)  # documents without a completed record


def _apply(artifacts: RunArtifacts, key: CellKey, cell: CellArtifact | str) -> None:
    """Apply one logged cell, completed or skipped with its reason."""
    if isinstance(cell, str):
        artifacts.skipped[key] = cell
    else:
        artifacts.cells[key] = cell


class _Log:
    """The run's log, open for appending, and the artifacts it is the image of.
    Each line is one write and a flush, and its cell is applied, under one
    lock, so concurrent lines never interleave and artifacts follow them."""

    def __init__(self, file: BinaryIO, artifacts: RunArtifacts) -> None:
        self.file = file
        self.artifacts = artifacts
        self.lock = threading.Lock()

    def append(
        self, line: bytes, key: CellKey | None = None, cell: CellArtifact | str | None = None
    ) -> None:
        with self.lock:
            self.file.write(line)
            self.file.flush()
            if key is not None:
                _apply(self.artifacts, key, cell)


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
        state = request + (assistant(turn.response.content),)
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

    while (request := next_request(session)) is not None:
        turn = len(transcript.turns)
        if plan.max_context_tokens is not None:
            request_tokens = sum(m.tokens for m in request.messages)
            if request_tokens > plan.max_context_tokens:
                raise GatewayError(
                    f"context_overflow: request of {request_tokens} tokens exceeds "
                    f"budget {plan.max_context_tokens} for document '{doc.id}'"
                )
        response = reply(turn, request)
        transcript.turns.append(TranscriptTurn(request.messages, response))
        ingest_response(session, response.content)

    if strategy.mode.is_multi_turn:
        check_prefix_stability(
            [t.request_messages for t in transcript.turns],
            [t.response.content for t in transcript.turns],
        )
    return CellArtifact(assemble_hypothesis(session), transcript)


def _run_cell(
    artifacts: RunArtifacts,
    group: _Group,
    doc: Document,
    templates: PromptTemplateSet,
    complete: CompleteFn,
) -> tuple[CellArtifact, bytes]:
    """A fresh cell: replies come from the backend. Returns the cell and its
    record, one line for the log, built from the cell's transcript. A
    completed cell with a reply cut at the output limit is logged as a
    warning."""
    backend, label = group.backend, group.strategy.label
    cell = _drive_cell(
        artifacts, group, doc, templates, lambda turn, request: complete(request, backend)
    )
    turns = cell.transcript.turns
    truncated = [str(i) for i, t in enumerate(turns) if t.response.finish_reason == "length"]
    if truncated:
        logger.warning(
            "%s/%s/%s: output truncated (finish_reason=length) at turn %s",
            backend.name, label, doc.id, ", ".join(truncated),
        )
    rows = [t.response.to_row() for t in turns]
    return cell, _json_line([backend.name, label, doc.id, requests_digest(cell.transcript), *rows])


def _json_line(value: dict | list) -> bytes:
    return (json.dumps(value, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


def _replay_cell(
    artifacts: RunArtifacts,
    group: _Group,
    doc: Document,
    templates: PromptTemplateSet,
    record: list,
    where: str,
) -> CellArtifact:
    """A completed cell: replies come from its record's rows, and the
    requests the session rebuilds must hash to the record's digest. `where`
    names the record in errors. The cell's transcript holds the rebuilt
    requests and the rows' responses, usage included, so it equals the cell
    the run produced."""
    turns = record[4:]

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
    if requests_digest(cell.transcript) != record[3]:
        raise ResumeMismatchError(f"{where}: logged requests differ from the rebuilt ones")
    return cell


def _check_header(log: Path, line: bytes, config_hash: str, templates: PromptTemplateSet) -> None:
    """Refuse the log's header unless its layout is this version's, its config
    hash is config_hash and its template set hash is that of templates."""
    run_dir = log.parent
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise ResumeMismatchError(f"{log}: line 1 does not hold a JSON object header")
    if header.get("layout_version") != LAYOUT_VERSION:
        raise ResumeMismatchError(
            f"{run_dir} has artifact layout {header.get('layout_version')!r}, "
            f"this version reads layout {LAYOUT_VERSION}; re-run into a new directory"
        )
    if header.get("config_hash") != config_hash:
        raise ResumeMismatchError(
            f"{run_dir} was produced by config_hash {header.get('config_hash')!r}, "
            f"current plan hashes to {config_hash!r}; refusing to mix runs"
        )
    if header.get("template_set_hash") != templates.content_hash:
        raise ResumeMismatchError(
            f"{run_dir} was produced by template set {templates.set_id!r} with hash "
            f"{header.get('template_set_hash')!r}, the shipped set hashes to "
            f"{templates.content_hash!r}; refusing to mix runs"
        )


def _read_log(
    artifacts: RunArtifacts, config_hash: str, templates: PromptTemplateSet
) -> tuple[int, list[_Group]]:
    """Read the run's log into artifacts in one pass: check the header, then
    parse, check and apply each record as its line is read. Returns the log's
    length up to its last newline, after which a line torn by a crash is
    ignored (0 with no complete header), and every (backend, strategy) group
    with the test-set documents that have no completed record."""
    plan, testset = artifacts.plan, artifacts.testset
    groups = {
        (b.name, s.label): _Group(b, s, exemplar_messages(s, templates))
        for b in plan.backends for s in plan.strategies
    }
    docs = {doc.id: doc for doc in testset}
    completed_on: dict[CellKey, int] = {}  # each completed cell's line number
    run_dir = artifacts.run_dir
    log = run_dir / LOG
    complete_bytes = 0
    with (log.open("rb") if log.exists() else io.BytesIO()) as file:  # no log: a new run
        for number, line in enumerate(file, start=1):
            if not line.endswith(b"\n"):
                break  # a line torn by a crash
            complete_bytes += len(line)
            if number == 1:
                _check_header(log, line, config_hash, templates)
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, list) or not all(isinstance(i, str) for i in record[:3]):
                    raise TypeError("not an array that starts with backend, strategy and doc")
                skip = len(record) == 5 and record[3] is None and isinstance(record[4], str)
                if len(record) < 4 or not (isinstance(record[3], str) or skip):
                    raise TypeError("requests is not a string, nor null before a reason")
            except (ValueError, TypeError) as exc:
                raise ResumeMismatchError(f"{log}: line {number}: unparseable record ({exc})") from None
            backend, strategy, doc_id = key = tuple(record[:3])
            where = f"{log}: line {number}: {backend}/{strategy} doc '{doc_id}'"
            group, doc = groups.get((backend, strategy)), docs.get(doc_id)
            if group is None or doc is None:
                raise ResumeMismatchError(f"{where} is not a cell of the plan")
            if skip:
                _apply(artifacts, key, record[4])
            elif key in completed_on:
                raise ResumeMismatchError(
                    f"{where}: duplicate record, the first is on line {completed_on[key]}"
                )
            else:
                completed_on[key] = number
                _apply(artifacts, key, _replay_cell(artifacts, group, doc, templates, record, where))
    if not complete_bytes and run_dir.is_dir() and any(p.name != LOG for p in run_dir.iterdir()):
        raise ResumeMismatchError(
            f"{run_dir} has files but no {LOG} header: an older layout wrote it; "
            "re-run into a new directory"
        )

    for (backend, strategy), group in groups.items():
        group.pending = [doc for doc in testset if (backend, strategy, doc.id) not in artifacts.cells]
    return complete_bytes, list(groups.values())


def execute(plan: RunPlan, complete_fn: CompleteFn | None = None) -> RunArtifacts:
    """Run every (backend, strategy, document) cell of the plan.

    Completed cells found in the log are reused. Failures follow
    plan.fail_policy: 'halt' re-raises immediately (completed cells remain
    for resume), 'skip_and_report' logs the cell's reason and continues.
    The returned artifacts are the log's image, as load_artifacts reads it.
    """
    # Each file and key the run reads is read once, before the run directory exists.
    backends = gateway.Gateway(plan.backends)
    artifacts, config_hash = _open_run(plan, dict(backends.files))
    complete = complete_fn or backends.complete
    templates = load_template_set()
    complete_bytes, groups = _read_log(artifacts, config_hash, templates)
    groups = [group for group in groups if group.pending]
    if complete_bytes and not groups:
        return artifacts
    pending = {group.strategy.label for group in groups}
    _warn_exemplar_directions(
        [strategy for strategy in plan.strategies if strategy.label in pending], artifacts.testset
    )

    artifacts.run_dir.mkdir(parents=True, exist_ok=True)
    with (artifacts.run_dir / LOG).open("ab") as file:
        file.truncate(complete_bytes)  # drop a line torn by a crash
        log = _Log(file, artifacts)
        if not complete_bytes:
            log.append(_json_line({
                "layout_version": LAYOUT_VERSION,
                "run_id": plan.run_id,
                "config_hash": config_hash,
                "template_set": templates.set_id,
                "template_set_hash": templates.content_hash,
            }))
        for group in groups:
            _run_group(artifacts, group, templates, complete, log)
    return artifacts


def _warn_exemplar_directions(strategies: list[StrategyConfig], testset: TestSet) -> None:
    """Log a warning for each ICL strategy of strategies whose exemplars are
    not all in the direction of each test-set document, naming both sides."""
    directions = {doc.direction for doc in testset}
    for strategy in strategies:
        if not strategy.icl:
            continue
        shown = {f"{ex.src_lang}-{ex.tgt_lang}" for ex in strategy.exemplars}
        differing = sorted(d for d in directions if shown != {d})
        if differing:
            logger.warning(
                "%s: exemplar direction(s) %s differ from test-set direction(s) %s",
                strategy.label, ", ".join(sorted(shown)), ", ".join(differing),
            )


def _run_group(
    artifacts: RunArtifacts,
    group: _Group,
    templates: PromptTemplateSet,
    complete: CompleteFn,
    log: _Log,
) -> None:
    """Run a group's pending cells, up to plan.max_concurrent_documents at a
    time. Each cell appends its record as it ends, completed or, under
    skip_and_report, skipped; any other failure that leaves a cell, a failed
    append included, ends the run: no queued cell starts."""
    plan = artifacts.plan
    run_ends = threading.Event()

    def run_one(doc: Document) -> None:
        # A queued cell can start between a run-ending failure and the
        # cancellation of the queue; it must send nothing.
        if run_ends.is_set():
            return
        key = (group.backend.name, group.strategy.label, doc.id)
        try:
            try:
                cell, record = _run_cell(artifacts, group, doc, templates, complete)
            except DocturnError as exc:
                if plan.fail_policy == "halt":
                    raise
                logger.warning("skipping %s/%s/%s: %s", *key, exc)
                cell, record = str(exc), _json_line([*key, None, str(exc)])
            log.append(record, key, cell)
        except BaseException:
            run_ends.set()
            raise

    if plan.max_concurrent_documents > 1 and len(group.pending) > 1:
        pool = ThreadPoolExecutor(max_workers=plan.max_concurrent_documents)
        try:
            for future in [pool.submit(run_one, doc) for doc in group.pending]:
                future.result()
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        for doc in group.pending:
            run_one(doc)


def load_artifacts(plan: RunPlan) -> RunArtifacts:
    """Load a run's log (for the report command): its completed cells in the
    order of their lines, and its exclusions."""
    artifacts, config_hash = _open_run(plan, {})
    complete_bytes, _ = _read_log(artifacts, config_hash, load_template_set())
    if not complete_bytes:
        raise DocturnError(f"no run found at {artifacts.run_dir} (no {LOG} header)")
    return artifacts
