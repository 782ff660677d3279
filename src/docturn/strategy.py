"""Conversation state machines for the four document-translation strategies.

Modes:
  single_turn     -- whole document in one request.
  segment_level   -- one independent request per segment, no shared history.
  multi_turn      -- one growing conversation, one segment per turn; earlier
                     turns are never edited, so every request extends the
                     previous one (the property that makes prefix caching
                     valid).
  multi_turn_sp   -- multi_turn whose first user message additionally carries
                     the full source document as context before the segment-0
                     instruction.

In-context exemplars (icl=True) are encoded as alternating user/assistant
message pairs placed before any document content; the exemplar prefix is a
pure function of the strategy config, so it is byte-identical across
documents and therefore cache-stable. A session builds it once, or takes the
tuple its caller built for every session of the strategy.

Driver loop:

    session = init_session(config, doc)
    while (request := next_request(session)) is not None:
        response = gateway.complete(request, backend)
        ingest_response(session, response.content)
    translation = assemble_hypothesis(session)
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Sequence

from .chat import ChatRequest, Message, assistant, user
from .corpus import Document, Exemplar
from .errors import ConfigError, PrefixStabilityError, SessionContractError
from .prompts import (
    DEFAULT_TEMPLATE_SET,
    PromptTemplateSet,
    language_name,
    load_template_set,
)

DEFAULT_EXEMPLAR_COUNT = 3


class Mode(str, enum.Enum):
    SINGLE_TURN = "single_turn"
    SEGMENT_LEVEL = "segment_level"
    MULTI_TURN = "multi_turn"
    MULTI_TURN_SP = "multi_turn_sp"

    @property
    def is_multi_turn(self) -> bool:
        return self in (Mode.MULTI_TURN, Mode.MULTI_TURN_SP)

    @property
    def label(self) -> str:
        return _MODE_LABELS[self]


_MODE_LABELS = {
    Mode.SINGLE_TURN: "Single-turn",
    Mode.SEGMENT_LEVEL: "Segment-level",
    Mode.MULTI_TURN: "Multi-turn",
    Mode.MULTI_TURN_SP: "Multi-turn sp",
}


@dataclass(frozen=True)
class StrategyConfig:
    """One strategy cell of the run matrix: translation mode plus ICL setting."""

    mode: Mode
    icl: bool = False
    exemplars: tuple[Exemplar, ...] = ()
    template_set: str = DEFAULT_TEMPLATE_SET
    exemplar_count: int = DEFAULT_EXEMPLAR_COUNT
    model_id: str = "default"
    max_tokens: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.exemplars, tuple):
            object.__setattr__(self, "exemplars", tuple(self.exemplars))
        if self.icl and len(self.exemplars) != self.exemplar_count:
            raise ValueError(
                f"icl=True requires exactly {self.exemplar_count} exemplars, "
                f"got {len(self.exemplars)}"
            )
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ConfigError("max_tokens: must be >= 1")

    @property
    def label(self) -> str:
        """Filesystem-safe strategy name used in artifact paths and reports."""
        return self.mode.value + ("+icl" if self.icl else "")

    @property
    def display_name(self) -> str:
        return self.mode.label + (" + ICL" if self.icl else "")


STATUS_IN_PROGRESS = "in_progress"
STATUS_DONE = "done"
STATUS_FAILED = "failed"


@dataclass
class SessionState:
    """Per-document translation session.

    Strictly sequential: turn i+1 may only be built after turn i's response
    has been ingested. cursor == len(outputs) while in progress.
    """

    config: StrategyConfig
    document: Document
    templates: PromptTemplateSet
    icl_prefix: tuple[Message, ...] = ()  # exemplar_messages(config, templates)
    cursor: int = 0
    conversation: list[Message] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    status: str = STATUS_IN_PROGRESS
    failure_reason: str | None = None
    pending: bool = False
    requests_issued: int = 0
    warnings: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.status = STATUS_FAILED
        self.failure_reason = reason
        self.pending = False


def exemplar_messages(config: StrategyConfig, templates: PromptTemplateSet) -> tuple[Message, ...]:
    """Fixed alternating user/assistant exemplar pairs; empty when icl=False."""
    if not config.icl:
        return ()
    messages: list[Message] = []
    for ex in config.exemplars:
        prompt = templates.render(
            "segment",
            {
                "src_lang": language_name(ex.src_lang),
                "tgt_lang": language_name(ex.tgt_lang),
                "segment": ex.source,
            },
        )
        messages.append(user(prompt))
        messages.append(assistant(ex.target))
    return tuple(messages)


def _segment_prompt(s: SessionState, index: int) -> str:
    doc = s.document
    return s.templates.render(
        "segment",
        {
            "src_lang": language_name(doc.src_lang),
            "tgt_lang": language_name(doc.tgt_lang),
            "segment": doc.source_segments[index],
        },
    )


def _document_prompt(s: SessionState) -> str:
    doc = s.document
    return s.templates.render(
        "document",
        {
            "src_lang": language_name(doc.src_lang),
            "tgt_lang": language_name(doc.tgt_lang),
            "document": "\n\n".join(doc.source_segments),
        },
    )


def _source_primed_first_prompt(s: SessionState) -> str:
    doc = s.document
    return s.templates.render(
        "source_primed_first",
        {
            "src_lang": language_name(doc.src_lang),
            "tgt_lang": language_name(doc.tgt_lang),
            "document": "\n\n".join(doc.source_segments),
            "segment": doc.source_segments[0],
        },
    )


def init_session(
    config: StrategyConfig,
    doc: Document,
    templates: PromptTemplateSet | None = None,
    prefix: tuple[Message, ...] | None = None,
) -> SessionState:
    """Create a session with its first request pending. prefix is the
    strategy's exemplar_messages, when the caller holds them already: every
    request of the session then starts with that very tuple's messages."""
    if templates is None:
        templates = load_template_set(config.template_set)
    if prefix is None:
        prefix = exemplar_messages(config, templates)
    s = SessionState(config=config, document=doc, templates=templates, icl_prefix=prefix)
    if config.icl:
        mismatched = [
            f"{ex.src_lang}-{ex.tgt_lang}"
            for ex in config.exemplars
            if (ex.src_lang, ex.tgt_lang) != (doc.src_lang, doc.tgt_lang)
        ]
        if mismatched:
            s.warnings.append(
                f"exemplar direction(s) {sorted(set(mismatched))} differ from "
                f"document direction {doc.direction}"
            )
    if config.mode.is_multi_turn:
        s.conversation = list(s.icl_prefix)
        if config.mode == Mode.MULTI_TURN_SP:
            s.conversation.append(user(_source_primed_first_prompt(s)))
        else:
            s.conversation.append(user(_segment_prompt(s, 0)))
    s.pending = True
    return s


def next_request(s: SessionState) -> ChatRequest | None:
    """The pending chat request, or None once the session has completed.

    Idempotent between ingests: calling twice without ingesting returns the
    same request. Raises on failed sessions.
    """
    if s.status == STATUS_FAILED:
        raise SessionContractError(
            f"next_request on failed session ({s.failure_reason}) "
            f"for document '{s.document.id}'"
        )
    if s.status == STATUS_DONE:
        return None
    if not s.pending:
        raise SessionContractError("session is in progress but no request is pending")

    if s.config.mode.is_multi_turn:
        messages = tuple(s.conversation)
    elif s.config.mode == Mode.SEGMENT_LEVEL:
        messages = s.icl_prefix + (user(_segment_prompt(s, s.cursor)),)
    else:  # single turn
        messages = s.icl_prefix + (user(_document_prompt(s)),)

    return ChatRequest(
        model_id=s.config.model_id,
        messages=messages,
        temperature=0.0,
        max_tokens=s.config.max_tokens,
        request_tag=f"{s.document.id}:turn_{s.requests_issued}",
    )


_LABEL_RE = re.compile(r"^(?:Translation|翻译|Übersetzung)\s*[:：]\s*")
_FULL_FENCE_RE = re.compile(r"^```[^\n]*\n(.*)\n?```$", re.DOTALL)


def strip_wrapping(text: str) -> str:
    """Minimal deterministic cleanup of a model reply.

    In order: trim whitespace; unwrap a triple-backtick fence when it spans
    the entire reply; remove one leading translation label; trim again.
    Nothing else is touched.
    """
    out = text.strip()
    fence = _FULL_FENCE_RE.match(out)
    if fence:
        out = fence.group(1).strip()
    out = _LABEL_RE.sub("", out, count=1)
    return out.strip()


def ingest_response(s: SessionState, assistant_text: str) -> SessionState:
    """Record one model reply, advance the cursor, arm the next request."""
    if s.status != STATUS_IN_PROGRESS:
        raise SessionContractError(f"ingest_response on a {s.status} session")
    if not s.pending:
        raise SessionContractError("ingest_response without an outstanding request")

    cleaned = strip_wrapping(assistant_text)
    if not cleaned:
        s.fail("empty_output")
        s.warnings.append(
            f"empty model output for document '{s.document.id}' at turn {s.requests_issued}"
        )
        return s

    s.requests_issued += 1

    if s.config.mode.is_multi_turn:
        # History is append-only: the raw reply enters the conversation as-is
        # so the transcript matches what the backend actually saw and said.
        s.conversation.append(assistant(assistant_text))
        s.outputs.append(cleaned)
        s.cursor += 1
        if s.cursor == s.document.num_segments:
            s.status = STATUS_DONE
            s.pending = False
        else:
            s.conversation.append(user(_segment_prompt(s, s.cursor)))
    elif s.config.mode == Mode.SEGMENT_LEVEL:
        s.outputs.append(cleaned)
        s.cursor += 1
        if s.cursor == s.document.num_segments:
            s.status = STATUS_DONE
            s.pending = False
    else:  # single turn
        s.outputs.append(cleaned)
        s.cursor += 1
        s.status = STATUS_DONE
        s.pending = False
    return s


@dataclass(frozen=True)
class DocumentTranslation:
    """Final per-document hypothesis, segment-aligned when possible."""

    doc_id: str
    hypothesis_segments: tuple[str, ...]
    alignment_ok: bool
    raw_output: str | None = None
    warnings: tuple[str, ...] = ()

    def joined(self) -> str:
        return " ".join(self.hypothesis_segments)


def assemble_hypothesis(s: SessionState) -> DocumentTranslation:
    """Turn a completed session into a DocumentTranslation.

    Multi-turn and segment-level outputs are already one-per-segment. A
    single-turn reply is split on blank lines, falling back to single
    newlines; if neither split matches the segment count the document is
    marked misaligned (still scorable at the document level, but excluded
    from segment-aligned metrics).
    """
    if s.status != STATUS_DONE:
        raise SessionContractError(f"assemble_hypothesis on a {s.status} session")

    warnings = tuple(s.warnings)
    if s.config.mode != Mode.SINGLE_TURN:
        return DocumentTranslation(
            doc_id=s.document.id,
            hypothesis_segments=tuple(s.outputs),
            alignment_ok=True,
            raw_output=None,
            warnings=warnings,
        )

    raw = s.outputs[0]
    k = s.document.num_segments
    blank_split = [seg for seg in (p.strip() for p in re.split(r"\n\s*\n", raw)) if seg]
    if len(blank_split) == k:
        return DocumentTranslation(s.document.id, tuple(blank_split), True, raw, warnings)
    newline_split = [seg for seg in (p.strip() for p in raw.split("\n")) if seg]
    if len(newline_split) == k:
        return DocumentTranslation(s.document.id, tuple(newline_split), True, raw, warnings)
    return DocumentTranslation(s.document.id, tuple(blank_split), False, raw, warnings)


def check_prefix_stability(
    request_messages: Sequence[tuple[Message, ...]],
    replies: Sequence[str] | None = None,
) -> None:
    """Verify the multi-turn cache contract over a session's request sequence.

    Every consecutive request pair must satisfy exact element-wise prefix
    containment with exactly two additional messages (the previous assistant
    reply and the next user instruction). Given the session's replies, the
    appended assistant message must also equal the previous reply verbatim.
    Raises PrefixStabilityError.
    """
    for i in range(1, len(request_messages)):
        prev, cur = request_messages[i - 1], request_messages[i]
        if len(cur) != len(prev) + 2:
            raise PrefixStabilityError(
                f"request {i} has {len(cur)} messages, expected {len(prev) + 2}"
            )
        if cur[: len(prev)] != prev:
            j = next(j for j, msg in enumerate(prev) if cur[j] != msg)
            raise PrefixStabilityError(
                f"request {i} rewrites message {j} ({prev[j].role!r})"
            )
        if cur[len(prev)].role != "assistant" or cur[-1].role != "user":
            raise PrefixStabilityError(
                f"request {i} does not append an assistant/user pair"
            )
        if replies is not None and cur[len(prev)].content != replies[i - 1]:
            raise PrefixStabilityError(
                f"request {i} does not carry the previous reply verbatim"
            )
