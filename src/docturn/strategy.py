"""Document-translation sessions for the four strategies.

The four strategies are two choices. The first is what each turn's user
message carries: the whole document (single_turn), one segment
(segment_level, multi_turn), or the whole source ahead of the first segment
(multi_turn_sp, "source-primed"). The second is whether earlier turns stay
in the request: the multi-turn modes keep them, so every request extends the
previous one by its reply and the next prompt, which is what lets a prefix
(KV) cache be reused.

  single_turn     -- whole document in one request.
  segment_level   -- one independent request per segment, no shared history.
  multi_turn      -- one growing conversation, one segment per turn.
  multi_turn_sp   -- multi_turn whose first user message additionally carries
                     the full source document as context before the segment-0
                     instruction.

A session (SessionState) holds its turn prompts, rendered once by
turn_prompts, and the replies ingested so far; nothing else about its
progress is stored, and nothing about a response but its text: its usage and
finish reason stay with the caller's transcript. Turn
len(replies)'s request is request_messages(mode, prefix, prompts, replies),
the one rule the cost simulator (costing.simulate_strategy_costs) also
assembles its synthetic requests with.

In-context exemplars (icl=True) are encoded as alternating user/assistant
message pairs placed before any document content; the exemplar prefix is a
pure function of the strategy config, so it is byte-identical across
documents and therefore cache-stable. A session builds it once, or takes the
tuple its caller built for every session of the strategy. The runner, not
the session, warns when the exemplars' direction differs from a document's.

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
from typing import Sequence, TypeVar

from .chat import ChatRequest, Message, assistant, user
from .corpus import Document, Exemplar, segment_separator, split_into_segments
from .errors import ConfigError, GatewayError, PrefixStabilityError, SessionContractError
from .prompts import PromptTemplateSet, language_name, load_template_set

EXEMPLAR_COUNT = 3  # exemplars an icl strategy carries

_M = TypeVar("_M")  # a message: a chat Message, or the cost simulator's (key, tokens)


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
    max_tokens: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.exemplars, tuple):
            object.__setattr__(self, "exemplars", tuple(self.exemplars))
        if self.icl and len(self.exemplars) != EXEMPLAR_COUNT:
            raise ConfigError(
                f"exemplars: icl=True requires exactly {EXEMPLAR_COUNT} exemplars, "
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


@dataclass
class SessionState:
    """Per-document translation session: its prompts and the reply texts.

    prompts holds every turn's user message, rendered once; replies and
    outputs grow by one per ingested reply, so the turn in progress is
    len(outputs). Strictly sequential: turn i+1's request exists only once
    turn i's reply has been ingested.
    """

    config: StrategyConfig
    document: Document
    prompts: tuple[Message, ...]  # turn_prompts(config, document, templates)
    icl_prefix: tuple[Message, ...] = ()  # exemplar_messages(config, templates)
    replies: list[Message] = field(default_factory=list)  # raw replies, as sent back
    outputs: list[str] = field(default_factory=list)  # the replies after strip_wrapping

    @property
    def requests_issued(self) -> int:
        return len(self.outputs)

    @property
    def status(self) -> str:
        return STATUS_DONE if len(self.outputs) == len(self.prompts) else STATUS_IN_PROGRESS


def _language_names(src_lang: str, tgt_lang: str) -> dict[str, str]:
    return {"src_lang": language_name(src_lang), "tgt_lang": language_name(tgt_lang)}


def exemplar_messages(config: StrategyConfig, templates: PromptTemplateSet) -> tuple[Message, ...]:
    """Fixed alternating user/assistant exemplar pairs; empty when icl=False."""
    if not config.icl:
        return ()
    messages: list[Message] = []
    for ex in config.exemplars:
        languages = _language_names(ex.src_lang, ex.tgt_lang)
        prompt = templates.render("segment", {**languages, "segment": ex.source})
        messages.append(user(prompt))
        messages.append(assistant(ex.target))
    return tuple(messages)


def turn_prompts(
    config: StrategyConfig, doc: Document, templates: PromptTemplateSet
) -> tuple[Message, ...]:
    """Each turn's user message: the whole document for single_turn, else one
    segment per turn, the first of multi_turn_sp also carrying the whole
    source before its segment."""
    segments = doc.source_segments
    languages = _language_names(doc.src_lang, doc.tgt_lang)  # resolved once per document

    def render(slot: str, **payload: str) -> Message:
        return user(templates.render(slot, {**languages, **payload}))

    joined = segment_separator("blank_line").join
    if config.mode == Mode.SINGLE_TURN:
        return (render("document", document=joined(segments)),)
    if config.mode == Mode.MULTI_TURN_SP:
        first = render("source_primed_first", document=joined(segments), segment=segments[0])
    else:
        first = render("segment", segment=segments[0])
    return (first, *(render("segment", segment=segment) for segment in segments[1:]))


def request_messages(
    mode: Mode, prefix: Sequence[_M], prompts: Sequence[_M], replies: Sequence[_M]
) -> tuple[_M, ...]:
    """The messages of turn len(replies)'s request: the prefix, then, for the
    multi-turn modes only, each earlier prompt followed by its reply, then
    the turn's own prompt. Multi-turn requests therefore only ever grow by
    the previous reply and the next prompt, the property that makes prefix
    caching valid.

    The history is interleaved by slice assignment, which makes no object
    per message: a runner builds each request between two backend calls,
    where temporary objects are what can start a garbage collection
    inside the turn."""
    turn = len(replies)
    if not mode.is_multi_turn:
        return (*prefix, prompts[turn])
    history = [None] * (2 * turn + 1)
    history[0::2] = prompts[: turn + 1]
    history[1::2] = replies
    return (*prefix, *history)


def init_session(
    config: StrategyConfig,
    doc: Document,
    templates: PromptTemplateSet | None = None,
    prefix: tuple[Message, ...] | None = None,
) -> SessionState:
    """Create a session with its first request pending. templates defaults
    to the shipped template set. prefix is the strategy's exemplar_messages,
    when the caller holds them already: every request of the session then
    starts with that very tuple's messages."""
    if templates is None:
        templates = load_template_set()
    if prefix is None:
        prefix = exemplar_messages(config, templates)
    return SessionState(config, doc, turn_prompts(config, doc, templates), prefix)


def next_request(s: SessionState) -> ChatRequest | None:
    """The pending chat request, or None once the session has completed.

    Idempotent between ingests: calling twice without ingesting returns an
    equal request.
    """
    if s.status == STATUS_DONE:
        return None
    return ChatRequest(
        messages=request_messages(s.config.mode, s.icl_prefix, s.prompts, s.replies),
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
    """Record one model reply, which arms the next turn's request. A reply
    that is empty once stripped fails the document: GatewayError."""
    if s.status != STATUS_IN_PROGRESS:
        raise SessionContractError(f"ingest_response on a {s.status} session")

    cleaned = strip_wrapping(assistant_text)
    if not cleaned:
        raise GatewayError(
            f"empty_output: document '{s.document.id}' at turn {s.requests_issued}"
        )
    # History is append-only: the raw reply enters later requests as-is so
    # the transcript matches what the backend actually saw and said.
    s.replies.append(assistant(assistant_text))
    s.outputs.append(cleaned)
    return s


@dataclass(frozen=True)
class DocumentTranslation:
    """Final per-document hypothesis, segment-aligned when possible."""

    doc_id: str
    hypothesis_segments: tuple[str, ...]
    alignment_ok: bool


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

    doc_id = s.document.id
    if s.config.mode != Mode.SINGLE_TURN:
        return DocumentTranslation(doc_id, tuple(s.outputs), True)

    raw = s.outputs[0]
    k = s.document.num_segments
    blank_split = split_into_segments(raw, "blank_line")
    if len(blank_split) == k:
        return DocumentTranslation(doc_id, tuple(blank_split), True)
    newline_split = split_into_segments(raw, "single_newline")
    if len(newline_split) == k:
        return DocumentTranslation(doc_id, tuple(newline_split), True)
    return DocumentTranslation(doc_id, tuple(blank_split), False)


def check_prefix_stability(
    requests: Sequence[tuple[Message, ...]],
    replies: Sequence[str] | None = None,
) -> None:
    """Verify the multi-turn cache contract over a session's request sequence.

    Every consecutive request pair must satisfy exact element-wise prefix
    containment with exactly two additional messages (the previous assistant
    reply and the next user instruction). Given the session's replies, the
    appended assistant message must also equal the previous reply verbatim.
    Raises PrefixStabilityError.
    """
    for i in range(1, len(requests)):
        prev, cur = requests[i - 1], requests[i]
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
