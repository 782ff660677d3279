"""Prefill/generation token accounting under prefix-cached vs uncached inference.

The ledger walks a session transcript turn by turn. In cached mode a turn
pays prefill only for tokens not already covered by a previously computed
conversation prefix (message-granular: a prefix counts as reused when its
messages match a prior request-plus-reply state element-wise). The prior
states are kept in a prefix tree of messages, as in SGLang's RadixAttention,
so a request's reuse is the depth it reaches in that tree. In uncached
mode every turn pays for its full request. Generation tokens are charged
identically in both modes; caching affects prefill only, so one walk yields
both ledgers: the uncached entry of a turn is its cached entry with nothing
reused.

Each turn's walk resumes at the tree node of the longest prefix its request
shares with the previous request-plus-reply state, so a turn costs work in
proportion to the messages it appends, not to the whole conversation.

Counting uses the harness's one rule, chat.count_tokens, a rule of the text
alone, so numbers are comparable across backends and languages and no count
can fail. A live backend's own count is its reported usage: each
TranscriptTurn keeps the backend's ChatResponse, the one its log row holds,
and the ledger reads only its content. A message's count is the one it keeps
(Message.tokens), and a session's requests share their message objects, so
each message object is counted at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from . import chat
from .chat import ChatResponse, Message, assistant, common_prefix_length
from .strategy import Mode, request_messages

MODE_CACHED = "cached"
MODE_UNCACHED = "uncached"


def count_tokens(text: str, spec: object = None) -> int:
    """chat.count_tokens, kept here for bench/checks.py, which imports it
    from this module and passes a per-document spec that the rule ignores."""
    return chat.count_tokens(text)


def spec_for_target_language(tgt_lang: str) -> None:
    """None: every text is counted by one rule. Kept only for bench/checks.py's import."""
    return None


@dataclass(frozen=True)
class TranscriptTurn:
    """One request/response exchange: the full message list sent, and the
    backend's response, usage and finish reason included, as the turn's log
    row holds it."""

    request_messages: tuple[Message, ...]
    response: ChatResponse

    def __post_init__(self) -> None:
        if not isinstance(self.request_messages, tuple):
            object.__setattr__(self, "request_messages", tuple(self.request_messages))

    @property
    def response_text(self) -> str:
        """response.content, kept only for bench/checks.py, which reads it."""
        return self.response.content


@dataclass
class Transcript:
    """Ordered exchanges of one document session. It carries no strategy:
    the runner checks a multi-turn session's prefix stability once, when the
    session is driven, and the ledger walk is correct for any transcript."""

    turns: list[TranscriptTurn] = field(default_factory=list)


@dataclass(frozen=True)
class LedgerEntry:
    turn_index: int
    prefill_new: int
    prefill_reused: int
    generated: int


@dataclass
class CostLedger:
    mode: str
    entries: list[LedgerEntry] = field(default_factory=list)

    @property
    def total_prefill_new(self) -> int:
        return sum(e.prefill_new for e in self.entries)

    @property
    def total_prefill_reused(self) -> int:
        return sum(e.prefill_reused for e in self.entries)

    @property
    def total_generated(self) -> int:
        return sum(e.generated for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "entries": [
                {
                    "turn_index": e.turn_index,
                    "prefill_new": e.prefill_new,
                    "prefill_reused": e.prefill_reused,
                    "generated": e.generated,
                }
                for e in self.entries
            ],
            "totals": {
                "prefill_new": self.total_prefill_new,
                "prefill_reused": self.total_prefill_reused,
                "generated": self.total_generated,
            },
        }


# The ledger core works over abstract messages: (identity key, token count).
# Real transcripts key messages by (role, content); the strategy simulator
# keys them by synthetic labels.
_KeyedMessage = tuple[object, int]
_M = TypeVar("_M")


def _ledger_over_keyed_turns(
    turns: Iterable[tuple[Sequence[_M], _M]],
    keyed: Callable[[_M], _KeyedMessage] = lambda message: message,
) -> dict[str, CostLedger]:
    """Cached and uncached ledgers of (request, reply) turns, by cache mode;
    keyed(message) gives a message's key and tokens, and is asked only for
    the messages a turn appends. Equal messages must have equal keys and
    tokens."""
    cached, uncached = CostLedger(mode=MODE_CACHED), CostLedger(mode=MODE_UNCACHED)
    # Prefix tree of every earlier request-plus-reply state: each node maps
    # a message key to the node of the one-message-longer prefix.
    root: dict = {}
    # The previous request-plus-reply state, and for each of its prefixes
    # (index = length) the node it reaches and its tokens.
    state: tuple = ()
    path: list[tuple[dict, int]] = [(root, 0)]
    for i, (request, reply) in enumerate(turns):
        request = tuple(request)
        # Every prefix of the previous state is in the tree, so the walk from
        # the root would reach path[shared] and reuse all of it.
        shared = common_prefix_length(request, state)
        del path[shared + 1 :]
        node, request_tokens = path[shared]
        reused = request_tokens
        for message in request[shared:]:
            key, tokens = keyed(message)
            child = node.get(key)
            if child is None:
                # A node added on this walk is empty, so every later key misses.
                child = node[key] = {}
            else:
                reused += tokens
            node = child
            request_tokens += tokens
            path.append((node, request_tokens))
        reply_key, generated = keyed(reply)
        path.append((node.setdefault(reply_key, {}), request_tokens + generated))
        state = request + (reply,)
        cached.entries.append(LedgerEntry(i, request_tokens - reused, reused, generated))
        uncached.entries.append(LedgerEntry(i, request_tokens, 0, generated))
    return {MODE_CACHED: cached, MODE_UNCACHED: uncached}


def ledger_for_session(transcript: Transcript) -> dict[str, CostLedger]:
    """Cached and uncached token ledgers for one session transcript.

    Cached mode charges each conversation token's prefill exactly once across
    the session; uncached mode charges every request in full. A request
    reuses only the prefix it shares with some earlier request-plus-reply,
    so a transcript whose history was rewritten is charged for the rewrite;
    nothing here checks prefix stability.
    """

    def keyed(message: Message) -> _KeyedMessage:
        return (message.role, message.content), message.tokens

    turns = ((t.request_messages, assistant(t.response.content)) for t in transcript.turns)
    return _ledger_over_keyed_turns(turns, keyed)


# ---------------------------------------------------------------------------
# Strategy cost simulation (synthetic documents described by token counts).


@dataclass(frozen=True)
class DocShape:
    """Token-level description of a document for cost simulation."""

    source_tokens: tuple[int, ...]
    target_tokens: tuple[int, ...]
    instruction_overhead: int = 0  # template boilerplate per user message
    primer_intro_overhead: int = 0  # source-primed intro beyond the document itself
    shared_prefix_tokens: int = 0  # ICL exemplars / system message

    def __post_init__(self) -> None:
        if not isinstance(self.source_tokens, tuple):
            object.__setattr__(self, "source_tokens", tuple(self.source_tokens))
        if not isinstance(self.target_tokens, tuple):
            object.__setattr__(self, "target_tokens", tuple(self.target_tokens))
        if len(self.source_tokens) != len(self.target_tokens):
            raise ValueError("source_tokens and target_tokens must have equal length")
        if not self.source_tokens:
            raise ValueError("DocShape needs at least one segment")
        for name in ("source_tokens", "target_tokens"):
            if min(getattr(self, name)) < 0:
                raise ValueError(f"{name}: token counts must be >= 0")
        for name in ("instruction_overhead", "primer_intro_overhead", "shared_prefix_tokens"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")

    @classmethod
    def uniform(
        cls,
        k: int,
        seg_tokens: int,
        out_tokens: int,
        *,
        instruction_overhead: int = 0,
        primer_intro_overhead: int = 0,
        shared_prefix_tokens: int = 0,
    ) -> "DocShape":
        return cls(
            source_tokens=(seg_tokens,) * k,
            target_tokens=(out_tokens,) * k,
            instruction_overhead=instruction_overhead,
            primer_intro_overhead=primer_intro_overhead,
            shared_prefix_tokens=shared_prefix_tokens,
        )


def _synthetic_turns(
    strategy: Mode, shape: DocShape
) -> list[tuple[tuple[_KeyedMessage, ...], _KeyedMessage]]:
    """The (request, reply) turns of a synthetic session: the mode's keyed
    turn prompts and replies, assembled into requests by the rule the
    harness's sessions use."""
    shared = (("shared", shape.shared_prefix_tokens),) if shape.shared_prefix_tokens else ()
    overhead, source = shape.instruction_overhead, shape.source_tokens
    if strategy == Mode.SINGLE_TURN:
        prompts = [("u_doc", overhead + sum(source))]
        replies = [("a_doc", sum(shape.target_tokens))]
    else:
        prompts = [(f"u{i}", overhead + tokens) for i, tokens in enumerate(source)]
        replies = [(f"a{i}", tokens) for i, tokens in enumerate(shape.target_tokens)]
        if strategy == Mode.MULTI_TURN_SP:
            primer = shape.primer_intro_overhead + sum(source)
            prompts[0] = ("u0_primed", primer + prompts[0][1])
    return [
        (request_messages(strategy, shared, prompts, replies[:i]), reply)
        for i, reply in enumerate(replies)
    ]


def simulate_strategy_costs(strategy: Mode, shape: DocShape) -> dict[str, CostLedger]:
    """Cached and uncached ledgers for a synthetic session of the given strategy."""
    return _ledger_over_keyed_turns(_synthetic_turns(strategy, shape))


@dataclass(frozen=True)
class CostRow:
    strategy: Mode
    cache_mode: str
    total_prefill: int
    total_generated: int
    prefill_ratio_vs_segment_level: float


COMPARISON_COLUMNS = (
    "strategy",
    "cache_mode",
    "total_prefill",
    "total_generated",
    "prefill_ratio_vs_segment_level",
)


def compare_strategies(shape: DocShape) -> list[CostRow]:
    """Strategy x cache-mode cost table for one synthetic document.

    Ratios are against segment-level translation in the same cache mode, the
    conventional per-segment baseline.
    """
    ledgers = {strategy: simulate_strategy_costs(strategy, shape) for strategy in Mode}
    rows: list[CostRow] = []
    for strategy in Mode:
        for cache_mode, ledger in ledgers[strategy].items():
            baseline = ledgers[Mode.SEGMENT_LEVEL][cache_mode].total_prefill_new
            rows.append(
                CostRow(
                    strategy=strategy,
                    cache_mode=cache_mode,
                    total_prefill=ledger.total_prefill_new,
                    total_generated=ledger.total_generated,
                    prefill_ratio_vs_segment_level=(
                        ledger.total_prefill_new / baseline if baseline else float("nan")
                    ),
                )
            )
    return rows


def comparison_csv(rows: list[CostRow]) -> str:
    lines = [",".join(COMPARISON_COLUMNS)]
    for r in rows:
        lines.append(
            f"{r.strategy.value},{r.cache_mode},{r.total_prefill},"
            f"{r.total_generated},{r.prefill_ratio_vs_segment_level:.6f}"
        )
    return "\n".join(lines) + "\n"
