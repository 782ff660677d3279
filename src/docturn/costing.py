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

Counting uses the harness's own tokenizer spec (whitespace by default, char
for ideographic targets), a rule of the text alone, so numbers are
comparable across backends and no count can fail; a live backend's own
count is its reported usage, which the runner logs separately. A message's
count is message_tokens(message, spec), a function of the two alone: a
whitespace count is kept on the message, which a session's requests share,
so each message object is split at most once; a char count is a len.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from .chat import Message, assistant, common_prefix_length
from .prompts import is_char_counted
from .strategy import Mode, request_messages

MODE_CACHED = "cached"
MODE_UNCACHED = "uncached"


TOKENIZER_IDS = ("whitespace", "char")


@dataclass(frozen=True)
class TokenizerSpec:
    """Deterministic token counting rule: 'whitespace' counts maximal
    non-whitespace runs, 'char' counts characters."""

    id: str = "whitespace"

    def __post_init__(self) -> None:
        if self.id not in TOKENIZER_IDS:
            raise ValueError(f"unknown tokenizer spec: {self.id!r}")


def count_tokens(text: str, spec: TokenizerSpec) -> int:
    if spec.id == "whitespace":
        return len(text.split())
    return len(text)


def spec_for_target_language(tgt_lang: str) -> TokenizerSpec:
    """Whitespace counting, except char counting for zh/ja targets."""
    return TokenizerSpec("char" if is_char_counted(tgt_lang) else "whitespace")


@dataclass(frozen=True)
class TranscriptTurn:
    """One request/response exchange: the full message list sent, the reply."""

    request_messages: tuple[Message, ...]
    response_text: str

    def __post_init__(self) -> None:
        if not isinstance(self.request_messages, tuple):
            object.__setattr__(self, "request_messages", tuple(self.request_messages))


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


def message_tokens(message: Message, spec: TokenizerSpec) -> int:
    """Tokens of one message under spec. A whitespace count is the one the
    message keeps (Message.whitespace_tokens), so each message object is
    split at most once; a char count is a len."""
    if spec.id == "whitespace":
        return message.whitespace_tokens
    return count_tokens(message.content, spec)


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


def ledger_for_session(transcript: Transcript, spec: TokenizerSpec) -> dict[str, CostLedger]:
    """Cached and uncached token ledgers for one session transcript.

    Cached mode charges each conversation token's prefill exactly once across
    the session; uncached mode charges every request in full. A request
    reuses only the prefix it shares with some earlier request-plus-reply,
    so a transcript whose history was rewritten is charged for the rewrite;
    nothing here checks prefix stability.
    """

    def keyed(message: Message) -> _KeyedMessage:
        return (message.role, message.content), message_tokens(message, spec)

    turns = ((t.request_messages, assistant(t.response_text)) for t in transcript.turns)
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
