"""Chat-completion record types shared by the strategy layer and the gateway.

These are plain value objects: a request is a list of role/content messages
plus an optional completion-length cap, a response is the assistant text plus
usage accounting. A request names neither a model nor a temperature: the
gateway sends every request greedily to its backend's model.

count_tokens is the harness's one token-count rule, for every text in every
language: the mocks' usage, the context budget, the cost ledgers and the
length report all count with it. A message keeps its count (Message.tokens),
so a message object shared by a session's requests is counted once.

A response is logged as one JSON array in its field order, [content,
prompt_tokens, cached_tokens, completion_tokens, finish_reason]: to_row
writes it and from_row refuses anything to_row cannot have written. No code
outside this module reads a row by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import regex

ROLE_SYSTEM = "system"
ROLE_USER = "user"
ROLE_ASSISTANT = "assistant"

_VALID_ROLES = (ROLE_SYSTEM, ROLE_USER, ROLE_ASSISTANT)

_HAN_OR_KANA_RUNS = regex.compile(r"[\p{Han}\p{Hiragana}\p{Katakana}]+")


def count_tokens(text: str) -> int:
    """One token per Han, Hiragana or Katakana character, plus one per
    maximal run of other characters that str.split does not split on. Text
    without such a character counts len(text.split()), so English and German
    count their whitespace-separated words, while Chinese and Japanese, which
    write no spaces between words, count about one token per character.

    One scan replaces each run of Han or kana characters with a space, and
    one split counts the rest; ASCII text, which holds none, skips the scan."""
    if text.isascii():
        return len(text.split())
    # A run of n characters counts n tokens and shortens the text by n - 1.
    spaced, runs = _HAN_OR_KANA_RUNS.subn(" ", text)
    return len(text) - len(spaced) + runs + len(spaced.split())


@dataclass(frozen=True)
class Message:
    """One conversation message. Immutable so histories can be shared safely."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in _VALID_ROLES:
            raise ValueError(f"unknown message role: {self.role!r}")

    @cached_property
    def tokens(self) -> int:
        """count_tokens of content, counted on first use and kept on this
        object. It is not a field, so ==, hash and to_dict never see it."""
        return count_tokens(self.content)

    def to_dict(self) -> dict[str, str]:
        return {"role": self.role, "content": self.content}


def user(content: str) -> Message:
    return Message(ROLE_USER, content)


def assistant(content: str) -> Message:
    return Message(ROLE_ASSISTANT, content)


def common_prefix_length(a: tuple, b: tuple) -> int:
    """Length of the longest shared prefix of two message tuples.

    Each step is one tuple-slice comparison, which runs in C and stops at
    shared message objects by identity; a history that only grows matches
    on the first step.
    """
    n = min(len(a), len(b))
    while a[:n] != b[:n]:
        n -= 1
    return n


@dataclass(frozen=True)
class ChatRequest:
    """A chat-completion request: the conversation, an optional cap on the
    completion's length, and a tag naming it in errors."""

    messages: tuple[Message, ...]
    max_tokens: int | None = None
    request_tag: str = ""

    def __post_init__(self) -> None:
        # Tuple-ify defensively so requests are hashable/immutable snapshots.
        if not isinstance(self.messages, tuple):
            object.__setattr__(self, "messages", tuple(self.messages))

    def final_user_message(self) -> Message | None:
        for msg in reversed(self.messages):
            if msg.role == ROLE_USER:
                return msg
        return None


# ChatResponse's fields in order, each with the JSON types its row item may
# hold: a logged turn is the row [content, prompt_tokens, cached_tokens,
# completion_tokens, finish_reason].
_ROW_FIELDS = (
    ("content", (str,)),
    ("prompt_tokens", (int, type(None))),
    ("cached_tokens", (int, type(None))),
    ("completion_tokens", (int, type(None))),
    ("finish_reason", (str,)),
)
FINISH_REASONS = ("stop", "length", "other")


@dataclass(frozen=True)
class ChatResponse:
    """A chat-completion response with backend-reported usage; a count the
    backend did not report is None. cached_tokens is the part of
    prompt_tokens the backend served from its prefix cache.

    A response holds only what its row can carry back: each field of its
    type (a count is an int of at least 0 or None, never a bool), no more
    cached than prompt tokens and a finish reason in FINISH_REASONS. Anything
    else is a TypeError or ValueError when it is built, so every response a
    run logs can be read back."""

    content: str
    prompt_tokens: int | None = None
    cached_tokens: int | None = None
    completion_tokens: int | None = None
    finish_reason: str = "stop"

    def __post_init__(self) -> None:
        for (name, kinds), value in zip(_ROW_FIELDS, self.to_row()):
            if type(value) not in kinds:  # a JSON true is not a token count
                expected = " or ".join(kind.__name__ for kind in kinds)
                raise TypeError(f"response {name} is a {type(value).__name__}, not {expected}")
            if type(value) is int and value < 0:
                raise ValueError(f"response {name} is negative: {value}")
        if None not in (self.prompt_tokens, self.cached_tokens) and (
            self.cached_tokens > self.prompt_tokens
        ):
            raise ValueError(
                f"response cached_tokens {self.cached_tokens} exceeds "
                f"prompt_tokens {self.prompt_tokens}"
            )
        if self.finish_reason not in FINISH_REASONS:
            raise ValueError(f"response finish_reason is {self.finish_reason!r}")

    def to_row(self) -> tuple[Any, ...]:
        """The fields in _ROW_FIELDS order; json writes a tuple as an array."""
        return (
            self.content, self.prompt_tokens, self.cached_tokens,
            self.completion_tokens, self.finish_reason,
        )

    @classmethod
    def from_row(cls, row: Any) -> "ChatResponse":
        """The response to_row wrote, or its JSON array read back: exactly
        its items, which the response checks as it is built. Anything else is
        a ValueError or TypeError, never a default."""
        if not isinstance(row, (list, tuple)):
            raise TypeError(f"response is a {type(row).__name__}, not an array")
        if len(row) != len(_ROW_FIELDS):
            raise ValueError(f"response has {len(row)} items, not {len(_ROW_FIELDS)}")
        return cls(*row)
