"""Chat-completion record types shared by the strategy layer and the gateway.

These are plain value objects: a request is a list of role/content messages
plus an optional completion-length cap, a response is the assistant text plus
usage accounting. A request names neither a model nor a temperature: the
gateway sends every request greedily to its backend's model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

ROLE_SYSTEM = "system"
ROLE_USER = "user"
ROLE_ASSISTANT = "assistant"

_VALID_ROLES = (ROLE_SYSTEM, ROLE_USER, ROLE_ASSISTANT)


@dataclass(frozen=True)
class Message:
    """One conversation message. Immutable so histories can be shared safely."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in _VALID_ROLES:
            raise ValueError(f"unknown message role: {self.role!r}")

    @cached_property
    def whitespace_tokens(self) -> int:
        """The number of whitespace-separated tokens in content, counted on
        first use and kept on this object. It is not a field, so ==, hash
        and to_dict never see it."""
        return len(self.content.split())

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


# The keys ChatResponse.to_dict writes, each with the types it writes.
_RESPONSE_FIELDS = {
    "content": (str,),
    "prompt_tokens": (int, type(None)),
    "completion_tokens": (int, type(None)),
    "finish_reason": (str,),
}


@dataclass(frozen=True)
class ChatResponse:
    """A chat-completion response with backend-reported usage; a count the
    backend did not report is None."""

    content: str
    prompt_tokens: int | None = 0
    completion_tokens: int | None = 0
    finish_reason: str = "stop"  # stop | length | other

    def to_dict(self) -> dict[str, Any]:
        return {
            "content": self.content,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "finish_reason": self.finish_reason,
        }

    @classmethod
    def from_dict(cls, d: Any) -> "ChatResponse":
        """The response to_dict wrote: exactly its keys, each of its type, and
        no negative count. Anything else is a ValueError or TypeError, never a
        default."""
        if not isinstance(d, dict):
            raise TypeError(f"response is a {type(d).__name__}, not an object")
        if d.keys() != _RESPONSE_FIELDS.keys():
            raise ValueError(f"response keys are {sorted(d)}, not {sorted(_RESPONSE_FIELDS)}")
        for key, kinds in _RESPONSE_FIELDS.items():
            if type(d[key]) not in kinds:  # a JSON true is not a token count
                expected = " or ".join(kind.__name__ for kind in kinds)
                raise TypeError(f"response {key} is a {type(d[key]).__name__}, not {expected}")
            if type(d[key]) is int and d[key] < 0:
                raise ValueError(f"response {key} is negative: {d[key]}")
        return cls(**d)
