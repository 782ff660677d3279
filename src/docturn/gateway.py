"""Backend-agnostic chat-completion client.

One real backend (OpenAI-compatible chat completions over HTTP, with retries,
exponential backoff and a token-bucket rate limiter) plus three
deterministic mock backends used throughout the test suite:

  mock_identity     echoes the source payload of the final user message.
  mock_dictionary   maps the payload through a lookup table.
  mock_tail_dropper identity, except that single-turn-shaped requests (the
                    final user message's payload holds two or more
                    paragraphs, whatever exemplars or history precede it)
                    lose the trailing fraction of their whitespace tokens --
                    a controllable stand-in for omission errors in long
                    documents.

An openai_compatible reply's cached_tokens is its
usage.prompt_tokens_details.cached_tokens, None when the reply omits it, and
never more than its prompt_tokens. Mock usage counts by the harness's rule,
chat.count_tokens: prompt_tokens is the count of the whole request and
completion_tokens that of the reply, so a mock's prompt_tokens equals the
uncached ledger's prefill of the request. A mock has no prefix cache, so its
cached_tokens is None. Each message's count is kept on the Message
(Message.tokens), and a session builds every request from the same prompt
and reply objects, so a multi-turn session counts each distinct message
once, not once per request carrying it.

Backend state belongs to a Gateway, which a run opens once; module-level
complete opens one per call, so calls share nothing. Requests are greedy by
construction: the openai_compatible body is built here alone, always with
temperature 0 and the backend's model, and a request carries neither.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import requests

from .chat import FINISH_REASONS, ChatRequest, ChatResponse, count_tokens
from .corpus import split_into_segments
from .errors import ConfigError, ContextOverflowError, GatewayError, TransportError
from .prompts import extract_fenced_payload

BACKEND_KINDS = ("openai_compatible", "mock_identity", "mock_dictionary", "mock_tail_dropper")

BACKOFF_BASE_S = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 60.0


@dataclass(frozen=True)
class BackendConfig:
    """Connection and behavior parameters for one backend."""

    kind: str
    name: str = ""
    model: str = "default"
    base_url: str = ""
    api_key_env_var: str = "OPENAI_API_KEY"
    max_retries: int = 3
    requests_per_minute: int | None = None
    timeout_s: float = 120.0
    dictionary_path: str | None = None
    drop_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(f"kind: unknown backend kind {self.kind!r}")
        if not (0.0 <= self.drop_fraction < 1.0):
            raise ConfigError(f"drop_fraction: must be in [0, 1), got {self.drop_fraction}")
        if self.max_retries < 0:
            raise ConfigError("max_retries: must be >= 0")
        if self.requests_per_minute is not None and self.requests_per_minute < 1:
            raise ConfigError("requests_per_minute: must be >= 1")
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s: must be > 0")
        if self.kind == "mock_dictionary" and self.dictionary_path is None:
            raise ConfigError("dictionary_path: required by mock_dictionary")
        if not self.name:
            object.__setattr__(self, "name", self.kind)


def _source_payload(message_text: str) -> str:
    """Source text carried by a user message: the last fenced block when the
    message follows the template convention, otherwise the message itself."""
    payload = extract_fenced_payload(message_text)
    return payload if payload is not None else message_text


def _identity_reply(req: ChatRequest) -> str:
    final = req.final_user_message()
    if final is None:
        raise GatewayError("request contains no user message")
    return _source_payload(final.content)


_TOKEN_RUN_RE = re.compile(r"\S+")


def drop_trailing_tokens(text: str, drop_fraction: float) -> str:
    """Cut the text after its first (1 - drop_fraction) whitespace tokens.

    floor(n * drop_fraction) tokens are removed; everything before the cut,
    including paragraph breaks, is preserved verbatim.
    """
    spans = [m.span() for m in _TOKEN_RUN_RE.finditer(text)]
    if not spans:
        return text
    dropped = int(math.floor(len(spans) * drop_fraction))
    if dropped <= 0:
        return text
    kept = len(spans) - dropped
    if kept <= 0:
        return ""
    return text[: spans[kept - 1][1]]


def _read_dictionary(path: str, key: str, files: dict[str, bytes]) -> dict[str, str]:
    """A mock_dictionary file: a JSON object mapping source text to its
    translation, a string, parsed from the bytes files holds for path, which
    are read and added if it holds none. key names the setting in
    ConfigError."""
    try:
        if path not in files:
            files[path] = Path(path).read_bytes()
        data = json.loads(files[path].decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot read {path} as JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{key}: {path} must hold a JSON object")
    for source, target in data.items():
        if not isinstance(target, str):
            raise ConfigError(
                f"{key}: {path} maps {source!r} to {json.dumps(target)}, not a string"
            )
    return data


def _dictionary_reply(req: ChatRequest, table: dict[str, str]) -> str:
    payload = _identity_reply(req)
    if payload in table:
        return table[payload]
    # Fall back to token-wise substitution so partial dictionaries still
    # produce useful non-identity translations.
    return re.sub(_TOKEN_RUN_RE, lambda m: table.get(m.group(0), m.group(0)), payload)


def _tail_dropper_reply(req: ChatRequest, cfg: BackendConfig) -> str:
    payload = _identity_reply(req)
    # Single-turn shaped: the final user message carries two or more
    # paragraphs. Exemplar pairs look just like history, so the number of
    # user messages cannot tell a single-turn request from a multi-turn one.
    if cfg.drop_fraction > 0.0 and len(split_into_segments(payload)) >= 2:
        return drop_trailing_tokens(payload, cfg.drop_fraction)
    return payload


class _RateLimiter:
    """Token bucket shared by all callers of one backend."""

    def __init__(self, requests_per_minute: int):
        self.capacity = float(requests_per_minute)
        self.tokens = float(requests_per_minute)
        self.rate_per_s = requests_per_minute / 60.0
        self.updated = time.monotonic()
        self.lock = threading.Lock()

    def acquire(self, sleeper: Callable[[float], None]) -> None:
        while True:
            with self.lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate_per_s)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate_per_s
            sleeper(wait)


_CONTEXT_OVERFLOW_HINTS = ("context length", "context_length", "maximum context", "too many tokens")


def _openai_complete(req: ChatRequest, cfg: BackendConfig, gateway: Gateway) -> ChatResponse:
    """POST /v1/chat/completions with bounded exponential backoff + full jitter."""
    api_key = gateway.api_keys[cfg.name]
    post, sleeper, rng = gateway.http_post, gateway.sleeper, gateway.rng
    url = cfg.base_url.rstrip("/") + "/v1/chat/completions"
    payload = {
        "model": cfg.model,
        "messages": [m.to_dict() for m in req.messages],
        "temperature": 0.0,
    }
    if req.max_tokens is not None:
        payload["max_tokens"] = req.max_tokens
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}

    limiter = gateway.buckets.get(cfg.name)
    attempt = 0
    while True:
        if limiter is not None:
            limiter.acquire(sleeper)
        cause = None
        try:
            resp = post(url, json=payload, headers=headers, timeout=cfg.timeout_s)
        except requests.RequestException as exc:
            cause, failure = exc, f"transport failure after {attempt} retries: {exc}"
        else:
            if resp.status_code != 429 and resp.status_code < 500:
                break
            failure = f"HTTP {resp.status_code} after {attempt} retries for {req.request_tag}"
        if attempt >= cfg.max_retries:
            raise TransportError(failure) from cause
        sleeper(_backoff_delay(attempt, rng))
        attempt += 1

    if 400 <= resp.status_code < 500:
        body = resp.text[:500]
        if resp.status_code == 400 and any(h in body.lower() for h in _CONTEXT_OVERFLOW_HINTS):
            raise ContextOverflowError(f"context overflow for {req.request_tag}: {body}")
        raise GatewayError(f"HTTP {resp.status_code} for {req.request_tag}: {body}")

    try:
        data = resp.json()
        choice = data["choices"][0]
        usage = _reported_object(data, "usage")
        details = _reported_object(usage, "prompt_tokens_details")
        finish = choice.get("finish_reason")
        return ChatResponse(
            content=choice["message"]["content"] or "",
            prompt_tokens=usage.get("prompt_tokens"),
            cached_tokens=details.get("cached_tokens"),
            completion_tokens=usage.get("completion_tokens"),
            finish_reason=finish if finish in FINISH_REASONS else "other",
        )
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise GatewayError(
            f"malformed response for {req.request_tag}: {type(exc).__name__}: {exc}"
        ) from exc


def _reported_object(parent: dict, key: str) -> dict:
    """An object of a reply, empty when the reply omits it or sends null.
    Anything else is a malformed reply: a 0 or [] is not an absent object."""
    value = parent.get(key)
    if value is None:
        return {}
    if type(value) is not dict:
        raise TypeError(f"{key} is a {type(value).__name__}, not an object")
    return value


def _backoff_delay(attempt: int, rng) -> float:
    ceiling = min(BACKOFF_MAX_S, BACKOFF_BASE_S * (BACKOFF_FACTOR**attempt))
    return rng.uniform(0.0, ceiling)  # full jitter


class Gateway:
    """The backend state of one run: each openai_compatible API key, each
    mock_dictionary table, read once, and one token bucket per rate-limited
    openai_compatible backend, shared by every caller. files keeps the bytes
    each dictionary table was parsed from, by path, for the config hash.
    http_post, sleeper and rng replace the transport, the sleep and the
    jitter source."""

    def __init__(
        self,
        backends: Iterable[BackendConfig],
        *,
        http_post: Callable[..., requests.Response] | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        self.http_post = http_post or requests.post
        self.sleeper = sleeper
        self.rng = rng or random
        self.api_keys: dict[str, str] = {}
        self.dictionaries: dict[str, dict[str, str]] = {}
        self.files: dict[str, bytes] = {}
        self.buckets: dict[str, _RateLimiter] = {}
        for i, cfg in enumerate(backends):
            if cfg.kind == "openai_compatible":
                self.api_keys[cfg.name] = os.environ.get(cfg.api_key_env_var, "")
                if not self.api_keys[cfg.name]:
                    raise ConfigError(
                        f"backends[{i}].api_key_env_var: backend '{cfg.name}' needs an "
                        f"API key in ${cfg.api_key_env_var}"
                    )
                if cfg.requests_per_minute is not None:
                    self.buckets[cfg.name] = _RateLimiter(cfg.requests_per_minute)
            elif cfg.kind == "mock_dictionary":
                self.dictionaries[cfg.name] = _read_dictionary(
                    cfg.dictionary_path, f"backends[{i}].dictionary_path", self.files
                )

    def complete(self, req: ChatRequest, cfg: BackendConfig) -> ChatResponse:
        """Run one chat completion against one of the gateway's backends.

        Mock responses report usage as count_tokens counts, the ones the cost
        ledger charges, and no cached_tokens.
        """
        if cfg.kind == "openai_compatible":
            return _openai_complete(req, cfg, self)

        if cfg.kind == "mock_identity":
            content = _identity_reply(req)
        elif cfg.kind == "mock_dictionary":
            content = _dictionary_reply(req, self.dictionaries[cfg.name])
        elif cfg.kind == "mock_tail_dropper":
            content = _tail_dropper_reply(req, cfg)
        else:  # pragma: no cover - BackendConfig already validates
            raise GatewayError(f"unknown backend kind {cfg.kind!r}")

        prompt_tokens = sum(m.tokens for m in req.messages)
        return ChatResponse(
            content=content,
            prompt_tokens=prompt_tokens,
            completion_tokens=count_tokens(content),
            finish_reason="stop",
        )


def complete(
    req: ChatRequest,
    cfg: BackendConfig,
    *,
    http_post: Callable[..., requests.Response] | None = None,
    sleeper: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
) -> ChatResponse:
    """Run one chat completion through a gateway opened for it alone, so
    calls share no state: neither a dictionary table nor a token bucket."""
    return Gateway([cfg], http_post=http_post, sleeper=sleeper, rng=rng).complete(req, cfg)
