"""Backend-agnostic chat-completion client.

One real backend (OpenAI-compatible chat completions over HTTP, with retries,
exponential backoff and a shared token-bucket rate limiter) plus three
deterministic mock backends used throughout the test suite:

  mock_identity     echoes the source payload of the final user message.
  mock_dictionary   maps the payload through a lookup table.
  mock_tail_dropper identity, except that single-turn-shaped requests (one
                    user message whose payload holds two or more paragraphs)
                    lose the trailing fraction of their whitespace tokens --
                    a controllable stand-in for omission errors in long
                    documents.

Mock backends are pure functions of the request. The harness's greedy
contract (temperature 0) is asserted here at the boundary for every backend.
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
from typing import Callable

import requests

from .chat import ChatRequest, ChatResponse
from .errors import ContextOverflowError, GatewayError, TransportError
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
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        if not (0.0 <= self.drop_fraction < 1.0):
            raise ValueError(f"drop_fraction must be in [0, 1), got {self.drop_fraction}")
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    def require_api_key(self) -> str:
        key = os.environ.get(self.api_key_env_var, "")
        if not key:
            raise GatewayError(
                f"backend '{self.name}' needs an API key in ${self.api_key_env_var}"
            )
        return key


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


def _is_single_turn_shaped(req: ChatRequest) -> bool:
    user_messages = [m for m in req.messages if m.role == "user"]
    if len(user_messages) != 1:
        return False
    payload = _source_payload(user_messages[0].content)
    paragraphs = [p for p in re.split(r"\n\s*\n", payload) if p.strip()]
    return len(paragraphs) >= 2


class _MockDictionary:
    """Cached dictionary files for mock_dictionary backends."""

    _lock = threading.Lock()
    _cache: dict[str, dict[str, str]] = {}

    @classmethod
    def load(cls, path: str) -> dict[str, str]:
        with cls._lock:
            if path not in cls._cache:
                data = json.loads(Path(path).read_text("utf-8"))
                if not isinstance(data, dict):
                    raise GatewayError(f"dictionary file {path} must hold a JSON object")
                cls._cache[path] = {str(k): str(v) for k, v in data.items()}
            return cls._cache[path]


def _dictionary_reply(req: ChatRequest, cfg: BackendConfig) -> str:
    if cfg.dictionary_path is None:
        raise GatewayError(f"backend '{cfg.name}' has no dictionary_path configured")
    table = _MockDictionary.load(cfg.dictionary_path)
    payload = _identity_reply(req)
    if payload in table:
        return table[payload]
    # Fall back to token-wise substitution so partial dictionaries still
    # produce useful non-identity translations.
    return re.sub(_TOKEN_RUN_RE, lambda m: table.get(m.group(0), m.group(0)), payload)


def _tail_dropper_reply(req: ChatRequest, cfg: BackendConfig) -> str:
    payload = _identity_reply(req)
    if cfg.drop_fraction > 0.0 and _is_single_turn_shaped(req):
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


_limiters: dict[str, _RateLimiter] = {}
_limiters_lock = threading.Lock()


def _limiter_for(cfg: BackendConfig) -> _RateLimiter | None:
    if cfg.requests_per_minute is None:
        return None
    with _limiters_lock:
        if cfg.name not in _limiters:
            _limiters[cfg.name] = _RateLimiter(cfg.requests_per_minute)
        return _limiters[cfg.name]


_CONTEXT_OVERFLOW_HINTS = ("context length", "context_length", "maximum context", "too many tokens")


def _openai_complete(
    req: ChatRequest,
    cfg: BackendConfig,
    *,
    http_post: Callable[..., requests.Response] | None = None,
    sleeper: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
) -> ChatResponse:
    """POST /v1/chat/completions with bounded exponential backoff + full jitter."""
    api_key = cfg.require_api_key()
    post = http_post or requests.post
    rng = rng or random
    url = cfg.base_url.rstrip("/") + "/v1/chat/completions"
    payload = req.to_dict()
    payload["model"] = cfg.model
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}

    limiter = _limiter_for(cfg)
    attempt = 0
    while True:
        if limiter is not None:
            limiter.acquire(sleeper)
        started = time.monotonic()
        try:
            resp = post(url, json=payload, headers=headers, timeout=cfg.timeout_s)
        except requests.RequestException as exc:
            if attempt >= cfg.max_retries:
                raise TransportError(f"transport failure after {attempt} retries: {exc}") from exc
            sleeper(_backoff_delay(attempt, rng))
            attempt += 1
            continue
        latency_ms = (time.monotonic() - started) * 1000.0

        if resp.status_code == 429 or resp.status_code >= 500:
            if attempt >= cfg.max_retries:
                raise TransportError(
                    f"HTTP {resp.status_code} after {attempt} retries for {req.request_tag}"
                )
            sleeper(_backoff_delay(attempt, rng))
            attempt += 1
            continue
        if 400 <= resp.status_code < 500:
            body = resp.text[:500]
            if resp.status_code == 400 and any(h in body.lower() for h in _CONTEXT_OVERFLOW_HINTS):
                raise ContextOverflowError(f"context overflow for {req.request_tag}: {body}")
            raise GatewayError(f"HTTP {resp.status_code} for {req.request_tag}: {body}")

        try:
            data = resp.json()
            choice = data["choices"][0]
            usage = data.get("usage") or {}
            content = choice["message"]["content"] or ""
            if not isinstance(content, str):
                raise TypeError(f"message content is a {type(content).__name__}")
            finish = choice.get("finish_reason", "stop")
            prompt_tokens = int(usage.get("prompt_tokens", 0))
            completion_tokens = int(usage.get("completion_tokens", 0))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise GatewayError(
                f"malformed response for {req.request_tag}: {type(exc).__name__}: {exc}"
            ) from exc
        if finish not in ("stop", "length"):
            finish = "other"
        return ChatResponse(
            content=content,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            finish_reason=finish,
            latency_ms=latency_ms,
        )


def _backoff_delay(attempt: int, rng) -> float:
    ceiling = min(BACKOFF_MAX_S, BACKOFF_BASE_S * (BACKOFF_FACTOR**attempt))
    return rng.uniform(0.0, ceiling)  # full jitter


def complete(
    req: ChatRequest,
    cfg: BackendConfig,
    *,
    http_post: Callable[..., requests.Response] | None = None,
    sleeper: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
) -> ChatResponse:
    """Run one chat completion against the configured backend.

    Mock responses report usage as whitespace token counts so downstream
    accounting has something plausible to compare against.
    """
    if req.temperature != 0.0:
        raise GatewayError(
            f"greedy contract violated: temperature={req.temperature} for {req.request_tag}"
        )

    if cfg.kind == "openai_compatible":
        return _openai_complete(req, cfg, http_post=http_post, sleeper=sleeper, rng=rng)

    if cfg.kind == "mock_identity":
        content = _identity_reply(req)
    elif cfg.kind == "mock_dictionary":
        content = _dictionary_reply(req, cfg)
    elif cfg.kind == "mock_tail_dropper":
        content = _tail_dropper_reply(req, cfg)
    else:  # pragma: no cover - BackendConfig already validates
        raise GatewayError(f"unknown backend kind {cfg.kind!r}")

    prompt_tokens = sum(len(m.content.split()) for m in req.messages)
    return ChatResponse(
        content=content,
        prompt_tokens=prompt_tokens,
        completion_tokens=len(content.split()),
        finish_reason="stop",
        latency_ms=0.0,
    )
