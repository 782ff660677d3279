"""In-process stand-in for an OpenAI-compatible chat-completions endpoint.

It plugs into ``gateway.complete`` through its ``http_post`` and ``sleeper``
parameters, so the real request path runs (payload building, the retry
loop, response parsing) without a socket or a thread. Faults are a pure
function of the seed, the request body and the attempt number, so the same
attempts fail on every commit; a request is never refused more often than
the backend's retry budget allows, so every cell still completes.
"""

from __future__ import annotations

import hashlib
import json as jsonlib
import re
from collections import Counter

import requests

_FENCED_RE = re.compile(r"```\n(.*?)\n```", re.DOTALL)
FAULT_STATUSES = (429, 503)


def _response(status: int, body: dict) -> requests.Response:
    resp = requests.Response()
    resp.status_code = status
    resp._content = jsonlib.dumps(body).encode("utf-8")
    resp.encoding = "utf-8"
    resp.headers["Content-Type"] = "application/json"
    return resp


def _tokens(text: str) -> int:
    return len(text.split())


class FakeOpenAIServer:
    """Echoes the last fenced block of the final user message.

    Usage reports whitespace tokens, with ``cached_tokens`` set to the tokens
    of the longest message prefix this server has already seen as a
    request-plus-reply, the way a prefix-caching server would.
    """

    def __init__(self, seed: int, fault_share: float, max_retries: int):
        self.seed = seed
        self.fault_share = fault_share
        self.max_retries = max_retries
        self.failed_attempts: dict[bytes, int] = {}  # body digest -> consecutive faults
        self.prefix_cache: set[bytes] = set()
        self.attempts = 0
        self.statuses: Counter = Counter()
        self.request_bytes = 0
        self.backoff_s = 0.0

    def sleep(self, seconds: float) -> None:
        """Virtual sleeper: adds up the backoff and returns at once."""
        self.backoff_s += seconds

    def _fault(self, digest: bytes, attempt: int) -> int | None:
        if attempt >= self.max_retries:
            return None
        draw = hashlib.blake2b(
            digest + attempt.to_bytes(4, "big"), key=str(self.seed).encode(), digest_size=8
        ).digest()
        if int.from_bytes(draw, "big") / 2**64 >= self.fault_share:
            return None
        return FAULT_STATUSES[draw[0] & 1]

    def post(self, url: str, json: dict, headers: dict, timeout: float) -> requests.Response:
        # Encoded exactly as requests encodes a json= body.
        body = jsonlib.dumps(json, allow_nan=False).encode("utf-8")
        self.attempts += 1
        self.request_bytes += len(body)
        digest = hashlib.blake2b(body, digest_size=16).digest()
        attempt = self.failed_attempts.get(digest, 0)
        status = self._fault(digest, attempt)
        if status is not None:
            self.failed_attempts[digest] = attempt + 1
            self.statuses[status] += 1
            return _response(status, {"error": {"message": "injected fault", "code": status}})
        self.failed_attempts.pop(digest, None)
        self.statuses[200] += 1

        messages = jsonlib.loads(body)["messages"]
        final_user = next(m["content"] for m in reversed(messages) if m["role"] == "user")
        fenced = _FENCED_RE.findall(final_user)
        reply = fenced[-1] if fenced else final_user

        prompt_tokens = 0
        cached = 0
        state = b""
        for m in messages:
            state = _extend(state, m["role"], m["content"])
            prompt_tokens += _tokens(m["content"])
            if state in self.prefix_cache:
                cached = prompt_tokens
            self.prefix_cache.add(state)
        self.prefix_cache.add(_extend(state, "assistant", reply))

        completion_tokens = _tokens(reply)
        return _response(
            200,
            {
                "id": "chatcmpl-" + digest.hex()[:12],
                "object": "chat.completion",
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": reply},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {
                    "prompt_tokens": prompt_tokens,
                    "completion_tokens": completion_tokens,
                    "total_tokens": prompt_tokens + completion_tokens,
                    "prompt_tokens_details": {"cached_tokens": cached},
                },
            },
        )


def _extend(state: bytes, role: str, content: str) -> bytes:
    return hashlib.blake2b(state + role.encode() + b"\0" + content.encode(), digest_size=16).digest()
