"""Backend dispatch, mock determinism, retry/backoff, greedy contract."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from docturn.chat import ChatRequest, Message, user
from docturn.errors import ContextOverflowError, GatewayError, TransportError
from docturn.gateway import BackendConfig, complete, drop_trailing_tokens


def request_of(*messages: Message, temperature: float = 0.0) -> ChatRequest:
    return ChatRequest(model_id="m", messages=tuple(messages), temperature=temperature,
                       request_tag="t:0")


def fenced(text: str, instruction: str = "Translate this.") -> str:
    return f"{instruction}\n\n```\n{text}\n```"


class TestMockIdentity:
    def test_bare_message_echoed(self):
        response = complete(request_of(user("Bonjour")), BackendConfig(kind="mock_identity"))
        assert response.content == "Bonjour"

    def test_fenced_payload_extracted(self):
        response = complete(
            request_of(user(fenced("Guten Tag."))), BackendConfig(kind="mock_identity")
        )
        assert response.content == "Guten Tag."

    def test_request_without_user_message_rejected(self):
        request = ChatRequest(model_id="m", messages=(Message("system", "x"),))
        with pytest.raises(GatewayError):
            complete(request, BackendConfig(kind="mock_identity"))


class TestMockDictionary:
    @pytest.fixture
    def dictionary_backend(self, tmp_path):
        path = tmp_path / "dict.json"
        path.write_text(json.dumps({"chat": "cat", "chien": "dog"}), "utf-8")
        return BackendConfig(kind="mock_dictionary", dictionary_path=str(path))

    def test_whole_payload_lookup(self, dictionary_backend):
        response = complete(request_of(user(fenced("chat"))), dictionary_backend)
        assert response.content == "cat"

    def test_tokenwise_fallback(self, dictionary_backend):
        response = complete(request_of(user(fenced("le chat et chien"))), dictionary_backend)
        assert response.content == "le cat et dog"

    def test_missing_dictionary_path_rejected(self):
        backend = BackendConfig(kind="mock_dictionary")
        with pytest.raises(GatewayError, match="dictionary_path"):
            complete(request_of(user("x")), backend)


class TestDropTrailingTokens:
    def test_hundred_tokens_drop_fifth(self):
        # Oracle: whitespace token counts before/after.
        text = " ".join(f"t{i}" for i in range(100))
        out = drop_trailing_tokens(text, 0.2)
        assert len(out.split()) == 80

    def test_zero_fraction_is_identity(self):
        text = "a b c"
        assert drop_trailing_tokens(text, 0.0) == text

    def test_prefix_preserved_verbatim(self):
        text = "one two\n\nthree four five"
        out = drop_trailing_tokens(text, 0.2)
        assert text.startswith(out)
        assert len(out.split()) == 4


class TestMockTailDropper:
    def backend(self, fraction=0.2):
        return BackendConfig(kind="mock_tail_dropper", drop_fraction=fraction)

    def test_single_turn_shaped_request_dropped(self):
        document = "\n\n".join(" ".join(f"w{i}_{j}" for j in range(10)) for i in range(10))
        response = complete(request_of(user(fenced(document))), self.backend())
        assert len(response.content.split()) == 80

    def test_per_segment_request_is_identity(self):
        segment = " ".join(f"w{j}" for j in range(10))
        response = complete(request_of(user(fenced(segment))), self.backend())
        assert response.content == segment

    def test_multi_turn_request_is_identity(self):
        document = "one two three\n\nfour five six"
        request = request_of(
            user(fenced("one two three")),
            Message("assistant", "eins zwei drei"),
            user(fenced(document)),
        )
        response = complete(request, self.backend())
        assert response.content == document

    def test_zero_fraction_identity_everywhere(self):
        document = "a b\n\nc d"
        response = complete(request_of(user(fenced(document))), self.backend(0.0))
        assert response.content == document

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="mock_tail_dropper", drop_fraction=1.0)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["mock_identity", "mock_tail_dropper"]),
    seed=st.integers(min_value=0, max_value=9999),
)
def test_mocks_are_pure_functions_of_the_request(kind, seed):
    rng = random.Random(seed)
    text = "\n\n".join(
        " ".join(f"w{rng.randint(0, 30)}" for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 4))
    )
    request = request_of(user(fenced(text)))
    backend = BackendConfig(kind=kind, drop_fraction=0.3)
    first = complete(request, backend)
    second = complete(request, backend)
    assert first.content == second.content
    assert first.prompt_tokens == second.prompt_tokens


class FakeHttpResponse:
    def __init__(self, status_code: int, payload: dict | None = None, text: str = ""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text or json.dumps(self._payload)

    def json(self):
        return self._payload


class NonJsonHttpResponse:
    status_code = 200

    def __init__(self, text: str):
        self.text = text

    def json(self):
        return json.loads(self.text)  # raises ValueError, as requests does


def ok_payload(content="Hallo.", finish="stop"):
    return {
        "choices": [{"message": {"content": content}, "finish_reason": finish}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }


class TestOpenAiCompatible:
    def backend(self, **kw):
        defaults = dict(
            kind="openai_compatible",
            base_url="http://fake",
            api_key_env_var="DOCTURN_TEST_KEY",
            max_retries=3,
        )
        defaults.update(kw)
        return BackendConfig(**defaults)

    @pytest.fixture(autouse=True)
    def api_key(self, monkeypatch):
        monkeypatch.setenv("DOCTURN_TEST_KEY", "sk-test")

    def test_429_then_200_retries_once(self):
        calls = []
        responses = [FakeHttpResponse(429, text="slow down"), FakeHttpResponse(200, ok_payload())]

        def post(url, json=None, headers=None, timeout=None):
            calls.append(url)
            return responses[len(calls) - 1]

        sleeps = []
        response = complete(
            request_of(user("hi")), self.backend(),
            http_post=post, sleeper=sleeps.append, rng=random.Random(0),
        )
        assert response.content == "Hallo."
        assert len(calls) == 2  # exactly one retry, one recorded completion
        assert len(sleeps) == 1

    def test_429_exhausts_retries(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeHttpResponse(429, text="nope")

        with pytest.raises(TransportError):
            complete(request_of(user("hi")), self.backend(max_retries=2),
                     http_post=post, sleeper=lambda s: None, rng=random.Random(0))

    def test_4xx_not_retried(self):
        calls = []

        def post(url, json=None, headers=None, timeout=None):
            calls.append(1)
            return FakeHttpResponse(403, text="forbidden")

        with pytest.raises(GatewayError, match="403"):
            complete(request_of(user("hi")), self.backend(),
                     http_post=post, sleeper=lambda s: None)
        assert len(calls) == 1

    def test_400_context_overflow_mapped(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeHttpResponse(400, text="maximum context length exceeded")

        with pytest.raises(ContextOverflowError):
            complete(request_of(user("hi")), self.backend(),
                     http_post=post, sleeper=lambda s: None)

    def test_missing_api_key_fails_before_request(self, monkeypatch):
        monkeypatch.delenv("DOCTURN_TEST_KEY", raising=False)
        calls = []

        def post(url, json=None, headers=None, timeout=None):
            calls.append(1)
            return FakeHttpResponse(200, ok_payload())

        with pytest.raises(GatewayError, match="API key"):
            complete(request_of(user("hi")), self.backend(), http_post=post)
        assert calls == []

    def test_length_finish_reason_surfaced(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeHttpResponse(200, ok_payload(finish="length"))

        response = complete(request_of(user("hi")), self.backend(), http_post=post)
        assert response.finish_reason == "length"

    def test_model_taken_from_backend_config(self):
        seen = {}

        def post(url, json=None, headers=None, timeout=None):
            seen.update(json)
            return FakeHttpResponse(200, ok_payload())

        complete(request_of(user("hi")), self.backend(model="real-model"), http_post=post)
        assert seen["model"] == "real-model"
        assert seen["temperature"] == 0.0

    @pytest.mark.parametrize(
        "reply",
        [
            NonJsonHttpResponse("<html>bad gateway</html>"),
            FakeHttpResponse(200, {"usage": {"prompt_tokens": 1}}),
            FakeHttpResponse(200, {"choices": []}),
            FakeHttpResponse(200, {"choices": [{"finish_reason": "stop"}]}),
            FakeHttpResponse(200, {"choices": ["text"]}),
            FakeHttpResponse(200, {"choices": [{"message": {"content": ["a"]}}]}),
            FakeHttpResponse(200, ok_payload() | {"usage": {"prompt_tokens": "many"}}),
        ],
        ids=["non_json", "no_choices", "empty_choices", "no_message", "choice_not_object",
             "content_not_text", "usage_not_integer"],
    )
    def test_malformed_reply_is_gateway_error_with_tag(self, reply):
        calls = []

        def post(url, json=None, headers=None, timeout=None):
            calls.append(1)
            return reply

        request = ChatRequest(model_id="m", messages=(user("hi"),), request_tag="doc-7:turn_2")
        with pytest.raises(GatewayError, match="malformed response for doc-7:turn_2"):
            complete(request, self.backend(), http_post=post, sleeper=lambda s: None)
        assert len(calls) == 1  # not retried: the backend answered

    def test_null_content_and_usage_accepted(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeHttpResponse(200, {"choices": [{"message": {"content": None}}],
                                          "usage": None})

        response = complete(request_of(user("hi")), self.backend(), http_post=post)
        assert (response.content, response.prompt_tokens, response.finish_reason) == ("", 0, "stop")


def test_greedy_contract_enforced_at_boundary():
    request = request_of(user("hi"), temperature=0.7)
    with pytest.raises(GatewayError, match="greedy"):
        complete(request, BackendConfig(kind="mock_identity"))


class TestRateLimiter:
    def test_token_bucket_blocks_after_burst(self):
        from docturn.gateway import _RateLimiter

        limiter = _RateLimiter(requests_per_minute=60)
        waits = []
        for _ in range(60):
            limiter.acquire(waits.append)
        assert waits == []  # the full bucket covers the burst
        limiter.tokens = 0.0

        def refill_on_sleep(wait: float) -> None:
            waits.append(wait)
            limiter.tokens = 1.0  # simulate time passing

        limiter.acquire(refill_on_sleep)
        assert len(waits) == 1
        assert waits[0] == pytest.approx(1.0, abs=0.05)  # ~1s per token at 60 rpm

    def test_limiter_shared_per_backend_name(self):
        from docturn.gateway import _limiter_for

        first = _limiter_for(BackendConfig(kind="mock_identity", name="shared-bucket",
                                           requests_per_minute=10))
        second = _limiter_for(BackendConfig(kind="mock_identity", name="shared-bucket",
                                            requests_per_minute=10))
        assert first is second
        assert _limiter_for(BackendConfig(kind="mock_identity")) is None
