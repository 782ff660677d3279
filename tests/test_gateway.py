"""Backend dispatch, mock determinism, retry/backoff, the wire body."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle
import random
import re
import threading

import pytest
import requests
from hypothesis import given, settings, strategies as st

from docturn import chat, gateway
from docturn.chat import ChatRequest, ChatResponse, Message, user
from docturn.errors import ConfigError, ContextOverflowError, GatewayError, TransportError
from docturn.gateway import BackendConfig, Gateway, complete, drop_trailing_tokens
from docturn.prompts import extract_fenced_payload
from docturn.runner.config import plan_from_dict
from docturn.runner.executor import execute
from docturn.strategy import Mode, StrategyConfig, ingest_response, init_session, next_request

from .conftest import make_random_document, whitespace_splits, write_jsonl
from .test_runner import minimal_plan_dict, mixed_plan_dict


def request_of(*messages: Message, max_tokens: int | None = None) -> ChatRequest:
    return ChatRequest(messages=tuple(messages), max_tokens=max_tokens, request_tag="t:0")


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
        request = ChatRequest(messages=(Message("system", "x"),))
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
        with pytest.raises(ConfigError, match="^dictionary_path: required by mock_dictionary$"):
            BackendConfig(kind="mock_dictionary")


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
        # History, then a one-paragraph payload: what every multi-turn turn sends.
        request = request_of(
            user(fenced("one two three")),
            Message("assistant", "eins zwei drei"),
            user(fenced("four five six seven eight")),
        )
        response = complete(request, self.backend())
        assert response.content == "four five six seven eight"

    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    def test_icl_requests_dropped_only_when_single_turn(self, exemplars_en_de, mode):
        """Exemplar pairs precede the document like history does; only the
        single-turn request, whose payload is the whole document, loses
        floor(n * f) of its n tokens."""
        fraction = 0.3
        config = StrategyConfig(mode=mode, icl=True, exemplars=exemplars_en_de)
        document = make_random_document(random.Random(11), "icl", 5, min_tokens=4)
        session = init_session(config, document)
        while (request := next_request(session)) is not None:
            assert request.messages[: len(exemplars_en_de) * 2] == session.icl_prefix
            payload = extract_fenced_payload(request.messages[-1].content)
            response = complete(request, self.backend(fraction))
            n = len(payload.split())
            expected = n - math.floor(n * fraction) if mode == Mode.SINGLE_TURN else n
            assert len(response.content.split()) == expected
            assert payload.startswith(response.content)
            ingest_response(session, response.content)
        source_tokens = sum(len(s.split()) for s in document.source_segments)
        output_tokens = sum(len(s.split()) for s in session.outputs)
        if mode == Mode.SINGLE_TURN:
            assert output_tokens == source_tokens - math.floor(source_tokens * fraction) > 0
        else:
            assert output_tokens == source_tokens

    def test_zero_fraction_identity_everywhere(self):
        document = "a b\n\nc d"
        response = complete(request_of(user(fenced(document))), self.backend(0.0))
        assert response.content == document

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError, match="drop_fraction: must be in"):
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
    # Equal messages, new objects: a count kept on the first request's
    # messages must not be what makes the second response equal.
    second = complete(request_of(*fresh_copies(request.messages)), backend)
    assert first == second


def fresh_copies(messages) -> tuple[Message, ...]:
    """Equal messages as new objects, holding no cached token count."""
    return tuple(Message(m.role, m.content) for m in messages)


def brute_force_tokens(messages) -> int:
    return sum(len(m.content.split()) for m in messages)


class TestMockUsage:
    """Mock usage is the whitespace-token count of the whole request and of
    the reply, whichever message objects carry the count."""

    @pytest.mark.parametrize("kind", ["mock_identity", "mock_dictionary", "mock_tail_dropper"])
    @pytest.mark.parametrize("icl", [False, True], ids=["plain", "icl"])
    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    def test_every_turn_reports_the_brute_force_counts(
        self, tmp_path, exemplars_en_de, mode, icl, kind
    ):
        # One source word becomes two target words, so a dictionary reply's
        # count differs from its payload's.
        dictionary = tmp_path / "dict.json"
        dictionary.write_text('{"w1": "v1 v1", "w2": "v2 v2"}', "utf-8")
        backend = BackendConfig(kind=kind, dictionary_path=str(dictionary), drop_fraction=0.4)
        config = StrategyConfig(mode=mode, icl=icl, exemplars=exemplars_en_de if icl else ())
        document = make_random_document(random.Random(7), "usage", 4, min_tokens=4)
        session = init_session(config, document)
        turns = 0
        while (request := next_request(session)) is not None:
            response = complete(request, backend)
            assert response.prompt_tokens == brute_force_tokens(fresh_copies(request.messages))
            assert response.completion_tokens == len(response.content.split())
            rebuilt = ChatRequest(fresh_copies(request.messages), request_tag=request.request_tag)
            assert complete(rebuilt, backend) == response
            ingest_response(session, response.content)
            turns += 1
        assert turns == (1 if mode == Mode.SINGLE_TURN else 4)
        # Only the single-turn request's payload holds several paragraphs,
        # with or without ICL exemplars ahead of it.
        if kind == "mock_tail_dropper" and mode == Mode.SINGLE_TURN:
            source = " ".join(document.source_segments)
            assert len(session.outputs[0].split()) < len(source.split())
        if kind == "mock_dictionary":
            assert "v1" in " ".join(session.outputs) or "v2" in " ".join(session.outputs)

    def test_multi_turn_session_counts_each_message_once(self, monkeypatch):
        """A 64-segment multi-turn session through gateway.complete counts
        each distinct message once, 2k - 1 counts in all, where a recount
        of every message of every request would take about k * k."""
        counted = whitespace_splits(monkeypatch)
        k = 64
        document = make_random_document(random.Random(3), "long", k)
        session = init_session(StrategyConfig(mode=Mode.MULTI_TURN), document)
        backend = BackendConfig(kind="mock_identity")
        sent: dict[int, Message] = {}
        while (request := next_request(session)) is not None:
            response = complete(request, backend)
            assert response.prompt_tokens == brute_force_tokens(request.messages)
            sent.update((id(m), m) for m in request.messages)
            ingest_response(session, response.content)
        assert len(sent) == 2 * k - 1  # every prompt, and every reply but the last
        assert len(counted) == len(sent)
        assert {id(m) for m in counted} == sent.keys()
        assert all("whitespace_tokens" in vars(m) for m in sent.values())


class TestMessageValue:
    """A cached token count is not part of a message's value."""

    def test_cached_count_is_invisible_to_value_semantics(self):
        counted = user("Guten Tag, Welt.")
        assert counted.whitespace_tokens == 3
        fresh = user("Guten Tag, Welt.")
        assert "whitespace_tokens" in vars(counted) and "whitespace_tokens" not in vars(fresh)
        assert counted == fresh and hash(counted) == hash(fresh)
        assert counted.to_dict() == fresh.to_dict() == {"role": "user", "content": "Guten Tag, Welt."}
        assert [f.name for f in dataclasses.fields(Message)] == ["role", "content"]
        restored = Message(**counted.to_dict())
        assert restored == counted and "whitespace_tokens" not in vars(restored)
        assert user("a b") != user("a  b") and user("a b").whitespace_tokens == 2
        assert request_of(counted) == request_of(fresh)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal(self, copier):
        counted = Message("assistant", "eins zwei\n\ndrei")
        assert counted.whitespace_tokens == 3
        duplicate = copier(counted)
        assert duplicate == counted and hash(duplicate) == hash(counted)
        assert duplicate.whitespace_tokens == 3


def test_concurrent_run_logs_the_sequential_usage(tmp_path):
    """At max_concurrent_documents 4 every document's turns log the usage a
    sequential run logs, and it is the brute-force count of each logged
    request and reply, on every mode, with and without ICL."""
    documents = [
        {"id": f"doc-{i}", "src_lang": "en", "tgt_lang": "de", "domain": "news",
         "src": [f"Paragraph {j} of document {i} here." for j in range(3 + i % 3)]}
        for i in range(6)
    ]
    write_jsonl(tmp_path / "corpus.jsonl", documents)
    usage = []
    for output_dir, concurrency in (("sequential", 1), ("concurrent", 4)):
        plan = plan_from_dict(mixed_plan_dict(
            tmp_path, output_dir=str(tmp_path / output_dir), max_concurrent_documents=concurrency,
        ))
        artifacts = execute(plan)
        logged = {}
        for line in (artifacts.run_dir / "run.jsonl").read_text("utf-8").splitlines()[1:]:
            record = json.loads(line)
            key = tuple(record[:3])
            counts = [(t[1], t[2], t[3]) for t in record[4:]]  # prompt, cached, completion
            expected = [
                (sum(len(m.content.split()) for m in turn.request_messages), None,
                 len(turn.response_text.split()))
                for turn in artifacts.cells[key].transcript.turns
            ]
            assert counts == expected
            logged[key] = counts
        assert len(logged) == 2 * 8 * len(documents)
        usage.append(logged)
    assert usage[0] == usage[1]


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

        with pytest.raises(ConfigError, match=r"backends\[0\]\.api_key_env_var: .*API key"):
            complete(request_of(user("hi")), self.backend(), http_post=post)
        assert calls == []

    def test_length_finish_reason_surfaced(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeHttpResponse(200, ok_payload(finish="length"))

        response = complete(request_of(user("hi")), self.backend(), http_post=post)
        assert response.finish_reason == "length"

    @pytest.mark.parametrize("max_tokens, tail", [(None, b""), (64, b', "max_tokens": 64')],
                             ids=["no_max_tokens", "max_tokens"])
    def test_wire_body_bytes(self, max_tokens, tail):
        """The exact bytes a json= body becomes on the wire: the backend's
        model, the messages, temperature 0 and any max_tokens, in that order.
        A real endpoint receives them, and the benchmark's fake server keys
        its fault draws on them."""
        bodies = []

        def post(url, json=None, headers=None, timeout=None):
            bodies.append(requests.Request("POST", url, json=json).prepare().body)
            return FakeHttpResponse(200, ok_payload())

        request = request_of(user("Grüße"), Message("assistant", "Hi"), user("a\n\nb"),
                             max_tokens=max_tokens)
        complete(request, self.backend(model="real-model"), http_post=post)
        assert bodies == [
            b'{"model": "real-model", "messages": ['
            b'{"role": "user", "content": "Gr\\u00fc\\u00dfe"}, '
            b'{"role": "assistant", "content": "Hi"}, '
            b'{"role": "user", "content": "a\\n\\nb"}], '
            b'"temperature": 0.0' + tail + b'}'
        ]

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

        request = ChatRequest(messages=(user("hi"),), request_tag="doc-7:turn_2")
        with pytest.raises(GatewayError, match="malformed response for doc-7:turn_2"):
            complete(request, self.backend(), http_post=post, sleeper=lambda s: None)
        assert len(calls) == 1  # not retried: the backend answered

    def reply_with_usage(self, usage):
        def post(url, json=None, headers=None, timeout=None):
            return FakeHttpResponse(200, ok_payload() | {"usage": usage})

        return complete(request_of(user("hi")), self.backend(), http_post=post)

    @pytest.mark.parametrize("count", [True, 12.7, "3", -5],
                             ids=["bool", "float", "string", "negative"])
    @pytest.mark.parametrize("key", ["prompt_tokens", "cached_tokens", "completion_tokens"])
    def test_usage_count_is_never_coerced(self, count, key):
        """A usage count that is not a non-negative integer is a malformed
        reply, and a logged turn holding one does not parse."""
        counts = {"prompt_tokens": 7, "cached_tokens": 2, "completion_tokens": 3} | {key: count}
        usage = {"prompt_tokens": counts["prompt_tokens"],
                 "completion_tokens": counts["completion_tokens"],
                 "prompt_tokens_details": {"cached_tokens": counts["cached_tokens"]}}
        with pytest.raises(GatewayError, match=f"malformed response for .*usage {key}"):
            self.reply_with_usage(usage)
        row = ["x", counts["prompt_tokens"], counts["cached_tokens"], counts["completion_tokens"],
               "stop"]
        with pytest.raises((TypeError, ValueError), match=f"response {key} is"):
            ChatResponse.from_row(row)

    @pytest.mark.parametrize(
        "usage, cached",
        [
            ({"prompt_tokens": 7}, None),
            ({"prompt_tokens": 7, "prompt_tokens_details": None}, None),
            ({"prompt_tokens": 7, "prompt_tokens_details": {}}, None),
            ({"prompt_tokens": 7, "prompt_tokens_details": {"cached_tokens": None}}, None),
            ({"prompt_tokens": 7, "prompt_tokens_details": {"cached_tokens": 0}}, 0),
            ({"prompt_tokens": 7, "prompt_tokens_details": {"cached_tokens": 7}}, 7),
            ({"prompt_tokens_details": {"cached_tokens": 5}}, 5),
        ],
        ids=["no_details", "null_details", "empty_details", "null_cached", "zero", "all",
             "no_prompt_tokens"],
    )
    def test_cached_tokens_read_from_prompt_tokens_details(self, usage, cached):
        response = self.reply_with_usage(usage)
        assert response.cached_tokens == cached
        assert ChatResponse.from_row(response.to_row()) == response

    @pytest.mark.parametrize("value", [["cached_tokens", 5], "5", 0, [], "", False],
                             ids=["list", "string", "zero", "empty_list", "empty_string", "false"])
    def test_usage_or_details_not_an_object_is_malformed(self, value):
        for usage in (value, {"prompt_tokens": 7, "prompt_tokens_details": value}):
            with pytest.raises(GatewayError, match="malformed response for .*, not an object"):
                self.reply_with_usage(usage)

    def test_more_cached_than_prompt_tokens_is_malformed(self):
        usage = {"prompt_tokens": 7, "prompt_tokens_details": {"cached_tokens": 8}}
        with pytest.raises(GatewayError, match="malformed response for .*cached_tokens 8 exceeds"):
            self.reply_with_usage(usage)

    def test_null_content_and_usage_accepted(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeHttpResponse(200, {"choices": [{"message": {"content": None}}],
                                          "usage": None})

        response = complete(request_of(user("hi")), self.backend(), http_post=post)
        assert (response.content, response.prompt_tokens, response.cached_tokens,
                response.finish_reason) == ("", None, None, "other")

    @pytest.mark.parametrize(
        "payload, expected",
        [
            ({k: v for k, v in ok_payload().items() if k != "usage"}, (None, None, "stop")),
            (ok_payload() | {"usage": {"completion_tokens": 3}}, (None, 3, "stop")),
            (ok_payload() | {"usage": {"prompt_tokens": 7}}, (7, None, "stop")),
            ({"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": 7,
              "completion_tokens": 3}}, (7, 3, "other")),
        ],
        ids=["no_usage", "no_prompt_tokens", "no_completion_tokens", "no_finish_reason"],
    )
    def test_missing_reply_field_is_not_invented(self, payload, expected):
        def post(url, json=None, headers=None, timeout=None):
            return FakeHttpResponse(200, payload)

        response = complete(request_of(user("hi")), self.backend(), http_post=post)
        assert (response.prompt_tokens, response.completion_tokens, response.finish_reason) == (
            expected
        )
        assert ChatResponse.from_row(response.to_row()) == response


class TestResponseRow:
    def test_row_follows_the_field_order(self):
        """A row lists ChatResponse's fields in order, and an unreported count
        defaults to None, never 0."""
        response = ChatResponse("x")
        assert response.to_row() == ("x", None, None, None, "stop")
        names = ["content", "prompt_tokens", "cached_tokens", "completion_tokens", "finish_reason"]
        assert [f.name for f in dataclasses.fields(ChatResponse)] == names
        assert [name for name, _ in chat._ROW_FIELDS] == names
        full = ChatResponse("y", prompt_tokens=7, cached_tokens=2, completion_tokens=3,
                            finish_reason="length")
        assert full.to_row() == ("y", 7, 2, 3, "length")
        assert ChatResponse.from_row(full.to_row()) == full
        assert ChatResponse.from_row(json.loads(json.dumps(full.to_row()))) == full

    @pytest.mark.parametrize("count", [True, "5", 5.0], ids=["bool", "string", "float"])
    @pytest.mark.parametrize("index", [1, 2, 3], ids=["prompt", "cached", "completion"])
    def test_refuses_a_count_of_another_type(self, count, index):
        row = ["x", None, None, None, "stop"]
        row[index] = count
        with pytest.raises(TypeError, match="response .*_tokens is a .*, not int or NoneType"):
            ChatResponse.from_row(row)

    @pytest.mark.parametrize(
        "row, problem",
        [
            ({"content": "x", "prompt_tokens": 7, "completion_tokens": 3, "finish_reason": "stop"},
             "response is a dict, not an array"),
            (["x", 7, None, 3], "response has 4 items, not 5"),
            (["x", 7, None, 3, "stop", None], "response has 6 items, not 5"),
            ([None, 7, None, 3, "stop"], "response content is a NoneType, not str"),
            (["x", 7, None, -3, "stop"], "response completion_tokens is negative: -3"),
            (["x", 7, 8, 3, "stop"], "response cached_tokens 8 exceeds prompt_tokens 7"),
            (["x", 7, None, 3, "eos"], "response finish_reason is 'eos'"),
            (["x", 7, None, 3, 0], "response finish_reason is a int, not str"),
        ],
        ids=["layout_6_object", "short", "long", "null_content", "negative", "cached_exceeds",
             "unknown_finish_reason", "finish_reason_not_text"],
    )
    def test_refuses_a_row_to_row_cannot_write(self, row, problem):
        """from_row refuses the row, and a response of the same values
        cannot be built, so no run logs a row it cannot read back."""
        with pytest.raises((TypeError, ValueError), match=re.escape(problem)):
            ChatResponse.from_row(row)
        if isinstance(row, list) and len(row) == 5:
            with pytest.raises((TypeError, ValueError), match=re.escape(problem)):
                ChatResponse(*row)


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

    @staticmethod
    def rate_limited(name: str = "fake", rpm: int | None = 3) -> BackendConfig:
        return BackendConfig(kind="openai_compatible", name=name, base_url="http://fake",
                             api_key_env_var="DOCTURN_TEST_KEY", requests_per_minute=rpm)

    @pytest.fixture(autouse=True)
    def api_key(self, monkeypatch):
        monkeypatch.setenv("DOCTURN_TEST_KEY", "sk-test")

    def test_one_bucket_per_run_shared_by_every_group_and_thread(self, tmp_path, monkeypatch):
        plan = plan_from_dict(minimal_plan_dict(
            tmp_path,
            backends=[{"kind": "openai_compatible", "name": "fake", "base_url": "http://fake",
                       "api_key_env_var": "DOCTURN_TEST_KEY", "requests_per_minute": 3}],
            max_concurrent_documents=2,
        ))
        posted_from: set[int] = set()
        waits: list[float] = []
        opened: list[Gateway] = []

        def post(url, json=None, headers=None, timeout=None):
            posted_from.add(threading.get_ident())
            return FakeHttpResponse(200, ok_payload("Übersetzt."))

        def sleeper(wait: float) -> None:
            waits.append(wait)
            for each in opened:
                each.buckets["fake"].tokens = 1.0  # simulate time passing

        def open_gateway(backends):
            opened.append(Gateway(backends, http_post=post, sleeper=sleeper))
            return opened[-1]

        monkeypatch.setattr(gateway, "Gateway", open_gateway)
        artifacts = execute(plan)
        assert len(artifacts.cells) == 4 and not artifacts.exclusions
        assert len(opened) == 1 and set(opened[0].buckets) == {"fake"}
        assert threading.main_thread().ident not in posted_from  # pool workers sent them all
        # 10 requests over two (strategy) groups of 5 through one bucket of 3:
        # every request after the third waited. A bucket per group would wait 4 times.
        assert len(waits) >= 10 - 3

    def test_second_gateway_starts_with_a_full_bucket(self):
        cfg = self.rate_limited(rpm=2)

        def post(url, json=None, headers=None, timeout=None):
            return FakeHttpResponse(200, ok_payload())

        def no_sleep(wait: float) -> None:
            raise AssertionError(f"slept {wait} s")

        first = Gateway([cfg], http_post=post, sleeper=no_sleep)
        for _ in range(2):
            first.complete(request_of(user("hi")), cfg)
        assert first.buckets["fake"].tokens < 1.0
        second = Gateway([cfg], http_post=post, sleeper=no_sleep)
        assert second.buckets["fake"].tokens == second.buckets["fake"].capacity == 2.0
        # Module-level complete opens a gateway per call: three calls, no wait.
        for _ in range(3):
            complete(request_of(user("hi")), cfg, http_post=post, sleeper=no_sleep)

    def test_backend_without_rate_has_no_bucket(self):
        opened = Gateway([self.rate_limited("limited"), self.rate_limited("open", rpm=None)])
        assert set(opened.buckets) == {"limited"}
