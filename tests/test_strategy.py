"""Session state machines: construction, prefix stability, request counts,
source-primed completeness, response ingestion and hypothesis assembly."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from docturn import strategy as strategy_module
from docturn.chat import assistant
from docturn.errors import ConfigError, GatewayError, PrefixStabilityError, SessionContractError
from docturn.prompts import load_template_set
from docturn.strategy import (
    Mode,
    StrategyConfig,
    assemble_hypothesis,
    check_prefix_stability,
    ingest_response,
    init_session,
    next_request,
    strip_wrapping,
)

from .conftest import make_random_document

ALL_MODES = list(Mode)
MULTI_TURN_MODES = [Mode.MULTI_TURN, Mode.MULTI_TURN_SP]
TEMPLATES = load_template_set()


def drive(config, doc, templates, reply=lambda req, i: f"reply {i}"):
    """Run a session against a synthetic responder; returns (session, requests)."""
    session = init_session(config, doc, templates)
    requests = []
    i = 0
    while (request := next_request(session)) is not None:
        requests.append(request)
        ingest_response(session, reply(request, i))
        i += 1
    return session, requests


class TestInitSession:
    def test_multi_turn_starts_with_segment0_instruction(self, doc3, templates):
        s = init_session(StrategyConfig(mode=Mode.MULTI_TURN), doc3, templates)
        messages = next_request(s).messages
        assert len(messages) == 1
        assert messages[0].role == "user"
        assert doc3.source_segments[0] in messages[0].content

    def test_icl_prepends_three_exemplar_pairs(self, doc3, templates, exemplars_en_de):
        s = init_session(
            StrategyConfig(mode=Mode.MULTI_TURN, icl=True, exemplars=exemplars_en_de),
            doc3,
            templates,
        )
        messages = next_request(s).messages
        assert len(messages) == 7  # 3 user/assistant pairs + segment-0 user message
        roles = [m.role for m in messages]
        assert roles == ["user", "assistant"] * 3 + ["user"]
        for i, ex in enumerate(exemplars_en_de):
            assert ex.source in messages[2 * i].content
            assert messages[2 * i + 1].content == ex.target

    def test_source_primed_first_message_embeds_all_segments(self, doc3, templates):
        s = init_session(StrategyConfig(mode=Mode.MULTI_TURN_SP), doc3, templates)
        first = next_request(s).messages[-1].content
        position = -1
        for segment in doc3.source_segments:
            assert segment in first
            next_position = first.index(segment)
            assert next_position > position
            position = next_position

    def test_icl_requires_exactly_three_exemplars(self, exemplars_en_de):
        with pytest.raises(ConfigError, match="exemplars: icl=True requires exactly 3 exemplars"):
            StrategyConfig(mode=Mode.MULTI_TURN, icl=True, exemplars=exemplars_en_de[:2])


class TestRequestCounts:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("k", range(1, 11))
    def test_request_count_contract(self, mode, k, templates):
        doc = make_random_document(random.Random(k), f"doc-{k}", k)
        _, requests = drive(StrategyConfig(mode=mode), doc, templates)
        expected = 1 if mode == Mode.SINGLE_TURN else k
        assert len(requests) == expected

    def test_segment_level_requests_share_no_history(self, doc3, templates):
        _, requests = drive(StrategyConfig(mode=Mode.SEGMENT_LEVEL), doc3, templates)
        assert all(len(r.messages) == 1 for r in requests)
        assert len({r.messages[0].content for r in requests}) == 3


class TestPrefixStability:
    @pytest.mark.parametrize("mode", MULTI_TURN_MODES)
    def test_consecutive_requests_extend_by_two(self, mode, templates):
        rng = random.Random(7)
        doc = make_random_document(rng, "doc", 6)
        _, requests = drive(StrategyConfig(mode=mode), doc, templates)
        check_prefix_stability([r.messages for r in requests])
        for prev, cur in zip(requests, requests[1:]):
            assert len(cur.messages) == len(prev.messages) + 2
            assert cur.messages[: len(prev.messages)] == prev.messages

    def test_check_rejects_rewritten_history(self, doc3, templates):
        _, requests = drive(StrategyConfig(mode=Mode.MULTI_TURN), doc3, templates)
        tampered = [list(r.messages) for r in requests]
        tampered[2][0] = tampered[2][1]
        with pytest.raises(PrefixStabilityError):
            check_prefix_stability([tuple(m) for m in tampered])

    def test_check_rejects_reply_not_carried_verbatim(self, doc3, templates):
        session, requests = drive(StrategyConfig(mode=Mode.MULTI_TURN), doc3, templates)
        replies = [m.content for m in session.replies]
        messages = [r.messages for r in requests]
        check_prefix_stability(messages, replies)
        # The last request carries an edited copy of the previous reply.
        last = list(messages[-1])
        last[-2] = assistant(last[-2].content + " edited")
        messages[-1] = tuple(last)
        check_prefix_stability(messages)  # the messages alone still extend by two
        with pytest.raises(PrefixStabilityError, match="verbatim"):
            check_prefix_stability(messages, replies)

    def test_conversation_grows_by_two_between_requests(self, doc3, templates):
        config = StrategyConfig(mode=Mode.MULTI_TURN)
        session = init_session(config, doc3, templates)
        sizes = []
        while (request := next_request(session)) is not None:
            sizes.append(len(request.messages))
            ingest_response(session, "ok")
        assert sizes == [1, 3, 5]


class TestIclPrefix:
    def test_icl_prefix_identical_across_documents(self, templates, exemplars_en_de):
        config = StrategyConfig(mode=Mode.MULTI_TURN, icl=True, exemplars=exemplars_en_de)
        rng = random.Random(3)
        doc_a = make_random_document(rng, "a", 2)
        doc_b = make_random_document(rng, "b", 5)
        s_a = init_session(config, doc_a, templates)
        s_b = init_session(config, doc_b, templates)
        assert next_request(s_a).messages[:6] == next_request(s_b).messages[:6]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_prefix_built_once_per_session(self, mode, monkeypatch, exemplars_en_de):
        """The exemplars are rendered once per session, not once per request,
        and every request starts with the session's own prefix objects."""
        calls = []
        original = strategy_module.exemplar_messages

        def counted(config, templates):
            calls.append(config.label)
            return original(config, templates)

        monkeypatch.setattr(strategy_module, "exemplar_messages", counted)
        config = StrategyConfig(mode=mode, icl=True, exemplars=exemplars_en_de)
        session, requests = drive(config, make_random_document(random.Random(5), "d", 5), TEMPLATES)
        assert calls == [config.label]
        assert len(requests) == (1 if mode == Mode.SINGLE_TURN else 5)
        assert len(session.icl_prefix) == 6
        for request in requests:
            assert all(a is b for a, b in zip(request.messages[:6], session.icl_prefix))


class TestIngestResponse:
    def test_empty_output_fails_session(self, doc3, templates):
        session = init_session(StrategyConfig(mode=Mode.MULTI_TURN), doc3, templates)
        ingest_response(session, "Eins.")
        with pytest.raises(GatewayError, match="^empty_output: document 'd1' at turn 1$"):
            ingest_response(session, "   ")
        assert session.outputs == ["Eins."] and len(session.replies) == 1

    def test_label_only_output_is_empty(self, doc3, templates):
        session = init_session(StrategyConfig(mode=Mode.MULTI_TURN), doc3, templates)
        with pytest.raises(GatewayError, match="^empty_output: document 'd1' at turn 0$"):
            ingest_response(session, "Translation: ")

    def test_label_stripped_from_stored_segment(self, doc3, templates):
        session, _ = drive(
            StrategyConfig(mode=Mode.MULTI_TURN),
            doc3,
            templates,
            reply=lambda req, i: f"Translation: Satz {i}.",
        )
        assert session.outputs == ["Satz 0.", "Satz 1.", "Satz 2."]

    def test_ingest_without_pending_request_rejected(self, doc3, templates):
        session = init_session(StrategyConfig(mode=Mode.SINGLE_TURN), doc3, templates)
        next_request(session)
        ingest_response(session, "done")
        with pytest.raises(SessionContractError):
            ingest_response(session, "again")


class TestStripWrapping:
    # Oracle: the documented rules applied by hand to fixture replies.
    CASES = [
        ("Translation: Hallo.", "Hallo."),
        ("翻译：你好。", "你好。"),
        ("Übersetzung: Hallo.", "Hallo."),
        ("```\nHallo.\n```", "Hallo."),
        ("```text\nHallo da.\n```", "Hallo da."),
        ("Translation:\nHallo.", "Hallo."),
        ("Hallo.", "Hallo."),
        ("  Hallo.  \n", "Hallo."),
        ("```\nTranslation: Hallo.\n```", "Hallo."),
        ("The translation: Hallo.", "The translation: Hallo."),
    ]

    @pytest.mark.parametrize("raw,expected", CASES)
    def test_fixture_replies(self, raw, expected):
        assert strip_wrapping(raw) == expected

    def test_inner_fences_not_unwrapped(self):
        # A fence that does not span the whole reply stays put.
        text = "Here:\n```\ncode\n```"
        assert strip_wrapping(text) == text

    def test_only_first_label_removed(self):
        assert strip_wrapping("Translation: Translation: x") == "Translation: x"


class TestAssembleHypothesis:
    def test_multi_turn_outputs_used_as_is(self, doc3, templates):
        session, _ = drive(StrategyConfig(mode=Mode.MULTI_TURN), doc3, templates,
                           reply=lambda req, i: f"out {i}")
        translation = assemble_hypothesis(session)
        assert translation.alignment_ok
        assert translation.hypothesis_segments == ("out 0", "out 1", "out 2")

    def test_single_turn_blank_line_split_aligns(self, doc3, templates):
        session, _ = drive(StrategyConfig(mode=Mode.SINGLE_TURN), doc3, templates,
                           reply=lambda req, i: "Eins.\n\nZwei.\n\nDrei.")
        translation = assemble_hypothesis(session)
        assert translation.alignment_ok
        assert translation.hypothesis_segments == ("Eins.", "Zwei.", "Drei.")

    def test_single_turn_newline_fallback(self, doc3, templates):
        session, _ = drive(StrategyConfig(mode=Mode.SINGLE_TURN), doc3, templates,
                           reply=lambda req, i: "Eins.\nZwei.\nDrei.")
        translation = assemble_hypothesis(session)
        assert translation.alignment_ok
        assert translation.hypothesis_segments == ("Eins.", "Zwei.", "Drei.")

    def test_single_turn_misalignment_recorded_not_raised(self, doc3, templates):
        session, _ = drive(StrategyConfig(mode=Mode.SINGLE_TURN), doc3, templates,
                           reply=lambda req, i: "Eins.\n\nZwei.")
        translation = assemble_hypothesis(session)
        assert not translation.alignment_ok
        assert translation.hypothesis_segments == ("Eins.", "Zwei.")

    def test_assemble_before_done_rejected(self, doc3, templates):
        session = init_session(StrategyConfig(mode=Mode.MULTI_TURN), doc3, templates)
        with pytest.raises(SessionContractError):
            assemble_hypothesis(session)


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(MULTI_TURN_MODES),
    k=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_prefix_stability_property(mode, k, seed):
    doc = make_random_document(random.Random(seed), f"doc-{seed}", k)
    session = init_session(StrategyConfig(mode=mode), doc, TEMPLATES)
    requests = []
    while (request := next_request(session)) is not None:
        requests.append(request)
        ingest_response(session, f"hyp {len(requests)}")
    assert len(requests) == k
    check_prefix_stability([r.messages for r in requests])
