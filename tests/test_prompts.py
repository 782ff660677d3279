"""Template set loading, rendering determinism, payload extraction."""

from __future__ import annotations

import pytest

from docturn.errors import TemplateError
from docturn.prompts import extract_fenced_payload, language_name


def test_default_set_has_expected_slots(templates):
    assert set(templates.slots) == {"segment", "document", "source_primed_first"}
    assert templates.content_hash


def test_segment_render_contains_text_verbatim(templates):
    out = templates.render(
        "segment", {"src_lang": "English", "tgt_lang": "German", "segment": "Hello."}
    )
    assert "Hello." in out
    assert "English" in out and "German" in out


def test_render_deterministic(templates):
    variables = {"src_lang": "English", "tgt_lang": "German", "segment": "Same text."}
    assert templates.render("segment", variables) == templates.render("segment", variables)


def test_primer_contains_segments_in_order(templates):
    out = templates.render(
        "source_primed_first",
        {"src_lang": "English", "tgt_lang": "German",
         "document": "First piece.\n\nSecond piece.", "segment": "First piece."},
    )
    assert out.index("First piece.") < out.index("Second piece.")


def test_unbound_placeholder_names_it(templates):
    with pytest.raises(TemplateError, match="segment"):
        templates.render("segment", {"src_lang": "English", "tgt_lang": "German"})


def test_unknown_slot_rejected(templates):
    with pytest.raises(TemplateError, match="no slot"):
        templates.render("nope", {})


def test_error_messages_name_the_slot_and_the_first_unbound_placeholder(templates):
    with pytest.raises(TemplateError) as info:
        templates.render("nope", {})
    assert str(info.value) == (
        "template set 'wmt24-style-v1' has no slot 'nope' "
        "(available: ['document', 'segment', 'source_primed_first'])"
    )
    with pytest.raises(TemplateError) as info:
        templates.render("segment", {"tgt_lang": "German"})
    assert str(info.value) == "unbound placeholder 'src_lang' in slot 'segment' of 'wmt24-style-v1'"


def test_payload_braces_are_inert(templates):
    out = templates.render(
        "segment",
        {"src_lang": "English", "tgt_lang": "German", "segment": "code {x} and {unbound}"},
    )
    assert "code {x} and {unbound}" in out


class TestPayloadExtraction:
    def test_single_fence(self):
        assert extract_fenced_payload("intro\n\n```\npayload here\n```") == "payload here"

    def test_last_fence_wins(self):
        text = "```\nfirst\n```\nmore\n```\nsecond\n```"
        assert extract_fenced_payload(text) == "second"

    def test_multiline_payload_preserved(self):
        text = "```\npara one\n\npara two\n```"
        assert extract_fenced_payload(text) == "para one\n\npara two"

    def test_no_fence_returns_none(self):
        assert extract_fenced_payload("Bonjour") is None

    def test_rendered_templates_round_trip(self, templates):
        segment = "A paragraph with several words."
        out = templates.render(
            "segment", {"src_lang": "English", "tgt_lang": "German", "segment": segment}
        )
        assert extract_fenced_payload(out) == segment
        doc = "One.\n\nTwo.\n\nThree."
        out = templates.render(
            "document", {"src_lang": "English", "tgt_lang": "German", "document": doc}
        )
        assert extract_fenced_payload(out) == doc
        out = templates.render(
            "source_primed_first",
            {"src_lang": "English", "tgt_lang": "German", "document": doc, "segment": "One."},
        )
        assert extract_fenced_payload(out) == "One."


def test_language_names():
    assert language_name("en") == "English"
    assert language_name("de-DE") == "German"
    assert language_name("xx") == "xx"
