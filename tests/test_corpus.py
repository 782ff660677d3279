"""Corpus loading, validation and segmentation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from docturn.corpus import (
    Document,
    TestSet,
    load_corpus,
    segment_separator,
    split_into_segments,
)
from docturn.errors import CorpusError

from .conftest import write_jsonl


class TestLoadCorpus:
    def test_minimal_valid_line(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_jsonl(
            path,
            [{"id": "x", "src_lang": "en", "tgt_lang": "de", "domain": "news",
              "src": ["a", "b", "c"], "ref": ["A", "B", "C"]}],
        )
        ts = load_corpus(path)
        assert len(ts) == 1
        assert ts.documents[0].num_segments == 3

    def test_alignment_mismatch_names_doc_id(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(
            path,
            [{"id": "broken-doc", "src_lang": "en", "tgt_lang": "de", "domain": "news",
              "src": ["a", "b", "c", "d"], "ref": ["A", "B", "C"]}],
        )
        with pytest.raises(CorpusError, match="broken-doc"):
            load_corpus(path)

    def test_wmt24_style_domains(self, tmp_path):
        path = tmp_path / "wmt.jsonl"
        domains = ["literary", "news", "social", "speech"]
        write_jsonl(
            path,
            [
                {"id": f"d{i}", "src_lang": "en", "tgt_lang": "de", "domain": domain,
                 "src": ["text."], "ref": ["Text."]}
                for i, domain in enumerate(domains)
            ],
        )
        ts = load_corpus(path)
        assert ts.domains == {"literary", "news", "social", "speech"}

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "ok", "src_lang": "en", "tgt_lang": "de", "domain": "x", "src": ["a"]}\n{not json\n', "utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "change, problem",
        [({"src": "Hi", "ref": "Yo"}, "'src' must be a list of strings"),
         ({"src": [1, 2]}, "'src' must be a list of strings"),
         ({"ref": "Yo"}, "'ref' must be a list of strings"),
         ({"id": ["x"]}, "'id' must be a string"),
         ({"src_lang": ["en"]}, "'src_lang' must be a string"),
         ({"tgt_lang": 7}, "'tgt_lang' must be a string"),
         ({"domain": None}, "'domain' must be a string")],
        ids=["string_src", "number_src", "string_ref", "list_id", "list_src_lang",
             "number_tgt_lang", "null_domain"],
    )
    def test_segments_must_be_a_list_of_strings(self, tmp_path, change, problem):
        """Each key must hold its JSON type: a list of strings for the
        segments, a string for every other key."""
        path = tmp_path / "bad.jsonl"
        record = {"id": "ok", "src_lang": "en", "tgt_lang": "de", "src": ["Hi"]}
        write_jsonl(path, [record, {**record, "id": "bad", **change}])
        with pytest.raises(CorpusError, match=f"line 2: {problem}"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        record = {"id": "same", "src_lang": "en", "tgt_lang": "de", "domain": "x", "src": ["a"]}
        write_jsonl(path, [record, record])
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_unknown_keys_warn_but_load(self, tmp_path, caplog):
        path = tmp_path / "extra.jsonl"
        write_jsonl(
            path,
            [{"id": "x", "src_lang": "en", "tgt_lang": "de", "domain": "news",
              "src": ["a"], "wordcount": 1}],
        )
        with caplog.at_level("WARNING"):
            ts = load_corpus(path)
        assert len(ts) == 1
        assert "wordcount" in caplog.text

    def test_nfc_normalization_applied(self, tmp_path):
        path = tmp_path / "nfc.jsonl"
        decomposed = "Café"  # e + combining acute
        write_jsonl(
            path,
            [{"id": "x", "src_lang": "fr", "tgt_lang": "en", "domain": "news",
              "src": [decomposed]}],
        )
        ts = load_corpus(path)
        assert ts.documents[0].source_segments[0] == "Café"

    def test_missing_references_allowed(self, corpus_file):
        ts = load_corpus(corpus_file)
        docs = {doc.id: doc for doc in ts}
        assert docs["doc-c"].reference_segments is None


class TestDocumentInvariants:
    @pytest.mark.parametrize("segment, problem", [
        ("  ", "source segment 1 is empty"),
        ("Alpha beta.\n\nGamma delta.", "source segment 1 holds a blank line"),
        ("Alpha beta.\n \nGamma delta.", "source segment 1 holds a blank line"),
        ("Alpha beta.\r\n\r\nGamma delta.", "source segment 1 holds a blank line"),
    ], ids=["empty", "blank_line", "whitespace_line", "crlf_blank_line"])
    def test_bad_segment_rejected(self, segment, problem):
        with pytest.raises(CorpusError, match=f"document 'x': {problem}"):
            Document(id="x", src_lang="en", tgt_lang="de", domain="n",
                     source_segments=("ok", segment))

    def test_same_language_pair_rejected(self):
        with pytest.raises(CorpusError, match="language"):
            Document(id="x", src_lang="en", tgt_lang="en", domain="n",
                     source_segments=("ok",))

    def test_duplicate_ids_in_testset(self):
        doc = Document(id="x", src_lang="en", tgt_lang="de", domain="n",
                       source_segments=("ok",))
        with pytest.raises(CorpusError, match="duplicate"):
            TestSet(name="t", documents=[doc, doc])


class TestSplitIntoSegments:
    def test_blank_line_rule(self):
        assert split_into_segments("A\n\nB\n\nC", "blank_line") == ["A", "B", "C"]

    def test_no_blank_line_keeps_newline(self):
        assert split_into_segments("A\nB", "blank_line") == ["A\nB"]

    def test_runs_of_blank_lines_collapse(self):
        # Oracle: regex split on runs of >= 1 blank line gives two segments.
        assert split_into_segments("A\n\n\n\nB", "blank_line") == ["A", "B"]

    def test_single_newline_rule(self):
        assert split_into_segments("A\nB", "single_newline") == ["A", "B"]

    def test_empty_input(self):
        assert split_into_segments("", "blank_line") == []
        assert split_into_segments("\n\n\n", "blank_line") == []

    @given(st.lists(st.text(alphabet="abc xyz", min_size=1).map(str.strip).filter(bool), max_size=8))
    def test_join_split_fixed_point(self, segments):
        for rule in ("blank_line", "single_newline"):
            normalized = [
                seg
                for raw in segments
                for seg in split_into_segments(raw, rule)
            ]
            joined = segment_separator(rule).join(normalized)
            assert split_into_segments(joined, rule) == normalized

    @given(st.text(alphabet="ab \n", max_size=60))
    def test_no_empty_segments_and_rule_monotonicity(self, text):
        blank = split_into_segments(text, "blank_line")
        newline = split_into_segments(text, "single_newline")
        assert all(seg.strip() for seg in blank)
        assert all(seg.strip() for seg in newline)
        assert len(newline) >= len(blank)
