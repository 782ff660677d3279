"""Length/omission statistics over a test set."""

from __future__ import annotations

import random

from docturn.corpus import Document, TestSet
from docturn.metrics.report import length_report, score_strategy
from docturn.strategy import DocumentTranslation

from .conftest import make_random_document, make_testset


def identity_translation(doc) -> DocumentTranslation:
    return DocumentTranslation(doc_id=doc.id, hypothesis_segments=doc.source_segments)


def test_identity_translations_have_equal_counts():
    rng = random.Random(1)
    docs = [make_random_document(rng, f"d{i}", rng.randint(1, 5)) for i in range(6)]
    testset = make_testset(docs)
    translations = {doc.id: identity_translation(doc) for doc in docs}
    report = length_report(testset, translations, top_n=10)
    assert all(row.ref_tokens == row.hyp_tokens for row in report.rows)
    assert report.total_ref_tokens == report.total_hyp_tokens


def test_rows_sorted_by_ref_tokens_desc_ties_by_id():
    rng = random.Random(2)
    docs = [make_random_document(rng, f"d{i}", 3) for i in range(8)]
    testset = make_testset(docs)
    translations = {doc.id: identity_translation(doc) for doc in docs}
    report = length_report(testset, translations, top_n=8)
    keys = [(-row.ref_tokens, row.doc_id) for row in report.rows]
    assert keys == sorted(keys)


def test_top_n_truncates_and_totals_cover_all():
    rng = random.Random(3)
    docs = [make_random_document(rng, f"d{i}", 2) for i in range(7)]
    testset = make_testset(docs)
    translations = {doc.id: identity_translation(doc) for doc in docs}
    top = length_report(testset, translations, top_n=3)
    full = length_report(testset, translations, top_n=100)
    assert len(top.rows) == 3
    assert len(full.rows) == 7  # top_n larger than the corpus returns everything
    assert top.total_ref_tokens == full.total_ref_tokens


def test_docs_without_references_or_translations_skipped():
    rng = random.Random(4)
    with_ref = make_random_document(rng, "with-ref", 2)
    no_ref = make_random_document(rng, "no-ref", 2, identity_refs=False)
    untranslated = make_random_document(rng, "untranslated", 2)
    testset = make_testset([with_ref, no_ref, untranslated])
    translations = {
        "with-ref": identity_translation(with_ref),
        "no-ref": identity_translation(no_ref),
    }
    report = length_report(testset, translations, top_n=10)
    assert [row.doc_id for row in report.rows] == ["with-ref"]


def test_truncated_hypothesis_lowers_ratio():
    rng = random.Random(5)
    doc = make_random_document(rng, "doc", 4, min_tokens=10, max_tokens=10)
    testset = make_testset([doc])
    kept = " ".join(" ".join(doc.source_segments).split()[:32])  # drop 8 of 40 tokens
    translations = {"doc": DocumentTranslation(doc_id="doc", hypothesis_segments=(kept,))}
    report = length_report(testset, translations, top_n=1)
    assert report.rows[0].ref_tokens == 40
    assert report.rows[0].hyp_tokens == 32
    assert report.rows[0].ratio == 0.8


def test_csv_shape():
    rng = random.Random(6)
    docs = [make_random_document(rng, f"d{i}", 2) for i in range(3)]
    testset = make_testset(docs)
    translations = {doc.id: identity_translation(doc) for doc in docs}
    header, rows = length_report(testset, translations, top_n=2).to_table()
    assert header == ["doc_id", "ref_tokens", "hyp_tokens", "ratio"]
    assert len(rows) == 3  # 2 rows + TOTAL
    assert rows[-1][0] == "TOTAL" and all(len(row) == 4 for row in rows)


def test_zh_target_counted_in_characters():
    zh = Document(id="zh-1", src_lang="en", tgt_lang="zh", domain="news",
                  source_segments=("Hello, friend.", "Nice weather today."),
                  reference_segments=("你好，朋友。", "今天 天气 很好。"))
    en = Document(id="en-1", src_lang="de", tgt_lang="en", domain="news",
                  source_segments=("Guten Tag.",), reference_segments=("Good day to you.",))
    testset = TestSet("t", [zh, en])
    translations = {
        "zh-1": DocumentTranslation("zh-1", ("你好。", "天气好。")),
        "en-1": DocumentTranslation("en-1", ("Good day.",)),
    }
    # One token per Han character and per punctuation run, spaces uncounted,
    # for zh; words for en.
    expected = {"zh-1": (6 + 7, 3 + 4), "en-1": (4, 2)}
    report = length_report(testset, translations)
    assert {r.doc_id: (r.ref_tokens, r.hyp_tokens) for r in report.rows} == expected
    assert (report.total_ref_tokens, report.total_hyp_tokens) == (17, 9)
    metrics = score_strategy(testset, translations)
    assert metrics.lengths == report
