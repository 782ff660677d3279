"""BlonDE-lite category extraction and F1 scoring, hand-computed oracles.

Expected values were worked out by hand from the documented extraction rules
(closed-list matching, suffix/auxiliary tense markers, capitalized-run
entities with sentence-initial exclusion) and multiset-intersection P/R/F1.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from docturn.corpus import Document, TestSet
from docturn.metrics.blonde import (
    BlondeResources,
    blonde_lite,
    category_counts,
    counts_against,
    extract_connectives,
    extract_entities,
    load_blonde_resources,
    marker_counts,
    pooled_report,
)
from docturn.metrics.report import ScoringConfig, ScoringTable, score_strategy
from docturn.metrics.tokenizers import tokenize_13a_like
from docturn.strategy import DocumentTranslation

from . import oracles

RES = load_blonde_resources("en")


def scores(hyp_text, ref_text):
    return blonde_lite([hyp_text], [ref_text], RES)


class TestHandOracles:
    def test_identity_with_all_categories(self):
        text = "She met Anna Bot and they walked because it was raining ."
        report = scores(text, text)
        for name, category in report.categories.items():
            if category.ref_count > 0:
                assert category.f1 == 1.0, name
        assert report.combined_f1 == 1.0
        # Every category is actually exercised by this sentence.
        assert all(c.ref_count > 0 for c in report.categories.values())

    def test_pronoun_two_thirds(self):
        # ref {he, he, she}, hyp {he, she, she}: matched 2 -> P = R = F1 = 2/3.
        report = scores("he she she", "he he she")
        pronouns = report.categories["pronouns"]
        assert pronouns.precision == pytest.approx(2 / 3)
        assert pronouns.recall == pytest.approx(2 / 3)
        assert pronouns.f1 == pytest.approx(2 / 3)

    def test_pronoun_empty_hypothesis(self):
        report = scores("walk walk", "he she")
        pronouns = report.categories["pronouns"]
        assert (pronouns.precision, pronouns.recall, pronouns.f1) == (0.0, 0.0, 0.0)

    def test_connectives_partial_overlap(self):
        # ref {but, then, however}, hyp {but, moreover}: matched 1
        # -> P = 1/2, R = 1/3, F1 = 0.4.
        report = scores("but moreover", "but then however")
        connectives = report.categories["connectives"]
        assert connectives.precision == pytest.approx(1 / 2)
        assert connectives.recall == pytest.approx(1 / 3)
        assert connectives.f1 == pytest.approx(0.4)

    def test_multiword_connective_matched_as_phrase(self):
        report = scores("they met as well as friends", "they met as well as others")
        connectives = report.categories["connectives"]
        assert connectives.matched == 1
        assert connectives.f1 == 1.0

    def test_tense_suffix_and_auxiliary_markers(self):
        # ref markers {-ed, is, -ing}; hyp markers {was, -ing}: matched {-ing}
        # -> P = 1/2, R = 1/3, F1 = 0.4.
        report = scores("she walks and was running", "she walked and is running")
        tense = report.categories["tense"]
        assert tense.matched == 1
        assert tense.precision == pytest.approx(1 / 2)
        assert tense.recall == pytest.approx(1 / 3)
        assert tense.f1 == pytest.approx(0.4)

    def test_entities_exact_match_only(self):
        report = scores("we visited Alice Creek today", "we visited Alice Springs today")
        entities = report.categories["entities"]
        assert entities.matched == 0
        assert entities.f1 == 0.0
        assert entities.hyp_count == 1 and entities.ref_count == 1

    def test_entity_sentence_initial_exclusion(self):
        tokens = tokenize_13a_like("Paris is lovely . John visited Paris")
        extracted = extract_entities(tokens, RES)
        assert dict(extracted) == {"Paris": 1}

    def test_mixed_document(self):
        # Hand computation: pronouns F1 1/2, connectives F1 1/2, tense F1 1,
        # entities F1 1 -> combined (0.5 + 0.5 + 1 + 1) / 4 = 0.75.
        report = scores(
            "However, she gave Tom Lee a book since she asked.",
            "However, she gave Tom Lee the book because he asked.",
        )
        assert report.categories["pronouns"].f1 == pytest.approx(0.5)
        assert report.categories["connectives"].f1 == pytest.approx(0.5)
        assert report.categories["tense"].f1 == 1.0
        assert report.categories["entities"].f1 == 1.0
        assert report.combined_f1 == pytest.approx(0.75)

    def test_markers_pool_across_segments(self):
        report = blonde_lite(["he ran he jumped", "nothing more"], ["he ran", "he jumped"], RES)
        pronouns = report.categories["pronouns"]
        assert pronouns.matched == 2
        assert pronouns.f1 == 1.0

    def test_category_absent_from_reference_excluded_from_combined(self):
        # Reference has pronoun + tense evidence but no connectives/entities;
        # hypothesis false-positive connectives do not enter the mean.
        report = scores("he walked however", "he walked")
        assert report.categories["connectives"].ref_count == 0
        assert report.combined_f1 == pytest.approx(1.0)


def test_unsupported_language_returns_none():
    assert load_blonde_resources("xx") is None


def test_en_resources_loaded():
    assert RES is not None
    assert "he" in RES.pronouns
    assert ("as", "well", "as") in RES.connectives
    assert "will" in RES.tense_auxiliaries
    assert RES.tense_suffixes[0] == "ing"  # longest first


WORDS = ["he", "she", "they", "but", "however", "walked", "running", "is",
         "Paris", "Alice", "tree", "stone", ".", "blue"]


@settings(max_examples=80, deadline=None)
@given(
    hyp=st.lists(st.sampled_from(WORDS), min_size=0, max_size=20),
    ref=st.lists(st.sampled_from(WORDS), min_size=0, max_size=20),
)
def test_swap_symmetry(hyp, ref):
    """Swapping hypothesis and reference swaps precision and recall exactly."""
    forward = blonde_lite([" ".join(hyp)], [" ".join(ref)], RES) if hyp or ref else None
    if forward is None:
        return
    backward = blonde_lite([" ".join(ref)], [" ".join(hyp)], RES)
    for name in forward.categories:
        f, b = forward.categories[name], backward.categories[name]
        assert f.precision == pytest.approx(b.recall)
        assert f.recall == pytest.approx(b.precision)
        assert f.f1 == pytest.approx(b.f1)


@settings(max_examples=50, deadline=None)
@given(
    hyp=st.lists(st.sampled_from(WORDS), min_size=1, max_size=20),
    ref=st.lists(st.sampled_from(WORDS), min_size=1, max_size=20),
)
def test_scores_in_unit_interval(hyp, ref):
    report = blonde_lite([" ".join(hyp)], [" ".join(ref)], RES)
    for category in report.categories.values():
        assert 0.0 <= category.precision <= 1.0
        assert 0.0 <= category.recall <= 1.0
        assert 0.0 <= category.f1 <= 1.0
    if report.combined_f1 is not None:
        assert 0.0 <= report.combined_f1 <= 1.0


def test_pooled_report_micro_averages():
    rng = random.Random(3)
    docs = []
    for _ in range(4):
        hyp = " ".join(rng.choices(WORDS, k=12))
        ref = " ".join(rng.choices(WORDS, k=12))
        docs.append(category_counts([hyp], [ref], RES))
    pooled = pooled_report(docs)
    for name in pooled.categories:
        matched = sum(d[name][0] for d in docs)
        hyp_count = sum(d[name][1] for d in docs)
        expected = matched / hyp_count if hyp_count else 0.0
        assert pooled.categories[name].precision == pytest.approx(expected)


def test_resources_loaded_once_per_language():
    assert load_blonde_resources("en") is load_blonde_resources("en")
    assert load_blonde_resources("xx") is None


CONNECTIVE_STREAM = ["even", "though", "Though", "on", "the", "other", "hand", "On", "as",
                     "well", "as", "a", "result", "in", "addition", "fact", "so", "cat",
                     "HOWEVER", "for", "example", "."]


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(CONNECTIVE_STREAM), min_size=0, max_size=40),
    ref=st.lists(st.sampled_from(CONNECTIVE_STREAM), min_size=0, max_size=40),
)
def test_indexed_connectives_match_plain_scan(tokens, ref):
    assert extract_connectives(tokens, RES) == oracles.naive_connectives(tokens, RES.connectives)
    # Against one reference side, shared by two hypotheses, each pair's
    # counts are the plain scan's clipped counts.
    ref_side = marker_counts(ref, RES)
    ref_found = oracles.naive_connectives(ref, RES.connectives)
    for hyp in (tokens, tokens[::-1]):
        found = oracles.naive_connectives(hyp, RES.connectives)
        expected = (
            sum(min(n, ref_found.get(marker, 0)) for marker, n in found.items()),
            sum(found.values()),
            sum(ref_found.values()),
        )
        assert counts_against(marker_counts(hyp, RES), ref_side)["connectives"] == expected


TEXT_WORDS = WORDS + ["Alice,", "Paris.", "Even", "though", "On", "the", "other", "hand", "had",
                     "will", "HE", "They", "as", "well"]
texts = st.lists(st.sampled_from(TEXT_WORDS), min_size=0, max_size=24).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(texts, texts), min_size=1, max_size=6),
       case_sensitive=st.booleans())
def test_score_strategy_blonde_equals_per_pair_scores(pairs, case_sensitive):
    # score_strategy reuses BLEU's tokens for BlonDE-lite when they are
    # case-sensitive 13a-like tokens, and reuses reference sides across calls.
    documents = [
        Document(id=f"d{i}", src_lang="de", tgt_lang="en", domain="news",
                 source_segments=("Quelle",), reference_segments=(ref,))
        for i, (_, ref) in enumerate(pairs)
    ]
    testset = TestSet("t", documents)
    cfg = ScoringConfig(case_sensitive=case_sensitive)
    table = ScoringTable()
    references = {d.id: DocumentTranslation(d.id, d.reference_segments) for d in documents}
    score_strategy(testset, references, cfg, table=table)
    translations = {
        d.id: DocumentTranslation(d.id, (hyp,)) for d, (hyp, _) in zip(documents, pairs)
    }
    metrics = score_strategy(testset, translations, cfg, table=table)
    assert metrics.blonde == pooled_report(category_counts([h], [r], RES) for h, r in pairs)


def test_nested_overlapping_and_repeated_connectives():
    tokens = tokenize_13a_like(
        "Even though it rained, on the other hand on the other hand as well as "
        "as well as well as"
    )
    found = extract_connectives(tokens, RES)
    assert found == oracles.naive_connectives(tokens, RES.connectives)
    assert (found["even though"], found["though"]) == (1, 1)
    assert found["on the other hand"] == 2
    assert found["as well as"] == 3  # the last two overlap on "as"


def test_repeated_list_entry_counts_twice():
    res = BlondeResources(
        language="test",
        pronouns=frozenset({"he"}),
        connectives=(("so", "that"), ("so",), ("so",)),
        tense_auxiliaries=frozenset({"is"}),
        tense_suffixes=("ed",),
    )
    tokens = ["So", "that", "so"]
    assert extract_connectives(tokens, res) == oracles.naive_connectives(tokens, res.connectives)
    assert extract_connectives(tokens, res) == {"so that": 1, "so": 4}
