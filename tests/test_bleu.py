"""Document-level BLEU: boundary cases, clipping, oracle equivalence."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from docturn.corpus import Document, TestSet
from docturn.errors import DocturnError
from docturn.metrics.bleu import (
    BleuConfig,
    bleu_from_stats,
    bleu_stats,
    brevity_penalty,
    doc_bleu,
    ngram_clipped_counts,
)
from docturn.metrics.report import (
    FLAG_NO_REFERENCE,
    ScoringConfig,
    ScoringTable,
    score_strategy,
)
from docturn.strategy import DocumentTranslation

from . import oracles


def doc_pair(doc_id: str, hyp_segments, ref_segments, direction=("en", "de")):
    hyp = DocumentTranslation(doc_id=doc_id, hypothesis_segments=tuple(hyp_segments),
                              alignment_ok=True)
    ref = Document(id=doc_id, src_lang=direction[0], tgt_lang=direction[1], domain="news",
                   source_segments=tuple(f"src {i}" for i in range(len(ref_segments))),
                   reference_segments=tuple(ref_segments))
    return hyp, ref


class TestNgramClippedCounts:
    def test_identical_bigram(self):
        assert ngram_clipped_counts(["a", "b"], ["a", "b"], 2) == (1, 1)

    def test_clipping(self):
        assert ngram_clipped_counts(["a", "a", "a"], ["a"], 1) == (1, 3)

    def test_n_larger_than_hyp(self):
        assert ngram_clipped_counts(["a"], ["a", "b"], 2) == (0, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        hyp=st.lists(st.sampled_from("abcde"), min_size=0, max_size=20),
        ref=st.lists(st.sampled_from("abcde"), min_size=0, max_size=20),
        n=st.integers(min_value=1, max_value=4),
    )
    def test_matches_naive_oracle(self, hyp, ref, n):
        assert tuple(ngram_clipped_counts(hyp, ref, n)) == oracles.naive_clipped(hyp, ref, n)

    @settings(max_examples=60, deadline=None)
    @given(
        hyp=st.lists(st.sampled_from("abc"), min_size=1, max_size=15),
        ref=st.lists(st.sampled_from("abc"), min_size=1, max_size=15),
        extra=st.sampled_from("abc"),
    )
    def test_clipping_bound(self, hyp, ref, extra):
        # Adding a token never pushes matched beyond the reference's counts.
        matched, _ = ngram_clipped_counts(hyp + [extra], ref, 1)
        assert matched <= len(ref)


class TestBrevityPenalty:
    def test_equal_lengths(self):
        assert brevity_penalty(10, 10) == 1.0

    def test_half_length(self):
        # Oracle: direct formula, exp(1 - 10/5) = exp(-1).
        assert brevity_penalty(5, 10) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_empty_hypothesis(self):
        assert brevity_penalty(0, 10) == 0.0

    def test_longer_hypothesis_unpenalized(self):
        assert brevity_penalty(20, 10) == 1.0


class TestDocBleuBoundaries:
    def test_identity_scores_100(self):
        pairs = [doc_pair("a", ["Hello world.", "Again here."], ["Hello world.", "Again here."]),
                 doc_pair("b", ["Short one."], ["Short one."])]
        score = doc_bleu([h for h, _ in pairs], [r for _, r in pairs])
        assert score == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_vocabulary_scores_0(self):
        hyp, ref = doc_pair("a", ["aaa bbb ccc ddd"], ["www xxx yyy zzz"])
        assert doc_bleu([hyp], [ref]) == 0.0

    def test_clipping_case_the_the(self):
        # hyp "the the the the" vs ref "the cat", max_n=1:
        # clipped precision 1/4, BP 1 (hyp longer) -> 25.0.
        hyp, ref = doc_pair("a", ["the the the the"], ["the cat"])
        score = doc_bleu([hyp], [ref], BleuConfig(max_n=1))
        assert score == pytest.approx(25.0, abs=1e-9)

    def test_missing_reference_lists_doc_ids(self):
        hyp = DocumentTranslation(doc_id="missing-doc", hypothesis_segments=("x",),
                                  alignment_ok=True)
        ref = Document(id="other", src_lang="en", tgt_lang="de", domain="n",
                       source_segments=("s",), reference_segments=("r",))
        with pytest.raises(DocturnError, match="missing-doc"):
            doc_bleu([hyp], [ref])

    def test_short_identity_with_max_n_4(self):
        # Two-token documents cannot form 3-grams; empty orders are excluded,
        # so identity still scores 100.
        hyp, ref = doc_pair("a", ["two tokens"], ["two tokens"])
        assert doc_bleu([hyp], [ref]) == pytest.approx(100.0, abs=1e-9)

    def test_case_sensitivity_default(self):
        hyp, ref = doc_pair("a", ["hello"], ["Hello"])
        assert doc_bleu([hyp], [ref], BleuConfig(max_n=1)) == 0.0
        relaxed = BleuConfig(max_n=1, case_sensitive=False)
        assert doc_bleu([hyp], [ref], relaxed) == pytest.approx(100.0)



class TestDocBleuProperties:
    def _random_corpus(self, rng: random.Random, n_docs: int):
        pairs = []
        for d in range(n_docs):
            k = rng.randint(1, 3)
            hyp_segments = []
            ref_segments = []
            for _ in range(k):
                hyp_segments.append(" ".join(f"w{rng.randint(0, 9)}" for _ in range(rng.randint(1, 10))))
                ref_segments.append(" ".join(f"w{rng.randint(0, 9)}" for _ in range(rng.randint(1, 10))))
            pairs.append(doc_pair(f"doc{d}", hyp_segments, ref_segments))
        return pairs

    def test_permutation_invariance(self):
        rng = random.Random(5)
        pairs = self._random_corpus(rng, 5)
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        baseline = doc_bleu(hyps, refs)
        for _ in range(5):
            order = list(range(len(pairs)))
            rng.shuffle(order)
            shuffled = doc_bleu([hyps[i] for i in order], refs)
            assert shuffled == pytest.approx(baseline, rel=1e-12)

    def test_score_in_range(self):
        rng = random.Random(6)
        for _ in range(30):
            pairs = self._random_corpus(rng, rng.randint(1, 4))
            score = doc_bleu([h for h, _ in pairs], [r for _, r in pairs])
            assert 0.0 <= score <= 100.0

    def test_oracle_equivalence(self):
        rng = random.Random(7)
        for trial in range(50):
            pairs = self._random_corpus(rng, rng.randint(1, 5))
            hyps = [h for h, _ in pairs]
            refs = [r for _, r in pairs]
            token_pairs = [
                (" ".join(h.hypothesis_segments).split(), " ".join(r.reference_segments).split())
                for h, r in pairs
            ]
            score = doc_bleu(hyps, refs)
            assert score == pytest.approx(oracles.oracle_corpus_bleu(token_pairs), rel=1e-9, abs=1e-12)


# Random token documents, each assigned to a direction and a domain.
VOCAB = [f"w{i}" for i in range(6)]
DIRECTIONS = [("en", "de"), ("en", "fr"), ("de", "en")]
DOMAINS = ["news", "speech", "social"]
random_docs = st.lists(
    st.tuples(
        st.integers(0, len(DIRECTIONS) - 1),
        st.sampled_from(DOMAINS),
        st.lists(st.sampled_from(VOCAB), min_size=0, max_size=14),
        st.lists(st.sampled_from(VOCAB), min_size=1, max_size=14),
    ),
    min_size=1,
    max_size=12,
)


def _approx_oracle(pairs):
    return pytest.approx(oracles.oracle_corpus_bleu(pairs), rel=1e-9, abs=1e-12)


class TestPooledStatistics:
    @settings(max_examples=150, deadline=None)
    @given(docs=random_docs)
    def test_slice_scores_from_summed_stats_equal_oracle(self, docs):
        cfg = BleuConfig()
        slices: dict = {}
        for direction, domain, hyp, ref in docs:
            stats = bleu_stats([" ".join(hyp)], [" ".join(ref)], cfg)
            for key in (("direction", direction), ("slice", direction, domain), ("all",)):
                pooled, pairs = slices.get(key, (None, []))
                slices[key] = (stats if pooled is None else pooled + stats, pairs + [(hyp, ref)])
        for pooled, pairs in slices.values():
            assert bleu_from_stats(pooled, cfg) == _approx_oracle(pairs)

    @settings(max_examples=100, deadline=None)
    @given(docs=random_docs, shared_sides=st.booleans())
    def test_score_strategy_aggregates_equal_oracle(self, docs, shared_sides):
        documents, translations = [], {}
        for i, (direction, domain, hyp, ref) in enumerate(docs):
            src, tgt = DIRECTIONS[direction]
            doc = Document(id=f"d{i}", src_lang=src, tgt_lang=tgt, domain=domain,
                           source_segments=("source",), reference_segments=(" ".join(ref),))
            documents.append(doc)
            translations[doc.id] = DocumentTranslation(
                doc_id=doc.id, hypothesis_segments=(" ".join(hyp),), alignment_ok=True
            )
        testset = TestSet("t", documents)
        table = ScoringTable()
        hypotheses = {(doc.id, translations[doc.id].hypothesis_segments) for doc in documents}
        if shared_sides:
            # Another strategy scored first builds every reference side.
            references = {
                doc.id: DocumentTranslation(doc.id, doc.reference_segments, True)
                for doc in documents
            }
            score_strategy(testset, references, ScoringConfig(blonde=False), table=table)
            assert len(table.references) == len(table.scores) == len(documents)
            hypotheses |= {(doc.id, doc.reference_segments) for doc in documents}
        metrics = score_strategy(testset, translations, ScoringConfig(blonde=False), table=table)
        # One reference side per document, one score per distinct hypothesis.
        assert len(table.references) == len(documents)
        assert len(table.scores) == len(hypotheses)

        by_direction: dict = {}
        by_slice: dict = {}
        for doc, (_, _, hyp, ref) in zip(documents, docs):
            by_direction.setdefault(doc.direction, []).append((hyp, ref))
            by_slice.setdefault((doc.direction, doc.domain), []).append((hyp, ref))
        assert metrics.per_direction_dbleu == {
            d: _approx_oracle(pairs) for d, pairs in by_direction.items()
        }
        for domain, score in metrics.per_domain_dbleu.items():
            per_direction = [
                oracles.oracle_corpus_bleu(pairs)
                for (d, dom), pairs in sorted(by_slice.items())
                if dom == domain
            ]
            assert score == pytest.approx(sum(per_direction) / len(per_direction), rel=1e-9,
                                          abs=1e-12)
        assert set(metrics.per_domain_dbleu) == {dom for _, dom in by_slice}

    def test_reference_less_document_is_flagged_and_left_out(self):
        referenced = Document(
            id="ref", src_lang="de", tgt_lang="en", domain="news",
            source_segments=("Er kam.", "Er ging jedoch."),
            reference_segments=("He came home.", "However, he left early."),
        )
        unreferenced = Document(id="noref", src_lang="de", tgt_lang="en", domain="news",
                                source_segments=("Sie blieben.",))
        translations = {
            "ref": DocumentTranslation("ref", ("He came.", "However, he left."), True),
            "noref": DocumentTranslation("noref", ("They stayed.",), True),
        }
        both = score_strategy(TestSet("t", [unreferenced, referenced]), translations)
        alone = score_strategy(TestSet("t", [referenced]), translations)
        assert both.flags == {FLAG_NO_REFERENCE} and not alone.flags
        assert 0 < alone.dbleu < 100
        assert alone.blonde is not None and alone.lengths.total_ref_tokens > 0
        assert (both.dbleu, both.per_direction_dbleu, both.per_domain_dbleu) == (
            alone.dbleu, alone.per_direction_dbleu, alone.per_domain_dbleu
        )
        assert both.blonde == alone.blonde
        assert both.lengths == alone.lengths

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
    def test_shared_table_equals_fresh_tables(self, order):
        """Strategies scored through one ScoringTable get the metrics each
        gets from a fresh table, whatever the order they are scored in."""
        en = "He came home. However, she left early because they had worked."
        documents = [
            Document(id="en", src_lang="de", tgt_lang="en", domain="news",
                     source_segments=("a", "b"),
                     reference_segments=("He came home.", "However, she left early.")),
            Document(id="zh", src_lang="en", tgt_lang="zh", domain="news",
                     source_segments=("a",), reference_segments=("他回家了。",)),
            Document(id="de", src_lang="en", tgt_lang="de", domain="speech",
                     source_segments=("a",), reference_segments=("Er kam nach Hause.",)),
            Document(id="noref", src_lang="de", tgt_lang="en", domain="news",
                     source_segments=("a",)),
        ]
        testset = TestSet("t", documents)

        def strategy(en_segments, en_aligned, zh, de):
            return {
                "en": DocumentTranslation("en", en_segments, en_aligned),
                "zh": DocumentTranslation("zh", zh, True),
                "de": DocumentTranslation("de", de, True),
                "noref": DocumentTranslation("noref", ("They stayed.",), True),
            }

        segments = (en, "They will go.")
        strategies = [
            # The same en segments, aligned and misaligned: only the aligned
            # one is scored by BlonDE-lite.
            strategy(segments, True, ("他回家了。",), ("Er kam nach Hause.",)),
            strategy(segments, False, ("他回家。",), ("Er kam.",)),
            # Every hypothesis equal to its reference.
            strategy(documents[0].reference_segments, True, ("他回家了。",),
                     ("Er kam nach Hause.",)),
            strategy(segments, True, ("他回家。",), ("Er kam nach Hause.",)),
        ][::order]

        def score(translations, table=None):
            return score_strategy(testset, translations, table=table)

        table = ScoringTable()
        shared = [score(translations, table) for translations in strategies]
        assert shared == [score(translations) for translations in strategies]
        assert [m.blonde is None for m in shared[::order]] == [False, True, False, False]
        assert len(table.references) == 3 and len(table.scores) == 7

    def test_stats_of_different_orders_do_not_add(self):
        one = bleu_stats(["a b"], ["a b"], BleuConfig(max_n=1))
        four = bleu_stats(["a b"], ["a b"], BleuConfig())
        with pytest.raises(ValueError):
            one + four
        with pytest.raises(ValueError):
            bleu_from_stats(one, BleuConfig())
