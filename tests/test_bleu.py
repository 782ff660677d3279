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
from docturn.metrics.report import score_strategy
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

    def test_smoothing_add_k(self):
        hyp, ref = doc_pair("a", ["aaa bbb"], ["ccc ddd"])
        score = doc_bleu([hyp], [ref], BleuConfig(max_n=1, smoothing="add_k", smoothing_k=1.0))
        # Direct formula: p1 = (0+1)/(2+1); BP = 1.
        assert score == pytest.approx(100.0 / 3.0, rel=1e-9)


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

    def test_oracle_equivalence_smoothed_and_plain(self):
        rng = random.Random(7)
        for trial in range(50):
            pairs = self._random_corpus(rng, rng.randint(1, 5))
            hyps = [h for h, _ in pairs]
            refs = [r for _, r in pairs]
            token_pairs = [
                (" ".join(h.hypothesis_segments).split(), " ".join(r.reference_segments).split())
                for h, r in pairs
            ]
            plain = doc_bleu(hyps, refs)
            assert plain == pytest.approx(oracles.oracle_corpus_bleu(token_pairs), rel=1e-9, abs=1e-12)
            smoothed = doc_bleu(hyps, refs, BleuConfig(smoothing="add_k", smoothing_k=1.0))
            assert smoothed == pytest.approx(
                oracles.oracle_corpus_bleu(token_pairs, smoothing_k=1.0), rel=1e-9, abs=1e-12
            )


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


def _approx_oracle(pairs, **kwargs):
    return pytest.approx(oracles.oracle_corpus_bleu(pairs, **kwargs), rel=1e-9, abs=1e-12)


class TestPooledStatistics:
    @settings(max_examples=150, deadline=None)
    @given(docs=random_docs, smoothed=st.booleans())
    def test_slice_scores_from_summed_stats_equal_oracle(self, docs, smoothed):
        cfg = BleuConfig(smoothing="add_k") if smoothed else BleuConfig()
        slices: dict = {}
        for direction, domain, hyp, ref in docs:
            stats = bleu_stats([" ".join(hyp)], [" ".join(ref)], cfg)
            for key in (("direction", direction), ("slice", direction, domain), ("all",)):
                pooled, pairs = slices.get(key, (None, []))
                slices[key] = (stats if pooled is None else pooled + stats, pairs + [(hyp, ref)])
        for pooled, pairs in slices.values():
            assert bleu_from_stats(pooled, cfg) == _approx_oracle(
                pairs, smoothing_k=1.0 if smoothed else None
            )

    @settings(max_examples=100, deadline=None)
    @given(docs=random_docs)
    def test_score_strategy_aggregates_equal_oracle(self, docs):
        documents, translations = [], {}
        for i, (direction, domain, hyp, ref) in enumerate(docs):
            src, tgt = DIRECTIONS[direction]
            doc = Document(id=f"d{i}", src_lang=src, tgt_lang=tgt, domain=domain,
                           source_segments=("source",), reference_segments=(" ".join(ref),))
            documents.append(doc)
            translations[doc.id] = DocumentTranslation(
                doc_id=doc.id, hypothesis_segments=(" ".join(hyp),), alignment_ok=True
            )
        metrics = score_strategy(TestSet("t", documents), translations, compute_blonde=False)

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
        for row, (_, _, hyp, ref) in zip(metrics.documents, docs):
            assert row.dbleu == _approx_oracle([(hyp, ref)])

    def test_stats_of_different_orders_do_not_add(self):
        one = bleu_stats(["a b"], ["a b"], BleuConfig(max_n=1))
        four = bleu_stats(["a b"], ["a b"], BleuConfig())
        with pytest.raises(ValueError):
            one + four
        with pytest.raises(ValueError):
            bleu_from_stats(one, BleuConfig())
