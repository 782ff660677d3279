"""Document-level BLEU: each document is one matching unit.

A document's segments are concatenated (single-space joined) into one token
sequence; clipped n-gram matches and n-gram totals are then pooled across
documents exactly as corpus BLEU pools sentences, and the brevity penalty is
computed from the pooled lengths. The result lives in [0, 100]. A document
pair's statistics (``bleu_stats``) add, so ``bleu_from_stats`` scores any
group of documents exactly from the sum of their records.

Conventions (declared, since they affect absolute scores): case-sensitive by
default, max_n=4, no smoothing; n-gram orders for which the hypothesis corpus
has no n-grams at all are excluded from the geometric mean, so degenerate
short corpora still score 100 against themselves.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from ..corpus import Document
from ..errors import DocturnError
from ..strategy import DocumentTranslation
from .tokenizers import tokenize


@dataclass(frozen=True)
class BleuConfig:
    max_n: int = 4
    smoothing: str = "none"  # none | add_k
    smoothing_k: float = 1.0
    tokenizer: str = "intl_13a_like"  # intl_13a_like | char
    case_sensitive: bool = True

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise ValueError("max_n must be >= 1")
        if self.smoothing not in ("none", "add_k"):
            raise ValueError(f"unknown smoothing: {self.smoothing!r}")


class ClippedCounts(NamedTuple):
    matched: int
    total: int


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def ngram_clipped_counts(
    hyp_tokens: Sequence[str], ref_tokens: Sequence[str], n: int
) -> ClippedCounts:
    """matched = sum over n-grams of min(hyp count, ref count); total = hyp n-grams."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = max(0, len(hyp_tokens) - n + 1)
    if total == 0:
        return ClippedCounts(0, 0)
    clipped = _ngram_counts(hyp_tokens, n) & _ngram_counts(ref_tokens, n)
    return ClippedCounts(sum(clipped.values()), total)


@dataclass(frozen=True)
class BleuStats:
    """Sufficient statistics of corpus BLEU: clipped n-gram matches and
    hypothesis n-gram totals per order (index n-1), and the token lengths.

    The statistics of a document set are the sum of its documents'
    statistics, so any grouping of documents scores exactly by adding records.
    """

    matched: tuple[int, ...]
    total: tuple[int, ...]
    hyp_len: int
    ref_len: int

    def __add__(self, other: BleuStats) -> BleuStats:
        if not isinstance(other, BleuStats):
            return NotImplemented
        if len(self.matched) != len(other.matched):
            raise ValueError("cannot add BLEU statistics of different max_n")
        return BleuStats(
            matched=tuple(map(operator.add, self.matched, other.matched)),
            total=tuple(map(operator.add, self.total, other.total)),
            hyp_len=self.hyp_len + other.hyp_len,
            ref_len=self.ref_len + other.ref_len,
        )


def brevity_penalty(hyp_len: int, ref_len: int) -> float:
    """1 when the hypothesis is not shorter; exp(1 - ref/hyp) otherwise.
    An empty hypothesis against a non-empty reference is penalized to 0."""
    if hyp_len < 0 or ref_len < 0:
        raise ValueError("lengths must be non-negative")
    if hyp_len == 0:
        return 0.0 if ref_len > 0 else 1.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def _document_tokens(segments: Iterable[str], cfg: BleuConfig) -> list[str]:
    text = " ".join(segments)
    if not cfg.case_sensitive:
        text = text.casefold()
    return tokenize(text, cfg.tokenizer)


def bleu_stats(
    hyp_segments: Iterable[str], ref_segments: Iterable[str], cfg: BleuConfig
) -> BleuStats:
    """Statistics of one document pair; each side's segments are joined and
    tokenized once."""
    hyp_tokens = _document_tokens(hyp_segments, cfg)
    ref_tokens = _document_tokens(ref_segments, cfg)
    counts = [ngram_clipped_counts(hyp_tokens, ref_tokens, n) for n in range(1, cfg.max_n + 1)]
    return BleuStats(
        matched=tuple(c.matched for c in counts),
        total=tuple(c.total for c in counts),
        hyp_len=len(hyp_tokens),
        ref_len=len(ref_tokens),
    )


def bleu_from_stats(stats: BleuStats, cfg: BleuConfig) -> float:
    """BLEU in [0, 100] from pooled statistics."""
    if len(stats.matched) != cfg.max_n:
        raise ValueError(f"statistics have {len(stats.matched)} orders, config max_n={cfg.max_n}")
    usable = [i for i in range(cfg.max_n) if stats.total[i] > 0]
    if not usable:
        return 0.0
    precisions: list[float] = []
    for i in usable:
        if cfg.smoothing == "add_k":
            precisions.append(
                (stats.matched[i] + cfg.smoothing_k) / (stats.total[i] + cfg.smoothing_k)
            )
        else:
            if stats.matched[i] == 0:
                return 0.0
            precisions.append(stats.matched[i] / stats.total[i])
    if len(precisions) == 1:
        geo_mean = precisions[0]
    else:
        geo_mean = math.exp(sum(math.log(p) for p in precisions) / len(precisions))
    return 100.0 * brevity_penalty(stats.hyp_len, stats.ref_len) * geo_mean


def doc_bleu(
    hyp_docs: Sequence[DocumentTranslation],
    ref_docs: Sequence[Document],
    cfg: BleuConfig | None = None,
) -> float:
    """Corpus BLEU with documents as the matching unit.

    Hypotheses are aligned to references by document id; every hypothesis
    must have a reference document with reference segments.
    """
    cfg = cfg or BleuConfig()
    refs_by_id = {d.id: d for d in ref_docs}
    missing = [
        h.doc_id
        for h in hyp_docs
        if h.doc_id not in refs_by_id or refs_by_id[h.doc_id].reference_segments is None
    ]
    if missing:
        raise DocturnError(f"missing references for documents: {sorted(missing)}")
    if not hyp_docs:
        raise DocturnError("doc_bleu needs at least one document")
    per_doc = [
        bleu_stats(h.hypothesis_segments, refs_by_id[h.doc_id].reference_segments or (), cfg)
        for h in hyp_docs
    ]
    return bleu_from_stats(functools.reduce(operator.add, per_doc), cfg)
