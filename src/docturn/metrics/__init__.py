"""Scoring: document-level BLEU, BlonDE-lite discourse categories,
segment-mean external scoring, and length/omission statistics."""

from .bleu import BleuConfig, brevity_penalty, doc_bleu, ngram_clipped_counts
from .blonde import BlondeResources, blonde_lite, load_blonde_resources
from .lengths import LengthReport, LengthRow
from .report import ScoringConfig, StrategyMetrics, length_report, score_strategy
from .segment_mean import CallableScorer, SubprocessScorer, segment_mean_score
from .tokenizers import tokenize, tokenizer_for_language

__all__ = [
    "BleuConfig",
    "BlondeResources",
    "CallableScorer",
    "LengthReport",
    "LengthRow",
    "ScoringConfig",
    "StrategyMetrics",
    "SubprocessScorer",
    "blonde_lite",
    "brevity_penalty",
    "doc_bleu",
    "length_report",
    "load_blonde_resources",
    "ngram_clipped_counts",
    "score_strategy",
    "segment_mean_score",
    "tokenize",
    "tokenizer_for_language",
]
