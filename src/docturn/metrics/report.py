"""Per-strategy metric assembly.

Bundles document-level BLEU (per direction and averaged), BlonDE-lite,
segment-mean external scoring and length statistics into one report, tracking
which metrics could not be computed and why instead of defaulting them.
ScoringConfig, the run config's `scoring` object, is what score_strategy
reads: it builds its own BLEU settings and segment scorer from it, so a
report run scores each (backend, strategy) once and every table is a view
of those StrategyMetrics.

Each side of a scored document is tokenized and counted once, into one
DocumentSide: its BLEU n-grams under its direction's tokenizer, its
BlonDE-lite markers and its length. When the direction's BLEU tokens are
13a-like and case-sensitive, BlonDE-lite reuses them instead of tokenizing
again. A reference side does not depend on the hypothesis, and a document's
scores depend only on its reference side, its hypothesis segments and whether
they are aligned, so callers that score several strategies against one test
set pass one ScoringTable to every call: each reference side is built once
per report run, and each distinct hypothesis is tokenized and clipped once.
The per-direction and per-domain dBLEU are computed from sums of
per-document statistics, which is exact: corpus BLEU depends on the summed
statistics alone. The length table is counted from the same records, and
length_report is a view of it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from ..corpus import Document, TestSet
from ..chat import count_tokens
from ..errors import ConfigError
from ..strategy import DocumentTranslation
from . import blonde
from .blonde import (
    BlondeReport,
    BlondeResources,
    counts_against,
    load_blonde_resources,
    marker_counts,
    pooled_report,
)
from .blonde import category_counts  # noqa: F401  (re-exported for existing importers)
from .bleu import (
    BleuConfig,
    BleuStats,
    NgramSide,
    bleu_from_stats,
    document_tokens,
    ngram_side,
    stats_against,
)
from .bleu import doc_bleu  # noqa: F401  (re-exported for existing importers)
from .lengths import LengthReport, LengthRow
from .segment_mean import SubprocessScorer, segment_mean_score
from .tokenizers import tokenizer_for_language

FLAG_SEGMENT_METRICS_SKIPPED = "segment_metrics_skipped"
FLAG_NO_REFERENCE = "no_reference"


@dataclass(frozen=True)
class ScoringConfig:
    """How a run's reports score its translations: BlonDE-lite on or off,
    the external segment scorer's command (none when empty), the length
    table's top-N, and BLEU's case sensitivity and maximum n-gram order."""

    blonde: bool = True
    scorer_command: tuple[str, ...] = ()
    top_n: int = 10
    case_sensitive: bool = True
    max_n: int = 4

    def __post_init__(self) -> None:
        if self.top_n < 0:
            raise ConfigError("top_n: must be >= 0")
        if self.max_n < 1:
            raise ConfigError("max_n: must be >= 1")


@dataclass
class StrategyMetrics:
    """Aggregate metrics for one (backend, strategy) cell set."""

    per_direction_dbleu: dict[str, float] = field(default_factory=dict)
    dbleu: float | None = None  # unweighted mean over directions
    per_domain_dbleu: dict[str, float] = field(default_factory=dict)
    blonde: BlondeReport | None = None  # pooled over supported-language documents
    segment_mean: float | None = None
    lengths: LengthReport | None = None
    flags: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class DocumentSide:
    """What scoring needs of one side of a document pair: its BLEU n-grams,
    its BlonDE-lite markers (None when not scored) and its token count."""

    ngrams: NgramSide
    markers: dict[str, Counter] | None
    tokens: int


def document_side(
    segments: Iterable[str],
    bleu_cfg: BleuConfig,
    res: BlondeResources | None,
) -> DocumentSide:
    segments = tuple(segments)
    tokens = document_tokens(segments, bleu_cfg)
    markers = None
    if res is not None:
        # BlonDE-lite tokenizes by the 13a-like rule with case kept.
        same = bleu_cfg.tokenizer == "intl_13a_like" and bleu_cfg.case_sensitive
        markers = marker_counts(tokens if same else blonde.document_tokens(segments), res)
    return DocumentSide(
        ngrams=ngram_side(tokens, bleu_cfg.max_n),
        markers=markers,
        tokens=sum(count_tokens(s) for s in segments),
    )


@dataclass(frozen=True)
class DocumentScore:
    """What one scored document adds to a strategy's aggregates: its BLEU
    statistics, its reference and hypothesis token counts, and its BlonDE-lite
    counts (None when not scored)."""

    bleu: BleuStats
    ref_tokens: int
    hyp_tokens: int
    blonde: dict[str, tuple[int, int, int]] | None


# (doc id, direction BLEU config, BlonDE-lite scored)
SideKey = tuple[str, BleuConfig, bool]


@dataclass
class ScoringTable:
    """The scoring work shared by the score_strategy calls of one report run,
    all against one test set: each document's reference side, and the score of
    each distinct (reference side, hypothesis segments, alignment_ok). The
    alignment belongs to the key because BlonDE-lite skips a misaligned
    hypothesis."""

    references: dict[SideKey, DocumentSide] = field(default_factory=dict)
    scores: dict[tuple[SideKey, tuple[str, ...], bool], DocumentScore] = field(
        default_factory=dict
    )

    def score(
        self,
        doc: Document,
        hyp: DocumentTranslation,
        dir_cfg: BleuConfig,
        res: BlondeResources | None,
    ) -> DocumentScore:
        """hyp scored against doc's reference, built on first use."""
        side_key = (doc.id, dir_cfg, res is not None)
        key = (side_key, hyp.hypothesis_segments, hyp.alignment_ok)
        score = self.scores.get(key)
        if score is not None:
            return score
        ref = self.references.get(side_key)
        if ref is None:
            ref = self.references[side_key] = document_side(
                doc.reference_segments or (), dir_cfg, res
            )
        side = document_side(hyp.hypothesis_segments, dir_cfg, res if hyp.alignment_ok else None)
        # BlonDE-lite: pooled over aligned documents whose target language
        # has resources.
        blonde_counts = None
        if side.markers is not None and ref.markers is not None:
            blonde_counts = counts_against(side.markers, ref.markers)
        score = self.scores[key] = DocumentScore(
            bleu=stats_against(side.ngrams, ref.ngrams),
            ref_tokens=ref.tokens,
            hyp_tokens=side.tokens,
            blonde=blonde_counts,
        )
        return score


def _accumulate(totals: dict[str, BleuStats], key: str, stats: BleuStats) -> None:
    totals[key] = totals[key] + stats if key in totals else stats


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def score_strategy(
    testset: TestSet,
    translations: Mapping[str, DocumentTranslation],
    scoring: ScoringConfig = ScoringConfig(),
    table: ScoringTable | None = None,
) -> StrategyMetrics:
    """Score every translated document of one strategy against the test set.

    dBLEU is computed per language direction with a direction-appropriate
    tokenizer and averaged (unweighted) across directions; the per-domain
    table averages each domain's per-direction scores the same way. Lengths
    are counted by chat.count_tokens, the rule the cost ledgers and the
    context budget count by, in every language. Segment-mean runs
    scoring.scorer_command, if it is set, over aligned documents. Reference
    sides and document scores are taken from, and added to, table.
    """
    cfg = BleuConfig(max_n=scoring.max_n, case_sensitive=scoring.case_sensitive)
    metrics = StrategyMetrics()
    table = ScoringTable() if table is None else table

    scored: list[tuple[Document, DocumentTranslation]] = []
    for doc in testset:
        if doc.id not in translations:
            continue
        if doc.reference_segments is None:
            metrics.flags.add(FLAG_NO_REFERENCE)
            continue
        scored.append((doc, translations[doc.id]))

    # One score per distinct hypothesis of a document, from one side per
    # reference (both shared through table); the BLEU statistics, BlonDE-lite
    # counts and lengths are summed from the scores.
    dir_cfgs: dict[str, BleuConfig] = {}
    direction_stats: dict[str, BleuStats] = {}
    slice_stats: dict[str, dict[str, BleuStats]] = {}  # direction -> domain -> stats
    length_rows: list[LengthRow] = []
    blonde_counts = []
    for doc, hyp in scored:
        dir_cfg = dir_cfgs.get(doc.direction)
        if dir_cfg is None:
            dir_cfg = replace(cfg, tokenizer=tokenizer_for_language(doc.tgt_lang))
            dir_cfgs[doc.direction] = dir_cfg
        res = load_blonde_resources(doc.tgt_lang) if scoring.blonde else None
        score = table.score(doc, hyp, dir_cfg, res)
        _accumulate(direction_stats, doc.direction, score.bleu)
        _accumulate(slice_stats.setdefault(doc.direction, {}), doc.domain, score.bleu)
        length_rows.append(LengthRow(doc.id, score.ref_tokens, score.hyp_tokens))
        if score.blonde is not None:
            blonde_counts.append(score.blonde)
    if blonde_counts:
        metrics.blonde = pooled_report(blonde_counts)

    # Per-direction scores, averaged unweighted; per-domain scores average
    # each (direction, domain) slice's score over the directions in which
    # the domain occurs.
    domain_direction_scores: dict[str, list[float]] = {}
    for direction in sorted(direction_stats):
        dir_cfg = dir_cfgs[direction]
        metrics.per_direction_dbleu[direction] = bleu_from_stats(
            direction_stats[direction], dir_cfg
        )
        for domain, stats in slice_stats[direction].items():
            domain_direction_scores.setdefault(domain, []).append(
                bleu_from_stats(stats, dir_cfg)
            )
    metrics.dbleu = _mean(list(metrics.per_direction_dbleu.values()))
    metrics.per_domain_dbleu = {
        domain: sum(vals) / len(vals) for domain, vals in sorted(domain_direction_scores.items())
    }

    # Segment-mean external scoring over alignment-safe documents only.
    if scoring.scorer_command:
        pairs = []
        for doc, hyp in scored:
            if not hyp.alignment_ok:
                continue
            refs = doc.reference_segments or ()
            for src, h, ref in zip(doc.source_segments, hyp.hypothesis_segments, refs):
                pairs.append((src, h, ref))
        if pairs:
            scorer = SubprocessScorer(scoring.scorer_command)
            metrics.segment_mean = segment_mean_score(scorer, pairs)
    if any(not hyp.alignment_ok for _, hyp in scored):
        metrics.flags.add(FLAG_SEGMENT_METRICS_SKIPPED)

    metrics.lengths = LengthReport.from_rows(length_rows, scoring.top_n)
    return metrics


def length_report(
    testset: TestSet,
    translations: Mapping[str, DocumentTranslation],
    top_n: int = 10,
) -> LengthReport:
    """score_strategy's length table: the top-N longest documents by
    reference tokens, ties broken by doc id.

    Each document is counted by chat.count_tokens, as the cost ledgers
    count. Documents without references or without a translation are
    skipped. A top_n larger than the corpus returns the full corpus.
    """
    return score_strategy(testset, translations, ScoringConfig(blonde=False, top_n=top_n)).lengths
