"""Per-strategy metric assembly.

Bundles document-level BLEU (per direction and averaged), BlonDE-lite,
segment-mean external scores and length statistics into one report, tracking
which metrics could not be computed and why instead of defaulting them.

Each scored document is tokenized and counted once, into one BLEU statistics
record under its direction's tokenizer. The per-direction, per-domain and
per-document dBLEU are computed from sums of those records, which is exact:
corpus BLEU depends on the summed statistics alone. BlonDE-lite resources are
loaded once per target language.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from ..corpus import Document, TestSet
from ..costing import TokenizerSpec, count_tokens, spec_for_target_language
from ..strategy import DocumentTranslation
from .blonde import BlondeReport, category_counts, load_blonde_resources, pooled_report
from .bleu import BleuConfig, BleuStats, bleu_from_stats, bleu_stats
from .bleu import doc_bleu  # noqa: F401  (re-exported for existing importers)
from .lengths import LengthReport, length_report
from .segment_mean import SegmentScorer, segment_mean_score
from .tokenizers import tokenizer_for_language

FLAG_SEGMENT_METRICS_SKIPPED = "segment_metrics_skipped"
FLAG_NO_REFERENCE = "no_reference"


@dataclass(frozen=True)
class DocumentMetrics:
    doc_id: str
    direction: str
    domain: str
    dbleu: float | None
    blonde: BlondeReport | None
    ref_tokens: int | None
    hyp_tokens: int | None
    alignment_ok: bool
    flags: frozenset[str] = frozenset()


@dataclass
class StrategyMetrics:
    """Aggregate metrics for one (backend, strategy) cell set."""

    per_direction_dbleu: dict[str, float] = field(default_factory=dict)
    dbleu: float | None = None  # unweighted mean over directions
    per_domain_dbleu: dict[str, float] = field(default_factory=dict)
    blonde: BlondeReport | None = None  # pooled over supported-language documents
    segment_mean: float | None = None
    lengths: LengthReport | None = None
    documents: list[DocumentMetrics] = field(default_factory=list)
    flags: set[str] = field(default_factory=set)


def _direction_bleu_config(cfg: BleuConfig, tgt_lang: str, auto_tokenizer: bool) -> BleuConfig:
    if not auto_tokenizer:
        return cfg
    return replace(cfg, tokenizer=tokenizer_for_language(tgt_lang))


def _accumulate(totals: dict[str, BleuStats], key: str, stats: BleuStats) -> None:
    totals[key] = totals[key] + stats if key in totals else stats


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def score_strategy(
    testset: TestSet,
    translations: Mapping[str, DocumentTranslation],
    *,
    bleu_config: BleuConfig | None = None,
    auto_tokenizer: bool = True,
    compute_blonde: bool = True,
    scorer: SegmentScorer | None = None,
    length_spec: TokenizerSpec | None = None,
    top_n: int = 10,
) -> StrategyMetrics:
    """Score every translated document of one strategy against the test set.

    dBLEU is computed per language direction with a direction-appropriate
    tokenizer and averaged (unweighted) across directions; the per-domain
    table averages each domain's per-direction scores the same way.
    """
    cfg = bleu_config or BleuConfig()
    metrics = StrategyMetrics()

    scored: list[tuple[Document, DocumentTranslation]] = []
    for doc in testset:
        if doc.id not in translations:
            continue
        if doc.reference_segments is None:
            metrics.flags.add(FLAG_NO_REFERENCE)
            metrics.documents.append(
                DocumentMetrics(
                    doc_id=doc.id,
                    direction=doc.direction,
                    domain=doc.domain,
                    dbleu=None,
                    blonde=None,
                    ref_tokens=None,
                    hyp_tokens=None,
                    alignment_ok=translations[doc.id].alignment_ok,
                    flags=frozenset({FLAG_NO_REFERENCE}),
                )
            )
            continue
        scored.append((doc, translations[doc.id]))

    # Document-level BLEU: one statistics record per scored document, with
    # its direction's tokenizer. Every dBLEU below is a sum of these records.
    dir_cfgs: dict[str, BleuConfig] = {}
    direction_stats: dict[str, BleuStats] = {}
    slice_stats: dict[str, dict[str, BleuStats]] = {}  # direction -> domain -> stats
    doc_stats: list[BleuStats] = []
    for doc, hyp in scored:
        dir_cfg = dir_cfgs.setdefault(
            doc.direction, _direction_bleu_config(cfg, doc.tgt_lang, auto_tokenizer)
        )
        stats = bleu_stats(hyp.hypothesis_segments, doc.reference_segments or (), dir_cfg)
        doc_stats.append(stats)
        _accumulate(direction_stats, doc.direction, stats)
        _accumulate(slice_stats.setdefault(doc.direction, {}), doc.domain, stats)

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

    # BlonDE-lite: pooled over documents whose target language has resources.
    blonde_counts = []
    per_doc_blonde: dict[str, BlondeReport | None] = {}
    if compute_blonde:
        for doc, hyp in scored:
            res = load_blonde_resources(doc.tgt_lang)
            if res is None or not hyp.alignment_ok:
                per_doc_blonde[doc.id] = None
                continue
            counts = category_counts(hyp.hypothesis_segments, doc.reference_segments or (), res)
            blonde_counts.append(counts)
            per_doc_blonde[doc.id] = pooled_report([counts])
        if blonde_counts:
            metrics.blonde = pooled_report(blonde_counts)

    # Segment-mean external scoring over alignment-safe documents only.
    if scorer is not None:
        pairs = []
        for doc, hyp in scored:
            if not hyp.alignment_ok:
                metrics.flags.add(FLAG_SEGMENT_METRICS_SKIPPED)
                continue
            refs = doc.reference_segments or ()
            for src, h, ref in zip(doc.source_segments, hyp.hypothesis_segments, refs):
                pairs.append((src, h, ref))
        if pairs:
            metrics.segment_mean = segment_mean_score(scorer, pairs)
    if any(not hyp.alignment_ok for _, hyp in scored):
        metrics.flags.add(FLAG_SEGMENT_METRICS_SKIPPED)

    # Length statistics.
    metrics.lengths = length_report(testset, translations, length_spec, top_n)

    # Per-document detail rows.
    for (doc, hyp), stats in zip(scored, doc_stats):
        tgt_spec = (
            length_spec
            if length_spec is not None
            else spec_for_target_language(doc.tgt_lang)
        )
        ref_tokens = sum(count_tokens(s, tgt_spec) for s in doc.reference_segments or ())
        hyp_tokens = sum(count_tokens(s, tgt_spec) for s in hyp.hypothesis_segments)
        flags: set[str] = set()
        if not hyp.alignment_ok:
            flags.add(FLAG_SEGMENT_METRICS_SKIPPED)
        metrics.documents.append(
            DocumentMetrics(
                doc_id=doc.id,
                direction=doc.direction,
                domain=doc.domain,
                dbleu=bleu_from_stats(stats, dir_cfgs[doc.direction]),
                blonde=per_doc_blonde.get(doc.id),
                ref_tokens=ref_tokens,
                hyp_tokens=hyp_tokens,
                alignment_ok=hyp.alignment_ok,
                flags=frozenset(flags),
            )
        )
    return metrics
