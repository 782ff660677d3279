"""BlonDE-lite: discourse-category F1 from closed resource lists.

A deliberately lightweight reimplementation of the document-level discourse
metric idea: instead of neural taggers, each category extracts a marker
multiset from hypothesis and reference documents using plain word lists and
surface rules, then scores precision/recall via multiset intersection over
the whole document.

Categories:
  pronouns     closed-list token match, case-insensitive.
  connectives  closed-list phrase match, case-insensitive.
  tense        auxiliary words plus verb-suffix patterns; the marker is the
               auxiliary itself or the suffix tag, so tense agreement is
               scored rather than lexical identity.
  entities     maximal runs of capitalized tokens, excluding sentence-initial
               tokens; matched as exact strings (this also covers the
               transliteration check, folded in here).

Scores are labeled BlonDE-lite and are not numerically comparable to the
original metric. Unsupported target languages score as "not computed".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from typing import Iterable, Sequence

from ..prompts import base_language
from .tokenizers import tokenize_13a_like

CATEGORIES = ("pronouns", "connectives", "tense", "entities")

_SENTENCE_END = {".", "!", "?", "…", "。", "！", "？"}


def _read_list(text: str) -> list[str]:
    entries: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


@dataclass(frozen=True)
class BlondeResources:
    """Closed marker lists for one target language."""

    language: str
    pronouns: frozenset[str]
    connectives: tuple[tuple[str, ...], ...]  # each entry tokenized, case-folded
    tense_auxiliaries: frozenset[str]
    tense_suffixes: tuple[str, ...]  # longest first
    entity_rule: str = "capitalized_sequence"

    def __post_init__(self) -> None:
        if not self.pronouns or not self.connectives or not self.tense_auxiliaries:
            raise ValueError(f"resource lists for '{self.language}' must be non-empty")

    @cached_property
    def connectives_by_first_token(self) -> dict[str, list[tuple[tuple[str, ...], str]]]:
        """(phrase, marker) pairs keyed by the phrase's first token, in list
        order; a repeated list entry stays repeated, as it counts twice."""
        index: dict[str, list[tuple[tuple[str, ...], str]]] = {}
        for phrase in self.connectives:
            index.setdefault(phrase[0], []).append((phrase, " ".join(phrase)))
        return index


@lru_cache(maxsize=None)
def load_blonde_resources(tgt_lang: str) -> BlondeResources | None:
    """Resource lists for a target language, or None when unsupported.
    Loaded once per language; the result is immutable and shared."""
    base = base_language(tgt_lang)
    root = resources.files("docturn.resources.blonde")
    lang_dir = root.joinpath(base)
    try:
        pronouns = _read_list(lang_dir.joinpath("pronouns.txt").read_text("utf-8"))
        connectives = _read_list(lang_dir.joinpath("connectives.txt").read_text("utf-8"))
        auxiliaries = _read_list(lang_dir.joinpath("tense_auxiliaries.txt").read_text("utf-8"))
        suffixes = _read_list(lang_dir.joinpath("tense_suffixes.txt").read_text("utf-8"))
    except FileNotFoundError:
        return None
    return BlondeResources(
        language=base,
        pronouns=frozenset(p.casefold() for p in pronouns),
        connectives=tuple(
            tuple(c.casefold().split()) for c in sorted(connectives, key=len, reverse=True)
        ),
        tense_auxiliaries=frozenset(a.casefold() for a in auxiliaries),
        tense_suffixes=tuple(sorted(suffixes, key=len, reverse=True)),
    )


def _doc_tokens(segments: Iterable[str]) -> list[str]:
    return tokenize_13a_like(" ".join(segments))


def extract_pronouns(tokens: Sequence[str], res: BlondeResources) -> Counter:
    return Counter(t.casefold() for t in tokens if t.casefold() in res.pronouns)


def extract_connectives(tokens: Sequence[str], res: BlondeResources) -> Counter:
    """Every occurrence of every listed phrase, overlapping and nested ones
    included ("even though" also counts "though")."""
    folded = tuple(t.casefold() for t in tokens)
    index = res.connectives_by_first_token
    found: Counter = Counter()
    for i, token in enumerate(folded):
        for phrase, marker in index.get(token, ()):
            if folded[i : i + len(phrase)] == phrase:
                found[marker] += 1
    return found


def extract_tense_markers(tokens: Sequence[str], res: BlondeResources) -> Counter:
    found: Counter = Counter()
    for token in tokens:
        folded = token.casefold()
        if folded in res.tense_auxiliaries:
            found[folded] += 1
            continue
        if not folded.isalpha():
            continue
        for suffix in res.tense_suffixes:
            if len(folded) > len(suffix) + 1 and folded.endswith(suffix):
                found[f"-{suffix}"] += 1
                break
    return found


def _is_capitalized(token: str) -> bool:
    return bool(token) and token[0].isalpha() and token[0].isupper()


def extract_entities(tokens: Sequence[str], res: BlondeResources) -> Counter:
    """Maximal capitalized-token runs; a sentence's first token never starts
    or joins a run (sentence-initial capitalization is not entity evidence)."""
    found: Counter = Counter()
    run: list[str] = []
    sentence_initial = True
    for token in tokens:
        if token in _SENTENCE_END:
            if run:
                found[" ".join(run)] += 1
                run = []
            sentence_initial = True
            continue
        eligible = _is_capitalized(token) and not sentence_initial
        if eligible:
            run.append(token)
        else:
            if run:
                found[" ".join(run)] += 1
                run = []
        if token[:1].isalnum():
            sentence_initial = False
    if run:
        found[" ".join(run)] += 1
    return found


_EXTRACTORS = {
    "pronouns": extract_pronouns,
    "connectives": extract_connectives,
    "tense": extract_tense_markers,
    "entities": extract_entities,
}


@dataclass(frozen=True)
class CategoryScore:
    precision: float
    recall: float
    f1: float
    matched: int
    hyp_count: int
    ref_count: int


@dataclass(frozen=True)
class BlondeReport:
    categories: dict[str, CategoryScore]
    combined_f1: float | None  # mean F1 over categories present in the reference

    def to_dict(self) -> dict:
        return {
            "categories": {
                name: {
                    "precision": c.precision,
                    "recall": c.recall,
                    "f1": c.f1,
                    "matched": c.matched,
                    "hyp_count": c.hyp_count,
                    "ref_count": c.ref_count,
                }
                for name, c in self.categories.items()
            },
            "combined_f1": self.combined_f1,
        }


def score_counts(matched: int, hyp_count: int, ref_count: int) -> CategoryScore:
    precision = matched / hyp_count if hyp_count else 0.0
    recall = matched / ref_count if ref_count else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return CategoryScore(precision, recall, f1, matched, hyp_count, ref_count)


def category_counts(
    hyp_segments: Iterable[str],
    ref_segments: Iterable[str],
    res: BlondeResources,
) -> dict[str, tuple[int, int, int]]:
    """(matched, hyp_count, ref_count) per category for one document pair."""
    hyp_tokens = _doc_tokens(hyp_segments)
    ref_tokens = _doc_tokens(ref_segments)
    out: dict[str, tuple[int, int, int]] = {}
    for name in CATEGORIES:
        extractor = _EXTRACTORS[name]
        hyp_markers = extractor(hyp_tokens, res)
        ref_markers = extractor(ref_tokens, res)
        matched = sum((hyp_markers & ref_markers).values())
        out[name] = (matched, sum(hyp_markers.values()), sum(ref_markers.values()))
    return out


def report_from_counts(counts: dict[str, tuple[int, int, int]]) -> BlondeReport:
    categories = {
        name: score_counts(*counts[name]) for name in CATEGORIES if name in counts
    }
    present = [c.f1 for c in categories.values() if c.ref_count > 0]
    combined = sum(present) / len(present) if present else None
    return BlondeReport(categories=categories, combined_f1=combined)


def blonde_lite(
    hyp_segments: Iterable[str],
    ref_segments: Iterable[str],
    res: BlondeResources,
) -> BlondeReport:
    """Per-category P/R/F1 plus the combined mean over reference-present
    categories, for one aligned document pair."""
    return report_from_counts(category_counts(hyp_segments, ref_segments, res))


def pooled_report(per_doc_counts: Iterable[dict[str, tuple[int, int, int]]]) -> BlondeReport:
    """Micro-averaged report: counts summed across documents before scoring."""
    totals = {name: [0, 0, 0] for name in CATEGORIES}
    for counts in per_doc_counts:
        for name, (m, h, r) in counts.items():
            totals[name][0] += m
            totals[name][1] += h
            totals[name][2] += r
    return report_from_counts({name: tuple(v) for name, v in totals.items()})
