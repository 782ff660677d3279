"""Segment-mean scoring protocol for external quality scorers.

The harness does not run neural metrics itself; it defines the aggregation
(arithmetic mean over aligned segments) and a bit-exact adapter contract:
the scorer receives UTF-8 TSV lines "src\\thyp\\tref", one segment per line
(embedded tabs/newlines in segment text are flattened to spaces), and must
return exactly one decimal score per input line.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from ..errors import ScorerError

ScoreTriple = tuple[str, str, str]  # (src, hyp, ref)


class SegmentScorer(Protocol):
    def score(self, pairs: Sequence[ScoreTriple]) -> list[float]: ...


def _tsv_safe(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def pairs_to_tsv(pairs: Sequence[ScoreTriple]) -> str:
    return "".join(f"{_tsv_safe(s)}\t{_tsv_safe(h)}\t{_tsv_safe(r)}\n" for s, h, r in pairs)


def parse_score_lines(text: str, expected: int) -> list[float]:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != expected:
        raise ScorerError(f"scorer returned {len(lines)} scores for {expected} segments")
    scores: list[float] = []
    for i, line in enumerate(lines):
        try:
            scores.append(float(line.strip()))
        except ValueError as exc:
            raise ScorerError(f"non-numeric score on line {i + 1}: {line.strip()!r}") from exc
    return scores


@dataclass(frozen=True)
class SubprocessScorer:
    """Pipes TSV to a command's stdin and reads one score per line from stdout."""

    command: tuple[str, ...]

    def score(self, pairs: Sequence[ScoreTriple]) -> list[float]:
        try:
            proc = subprocess.run(
                list(self.command),
                input=pairs_to_tsv(pairs),
                capture_output=True,
                text=True,
                encoding="utf-8",
            )
        except OSError as exc:
            raise ScorerError(f"cannot run scorer command {list(self.command)}: {exc}") from None
        if proc.returncode != 0:
            raise ScorerError(
                f"scorer command failed with code {proc.returncode}: {proc.stderr[:500]}"
            )
        return parse_score_lines(proc.stdout, len(pairs))


@dataclass(frozen=True)
class CallableScorer:
    """Wraps a plain function; handy for tests and notebook experiments."""

    fn: Callable[[ScoreTriple], float]

    def score(self, pairs: Sequence[ScoreTriple]) -> list[float]:
        return [float(self.fn(p)) for p in pairs]


def segment_mean_score(adapter: SegmentScorer, pairs: Sequence[ScoreTriple]) -> float:
    """Arithmetic mean of per-segment scores. Order-invariant by construction.
    A score that is not finite, nan or inf, is refused."""
    if not pairs:
        raise ScorerError("segment_mean_score needs at least one segment")
    scores = adapter.score(pairs)
    if len(scores) != len(pairs):
        raise ScorerError(f"adapter returned {len(scores)} scores for {len(pairs)} segments")
    for i, score in enumerate(scores):
        if not math.isfinite(score):
            raise ScorerError(f"score {score} for segment {i + 1} is not finite")
    return sum(scores) / len(scores)
