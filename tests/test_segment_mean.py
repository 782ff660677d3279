"""External-scorer adapter contract and segment-mean aggregation."""

from __future__ import annotations

import re
import sys

import pytest

from docturn.errors import ScorerError
from docturn.metrics.segment_mean import (
    CallableScorer,
    SubprocessScorer,
    pairs_to_tsv,
    segment_mean_score,
)

PAIRS = [
    ("src one", "hyp one", "ref one"),
    ("src two", "hyp two", "ref two"),
    ("src three", "hyp three", "ref three"),
    ("src four", "hyp four", "ref four"),
]


def test_constant_scorer_mean():
    assert segment_mean_score(CallableScorer(lambda pair: 0.5), PAIRS) == 0.5


def test_mean_arithmetic():
    values = iter([0.2, 0.4, 0.6])
    scorer = CallableScorer(lambda pair: next(values))
    assert segment_mean_score(scorer, PAIRS[:3]) == pytest.approx(0.4)


def test_order_invariance():
    scorer = CallableScorer(lambda pair: float(len(pair[1])))
    forward = segment_mean_score(scorer, PAIRS)
    backward = segment_mean_score(scorer, list(reversed(PAIRS)))
    assert forward == pytest.approx(backward)


def test_tsv_flattens_internal_tabs_and_newlines():
    tsv = pairs_to_tsv([("a\tb", "c\nd", "e")])
    assert tsv == "a b\tc d\te\n"


def test_empty_pairs_rejected():
    with pytest.raises(ScorerError):
        segment_mean_score(CallableScorer(lambda pair: 1.0), [])


def test_non_finite_score_rejected():
    scorer = CallableScorer(lambda pair: float("nan") if pair == PAIRS[1] else 0.5)
    with pytest.raises(ScorerError, match="^score nan for segment 2 is not finite$"):
        segment_mean_score(scorer, PAIRS)


class TestSubprocessScorer:
    def test_line_aligned_round_trip(self):
        # A scorer that emits the hypothesis column's word count per line.
        script = "import sys\n" \
                 "for line in sys.stdin:\n" \
                 "    print(len(line.split('\\t')[1].split()))"
        scorer = SubprocessScorer((sys.executable, "-c", script))
        assert segment_mean_score(scorer, PAIRS) == pytest.approx(2.0)

    def test_line_count_mismatch_rejected(self):
        scorer = SubprocessScorer((sys.executable, "-c", "print(0.5)"))
        with pytest.raises(ScorerError, match="1 scores for 4"):
            segment_mean_score(scorer, PAIRS)

    def test_non_numeric_score_rejected(self):
        script = "import sys\n" \
                 "for line in sys.stdin:\n" \
                 "    print('oops')"
        scorer = SubprocessScorer((sys.executable, "-c", script))
        with pytest.raises(ScorerError, match="non-numeric"):
            segment_mean_score(scorer, PAIRS)

    def test_non_finite_score_rejected(self):
        script = "import sys\n" \
                 "for i, line in enumerate(sys.stdin):\n" \
                 "    print('-inf' if i == 2 else 0.5)"
        scorer = SubprocessScorer((sys.executable, "-c", script))
        with pytest.raises(ScorerError, match="^score -inf for segment 3 is not finite$"):
            segment_mean_score(scorer, PAIRS)

    def test_failing_command_rejected(self):
        scorer = SubprocessScorer((sys.executable, "-c", "raise SystemExit(3)"))
        with pytest.raises(ScorerError, match="code 3"):
            segment_mean_score(scorer, PAIRS)

    def test_missing_command_rejected_by_name(self, tmp_path):
        missing = str(tmp_path / "no-such-scorer")
        with pytest.raises(ScorerError, match=re.escape(missing)):
            segment_mean_score(SubprocessScorer((missing, "--fast")), PAIRS)
