"""Golden-file tests for report rendering.

The fixture run uses the tail-dropper backend at drop_fraction 0.5 over a
two-domain corpus with identity references, so segment-level and multi-turn
score 100 while single-turn loses its trailing half. Goldens were frozen
after hand-verifying the numbers (e.g. the education document: 19 reference
tokens vs a 10-token exact-prefix hypothesis under punctuation-splitting
tokenization gives 100 * exp(1 - 19/10) = 40.66).

A second fixture runs the same corpus on two backends, with an inline
segment scorer and one cell that fails, so that every table holds two
backends, a segment_mean column, an exclusion and the flags it causes.
Every file either run writes is pinned.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from docturn import gateway
from docturn.errors import GatewayError
from docturn.runner.config import plan_from_dict
from docturn.runner.executor import execute
from docturn.runner.reports import emit_reports

DATA = Path(__file__).parent / "data"

GOLDEN_FILES = [
    "main.csv",
    "main.md",
    "per_direction.csv",
    "per_direction.md",
    "per_domain.csv",
    "per_domain.md",
    "lengths_dropper_segment_level.csv",
    "lengths_dropper_single_turn.csv",
    "lengths_dropper_multi_turn.csv",
    "exclusions.csv",
    "scores.json",
]

TWO_BACKENDS = DATA / "golden" / "two_backends"
TWO_BACKEND_FILES = [
    "main.csv",
    "main.md",
    "per_direction.csv",
    "per_direction.md",
    "per_domain.csv",
    "per_domain.md",
    *(
        f"lengths_{backend}_{label}.csv"
        for backend in ("identity", "dropper")
        for label in ("multi_turn", "single_turn", "segment_level")
    ),
    "exclusions.csv",
    "scores.json",
]

# Scores each segment by its hypothesis's whitespace word count.
WORD_COUNT_SCORER = [
    sys.executable,
    "-c",
    "import sys\nfor line in sys.stdin: print(len(line.split('\\t')[1].split()))",
]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden-run")
    plan = plan_from_dict(
        {
            "run_id": "golden",
            "testsets": [str(DATA / "golden_corpus.jsonl")],
            "backends": [
                {"kind": "mock_tail_dropper", "name": "dropper", "drop_fraction": 0.5}
            ],
            "strategies": [
                {"mode": "segment_level"},
                {"mode": "single_turn"},
                {"mode": "multi_turn"},
            ],
            "output_dir": str(tmp / "runs"),
        }
    )
    artifacts = execute(plan)
    emit_reports(artifacts)
    return artifacts.run_dir / "reports"


@pytest.fixture(scope="module")
def two_backend_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden-two-backends")
    plan = plan_from_dict(
        {
            "run_id": "golden",
            "testsets": [str(DATA / "golden_corpus.jsonl")],
            "backends": [
                {"kind": "mock_identity", "name": "identity"},
                {"kind": "mock_tail_dropper", "name": "dropper", "drop_fraction": 0.5},
            ],
            # The segment-level baseline is not the first column.
            "strategies": [
                {"mode": "multi_turn"},
                {"mode": "single_turn"},
                {"mode": "segment_level"},
            ],
            "output_dir": str(tmp / "runs"),
            "scoring": {"scorer_command": WORD_COUNT_SCORER},
        }
    )

    def failing_dropper_multi_turn_news(request, backend):
        # Only a multi-turn request's second turn carries an assistant reply.
        if (
            backend.name == "dropper"
            and request.request_tag == "news-1:turn_1"
            and any(m.role == "assistant" for m in request.messages)
        ):
            raise GatewayError("backend exploded")
        return gateway.complete(request, backend)

    artifacts = execute(plan, complete_fn=failing_dropper_multi_turn_news)
    assert len(artifacts.exclusions) == 1
    emit_reports(artifacts)
    return artifacts.run_dir / "reports"


def test_golden_files_are_every_report(golden_run, two_backend_run):
    assert sorted(p.name for p in golden_run.iterdir()) == sorted(GOLDEN_FILES)
    assert sorted(p.name for p in two_backend_run.iterdir()) == sorted(TWO_BACKEND_FILES)


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_report_matches_golden(golden_run, name):
    produced = (golden_run / name).read_bytes()
    expected = (DATA / "golden" / name).read_bytes()
    assert produced == expected


@pytest.mark.parametrize("name", TWO_BACKEND_FILES)
def test_two_backend_report_matches_golden(two_backend_run, name):
    assert (two_backend_run / name).read_bytes() == (TWO_BACKENDS / name).read_bytes()


def test_domain_deltas_rendered_in_signed_style(golden_run):
    text = (golden_run / "per_domain.csv").read_text("utf-8")
    assert "(-" in text and "(+" in text
    # Baseline segment-level cells carry the plain score.
    assert "education,100.00," in text


def test_single_turn_segment_mean_dash(golden_run):
    main = (golden_run / "main.csv").read_text("utf-8").splitlines()
    row = next(line for line in main if ",Single-turn," in line)
    assert row.split(",")[3] == "-"
