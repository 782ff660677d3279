"""Golden-file test for the requests a run sends.

A fixed plan (mock_identity, every mode with and without ICL) runs over a
small corpus holding a four-segment document, a one-segment document and a
zh target. The requests of every cell, as `load_artifacts` rebuilds them,
are compared message by message with the frozen file, and each group log
record's `requests` digest with the independent oracle's digest of the
frozen requests. Any change to prompt rendering or to how a request is
assembled from history shows up here as a diff.
"""

from __future__ import annotations

import json
from pathlib import Path

from docturn.runner.config import plan_from_dict
from docturn.runner.executor import execute, load_artifacts

from .conftest import write_jsonl
from .oracles import requests_digest

GOLDEN = Path(__file__).parent / "data" / "golden" / "requests.json"

CORPUS = [
    {"id": "four", "src_lang": "en", "tgt_lang": "de", "domain": "news",
     "src": ["The council met on Monday.", "It approved the {budget} plan.",
             "Critics said the vote was rushed.", "A second vote is due in May."]},
    {"id": "one", "src_lang": "en", "tgt_lang": "de", "domain": "literary",
     "src": ["She closed the book and smiled."]},
    {"id": "zh", "src_lang": "en", "tgt_lang": "zh", "domain": "news",
     "src": ["Prices rose again.", "Markets fell."]},
]

EXEMPLARS = [
    {"source": f"Example {i}.", "target": f"Beispiel {i}.", "src_lang": "en", "tgt_lang": "de"}
    for i in range(3)
]


def test_requests_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text("utf-8"))
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, CORPUS)
    strategies = []
    for mode in ("single_turn", "segment_level", "multi_turn", "multi_turn_sp"):
        strategies.append({"mode": mode})
        strategies.append({"mode": mode, "icl": True, "exemplars": EXEMPLARS})
    plan = plan_from_dict({
        "run_id": "golden-requests",
        "testsets": [str(corpus)],
        "backends": [{"kind": "mock_identity", "name": "identity"}],
        "strategies": strategies,
        "output_dir": str(tmp_path / "runs"),
    })
    artifacts = execute(plan)
    assert len(artifacts.cells) == len(strategies) * len(CORPUS)

    loaded = load_artifacts(plan).cells
    rebuilt: dict[str, dict[str, list[list[dict]]]] = {}
    for (_, label, doc_id), cell in loaded.items():
        requests = [[m.to_dict() for m in turn.request_messages] for turn in cell.transcript.turns]
        rebuilt.setdefault(label, {})[doc_id] = requests
    assert rebuilt == expected

    digests = {}
    for line in (artifacts.run_dir / "run.jsonl").read_text("utf-8").splitlines()[1:]:
        _, label, doc_id, logged, *rows = json.loads(line)
        replies = [row[0] for row in rows]  # a row starts with its content
        digests[(label, doc_id)] = (logged, requests_digest(expected[label][doc_id], replies))
    assert len(digests) == len(loaded)
    assert all(logged == oracle for logged, oracle in digests.values())
