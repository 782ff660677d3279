"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 12 (live API smoke) is non-gating and skipped unless the
environment provides an endpoint (DOCTURN_SMOKE_BASE_URL, DOCTURN_SMOKE_MODEL,
and an API key in OPENAI_API_KEY).
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from docturn import gateway
from docturn.corpus import Document
from docturn.costing import (
    MODE_CACHED,
    MODE_UNCACHED,
    DocShape,
    ledger_for_session,
    simulate_strategy_costs,
)
from docturn.metrics.blonde import blonde_lite, load_blonde_resources
from docturn.metrics.bleu import BleuConfig, doc_bleu
from docturn.metrics.report import length_report
from docturn.prompts import load_template_set
from docturn.runner.config import plan_from_dict
from docturn.runner.executor import execute, load_testsets
from docturn.runner.reports import emit_reports
from docturn.strategy import (
    DocumentTranslation,
    Mode,
    StrategyConfig,
    check_prefix_stability,
    ingest_response,
    init_session,
    next_request,
)

from . import oracles
from .oracles import conversation_token_count
from .conftest import make_random_document
from .test_costing import multi_turn_transcript

TEMPLATES = load_template_set()


def report_line(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} {name} failed: {detail}"


def drive_session(config: StrategyConfig, doc: Document):
    session = init_session(config, doc, TEMPLATES)
    requests = []
    while (request := next_request(session)) is not None:
        requests.append(request)
        ingest_response(session, f"hyp {len(requests)}")
    return requests


def test_criterion_1_bleu_oracle_equivalence():
    """>= 200 random small corpora match the brute-force oracle to 1e-9 relative."""
    rng = random.Random(20240601)
    started = time.monotonic()
    worst = 0.0
    for trial in range(220):
        n_docs = rng.randint(1, 5)
        hyps, refs, token_pairs = [], [], []
        for d in range(n_docs):
            n_hyp = rng.randint(1, 30)
            n_ref = rng.randint(1, 30)
            hyp_tokens = [f"w{rng.randint(0, 14)}" for _ in range(n_hyp)]
            ref_tokens = [f"w{rng.randint(0, 14)}" for _ in range(n_ref)]
            hyps.append(
                DocumentTranslation(doc_id=f"d{d}", hypothesis_segments=(" ".join(hyp_tokens),),
                                    alignment_ok=True)
            )
            refs.append(
                Document(id=f"d{d}", src_lang="en", tgt_lang="de", domain="n",
                         source_segments=("s",) , reference_segments=(" ".join(ref_tokens),))
            )
            token_pairs.append((hyp_tokens, ref_tokens))
        got = doc_bleu(hyps, refs)
        expected = oracles.oracle_corpus_bleu(token_pairs)
        scale = max(abs(expected), 1e-12)
        worst = max(worst, abs(got - expected) / scale)
    elapsed = time.monotonic() - started
    report_line(1, "bleu-oracle-equivalence",
                worst <= 1e-9 and elapsed < 10.0,
                f"220 corpora, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_bleu_boundary_suite():
    """Identity 100.0, disjoint 0.0, clipped 'the the the the' case 25.0 -- exact."""
    segs = ("Hello world again.", "And more text here.")
    identity = doc_bleu(
        [DocumentTranslation("a", segs, True)],
        [Document(id="a", src_lang="en", tgt_lang="de", domain="n",
                  source_segments=("s", "s2"), reference_segments=segs)],
    )
    disjoint = doc_bleu(
        [DocumentTranslation("a", ("aaa bbb ccc",), True)],
        [Document(id="a", src_lang="en", tgt_lang="de", domain="n",
                  source_segments=("s",), reference_segments=("xxx yyy zzz",))],
    )
    clipped = doc_bleu(
        [DocumentTranslation("a", ("the the the the",), True)],
        [Document(id="a", src_lang="en", tgt_lang="de", domain="n",
                  source_segments=("s",), reference_segments=("the cat",))],
        BleuConfig(max_n=1),
    )
    ok = identity == 100.0 and disjoint == 0.0 and clipped == 25.0
    report_line(2, "bleu-boundary-suite", ok,
                f"identity={identity!r} disjoint={disjoint!r} clipped={clipped!r}")


def test_criterion_3_prefix_stability_1000_sessions():
    """1,000 randomized multi-turn sessions, zero prefix violations, < 30 s."""
    rng = random.Random(77)
    started = time.monotonic()
    violations = 0
    for trial in range(1000):
        mode = Mode.MULTI_TURN if trial % 2 == 0 else Mode.MULTI_TURN_SP
        k = rng.randint(1, 50)
        doc = make_random_document(rng, f"doc{trial}", k, min_tokens=1, max_tokens=6)
        requests = drive_session(StrategyConfig(mode=mode), doc)
        try:
            check_prefix_stability([r.messages for r in requests])
        except Exception:
            violations += 1
        for prev, cur in zip(requests, requests[1:]):
            if len(cur.messages) != len(prev.messages) + 2:
                violations += 1
            if cur.messages[: len(prev.messages)] != prev.messages:
                violations += 1
    elapsed = time.monotonic() - started
    report_line(3, "prefix-stability", violations == 0 and elapsed < 30.0,
                f"1000 sessions, {violations} violations, {elapsed:.2f}s")


def test_criterion_4_request_count_contract():
    """SingleTurn 1, SegmentLevel k, MultiTurn(+-sp) k, exhaustive for k in 1..10."""
    rng = random.Random(5)
    mismatches = []
    for k in range(1, 11):
        doc = make_random_document(rng, f"doc{k}", k)
        for mode in Mode:
            count = len(drive_session(StrategyConfig(mode=mode), doc))
            expected = 1 if mode == Mode.SINGLE_TURN else k
            if count != expected:
                mismatches.append((mode.value, k, count))
    report_line(4, "request-count-contract", not mismatches,
                str(mismatches) if mismatches else "exact for k in 1..10")


def test_criterion_5_source_primed_completeness():
    """100 random documents: every source segment verbatim, in order, in the
    first user message."""
    rng = random.Random(9)
    violations = 0
    for trial in range(100):
        k = rng.randint(1, 20)
        doc = make_random_document(rng, f"doc{trial}", k, min_tokens=1, max_tokens=10)
        session = init_session(StrategyConfig(mode=Mode.MULTI_TURN_SP), doc, TEMPLATES)
        first_user = next(m for m in next_request(session).messages if m.role == "user")
        position = 0
        for segment in doc.source_segments:
            found = first_user.content.find(segment, position)
            if found < 0:
                violations += 1
                break
            position = found + len(segment)
    report_line(5, "source-primed-completeness", violations == 0,
                f"100 documents, {violations} violations")


def test_criterion_6_cost_ledger_identities():
    """500 random transcripts: cached identity, uncached >= cached, worked example."""
    rng = random.Random(31)
    identity_failures = 0
    monotonicity_failures = 0
    for _ in range(500):
        k = rng.randint(1, 10)
        transcript = multi_turn_transcript(k, rng.randint(1, 50), rng.randint(1, 50))
        cached = ledger_for_session(transcript)[MODE_CACHED]
        uncached = ledger_for_session(transcript)[MODE_UNCACHED]
        if cached.total_prefill_new + cached.total_generated != conversation_token_count(transcript):
            identity_failures += 1
        if uncached.total_prefill_new < cached.total_prefill_new:
            monotonicity_failures += 1
        equal = uncached.total_prefill_new == cached.total_prefill_new
        no_reuse = cached.total_prefill_reused == 0
        if equal != no_reuse:
            monotonicity_failures += 1

    worked = multi_turn_transcript(3, 110, 100)
    cached_total = ledger_for_session(worked)[MODE_CACHED].total_prefill_new
    uncached_total = ledger_for_session(worked)[MODE_UNCACHED].total_prefill_new
    ok = (
        identity_failures == 0
        and monotonicity_failures == 0
        and cached_total == 330
        and uncached_total == 960
    )
    report_line(6, "cost-ledger-identities", ok,
                f"500 transcripts, worked example cached={cached_total} uncached={uncached_total}")


def _r_squared(xs: list[int], ys: list[int], degree: int) -> float:
    coeffs = np.polyfit(xs, ys, degree)
    predicted = np.polyval(coeffs, xs)
    actual = np.asarray(ys, dtype=float)
    ss_res = float(np.sum((actual - predicted) ** 2))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot else 1.0


def test_criterion_7_cost_scaling_shape():
    """Uncached multi-turn prefill is quadratic in k, cached is linear."""
    ks = [1, 2, 4, 8, 16, 32]
    s = t = 100
    uncached_totals = []
    cached_totals = []
    closed_form_ok = True
    for k in ks:
        shape = DocShape.uniform(k, s, t)
        uncached = simulate_strategy_costs(Mode.MULTI_TURN, shape)[MODE_UNCACHED].total_prefill_new
        cached = simulate_strategy_costs(Mode.MULTI_TURN, shape)[MODE_CACHED].total_prefill_new
        uncached_totals.append(uncached)
        cached_totals.append(cached)
        if uncached != oracles.closed_form_multi_turn_uncached(k, s, t):
            closed_form_ok = False
        if cached != oracles.closed_form_multi_turn_cached(k, s):
            closed_form_ok = False
    r2_quadratic = _r_squared(ks, uncached_totals, 2)
    r2_linear = _r_squared(ks, cached_totals, 1)
    ok = closed_form_ok and r2_quadratic > 0.999 and r2_linear > 0.999
    report_line(7, "cost-scaling-shape", ok,
                f"quadratic R2={r2_quadratic:.6f}, linear R2={r2_linear:.6f}")


def _omission_testset(rng: random.Random) -> list[dict]:
    records = []
    for i in range(30):
        k = rng.randint(10, 100)
        segments = [
            " ".join(f"tok{i}_{j}_{w}" for w in range(rng.randint(5, 12)))
            for j in range(k)
        ]
        records.append(
            {"id": f"doc-{i:02d}", "src_lang": "en", "tgt_lang": "de", "domain": "news",
             "src": segments, "ref": segments}
        )
    return records


def test_criterion_8_omission_reproduction(tmp_path):
    """Tail-dropper backend: single-turn top-10 ratios in [0.75, 0.85], other
    strategies exactly 1.0; runtime < 20 s."""
    started = time.monotonic()
    rng = random.Random(404)
    corpus = tmp_path / "omission.jsonl"
    with corpus.open("w", encoding="utf-8") as fh:
        for record in _omission_testset(rng):
            fh.write(json.dumps(record) + "\n")
    plan = plan_from_dict(
        {
            "run_id": "omission",
            "testsets": [str(corpus)],
            "backends": [{"kind": "mock_tail_dropper", "name": "dropper", "drop_fraction": 0.2}],
            "strategies": [
                {"mode": "single_turn"}, {"mode": "segment_level"}, {"mode": "multi_turn"}
            ],
            "output_dir": str(tmp_path / "runs"),
        }
    )
    artifacts = execute(plan)
    testset = load_testsets(plan)

    def ratios(strategy_label: str) -> list[float]:
        translations = artifacts.translations_for("dropper", strategy_label)
        report = length_report(testset, translations, top_n=10)
        assert len(report.rows) == 10
        return [row.ratio for row in report.rows]

    single = ratios("single_turn")
    segment = ratios("segment_level")
    multi = ratios("multi_turn")
    elapsed = time.monotonic() - started
    single_ok = all(0.75 <= r <= 0.85 for r in single)
    others_ok = all(r == 1.0 for r in segment) and all(r == 1.0 for r in multi)
    report_line(8, "omission-reproduction",
                single_ok and others_ok and elapsed < 20.0,
                f"single-turn ratios [{min(single):.3f}, {max(single):.3f}], {elapsed:.2f}s")


def test_criterion_9_blonde_hand_oracle():
    """10 constructed document pairs match hand-computed P/R/F1 exactly."""
    res = load_blonde_resources("en")
    identity_text = "She met Anna Bot and they walked because it was raining ."
    # (hyp, ref, category, (P, R, F1)); None hyp/ref means identity pair.
    cases = [
        (identity_text, identity_text, "pronouns", (1.0, 1.0, 1.0)),
        (identity_text, identity_text, "entities", (1.0, 1.0, 1.0)),
        ("he she she", "he he she", "pronouns", (2 / 3, 2 / 3, 2 / 3)),
        ("walk walk", "he she", "pronouns", (0.0, 0.0, 0.0)),
        ("but moreover", "but then however", "connectives", (1 / 2, 1 / 3, 0.4)),
        ("they met as well as friends", "they met as well as others", "connectives",
         (1.0, 1.0, 1.0)),
        ("she walks and was running", "she walked and is running", "tense",
         (1 / 2, 1 / 3, 0.4)),
        ("we visited Alice Creek today", "we visited Alice Springs today", "entities",
         (0.0, 0.0, 0.0)),
        ("so Marie Curie won twice", "so Marie Curie won twice", "entities", (1.0, 1.0, 1.0)),
        ("However, she gave Tom Lee a book since she asked.",
         "However, she gave Tom Lee the book because he asked.", "pronouns",
         (1 / 2, 1 / 2, 1 / 2)),
    ]
    failures = []
    for hyp, ref, category, (p, r, f1) in cases:
        report = blonde_lite([hyp], [ref], res)
        got = report.categories[category]
        if (got.precision, got.recall, got.f1) != (p, r, f1):
            failures.append((hyp, category, (got.precision, got.recall, got.f1)))
    identity_report = blonde_lite([identity_text], [identity_text], res)
    if identity_report.combined_f1 != 1.0:
        failures.append(("identity combined", identity_report.combined_f1))
    report_line(9, "blonde-hand-oracle", not failures,
                str(failures) if failures else "10 pairs exact")


def _determinism_plan(tmp_path: Path, run_id: str) -> dict:
    corpus = tmp_path / "det.jsonl"
    if not corpus.exists():
        rng = random.Random(11)
        with corpus.open("w", encoding="utf-8") as fh:
            for i in range(4):
                segments = [
                    " ".join(f"s{i}_{j}_{w}" for w in range(rng.randint(3, 7)))
                    for j in range(rng.randint(2, 4))
                ]
                fh.write(json.dumps({
                    "id": f"doc{i}", "src_lang": "en", "tgt_lang": "de", "domain": "news",
                    "src": segments, "ref": segments,
                }) + "\n")
    return {
        "run_id": run_id,
        "testsets": [str(corpus)],
        "backends": [{"kind": "mock_identity", "name": "identity"}],
        "strategies": [
            {"mode": "single_turn"}, {"mode": "segment_level"},
            {"mode": "multi_turn"}, {"mode": "multi_turn_sp"},
        ],
        "output_dir": str(tmp_path / "runs"),
    }


def _report_bytes(run_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((run_dir / "reports").iterdir())}


def test_criterion_10_determinism_and_resume(tmp_path):
    """Identical mock runs are byte-identical; interrupted+resumed equals
    uninterrupted, byte-for-byte."""
    plan_a = plan_from_dict(_determinism_plan(tmp_path, "run-a"))
    plan_b = plan_from_dict(_determinism_plan(tmp_path, "run-b"))
    emit_reports(execute(plan_a))
    emit_reports(execute(plan_b))
    identical = _report_bytes(Path(plan_a.output_dir) / "run-a") == _report_bytes(
        Path(plan_b.output_dir) / "run-b"
    )

    plan_c = plan_from_dict(_determinism_plan(tmp_path, "run-c"))
    calls = {"n": 0}

    def flaky(request, backend):
        calls["n"] += 1
        if calls["n"] == 6:
            raise RuntimeError("simulated interrupt")
        return gateway.complete(request, backend)

    with pytest.raises(RuntimeError):
        execute(plan_c, complete_fn=flaky)
    emit_reports(execute(plan_c))
    resumed_equal = _report_bytes(Path(plan_c.output_dir) / "run-c") == _report_bytes(
        Path(plan_a.output_dir) / "run-a"
    )
    report_line(10, "determinism-and-resume", identical and resumed_equal,
                f"identical={identical} resumed_equal={resumed_equal}")


def test_criterion_11_report_fidelity(tmp_path):
    """Per-domain deltas in 'score (+delta)' style; single-turn segment-mean '-'."""
    data = Path(__file__).parent / "data"
    plan = plan_from_dict(
        {
            "run_id": "fidelity",
            "testsets": [str(data / "golden_corpus.jsonl")],
            "backends": [{"kind": "mock_tail_dropper", "name": "dropper", "drop_fraction": 0.5}],
            "strategies": [
                {"mode": "segment_level"}, {"mode": "single_turn"}, {"mode": "multi_turn"}
            ],
            "output_dir": str(tmp_path / "runs"),
        }
    )
    artifacts = execute(plan)
    emit_reports(artifacts)
    reports = artifacts.run_dir / "reports"
    golden_ok = all(
        (reports / name).read_bytes() == (data / "golden" / name).read_bytes()
        for name in ["main.csv", "main.md", "per_domain.csv", "per_domain.md"]
    )
    per_domain = (reports / "per_domain.csv").read_text("utf-8")
    delta_style = "(-" in per_domain and "(+" in per_domain
    main_rows = (reports / "main.csv").read_text("utf-8").splitlines()
    single_row = next(line for line in main_rows if ",Single-turn," in line)
    dash_ok = single_row.split(",")[3] == "-"
    report_line(11, "report-fidelity", golden_ok and delta_style and dash_ok,
                f"golden={golden_ok} delta_style={delta_style} dash={dash_ok}")


SMOKE_BASE_URL = os.environ.get("DOCTURN_SMOKE_BASE_URL", "")
SMOKE_MODEL = os.environ.get("DOCTURN_SMOKE_MODEL", "")
SMOKE_KEY_VAR = os.environ.get("DOCTURN_SMOKE_KEY_VAR", "OPENAI_API_KEY")


@pytest.mark.skipif(
    not (SMOKE_BASE_URL and SMOKE_MODEL and os.environ.get(SMOKE_KEY_VAR)),
    reason="live smoke needs DOCTURN_SMOKE_BASE_URL, DOCTURN_SMOKE_MODEL and an API key",
)
def test_criterion_12_live_smoke(tmp_path):
    """Non-gating: 3 en->de documents through all 8 configurations live."""
    corpus = tmp_path / "smoke.jsonl"
    segments = [
        ["The weather turned cold overnight.", "Schools opened two hours late."],
        ["She packed the blue suitcase.", "The train left exactly on time.",
         "Nobody missed the connection."],
        ["Prices rose again this quarter."],
    ]
    with corpus.open("w", encoding="utf-8") as fh:
        for i, source in enumerate(segments):
            fh.write(json.dumps({
                "id": f"smoke-{i}", "src_lang": "en", "tgt_lang": "de", "domain": "news",
                "src": source,
            }) + "\n")
    exemplars = [
        {"source": "Good morning.", "target": "Guten Morgen.", "src_lang": "en", "tgt_lang": "de"},
        {"source": "The door is open.", "target": "Die Tür ist offen.", "src_lang": "en", "tgt_lang": "de"},
        {"source": "We are late.", "target": "Wir sind spät dran.", "src_lang": "en", "tgt_lang": "de"},
    ]
    strategies = []
    for mode in ("single_turn", "segment_level", "multi_turn", "multi_turn_sp"):
        strategies.append({"mode": mode})
        strategies.append({"mode": mode, "icl": True, "exemplars": exemplars})
    plan = plan_from_dict(
        {
            "run_id": "live-smoke",
            "testsets": [str(corpus)],
            "backends": [{
                "kind": "openai_compatible", "name": "live", "model": SMOKE_MODEL,
                "base_url": SMOKE_BASE_URL, "api_key_env_var": SMOKE_KEY_VAR,
                "max_retries": 3, "requests_per_minute": 60,
            }],
            "strategies": strategies,
            "output_dir": str(tmp_path / "runs"),
            "fail_policy": "halt",
        }
    )
    artifacts = execute(plan)
    persisted_turns = sum(
        len(json.loads(line)[4:])
        for line in (artifacts.run_dir / "run.jsonl").read_text("utf-8").splitlines()[1:]
    )
    # Per strategy: single-turn issues one request per document (3), the
    # segment-wise modes issue one per segment (2 + 3 + 1 = 6).
    expected_turns = sum(3 if s["mode"] == "single_turn" else 6 for s in strategies)
    ok = (
        len(artifacts.cells) == 8 * 3
        and not artifacts.exclusions
        and persisted_turns == expected_turns
    )
    report_line(12, "live-smoke", ok,
                f"{len(artifacts.cells)} cells, {persisted_turns} persisted turns")
