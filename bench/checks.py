"""Output checks for one repetition. Each returns messages; any message fails the run."""

from __future__ import annotations

from collections import Counter

from docturn.costing import count_tokens, spec_for_target_language


def check_rep(
    *, records, plan, artifacts, calls, resume_calls, resumed_cells, server, scores,
    sweep_rows, sweep_params,
) -> list[str]:
    errors: list[str] = []
    docs = {r["id"]: r for r in records}
    labels = {s.mode.value: s.label for s in plan.strategies}
    mode_of = {s.label: s.mode for s in plan.strategies}

    # Injected faults never exceed a backend's retry budget, so they imply
    # that every cell completes.
    expected_cells = len(plan.backends) * len(plan.strategies) * len(docs)
    if artifacts.exclusions or len(artifacts.cells) != expected_cells:
        errors.append(
            f"{len(artifacts.cells)} of {expected_cells} cells completed, "
            f"{len(artifacts.exclusions)} excluded; the injected faults imply none fail"
        )

    expected_calls: Counter = Counter()
    for (backend, label, doc_id), cell in artifacts.cells.items():
        want = 1 if label == labels["single_turn"] else len(docs[doc_id]["src"])
        turns = len(cell.transcript.turns) if cell.transcript is not None else 0
        if turns != want:
            errors.append(f"{backend}/{label}/{doc_id}: {turns} backend calls, expected {want}")
        expected_calls[(backend, doc_id)] += want
    actual_calls = Counter((backend, tag.rpartition(":turn_")[0]) for backend, tag, _, _ in calls)
    if actual_calls != expected_calls:
        errors.append("backend calls per document differ from 1 per single-turn cell and k per other cell")
    if resume_calls:
        errors.append(f"resumed execute sent {resume_calls} backend requests, expected 0")
    if any(n != len(artifacts.cells) for n in resumed_cells):
        errors.append(f"resumed execute loaded {resumed_cells} cells, expected {len(artifacts.cells)}")

    fake_backends = {b.name for b in plan.backends if b.kind == "openai_compatible"}
    fake_calls = sum(1 for backend, *_ in calls if backend in fake_backends)
    faults = server.statuses[429] + server.statuses[503]
    if server.statuses[200] != fake_calls or server.attempts != fake_calls + faults:
        errors.append(
            f"fake server saw {server.attempts} attempts ({faults} faults) for {fake_calls} requests"
        )

    identity = [b.name for b in plan.backends if b.kind == "mock_identity"]
    for backend in identity:
        base = scores[f"{backend}/{labels['segment_level']}"]
        for mode in ("multi_turn", "multi_turn_sp"):
            other = scores[f"{backend}/{labels[mode]}"]
            if (other["dbleu"], other["blonde"]) != (base["dbleu"], base["blonde"]):
                errors.append(f"{backend}: {mode} scores differ from segment_level")
    single = labels["single_turn"]
    for dropper in (b.name for b in plan.backends if b.kind == "mock_tail_dropper"):
        for backend in identity:
            if not scores[f"{dropper}/{single}"]["dbleu"] < scores[f"{backend}/{single}"]["dbleu"]:
                errors.append(f"{dropper} single-turn dBLEU is not below {backend}'s")

    # Ledger identities, recounted from the transcripts.
    for (backend, label, doc_id), cell in artifacts.cells.items():
        if not mode_of[label].is_multi_turn:
            continue
        spec = spec_for_target_language(docs[doc_id]["tgt_lang"])
        turns = cell.transcript.turns
        last_request = sum(count_tokens(m.content, spec) for m in turns[-1].request_messages)
        earlier_replies = sum(count_tokens(t.response_text, spec) for t in turns[:-1])
        all_requests = sum(count_tokens(m.content, spec) for t in turns for m in t.request_messages)
        cached = cell.ledgers["cached"]["totals"]["prefill_new"]
        uncached = cell.ledgers["uncached"]["totals"]["prefill_new"]
        if cached != last_request - earlier_replies or uncached != all_requests:
            errors.append(
                f"{backend}/{label}/{doc_id}: ledger prefill cached={cached} uncached={uncached}, "
                f"transcript implies {last_request - earlier_replies} and {all_requests}"
            )

    s, o, v = sweep_params
    for k, (rows, csv) in sweep_rows.items():
        by_key = {(r.strategy.value, r.cache_mode): r.total_prefill for r in rows}
        cached, uncached = by_key[("multi_turn", "cached")], by_key[("multi_turn", "uncached")]
        if cached != k * (v + s) or uncached != (v + s) * k * (k + 1) // 2 + o * k * (k - 1) // 2:
            errors.append(f"sweep k={k}: multi_turn prefill cached={cached} uncached={uncached}")
        if len(csv.splitlines()) != len(rows) + 1:
            errors.append(f"sweep k={k}: comparison_csv has {len(csv.splitlines())} lines")
    return errors
