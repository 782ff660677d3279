"""Independent oracles used to freeze expected values.

These deliberately avoid the library's code paths: BLEU is computed with
hand-rolled dictionary counting and the textbook formula, and cost totals
come from closed-form sums. They exist so the implementation can be checked
against something it does not share code with.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from docturn.costing import count_tokens


def naive_ngrams(tokens: list[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def naive_clipped(hyp: list[str], ref: list[str], n: int) -> tuple[int, int]:
    hyp_counts = naive_ngrams(hyp, n)
    ref_counts = naive_ngrams(ref, n)
    matched = 0
    for gram, count in hyp_counts.items():
        matched += min(count, ref_counts.get(gram, 0))
    total = max(0, len(hyp) - n + 1)
    return matched, total


def oracle_corpus_bleu(
    doc_pairs: list[tuple[list[str], list[str]]],
    max_n: int = 4,
) -> float:
    """Corpus BLEU over (hyp_tokens, ref_tokens) document pairs.

    Conventions mirror the declared scoring rules: statistics pooled over
    documents, n-gram orders with zero hypothesis n-grams excluded from the
    geometric mean, brevity penalty from pooled lengths, 0 when any included
    precision is 0 (no smoothing).
    """
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in doc_pairs:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            m, t = naive_clipped(hyp, ref, n)
            matched[n - 1] += m
            total[n - 1] += t

    orders = [i for i in range(max_n) if total[i] > 0]
    if not orders:
        return 0.0
    log_sum = 0.0
    for i in orders:
        if matched[i] == 0:
            return 0.0
        log_sum += math.log(matched[i] / total[i])

    if hyp_len == 0:
        bp = 0.0 if ref_len > 0 else 1.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / len(orders))


# Closed-form prefill totals for uniform documents: k segments of s source
# tokens, t generated tokens per segment, o instruction tokens per user
# message, sp shared ICL/system prefix tokens, pi source-primed intro tokens.


def closed_form_multi_turn_uncached(k: int, s: int, t: int, o: int = 0, sp: int = 0) -> int:
    return k * sp + (o + s) * k * (k + 1) // 2 + t * k * (k - 1) // 2


def closed_form_multi_turn_cached(k: int, s: int, o: int = 0, sp: int = 0) -> int:
    return sp + k * (o + s)


def closed_form_segment_level_uncached(k: int, s: int, o: int = 0, sp: int = 0) -> int:
    return k * sp + k * (o + s)


def closed_form_segment_level_cached(k: int, s: int, o: int = 0, sp: int = 0) -> int:
    return (sp if sp else 0) + k * (o + s)


def closed_form_single_turn(k: int, s: int, o: int = 0, sp: int = 0) -> int:
    return sp + o + k * s


def closed_form_sp_cached(k: int, s: int, o: int = 0, sp: int = 0, pi: int = 0) -> int:
    return closed_form_multi_turn_cached(k, s, o, sp) + pi + k * s


def closed_form_sp_uncached(k: int, s: int, t: int, o: int = 0, sp: int = 0, pi: int = 0) -> int:
    return closed_form_multi_turn_uncached(k, s, t, o, sp) + k * (pi + k * s)


# Cached ledger by brute force: a request reuses its longest common prefix
# (by message key) with any earlier request-plus-reply state. Turns are
# (request, reply) over (key, tokens) messages; returns per-turn
# (prefill_new, prefill_reused, generated).


def longest_common_prefix(a: list, b: list) -> int:
    n = 0
    for x, y in zip(a, b):
        if x[0] != y[0]:
            break
        n += 1
    return n


def all_states_cached_ledger(turns: list) -> list[tuple[int, int, int]]:
    entries = []
    states: list[list] = []
    for request, reply in turns:
        best = max((longest_common_prefix(request, state) for state in states), default=0)
        reused = sum(t for _, t in request[:best])
        entries.append((sum(t for _, t in request) - reused, reused, reply[1]))
        states.append(list(request) + [reply])
    return entries


def conversation_token_count(transcript, spec) -> int:
    """Tokens of a session's final conversation, its last request plus the
    reply; a cached ledger's prefill plus generation must equal it."""
    if not transcript.turns:
        return 0
    last = transcript.turns[-1]
    total = sum(count_tokens(m.content, spec) for m in last.request_messages)
    return total + count_tokens(last.response_text, spec)


# A group log record's `requests` digest, from the requests as role/content
# dicts and the replies' texts: BLAKE2b-128 over, for each turn, the length
# of the prefix the request shares with the previous request plus its reply
# (nothing before turn 0) in decimal and a newline, then each later message
# as "<role> <UTF-8 byte length>\n" and its content.


def _keyed(messages: list[dict]) -> list[tuple]:
    """Messages in the shape longest_common_prefix compares: keyed first."""
    return [((m["role"], m["content"]),) for m in messages]


def requests_digest(requests: list[list[dict]], replies: list[str]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    state: list[dict] = []
    for request, reply in zip(requests, replies, strict=True):
        keep = longest_common_prefix(_keyed(request), _keyed(state))
        digest.update(f"{keep}\n".encode("ascii"))
        for message in request[keep:]:
            content = message["content"].encode("utf-8")
            digest.update(f"{message['role']} {len(content)}\n".encode("ascii") + content)
        state = request + [{"role": "assistant", "content": reply}]
    return digest.hexdigest()


# BlonDE-lite connectives by the plain scan: every listed phrase tried at
# every position, so overlapping and nested matches ("though" inside "even
# though") and repeated list entries all count.


def naive_connectives(tokens: list[str], phrases: tuple[tuple[str, ...], ...]) -> dict[str, int]:
    folded = [t.casefold() for t in tokens]
    found: dict[str, int] = {}
    for phrase in phrases:
        width = len(phrase)
        for i in range(len(folded) - width + 1):
            if tuple(folded[i : i + width]) == phrase:
                key = " ".join(phrase)
                found[key] = found.get(key, 0) + 1
    return found


def _reference_file_identity(path: str | None) -> dict[str, str] | None:
    if path is None:
        return None
    return {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}


def reference_canonical_dict(plan) -> dict:
    """A run plan's config-hash payload, every key listed by hand, as the
    config hash was computed before it was derived from the dataclass
    fields. Existing run directories resume only while the two agree."""
    return {
        "run_id": plan.run_id,
        "testsets": [_reference_file_identity(path) for path in plan.testsets],
        "backends": [
            {
                "kind": b.kind,
                "name": b.name,
                "model": b.model,
                "base_url": b.base_url,
                "api_key_env_var": b.api_key_env_var,
                "dictionary_path": _reference_file_identity(b.dictionary_path),
                "drop_fraction": b.drop_fraction,
            }
            for b in plan.backends
        ],
        "strategies": [
            {
                "mode": s.mode.value,
                "icl": s.icl,
                "exemplars": [
                    {
                        "source": e.source,
                        "target": e.target,
                        "src_lang": e.src_lang,
                        "tgt_lang": e.tgt_lang,
                    }
                    for e in s.exemplars
                ],
                "max_tokens": s.max_tokens,
            }
            for s in plan.strategies
        ],
        "max_context_tokens": plan.max_context_tokens,
    }
