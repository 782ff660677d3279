"""Token counting, session ledgers, and strategy cost simulation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from docturn import costing
from docturn.chat import ChatResponse, Message, assistant, count_tokens, user
from docturn.costing import (
    MODE_CACHED,
    _ledger_over_keyed_turns,
    MODE_UNCACHED,
    DocShape,
    Transcript,
    TranscriptTurn,
    _synthetic_turns,
    compare_strategies,
    comparison_csv,
    ledger_for_session,
    simulate_strategy_costs,
    spec_for_target_language,
)
from docturn.prompts import language_name, load_template_set
from docturn.runner.config import plan_from_dict
from docturn.runner.executor import execute, load_testsets
from docturn.strategy import Mode, exemplar_messages

from . import oracles
from .conftest import counted_messages, write_jsonl
from .oracles import conversation_token_count


class TestCountTokens:
    def test_whitespace_counts_runs(self):
        assert count_tokens("a b  c") == 3

    def test_empty_string(self):
        assert count_tokens("") == 0

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("你好世界", 4),
            ("你好，世界！ Hello, world.", 8),
            ("東京へ行きます。", 8),
            ("他说：“338.0 人”", 5),
            ("ラーメン", 4),  # the prolonged sound mark is Common script: a run of its own
        ],
    )
    def test_han_and_kana_count_per_character(self, text, expected):
        assert count_tokens(text) == expected == oracles.tokens(text)

    def test_bench_leftovers_ignore_the_spec(self):
        """costing keeps count_tokens with an ignored second argument and
        spec_for_target_language for bench/checks.py's import."""
        assert spec_for_target_language("zh") is None
        assert costing.count_tokens("東京 a b", spec_for_target_language("ja")) == 4
        assert costing.count_tokens("東京 a b", "char") == count_tokens("東京 a b")


# str.split's whitespace includes the information separators \x1c-\x1f, which
# regex's \s leaves out, and no-break spaces, but not the zero-width space.
_SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u3000\u200b"
_NOT_HAN_OR_KANA = st.characters().filter(lambda ch: not oracles.HAN_OR_KANA.match(ch))


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("ab.,1éß“”ー。" + _SPACES) | _NOT_HAN_OR_KANA))
def test_text_without_han_or_kana_counts_its_whitespace_words(text):
    assert count_tokens(text) == len(text.split())


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("ab.,1é“”東京へ行きカナー々。，" + _SPACES) | st.characters()))
def test_count_tokens_follows_its_definition(text):
    assert count_tokens(text) == oracles.tokens(text)


def words(n: int, tag: str) -> str:
    return " ".join(f"{tag}{i}" for i in range(n))


def multi_turn_transcript(k: int, user_tokens: int, reply_tokens: int) -> Transcript:
    """Uniform multi-turn transcript: every user message and reply has fixed size."""
    transcript = Transcript()
    history: list[Message] = []
    for i in range(k):
        history.append(user(words(user_tokens, f"u{i}_")))
        transcript.turns.append(
            TranscriptTurn(tuple(history), ChatResponse(words(reply_tokens, f"a{i}_")))
        )
        history.append(assistant(words(reply_tokens, f"a{i}_")))
    return transcript


class TestWorkedExample:
    # k=3 turns, 110-token user messages, 100-token replies.
    def test_cached_total_prefill_new(self):
        ledger = ledger_for_session(multi_turn_transcript(3, 110, 100))[MODE_CACHED]
        assert ledger.total_prefill_new == 330

    def test_uncached_per_turn_and_total(self):
        ledger = ledger_for_session(multi_turn_transcript(3, 110, 100))[MODE_UNCACHED]
        assert [e.prefill_new for e in ledger.entries] == [110, 320, 530]
        assert ledger.total_prefill_new == 960
        assert ledger.total_prefill_reused == 0

    def test_single_turn_cached_equals_uncached(self):
        transcript = multi_turn_transcript(1, 110, 100)
        cached = ledger_for_session(transcript)[MODE_CACHED]
        uncached = ledger_for_session(transcript)[MODE_UNCACHED]
        assert cached.total_prefill_new == uncached.total_prefill_new == 110

    def test_cached_reuse_matches_conversation_growth(self):
        ledger = ledger_for_session(multi_turn_transcript(3, 110, 100))[MODE_CACHED]
        # Reused prefill at turn i equals all conversation tokens before the
        # new user message: 0, 210, 420.
        assert [e.prefill_reused for e in ledger.entries] == [0, 210, 420]


class TestLedgerInvariants:
    def test_cached_identity_prefill_plus_generated_is_final_conversation(self):
        rng = random.Random(11)
        for _ in range(25):
            k = rng.randint(1, 8)
            transcript = multi_turn_transcript(k, rng.randint(1, 40), rng.randint(1, 40))
            ledger = ledger_for_session(transcript)[MODE_CACHED]
            assert (
                ledger.total_prefill_new + ledger.total_generated
                == conversation_token_count(transcript)
            )

    def test_uncached_at_least_cached(self):
        rng = random.Random(13)
        for _ in range(25):
            k = rng.randint(1, 8)
            transcript = multi_turn_transcript(k, rng.randint(1, 40), rng.randint(1, 40))
            cached = ledger_for_session(transcript)[MODE_CACHED]
            uncached = ledger_for_session(transcript)[MODE_UNCACHED]
            assert uncached.total_prefill_new >= cached.total_prefill_new
            if cached.total_prefill_reused == 0:
                assert uncached.total_prefill_new == cached.total_prefill_new
            else:
                assert uncached.total_prefill_new > cached.total_prefill_new

    def test_rewritten_history_is_charged_not_refused(self):
        """The ledger checks no prefix stability: a request that rewrites an
        earlier message reuses only what precedes the rewrite."""
        transcript = multi_turn_transcript(3, 5, 5)
        last = transcript.turns[-1]
        tampered = (user("something else"),) + last.request_messages[1:]
        transcript.turns[-1] = TranscriptTurn(tampered, last.response)
        cached = ledger_for_session(transcript)[MODE_CACHED]
        assert [e.prefill_reused for e in cached.entries] == [0, 10, 0]
        assert cached.entries[-1].prefill_new == 2 + 5 * 4

    def test_segment_level_reuses_only_shared_prefix(self):
        shared = Message("system", words(7, "s"))
        transcript = Transcript()
        for i in range(3):
            transcript.turns.append(
                TranscriptTurn((shared, user(words(5, f"u{i}_"))), ChatResponse(words(4, f"a{i}_")))
            )
        cached = ledger_for_session(transcript)[MODE_CACHED]
        assert [e.prefill_reused for e in cached.entries] == [0, 7, 7]
        uncached = ledger_for_session(transcript)[MODE_UNCACHED]
        assert uncached.total_prefill_new - cached.total_prefill_new == 14

    def test_additivity_of_entries(self):
        transcript = multi_turn_transcript(5, 9, 4)
        ledger = ledger_for_session(transcript)[MODE_CACHED]
        assert ledger.total_prefill_new == sum(e.prefill_new for e in ledger.entries)
        assert ledger.total_generated == sum(e.generated for e in ledger.entries)


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=10),
    user_tokens=st.integers(min_value=1, max_value=30),
    reply_tokens=st.integers(min_value=1, max_value=30),
)
def test_cached_ledger_identity_property(k, user_tokens, reply_tokens):
    transcript = multi_turn_transcript(k, user_tokens, reply_tokens)
    ledger = ledger_for_session(transcript)[MODE_CACHED]
    assert ledger.total_prefill_new + ledger.total_generated == conversation_token_count(transcript)


class TestSimulation:
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 32])
    def test_multi_turn_against_closed_forms(self, k):
        s, t, o, sp = 100, 100, 12, 0
        shape = DocShape.uniform(k, s, t, instruction_overhead=o, shared_prefix_tokens=sp)
        uncached = simulate_strategy_costs(Mode.MULTI_TURN, shape)[MODE_UNCACHED]
        cached = simulate_strategy_costs(Mode.MULTI_TURN, shape)[MODE_CACHED]
        assert uncached.total_prefill_new == oracles.closed_form_multi_turn_uncached(k, s, t, o, sp)
        assert cached.total_prefill_new == oracles.closed_form_multi_turn_cached(k, s, o, sp)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_segment_level_cache_only_affects_shared_prefix(self, k):
        shape = DocShape.uniform(k, 50, 60, instruction_overhead=5, shared_prefix_tokens=200)
        cached = simulate_strategy_costs(Mode.SEGMENT_LEVEL, shape)[MODE_CACHED]
        uncached = simulate_strategy_costs(Mode.SEGMENT_LEVEL, shape)[MODE_UNCACHED]
        assert uncached.total_prefill_new - cached.total_prefill_new == 200 * (k - 1)

    def test_source_primed_adds_primer_once_in_cached_mode(self):
        shape = DocShape.uniform(6, 40, 50, instruction_overhead=8, primer_intro_overhead=25)
        cached_sp = simulate_strategy_costs(Mode.MULTI_TURN_SP, shape)[MODE_CACHED]
        cached_mt = simulate_strategy_costs(Mode.MULTI_TURN, shape)[MODE_CACHED]
        primer_tokens = 25 + 6 * 40
        assert cached_sp.total_prefill_new - cached_mt.total_prefill_new == primer_tokens

    def test_generated_tokens_equal_in_both_modes(self):
        shape = DocShape.uniform(5, 30, 45)
        for strategy in Mode:
            cached = simulate_strategy_costs(strategy, shape)[MODE_CACHED]
            uncached = simulate_strategy_costs(strategy, shape)[MODE_UNCACHED]
            assert cached.total_generated == uncached.total_generated


class TestCompareStrategies:
    def test_rows_cover_matrix(self):
        rows = compare_strategies(DocShape.uniform(4, 10, 10))
        assert len(rows) == len(Mode) * 2
        assert {(r.strategy, r.cache_mode) for r in rows} == {
            (m, c) for m in Mode for c in (MODE_CACHED, MODE_UNCACHED)
        }

    def test_ratio_against_segment_level(self):
        rows = compare_strategies(DocShape.uniform(4, 10, 10))
        by_key = {(r.strategy, r.cache_mode): r for r in rows}
        base = by_key[(Mode.SEGMENT_LEVEL, MODE_UNCACHED)]
        assert base.prefill_ratio_vs_segment_level == 1.0
        mt = by_key[(Mode.MULTI_TURN, MODE_UNCACHED)]
        assert mt.prefill_ratio_vs_segment_level == pytest.approx(
            mt.total_prefill / base.total_prefill
        )

    def test_one_walk_per_strategy(self, monkeypatch):
        walks = []
        original = costing._ledger_over_keyed_turns

        def walk(turns, *args):
            walks.append(turns)
            return original(turns, *args)

        monkeypatch.setattr(costing, "_ledger_over_keyed_turns", walk)
        compare_strategies(DocShape.uniform(4, 10, 10))
        assert len(walks) == len(Mode)

    def test_csv_has_documented_column_order(self):
        csv = comparison_csv(compare_strategies(DocShape.uniform(2, 5, 5)))
        header = csv.splitlines()[0]
        assert header == "strategy,cache_mode,total_prefill,total_generated,prefill_ratio_vs_segment_level"
        assert len(csv.splitlines()) == 1 + len(Mode) * 2


EXEMPLARS = [
    {"source": f"Example {i}.", "target": f"Beispiel {i}.", "src_lang": "en", "tgt_lang": "de"}
    for i in range(3)
]


def test_ledger_matches_simulation_on_real_transcript(tmp_path):
    # A real uniform multi-turn transcript and its synthetic shape must agree.
    k, user_tokens, reply_tokens = 4, 12, 7
    transcript = multi_turn_transcript(k, user_tokens, reply_tokens)
    shape = DocShape.uniform(k, user_tokens, reply_tokens)
    for mode in (MODE_CACHED, MODE_UNCACHED):
        real = ledger_for_session(transcript)[mode]
        synthetic = simulate_strategy_costs(Mode.MULTI_TURN, shape)[mode]
        assert real.total_prefill_new == synthetic.total_prefill_new
        assert real.total_generated == synthetic.total_generated

    # So must every cell of a mock_identity run, in every mode with and
    # without exemplars: the mock echoes each source segment, and the shape
    # takes its overheads from the templates rendered with empty payloads.
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [
        {"id": "de-doc", "src_lang": "en", "tgt_lang": "de",
         "src": ["One two three.", "Four five six seven.", "Eight nine."]},
        {"id": "zh-doc", "src_lang": "en", "tgt_lang": "zh", "src": ["Ten eleven.", "Twelve thirteen."]},
        {"id": "ja-doc", "src_lang": "ja", "tgt_lang": "en", "src": ["東京へ行きます。", "大阪 2 日。"]},
    ])
    plan = plan_from_dict({
        "run_id": "simulated",
        "testsets": [str(corpus)],
        "backends": [{"kind": "mock_identity", "name": "identity"}],
        "strategies": [
            {"mode": mode.value, **icl}
            for mode in Mode for icl in ({}, {"icl": True, "exemplars": EXEMPLARS})
        ],
        "output_dir": str(tmp_path / "runs"),
    })
    cells = execute(plan).cells
    assert len(cells) == 3 * 2 * len(Mode)
    templates = load_template_set()
    docs = {doc.id: doc for doc in load_testsets(plan)}
    configs = {config.label: config for config in plan.strategies}
    for (_, label, doc_id), cell in cells.items():
        config, doc = configs[label], docs[doc_id]

        def overhead(slot: str) -> int:
            empty = {"src_lang": language_name(doc.src_lang), "tgt_lang": language_name(doc.tgt_lang),
                     "segment": "", "document": ""}
            return count_tokens(templates.render(slot, empty))

        counts = [count_tokens(segment) for segment in doc.source_segments]
        shape = DocShape(
            counts,
            counts,
            instruction_overhead=overhead("document" if config.mode == Mode.SINGLE_TURN else "segment"),
            primer_intro_overhead=(
                overhead("source_primed_first") - overhead("segment")
                if config.mode == Mode.MULTI_TURN_SP else 0
            ),
            shared_prefix_tokens=sum(m.tokens for m in exemplar_messages(config, templates)),
        )
        simulated = simulate_strategy_costs(config.mode, shape)
        for mode in (MODE_CACHED, MODE_UNCACHED):
            totals = cell.ledgers[mode]["totals"]
            assert (totals["prefill_new"], totals["generated"]) == (
                simulated[mode].total_prefill_new, simulated[mode].total_generated
            ), (label, doc_id, mode)


def _entries(ledger):
    return [(e.prefill_new, e.prefill_reused, e.generated) for e in ledger.entries]


def random_keyed_turns(rng: random.Random) -> list:
    """A session of requests over a small key alphabet, so prefixes collide:
    multi-turn growth, segment-level requests over a shared prefix, and
    arbitrary requests."""
    shape = rng.choice(["multi_turn", "segment_level", "arbitrary"])
    tokens = {}

    def msg(key):
        return (key, tokens.setdefault(key, rng.randint(0, 9)))

    shared = [msg(f"s{i}") for i in range(rng.randint(0, 2))]
    turns, history = [], list(shared)
    for i in range(rng.randint(1, 12)):
        reply = msg(f"a{rng.randint(0, 4)}")
        if shape == "multi_turn":
            history.append(msg(f"u{rng.randint(0, 4)}"))
            turns.append((list(history), reply))
            history.append(reply)
        elif shape == "segment_level":
            turns.append((shared + [msg(f"u{rng.randint(0, 3)}")], reply))
        else:
            request = [msg(f"m{rng.randint(0, 2)}") for _ in range(rng.randint(0, 5))]
            turns.append((request, reply))
    return turns


def test_prefix_tree_ledger_matches_all_states_oracle():
    rng = random.Random(2312)
    for _ in range(500):
        turns = random_keyed_turns(rng)
        ledgers = _ledger_over_keyed_turns(turns)
        cached = ledgers[MODE_CACHED]
        assert _entries(cached) == oracles.all_states_cached_ledger(turns)
        uncached = ledgers[MODE_UNCACHED]
        assert _entries(uncached) == [(sum(t for _, t in r), 0, a[1]) for r, a in turns]


def test_repeated_paragraph_reuses_an_older_state():
    # Segment-level with paragraph u0 repeated at turn 2: the best matching
    # state is turn 0's, not the previous one.
    shared, u0, u1 = ("icl", 10), ("u0", 5), ("u1", 7)
    turns = [([shared, u0], ("a0", 4)), ([shared, u1], ("a1", 4)), ([shared, u0], ("a0", 4))]
    cached = _ledger_over_keyed_turns(turns)[MODE_CACHED]
    assert [e.prefill_reused for e in cached.entries] == [0, 10, 15]
    assert _entries(cached) == oracles.all_states_cached_ledger(turns)


def segment_level_transcript(k: int) -> Transcript:
    """Segment-level transcript: a shared system message, then one user
    message per turn."""
    shared = Message("system", words(7, "s"))
    transcript = Transcript()
    for i in range(k):
        request = (shared, user(words(5, f"u{i}_")))
        transcript.turns.append(TranscriptTurn(request, ChatResponse(words(4, f"a{i}_"))))
    return transcript


@pytest.mark.parametrize(
    "transcript",
    [multi_turn_transcript(64, 3, 2), segment_level_transcript(64)],
    ids=["multi_turn", "segment_level"],
)
def test_ledger_counts_each_distinct_message_once(monkeypatch, transcript):
    counted = counted_messages(monkeypatch)
    distinct = sorted(
        {m.content for t in transcript.turns for m in t.request_messages}
        | {t.response.content for t in transcript.turns}
    )
    # One walk gives both ledgers and counts each distinct message once.
    ledgers = ledger_for_session(transcript)
    assert sorted(m.content for m in counted) == distinct
    assert len({id(m) for m in counted}) == len(counted)
    # The request messages keep their counts, so a second walk counts only
    # each turn's reply, which the walk builds afresh.
    counted.clear()
    again = ledger_for_session(transcript)
    assert [m.content for m in counted] == [t.response.content for t in transcript.turns]
    assert {mode: _entries(ledger) for mode, ledger in again.items()} == {
        mode: _entries(ledger) for mode, ledger in ledgers.items()
    }


@settings(max_examples=60, deadline=None)
@given(
    role=st.sampled_from(["system", "user", "assistant"]),
    content=st.text(alphabet=st.sampled_from("ab 你\n\t"), max_size=12),
)
def test_message_tokens_is_count_tokens_of_the_content(role, content):
    """Message.tokens is count_tokens of the content, also for a message
    that has counted itself before."""
    message = Message(role, content)
    for _ in range(2):
        assert message.tokens == count_tokens(content)


@pytest.mark.parametrize("strategy", [Mode.MULTI_TURN, Mode.SEGMENT_LEVEL])
def test_ledger_walks_only_appended_messages(strategy):
    # 64 turns over a shared prefix: the first turn appends the prefix, and
    # every turn a user message and the reply. One walk yields both ledgers,
    # so keyed is asked 1 + 2k times for the two together.
    turns = _synthetic_turns(strategy, DocShape.uniform(64, 5, 4, shared_prefix_tokens=3))
    seen = []

    def keyed(message):
        seen.append(message)
        return message

    ledgers = _ledger_over_keyed_turns(turns, keyed)
    assert len(seen) == 1 + 2 * 64
    plain = _ledger_over_keyed_turns(turns)
    for mode in (MODE_CACHED, MODE_UNCACHED):
        assert _entries(ledgers[mode]) == _entries(plain[mode])
