"""The config schema: the dataclasses' fields, types and defaults, the key
paths of its errors, the config hash and the README's table of keys."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from docturn.cli import main
from docturn.corpus import Exemplar
from docturn.errors import ConfigError
from docturn.gateway import BACKEND_KINDS, BackendConfig
from docturn.runner import config
from docturn.runner.config import (
    FAIL_POLICIES,
    RunPlan,
    ScoringConfig,
    plan_from_dict,
)
from docturn.strategy import Mode, StrategyConfig

from .oracles import reference_canonical_dict
from .test_runner import _identity_plan, _single_field_changes, minimal_plan_dict

README = Path(__file__).parent.parent / "README.md"

EXEMPLARS = [
    {"source": f"Quelle {i}.", "target": f"Source {i}.", "src_lang": "de", "tgt_lang": "en"}
    for i in range(3)
]


def _strategy(**change):
    return lambda record: record["strategies"][0].update(change)


def _backend(**change):
    return lambda record: record["backends"][0].update(change)


def _scoring(**change):
    return lambda record: record.update(scoring=change)


def _plan(**change):
    return lambda record: record.update(change)


def _empty_source(record):
    exemplars = [dict(e) for e in EXEMPLARS]
    exemplars[0]["source"] = ""
    record["strategies"][0].update(icl=True, exemplars=exemplars)


# (key path named by the error, edit of the minimal plan)
BAD_VALUES = {
    "icl_string": ("strategies[0].icl", _strategy(icl="false")),
    "blonde_string": ("scoring.blonde", _scoring(blonde="false")),
    "case_sensitive_string": ("scoring.case_sensitive", _scoring(case_sensitive="false")),
    "max_context_tokens_string": ("max_context_tokens", _plan(max_context_tokens="100")),
    "max_tokens_string": ("strategies[0].max_tokens", _strategy(max_tokens="64")),
    "max_retries_float": ("backends[0].max_retries", _backend(max_retries=2.7)),
    "scorer_command_string": ("scoring.scorer_command", _scoring(scorer_command="comet-score")),
    "testsets_string": ("testsets", _plan(testsets="a.jsonl")),
    "testsets_empty": ("testsets", _plan(testsets=[])),
    "exemplar_empty_source": ("strategies[0].exemplars[0]", _empty_source),
    # Unknown keys, even at the one value every run used: one template set
    # ships, and ICL takes exactly three exemplars.
    "template_set_key": ("template_set", _plan(template_set="wmt24-style-v1")),
    "exemplar_count_key": ("strategies[0].exemplar_count", _strategy(exemplar_count=3)),
    "requests_per_minute_0": ("backends[0].requests_per_minute", _backend(requests_per_minute=0)),
    "max_retries_negative": ("backends[0].max_retries", _backend(max_retries=-1)),
    "timeout_s_0": ("backends[0].timeout_s", _backend(timeout_s=0)),
    "max_n_0": ("scoring.max_n", _scoring(max_n=0)),
    "top_n_negative": ("scoring.top_n", _scoring(top_n=-1)),
    "max_tokens_0": ("strategies[0].max_tokens", _strategy(max_tokens=0)),
    "max_context_tokens_0": ("max_context_tokens", _plan(max_context_tokens=0)),
    "run_id_dotdot": ("run_id", _plan(run_id="..")),
    "name_escapes": ("backends[0].name", _backend(name="../../escaped")),
    "name_dot": ("backends[0].name", _backend(name=".")),
    "name_dotdot": ("backends[0].name", _backend(name="..")),
    "drop_fraction_1_5": ("backends[0].drop_fraction", _backend(drop_fraction=1.5)),
    "kind_unknown": ("backends[0].kind", _backend(kind="nope")),
    "icl_without_exemplars": ("strategies[0].exemplars", _strategy(icl=True)),
}


@pytest.mark.parametrize("key, edit", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_is_a_config_error_naming_its_key(tmp_path, key, edit):
    record = minimal_plan_dict(tmp_path)
    edit(record)
    with pytest.raises(ConfigError, match=re.escape(key) + "[:.]"):
        plan_from_dict(record)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(record), "utf-8")
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("invalid config: ") and key in result.output
    assert not (tmp_path / "runs").exists()


def test_json_types_are_taken_as_the_fields_declare(tmp_path):
    plan = plan_from_dict(minimal_plan_dict(
        tmp_path,
        backends=[{"kind": "mock_tail_dropper", "drop_fraction": 0, "timeout_s": 5}],
        strategies=[{"mode": "multi_turn", "icl": True, "exemplars": EXEMPLARS}],
        scoring={"scorer_command": ["score", "--fast"]},
    ))
    backend, strategy = plan.backends[0], plan.strategies[0]
    assert type(backend.drop_fraction) is float and type(backend.timeout_s) is float
    assert strategy.exemplars == tuple(Exemplar(**e) for e in EXEMPLARS)
    assert plan.scoring.scorer_command == ("score", "--fast")
    assert ScoringConfig().scorer_command == ()


def _readme_example(tmp_path: Path) -> RunPlan:
    """The run config shown in the README, with its test set written."""
    text = README.read_text("utf-8")
    example = text[text.index("## Running an experiment"):]
    start = example.index("```json\n") + len("```json\n")
    block = example[start:example.index("\n```", start)]
    minimal_plan_dict(tmp_path)  # writes corpus.jsonl
    (tmp_path / "testset.jsonl").write_bytes((tmp_path / "corpus.jsonl").read_bytes())
    return plan_from_dict(json.loads(block), base_dir=tmp_path)


def _benchmark_like(tmp_path: Path, workload: str) -> RunPlan:
    """A plan shaped as the benchmark builds one for a workload."""
    modes = ["single_turn", "segment_level", "multi_turn", "multi_turn_sp"]
    if workload == "long_docs":
        backends = [{"kind": "mock_identity", "name": "identity"},
                    {"kind": "mock_tail_dropper", "name": "dropper", "drop_fraction": 0.3}]
        strategies = [{"mode": mode} for mode in modes]
    else:
        backends = [{"kind": "mock_identity", "name": "identity"},
                    {"kind": "openai_compatible", "name": "fake_openai",
                     "base_url": "http://127.0.0.1:9", "api_key_env_var": "BENCH_KEY",
                     "max_retries": 3}]
        strategies = [{"mode": mode, "icl": True, "exemplars": EXEMPLARS} for mode in modes]
    return plan_from_dict(minimal_plan_dict(
        tmp_path, run_id="bench", backends=backends, strategies=strategies,
        max_concurrent_documents=1, fail_policy="skip_and_report",
    ))


def _every_optional_key(tmp_path: Path) -> RunPlan:
    (tmp_path / "dict.json").write_text('{"One": "Eins"}', "utf-8")
    return plan_from_dict(minimal_plan_dict(
        tmp_path,
        backends=[{"kind": "mock_dictionary", "name": "dict", "model": "m", "base_url": "u",
                   "api_key_env_var": "KEY", "max_retries": 0, "requests_per_minute": 7,
                   "timeout_s": 3, "dictionary_path": "dict.json", "drop_fraction": 0}],
        strategies=[{"mode": "multi_turn_sp", "icl": True, "exemplars": EXEMPLARS,
                     "max_tokens": 64}],
        scoring={"blonde": False, "scorer_command": ["score"], "top_n": 0,
                 "case_sensitive": False, "max_n": 2},
        max_concurrent_documents=2, fail_policy="halt", max_context_tokens=100,
    ), base_dir=tmp_path)


@pytest.mark.parametrize("build", [
    _readme_example,
    lambda tmp_path: _benchmark_like(tmp_path, "long_docs"),
    lambda tmp_path: _benchmark_like(tmp_path, "short_docs"),
    _every_optional_key,
], ids=["readme_example", "long_docs", "short_docs", "every_optional_key"])
def test_canonical_dict_serializes_as_the_hand_listed_reference(tmp_path, build):
    """Existing run directories resume only while the hash payload is unchanged."""
    plan = build(tmp_path)

    def serialized(record: dict) -> str:
        return json.dumps(record, sort_keys=True, ensure_ascii=False)

    assert serialized(plan.canonical_dict()) == serialized(reference_canonical_dict(plan))


def test_every_field_is_a_config_key():
    """A field that no config key sets keeps its default in every run, so
    the schemas leave out none."""
    assert set(config._SCHEMAS) == {RunPlan, BackendConfig, StrategyConfig, Exemplar,
                                    ScoringConfig}
    for cls, schema in config._SCHEMAS.items():
        assert [f.name for f in dataclasses.fields(cls)] == list(schema), cls.__name__


# The README's config-key table: its "object" column -> the class it documents.
TABLE_OBJECTS = {
    "plan": RunPlan,
    "backend": BackendConfig,
    "strategy": StrategyConfig,
    "exemplar": Exemplar,
    "scoring": ScoringConfig,
}

# The keys whose Range cell enumerates their values: (object, key) -> the
# values the code accepts, in the code's order.
TABLE_ENUMS = {
    ("backend", "kind"): BACKEND_KINDS,
    ("strategy", "mode"): tuple(mode.value for mode in Mode),
    ("plan", "fail_policy"): FAIL_POLICIES,
}


def _readme_table() -> list[list[str]]:
    text = README.read_text("utf-8")
    table = text[text.index("| Object | Key |"):].split("\n\n")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]
    return rows[2:]  # below the header and its rule


def test_readme_key_table_matches_the_schema(tmp_path):
    """The table documents exactly the keys the builder accepts, which of them
    are required, the values of each key that takes one of a fixed set, and
    which of them the config hash covers: changing a key alone moves the hash
    exactly when the table calls it hashed."""
    plan = _identity_plan(tmp_path)
    changes = _single_field_changes(plan, tmp_path)
    documented: dict[str, set[str]] = {name: set() for name in TABLE_OBJECTS}
    for obj, key, _json_type, default, range_, hashed in _readme_table():
        key = key.strip("`")
        documented[obj].add(key)
        _, _, required = config._SCHEMAS[TABLE_OBJECTS[obj]][key]
        assert (default == "required") == required, (obj, key)
        moves = changes[TABLE_OBJECTS[obj], key].config_hash != plan.config_hash
        assert hashed.startswith("hashed" if moves else "operational"), (obj, key)
        if (obj, key) in TABLE_ENUMS:
            values = ", ".join(f"`{value}`" for value in TABLE_ENUMS[obj, key])
            assert range_ == values, (obj, key)
    for obj, cls in TABLE_OBJECTS.items():
        assert documented[obj] == set(config._SCHEMAS[cls]), obj
