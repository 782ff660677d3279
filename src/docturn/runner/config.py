"""Run-plan schema: strict parsing and validation of experiment configs.

The config file is JSON, and the dataclasses are its schema: the keys of each
JSON object are exactly the fields of its class, a field without a default is
required, and each value must have its field's annotated type. An unknown or
missing key, a value of the wrong type and a broken component invariant are
all a ConfigError naming the full key path, so a typo or a mistyped value
never silently changes an experiment.

RunPlan is defined here; each other schema class lives with the code that
reads it: BackendConfig in gateway, StrategyConfig in strategy, Exemplar in
corpus and ScoringConfig in metrics.report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import types
from dataclasses import MISSING, dataclass, field, replace
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

from ..corpus import Exemplar
from ..errors import ConfigError, CorpusError
from ..gateway import BackendConfig
from ..metrics.report import ScoringConfig
from ..strategy import Mode, StrategyConfig

FAIL_POLICIES = ("halt", "skip_and_report")

# Where a run's files go, how fast and how persistently it calls a backend,
# what a failure stops, and how its reports score: no request or reply depends
# on any of these fields, so the config hash leaves them out.
OPERATIONAL = frozenset({"output_dir", "max_concurrent_documents", "timeout_s", "max_retries",
                         "requests_per_minute", "fail_policy", "scoring"})

# A run id or a backend name names one directory or file of a run: not empty,
# not "." or "..", and without a path separator.
_RUN_ID_RE = re.compile(r"^(?!\.\.?$)[A-Za-z0-9._-]+$")


@dataclass
class RunPlan:
    run_id: str
    testsets: list[str]
    backends: list[BackendConfig]
    strategies: list[StrategyConfig]
    output_dir: str
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    max_concurrent_documents: int = 1
    fail_policy: str = "skip_and_report"
    max_context_tokens: int | None = None

    def __post_init__(self) -> None:
        if not _RUN_ID_RE.match(self.run_id):
            raise ConfigError(f"run_id: {self.run_id!r} is not filesystem-safe")
        if not self.testsets:
            raise ConfigError("testsets: at least one test set required")
        if not self.backends:
            raise ConfigError("backends: at least one backend required")
        if not self.strategies:
            raise ConfigError("strategies: at least one strategy required")
        if self.max_concurrent_documents < 1:
            raise ConfigError("max_concurrent_documents: must be >= 1")
        if self.fail_policy not in FAIL_POLICIES:
            raise ConfigError(f"fail_policy: unknown policy {self.fail_policy!r}")
        if self.max_context_tokens is not None and self.max_context_tokens < 1:
            raise ConfigError("max_context_tokens: must be >= 1")
        names = [b.name for b in self.backends]
        for i, name in enumerate(names):
            if not _RUN_ID_RE.match(name):
                raise ConfigError(f"backends[{i}].name: {name!r} is not filesystem-safe")
        if len(names) != len(set(names)):
            raise ConfigError("backends: names must be unique")
        labels = [s.label for s in self.strategies]
        if len(labels) != len(set(labels)):
            raise ConfigError("strategies: (mode, icl) combinations must be unique")

    def canonical_dict(self, files: dict[str, bytes] | None = None) -> dict[str, Any]:
        """Stable dict representation used for the resume-identity hash.

        It holds every field but the OPERATIONAL ones, which decide no
        request and no reply, and it holds each file a run reads (test sets
        and mock dictionaries) as its path and the SHA-256 of its bytes, so an edited
        file is a different run. files maps a path to the bytes a run has
        read from it; each file not in it is read and added.
        """
        files = {} if files is None else files
        record = dataclasses.asdict(
            self, dict_factory=lambda items: {k: v for k, v in items if k not in OPERATIONAL}
        )
        record["testsets"] = [
            _file_identity(path, f"testsets[{i}]", files) for i, path in enumerate(self.testsets)
        ]
        for i, backend in enumerate(record["backends"]):
            backend["dictionary_path"] = _file_identity(
                backend["dictionary_path"], f"backends[{i}].dictionary_path", files
            )
        return record

    def config_hash_of(self, files: dict[str, bytes]) -> str:
        """The config hash over the bytes in files, reading and adding any
        file a run reads that files lacks."""
        payload = json.dumps(self.canonical_dict(files), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def config_hash(self) -> str:
        return self.config_hash_of({})


def _file_identity(path: str | None, key: str, files: dict[str, bytes]) -> dict[str, str] | None:
    """A file a run reads, as its path and the SHA-256 of its bytes."""
    if path is None:
        return None
    if path not in files:
        try:
            files[path] = Path(path).read_bytes()
        except OSError as exc:
            raise ConfigError(f"{key}: cannot read {path} ({exc.strerror})") from None
    return {"path": path, "sha256": hashlib.sha256(files[path]).hexdigest()}


def _schema(cls: type) -> dict[str, tuple]:
    """The JSON keys of cls: field name -> (annotated type less any
    `| None`, whether it is nullable, whether it is required)."""
    hints = get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        hint, nullable = hints[f.name], False
        if get_origin(hint) in (Union, types.UnionType):  # X | None
            (hint,), nullable = [a for a in get_args(hint) if a is not type(None)], True
        schema[f.name] = (hint, nullable, f.default is MISSING and f.default_factory is MISSING)
    return schema


# Resolved once, here: resolving type hints costs far more than a parse.
_SCHEMAS = {
    RunPlan: _schema(RunPlan),
    BackendConfig: _schema(BackendConfig),
    StrategyConfig: _schema(StrategyConfig),
    Exemplar: _schema(Exemplar),
    ScoringConfig: _schema(ScoringConfig),
}

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _value(hint: Any, value: Any, key: str) -> Any:
    """A JSON value as a field of the annotated type hint; key names it in errors."""
    if hint in _JSON_TYPES:
        if isinstance(value, bool) == (hint is bool):  # a JSON boolean is no number
            if hint is float and isinstance(value, int):
                return float(value)  # so that 0 and 0.0 hash alike
            if isinstance(value, hint):
                return value
        raise ConfigError(f"{key}: expected {_JSON_TYPES[hint]}, got {value!r}")
    if hint in _SCHEMAS:
        return _build(hint, value, f"{key}.")
    if hint is Mode:
        try:
            return Mode(value)
        except ValueError:
            raise ConfigError(f"{key}: unknown mode {value!r}") from None
    # list[X] or tuple[X, ...]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list, got {value!r}")
    item = get_args(hint)[0]
    return get_origin(hint)(_value(item, v, f"{key}[{i}]") for i, v in enumerate(value))


def _build(cls: type, record: Any, path: str) -> Any:
    """An instance of cls from its JSON object record. path prefixes every
    key path in errors."""
    if not isinstance(record, dict):
        raise ConfigError(f"{path[:-1]}: expected an object, got {record!r}")
    schema = _SCHEMAS[cls]
    if not record.keys() <= schema.keys():
        raise ConfigError(f"{path}{min(record.keys() - schema.keys())}: unknown key")
    given = {}
    for name, (hint, nullable, required) in schema.items():
        if name in record:
            value = record[name]
            given[name] = None if value is None and nullable else _value(hint, value, path + name)
        elif required:
            raise ConfigError(f"{path}{name}: required")
    try:
        return cls(**given)
    except ConfigError as exc:  # a check naming its own key
        raise ConfigError(f"{path}{exc}") from None
    except CorpusError as exc:  # an exemplar's own check
        raise ConfigError(f"{path[:-1]}: {exc}") from None


def plan_from_dict(record: dict, base_dir: Path | None = None) -> RunPlan:
    """Validate a parsed config dict into a RunPlan.

    Relative paths are resolved against base_dir (the config file's parent)
    when given.
    """

    def resolve(p: str) -> str:
        path = Path(p)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return str(path)

    plan = _build(RunPlan, record, "")
    plan.testsets = [resolve(t) for t in plan.testsets]
    plan.output_dir = resolve(plan.output_dir)
    plan.backends = [
        b if b.dictionary_path is None else replace(b, dictionary_path=resolve(b.dictionary_path))
        for b in plan.backends
    ]
    return plan


def load_run_config(path: str | Path) -> RunPlan:
    """Parse and validate a JSON run config file."""
    path = Path(path)
    try:
        record = json.loads(path.read_text("utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno})") from exc
    if not isinstance(record, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return plan_from_dict(record, base_dir=path.parent)
