"""Run-plan schema: strict parsing and validation of experiment configs.

The config file is JSON. Unknown keys are rejected with their full key path
(a typo in a field name should never silently change an experiment), and
nested component invariants (backend kinds, exemplar counts, ...) surface as
ConfigError with the same path discipline.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..corpus import Exemplar
from ..costing import TokenizerSpec, spec_for_target_language
from ..errors import ConfigError
from ..gateway import BackendConfig
from ..prompts import DEFAULT_TEMPLATE_SET
from ..strategy import Mode, StrategyConfig

FAIL_POLICIES = ("halt", "skip_and_report")

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")

_PLAN_KEYS = {
    "run_id",
    "testsets",
    "backends",
    "strategies",
    "tokenizer",
    "scoring",
    "output_dir",
    "max_concurrent_documents",
    "fail_policy",
    "template_set",
    "max_context_tokens",
}
_BACKEND_KEYS = {
    "kind",
    "name",
    "model",
    "base_url",
    "api_key_env_var",
    "max_retries",
    "requests_per_minute",
    "timeout_s",
    "dictionary_path",
    "drop_fraction",
}
_STRATEGY_KEYS = {"mode", "icl", "exemplars", "exemplar_count", "max_tokens"}
_EXEMPLAR_KEYS = {"source", "target", "src_lang", "tgt_lang"}
_SCORING_KEYS = {"blonde", "scorer_command", "top_n", "case_sensitive", "max_n"}
_TOKENIZER_IDS = ("auto", "whitespace", "char", "external")


@dataclass(frozen=True)
class ScoringConfig:
    blonde: bool = True
    scorer_command: tuple[str, ...] | None = None
    top_n: int = 10
    case_sensitive: bool = True
    max_n: int = 4


@dataclass
class RunPlan:
    run_id: str
    testsets: list[str]
    backends: list[BackendConfig]
    strategies: list[StrategyConfig]
    output_dir: str
    tokenizer: str = "auto"
    tokenizer_external_path: str | None = None
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    max_concurrent_documents: int = 1
    fail_policy: str = "skip_and_report"
    template_set: str = DEFAULT_TEMPLATE_SET
    max_context_tokens: int | None = None

    def __post_init__(self) -> None:
        if not _RUN_ID_RE.match(self.run_id):
            raise ConfigError(f"run_id: {self.run_id!r} is not filesystem-safe")
        if self.max_concurrent_documents < 1:
            raise ConfigError("max_concurrent_documents: must be >= 1")
        if self.fail_policy not in FAIL_POLICIES:
            raise ConfigError(f"fail_policy: unknown policy {self.fail_policy!r}")
        if self.tokenizer not in _TOKENIZER_IDS:
            raise ConfigError(f"tokenizer: unknown id {self.tokenizer!r}")
        names = [b.name for b in self.backends]
        if len(names) != len(set(names)):
            raise ConfigError("backends: names must be unique")
        labels = [s.label for s in self.strategies]
        if len(labels) != len(set(labels)):
            raise ConfigError("strategies: (mode, icl) combinations must be unique")

    def tokenizer_spec(self, tgt_lang: str) -> TokenizerSpec:
        """Token counting spec for a direction under this plan."""
        if self.tokenizer == "auto":
            return spec_for_target_language(tgt_lang)
        if self.tokenizer == "external":
            return TokenizerSpec("external", external_path=self.tokenizer_external_path)
        return TokenizerSpec(self.tokenizer)

    def canonical_dict(self) -> dict[str, Any]:
        """Stable dict representation used for the resume-identity hash.

        It holds every setting that can change a run's outputs, and the
        SHA-256 of each test set file's bytes, so an edited corpus is a
        different run. Left out, as operational only: output_dir (it locates
        the run), max_concurrent_documents and each backend's timeout_s.
        """
        return {
            "run_id": self.run_id,
            "testsets": [
                {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
                for path in self.testsets
            ],
            "backends": [
                {
                    "kind": b.kind,
                    "name": b.name,
                    "model": b.model,
                    "base_url": b.base_url,
                    "api_key_env_var": b.api_key_env_var,
                    "max_retries": b.max_retries,
                    "requests_per_minute": b.requests_per_minute,
                    "dictionary_path": b.dictionary_path,
                    "drop_fraction": b.drop_fraction,
                }
                for b in self.backends
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
                    "exemplar_count": s.exemplar_count,
                    "template_set": s.template_set,
                    "model_id": s.model_id,
                    "max_tokens": s.max_tokens,
                }
                for s in self.strategies
            ],
            "tokenizer": self.tokenizer,
            "tokenizer_external_path": self.tokenizer_external_path,
            "scoring": {
                "blonde": self.scoring.blonde,
                "scorer_command": list(self.scoring.scorer_command or ()),
                "top_n": self.scoring.top_n,
                "case_sensitive": self.scoring.case_sensitive,
                "max_n": self.scoring.max_n,
            },
            "fail_policy": self.fail_policy,
            "template_set": self.template_set,
            "max_context_tokens": self.max_context_tokens,
        }

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _reject_unknown(record: dict, allowed: set[str], path: str) -> None:
    unknown = set(record) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}{key}: unknown key")


def _backend_from_dict(record: dict, path: str) -> BackendConfig:
    _reject_unknown(record, _BACKEND_KEYS, path)
    if "kind" not in record:
        raise ConfigError(f"{path}kind: required")
    try:
        return BackendConfig(
            kind=record["kind"],
            name=record.get("name", ""),
            model=record.get("model", "default"),
            base_url=record.get("base_url", ""),
            api_key_env_var=record.get("api_key_env_var", "OPENAI_API_KEY"),
            max_retries=int(record.get("max_retries", 3)),
            requests_per_minute=record.get("requests_per_minute"),
            timeout_s=float(record.get("timeout_s", 120.0)),
            dictionary_path=record.get("dictionary_path"),
            drop_fraction=float(record.get("drop_fraction", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from exc


def _strategy_from_dict(record: dict, path: str, template_set: str) -> StrategyConfig:
    _reject_unknown(record, _STRATEGY_KEYS, path)
    if "mode" not in record:
        raise ConfigError(f"{path}mode: required")
    try:
        mode = Mode(record["mode"])
    except ValueError as exc:
        raise ConfigError(f"{path}mode: unknown mode {record['mode']!r}") from exc
    exemplars = []
    for i, ex in enumerate(record.get("exemplars", [])):
        ex_path = f"{path}exemplars[{i}]."
        _reject_unknown(ex, _EXEMPLAR_KEYS, ex_path)
        try:
            exemplars.append(
                Exemplar(
                    source=ex["source"],
                    target=ex["target"],
                    src_lang=ex["src_lang"],
                    tgt_lang=ex["tgt_lang"],
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{ex_path}{exc.args[0]}: required") from exc
    try:
        return StrategyConfig(
            mode=mode,
            icl=bool(record.get("icl", False)),
            exemplars=tuple(exemplars),
            template_set=template_set,
            exemplar_count=int(record.get("exemplar_count", 3)),
            max_tokens=record.get("max_tokens"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from exc


def plan_from_dict(record: dict, base_dir: Path | None = None) -> RunPlan:
    """Validate a parsed config dict into a RunPlan.

    Relative paths are resolved against base_dir (the config file's parent)
    when given.
    """
    _reject_unknown(record, _PLAN_KEYS, "")
    for required in ("run_id", "testsets", "backends", "strategies", "output_dir"):
        if required not in record:
            raise ConfigError(f"{required}: required")
    if not record["backends"]:
        raise ConfigError("backends: at least one backend required")
    if not record["strategies"]:
        raise ConfigError("strategies: at least one strategy required")

    def resolve(p: str) -> str:
        path = Path(p)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return str(path)

    template_set = record.get("template_set", DEFAULT_TEMPLATE_SET)
    tokenizer = record.get("tokenizer", "auto")
    tokenizer_external_path = None
    if isinstance(tokenizer, dict):
        _reject_unknown(tokenizer, {"id", "path"}, "tokenizer.")
        tokenizer_external_path = tokenizer.get("path")
        tokenizer = tokenizer.get("id", "auto")
        if tokenizer_external_path:
            tokenizer_external_path = resolve(tokenizer_external_path)

    scoring_record = record.get("scoring", {})
    _reject_unknown(scoring_record, _SCORING_KEYS, "scoring.")
    scorer_command = scoring_record.get("scorer_command")
    scoring = ScoringConfig(
        blonde=bool(scoring_record.get("blonde", True)),
        scorer_command=tuple(scorer_command) if scorer_command else None,
        top_n=int(scoring_record.get("top_n", 10)),
        case_sensitive=bool(scoring_record.get("case_sensitive", True)),
        max_n=int(scoring_record.get("max_n", 4)),
    )

    backends = [
        _backend_from_dict(b, f"backends[{i}].") for i, b in enumerate(record["backends"])
    ]
    # Resolve mock dictionary paths relative to the config file.
    backends = [
        b if b.dictionary_path is None else _replace_backend_path(b, resolve(b.dictionary_path))
        for b in backends
    ]
    strategies = [
        _strategy_from_dict(s, f"strategies[{i}].", template_set)
        for i, s in enumerate(record["strategies"])
    ]
    return RunPlan(
        run_id=record["run_id"],
        testsets=[resolve(t) for t in record["testsets"]],
        backends=backends,
        strategies=strategies,
        output_dir=resolve(record["output_dir"]),
        tokenizer=tokenizer,
        tokenizer_external_path=tokenizer_external_path,
        scoring=scoring,
        max_concurrent_documents=int(record.get("max_concurrent_documents", 1)),
        fail_policy=record.get("fail_policy", "skip_and_report"),
        template_set=template_set,
        max_context_tokens=record.get("max_context_tokens"),
    )


def _replace_backend_path(backend: BackendConfig, path: str) -> BackendConfig:
    return replace(backend, dictionary_path=path)


def load_run_config(path: str | Path) -> RunPlan:
    """Parse and validate a JSON run config file."""
    path = Path(path)
    try:
        record = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno})") from exc
    if not isinstance(record, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return plan_from_dict(record, base_dir=path.parent)
