"""Exception hierarchy shared across the harness."""


class DocturnError(Exception):
    """Base class for all harness errors."""


class CorpusError(DocturnError):
    """Invalid test-set file or document (parse failure, broken invariant)."""

    def __init__(self, message: str, *, doc_id: str | None = None, line: int | None = None):
        self.doc_id = doc_id
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if doc_id is not None:
            prefix += f"document '{doc_id}': "
        super().__init__(prefix + message)


class TemplateError(DocturnError):
    """Unknown template slot or unbound placeholder."""


class SessionContractError(DocturnError):
    """A session operation was called outside its legal state."""


class GatewayError(DocturnError):
    """Backend request failed and is not recoverable."""


class TransportError(GatewayError):
    """Network-level failure after exhausting retries."""


class ContextOverflowError(GatewayError):
    """The request would exceed the model's context window."""


class PrefixStabilityError(DocturnError):
    """A multi-turn transcript does not extend its own history append-only."""


class ScorerError(DocturnError):
    """External segment scorer violated its line-aligned contract."""


class ConfigError(DocturnError):
    """Run configuration is invalid; message carries the offending key path."""


class ResumeMismatchError(DocturnError):
    """An existing run directory was produced by a different configuration."""
