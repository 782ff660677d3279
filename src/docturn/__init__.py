"""docturn: document-level machine-translation experiment harness.

Translates paragraph-aligned documents with four prompting strategies
(single-turn, segment-level, multi-turn, source-primed multi-turn, each with
optional in-context exemplars), keeps multi-turn conversations strictly
append-only so prefix (KV) caches stay valid, accounts prefill/generation
token costs under cached and uncached inference, and scores outputs with
document-level BLEU, BlonDE-lite discourse categories, and length/omission
statistics.
"""

__version__ = "0.1.0"

from .corpus import Document, Exemplar, TestSet, load_corpus, split_into_segments
from .strategy import (
    DocumentTranslation,
    Mode,
    SessionState,
    StrategyConfig,
    assemble_hypothesis,
    ingest_response,
    init_session,
    next_request,
)

__all__ = [
    "Document",
    "DocumentTranslation",
    "Exemplar",
    "Mode",
    "SessionState",
    "StrategyConfig",
    "TestSet",
    "__version__",
    "assemble_hypothesis",
    "ingest_response",
    "init_session",
    "load_corpus",
    "next_request",
    "split_into_segments",
]
