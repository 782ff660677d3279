"""Loading and validation of paragraph-aligned document test sets.

A test set is a JSONL file, one document per line:

    {"id": str, "src_lang": str, "tgt_lang": str, "domain": str,
     "src": [str, ...], "ref": [str, ...]}    # "domain" and "ref" optional

Documents arrive pre-segmented at the paragraph level. Text is NFC-normalized
and trimmed at load time so token counts and n-gram matching are stable.
Unknown top-level keys are tolerated with a warning; a value of another
JSON type and structural problems (misaligned references, duplicate ids,
empty segments, a source segment holding a blank line, which would read as
two paragraphs in a single-turn request) are hard errors.
"""

from __future__ import annotations

import io
import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import CorpusError

logger = logging.getLogger(__name__)

_KNOWN_KEYS = {"id", "src_lang", "tgt_lang", "domain", "src", "ref"}

SEGMENT_RULES = ("blank_line", "single_newline")


@dataclass(frozen=True)
class Document:
    """One paragraph-aligned source document, optionally with references."""

    id: str
    src_lang: str
    tgt_lang: str
    domain: str
    source_segments: tuple[str, ...]
    reference_segments: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.source_segments, tuple):
            object.__setattr__(self, "source_segments", tuple(self.source_segments))
        if self.reference_segments is not None and not isinstance(self.reference_segments, tuple):
            object.__setattr__(self, "reference_segments", tuple(self.reference_segments))
        self.validate()

    def validate(self) -> None:
        if not self.id:
            raise CorpusError("document id must be non-empty")
        if not self.source_segments:
            raise CorpusError("document has no source segments", doc_id=self.id)
        for i, seg in enumerate(self.source_segments):
            if not seg.strip():
                raise CorpusError(f"source segment {i} is empty", doc_id=self.id)
            if _BLANK_LINE_RE.search(seg):
                raise CorpusError(f"source segment {i} holds a blank line", doc_id=self.id)
        if self.reference_segments is not None:
            if len(self.reference_segments) != len(self.source_segments):
                raise CorpusError(
                    f"reference/source alignment mismatch: "
                    f"{len(self.reference_segments)} reference vs "
                    f"{len(self.source_segments)} source segments",
                    doc_id=self.id,
                )
        if self.src_lang == self.tgt_lang:
            raise CorpusError(
                f"source and target language are both '{self.src_lang}'", doc_id=self.id
            )

    @property
    def direction(self) -> str:
        return f"{self.src_lang}-{self.tgt_lang}"

    @property
    def num_segments(self) -> int:
        return len(self.source_segments)


@dataclass
class TestSet:
    """An ordered collection of documents with unique ids."""

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    documents: list[Document] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise CorpusError("duplicate document id", doc_id=doc.id)
            seen.add(doc.id)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    @property
    def directions(self) -> list[str]:
        out: list[str] = []
        for doc in self.documents:
            if doc.direction not in out:
                out.append(doc.direction)
        return out

    @property
    def domains(self) -> set[str]:
        return {doc.domain for doc in self.documents}


@dataclass(frozen=True)
class Exemplar:
    """One in-context translation demonstration (source/target pair)."""

    source: str
    target: str
    src_lang: str
    tgt_lang: str

    def __post_init__(self) -> None:
        if not self.source.strip():
            raise CorpusError("exemplar source must be non-empty")
        if not self.target.strip():
            raise CorpusError("exemplar target must be non-empty")


def _normalize(text: str) -> str:
    return unicodedata.normalize("NFC", text).strip()


def load_corpus(path: str | Path) -> TestSet:
    """Load and validate a JSONL test set.

    Raises CorpusError with the line number on parse failures and with the
    document id on invariant violations.
    """
    path = Path(path)
    return parse_corpus(path.read_bytes(), path)


def parse_corpus(data: bytes, path: str | Path) -> TestSet:
    """The test set in data, the bytes of the JSONL file at path, which names
    the test set and its warnings. Raises as load_corpus does."""
    path = Path(path)
    documents: list[Document] = []
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # name its line as the loop below counts lines
        before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).getvalue()
        raise CorpusError("not valid UTF-8", line=before.count("\n") + 1) from None
    with io.StringIO(text, newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(record, dict):
                raise CorpusError("each line must be a JSON object", line=lineno)
            unknown = set(record) - _KNOWN_KEYS
            if unknown:
                logger.warning(
                    "%s line %d: ignoring unknown keys %s", path, lineno, sorted(unknown)
                )
            try:
                documents.append(_document_from_record(record, lineno))
            except KeyError as exc:
                raise CorpusError(f"missing required key {exc.args[0]!r}", line=lineno) from exc
    return TestSet(name=path.stem, documents=documents)


def _document_from_record(record: dict, line: int) -> Document:
    ref = record.get("ref")
    return Document(
        id=_string(record["id"], "id", line),
        src_lang=_string(record["src_lang"], "src_lang", line),
        tgt_lang=_string(record["tgt_lang"], "tgt_lang", line),
        domain=_string(record.get("domain", "unknown"), "domain", line),
        source_segments=_segments(record["src"], "src", line),
        reference_segments=None if ref is None else _segments(ref, "ref", line),
    )


def _string(value: object, key: str, line: int) -> str:
    if not isinstance(value, str):
        raise CorpusError(f"{key!r} must be a string", line=line)
    return value


def _segments(value: object, key: str, line: int) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise CorpusError(f"{key!r} must be a list of strings", line=line)
    return tuple(_normalize(s) for s in value)


_BLANK_LINE_RE = re.compile(r"\n\s*\n")


def split_into_segments(raw_text: str, rule: str = "blank_line") -> list[str]:
    """Split raw text into trimmed, non-empty segments.

    blank_line treats runs of one or more blank lines as separators;
    single_newline splits on every newline. Joining the result with the
    rule's separator and re-splitting is a fixed point.
    """
    if rule not in SEGMENT_RULES:
        raise ValueError(f"unknown segmentation rule: {rule!r}")
    if rule == "blank_line":
        parts = _BLANK_LINE_RE.split(raw_text)
    else:
        parts = raw_text.split("\n")
    return [seg for seg in (p.strip() for p in parts) if seg]


def segment_separator(rule: str) -> str:
    """The canonical joiner for segments produced under the given rule."""
    if rule == "blank_line":
        return "\n\n"
    if rule == "single_newline":
        return "\n"
    raise ValueError(f"unknown segmentation rule: {rule!r}")
