"""Shared fixtures: small documents, test sets, and corpus files on disk."""

from __future__ import annotations

import functools
import json
import random

import pytest

from docturn.chat import Message
from docturn.corpus import Document, Exemplar, TestSet
from docturn.prompts import load_template_set


@pytest.fixture(scope="session")
def templates():
    return load_template_set()


@pytest.fixture
def doc3():
    return Document(
        id="d1",
        src_lang="en",
        tgt_lang="de",
        domain="news",
        source_segments=("First paragraph here.", "Second paragraph now.", "Third bit."),
        reference_segments=("Erster Absatz hier.", "Zweiter Absatz jetzt.", "Drittes Stück."),
    )


@pytest.fixture
def identity_doc3():
    segments = ("Alpha one two.", "Beta three four.", "Gamma five six.")
    return Document(
        id="ident-1",
        src_lang="en",
        tgt_lang="de",
        domain="news",
        source_segments=segments,
        reference_segments=segments,
    )


@pytest.fixture
def exemplars_en_de():
    return tuple(
        Exemplar(source=f"Example source {i}.", target=f"Beispiel Ziel {i}.", src_lang="en", tgt_lang="de")
        for i in range(3)
    )


def make_random_document(
    rng: random.Random,
    doc_id: str,
    k: int,
    *,
    src_lang: str = "en",
    tgt_lang: str = "de",
    domain: str = "news",
    min_tokens: int = 3,
    max_tokens: int = 12,
    identity_refs: bool = True,
) -> Document:
    segments = []
    for _ in range(k):
        n = rng.randint(min_tokens, max_tokens)
        segments.append(" ".join(f"w{rng.randint(0, 60)}" for _ in range(n)))
    segments = tuple(segments)
    return Document(
        id=doc_id,
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        domain=domain,
        source_segments=segments,
        reference_segments=segments if identity_refs else None,
    )


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


@pytest.fixture
def corpus_file(tmp_path):
    """A small valid mixed-domain corpus on disk."""
    path = tmp_path / "testset.jsonl"
    write_jsonl(
        path,
        [
            {
                "id": "doc-a",
                "src_lang": "en",
                "tgt_lang": "de",
                "domain": "news",
                "src": ["Hello world.", "Second line."],
                "ref": ["Hallo Welt.", "Zweite Zeile."],
            },
            {
                "id": "doc-b",
                "src_lang": "en",
                "tgt_lang": "de",
                "domain": "literary",
                "src": ["One paragraph only."],
                "ref": ["Nur ein Absatz."],
            },
            {
                "id": "doc-c",
                "src_lang": "cs",
                "tgt_lang": "uk",
                "domain": "education",
                "src": ["Prvni veta.", "Druha veta.", "Treti veta."],
            },
        ],
    )
    return path


def make_testset(documents) -> TestSet:
    return TestSet(name="fixture", documents=list(documents))


def counted_messages(monkeypatch) -> list[Message]:
    """Every message whose content is counted from now on (Message.tokens
    computed), in order."""
    counted: list[Message] = []
    original = Message.tokens.func

    def spy(message: Message) -> int:
        counted.append(message)
        return original(message)

    counting = functools.cached_property(spy)
    counting.__set_name__(Message, "tokens")
    monkeypatch.setattr(Message, "tokens", counting)
    return counted
