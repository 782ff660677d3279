"""Seeded synthetic corpora for the benchmark.

Document counts, paragraph counts, sentences per paragraph and words per
sentence come from a fixed layout RNG, so every seed yields corpora of the
same shape; the seed only picks the words. Sources are written in the
target language's script because the mock backends translate by echoing
the source: the echo is then a plausible hypothesis, and references are
seeded perturbations of the source so that dBLEU and BlonDE-lite score
partial matches rather than 100 and 1.0.

The English vocabulary draws on every BlonDE-lite category: pronouns,
connectives (single- and multi-word), tense auxiliaries and -ed/-ing
verbs, and capitalised multi-word names that appear mid-sentence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LAYOUT_SEED = 20250313

PRONOUNS = ("he", "she", "it", "we", "you", "i", "him", "her", "us", "me", "his", "its", "our", "my")
CONNECTIVES = (
    "However,", "Therefore,", "Moreover,", "Meanwhile,", "Nevertheless,", "As a result,",
    "On the other hand,", "For example,", "In addition,", "Finally,", "Instead,", "Indeed,",
)
INNER_CONNECTIVES = ("and", "but", "because", "so", "while", "although", "since", "whereas")
AUXILIARIES = ("was", "were", "has", "had", "will", "would", "could", "might", "is", "are", "should")
VERBS_ED = (
    "walked", "opened", "signed", "called", "reported", "visited", "crossed", "painted",
    "repaired", "closed", "finished", "carried", "watched", "delivered", "ordered", "noticed",
)
VERBS_ING = (
    "walking", "opening", "signing", "calling", "reporting", "visiting", "crossing",
    "painting", "repairing", "closing", "finishing", "carrying", "watching", "delivering",
)
NOUNS = (
    "report", "bridge", "market", "letter", "river", "council", "harbour", "garden", "station",
    "museum", "contract", "window", "village", "engine", "meeting", "library", "budget",
    "school", "road", "storm", "ship", "tower", "field", "company", "archive", "festival",
)
ADJECTIVES = (
    "old", "new", "quiet", "heavy", "bright", "narrow", "public", "final", "early", "late",
    "northern", "small", "large", "wooden", "careful", "sudden", "local", "formal",
)
PREPOSITIONS = ("near", "after", "before", "across", "inside", "beyond", "under", "with", "for")
FIRST_NAMES = ("Maria", "Tomas", "Elena", "Jonas", "Aiko", "Pavel", "Lena", "Omar", "Ingrid", "Rafael")
LAST_NAMES = ("Keller", "Novak", "Brandt", "Moreau", "Sato", "Lindqvist", "Okafor", "Varga")
PLACES = ("Port Alden", "North Quay", "Lake Orvel", "Saint Brena", "Cape Morrow", "Old Mill Lane")

GERMAN = (
    "der", "die", "das", "und", "aber", "weil", "Haus", "Brücke", "Markt", "Brief", "Fluss",
    "Rat", "Hafen", "Garten", "Bahnhof", "Museum", "Vertrag", "Fenster", "Dorf", "alt", "neu",
    "ruhig", "schwer", "hell", "früh", "spät", "war", "hatte", "wird", "ging", "kam", "sah",
    "öffnete", "schrieb", "rief", "nach", "vor", "über", "unter", "mit", "für", "sie", "er", "es",
)
HANZI = (
    "我们他她它的是在有和了不这那个人们来到说要会能对也就都而及与着或但因为所以然后如果"
    "虽然市场河流委员会港口花园车站博物馆合同窗户村庄发动机会议图书馆预算学校道路风暴船塔田公司"
)
DIRECTION_LANGS = {"de-en": ("de", "en"), "zh-en": ("zh", "en"), "fr-en": ("fr", "en"),
                   "en-de": ("en", "de"), "en-zh": ("en", "zh")}


@dataclass(frozen=True)
class DocLayout:
    """Shape of one document: direction, domain and words per sentence."""

    doc_id: str
    direction: str
    domain: str
    paragraphs: tuple[tuple[int, ...], ...]  # per paragraph: words per sentence


@dataclass(frozen=True)
class WorkloadShape:
    """Layout parameters of a corpus; fixed per workload, never seeded."""

    name: str
    paragraphs: tuple[int, ...]  # paragraph count of each document
    sentences: tuple[int, int]  # sentences per paragraph
    words: tuple[int, int]  # words per sentence
    directions: tuple[tuple[str, int], ...]  # (direction, weight)
    domains: tuple[str, ...]


def layout(shape: WorkloadShape) -> list[DocLayout]:
    """Document shapes from the fixed layout seed, identical for every run seed."""
    rng = random.Random(f"{LAYOUT_SEED}:{shape.name}")
    directions = [d for d, weight in shape.directions for _ in range(weight)]
    docs = []
    for i, count in enumerate(shape.paragraphs):
        paragraphs = tuple(
            tuple(rng.randint(*shape.words) for _ in range(rng.randint(*shape.sentences)))
            for _ in range(count)
        )
        docs.append(
            DocLayout(
                doc_id=f"{shape.name}-{i:04d}",
                direction=directions[i % len(directions)],
                # Domains advance once per direction cycle, so every
                # direction sees every domain.
                domain=shape.domains[(i // len(directions)) % len(shape.domains)],
                paragraphs=paragraphs,
            )
        )
    return docs


def _entity(rng: random.Random) -> list[str]:
    if rng.random() < 0.5:
        return [rng.choice(FIRST_NAMES), rng.choice(LAST_NAMES)]
    return rng.choice(PLACES).split()


def _english_sentence(rng: random.Random, words: int) -> str:
    out: list[str] = []
    if rng.random() < 0.35:
        out.extend(rng.choice(CONNECTIVES).split())
    subject = rng.random()
    if subject < 0.4:
        out.append(rng.choice(PRONOUNS))
    elif subject < 0.7:
        out.extend(["the", rng.choice(NOUNS)])
    else:
        out.extend(_entity(rng))
    out.append(rng.choice(AUXILIARIES))
    while len(out) < words:
        r = rng.random()
        if r < 0.25:
            out.append(rng.choice(VERBS_ED if rng.random() < 0.6 else VERBS_ING))
        elif r < 0.45:
            out.extend(["the", rng.choice(ADJECTIVES), rng.choice(NOUNS)])
        elif r < 0.58:
            out.extend([rng.choice(PREPOSITIONS), *_entity(rng)])
        elif r < 0.7:
            out.extend([rng.choice(INNER_CONNECTIVES), rng.choice(PRONOUNS)])
        elif r < 0.8:
            out.extend([rng.choice(PREPOSITIONS), "the", rng.choice(NOUNS)])
        elif r < 0.86:
            out.append(f"{rng.randint(2, 999)}.{rng.randint(0, 9)}")
        else:
            out.append(rng.choice(NOUNS))
    out = out[:words] if len(out) > words else out
    text = " ".join(out)
    return text[0].upper() + text[1:] + rng.choice((".", ".", ".", "!", "?"))


def _german_sentence(rng: random.Random, words: int) -> str:
    text = " ".join(rng.choice(GERMAN) for _ in range(words))
    return text[0].upper() + text[1:] + "."


def _chinese_sentence(rng: random.Random, words: int) -> str:
    chars = [rng.choice(HANZI) for _ in range(words * 2)]
    if words > 6:
        chars.insert(words, "，")
    return "".join(chars) + "。"


_SENTENCE_WRITERS = {"en": _english_sentence, "de": _german_sentence, "zh": _chinese_sentence}


def _perturb_latin(rng: random.Random, text: str) -> str:
    words = text.split()
    out: list[str] = []
    i = 0
    while i < len(words):
        r = rng.random()
        if r < 0.07:
            out.append(rng.choice(NOUNS + ADJECTIVES + PRONOUNS))
        elif r < 0.1 and len(words) > 3:
            pass  # drop the word
        elif r < 0.13 and i + 1 < len(words):
            out.extend([words[i + 1], words[i]])
            i += 1
        else:
            out.append(words[i])
        i += 1
    return " ".join(out) if out else text


def _perturb_chars(rng: random.Random, text: str) -> str:
    return "".join(rng.choice(HANZI) if ch in HANZI and rng.random() < 0.08 else ch for ch in text)


def documents(shape: WorkloadShape, seed: int) -> list[dict]:
    """JSONL records of the seeded corpus for one workload."""
    rng = random.Random(f"{seed}:{shape.name}")
    records = []
    for doc in layout(shape):
        src_lang, tgt_lang = DIRECTION_LANGS[doc.direction]
        write = _SENTENCE_WRITERS[tgt_lang]
        perturb = _perturb_chars if tgt_lang == "zh" else _perturb_latin
        joiner = "" if tgt_lang == "zh" else " "
        src = [joiner.join(write(rng, words) for words in para) for para in doc.paragraphs]
        ref = [perturb(rng, para) for para in src]
        records.append(
            {"id": doc.doc_id, "src_lang": src_lang, "tgt_lang": tgt_lang,
             "domain": doc.domain, "src": src, "ref": ref}
        )
    return records


def exemplars(seed: int) -> list[dict]:
    """Three fixed-direction (de-en) ICL exemplars, seeded like the corpus."""
    rng = random.Random(f"{seed}:exemplars")
    out = []
    for _ in range(3):
        target = " ".join(_english_sentence(rng, 14) for _ in range(2))
        out.append({"source": _german_sentence(rng, 14), "target": target,
                    "src_lang": "de", "tgt_lang": "en"})
    return out
