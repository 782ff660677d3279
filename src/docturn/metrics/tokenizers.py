"""Tokenization rules for scoring.

intl_13a_like: unicode-aware splitting in the mteval tradition -- punctuation
is split from adjacent non-digits (so decimal and thousands separators stay
attached), symbols are always split, then tokens are taken as whitespace-
separated runs. char: every non-whitespace character is a token (used for
ideographic target languages where word boundaries are not written).
"""

from __future__ import annotations

import regex

from ..prompts import is_char_counted

_NONDIGIT_PUNCT = regex.compile(r"(\P{N})(\p{P})")
_PUNCT_NONDIGIT = regex.compile(r"(\p{P})(\P{N})")
_SYMBOL = regex.compile(r"(\p{S})")


def tokenize_13a_like(text: str) -> list[str]:
    text = _NONDIGIT_PUNCT.sub(r"\1 \2 ", text)
    text = _PUNCT_NONDIGIT.sub(r" \1 \2", text)
    text = _SYMBOL.sub(r" \1 ", text)
    return text.split()


def tokenize_char(text: str) -> list[str]:
    return [ch for ch in text if not ch.isspace()]


def tokenize(text: str, tokenizer: str = "intl_13a_like") -> list[str]:
    if tokenizer == "intl_13a_like":
        return tokenize_13a_like(text)
    if tokenizer == "char":
        return tokenize_char(text)
    raise ValueError(f"unknown tokenizer: {tokenizer!r}")


def tokenizer_for_language(lang: str) -> str:
    """char for zh/ja, the 13a-like rule for space-delimited languages."""
    return "char" if is_char_counted(lang) else "intl_13a_like"
