"""Versioned prompt templates and deterministic rendering.

The one template set ships as a plain-text resource file under
resources/templates/, one block per slot. Run artifacts record the file's
content hash so an experiment is reproducible down to the exact instruction
wording.

Every template wraps its source payload in a triple-backtick fence. That is
both a prompt-engineering choice (the model sees an unambiguous boundary) and
a harness contract: mock backends recover the payload from the final fenced
block of a user message.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import TemplateError

TEMPLATE_SET_ID = "wmt24-style-v1"
_TEMPLATES = "docturn.resources.templates"
_TEMPLATE_FILE = "wmt24_style_v1.txt"

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")
_HEADER_RE = re.compile(r"^\[([a-z_]+)\]$")
_FENCED_RE = re.compile(r"```\n(.*?)\n```", re.DOTALL)

# Human-readable names keep prompts natural; unknown codes fall back to the
# code itself.
LANGUAGE_NAMES = {
    "en": "English",
    "de": "German",
    "zh": "Chinese",
    "ja": "Japanese",
    "cs": "Czech",
    "uk": "Ukrainian",
    "ru": "Russian",
    "es": "Spanish",
    "hi": "Hindi",
    "is": "Icelandic",
    "fr": "French",
    "it": "Italian",
    "pt": "Portuguese",
    "ko": "Korean",
    "ar": "Arabic",
    "nl": "Dutch",
    "pl": "Polish",
    "tr": "Turkish",
}


def base_language(code: str) -> str:
    """Lower-cased primary subtag of a language code: 'zh-Hans' -> 'zh'."""
    return code.split("-")[0].split("_")[0].lower()


def is_char_counted(code: str) -> bool:
    """Whether text in the language is counted by character: zh and ja write
    no spaces between words."""
    return base_language(code) in ("zh", "ja")


def language_name(code: str) -> str:
    return LANGUAGE_NAMES.get(base_language(code), code)


@dataclass(frozen=True)
class PromptTemplateSet:
    """A named, immutable collection of slot -> template text."""

    set_id: str
    slots: dict[str, str]
    content_hash: str
    # Each slot split once into [literal, placeholder, literal, ...].
    parts: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = {slot: _PLACEHOLDER_RE.split(text) for slot, text in self.slots.items()}
        object.__setattr__(self, "parts", parts)

    def render(self, slot: str, variables: dict[str, str]) -> str:
        """Render one slot; byte-identical output for identical inputs."""
        if slot not in self.parts:
            raise TemplateError(
                f"template set '{self.set_id}' has no slot '{slot}' "
                f"(available: {sorted(self.slots)})"
            )
        pieces = self.parts[slot].copy()
        try:
            # One pass over the template: braces inside the payload text are inert.
            pieces[1::2] = [variables[name] for name in pieces[1::2]]
        except KeyError as exc:
            raise TemplateError(
                f"unbound placeholder '{exc.args[0]}' in slot '{slot}' of '{self.set_id}'"
            ) from None
        return "".join(pieces)


def _parse_template_file(text: str) -> dict[str, str]:
    slots: dict[str, str] = {}
    current: str | None = None
    lines: list[str] = []
    for line in text.split("\n"):
        header = _HEADER_RE.match(line)
        if header:
            if current is not None:
                slots[current] = "\n".join(lines).strip("\n")
            current = header.group(1)
            lines = []
            continue
        if current is None:
            # Preamble: comments and blank lines only.
            if line.strip() and not line.lstrip().startswith("#"):
                raise TemplateError(f"unexpected text before first slot header: {line!r}")
            continue
        lines.append(line)
    if current is not None:
        slots[current] = "\n".join(lines).strip("\n")
    if not slots:
        raise TemplateError("template file defines no slots")
    return slots


def load_template_set() -> PromptTemplateSet:
    """Load the shipped template set."""
    raw = resources.files(_TEMPLATES).joinpath(_TEMPLATE_FILE).read_text("utf-8")
    return PromptTemplateSet(
        set_id=TEMPLATE_SET_ID,
        slots=_parse_template_file(raw),
        content_hash=hashlib.sha256(raw.encode("utf-8")).hexdigest(),
    )


def extract_fenced_payload(message_text: str) -> str | None:
    """Return the contents of the last triple-backtick fence, if any.

    This is the inverse of the templates' payload wrapping. Messages without
    a fence (e.g. free-form test inputs) return None.
    """
    matches = _FENCED_RE.findall(message_text)
    if not matches:
        return None
    return matches[-1]
