"""Reference-vs-hypothesis token counts, focused on the longest documents.

Omission errors concentrate in long documents: when a translation silently
drops content, its token count falls visibly short of the reference's. This
report ranks documents by reference length and tabulates both counts so the
deficit is measurable per document and in aggregate. The counts come from
the document sides that metrics.report.score_strategy builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class LengthRow:
    doc_id: str
    ref_tokens: int
    hyp_tokens: int

    @property
    def ratio(self) -> float:
        return self.hyp_tokens / self.ref_tokens if self.ref_tokens else float("nan")


@dataclass(frozen=True)
class LengthReport:
    rows: tuple[LengthRow, ...]  # top_n longest by reference tokens
    total_ref_tokens: int  # totals cover all scored documents, not just top_n
    total_hyp_tokens: int

    @classmethod
    def from_rows(cls, rows: Iterable[LengthRow], top_n: int = 10) -> LengthReport:
        """The top_n rows longest by reference tokens, ties broken by doc id;
        the totals cover every row. A top_n larger than the corpus keeps all."""
        rows = sorted(rows, key=lambda r: (-r.ref_tokens, r.doc_id))
        return cls(
            rows=tuple(rows[:top_n]),
            total_ref_tokens=sum(r.ref_tokens for r in rows),
            total_hyp_tokens=sum(r.hyp_tokens for r in rows),
        )

    @property
    def total_ratio(self) -> float:
        return self.total_hyp_tokens / self.total_ref_tokens if self.total_ref_tokens else float("nan")

    def to_table(self) -> tuple[list[str], list[list[str]]]:
        """The CSV's header and rows: the top-N documents, then TOTAL."""
        rows = [(r.doc_id, r.ref_tokens, r.hyp_tokens, r.ratio) for r in self.rows]
        rows.append(("TOTAL", self.total_ref_tokens, self.total_hyp_tokens, self.total_ratio))
        return ["doc_id", "ref_tokens", "hyp_tokens", "ratio"], [
            [name, str(ref), str(hyp), f"{ratio:.4f}"] for name, ref, hyp, ratio in rows
        ]

