"""Span tracing from the benchmark's side of each layer boundary.

The tracer replaces the public names a caller imports from each layer with
timing wrappers, for the duration of one traced repetition, and restores
them afterwards. Spans are kept in memory as (name, start, end, parent,
id, counts) and written out once, when the run ends. The program itself
carries no tracing code.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index, id, counts]
        self.current_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        count: Callable[..., dict[str, float]] | None = None,
        span_id: Callable[..., str] | None = None,
    ) -> Callable:
        """A wrapper of fn that records one span per call.

        count(result, *args) returns counters to add; span_id(*args) names
        the cell or request the span belongs to.
        """

        def traced(*args, **kwargs):
            if span_id is not None:
                self.current_id = span_id(*args)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.current_id, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(result, *args)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **kwargs) -> None:
        """Replace owner.attr (a module global or a dict entry) for this run."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, **kwargs)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, **kwargs))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit the spans of one phase."""
        return len(self.spans)

    def summary(self, since: int, until: int) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
        """Spans [since, until) by name: calls, total seconds and self seconds
        (total minus the time covered by direct child spans); and the sum of
        their counters."""
        spans = self.spans[since:until]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= since:
                child_time[parent - since] += end - start
        times: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        counts: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, span_counts) in enumerate(spans):
            entry = times[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            for key, value in (span_counts or {}).items():
                counts[key] += value
        return times, counts

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, span_id, counts) in enumerate(self.spans):
                fh.write(
                    json.dumps({"i": i, "name": name, "start": start, "end": end,
                                "parent": parent, "id": span_id, "counts": counts}) + "\n"
                )
