"""Report rendering: strategy/metric tables as CSV and aligned Markdown.

Emitted files (under <run_dir>/reports/):
    main.csv / main.md            strategy x metric, averaged across directions
    per_direction.csv / .md       dBLEU per language direction
    per_domain.csv / .md          dBLEU per domain with signed deltas vs the
                                  segment-level baseline, "24.59" / "30.27 (+4.16)"
    lengths_<backend>_<strategy>.csv   top-N longest documents, ref vs hyp tokens
    exclusions.csv                cells dropped from aggregates, with reasons
    scores.json                   raw metric numbers, machine-readable

Each (backend, strategy) is scored once, by score_strategy under the run's
ScoringConfig, into one plan-ordered list of (backend, strategy, metrics);
every table above is a projection of that list. Missing metrics render as
"-" (segment-mean is never reported for the single-turn strategy: its
outputs carry no trustworthy segment alignment, so it is scored without the
segment scorer). All ordering is deterministic and no report embeds a
timestamp, so identical runs produce byte-identical report files.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import groupby
from pathlib import Path

from ..metrics.report import ScoringTable, score_strategy
from ..strategy import Mode
from .executor import RunArtifacts

MISSING = "-"


def _fmt(value: float | None, decimals: int = 2) -> str:
    return MISSING if value is None else f"{value:.{decimals}f}"


def _csv_cell(cell: str) -> str:
    """A cell holding a comma, a quote, a newline or a carriage return is
    quoted, with its quotes doubled; any other cell is written as it is."""
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    """Write a CSV table, one line per row, each ended by a newline."""
    lines = (",".join(map(_csv_cell, row)) + "\n" for row in [header, *rows])
    path.write_bytes("".join(lines).encode("utf-8"))


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    """An aligned Markdown table; a `|` in a cell is escaped as `\\|`."""
    table = [[cell.replace("|", "\\|") for cell in row] for row in [header, *rows]]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    def line(cells: list[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(table[0]), sep] + [line(r) for r in table[1:]]) + "\n"


def emit_reports(artifacts: RunArtifacts) -> list[Path]:
    """Write every report file, scoring against the test set the artifacts
    were loaded with; returns the paths written."""
    plan = artifacts.plan
    reports_dir = artifacts.run_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    # Single-turn outputs have no trusted segment alignment, so no segment scorer.
    single_turn = replace(plan.scoring, scorer_command=())
    table = ScoringTable()  # every strategy is scored against one test set
    scored = [
        (backend, strategy, score_strategy(
            artifacts.testset,
            artifacts.translations_for(backend.name, strategy.label),
            single_turn if strategy.mode == Mode.SINGLE_TURN else plan.scoring,
            table,
        ))
        for backend in plan.backends
        for strategy in plan.strategies
    ]
    written: list[Path] = []

    # (a) Main table: strategy x metric, averaged across directions.
    header = ["backend", "strategy", "dbleu", "segment_mean", "blonde_lite_f1"]
    rows = [
        [
            backend.name,
            strategy.display_name,
            _fmt(m.dbleu),
            _fmt(m.segment_mean, 4),
            _fmt(None if m.blonde is None else m.blonde.combined_f1, 4),
        ]
        for backend, strategy, m in scored
    ]
    written.extend(_write_pair(reports_dir, "main", header, rows))

    # (b) Per-direction dBLEU table.
    directions = sorted({d for *_, m in scored for d in m.per_direction_dbleu})
    header = ["backend", "strategy"] + directions
    rows = [
        [backend.name, strategy.display_name]
        + [_fmt(m.per_direction_dbleu.get(d)) for d in directions]
        for backend, strategy, m in scored
    ]
    written.extend(_write_pair(reports_dir, "per_direction", header, rows))

    # (c) Per-domain dBLEU with signed deltas against each backend's score
    # under the plan's first segment-level strategy.
    domains = sorted({d for *_, m in scored for d in m.per_domain_dbleu})
    header = ["backend", "domain"] + [s.display_name for s in plan.strategies]
    rows = []
    for backend_name, group in groupby(scored, key=lambda item: item[0].name):
        group = list(group)
        base = next((m for _, s, m in group if s.mode == Mode.SEGMENT_LEVEL), None)
        for domain in domains:
            base_score = None if base is None else base.per_domain_dbleu.get(domain)
            row = [backend_name, domain]
            for *_, m in group:
                value = m.per_domain_dbleu.get(domain)
                if value is None:
                    row.append(MISSING)
                elif m is base or base_score is None:
                    row.append(f"{value:.2f}")
                else:
                    row.append(f"{value:.2f} ({value - base_score:+.2f})")
            rows.append(row)
    written.extend(_write_pair(reports_dir, "per_domain", header, rows))

    # (d) Top-N length CSVs for plotting, one per (backend, strategy).
    for backend, strategy, m in scored:
        path = reports_dir / f"lengths_{backend.name}_{strategy.label}.csv"
        _write_csv(path, *m.lengths.to_table())
        written.append(path)

    # Exclusions: cells missing from the aggregates above.
    header = ["backend", "strategy", "doc_id", "reason"]
    rows = sorted([e[key] for key in header] for e in artifacts.exclusions)
    exclusions_path = reports_dir / "exclusions.csv"
    _write_csv(exclusions_path, header, rows)
    written.append(exclusions_path)

    # Machine-readable scores.
    payload = {
        f"{backend.name}/{strategy.label}": {
            "dbleu": m.dbleu,
            "per_direction_dbleu": m.per_direction_dbleu,
            "per_domain_dbleu": m.per_domain_dbleu,
            "segment_mean": m.segment_mean,
            "blonde": m.blonde.to_dict() if m.blonde else None,
            "flags": sorted(m.flags),
        }
        for backend, strategy, m in scored
    }
    scores_path = reports_dir / "scores.json"
    scores_path.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    written.append(scores_path)
    return written


def _write_pair(
    reports_dir: Path, name: str, header: list[str], rows: list[list[str]]
) -> tuple[Path, Path]:
    """Write the table as <name>.csv and <name>.md; returns both paths."""
    csv_path = reports_dir / f"{name}.csv"
    _write_csv(csv_path, header, rows)
    md_path = reports_dir / f"{name}.md"
    md_path.write_text(_markdown_table(header, rows), "utf-8")
    return csv_path, md_path
