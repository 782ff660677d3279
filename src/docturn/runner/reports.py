"""Report rendering: strategy/metric tables as CSV and aligned Markdown.

Emitted files (under <run_dir>/reports/):
    main.csv / main.md            strategy x metric, averaged across directions
    per_direction.csv / .md       dBLEU per language direction
    per_domain.csv / .md          dBLEU per domain with signed deltas vs the
                                  segment-level baseline, "24.59" / "30.27 (+4.16)"
    lengths_<backend>_<strategy>.csv   top-N longest documents, ref vs hyp tokens
    exclusions.csv                cells dropped from aggregates, with reasons
    scores.json                   raw metric numbers, machine-readable

Missing metrics render as "-" (segment-mean is never reported for the
single-turn strategy: its outputs carry no trustworthy segment alignment).
All ordering is deterministic and no report embeds a timestamp, so identical
runs produce byte-identical report files.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..metrics.bleu import BleuConfig
from ..metrics.report import ScoringTable, StrategyMetrics, score_strategy
from ..metrics.segment_mean import SubprocessScorer
from ..strategy import Mode
from .config import RunPlan
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


def _strategy_scores(artifacts: RunArtifacts) -> dict[tuple[str, str], StrategyMetrics]:
    plan = artifacts.plan
    bleu_cfg = BleuConfig(
        max_n=plan.scoring.max_n, case_sensitive=plan.scoring.case_sensitive
    )
    scorer = (
        SubprocessScorer(plan.scoring.scorer_command)
        if plan.scoring.scorer_command
        else None
    )
    out: dict[tuple[str, str], StrategyMetrics] = {}
    table = ScoringTable()  # every strategy is scored against one test set
    for backend in plan.backends:
        for strategy in plan.strategies:
            translations = artifacts.translations_for(backend.name, strategy.label)
            out[(backend.name, strategy.label)] = score_strategy(
                artifacts.testset,
                translations,
                bleu_config=bleu_cfg,
                compute_blonde=plan.scoring.blonde,
                # Single-turn outputs have no trusted segment alignment.
                scorer=None if strategy.mode == Mode.SINGLE_TURN else scorer,
                top_n=plan.scoring.top_n,
                table=table,
            )
    return out


def _blonde_cell(metrics: StrategyMetrics) -> str:
    if metrics.blonde is None:
        return MISSING
    return _fmt(metrics.blonde.combined_f1, 4)


def _baseline_label(plan: RunPlan) -> str | None:
    for strategy in plan.strategies:
        if strategy.mode == Mode.SEGMENT_LEVEL:
            return strategy.label
    return None


def emit_reports(artifacts: RunArtifacts) -> list[Path]:
    """Write every report file, scoring against the test set the artifacts
    were loaded with; returns the paths written."""
    plan = artifacts.plan
    reports_dir = artifacts.run_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    scores = _strategy_scores(artifacts)
    written: list[Path] = []

    # (a) Main table: strategy x metric, averaged across directions.
    header = ["backend", "strategy", "dbleu", "segment_mean", "blonde_lite_f1"]
    rows: list[list[str]] = []
    for backend in plan.backends:
        for strategy in plan.strategies:
            m = scores[(backend.name, strategy.label)]
            rows.append(
                [
                    backend.name,
                    strategy.display_name,
                    _fmt(m.dbleu),
                    _fmt(m.segment_mean, 4),
                    _blonde_cell(m),
                ]
            )
    written.extend(_write_pair(reports_dir, "main", header, rows))

    # (b) Per-direction dBLEU table.
    directions = sorted(
        {d for m in scores.values() for d in m.per_direction_dbleu}
    )
    header = ["backend", "strategy"] + directions
    rows = []
    for backend in plan.backends:
        for strategy in plan.strategies:
            m = scores[(backend.name, strategy.label)]
            rows.append(
                [backend.name, strategy.display_name]
                + [_fmt(m.per_direction_dbleu.get(d)) for d in directions]
            )
    written.extend(_write_pair(reports_dir, "per_direction", header, rows))

    # (c) Per-domain dBLEU with signed deltas against the segment-level baseline.
    baseline = _baseline_label(plan)
    domains = sorted({d for m in scores.values() for d in m.per_domain_dbleu})
    header = ["backend", "domain"] + [s.display_name for s in plan.strategies]
    rows = []
    for backend in plan.backends:
        for domain in domains:
            row = [backend.name, domain]
            base_score = None
            if baseline is not None:
                base_score = scores[(backend.name, baseline)].per_domain_dbleu.get(domain)
            for strategy in plan.strategies:
                value = scores[(backend.name, strategy.label)].per_domain_dbleu.get(domain)
                if value is None:
                    row.append(MISSING)
                elif (
                    baseline is None
                    or strategy.label == baseline
                    or base_score is None
                ):
                    row.append(f"{value:.2f}")
                else:
                    row.append(f"{value:.2f} ({value - base_score:+.2f})")
            rows.append(row)
    written.extend(_write_pair(reports_dir, "per_domain", header, rows))

    # (d) Top-N length CSVs for plotting, one per (backend, strategy).
    for backend in plan.backends:
        for strategy in plan.strategies:
            m = scores[(backend.name, strategy.label)]
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
    payload = {}
    for (backend_name, strategy_label), m in sorted(scores.items()):
        payload[f"{backend_name}/{strategy_label}"] = {
            "dbleu": m.dbleu,
            "per_direction_dbleu": m.per_direction_dbleu,
            "per_domain_dbleu": m.per_domain_dbleu,
            "segment_mean": m.segment_mean,
            "blonde": m.blonde.to_dict() if m.blonde else None,
            "flags": sorted(m.flags),
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
