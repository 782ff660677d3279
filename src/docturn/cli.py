"""Command-line interface.

Subcommands: validate-corpus, run, report, simulate-cost.
Exit codes: 0 success, 1 validation error, 2 runtime failure. A config,
corpus or resume-identity error is a validation error; any other harness
error and any file-system error is a runtime failure. Either ends the
command with one line on standard error, never a traceback.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import click

from .corpus import load_corpus
from .costing import DocShape, compare_strategies, comparison_csv
from .errors import ConfigError, CorpusError, DocturnError, ResumeMismatchError
from .runner.config import load_run_config
from .runner.executor import LOG, execute, load_artifacts
from .runner.reports import emit_reports

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


@click.group()
def main() -> None:
    """Document-level translation experiment harness."""


@main.command("validate-corpus")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def validate_corpus(path: str) -> None:
    """Load a JSONL test set and report its shape."""
    try:
        testset = load_corpus(path)
    except CorpusError as exc:
        click.echo(f"invalid corpus: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    segments = sum(doc.num_segments for doc in testset)
    with_refs = sum(1 for doc in testset if doc.reference_segments is not None)
    click.echo(f"{path}: OK")
    click.echo(f"  documents:  {len(testset)} ({with_refs} with references)")
    click.echo(f"  segments:   {segments}")
    click.echo(f"  directions: {', '.join(testset.directions)}")
    click.echo(f"  domains:    {', '.join(sorted(testset.domains))}")


@contextmanager
def _exit_on_error(runtime_prefix: str = "error") -> Iterator[None]:
    """End the command with its exit code and one line on stderr when the
    block raises a harness or file-system error."""
    try:
        yield
    except (ConfigError, CorpusError, ResumeMismatchError) as exc:
        # Missing API keys are ConfigErrors, raised before any request.
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except (DocturnError, OSError) as exc:
        click.echo(f"{runtime_prefix}: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)


def _load_plan(config_path: str):
    try:
        return load_run_config(config_path)
    except ConfigError as exc:
        click.echo(f"invalid config: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--no-reports", is_flag=True, help="Execute the matrix without emitting reports.")
def run(config_path: str, no_reports: bool) -> None:
    """Execute the run matrix (resuming completed cells), then emit reports."""
    plan = _load_plan(config_path)
    with _exit_on_error("run failed"):
        artifacts = execute(plan)
    click.echo(f"completed {len(artifacts.cells)} cells into {artifacts.run_dir}")
    if artifacts.exclusions:
        reasons = LOG if no_reports else "reports/exclusions.csv"
        click.echo(f"excluded {len(artifacts.exclusions)} cells (see {reasons})")
    if not no_reports:
        with _exit_on_error():
            written = emit_reports(artifacts)
        click.echo(f"wrote {len(written)} report files under {artifacts.run_dir / 'reports'}")


@main.command("report")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
def report(config_path: str) -> None:
    """Re-emit report files from persisted artifacts, then print the main table."""
    plan = _load_plan(config_path)
    with _exit_on_error():
        artifacts = load_artifacts(plan)
        written = emit_reports(artifacts)
    for path in written:
        click.echo(str(path))
    click.echo((artifacts.run_dir / "reports" / "main.md").read_text("utf-8"), nl=False)


@main.command("simulate-cost")
@click.option("--segments", "-k", type=int, required=True, help="Segments per document.")
@click.option("--seg-tokens", type=int, required=True, help="Source tokens per segment.")
@click.option("--out-tokens", type=int, required=True, help="Generated tokens per segment.")
@click.option("--overhead", type=int, default=0, help="Instruction tokens per user message.")
@click.option("--primer-overhead", type=int, default=0, help="Source-primed intro tokens.")
@click.option("--shared-prefix", type=int, default=0, help="ICL/system prefix tokens.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def simulate_cost(
    segments: int,
    seg_tokens: int,
    out_tokens: int,
    overhead: int,
    primer_overhead: int,
    shared_prefix: int,
    out_path: str | None,
) -> None:
    """Cached vs uncached prefill/generation totals per strategy (CSV)."""
    try:
        shape = DocShape.uniform(
            segments,
            seg_tokens,
            out_tokens,
            instruction_overhead=overhead,
            primer_intro_overhead=primer_overhead,
            shared_prefix_tokens=shared_prefix,
        )
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    csv = comparison_csv(compare_strategies(shape))
    if out_path:
        with _exit_on_error():
            Path(out_path).write_text(csv, "utf-8")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(csv, nl=False)


if __name__ == "__main__":
    main()
