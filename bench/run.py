"""docturn benchmark: run -> score -> report on a seeded corpus, plus the cost sweep.

    python3 bench/run.py --workload long_docs --seed 1 --seconds 50 --trace 0

Run from the repository root. The program is imported from ./src; a checkout
without it is refused with exit code 2. Repetitions run for about --seconds
(at least three, or two traced/untraced pairs); the last line of
standard output is one JSON object with the medians. --trace 0 prints the
end-to-end metrics; --trace 1 interleaves traced and untraced repetitions
and prints the per-layer metrics, including the tracing overhead on run_s
and report_s. Spans of a traced run go to .bench_work/traces/. Any failed
output check prints its reason to standard error and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The end-to-end metrics BENCHMARK.json bounds.
END_TO_END = {
    "setup_s": "s",
    "matrix_s": "s",
    "turn_overhead_p99_ms": "ms",
    "artifact_mb": "MB",
    "artifact_files": "count",
    "peak_rss_mb": "MB",
}
# Printed beside them but left unbounded: on a shared 2-vCPU machine their
# medians moved by more than 0.25 between runs of the same code.
UNBOUNDED = {
    "run_s": "s",
    "report_s": "s",
    "resume_s": "s",
    "turn_overhead_p50_ms": "ms",
    "simulate_cost_s": "s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("long_docs", "short_docs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus and one repetition, for the benchmark's own test")
    return parser.parse_args(argv)


def calibrate() -> float:
    """A fixed pure-Python loop, timed to record machine drift beside the metrics."""
    started = perf_counter()
    x = 0
    for i in range(300_000):
        x = (x * 31 + i) % 1_000_003
    return perf_counter() - started


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(reps, notes: list[str]) -> dict[str, float]:
    """Medians over repetitions. A phase that a repetition runs several times
    (set-up, emit_reports, resume) counts as the mean of its runs, so every
    sample covers a similar stretch of time."""
    gaps = [g for r in reps for g in r.turn_gaps_ms]
    sweeps = [r.simulate_cost_s for r in reps if r.simulate_cost_s is not None]
    attempted = sum(r.cells_attempted for r in reps)
    failed = sum(r.cells_failed for r in reps)
    mean = statistics.fmean
    notes += [
        f"{len(reps)} repetitions; per repetition: run_s "
        + " ".join(f"{r.run_s:.4f}" for r in reps)
        + "; report_s " + " ".join(f"{mean(r.report_s):.4f}" for r in reps),
        f"setup_s, report_s, resume_s: median over repetitions of the mean of "
        f"{len(reps[0].setup_s)}, {len(reps[0].report_s)} and {len(reps[0].resume_s)} runs",
        f"turn_overhead_p50_ms, turn_overhead_p99_ms: {len(gaps)} samples",
        f"simulate_cost_s: median of {len(sweeps)} sweeps",
        f"failed_cell_share = {failed / attempted} ratio ({failed} of {attempted} cells)",
    ]
    return {
        "setup_s": statistics.median(mean(r.setup_s) for r in reps),
        "run_s": statistics.median(r.run_s for r in reps),
        "report_s": statistics.median(mean(r.report_s) for r in reps),
        "matrix_s": statistics.median(r.run_s + mean(r.report_s) for r in reps),
        "resume_s": statistics.median(mean(r.resume_s) for r in reps),
        "turn_overhead_p50_ms": percentile(gaps, 50),
        "turn_overhead_p99_ms": percentile(gaps, 99),
        "artifact_mb": statistics.median(r.artifact_bytes / 1e6 for r in reps),
        "artifact_files": statistics.median(r.artifact_files for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "simulate_cost_s": statistics.median(sweeps),
    }


def per_layer(reps, notes: list[str]) -> dict[str, float]:
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    out = {name: statistics.median(r.layer[name] for r in traced) for name in traced[0].layer}
    out["trace.overhead_run_s"] = (
        statistics.median(r.run_s for r in traced) - statistics.median(r.run_s for r in plain)
    )
    out["trace.overhead_report_s"] = (
        statistics.median(statistics.fmean(r.report_s) for r in traced)
        - statistics.median(statistics.fmean(r.report_s) for r in plain)
    )
    notes.append(f"per-layer metrics: medians of {len(traced)} traced repetitions; "
                 f"overhead against {len(plain)} untraced ones")
    return out


def repetitions(args: argparse.Namespace, runs: Path, tracer) -> tuple[list, list[float]]:
    """Repetitions for about --seconds, each preceded by the calibration loop."""
    import harness

    min_rounds = 1 if args.smoke else (2 if args.trace else 3)
    reps: list = []
    calibration: list[float] = []
    started = perf_counter()
    rounds = 0
    while True:
        # A traced round is a traced and an untraced repetition, in
        # alternating order so drift within the run cancels.
        order = [False] if not args.trace else ([False, True] if rounds % 2 == 0 else [True, False])
        for traced in order:
            calibration.append(calibrate())
            reps.append(
                harness.run_rep(
                    args.workload,
                    args.seed,
                    runs / f"rep{len(reps)}",
                    smoke=args.smoke,
                    tracer=tracer if traced else None,
                    # Untraced runs time the cost sweep in every other
                    # repetition, leaving more repetitions to the corpus; a
                    # traced run's untraced repetitions skip it.
                    sweep=traced or (not args.trace and len(reps) % 2 == 0),
                )
            )
        rounds += 1
        elapsed = perf_counter() - started
        # Start another round only if it would end less than half a round late.
        if rounds >= min_rounds and elapsed + elapsed / rounds / 2 >= args.seconds:
            return reps, calibration


def measure(args: argparse.Namespace) -> int:
    import harness
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    runs = WORK / f"runs-{os.getpid()}"
    started = perf_counter()
    try:
        reps, calibration = repetitions(args, runs, tracer)
    finally:
        shutil.rmtree(runs, ignore_errors=True)

    errors = [e for r in reps for e in r.errors]
    if any(r.report_hashes != reps[0].report_hashes for r in reps):
        errors.append("report files differ between repetitions with the same seed")

    notes = [
        f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions "
        f"in {perf_counter() - started:.1f} s",
        "calibration loop s per repetition (drift record, not applied): "
        + " ".join(f"{c:.4f}" for c in calibration),
    ]
    if args.trace:
        values = per_layer(reps, notes)
        units = harness.PER_LAYER
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        notes.append(f"spans: {len(tracer.spans)} written to .bench_work/traces/")
    else:
        values = end_to_end(reps, notes)
        units = END_TO_END
    for line in notes:
        print(line)
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.6f} {unit}")
    if not args.trace:
        for name, unit in UNBOUNDED.items():
            print(f"  {name:<36} {values[name]:>14.6f} {unit}  (unbounded)")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.cells_attempted for r in reps),
        "failed": sum(r.cells_failed for r in reps),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "docturn" / "__init__.py").is_file():
        print(f"error: no docturn sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
