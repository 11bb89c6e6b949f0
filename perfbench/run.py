"""Benchmark command: ScenarioSpec → certified sets → sweep rows.

Run from the repository root::

    python3 perfbench/run.py --workload zoo-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced cold set-up +
round passes, prints the per-layer metrics of the last traced pass and
the tracing overhead, and writes its spans to ``.perfbench_out/``.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every independent check passed, 1 when one failed, and 2
when the program cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy is first imported:
# every run is a single process doing single-threaded work.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are not at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> tuple:
    """The untraced run: end-to-end metrics."""
    setups = []
    for _ in range(workload.setup_repeats):
        workload.clear()
        setups.append(workload.timed_setup())
    # Whole rounds until ``seconds`` of round time have passed.  Peak
    # memory is read after the first: later rounds repeat its work, and
    # how many fit in the run must not move the figure.
    rounds = [workload.run_round()]
    peak_rss = _peak_rss_mb()
    start = time.perf_counter() - rounds[0].wall
    while time.perf_counter() - start < seconds:
        rounds.append(workload.run_round())
    workload.after_rounds(rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "time_to_rows_s": (statistics.median(r.wall for r in rounds), "s"),
        "case_steps_per_s": (
            statistics.median(r.case_steps / r.wall for r in rounds), "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return rounds, metrics


def _cold_pass(workload, rounds) -> float:
    """Set-up from empty caches plus one round; returns its wall time."""
    workload.clear()
    tick = time.perf_counter()
    workload.setup()
    rounds.append(workload.run_round())
    return time.perf_counter() - tick


def measure_traced(workload, seed: int) -> tuple:
    """Alternating untraced and traced passes; per-layer metrics.

    The per-layer metrics come from the last traced pass.  The overhead
    is the fastest traced pass minus the fastest untraced one, and
    ``trace.wrapper_s`` is the span count times a wrapper's calibrated
    cost per call.
    """
    import tracing
    from workloads import OUT_DIR

    # Wrapping once and undoing it imports every module the traced
    # passes wrap, so the first untraced pass pays no import the traced
    # passes would skip.  A name with nothing to wrap would read 0 and
    # pass for a gain, so it fails the run.
    probe = tracing.Tracer()
    wrapped = tracing.instrument(probe)
    probe.uninstall()
    workload.errors.extend(
        f"tracing: nothing to wrap for {name}"
        for name, count in sorted(wrapped.items()) if not count
    )

    rounds, untraced, traced = [], [], []
    for pair in range(workload.trace_pairs):
        untraced.append(_cold_pass(workload, rounds))
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            traced.append(_cold_pass(workload, rounds))
            if pair == workload.trace_pairs - 1:
                workload.after_rounds(rounds)
        finally:
            tracer.uninstall()
    tracer.dump(str(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"))
    metrics = tracing.layer_metrics(tracer.spans)
    base, cost = min(untraced), min(traced) - min(untraced)
    metrics["trace.untraced_s"] = (base, "s")
    metrics["trace.traced_s"] = (min(traced), "s")
    metrics["trace.overhead_s"] = (cost, "s")
    metrics["trace.overhead_pct"] = (100.0 * cost / base, "%")
    # The wrappers' own cost, free of the host's swings between passes.
    metrics["trace.wrapper_s"] = (
        len(tracer.spans) * tracing.wrapper_cost(), "s")
    return rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            rounds, metrics = measure_traced(workload, args.seed)
        else:
            rounds, metrics = measure(workload, args.seconds)
        errors = list(workload.errors)
        try:
            workload.check(rounds)
        except checks.CheckError as exc:
            errors.append(str(exc))
    finally:
        workload.close()
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    summary = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
