"""Steadiness: two sets of ten benchmark runs, medians and quartiles.

Run from the repository root::

    python3 perfbench/steady.py [--workload linear-lockstep ...]

Each of the two sets runs ``perfbench/run.py`` ten times per workload
(every workload unless ``--workload`` names some), one fresh process
per run at ``BENCHMARK.json``'s run length, each with its own
``--seed``: set 1 uses seeds 100–109, set 2 seeds 110–119, and the
workloads interleave run by run.  For every end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(values,
n=4)``), the spread ``(q3 - q1) / median`` against the metric's bound
in ``BENCHMARK.json``, and how far set 2's median moved from set 1's in
the metric's worse direction.  One traced run per workload (seed 100)
adds the per-layer metrics and the tracing overhead.  The full record
(every value, the machine fingerprint) is written as JSON to
``.perfbench_out/steady.json``; ``perfbench/reference.json`` is a copy
of it.  A summary table goes to standard output.

The exit code is 0 when every drift and every spread but that of
``setup_s`` stays within its metric's bound and both sets fail the same
share of operations, and 1 otherwise.  Whether the figures also stay
within a third of each bound, the margin a steady benchmark should
keep, is printed but not enforced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out" / "steady.json"
RUNS = 10
SETS = 2
FIRST_SEED = 100


def machine() -> dict:
    """The fingerprint the repository's other benchmark artifacts use."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from machine import machine_info
    except ImportError:
        return {}
    finally:
        sys.path.pop(0)
    return machine_info()


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    tick = time.perf_counter()
    proc = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True)
    wall = time.perf_counter() - tick
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = wall
    return result


def summarise(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            seed = FIRST_SEED + s * RUNS + i
            for w in workloads:
                result = run_once(w, seed, seconds, 0)
                runs[w][s].append(result)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"{result['wall_s']:.1f}s", file=sys.stderr)

    report = {"machine": machine(), "seconds": seconds,
              "runs_per_set": RUNS, "workloads": {}}
    within_bounds = within_third = True
    for w in workloads:
        entry = {"sets": [], "failed_share": []}
        for s, results in enumerate(runs[w]):
            stats = {}
            for metric in metrics:
                values = [r["metrics"][metric["name"]]["value"] for r in results]
                stats[metric["name"]] = dict(summarise(values), values=values)
            entry["sets"].append({
                "seeds": [r["seed"] for r in results],
                "wall_s": [r["wall_s"] for r in results],
                "metrics": stats,
            })
            entry["failed_share"].append(
                sum(r["failed"] for r in results)
                / sum(r["attempted"] for r in results))
        if len(set(entry["failed_share"])) > 1:
            within_bounds = False
        print(f"\n{w}: failed share per set {entry['failed_share']}")
        print(f"{'metric':18s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'drift':>7s}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first = entry["sets"][0]["metrics"][name]["median"]
            for s, stats in enumerate(entry["sets"]):
                m = stats["metrics"][name]
                drift = (m["median"] - first) / first
                if metric["better"] == "higher":
                    drift = -drift
                # setup_s is held to its drift only: a run's few short,
                # cold set-ups mostly sample the host's file cache and
                # speed at that moment, so its spread says little; what
                # a later change must not do is move its median.
                worst = drift if name == "setup_s" else max(m["spread"], drift)
                within_bounds &= worst <= bound
                within_third &= worst <= bound / 3
                print(f"{name:18s} {s + 1:3d} {m['median']:12.6g} "
                      f"{m['q1']:12.6g} {m['q3']:12.6g} {m['spread']:7.2%} "
                      f"{bound:6.0%} {drift:+7.2%}")
        traced = run_once(w, FIRST_SEED, seconds, 1)
        entry["traced"] = traced
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        share = traced["metrics"]["trace.overhead_pct"]["value"]
        print(f"traced run: overhead {overhead:+.3f}s ({share:+.1f}%)")
        report["workloads"][w] = entry

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1))
    print(f"\nwithin every bound: {within_bounds}; within a third of every "
          f"bound: {within_third}; record: {OUT.relative_to(ROOT)}")
    return 0 if within_bounds else 1


if __name__ == "__main__":
    sys.exit(main())
