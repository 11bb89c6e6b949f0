"""Show that every independent check rejects a deliberately broken input.

Run from the repository root::

    python3 perfbench/selftest.py

Each case first runs a check on the program's real output (it must
pass), then on a broken copy — a shrunk or grown set, a pushed
controller, a perturbed cost, row or trajectory — where it must raise
:class:`checks.CheckError`.  Exits 1 if any check accepts a broken input
or rejects a sound one.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def scaled(polytope, factor):
    """``factor · P`` for a polytope containing the origin."""
    H, h = polytope
    return H, factor * h


class _PerturbedCosts:
    """A controller whose stacked plans report a slightly wrong cost."""

    def __init__(self, controller, shift):
        self._inner = controller
        self._shift = shift

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def solve_batch(self, states):
        plans = self._inner.solve_batch(states)
        for plan in plans:
            plan.cost += self._shift * max(1.0, abs(plan.cost))
        return plans


def main() -> int:
    from repro.experiments import ExperimentSpec, SweepPlan, run_sweep
    from repro.scenarios import build

    thermal = build("thermal")
    lane = build("lane_keeping")
    rng = np.random.default_rng(7)

    def sets(case):
        system = case.system
        return (
            system,
            checks.halfspaces(system.safe_set),
            checks.halfspaces(case.invariant_set),
            checks.halfspaces(case.strengthened_set),
            checks.halfspaces(system.disturbance_set),
        )

    lane_sys, lane_X, lane_XI, lane_Xp, lane_W = sets(lane)
    th_sys, th_X, th_XI, th_Xp, th_W = sets(thermal)
    K = lane.controller.K
    M = lane_sys.A + lane_sys.B @ K
    lane_U = checks.halfspaces(lane_sys.input_set)
    kappa = thermal.controller.compute
    push = 2.0 * np.abs(th_sys.input_set.bounding_box()[1])

    sample_states = checks.sample_points(*th_XI, rng, 6)

    plan = SweepPlan(experiments=[ExperimentSpec(
        scenario="thermal", num_cases=4, horizon=10, seed=3)])
    rows = run_sweep(plan).rows()
    tampered_rows = copy.deepcopy(rows)
    tampered_rows[1]["mean_energy"] += 1e-9
    violating_rows = copy.deepcopy(rows)
    violating_rows[2]["max_violation"] = 1e-3

    replay = workloads.LinearLockstep(seed=5)
    replay.num_cases, replay.horizon, replay.replay_cases = 32, 30, 8
    replay.setup()
    replay_round = replay.run_round()
    broken_round = copy.deepcopy(replay_round)
    for cell in broken_round.result:
        for stats in cell.approaches.values():
            stats.metrics["energy"] = stats.metrics["energy"] * (1 + 1e-6)

    cases = [
        ("X' ⊆ XI against a shrunk XI",
         lambda: checks.check_subset(lane_Xp, lane_XI, "nesting"),
         lambda: checks.check_subset(lane_Xp, scaled(lane_XI, 0.5), "nesting")),
        ("XI ⊆ X against a grown XI",
         lambda: checks.check_subset(lane_XI, lane_X, "nesting"),
         lambda: checks.check_subset(scaled(lane_XI, 3.0), lane_X, "nesting")),
        ("XI RPI under u = Kx against a shrunk XI",
         lambda: checks.check_rpi(M, lane_XI, lane_W, "rpi"),
         lambda: checks.check_rpi(M, scaled(lane_XI, 0.2), lane_W, "rpi")),
        ("K·XI ⊆ U against a grown XI",
         lambda: checks.check_gain_inputs(K, lane_XI, lane_U, "gain"),
         lambda: checks.check_gain_inputs(K, scaled(lane_XI, 3.0), lane_U, "gain")),
        ("one-step skip safety against X' grown to XI",
         lambda: checks.check_skip_safety(
             lane_sys.A, lane_sys.B, lane.skip_input, lane_Xp, lane_XI, lane_W, "skip"),
         lambda: checks.check_skip_safety(
             lane_sys.A, lane_sys.B, lane.skip_input, lane_XI, lane_XI, lane_W, "skip")),
        ("RMPC closed loop against a pushed controller",
         lambda: checks.check_closed_loop(
             th_sys.A, th_sys.B, kappa, th_XI, th_W, np.random.default_rng(1), 8, "loop"),
         lambda: checks.check_closed_loop(
             th_sys.A, th_sys.B, lambda x: kappa(x) + push, th_XI, th_W,
             np.random.default_rng(1), 8, "loop")),
        ("stacked cost against a perturbed cost",
         lambda: checks.check_stacked_costs(thermal.controller, sample_states, "cost"),
         lambda: checks.check_stacked_costs(
             _PerturbedCosts(thermal.controller, 1e-6), sample_states, "cost")),
        ("zero violations against a violating row",
         lambda: checks.check_zero_violations(rows, "rows"),
         lambda: checks.check_zero_violations(violating_rows, "rows")),
        ("restored rows against a perturbed row",
         lambda: checks.check_rows_equal(rows, copy.deepcopy(rows), "store"),
         lambda: checks.check_rows_equal(rows, tampered_rows, "store")),
        ("per-episode replay against perturbed energies",
         lambda: replay.check([replay_round]),
         lambda: replay.check([broken_round])),
    ]

    failures = 0
    for title, sound, broken in cases:
        try:
            sound()
        except checks.CheckError as exc:
            print(f"FAIL  {title}: rejected the sound input ({exc})")
            failures += 1
            continue
        try:
            broken()
        except checks.CheckError as exc:
            print(f"ok    {title}: {exc}")
        else:
            print(f"FAIL  {title}: accepted the broken input")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
