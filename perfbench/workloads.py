"""The benchmark's workloads: ScenarioSpec → certified sets → sweep rows.

Each workload has a set-up (timed several times for ``setup_s``), a
round (one ``run_sweep`` over the same grid; rounds repeat until the run
length is used up) and independent checks of the outputs (see
:mod:`checks`).  One grid cell is one operation: it fails when it
raises or fails a per-cell check.

* ``zoo-cold`` — every registered scenario from an empty builder cache:
  synthesis dominates, the episode layers do little, and every cell is
  written to a fresh result store.
* ``linear-lockstep`` — thousands of lane-keeping cases under LQR κ: no
  LP at run time, so classification, decisions and context building
  dominate.
* ``acc-table1`` — the paper's ACC pattern workload over four Table-I
  experiments that share one certified set; the stacked RMPC solve
  dominates, and every cell is written to a fresh result store.  It is
  not in ``BENCHMARK.json``: its run-to-run spread on a shared 2-vCPU
  host (15–33% between quartiles) exceeds the largest bound a metric
  may have, so it is run by hand with more seeds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"


@dataclass
class Round:
    """One timed ``run_sweep`` of a workload's grid."""

    wall: float
    case_steps: int
    attempted: int
    failed: int
    result: object


def _execution(**kwargs):
    from repro.experiments import ExecutionConfig

    return ExecutionConfig(engine="lockstep", jobs=1, on_error="record", **kwargs)


def _clear_caches() -> None:
    from repro.acc.case_study import clear_case_study_cache
    from repro.utils import lp

    clear_case_study_cache()  # the ACC wrapper and the scenario builder
    # The LP layer's stacked-matrix cache outlives the builder caches and
    # has no public reset; left filled, a later set-up would start warm.
    stack_cache = getattr(lp, "_STACK_CACHE", None)
    if stack_cache is not None:
        stack_cache.clear()


def _case_steps(plan) -> int:
    """Approaches (baseline included) × cases × steps over the grid."""
    from repro.experiments.runner import DEFAULT_APPROACHES

    total = 0
    for cell in plan.cells():
        spec = cell.experiment
        names = spec.approaches
        if names is None:
            names = tuple(spec.policies or ()) or DEFAULT_APPROACHES
        total += (1 + len(names)) * spec.num_cases * spec.horizon
    return total


class Workload:
    """Set-up, one round, checks.  Subclasses fill in the specifics."""

    name = ""
    #: Set-ups timed per untraced run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Untraced/traced pass pairs of a traced run (see ``run.py``).
    trace_pairs = 2
    #: Whether each round writes its cells through a fresh result store,
    #: which an untimed re-run then restores them from.
    checkpoint = False

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.plan = None
        self.errors = []
        self.store = None
        self.rerun = None

    def clear(self) -> None:
        """Forget every cache so the next set-up starts cold."""
        _clear_caches()

    def setup(self) -> None:
        raise NotImplementedError

    def timed_setup(self) -> float:
        """One set-up; returns its wall time in seconds."""
        tick = time.perf_counter()
        self.setup()
        return time.perf_counter() - tick

    def sweep(self, **kwargs):
        # Looked up at call time so the traced run sees its wrapper.
        from repro import experiments

        return experiments.run_sweep(self.plan, **kwargs)

    def run_round(self) -> Round:
        kwargs = {}
        if self.checkpoint:
            # A fresh store per round: every cell is solved and written.
            self.close()
            OUT_DIR.mkdir(exist_ok=True)
            self.store = tempfile.mkdtemp(prefix=f"{self.name}-store-", dir=OUT_DIR)
            kwargs["checkpoint"] = self.store
        tick = time.perf_counter()
        result = self.sweep(**kwargs)
        wall = time.perf_counter() - tick
        return self._round(result, wall)

    def _round(self, result, wall: float) -> Round:
        failed = len(result.failures)
        for cell in result:
            try:
                checks.check_zero_violations(cell.rows(), f"{self.name}/{cell.key}")
            except checks.CheckError as exc:
                self.errors.append(str(exc))
                failed += 1
        return Round(
            wall=wall,
            case_steps=_case_steps(self.plan),
            attempted=len(self.plan.cells()),
            failed=failed,
            result=result,
        )

    def after_rounds(self, rounds) -> None:
        """Untimed work that belongs to the workload (traced if tracing)."""
        if self.checkpoint:
            self.rerun = self.sweep(checkpoint=self.store)

    def check(self, rounds) -> None:
        """Independent checks; raises :class:`checks.CheckError`."""
        if self.checkpoint:
            last = rounds[-1].result
            keys = [cell.key for cell in last]
            if self.rerun.restored != keys:
                raise checks.CheckError(
                    f"{self.name}: store restored {self.rerun.restored}, "
                    f"expected {keys}"
                )
            checks.check_rows_equal(last.rows(), self.rerun.rows(),
                                    f"{self.name}: rows restored from the store")

    def close(self) -> None:
        """Remove whatever the workload wrote."""
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None


class ZooCold(Workload):
    """``run_sweep`` over every registered scenario, synthesis included."""

    name = "zoo-cold"
    num_cases = 8
    horizon = 50
    closed_loop_samples = 12
    cost_samples = 8
    checkpoint = True
    # Import time swings with the host's file cache, so more repeats.
    setup_repeats = 5
    # One pass is a cold round of about 35 s: two pairs would not fit in
    # a run's time limit.
    trace_pairs = 1

    def setup(self) -> None:
        from repro.experiments import SweepPlan
        from repro.scenarios import list_scenarios

        self.plan = SweepPlan.for_scenarios(
            list_scenarios(), execution=_execution(),
            num_cases=self.num_cases, horizon=self.horizon, seed=self.seed,
        )

    def timed_setup(self) -> float:
        # Nothing to synthesise: set-up is what a fresh process pays to
        # import the program (timed inside a child interpreter, so its
        # start-up and exit are not counted) plus building the plan.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        child = subprocess.run(
            [sys.executable, "-c",
             "import time; tick = time.perf_counter(); "
             "import repro.experiments, repro.scenarios, repro.acc.case_study; "
             "print(time.perf_counter() - tick)"],
            env=env, check=True, cwd=str(ROOT), capture_output=True, text=True,
        )
        return float(child.stdout.split()[-1]) + super().timed_setup()

    def run_round(self) -> Round:
        _clear_caches()  # every round starts from an empty builder cache
        return super().run_round()

    def check(self, rounds) -> None:
        super().check(rounds)
        from repro.controllers.linear import LinearFeedback
        from repro.controllers.rmpc import RobustMPC
        from repro.scenarios import build, list_scenarios

        rng = np.random.default_rng([self.seed, 1])
        for name in list_scenarios():
            case = build(name)
            system = case.system
            X = checks.halfspaces(system.safe_set)
            XI = checks.halfspaces(case.invariant_set)
            Xp = checks.halfspaces(case.strengthened_set)
            W = checks.halfspaces(system.disturbance_set)
            checks.check_subset(Xp, XI, f"{name}: X' ⊆ XI")
            checks.check_subset(XI, X, f"{name}: XI ⊆ X")
            checks.check_skip_safety(
                system.A, system.B, case.skip_input, Xp, XI, W,
                f"{name}: one-step skip safety from X'",
            )
            controller = case.controller
            if isinstance(controller, LinearFeedback):
                K = controller.K
                checks.check_rpi(
                    system.A + system.B @ K, XI, W, f"{name}: XI RPI under u = Kx"
                )
                checks.check_gain_inputs(
                    K, XI, checks.halfspaces(system.input_set), f"{name}: K·XI ⊆ U"
                )
            elif isinstance(controller, RobustMPC):
                checks.check_closed_loop(
                    system.A, system.B, controller.compute, XI, W, rng,
                    self.closed_loop_samples,
                    f"{name}: RMPC closed loop stays in XI",
                )
                checks.check_stacked_costs(
                    controller, checks.sample_points(*XI, rng, self.cost_samples),
                    f"{name}: stacked vs single-state cost",
                )
            else:
                raise checks.CheckError(
                    f"{name}: unexpected controller {type(controller).__name__}"
                )


class AccTable1(Workload):
    """The paper's ACC pattern workload over four Table-I experiments."""

    name = "acc-table1"
    # Ids sharing the full [30, 50] front-velocity range (one synthesis)
    # with distinct patterns: bounded acceleration, pure random, two
    # sinusoids.  ex7 repeats ex1 draw for draw; ex2..ex5 re-synthesise.
    experiments = ("ex1", "ex6", "ex8", "ex10")
    num_cases = 16
    horizon = 12
    cost_samples = 8
    checkpoint = True

    def setup(self) -> None:
        from repro.acc.case_study import build_case_study
        from repro.acc.experiments import table1_axis
        from repro.experiments import ExperimentSpec, SweepPlan

        self.case = build_case_study()
        self.plan = SweepPlan(
            experiments=[ExperimentSpec(
                scenario="acc", pattern="overall", num_cases=self.num_cases,
                horizon=self.horizon, seed=self.seed,
            )],
            axes=[table1_axis(self.experiments)],
            execution=_execution(lp_backend="scipy"),
        )

    def check(self, rounds) -> None:
        super().check(rounds)
        rng = np.random.default_rng([self.seed, 2])
        XI = checks.halfspaces(self.case.invariant_set)
        states = checks.sample_points(*XI, rng, self.cost_samples)
        checks.check_stacked_costs(self.case.mpc, states,
                                   "acc-table1: stacked vs single-state cost")


class LinearLockstep(Workload):
    """Large-batch lane keeping under LQR κ (no LP at run time)."""

    name = "linear-lockstep"
    num_cases = 2048
    horizon = 100
    # The margin policy skips only where the state lies at least this
    # share of X''s Chebyshev radius inside X': about four decisions in
    # five skip and the rest run κ, so the policy does both.
    margin_share = 0.9
    replay_cases = 12

    def setup(self) -> None:
        from repro.experiments import ExperimentSpec, SweepPlan
        from repro.scenarios import build
        from repro.skipping.heuristics import MarginThresholdPolicy

        self.case = build("lane_keeping")
        _, radius = self.case.strengthened_set.chebyshev_center()
        self.margin = margin = self.margin_share * radius
        self.plan = SweepPlan(
            experiments=[ExperimentSpec(
                scenario="lane_keeping",
                approaches=("bang_bang", "periodic2", "margin"),
                policies={"margin": lambda case: MarginThresholdPolicy(
                    case.strengthened_set, margin)},
                num_cases=self.num_cases, horizon=self.horizon, seed=self.seed,
            )],
            execution=_execution(),
        )

    def check(self, rounds) -> None:
        case = self.case
        system = case.system
        K, _, lower, upper = case.controller.affine_feedback()
        Xp = checks.halfspaces(case.strengthened_set)
        XI = checks.halfspaces(case.invariant_set)
        tol = case.make_monitor().tol
        # The runner's documented draw order: initial states from
        # default_rng(seed), realisation i from SeedSequence(seed) child i.
        x0 = case.sample_initial_states(np.random.default_rng(self.seed), self.num_cases)
        factory = case.disturbance_factory(self.horizon)
        children = np.random.SeedSequence(self.seed).spawn(self.num_cases)
        picks = np.random.default_rng([self.seed, 3]).choice(
            self.num_cases, self.replay_cases, replace=False)
        Hs, hs = Xp
        margin = self.margin
        deciders = {
            "baseline": lambda t, x: False,
            "bang_bang": lambda t, x: True,
            "periodic2": lambda t, x: t % 2 != 0,
            "margin": lambda t, x: -np.max(Hs @ x - hs) >= margin,
        }
        for cell in rounds[-1].result:
            for approach, stats in cell.approaches.items():
                recorded, replayed = {}, {}
                for i in picks:
                    W = factory(i, np.random.default_rng(children[i]))
                    recorded[i] = (
                        float(stats.metrics["energy"][i]),
                        float(stats.metrics["skip_rate"][i]),
                        int(stats.metrics["forced_steps"][i]),
                    )
                    # The baseline runs κ every step without classifying.
                    energy, skipped, forced = checks.replay_episode(
                        system.A, system.B, K, lower, upper,
                        case.skip_input, Xp, XI, x0[i], W,
                        decide=deciders[approach],
                        tol=np.inf if approach == "baseline" else tol,
                    )
                    replayed[i] = (energy, skipped / self.horizon, forced)
                checks.check_replay(recorded, replayed,
                                    f"linear-lockstep/{approach}")


WORKLOADS = {cls.name: cls for cls in (ZooCold, AccTable1, LinearLockstep)}
