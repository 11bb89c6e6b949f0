"""Correctness checks made apart from the program under test.

Every check here works on raw ``(H, h)`` half-space arrays and plain
numpy, and solves its LPs with ``scipy.optimize.linprog`` directly: no
function of ``repro.geometry`` or ``repro.utils.lp`` is called, so a
fault in those layers cannot hide itself by also breaking its own
check.  Polytopes enter as ``(H, h)`` pairs read from the program's
``HPolytope.H`` / ``HPolytope.h`` attributes.

Each check raises :class:`CheckError` with the scenario, the property
and the worst margin when it fails, and returns the worst margin (the
smallest slack, ``<= 0`` meaning satisfied up to ``tol``) otherwise.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

#: Slack allowed on every set-containment inequality.  The program
#: certifies its sets at 1e-6..1e-7, so a real fault shows up orders of
#: magnitude above this.
SET_TOL = 1e-6

#: Relative tolerance on an LP optimal cost (the plan-equivalent tier of
#: the stacked RMPC solve promises equal optimal cost to 1e-9).
COST_TOL = 1e-9

#: Relative tolerance on a replayed energy total.  The replay uses BLAS
#: matrix products where the program uses pairwise row sums, so the
#: floats agree only to rounding.
ENERGY_RTOL = 1e-9


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def halfspaces(polytope) -> tuple:
    """``(H, h)`` float copies of a polytope's half-space arrays."""
    return (
        np.array(polytope.H, dtype=float, copy=True),
        np.array(polytope.h, dtype=float, copy=True),
    )


def support(H, h, direction) -> float:
    """``max direction · x`` over ``{x : H x <= h}`` by one scalar LP."""
    direction = np.asarray(direction, dtype=float)
    res = linprog(
        -direction,
        A_ub=H,
        b_ub=h,
        bounds=[(None, None)] * H.shape[1],
        method="highs",
    )
    if not res.success:
        raise CheckError(
            f"support LP failed (status={res.status}): {res.message}"
        )
    return -float(res.fun)


def _worst(slacks, what: str, tol: float) -> float:
    """Largest excess over the limits; raises when it exceeds ``tol``."""
    slacks = np.asarray(slacks, dtype=float)
    worst = float(slacks.max()) if slacks.size else -np.inf
    if worst > tol:
        row = int(np.argmax(slacks))
        raise CheckError(f"{what}: row {row} exceeded by {worst:.3e}")
    return worst


def check_subset(inner, outer, what: str, tol: float = SET_TOL) -> float:
    """``inner ⊆ outer``: every row of ``outer`` bounds ``inner``."""
    H_in, h_in = inner
    H_out, h_out = outer
    excess = [
        support(H_in, h_in, a) - b for a, b in zip(H_out, h_out)
    ]
    return _worst(excess, what, tol)


def check_rpi(M, invariant, disturbance, what: str, tol: float = SET_TOL) -> float:
    """``M·XI ⊕ W ⊆ XI`` — robust positive invariance under ``x⁺ = M x + w``."""
    H, h = invariant
    Hw, hw = disturbance
    M = np.asarray(M, dtype=float)
    excess = [
        support(H, h, M.T @ a) + support(Hw, hw, a) - b
        for a, b in zip(H, h)
    ]
    return _worst(excess, what, tol)


def check_gain_inputs(K, invariant, input_set, what: str, tol: float = SET_TOL) -> float:
    """``K·XI ⊆ U`` — the linear gain never saturates inside ``XI``."""
    H, h = invariant
    Hu, hu = input_set
    K = np.asarray(K, dtype=float)
    excess = [support(H, h, K.T @ c) - d for c, d in zip(Hu, hu)]
    return _worst(excess, what, tol)


def check_skip_safety(
    A, B, skip_input, strengthened, invariant, disturbance, what: str,
    tol: float = SET_TOL,
) -> float:
    """One skipped step from ``X'`` stays in ``XI`` for every ``w ∈ W``."""
    Hs, hs = strengthened
    H, h = invariant
    Hw, hw = disturbance
    A = np.asarray(A, dtype=float)
    drift = np.asarray(B, dtype=float) @ np.asarray(skip_input, dtype=float)
    excess = [
        support(Hs, hs, A.T @ a) + a @ drift + support(Hw, hw, a) - b
        for a, b in zip(H, h)
    ]
    return _worst(excess, what, tol)


def vertices(H, h, tol: float = 1e-9) -> np.ndarray:
    """Vertices of a bounded ``{x : H x <= h}`` by enumerating ``n``-row
    active sets (fine for the small disturbance sets checked here)."""
    n = H.shape[1]
    found = []
    for rows in itertools.combinations(range(H.shape[0]), n):
        sub = H[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, h[list(rows)])
        if np.all(H @ x <= h + tol) and not any(
            np.allclose(x, v, atol=1e-9) for v in found
        ):
            found.append(x)
    if not found:
        raise CheckError("polytope has no vertices (empty or unbounded)")
    return np.array(found)


def sample_points(H, h, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform points of ``{x : H x <= h}`` by rejection from
    its bounding box (the box from ``2 n`` support LPs)."""
    n = H.shape[1]
    eye = np.eye(n)
    upper = np.array([support(H, h, eye[i]) for i in range(n)])
    lower = -np.array([support(H, h, -eye[i]) for i in range(n)])
    out = np.empty((0, n))
    for _ in range(1000):
        draw = rng.uniform(lower, upper, size=(max(4 * count, 64), n))
        inside = draw[np.all(draw @ H.T <= h, axis=1)]
        out = np.vstack([out, inside])
        if len(out) >= count:
            return out[:count]
    raise CheckError("rejection sampling found too few interior points")


def check_closed_loop(
    A, B, control, invariant, disturbance, rng: np.random.Generator,
    samples: int, what: str, tol: float = SET_TOL,
) -> float:
    """Sampled states of ``XI`` stepped under ``u = control(x)`` stay in
    ``XI`` at every vertex of ``W``."""
    H, h = invariant
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    corners = vertices(*disturbance)
    worst = -np.inf
    for x in sample_points(H, h, rng, samples):
        nominal = A @ x + B @ np.asarray(control(x), dtype=float)
        excess = (nominal + corners) @ H.T - h
        worst = max(worst, float(excess.max()))
    if worst > tol:
        raise CheckError(f"{what}: a successor left XI by {worst:.3e}")
    return worst


def check_stacked_costs(controller, states, what: str) -> float:
    """The controller's stacked batch solve attains, per state, the
    optimal cost of a single-state ``linprog`` over the same LP data."""
    plans = controller.solve_batch(states)
    worst = 0.0
    for x, plan in zip(states, plans):
        b_eq = np.array(controller._b_eq, dtype=float, copy=True)
        b_eq[controller._x0_rows] = x
        res = linprog(
            controller._cost,
            A_ub=controller._A_ub,
            b_ub=controller._b_ub,
            A_eq=controller._A_eq,
            b_eq=b_eq,
            bounds=[(None, None)] * len(controller._cost),
            method="highs",
        )
        if not res.success:
            raise CheckError(f"{what}: reference LP failed at x={x}")
        gap = abs(plan.cost - res.fun) / max(1.0, abs(res.fun))
        worst = max(worst, gap)
    if worst > COST_TOL:
        raise CheckError(f"{what}: stacked cost differs by {worst:.3e}")
    return worst


def check_zero_violations(rows, what: str) -> None:
    """Every sweep row stayed inside the safe set."""
    bad = [row["key"] for row in rows if not row["max_violation"] <= 0.0]
    if bad:
        raise CheckError(f"{what}: safety violations in {bad}")


def check_rows_equal(expected, actual, what: str) -> None:
    """Two row tables are equal key for key and field for field."""
    if len(expected) != len(actual):
        raise CheckError(
            f"{what}: {len(actual)} rows, expected {len(expected)}"
        )
    for want, got in zip(expected, actual):
        if want != got:
            diff = sorted(k for k in want if want.get(k) != got.get(k))
            raise CheckError(f"{what}: row {want['key']} differs in {diff}")


def replay_episode(
    A, B, K, lower, upper, skip_input, strengthened, invariant,
    x0, disturbances, decide, tol: float,
) -> tuple:
    """Plain per-episode replay of Algorithm 1 with ``u = clip(K x)``.

    Returns ``(energy, skipped_steps, forced_steps)`` where energy is
    ``Σ‖u‖₁`` over the steps the controller ran.  ``decide(t, x)``
    returns True to skip when the state lies in ``X'``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Hs, hs = strengthened
    H, h = invariant
    x = np.asarray(x0, dtype=float)
    energy, skipped, forced = 0.0, 0, 0
    for t, w in enumerate(disturbances):
        if np.all(Hs @ x <= hs + tol):
            skip = bool(decide(t, x))
        elif np.all(H @ x <= h + tol):
            skip = False
            forced += 1
        else:
            raise CheckError(f"replayed state {x} left XI at step {t}")
        if skip:
            u = np.asarray(skip_input, dtype=float)
            skipped += 1
        else:
            u = np.clip(K @ x, lower, upper)
            energy += float(np.abs(u).sum())
        x = A @ x + B @ u + w
    return energy, skipped, forced


def check_replay(recorded: dict, replayed: dict, what: str) -> None:
    """Replayed ``(energy, skips, forced)`` per case match the recorded
    cell metrics (energy to :data:`ENERGY_RTOL`, counts exactly)."""
    for case, (energy, skipped, forced) in replayed.items():
        rec_energy, rec_skipped, rec_forced = recorded[case]
        if not np.isclose(energy, rec_energy, rtol=ENERGY_RTOL, atol=1e-12):
            raise CheckError(
                f"{what}: case {case} energy {rec_energy!r} != replay {energy!r}"
            )
        if (skipped, forced) != (rec_skipped, rec_forced):
            raise CheckError(
                f"{what}: case {case} skips/forced {(rec_skipped, rec_forced)}"
                f" != replay {(skipped, forced)}"
            )
