"""Layer spans recorded from outside the program.

:func:`instrument` wraps the public functions of each layer where their
callers bind them — a module-level name is replaced in every loaded
``repro`` module that holds the same function object (``linprog``
inside ``repro.utils.lp`` *and* ``repro.controllers.rmpc``, say), and a
method is replaced on the class that defines it.  Every wrapped call
appends one span ``[name, start, end, parent, attrs]`` to an in-memory
list; nothing is written until :meth:`Tracer.dump` at the end of the
run.  :func:`layer_metrics` folds the spans into the per-layer metrics
named in ``BENCHMARK.json``.

The program itself is not modified: uninstalling restores every
original binding.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "scenarios", "invariance", "geometry", "lp", "controllers",
    "skipping", "systems", "experiments", "store",
)


class Tracer:
    """In-memory span recorder.

    ``spans[i] = [name, start, end, parent, attrs, nested]``; ``parent``
    is the index of the enclosing span (``-1`` at top level) and
    ``nested`` is True when a span of the same name encloses it, so
    inclusive totals count each call tree once.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self._restore = []

    def wrap(self, name, fn, pre=None, post=None):
        """``fn`` recording a span per call; ``pre(args, kwargs)`` runs
        before the call and its value reaches ``post(args, kwargs,
        result, pre_value)``, whose dict becomes the span's attrs."""
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None,
                      depth[name] > 0]
            spans.append(record)
            stack.append(len(spans) - 1)
            depth[name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                record[4] = {"error": type(exc).__name__}
                raise
            finally:
                depth[name] -= 1
                stack.pop()
            record[2] = clock()
            if post is not None:
                record[4] = post(args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch_function(self, fn, name, pre=None, post=None) -> int:
        """Replace ``fn`` in every loaded ``repro`` module binding it."""
        wrapper = self.wrap(name, fn, pre, post)
        count = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    count += 1
        return count

    def patch_method(self, cls, attr, name, pre=None, post=None) -> int:
        """Replace ``cls.attr`` (defined on ``cls`` itself)."""
        if attr not in vars(cls):
            return 0
        original = vars(cls)[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, pre, post))
        return 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent,
        attrs), times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, attrs, _ in self.spans:
                handle.write(json.dumps({
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "attrs": attrs,
                }) + "\n")


def wrapper_cost() -> float:
    """Seconds one wrapped call adds to a plain one: the fastest of five
    timings of 20,000 calls, with attrs recorded."""
    calls = 20000

    def plain():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibration", plain, post=lambda a, k, r, _: {"n": 1})
    clock = time.perf_counter
    best = float("inf")
    for _ in range(5):
        tick = clock()
        for _ in range(calls):
            plain()
        middle = clock()
        for _ in range(calls):
            traced()
        best = min(best, ((clock() - middle) - (middle - tick)) / calls)
        tracer.spans.clear()
    return best


def _subclasses(root):
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def instrument(tracer: Tracer) -> dict:
    """Wrap every layer's public entry points; returns, per span name,
    how many bindings were wrapped (0 means the name no longer exists
    and its metrics will read 0)."""
    import scipy.optimize

    from repro.controllers.base import Controller
    from repro.controllers.feasible import rmpc_invariant_set
    from repro.controllers.rmpc import RobustMPC
    from repro.experiments import runner
    from repro.framework import lockstep
    from repro.geometry.hpolytope import HPolytope, MembershipTester
    from repro.invariance.rci import maximal_rci, maximal_rpi
    from repro.invariance.reach import strengthened_safe_set
    from repro.scenarios import builder
    from repro.service.store import ResultStore
    from repro.skipping.base import SkippingPolicy
    from repro.systems.lti import DiscreteLTISystem
    from repro.utils import lp

    wrapped = defaultdict(int)

    def fn(target, name, pre=None, post=None):
        wrapped[name] += tracer.patch_function(target, name, pre, post)

    def method(cls, attr, name, pre=None, post=None):
        wrapped[name] += tracer.patch_method(cls, attr, name, pre, post)

    def build_pre(args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        use_cache = kwargs.get("use_cache", args[1] if len(args) > 1 else True)
        return not (use_cache and spec.cache_key in builder._CACHE)

    fn(builder.build_case_study, "scenarios.build", pre=build_pre,
       post=lambda a, k, r, synthesised: {"synthesised": synthesised})

    iterations = lambda a, k, r, _: {"iterations": int(r.iterations)}  # noqa: E731
    fn(maximal_rpi, "invariance.fixed_point", post=iterations)
    fn(maximal_rci, "invariance.fixed_point", post=iterations)
    fn(strengthened_safe_set, "invariance.strengthened")

    method(HPolytope, "remove_redundancies", "geometry.redundancy",
           post=lambda a, k, r, _: {"rows_in": len(a[0].h),
                                    "rows_kept": len(r.h)})
    method(HPolytope, "contains_polytope", "geometry.contains_polytope")
    method(MembershipTester, "contains_each", "geometry.membership",
           post=lambda a, k, r, _: {"points": len(r[0])})
    method(HPolytope, "contains_batch", "geometry.violation")
    method(HPolytope, "violation_batch", "geometry.violation")

    fn(lp.solve_lp, "lp.scalar")
    fn(lp.lp_feasible, "lp.scalar")
    fn(lp.solve_lp_batch, "lp.batch",
       post=lambda a, k, r, _: {"blocks": len(r)})
    fn(scipy.optimize.linprog, "solver.linprog",
       post=lambda a, k, r, _: {"success": bool(r.success)})

    method(RobustMPC, "__init__", "controllers.rmpc_setup")
    fn(rmpc_invariant_set, "controllers.rmpc_setup")
    method(RobustMPC, "solve_batch", "controllers.solve_batch")
    method(RobustMPC, "solve", "controllers.solve")
    for cls in _subclasses(Controller):
        method(cls, "compute_batch", "controllers.compute_batch")
        method(cls, "compute_rowwise", "controllers.compute_batch")

    for cls in _subclasses(SkippingPolicy):
        for attr in ("decide", "decide_batch", "decide_batch_at"):
            method(cls, attr, "skipping.decide")

    method(DiscreteLTISystem, "step_batch", "systems.step_batch")

    fn(lockstep.run_lockstep, "framework.lockstep")
    fn(lockstep.lockstep_controller_only, "framework.lockstep")

    fn(runner._evaluate_cell, "experiments.cell")
    fn(runner.run_sweep, "experiments.sweep")

    method(ResultStore, "put", "store.put",
           post=lambda a, k, r, _: {"bytes": os.path.getsize(r)})
    method(ResultStore, "get_with_reason", "store.get",
           post=lambda a, k, r, _: {"hit": r[1] == "hit"})
    return dict(wrapped)


def layer_metrics(spans) -> dict:
    """Fold spans into ``{metric: (value, unit)}``.

    Inclusive times sum the outermost span of each name; a layer's self
    time is its spans' durations minus the parts their direct children
    cover (single-threaded, so children never overlap).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    attr_sum = defaultdict(float)
    fallbacks = 0
    failures = 0
    for index, (name, start, end, parent, attrs, nested) in enumerate(spans):
        duration = end - start
        self_time[name.split(".", 1)[0]] += duration - child_time[index]
        if name in ("framework.lockstep", "experiments.sweep"):
            self_time[name] += duration - child_time[index]
        calls[name] += 1
        if not nested:
            inclusive[name] += duration
        if attrs:
            for key, value in attrs.items():
                if key == "success":
                    failures += not value
                elif key != "error":
                    attr_sum[(name, key)] += float(value)
        if (name == "controllers.solve" and parent >= 0
                and spans[parent][0] == "controllers.solve_batch"):
            fallbacks += 1

    s, n = "s", "count"
    metrics = {
        "scenarios.build_s": (inclusive["scenarios.build"], s),
        "scenarios.builds": (attr_sum[("scenarios.build", "synthesised")], n),
        "invariance.fixed_point_s": (inclusive["invariance.fixed_point"], s),
        "invariance.iterations": (
            attr_sum[("invariance.fixed_point", "iterations")], n),
        "invariance.strengthened_s": (inclusive["invariance.strengthened"], s),
        "geometry.redundancy_s": (inclusive["geometry.redundancy"], s),
        "geometry.redundancy_calls": (calls["geometry.redundancy"], n),
        "geometry.rows_in": (attr_sum[("geometry.redundancy", "rows_in")], n),
        "geometry.rows_kept": (
            attr_sum[("geometry.redundancy", "rows_kept")], n),
        "geometry.kept_share": (
            attr_sum[("geometry.redundancy", "rows_kept")]
            / max(attr_sum[("geometry.redundancy", "rows_in")], 1.0), "ratio"),
        "geometry.contains_polytope_s": (
            inclusive["geometry.contains_polytope"], s),
        "geometry.membership_s": (inclusive["geometry.membership"], s),
        "geometry.membership_points": (
            attr_sum[("geometry.membership", "points")], n),
        "geometry.violation_s": (inclusive["geometry.violation"], s),
        "lp.scalar_s": (inclusive["lp.scalar"], s),
        "lp.scalar_solves": (calls["lp.scalar"], n),
        "lp.batch_s": (inclusive["lp.batch"], s),
        "lp.batch_calls": (calls["lp.batch"], n),
        "lp.batch_blocks": (attr_sum[("lp.batch", "blocks")], n),
        "lp.highs_s": (inclusive["solver.linprog"], s),
        "lp.highs_calls": (calls["solver.linprog"], n),
        "lp.failures": (failures, n),
        "controllers.rmpc_setup_s": (inclusive["controllers.rmpc_setup"], s),
        "controllers.solve_batch_s": (inclusive["controllers.solve_batch"], s),
        "controllers.solve_batch_calls": (calls["controllers.solve_batch"], n),
        "controllers.scalar_fallbacks": (fallbacks, n),
        "controllers.compute_batch_s": (
            inclusive["controllers.compute_batch"], s),
        "skipping.decide_s": (inclusive["skipping.decide"], s),
        "systems.step_batch_s": (inclusive["systems.step_batch"], s),
        "framework.lockstep_s": (inclusive["framework.lockstep"], s),
        "framework.lockstep_self_s": (self_time["framework.lockstep"], s),
        "experiments.cell_s": (inclusive["experiments.cell"], s),
        "experiments.sweep_self_s": (self_time["experiments.sweep"], s),
        "store.put_s": (inclusive["store.put"], s),
        "store.bytes_written": (attr_sum[("store.put", "bytes")], "B"),
        "store.get_s": (inclusive["store.get"], s),
        "store.hits": (attr_sum[("store.get", "hit")], n),
        "trace.spans": (len(spans), n),
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (self_time[layer], s)
    return metrics
