"""Spans around decnewton's layers, recorded from outside the library.

The library modules import their collaborators by name (``from .graph import
consensus_apply``), so a wrapper installed on the defining module alone would
never run. ``installed`` therefore patches every name at the place where it is
looked up, for example ``decnewton.newton.consensus_apply`` and
``decnewton.harness.build_mixing``, and restores the originals on exit. No
library file changes.

A span is (name, start, end, parent). Spans are kept in flat arrays while the
run goes on and are reduced to per-layer totals, or written out, afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array

import numpy as np

# Layer name -> the (module, attribute) bindings through which decnewton calls
# it. Each layer is named after the module that defines the function;
# ``objectives.make_problem`` covers both instance generators.
PATCH_POINTS = {
    "harness.run_experiment": [("decnewton.harness", "run_experiment")],
    "harness.build_problem": [("decnewton.harness", "build_problem")],
    "harness.build_mixing": [("decnewton.harness", "build_mixing")],
    "harness.write_trace_csv": [("decnewton.harness", "write_trace_csv")],
    "objectives.make_problem": [("decnewton.harness", "make_quadratic"),
                                ("decnewton.harness", "make_logistic")],
    "objectives.centralized_solve": [("decnewton.harness", "centralized_solve")],
    "graph.generate_topology": [("decnewton.harness", "generate_topology")],
    "graph.metropolis_weights": [("decnewton.harness", "metropolis_weights")],
    "newton.run": [("decnewton.newton", "run")],
    "newton.init_state": [("decnewton.newton", "init_state")],
    "newton.cg_solve": [("decnewton.newton", "cg_solve")],
    "compress.compress": [("decnewton.newton", "compress")],
    "objectives.batch_gradients": [("decnewton.newton", "batch_gradients"),
                                   ("decnewton.gradient_tracking", "batch_gradients")],
    "objectives.batch_hessians": [("decnewton.newton", "batch_hessians")],
    "graph.consensus_apply": [("decnewton.newton", "consensus_apply"),
                              ("decnewton.gradient_tracking", "consensus_apply")],
    "diagnostics.fill_state_metrics": [("decnewton.newton", "fill_state_metrics"),
                                       ("decnewton.gradient_tracking", "fill_state_metrics")],
    "gradient_tracking.tune_alpha": [("decnewton.harness", "tune_alpha")],
    "gradient_tracking.gt_run": [("decnewton.harness", "gt_run"),
                                 ("decnewton.gradient_tracking", "gt_run")],
    "gradient_tracking.gt_step": [("decnewton.gradient_tracking", "gt_step")],
}
LAYERS = list(PATCH_POINTS)

# newton.run times each step itself (the trace's wall_time column); the step
# functions are not wrapped, so the spans a step opens sit directly under
# newton.run, next to these two, which run outside the step.
_RUN_CHILDREN_OUTSIDE_STEP = ("newton.init_state", "diagnostics.fill_state_metrics")

CG_STATS = ("iters", "sweeps", "breakdowns", "breaches")


class Tracer:
    """In-memory span recorder plus the counters the wrappers read off
    arguments and results."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = dict.fromkeys(
            [f"newton.cg_solve.{s}" for s in CG_STATS] + ["graph.consensus_apply.rounds"], 0)

    def wrap(self, nid: int, fn, after=None, on_error=None):
        """Return ``fn`` recording one span per call under layer ``nid``;
        ``after(args, kwargs, result)`` and ``on_error(exc)`` update the
        counters after the span has closed."""
        perf = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = perf()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[idx] = perf()
            stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _cg_after(self, args, kwargs, result):
        c = self.counters
        c["newton.cg_solve.iters"] += result.iterations
        c["newton.cg_solve.sweeps"] += result.sweeps
        g, ck = args[1], args[2]
        if result.residual_norm > ck * float(np.linalg.norm(g)):
            c["newton.cg_solve.breaches"] += 1

    def _cg_error(self, exc):
        from decnewton.newton import CGBreakdownError

        if isinstance(exc, CGBreakdownError):
            self.counters["newton.cg_solve.breakdowns"] += 1

    def _consensus_after(self, args, kwargs, result):
        self.counters["graph.consensus_apply.rounds"] += args[1] if len(args) > 1 else kwargs["m"]

    def hooks(self, layer: str):
        if layer == "newton.cg_solve":
            return self._cg_after, self._cg_error
        if layer == "graph.consensus_apply":
            return self._consensus_after, None
        return None, None

    def save(self, path) -> None:
        np.savez_compressed(
            path, layers=np.array(LAYERS), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every binding in PATCH_POINTS with a recording wrapper."""
    saved = []
    try:
        for nid, (layer, points) in enumerate(PATCH_POINTS.items()):
            after, on_error = tracer.hooks(layer)
            for module_name, attr in points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(nid, original, after, on_error))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, step_wall_s: float, cg_breach_iters: int) -> dict:
    """Reduce the spans of one traced pass to the per-layer metrics.

    ``step_wall_s`` is the sum of the pass's trace ``wall_time`` column, the
    time newton.run spent inside step functions. Returns name -> (value, unit).
    """
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    n_layers = len(LAYERS)
    calls = np.bincount(nid, minlength=n_layers)
    total = np.bincount(nid, weights=dur, minlength=n_layers)
    own = np.bincount(nid, weights=self_time, minlength=n_layers)

    run_id = LAYERS.index("newton.run")
    outside = [LAYERS.index(name) for name in _RUN_CHILDREN_OUTSIDE_STEP]
    under_run = nested & (nid[np.maximum(parent, 0)] == run_id)
    in_step = under_run & ~np.isin(nid, outside)
    step_self = step_wall_s - float(dur[in_step].sum())
    own[run_id] -= step_self

    out = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.calls"] = (int(calls[i]), "count")
        out[f"{layer}.s"] = (float(total[i]), "s")
        out[f"{layer}.self_s"] = (float(own[i]), "s")
    out["newton.step.s"] = (step_wall_s, "s")
    out["newton.step.self_s"] = (step_self, "s")
    for key, value in tracer.counters.items():
        out[key] = (int(value), "count")
    attempts = int(calls[LAYERS.index("newton.cg_solve")])
    c = tracer.counters
    met = attempts - c["newton.cg_solve.breaches"] - c["newton.cg_solve.breakdowns"]
    # No attempts means no wasted solves: the ratio of a bypassed layer is 1.
    out["newton.cg_solve.ok_ratio"] = (met / attempts if attempts else 1.0, "ratio")
    out["cg_breach_iters"] = (int(cg_breach_iters), "count")
    return out


def root_seconds(tracer: Tracer) -> float:
    """Time covered by spans that have no parent."""
    roots = np.frombuffer(tracer.parent, dtype=np.int32) < 0
    return float((np.frombuffer(tracer.end) - np.frombuffer(tracer.start))[roots].sum())
