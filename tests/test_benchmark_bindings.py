"""The benchmark's traced mode patches decnewton functions by module and name.

``perfbench/tracing.py`` lists those bindings in ``PATCH_POINTS``; a rename in
the library that drops one breaks ``perfbench/run.py --trace 1``. Loading the
file as-is and resolving every binding makes such a rename fail here. A
binding that still resolves but is no longer called (say, the function was
inlined into its caller) would read zero in the traced layer numbers, so the
calls made through the bindings during short runs are counted as well.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import quad_params
from decnewton import gradient_tracking
from decnewton.gradient_tracking import GTParams, gt_columns, gt_run, tune_alpha
from decnewton.harness import preset_configs, run_experiment
from decnewton.newton import run

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCH_POINTS


def test_every_patch_point_resolves(patch_points):
    missing = [
        f"{module_name}.{attr}"
        for points in patch_points.values()
        for module_name, attr in points
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert patch_points and not missing


LAYERS = ("graph.consensus_apply", "diagnostics.fill_state_metrics",
          "gradient_tracking.gt_step")


def count_calls(patch_points, monkeypatch, layers):
    """Calls per layer made through the bindings PATCH_POINTS names."""
    calls = dict.fromkeys(layers, 0)
    for layer in layers:
        for module_name, attr in patch_points[layer]:
            module = importlib.import_module(module_name)

            def counted(*args, _fn=getattr(module, attr), _layer=layer, **kwargs):
                calls[_layer] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def layer_calls(patch_points, monkeypatch):
    return count_calls(patch_points, monkeypatch, LAYERS)


def test_run_experiment_sets_up_through_bindings(patch_points, monkeypatch):
    # the traced set-up split reads the graph layers through these bindings
    layers = ("graph.generate_topology", "graph.metropolis_weights")
    calls = count_calls(patch_points, monkeypatch, layers)
    config = next(c for c in preset_configs("quad-kappa") if c.label == "quad-k1e2-m15")
    trace, _ = run_experiment(replace(config, algorithm=replace(config.algorithm, max_iters=2)))
    assert trace.iterations == 2
    assert calls == dict.fromkeys(layers, 1)


def test_gt_run_calls_through_bindings(quad_problem, quad_graph, quad_xstar, quad_x0,
                                       layer_calls):
    iters = 7
    trace = gt_run(quad_problem, quad_graph[1], GTParams(alpha=1e-3, m=2, max_iters=iters,
                                                         stop_tol=0.0), quad_x0, quad_xstar)
    assert trace.iterations == iters
    assert layer_calls == {"graph.consensus_apply": 2 * iters,
                           "diagnostics.fill_state_metrics": len(trace.rows),
                           "gradient_tracking.gt_step": iters}


def test_tune_alpha_calls_through_bindings(quad_problem, quad_graph, quad_xstar, quad_x0,
                                          layer_calls, monkeypatch):
    # the candidates run as stacks, one gt_step per stacked iteration, and
    # keep only rel_err, so no row goes through fill_state_metrics
    stacks = []

    def recorded(*args, **kwargs):
        columns = gt_columns(*args, **kwargs)
        stacks.append(max(len(errs) - 1 for _, errs in columns))  # the stack's iterations
        return columns

    monkeypatch.setattr(gradient_tracking, "gt_columns", recorded)
    tune_alpha(quad_problem, quad_graph[1], quad_x0, quad_xstar, evals=4, budget=40)
    iters = sum(stacks)
    assert len(stacks) == 2 and iters > 0  # the first pair, then both steps left as one
    assert layer_calls == {"graph.consensus_apply": 2 * iters,
                           "diagnostics.fill_state_metrics": 0,
                           "gradient_tracking.gt_step": iters}


@pytest.mark.parametrize("variant", ["efficient", "reference"])
def test_newton_run_calls_through_bindings(quad_problem, quad_graph, quad_xstar, quad_x0,
                                           layer_calls, variant):
    iters = 3
    trace = run(quad_problem, quad_graph[1],
                quad_params(max_iters=iters, stop_tol=0.0, variant=variant), quad_x0, quad_xstar)
    assert trace.iterations == iters
    assert layer_calls == {"graph.consensus_apply": 4 * iters,
                           "diagnostics.fill_state_metrics": len(trace.rows),
                           "gradient_tracking.gt_step": 0}
