"""The benchmark's traced mode patches decnewton functions by module and name.

``perfbench/tracing.py`` lists those bindings in ``PATCH_POINTS``; a rename in
the library that drops one breaks ``perfbench/run.py --trace 1``. Loading the
file as-is and resolving every binding makes such a rename fail here. A
binding that still resolves but is no longer called (say, the function was
inlined into its caller) would read zero in the traced layer numbers, so the
calls made through the bindings during short runs are counted as well.
Each workload of ``BENCHMARK.json`` also runs once, briefly and untraced, as
the benchmark runs it, and ``gt-tuned`` runs once traced.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import quad_params
from decnewton import gradient_tracking
from decnewton.gradient_tracking import GTParams, gt_columns, gt_run, tune_alpha
from decnewton.harness import preset_configs, run_experiment
from decnewton.newton import run

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


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


ROUNDS = "graph.consensus_apply.rounds"


def count_calls(patch_points, monkeypatch, layers):
    """Calls per layer made through the bindings PATCH_POINTS names. With the consensus
    layer, ``ROUNDS`` adds up the ``m`` of its calls, where the tracer's counter of that
    name reads it: the second argument, or the keyword ``m``."""
    calls = dict.fromkeys(layers, 0)
    if "graph.consensus_apply" in layers:
        calls[ROUNDS] = 0
    for layer in layers:
        for module_name, attr in patch_points[layer]:
            module = importlib.import_module(module_name)

            def counted(*args, _fn=getattr(module, attr), _layer=layer, **kwargs):
                calls[_layer] += 1
                if _layer == "graph.consensus_apply":
                    calls[ROUNDS] += args[1] if len(args) > 1 else kwargs["m"]
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
    trace = gt_run(quad_problem, quad_graph, GTParams(alpha=1e-3, m=2, max_iters=iters,
                                                         stop_tol=0.0), quad_x0, quad_xstar)
    assert trace.iterations == iters
    assert layer_calls == {"graph.consensus_apply": 2 * iters, ROUNDS: 28,
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
    tune_alpha(quad_problem, quad_graph, quad_x0, quad_xstar, budget=40)
    iters = sum(stacks)
    assert len(stacks) == 4 and iters > 0  # the grid, then three zooms
    assert layer_calls == {"graph.consensus_apply": 2 * iters, ROUNDS: 2 * iters,  # m = 1
                           "diagnostics.fill_state_metrics": 0,
                           "gradient_tracking.gt_step": iters}


@pytest.mark.parametrize("variant", ["efficient", "reference"])
def test_newton_run_calls_through_bindings(quad_problem, quad_graph, quad_xstar, quad_x0,
                                           patch_points, monkeypatch, variant):
    # newton.cg_solve is an alias of the direction solve that no run calls: the
    # tracer's hook for it reads CG result fields the solve does not return. Each
    # iteration gossips x and g for m rounds (m = "k": 1, 1, 2) and two Hessian terms for 1
    calls = count_calls(patch_points, monkeypatch, LAYERS + ("newton.cg_solve",))
    iters = 3
    for m, rounds in ((15, 96), ("k", 14)):
        calls.update(dict.fromkeys(calls, 0))
        params = quad_params(m=m, max_iters=iters, stop_tol=0.0, variant=variant)
        trace = run(quad_problem, quad_graph, params, quad_x0, quad_xstar)
        assert trace.iterations == iters
        assert calls == {"graph.consensus_apply": 4 * iters, ROUNDS: rounds,
                         "diagnostics.fill_state_metrics": len(trace.rows),
                         "gradient_tracking.gt_step": 0, "newton.cg_solve": 0}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_runs_each_workload_clean(workload):
    # run.py prints a failing warm-up's traceback to stderr and goes on
    # without it, so an empty stderr is the only sign that the warm-up ran
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [metric["name"] for metric in BENCHMARK["end_to_end"]]


def test_traced_benchmark_counts_the_gt_layers():
    # gt-tuned's tracking steps run newton.step on states with no Hessian
    # tracker: they go through the gt_step binding and newton's consensus and
    # gradient bindings, and never reach a Newton-side layer
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gt-tuned",
                           "--seconds", "0.1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    calls = {name: result["metrics"][f"{name}.calls"]["value"] for name in (
        "gradient_tracking.gt_step", "graph.consensus_apply", "objectives.batch_gradients",
        "newton.run", "compress.compress", "objectives.batch_hessians")}
    assert calls == {"gradient_tracking.gt_step": 7049, "graph.consensus_apply": 14098,
                     "objectives.batch_gradients": 7054, "newton.run": 0,
                     "compress.compress": 0, "objectives.batch_hessians": 0}
