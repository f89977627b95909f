"""Checks on the benchmark itself: tracing must not change results, and the
per-layer split must account for the traced time.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _short_gt_config():
    config, = WORKLOADS["gt-tuned"].jobs(0)
    return replace(config, algorithm=replace(config.algorithm, max_iters=40))


@pytest.fixture(scope="module")
def configs():
    return WORKLOADS["logit"].jobs(0) + [_short_gt_config()]


def test_shift_zero_runs_the_presets():
    from decnewton.harness import preset_configs

    presets = {c.label: c for c in preset_configs("logit-topk") + preset_configs("logit-rank")}
    for config in WORKLOADS["logit"].jobs(seed=5, shift=0):
        assert config == presets[config.label]
    for config in WORKLOADS["logit"].jobs(seed=5, shift=3):
        assert config.problem.seed == presets[config.label].problem.seed + 3
        assert config.graph.seed == presets[config.label].graph.seed + 3


def _traced_pass(configs, out_dir, reference):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        outcomes = run.run_pass(configs, out_dir, reference)
    return tracer, outcomes


def test_traced_trace_csvs_match_untraced(configs, tmp_path):
    plain = run.run_pass(configs, tmp_path / "plain", {})
    _, traced = _traced_pass(configs, tmp_path / "traced", {})
    for outcome in plain + traced:
        assert outcome.failure in ("", "status max_iters"), outcome.failure
        assert outcome.kernel_s > 0
    for config in configs:
        name = f"{config.label}.csv"
        assert (run.strip_wall_time(tmp_path / "plain" / name)
                == run.strip_wall_time(tmp_path / "traced" / name))


def test_wrappers_are_removed_after_the_traced_pass(configs, tmp_path):
    import decnewton.gradient_tracking
    import decnewton.harness
    import decnewton.newton

    before = (decnewton.newton.cg_solve, decnewton.harness.build_mixing,
              decnewton.gradient_tracking.consensus_apply)
    _traced_pass(configs[:1], tmp_path, {})
    assert (decnewton.newton.cg_solve, decnewton.harness.build_mixing,
            decnewton.gradient_tracking.consensus_apply) == before


def test_self_times_add_up_to_traced_wall(configs, tmp_path):
    tracer, outcomes = _traced_pass(configs, tmp_path, {})
    c = run.counts(outcomes)
    metrics = tracing.layer_metrics(tracer, c["step_wall_s"], c["cg_breach_iters"])
    # Self times never overlap, so they add up to the spanned time; that must
    # be all of the traced wall time but the harness remainder, under 5%.
    wall = run.pass_seconds(outcomes)
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS + ["newton.step"])
    assert self_total == pytest.approx(wall, rel=0.05)
    assert wall - tracing.root_seconds(tracer) < 0.05 * wall
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.self_s"][0] >= -1e-6, layer
    assert metrics["newton.step.self_s"][0] >= 0.0
    assert metrics["gradient_tracking.gt_step.calls"][0] > 0
    assert metrics["newton.cg_solve.calls"][0] > 0


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_reported_metrics_match_benchmark_json(trace, key):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = _result(["--workload", "logit", "--seconds", "0.1", "--trace", str(trace)])
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
