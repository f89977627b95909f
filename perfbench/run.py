#!/usr/bin/env python3
"""Time to tolerance of decnewton's experiment harness, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload quad-illcond --seed 0 --seconds 40 --trace 0

Each run takes its workload's configs (``workloads.py``; ``--seed`` orders
them, ``--shift`` shifts their problem and graph seeds, 0 reproduces the
presets), warms up on a three-iteration copy of the first config, then runs
every config through ``decnewton.harness.run_experiment`` (a pass), again and
again until the next pass would end more than ``--seconds`` after the run
started; at least one pass always runs. Between passes it times a few repeats
of the set-up, so set-up samples spread over the whole run like the passes.

Every run is checked: it fails when its status is not ``converged``, its final
``rel_err`` is above ``stop_tol``, or its trace CSV, ``wall_time`` column
removed, differs from the first pass of the same process.

``--trace 0`` reports the end-to-end metrics (BENCHMARK.json ``end_to_end``):

* ``wall_s``: each config's median ``run_experiment`` time over the passes,
  summed over the configs, in seconds of a reference host (see below)
* ``setup_s``: the time of one pass's ``build_problem``, ``build_mixing`` and
  ``centralized_solve`` calls, timed on their own in blocks of repeats between
  passes; the median over the blocks of each block's median, scaled like
  ``wall_s``
* ``iters``, ``bits``: outer iterations and ``bits_cum`` at the stop, summed
  over the pass (exact counts)
* ``peak_rss_mb``: peak resident memory of this process

``--trace 1`` alternates untraced passes with passes that have every layer
wrapped (``tracing.py``), and reports the per-layer metrics of the traced
passes (medians; ``cg_breach_iters`` is read from the trace rows), the tracing
overhead (traced minus untraced time, both scaled like ``wall_s``) and the time
no span covers. The spans of the first traced pass are written to
``perfbench/out``. The traced passes' CSVs must match the untraced ones like
any later pass.

Why ``wall_s`` is scaled: on a small shared host the same pass runs up to twice
as slow for stretches of seconds to minutes while the neighbours are busy, so
the median of one run follows the share of slow stretches in it. A fixed
kernel of Python and numpy work (``reference_kernel``) is timed before and
after every ``run_experiment`` call, and each call's time is divided by the
mean of the two and multiplied by ``KERNEL_S``. The result is the call's time
on a host where the kernel takes ``KERNEL_S``: it moves with the program as
raw time does, and much less than raw time with the neighbours. Set-up time is
scaled the same way. The ``samples`` line gives the raw medians and the
kernel's median time.

Earlier stdout lines are JSON objects with a ``kind`` key (``env``, ``run``,
``samples``); the last line is the result object.
"""

import os

# Pin BLAS/OpenMP before numpy loads; DECNEWTON_SEED would override the
# workload's seeds inside run_experiment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DECNEWTON_SEED", None)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_library():
    """Put the checkout's ``src`` first on the path and import decnewton from it."""
    src = ROOT / "src"
    if not (src / "decnewton" / "__init__.py").is_file():
        raise ImportError(f"no decnewton package under {src}")
    sys.path.insert(0, str(src))
    import decnewton

    if Path(decnewton.__file__).resolve().parent != src / "decnewton":
        raise ImportError(f"decnewton imported from {decnewton.__file__}, not from {src}")
    return decnewton


@dataclass
class Outcome:
    """One run_experiment call of a pass."""

    config: object
    seconds: float
    trace: object = None
    failure: str = ""
    kernel_s: float = 0.0  # reference kernel time around the call

    @property
    def scaled_s(self) -> float:
        """``seconds`` on a host where the reference kernel takes KERNEL_S."""
        return self.seconds * KERNEL_S / self.kernel_s


# wall_s is given in seconds of a host on which reference_kernel() takes this
# long; on an idle 2.1 GHz Xeon vCPU it takes about that.
KERNEL_S = 0.05


@functools.cache
def _kernel_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 30, 30))
    return a @ a.transpose(0, 2, 1) + 30.0 * np.eye(30), rng.standard_normal((10, 30))


def reference_kernel() -> float:
    """Seconds of a fixed mix of the work decnewton's passes do: a Python loop
    over ten nodes of 30x30 matrix-vector products and norms, and about as
    much plain Python on the results. It is built on numpy alone, so no
    change to decnewton moves it."""
    import numpy as np

    h, g = _kernel_inputs()
    t0 = time.perf_counter()
    x = np.zeros(30)
    norms = [0.0] * 10
    sums = {}
    for _ in range(400):
        for i in range(10):
            r = g[i] - h[i] @ x
            x = x + 1e-3 * r
            norms[i] = float(np.linalg.norm(r))
        for k in range(500):
            sums[k % 97] = sums.get(k % 97, 0.0) + norms[k % 10]
    return time.perf_counter() - t0


def strip_wall_time(path) -> str:
    lines = Path(path).read_text().splitlines()
    col = lines[1].split(",").index("wall_time")
    kept = lines[:1] + [",".join(f for i, f in enumerate(line.split(",")) if i != col)
                        for line in lines[1:]]
    return "\n".join(kept) + "\n"


def run_pass(configs, out_dir: Path, reference: dict) -> list:
    """Run every config once, writing its trace CSV under ``out_dir``, and
    check it.

    ``reference`` maps a config label to the first pass's stripped trace CSV;
    it is filled on the first pass and compared against on later ones.
    """
    from decnewton import harness

    outcomes = []
    before = reference_kernel()
    for config in configs:
        t0 = time.perf_counter()
        try:
            trace, path = harness.run_experiment(config, out_dir=str(out_dir))
        except Exception:
            seconds = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(config, seconds, failure=f"raised {sys.exc_info()[0].__name__}")
        else:
            seconds = time.perf_counter() - t0
            csv = strip_wall_time(path)
            failure = ""
            if trace.status != "converged":
                failure = f"status {trace.status}"
            elif not trace.final_rel_err <= config.algorithm.stop_tol:
                failure = f"rel_err {trace.final_rel_err:.3e} above stop_tol"
            elif reference.setdefault(config.label, csv) != csv:
                failure = "trace CSV differs from the first pass"
            outcome = Outcome(config, seconds, trace, failure)
        after = reference_kernel()
        outcome.kernel_s = (before + after) / 2
        before = after
        outcomes.append(outcome)
    return outcomes


def run_passes(configs, out_dir: Path, reference: dict, deadline: float, between) -> list:
    """Passes until the next one would end after ``deadline`` (a
    ``perf_counter`` time); at least one. ``between()`` runs after each
    pass."""
    passes, costs = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(configs, out_dir, reference))
        between()
        costs.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(costs) > deadline:
            return passes


def pass_seconds(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def warm_up(config, out_dir: Path) -> None:
    """A three-iteration copy of ``config``: imports, BLAS and caches warm up."""
    from decnewton import harness

    short = replace(config, algorithm=replace(config.algorithm, max_iters=3))
    harness.run_experiment(short, out_dir=str(out_dir / "warmup"))


def measure_setup(configs, min_total_s: float = 0.1, min_reps: int = 3) -> tuple:
    """Time at least ``min_reps`` repeats, and ``min_total_s`` seconds, of the
    set-up run_experiment does before iterating, between two runs of the
    reference kernel. Returns the median repeat's seconds, raw and scaled like
    ``wall_s``."""
    from decnewton import harness

    before = reference_kernel()
    reps = []
    t_start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t_start < min_total_s:
        t0 = time.perf_counter()
        for config in configs:
            problem = harness.build_problem(config.problem)
            harness.build_mixing(config.graph, config.problem.n)
            harness.centralized_solve(problem, tol=1e-12)
        reps.append(time.perf_counter() - t0)
    raw = statistics.median(reps)
    return raw, raw * KERNEL_S / ((before + reference_kernel()) / 2)


def counts(outcomes) -> dict:
    traces = [o.trace for o in outcomes if o.trace is not None]
    return {
        "iters": sum(t.iterations for t in traces),
        "bits": sum(t.rows[-1].bits_cum for t in traces),
        "cg_breach_iters": sum(cg_breach_iters(t) for t in traces),
        "step_wall_s": sum(r.wall_time for t in traces for r in t.rows),
    }


def cg_breach_iters(trace) -> int:
    """Iterations in which some node's CG stopped above c_k * ||g_i||."""
    return sum(1 for r in trace.rows if r.cg_max_rel_residual > r.c_k)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "kind": "env",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_lines(outcomes) -> list:
    lines = []
    for o in outcomes:
        line = {"kind": "run", "label": o.config.label,
                "problem_seed": o.config.problem.seed, "graph_seed": o.config.graph.seed,
                "seconds": o.seconds, "failure": o.failure}
        if o.trace is not None:
            line.update(status=o.trace.status, iters=o.trace.iterations,
                        bits=o.trace.rows[-1].bits_cum, rel_err=o.trace.final_rel_err,
                        cg_breach_iters=cg_breach_iters(o.trace))
        lines.append(line)
    return lines


def scaled_seconds(passes) -> float:
    """Each config's median ``scaled_s`` over ``passes``, summed over the configs."""
    per_config = {}
    for outcomes in passes:
        for o in outcomes:
            per_config.setdefault(o.config.label, []).append(o.scaled_s)
    return sum(statistics.median(v) for v in per_config.values())


def untraced_metrics(configs, out_dir: Path, deadline: float):
    reference, setup = {}, []

    def between():
        # Set-up is timed only for configs that have run correctly.
        ok = [config for config in configs if config.label in reference]
        if ok:
            setup.append(measure_setup(ok))

    passes = run_passes(configs, out_dir, reference, deadline, between)
    c = counts(passes[0])
    metrics = {
        "wall_s": (scaled_seconds(passes), "s"),
        "setup_s": (statistics.median(scaled for _, scaled in setup) if setup else 0.0, "s"),
        "iters": (c["iters"], "count"),
        "bits": (c["bits"], "bit"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    samples = {"wall_s": len(passes), "setup_s": len(setup),
               "raw_pass_s": statistics.median(pass_seconds(p) for p in passes),
               "raw_setup_s": statistics.median(raw for raw, _ in setup) if setup else 0.0,
               "kernel_s": statistics.median(o.kernel_s for p in passes for o in p)}
    return passes, metrics, samples


def traced_metrics(configs, out_dir: Path, deadline: float, spans_path: Path):
    import tracing

    reference = {}
    plain, traced, per_pass, costs = [], [], [], []
    while True:
        t0 = time.perf_counter()
        # Untraced and traced passes alternate, so a drift in machine speed
        # shows in both alike and not in the overhead.
        plain.append(run_pass(configs, out_dir, reference))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            outcomes = run_pass(configs, out_dir, reference)
        traced.append(outcomes)
        c = counts(outcomes)
        m = tracing.layer_metrics(tracer, c["step_wall_s"], c["cg_breach_iters"])
        m["harness.remainder_s"] = (pass_seconds(outcomes) - tracing.root_seconds(tracer), "s")
        per_pass.append(m)
        if len(traced) == 1:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(spans_path)
        costs.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(costs) > deadline:
            break
    # Counts repeat exactly from pass to pass; median_low keeps them whole.
    metrics = {name: ((statistics.median_low if unit == "count" else statistics.median)(
                   m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["bench.trace_overhead_s"] = (scaled_seconds(traced) - scaled_seconds(plain), "s")
    return plain + traced, metrics, {"untraced_passes": len(plain), "traced_passes": len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="orders the configs")
    parser.add_argument("--shift", type=int, default=0,
                        help="added to every problem and graph seed; 0 runs the presets")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot load decnewton: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    configs = workload.jobs(args.seed, args.shift)
    out_dir = OUT / workload.name / f"shift{args.shift}"

    deadline = time.perf_counter() + args.seconds
    print(json.dumps(environment()), flush=True)
    try:
        warm_up(configs[0], out_dir)
    except Exception:
        traceback.print_exc(file=sys.stderr)  # the pass records the failure
    if args.trace:
        spans = OUT / f"{workload.name}-shift{args.shift}.spans.npz"
        passes, metrics, samples = traced_metrics(configs, out_dir, deadline, spans)
    else:
        passes, metrics, samples = untraced_metrics(configs, out_dir, deadline)
    for line in run_lines(passes[0]):
        print(json.dumps(line))
    print(json.dumps({"kind": "samples", **samples}))
    outcomes = [o for p in passes for o in p]
    failed = sum(1 for o in outcomes if o.failure)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
