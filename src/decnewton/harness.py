"""Experiment configuration, presets, trace persistence, and comparison.

Configs are plain text with configparser sections::

    [problem]
    family = quadratic          ; quadratic | logistic
    n = 10
    d = 30
    kappa = 100.0               ; quadratic only
    ; rho = 0.001               ; logistic only
    ; m_per_node = 100          ; logistic only
    seed = 1

    [graph]
    tau = 0.2
    seed = 11

    [algorithm]
    method = newton             ; newton | gt
    m = 15                      ; positive integer, or k for m growing with the iteration
    gamma = 0.03
    M = 0.0
    alpha = ramp(0.02, 1.1, 1.0)   ; const(v) | ramp(base, growth, cap) | stage(v1, K, v2)
    cg_tol = const(1e-10)
    compressor = rank_k(3)         ; rank_k(K) | top_k(K) | identity
    variant = efficient            ; efficient | reference
    max_iters = 2000
    stop_tol = 1e-10

    [output]
    label = quad-k100-m15

A gradient-tracking config replaces the algorithm block with
``method = gt``, ``alpha = <float or tuned>``, ``m``, ``max_iters``,
``stop_tol``. Every run starts from x0 = 0 blocks and measures against a
centralized Newton oracle. Traces append to CSV with a fixed column order;
the first line is a comment carrying the label, the config fingerprint, and
the final status. Setting the environment variable DECNEWTON_SEED overrides
every seed in the config.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from . import newton
from .compress import CompressorSpec, delta_bound
from .diagnostics import (
    CSV_COLUMNS,
    MetricWeights,
    RoundMetrics,
    Trace,
    fill_state_metrics,
    theoretical_caps,
)
from .gradient_tracking import GTParams, gt_run, tune_alpha
from .graph import generate_topology, metropolis_weights
from .newton import AlgoParams, ConstantSchedule, GeometricRamp, TwoStageSchedule
from .objectives import centralized_solve, make_logistic, make_quadratic

__all__ = [
    "ProblemSpec",
    "GraphSpec",
    "ExperimentConfig",
    "parse_config",
    "render_config",
    "config_fingerprint",
    "build_problem",
    "build_mixing",
    "run_experiment",
    "write_trace_csv",
    "read_trace_csv",
    "compare",
    "list_presets",
    "preset_configs",
    "run_preset",
    "caps_report",
    "SEED_ENV_VAR",
    "STATUS_CODE",
]

SEED_ENV_VAR = "DECNEWTON_SEED"

# Process exit code for each run status; 1 is left for usage and
# configuration errors.
STATUS_CODE = {"converged": 0, "max_iters": 2, "diverged": 3}


@dataclass(frozen=True)
class ProblemSpec:
    family: str
    n: int
    d: int
    seed: int
    kappa: float | None = None
    rho: float | None = None
    m_per_node: int | None = None


@dataclass(frozen=True)
class GraphSpec:
    tau: float
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    graph: GraphSpec
    method: str                      # newton | gt
    algorithm: object                # AlgoParams or GTParams
    variant: str = "efficient"       # newton only
    gt_alpha_mode: str = "fixed"     # fixed | tuned (gt only)
    label: str = "run"
    csv: str | None = None
    dump_iters: tuple = ()
    repetitions: int = 1


# ---------------------------------------------------------------------------
# config text <-> ExperimentConfig

_SCHEDULE_RE = re.compile(r"^(const|ramp|stage)\(([^)]*)\)$")
_COMPRESSOR_RE = re.compile(r"^(rank_k|top_k)\((\d+)\)$|^identity$")


def _parse_schedule(text: str):
    text = text.strip()
    match = _SCHEDULE_RE.match(text)
    if not match:
        raise ValueError(
            f"bad schedule {text!r}; expected const(v), ramp(base, growth, cap), or stage(v1, K, v2)"
        )
    kind, argstr = match.groups()
    args = [a.strip() for a in argstr.split(",")]
    if kind == "const":
        (v,) = args
        return ConstantSchedule(float(v))
    if kind == "ramp":
        base, growth, cap = args
        return GeometricRamp(float(base), float(growth), float(cap))
    v1, k, v2 = args
    return TwoStageSchedule(float(v1), int(k), float(v2))


def _render_schedule(sched) -> str:
    if isinstance(sched, ConstantSchedule):
        return f"const({sched.value!r})"
    if isinstance(sched, GeometricRamp):
        return f"ramp({sched.base!r}, {sched.growth!r}, {sched.cap!r})"
    if isinstance(sched, TwoStageSchedule):
        return f"stage({sched.stage1!r}, {sched.switch_iter}, {sched.stage2!r})"
    raise TypeError(f"unknown schedule type {type(sched).__name__}")


def _parse_compressor(text: str, d: int) -> CompressorSpec:
    text = text.strip()
    if text == "identity":
        return CompressorSpec(kind="identity", d=d)
    match = _COMPRESSOR_RE.match(text)
    if not match or match.group(1) is None:
        raise ValueError(f"bad compressor {text!r}; expected rank_k(K), top_k(K), or identity")
    return CompressorSpec(kind=match.group(1), d=d, K=int(match.group(2)))


def _render_compressor(spec: CompressorSpec) -> str:
    if spec.kind == "identity":
        return "identity"
    return f"{spec.kind}({spec.K})"


def parse_config(source) -> ExperimentConfig:
    """Read a config from a path or config text. Raises ValueError naming the
    section/field on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keep m (consensus rounds) and M (regularization) distinct
    if isinstance(source, str) and "\n" in source:
        text = source
    elif os.path.exists(source):
        text = open(source).read()
    else:
        raise ValueError(f"config file not found: {source}")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from exc

    def need(section, key, cast=str):
        if section not in parser:
            raise ValueError(f"config missing section [{section}]")
        if key not in parser[section]:
            raise ValueError(f"config missing field {key!r} in section [{section}]")
        raw = parser[section][key]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc

    def opt(section, key, cast=str, default=None):
        if section in parser and key in parser[section]:
            return need(section, key, cast)
        return default

    family = need("problem", "family")
    if family not in ("quadratic", "logistic"):
        raise ValueError(f"[problem] family must be quadratic or logistic, got {family!r}")
    pspec = ProblemSpec(
        family=family,
        n=need("problem", "n", int),
        d=need("problem", "d", int),
        seed=need("problem", "seed", int),
        kappa=opt("problem", "kappa", float),
        rho=opt("problem", "rho", float),
        m_per_node=opt("problem", "m_per_node", int),
    )
    if family == "quadratic" and pspec.kappa is None:
        raise ValueError("config missing field 'kappa' in section [problem]")
    if family == "logistic" and (pspec.rho is None or pspec.m_per_node is None):
        raise ValueError("config missing 'rho'/'m_per_node' in section [problem]")
    gspec = GraphSpec(tau=need("graph", "tau", float), seed=need("graph", "seed", int))

    method = need("algorithm", "method")
    gt_alpha_mode = "fixed"
    if method == "newton":
        m_raw = need("algorithm", "m")
        m = "k" if m_raw.strip() == "k" else int(m_raw)
        algo = AlgoParams(
            compressor=_parse_compressor(need("algorithm", "compressor"), pspec.d),
            alpha=_parse_schedule(need("algorithm", "alpha")),
            gamma=need("algorithm", "gamma", float),
            m=m,
            M=opt("algorithm", "M", float, 0.0),
            cg_tol=_parse_schedule(opt("algorithm", "cg_tol", str, "const(1e-10)")),
            max_iters=opt("algorithm", "max_iters", int, 2000),
            stop_tol=opt("algorithm", "stop_tol", float, 1e-10),
        )
        variant = opt("algorithm", "variant", str, "efficient")
        if variant not in newton.VARIANTS:
            raise ValueError(f"[algorithm] variant must be efficient or reference, got {variant!r}")
    elif method == "gt":
        alpha_raw = need("algorithm", "alpha").strip()
        if alpha_raw == "tuned":
            gt_alpha_mode = "tuned"
            alpha = 1.0  # placeholder replaced after tuning
        else:
            alpha = float(alpha_raw)
        algo = GTParams(
            alpha=alpha,
            m=opt("algorithm", "m", int, 1),
            max_iters=opt("algorithm", "max_iters", int, 5000),
            stop_tol=opt("algorithm", "stop_tol", float, 1e-10),
        )
        variant = "efficient"
    else:
        raise ValueError(f"[algorithm] method must be newton or gt, got {method!r}")

    dump_raw = opt("output", "dump_iters", str, "")
    dump_iters = tuple(int(tok) for tok in dump_raw.split(",") if tok.strip()) if dump_raw else ()
    return ExperimentConfig(
        problem=pspec,
        graph=gspec,
        method=method,
        algorithm=algo,
        variant=variant,
        gt_alpha_mode=gt_alpha_mode,
        label=opt("output", "label", str, "run"),
        csv=opt("output", "csv"),
        dump_iters=dump_iters,
        repetitions=opt("output", "repetitions", int, 1),
    )


def render_config(config: ExperimentConfig) -> str:
    """Canonical config text; parse(render(c)) round-trips and the text is
    what gets fingerprinted."""
    p, g = config.problem, config.graph
    lines = ["[problem]", f"family = {p.family}", f"n = {p.n}", f"d = {p.d}"]
    if p.kappa is not None:
        lines.append(f"kappa = {p.kappa!r}")
    if p.rho is not None:
        lines.append(f"rho = {p.rho!r}")
    if p.m_per_node is not None:
        lines.append(f"m_per_node = {p.m_per_node}")
    lines += [f"seed = {p.seed}", "", "[graph]", f"tau = {g.tau!r}", f"seed = {g.seed}", ""]
    lines.append("[algorithm]")
    lines.append(f"method = {config.method}")
    a = config.algorithm
    if config.method == "newton":
        lines += [
            f"m = {a.m}",
            f"gamma = {a.gamma!r}",
            f"M = {a.M!r}",
            f"alpha = {_render_schedule(a.alpha)}",
            f"cg_tol = {_render_schedule(a.cg_tol)}",
            f"compressor = {_render_compressor(a.compressor)}",
            f"variant = {config.variant}",
            f"max_iters = {a.max_iters}",
            f"stop_tol = {a.stop_tol!r}",
        ]
    else:
        alpha_txt = "tuned" if config.gt_alpha_mode == "tuned" else repr(a.alpha)
        lines += [
            f"alpha = {alpha_txt}",
            f"m = {a.m}",
            f"max_iters = {a.max_iters}",
            f"stop_tol = {a.stop_tol!r}",
        ]
    lines += ["", "[output]", f"label = {config.label}"]
    if config.csv:
        lines.append(f"csv = {config.csv}")
    if config.dump_iters:
        lines.append("dump_iters = " + ",".join(str(i) for i in config.dump_iters))
    if config.repetitions != 1:
        lines.append(f"repetitions = {config.repetitions}")
    return "\n".join(lines) + "\n"


def config_fingerprint(config: ExperimentConfig) -> str:
    return hashlib.sha256(render_config(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# building and running

def _apply_seed_override(config: ExperimentConfig) -> ExperimentConfig:
    override = os.environ.get(SEED_ENV_VAR)
    if not override:
        return config
    seed = int(override)
    return replace(
        config,
        problem=replace(config.problem, seed=seed),
        graph=replace(config.graph, seed=seed),
    )


def build_problem(spec: ProblemSpec):
    if spec.family == "quadratic":
        return make_quadratic(spec.n, spec.d, spec.kappa, spec.seed)
    return make_logistic(spec.n, spec.d, spec.m_per_node, spec.rho, spec.seed)


def build_mixing(spec: GraphSpec, n: int):
    topology = generate_topology(n, spec.tau, spec.seed)
    return topology, metropolis_weights(topology)


def run_experiment(config: ExperimentConfig, out_dir: str | None = None):
    """Build the instance, solve the oracle, run, and write the trace CSV.

    Returns (trace, csv_path); csv_path is None when no destination was
    given. The trace label/fingerprint identify the run in summaries.
    """
    config = _apply_seed_override(config)
    problem = build_problem(config.problem)
    _, W = build_mixing(config.graph, config.problem.n)
    x0 = np.zeros((problem.n, problem.d))
    x_star = centralized_solve(problem, tol=1e-12)
    if config.method == "newton":
        dump_dir = out_dir if config.dump_iters else None
        trace = newton.run(problem, W, config.algorithm, x0, x_star,
                           variant=config.variant,
                           dump_iters=config.dump_iters, dump_dir=dump_dir)
    else:
        params = config.algorithm
        if config.gt_alpha_mode == "tuned":
            alpha = tune_alpha(problem, W, x0, x_star, m=params.m,
                               target=max(params.stop_tol, 1e-8),
                               budget=min(params.max_iters, 3000))
            params = replace(params, alpha=alpha)
        trace = gt_run(problem, W, params, x0, x_star)
    trace.label = config.label
    trace.fingerprint = config_fingerprint(config)
    csv_path = config.csv
    if csv_path is None and out_dir is not None:
        csv_path = os.path.join(out_dir, f"{config.label}.csv")
    if csv_path is not None:
        os.makedirs(os.path.dirname(csv_path) or ".", exist_ok=True)
        write_trace_csv(trace, csv_path)
    return trace, csv_path


# ---------------------------------------------------------------------------
# trace CSV

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_trace_csv(trace: Trace, path) -> None:
    buf = io.StringIO()
    buf.write(f"# decnewton-trace label={trace.label} fingerprint={trace.fingerprint} status={trace.status}\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in trace.rows:
        buf.write(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_trace_csv(path) -> Trace:
    """Read a trace written by ``write_trace_csv``; raises ValueError naming
    the file when it has no header line or no data rows."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    label, fingerprint, status = "", "", ""
    if lines and lines[0].startswith("#"):
        meta = dict(tok.split("=", 1) for tok in lines[0][1:].split() if "=" in tok)
        label = meta.get("label", "")
        fingerprint = meta.get("fingerprint", "")
        status = meta.get("status", "")
        lines = lines[1:]
    if not lines or lines[0].startswith("#"):
        raise ValueError(f"trace file {path} has no header line")
    if len(lines) < 2:
        raise ValueError(f"trace file {path} has no data rows")
    header = lines[0].split(",")
    int_fields = {"iter", "fallback_count", "bits_cum"}
    rows = []
    for line in lines[1:]:
        vals = line.split(",")
        kwargs = {}
        for name, raw in zip(header, vals):
            kwargs[name] = int(raw) if name in int_fields else float(raw)
        rows.append(RoundMetrics(**kwargs))
    return Trace(rows=rows, status=status, label=label, fingerprint=fingerprint)


def compare(trace_paths, out_path, tol: float = 1e-6):
    """Merge runs into one summary CSV: label, status, iteration count,
    final relative error, iterations/bits to tol, total wall time."""
    if len(trace_paths) < 2:
        raise ValueError("compare needs at least two trace files")
    header = ["label", "status", "iterations", "final_rel_err",
              f"iters_to_{tol:g}", f"bits_to_{tol:g}", "wall_time_total"]
    rows = []
    for path in trace_paths:
        trace = read_trace_csv(path)
        wall = float(np.nansum([r.wall_time for r in trace.rows]))
        rows.append([
            trace.label or os.path.basename(str(path)),
            trace.status,
            str(trace.iterations),
            repr(trace.final_rel_err),
            str(trace.iters_to(tol)),
            str(trace.bits_to(tol)),
            repr(wall),
        ])
    with open(out_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return rows


# ---------------------------------------------------------------------------
# presets reproducing the benchmark experiments

_PRESET_INFO = [
    ("quad-kappa", "quadratic sweep: kappa in {10, 1e2, 1e4} x m in {15, 20, k}, rank-3 compression"),
    ("logit-topk", "logistic regression (n=30, d=20), top-20 compression, m=15"),
    ("logit-rank", "logistic regression (n=30, d=20), rank-3 compression, m=15"),
    ("alg-equivalence", "lockstep deviation check: reference vs efficient variant, 200 iterations"),
]

_QUAD_PRESET = dict(n=10, d=30, tau=0.2, problem_seed=1, graph_seed=11)
_LOGIT_PRESET = dict(n=30, d=20, tau=0.2, m_per_node=100, rho=0.001,
                     problem_seed=2, graph_seed=12)


def list_presets():
    return list(_PRESET_INFO)


def _quad_config(kappa: float, m, label: str, max_iters: int = 2000,
                 stop_tol: float = 1e-10) -> ExperimentConfig:
    q = _QUAD_PRESET
    return ExperimentConfig(
        problem=ProblemSpec(family="quadratic", n=q["n"], d=q["d"],
                            kappa=kappa, seed=q["problem_seed"]),
        graph=GraphSpec(tau=q["tau"], seed=q["graph_seed"]),
        method="newton",
        algorithm=AlgoParams(
            compressor=CompressorSpec(kind="rank_k", d=q["d"], K=3),
            alpha=GeometricRamp(0.02, 1.1, 1.0),
            gamma=0.03,
            m=m,
            M=0.0,
            cg_tol=ConstantSchedule(1e-10),
            max_iters=max_iters,
            stop_tol=stop_tol,
        ),
        label=label,
    )


def _logit_config(compressor_kind: str, K: int, alpha_base: float, label: str) -> ExperimentConfig:
    q = _LOGIT_PRESET
    return ExperimentConfig(
        problem=ProblemSpec(family="logistic", n=q["n"], d=q["d"],
                            rho=q["rho"], m_per_node=q["m_per_node"],
                            seed=q["problem_seed"]),
        graph=GraphSpec(tau=q["tau"], seed=q["graph_seed"]),
        method="newton",
        algorithm=AlgoParams(
            compressor=CompressorSpec(kind=compressor_kind, d=q["d"], K=K),
            alpha=GeometricRamp(alpha_base, 1.1, 1.0),
            gamma=0.06,
            m=15,
            M=0.0,
            cg_tol=ConstantSchedule(1e-10),
            max_iters=2000,
            stop_tol=1e-8,
        ),
        label=label,
    )


def preset_configs(name: str):
    if name == "quad-kappa":
        configs = []
        for kappa, ktag in ((10.0, "k1e1"), (100.0, "k1e2"), (10000.0, "k1e4")):
            for m in (15, 20, "k"):
                mtag = f"m{m}" if m != "k" else "mk"
                configs.append(_quad_config(kappa, m, f"quad-{ktag}-{mtag}"))
        return configs
    if name == "logit-topk":
        return [_logit_config("top_k", 20, 0.2, "logit-topk-m15")]
    if name == "logit-rank":
        return [_logit_config("rank_k", 3, 0.1, "logit-rank-m15")]
    if name == "alg-equivalence":
        return []
    raise ValueError(f"unknown preset {name!r}; available: {[p[0] for p in _PRESET_INFO]}")


EQUIVALENCE_TOL = 1e-9


def run_preset(name: str, out_dir: str):
    """Run every config of a preset; returns (exit_code, message lines)."""
    os.makedirs(out_dir, exist_ok=True)
    if name == "alg-equivalence":
        return _run_equivalence_preset(out_dir)
    messages = []
    worst = 0
    for config in preset_configs(name):
        trace, path = run_experiment(config, out_dir=out_dir)
        messages.append(
            f"{config.label}: status={trace.status} iterations={trace.iterations} "
            f"rel_err={trace.final_rel_err:.3e} -> {path}"
        )
        worst = max(worst, STATUS_CODE[trace.status])
    return worst, messages


def _run_equivalence_preset(out_dir: str):
    config = _quad_config(100.0, 15, "alg-equivalence")
    problem = build_problem(config.problem)
    _, W = build_mixing(config.graph, config.problem.n)
    x0 = np.zeros((problem.n, problem.d))
    deviations = newton.run_lockstep(problem, W, config.algorithm, x0, iters=200)
    path = os.path.join(out_dir, "alg-equivalence.csv")
    with open(path, "w") as fh:
        fh.write("iter,max_state_deviation\n")
        for k, dev in enumerate(deviations, start=1):
            fh.write(f"{k},{dev!r}\n")
    worst = max(deviations)
    ok = worst <= EQUIVALENCE_TOL
    msg = (f"alg-equivalence: max deviation {worst:.3e} over 200 iterations "
           f"({'within' if ok else 'EXCEEDS'} {EQUIVALENCE_TOL:g}) -> {path}")
    return (0 if ok else 2), [msg]


# ---------------------------------------------------------------------------
# theory-side caps report

def caps_report(config: ExperimentConfig) -> str:
    """Evaluate the two-phase parameter caps for a config's instance,
    topology, and initialization (x0 = 0 blocks)."""
    if config.method != "newton":
        raise ValueError("caps report applies to newton configs only")
    config = _apply_seed_override(config)
    problem = build_problem(config.problem)
    _, W = build_mixing(config.graph, config.problem.n)
    x0 = np.zeros((problem.n, problem.d))
    x_star = centralized_solve(problem, tol=1e-12)
    state = newton.init_state(problem, x0)
    params = config.algorithm
    delta = delta_bound(params.compressor)
    m = params.rounds(0)
    weights = MetricWeights(sigma=W.sigma, m=m, delta=delta, L1=problem.L1,
                            L2=problem.L2, mu=problem.mu, M1=40 * problem.mu / 41)
    row = fill_state_metrics(RoundMetrics(), state, problem, x_star, weights,
                             rel_err_den=float(np.linalg.norm(x0 - x_star) ** 2))
    report = theoretical_caps(problem, W.sigma, m, delta, row.u1, row.u2)
    return report.render()
