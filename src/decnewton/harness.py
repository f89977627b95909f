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
    cg_tol = const(1e-10)          ; residual bound c_k, checked against the exact batched solve
    compressor = rank_k(3)         ; rank_k(K) | top_k(K) | identity
    variant = efficient            ; efficient | reference
    max_iters = 2000
    stop_tol = 1e-10

    [output]
    label = quad-k100-m15

A gradient-tracking config replaces the algorithm block with
``method = gt``, ``alpha = <float or tuned>``, ``m``, ``max_iters``,
``stop_tol``. Every run starts from x0 = 0 blocks and measures against a
centralized Newton oracle. Traces are written as CSV with a fixed column order;
the first line is a comment carrying the label, the config fingerprint, and
the final status. The ``run``, ``preset`` and ``caps`` commands let DECNEWTON_SEED
override both seeds (``repetitions``); ``run_experiment`` runs the config it is given,
of either method, with one run call that writes the ``dump_iters`` dumps.

Each field goes in the section shown, on one line: values are literal (``%`` is a plain
character) and ``=`` is the only delimiter. Any other field or section, a value under
``[DEFAULT]`` and a field the family or method does not read are errors. A missing optional
field takes its dataclass default; ``alpha = tuned`` is for gt only, with ``max_iters`` at
least 8. Every value must be of the kind its dataclass declares in ``KINDS``.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import operator
import os
import re
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import newton
from .compress import (CompressorSpec, Kind, check_fields, choice, count, delta_bound, instance, read_int, real,
                       text)
from .diagnostics import (CSV_COLUMNS, ROUNDOFF_FLOOR, RoundMetrics, Trace, fill_state_metrics,
                          theoretical_caps)
from .gradient_tracking import MIN_TUNING_BUDGET, GTParams, gt_run, tune_alpha
from .graph import generate_topology, metropolis_weights, save_matrix
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
    "repetitions",
    "run_experiment",
    "run_configs",
    "summary",
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


# the ProblemSpec fields each family needs; the other family's stay None
_FAMILY_FIELDS = {"quadratic": ("kappa",), "logistic": ("rho", "m_per_node")}


@dataclass(frozen=True)
class ProblemSpec:
    family: str
    n: int
    d: int
    seed: int
    kappa: float | None = None
    rho: float | None = None
    m_per_node: int | None = None
    # a network needs two nodes, and no quadratic instance has a condition number below 1
    KINDS = {"family": choice(*_FAMILY_FIELDS), "n": count(2), "d": count(1), "kappa": real(1),
             "rho": real(0, above=True), "m_per_node": count(1), "seed": count(0)}

    def __post_init__(self):
        check_fields(self, "[problem]")
        for key in sum(_FAMILY_FIELDS.values(), ()):
            needed = key in _FAMILY_FIELDS[self.family]
            if needed == (getattr(self, key) is None):
                raise ValueError(f"[problem] {key} is {'required' if needed else 'not read'} "
                                 f"for a {self.family} problem")


@dataclass(frozen=True)
class GraphSpec:
    tau: float
    seed: int
    KINDS = {"tau": real(0, 1, above=True), "seed": count(0)}

    def __post_init__(self):
        check_fields(self, "[graph]")


_METHOD_PARAMS = {"newton": AlgoParams, "gt": GTParams}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    graph: GraphSpec
    method: str                      # newton | gt
    algorithm: object                # AlgoParams or GTParams
    gt_alpha_mode: str = "fixed"     # fixed | tuned (gt only)
    label: str = "run"
    csv: str | None = None
    dump_iters: tuple = ()
    repetitions: int = 1

    # The trace header is key=value tokens, compare writes the label into an unquoted CSV row and
    # run_experiment into a file name; the config reader would cut a label or csv at a comment.
    KINDS = {"problem": instance("a ProblemSpec", ProblemSpec), "graph": instance("a GraphSpec", GraphSpec),
             "method": choice(*_METHOD_PARAMS), "gt_alpha_mode": choice("fixed", "tuned"),
             "algorithm": instance("an AlgoParams or a GTParams", *_METHOD_PARAMS.values()),
             "label": text(lambda label: re.fullmatch(r"[^\s,=/\\;#\0][^\s,=/\\\0]*", label),
                           "a non-empty str with no whitespace, NUL, ',', '=', '/' or '\\', "
                           "and not start with ';' or '#'"),
             "csv": text(lambda csv: not re.search(r"^[\s;#]|\s[;#]|\s$|[\r\n\0]", csv),
                         "a str that does not start or end with whitespace, break a line, hold a NUL, "
                         "or have ';' or '#' first or after whitespace"),
             "dump_iters": Kind("a tuple of integers >= 0", lambda v: isinstance(v, tuple) and all(map(count(0).ok, v)),
                                lambda raw: tuple(map(read_int, raw.split(","))), lambda v: ",".join(map(str, v))),
             "repetitions": count(1)._replace(render=lambda n: "" if n == 1 else str(n))}  # one run: no line

    def __post_init__(self):
        check_fields(self, "[output]", problem="[problem]", graph="[graph]", method="[algorithm] method",
                     algorithm="[algorithm]", gt_alpha_mode="[algorithm] alpha mode")
        if not isinstance(self.algorithm, _METHOD_PARAMS[self.method]):
            raise ValueError(f"[algorithm] method must be newton (AlgoParams) or gt (GTParams), "
                             f"got {self.method!r} with {type(self.algorithm).__name__}")
        if self.gt_alpha_mode == "tuned" and self.method != "gt":
            raise ValueError(f"[algorithm] alpha mode must be fixed, or tuned with method = gt; "
                             f"got {self.gt_alpha_mode!r} with method = {self.method}")
        if self.gt_alpha_mode == "tuned" and self.algorithm.alpha != 1.0:  # the text holds no alpha
            raise ValueError(f"[algorithm] alpha must be the placeholder 1.0 when tuned, got {self.algorithm.alpha!r}")
        if self.method == "newton" and (cd := self.algorithm.compressor.d) != self.problem.d:
            raise ValueError(f"[algorithm] compressor is for d = {cd}, but [problem] d = {self.problem.d}")
        if self.csv is not None and (os.path.basename(self.csv) in ("", ".", "..") or self.repetitions > 1):
            raise ValueError(f"[output] csv must name one file for one run; got {self.csv!r} "
                             f"with [output] repetitions = {self.repetitions}")


# ---------------------------------------------------------------------------
# config text <-> ExperimentConfig

# the name(arg, ...) forms of schedules and compressors: name -> arg -> its kind
_SCHEDULES = {"const": ConstantSchedule, "ramp": GeometricRamp, "stage": TwoStageSchedule}
_SCHEDULE_ARGS = {name: cls.KINDS for name, cls in _SCHEDULES.items()}
_COMPRESSOR_ARGS = {kind: {"K": CompressorSpec.KINDS["K"]} for kind in ("rank_k", "top_k")} | {"identity": {}}


def _call_text(name: str, args) -> str:
    """``name(a, b, ...)``, or the bare name when there are no arguments."""
    return f"{name}({', '.join(args)})" if args else name


def _read_call(text: str, forms: dict, what: str):
    """Read ``name(a, b, ...)``, or a bare ``name``, as the name and its
    parsed arguments; the name must be one of ``forms`` and take all its args."""
    match = re.fullmatch(r"(\w+)(?:\(([^)]*)\))?", text)
    name = match[1] if match else None
    args = [a.strip() for a in match[2].split(",")] if match and match[2] is not None else []
    if name not in forms or len(args) != len(forms[name]):
        expected = ", ".join(_call_text(form, form_args) for form, form_args in forms.items())
        raise ValueError(f"bad {what} {text!r}; expected one of {expected}")
    return name, [kind.parse(arg) for kind, arg in zip(forms[name].values(), args)]


def _write_call(name: str, obj, forms: dict) -> str:
    """The text ``_read_call`` reads as the ``name`` form with ``obj``'s fields."""
    return _call_text(name, [kind.render(getattr(obj, arg)) for arg, kind in forms[name].items()])


def _parse_schedule(text: str):
    name, args = _read_call(text, _SCHEDULE_ARGS, "schedule")
    return _SCHEDULES[name](*args)


def _render_schedule(sched) -> str:
    name = {cls: name for name, cls in _SCHEDULES.items()}[type(sched)]
    return _write_call(name, sched, _SCHEDULE_ARGS)


def _parse_compressor(text: str, d: int) -> CompressorSpec:
    kind, args = _read_call(text, _COMPRESSOR_ARGS, "compressor")
    return CompressorSpec(kind, d, *args)


# Every config field once: the dataclass it fills -> field -> its declared kind, whose parse and render
# read and write it (a schedule or compressor as name(arg, ...)), in render_config's order; AlgoParams
# and GTParams are the [algorithm] fields of method = newton and gt. None or empty text writes no line.
_SCHEDULE_TEXT = AlgoParams.KINDS["alpha"]._replace(parse=_parse_schedule, render=_render_schedule)
_FIELDS = {
    ProblemSpec: ProblemSpec.KINDS, GraphSpec: GraphSpec.KINDS, GTParams: GTParams.KINDS,
    AlgoParams: {**AlgoParams.KINDS, "alpha": _SCHEDULE_TEXT, "cg_tol": _SCHEDULE_TEXT,
                 "compressor": AlgoParams.KINDS["compressor"]._replace(  # d from [problem]
                     parse=_parse_compressor, render=lambda spec: _write_call(spec.kind, spec, _COMPRESSOR_ARGS))},
    ExperimentConfig: {key: ExperimentConfig.KINDS[key] for key in ("label", "csv", "dump_iters", "repetitions")},
}
_SECTIONS = ("problem", "graph", "algorithm", "output")


def parse_config(source) -> ExperimentConfig:
    """Read a config from a path or config text. Raises ValueError naming the
    section/field on any problem, including a field the config does not read."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None, delimiters="=")
    parser.optionxform = str  # keep m (consensus rounds) and M (regularization) distinct
    try:
        if isinstance(source, str) and "\n" in source:
            parser.read_string(source)
        elif not parser.read(source):
            raise ValueError(f"config file not found: {source}")
    except configparser.Error as exc:  # its text names the file and line, over several lines
        raise ValueError(f"config parse error: {' '.join(map(str.strip, str(exc).splitlines()))}") from exc
    if parser.defaults():
        raise ValueError(f"config section [DEFAULT] must be empty, it sets {', '.join(parser.defaults())}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]; expected one of {list(_SECTIONS)}")
    unread = {section: dict(parser[section]) if parser.has_section(section) else {}
              for section in _SECTIONS}

    def read(section, cls):
        """Pop and parse the ``_FIELDS[cls]`` fields of [section]; a missing
        one is an error only where ``cls`` has no default for it."""
        required = {field.name for field in fields(cls) if field.default is MISSING}
        values = {}
        for key, kind in _FIELDS[cls].items():
            if key in unread[section]:
                raw = unread[section].pop(key)
                try:
                    if "\n" in raw:  # an indented line continued it
                        raise ValueError("a value is one line")
                    values[key] = kind.parse(raw, problem.d) if key == "compressor" else kind.parse(raw)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc
            elif key in required:
                raise ValueError(f"config missing field {key!r} in section [{section}]")
        return values

    problem = ProblemSpec(**read("problem", ProblemSpec))
    graph = GraphSpec(**read("graph", GraphSpec))
    method = unread["algorithm"].pop("method", None)
    if method not in _METHOD_PARAMS:
        raise ValueError(f"[algorithm] method must be newton or gt, got {method!r}")
    if tuned := method == "gt" and unread["algorithm"].get("alpha") == "tuned":  # newton's is a schedule
        unread["algorithm"]["alpha"] = "1.0"  # the placeholder until run_experiment tunes it
    algorithm = _METHOD_PARAMS[method](**read("algorithm", _METHOD_PARAMS[method]))
    if tuned and algorithm.max_iters < MIN_TUNING_BUDGET:
        raise ValueError(f"[algorithm] max_iters must be at least {MIN_TUNING_BUDGET} with alpha = tuned, "
                         f"got {algorithm.max_iters}")
    output = read("output", ExperimentConfig)

    left = [f"[{section}] {key}" for section, rest in unread.items() for key in rest]
    if left:
        raise ValueError(f"config fields not read by a {problem.family} {method} config: "
                         f"{', '.join(left)}")
    return ExperimentConfig(problem=problem, graph=graph, method=method, algorithm=algorithm,
                            gt_alpha_mode="tuned" if tuned else "fixed", **output)


def render_config(config: ExperimentConfig) -> str:
    """Canonical config text; parse(render(c)) round-trips and the text is
    what gets fingerprinted."""
    blocks = []
    for section, spec in zip(_SECTIONS, (config.problem, config.graph, config.algorithm, config)):
        lines = [f"[{section}]"] + ([f"method = {config.method}"] if section == "algorithm" else [])
        for key, kind in _FIELDS[type(spec)].items():
            value, render = getattr(spec, key), kind.render
            if key == "alpha" and config.gt_alpha_mode == "tuned":
                value, render = "tuned", str
            text = "" if value is None else render(value)
            if text:
                lines.append(f"{key} = {text}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def config_fingerprint(config: ExperimentConfig) -> str:
    return hashlib.sha256(render_config(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# building and running

def build_problem(spec: ProblemSpec):
    """The instance of ``spec``; a ValueError names the [problem] field it rejects."""
    try:
        if spec.family == "quadratic":
            return make_quadratic(spec.n, spec.d, spec.kappa, spec.seed)
        return make_logistic(spec.n, spec.d, spec.m_per_node, spec.rho, spec.seed)
    except ValueError as exc:
        raise ValueError(f"[problem] {exc}") from exc


def build_mixing(spec: GraphSpec, n: int):
    """The Metropolis mixing matrix of the graph ``spec`` samples on ``n``
    nodes; a ValueError names the [graph] field it rejects."""
    try:
        adjacency = generate_topology(n, spec.tau, spec.seed)
    except ValueError as exc:
        raise ValueError(f"[graph] {exc}") from exc
    return metropolis_weights(adjacency)


def _instance(config: ExperimentConfig):
    """The instance of ``config``, its mixing matrix, the zero start x0 and the
    exact minimiser x* every run of it is scored against."""
    problem = build_problem(config.problem)
    W = build_mixing(config.graph, config.problem.n)
    return problem, W, np.zeros((problem.n, problem.d)), centralized_solve(problem)


def repetitions(config: ExperimentConfig) -> list:
    """The runs of ``config``: itself, or one copy per repetition with both
    seeds shifted by the repetition index and the label suffixed ``-rep<i>``;
    when DECNEWTON_SEED is set (read here only), itself with both seeds replaced."""
    override = os.environ.get(SEED_ENV_VAR)
    if override:
        try:
            seed = read_int(override)
        except ValueError:
            seed = -1
        if seed < 0:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer >= 0, got {override!r}")
        if config.repetitions > 1:
            raise ValueError(f"{SEED_ENV_VAR} sets every seed, so [output] repetitions = "
                             f"{config.repetitions} would run one instance {config.repetitions} "
                             f"times; unset one of them")
        return [replace(config, problem=replace(config.problem, seed=seed),
                        graph=replace(config.graph, seed=seed))]
    if config.repetitions == 1:
        return [config]
    return [replace(config, problem=replace(config.problem, seed=config.problem.seed + rep),
                    graph=replace(config.graph, seed=config.graph.seed + rep),
                    label=f"{config.label}-rep{rep}", repetitions=1)
            for rep in range(config.repetitions)]


def run_experiment(config: ExperimentConfig, out_dir: str | None = None):
    """Build the instance, solve the oracle, run, and write the trace CSV.

    The trace goes to ``[output] csv``, else to ``<out_dir>/<label>.csv``, and
    the ``dump_iters`` dumps next to it as ``<label>.state_x_iter<k>.txt``. Returns
    (trace, csv_path); csv_path is None when no destination was given. The
    trace label/fingerprint identify the run in summaries.
    """
    csv_path = config.csv
    if csv_path is None and out_dir is not None:
        csv_path = os.path.join(out_dir, f"{config.label}.csv")
    if config.dump_iters and csv_path is None:
        raise ValueError("[output] dump_iters writes its dumps next to the trace CSV; "
                         "set [output] csv or pass an output directory")
    trace_dir = os.path.dirname(csv_path or "") or "."
    problem, W, x0, x_star = _instance(config)
    os.makedirs(trace_dir, exist_ok=True)  # "." when there is no trace path

    def dump(k, state):  # the stacked iterate after k iterations (0: the start)
        if k in config.dump_iters:
            save_matrix(f"{trace_dir}/{config.label}.state_x_iter{k:05d}.txt", state.x)

    params = config.algorithm
    if config.gt_alpha_mode == "tuned":  # at its own target, so the run converges where it scored
        params = replace(params, alpha=tune_alpha(
            problem, W, x0, x_star, m=params.m, target=max(params.stop_tol, ROUNDOFF_FLOOR),
            budget=min(max(params.max_iters, MIN_TUNING_BUDGET), 3000)))  # max() for perfbench's 3-iteration warm-up
    run = newton.run if config.method == "newton" else gt_run  # the tracer patches both names
    trace = run(problem, W, params, x0, x_star, on_step=dump)
    trace.label = config.label
    trace.fingerprint = config_fingerprint(config)
    if csv_path is not None:
        write_trace_csv(trace, csv_path)
    return trace, csv_path


def summary(trace: Trace, path) -> str:
    """The one-line outcome of a run, pointing at its CSV when there is one,
    and a second ``  note:`` line when the run left a note (why it diverged)."""
    return (f"{trace.label}: status={trace.status} iterations={trace.iterations} "
            f"rel_err={trace.final_rel_err:.3e}" + (f" -> {path}" if path else "")
            + (f"\n  note: {trace.note}" if trace.note else ""))


# ---------------------------------------------------------------------------
# trace CSV

# write_trace_csv's first two lines, and each column's type in CSV_COLUMNS order and its text
_TRACE_COMMENT = re.compile(rf"# decnewton-trace label=(\S*) fingerprint=(\S*) status=({'|'.join(STATUS_CODE)})")
_TRACE_HEADER = ",".join(CSV_COLUMNS)
_COLUMN_TYPES = [type(f.default) for f in fields(RoundMetrics)][:len(CSV_COLUMNS)]
_COLUMN_TEXT = [{int: lambda v: str(int(v)), float: lambda v: repr(float(v))}[t] for t in _COLUMN_TYPES]
_ROW_VALUES = operator.attrgetter(*CSV_COLUMNS)


def write_trace_csv(trace: Trace, path) -> None:
    buf = io.StringIO()
    buf.write(f"# decnewton-trace label={trace.label} fingerprint={trace.fingerprint} status={trace.status}\n")
    buf.write(_TRACE_HEADER + "\n")
    for row in trace.rows:
        buf.write(",".join([fmt(v) for fmt, v in zip(_COLUMN_TEXT, _ROW_VALUES(row))]) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_trace_csv(path) -> Trace:
    """Read a trace as ``write_trace_csv`` writes it, and nothing else: the
    ``# decnewton-trace label=... fingerprint=... status=...`` line with a
    ``STATUS_CODE`` status, the ``CSV_COLUMNS`` header, at least one row of
    one value per column and a final newline (its absence marks a cut file).
    Anything else raises a ValueError naming the file, and the line where
    there is one."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines.pop():  # the text after the last newline
        raise ValueError(f"{path}:{len(lines) + 1}: no newline at the end; the file is cut")
    if len(lines) < 3:
        raise ValueError(f"trace file {path} has {len(lines)} line(s); a trace has a comment line, a header and rows")
    if not (meta := _TRACE_COMMENT.fullmatch(lines[0])):
        raise ValueError(f"{path}:1: not a '# decnewton-trace label=... fingerprint=... "
                         f"status=<{'|'.join(STATUS_CODE)}>' line: {lines[0]!r}")
    if lines[1] != _TRACE_HEADER:
        raise ValueError(f"{path}:2: the header must be the trace columns {_TRACE_HEADER}")
    rows = []
    for no, line in enumerate(lines[2:], 3):
        vals = line.split(",")
        if len(vals) != len(CSV_COLUMNS):
            raise ValueError(f"{path}:{no}: {len(vals)} fields, the header has {len(CSV_COLUMNS)}")
        values = []
        for name, cast, text, raw in zip(CSV_COLUMNS, _COLUMN_TYPES, _COLUMN_TEXT, vals):
            try:  # a value has one text, the one write_trace_csv gives it
                values.append(cast(raw))
                if text(values[-1]) != raw:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}:{no}: bad {name} value {raw!r}") from None
        rows.append(RoundMetrics(*values))
    return Trace(rows=rows, label=meta[1], fingerprint=meta[2], status=meta[3])


def compare(trace_paths, out_path, tol: float = 1e-6):
    """Merge runs into one summary CSV: label, status, iteration count,
    final relative error, iterations/bits to tol, total wall time."""
    if len(trace_paths) < 2:
        raise ValueError("compare needs at least two trace files")
    if not (np.isfinite(tol) and tol >= 0):  # a NaN or negative tol is reached by no row
        raise ValueError(f"compare's tol must be finite and non-negative, got {tol!r}")
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

def _preset(label, problem, graph_seed, kind, K, alpha_base, gamma, m, **algorithm):
    """A Newton run on a tau = 0.2 graph with step size min(1, alpha_base * 1.1^k)."""
    algorithm = AlgoParams(compressor=CompressorSpec(kind, d=problem.d, K=K),
                           alpha=GeometricRamp(alpha_base, 1.1, 1.0), gamma=gamma, m=m, **algorithm)
    return ExperimentConfig(problem=problem, graph=GraphSpec(tau=0.2, seed=graph_seed),
                            method="newton", algorithm=algorithm, label=label)


_LOGIT = ProblemSpec(family="logistic", n=30, d=20, seed=2, rho=0.001, m_per_node=100)

# name -> (description, configs); the one list of presets
_PRESETS = {
    "quad-kappa": ("quadratic sweep: kappa in {10, 1e2, 1e4} x m in {15, 20, k}, rank-3 compression",
                   [_preset(f"quad-{ktag}-m{m}",
                            ProblemSpec(family="quadratic", n=10, d=30, seed=1, kappa=kappa),
                            graph_seed=11, kind="rank_k", K=3, alpha_base=0.02, gamma=0.03, m=m)
                    for kappa, ktag in ((10.0, "k1e1"), (100.0, "k1e2"), (10000.0, "k1e4"))
                    for m in (15, 20, "k")]),
    "logit-topk": ("logistic regression (n=30, d=20), top-20 compression, m=15",
                   [_preset("logit-topk-m15", _LOGIT, graph_seed=12, kind="top_k", K=20,
                            alpha_base=0.2, gamma=0.06, m=15, stop_tol=1e-8)]),
    "logit-rank": ("logistic regression (n=30, d=20), rank-3 compression, m=15",
                   [_preset("logit-rank-m15", _LOGIT, graph_seed=12, kind="rank_k", K=3,
                            alpha_base=0.1, gamma=0.06, m=15, stop_tol=1e-8)]),
    "alg-equivalence": ("lockstep deviation check: reference vs efficient variant, 200 iterations",
                        []),
}


def list_presets():
    return [(name, description) for name, (description, _) in _PRESETS.items()]


def preset_configs(name: str):
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {list(_PRESETS)}")
    return list(_PRESETS[name][1])


EQUIVALENCE_TOL = 1e-9


def run_configs(configs, out_dir: str):
    """Run every config, each expanded through ``repetitions`` before the
    first run; yields (exit_code, summary message) as each run ends."""
    for run in [run for config in configs for run in repetitions(config)]:
        trace, path = run_experiment(run, out_dir=out_dir)
        yield STATUS_CODE[trace.status], summary(trace, path)


def run_preset(name: str, out_dir: str):
    """``run_configs`` over a preset's configs, after its check if it has one."""
    configs = preset_configs(name)
    os.makedirs(out_dir, exist_ok=True)
    if name == "alg-equivalence":  # a check, with no configs
        yield _run_equivalence_preset(out_dir)
    yield from run_configs(configs, out_dir)


def _run_equivalence_preset(out_dir: str):
    config = next(c for c in preset_configs("quad-kappa") if c.label == "quad-k1e2-m15")
    config = repetitions(config)[0]
    problem, W, x0, _ = _instance(config)
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
    return (0 if ok else 2), msg


# ---------------------------------------------------------------------------
# theory-side caps report

def caps_report(config: ExperimentConfig) -> str:
    """Evaluate the two-phase parameter caps for a config's instance,
    topology, and initialization (x0 = 0 blocks)."""
    if config.method != "newton":
        raise ValueError("caps report applies to newton configs only")
    problem, W, x0, x_star = _instance(config)
    state = newton.init_state(problem, x0)
    params = config.algorithm
    delta = delta_bound(params.compressor)
    m = params.rounds(0)
    row = fill_state_metrics(RoundMetrics(), state, problem, x_star, W.sigma, m, delta)
    report = theoretical_caps(problem, W.sigma, m, delta, row.u1, row.u2)
    return report.render()
