"""Property tests: config text and trace CSVs read back what was written."""

import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decnewton.compress import CompressorSpec
from decnewton.diagnostics import CSV_COLUMNS, RoundMetrics, Trace
from decnewton.gradient_tracking import MIN_TUNING_BUDGET, GTParams
from decnewton.harness import (
    ExperimentConfig,
    GraphSpec,
    ProblemSpec,
    config_fingerprint,
    parse_config,
    read_trace_csv,
    render_config,
    write_trace_csv,
)
from decnewton.newton import AlgoParams, ConstantSchedule, GeometricRamp, TwoStageSchedule

# every character the label rule allows, with the config syntax characters drawn often;
# a label is written to files as UTF-8, so no lone surrogate
LABEL_CHARS = st.one_of(st.sampled_from("%;#:[]()'\"$."),
                        st.characters(exclude_categories=("Cs",), exclude_characters=",=/\\\0")
                        .filter(lambda c: not c.isspace()))
LABELS = st.text(LABEL_CHARS, min_size=1, max_size=16).filter(lambda label: label[0] not in ";#")


def reals(lo, hi):
    """A real in [lo, hi] as code may build it: a Python float, an int, a numpy float64
    or a bool."""
    return st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi)),
                     st.floats(lo, hi).map(np.float64),
                     st.sampled_from([b for b in (False, True) if lo <= b <= hi]))


def floated(spec):
    """``spec`` with float() applied to every real field, in the specs it holds too."""
    if not is_dataclass(spec):
        return spec
    return replace(spec, **{f.name: float(v) if f.type.startswith("float") and v is not None
                            else floated(v) for f in fields(spec) for v in [getattr(spec, f.name)]})


POSITIVE = reals(1e-6, 1e6)
SCHEDULES = st.one_of(
    st.builds(ConstantSchedule, POSITIVE),
    st.builds(GeometricRamp, POSITIVE, POSITIVE, POSITIVE),
    st.builds(TwoStageSchedule, POSITIVE, st.integers(0, 10**6), POSITIVE),
)


@st.composite
def configs(draw):
    d = draw(st.integers(1, 40))
    family = draw(st.sampled_from(["quadratic", "logistic"]))
    problem = ProblemSpec(
        family=family, n=draw(st.integers(2, 500)), d=d, seed=draw(st.integers(0, 2**31)),
        kappa=draw(POSITIVE) if family == "quadratic" else None,
        rho=draw(POSITIVE) if family == "logistic" else None,
        m_per_node=draw(st.integers(1, 1000)) if family == "logistic" else None,
    )
    graph = GraphSpec(tau=draw(reals(1e-4, 1.0)), seed=draw(st.integers(0, 2**31)))
    method = draw(st.sampled_from(["newton", "gt"]))
    max_iters, stop_tol = draw(st.integers(1, 10**5)), draw(reals(0.0, 1.0))
    gt_alpha_mode = "fixed"
    if method == "newton":
        kind = draw(st.sampled_from(["identity", "rank_k", "top_k"]))
        K = 0 if kind == "identity" else draw(st.integers(1, d if kind == "rank_k" else d * d))
        algorithm = AlgoParams(
            compressor=CompressorSpec(kind, d=d, K=K), alpha=draw(SCHEDULES),
            gamma=draw(reals(0.0, 1.0)),
            m=draw(st.one_of(st.integers(1, 50), st.just("k"))),
            M=draw(reals(0.0, 1e3)), cg_tol=draw(SCHEDULES),
            max_iters=max_iters, stop_tol=stop_tol,
            variant=draw(st.sampled_from(["efficient", "reference"])))
    else:
        gt_alpha_mode = draw(st.sampled_from(["fixed", "tuned"]))
        alpha = draw(reals(1.0, 1.0) if gt_alpha_mode == "tuned" else reals(0.0, 10.0))
        algorithm = GTParams(alpha=alpha, m=draw(st.integers(1, 50)),
                             max_iters=max_iters, stop_tol=stop_tol)
    csv = draw(st.one_of(st.none(), LABELS.map(lambda name: f"out/{name}.csv")))
    return ExperimentConfig(
        problem=problem, graph=graph, method=method, algorithm=algorithm,
        gt_alpha_mode=gt_alpha_mode, label=draw(LABELS), csv=csv,
        dump_iters=tuple(draw(st.lists(st.integers(0, 10**4), max_size=4))),
        repetitions=draw(st.integers(1, 20)) if csv is None else 1)  # a csv holds one run


@settings(max_examples=40, deadline=None)
@given(configs())
def test_render_parse_round_trip(config):
    # a real built as an int, a bool or a numpy float is written as the float it
    # equals, so the text reads back and the run has the fingerprint of that float
    text = render_config(config)
    assert config_fingerprint(config) == config_fingerprint(floated(config))
    if config.gt_alpha_mode == "tuned" and config.algorithm.max_iters < MIN_TUNING_BUDGET:
        # code may build it, but no run that short can tune alpha: the text is rejected
        with pytest.raises(ValueError, match=r"\[algorithm\] max_iters"):
            parse_config(text)
    else:
        assert parse_config(text) == config


INT_COLUMNS = ("iter", "fallback_count", "bits_cum")
ROWS = st.builds(RoundMetrics, **{
    col: st.integers(-1, 2**62) if col in INT_COLUMNS else st.floats() for col in CSV_COLUMNS})


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(ROWS, min_size=1, max_size=6), label=LABELS,
       status=st.sampled_from(["converged", "max_iters", "diverged"]),
       fingerprint=st.from_regex(r"[0-9a-f]{16}", fullmatch=True))
def test_trace_csv_write_read_round_trip(tmp_path_factory, rows, label, status, fingerprint):
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    write_trace_csv(Trace(rows=rows, status=status, label=label, fingerprint=fingerprint), path)
    loaded = read_trace_csv(path)
    assert (loaded.label, loaded.status, loaded.fingerprint) == (label, status, fingerprint)
    assert len(loaded.rows) == len(rows)
    for wrote, read in zip(rows, loaded.rows):
        for col in CSV_COLUMNS:
            a, b = getattr(wrote, col), getattr(read, col)
            assert type(a) is type(b), col
            assert a == b or (np.isnan(a) and np.isnan(b)), col
