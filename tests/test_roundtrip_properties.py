"""Property tests: config text and trace CSVs read back what was written."""

import math
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decnewton import harness
from decnewton.compress import CompressorSpec
from decnewton.diagnostics import CSV_COLUMNS, RoundMetrics, Trace
from decnewton.gradient_tracking import MIN_TUNING_BUDGET, GTParams
from decnewton.harness import (
    ExperimentConfig,
    GraphSpec,
    ProblemSpec,
    config_fingerprint,
    parse_config,
    preset_configs,
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
        kappa=draw(reals(1, 1e6)) if family == "quadratic" else None,
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
            compressor=CompressorSpec(kind, K=K), alpha=draw(SCHEDULES),
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


# one value of each kind code may hand a config field: every field must reject it
# with a ValueError that names the field, or write it as text that reads back
VALUE_KINDS = {"str": "1", "bytes": b"1", "path": Path("1"), "huge-int": 10**400, "nan": math.nan,
               "inf": math.inf, "negative": -1.0, "none": None, "np-int64": np.int64(3),
               "complex": 1 + 0j, "list": [1]}
QUAD = next(c for c in preset_configs("quad-kappa") if c.label == "quad-k1e2-m15")
LOGIT = preset_configs("logit-topk")[0]
STAGED = replace(QUAD, algorithm=replace(QUAD.algorithm, alpha=TwoStageSchedule(0.25, 40, 1.0)))
IDENTITY = replace(QUAD, algorithm=replace(QUAD.algorithm, compressor=CompressorSpec("identity")))
GT = replace(QUAD, method="gt", algorithm=GTParams(0.01, m=2, max_iters=100))
# each config dataclass: a config that holds one, the fields leading to it there, and
# the section its errors name
HOLDERS = {"experiment": (QUAD, (), "[output]"), "experiment-gt": (GT, (), "[output]"),
           "quadratic": (QUAD, ("problem",), "[problem]"), "logistic": (LOGIT, ("problem",), "[problem]"),
           "graph": (QUAD, ("graph",), "[graph]"), "newton": (QUAD, ("algorithm",), "[algorithm]"),
           "gt": (GT, ("algorithm",), "[algorithm]"),
           "compressor": (QUAD, ("algorithm", "compressor"), "compressor"),
           "identity": (IDENTITY, ("algorithm", "compressor"), "compressor"),
           "const": (QUAD, ("algorithm", "cg_tol"), "const"), "ramp": (QUAD, ("algorithm", "alpha"), "ramp"),
           "stage": (STAGED, ("algorithm", "alpha"), "stage")}
# the other name an error may give a field: ExperimentConfig's fields outside [output]
NAMED = {("[output]", "problem"): "[problem]", ("[output]", "graph"): "[graph]",
         ("[output]", "algorithm"): "[algorithm]", ("[output]", "method"): "[algorithm] method",
         ("[output]", "gt_alpha_mode"): "[algorithm] alpha mode"}


def swapped(spec, path, field, value):
    """``spec`` with ``value`` in ``field`` of the dataclass that ``path`` leads to."""
    if not path:
        return replace(spec, **{field: value})
    return replace(spec, **{path[0]: swapped(getattr(spec, path[0]), path[1:], field, value)})


def test_every_config_field_declares_its_kind():
    # check_fields checks each field by the kind its class declares, so a field
    # with none fails every build instead of going unchecked
    classes = {*harness._FIELDS, ConstantSchedule, GeometricRamp, TwoStageSchedule, CompressorSpec}
    assert {type(reduce(getattr, path, config)) for config, path, _ in HOLDERS.values()} == classes
    for cls in classes:
        assert set(cls.KINDS) == {f.name for f in fields(cls)}, cls.__name__
    # and config text reads and writes each field it holds by that kind alone, a schedule's
    # and a compressor's name(arg, ...) form too, so harness needs no form of its own
    for cls, kinds in harness._FIELDS.items():
        assert kinds == {key: cls.KINDS[key] for key in kinds}, cls.__name__
        assert all(kind.parse and kind.render for kind in kinds.values()), cls.__name__


@pytest.mark.parametrize("holder", HOLDERS)
def test_every_field_rejects_or_round_trips_every_kind_of_value(holder):
    # a config built in code is held to the rules config text is: some of these raised a
    # TypeError or OverflowError naming no field, failed only in render_config or
    # parse_config, or read back as another config
    config, path, section = HOLDERS[holder]
    bad = []
    for field in fields(reduce(getattr, path, config)):
        names = [f"{section} {field.name}", NAMED.get((section, field.name), "no other name")]
        for kind, value in VALUE_KINDS.items():
            try:
                built = swapped(config, path, field.name, value)
            except ValueError as exc:
                if not any(name in str(exc) for name in names):
                    bad.append(f"{field.name}={kind}: {exc}")
                continue
            except Exception as exc:
                bad.append(f"{field.name}={kind}: {type(exc).__name__}: {exc}")
                continue
            try:
                if parse_config(render_config(built)) != built:
                    bad.append(f"{field.name}={kind}: reads back as another config")
                elif config_fingerprint(built) != config_fingerprint(floated(built)):
                    bad.append(f"{field.name}={kind}: not the fingerprint of its float")
            except Exception as exc:
                bad.append(f"{field.name}={kind}: accepted, then {type(exc).__name__}: {exc}")
    assert bad == []


# each config field that writes no line at its dataclass default, found by rendering that default
# with the field's kind -> the holders of its dataclass
OPTIONAL = {(cls, field.name): [holder for holder, (config, path, _) in HOLDERS.items()
                                if type(reduce(getattr, path, config)) is cls]
            for cls, kinds in harness._FIELDS.items() for field in fields(cls) if field.name in kinds
            and field.default is not MISSING and kinds[field.name].ok(field.default)
            and kinds[field.name].render(field.default) == ""}


def test_the_fields_that_write_no_line_at_their_default_are_found():
    assert {"kappa", "rho", "m_per_node", "csv", "repetitions", "dump_iters"} <= {name for _, name in OPTIONAL}


@pytest.mark.parametrize("cls,name", OPTIONAL, ids=lambda v: getattr(v, "__name__", v))
def test_an_optional_field_writes_a_line_only_off_its_default(cls, name):
    # at its default the field writes no line; off it, a line that reads back. "2" is a value
    # every such field reads; a holder whose family or method does not read the field rejects it
    kind, default = harness._FIELDS[cls][name], next(f.default for f in fields(cls) if f.name == name)
    off = kind.parse("2")
    built = {}
    for holder in OPTIONAL[cls, name]:
        config, path, section = HOLDERS[holder]
        for at_default, value in ((True, default), (False, off)):
            try:
                built[at_default] = swapped(config, path, name, value)
            except ValueError:
                continue
            text = render_config(built[at_default])
            block = next(b.splitlines() for b in text.split("\n\n") if b.startswith(f"{section}\n"))
            lines = [line for line in block if line.startswith(f"{name} = ")]
            assert lines == ([] if at_default else [f"{name} = {kind.render(off)}"]), holder
            assert parse_config(text) == built[at_default], holder
    assert set(built) == {True, False}


INT_COLUMNS = ("iter", "fallback_count", "bits_cum")
# a real column as a run may fill it: a float, an int, a bool or a numpy float
ROWS = st.builds(RoundMetrics, **{
    col: st.integers(-1, 2**62) if col in INT_COLUMNS
    else st.one_of(st.floats(), st.integers(-2**62, 2**62), st.booleans(), st.floats().map(np.float64))
    for col in CSV_COLUMNS})


def floated_row(row):
    """``row`` with float() applied to every real column."""
    return replace(row, **{col: float(getattr(row, col)) for col in CSV_COLUMNS if col not in INT_COLUMNS})


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(ROWS, min_size=1, max_size=6), label=LABELS,
       status=st.sampled_from(["converged", "max_iters", "diverged"]),
       fingerprint=st.from_regex(r"[0-9a-f]{16}", fullmatch=True))
def test_trace_csv_write_read_round_trip(tmp_path_factory, rows, label, status, fingerprint):
    # each column is written by its type, so a real held as an int, a bool or a numpy
    # float is written as the float it equals, as config text writes a real
    folder = tmp_path_factory.mktemp("trace")
    path, floated_path = folder / "t.csv", folder / "f.csv"
    write_trace_csv(Trace(rows=rows, status=status, label=label, fingerprint=fingerprint), path)
    write_trace_csv(Trace(rows=[floated_row(r) for r in rows], status=status, label=label,
                          fingerprint=fingerprint), floated_path)
    assert path.read_text() == floated_path.read_text()
    loaded = read_trace_csv(path)
    assert (loaded.label, loaded.status, loaded.fingerprint) == (label, status, fingerprint)
    assert len(loaded.rows) == len(rows)
    for wrote, read in zip(map(floated_row, rows), loaded.rows):
        for col in CSV_COLUMNS:
            a, b = getattr(wrote, col), getattr(read, col)
            assert type(a) is type(b), col
            assert a == b or (np.isnan(a) and np.isnan(b)), col
