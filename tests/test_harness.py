import hashlib
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import QUAD, hessians_non_finite_on_call, quad_params, strip_wall_time
from decnewton import gradient_tracking, harness, newton
from decnewton.cli import main
from decnewton.compress import CompressorSpec
from decnewton.diagnostics import CSV_COLUMNS, RoundMetrics, Trace
from decnewton.gradient_tracking import GTParams
from decnewton.graph import load_matrix
from decnewton.harness import (
    SEED_ENV_VAR,
    ExperimentConfig,
    GraphSpec,
    ProblemSpec,
    compare,
    config_fingerprint,
    list_presets,
    parse_config,
    preset_configs,
    read_trace_csv,
    render_config,
    repetitions,
    run_experiment,
    write_trace_csv,
)
from decnewton.newton import AlgoParams, ConstantSchedule, GeometricRamp, TwoStageSchedule

QUAD_CFG = """
[problem]
family = quadratic
n = 6
d = 8
kappa = 50.0
seed = 3

[graph]
tau = 0.4
seed = 5

[algorithm]
method = newton
m = 4
gamma = 0.05
M = 0.0
alpha = ramp(0.05, 1.1, 1.0)
cg_tol = const(1e-10)
compressor = rank_k(2)
max_iters = 400
stop_tol = 1e-10

[output]
label = small-quad
"""

GT_CFG = """
[problem]
family = quadratic
n = 6
d = 8
kappa = 10.0
seed = 3

[graph]
tau = 0.4
seed = 5

[algorithm]
method = gt
alpha = tuned
m = 1
max_iters = 3000
stop_tol = 1e-8

[output]
label = small-gt
"""


def test_config_round_trip():
    config = parse_config(QUAD_CFG)
    assert config.label == "small-quad"
    assert config.algorithm.m == 4
    again = parse_config(render_config(config))
    assert again == config
    assert config_fingerprint(again) == config_fingerprint(config)


def test_config_errors_name_the_field():
    with pytest.raises(ValueError, match=r"\[problem\]"):
        parse_config(QUAD_CFG.replace("kappa = 50.0\n", ""))
    with pytest.raises(ValueError, match="gamma"):
        parse_config(QUAD_CFG.replace("gamma = 0.05", "gamma = fast"))
    with pytest.raises(ValueError, match="compressor"):
        parse_config(QUAD_CFG.replace("rank_k(2)", "wavelet(2)"))
    with pytest.raises(ValueError, match="method"):
        parse_config(QUAD_CFG.replace("method = newton", "method = adam"))
    with pytest.raises(ValueError, match=r"\[algorithm\] alpha = 'warp\(1\)': expected one of const\(value\), "
                                         r"ramp\(base, growth, cap\), stage\(stage1, switch_iter, stage2\)"):
        parse_config(QUAD_CFG.replace("ramp(0.05, 1.1, 1.0)", "warp(1)"))
    with pytest.raises(ValueError, match=r"\[output\] repetitions"):
        parse_config(QUAD_CFG + "repetitions = 0\n")
    for schedule in ("const(1, 2)", "ramp(1)", "stage(0.3, 10)"):  # each form takes all its args
        with pytest.raises(ValueError, match=r"\[algorithm\] alpha"):
            parse_config(QUAD_CFG.replace("ramp(0.05, 1.1, 1.0)", schedule))


def test_missing_optional_fields_take_the_dataclass_defaults():
    required = QUAD_CFG.split("[algorithm]")[0] + (
        "[algorithm]\nmethod = newton\ngamma = 0.05\nalpha = const(0.5)\ncompressor = identity\n")
    problem, graph = ProblemSpec("quadratic", n=6, d=8, seed=3, kappa=50.0), GraphSpec(0.4, 5)
    assert parse_config(required) == ExperimentConfig(
        problem, graph, "newton", AlgoParams(CompressorSpec("identity"), ConstantSchedule(0.5), 0.05))
    gt = required.split("[algorithm]")[0] + "[algorithm]\nmethod = gt\nalpha = 0.1\n"
    assert parse_config(gt) == ExperimentConfig(problem, graph, "gt", GTParams(0.1))


LOGIT_CFG = render_config(preset_configs("logit-topk")[0])


@pytest.mark.parametrize("text,named", [
    (QUAD_CFG.replace("kappa = 50.0\n", "kappa = 50.0\nkapa = 5.0\n"), r"\[problem\] kapa"),
    (QUAD_CFG.replace("tau = 0.4\n", "tau = 0.4\ntua = 0.1\n"), r"\[graph\] tua"),
    (QUAD_CFG.replace("max_iters = 400\nstop_tol = 1e-10\n", "max_iter = 5\nstop_tool = 1e-3\n"),
     r"\[algorithm\] max_iter, \[algorithm\] stop_tool"),
    (QUAD_CFG + "lable = other\n", r"\[output\] lable"),
    (QUAD_CFG + "\n[outputs]\nlabel = other\n", r"\[outputs\]"),
    ("[DEFAULT]\nseed = 5\n" + QUAD_CFG, r"\[DEFAULT\].*seed"),
    (QUAD_CFG.replace("kappa = 50.0\n", "kappa = 50.0\nrho = 0.1\n"), r"\[problem\] rho"),
    (LOGIT_CFG.replace("rho = ", "kappa = 10.0\nrho = "), r"\[problem\] kappa"),
    (GT_CFG.replace("method = gt\n", "method = gt\ngamma = 0.05\n"), r"\[algorithm\] gamma"),
    (GT_CFG.replace("method = gt\n", "method = gt\ncompressor = rank_k(2)\n"),
     r"\[algorithm\] compressor"),
    (GT_CFG.replace("method = gt\n", "method = gt\nvariant = reference\n"),
     r"\[algorithm\] variant"),
], ids=["problem-field", "graph-field", "algorithm-fields", "output-field", "unknown-section",
        "default-section", "rho-on-quadratic", "kappa-on-logistic", "gt-gamma",
        "gt-compressor", "gt-variant"])
def test_config_rejects_fields_it_does_not_read(tmp_path, capsys, text, named):
    with pytest.raises(ValueError, match=named):
        parse_config(text)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and re.search(named, err[0])
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("label", ["my run", "a,b", "k=v", "", "tab\there", "../escaped",
                                   "sub/run", "..\\escaped", ";first", "#first", "a\0b",
                                   Path("run"), b"run", None, 7],
                         ids=["space", "comma", "equals", "empty", "tab", "parent-dir", "subdir",
                              "backslash", "semicolon-first", "hash-first", "nul", "path", "bytes",
                              "none", "int"])
def test_label_must_read_back_from_the_trace_header(tmp_path, capsys, label):
    # the label is read back from the trace header and names <out>/<label>.csv. A
    # label that is not a str failed in the rule's re.fullmatch, naming no field; it
    # comes only from code, since config text reads back a str
    with pytest.raises(ValueError, match=r"\[output\] label"):
        replace(parse_config(QUAD_CFG), label=label)
    if not isinstance(label, str):
        return
    text = QUAD_CFG.replace("label = small-quad", f"label = {label}")
    with pytest.raises(ValueError, match=r"\[output\] label"):
        parse_config(text)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "[output] label" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("base,change,named", [
    (QUAD_CFG, {"method": "GT"}, r"\[algorithm\] method"),
    (QUAD_CFG, {"method": "gt"}, r"\[algorithm\] method"),
    (GT_CFG, {"method": "newton"}, r"\[algorithm\] method"),
    (GT_CFG, {"gt_alpha_mode": "Tuned"}, r"\[algorithm\] alpha mode"),
    # render_config writes no tuned alpha for newton: the fingerprint could
    # not tell the two runs apart
    (QUAD_CFG, {"gt_alpha_mode": "tuned"}, r"\[algorithm\] alpha mode"),
    (QUAD_CFG, {"dump_iters": (3, -1)}, r"\[output\] dump_iters"),
    # 1.5 would write no dump and True the dump of iteration 1
    (QUAD_CFG, {"dump_iters": (1.5,)}, r"\[output\] dump_iters"),
    (QUAD_CFG, {"dump_iters": (True,)}, r"\[output\] dump_iters"),
    # the step would fail on the first Hessian compression
    (QUAD_CFG, {"problem": ProblemSpec("quadratic", n=6, d=1, seed=3, kappa=50.0)},
     r"\[algorithm\] compressor K must be at most 1 for rank_k with d = 1, got 2"),
    (QUAD_CFG, {"algorithm": AlgoParams(CompressorSpec("top_k", K=65), ConstantSchedule(0.5), 0.05)},
     r"\[algorithm\] compressor K must be at most 64 for top_k with d = 8, got 65"),
    # the config reader would cut these: a comment, or the whitespace around a value
    (QUAD_CFG, {"csv": "out/a ;b.csv"}, r"\[output\] csv"),
    (QUAD_CFG, {"csv": "#a.csv"}, r"\[output\] csv"),
    (QUAD_CFG, {"csv": "a.csv "}, r"\[output\] csv"),
    (QUAD_CFG, {"csv": "a\nb.csv"}, r"\[output\] csv"),
    # no file can hold the name: the run ended with "embedded null byte", naming no field
    (QUAD_CFG, {"csv": "a\0b.csv"}, r"\[output\] csv"),
    # it failed in the csv rule's re.search, naming no field; config text reads back a str
    (QUAD_CFG, {"csv": Path("a.csv")}, r"\[output\] csv must be a str"),
    # the text says alpha = tuned and reads back 1.0: the 0.5 would be dropped unseen
    (GT_CFG, {"algorithm": GTParams(alpha=0.5, max_iters=3000)},
     r"\[algorithm\] alpha must be the placeholder 1.0 when tuned, got 0.5"),
], ids=["newton-as-GT", "newton-params-as-gt", "gt-params-as-newton", "alpha-mode-case",
        "tuned-newton", "negative-dump", "float-dump", "bool-dump",
        "problem-d-below-K", "K-above-problem-d", "csv-comment-after-space",
        "csv-comment-first", "csv-trailing-space", "csv-line-break", "csv-nul", "csv-path",
        "tuned-alpha-not-placeholder"])
def test_config_rejects_runs_that_do_not_exist(base, change, named):
    with pytest.raises(ValueError, match=named):
        replace(parse_config(base), **change)


def test_K_above_problem_d_fails_before_any_run(tmp_path, capsys, quad_problem, quad_graph, quad_xstar):
    # K is held to [problem] d in config text, in a config built in code and in newton.run
    text = render_config(QUAD).replace("compressor = rank_k(3)", "compressor = rank_k(31)")
    (tmp_path / "big-k.cfg").write_text(text)
    assert main(["run", "--config", str(tmp_path / "big-k.cfg"), "--out", str(tmp_path / "out")]) == 1
    named = "[algorithm] compressor K must be at most 30 for rank_k with d = 30, got 31"
    assert capsys.readouterr().err.splitlines() == [f"error: {named}"]
    assert not (tmp_path / "out").exists()
    params = quad_params(compressor=CompressorSpec("rank_k", K=31))
    with pytest.raises(ValueError, match=re.escape(named)):
        replace(QUAD, algorithm=params)
    seen = []
    with pytest.raises(ValueError, match=r"compressor K must be at most 30 for rank_k with d = 30, got 31"):
        newton.run(quad_problem, quad_graph, params, np.zeros((quad_problem.n, quad_problem.d)), quad_xstar,
                   on_step=lambda k, state: seen.append(k))
    assert seen == []


def test_method_params_and_alpha_mode_change_together():
    # how the benchmark builds its tuned gradient-tracking workload
    gt = replace(parse_config(QUAD_CFG), method="gt", gt_alpha_mode="tuned",
                 algorithm=GTParams(alpha=1.0, m=1))
    assert parse_config(render_config(gt)) == gt


_PIN_QUAD = ProblemSpec("quadratic", n=4, d=6, seed=2, kappa=1e3)


@pytest.mark.parametrize("config,text", [
    (ExperimentConfig(
        ProblemSpec("logistic", n=12, d=5, seed=7, rho=0.01, m_per_node=40), GraphSpec(0.3, 8),
        "newton", AlgoParams(CompressorSpec("identity"), TwoStageSchedule(0.25, 40, 1.0), 0.1,
                             m="k", M=0.5, cg_tol=GeometricRamp(1e-3, 0.5, 1e-2), max_iters=300,
                             stop_tol=1e-9, variant="reference"),
        label="pin-stage", dump_iters=(0, 5, 10), repetitions=3),
     "[problem]\nfamily = logistic\nn = 12\nd = 5\nrho = 0.01\nm_per_node = 40\nseed = 7\n\n"
     "[graph]\ntau = 0.3\nseed = 8\n\n"
     "[algorithm]\nmethod = newton\nm = k\ngamma = 0.1\nM = 0.5\nalpha = stage(0.25, 40, 1.0)\n"
     "cg_tol = ramp(0.001, 0.5, 0.01)\ncompressor = identity\nvariant = reference\n"
     "max_iters = 300\nstop_tol = 1e-09\n\n"
     "[output]\nlabel = pin-stage\ndump_iters = 0,5,10\nrepetitions = 3\n"),
    (ExperimentConfig(_PIN_QUAD, GraphSpec(0.5, 9), "newton",
                      AlgoParams(CompressorSpec("top_k", K=7), ConstantSchedule(0.8), 0.0, m=3),
                      label="pin-topk"),
     "[problem]\nfamily = quadratic\nn = 4\nd = 6\nkappa = 1000.0\nseed = 2\n\n"
     "[graph]\ntau = 0.5\nseed = 9\n\n"
     "[algorithm]\nmethod = newton\nm = 3\ngamma = 0.0\nM = 0.0\nalpha = const(0.8)\n"
     "cg_tol = const(1e-10)\ncompressor = top_k(7)\nvariant = efficient\nmax_iters = 2000\n"
     "stop_tol = 1e-10\n\n"
     "[output]\nlabel = pin-topk\n"),
    (ExperimentConfig(_PIN_QUAD, GraphSpec(0.5, 9), "gt", GTParams(0.02, m=2, max_iters=100),
                      label="pin-gt-fixed", repetitions=2),
     "[problem]\nfamily = quadratic\nn = 4\nd = 6\nkappa = 1000.0\nseed = 2\n\n"
     "[graph]\ntau = 0.5\nseed = 9\n\n"
     "[algorithm]\nmethod = gt\nalpha = 0.02\nm = 2\nmax_iters = 100\nstop_tol = 1e-10\n\n"
     "[output]\nlabel = pin-gt-fixed\nrepetitions = 2\n"),
    (ExperimentConfig(_PIN_QUAD, GraphSpec(0.5, 9), "gt", GTParams(1.0, stop_tol=1e-7),
                      gt_alpha_mode="tuned", label="pin-gt-tuned", csv="pin.csv"),
     "[problem]\nfamily = quadratic\nn = 4\nd = 6\nkappa = 1000.0\nseed = 2\n\n"
     "[graph]\ntau = 0.5\nseed = 9\n\n"
     "[algorithm]\nmethod = gt\nalpha = tuned\nm = 1\nmax_iters = 5000\nstop_tol = 1e-07\n\n"
     "[output]\nlabel = pin-gt-tuned\ncsv = pin.csv\n"),
], ids=["stage-identity-reference-mk-output", "top_k", "gt-fixed", "gt-tuned"])
def test_render_config_text_is_pinned(config, text):
    # the config text is what the trace fingerprint hashes: these forms,
    # which no preset reaches, keep the text they had when first pinned
    assert render_config(config) == text
    assert parse_config(text) == config


def _readme_example():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)


def _docstring_example():
    lines = []
    for line in harness.__doc__.split("::\n", 1)[1].splitlines():
        if line and not line.startswith(" "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


@pytest.mark.parametrize("example", [_readme_example, _docstring_example],
                         ids=["readme", "harness-docstring"])
def test_documented_config_examples_parse(example):
    config = parse_config(example())
    assert parse_config(render_config(config)) == config


def test_growing_m_round_trip():
    config = parse_config(QUAD_CFG.replace("m = 4", "m = k"))
    assert config.algorithm.m == "k"
    assert parse_config(render_config(config)) == config


def test_run_experiment_writes_csv(tmp_path):
    config = parse_config(QUAD_CFG)
    trace, path = run_experiment(config, out_dir=str(tmp_path))
    assert trace.status == "converged"
    text = Path(path).read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# decnewton-trace label=small-quad")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + len(trace.rows)
    loaded = read_trace_csv(path)
    assert loaded.label == "small-quad"
    assert loaded.status == "converged"
    assert loaded.iterations == trace.iterations
    assert loaded.final_rel_err == trace.final_rel_err


def test_csv_determinism_modulo_wall_time(tmp_path):
    config = parse_config(QUAD_CFG)
    _, p1 = run_experiment(config, out_dir=str(tmp_path / "a"))
    _, p2 = run_experiment(config, out_dir=str(tmp_path / "b"))
    assert strip_wall_time(Path(p1).read_text()) == strip_wall_time(Path(p2).read_text())


def test_gt_experiment_with_tuned_alpha(tmp_path):
    config = parse_config(GT_CFG)
    trace, path = run_experiment(config, out_dir=str(tmp_path))
    assert trace.status == "converged"
    assert trace.final_rel_err <= 1e-8


def _reseeded(config, seed):
    return replace(config, problem=replace(config.problem, seed=seed),
                   graph=replace(config.graph, seed=seed))


def test_seed_env_override(tmp_path, monkeypatch):
    # decnewton run writes the trace of the config with both seeds replaced
    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(QUAD_CFG)
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 0
    monkeypatch.delenv(SEED_ENV_VAR)
    config = parse_config(QUAD_CFG)
    _, reseeded = run_experiment(_reseeded(config, 99), out_dir=str(tmp_path / "reseeded"))
    _, base = run_experiment(config, out_dir=str(tmp_path / "base"))
    written = strip_wall_time((tmp_path / "cli" / "small-quad.csv").read_text())
    assert written == strip_wall_time(Path(reseeded).read_text())
    assert written != strip_wall_time(Path(base).read_text())


def test_run_experiment_runs_the_config_it_is_given(tmp_path, monkeypatch):
    # only the commands read DECNEWTON_SEED, where they expand a config
    config = parse_config(QUAD_CFG)
    _, p1 = run_experiment(config, out_dir=str(tmp_path / "a"))
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    _, p2 = run_experiment(config, out_dir=str(tmp_path / "b"))
    assert strip_wall_time(Path(p1).read_text()) == strip_wall_time(Path(p2).read_text())


@pytest.mark.parametrize("value,seed", [("0", 0), ("7", 7), ("2147483648", 2**31)])
def test_seed_env_override_reads_an_integer(monkeypatch, value, seed):
    monkeypatch.setenv(SEED_ENV_VAR, value)
    config = parse_config(QUAD_CFG)
    assert repetitions(config) == [_reseeded(config, seed)]  # the label unchanged


def test_cli_preset_applies_the_seed_variable(tmp_path, monkeypatch):
    # each preset run, and the equivalence check, is built from the reseeded config
    built = []

    def record(config):
        built.append((config.label, config.problem.seed, config.graph.seed))
        raise RuntimeError("instance recorded")

    monkeypatch.setattr(harness, "_instance", record)
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    for name in ("logit-topk", "alg-equivalence"):
        assert main(["preset", name, "--out", str(tmp_path)]) == 1
    assert built == [("logit-topk-m15", 7, 7), ("quad-k1e2-m15", 7, 7)]


def test_cli_preset_prints_each_run_as_it_ends(tmp_path, capsys, monkeypatch):
    # a run that fails leaves the summaries of the runs before it on stdout
    printed_before = []

    def third_fails(config, out_dir=None):
        printed_before.append(capsys.readouterr().out.splitlines())
        if len(printed_before) == 3:
            raise RuntimeError("the third run failed")
        return run_experiment(config, out_dir=out_dir)

    monkeypatch.setattr(harness, "run_experiment", third_fails)
    assert main(["preset", "quad-kappa", "--out", str(tmp_path)]) == 1
    assert [len(lines) for lines in printed_before] == [0, 1, 1]
    assert printed_before[1][0].startswith("quad-k1e1-m15: status=converged")
    assert printed_before[2][0].startswith("quad-k1e1-m20: status=converged")
    assert capsys.readouterr().err == "error: the third run failed\n"


def test_compare_summary(tmp_path):
    config = parse_config(QUAD_CFG)
    _, p1 = run_experiment(config, out_dir=str(tmp_path / "r1"))
    gt_config = parse_config(GT_CFG)
    _, p2 = run_experiment(gt_config, out_dir=str(tmp_path / "r2"))
    out = tmp_path / "summary.csv"
    rows = compare([p1, p2], out, tol=1e-6)
    assert len(rows) == 2
    text = out.read_text().splitlines()
    assert text[0].startswith("label,status,iterations,final_rel_err")
    assert len(text) == 3
    with pytest.raises(ValueError):
        compare([p1], tmp_path / "one.csv")


def test_compare_bits_to_tol_grows_with_m(tmp_path):
    # more gossip rounds per iteration: fewer iterations but more traffic
    paths = []
    for label in ("quad-k1e2-m15", "quad-k1e2-m20"):
        config = next(c for c in preset_configs("quad-kappa") if c.label == label)
        _, p = run_experiment(config, out_dir=str(tmp_path))
        paths.append(p)
    rows = compare(paths, tmp_path / "m-compare.csv", tol=1e-6)
    bits15, bits20 = int(rows[0][5]), int(rows[1][5])
    iters15, iters20 = int(rows[0][4]), int(rows[1][4])
    assert iters20 <= iters15
    assert bits20 > bits15


def test_compare_reports_gt_wall_time(tmp_path):
    gt_cfg = GT_CFG.replace("alpha = tuned", "alpha = 0.05").replace("3000", "40")
    cfg_path = tmp_path / "gt.cfg"
    cfg_path.write_text(gt_cfg)
    paths = []
    for out in ("a", "b"):
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 2
        paths.append(str(tmp_path / out / "small-gt.csv"))
    assert main(["compare", *paths, "--out", str(tmp_path / "cmp.csv")]) == 0
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    col = lines[0].split(",").index("wall_time_total")
    assert all(float(line.split(",")[col]) > 0.0 for line in lines[1:])


def test_cli_repetitions(tmp_path):
    # each repetition writes its own trace and its own dumps, named by its label
    cfg = QUAD_CFG + "repetitions = 2\ndump_iters = 2\n"
    cfg_path = tmp_path / "rep.cfg"
    cfg_path.write_text(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "small-quad-rep0.csv", "small-quad-rep0.state_x_iter00002.txt",
        "small-quad-rep1.csv", "small-quad-rep1.state_x_iter00002.txt"]
    dumps = [load_matrix(out / f"small-quad-rep{rep}.state_x_iter00002.txt") for rep in (0, 1)]
    assert not np.array_equal(*dumps)  # two instances, two iterates


def test_cli_run_rejects_repetitions_below_one(tmp_path, capsys):
    cfg_path = tmp_path / "rep0.cfg"
    cfg_path.write_text(QUAD_CFG + "repetitions = 0\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repetitions" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value", ["2.0", "2.5", "True"])
def test_cli_run_rejects_non_integer_repetitions(tmp_path, capsys, value):
    cfg_path = tmp_path / "rep.cfg"
    cfg_path.write_text(QUAD_CFG + f"repetitions = {value}\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "[output] repetitions" in err[0]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("old,new,field", [
    ("n = 6", "n = 0", "n"), ("n = 6", "n = -3", "n"), ("n = 6", "n = 1", "n"),
    ("d = 8", "d = 0", "d"),
])
def test_cli_run_rejects_a_network_or_block_too_small(tmp_path, capsys, old, new, field):
    # n = 0 used to reach make_quadratic: two numpy warnings, then an error naming no field
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(QUAD_CFG.replace(f"\n{old}\n", f"\n{new}\n"))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"[problem] {field}" in err[0]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("field,value", [("n", 1), ("n", 6.0), ("n", True), ("d", 0), ("d", 8.0),
                                         ("m_per_node", 2.5), ("m_per_node", True)])
def test_problem_size_in_code_must_be_an_int(field, value):
    # a float or bool m_per_node used to fail inside numpy, naming no field
    base = LOGIT_CFG if field == "m_per_node" else QUAD_CFG
    with pytest.raises(ValueError, match=rf"\[problem\] {field}"):
        replace(parse_config(base).problem, **{field: value})


@pytest.mark.parametrize("value", [0.5, 0.999, 1e-6, False])
def test_kappa_in_code_must_be_at_least_one(value):
    # no quadratic instance has one: it failed only in make_quadratic, when the run began
    with pytest.raises(ValueError, match=r"\[problem\] kappa must be a finite real >= 1"):
        replace(parse_config(QUAD_CFG).problem, kappa=value)


@pytest.mark.parametrize("name", [name for name, _ in list_presets()])
def test_preset_config_text_reads_back(name):
    # numbers are read in their one spelling, which is the one render_config writes
    for config in preset_configs(name):
        again = parse_config(render_config(config))
        assert again == config and config_fingerprint(again) == config_fingerprint(config)


@pytest.mark.parametrize("section", ["problem", "graph"])
@pytest.mark.parametrize("value", [-1, 1.5, True])
def test_seed_in_code_must_be_a_non_negative_int(section, value):
    # numpy would reject -1 only when the instance is built, without the field's name
    with pytest.raises(ValueError, match=rf"\[{section}\] seed must be an integer >= 0"):
        replace(getattr(parse_config(QUAD_CFG), section), seed=value)


def test_seed_env_override_must_be_a_non_negative_int(tmp_path, capsys, monkeypatch):
    # the error names the variable, not int() or the config's valid seeds,
    # before any instance is built
    def unreached(*args, **kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(harness, "build_problem", unreached)
    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(QUAD_CFG)
    # int() reads each of the last six as a seed; only the text str(int(text)) gives is one
    for value in ("abc", "1.5", "-1", " 7 ", "+3", "1_0", "07", "\u0663", "\uff17"):
        monkeypatch.setenv(SEED_ENV_VAR, value)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {SEED_ENV_VAR} must be an integer >= 0, got {value!r}"]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value", [0, 2.0, 2.5, True])
def test_repetitions_in_code_must_be_a_positive_int(value):
    # 2.0 would render as text parse_config rejects, and True would run once
    with pytest.raises(ValueError, match=r"\[output\] repetitions"):
        replace(parse_config(QUAD_CFG), repetitions=value)


@pytest.mark.parametrize("base,old,new,field", [
    (QUAD_CFG, "M = 0.0", "M = nan", "M"),
    (QUAD_CFG, "M = 0.0", "M = -1.0", "M"),
    (QUAD_CFG, "max_iters = 400", "max_iters = 0", "max_iters"),
    (QUAD_CFG, "max_iters = 400", "max_iters = -5", "max_iters"),
    (QUAD_CFG, "stop_tol = 1e-10", "stop_tol = nan", "stop_tol"),
    (QUAD_CFG, "stop_tol = 1e-10", "stop_tol = -1e-10", "stop_tol"),
    (QUAD_CFG, "ramp(0.05, 1.1, 1.0)", "ramp(nan, 1.1, 1.0)", "alpha"),
    (QUAD_CFG, "ramp(0.05, 1.1, 1.0)", "ramp(0.05, 1.1, inf)", r"\[algorithm\] alpha"),
    (QUAD_CFG, "const(1e-10)", "const(nan)", "cg_tol"),
    (GT_CFG, "alpha = tuned", "alpha = nan", "alpha"),
    (GT_CFG, "alpha = tuned", "alpha = inf", "alpha"),
    (GT_CFG, "max_iters = 3000", "max_iters = 0", "max_iters"),
    (GT_CFG, "stop_tol = 1e-8", "stop_tol = inf", "stop_tol"),
    # the instance fields name their section
    (QUAD_CFG, "kappa = 50.0", "kappa = inf", r"\[problem\] kappa"),
    (QUAD_CFG, "kappa = 50.0", "kappa = nan", r"\[problem\] kappa"),
    (QUAD_CFG, "kappa = 50.0", "kappa = 0.5", r"\[problem\] kappa"),
    (LOGIT_CFG, "rho = 0.001", "rho = inf", r"\[problem\] rho"),
    (LOGIT_CFG, "rho = 0.001", "rho = nan", r"\[problem\] rho"),
    (LOGIT_CFG, "rho = 0.001", "rho = 0.0", r"\[problem\] rho"),
    (LOGIT_CFG, "m_per_node = 100", "m_per_node = 0", r"\[problem\] m_per_node"),
    (QUAD_CFG, "seed = 3", "seed = -1", r"\[problem\] seed"),
    (QUAD_CFG, "seed = 5", "seed = -1", r"\[graph\] seed"),
    (QUAD_CFG, "tau = 0.4", "tau = 0.0", r"\[graph\] tau"),
    (QUAD_CFG, "tau = 0.4", "tau = 1.5", r"\[graph\] tau"),
    # no iteration -1 is ever written
    (QUAD_CFG, "label = small-quad", "label = small-quad\ndump_iters = 2,-1",
     r"\[output\] dump_iters"),
    # one csv file would hold only the last repetition's trace
    (QUAD_CFG, "label = small-quad", "label = small-quad\ncsv = t.csv\nrepetitions = 3",
     r"\[output\] csv.*\[output\] repetitions"),
    # caught before the run, not when the trace is written
    (QUAD_CFG, "label = small-quad", "label = small-quad\ncsv =", r"\[output\] csv"),
    (QUAD_CFG, "label = small-quad", "label = small-quad\ncsv = nodir/", r"\[output\] csv"),
    # schedule values no run can use: every c_k row would breach, or alpha ascends
    (QUAD_CFG, "const(1e-10)", "const(-1.0)", r"\[algorithm\] cg_tol"),
    (QUAD_CFG, "const(1e-10)", "const(inf)", r"\[algorithm\] cg_tol"),
    (QUAD_CFG, "ramp(0.05, 1.1, 1.0)", "const(-0.5)", r"\[algorithm\] alpha"),
    (QUAD_CFG, "ramp(0.05, 1.1, 1.0)", "stage(1e-10, -5, 1e-3)", r"\[algorithm\] alpha"),
    (QUAD_CFG, "ramp(0.05, 1.1, 1.0)", "stage(inf, 3, 1.0)", r"\[algorithm\] alpha"),
    (QUAD_CFG, "ramp(0.05, 1.1, 1.0)", "stage(0.1, 2.5, 1.0)", r"\[algorithm\] alpha"),
    # too short for tune_alpha to score a run still going
    (GT_CFG, "max_iters = 3000", "max_iters = 4", r"\[algorithm\] max_iters"),
    (GT_CFG, "max_iters = 3000", "max_iters = 7", r"\[algorithm\] max_iters"),
    # the problem fields code builds, and the instance make_quadratic refuses
    (QUAD_CFG, "n = 6\n", "", r"config missing field 'n' in section \[problem"),
    (QUAD_CFG, "family = quadratic", "family = cubic",
     r"\[problem\] family must be quadratic or logistic, got 'cubic"),
    (GT_CFG, "d = 8", "d = 1", r"\[problem\] a 1-dimensional quadratic cannot have kappa"),
    # one spelling: no %(key)s template, no ':' delimiter, no value over two lines,
    # no empty dump_iters entry, and a parse error names its line on one line
    (QUAD_CFG, "kappa = 50.0", "kappa = %(n)s0", r"bad value for \[problem\] kappa"),
    (QUAD_CFG, "n = 6", "n: 6", r"bad\.cfg' \[line +4\]: 'n: 6"),
    (QUAD_CFG, "seed = 3", "seed 3", r"bad\.cfg' \[line +7\]: 'seed 3"),
    (QUAD_CFG, "rank_k(2)", "rank_k(\n  2)", r"bad value for \[algorithm\] compressor"),
    (QUAD_CFG, "label = small-quad", "label = small-quad\ndump_iters = 0,,2",
     r"bad value for \[output\] dump_iters"),
    (QUAD_CFG, "label = small-quad", "label = small-quad\ndump_iters =",
     r"bad value for \[output\] dump_iters"),
    # one spelling per number: int() and float() read each of these as another text's value
    (QUAD_CFG, "seed = 3", "seed = 0_3", r"bad value for \[problem\] seed"),
    (QUAD_CFG, "seed = 3", "seed = +3", r"bad value for \[problem\] seed"),
    (QUAD_CFG, "seed = 3", "seed = 03", r"bad value for \[problem\] seed"),
    (QUAD_CFG, "n = 6", "n = \u0666", r"bad value for \[problem\] n"),
    (LOGIT_CFG, "m_per_node = 100", "m_per_node = \u0661\u0660\u0660", r"bad value for \[problem\] m_per_node"),
    (QUAD_CFG, "max_iters = 400", "max_iters = 4_00", r"bad value for \[algorithm\] max_iters"),
    (QUAD_CFG, "m = 4", "m = +4", r"bad value for \[algorithm\] m"),
    (QUAD_CFG, "ramp(0.05, 1.1, 1.0)", "stage(0.1, 0_2, 1.0)", r"bad value for \[algorithm\] alpha"),
    (QUAD_CFG, "rank_k(2)", "rank_k(+2)", r"bad value for \[algorithm\] compressor"),
    (QUAD_CFG, "label = small-quad", "label = small-quad\ndump_iters = 0,02",
     r"bad value for \[output\] dump_iters"),
    (QUAD_CFG, "label = small-quad", "label = small-quad\nrepetitions = \uff12",
     r"bad value for \[output\] repetitions"),
    (LOGIT_CFG, "rho = 0.001", "rho = 0_0.001", r"bad value for \[problem\] rho"),
    (QUAD_CFG, "kappa = 50.0", "kappa = \u0665\u0660.0", r"bad value for \[problem\] kappa"),
    (QUAD_CFG, "gamma = 0.05", "gamma = 0.0_5", r"bad value for \[algorithm\] gamma"),
    (QUAD_CFG, "tau = 0.4", "tau = 0.\uff14", r"bad value for \[graph\] tau"),
    (QUAD_CFG, "const(1e-10)", "const(1e-1_0)", r"bad value for \[algorithm\] cg_tol"),
    (GT_CFG, "alpha = tuned", "alpha = 0.0_1", r"bad value for \[algorithm\] alpha"),
], ids=["M-nan", "M-negative", "max_iters-0", "max_iters-negative", "stop_tol-nan",
        "stop_tol-negative", "ramp-nan", "ramp-cap-inf", "cg_tol-nan", "gt-alpha-nan", "gt-alpha-inf",
        "gt-max_iters-0", "gt-stop_tol-inf", "kappa-inf", "kappa-nan", "kappa-below-1",
        "rho-inf", "rho-nan", "rho-0", "m_per_node-0", "problem-seed-negative",
        "graph-seed-negative", "tau-0", "tau-above-1", "dump_iters-negative",
        "csv-with-repetitions", "csv-empty", "csv-directory", "cg_tol-negative", "cg_tol-inf",
        "alpha-negative", "stage-switch-negative", "stage-inf", "stage-switch-float",
        "gt-tuned-max_iters-4", "gt-tuned-max_iters-7", "n-missing", "family-cubic",
        "d-1-kappa-above-1", "percent-template", "colon-delimiter", "no-delimiter",
        "continued-value", "dump_iters-empty-entry", "dump_iters-empty", "seed-underscore",
        "seed-plus", "seed-leading-zero", "n-arabic-indic", "m_per_node-arabic-indic",
        "max_iters-underscore", "m-plus", "stage-switch-underscore", "compressor-K-plus",
        "dump_iters-leading-zero", "repetitions-fullwidth", "rho-underscore", "kappa-arabic-indic",
        "gamma-underscore", "tau-fullwidth", "cg_tol-underscore", "gt-alpha-underscore"])
def test_cli_run_rejects_bad_run_values(tmp_path, capsys, recwarn, monkeypatch,
                                        base, old, new, field):
    monkeypatch.chdir(tmp_path)  # a relative csv path stays in tmp_path
    cfg_path = tmp_path / "bad.cfg"
    assert base.count(old) == 1
    cfg_path.write_text(base.replace(old, new))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and re.search(rf"(?<!\w){field}\b", err[0])
    assert not recwarn.list  # numpy warnings from a bad value that got too far
    assert not list(tmp_path.rglob("*.csv"))


TINY_CFG = """
[problem]
family = quadratic
n = 4
d = 3
kappa = 10.0
seed = 1

[graph]
tau = 0.5
seed = 2

[algorithm]
method = newton
m = 2
gamma = 0.1
alpha = const(0.5)
compressor = rank_k(2)
max_iters = 3

[output]
label = tiny
"""


@pytest.mark.parametrize("compressor,code,last", [
    ("rank_k(2)", 2, "tiny: status=max_iters iterations=3 "),
    ("rank_k(5)", 1, "error: [algorithm] compressor K must be at most 3 for rank_k with d = 3, got 5"),
], ids=["valid", "K-above-d"])
def test_cli_run_is_the_same_under_python_O(tmp_path, compressor, code, last):
    # -O strips assert statements: a check that lives in one would let the
    # bad config through there
    (tmp_path / "tiny.cfg").write_text(TINY_CFG.replace("rank_k(2)", compressor))
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outcomes = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "decnewton.cli", "run", "--config",
                               "tiny.cfg", "--out", "out"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        outcomes.append((proc.returncode, (proc.stdout + proc.stderr).splitlines()[-1]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code and outcomes[0][1].startswith(last)


def test_cli_run_reads_percent_as_a_character(tmp_path):
    # no interpolation: the label is the text written, and names the trace
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CFG.replace("label = tiny", "label = run%1"))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    trace = read_trace_csv(tmp_path / "out" / "run%1.csv")
    assert trace.label == "run%1"
    assert trace.fingerprint == config_fingerprint(parse_config(str(cfg_path)))
    assert parse_config(TINY_CFG.replace("label = tiny", "label = a%%b")).label == "a%%b"


def test_list_presets_contents():
    names = [name for name, _ in list_presets()]
    assert names == ["quad-kappa", "logit-topk", "logit-rank", "alg-equivalence"]
    for _, description in list_presets():
        assert description


def test_preset_configs_shapes():
    quad = preset_configs("quad-kappa")
    assert len(quad) == 9
    kappas = {c.problem.kappa for c in quad}
    assert kappas == {10.0, 100.0, 10000.0}
    ms = {c.algorithm.m for c in quad}
    assert ms == {15, 20, "k"}
    topk = preset_configs("logit-topk")[0]
    assert topk.algorithm.compressor.kind == "top_k"
    assert topk.algorithm.compressor.K == 20
    assert topk.algorithm.alpha.base == pytest.approx(0.2)
    rank = preset_configs("logit-rank")[0]
    assert rank.algorithm.compressor.K == 3
    assert rank.algorithm.alpha.base == pytest.approx(0.1)
    for cfg in (topk, rank):
        assert cfg.problem.n == 30 and cfg.problem.d == 20
        assert cfg.problem.m_per_node == 100 and cfg.problem.rho == pytest.approx(0.001)
        assert cfg.algorithm.gamma == pytest.approx(0.06)
        assert cfg.algorithm.M == 0.0
    with pytest.raises(ValueError):
        preset_configs("nope")


def _k1e4_m15_shifted(shift):
    """quad-k1e4-m15 with both seeds shifted by ``shift``, and its trace."""
    config = next(c for c in preset_configs("quad-kappa") if c.label == "quad-k1e4-m15")
    config = replace(config, problem=replace(config.problem, seed=config.problem.seed + shift),
                     graph=replace(config.graph, seed=config.graph.seed + shift))
    return config, run_experiment(config)[0]


def test_kappa_1e4_shifted_instance_converges():
    # quad-k1e4-m15 with both seeds shifted by 89 meets nearly indefinite
    # tracked Hessians around iteration 50. An iterative solve that stops with
    # a large residual there (CG reached 34 * ||g_i||) makes the run diverge;
    # the Cholesky check rejects those systems and the nodes fall back.
    config, trace = _k1e4_m15_shifted(89)
    assert trace.status == "converged"
    assert trace.final_rel_err <= config.algorithm.stop_tol
    assert sum(row.fallback_count for row in trace.rows) > 0
    assert all(row.cg_max_rel_residual <= row.c_k for row in trace.rows[1:])


def test_kappa_1e4_shift_6_falls_back_and_keeps_the_cg_contract():
    # problem seed 7, graph seed 17: 12 node-solves over iterations 52-63
    # fall back to g_i / L1, and the solved ones keep their residual bound
    config, trace = _k1e4_m15_shifted(6)
    assert (config.problem.seed, config.graph.seed) == (7, 17)
    assert (trace.status, trace.iterations) == ("converged", 73)
    assert trace.final_rel_err <= config.algorithm.stop_tol
    assert sum(row.fallback_count for row in trace.rows) == 12
    assert max(row.cg_max_rel_residual / row.c_k for row in trace.rows[1:]) <= 0.1  # 0.087


def test_cli_run_dumps_into_a_new_out_dir(tmp_path, capsys):
    # the dumps are written during the run, before the trace CSV
    cfg_path = tmp_path / "dump.cfg"
    cfg_path.write_text(QUAD_CFG + "dump_iters = 2,5\n")
    out = tmp_path / "new" / "dir"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == harness.STATUS_CODE[read_trace_csv(out / "small-quad.csv").status]
    assert "status=converged" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [
        "small-quad.csv", "small-quad.state_x_iter00002.txt", "small-quad.state_x_iter00005.txt"]


def test_run_experiment_dumps_next_to_the_csv(tmp_path, monkeypatch):
    # the csv path alone places the dumps; no out_dir is needed
    monkeypatch.chdir(tmp_path)
    config = replace(parse_config(QUAD_CFG), csv="sub/t.csv", dump_iters=(2, 5))
    trace, path = run_experiment(config)
    assert trace.status == "converged" and path == "sub/t.csv"
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == [
        "small-quad.state_x_iter00002.txt", "small-quad.state_x_iter00005.txt", "t.csv"]


def test_gt_runs_write_the_dumps_on_step_sees(tmp_path, monkeypatch):
    # a tuned gt run dumps as a newton run does: run_experiment and the run command
    # each write the iterates their gt_run shows on_step at k = 0 and 5
    seen = []

    def recording_gt_run(*args, on_step):
        states = {}
        seen.append(states)
        return gradient_tracking.gt_run(*args, on_step=lambda k, state: (
            states.setdefault(k, state.x.copy()), on_step(k, state)))

    monkeypatch.setattr(harness, "gt_run", recording_gt_run)
    text = GT_CFG + "dump_iters = 0,5\n"
    trace, _ = run_experiment(parse_config(text), out_dir=str(tmp_path / "api"))
    assert trace.status == "converged" and trace.iterations > 5
    cfg_path = tmp_path / "gt.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 0
    assert len(seen) == 2
    for out, states in zip(("api", "cli"), seen):
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == [
            "small-gt.csv", "small-gt.state_x_iter00000.txt", "small-gt.state_x_iter00005.txt"]
        for k in (0, 5):
            dumped = load_matrix(tmp_path / out / f"small-gt.state_x_iter{k:05d}.txt")
            assert np.array_equal(dumped, states[k]), (out, k)


def test_non_finite_start_writes_its_dump_and_diverges_at_iteration_0(tmp_path, monkeypatch):
    # the start is dumped before the test that ends the run
    hessians_non_finite_on_call(monkeypatch, 1, np.inf)
    config = replace(parse_config(QUAD_CFG), csv=str(tmp_path / "t.csv"), dump_iters=(0, 1))
    trace, _ = run_experiment(config)
    assert (trace.status, trace.iterations) == ("diverged", 0)
    assert read_trace_csv(tmp_path / "t.csv").status == "diverged"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "small-quad.state_x_iter00000.txt", "t.csv"]
    assert np.array_equal(load_matrix(tmp_path / "small-quad.state_x_iter00000.txt"),
                          np.zeros((6, 8)))


def test_run_experiment_rejects_dumps_with_no_trace_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def unreached(*args, **kwargs):
        raise AssertionError("the oracle was solved")

    monkeypatch.setattr(harness, "centralized_solve", unreached)
    with pytest.raises(ValueError, match=r"\[output\] dump_iters"):
        run_experiment(replace(parse_config(QUAD_CFG), dump_iters=(2,)))
    assert not list(tmp_path.iterdir())


def test_cli_run_rejects_seed_override_with_repetitions(tmp_path, capsys, monkeypatch):
    # every repetition would run the one instance the override names
    monkeypatch.setenv(SEED_ENV_VAR, "5")
    cfg_path = tmp_path / "rep.cfg"
    cfg_path.write_text(QUAD_CFG + "repetitions = 3\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert SEED_ENV_VAR in err[0] and "[output] repetitions" in err[0]
    assert not list(tmp_path.glob("*.csv"))


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(QUAD_CFG)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "small-quad.csv").exists()
    # iteration cap -> exit 2
    capped = QUAD_CFG.replace("max_iters = 400", "max_iters = 3")
    cfg2 = tmp_path / "capped.cfg"
    cfg2.write_text(capped)
    assert main(["run", "--config", str(cfg2), "--out", str(tmp_path)]) == 2
    # divergence -> exit 3
    bad = QUAD_CFG.replace("ramp(0.05, 1.1, 1.0)", "const(80.0)")
    cfg3 = tmp_path / "bad.cfg"
    cfg3.write_text(bad)
    assert main(["run", "--config", str(cfg3), "--out", str(tmp_path)]) == 3
    # usage / missing file -> exit 1
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["frobnicate"]) == 1


def test_cli_run_at_a_consensus_depth_past_the_float_range(tmp_path, capsys):
    # sigma = 0.9555 on this instance: sigma^(-3m/4) overflows a float at
    # m = 25000, which ends as u3 = inf, not as a traceback
    config = replace(QUAD, algorithm=quad_params(m=25000, max_iters=3))
    cfg_path = tmp_path / "deep.cfg"
    cfg_path.write_text(render_config(config))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"{config.label}: status=max_iters iterations=3 rel_err=")
    trace = read_trace_csv(tmp_path / f"{config.label}.csv")
    assert [row.u3 for row in trace.rows] == [np.inf] * 4


def test_divergence_note_reaches_summary_and_cli(tmp_path, capsys):
    config = parse_config(QUAD_CFG.replace("ramp(0.05, 1.1, 1.0)", "const(80.0)"))
    trace, path = run_experiment(config, out_dir=str(tmp_path))
    assert trace.status == "diverged" and trace.note
    assert harness.summary(trace, path).splitlines()[1] == f"  note: {trace.note}"
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(render_config(config))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    out = capsys.readouterr().out
    assert out.count("note:") == 1 and f"  note: {trace.note}\n" in out


def test_cli_non_finite_start_exits_3_with_one_row(tmp_path, monkeypatch, capsys):
    # an infinite Hessian tracker at the start ends the run as diverged at
    # iteration 0; it still writes its trace instead of stopping in compress
    hessians_non_finite_on_call(monkeypatch, 1, np.inf)
    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(QUAD_CFG)
    with np.errstate(invalid="ignore"):
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert "  note: non-finite iterate or tracker at iteration 0\n" in capsys.readouterr().out
    trace = read_trace_csv(tmp_path / "small-quad.csv")
    assert trace.status == "diverged" and len(trace.rows) == 1 and trace.rows[0].iter == 0


def test_cli_list_and_compare(tmp_path, capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "quad-kappa" in out and "alg-equivalence" in out

    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(QUAD_CFG)
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    code = main([
        "compare", str(tmp_path / "a" / "small-quad.csv"),
        str(tmp_path / "b" / "small-quad.csv"), "--out", str(tmp_path / "cmp.csv"),
    ])
    assert code == 0
    assert (tmp_path / "cmp.csv").exists()


def write_trace(path, rows=(RoundMetrics(rel_err=1.0),)):
    """A trace file as write_trace_csv writes it, by default one converged row."""
    write_trace_csv(Trace(rows=list(rows), status="converged", label="x",
                          fingerprint="0123456789abcdef"), path)
    return path


def _set(line, column, value):
    """``line``, a written row, with ``column`` holding the text ``value``."""
    vals = line.split(",")
    vals[CSV_COLUMNS.index(column)] = value
    return ",".join(vals)


def _text(*lines):
    return "".join(line + "\n" for line in lines)


# each case makes the text from the lines of a written two-row trace: comment, header, row 0, row 1
@pytest.mark.parametrize("edit,where", [
    (lambda c, h, r0, r1: _text(), "bad.csv has 0 line(s)"),
    (lambda c, h, r0, r1: _text(c), "bad.csv has 1 line(s)"),
    (lambda c, h, r0, r1: _text(c, h), "bad.csv has 2 line(s)"),
    (lambda c, h, r0, r1: _text(c, h, r0, r1.rsplit(",", 1)[0]), "bad.csv:4: 16 fields"),
    (lambda c, h, r0, r1: _text(c, h.replace(",rel_err,", ",rel_error,"), r0, r1), "bad.csv:2: the header"),
    (lambda c, h, r0, r1: _text(c, h, r0, _set(r1, "rel_err", "abc")), "bad.csv:4: bad rel_err"),
    (lambda c, h, r0, r1: _text(c, h, _set(r0, "iter", "0.5"), r1), "bad.csv:3: bad iter"),
    (lambda c, h, r0, r1: _text(c, h + ",rel_err", r0 + ",0.5", r1 + ",0.5"), "bad.csv:2: the header"),
    (lambda c, h, r0, r1: _text(c, h, r0, r1)[:-1], "bad.csv:4: no newline"),
    # forms that used to read with the missing part taken as its default
    (lambda c, h, r0, r1: _text(c, *(line.rsplit(",", 2)[0] for line in (h, r0, r1))),
     "bad.csv:2: the header"),
    (lambda c, h, r0, r1: _text(h, r0, r1), "bad.csv:1: not a '# decnewton-trace"),
    (lambda c, h, r0, r1: _text(c.replace("status=converged", "status=bogus"), h, r0, r1), "bad.csv:1: not a"),
    (lambda c, h, r0, r1: _text(c, h, r0, "", r1), "bad.csv:4: 1 fields"),
    (lambda c, h, r0, r1: _text(c, h + ",dac_g", r0 + ",nan", r1 + ",nan"), "bad.csv:2: the header"),
    # cells that int() or float() reads as a value write_trace_csv writes otherwise
    *((lambda c, h, r0, r1, col=col, cell=cell: _text(c, h, _set(r0, col, cell), r1),
       f"bad.csv:3: bad {col} value {cell!r}")
      for col, cell in [("iter", "+1"), ("iter", "\u0661"), ("rel_err", "1_0.0"), ("rel_err", " 0.5"),
                        ("rel_err", "1E-3"), ("cons_x", "NaN")]),
], ids=["empty", "comment-only", "header-only", "cut-short-row", "renamed-column",
        "bad-float", "bad-int", "duplicated-column", "no-final-newline",
        "bits_cum-and-wall_time-cut", "no-comment-line", "status-bogus", "blank-line", "dac_g-column",
        "iter-plus", "iter-arabic-indic", "rel_err-underscore", "rel_err-space", "rel_err-capital-E",
        "cons_x-NaN"])
def test_cli_compare_rejects_malformed_traces(tmp_path, capsys, edit, where):
    rows = [RoundMetrics(iter=k, rel_err=0.5 ** k, bits_cum=1000 * k, wall_time=0.01) for k in (0, 1)]
    lines = write_trace(tmp_path / "written.csv", rows).read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text(edit(*lines))
    good = write_trace(tmp_path / "good.csv")
    assert main(["compare", str(good), str(bad), "--out", str(tmp_path / "cmp.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and where in err[0]
    assert not (tmp_path / "cmp.csv").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_cli_compare_rejects_a_bad_tol(tmp_path, capsys, tol):
    # these used to exit 0 with iters_to_nan or iters_to_-1 columns full of -1
    good = write_trace(tmp_path / "good.csv")
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(good), str(good), f"--tol={tol}", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "tol" in err[0]
    assert not out.exists()


def test_cli_compare_rejects_a_trace_cut_inside_its_last_field(tmp_path, capsys):
    # 5 bytes cut from the end fall inside the last row's wall_time, which
    # still parses as a float: only the missing final newline shows the cut
    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(QUAD_CFG)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    whole = tmp_path / "small-quad.csv"
    cut = tmp_path / "cut.csv"
    cut.write_bytes(whole.read_bytes()[:-5])
    last_line = len(cut.read_text().splitlines())
    assert float(cut.read_text().splitlines()[-1].split(",")[-1]) >= 0
    assert main(["compare", str(whole), str(cut), "--out", str(tmp_path / "cmp.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"cut.csv:{last_line}: no newline at the end" in err
    assert not (tmp_path / "cmp.csv").exists()


def test_cli_equivalence_preset(equivalence_preset):
    # the one tier-1 run of the preset, shared with test_acceptance::test_a2
    code, out, path, _ = equivalence_preset
    assert code == 0
    assert "max deviation" in out
    text = path.read_text().splitlines()
    assert text[0] == "iter,max_state_deviation"
    assert len(text) == 201
    assert all(float(line.split(",")[1]) <= harness.EQUIVALENCE_TOL for line in text[1:])
    # every deviation bit for bit, on this numpy/OpenBLAS (numpy 2 with OpenBLAS
    # 0.3.31, Haswell kernels) at one BLAS thread or two
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "52d5e931de5dea3155b977196d2d33ba5f9d613c85d1056ec465634c8ccc56fa")


def test_cli_caps_report(tmp_path, capsys):
    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(QUAD_CFG)
    assert main(["caps", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "gamma <=" in out
    assert "cg tol" in out


@pytest.mark.parametrize("preset", ["quad-kappa", "logit-topk"])
def test_cli_caps_on_a_network_that_averages_exactly(tmp_path, capsys, preset):
    # two nodes joined: W = J and sigma = 0.0. The report's log(sigma) raised "math
    # domain error" (quadratic), and sigma ** -(m - 1) an uncaught ZeroDivisionError
    # (logistic); it takes their limits at sigma = 0, and K is inf or NaN
    config = preset_configs(preset)[0]
    config = replace(config, problem=replace(config.problem, n=2), graph=replace(config.graph, tau=1.0))
    cfg_path = tmp_path / "two.cfg"
    cfg_path.write_text(render_config(config))
    assert main(["caps", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "  topology: sigma=0  m=15" in out[2] and out[-1] in ("  K  >= inf", "  K  >= nan")


def test_cli_caps_rejects_a_gt_config(tmp_path, capsys):
    cfg_path = tmp_path / "gt.cfg"
    cfg_path.write_text(GT_CFG)
    assert main(["caps", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: caps report applies to newton configs only"]


def test_cli_caps_applies_the_seed_variable(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(QUAD_CFG)
    assert main(["caps", "--config", str(cfg_path)]) == 0
    base = capsys.readouterr().out
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert main(["caps", "--config", str(cfg_path)]) == 0
    reseeded = capsys.readouterr().out
    assert reseeded != base
    assert reseeded == harness.caps_report(_reseeded(parse_config(QUAD_CFG), 99)) + "\n"
    # as for run, the variable would give every repetition one instance
    cfg_path.write_text(QUAD_CFG + "repetitions = 2\n")
    assert main(["caps", "--config", str(cfg_path)]) == 1
    assert "[output] repetitions" in capsys.readouterr().err


def test_trace_csv_round_trip_values(tmp_path):
    config = parse_config(QUAD_CFG)
    trace, _ = run_experiment(config)
    trace.label = "roundtrip"
    trace.fingerprint = "abc123"
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    loaded = read_trace_csv(path)
    assert loaded.fingerprint == "abc123"
    for a, b in zip(trace.rows, loaded.rows):
        for col in CSV_COLUMNS:
            va, vb = getattr(a, col), getattr(b, col)
            if isinstance(va, float) and np.isnan(va):
                assert np.isnan(vb)
            else:
                assert va == vb
