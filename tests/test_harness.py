import os
from dataclasses import replace

import numpy as np
import pytest

from decnewton.cli import main
from decnewton.diagnostics import CSV_COLUMNS
from decnewton.harness import (
    SEED_ENV_VAR,
    compare,
    config_fingerprint,
    list_presets,
    parse_config,
    preset_configs,
    read_trace_csv,
    render_config,
    run_experiment,
    write_trace_csv,
)

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


def strip_wall_time(text: str) -> str:
    lines = text.splitlines()
    out = [lines[0]]
    idx = lines[1].split(",").index("wall_time")
    for line in lines[1:]:
        parts = line.split(",")
        if parts[0] != "iter":
            parts[idx] = "_"
        out.append(",".join(parts))
    return "\n".join(out)


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
    with pytest.raises(ValueError, match="schedule"):
        parse_config(QUAD_CFG.replace("ramp(0.05, 1.1, 1.0)", "warp(1)"))
    with pytest.raises(ValueError, match=r"\[output\] repetitions"):
        parse_config(QUAD_CFG + "repetitions = 0\n")


def test_growing_m_round_trip():
    config = parse_config(QUAD_CFG.replace("m = 4", "m = k"))
    assert config.algorithm.m == "k"
    assert parse_config(render_config(config)) == config


def test_run_experiment_writes_csv(tmp_path):
    config = parse_config(QUAD_CFG)
    trace, path = run_experiment(config, out_dir=str(tmp_path))
    assert trace.status == "converged"
    text = open(path).read()
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
    assert strip_wall_time(open(p1).read()) == strip_wall_time(open(p2).read())


def test_gt_experiment_with_tuned_alpha(tmp_path):
    config = parse_config(GT_CFG)
    trace, path = run_experiment(config, out_dir=str(tmp_path))
    assert trace.status == "converged"
    assert trace.final_rel_err <= 1e-8


def test_seed_env_override(tmp_path, monkeypatch):
    config = parse_config(QUAD_CFG)
    base, _ = run_experiment(config, out_dir=str(tmp_path / "x"))
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    other, _ = run_experiment(config, out_dir=str(tmp_path / "y"))
    assert base.rows[-1].rel_err != other.rows[-1].rel_err  # different instance


def test_compare_summary(tmp_path):
    config = parse_config(QUAD_CFG)
    _, p1 = run_experiment(config, out_dir=str(tmp_path / "r1"))
    gt_config = parse_config(GT_CFG)
    _, p2 = run_experiment(gt_config, out_dir=str(tmp_path / "r2"))
    out = tmp_path / "summary.csv"
    rows = compare([p1, p2], out, tol=1e-6)
    assert len(rows) == 2
    text = open(out).read().splitlines()
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
    cfg = QUAD_CFG + "repetitions = 2\n"
    cfg_path = tmp_path / "rep.cfg"
    cfg_path.write_text(cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "small-quad-rep0.csv").exists()
    assert (tmp_path / "small-quad-rep1.csv").exists()


def test_cli_run_rejects_repetitions_below_one(tmp_path, capsys):
    cfg_path = tmp_path / "rep0.cfg"
    cfg_path.write_text(QUAD_CFG + "repetitions = 0\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repetitions" in err
    assert not list(tmp_path.glob("*.csv"))


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


def test_kappa_1e4_shifted_instance_converges():
    # quad-k1e4-m15 with both seeds shifted by 89 meets nearly indefinite
    # tracked Hessians around iteration 50. An iterative solve that stops with
    # a large residual there (CG reached 34 * ||g_i||) makes the run diverge;
    # the Cholesky check rejects those systems and the nodes fall back.
    config = next(c for c in preset_configs("quad-kappa") if c.label == "quad-k1e4-m15")
    config = replace(config, problem=replace(config.problem, seed=config.problem.seed + 89),
                     graph=replace(config.graph, seed=config.graph.seed + 89))
    trace, _ = run_experiment(config)
    assert trace.status == "converged"
    assert trace.final_rel_err <= config.algorithm.stop_tol
    assert sum(row.fallback_count for row in trace.rows) > 0
    assert all(row.cg_max_rel_residual <= row.c_k for row in trace.rows[1:])


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


@pytest.mark.parametrize("text,where", [
    ("", "bad.csv"),
    ("# decnewton-trace label=x status=converged\n", "bad.csv"),
    ("# decnewton-trace label=x\niter,rel_err\n", "bad.csv"),
    ("# decnewton-trace label=x\niter,rel_err,bits_cum\n0,1.0,0\n1,0.5\n", "bad.csv:4"),
    ("iter,rel_error\n0,1.0\n", "bad.csv:1"),
    ("iter,rel_err\n0,1.0\n\n1,abc\n", "bad.csv:4"),
    ("iter,rel_err\n0.5,1.0\n", "bad.csv:2"),
], ids=["empty", "comment-only", "header-only", "cut-short-row", "renamed-column",
        "bad-float", "bad-int"])
def test_cli_compare_rejects_malformed_traces(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = tmp_path / "good.csv"
    good.write_text("iter,rel_err\n0,1.0\n")
    assert main(["compare", str(good), str(bad), "--out", str(tmp_path / "cmp.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err


def test_cli_equivalence_preset(tmp_path, capsys):
    assert main(["preset", "alg-equivalence", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "max deviation" in out
    text = (tmp_path / "alg-equivalence.csv").read_text().splitlines()
    assert text[0] == "iter,max_state_deviation"
    assert len(text) == 201
    assert all(float(line.split(",")[1]) <= 1e-9 for line in text[1:])


def test_cli_caps_report(tmp_path, capsys):
    cfg_path = tmp_path / "quad.cfg"
    cfg_path.write_text(QUAD_CFG)
    assert main(["caps", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "gamma <=" in out
    assert "cg tol" in out


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
