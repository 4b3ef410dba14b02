import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
from loopflow import cli
from loopflow.cli import build_parser, main
from loopflow.flow import FlowConfig
from loopflow.geometry import flat_torus, random_loop
from loopflow.hamiltonian import alpha_bound, default_spec, r0_threshold
from loopflow.manifest import read_csv, read_manifest
from loopflow.spectral import embedded_metric


def run(argv):
    return main(argv)


def out_args(tmp_path, name):
    return ["--out", str(tmp_path / name)]


def test_usage_errors_exit_1(capsys):
    assert run([]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["orbit-sweep", "--jobs", "0"]) == 1
    assert run(["spectrum", "--jobs", "2"]) == 1   # only orbit-sweep accepts --jobs
    assert run(["metrics-compare", "--r-list", "2.0"]) == 1
    for flag, value in (("--step", "nan"), ("--step", "inf"), ("--step", "0"),
                        ("--tol", "nan"), ("--tol", "-1e-5")):
        assert run(["gradient-check", flag, value]) == 1
    assert run(["gradient-check", "--seed", "-1"]) == 1
    assert "--seed: expected a non-negative integer" in capsys.readouterr().err
    for value in ("-1", "nan", "inf", "0"):
        assert run(["ps-diagnose", "--horizon", value]) == 1
    assert "--horizon: expected a positive finite number" in capsys.readouterr().err


def test_spectrum_outputs(tmp_path, capsys):
    out = tmp_path / "spec"
    assert run(["spectrum", "--modes", "8", "--out", str(out)]) == 0
    header, rows, digest = read_csv(out / "spectrum.csv")
    assert header == ["index", "lambda", "sup_norm"]
    assert len(rows) == 2 * (2 * 8 + 1)  # default torus loop, n = 2
    man = read_manifest(out / "manifest.json")
    assert man.command == "spectrum"
    assert man.sha256() == digest
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["manifest_sha256"] == digest
    assert payload["kernel_dim"] == 2
    np.testing.assert_allclose(payload["fitted"]["c"], 4.0 * math.pi ** 2, rtol=1e-10)
    assert "wrote" in capsys.readouterr().out


def test_spectrum_dense_matches_analytic(tmp_path, capsys):
    out_a, out_d = tmp_path / "a", tmp_path / "d"
    assert run(["spectrum", "--modes", "6", "--out", str(out_a)]) == 0
    assert run(["spectrum", "--modes", "6", "--dense", "--out", str(out_d)]) == 0
    _, rows_a, _ = read_csv(out_a / "spectrum.csv")
    _, rows_d, _ = read_csv(out_d / "spectrum.csv")
    lam_a = np.array([float(r[1]) for r in rows_a])
    lam_d = np.array([float(r[1]) for r in rows_d])
    np.testing.assert_allclose(lam_d, lam_a, rtol=1e-8, atol=1e-8)
    capsys.readouterr()


def test_rerun_is_byte_identical(tmp_path, capsys):
    out_1, out_2 = tmp_path / "one", tmp_path / "two"
    argv = ["metrics-compare", "--modes", "8", "--n-max", "3", "--seed", "11"]
    assert run(argv + ["--out", str(out_1)]) == 0
    assert run(argv + ["--out", str(out_2)]) == 0
    for name in ("metrics_compare.csv", "manifest.json"):
        assert (out_1 / name).read_bytes() == (out_2 / name).read_bytes()
    capsys.readouterr()


def test_metrics_compare_ratio_column(tmp_path, capsys):
    out = tmp_path / "mc"
    assert run(["metrics-compare", "--modes", "16", "--n-max", "4",
                "--r-list", "1.0", "--out", str(out)]) == 0
    _, rows, _ = read_csv(out / "metrics_compare.csv")
    for row in rows:
        n, r, cov, emb, ratio = (float(v) for v in row)
        np.testing.assert_allclose(cov, 1.0, atol=1e-10)
        np.testing.assert_allclose(ratio, (1.0 + (2.0 * math.pi * n) ** 2) ** r,
                                   rtol=1e-8)
    capsys.readouterr()


def test_metrics_compare_builds_one_ambient_form_per_loop(tmp_path, capsys, monkeypatch):
    loops = []

    def counting(loop, cutoff):
        loops.append(loop)
        return embedded_metric(loop, cutoff)

    monkeypatch.setattr(cli, "embedded_metric", counting)
    assert run(["metrics-compare", "--modes", "8", "--n-max", "3",
                "--r-list", "0,0.5,1", "--out", str(tmp_path / "mc")]) == 0
    _, rows, _ = read_csv(tmp_path / "mc" / "metrics_compare.csv")
    assert len(rows) == 9
    assert [loop.winding for loop in loops] == [(1,), (2,), (3,)]
    capsys.readouterr()


def test_orbit_sweep_single_point(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run(["orbit-sweep", "--modes", "16", "--r-min", "1.0", "--r-max", "1.0",
                "--r-count", "1", "--out", str(out)]) == 0
    header, rows, _ = read_csv(out / "orbit_sweep.csv")
    assert header == ["r", "theta", "classification", "action", "sigma",
                      "leaf_action", "grad_norm", "steps"]
    assert len(rows) == 1
    assert rows[0][2].startswith("on-hypersurface")
    payload = json.loads((out / "orbit_sweep.json").read_text())
    assert payload["hit_found"] is True
    assert payload["first_hit_r"] == 1.0
    np.testing.assert_allclose(payload["first_hit_leaf_action"], 0.251761699226,
                               atol=1e-4)
    capsys.readouterr()


def test_orbit_sweep_empty_grid(tmp_path, capsys):
    out = tmp_path / "empty"
    assert run(["orbit-sweep", "--r-count", "0", "--out", str(out)]) == 0
    _, rows, _ = read_csv(out / "orbit_sweep.csv")
    assert rows == []
    payload = json.loads((out / "orbit_sweep.json").read_text())
    assert payload["hit_found"] is False
    capsys.readouterr()


def test_orbit_sweep_without_a_hit_writes_strict_json(tmp_path, capsys):
    # no r of the grid hits the hypersurface: the first-hit keys are null,
    # and the file is RFC 8259 JSON, which has no NaN or Infinity
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    for name, argv in (("low", ["--r-min", "0.05", "--r-max", "0.1", "--r-count", "2"]),
                       ("empty", ["--r-count", "0"])):
        out = tmp_path / name
        assert run(["orbit-sweep", *argv, "--out", str(out)]) == 0
        payload = json.loads((out / "orbit_sweep.json").read_text(), parse_constant=refuse)
        assert payload["hit_found"] is False
        assert payload["first_hit_r"] is None and payload["first_hit_leaf_action"] is None
    capsys.readouterr()


def test_non_finite_json_value_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "r0_threshold", lambda spec: math.nan)
    assert run(["orbit-sweep", "--r-count", "0"] + out_args(tmp_path, "nan")) == 2
    assert "orbit_sweep.json: Out of range float values are not JSON compliant" in \
        capsys.readouterr().err
    # the payload is refused before any file is written: no JSON, and no
    # manifest or CSV whose hash names it
    for name in ("orbit_sweep.json", "manifest.json", "orbit_sweep.csv"):
        assert not (tmp_path / "nan" / name).exists(), name


def test_orbit_sweep_reads_the_loop_section(tmp_path, capsys):
    # a wiggled (1, 0) loop: its fiber maximizers must be descended to
    # reach the straight loop's level, so steps counts descent rounds
    loop = random_loop(flat_torus(2), (1, 0), 8, np.random.default_rng(3), amplitude=0.005)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loop": loop.to_json()}))
    out = tmp_path / "wiggled"
    assert run(["orbit-sweep", "--config", str(cfg), "--r-min", "1.0", "--r-max", "1.0",
                "--r-count", "1", "--out", str(out)]) == 0
    _, rows, _ = read_csv(out / "orbit_sweep.csv")
    assert int(rows[0][7]) > 0
    assert abs(float(rows[0][1]) - oracles.theta_oracle(1.0)) <= 1e-9
    assert read_manifest(out / "manifest.json").config["loop"] == loop.to_json()
    capsys.readouterr()


def test_orbit_sweep_does_not_depend_on_the_seed(tmp_path, capsys):
    # the fiber seeds are deterministic; only the manifest records --seed,
    # so only the trailing manifest-hash line may differ
    lines = []
    for seed in ("0", "7"):
        out = tmp_path / f"seed{seed}"
        assert run(["orbit-sweep", "--modes", "8", "--r-min", "0.05", "--r-max", "1.0",
                    "--r-count", "2", "--seed", seed, "--out", str(out)]) == 0
        lines.append((out / "orbit_sweep.csv").read_text().splitlines())
        assert read_manifest(out / "manifest.json").seed == int(seed)
    assert len(lines[0]) == 4
    assert lines[0][:-1] == lines[1][:-1]
    assert lines[0][-1] != lines[1][-1]
    capsys.readouterr()


def test_orbit_sweep_alpha_at_the_loop_speed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {"winding": [1, 1]}}))
    out = tmp_path / "diagonal"
    assert run(["orbit-sweep", "--modes", "8", "--config", str(cfg), "--r-count", "0",
                "--out", str(out)]) == 0
    payload = json.loads((out / "orbit_sweep.json").read_text())
    spec = default_spec(J=8)
    assert payload["alpha"] == alpha_bound(spec, math.sqrt(2.0))
    assert payload["leaf_bound"] == 2.0 * (payload["alpha"] + r0_threshold(spec))
    assert "loop" not in read_manifest(out / "manifest.json").config
    capsys.readouterr()


def test_orbit_sweep_bad_range_exits_2(tmp_path, capsys):
    out = tmp_path / "bad"
    code = run(["orbit-sweep", "--r-min", "-1.0", "--r-max", "1.0",
                "--r-count", "2", "--out", str(out)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_oversized_modes_exit_2_before_any_allocation(tmp_path, capsys):
    # one J = 100000 frame would already hold 3.2 MB of eigenvalues
    tracemalloc.start()
    try:
        code = run(["orbit-sweep", "--modes", "100000"] + out_args(tmp_path, "big"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1_000_000
    assert not (tmp_path / "big").exists()
    assert "512" in capsys.readouterr().err


def test_infinite_r_max_exits_2_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran on an infinite r")

    monkeypatch.setattr(cli, "orbit_sweep", no_sweep)
    code = run(["orbit-sweep", "--r-max", "inf", "--r-count", "2"] + out_args(tmp_path, "inf"))
    assert code == 2
    assert not (tmp_path / "inf").exists()
    assert "must be finite" in capsys.readouterr().err


def test_oversized_r_count_exits_2_before_any_allocation(tmp_path, capsys):
    # the grid alone would take 8 TB
    tracemalloc.start()
    try:
        code = run(["orbit-sweep", "--r-count", "1000000000000"] + out_args(tmp_path, "many"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1_000_000
    assert not (tmp_path / "many").exists()
    assert str(cli.MAX_R_COUNT) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ps-diagnose", "gradient-check"])
def test_count_above_the_cap_exits_2(command, tmp_path, capsys, monkeypatch):
    code = run([command, "--count", str(cli.MAX_COUNT + 1)] + out_args(tmp_path, "many"))
    assert code == 2
    assert not (tmp_path / "many").exists()
    assert f"count must lie in [1, {cli.MAX_COUNT}], got {cli.MAX_COUNT + 1}" in \
        capsys.readouterr().err
    # the cap itself is allowed
    monkeypatch.setattr(cli, "MAX_COUNT", 2)
    argv = [command, "--modes", "4", "--count"]
    extra = ["--horizon", "0.05"] if command == "ps-diagnose" else []
    assert run(argv + ["3"] + extra + out_args(tmp_path, "three")) == 2
    assert run(argv + ["2"] + extra + out_args(tmp_path, "two")) == 0
    _, rows, _ = read_csv(tmp_path / "two" / f"{command.replace('-', '_')}.csv")
    assert len(rows) == 2
    capsys.readouterr()


def test_n_max_above_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    code = run(["metrics-compare", "--n-max", str(cli.MAX_N_MAX + 1)] + out_args(tmp_path, "many"))
    assert code == 2
    assert not (tmp_path / "many").exists()
    assert f"n-max must lie in [1, {cli.MAX_N_MAX}], got {cli.MAX_N_MAX + 1}" in \
        capsys.readouterr().err
    # the cap itself is allowed
    monkeypatch.setattr(cli, "MAX_N_MAX", 2)
    argv = ["metrics-compare", "--modes", "4", "--r-list", "0.5", "--n-max"]
    assert run(argv + ["3"] + out_args(tmp_path, "three")) == 2
    assert run(argv + ["2"] + out_args(tmp_path, "two")) == 0
    _, rows, _ = read_csv(tmp_path / "two" / "metrics_compare.csv")
    assert [row[0] for row in rows] == ["1", "2"]
    capsys.readouterr()


def test_ps_diagnose_reports_each_trajectory_before_the_next_flow(tmp_path, capsys, monkeypatch):
    # one trajectory alive at a time: each is reported, then dropped,
    # before the next flow starts
    events, alive = [], []
    flow_, report_ = cli.flow, cli.ps_diagnostics

    def flowed(*args):
        assert all(ref() is None for ref in alive)
        events.append("flow")
        traj = flow_(*args)
        alive.append(weakref.ref(traj))
        return traj

    def reported(*args):
        events.append("report")
        return report_(*args)

    monkeypatch.setattr(cli, "flow", flowed)
    monkeypatch.setattr(cli, "ps_diagnostics", reported)
    assert run(["ps-diagnose", "--modes", "4", "--count", "3", "--horizon", "0.05"]
               + out_args(tmp_path, "ps")) == 0
    assert events == ["flow", "report"] * 3
    capsys.readouterr()


def test_non_finite_flow_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flow": {"dt": math.nan}}))  # json writes NaN and reads it
    code = run(["ps-diagnose", "--modes", "8", "--config", str(cfg)] + out_args(tmp_path, "nan"))
    assert code == 2
    assert not (tmp_path / "nan").exists()
    assert "flow dt must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flow", [{"epsilon": 0}, {"epsilon": -0.5},
                                  {"epsilon": 0, "gamma_prime": 9.0, "gamma_dprime": 11.0}])
def test_non_positive_epsilon_exits_2_before_the_radii(tmp_path, capsys, flow):
    # FlowConfig.auto divides by epsilon squared, so it checks epsilon first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flow": flow}))
    code = run(["spectrum", "--modes", "4", "--config", str(cfg)] + out_args(tmp_path, "eps"))
    assert code == 2
    assert not (tmp_path / "eps").exists()
    assert capsys.readouterr().err == "loopflow: error: epsilon and dt must be positive\n"


@pytest.mark.parametrize("command, overlay", [
    ("orbit-sweep", {"sweep": {"r_max": "2"}}),
    ("orbit-sweep", {"sweep": {"count": 2.5}}),
    ("orbit-sweep", {"sweep": {"winding": 3}}),
    ("ps-diagnose", {"flow": {"epsilon": "0.5"}}),
    ("ps-diagnose", {"flow": {"dt": "0.01"}}),
    ("spectrum", {"spec": {"r": None}}),
    ("spectrum", {"loop": {"winding": 3}}),
    ("spectrum", {"loop": 3}),
    ("spectrum", {"loop": {"manifold": "sphere"}}),
    ("spectrum", {"flow": {"dtt": 0.5}}),
    ("spectrum", {"flow": {"gamma_prime": 9.0}}),
    ("spectrum", {"spec": {"rhostar": 0.25}}),
    ("spectrum", {"sweep": {"rmax": 1.0}}),
    ("spectrum", {"loop": {"windng": [2, 0]}}),
    ("spectrum", {"flow": {"t0": 1.0}}),
    ("spectrum", {"flow": {"s": 0.6}}),
    ("spectrum", {"sepc": {"r": 0.5}}),
    ("spectrum", {"loop": {"base": {"a": 1}}}),
    ("spectrum", {"loop": {"cos": {"a": 1}}}),
    ("spectrum", {"loop": {"cos": [[0.01, 0.0]], "base": None}}),
    ("spectrum", {"loop": {"base": [True, 0.0]}}),
    ("spectrum", {"loop": {"sin": [[0.01, "0"]]}}),
])
def test_bad_config_value_types_exit_2(tmp_path, capsys, command, overlay):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overlay))
    code = run([command, "--config", str(cfg)] + out_args(tmp_path, "bad"))
    assert code == 2
    assert not (tmp_path / "bad").exists()
    err = capsys.readouterr().err
    assert err.startswith("loopflow: error:") and "Traceback" not in err


def test_manifest_flow_section_is_the_flow_config(tmp_path, capsys):
    out = tmp_path / "spec"
    assert run(["spectrum", "--out", str(out)]) == 0
    flow = read_manifest(out / "manifest.json").config["flow"]
    assert set(flow) == {f.name for f in dataclasses.fields(FlowConfig)}
    _, _, config = cli._settings(build_parser().parse_args(["spectrum"]))
    assert FlowConfig.from_json(flow) == config
    capsys.readouterr()


def test_config_pins_both_radii(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flow": {"gamma_prime": 9.0, "gamma_dprime": 11.0}}))
    out = tmp_path / "pinned"
    assert run(["spectrum", "--modes", "4", "--config", str(cfg), "--out", str(out)]) == 0
    flow = read_manifest(out / "manifest.json").config["flow"]
    assert (flow["gamma_prime"], flow["gamma_dprime"]) == (9.0, 11.0)
    capsys.readouterr()


def test_pinned_radii_replace_the_derived_ones_and_the_margin(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flow": {"gamma_prime": 9.0, "gamma_dprime": 11.0,
                                        "margin": 0.5, "dt": 0.02}}))
    _, spec, config = cli._settings(build_parser().parse_args(["spectrum", "--config", str(cfg)]))
    derived = FlowConfig.auto(spec, dt=0.02).to_json()
    assert config == FlowConfig.from_json({**derived, "gamma_prime": 9.0, "gamma_dprime": 11.0})


def test_missing_config_exits_2(tmp_path, capsys):
    code = run(["spectrum", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def test_invalid_spec_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"rho0": 0.5}}))
    code = run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_config_overlay_changes_loop(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loop": {"manifold": "circle", "winding": [2]}}))
    out = tmp_path / "circle"
    assert run(["spectrum", "--modes", "4", "--config", str(cfg),
                "--out", str(out)]) == 0
    _, rows, _ = read_csv(out / "spectrum.csv")
    assert len(rows) == 2 * 4 + 1  # n = 1 on the circle
    capsys.readouterr()


def test_ps_diagnose_clean_and_fixture(tmp_path, capsys):
    out = tmp_path / "ps"
    assert run(["ps-diagnose", "--modes", "8", "--count", "1",
                "--horizon", "0.2", "--out", str(out)]) == 0
    header, rows, _ = read_csv(out / "ps_diagnose.csv")
    assert rows[0][-1] == "0"
    bad = tmp_path / "psbad"
    code = run(["ps-diagnose", "--modes", "8", "--fixture", "divergent",
                "--out", str(bad)])
    assert code == 2
    _, rows, _ = read_csv(bad / "ps_diagnose.csv")
    assert rows[0][-1] == "1"
    err = capsys.readouterr().err
    assert "unbounded fiber growth" in err


def test_gradient_check_passes_and_fails_by_tol(tmp_path, capsys):
    out = tmp_path / "gc"
    assert run(["gradient-check", "--modes", "8", "--count", "5",
                "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "max relative error" in msg
    code = run(["gradient-check", "--modes", "8", "--count", "5",
                "--tol", "1e-18", "--out", str(tmp_path / "gc2")])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def test_gradient_check_fails_on_nan_error(tmp_path, capsys, monkeypatch):
    # a NaN error compares false with everything, max() included; it must fail
    monkeypatch.setattr(cli, "directional_derivative_check",
                        lambda x, spec, xi, eta, step: (math.nan, 1.0))
    assert run(["gradient-check", "--modes", "4", "--count", "3",
                "--out", str(tmp_path / "gc")]) == 2
    assert "case 0 relative error nan exceeds" in capsys.readouterr().err


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("spectrum", "metrics-compare", "orbit-sweep", "ps-diagnose",
                 "gradient-check"):
        assert name in text


def test_module_entrypoint(tmp_path):
    out = tmp_path / "sub"
    # the child imports the package under test, also when only pytest's
    # pythonpath setting put it on sys.path
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "loopflow.cli", "spectrum",
                           "--modes", "4", "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (out / "spectrum.csv").exists()
