import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from loopflow.cli import build_parser, main
from loopflow.manifest import read_csv, read_manifest


def run(argv):
    return main(argv)


def out_args(tmp_path, name):
    return ["--out", str(tmp_path / name)]


def test_usage_errors_exit_1(capsys):
    assert run([]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["orbit-sweep", "--jobs", "0"]) == 1
    assert run(["metrics-compare", "--r-list", "2.0"]) == 1
    capsys.readouterr()


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


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("spectrum", "metrics-compare", "orbit-sweep", "ps-diagnose",
                 "gradient-check"):
        assert name in text


def test_module_entrypoint(tmp_path):
    out = tmp_path / "sub"
    proc = subprocess.run([sys.executable, "-m", "loopflow.cli", "spectrum",
                           "--modes", "4", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "spectrum.csv").exists()
