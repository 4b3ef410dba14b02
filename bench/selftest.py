"""The benchmark's own tests (about three minutes on two cores).

    python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the repository's test run does not
collect it.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from rep import SWEEP_CLASSIFICATIONS  # noqa: E402
from tracer import CALLABLES  # noqa: E402

FLOW_ONLY = ("flow.flow", "flow.ps_diagnostics", "flow.representation_coefficients")
MINIMAX = ("minimax.minimax_theta", "minimax.fiber_sup", "minimax.refine_critical",
           "flow.flow_to_critical", "flow.flow_velocity", "action.action", "action.gradient",
           "action.perturb", "action.gradient_norm", "hamiltonian.radial_H",
           "hamiltonian.smoothstep", "spectral.frame_of", "spectral.SpectralFrame.coefficients",
           "spectral.SpectralFrame.samples", "spectral.SpectralFrame.basis_samples",
           "geometry.LoopPath.content_key", "geometry.LoopPath.velocity_samples",
           "fourier.synthesize", "fourier.analyze")
# callables each workload must reach; zero calls means a binding was missed
EXPECTED_CALLS = {
    "sweep": tuple(c for c in CALLABLES if c not in FLOW_ONLY),
    "flow": FLOW_ONLY + ("flow.flow_velocity", "action.action", "action.gradient",
                         "action.perturb", "hamiltonian.radial_H", "hamiltonian.smoothstep",
                         "spectral.frame_of", "spectral.SpectralFrame.coefficients",
                         "spectral.SpectralFrame.samples", "geometry.LoopPath.content_key",
                         "geometry.LoopPath.velocity_samples", "fourier.synthesize",
                         "fourier.analyze"),
    "minimax_j64": MINIMAX,
}


def bench(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=200)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_every_declared_metric_is_printed():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = bench("flow", trace)
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared(kind)


@pytest.mark.parametrize("workload", sorted(EXPECTED_CALLS))
def test_traced_run_matches_untraced_and_reaches_every_callable(workload):
    # the traced repetition's output digests are compared with the
    # untraced one's; any difference makes the run incorrect
    result, lines = bench(workload, 1)
    assert not [line for line in lines if line.startswith("FAILED")]
    assert result["correct"] and result["failed"] == 0
    missed = [c for c in EXPECTED_CALLS[workload] if result["metrics"][f"{c}.calls"]["value"] <= 0]
    assert not missed


def _reference_rows():
    rows = []
    for r, cls in zip((0.05, 0.7, 1.35, 2.0), SWEEP_CLASSIFICATIONS):
        level, _ = checks.oracle_level(r)
        rows.append({"r": "%.17g" % r, "theta": "%.17g" % level, "classification": cls})
    return rows


def test_sweep_check_passes_oracle_rows():
    assert checks.check_sweep_rows(_reference_rows(), SWEEP_CLASSIFICATIONS) == [[]] * 4


def test_sweep_check_fails_a_wrong_theta():
    rows = _reference_rows()
    rows[2]["theta"] = "%.17g" % (float(rows[2]["theta"]) + 1e-8)
    errors = checks.check_sweep_rows(rows, SWEEP_CLASSIFICATIONS)
    assert errors[2] and not errors[0] and not errors[1]
    assert any("oracle" in e for e in errors[2])


def test_sweep_check_fails_a_wrong_kind_and_a_rise():
    rows = _reference_rows()
    rows[0]["classification"] = "on-hypersurface(sigma=-0.100000)"
    rows[3]["theta"] = "%.17g" % (float(rows[2]["theta"]) + 1e-6)
    errors = checks.check_sweep_rows(rows, None)
    assert any("oracle predicts fake-geodesic" in e for e in errors[0])
    assert any("rises" in e for e in errors[3])


def test_digests_compare_only_runs_of_the_same_sources(tmp_path, monkeypatch):
    import run
    monkeypatch.setattr(run, "WORK", tmp_path)
    first = [{"digests": {"inputs": {"out.csv": "aa"}}}]
    moved = [{"digests": {"inputs": {"out.csv": "bb"}}}]
    monkeypatch.setattr(run, "source_digest", lambda: "0" * 64)
    assert run.check_digests(first) == []
    assert run.check_digests(moved) == ["inputs: out.csv differ from an earlier run"]
    monkeypatch.setattr(run, "source_digest", lambda: "1" * 64)
    assert run.check_digests(moved) == []


def test_pacer_keeps_slice_time_apart_and_disarms():
    import signal
    import time

    import pacer
    with pacer.Pacer(interval=0.05) as paced:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
        inside = pacer.spent()
    assert len(paced.slices) >= 2
    assert inside == paced.spent >= sum(paced.slices) > 0.0
    assert paced.mean_slice() == sum(paced.slices) / len(paced.slices)
    assert pacer.spent() == 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert pacer.normalised(3.0, 2 * pacer.NOMINAL_SLICE_S) == 1.5


def test_a_unit_that_raises_counts_as_failed(monkeypatch, tmp_path):
    import rep
    rep._import_loopflow()
    cli, flow, minimax = (importlib.import_module(f"loopflow.{name}")
                          for name in ("cli", "flow", "minimax"))

    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(flow, "representation_coefficients", broken)
    monkeypatch.setattr(rep, "FLOW_TRAJECTORIES", 1)
    spec = sys.modules["loopflow"].default_spec()
    _, outcome = rep.flow_body((spec, sys.modules["loopflow"].FlowConfig.auto(spec)),
                               {"seed": 0})
    assert outcome["units"][0]["errors"] == ["raised RuntimeError: broken"]

    for module, name in ((cli, "orbit_sweep"), (minimax, "_sweep_task")):
        monkeypatch.setattr(module, name, getattr(module, name))   # undo sweep_body's wrappers
    monkeypatch.setattr(cli, "main", broken)
    _, outcome = rep.sweep_body(["orbit-sweep", "--out", str(tmp_path)], {})
    assert outcome["units"][0]["errors"] == ["raised RuntimeError: broken"]
