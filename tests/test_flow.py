import importlib
import json
import math

import numpy as np
import pytest

import oracles
from loopflow.action import PhasePoint, action, gradient_norm, straight_orbit
from loopflow.flow import (FlowConfig, config_to_json, deformation_report,
                           divergent_fixture, flow, flow_step, flow_to_critical,
                           kolmogorov_width_proxy, ps_diagnostics,
                           representation_coefficients, representation_defects,
                           speed_cutoff)
from loopflow.geometry import flat_torus, straight_loop
from loopflow.spectral import FiberField, frame_of


def high_mode_state(spec):
    """Large (1-s)-norm, small pointwise radius: lives on the zero branch."""
    loop = straight_loop(flat_torus(2), (1, 0), modes=spec.J)
    frame = frame_of(loop, spec.J)
    n, J = 2, spec.J
    c = np.zeros(frame.dim)
    k = n + (J - 1) * 2 * n
    c[k] = 0.12 * math.sqrt(2.0)          # cos mode J, coordinate 0
    c[k + n + 1] = 0.12 * math.sqrt(2.0)  # sin mode J, coordinate 1
    return PhasePoint(loop=loop, fiber=FiberField(frame, c), s=spec.s)


def manual_config(spec):
    alpha = oracles.alpha_oracle()
    return FlowConfig(s=spec.s, J=spec.J, gamma=0.3, gamma_prime=0.5,
                      gamma_dprime=2.0, epsilon=0.5, t0=alpha / 0.25 + 1.0,
                      dt=0.01, grad_tol=1e-6, t_max=50.0)


def test_config_validation(spec):
    with pytest.raises(ValueError):
        FlowConfig(s=spec.s, J=8, gamma=1.0, gamma_prime=0.5, gamma_dprime=3.0,
                   epsilon=0.5, t0=1.0, dt=0.01, grad_tol=1e-6, t_max=10.0)
    with pytest.raises(ValueError):
        # plateau has no room: gamma'' <= gamma' + 1
        FlowConfig(s=spec.s, J=8, gamma=1.0, gamma_prime=2.0, gamma_dprime=2.5,
                   epsilon=0.5, t0=1.0, dt=0.01, grad_tol=1e-6, t_max=10.0)
    with pytest.raises(ValueError):
        FlowConfig(s=spec.s, J=8, gamma=1.0, gamma_prime=2.0, gamma_dprime=3.5,
                   epsilon=0.5, t0=-1.0, dt=0.01, grad_tol=1e-6, t_max=10.0)


def test_config_auto_and_json(spec):
    cfg = FlowConfig.auto(spec)
    # oracle: tests/oracles.py::alpha_oracle
    np.testing.assert_allclose(cfg.gamma_prime, 2.5 + 0.613162058098 / 0.25 + 1.0,
                               atol=1e-9)
    np.testing.assert_allclose(cfg.t0, cfg.gamma_prime - cfg.gamma, atol=1e-12)
    assert cfg.gamma_dprime == cfg.gamma_prime + 2.0
    again = FlowConfig.from_json(cfg.to_json())
    assert again == cfg
    payload = json.loads(config_to_json(cfg))
    assert payload["J"] == spec.J


def test_speed_cutoff_profile(config):
    assert speed_cutoff(config, 0.0) == 1.0
    assert speed_cutoff(config, config.gamma_prime + 1.0) == 1.0
    assert speed_cutoff(config, config.gamma_dprime) == 0.0
    mid = 0.5 * (config.gamma_prime + 1.0 + config.gamma_dprime)
    v = speed_cutoff(config, mid)
    assert 0.0 < v < 1.0
    grid = np.linspace(0.0, config.gamma_dprime + 1.0, 200)
    vals = [speed_cutoff(config, g) for g in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_flow_horizon_guard(spec, config):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    with pytest.raises(ValueError):
        flow(x, spec, config, config.t_max + 1.0)


def test_stationary_point_stays(spec, config):
    loop = straight_loop(flat_torus(2), (0, 0), modes=spec.J)
    frame = frame_of(loop, spec.J)
    x = PhasePoint(loop=loop, fiber=FiberField(frame, np.zeros(frame.dim)), s=spec.s)
    traj = flow(x, spec, config, 0.05)
    np.testing.assert_allclose(traj.actions, 0.0, atol=1e-14)
    np.testing.assert_allclose(traj.gradient_norms, 0.0, atol=1e-12)
    np.testing.assert_allclose(traj.final.fiber.coefficients, 0.0, atol=1e-12)


def test_descent_run_from_high_mode_state(spec):
    cfg = manual_config(spec)
    x = high_mode_state(spec)
    assert x.fiber.norm_r(1.0 - spec.s) > cfg.gamma_prime
    m = 4 * spec.J + 1
    assert float(np.max(np.linalg.norm(x.fiber.samples(m), axis=1))) < \
        spec.rho_star * math.exp(-spec.delta)
    np.testing.assert_allclose(action(x, spec), 0.0, atol=1e-14)
    traj = flow(x, spec, cfg, 3.0)
    assert not traj.budget_exhausted
    assert np.all(np.diff(traj.actions) <= 1e-12)
    assert traj.actions[1] < -1e-4   # leaves the zero level at once
    assert traj.actions[-1] < -3.0
    # representation pair identities
    rep = representation_coefficients(traj)
    a0, b0, k0 = rep[0]
    assert (a0, b0) == (0.0, 1.0)
    assert k0 <= 1e-12
    for a, b, _ in rep:
        assert a <= 1e-12 and b >= 1.0 - 1e-12
        np.testing.assert_allclose(b * b - a * a, 1.0, atol=1e-10)
    # width proxy of the defect family: monotone, zero past the cutoff
    widths = kolmogorov_width_proxy(traj.states[0].frame, spec.s,
                                    representation_defects(traj))
    assert np.all(np.diff(widths) <= 1e-12)
    assert widths[-1] == 0.0
    # healthy trajectory: no unbounded-fiber flag
    report = ps_diagnostics(traj, spec, cfg)
    assert not report.growth_flag
    bounds = report.bounds()
    assert set(bounds) == {"vertical_defect", "quadratic_ratio", "derivative_norm",
                           "kernel_parallel", "kernel_residual", "growth_flag"}
    assert all(np.isfinite(v) for k, v in bounds.items() if k != "growth_flag")


def test_flow_to_critical_accepts_exact_landing(spec, config):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    out = flow_to_critical(x, spec, config)
    assert out.converged and not out.escaped
    assert out.steps == 0
    assert out.grad_norm <= 0.01 * config.grad_tol
    np.testing.assert_allclose(out.action, 0.5 - spec.r, atol=1e-12)


def test_flow_to_critical_floor(spec):
    cfg = manual_config(spec)
    x = high_mode_state(spec)
    out = flow_to_critical(x, spec, cfg, floor=-0.5)
    assert out.escaped and not out.converged
    assert out.action < -0.5


def test_flow_step_descends(spec, config, rng):
    from loopflow.action import random_phase_point
    x = random_phase_point(spec, rng)
    a0 = action(x, spec)
    y = flow_step(x, spec, config)
    assert action(y, spec) <= a0 + 1e-12


def test_divergent_fixture_is_flagged(spec, config):
    traj = divergent_fixture(spec, config)
    assert np.all(np.diff(traj.actions) < 0.0)
    report = ps_diagnostics(traj, spec, config)
    assert report.growth_flag
    q = report.quadratic_ratio
    assert q[-1] > 2.0 * q[0]


def test_deformation_report(spec):
    cfg = manual_config(spec)
    out = deformation_report([high_mode_state(spec)], spec, cfg,
                             level=0.0, eps=0.05, horizon=2.0)
    assert out["all_reached"]
    assert out["times"][0] < 2.0
    assert out["eps"] == 0.05


def test_accepted_step_costs_four_evaluations(small_spec, small_config, rng, monkeypatch):
    from loopflow.action import random_phase_point
    flow_mod = importlib.import_module("loopflow.flow")  # the package rebinds .flow
    calls = []
    evaluate = flow_mod.evaluate

    def counted(x, spec):
        calls.append(1)
        return evaluate(x, spec)

    monkeypatch.setattr(flow_mod, "evaluate", counted)
    x = random_phase_point(small_spec, rng)
    traj = flow(x, small_spec, small_config, 0.1)
    steps = len(traj.times) - 1
    # no step was halved, so every step took the full dt
    np.testing.assert_allclose(np.diff(traj.times), small_config.dt, rtol=1e-12)
    assert steps == 10
    assert len(calls) == 1 + 4 * steps   # the start, then k2..k4 and the new state
    calls.clear()
    flow_step(x, small_spec, small_config)
    assert len(calls) == 5


def test_reused_k1_matches_recomputed_k1(small_spec, small_config, rng, monkeypatch):
    from loopflow.action import random_phase_point
    flow_mod = importlib.import_module("loopflow.flow")  # the package rebinds .flow
    x = random_phase_point(small_spec, rng)
    reused = flow(x, small_spec, small_config, 0.2)
    rk4 = flow_mod._rk4

    def recomputing(x, spec, config, dt, k1):
        return rk4(x, spec, config, dt, flow_mod.flow_velocity(x, spec, config))

    monkeypatch.setattr(flow_mod, "_rk4", recomputing)
    again = flow(x, small_spec, small_config, 0.2)
    np.testing.assert_array_equal(reused.times, again.times)
    for name in ("actions", "gradient_norms", "phi_tilde"):
        np.testing.assert_allclose(getattr(reused, name), getattr(again, name),
                                   rtol=0.0, atol=1e-13)
