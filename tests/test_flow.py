import dataclasses
import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import loopflow.action as action_mod
import loopflow.flow as flow_mod
from loopflow import fourier, spectral
from loopflow.action import (PhasePoint, action, derivative_coefficients, fiber_evaluation,
                             gradient_plan, horizontal_gradient, metric_gradient, move_series,
                             fiber_samples, perturb, random_phase_point,
                             rebuild_series, series_velocity, straight_orbit,
                             velocity_coefficients)
from loopflow.flow import (FlowConfig, divergent_fixture, flow, flow_to_critical,
                           flow_velocity, ps_diagnostics, representation_coefficients,
                           representation_defects, speed_cutoff)
from loopflow.geometry import LoopPath, embedded_circle, flat_torus, random_loop, straight_loop
from loopflow.hamiltonian import default_spec
from loopflow.spectral import FiberField, frame_of
from references import final_state, quadratic_zone_energy

BENCH = Path(__file__).resolve().parents[1] / "bench"


def high_mode_state(spec):
    """Large (1-s)-norm, small pointwise radius: lives on the zero branch."""
    loop = straight_loop(flat_torus(2), (1, 0), modes=spec.J)
    frame = frame_of(loop, spec.J)
    n, J = 2, spec.J
    c = np.zeros(frame.dim)
    k = n + (J - 1) * 2 * n
    c[k] = 0.12 * math.sqrt(2.0)          # cos mode J, coordinate 0
    c[k + n + 1] = 0.12 * math.sqrt(2.0)  # sin mode J, coordinate 1
    return PhasePoint(loop=loop, fiber=FiberField(frame, c))


MANUAL_CONFIG = FlowConfig(gamma=0.3, gamma_prime=0.5, gamma_dprime=2.0, epsilon=0.5,
                           dt=0.01, grad_tol=1e-6, t_max=50.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(gamma=1.0, gamma_prime=0.5, gamma_dprime=3.0,
                   epsilon=0.5, dt=0.01, grad_tol=1e-6, t_max=10.0)
    with pytest.raises(ValueError):
        # plateau has no room: gamma'' <= gamma' + 1
        FlowConfig(gamma=1.0, gamma_prime=2.0, gamma_dprime=2.5,
                   epsilon=0.5, dt=0.01, grad_tol=1e-6, t_max=10.0)


@pytest.mark.parametrize("field", ["gamma", "gamma_prime", "gamma_dprime", "epsilon",
                                   "dt", "grad_tol", "t_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(config, field, value):
    with pytest.raises(ValueError, match=f"flow {field} must be finite"):
        dataclasses.replace(config, **{field: value})


@pytest.mark.parametrize("field", ["gamma", "gamma_prime", "gamma_dprime", "epsilon",
                                   "dt", "grad_tol", "t_max"])
@pytest.mark.parametrize("value", [True, np.True_, "0.5", None])
def test_config_refuses_a_bool_or_a_non_number(config, field, value):
    # replace(config, dt=True) was accepted, kept True, and to_json wrote
    # "dt": true; from_json read true as 1.0
    with pytest.raises(ValueError, match=f"flow {field} must be a real number"):
        dataclasses.replace(config, **{field: value})
    with pytest.raises(ValueError, match=f"flow {field} must be a real number"):
        FlowConfig.from_json({**config.to_json(), field: value})


def test_config_auto_refuses_a_bool_and_stores_floats(spec):
    with pytest.raises(ValueError, match="flow dt must be a real number"):
        FlowConfig.auto(spec, dt=True)
    cfg = FlowConfig.auto(spec, gamma=np.int64(2), t_max=50)
    assert all(type(value) is float for value in cfg.to_json().values())
    assert cfg == FlowConfig.auto(spec, gamma=2.0)


def test_config_auto_and_json(spec):
    cfg = FlowConfig.auto(spec)
    # oracle: tests/oracles.py::alpha_oracle
    np.testing.assert_allclose(cfg.gamma_prime, 2.5 + 0.613162058098 / 0.25 + 1.0,
                               atol=1e-9)
    assert cfg.gamma_dprime == cfg.gamma_prime + 2.0
    again = FlowConfig.from_json(cfg.to_json())
    assert again == cfg
    assert FlowConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg


@pytest.mark.parametrize("epsilon, message", [
    (0.0, "epsilon and dt must be positive"), (-0.5, "epsilon and dt must be positive"),
    (math.nan, "flow epsilon must be finite"), (math.inf, "flow epsilon must be finite"),
    ("0.5", "flow epsilon must be a real number"), (True, "flow epsilon must be a real number")])
def test_config_auto_checks_epsilon_before_dividing(spec, epsilon, message):
    with pytest.raises(ValueError, match=message):
        FlowConfig.auto(spec, epsilon=epsilon)


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


@pytest.mark.parametrize("T", [math.nan, math.inf, -1.0, -1e-300])
def test_flow_rejects_a_non_finite_or_negative_horizon(T, spec, config, monkeypatch):
    def no_march(*args):
        raise AssertionError("the march started")

    monkeypatch.setattr(flow_mod, "_march", no_march)
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    with pytest.raises(ValueError, match="flow horizon T must be finite and non-negative"):
        flow(x, spec, config, T)


def test_flow_over_a_zero_horizon_records_its_start(spec, config):
    traj = flow(straight_orbit(flat_torus(2), (1, 0), spec), spec, config, 0.0)
    assert traj.times.tolist() == [0.0] and not traj.budget_exhausted


def with_nan_fiber(x):
    c = x.fiber.coefficients.copy()
    c[3] = np.nan
    return PhasePoint(loop=x.loop, fiber=FiberField(x.frame, c))


def test_flow_rejects_non_finite_start(small_spec, small_config, rng):
    x = random_phase_point(small_spec, rng)
    with pytest.raises(ValueError, match="flow start state has non-finite fiber"):
        flow(with_nan_fiber(x), small_spec, small_config, small_config.dt)


def test_flow_to_critical_rejects_non_finite_start(small_spec, small_config, rng):
    x = random_phase_point(small_spec, rng)
    cos = x.loop.cos_coeffs.copy()
    cos[0, 1] = np.inf
    bad = PhasePoint(loop=dataclasses.replace(x.loop, cos_coeffs=cos), fiber=x.fiber)
    with pytest.raises(ValueError, match="flow_to_critical start state has non-finite loop"):
        flow_to_critical(bad, small_spec, small_config)
    with pytest.raises(ValueError, match="non-finite fiber"):
        flow_to_critical(with_nan_fiber(x), small_spec, small_config)


def test_flow_states_share_one_frame(small_spec, small_config, rng):
    x = random_phase_point(small_spec, rng)
    entries = len(spectral._FRAME_CACHE)
    traj = flow(x, small_spec, small_config, 10 * small_config.dt)
    assert len(traj.states) >= 11
    assert len(spectral._FRAME_CACHE) == entries
    assert all(xk.frame is x.frame for xk in traj.states)


def test_stationary_point_stays(spec, config):
    loop = straight_loop(flat_torus(2), (0, 0), modes=spec.J)
    frame = frame_of(loop, spec.J)
    x = PhasePoint(loop=loop, fiber=FiberField(frame, np.zeros(frame.dim)))
    traj = flow(x, spec, config, 0.05)
    np.testing.assert_allclose(traj.actions, 0.0, atol=1e-14)
    np.testing.assert_allclose(traj.gradient_norms, 0.0, atol=1e-12)
    np.testing.assert_allclose(final_state(traj).fiber.coefficients, 0.0, atol=1e-12)


def test_descent_run_from_high_mode_state(spec):
    cfg = MANUAL_CONFIG
    x = high_mode_state(spec)
    assert x.frame.norm(1.0 - spec.s, x.fiber.coefficients) > cfg.gamma_prime
    m = 4 * spec.J + 1
    assert float(np.max(np.linalg.norm(x.frame.samples(x.fiber.coefficients, m), axis=1))) < \
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
    cfg = MANUAL_CONFIG
    x = high_mode_state(spec)
    out = flow_to_critical(x, spec, cfg, floor=-0.5)
    assert out.escaped and not out.converged
    assert out.action < -0.5


def test_divergent_fixture_is_flagged(spec, config):
    traj = divergent_fixture(spec, config)
    assert np.all(np.diff(traj.actions) < 0.0)
    report = ps_diagnostics(traj, spec, config)
    assert report.growth_flag
    q = report.quadratic_ratio
    assert q[-1] > 2.0 * q[0]


def test_deformation_report(spec):
    # deformation around the level 0 with eps = 0.05: the flow from a
    # high-mode state reaches action -0.05 within the horizon
    cfg = MANUAL_CONFIG
    traj = flow(high_mode_state(spec), spec, cfg, 2.0)
    hit = np.nonzero(traj.actions <= -0.05)[0]
    assert hit.size
    assert traj.times[hit[0]] < 2.0


def test_flow_and_flow_to_critical_share_the_step_budget(small_spec, small_config, rng,
                                                         monkeypatch):
    assert flow_mod.step_budget(small_config, 1.0) == 16 * 100 + 16
    monkeypatch.setattr(flow_mod, "step_budget", lambda config, T: 3)
    x = random_phase_point(small_spec, rng)
    traj = flow_mod.flow(x, small_spec, small_config, 1.0)
    assert len(traj.times) == 4 and traj.budget_exhausted
    search = flow_mod.flow_to_critical(x, small_spec, small_config)
    assert search.steps == 3 and search.budget_exhausted


def test_accepted_step_costs_four_evaluations(small_spec, small_config, rng, monkeypatch):
    # evaluations are stage-kernel calls (metric_gradient), certified or not
    calls = []
    built = []
    evaluation, build = flow_mod.metric_gradient, action_mod.perturb

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluation(*args, **kwargs)

    def counted_perturb(*args, **kwargs):
        built.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(flow_mod, "metric_gradient", counted)
    monkeypatch.setattr(action_mod, "perturb", counted_perturb)
    x = random_phase_point(small_spec, rng)
    traj = flow(x, small_spec, small_config, 0.1)
    steps = len(traj.times) - 1
    # no step was halved, so every step took the full dt
    np.testing.assert_allclose(np.diff(traj.times), small_config.dt, rtol=1e-12)
    assert steps == 10
    assert len(calls) == 1 + 4 * steps   # the start, then k2..k4 and the new state
    assert len(built) == 0               # the steps move arrays, not states
    calls.clear()
    flow_mod._step(small_spec, small_config, small_config.dt,
                   flow_velocity(x, small_spec, small_config), gradient_plan(x.frame, small_spec.s))
    assert len(calls) == 5


def test_march_builds_no_state(small_spec, small_config, rng, monkeypatch):
    # the march carries loop data and fiber arrays: no LoopPath, FiberField
    # or PhasePoint is built and perturb is not called until a state is read
    x = random_phase_point(small_spec, rng)
    built = []
    for cls in (LoopPath, FiberField, PhasePoint):
        monkeypatch.setattr(cls, "__post_init__", lambda self, f=cls.__post_init__:
                            built.append(type(self).__name__) or f(self))
    monkeypatch.setattr(action_mod, "perturb", lambda *a, **kw: built.append("perturb"))
    traj = flow(x, small_spec, small_config, 0.1)
    assert len(traj.times) == 11 and built == []
    states = traj.states
    assert states[0] is x
    assert sorted(built) == sorted(["LoopPath", "FiberField", "PhasePoint"] * 10)
    built.clear()
    assert final_state(traj).loop.modes == small_spec.J
    assert sorted(built) == ["FiberField", "LoopPath", "PhasePoint"]
    built.clear()
    search = flow_to_critical(x, small_spec, dataclasses.replace(small_config, t_max=0.05))
    assert search.steps == 5 and sorted(built) == ["FiberField", "LoopPath", "PhasePoint"]


def test_bench_check_accepts_a_flow_trajectory(spec, config):
    # the benchmark's flow workload reads a trajectory's states, times,
    # actions, gradient norms and budget flag through this check
    checks = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(checks)
    checks.loader.exec_module(module)
    x = random_phase_point(spec, np.random.default_rng([5, 0]))
    traj = flow(x, spec, config, 1.0)
    assert module.check_trajectory(traj, representation_coefficients(traj)) == []


def kinetic_point(spec, rng):
    # a random phase point whose fiber is shrunk and moved out to radius
    # about 3 on the kernel: every radius far inside the quadratic zone
    x = random_phase_point(spec, rng)
    c = 0.05 * x.fiber.coefficients
    c[:2] += (3.0, 0.0)
    return PhasePoint(loop=x.loop, fiber=FiberField(x.frame, c))


def ffts_of_an_accepted_step(x, spec, config, monkeypatch):
    """The FFT calls of one accepted step from x, whose start is certified
    in the quadratic zone or not as the second value says."""
    plan = gradient_plan(x.frame, spec.s)
    certified = quadratic_zone_energy(plan, x.fiber.coefficients, spec.rho1) is not None
    k1 = flow_velocity(x, spec, config)
    ffts = []
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, lambda *a, f=getattr(np.fft, name), **kw:
                            ffts.append(1) or f(*a, **kw))

    def no_gather(*args):
        raise AssertionError("derivative_coefficients called in a flow step")

    monkeypatch.setattr(action_mod, "derivative_coefficients", no_gather)
    monkeypatch.setattr(flow_mod, "derivative_coefficients", no_gather)
    dt, _ = flow_mod._step(spec, config, config.dt, k1, plan)
    monkeypatch.undo()
    assert dt == config.dt
    return len(ffts), certified


def test_accepted_step_makes_eight_ffts_and_no_gather(small_spec, small_config, rng, monkeypatch):
    # four kernel calls of one irfft and one rfft each from an uncertified
    # start; the stages take the t-derivative of the horizontal gradient as
    # a diagonal, not a gather
    x = random_phase_point(small_spec, rng)
    assert ffts_of_an_accepted_step(x, small_spec, small_config, monkeypatch) == (8, False)


def test_certified_step_makes_no_fft(small_spec, small_config, rng, monkeypatch):
    # far inside the quadratic zone every kernel call is certified
    x = kinetic_point(small_spec, rng)
    assert ffts_of_an_accepted_step(x, small_spec, small_config, monkeypatch) == (0, True)


def test_overflowing_stage_still_halves(small_spec, small_config, rng, monkeypatch):
    # a k1 whose vertical part throws the k2 stage to about 1e200 times the
    # fiber at every tried dt: the certificate leaves that stage to
    # fiber_evaluation, whose NaN makes the guard reject every try, so the
    # step halves until it gives up
    x = kinetic_point(small_spec, rng)
    plan = gradient_plan(x.frame, small_spec.s)
    k1 = flow_velocity(x, small_spec, small_config)
    c, dt = x.fiber.coefficients, small_config.dt
    direction = k1.direction.copy()
    direction[1] = -(c - 1e200 * c) / (0.5 * dt * k1.phi_tilde)
    k1 = k1._replace(direction=direction)
    tries = []
    rk4 = flow_mod._rk4
    monkeypatch.setattr(flow_mod, "_rk4", lambda *args: tries.append(1) or rk4(*args))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="halvings"):
            flow_mod._step(small_spec, small_config, dt, k1, plan)
    assert len(tries) == flow_mod.MAX_HALVINGS


def test_reused_k1_matches_recomputed_k1(small_spec, small_config, rng, monkeypatch):
    x = random_phase_point(small_spec, rng)
    reused = flow(x, small_spec, small_config, 0.2)
    rk4 = flow_mod._rk4

    def recomputing(spec, config, dt, k1, plan):
        xk = flow_mod._at(x.loop, x.frame, k1.state)
        return rk4(spec, config, dt, flow_mod.flow_velocity(xk, spec, config), plan)

    monkeypatch.setattr(flow_mod, "_rk4", recomputing)
    again = flow(x, small_spec, small_config, 0.2)
    np.testing.assert_array_equal(reused.times, again.times)
    for name in ("actions", "gradient_norms", "phi_tilde"):
        np.testing.assert_allclose(getattr(reused, name), getattr(again, name),
                                   rtol=0.0, atol=1e-13)


# The flow evaluates its RK4 stages and its trajectory diagnostics on
# frame-coefficient arrays.  The references below compute the same
# things one object at a time: every stage a PhasePoint built by
# perturb, and j*qdot(0) by sampling the loop velocity and analyzing it.

def reference_rk4(x, spec, config, dt, k1):
    # each stage's horizontal gradient formed from its fiber, and the four
    # combined
    plan = gradient_plan(x.frame, spec.s)

    def stage(h, k):
        xk = perturb(x, h, xi=-k.phi_tilde * horizontal_gradient(plan, k.state[1]),
                     eta=k.phi_tilde * k.direction[1])
        return flow_velocity(xk, spec, config)

    k2 = stage(0.5 * dt, k1)
    k3 = stage(0.5 * dt, k2)
    k4 = stage(dt, k3)
    ch, cv = (-(k1.phi_tilde * g1 + 2.0 * k2.phi_tilde * g2 + 2.0 * k3.phi_tilde * g3
                + k4.phi_tilde * g4) / 6.0
              for g1, g2, g3, g4 in ([horizontal_gradient(plan, k.state[1])
                                      for k in (k1, k2, k3, k4)],
                                     [-k.direction[1] for k in (k1, k2, k3, k4)]))
    return perturb(x, dt, xi=ch, eta=cv)


def reference_representation(traj):
    x0 = traj.states[0]
    frame = x0.frame
    m = fourier.default_samples(frame.cutoff)
    qd0 = frame.coefficients(x0.loop.velocity_samples(m))
    jq0 = (1.0 + frame.eigenvalues) ** (traj.s - 1.0) * qd0
    w = (1.0 + frame.eigenvalues) ** (1.0 - traj.s)
    defects, rows = [], []
    for k, xk in enumerate(traj.states):
        a_k, b_k = float(traj.ab[k, 0]), float(traj.ab[k, 1])
        defect = xk.fiber.coefficients - a_k * jq0 - b_k * x0.fiber.coefficients
        defects.append(defect)
        rows.append((a_k, b_k, float(np.sqrt(np.sum(w * defect ** 2)))))
    return defects, rows


def reference_ps(traj):
    v1, v2, v3, kpar, ktil = [], [], [], [], []
    for xk in traj.states:
        frame, n, lam = xk.frame, xk.loop.manifold.dim, xk.frame.eigenvalues
        pc = xk.fiber.coefficients
        diff = velocity_coefficients(xk.loop, frame) - pc
        v1.append(np.sqrt(np.sum((1.0 + lam) ** (traj.s - 1.0) * diff ** 2)))
        v2.append(float(np.sum(pc ** 2)) / (1.0 + frame.norm(1.0 - traj.s, pc)))
        pdot = derivative_coefficients(frame, pc)
        v3.append(np.sqrt(np.sum((1.0 + lam) ** (-traj.s) * pdot ** 2)))
        kpar.append(np.sqrt(np.sum(pc[:n] ** 2)))
        tail = pc.copy()
        tail[:n] = 0.0
        ktil.append(np.sqrt(np.sum((1.0 + lam) ** (1.0 - traj.s) * tail ** 2)))
    v2 = np.asarray(v2)
    mid = len(v2) // 2
    growth = bool(len(v2) >= 4 and v2[-1] > v2[0] + 1e-9 and v2[-1] > 1.5 * v2[mid] + 1e-9)
    return [np.asarray(v) for v in (v1, v2, v3, kpar, ktil)], growth


def assert_close(got, want, tol=1e-13):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol * scale)


MODELS = [(flat_torus(2), (1, 0)), (flat_torus(2), (1, 1)), (embedded_circle(), (1,))]


def model_point(spec, model, modes, rng):
    manifold, winding = MODELS[model]
    loop = random_loop(manifold, winding, modes, rng, amplitude=0.05)
    frame = frame_of(loop, spec.J)
    c = 0.3 * rng.standard_normal(frame.dim) / (1.0 + frame.eigenvalues) ** 0.75
    c[:manifold.dim] += 0.8 * loop.drift / np.linalg.norm(loop.drift)
    return PhasePoint(loop=loop, fiber=FiberField(frame, c))


@pytest.mark.parametrize("J", [8, 32])
@pytest.mark.parametrize("model", range(len(MODELS)))
def test_stage_velocity_coefficients_match_perturbed_loops(J, model):
    spec = default_spec(J=J)
    rng = np.random.default_rng([5, J, model])
    for modes in (0, J // 2, J):
        x = model_point(spec, model, modes, rng)
        frame = x.frame
        qd = velocity_coefficients(x.loop, frame)
        for h in (0.005, 0.05, 0.7):
            xi = rng.standard_normal(frame.dim) / (1.0 + frame.eigenvalues) ** 0.5
            moved = perturb(x, h, xi=xi)
            want = velocity_coefficients(moved.loop, frame)
            got = qd + h * derivative_coefficients(frame, xi)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# The march on the state [qd, c] written out on its two rows: the loop
# velocity qd and the fiber c stepped as separate (D,) arrays, each
# stage's kernel read off metric_gradient and speed_cutoff, its
# direction [rate * c, -grad_v].  The march must give the same bits.

class RowVelocity(NamedTuple):
    phi_tilde: float
    dq: np.ndarray
    dc: np.ndarray
    action: float
    grad_norm: float
    qd: np.ndarray
    c: np.ndarray


def row_velocity(plan, spec, config, qd, c):
    a, gv, gn, fiber_norm = metric_gradient(plan, qd, c, spec)
    phi_tilde = speed_cutoff(config, fiber_norm) / math.sqrt(1.0 + gn * gn)
    return RowVelocity(phi_tilde, plan.rate * c, -gv, a, gn, qd, c)


def row_rk4(plan, spec, config, dt, k1):
    qd, c = k1.qd, k1.c

    def stage(h, k):
        return row_velocity(plan, spec, config, qd + (h * k.phi_tilde) * k.dq,
                            c + (h * k.phi_tilde) * k.dc)

    k2 = stage(0.5 * dt, k1)
    k3 = stage(0.5 * dt, k2)
    k4 = stage(dt, k3)
    return [row + dt * ((k1.phi_tilde * g1 + (2.0 * k2.phi_tilde) * g2 + (2.0 * k3.phi_tilde) * g3
                         + k4.phi_tilde * g4) / 6.0)
            for row, g1, g2, g3, g4 in ((qd, k1.dq, k2.dq, k3.dq, k4.dq),
                                        (c, k1.dc, k2.dc, k3.dc, k4.dc))]


def row_step(plan, spec, config, dt, k1):
    """(dt used, new velocity, RK4 tries) of one accepted step on the rows."""
    for tries in range(1, flow_mod.MAX_HALVINGS + 1):
        kn = row_velocity(plan, spec, config, *row_rk4(plan, spec, config, dt, k1))
        if kn.action <= k1.action + flow_mod.DESCENT_TOL:
            return dt, kn, tries
        dt *= 0.5
    raise ArithmeticError("row step rejected")


def row_start(x, spec, config, plan):
    return row_velocity(plan, spec, config, velocity_coefficients(x.loop, x.frame),
                        x.fiber.coefficients)


def row_state(x0, k):
    # the PhasePoint of the row velocity k on x0's trajectory
    return flow_mod._at(x0.loop, x0.frame, (k.qd, k.c))


@pytest.mark.parametrize("J", [8, 32])
@pytest.mark.parametrize("model", range(len(MODELS)))
def test_rk4_matches_stages_built_by_perturb(J, model):
    spec = default_spec(J=J)
    config = FlowConfig.auto(spec)
    rng = np.random.default_rng([6, J, model])
    for modes in (0, J // 2, J):
        x = model_point(spec, model, modes, rng)
        k1 = flow_velocity(x, spec, config)
        plan = gradient_plan(x.frame, spec.s)
        for dt in (config.dt, 0.1):
            stepped = flow_mod._rk4(spec, config, dt, k1, plan)
            assert stepped.shape == (2, x.frame.dim)
            rows = row_rk4(plan, spec, config, dt, row_start(x, spec, config, plan))
            assert [a.tobytes() for a in stepped] == [a.tobytes() for a in rows]
            got = flow_mod._at(x.loop, x.frame, stepped)
            want = reference_rk4(x, spec, config, dt, k1)
            assert got.frame is x.frame and got.loop.winding == x.loop.winding
            for a, b in ((got.fiber.coefficients, want.fiber.coefficients),
                         (got.loop.cos_coeffs, want.loop.cos_coeffs),
                         (got.loop.sin_coeffs, want.loop.sin_coeffs),
                         (got.loop.base, want.loop.base)):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13)


# The stepping before the stages were fused, kept as the reference of
# the march: a velocity of -phi~ grad and frame norms, the gradient
# written out from fiber_evaluation and derivative_coefficients, and each
# stage at qd + h d/dt(k.horizontal) through derivative_coefficients.

class ReferenceVelocity(NamedTuple):
    horizontal: np.ndarray
    vertical: np.ndarray
    grad_norm: float
    phi_tilde: float
    action: float
    loop_velocity: np.ndarray


def reference_velocity(x, spec, config, qd, c):
    frame = x.frame
    a, dv, _ = fiber_evaluation(frame, qd, c, spec, fiber_samples(frame, c))
    gh = -frame.weights(-spec.s) * derivative_coefficients(frame, c)
    gv = frame.weights(spec.s - 1.0) * dv
    gn = math.sqrt(frame.norm(spec.s, gh) ** 2 + frame.norm(1.0 - spec.s, gv) ** 2)
    phi_tilde = speed_cutoff(config, frame.norm(1.0 - spec.s, c)) / math.sqrt(1.0 + gn * gn)
    return ReferenceVelocity(-phi_tilde * gh, -phi_tilde * gv, gn, phi_tilde, a, qd)


def reference_state_velocity(x, spec, config):
    return reference_velocity(x, spec, config, velocity_coefficients(x.loop, x.frame),
                              x.fiber.coefficients)


def reference_step(x, spec, config, dt, k1):
    """(new state, dt used, its velocity, RK4 tries) of one accepted step."""
    frame, qd, c = x.frame, k1.loop_velocity, x.fiber.coefficients

    def stage(h, k):
        return reference_velocity(x, spec, config,
                                  qd + h * derivative_coefficients(frame, k.horizontal),
                                  c + h * k.vertical)

    for tries in range(1, flow_mod.MAX_HALVINGS + 1):
        k2 = stage(0.5 * dt, k1)
        k3 = stage(0.5 * dt, k2)
        k4 = stage(dt, k3)
        ch, cv = ((u1 + 2.0 * u2 + 2.0 * u3 + u4) / 6.0
                  for u1, u2, u3, u4 in zip(k1[:2], k2[:2], k3[:2], k4[:2]))
        xn = perturb(x, dt, xi=ch, eta=cv)
        kn = reference_state_velocity(xn, spec, config)
        if kn.action <= k1.action + flow_mod.DESCENT_TOL:
            return xn, dt, kn, tries
        dt *= 0.5
    raise ArithmeticError("reference step rejected")


def reference_flow(x, spec, config, T):
    """(times, states, velocities, RK4 tries) of the flow over time T."""
    k = reference_state_velocity(x, spec, config)
    t, times, states, velocities, tries = 0.0, [0.0], [x], [k], 0
    while t < T - 1e-12:
        dt = config.dt if T - t >= config.dt - 1e-12 else T - t
        x, dt_used, k, n = reference_step(x, spec, config, dt, k)
        t += dt_used
        tries += n
        times.append(t)
        states.append(x)
        velocities.append(k)
    return times, states, velocities, tries


# The march as it was before it stepped the state [qd, c] (former_march):
# loop data L moved by action.move_series along the horizontal gradient of
# the RK4 combination of the stage fibers, and each new state's loop
# velocity read back from L by series_velocity.

def former_rk4(plan, spec, config, dt, k1, L):
    qd, c = k1.qd, k1.c

    def stage(h, k):
        hp = h * k.phi_tilde
        return row_velocity(plan, spec, config, qd + hp * (plan.rate * k.c), c - hp * -k.dc)

    k2 = stage(0.5 * dt, k1)
    k3 = stage(0.5 * dt, k2)
    k4 = stage(dt, k3)
    cc, cv = ((k1.phi_tilde * g1 + (2.0 * k2.phi_tilde) * g2 + (2.0 * k3.phi_tilde) * g3
               + k4.phi_tilde * g4) / -6.0
              for g1, g2, g3, g4 in ((k1.c, k2.c, k3.c, k4.c), (-k1.dc, -k2.dc, -k3.dc, -k4.dc)))
    return move_series(plan.frame, L, dt, horizontal_gradient(plan, cc)), c + dt * cv


def former_march(x, spec, config, T):
    """(times, states, velocities, RK4 tries) of the flow over time T as the
    march stepped it before: L by move_series, qd read back from L."""
    plan = gradient_plan(x.frame, spec.s)
    drift = x.loop.drift
    L, k = x.loop.series(spec.J), row_start(x, spec, config, plan)
    t, times, states, velocities, tries = 0.0, [0.0], [x], [k], 0
    while t < T - 1e-12:
        dt = config.dt if T - t >= config.dt - 1e-12 else T - t
        for n in range(1, flow_mod.MAX_HALVINGS + 1):
            Ln, cn = former_rk4(plan, spec, config, dt, k, L)
            kn = row_velocity(plan, spec, config, series_velocity(x.frame, drift, Ln), cn)
            if kn.action <= k.action + flow_mod.DESCENT_TOL:
                break
            dt *= 0.5
        L, k = Ln, kn
        t += dt
        tries += n
        times.append(t)
        states.append(PhasePoint(loop=x.loop.with_series(L), fiber=FiberField(x.frame, k.c)))
        velocities.append(k)
    return times, states, velocities, tries


def row_flow(x, spec, config, T):
    """(times, velocities) of the flow over time T stepped on the rows."""
    plan = gradient_plan(x.frame, spec.s)
    k = row_start(x, spec, config, plan)
    t, times, velocities = 0.0, [0.0], [k]
    while t < T - 1e-12:
        dt = config.dt if T - t >= config.dt - 1e-12 else T - t
        dt_used, k, _ = row_step(plan, spec, config, dt, k)
        t += dt_used
        times.append(t)
        velocities.append(k)
    return times, velocities


def ramp_point(spec, config, model, rng):
    # a model point whose fiber (1-s)-norm sits mid-way up the cutoff ramp
    x = model_point(spec, model, spec.J, rng)
    c = x.fiber.coefficients
    target = 0.5 * (config.gamma_prime + 1.0 + config.gamma_dprime)
    c = c * (target / x.frame.norm(1.0 - spec.s, c))
    return PhasePoint(loop=x.loop, fiber=FiberField(x.frame, c))


def assert_trajectory_close(traj, times, states, velocities, tries, ref_tries):
    # the same times and RK4 tries; states and records within 1e-13
    assert traj.times.tolist() == times
    assert tries == ref_tries
    for got, want in zip(traj.states, states, strict=True):
        for a, b in ((got.fiber.coefficients, want.fiber.coefficients),
                     (got.loop.cos_coeffs, want.loop.cos_coeffs),
                     (got.loop.sin_coeffs, want.loop.sin_coeffs), (got.loop.base, want.loop.base)):
            assert_close(a, b)
    for name, field in (("actions", "action"), ("gradient_norms", "grad_norm"),
                        ("phi_tilde", "phi_tilde")):
        assert_close(getattr(traj, name), [getattr(k, field) for k in velocities])


def assert_march_matches_reference(x, spec, config, T, monkeypatch):
    tries = []
    rk4 = flow_mod._rk4
    monkeypatch.setattr(flow_mod, "_rk4", lambda *args: tries.append(1) or rk4(*args))
    traj = flow(x, spec, config, T)
    assert_trajectory_close(traj, *reference_flow(x, spec, config, T), len(tries))
    assert_trajectory_close(traj, *former_march(x, spec, config, T), len(tries))
    assert_march_matches_row_stepping(traj, x, spec, config, T)
    return traj, len(tries)


def assert_march_matches_row_stepping(traj, x, spec, config, T):
    # bit for bit: the rows and states, their records and (a, b), and the
    # diagnostics
    times, velocities = row_flow(x, spec, config, T)
    states = [x] + [row_state(x, k) for k in velocities[1:]]
    assert traj.times.tolist() == times
    qd, c = (np.stack([getattr(k, row) for k in velocities]) for row in ("qd", "c"))
    assert traj.velocities.tobytes() == qd.tobytes() and traj.fibers.tobytes() == c.tobytes()
    got = traj.states
    assert len(got) == len(states)
    assert all(state_key(a) == state_key(b) and a.loop.base == b.loop.base
               for a, b in zip(got, states))
    for name, field in (("actions", "action"), ("gradient_norms", "grad_norm"),
                        ("phi_tilde", "phi_tilde")):
        assert getattr(traj, name).tobytes() == \
            np.array([getattr(k, field) for k in velocities]).tobytes()
    phi = np.array([k.phi_tilde for k in velocities])
    integral = np.concatenate([[0.0], np.cumsum(np.diff(times) * 0.5 * (phi[1:] + phi[:-1]))])
    ab = np.column_stack([-np.sinh(integral), np.cosh(integral)])
    assert traj.ab.tobytes() == ab.tobytes()
    want = SimpleNamespace(states=states, ab=ab, s=spec.s)
    report = ps_diagnostics(traj, spec, config)
    per_state = reference_ps_arrays(want)
    for a, b in zip((report.quadratic_ratio, report.derivative_norm, report.kernel_parallel,
                     report.kernel_residual), per_state[1:]):
        assert a.tobytes() == b.tobytes()
    # the vertical defect of the rows' own qd; the states rebuilt from it
    # give qd back within roundoff
    assert report.vertical_defect.tobytes() == x.frame.norm(spec.s - 1.0, qd - c).tobytes()
    np.testing.assert_allclose(report.vertical_defect, per_state[0], rtol=1e-15, atol=0.0)
    assert representation_coefficients(traj).tobytes() == stacked_representation(want).tobytes()


@pytest.mark.parametrize("J", [8, 32])
@pytest.mark.parametrize("model", range(len(MODELS)))
def test_fused_march_matches_reference_stepping(J, model, monkeypatch):
    spec = default_spec(J=J)
    config = FlowConfig.auto(spec)
    rng = np.random.default_rng([8, J, model])
    for modes in (0, J // 2, J):
        x = model_point(spec, model, modes, rng)
        traj, _ = assert_march_matches_reference(x, spec, config, 5 * config.dt, monkeypatch)
        assert len(traj.times) == 6
    # a start on the cutoff ramp gamma' + 1 < |p|_{1-s} < gamma''
    x = ramp_point(spec, config, model, rng)
    traj, _ = assert_march_matches_reference(x, spec, config, 5 * config.dt, monkeypatch)
    ramp = [speed_cutoff(config, xk.frame.norm(1.0 - spec.s, xk.fiber.coefficients))
            for xk in traj.states]
    assert all(0.0 < cut < 1.0 for cut in ramp)


def test_fused_march_matches_reference_on_a_halved_step(monkeypatch):
    spec = default_spec(J=32)
    config = dataclasses.replace(FlowConfig.auto(spec), dt=0.2)
    x = model_point(spec, 2, spec.J, np.random.default_rng([7, 32, 2]))
    traj, tries = assert_march_matches_reference(x, spec, config, 1.0, monkeypatch)
    assert tries > len(traj.times) - 1   # some step was halved
    assert np.diff(traj.times).min() < config.dt


def stacked_representation(traj):
    # representation_coefficients as it was, over a list of states
    x0 = traj.states[0]
    frame = x0.frame
    jq0 = frame.weights(traj.s - 1.0) * velocity_coefficients(x0.loop, frame)
    fibers = np.stack([x.fiber.coefficients for x in traj.states])
    defects = fibers - traj.ab[:, :1] * jq0 - traj.ab[:, 1:] * x0.fiber.coefficients
    return np.column_stack([traj.ab, frame.norm(1.0 - traj.s, defects)])


def reference_ps_arrays(traj):
    # ps_diagnostics' five arrays, with one velocity_coefficients call per state
    x0 = traj.states[0]
    frame, s, n = x0.frame, traj.s, x0.frame.n
    p = np.stack([x.fiber.coefficients for x in traj.states])
    qd = np.stack([velocity_coefficients(x.loop, frame) for x in traj.states])
    tail = p.copy()
    tail[:, :n] = 0.0
    return (frame.norm(s - 1.0, qd - p), np.sum(p ** 2, axis=1) / (1.0 + frame.norm(1.0 - s, p)),
            frame.norm(-s, derivative_coefficients(frame, p)),
            np.sqrt(np.sum(p[:, :n] ** 2, axis=1)), frame.norm(1.0 - s, tail))


@pytest.fixture(scope="module")
def diagnosed_trajectories(spec, config):
    high = flow(high_mode_state(spec), spec, MANUAL_CONFIG, 3.0)
    rand = flow(random_phase_point(spec, np.random.default_rng(77)), spec, config, 1.0)
    # a start loop with no modes, whose flowed states carry J
    loop = straight_loop(flat_torus(2), (1, 0), modes=0)
    frame = frame_of(loop, spec.J)
    c = 0.3 * np.random.default_rng(6).standard_normal(frame.dim) / frame.weights(0.75)
    c[:2] += loop.drift
    bare = flow(PhasePoint(loop=loop, fiber=FiberField(frame, c)), spec, config, 0.5)
    assert bare.states[0].loop.modes == 0 and final_state(bare).loop.modes == spec.J
    return [high, rand, divergent_fixture(spec, config), bare]


@pytest.mark.parametrize("which", range(4))
def test_trajectory_diagnostics_match_per_state_references(which, diagnosed_trajectories,
                                                           spec, config):
    traj = diagnosed_trajectories[which]
    x0 = traj.states[0]
    defects, rows = reference_representation(traj)
    got_defects = representation_defects(traj)
    assert got_defects.shape == (len(traj.states), x0.frame.dim)
    assert_close(got_defects, defects)
    assert_close(representation_coefficients(traj), rows)
    report = ps_diagnostics(traj, spec, config)
    arrays, growth = reference_ps(traj)
    got_arrays = (report.vertical_defect, report.quadratic_ratio, report.derivative_norm,
                  report.kernel_parallel, report.kernel_residual)
    per_state = reference_ps_arrays(traj)
    for got, want in zip(got_arrays, arrays):
        assert_close(got, want)
    # the fiber terms give the bytes of the per-state stack; the vertical
    # defect reads the march's loop velocities, which the per-state
    # states give back only up to the roundoff of rebuilding their loop data
    for got, want_bytes in zip(got_arrays[1:], per_state[1:]):
        assert got.tobytes() == want_bytes.tobytes()
    assert report.vertical_defect.tobytes() == \
        x0.frame.norm(spec.s - 1.0, traj.velocities - traj.fibers).tobytes()
    np.testing.assert_allclose(report.vertical_defect, per_state[0], rtol=1e-15, atol=0.0)
    assert report.growth_flag is growth
    assert growth is (which == 2)


# flow and flow_to_critical step through one shared driver.  The
# reference is flow_to_critical as it was with a stepping loop of its
# own, whose horizon test read t >= t_max.

def reference_flow_to_critical(x, spec, config, floor=None):
    t = 0.0
    steps = 0
    consec = 0
    max_steps = flow_mod.step_budget(config, config.t_max)
    plan = gradient_plan(x.frame, spec.s)
    k = row_start(x, spec, config, plan)
    while True:
        gn, a = k.grad_norm, k.action
        state = x if steps == 0 else row_state(x, k)
        if gn < config.grad_tol:
            consec += 1
            if consec >= flow_mod.SUSTAIN_STEPS or gn <= 0.01 * config.grad_tol:
                return state, True, False, steps, t, gn, a, False
        else:
            consec = 0
        if floor is not None and a < floor:
            return state, False, True, steps, t, gn, a, False
        if t >= config.t_max or steps >= max_steps:
            return state, False, False, steps, t, gn, a, True
        dt_used, k, _ = row_step(plan, spec, config, min(config.dt, config.t_max - t), k)
        t += dt_used
        steps += 1


def state_key(x):
    return x.loop.content_key(), x.fiber.coefficients.tobytes()


@pytest.mark.parametrize("stop", ["floor", "step_budget"])
def test_flow_to_critical_stops_on_a_flow_trajectory(stop, small_spec, small_config, rng,
                                                     monkeypatch):
    # the flow over the same horizon t_max passes through the state
    # flow_to_critical stops at
    if stop == "floor":
        x, floor = high_mode_state(small_spec), -0.5
        config = dataclasses.replace(MANUAL_CONFIG, t_max=0.2)
    else:
        monkeypatch.setattr(flow_mod, "step_budget", lambda config, T: 5)
        x, config, floor = random_phase_point(small_spec, rng), small_config, None
    search = flow_mod.flow_to_critical(x, small_spec, config, floor=floor)
    assert (search.escaped, search.budget_exhausted) == (stop == "floor", stop == "step_budget")
    assert search.steps > 0 and not search.converged
    state, *outcome = reference_flow_to_critical(x, small_spec, config, floor=floor)
    assert state_key(search.state) == state_key(state)
    assert [search.converged, search.escaped, search.steps, search.time, search.grad_norm,
            search.action, search.budget_exhausted] == outcome
    traj = flow_mod.flow(x, small_spec, config, config.t_max)
    k = search.steps
    assert traj.budget_exhausted == search.budget_exhausted
    assert len(traj.times) > k and traj.times[k] == search.time
    assert state_key(traj.states[k]) == state_key(search.state)
    assert traj.actions[k] == search.action and traj.gradient_norms[k] == search.grad_norm


def test_flow_to_a_reached_time_retraces_its_steps(small_spec):
    # 12 steps of 0.01 sum to 0.11999999999999998, an ulp short of 0.12:
    # a flow over that time must still take 12 full steps, not shrink the
    # last one to the rounded remainder
    x = high_mode_state(small_spec)
    search = flow_mod.flow_to_critical(x, small_spec, MANUAL_CONFIG, floor=-0.5)
    assert search.escaped and search.steps == 12
    assert search.time == 0.11999999999999998
    traj = flow_mod.flow(x, small_spec, MANUAL_CONFIG, search.time)
    assert not traj.budget_exhausted
    assert len(traj.times) == search.steps + 1 and traj.times[-1] == search.time
    assert state_key(final_state(traj)) == state_key(search.state)


# The march steps loop velocities, and the loop data come back once per
# trajectory through action.rebuild_series.

@pytest.mark.parametrize("model", range(len(MODELS)))
def test_rebuild_series_inverts_series_velocity(model):
    # L0 and a loop L of L0's class with base - sum_j cos_j kept, as
    # move_series keeps it: the series rebuilt from series_velocity(L) is
    # L within 1e-15 relative, base included, and qd = qd0 gives L0's bits
    spec = default_spec(J=32)
    J = spec.J
    manifold, winding = MODELS[model]
    rng = np.random.default_rng([9, model])
    n = manifold.dim
    for start_modes in (0, J // 2, J):
        start = random_loop(manifold, winding, start_modes, rng)
        frame = frame_of(start, J)
        L0, qd0 = start.series(J), velocity_coefficients(start, frame)
        assert rebuild_series(frame, L0, qd0, qd0).tobytes() == L0.tobytes()
        for modes in (0, J // 2, J):
            rows = np.zeros((J, 2, n))
            other = random_loop(manifold, winding, J, rng).series(J)
            rows[:modes] = other[n:].reshape(J, 2, n)[:modes]
            L = np.concatenate([L0[:n] + rows[:, 0].sum(axis=0)
                                - L0[n:].reshape(J, 2, n)[:, 0].sum(axis=0), rows.ravel()])
            qd = series_velocity(frame, start.drift, L)
            got = rebuild_series(frame, L0, qd0, qd)
            assert np.max(np.abs(got - L)) <= 1e-15 * np.max(np.abs(L))
            stack = rebuild_series(frame, L0, qd0, np.stack([qd0, qd]))
            assert stack[0].tobytes() == L0.tobytes() and stack[1].tobytes() == got.tobytes()


def test_march_work_on_the_benchmark_flows(monkeypatch):
    # the benchmark's flow inputs (default spec, 40 flows of T = 1 from
    # default_rng([1, k])): 16 040 stage evaluations, 4000 steps, none
    # halved, 13 295 FFTs; no step moves loop data, reads a loop velocity
    # off it or gathers a horizontal gradient: series_velocity runs once
    # per flow, for the start's velocity, and no flow rebuilds loop data;
    # ps_diagnostics reads the recorded velocities with no series_velocity
    spec = default_spec()
    config = FlowConfig.auto(spec)
    counts = {name: 0 for name in ("metric_gradient", "_rk4", "fft", "move_series",
                                   "series_velocity", "horizontal_gradient", "rebuild_series")}

    def counted(module, name, key=None):
        fn = getattr(module, name)
        key = key or name

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for name in ("metric_gradient", "_rk4", "rebuild_series"):
        counted(flow_mod, name)
    for name in ("move_series", "series_velocity", "horizontal_gradient"):
        counted(action_mod, name)
    for name in ("rfft", "irfft"):
        counted(spectral.np.fft, name, "fft")
    steps, trajectories = 0, []
    for k in range(40):
        traj = flow(random_phase_point(spec, np.random.default_rng([1, k])), spec, config, 1.0)
        steps += len(traj.times) - 1
        trajectories.append(traj)
    assert steps == 4000 and counts["_rk4"] == steps   # no step halved
    assert counts["metric_gradient"] == 16040 and counts["fft"] == 13295
    assert counts["move_series"] == counts["horizontal_gradient"] == 0
    assert counts["series_velocity"] == 40 and counts["rebuild_series"] == 0
    for traj in trajectories:
        ps_diagnostics(traj, spec, config)
    assert counts["series_velocity"] == 40


def test_trajectory_keeps_no_state_stack(small_spec, small_config, rng):
    # the recorded velocities and fibers own their data: no view keeps the
    # march's states alive
    traj = flow(random_phase_point(small_spec, rng), small_spec, small_config, 0.1)
    assert traj.fibers.base is None and traj.velocities.base is None
    assert traj.fibers.shape == traj.velocities.shape == (11, traj.x0.frame.dim)


def test_trajectory_keeps_the_march_velocities(small_spec, small_config, rng, monkeypatch):
    # traj.velocities holds each marched state's qd byte for byte, as
    # _march yields it, and the states rebuild their loop data in one
    # rebuild_series call, whose rows give the states' bits
    x = random_phase_point(small_spec, rng)
    yielded = [k.state[0].copy() for _, _, k in flow_mod._march(x, small_spec, small_config, 0.1)]
    traj = flow(x, small_spec, small_config, 0.1)
    assert traj.velocities.tobytes() == np.stack(yielded).tobytes()
    calls = []
    monkeypatch.setattr(flow_mod, "rebuild_series",
                        lambda *a, f=flow_mod.rebuild_series: calls.append(a[-1].shape) or f(*a))
    states = traj.states
    assert calls == [(10, x.frame.dim)]
    for k, state in enumerate(states[1:], start=1):
        assert state_key(state) == state_key(flow_mod._at(x.loop, x.frame,
                                                          (traj.velocities[k], traj.fibers[k])))
