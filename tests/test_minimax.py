import math

import numpy as np
import pytest

import oracles
from loopflow.action import PhasePoint, action, gradient_norm, perturb, straight_orbit
from loopflow.flow import FlowConfig
from loopflow.geometry import flat_torus, straight_loop
from loopflow.hamiltonian import default_spec, radial_H
from loopflow.minimax import (composite_descent, default_family, fiber_hessian, fiber_sup,
                              minimax_theta, orbit_sweep, pool_size, refine_critical,
                              symplectic_action)
from loopflow.spectral import FiberField, frame_of


def test_symplectic_action_closed_forms(spec):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    np.testing.assert_allclose(symplectic_action(x), 1.0, atol=1e-12)
    y = straight_orbit(flat_torus(2), (1, 0), spec, momentum=(0.3, 0.0))
    np.testing.assert_allclose(symplectic_action(y), 0.3, atol=1e-12)
    z = straight_orbit(flat_torus(2), (2, 1), spec, momentum=(0.1, 0.4))
    np.testing.assert_allclose(symplectic_action(z), 0.6, atol=1e-12)


def test_fiber_sup_finds_the_shelf_maximizer(spec, config):
    loop = straight_loop(flat_torus(2), (1, 0))
    results = fiber_sup(loop, spec, config)
    best = results[0]
    assert best.converged
    # oracle: tests/oracles.py::shelf_value / sigma_landing
    np.testing.assert_allclose(best.action, 0.249619705159, atol=1e-6)
    x = PhasePoint(loop=loop, fiber=best.field, s=spec.s)
    from loopflow.action import classify_critical
    cls = classify_critical(x, spec)
    assert cls.kind == "on-hypersurface"
    np.testing.assert_allclose(cls.sigma, -0.175299472533, atol=1e-6)
    # the constrained leaf action is the landing radius rho* e^sigma
    np.testing.assert_allclose(symplectic_action(x),
                               spec.rho_star * math.exp(-0.175299472533), atol=1e-6)


def test_fiber_sup_below_crossover_prefers_fake_branch(config):
    from loopflow.hamiltonian import default_spec
    spec_low = default_spec(r=0.25)
    cfg = FlowConfig.auto(spec_low)
    loop = straight_loop(flat_torus(2), (1, 0))
    best = fiber_sup(loop, spec_low, cfg)[0]
    assert best.converged
    # oracle: tests/oracles.py::fake_value (crossover R* sits near 0.2574)
    np.testing.assert_allclose(best.action, oracles.fake_value(0.25), atol=1e-6)


def test_fiber_sup_rejects_non_finite_loop_and_seed(small_spec, small_config):
    x = straight_orbit(flat_torus(2), (1, 0), small_spec)
    bad = x.fiber.coefficients.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError, match="fiber_sup seed 1 has non-finite fiber"):
        fiber_sup(x.loop, small_spec, small_config, seeds=[x.fiber.coefficients, bad])
    loop = straight_loop(flat_torus(2), (1, 0), base=(np.nan, 0.0))
    with pytest.raises(ValueError, match="fiber_sup loop has non-finite loop"):
        fiber_sup(loop, small_spec, small_config)


def test_fiber_sup_local_seed_stays_in_quadratic_zone(spec, config):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    res = fiber_sup(x.loop, spec, config, seeds=[x.fiber.coefficients])
    assert len(res) == 1
    assert res[0].converged
    np.testing.assert_allclose(res[0].action, 0.5 - spec.r, atol=1e-10)
    np.testing.assert_allclose(res[0].field.coefficients, x.fiber.coefficients,
                               atol=1e-8)


def test_fiber_sup_respects_the_ball(spec, config):
    loop = straight_loop(flat_torus(2), (1, 0))
    for res in fiber_sup(loop, spec, config, starts=4, iters=60):
        assert res.field.norm_r(1.0 - spec.s) <= config.gamma_dprime + 1e-9


def test_refine_critical_never_worsens(spec, rng):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    from loopflow.action import random_direction
    xi, eta = random_direction(x, rng)
    y = perturb(x, 1e-5, xi=xi, eta=eta)
    z = refine_critical(y, spec, max_nfev=200)
    assert gradient_norm(z, spec) <= gradient_norm(y, spec)


def test_minimax_theta_default_family(spec, config):
    rec = minimax_theta(default_family(spec), spec, config)
    np.testing.assert_allclose(rec.theta, 0.249619705159, atol=1e-6)
    assert rec.classification.kind == "on-hypersurface"
    assert rec.confident
    assert rec.converged
    assert rec.theta >= 0.0
    np.testing.assert_allclose(rec.leaf_action, rec.symplectic)
    np.testing.assert_allclose(rec.leaf_action,
                               spec.rho_star * math.exp(rec.sigma), atol=1e-8)
    assert rec.grad_norm <= 1e-6
    row = rec.to_row()
    assert row["r"] == spec.r and row["theta"] == rec.theta


def test_composite_descent_reconverges(small_spec, small_config):
    # perturb the closed geodesic, then descend the fiber-sup envelope back
    xg = straight_orbit(flat_torus(2), (1, 0), small_spec)
    rng = np.random.default_rng(5)
    from loopflow.action import random_direction
    xi, eta = random_direction(xg, rng)
    xp = perturb(xg, 0.1, xi=xi, eta=eta)
    assert action(xp, small_spec) != pytest.approx(0.5 - small_spec.r, abs=1e-6)
    xc, ok = composite_descent(xp, small_spec, small_config)
    assert ok
    np.testing.assert_allclose(action(xc, small_spec), 0.5 - small_spec.r, atol=1e-6)
    assert gradient_norm(xc, small_spec) <= 0.01 * small_config.grad_tol


def test_orbit_sweep_serial_parallel_identical(config):
    from loopflow.hamiltonian import default_spec
    spec16 = default_spec(J=16)
    cfg = FlowConfig.auto(spec16)
    grid = [0.5, 1.0]
    rec_a, sum_a = orbit_sweep(spec16, grid, cfg, jobs=1, seed=3)
    rec_b, sum_b = orbit_sweep(spec16, grid, cfg, jobs=2, seed=3)
    assert len(rec_a) == len(rec_b) == 2
    for ra, rb in zip(rec_a, rec_b):
        assert ra.r == rb.r
        assert ra.theta == rb.theta
        assert ra.classification.kind == rb.classification.kind
        np.testing.assert_allclose(ra.witness.fiber.coefficients,
                                   rb.witness.fiber.coefficients)
    assert sum_a == sum_b
    assert sum_a.hit_found
    assert sum_a.first_hit_r == 0.5
    np.testing.assert_allclose(sum_a.leaf_bound,
                               2.0 * (oracles.alpha_oracle() + oracles.threshold_r0()),
                               atol=1e-8)
    assert sum_a.budget_flagged == ()
    # thetas decrease in r and match the oracle level
    assert rec_a[0].theta > rec_a[1].theta
    for rec in rec_a:
        np.testing.assert_allclose(rec.theta, oracles.theta_oracle(rec.r), atol=1e-6)


@pytest.mark.parametrize("J", [8, 32])
def test_fiber_hessian_matches_dense_einsum(J):
    spec = default_spec(J=J)
    rng = np.random.default_rng(J)
    loop = straight_loop(flat_torus(2), (1, 0))
    frame = frame_of(loop, J)
    m = 4 * J + 1
    basis = frame.basis_samples(m)
    for rho0 in (0.22, spec.rho_star, 0.6, 1.0):
        c = 0.02 * rng.standard_normal(frame.dim) / (1.0 + frame.eigenvalues) ** 0.5
        c[0] += rho0
        # reference: pointwise fiber Hessian from per-order radial_H, then
        # the dense three-operand einsum over the sampled eigenfields
        p = frame.samples(c, m)
        rho = np.sqrt(np.sum(p ** 2, axis=1))
        ratio = radial_H(spec, rho, order=1) / rho
        phat = p / rho[:, None]
        w = (ratio[:, None, None] * np.eye(2)[None, :, :]
             + (radial_H(spec, rho, order=2) - ratio)[:, None, None]
             * phat[:, :, None] * phat[:, None, :])
        ref = np.einsum("kti,tij,ltj->kl", basis, w, basis) / m
        hess = fiber_hessian(frame, basis, c, spec)
        assert np.max(np.abs(hess - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pool_size_clamps_to_points_and_cpus():
    assert pool_size(4, 20, 2) == 2
    assert pool_size(8, 3, 16) == 3
    assert pool_size(1, 20, 8) == 1
    assert pool_size(1000, 20, 4) == 4
    assert pool_size(2, 0, 4) == 1
    assert pool_size(3, 5, 1) == 1
