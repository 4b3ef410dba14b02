"""Acceptance gate: one test per criterion, pinned tolerances.

Each test prints a single [criterion NN] line on success; a failing
assert surfaces as the usual pytest failure for that criterion.  The
heavyweight sweep fixture is shared by the two criteria that read it.
"""

import math

import numpy as np
import pytest

import oracles
from loopflow.action import (action, derivative_coefficients,
                             directional_derivative_check, gradient_norm,
                             perturb, random_direction,
                             random_phase_point, straight_orbit)
from loopflow.flow import FlowConfig, flow, representation_coefficients
from loopflow.fourier import default_samples
from loopflow.geometry import embedded_circle, flat_torus, random_loop, straight_loop
from loopflow.hamiltonian import alpha_bound, default_spec, r0_threshold
from loopflow.minimax import default_family, minimax_theta, orbit_sweep
from loopflow.spectral import embedded_metric, fit_spectrum_bounds, frame_of
from references import (composite_descent, fake_geodesic_action, hamilton_residual,
                        perturbation_sup_diff)


def report(num, name, detail):
    print(f"[criterion {num:02d}] {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def sweep(spec, config):
    grid = np.linspace(0.05, 2.0, 20)
    records, summary = orbit_sweep(spec, grid, config)
    return grid, records, summary


def test_c01_circle_mode_isometry(spec):
    # |p_n|_r = 1 (tol 1e-10) and ambient form = (1 + (2 pi n)^2)^r (rtol 1e-8)
    m = default_samples(spec.J)
    ones = np.ones((m, 1))
    worst_norm, worst_form = 0.0, 0.0
    for n in range(1, 9):
        loop = straight_loop(embedded_circle(), (n,))
        frame = frame_of(loop, spec.J)
        c = frame.coefficients(ones)
        ambient = embedded_metric(loop, spec.J)
        for r in (0.25, 0.5, 1.0):
            worst_norm = max(worst_norm, abs(frame.norm(r, c) - 1.0))
            form = ambient.norm(r, c) ** 2
            exact = (1.0 + (2.0 * math.pi * n) ** 2) ** r
            worst_form = max(worst_form, abs(form - exact) / exact)
    assert worst_norm <= 1e-10
    assert worst_form <= 1e-8
    report(1, "circle mode isometry", f"norm err {worst_norm:.2e}, form err {worst_form:.2e}")


def test_c02_spectral_bounds_on_random_loops(spec):
    # fitted two-sided bounds collapse to 4 pi^2 (rtol 1e-9), sup norms <= sqrt 2 + 1e-6
    four_pi2 = 4.0 * math.pi ** 2
    worst_fit, worst_sup = 0.0, 0.0
    for k in range(20):
        rng = np.random.default_rng([2, k])
        loop = random_loop(flat_torus(2), (1, 0), spec.J, rng)
        frame = frame_of(loop, spec.J)
        c, cap, d = fit_spectrum_bounds(frame.eigenvalues, frame.n)
        assert d == 0.0
        worst_fit = max(worst_fit, abs(c - four_pi2) / four_pi2,
                        abs(cap - four_pi2) / four_pi2)
        worst_sup = max(worst_sup, float(frame.sup_norms().max()))
    assert worst_fit <= 1e-9
    assert worst_sup <= math.sqrt(2.0) + 1e-6
    report(2, "random-loop spectral bounds", f"fit err {worst_fit:.2e}, sup {worst_sup:.6f}")


def test_c03_fractional_derivative_commutation(spec):
    # A^r d/dt = d/dt A^r on the truncation, 200 cases, tol 1e-9
    worst = 0.0
    for k in range(200):
        rng = np.random.default_rng([3, k])
        loop = random_loop(flat_torus(2), (1, 1), spec.J, rng)
        frame = frame_of(loop, spec.J)
        v = rng.standard_normal(frame.dim)
        r = float(rng.uniform(0.0, 1.0))
        power = frame.weights(0.5 * r)   # A^r, A = (1 + nabla* nabla)^{1/2}
        left = derivative_coefficients(frame, power * v)
        right = power * derivative_coefficients(frame, v)
        scale = max(1.0, float(np.max(np.abs(left))))
        worst = max(worst, float(np.max(np.abs(left - right))) / scale)
    assert worst <= 1e-9
    report(3, "fractional-derivative commutation", f"max rel defect {worst:.2e}")


def test_c04_ambient_negative_norms_dominated(spec):
    # |v|^emb_{-r} <= |v|_{-r} + 1e-10 over 1000 random cases
    J = spec.J
    m = default_samples(J)
    worst = -math.inf
    for kl in range(10):
        rng = np.random.default_rng([4, kl])
        loop = random_loop(embedded_circle(), (1,), J, rng, amplitude=0.1)
        frame = frame_of(loop, J)
        ambient = embedded_metric(loop, J)
        for _ in range(100):
            v = rng.standard_normal((m, 1))
            r = float(rng.uniform(0.0, 1.0))
            c = frame.coefficients(v)
            emb = ambient.norm(-r, c)
            cov = frame.norm(-r, c)
            worst = max(worst, emb - cov)
    assert worst <= 1e-10
    report(4, "ambient negative-norm domination", f"max excess {worst:.2e}")


def test_c05_gradient_finite_difference(spec):
    # 100 random phase points, relative FD defect <= 1e-5
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng([5, k])
        x = random_phase_point(spec, rng)
        xi, eta = random_direction(x, spec, rng)
        fd, exact = directional_derivative_check(x, spec, xi, eta)
        worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    assert worst <= 1e-5
    report(5, "gradient finite differences", f"max rel err {worst:.2e}")


def test_c06_geodesic_minimum_and_reconvergence(spec, config):
    # grad <= 1e-8 at the closed geodesic; envelope descent from a
    # perturbed start returns to the geodesic level within 1e-6
    xg = straight_orbit(flat_torus(2), (1, 0), spec)
    gn = gradient_norm(xg, spec)
    assert gn <= 1e-8
    rng = np.random.default_rng(5)
    xi, eta = random_direction(xg, spec, rng)
    xp = perturb(xg, 0.1, xi=xi, eta=eta)
    xc, ok = composite_descent(xp, spec, config)
    assert ok
    gap = abs(action(xc, spec) - (0.5 - spec.r))
    assert gap <= 1e-6
    report(6, "geodesic minimum + reconvergence", f"grad {gn:.2e}, level gap {gap:.2e}")


def test_c07_fake_geodesics_excluded_at_threshold(spec):
    # at r = r0 every fake closed geodesic action sits <= -1 + 1e-9
    r0 = r0_threshold(spec)
    spec_r0 = spec.with_r(r0)
    rho = np.linspace(spec.rho1 + 1e-9, 2.0 * spec.rho1, 20001)
    worst = float(np.max(fake_geodesic_action(spec_r0, rho)))
    assert worst <= -1.0 + 1e-9
    report(7, "fake-geodesic exclusion at r0", f"max action {worst:.12f} at r0 {r0:.9f}")


def test_c08_representation_identities(spec, config):
    # 10 flows, horizon 2: a(0)=0, b(0)=1, b^2 - a^2 = 1, a <= 0, b >= 1,
    # initial defect zero; all within 1e-10
    worst = 0.0
    for k in range(10):
        rng = np.random.default_rng([8, k])
        x = random_phase_point(spec, rng)
        traj = flow(x, spec, config, 2.0)
        rep = representation_coefficients(traj)
        a0, b0, k0 = rep[0]
        assert abs(a0) <= 1e-12 and abs(b0 - 1.0) <= 1e-12 and k0 <= 1e-10
        for a, b, _ in rep:
            assert a <= 1e-12 and b >= 1.0 - 1e-12
            worst = max(worst, abs(b * b - a * a - 1.0))
    assert worst <= 1e-10
    report(8, "hyperbolic representation identities", f"max |b^2-a^2-1| {worst:.2e}")


def test_c09_minimax_monotone_and_continuous(spec, sweep):
    # theta non-increasing (slack 1e-6), 0 <= theta <= alpha, and
    # |theta(r) - theta(r')| <= sup|H_r - H_r'| + 1e-6 between neighbors
    grid, records, _ = sweep
    alpha = alpha_bound(spec, 1.0)
    thetas = [rec.theta for rec in records]
    assert all(t2 <= t1 + 1e-6 for t1, t2 in zip(thetas, thetas[1:]))
    assert all(-1e-12 <= t <= alpha + 1e-9 for t in thetas)
    worst = 0.0
    for k in range(len(grid) - 1):
        bound = perturbation_sup_diff(spec.with_r(grid[k]), spec.with_r(grid[k + 1]))
        gap = abs(thetas[k + 1] - thetas[k])
        worst = max(worst, gap - bound)
        assert gap <= bound + 1e-6
    report(9, "minimax level monotone + continuous",
           f"max |dtheta| - sup|dH| = {worst:.2e} over {len(grid)} levels")


def test_c10_hypersurface_witness(spec, sweep):
    # at least one sweep record lands on the hypersurface with
    # hamilton residual <= 1e-6 and leaf action inside (0, 2(alpha+r0)),
    # matching the independent landing radius to 1e-4
    grid, records, summary = sweep
    bound = 2.0 * (alpha_bound(spec, 1.0) + r0_threshold(spec))
    hits = [rec for rec in records if rec.classification.kind == "on-hypersurface"]
    assert summary.hit_found and hits
    first = min(hits, key=lambda rec: rec.r)
    assert summary.first_hit_r == first.r
    res = hamilton_residual(first.witness, spec.with_r(first.r))
    assert res <= 1e-6
    assert 0.0 < first.leaf_action < bound
    landing = spec.rho_star * math.exp(oracles.sigma_landing(first.r))
    gap = abs(first.symplectic - landing)
    assert gap <= 1e-4
    report(10, "hypersurface witness",
           f"r {first.r:.4f}, residual {res:.2e}, leaf {first.leaf_action:.9f}, "
           f"oracle gap {gap:.2e}")


def test_c11_cutoff_robustness(spec, config):
    # the minimax level is cutoff-stable: |theta_32 - theta_64| <= 1e-3
    rec32 = minimax_theta(default_family(spec), spec, config)
    spec64 = default_spec(J=64)
    assert FlowConfig.auto(spec64) == config  # the flow config does not depend on J
    rec64 = minimax_theta(default_family(spec64), spec64, config)
    gap = abs(rec32.theta - rec64.theta)
    assert gap <= 1e-3
    report(11, "cutoff robustness", f"|theta_32 - theta_64| = {gap:.2e}")
