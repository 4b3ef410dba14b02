import math
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

import oracles
import loopflow.action as action_mod
import loopflow.flow as flow_mod
from loopflow import minimax
from loopflow.action import (PhasePoint, action, derivative_coefficients, fiber_samples,
                             gradient, gradient_norm, gradient_plan, horizontal_gradient, perturb,
                             random_direction, random_phase_point, straight_orbit,
                             velocity_coefficients)
from loopflow.flow import FlowConfig, flow_velocity
from loopflow.geometry import LoopPath, embedded_circle, flat_torus, random_loop, straight_loop
from loopflow.fourier import default_samples
from loopflow.hamiltonian import default_spec, legendre_conjugate, radial_H
from loopflow.minimax import (ASCENT_TOL, default_family, fiber_sup, minimax_theta,
                              orbit_sweep, refine_critical, symplectic_action)
from loopflow.spectral import SQ2, FiberField, SpectralFrame, embedded_metric, frame_of
from references import composite_descent, frame_series


def reference_ascent(frame, qd, spec, c0, radius):
    # one seed, as Nocedal & Wright write trust-region Newton (Alg. 4.1)
    # with Steihaug's CG (Alg. 7.2): CG minimizes q(z) = -g.z + z.B z / 2
    # with residual r = B z - g, B the compressed fiber Hessian applied
    # by minimax._hessian_product.  Returns (coefficients, action,
    # converged, grad_norm) and what it did: how it stopped, its rejected
    # steps, its clipped candidates, and the CG runs that stopped on
    # non-positive curvature
    lam = frame.eigenvalues
    to_vertical = (1.0 + lam) ** (spec.s - 1.0)
    precond = (1.0 + lam) ** (1.0 - spec.s)

    def evaluate_at(c):
        a, dv, _ = minimax.fiber_evaluation(frame, qd, c, spec, fiber_samples(frame, c))
        g = to_vertical * dv
        return a, dv, math.sqrt(float(np.sum(precond * g ** 2)))

    def project(c):
        nrm = math.sqrt(float(np.sum(precond * c ** 2)))
        return (c * (radius / nrm), True) if nrm > radius else (c, False)

    def steihaug(g, hess, delta):
        z, bz, r = np.zeros_like(g), np.zeros_like(g), -g
        d, rr = -r, r @ r
        eps = min(0.5, math.sqrt(math.sqrt(g @ g))) * math.sqrt(g @ g)
        for _ in range(len(g)):
            bd = hess(d)
            dbd = d @ bd
            if dbd > 0.0 and (z + (rr / dbd) * d) @ (z + (rr / dbd) * d) < delta * delta:
                alpha = rr / dbd
                z, bz, r = z + alpha * d, bz + alpha * bd, r + alpha * bd
                rr, rr_old = r @ r, rr
                if math.sqrt(rr) <= eps:
                    return z, bz, False
                d = -r + (rr / rr_old) * d
                continue
            zd, dd = z @ d, d @ d
            tau = (math.sqrt(zd * zd + dd * (delta * delta - z @ z)) - zd) / dd
            return z + tau * d, bz + tau * bd, dbd <= 0.0
        return z, bz, False

    c, _ = project(np.asarray(c0, dtype=float))
    a, dv, gn = evaluate_at(c)
    delta = max(1e-3, math.sqrt(dv @ dv))
    trace = {"stop": "iters cap", "rejected": 0, "clipped": 0, "curvature": 0}
    for it in range(minimax.TRUST_ITERS):
        if gn <= ASCENT_TOL:
            trace["stop"] = "converged at start" if it == 0 else "converged"
            break
        if delta < 1e-15:
            trace["stop"] = "radius collapsed"
            break
        w = minimax._pointwise_hessian(frame, spec, fiber_samples(frame, c))
        p, bp, negative = steihaug(dv, lambda v: minimax._hessian_product(frame, w, v), delta)
        trace["curvature"] += bool(negative)
        cand, clipped = project(c + p)
        trace["clipped"] += clipped
        a_new, dv_new, gn_new = evaluate_at(cand)
        gain = dv @ p - 0.5 * (p @ bp)
        rho = (a_new - a) / gain if gain > 0.0 else -1.0
        if rho < 0.25:
            delta = 0.25 * math.sqrt(p @ p)
        elif rho > 0.75 and math.sqrt(p @ p) >= (1.0 - 1e-12) * delta:
            delta = min(2.0 * delta, 1e3)
        if a_new >= a - 1e-14 and (rho > 1e-4 or gn_new < gn):
            c, a, dv, gn = cand, a_new, dv_new, gn_new
        else:
            trace["rejected"] += 1
    else:
        if gn <= ASCENT_TOL:
            trace["stop"] = "converged"
    return (c, a, gn <= ASCENT_TOL, gn), trace


MARK = 0.4375  # last fiber coefficient of the seed whose gradient is flipped


@pytest.fixture()
def evaluated(monkeypatch):
    """Every fiber row that fiber_sup (or the reference) evaluates, as
    row bytes, with the gradient negated on rows ending in MARK: every
    step from such a seed loses action, so its trust region shrinks in
    place."""
    rows = []
    evaluation = minimax.fiber_evaluation

    def patched(frame, qd, c, spec, *samples):
        rows.append(c.tobytes())
        a, dv, dpH = evaluation(frame, qd, c, spec, *samples)
        return a, -dv if c[-1] == MARK else dv, dpH

    monkeypatch.setattr(minimax, "fiber_evaluation", patched)
    return rows


def ascend_seeds(loop, spec, config, seeds):
    # the fiber solver (minimax._ascend) from each of the given seeds over
    # the fiber ball, as fiber_sup runs it from its own: sorted by
    # action, best first
    frame = frame_of(loop, spec.J)
    qd = velocity_coefficients(loop, frame)
    results = [minimax._ascend(frame, qd, c0, spec, config.gamma_dprime) for c0 in seeds]
    return sorted(results, key=lambda res: res.action, reverse=True)


def solver_against_reference(loop, spec, config, seeds, evaluated):
    # the solver's results must equal the per-seed references bit for bit,
    # and the solver must evaluate exactly the fibers the references do
    frame = frame_of(loop, spec.J)
    qd = velocity_coefficients(loop, frame)
    evaluated.clear()
    refs = [reference_ascent(frame, qd, spec, c0, config.gamma_dprime) for c0 in seeds]
    alone = Counter(evaluated)
    evaluated.clear()
    results = ascend_seeds(loop, spec, config, seeds)
    assert Counter(evaluated) == alone
    ordered = sorted((out for out, _ in refs), key=lambda out: out[1], reverse=True)
    assert len(results) == len(ordered)
    for res, (c, a, converged, gn) in zip(results, ordered):
        np.testing.assert_array_equal(res.field.coefficients, c)
        assert (res.action, res.converged, res.grad_norm) == (a, converged, gn)
    return [trace for _, trace in refs]


SWEEP_GRID = (0.05, 0.35789473684210527, 1.0, 2.0)


def default_seeds(loop, spec, config, monkeypatch):
    # the seeds fiber_sup ascends from by default, as _ascend receives them
    seeds = []
    with monkeypatch.context() as m:
        m.setattr(minimax, "_ascend", lambda frame, qd, c, *args, f=minimax._ascend:
                  seeds.append(c) or f(frame, qd, c, *args))
        fiber_sup(loop, spec, config)
    return seeds


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
    x = PhasePoint(loop=loop, fiber=best.field)
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
    # the seeds are computed from the loop, so the loop check covers them
    loop = straight_loop(flat_torus(2), (1, 0), base=(np.nan, 0.0))
    with pytest.raises(ValueError, match="fiber_sup loop has non-finite loop"):
        fiber_sup(loop, small_spec, small_config)


def test_fiber_sup_local_seed_stays_in_quadratic_zone(spec, config):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    res = ascend_seeds(x.loop, spec, config, [x.fiber.coefficients])
    assert len(res) == 1
    assert res[0].converged
    np.testing.assert_allclose(res[0].action, 0.5 - spec.r, atol=1e-10)
    np.testing.assert_allclose(res[0].field.coefficients, x.fiber.coefficients,
                               atol=1e-8)


def test_fiber_sup_respects_the_ball(spec, config):
    loop = straight_loop(flat_torus(2), (1, 0))
    for res in fiber_sup(loop, spec, config):
        assert res.field.frame.norm(1.0 - spec.s, res.field.coefficients) <= config.gamma_dprime + 1e-9


def test_batched_ascent_matches_per_seed_reference(small_spec, small_config, evaluated,
                                                   monkeypatch):
    x = straight_orbit(flat_torus(2), (1, 0), small_spec)
    frame = x.frame
    lam = frame.eigenvalues
    smooth = (1.0 + lam) ** (small_spec.s - 1.0) * velocity_coefficients(x.loop, frame)
    noise = 0.05 * np.cos(np.arange(frame.dim)) / (1.0 + lam) ** 0.5
    radius = small_config.gamma_dprime
    capped = np.zeros(frame.dim)
    capped[[0, 10]] = 2.0 * radius * math.cos(0.1), 2.0 * radius * math.sin(0.1)
    marked = 0.3 * smooth
    marked[-1] = MARK
    exact = x.fiber.coefficients
    seeds = [capped, exact + 1e-7 * np.cos(np.arange(frame.dim)), marked, exact,
             0.3 * smooth + noise, 0.6 * smooth + noise]
    traces = solver_against_reference(x.loop, small_spec, small_config, seeds, evaluated)
    # the capped seed starts on the sphere of the ball; every step of the
    # marked one loses action, so its trust region shrinks to nothing
    assert [trace["stop"] for trace in traces] == [
        "converged", "converged", "radius collapsed", "converged at start", "converged",
        "converged"]
    assert traces[2]["rejected"] > 20
    # the noisy seeds have steps rejected and CG runs stopped on
    # non-positive curvature on their way up
    assert all(trace["rejected"] > 0 and trace["curvature"] > 0 for trace in traces[4:])
    # the iteration cap; in the quadratic zone of H_r the capped seed's
    # Newton steps are exact
    monkeypatch.setattr(minimax, "TRUST_ITERS", 3)
    traces = solver_against_reference(x.loop, small_spec, small_config, seeds, evaluated)
    assert [trace["stop"] for trace in traces] == [
        "converged", "converged", "iters cap", "converged at start", "iters cap", "iters cap"]


@pytest.mark.parametrize("amplitude", [0.0, 0.02])
def test_ascent_across_r_matches_fiber_sup_at_each_r(small_spec, small_config, evaluated,
                                                      monkeypatch, amplitude):
    # the default seeds at each r of the sweep grid, against the reference
    # at that r: at r = 0.05 seeds ascend through the chi band, every seed
    # converges, and at every r some CG run stops on non-positive
    # curvature
    loop = wiggled_loop(amplitude) if amplitude else straight_loop(flat_torus(2), (1, 0))
    for r in SWEEP_GRID:
        r_spec = small_spec.with_r(r)
        seeds = default_seeds(loop, r_spec, small_config, monkeypatch)
        assert len(seeds) == 6
        traces = solver_against_reference(loop, r_spec, small_config, seeds, evaluated)
        assert all(trace["stop"].startswith("converged") for trace in traces)
        assert sum(trace["curvature"] for trace in traces) > 0


def test_batched_ascent_matches_reference_on_the_ball(small_spec, small_config, evaluated):
    # a ball just inside the maximizer p = qdot of a winding-2 loop: the
    # ascents take free steps first and clipped ones on the sphere.  The
    # two that end on the sphere are not stationary there, and the model
    # of the unconstrained action does not see the sphere, so their trust
    # regions shrink to nothing
    config = replace(small_config, gamma=0.5, gamma_prime=0.9, gamma_dprime=1.98)
    x = straight_orbit(flat_torus(2), (2, 0), small_spec)
    frame = x.frame
    rng = np.random.default_rng(3)
    seeds = [k * x.fiber.coefficients
             + 0.3 * rng.standard_normal(frame.dim) / (1.0 + frame.eigenvalues) ** 0.5
             for k in (0.1, 0.2, 0.4)]
    traces = solver_against_reference(x.loop, small_spec, config, seeds, evaluated)
    assert all(trace["clipped"] > 0 for trace in traces)
    assert [trace["stop"] for trace in traces] == [
        "radius collapsed", "radius collapsed", "converged"]


def dense_jacobian(plan, spec, z):
    # the exact Jacobian of _critical_system's residual at the state z =
    # [qd, c], with columns [qd, c]: the horizontal rows
    # -(1+lam)^{-s/2} (dp/dt coefficients) are linear in c alone, the
    # vertical rows (1+lam)^{(s-1)/2} (qd - dH/dp coefficients) have the
    # qd-block (1+lam)^{(s-1)/2} and the c-block -(1+lam)^{(s-1)/2} times
    # the compressed pointwise fiber Hessian.  The n qd kernel columns
    # are zero: the drift is the loop class's, not an unknown
    frame = plan.frame
    n, dim = frame.n, frame.dim
    vertical = frame.weights(0.5 * (spec.s - 1.0))
    out = np.zeros((2 * dim, 2 * dim))
    out[:dim, dim:] = derivative_coefficients(frame, np.eye(dim)).T
    out[:dim, dim:] *= -frame.weights(-0.5 * spec.s)[:, None]
    out[dim:, n:dim] = np.diag(vertical)[:, n:]
    out[dim:, dim:] = -vertical[:, None] * dense_compression(
        frame, minimax._pointwise_hessian(frame, spec, fiber_samples(frame, z[1])))
    return out


def dense_compression(frame, w):
    # the (D, D) quadrature compression of a pointwise multiplier w, (m,
    # n, n) samples: the three-operand einsum over the sampled eigenfields
    basis = frame.basis_samples(len(w))
    return np.einsum("kti,tij,ltj->kl", basis, w, basis) / len(w)


def jacobian_states(spec):
    # a random phase point and a perturbed straight orbit
    xg = straight_orbit(flat_torus(2), (1, 0), spec)
    return (random_phase_point(spec, np.random.default_rng(8)),
            perturb(xg, 1e-3, eta=np.cos(np.arange(xg.frame.dim))))


def test_refine_critical_jacobian_matches_finite_differences():
    # the residual refine_critical polishes, against the dense Jacobian
    # reference, at the states z = [qd, c] of two phase points; the
    # finite differences are taken in every column but the drift's
    spec = default_spec(J=8)
    for x in jacobian_states(spec):
        plan = gradient_plan(x.frame, spec.s)
        fun, _ = minimax._critical_system(plan, spec)
        z, n, dim = flow_mod._start(x), x.frame.n, x.frame.dim
        exact = dense_jacobian(plan, spec, z)
        fd = approx_derivative(lambda v: fun(v.reshape(2, dim)), z.ravel(), method="3-point")
        assert exact.shape == fd.shape == (2 * dim, 2 * dim)
        assert not np.any(exact[:, :n])
        assert np.max(np.abs(exact[:, n:] - fd[:, n:])) <= 1e-8 * np.max(np.abs(fd))


@pytest.mark.parametrize("J", [8, 32, 64])
def test_structured_step_is_the_least_squares_step_of_the_dense_jacobian(J):
    spec = default_spec(J=J)
    for x in jacobian_states(spec):
        plan = gradient_plan(x.frame, spec.s)
        fun, step = minimax._critical_system(plan, spec)
        z = flow_mod._start(x)
        f = fun(z)
        ref = np.linalg.lstsq(dense_jacobian(plan, spec, z), f, rcond=None)[0]
        got = step(z, f)
        assert got.shape == z.shape and not np.any(got[0, :x.frame.n])
        assert np.linalg.norm(got.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)


# constant fibers where H_r is flat, so that W(t) = 0 and the kernel block
# of the step is zero: the zero section (chi = phi = 0) and the plateau
# rho* e^delta < rho <= rho1 (H_r = r)
@pytest.mark.parametrize("rho", [0.1, 0.38])
@pytest.mark.parametrize("eps", [0.0, 1e-4])
def test_refine_critical_on_a_singular_kernel_block(spec, rho, eps):
    x = straight_orbit(flat_torus(2), (1, 0), spec, momentum=(rho, 0.0))
    wave = np.cos(np.arange(x.frame.dim)) / (1.0 + x.frame.eigenvalues)
    x = perturb(x, eps, xi=wave, eta=wave)
    samples = fiber_samples(x.frame, x.fiber.coefficients)
    assert not np.any(minimax._pointwise_hessian(x.frame, spec, samples))
    z = refine_critical(x, spec)
    assert gradient_norm(z, spec) <= gradient_norm(x, spec)


def capture_polished(monkeypatch, family, spec, config):
    """The unpolished witnesses of minimax_theta over the family, as the
    PhasePoints of the states _descend hands to _polish, anchored on the
    family's loop as the witness is; _polish returns each state as is."""
    witnesses = []
    monkeypatch.setattr(minimax, "_polish", lambda plan, z, *args: witnesses.append(
        flow_mod._at(family[0], plan.frame, z)) or z)
    minimax_theta(family, spec, config)
    return witnesses


def test_refine_critical_forms_no_dense_matrix(monkeypatch):
    # the unpolished witness of the benchmark's J = 64, r = 1 level, moved
    # 1e-6 off (the fiber solver leaves it at gradient norm 1.5e-14),
    # polished with no SVD and no dense fiber Hessian
    spec = default_spec(J=64, r=1.0)
    family = default_family(spec)
    witnesses = capture_polished(monkeypatch, family, spec, FlowConfig.auto(spec))
    monkeypatch.undo()
    (x,) = witnesses
    assert_polish_matches_series(x, spec, monkeypatch)   # the c11 J = 64 witness
    xi, eta = random_direction(x, spec, np.random.default_rng(64))
    x = perturb(x, 1e-6, xi=xi, eta=eta)

    def refuse(*args, **kwargs):
        raise AssertionError("the polish formed a dense matrix")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(SpectralFrame, "compress", refuse)
    assert gradient_norm(x, spec) > 1e-13
    assert gradient_norm(refine_critical(x, spec), spec) <= 1e-13


def test_minimax_theta_polishes_through_refine_critical_once_per_converged_level(monkeypatch):
    # the level and its gradient norm are read at the state _polish
    # returns, from which the witness is built; a level whose descent did
    # not converge is not polished
    spec8 = default_spec(J=8)
    config8 = FlowConfig.auto(spec8)
    returned = []
    polish = minimax._polish
    monkeypatch.setattr(minimax, "_polish",
                        lambda *args: returned.append(polish(*args)) or returned[-1])
    rec = minimax_theta(default_family(spec8), spec8, config8)
    assert rec.converged and len(returned) == 1
    (z,) = returned
    assert rec.witness.fiber.coefficients.tobytes() == z[1].tobytes()
    k = flow_mod._velocity(gradient_plan(rec.witness.frame, spec8.s), z, spec8, config8)
    assert (rec.theta, rec.grad_norm) == (k.action, k.grad_norm)
    assert_witness_gives_the_record(rec, spec8, config8)
    returned.clear()
    records, _ = orbit_sweep(spec8, [0.05, 0.5, 1.0], config8)
    assert len(returned) == sum(r.converged for r in records) == 3
    assert all(r.witness.fiber.coefficients.tobytes() == z[1].tobytes()
               for r, z in zip(records, returned))
    returned.clear()
    monkeypatch.setattr(minimax, "HANDOFF", -1.0)
    monkeypatch.setattr(minimax, "DESCENT_ROUNDS", 1)
    rec = minimax_theta(default_family(spec8), spec8, config8)
    assert not rec.converged and returned == []


# The record reads theta and grad_norm at the polished state z itself;
# its witness rebuilds the loop data from z's velocity coefficients, and
# reading them back off that loop is exact only up to roundoff.
WITNESS_ROUNDOFF = 1e-17   # absolute, on theta and on grad_norm


def assert_witness_gives_the_record(rec, spec, config):
    k = flow_velocity(rec.witness, spec, config)
    assert abs(k.action - rec.theta) <= WITNESS_ROUNDOFF
    assert abs(k.grad_norm - rec.grad_norm) <= WITNESS_ROUNDOFF


def test_refine_critical_never_worsens(spec, rng):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    xi, eta = random_direction(x, spec, rng)
    y = perturb(x, 1e-5, xi=xi, eta=eta)
    z = refine_critical(y, spec, max_nfev=200)
    assert gradient_norm(z, spec) <= gradient_norm(y, spec)


# The polish as it was before it stepped series arrays: its unknowns were
# packed as every cos row, then every sin row, then the fiber, and each
# residual evaluation built the state they stood for and called gradient.

def packed(x):
    block = x.loop.series(x.frame.cutoff)[x.frame.n:].reshape(-1, 2, x.frame.n)
    return np.concatenate([block[:, 0].reshape(-1), block[:, 1].reshape(-1), x.fiber.coefficients])


def unpacked(x, vec):
    J, n = x.frame.cutoff, x.frame.n
    k = J * n
    loop = LoopPath(manifold=x.loop.manifold, winding=x.loop.winding, base=x.loop.base,
                    cos_coeffs=vec[:k].reshape(J, n), sin_coeffs=vec[k:2 * k].reshape(J, n))
    return PhasePoint(loop=loop, fiber=FiberField(x.frame, vec[2 * k:].copy()))


def backtracked(fun, step, vec, max_nfev):
    """(unknowns, residual evaluations) of the polish's backtracked
    Gauss-Newton iteration from vec: t delta is tried for t = 1, 1/2, ...
    until the residual norm falls, and it stops at a tried step below
    1e-15 (1e-15 + |vec|) or after max_nfev evaluations."""
    f = fun(vec)
    cost, nfev, small = f @ f, 1, False
    while nfev < max_nfev and not small:
        delta = step(vec, f)
        size, t = np.linalg.norm(delta), 1.0
        while nfev < max_nfev:
            trial = vec - t * delta
            f_trial = fun(trial)
            nfev += 1
            small = t * size <= 1e-15 * (1e-15 + np.linalg.norm(vec))
            if f_trial @ f_trial < cost:
                vec, f, cost = trial, f_trial, f_trial @ f_trial
                break
            if small:
                break
            t *= 0.5
    return vec, nfev


def antiderivative(frame, v):
    # the inverse of d/dt outside the kernel, -d/dt / lam; +0.0 in it
    out = derivative_coefficients(frame, v)
    out[frame.n:] /= -frame.eigenvalues[frame.n:]
    return out


def packed_polish(x, spec):
    """(state, residual evaluations) of the polish on the packed
    unknowns."""
    frame = x.frame
    n, J, dim = frame.n, frame.cutoff, frame.dim
    k = 2 * J * n
    scale_h = frame.weights(-0.5 * spec.s)
    scale_v = frame.weights(0.5 * (spec.s - 1.0))

    def fun(vec):
        grad_h, grad_v = gradient(unpacked(x, vec), spec)
        return np.concatenate([frame.weights(0.5 * spec.s) * grad_h,
                               frame.weights(0.5 * (1.0 - spec.s)) * grad_v])

    def step(vec, f):
        w = minimax._pointwise_hessian(frame, spec, fiber_samples(frame, vec[k:]))

        def hess(v):
            return frame.coefficients(np.einsum("tij,tj->ti", w, frame.samples(v)))

        dc = antiderivative(frame, -f[:dim] / scale_h)
        rhs = -f[dim:dim + n] / scale_v[:n] - hess(dc)[:n]
        dc[:n] = np.linalg.lstsq(w.mean(axis=0), rhs, rcond=1e-13)[0]
        _, da, db = frame_series(frame, antiderivative(frame, f[dim:] / scale_v + hess(dc)))
        return np.concatenate([da.reshape(-1), db.reshape(-1), dc])

    vec, nfev = backtracked(fun, step, packed(x), minimax.POLISH_NFEV)
    return unpacked(x, vec), nfev


def series_polish(x, spec):
    """(state, residual evaluations) of the polish as it stepped the
    loop's series rows L[n:] (LoopPath.series past its base) and the
    fiber: the residual read the loop velocity by series_velocity, and
    the loop step was the antiderivative of f_v / V + H dc, times
    sqrt(2).  It pins the base q(0).  Bit for bit the packed polish."""
    frame = x.frame
    n, dim = frame.n, frame.dim
    k = dim - n
    L = x.loop.series(frame.cutoff)
    plan = gradient_plan(frame, spec.s)
    scale_h = frame.weights(-0.5 * spec.s)
    scale_v = frame.weights(0.5 * (spec.s - 1.0))

    def fun(vec):
        qd = action_mod.series_velocity(frame, x.loop.drift, np.concatenate([L[:n], vec[:k]]))
        grad_v = minimax.metric_gradient(plan, qd, vec[k:], spec)[1]
        return np.concatenate([frame.weights(0.5 * spec.s) * horizontal_gradient(plan, vec[k:]),
                               frame.weights(0.5 * (1.0 - spec.s)) * grad_v])

    def step(vec, f):
        w = minimax._pointwise_hessian(frame, spec, fiber_samples(frame, vec[k:]))
        dc = antiderivative(frame, -f[:dim] / scale_h)
        rhs = -f[dim:dim + n] / scale_v[:n] - minimax._hessian_product(frame, w, dc)[:n]
        dc[:n] = np.linalg.lstsq(w.mean(axis=0), rhs, rcond=1e-13)[0]
        hdc = minimax._hessian_product(frame, w, dc)
        return np.concatenate([antiderivative(frame, f[dim:] / scale_v + hdc)[n:] * SQ2, dc])

    vec, nfev = backtracked(fun, step, np.concatenate([L[n:], x.fiber.coefficients]),
                            minimax.POLISH_NFEV)
    L[n:] = vec[:k]
    return PhasePoint(loop=x.loop.with_series(L), fiber=FiberField(x.frame, vec[k:])), nfev


def mean_position(loop):
    # the loop's mean position base - sum_j cos_j, which move_series, the
    # descent and the polish keep
    return np.asarray(loop.base) - loop.cos_coeffs.sum(axis=0)


POLISH_AGREEMENT = 1e-15   # the polish on z against series_polish, per coefficient


def assert_polish_matches_series(x, spec, monkeypatch):
    """minimax._polish at x's state against series_polish, which must
    give packed_polish's bits.  The fibers and the loop velocities agree
    within POLISH_AGREEMENT and the residual evaluations, one
    metric_gradient each, within 1; the loops differ only by the
    anchoring translation, since series_polish pins the base and the
    polish keeps the mean position.  Returns series_polish's count."""
    evaluations = []
    plan = gradient_plan(x.frame, spec.s)
    with monkeypatch.context() as m:
        m.setattr(minimax, "metric_gradient",
                  lambda *a, f=minimax.metric_gradient: evaluations.append(1) or f(*a))
        z = minimax._polish(plan, flow_mod._start(x), spec, minimax.POLISH_NFEV)
    ref, nfev = series_polish(x, spec)
    packed_ref, packed_nfev = packed_polish(x, spec)
    J, n = x.frame.cutoff, x.frame.n
    assert ref.loop.series(J).tobytes() == packed_ref.loop.series(J).tobytes()
    assert ref.fiber.coefficients.tobytes() == packed_ref.fiber.coefficients.tobytes()
    assert nfev == packed_nfev and abs(len(evaluations) - nfev) <= 1
    assert np.max(np.abs(z[1] - ref.fiber.coefficients)) <= POLISH_AGREEMENT
    assert np.max(np.abs(z[0] - velocity_coefficients(ref.loop, x.frame))) <= POLISH_AGREEMENT
    ours = flow_mod._at(x.loop, x.frame, z)
    assert ours.loop.winding == ref.loop.winding and ref.loop.base == x.loop.base
    np.testing.assert_allclose(ours.loop.series(J)[n:], ref.loop.series(J)[n:], rtol=0.0,
                               atol=POLISH_AGREEMENT)
    np.testing.assert_allclose(mean_position(ours.loop), mean_position(x.loop), rtol=0.0,
                               atol=POLISH_AGREEMENT)
    return nfev


@pytest.mark.parametrize("J", [8, 32])
def test_polish_matches_the_packed_polish(J, monkeypatch):
    for x in jacobian_states(default_spec(J=J)):
        assert assert_polish_matches_series(x, default_spec(J=J), monkeypatch) > 1


def test_polish_builds_one_state(monkeypatch):
    # the polish steps the state z = [qd, c] and builds nothing, however
    # many residuals it evaluates; refine_critical builds only the state
    # it returns, and neither calls gradient nor perturb
    spec8 = default_spec(J=8)
    built, evaluations = [], []
    for x in jacobian_states(spec8):
        plan = gradient_plan(x.frame, spec8.s)
        with monkeypatch.context() as m:
            for cls in (LoopPath, FiberField, PhasePoint):
                m.setattr(cls, "__post_init__", lambda self, f=cls.__post_init__:
                          built.append(type(self).__name__) or f(self))
            for name in ("gradient", "perturb"):
                m.setattr(action_mod, name, lambda *a, name=name, **kw: built.append(name))
            m.setattr(minimax, "metric_gradient",
                      lambda *a, f=minimax.metric_gradient: evaluations.append(1) or f(*a))
            minimax._polish(plan, flow_mod._start(x), spec8, minimax.POLISH_NFEV)
            assert len(evaluations) > 1 and built == []
            refine_critical(x, spec8)
        assert sorted(built) == ["FiberField", "LoopPath", "PhasePoint"]
        built.clear()
        evaluations.clear()
    assert not any(hasattr(minimax, name) for name in ("gradient", "perturb"))


def test_polish_keeps_the_mean_position(small_spec, small_config):
    # refine_critical and composite_descent rebuild the loop from its
    # velocity with one anchoring: base - sum_j cos_j stays the input's,
    # where pinning the base would move it by up to 0.116
    x, xp = random_phase_point(small_spec, np.random.default_rng(8)), perturbed_orbit(small_spec)
    pairs = [(x, refine_critical(x, small_spec)), (xp, refine_critical(xp, small_spec)),
             (xp, composite_descent(xp, small_spec, small_config)[0])]
    for x, y in pairs:
        assert np.max(np.abs(y.loop.cos_coeffs - x.loop.cos_coeffs)) > 1e-9
        np.testing.assert_allclose(mean_position(y.loop), mean_position(x.loop), rtol=0.0,
                                   atol=1e-15)


def trf_polish(x, spec):
    # the polish as scipy's trust-region reflective least squares ran it,
    # on the same residual and the dense Jacobian, in the unknowns
    # [qd[n:], c], with the same guard
    plan = gradient_plan(x.frame, spec.s)
    fun, _ = minimax._critical_system(plan, spec)
    z, n = flow_mod._start(x), x.frame.n

    def state(vec):
        return np.stack((np.concatenate([z[0, :n], vec[:z.shape[1] - n]]),
                         vec[z.shape[1] - n:]))

    sol = least_squares(lambda vec: fun(state(vec)), z.ravel()[n:],
                        jac=lambda vec: dense_jacobian(plan, spec, state(vec))[:, n:],
                        method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000)
    refined = flow_mod._at(x.loop, x.frame, state(sol.x))
    return refined if gradient_norm(refined, spec) <= gradient_norm(x, spec) else x


def test_refine_critical_matches_the_trf_reference(spec, config, rng, monkeypatch):
    # the perturbed orbit of test_refine_critical_never_worsens, the
    # unpolished witnesses of the benchmark sweep's four r-points, and
    # those witnesses moved 1e-3 off: there the polish is nonlinear and
    # a single Gauss-Newton step stops at gradient norms of 1e-6 to 1e-3
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    xi, eta = random_direction(x, spec, rng)
    states = [(perturb(x, 1e-5, xi=xi, eta=eta), spec)]
    witnesses = []
    for r in np.linspace(0.05, 2.0, 4):
        r_spec = spec.with_r(float(r))
        witnesses += [(x, r_spec) for x in
                      capture_polished(monkeypatch, default_family(r_spec), r_spec, config)]
    assert len(witnesses) == 4
    for x, x_spec in witnesses:
        xi, eta = random_direction(x, x_spec, rng)
        states += [(x, x_spec), (perturb(x, 1e-3, xi=xi, eta=eta), x_spec)]
    monkeypatch.undo()
    for x, x_spec in states:
        assert_polish_matches_series(x, x_spec, monkeypatch)
        ours, ref = refine_critical(x, x_spec), trf_polish(x, x_spec)
        assert abs(action(ours, x_spec) - action(ref, x_spec)) <= 1e-12
        if gradient_norm(ref, x_spec) <= 1e-13:
            assert gradient_norm(ours, x_spec) <= 1e-13


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
    # the level and gradient norm come from one evaluation of the witness
    assert (rec.theta, rec.grad_norm) == (action(rec.witness, spec),
                                          gradient_norm(rec.witness, spec))
    row = rec.to_row()
    assert row["r"] == spec.r and row["theta"] == rec.theta


def oracle_level(r):
    """(level, classification kind) of the straight unit-speed loop:
    max(fake, shelf, 0), where shelf_value raises below the shelf's
    first landing and the level is the fake value's."""
    levels = [(oracles.fake_value(r), "fake-geodesic"), (0.0, "constant")]
    try:
        levels.append((oracles.shelf_value(r), "on-hypersurface"))
    except ValueError:
        pass
    return max(levels, key=lambda level: level[0])


def test_legendre_oracle_at_unit_speed_is_the_closed_form():
    for r in np.linspace(0.05, 2.0, 20):
        assert abs(oracles.theta_oracle_at(r, 1.0) - oracles.theta_oracle(r)) <= 1e-12
        assert max(oracles.legendre_branches(r, 1.0))[1] == oracle_level(r)[1]


def test_theta_oracle_below_the_shelf_landing_is_the_fake_value():
    # r = 0.05, the first point of the default grid, is below the shelf's
    # first landing at r = rho* / chi'(0) = 0.064
    assert not oracles.shelf_lands(0.05) and oracles.shelf_lands(0.065)
    assert oracles.theta_oracle(0.05) == oracles.fake_value(0.05)
    with pytest.raises(ValueError):
        oracles.shelf_value(0.05)


# faster straight loops: the kinetic (closed-geodesic) branch wins at
# small r, the shelf at large r.  (1, 1) at r = 0.05 reaches the level
# but is not confident, so confident is not gated.
@pytest.mark.parametrize("winding", [(1, 1), (2, 0)])
@pytest.mark.parametrize("r", [0.05, 0.35789473684210527, 1.0, 2.0])
def test_minimax_theta_on_straight_loops_beyond_unit_speed(winding, r):
    spec = default_spec(J=32, r=r)
    rec = minimax_theta(default_family(spec, winding), spec, FlowConfig.auto(spec))
    level, kind = max(oracles.legendre_branches(r, math.hypot(*winding)))
    assert abs(rec.theta - level) <= 1e-9
    assert rec.classification.kind == kind


def wiggled_loop(amplitude):
    return random_loop(flat_torus(2), (1, 0), 8, np.random.default_rng(3), amplitude=amplitude)


# off the straight family the fiber maximizers are saddles of the plain
# flow; the envelope descent carries them back to the straight loop's
# critical level.  At J = 8, amplitude 0.02 and r = 0.05 the top maxima
# descend to the closed-geodesic level 0.45 and only a lower maximum
# reaches the fake level, so every maximizer down to the level counts.
@pytest.mark.parametrize("J, amplitude, r", [
    (32, amplitude, r) for amplitude in (0.005, 0.02)
    for r in (0.05, 0.35789473684210527, 1.0, 2.0)] + [(8, 0.02, 0.05)])
def test_minimax_theta_off_the_straight_family(J, amplitude, r):
    spec = default_spec(J=J, r=r)
    config = FlowConfig.auto(spec)
    rec = minimax_theta([wiggled_loop(amplitude)], spec, config)
    level, kind = oracle_level(r)
    assert abs(rec.theta - level) <= 1e-9
    assert rec.classification.kind == kind
    assert rec.converged and rec.steps > 0
    assert_witness_gives_the_record(rec, spec, config)


def sweep_levels(s):
    # (theta, classification string) at each point of the default 20-point
    # orbit sweep of the straight family at regularity s
    s_spec = default_spec(s=s)
    records, _ = orbit_sweep(s_spec, np.linspace(0.05, 2.0, 20), FlowConfig.auto(s_spec))
    return [(rec.theta, str(rec.classification)) for rec in records]


@pytest.fixture(scope="module")
def default_levels():
    return sweep_levels(0.75)


# the critical points and values of the action do not depend on the
# metric: s only chooses which gradient the flow and the polish follow,
# so theta(r) and its kind at any s in (1/2, 1) are those at s = 0.75
@pytest.mark.parametrize("s", [0.55, 0.6, 0.9])
def test_the_level_does_not_depend_on_s_on_the_straight_family(s, default_levels):
    assert sweep_levels(s) == default_levels


@pytest.mark.parametrize("s", [0.65, 0.9])
def test_the_level_does_not_depend_on_s_off_the_straight_family(s):
    spec = default_spec(J=32, r=1.0, s=s)
    rec = minimax_theta([wiggled_loop(0.02)], spec, FlowConfig.auto(spec))
    level, kind = oracle_level(1.0)
    assert abs(rec.theta - level) <= 1e-9
    assert rec.classification.kind == kind
    assert rec.converged


# J = 8, amplitude 0.02, r = 0.05: the maximizers the seeds find on the
# wiggled loop all descend to the closed-geodesic level 0.45, and the
# straight loop the descent ends on carries the fake-geodesic fiber
# maximizer above it, which is descended in turn
def test_minimax_theta_descends_again_from_a_higher_maximizer_on_the_witness_loop(monkeypatch):
    spec = default_spec(J=8, r=0.05)
    levels, descend, sups = [], minimax._descend, []
    monkeypatch.setattr(minimax, "_descend",
                        lambda *args: levels.append(descend(*args)) or levels[-1])
    monkeypatch.setattr(minimax, "fiber_sup", lambda loop, *args, f=minimax.fiber_sup:
                        sups.append(loop) or f(loop, *args))
    rec = minimax_theta([wiggled_loop(0.02)], spec, FlowConfig.auto(spec))
    assert len(levels) == 2
    # the first witness's loop carries a fiber 1.16e-2 above its level, so
    # fiber_sup runs there; on the second witness's loop the Legendre bound
    # proves that none lies above, and fiber_sup does not run again
    assert len(sups) == 2 and sups[1] is levels[0][0].loop
    (first, rounds, k), (witness, more, k_top) = levels
    assert abs(k.action - 0.45) <= 1e-9 and abs(k_top.action - oracles.fake_value(0.05)) <= 1e-9
    assert rec.witness is witness and rec.theta == k_top.action and rec.steps == rounds + more


# the perturbed (1, 1) loop descends to the straight (1, 1) geodesic, so
# its level is the oracle's at speed sqrt 2, not at the loop's top speed
# 1.4571 (which misses by 0.0615 at r = 0.05).  r = 0.05 reaches the
# level unconfident, so confident is not gated.
@pytest.mark.parametrize("r", [0.05, 0.35789473684210527, 1.0])
def test_minimax_theta_on_a_perturbed_winding_1_1_loop(r):
    spec = default_spec(J=32, r=r)
    loop = random_loop(flat_torus(2), (1, 1), 8, np.random.default_rng(3), amplitude=0.005)
    rec = minimax_theta([loop], spec, FlowConfig.auto(spec))
    level, kind = max(oracles.legendre_branches(r, math.sqrt(2.0)))
    assert abs(rec.theta - level) <= 1e-9
    assert rec.classification.kind == kind


# at amplitude 0.05 the fake level is reached only from the maximizer the
# 1.85 rho1 seed ascends to: without that seed, and with seeds at only
# the Legendre branches present at every t, the level is the
# closed-geodesic 0.45
def test_minimax_theta_reaches_the_fake_level_at_amplitude_0_05():
    spec = default_spec(J=32, r=0.05)
    config = FlowConfig.auto(spec)
    rec = minimax_theta([wiggled_loop(0.05)], spec, config)
    level, kind = oracle_level(0.05)
    assert abs(rec.theta - level) <= 1e-9
    assert rec.classification.kind == kind
    assert rec.converged
    assert_witness_gives_the_record(rec, spec, config)


# amplitude 0.05 at r = 0.3579: the step-capped gradient ascent that the
# fiber solver replaced ended 5.9e-8 below the oracle there, unconfident
def test_minimax_theta_reaches_the_oracle_at_amplitude_0_05_on_the_shelf():
    spec = default_spec(J=32, r=0.35789473684210527)
    rec = minimax_theta([wiggled_loop(0.05)], spec, FlowConfig.auto(spec))
    assert abs(rec.theta - oracles.theta_oracle(spec.r)) <= 1e-9
    assert rec.classification.kind == oracle_level(spec.r)[1]


def bare_newton(frame, qd, c, spec, steps):
    # Newton's method on the fiber gradient with the dense compressed
    # Hessian and no safeguard: it goes to the nearest stationary point
    for _ in range(steps):
        _, dv, _ = minimax.fiber_evaluation(frame, qd, c, spec, fiber_samples(frame, c))
        w = minimax._pointwise_hessian(frame, spec, fiber_samples(frame, c))
        c = c + np.linalg.solve(dense_compression(frame, w), dv)
    return c


@pytest.mark.parametrize("kick", ["outward", "inward", "random"])
def test_fiber_solver_climbs_off_a_fiber_saddle(small_spec, small_config, kick):
    # the constant fiber p = rho qdot / |qdot| over the straight unit-speed
    # loop is stationary where h'(rho) = 1.  At the fake annulus's
    # down-crossing h'' < 0 there, so the action is a minimum along the
    # radius and a maximum across it: a fiber saddle, to which a bare
    # Newton step from 1e-3 away returns.  From there the solver must climb
    _, rho = oracles.fake_radii()
    saddle = straight_orbit(flat_torus(2), (1, 0), small_spec, momentum=(rho, 0.0))
    assert radial_H(small_spec, rho, order=2) < 0.0
    assert gradient_norm(saddle, small_spec) <= 1e-12
    frame = saddle.frame
    qd = velocity_coefficients(saddle.loop, frame)
    direction = {"outward": np.eye(frame.dim)[0], "inward": -np.eye(frame.dim)[0],
                 "random": np.random.default_rng(0).standard_normal(frame.dim)}[kick]
    seed = saddle.fiber.coefficients + 1e-3 * direction / np.linalg.norm(direction)
    np.testing.assert_allclose(bare_newton(frame, qd, seed, small_spec, 8),
                               saddle.fiber.coefficients, atol=1e-12)
    (res,) = ascend_seeds(saddle.loop, small_spec, small_config, [seed])
    assert res.converged
    assert res.action > action(saddle, small_spec) + 1e-6


def test_fiber_solver_forms_no_dense_matrix(monkeypatch):
    # the benchmark's J = 64, r = 1 fiber ascent: no compression, no
    # dense solve, and no allocation as large as a (D, D) array
    spec = default_spec(J=64, r=1.0)
    config = FlowConfig.auto(spec)
    loop = default_family(spec)[0]
    dim = frame_of(loop, spec.J).dim
    fiber_sup(loop, spec, config)   # the frame's spectrum slots and weights

    def refuse(*args, **kwargs):
        raise AssertionError("the fiber solver formed a dense matrix")

    for owner, name in ((SpectralFrame, "compress"), (SpectralFrame, "basis_samples"),
                        (np.linalg, "solve"), (np.linalg, "lstsq"), (np.linalg, "svd")):
        monkeypatch.setattr(owner, name, refuse)
    tracemalloc.start()
    try:
        results = fiber_sup(loop, spec, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 6 and all(res.converged for res in results)
    assert peak < dim * dim * 8 // 4


def test_minimax_theta_descends_once_on_the_straight_loop(spec, config, monkeypatch):
    # the maximizer copies share the top action and are skipped as the
    # same start; every other maximizer lies below the level reached
    ascents, starts, solves = [], [], []
    sup, descent, solve = minimax.fiber_sup, minimax._envelope_descent, minimax._ascend

    def ascend(*args, **kwargs):
        ascents.append(sup(*args, **kwargs))
        return ascents[-1]

    def solved(*args):
        solves.append(solve(*args))
        return solves[-1]

    def descend(plan, z, *args):
        starts.append(z[1])
        return descent(plan, z, *args)

    monkeypatch.setattr(minimax, "fiber_sup", ascend)
    monkeypatch.setattr(minimax, "_envelope_descent", descend)
    monkeypatch.setattr(minimax, "_ascend", solved)
    rec = minimax_theta(default_family(spec), spec, config)
    assert len(starts) == 1 and rec.steps == 0 and rec.converged
    # the pool's ascent of six seeds and the descent's one re-ascent; the
    # Legendre bound on the witness's loop proves that no fiber lies above
    # the level there, so its six seeds do not ascend
    assert rec.confident and len(ascents) == 1 and len(solves) == 6 + 1
    assert minimax._fiber_bound(rec.witness.loop, spec, config) <= rec.theta + minimax.ABOVE_LEVEL
    results = ascents[0]
    top = results[0]
    assert starts[0].tobytes() == top.field.coefficients.tobytes()
    copies = [res for res in results[1:] if res.field.frame.norm(
        1.0 - spec.s, res.field.coefficients - top.field.coefficients) <= minimax.SAME_MAXIMIZER]
    assert copies and all(res.action >= rec.theta for res in copies)
    assert len(copies) + 1 < len(results)
    assert all(res.action < rec.theta for res in results[len(copies) + 1:])


def perturbed_orbit(spec):
    xg = straight_orbit(flat_torus(2), (1, 0), spec)
    xi, eta = random_direction(xg, spec, np.random.default_rng(5))
    return perturb(xg, 0.1, xi=xi, eta=eta)


def test_composite_descent_reconverges(small_spec, small_config):
    # perturb the closed geodesic, then descend the fiber-sup envelope back
    xp = perturbed_orbit(small_spec)
    assert action(xp, small_spec) != pytest.approx(0.5 - small_spec.r, abs=1e-6)
    xc, ok = composite_descent(xp, small_spec, small_config)
    assert ok
    np.testing.assert_allclose(action(xc, small_spec), 0.5 - small_spec.r, atol=1e-6)
    assert gradient_norm(xc, small_spec) <= 0.01 * small_config.grad_tol


def test_empty_family_is_rejected_before_any_work(spec, config, monkeypatch):
    monkeypatch.setattr(minimax, "fiber_sup", None)   # any work would fail with TypeError
    with pytest.raises(ValueError, match="nonempty family"):
        minimax_theta([], spec, config)
    with pytest.raises(ValueError, match="nonempty family"):
        minimax_theta(iter([]), spec, config)
    with pytest.raises(ValueError, match="nonempty family"):
        orbit_sweep(spec, [0.5], config, family=[])


def test_orbit_sweep_records_equal_minimax_theta_at_each_r(monkeypatch):
    # every field of every record equals the single-r estimate, and the
    # benchmark's per-point hook, _sweep_task, runs once per r in grid order
    spec16 = default_spec(J=16)
    cfg = FlowConfig.auto(spec16)
    grid = [0.05, 0.35789473684210527, 1.0]
    task, points = minimax._sweep_task, []

    def counted(family, spec, config):
        points.append(spec.r)
        return task(family, spec, config)

    monkeypatch.setattr(minimax, "_sweep_task", counted)
    records, summary = orbit_sweep(spec16, grid, cfg)
    assert points == grid
    # the summary: the first hit, the leaf bound against the oracles, no
    # budget flags, and levels falling in r at the oracle's
    assert summary.hit_found and summary.first_hit_r == grid[1]
    np.testing.assert_allclose(summary.leaf_bound,
                               2.0 * (oracles.alpha_oracle() + oracles.threshold_r0()),
                               atol=1e-8)
    assert summary.budget_flagged == ()
    assert records[0].theta > records[1].theta > records[2].theta
    for rec in records:
        np.testing.assert_allclose(rec.theta, oracles.theta_oracle(rec.r), atol=1e-6)
    family = default_family(spec16)
    for r, rec in zip(grid, records):
        ref = minimax_theta(family, spec16.with_r(r), cfg)
        assert (rec.r, rec.theta, rec.grad_norm, rec.steps, rec.converged, rec.confident) == (
            ref.r, ref.theta, ref.grad_norm, ref.steps, ref.converged, ref.confident)
        assert (str(rec.classification), rec.sigma, rec.leaf_action, rec.symplectic) == (
            str(ref.classification), ref.sigma, ref.leaf_action, ref.symplectic)
        # the witness loop and fiber coefficients
        assert rec.witness.loop.base == ref.witness.loop.base
        np.testing.assert_array_equal(rec.witness.loop.series(16), ref.witness.loop.series(16))
        np.testing.assert_array_equal(rec.witness.fiber.coefficients,
                                      ref.witness.fiber.coefficients)


@pytest.mark.parametrize("J", [8, 32])
def test_fiber_hessian_matches_dense_einsum(J):
    # H v of the solver and the polish, applied to every unit vector
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
        pointwise = minimax._pointwise_hessian(frame, spec, fiber_samples(frame, c))
        hess = np.array([minimax._hessian_product(frame, pointwise, e) for e in np.eye(frame.dim)])
        assert np.max(np.abs(hess - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("J", [1, 8, 32])
def test_compress_matches_dense_einsum_for_a_random_symmetric_multiplier(n, J):
    # a random diagonal multiplier, the kind embedded_metric compresses:
    # every diagonal block of the strided writes and the zero blocks
    # between coordinates, against the three-operand einsum over the
    # sampled eigenfields
    frame = SpectralFrame(n, J)
    rng = np.random.default_rng([n, J])
    for m in (4 * J + 1, 2 * J + 2):
        weight = rng.standard_normal((m, n))
        w = weight[:, :, None] * np.eye(n)
        basis = frame.basis_samples(m)
        ref = np.einsum("kti,tij,ltj->kl", basis, w, basis) / m
        assert np.max(np.abs(frame.compress(weight) - ref)) <= 1e-12 * np.max(np.abs(ref))


def frame_arrays(frame):
    # every array the frame keeps: its attributes, and the values of its
    # dict caches and tuples, recursively
    stack, out = list(vars(frame).values()), []
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, tuple):
            stack.extend(value)
        elif isinstance(value, np.ndarray):
            out.append(value)
    return out


def test_a_frame_keeps_no_array_larger_than_its_dimension(monkeypatch):
    # after a J = 16 minimax_theta, whose fiber solves apply the fiber
    # Hessian through the frame, and after embedded_metric on a frame of
    # the same shape
    spec = default_spec(J=16, r=1.0)
    product, products = minimax._hessian_product, []

    def counted(*args):
        products.append(args[0])
        return product(*args)

    monkeypatch.setattr(minimax, "_hessian_product", counted)
    family = default_family(spec)
    minimax_theta(family, spec, FlowConfig.auto(spec))
    frame = frame_of(family[0], spec.J)
    assert products and all(f is frame for f in products)
    assert {v.shape for v in frame_arrays(frame)} == {(frame.dim,)}
    embedded_metric(random_loop(flat_torus(2), (1, 1), 4, np.random.default_rng(2)), spec.J)
    assert {v.shape for v in frame_arrays(frame)} == {(frame.dim,)}


def reference_composite_descent(x, spec, config):
    """composite_descent as it was: each round evaluated the state for
    its gradient norm and again for the step's k1.  The rounds carry the
    state [qd, c], as the flow's march does."""
    tol = 0.01 * config.grad_tol
    frame = x.frame
    qd0 = velocity_coefficients(x.loop, frame)
    qd, c = qd0, x.fiber.coefficients
    for _ in range(minimax.DESCENT_ROUNDS):
        c = minimax._ascend(frame, qd, c, spec, config.gamma_dprime).field.coefficients
        state = flow_mod._at(x.loop, frame, (qd, c))
        if gradient_norm(state, spec) <= tol:
            return state, True
        _, k = flow_mod._step(spec, config, 5.0 * config.dt,
                              flow_mod._velocity(gradient_plan(frame, spec.s), np.stack((qd, c)),
                                                 spec, config),
                              gradient_plan(frame, spec.s))
        qd, c = k.state
    return flow_mod._at(x.loop, frame, (qd, c)), False


def test_composite_descent_matches_reference(small_spec, small_config, monkeypatch):
    monkeypatch.setattr(minimax, "DESCENT_ROUNDS", 6)
    x = perturbed_orbit(small_spec)
    got, ok = composite_descent(x, small_spec, small_config)
    want, ref_ok = reference_composite_descent(x, small_spec, small_config)
    assert ok == ref_ok
    assert got.loop.content_key() == want.loop.content_key()
    assert got.fiber.coefficients.tobytes() == want.fiber.coefficients.tobytes()


def test_descent_round_evaluates_its_state_once(small_spec, small_config, monkeypatch):
    # per round after the ascent: one kernel call (metric_gradient) at the
    # ascended state, whose velocity is also the step's k1, then four per
    # RK4 try
    rounds = []

    def counted(fn, slot):
        def wrapped(*args, **kwargs):
            rounds[-1][slot] += 1
            return fn(*args, **kwargs)
        return wrapped

    def ascend(*args):
        rounds.append([0, 0])   # evaluations, RK4 tries
        return solve(*args)

    solve = minimax._ascend
    monkeypatch.setattr(flow_mod, "metric_gradient", counted(flow_mod.metric_gradient, 0))
    monkeypatch.setattr(flow_mod, "_rk4", counted(flow_mod._rk4, 1))
    monkeypatch.setattr(minimax, "_ascend", ascend)
    monkeypatch.setattr(minimax, "DESCENT_ROUNDS", 4)
    composite_descent(perturbed_orbit(small_spec), small_spec, small_config)
    assert len(rounds) == 4
    assert all(evals == 1 + 4 * tries for evals, tries in rounds)
    assert [1, 5] in ([tries, evals] for evals, tries in rounds)


def test_envelope_descent_builds_no_state(small_spec, small_config, monkeypatch):
    # the rounds step the state z = [qd, c] and build no LoopPath or
    # PhasePoint (each fiber ascent still returns its FiberField);
    # composite_descent builds its state from the velocity's z
    x = perturbed_orbit(small_spec)
    built = []
    with monkeypatch.context() as m:
        for cls in (LoopPath, PhasePoint):
            m.setattr(cls, "__post_init__", lambda self, f=cls.__post_init__:
                      built.append(type(self).__name__) or f(self))
        rounds, k = minimax._envelope_descent(gradient_plan(x.frame, small_spec.s),
                                              flow_mod._start(x), small_spec, small_config,
                                              0.01 * small_config.grad_tol)
    assert built == [] and 0 < rounds < minimax.DESCENT_ROUNDS
    xc, ok = composite_descent(x, small_spec, small_config)
    assert ok and xc.fiber.coefficients.tobytes() == k.state[1].tobytes()
    assert flow_mod._at(x.loop, x.frame, k.state).loop.content_key() == xc.loop.content_key()


def test_minimax_theta_builds_one_witness_per_descend(spec, config, monkeypatch):
    # _descend builds exactly one PhasePoint, the witness, by one flow._at
    # call from the state it keeps; it calls neither refine_critical,
    # flow_velocity nor gradient_norm
    descents, built, points = [], [], []

    def descend(*args, f=minimax._descend):
        points.clear()
        out = f(*args)
        descents.append(list(points))
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("_descend evaluated a built state")

    monkeypatch.setattr(minimax, "_descend", descend)
    monkeypatch.setattr(minimax, "_at", lambda *args, f=minimax._at: built.append(f(*args))
                        or built[-1])
    monkeypatch.setattr(PhasePoint, "__post_init__", lambda self, f=PhasePoint.__post_init__:
                        points.append(self) or f(self))
    monkeypatch.setattr(minimax, "refine_critical", refuse)
    monkeypatch.setattr(flow_mod, "flow_velocity", refuse)
    monkeypatch.setattr(action_mod, "gradient_norm", refuse)
    assert not any(hasattr(minimax, name) for name in ("flow_velocity", "gradient_norm"))
    rec = minimax_theta(default_family(spec), spec, config)
    assert len(descents) == 1 and len(built) == 1
    assert descents[0] == built == [rec.witness]


def test_minimax_theta_on_a_mixed_dimension_family(monkeypatch):
    # a family may mix loop dimensions: _descend makes one gradient_plan
    # per frame in its pool, and the level is each loop's alone
    spec = default_spec(J=8, r=1.0)
    config = FlowConfig.auto(spec)
    loops = [straight_loop(flat_torus(1), (1,)), straight_loop(flat_torus(2), (1, 0))]
    alone = [minimax_theta([loop], spec, config).theta for loop in loops]
    plans = []
    monkeypatch.setattr(minimax, "gradient_plan", lambda frame, s, f=minimax.gradient_plan:
                        plans.append(frame.n) or f(frame, s))
    rec = minimax_theta(loops, spec, config)
    assert alone == [rec.theta] * 2 == [0.24961970515912177] * 2
    assert sorted(plans) == [1, 2] and rec.converged


def test_sweep_work_on_the_benchmark_points(spec, config, monkeypatch):
    # the benchmark sweep's four r-points: per level one gradient_plan (in
    # _descend), one rebuild_series (the witness) and four series_velocity
    # calls, every one a velocity_coefficients of a loop (fiber_sup, the
    # descent's start, the witness and its symplectic action); the
    # Legendre bound reads node_speeds, with no series_velocity
    counts = Counter()

    def counted(module, name):
        monkeypatch.setattr(module, name, lambda *args, f=getattr(module, name):
                            counts.update([name]) or f(*args))

    for module in (action_mod, flow_mod, minimax):
        counted(module, "gradient_plan")
    counted(action_mod, "series_velocity")
    counted(flow_mod, "rebuild_series")
    records, _ = orbit_sweep(spec, np.linspace(0.05, 2.0, 4), config)
    assert [str(rec.classification) for rec in records] == [
        "fake-geodesic", "on-hypersurface(sigma=-0.169972)", "on-hypersurface(sigma=-0.178987)",
        "on-hypersurface(sigma=-0.182948)"]
    assert counts == {"gradient_plan": 4, "rebuild_series": 4, "series_velocity": 16}


# the twelve off-family start loops of the level's gates and, with
# unit-speed radii, the circle of winding 2, whose Legendre maximizer at
# speed 4 pi lies outside the fiber ball: the bound lies above the best
# fiber action found, by the truncation gap off the family (at most 0.04
# here) and by the ball's cap, 10.64, on the circle
@pytest.mark.parametrize("amplitude", [0.005, 0.02, 0.05])
@pytest.mark.parametrize("r", SWEEP_GRID)
def test_the_legendre_bound_lies_above_fiber_sup_off_the_family(amplitude, r):
    spec = default_spec(J=32, r=r)
    config = FlowConfig.auto(spec)
    loop = wiggled_loop(amplitude)
    gap = minimax._fiber_bound(loop, spec, config) - fiber_sup(loop, spec, config)[0].action
    assert 0.0 <= gap <= 0.05


@pytest.mark.parametrize("r", SWEEP_GRID)
def test_the_legendre_bound_lies_above_the_ball_capped_circle(r):
    spec = default_spec(J=32, r=r)
    config = FlowConfig.auto(spec)
    loop = straight_loop(embedded_circle(), (2,))
    gap = minimax._fiber_bound(loop, spec, config) - fiber_sup(loop, spec, config)[0].action
    assert 10.6 <= gap <= 10.7


@pytest.mark.parametrize("J", [64, 512])
def test_the_legendre_bound_reads_the_straight_loops_exact_speeds(J, monkeypatch):
    # every node speed of the unit-speed straight loop is exactly 1.0 in its
    # velocity_samples; the frame's irfft of its velocity coefficients reads
    # 0.9999999999999987 to 1.0000000000000009 at these J, which moves the
    # bound at r = 0.05 (J = 64) and r = 2 (J = 512)
    read = []
    monkeypatch.setattr(minimax, "legendre_conjugate", lambda spec, speeds, f=legendre_conjugate:
                        read.append(speeds) or f(spec, speeds))
    ones = np.ones(default_samples(J))
    for r in (0.05, 1.0, 2.0):
        spec = default_spec(J=J, r=r)
        config = FlowConfig.auto(spec)
        want = (float(np.mean(legendre_conjugate(spec, ones)))
                + minimax.BOUND_SLACK * (1.0 + spec.r + config.gamma_dprime))
        assert minimax._fiber_bound(straight_loop(flat_torus(2), (1, 0)), spec, config) == want
    assert len(read) == 3 and all(np.array_equal(speeds, ones) for speeds in read)


def test_fiber_sup_refuses_a_loop_whose_speeds_overflow():
    # speeds of 2 pi 1e200, whose squares overflow: every action would be
    # inf - inf, and without the check the ascent runs on at gradient norm inf
    spec = default_spec(J=8)
    loop = LoopPath.from_json({"winding": [1, 0], "base": [0.0, 0.0], "cos": [[1e200, 0.0]],
                               "sin": [[0.0, 0.0]]}, flat_torus(2))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"fiber_sup loop of winding \(1, 0\) has non-finite"):
        fiber_sup(loop, spec, FlowConfig.auto(spec))
    assert time.perf_counter() - start < 1.0


def test_the_legendre_bound_of_a_non_finite_loop_is_nan(spec, config):
    loop = straight_loop(flat_torus(2), (1, 0))
    loop = loop.with_series(np.full_like(loop.series(spec.J), math.nan))
    assert math.isnan(minimax._fiber_bound(loop, spec, config))


@pytest.fixture(scope="module")
def default_sweeps():
    """The default 20-point sweep of the straight family twice: as it
    runs, and with the Legendre bound forced to NaN, which proves
    nothing, so that fiber_sup runs on every witness's loop as it did
    before the bound; each with the r of every fiber_sup call."""
    spec, grid = default_spec(), np.linspace(0.05, 2.0, 20)
    config = FlowConfig.auto(spec)
    runs = []
    for bound in (minimax._fiber_bound, lambda *args: math.nan):
        calls = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(minimax, "_fiber_bound", bound)
            m.setattr(minimax, "fiber_sup", lambda loop, spec, *args, f=minimax.fiber_sup:
                      calls.append(spec.r) or f(loop, spec, *args))
            runs.append((*orbit_sweep(spec, grid, config), calls))
    return grid, runs


def test_fiber_sup_runs_once_per_r_point_on_the_straight_family(default_sweeps):
    grid, ((_, _, calls), (_, _, forced)) = default_sweeps
    assert calls == list(grid)
    assert forced == [r for r in grid for _ in range(2)]


def test_the_legendre_bound_moves_no_record_of_the_default_sweep(default_sweeps):
    _, ((records, summary, _), (forced, forced_summary, _)) = default_sweeps
    assert summary == forced_summary and len(records) == len(forced) == 20
    for rec, ref in zip(records, forced):
        for name in ("r", "theta", "sigma", "leaf_action", "symplectic", "grad_norm", "steps",
                     "converged", "confident"):
            assert getattr(rec, name) == getattr(ref, name), name
        assert str(rec.classification) == str(ref.classification)
        assert rec.witness.loop.base == ref.witness.loop.base
        assert rec.witness.loop.series(32).tobytes() == ref.witness.loop.series(32).tobytes()
        assert (rec.witness.fiber.coefficients.tobytes()
                == ref.witness.fiber.coefficients.tobytes())
