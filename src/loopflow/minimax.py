"""Minimax level estimation over fibered families and the r-sweep.

theta(r) is estimated in two stages.  The inner supremum of the action
over the truncated fiber ball {|p|_{1-s} <= gamma''} above each family
loop is computed by projected gradient ascent from several starts
(scaled smoothed-velocity fields plus random fields).  The outer
infimum is monitored along the descent flow: the action is
non-increasing on every trajectory, so the infimum over time of the
running maximum equals the maximum of the trajectories' limiting
values, i.e. the largest critical value reached from the tracked
maximizers.  Witnesses are polished by least squares on the stacked
gradient coefficients before classification.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from . import fourier
from .action import (PhasePoint, action, classify_critical, fiber_evaluation, gradient,
                     gradient_norm, loop_energy, pack_coefficients, require_finite,
                     unpack_coefficients, velocity_coefficients)
from .flow import FlowConfig, flow_step, flow_to_critical
from .geometry import flat_torus, straight_loop
from .hamiltonian import HamiltonianSpec, alpha_bound, r0_threshold, radial_H_jet
from .spectral import FiberField, frame_of

ASCENT_TOL = 1e-9
ASCENT_ITERS = 600
ESCAPE_FLOOR = -0.5


def symplectic_action(x):
    """Loop integral of p dq, via the exact coefficient pairing."""
    return float(velocity_coefficients(x.loop, x.frame) @ x.fiber.coefficients)


@dataclass(frozen=True)
class AscentResult:
    field: FiberField
    action: float
    converged: bool
    grad_norm: float


def _project_ball(coeffs, weights, radius):
    # weights = (1+lam)^{1-s}: the ball of the (1-s)-norm
    nrm = math.sqrt(float(np.sum(weights * coeffs ** 2)))
    if nrm > radius:
        return coeffs * (radius / nrm), True
    return coeffs, False


def fiber_hessian(frame, basis, c, spec):
    """Hessian of the H term of the action in the fiber coefficients c.

    It is the quadrature compression sum_t basis_k(t)^T W(t) basis_l(t) / m
    of the pointwise fiber Hessian W(t) = h'' phat phat^T
    + (h'/rho)(1 - phat phat^T) of H_r; the action's fiber Hessian is
    its negative.  basis holds the sampled eigenfields (D, m, n) of
    frame.basis_samples.  The compression is one two-operand einsum (W
    applied to every eigenfield) and one BLAS product of the flattened
    (D, m n) arrays.
    """
    n = frame.n
    dim, m, _ = basis.shape
    p = frame.samples(c, m)
    rho = np.sqrt(np.sum(p ** 2, axis=1))
    safe = np.where(rho > 1e-12, rho, 1.0)
    _, h1, h2 = radial_H_jet(spec, rho)
    ratio = h1 / safe
    phat = p / safe[:, None]
    w = (ratio[:, None, None] * np.eye(n)[None, :, :]
         + (h2 - ratio)[:, None, None] * phat[:, :, None] * phat[:, None, :])
    applied = np.einsum("tij,ltj->lti", w, basis)
    return basis.reshape(dim, -1) @ applied.reshape(dim, -1).T / m


def _vertical_newton(frame, basis, evaluate_at, c, spec, precond, radius, tol, iters=12):
    """Endgame for the fiber ascent: damped Newton on the vertical
    stationarity, with the exact quadrature Hessian of the H term.

    The action Hessian in the L^2-orthonormal coefficients is the
    quadrature compression of the pointwise fiber Hessian of H_r
    (fiber_hessian, built by BLAS from the sampled eigenfields), so the
    solve has none of the mode damping that stalls first-order ascent
    near the top.  evaluate_at(c) gives (action, vertical gradient, its
    (1-s)-norm) at fiber coefficients c; precond = (1+lam)^{1-s} turns the
    vertical gradient into the plain partial gradient, and candidates are
    projected back into the (1-s)-ball of the given radius.
    """
    a, g, gn = evaluate_at(c)
    eye = np.eye(frame.dim)
    for _ in range(iters):
        if gn <= tol:
            break
        hess = fiber_hessian(frame, basis, c, spec)
        u = precond * g
        improved = False
        for mu in (0.0, 1e-9, 1e-6, 1e-3, 1.0):
            try:
                delta = np.linalg.solve(hess + mu * eye, u)
            except np.linalg.LinAlgError:
                continue
            cand, _ = _project_ball(c + delta, precond, radius)
            a2, g2, gn2 = evaluate_at(cand)
            if gn2 < gn:
                c, a, g, gn = cand, a2, g2, gn2
                improved = True
                break
        if not improved:
            break
    return c, a, gn


def fiber_sup(loop, spec, config, rng=None, starts=8, iters=ASCENT_ITERS, tol=ASCENT_TOL,
              seeds=None):
    """Projected gradient ascent of the action over the fiber ball.

    Default seeds: radial scalings of the smoothed velocity field
    covering the zero branch, the thickening band, and the fake-geodesic
    annulus, topped up with random fields; pass explicit coefficient
    arrays to ascend locally instead.  Returns results sorted by action,
    best first.  The loop never moves here, so its velocity coefficients
    and the metric weights are computed once and every line-search try
    is one fiber_evaluation.
    """
    require_finite("fiber_sup loop", loop)
    rng = np.random.default_rng(0) if rng is None else rng
    frame = frame_of(loop, spec.J)
    lam = frame.eigenvalues
    m = fourier.default_samples(spec.J)
    qd = velocity_coefficients(loop, frame)
    to_vertical = (1.0 + lam) ** (spec.s - 1.0)
    # step along the plain partial gradient (1+lam)^{1-s} g: the fiber
    # Hessian is O(1)-conditioned in these coordinates, while the raw
    # (1-s)-representative damps high modes and stalls the ascent
    precond = (1.0 + lam) ** (1.0 - spec.s)

    def evaluate_at(c):
        a, dv, _ = fiber_evaluation(frame, qd, c, spec)
        g = to_vertical * dv
        return a, g, math.sqrt(float(np.sum(precond * g ** 2)))

    if seeds is None:
        smooth = to_vertical * qd
        speed = max(math.sqrt(float(np.max(np.sum(loop.velocity_samples(m) ** 2, axis=1)))), 1e-12)
        lo = spec.rho_star * math.exp(-spec.thickening_halfwidth)
        radii = [0.9 * lo, spec.rho_star, 1.45 * spec.rho1, 1.85 * spec.rho1, 1.0, 2.2 * spec.rho1]
        seeds = [(rho / speed) * smooth for rho in radii[:max(starts - 2, 1)]]
        while len(seeds) < starts:
            noise = 0.05 * rng.standard_normal(frame.dim) / (1.0 + lam) ** 0.5
            seeds.append(smooth * spec.rho_star / speed + noise)
    else:
        for i, c0 in enumerate(seeds):
            require_finite(f"fiber_sup seed {i}", fiber=c0)
    basis = frame.basis_samples(m)
    results = []
    for c0 in seeds:
        c, _ = _project_ball(np.asarray(c0, dtype=float), precond, config.gamma_dprime)
        a, g, gn = evaluate_at(c)
        eta = 0.5
        converged = False
        for _ in range(iters):
            if gn <= tol:
                converged = True
                break
            accepted = False
            for _ in range(40):
                cand, clipped = _project_ball(c + eta * precond * g, precond, config.gamma_dprime)
                a_new, g_new, gn_new = evaluate_at(cand)
                if a_new >= a - 1e-14:
                    c, a, g, gn = cand, a_new, g_new, gn_new
                    accepted = True
                    if not clipped:
                        eta = min(eta * 1.3, 2.0)
                    break
                eta *= 0.5
            if not accepted:
                break
        if not converged and gn <= 1e-2:
            c, a, gn = _vertical_newton(frame, basis, evaluate_at, c, spec, precond,
                                        config.gamma_dprime, tol)
            converged = gn <= tol
        results.append(AscentResult(field=FiberField(frame=frame, coefficients=c),
                                    action=a, converged=converged, grad_norm=gn))
    results.sort(key=lambda res: res.action, reverse=True)
    return results


def composite_descent(x, spec, config, rounds=4000, inner_steps=1, tol=None):
    """Descend the inner-sup envelope: re-ascend the fiber locally after
    every few descent steps.

    Fiber-maximal critical points are saddles of the plain descent flow,
    so a perturbed state never flows back to one directly.  With the
    fiber pinned to its local maximizer the loop moves along the exact
    envelope gradient (Danskin), and the envelope has the critical point
    as a genuine local minimum; letting the fiber go stale instead feeds
    the mixed unstable directions.  Returns (state, converged) with
    convergence declared right after an ascent, where the branch is
    exact.
    """
    tol = 0.01 * config.grad_tol if tol is None else tol
    # the envelope is smooth (no shelf stiffness on the maximal branch),
    # so a larger step is stable; the halving guard still protects it
    dt = 5.0 * config.dt
    for _ in range(rounds):
        asc = fiber_sup(x.loop, spec, config, seeds=[x.fiber.coefficients])[0]
        x = PhasePoint(loop=x.loop, fiber=asc.field, s=spec.s)
        if gradient_norm(x, spec) <= tol:
            return x, True
        for _ in range(inner_steps):
            x = flow_step(x, spec, config, dt=dt)
    return x, False


def _gradient_residual(x, spec):
    grad_h, grad_v = gradient(x, spec)
    lam = x.frame.eigenvalues
    return np.concatenate([(1.0 + lam) ** (0.5 * x.s) * grad_h.coefficients,
                           (1.0 + lam) ** (0.5 * (1.0 - x.s)) * grad_v.coefficients])


def refine_critical(x, spec, max_nfev=4000):
    """Polish a near-critical state by least squares on the stacked
    metric-weighted gradient coefficients."""
    template = x

    def fun(vec):
        return _gradient_residual(unpack_coefficients(template, vec), spec)

    sol = least_squares(fun, pack_coefficients(x), method="trf",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=max_nfev)
    refined = unpack_coefficients(template, sol.x)
    return refined if gradient_norm(refined, spec) <= gradient_norm(x, spec) else x


@dataclass(frozen=True)
class MinimaxRecord:
    """One r-slice of the sweep: the level, its witness, and how the
    witness sits relative to the hypersurface."""

    r: float
    theta: float
    witness: PhasePoint
    classification: object
    action: float
    sigma: float
    leaf_action: float
    symplectic: float
    grad_norm: float
    steps: int
    converged: bool
    confident: bool

    def to_row(self):
        return {"r": self.r, "theta": self.theta,
                "classification": str(self.classification), "action": self.action,
                "sigma": self.sigma if self.sigma is not None else math.nan,
                "leaf_action": self.leaf_action if self.leaf_action is not None else math.nan,
                "grad_norm": self.grad_norm, "steps": self.steps}


def minimax_theta(family, spec, config, rng=None, starts=8, polish=True):
    """Estimate theta(r) over the fibered family and record the witness.

    Non-converged inner ascents trigger one retry with doubled starts;
    a persistent failure only drops the confidence flag, never the
    record.  The zero-section keeps the level nonnegative; a level
    below -1e-6 means the estimator itself broke, which raises.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    candidates = []
    confident = True
    for loop in family:
        sups = fiber_sup(loop, spec, config, rng=rng, starts=starts)
        if not all(res.converged for res in sups):
            sups = fiber_sup(loop, spec, config, rng=rng, starts=2 * starts)
            confident = confident and all(res.converged for res in sups)
        for res in sups:
            x0 = PhasePoint(loop=loop, fiber=res.field, s=spec.s)
            candidates.append(flow_to_critical(x0, spec, config, floor=ESCAPE_FLOOR))
    best = max(candidates, key=lambda c: c.action)
    witness = best.state
    if polish and best.grad_norm < 1e-2:
        witness = refine_critical(witness, spec)
    theta = action(witness, spec)
    if theta < -1e-6:
        raise ArithmeticError(f"minimax level {theta:.3e} fell below the zero section")
    gn = gradient_norm(witness, spec)
    cls = classify_critical(witness, spec)
    sym = symplectic_action(witness)
    leaf = sym if cls.kind == "on-hypersurface" else None
    return MinimaxRecord(r=spec.r, theta=theta, witness=witness, classification=cls,
                         action=theta, sigma=getattr(cls, "sigma", None), leaf_action=leaf,
                         symplectic=sym, grad_norm=gn, steps=best.steps,
                         converged=bool(best.converged), confident=bool(confident))


def default_family(spec, winding=(1, 0)):
    """The standard test family: one straight torus loop of the given
    winding (unit speed for the default (1, 0))."""
    manifold = flat_torus(len(winding))
    return [straight_loop(manifold, winding)]


def _sweep_task(payload):
    spec_json, config_json, loops, r, seed, idx, polish = payload
    spec = HamiltonianSpec.from_json(spec_json).with_r(r)
    config = FlowConfig.from_json(config_json)
    family = loops if loops is not None else default_family(spec)
    rng = np.random.default_rng([seed, idx])
    return minimax_theta(family, spec, config, rng=rng, polish=polish)


def pool_size(jobs, points, cpus):
    """Worker processes for a sweep of `points` r-values on `cpus` CPUs:
    the requested jobs, but never more than the points or the CPUs, and
    at least one."""
    return max(1, min(int(jobs), points, cpus))


@dataclass(frozen=True)
class SweepSummary:
    hit_found: bool
    first_hit_r: float
    first_hit_leaf_action: float
    leaf_bound: float
    plateau_energies: dict
    plateau_shifted_actions: dict
    budget_flagged: tuple


def orbit_sweep(spec_template, r_grid, config, jobs=1, seed=0, family=None, polish=True):
    """Run minimax_theta over the r grid, in-process or on a pool.

    Results merge deterministically in grid order regardless of the
    worker count.  The summary reports the first r whose witness lands
    on the hypersurface with leaf action inside (0, 2(alpha + r0)), and
    when no hit exists, the closed-geodesic plateau diagnostics: the
    loop energies and the r-shifted actions, both constant on a
    plateau.
    """
    payloads = [(spec_template.to_json(), config.to_json(), family, float(r), seed, i, polish)
                for i, r in enumerate(r_grid)]
    workers = pool_size(jobs, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        records = [_sweep_task(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_task, payloads))
    alpha = alpha_bound(spec_template, 1.0)
    bound = 2.0 * (alpha + r0_threshold(spec_template))
    hits = [rec for rec in records
            if rec.classification.kind == "on-hypersurface"
            and rec.leaf_action is not None and 0.0 < rec.leaf_action < bound]
    plateau = [rec for rec in records if rec.classification.kind == "closed-geodesic"]
    summary = SweepSummary(
        hit_found=bool(hits),
        first_hit_r=min((rec.r for rec in hits), default=math.nan),
        first_hit_leaf_action=(min(hits, key=lambda rec: rec.r).leaf_action if hits else math.nan),
        leaf_bound=bound,
        plateau_energies={rec.r: loop_energy(rec.witness.loop) for rec in plateau},
        plateau_shifted_actions={rec.r: rec.action + rec.r for rec in plateau},
        budget_flagged=tuple(rec.r for rec in records if not rec.converged),
    )
    return records, summary
