"""Minimax level estimation over fibered families and the r-sweep.

theta(r) is estimated in two stages.  The inner supremum of the action
over the truncated fiber ball {|p|_{1-s} <= gamma''} above each family
loop is computed by projected gradient ascent from fixed starts (the
smoothed velocity field scaled to six radii), all ascending together as
one (R S, D) coefficient array for R values of r, with an (R S, 1)
energy column (H_r is linear in r); a single estimate has R = 1.  Each
round is one batched fiber_evaluation, and each row keeps its own step
size and stopping state.  The outer infimum is followed by descending
the envelope of that supremum: each round steps the loop along the flow
and re-ascends the fiber, so the loop moves along the envelope gradient
(Danskin) and the action never rises.  The maximizers are descended from
the highest action down; the level is the largest action a descent ends
at, so a maximizer below it cannot raise the level, and a copy of a
maximizer already descended would only repeat its descent.  Witnesses
are polished before classification by Gauss-Newton steps that move the
loop's series arrays and the fiber to zero the stacked gradient
coefficients, backtracked until the residual falls.
The Jacobian is block-triangular, so each step is solved through its
blocks (two scaled permutations and one n x n kernel solve) without
forming it; it needs numpy only, so importing the package loads no
scipy.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fourier
from .action import (PhasePoint, classify_critical, derivative_coefficients, evaluate,
                     fiber_evaluation, gradient_norm, gradient_plan, loop_energy, require_finite,
                     series_velocity, velocity_coefficients)
from .flow import _state, _step, flow_velocity
from .geometry import flat_torus, straight_loop
from .hamiltonian import alpha_bound, r0_threshold, radial_H_jet
from .spectral import SQ2, FiberField, frame_of

ASCENT_TOL = 1e-9
ASCENT_ITERS = 600
DESCENT_ROUNDS = 4000    # re-ascend-then-step rounds of one envelope descent
HANDOFF = 1e-2           # gradient norm below which the Newton endgame or the polish takes over
SAME_MAXIMIZER = 1e-6    # (1-s)-distance below which two ascents found one maximizer
POLISH_NFEV = 4000       # residual evaluations one refine_critical polish may spend


def symplectic_action(x):
    """Loop integral of p dq, via the exact coefficient pairing."""
    return float(velocity_coefficients(x.loop, x.frame) @ x.fiber.coefficients)


@dataclass(frozen=True, eq=False)
class AscentResult:
    field: FiberField
    action: float
    converged: bool
    grad_norm: float


def loop_speed(loop, J):
    """The loop's largest speed |qdot| on the default sample grid of cutoff J."""
    m = fourier.default_samples(J)
    return math.sqrt(float(np.max(np.sum(loop.velocity_samples(m) ** 2, axis=1))))


def _project_ball(coeffs, frame, r, radius):
    """Scale each row of coeffs (D,) or (S, D) back into the radius ball
    of the frame's r-norm; returns (rows, clipped mask)."""
    nrm = frame.norm(r, coeffs)
    clipped = nrm > radius
    if np.count_nonzero(clipped):
        # unclipped rows are multiplied by exactly 1.0
        coeffs = coeffs * (radius / np.where(clipped, nrm, radius))[..., None]
    return coeffs, clipped


def _pointwise_hessian(frame, c, spec):
    """The pointwise fiber Hessian of H_r at the fiber with coefficients
    c, on the default grid: W(t) = (h'/rho) I + (h'' - h'/rho) phat phat^T,
    an (m, n, n) array."""
    p = frame.samples(c)
    rho = np.sqrt(np.sum(p ** 2, axis=1))
    safe = np.where(rho > 1e-12, rho, 1.0)
    _, h1, h2 = radial_H_jet(spec, rho)
    ratio = h1 / safe
    phat = p / safe[:, None]
    return (ratio[:, None, None] * np.eye(frame.n)[None, :, :]
            + (h2 - ratio)[:, None, None] * phat[:, :, None] * phat[:, None, :])


def _vertical_newton(frame, evaluate_at, c, a, g, gn, spec, radius):
    """Endgame for the fiber ascent: damped Newton on the vertical
    stationarity, with the exact quadrature Hessian of the H term.

    The action Hessian in the L^2-orthonormal coefficients is minus the
    frame's compression (SpectralFrame.compress) of the pointwise fiber
    Hessian of H_r (_pointwise_hessian), so the solve has none of the
    mode damping that stalls first-order ascent near the top.
    evaluate_at(c) gives (action, vertical gradient, its (1-s)-norm) at
    fiber coefficients c, and (a, g, gn) are its values at the start c;
    the weights (1+lam)^{1-s} turn the vertical gradient into the plain
    partial gradient, and candidates are projected back into the
    (1-s)-ball of the given radius.  At most 12 Newton steps, each
    stopping at ASCENT_TOL.
    """
    r = 1.0 - spec.s
    precond = frame.weights(r)
    eye = np.eye(frame.dim)
    for _ in range(12):
        if gn <= ASCENT_TOL:
            break
        hess = frame.compress(_pointwise_hessian(frame, c, spec))
        u = precond * g
        improved = False
        for mu in (0.0, 1e-9, 1e-6, 1e-3, 1.0):
            try:
                delta = np.linalg.solve(hess + mu * eye, u)
            except np.linalg.LinAlgError:
                continue
            cand, _ = _project_ball(c + delta, frame, r, radius)
            a2, g2, gn2 = evaluate_at(cand)
            if gn2 < gn:
                c, a, g, gn = cand, a2, g2, gn2
                improved = True
                break
        if not improved:
            break
    return c, a, gn


def fiber_sup(loop, spec, config, iters=ASCENT_ITERS, seeds=None):
    """Projected gradient ascent of the action over the fiber ball.

    Default seeds: the smoothed velocity field scaled, at the loop's top
    speed, to radii covering the zero branch (0.9 rho* e^{-a}), the
    thickening band (rho*), the fake-geodesic annulus (1.45 and 1.85
    rho1), unit radius and the kinetic tail (2.2 rho1).  They are fixed,
    so equal inputs give equal results.  Pass explicit coefficient
    arrays to ascend locally instead.  Returns results sorted by action,
    best first.

    All seeds ascend together as one (S, D) array.  The loop never
    moves here, so its velocity coefficients and the metric weights are
    computed once, and each round is one batched fiber_evaluation: one
    line-search try for every seed still ascending.  Each seed keeps its
    own step size, step count and halving count, so it sees exactly the
    evaluations it would see alone.  A seed stops when its gradient norm
    reaches ASCENT_TOL, after iters accepted steps, or after 40 halvings
    of one step; a stopped seed that is not converged but has a gradient
    norm below HANDOFF then gets the Newton endgame.  This is _fiber_sups
    with the one energy spec.r.
    """
    return _fiber_sups(loop, spec, [spec.r], config, iters, seeds)[0]


def _fiber_sups(loop, spec, energies, config, iters=ASCENT_ITERS, seeds=None):
    """fiber_sup at spec.with_r(r) for every r of energies, as one
    ascent; returns one sorted result list per energy.

    The seeds do not depend on r, so with R energies and S seeds the
    ascent runs one (R S, D) array and an (R S, 1) column of row
    energies, and each fiber_evaluation evaluates every live row at its
    own r.  Each row keeps its own step size, halving count and
    rejected-try count and gets the Newton endgame at its own r, so every
    result equals the one-energy ascent at that r bit for bit.
    """
    if not len(energies):
        return []
    require_finite("fiber_sup loop", loop)
    frame = frame_of(loop, spec.J)
    qd = velocity_coefficients(loop, frame)
    to_vertical = frame.weights(spec.s - 1.0)
    # step along the plain partial gradient (1+lam)^{1-s} g: the fiber
    # Hessian is O(1)-conditioned in these coordinates, while the raw
    # (1-s)-representative damps high modes and stalls the ascent
    r = 1.0 - spec.s
    precond = frame.weights(r)
    radius = config.gamma_dprime

    def evaluate_at(c, energy):
        a, dv, _ = fiber_evaluation(frame, qd, c, spec, energy)
        g = to_vertical * dv
        return a, g, frame.norm(r, g)

    if seeds is None:
        smooth = to_vertical * qd
        speed = max(loop_speed(loop, spec.J), 1e-12)
        lo = spec.rho_star * math.exp(-spec.thickening_halfwidth)
        radii = (0.9 * lo, spec.rho_star, 1.45 * spec.rho1, 1.85 * spec.rho1, 1.0, 2.2 * spec.rho1)
        seeds = [(rho / speed) * smooth for rho in radii]
    else:
        for i, c0 in enumerate(seeds):
            require_finite(f"fiber_sup seed {i}", fiber=c0)
        if not len(seeds):
            return [[] for _ in energies]
    n_seeds = len(seeds)
    c, _ = _project_ball(np.array(seeds, dtype=float).reshape(n_seeds, frame.dim), frame, r,
                         radius)
    c = np.tile(c, (len(energies), 1))
    energy = np.repeat(energies, n_seeds)[:, None]
    a, g, gn = evaluate_at(c, energy)
    final_c, final_a, final_g, final_gn = (np.empty_like(v) for v in (c, a, g, gn))
    live = np.arange(len(c))                 # row index of each ascending row
    eta = np.full(len(c), 0.5)
    rejected = np.zeros(len(c), dtype=int)   # rejected tries so far
    halvings = np.zeros(len(c), dtype=int)   # rejected tries of the current step
    done = (gn <= ASCENT_TOL) | (iters <= 0)
    rounds = 0
    # every live row makes one try per round, so its accepted steps are
    # rounds - rejected; the all-accepted and all-rejected rounds skip the
    # row selection, which keeps the envelope descent's one-seed
    # re-ascents as cheap as a scalar loop
    while True:
        if np.count_nonzero(done):
            stopped = live[done]
            final_c[stopped], final_a[stopped] = c[done], a[done]
            final_g[stopped], final_gn[stopped] = g[done], gn[done]
            keep = ~done
            live, c, a, g, gn, eta, rejected, halvings, energy = (
                arr[keep] for arr in (live, c, a, g, gn, eta, rejected, halvings, energy))
            if not live.size:
                break
        rounds += 1
        cand, clipped = _project_ball(c + (eta[:, None] * precond) * g, frame, r, radius)
        a_new, g_new, gn_new = evaluate_at(cand, energy)
        accepted = a_new >= a - 1e-14
        n_accepted = np.count_nonzero(accepted)
        if n_accepted:
            grown = np.minimum(eta * 1.3, 2.0)
            if np.count_nonzero(clipped):
                grown = np.where(clipped, eta, grown)
        if n_accepted == len(live):
            c, a, g, gn, eta = cand, a_new, g_new, gn_new, grown
            halvings[:] = 0
            done = gn <= ASCENT_TOL
        elif n_accepted == 0:
            eta *= 0.5
            rejected += 1
            halvings += 1
            done = halvings >= 40
        else:
            c = np.where(accepted[:, None], cand, c)
            g = np.where(accepted[:, None], g_new, g)
            a = np.where(accepted, a_new, a)
            gn = np.where(accepted, gn_new, gn)
            eta = np.where(accepted, grown, eta * 0.5)
            rejected += ~accepted
            halvings = np.where(accepted, 0, halvings + 1)
            done = (gn <= ASCENT_TOL) | (halvings >= 40)
        if rounds >= iters:
            done |= rounds - rejected >= iters
    results = [[] for _ in energies]
    for row, (c, a, g, gn) in enumerate(zip(final_c, final_a, final_g, final_gn)):
        e = energies[row // n_seeds]
        if ASCENT_TOL < gn <= HANDOFF:
            c, a, gn = _vertical_newton(frame, lambda c: evaluate_at(c, e), c, a, g, gn,
                                        spec.with_r(e), radius)
        results[row // n_seeds].append(
            AscentResult(field=FiberField(frame=frame, coefficients=c), action=float(a),
                         converged=bool(gn <= ASCENT_TOL), grad_norm=float(gn)))
    for out in results:
        out.sort(key=lambda res: res.action, reverse=True)
    return results


def _envelope_descent(x, spec, config, tol):
    """Descend the inner-sup envelope: re-ascend the fiber locally after
    every descent step.

    Fiber-maximal critical points are saddles of the plain descent flow,
    so a perturbed state never flows back to one directly.  With the
    fiber pinned to its local maximizer the loop moves along the exact
    envelope gradient (Danskin), and the envelope has the critical point
    as a genuine local minimum; letting the fiber go stale instead feeds
    the mixed unstable directions.

    Returns (rounds, state, velocity) at the first re-ascended state
    whose gradient norm is at most tol, where the branch is exact; the
    velocity is the one that round's step would take as k1.  After
    DESCENT_ROUNDS rounds without that it returns (DESCENT_ROUNDS,
    state, velocity) for the state the last round stepped to.
    """
    # the envelope is smooth (no shelf stiffness on the maximal branch),
    # so a larger step is stable; the halving guard still protects it
    dt = 5.0 * config.dt
    plan = gradient_plan(x.frame, spec.s)
    for rounds in range(DESCENT_ROUNDS):
        asc = fiber_sup(x.loop, spec, config, seeds=[x.fiber.coefficients])[0]
        x = PhasePoint(loop=x.loop, fiber=asc.field)
        k = flow_velocity(x, spec, config, plan)
        if k.grad_norm <= tol:
            return rounds, x, k
        L, _, k = _step(x.loop.series(x.frame.cutoff), spec, config, dt, k, plan)
        x = _state(x, L, k.fiber)   # the one state of the round, for its fiber ascent
    return DESCENT_ROUNDS, x, k


def composite_descent(x, spec, config):
    """The envelope descent (_envelope_descent) to a gradient norm two
    orders below grad_tol.  Returns (state, converged); a descent that
    does not converge within DESCENT_ROUNDS returns the state its last
    round stepped to.
    """
    rounds, x, _ = _envelope_descent(x, spec, config, 0.01 * config.grad_tol)
    return x, rounds < DESCENT_ROUNDS


def _critical_system(x, spec):
    """The residual that refine_critical drives to zero and its
    Gauss-Newton step, as functions of the unknowns [L[n:], c]: the loop
    data L (LoopPath.series) past the fixed base, and the fiber c.

    The residual is [(1+lam)^{s/2} grad_h, (1+lam)^{(1-s)/2} grad_v] =
    [f_h, f_v], and its Jacobian is block-triangular, so step(vec, f)
    solves J delta = f through the blocks without forming J:

    * f_h = -(1+lam)^{-s/2} (dp/dt coefficients) is linear in c alone.
      Its n kernel rows vanish, and outside them d/dt is an invertible
      scaled permutation (cos <-> sin partner times +-2 pi j), whose
      inverse is -d/dt / lam; so the non-kernel fiber step is read off
      f_h.
    * f_v = V (qd - dH/dp coefficients), V = (1+lam)^{(s-1)/2}, sees the
      loop only through its velocity coefficients qd, the t-derivative
      of its position coefficients; its c-block is -V H, with H the
      quadrature compression of the pointwise fiber Hessian W(t).
    * qd is constant in the kernel, so the n kernel rows of f_v give the
      one coupled solve, H_kk dc_k = -f_v,k / V_k - (H dc_nk)_k with
      H_kk = mean_t W(t).  It runs by lstsq with rcond 1e-13: on the
      flat zones of H_r, W = 0.
    * The loop step is then the antiderivative of f_v / V + H dc, times
      sqrt(2) outside the kernel to turn frame coefficients into rows.

    H v is applied as frame.coefficients(W frame.samples(v)), one irfft
    and one rfft: the quadrature that SpectralFrame.compress assembles
    into the (D, D) matrix H, applied here to one vector without it.
    """
    frame = x.frame
    n, J, dim = frame.n, frame.cutoff, frame.dim
    k = 2 * J * n  # loop coordinates: per mode the cos row, then the sin row
    base, drift = np.asarray(x.loop.base), x.loop.drift
    scale_h = frame.weights(-0.5 * spec.s)
    scale_v = frame.weights(0.5 * (spec.s - 1.0))

    def fun(vec):
        qd = series_velocity(frame, drift, np.concatenate([base, vec[:k]]))
        _, grad_h, grad_v = evaluate(x, spec, qd, vec[k:])
        return np.concatenate([frame.weights(0.5 * spec.s) * grad_h,
                               frame.weights(0.5 * (1.0 - spec.s)) * grad_v])

    def antiderivative(v):
        # the inverse of d/dt outside the kernel, -d/dt / lam; +0.0 in it
        out = derivative_coefficients(frame, v)
        out[n:] /= -frame.eigenvalues[n:]
        return out

    def step(vec, f):
        w = _pointwise_hessian(frame, vec[k:], spec)

        def hess(v):
            return frame.coefficients(np.einsum("tij,tj->ti", w, frame.samples(v)))

        dc = antiderivative(-f[:dim] / scale_h)
        rhs = -f[dim:dim + n] / scale_v[:n] - hess(dc)[:n]
        dc[:n] = np.linalg.lstsq(w.mean(axis=0), rhs, rcond=1e-13)[0]
        return np.concatenate([antiderivative(f[dim:] / scale_v + hess(dc))[n:] * SQ2, dc])

    return fun, step


def refine_critical(x, spec, max_nfev=POLISH_NFEV):
    """Polish a near-critical state by Gauss-Newton on the stacked
    metric-weighted gradient coefficients (Nocedal & Wright, ch. 10).

    The unknowns are the loop's cos/sin rows in the series layout
    (LoopPath.series past its base) and the fiber coefficients c;
    _critical_system gives the residual and the exact Gauss-Newton step,
    solved through the Jacobian's blocks.  Each step is backtracked:
    t delta is tried for t = 1, 1/2, 1/4, ... until the residual norm
    falls.  The polish stops when a tried step is below 1e-15 (1e-15 +
    |vec|), so that no decrease can be found any more, or after max_nfev
    residual evaluations.  The polished state is returned only if its
    gradient norm is no larger than the input's.
    """
    refined = _polish(x, spec, max_nfev)
    return refined if gradient_norm(refined, spec) <= gradient_norm(x, spec) else x


def _polish(x, spec, max_nfev):
    """The state refine_critical's Gauss-Newton iteration ends at, before
    its gradient-norm guard; the one state it builds."""
    fun, step = _critical_system(x, spec)
    n, L = x.frame.n, x.loop.series(x.frame.cutoff)
    vec = np.concatenate([L[n:], x.fiber.coefficients])
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
    L[n:] = vec[:L.size - n]
    return _state(x, L, vec[L.size - n:])


@dataclass(frozen=True, eq=False)
class MinimaxRecord:
    """One r-slice of the sweep: the level, its witness, and how the
    witness sits relative to the hypersurface."""

    r: float
    theta: float
    witness: PhasePoint
    classification: object
    sigma: float
    leaf_action: float
    symplectic: float
    grad_norm: float
    steps: int
    converged: bool
    confident: bool

    def to_row(self):
        # the CSV's action column is the level itself
        return {"r": self.r, "theta": self.theta,
                "classification": str(self.classification), "action": self.theta,
                "sigma": self.sigma if self.sigma is not None else math.nan,
                "leaf_action": self.leaf_action if self.leaf_action is not None else math.nan,
                "grad_norm": self.grad_norm, "steps": self.steps}


def minimax_theta(family, spec, config, rng=None):
    """Estimate theta(r) over the fibered family and record the witness.

    One fiber_sup call per loop; confident says that every seed of every
    loop converged, and a seed that does not only drops that flag, never
    the record.  The fiber maximizers of all loops are pooled and descended
    along the envelope, highest action first, each until its gradient
    norm reaches HANDOFF; the level is the largest action a descent ends
    at.  The descent never raises the action, so the pool is cut at the
    first maximizer below that level, and a maximizer within
    SAME_MAXIMIZER of one already descended on its loop is skipped.  A
    witness whose descent reached HANDOFF is polished by
    refine_critical.  H_r vanishes on the zero section, so the fiber
    supremum over every loop is nonnegative; a level below -1e-6 means
    the estimator itself broke, which raises.  orbit_sweep runs the
    same level (_level) from one ascent across its r grid.

    rng is accepted and ignored, since the seeds are deterministic.  It
    stays because callers written for the former random starts pass it
    (the benchmark's minimax_j64 workload does).
    """
    return _level([(loop, fiber_sup(loop, spec, config)) for loop in family], spec, config)


def _level(ascents, spec, config):
    """The MinimaxRecord at spec from the fiber ascent results of each
    family loop, given as (loop, fiber_sup results at spec) pairs: the
    descent, polish and classification of minimax_theta."""
    pool = [(loop, res) for loop, results in ascents for res in results]
    if not pool:
        raise ValueError("minimax_theta needs a nonempty family of loops")
    confident = all(res.converged for _, res in pool)
    pool.sort(key=lambda item: item[1].action, reverse=True)
    best = (-math.inf, None, 0, None)   # (final action, witness, rounds, velocity)
    descended = []                      # (loop, start coefficients) of every descent run
    for loop, res in pool:
        if res.action < best[0]:
            break
        start = res.field.coefficients
        if any(seen is loop and res.field.frame.norm(1.0 - spec.s, start - c) <= SAME_MAXIMIZER
               for seen, c in descended):
            continue
        descended.append((loop, start))
        rounds, x, k = _envelope_descent(PhasePoint(loop=loop, fiber=res.field), spec, config,
                                         HANDOFF)
        if k.action > best[0]:
            best = (k.action, x, rounds, k)
    _, witness, rounds, k = best
    converged = rounds < DESCENT_ROUNDS
    if converged:
        # the level and its gradient norm are read at the state the
        # polish returns, the polished one or the witness itself
        witness = refine_critical(witness, spec)
        k = flow_velocity(witness, spec, config)
    theta, gn = k.action, k.grad_norm
    if theta < -1e-6:
        raise ArithmeticError(f"minimax level {theta:.3e} fell below the zero section")
    cls = classify_critical(witness, spec)
    sym = symplectic_action(witness)
    leaf = sym if cls.kind == "on-hypersurface" else None
    return MinimaxRecord(r=spec.r, theta=theta, witness=witness, classification=cls,
                         sigma=getattr(cls, "sigma", None), leaf_action=leaf,
                         symplectic=sym, grad_norm=gn, steps=rounds,
                         converged=converged, confident=bool(confident))


def default_family(spec, winding=(1, 0)):
    """The standard test family: one straight torus loop of the given
    winding (unit speed for the default (1, 0))."""
    manifold = flat_torus(len(winding))
    return [straight_loop(manifold, winding)]


def _sweep_task(payload):
    # one r-point of orbit_sweep: its spec, the config and the
    # (loop, fiber ascent results) pairs that the sweep's ascent gave it
    spec, config, ascents = payload
    return _level(ascents, spec, config)


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
    alpha: float
    leaf_bound: float
    plateau_energies: dict
    plateau_shifted_actions: dict
    budget_flagged: tuple


def orbit_sweep(spec_template, r_grid, config, jobs=1, family=None):
    """minimax_theta at every r of the grid: one fiber ascent over the
    whole grid, then each r-point's level, in-process or on a pool.

    The fiber seeds of all r-points ascend as one array per family loop
    (_fiber_sups), in this process; every r-point then descends, polishes
    and classifies its own pool (_sweep_task), serially or on a pool of
    jobs workers, capped at the r-points and at the CPUs this process
    may run on (pool_size).  Each record equals minimax_theta at that r
    bit for bit, and the records merge in grid order regardless of the
    worker count.  The summary reports the first r whose witness lands
    on the hypersurface with leaf action inside (0, 2(alpha + r0)), with
    alpha the fiber action bound at the family's largest loop speed, and
    when no hit exists, the closed-geodesic plateau diagnostics: the
    loop energies and the r-shifted actions, both constant on a
    plateau.
    """
    family = default_family(spec_template) if family is None else family
    if not family:
        raise ValueError("orbit_sweep needs a nonempty family of loops")
    specs = [spec_template.with_r(r) for r in r_grid]
    per_loop = [_fiber_sups(loop, spec_template, [sp.r for sp in specs], config)
                for loop in family]
    payloads = [(spec, config, [(loop, results[k]) for loop, results in zip(family, per_loop)])
                for k, spec in enumerate(specs)]
    # the CPUs this process may run on, fewer than the machine's under taskset
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = pool_size(jobs, len(payloads), cpus or 1)
    if workers <= 1:
        records = [_sweep_task(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_task, payloads))
    alpha = alpha_bound(spec_template, max(loop_speed(loop, spec_template.J) for loop in family))
    bound = 2.0 * (alpha + r0_threshold(spec_template))
    hits = [rec for rec in records
            if rec.classification.kind == "on-hypersurface"
            and rec.leaf_action is not None and 0.0 < rec.leaf_action < bound]
    plateau = [rec for rec in records if rec.classification.kind == "closed-geodesic"]
    summary = SweepSummary(
        hit_found=bool(hits),
        first_hit_r=min((rec.r for rec in hits), default=math.nan),
        first_hit_leaf_action=(min(hits, key=lambda rec: rec.r).leaf_action if hits else math.nan),
        alpha=alpha,
        leaf_bound=bound,
        plateau_energies={rec.r: loop_energy(rec.witness.loop) for rec in plateau},
        plateau_shifted_actions={rec.r: rec.theta + rec.r for rec in plateau},
        budget_flagged=tuple(rec.r for rec in records if not rec.converged),
    )
    return records, summary
