"""Minimax level estimation over fibered families and the r-sweep.

theta(r) is estimated in two stages.  The inner supremum of the action
over the truncated fiber ball {|p|_{1-s} <= gamma''} above each family
loop is computed from fixed starts (the smoothed velocity field scaled to
six radii) by one fiber solver: trust-region Newton with Steihaug's
truncated conjugate gradients (Nocedal & Wright, Alg. 4.1 and 7.2).  Its
model is the action's second-order expansion in the fiber, whose Hessian
is minus the quadrature compression of the pointwise fiber Hessian of
H_r; that matrix is applied to one vector at a time by one irfft and one
rfft (_hessian_product) and never formed.  Conjugate gradients stop at
the trust-region boundary on non-positive curvature, so no step heads
for a fiber saddle.  The outer infimum is followed by descending the
envelope of that supremum: each round steps the loop along the flow and
re-ascends the fiber by the same solver, so the loop moves along the
envelope gradient (Danskin).  The maximizers are descended from the
highest action down; the level is the largest action a descent ends at.
The pool is cut at the first maximizer that starts below that level,
which assumes that no descent ends above its start, and the witness is
chosen by the descents' actions at HANDOFF, which assumes that none
rises after it: a re-ascent that hops to a higher fiber branch can
break both.  The descent's own state z = [qd, c] (loop velocity and
fiber coefficients) is polished by Gauss-Newton steps that zero the
stacked metric gradient coefficients, action.metric_gradient's vertical
part and the horizontal_gradient of c, backtracked until the residual
falls: the gradient the flow steps along and gradient_norm reports.  The
Jacobian is block-triangular, so each step is solved through its blocks
without forming it; it needs numpy only, so importing the package loads
no scipy.  Only the witness is built as a PhasePoint, once, from the z
kept.  The level is a minimax, so the seeds ascend once more on the
polished witness's loop, and a fiber maximizer above the level there is
descended in turn.
orbit_sweep runs one level per r-point, in grid order.  The envelope
descent from a single state, which the level never runs, is a test
reference (composite_descent in tests/references.py).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .action import (PhasePoint, classify_critical, derivative_coefficients, fiber_evaluation,
                     fiber_samples, gradient_plan, horizontal_gradient, loop_energy,
                     metric_gradient, require_finite, velocity_coefficients)
from .flow import _at, _start, _step, _velocity
from .geometry import flat_torus, straight_loop
from .hamiltonian import alpha_bound, r0_threshold, radial_H_jet
from .spectral import FiberField, frame_of

ASCENT_TOL = 1e-9
TRUST_ITERS = 600        # trust-region iterations of one fiber ascent
DESCENT_ROUNDS = 4000    # re-ascend-then-step rounds of one envelope descent
HANDOFF = 1e-2           # gradient norm at which the descent stops and the polish takes over
SAME_MAXIMIZER = 1e-6    # (1-s)-distance below which two ascents found one maximizer
ABOVE_LEVEL = 1e-9       # fiber action above the level that sends the witness loop down again
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


def _project_ball(c, frame, r, radius):
    """c scaled back into the radius ball of the frame's r-norm."""
    nrm = frame.norm(r, c)
    return c * (radius / nrm) if nrm > radius else c


def _pointwise_hessian(frame, c, spec, samples=None):
    """The pointwise fiber Hessian of H_r at the fiber with coefficients
    c, on the default grid: W(t) = (h'/rho) I + (h'' - h'/rho) phat phat^T,
    an (m, n, n) array, from c's fiber_samples, or from samples where the
    caller kept them."""
    p, rho = fiber_samples(frame, c) if samples is None else samples
    safe = np.where(rho > 1e-12, rho, 1.0)
    _, h1, h2 = radial_H_jet(spec, rho)
    ratio = h1 / safe
    phat = p / safe[:, None]
    return (ratio[:, None, None] * np.eye(frame.n)[None, :, :]
            + (h2 - ratio)[:, None, None] * phat[:, :, None] * phat[:, None, :])


def _hessian_product(frame, w, v):
    """H v for the quadrature compression H = (1/m) sum_t e_k(t)^T w(t)
    e_l(t) of a pointwise multiplier w, (m, n, n) samples on the default
    grid: one irfft of v, the pointwise product and one rfft, with no
    (D, D) matrix.  With w = _pointwise_hessian, H is minus the action's
    fiber Hessian."""
    return frame.coefficients(np.einsum("tij,tj->ti", w, frame.samples(v)))


def _steihaug(g, hess, radius):
    """Steihaug's truncated conjugate gradients (Nocedal & Wright,
    Alg. 7.2) for the model gain g.d - d.H d / 2 over |d| <= radius,
    with hess(v) = H v.  Returns (d, model gain of d).

    CG runs from d = 0 and stops at relative residual min(0.5, sqrt|g|),
    so the steps become Newton steps as g vanishes.  On a direction of
    non-positive curvature, or where the next iterate would leave the
    region, d goes to the boundary along the current direction, which
    raises the model: no step heads for a saddle of the model.
    """
    gnorm = math.sqrt(g @ g)
    tol = min(0.5, math.sqrt(gnorm)) * gnorm
    d, hd_sum = np.zeros_like(g), np.zeros_like(g)
    res = g.copy()             # the model gradient g - H d
    direction, rr = res.copy(), res @ res
    for _ in range(len(g)):
        hd = hess(direction)
        curvature = direction @ hd
        if curvature > 0.0:
            alpha = rr / curvature
            trial = d + alpha * direction
            if trial @ trial < radius * radius:
                d, hd_sum, res = trial, hd_sum + alpha * hd, res - alpha * hd
                rr, rr_old = res @ res, rr
                if math.sqrt(rr) <= tol:
                    break
                direction = res + (rr / rr_old) * direction
                continue
        # to the boundary: the root tau >= 0 of |d + tau direction| = radius
        dd, dp = direction @ direction, d @ direction
        tau = (math.sqrt(dp * dp + dd * (radius * radius - d @ d)) - dp) / dd
        d, hd_sum = d + tau * direction, hd_sum + tau * hd
        break
    return d, g @ d - 0.5 * (d @ hd_sum)


def _ascend(frame, qd, c, spec, radius):
    """The fiber solver: trust-region Newton ascent of the action from
    fiber coefficients c over the (1-s)-ball of the given radius, on the
    loop whose velocity coefficients are qd; returns an AscentResult.

    Each iteration is one fiber_evaluation, of the candidate, and the H
    v products of one _steihaug step on the model a + dv.d - d.H d / 2 in
    the Euclidean coefficient ball |d| <= size, with dv the plain fiber
    gradient; the candidate is projected into the fiber ball.  The
    model's _pointwise_hessian is built from the samples and radii that
    the accepted fiber's evaluation kept, so no fiber is sampled twice.
    It is accepted when the action holds (falls by at most 1e-14) and
    either the gain ratio rho = actual / model gain exceeds 1e-4 or the
    (1-s)-norm of the vertical gradient falls, which decides where both
    gains are roundoff.  size starts at max(1e-3, |dv|), becomes a
    quarter of the step when rho < 0.25 and doubles, up to 1e3, when
    rho > 0.75 on the boundary.  The ascent stops when the gradient norm
    reaches ASCENT_TOL (converged), after TRUST_ITERS iterations, or when
    size falls below 1e-15.
    """
    r = 1.0 - spec.s
    to_vertical = frame.weights(spec.s - 1.0)

    def evaluate_at(c):
        samples = fiber_samples(frame, c)
        a, dv, _ = fiber_evaluation(frame, qd, c, spec, samples)
        return a, dv, frame.norm(r, to_vertical * dv), samples

    c = _project_ball(c, frame, r, radius)
    a, dv, gn, samples = evaluate_at(c)
    size = max(1e-3, math.sqrt(dv @ dv))
    for _ in range(TRUST_ITERS):
        if gn <= ASCENT_TOL or size < 1e-15:
            break
        w = _pointwise_hessian(frame, c, spec, samples)
        step, gain = _steihaug(dv, lambda v: _hessian_product(frame, w, v), size)
        cand = _project_ball(c + step, frame, r, radius)
        a_new, dv_new, gn_new, samples_new = evaluate_at(cand)
        rho = (a_new - a) / gain if gain > 0.0 else -1.0
        length = math.sqrt(step @ step)
        if rho < 0.25:
            size = 0.25 * length
        elif rho > 0.75 and length >= (1.0 - 1e-12) * size:
            size = min(2.0 * size, 1e3)
        if a_new >= a - 1e-14 and (rho > 1e-4 or gn_new < gn):
            c, a, dv, gn, samples = cand, a_new, dv_new, gn_new, samples_new
    return AscentResult(field=FiberField(frame=frame, coefficients=c), action=float(a),
                        converged=bool(gn <= ASCENT_TOL), grad_norm=float(gn))


def fiber_sup(loop, spec, config):
    """The supremum of the action over the fiber ball above the loop,
    from six fixed seeds by the fiber solver (_ascend).

    The seeds are the smoothed velocity field scaled, at the loop's top
    speed, to radii covering the zero branch (0.9 rho* e^{-a}), the
    thickening band (rho*), the fake-geodesic annulus (1.45 and 1.85
    rho1), unit radius and the kinetic tail (2.2 rho1), so equal inputs
    give equal results.  The loop never moves here, so its velocity
    coefficients are computed once; each seed then ascends on its own.
    Returns one AscentResult per seed, sorted by action, best first;
    converged says that the seed's vertical gradient norm reached
    ASCENT_TOL.
    """
    require_finite("fiber_sup loop", loop)
    frame = frame_of(loop, spec.J)
    qd = velocity_coefficients(loop, frame)
    smooth = frame.weights(spec.s - 1.0) * qd
    speed = max(loop_speed(loop, spec.J), 1e-12)
    lo = spec.rho_star * math.exp(-spec.thickening_halfwidth)
    radii = (0.9 * lo, spec.rho_star, 1.45 * spec.rho1, 1.85 * spec.rho1, 1.0, 2.2 * spec.rho1)
    results = [_ascend(frame, qd, (rho / speed) * smooth, spec, config.gamma_dprime)
               for rho in radii]
    results.sort(key=lambda res: res.action, reverse=True)
    return results


def _envelope_descent(plan, z, spec, config, tol):
    """Descend the inner-sup envelope from the state z = [qd, c] in the
    frame of plan, a gradient_plan at spec.s: re-ascend the fiber locally
    after every descent step.

    Fiber-maximal critical points are saddles of the plain descent flow,
    so a perturbed state never flows back to one directly.  With the
    fiber pinned to its local maximizer the loop moves along the exact
    envelope gradient (Danskin), and the envelope has the critical point
    as a genuine local minimum; letting the fiber go stale instead feeds
    the mixed unstable directions.

    The rounds carry z as the flow's march does, and each fiber ascent
    reads qd directly; no state is built.  Returns (rounds, velocity) at
    the first re-ascended state whose gradient norm is at most tol, where
    the branch is exact; the velocity is the one that round's step would
    take as k1, and its state is z there.  After DESCENT_ROUNDS rounds
    without that it returns (DESCENT_ROUNDS, velocity) of the state the
    last round stepped to.
    """
    # the envelope is smooth (no shelf stiffness on the maximal branch),
    # so a larger step is stable; the halving guard still protects it
    dt = 5.0 * config.dt
    frame = plan.frame
    qd, c = z
    for rounds in range(DESCENT_ROUNDS):
        c = _ascend(frame, qd, c, spec, config.gamma_dprime).field.coefficients
        k = _velocity(plan, np.stack((qd, c)), spec, config)
        if k.grad_norm <= tol:
            break
        _, k = _step(spec, config, dt, k, plan)
        qd, c = k.state
    else:
        rounds = DESCENT_ROUNDS
    return rounds, k


def _critical_system(plan, spec):
    """The residual that refine_critical drives to zero and its
    Gauss-Newton step, as functions of the state z = [qd, c] in the
    frame of plan, a gradient_plan at spec.s: the loop's velocity
    coefficients qd, whose n kernel entries, the drift, stay fixed, and
    the fiber c.

    The residual is [(1+lam)^{s/2} grad_h, (1+lam)^{(1-s)/2} grad_v] =
    [f_h, f_v], with grad_v from one metric_gradient at z and grad_h the
    horizontal_gradient of c: the gradient the flow steps along and
    gradient_norm measures.  Its Jacobian is block-triangular, so
    step(z, f) solves J delta = f through the blocks without forming J:

    * f_h = -(1+lam)^{-s/2} (dp/dt coefficients), a gather of c times a
      gain, is linear in c alone.  Its n kernel rows vanish, and outside
      them d/dt is an invertible scaled permutation (cos <-> sin partner
      times +-2 pi j), whose inverse is -d/dt / lam; so the non-kernel
      fiber step is read off f_h.
    * f_v = V (qd - dH/dp coefficients), V = (1+lam)^{(s-1)/2}: its
      qd-block is V itself, and its c-block is -V H, with H the
      quadrature compression of the pointwise fiber Hessian W(t).
    * The n kernel rows of f_v give the one coupled solve, H_kk dc_k =
      -f_v,k / V_k - (H dc_nk)_k with H_kk = mean_t W(t), by lstsq with
      rcond 1e-13: W = 0 on the flat zones of H_r.
    * The loop step is then f_v / V + H dc outside the kernel and +0.0
      in it, so the drift stays exact.

    H v is applied by _hessian_product, one irfft and one rfft, as in
    the fiber solver, with no (D, D) matrix.
    """
    frame = plan.frame
    n, dim = frame.n, frame.dim
    scale_h = frame.weights(-0.5 * spec.s)
    scale_v = frame.weights(0.5 * (spec.s - 1.0))

    def fun(z):
        grad_v = metric_gradient(plan, z[0], z[1], spec)[1]
        return np.concatenate([frame.weights(0.5 * spec.s) * horizontal_gradient(plan, z[1]),
                               frame.weights(0.5 * (1.0 - spec.s)) * grad_v])

    def step(z, f):
        w = _pointwise_hessian(frame, z[1], spec)
        # the inverse of d/dt outside the kernel is -d/dt / lam
        dc = derivative_coefficients(frame, -f[:dim] / scale_h)
        dc[n:] /= -frame.eigenvalues[n:]
        rhs = -f[dim:dim + n] / scale_v[:n] - _hessian_product(frame, w, dc)[:n]
        dc[:n] = np.linalg.lstsq(w.mean(axis=0), rhs, rcond=1e-13)[0]
        dqd = f[dim:] / scale_v + _hessian_product(frame, w, dc)
        dqd[:n] = 0.0
        return np.stack((dqd, dc))

    return fun, step


def refine_critical(x, spec, max_nfev=POLISH_NFEV):
    """Polish a near-critical state by Gauss-Newton on the stacked
    metric-weighted gradient coefficients (Nocedal & Wright, ch. 10).

    _polish steps x's state z = [qd, c] (flow._start) by the exact
    Gauss-Newton step of _critical_system.  If its gradient norm, one
    metric_gradient, is no larger than z's, the polished z is built once,
    anchored on x (flow._at), so the loop keeps x's mean position
    base - sum_j cos_j; otherwise x itself comes back.
    """
    plan, z = gradient_plan(x.frame, spec.s), _start(x)
    polished = _polish(plan, z, spec, max_nfev)
    better = metric_gradient(plan, *polished, spec)[2] <= metric_gradient(plan, *z, spec)[2]
    return _at(x.loop, x.frame, polished) if better else x


def _polish(plan, z, spec, max_nfev):
    """The state z = [qd, c] that refine_critical's Gauss-Newton
    iteration ends at from z, before its gradient-norm guard; it builds
    no state.  Each step is backtracked: t delta is tried for t = 1, 1/2,
    1/4, ... until the residual norm falls.  The iteration stops when a
    tried step is below 1e-15 (1e-15 + |z|), so that no decrease can be
    found any more, or after max_nfev residual evaluations."""
    fun, step = _critical_system(plan, spec)
    f = fun(z)
    cost, nfev, small = f @ f, 1, False
    while nfev < max_nfev and not small:
        delta = step(z, f)
        size, t = np.linalg.norm(delta), 1.0
        while nfev < max_nfev:
            trial = z - t * delta
            f_trial = fun(trial)
            nfev += 1
            small = t * size <= 1e-15 * (1e-15 + np.linalg.norm(z))
            if f_trial @ f_trial < cost:
                z, f, cost = trial, f_trial, f_trial @ f_trial
                break
            if small:
                break
            t *= 0.5
    return z


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
    the record.  The fiber maximizers of all loops are pooled and
    descended (_descend).  The level is a minimax, so on the loop of a
    converged witness no fiber maximizer may lie above it: fiber_sup runs
    once more on that loop, and a maximizer more than ABOVE_LEVEL above
    the level is descended in turn; its level replaces the record's when
    it is higher, and its rounds add to the witness's.  H_r vanishes on
    the zero section, so the fiber supremum over every loop is
    nonnegative; a level below -1e-6 means the estimator itself broke,
    which raises.

    rng is accepted and ignored, since the seeds are deterministic.  It
    stays because callers written for the former random starts pass it
    (the benchmark's minimax_j64 workload does).
    """
    pool = [(loop, res) for loop in family for res in fiber_sup(loop, spec, config)]
    if not pool:
        raise ValueError("minimax_theta needs a nonempty family of loops")
    confident = all(res.converged for _, res in pool)
    witness, rounds, k = _descend(pool, spec, config)
    converged = rounds < DESCENT_ROUNDS
    while converged:
        top = fiber_sup(witness.loop, spec, config)[0]
        if top.action <= k.action + ABOVE_LEVEL:
            break
        x, more, k_top = _descend([(witness.loop, top)], spec, config)
        if more >= DESCENT_ROUNDS or k_top.action <= k.action:
            break
        witness, rounds, k = x, rounds + more, k_top
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


def _descend(pool, spec, config):
    """(witness, rounds, velocity) of the level over a pool of (loop,
    fiber maximizer) pairs: each maximizer is descended along the
    envelope from its state z = [qd, c], highest action first, until its
    gradient norm reaches HANDOFF; the level is the largest action a
    descent ends at, read there before any polish.  The pool is cut at
    the first maximizer that starts below that level, and a maximizer
    within SAME_MAXIMIZER of one already descended on its loop is
    skipped.  The cut assumes that no descent ends above its start, and
    the comparison at HANDOFF that none rises after it; a re-ascent that
    hops to a higher fiber branch breaks both.  Each frame in the pool
    gets one gradient_plan.  If the best descent reached HANDOFF, its z
    is polished (_polish), kept when that raises no gradient norm; the
    velocity is read at the z kept, and the witness built once (_at)."""
    pool = sorted(pool, key=lambda item: item[1].action, reverse=True)
    plans = {frame: gradient_plan(frame, spec.s) for frame in {res.field.frame for _, res in pool}}
    best = (-math.inf, None, None, 0, None)   # (final action, loop, plan, rounds, velocity)
    descended = []                            # (loop, start coefficients) of every descent run
    for loop, res in pool:
        if res.action < best[0]:
            break
        start = res.field.coefficients
        if any(seen is loop and res.field.frame.norm(1.0 - spec.s, start - c) <= SAME_MAXIMIZER
               for seen, c in descended):
            continue
        descended.append((loop, start))
        plan = plans[res.field.frame]
        z = np.stack((velocity_coefficients(loop, plan.frame), start))
        rounds, k = _envelope_descent(plan, z, spec, config, HANDOFF)
        if k.action > best[0]:
            best = (k.action, loop, plan, rounds, k)
    _, loop, plan, rounds, k = best
    if rounds < DESCENT_ROUNDS:
        polished = _velocity(plan, _polish(plan, k.state, spec, POLISH_NFEV), spec, config)
        if polished.grad_norm <= k.grad_norm:
            k = polished
    return _at(loop, plan.frame, k.state), rounds, k


def default_family(spec, winding=(1, 0)):
    """The standard test family: one straight torus loop of the given
    winding (unit speed for the default (1, 0))."""
    manifold = flat_torus(len(winding))
    return [straight_loop(manifold, winding)]


def _sweep_task(family, spec, config):
    # one r-point of orbit_sweep, called once per r in grid order
    return minimax_theta(family, spec, config)


@dataclass(frozen=True)
class SweepSummary:
    hit_found: bool
    first_hit_r: float
    first_hit_leaf_action: float
    alpha: float
    r0: float
    leaf_bound: float
    plateau_energies: dict
    plateau_shifted_actions: dict
    budget_flagged: tuple


def orbit_sweep(spec_template, r_grid, config, family=None):
    """minimax_theta at every r of the grid, one r-point after another.

    Each r-point runs through _sweep_task, in grid order, so each record
    is minimax_theta at that r.  The summary reports the first r whose
    witness lands on the hypersurface with leaf action inside
    (0, 2(alpha + r0)), with alpha the fiber action bound at the family's
    largest loop speed (first_hit_r and first_hit_leaf_action are None
    when no r hits), and when no hit exists, the closed-geodesic
    plateau diagnostics: the loop energies and the r-shifted actions,
    both constant on a plateau.
    """
    family = default_family(spec_template) if family is None else family
    if not family:
        raise ValueError("orbit_sweep needs a nonempty family of loops")
    records = [_sweep_task(family, spec_template.with_r(r), config) for r in r_grid]
    alpha = alpha_bound(spec_template, max(loop_speed(loop, spec_template.J) for loop in family))
    r0 = r0_threshold(spec_template)
    bound = 2.0 * (alpha + r0)
    hits = [rec for rec in records
            if rec.classification.kind == "on-hypersurface"
            and rec.leaf_action is not None and 0.0 < rec.leaf_action < bound]
    first = min(hits, key=lambda rec: rec.r, default=None)
    plateau = [rec for rec in records if rec.classification.kind == "closed-geodesic"]
    summary = SweepSummary(
        hit_found=bool(hits),
        first_hit_r=None if first is None else first.r,
        first_hit_leaf_action=None if first is None else first.leaf_action,
        alpha=alpha,
        r0=r0,
        leaf_bound=bound,
        plateau_energies={rec.r: loop_energy(rec.witness.loop) for rec in plateau},
        plateau_shifted_actions={rec.r: rec.theta + rec.r for rec in plateau},
        budget_flagged=tuple(rec.r for rec in records if not rec.converged),
    )
    return records, summary
