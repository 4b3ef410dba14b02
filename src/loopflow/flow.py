"""The truncated normalized negative gradient flow and its diagnostics.

The flow field is

    V_r(q, p) = -cut(|p|_{1-s}) * grad A_r(q, p) / sqrt(1 + |grad A_r|^2),

a bounded field (norm <= 1): the normalization caps the speed and the
radial cutoff freezes states whose fiber norm reaches gamma''.  Steps
are classical RK4 with step-halving whenever a step would raise the
action by more than the per-step tolerance; since the field is bounded,
explicit stepping is stable at fixed dt.

The march builds no PhasePoint and no loop data: on the flat models the
action sees the loop only through its velocity coefficients qd, so a
state is one (2, D) array z = [qd, c], c the fiber coefficients, and a
step is textbook RK4 on z.  Each stage is one kernel call (_velocity):
one action.metric_gradient, whose block energies also give the norms,
and the direction d = [rate * c, -grad_v], in which the loop step -grad_h
enters through its t-derivative (GradientPlan.rate), so no horizontal
gradient is formed; rate is +-0 in the kernel, so the drift stays exact.
Each march makes one action.gradient_plan.  The evaluation that accepts
a step is the next step's k1, so an accepted step costs four
evaluations and at most eight FFTs: none for a fiber metric_gradient
certifies in the quadratic zone, one irfft where only the samples put it
there, two otherwise.  The shares depend on the start: over the
benchmark's 40 flows (default spec, T = 1, 16 040 evaluations) 46.4 % are
certified on seed 1 and 60.4 % on seed 7, with 13 295 and 10 510 FFTs.
flow records the (N, D) stacks of qd and c as the march yields them;
loop data L (LoopPath.series) are rebuilt from qd, anchored on the
start (action.rebuild_series), only where a PhasePoint is read:
FlowTrajectory.states rebuilds all rows in one call, and
flow_to_critical, on the same driver, only the state it stops at.

Along a trajectory the vertical component satisfies a linear
inhomogeneous ODE whose homogeneous weights are hyperbolic in the
integrated normalized speed I(t) = integral of phi~ = cut/sqrt(1+|g|^2):

    a(t) = -sinh I(t),   b(t) = cosh I(t),

so a(0) = 0, b(0) = 1, b^2 - a^2 = 1, a <= 0 <= 1 <= b exactly; the
defect K(t) = p(t) - a(t) j*qdot(0) - b(t) p(0) is the compactness
carrier and is reported with its (1-s)-norm (transport is the identity
on the flat models, so no transport error enters).

Palais-Smale diagnostics mirror the four-step bound structure used to
rule out divergence: the vertical defect norm, the quadratic fiber
ratio, the derivative norm, and the kernel split, with a growth flag on
the quadratic ratio, computed over a trajectory's (N, D) stacks of fiber
coefficients and loop velocities as recorded.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .action import (PhasePoint, derivative_coefficients, gradient_plan, metric_gradient,
                     rebuild_series, require_finite, velocity_coefficients)
from .geometry import flat_torus, straight_loop
from .hamiltonian import alpha_bound, finite_float, smoothstep
from .spectral import FiberField, frame_of

DESCENT_TOL = 1e-8   # allowed per-step action increase before halving
MAX_HALVINGS = 30
SUSTAIN_STEPS = 10   # steps below grad_tol that make flow_to_critical converge


@dataclass(frozen=True)
class FlowConfig:
    """Flow parameters: radii, margins, integrator knobs.

    gamma < gamma' < gamma'' with gamma'' > gamma' + 1 (the cutoff
    plateau must have room to fall); when derived from a Hamiltonian
    spec, gamma' = gamma + alpha/epsilon^2 + 1 with alpha the fiber
    action bound of the family.  The regularity s and the cutoff J are
    the spec's: the flow reads spec.s and its states' frame.
    """

    gamma: float
    gamma_prime: float
    gamma_dprime: float
    epsilon: float
    dt: float
    grad_tol: float
    t_max: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, finite_float(f"flow {f.name}", getattr(self, f.name)))
        if not 0.0 < self.gamma < self.gamma_prime < self.gamma_dprime:
            raise ValueError("need 0 < gamma < gamma' < gamma''")
        if not self.gamma_dprime > self.gamma_prime + 1.0:
            raise ValueError("need gamma'' > gamma' + 1")
        if self.epsilon <= 0.0 or self.dt <= 0.0:
            raise ValueError("epsilon and dt must be positive")
        if self.grad_tol <= 0.0 or self.t_max <= 0.0:
            raise ValueError("grad_tol and t_max must be positive")

    @staticmethod
    def auto(spec, gamma=2.5, epsilon=0.5, dt=1e-2, grad_tol=1e-6, t_max=50.0, margin=2.0):
        """Derive the radii from the spec's fiber action bound at unit
        loop speed.  epsilon is checked first, since gamma' divides by
        its square."""
        epsilon = finite_float("flow epsilon", epsilon)
        if epsilon <= 0.0:
            raise ValueError("epsilon and dt must be positive")
        gamma_prime = gamma + alpha_bound(spec, 1.0) / epsilon ** 2 + 1.0
        return FlowConfig(gamma=gamma, gamma_prime=gamma_prime, gamma_dprime=gamma_prime + margin,
                          epsilon=epsilon, dt=dt, grad_tol=grad_tol, t_max=t_max)

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json(data):
        return FlowConfig(**{f.name: data[f.name] for f in fields(FlowConfig)})


def speed_cutoff(config, fiber_norm):
    """The radial speed cutoff: 1 through gamma'+1, 0 from gamma'' on."""
    lo = config.gamma_prime + 1.0
    hi = config.gamma_dprime
    if fiber_norm <= lo:
        return 1.0
    if fiber_norm >= hi:
        return 0.0
    s, = smoothstep((fiber_norm - lo) / (hi - lo), order=0)
    return float(1.0 - s)


class Velocity(NamedTuple):
    """V_r = -phi~ (grad_h, grad_v) at the state z = [qd, c], a (2, D)
    array of velocity coefficients qd and fiber coefficients c, kept as
    the normalized speed weight phi~ and the direction d = [rate * c,
    -grad_v]: the t-derivative of z along -grad (the loop velocity moves
    by d/dt of the loop step -grad_h, GradientPlan.rate), so z moves by
    phi~ d.  It carries the gradient norm and the action found on the
    way, and z, from which the RK4 step starts."""

    direction: np.ndarray
    grad_norm: float
    phi_tilde: float
    action: float
    state: np.ndarray


def _velocity(plan, z, spec, config):
    """The stage kernel: V_r at the state z = [qd, c] from one
    metric_gradient (no transform where it certifies the quadratic zone,
    else one fiber_evaluation), with no horizontal gradient formed.
    phi~ = cut/sqrt(1 + |grad|^2) weighs the speed; its time integral
    drives the representation coefficients, and the cutoff reads the
    fiber norm that metric_gradient returns."""
    c = z[1]
    a, gv, gn, fiber_norm = metric_gradient(plan, z[0], c, spec)
    d = np.empty_like(z)
    np.multiply(plan.rate, c, out=d[0])
    np.negative(gv, out=d[1])
    return Velocity(d, gn, speed_cutoff(config, fiber_norm) / math.sqrt(1.0 + gn * gn), a, z)


def _start(x):
    """The state [qd, c] of the phase point x, a fresh (2, D) array."""
    return np.stack((velocity_coefficients(x.loop, x.frame), x.fiber.coefficients))


def flow_velocity(x, spec, config):
    """V_r at x from one evaluation, as a Velocity: the stage kernel at
    x's state, on a gradient_plan made for this call."""
    return _velocity(gradient_plan(x.frame, spec.s), _start(x), spec, config)


def _rk4(spec, config, dt, k1, plan):
    """The classical RK4 step of size dt from the state k1.state, k1 its
    velocity and plan its gradient_plan; returns the new state z.  Stage
    k_{i+1} is the kernel at z + (h phi~_i) d_i, and z moves by dt (phi~_1
    d_1 + 2 phi~_2 d_2 + 2 phi~_3 d_3 + phi~_4 d_4)/6.  rate is +-0 in
    the kernel, so the drift row of qd does not move."""
    z = k1.state
    k2 = _velocity(plan, z + (0.5 * dt * k1.phi_tilde) * k1.direction, spec, config)
    k3 = _velocity(plan, z + (0.5 * dt * k2.phi_tilde) * k2.direction, spec, config)
    k4 = _velocity(plan, z + (dt * k3.phi_tilde) * k3.direction, spec, config)
    return z + dt * ((k1.phi_tilde * k1.direction + (2.0 * k2.phi_tilde) * k2.direction
                      + (2.0 * k3.phi_tilde) * k3.direction + k4.phi_tilde * k4.direction) / 6.0)


def _step(spec, config, dt, k1, plan):
    """One accepted step from the state of velocity k1 with gradient_plan
    plan: halve dt until the action does not increase.  Returns (dt used,
    the new state's velocity)."""
    for _ in range(MAX_HALVINGS):
        kn = _velocity(plan, _rk4(spec, config, dt, k1, plan), spec, config)
        if kn.action <= k1.action + DESCENT_TOL:
            return dt, kn
        dt *= 0.5
    raise ArithmeticError(f"flow step rejected after {MAX_HALVINGS} halvings (dt={dt:.3e})")


def _at(loop, frame, z):
    """The PhasePoint of the state z = [qd, c] in the loop's class and the
    frame, or the list of them for stacks qd and c of shape (N, D): the
    loop data of all rows rebuilt from qd in one action.rebuild_series
    call, anchored on the loop, so qd = the loop's velocity coefficients
    gives its bits."""
    loops = rebuild_series(frame, loop.series(frame.cutoff), velocity_coefficients(loop, frame),
                           z[0])
    points = [PhasePoint(loop=loop.with_series(L), fiber=FiberField(frame, c))
              for L, c in zip(np.atleast_2d(loops), np.atleast_2d(z[1]))]
    return points[0] if loops.ndim == 1 else points


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """A recorded flow run: the start state x0, the read-only (N, D)
    stacks of the states' loop velocity coefficients qd and fiber
    coefficients c, exactly as the march stepped them, and per-state
    diagnostics.  states builds its PhasePoints (but x0) each time it is
    read, with the loop data of all rows rebuilt from qd in one call,
    anchored on x0 (_at).  ab holds the representation pair (a(t), b(t));
    phi_tilde the speed weights it integrates; s is spec.s.
    """

    x0: PhasePoint
    velocities: np.ndarray
    fibers: np.ndarray
    times: np.ndarray
    actions: np.ndarray
    gradient_norms: np.ndarray
    phi_tilde: np.ndarray
    ab: np.ndarray
    s: float
    budget_exhausted: bool = False

    @property
    def states(self):
        return [self.x0] + _at(self.x0.loop, self.x0.frame, (self.velocities[1:], self.fibers[1:]))


def _trajectory(x0, times, velocities, fibers, records, s, budget_exhausted=False):
    """The FlowTrajectory at regularity s from x0 of the stacks velocities
    and fibers with records (grad_norm, phi~, action); (a, b) come from
    the trapezoidal integral of phi~."""
    times = np.asarray(times)
    velocities.flags.writeable = fibers.flags.writeable = False
    grad_norms, phi_tilde, actions = np.array(records, dtype=float).reshape(-1, 3).T
    integral = np.concatenate([[0.0], np.cumsum(np.diff(times) * 0.5 * (phi_tilde[1:] + phi_tilde[:-1]))])
    return FlowTrajectory(x0=x0, velocities=velocities, fibers=fibers, times=times,
                          actions=actions, gradient_norms=grad_norms, phi_tilde=phi_tilde,
                          ab=np.column_stack([-np.sinh(integral), np.cosh(integral)]), s=s,
                          budget_exhausted=budget_exhausted)


def step_budget(config, T):
    """The most steps a flow over time T may take: 16 per nominal step
    of size dt, plus 16, leaving room for step halving."""
    return 16 * int(math.ceil(T / config.dt)) + 16


def _march(x, spec, config, T):
    """The flow from x toward time T, one accepted step at a time.

    Yields (t, steps, velocity) at x and after each step (the state is
    the velocity's); stops once t reaches T (to 1e-12) or the steps reach
    step_budget(config, T).
    A step shrinks to T - t only when that is short of dt by more than
    the same 1e-12, so a flow to a time that earlier steps summed to
    retraces those steps.
    """
    plan = gradient_plan(x.frame, spec.s)
    k = _velocity(plan, _start(x), spec, config)
    t, steps = 0.0, 0
    max_steps = step_budget(config, T)
    yield t, steps, k
    while t < T - 1e-12 and steps < max_steps:
        dt = config.dt if T - t >= config.dt - 1e-12 else T - t
        dt_used, k = _step(spec, config, dt, k, plan)
        t += dt_used
        steps += 1
        yield t, steps, k


def flow(x0, spec, config, T):
    """Run the flow for time T, recording the trajectory.

    T must be finite, non-negative and not above the configured budget
    t_max, or ValueError is raised before the march starts; if
    step-halving eats the step budget before reaching T, the partial
    trajectory comes back flagged.  The trajectory keeps the march's
    velocity and fiber stacks; no loop data are built.
    """
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"flow horizon T must be finite and non-negative, got {T!r}")
    if T > config.t_max + 1e-12:
        raise ValueError("flow horizon exceeds the configured t_max budget")
    require_finite("flow start state", x0.loop, x0.fiber.coefficients)
    times, velocities, fibers, records = zip(*[
        (t, k.state[0], k.state[1], (k.grad_norm, k.phi_tilde, k.action))
        for t, _, k in _march(x0, spec, config, T)])
    return _trajectory(x0, times, np.stack(velocities), np.stack(fibers), records, spec.s,
                       bool(times[-1] < T - 1e-12))


@dataclass(frozen=True, eq=False)
class CriticalSearch:
    """Outcome of flowing toward a critical point."""

    state: PhasePoint
    converged: bool
    escaped: bool
    steps: int
    time: float
    grad_norm: float
    action: float
    budget_exhausted: bool = False


def flow_to_critical(x, spec, config, floor=None):
    """Flow until the gradient norm stays below grad_tol for SUSTAIN_STEPS steps.

    A state already two orders below the tolerance is accepted at once:
    critical points of interest are saddles of the descent flow, whose
    unstable rate would blow such an exact landing past the tolerance
    before any sustained window could close.  An optional action floor
    stops trajectories that have fallen irrecoverably low (they can no
    longer carry a minimax level).  A flow that reaches t_max or its
    step budget first comes back budget-exhausted.
    """
    require_finite("flow_to_critical start state", x.loop, x.fiber.coefficients)
    consec = 0
    for t, steps, k in _march(x, spec, config, config.t_max):
        consec = consec + 1 if k.grad_norm < config.grad_tol else 0
        converged = consec >= SUSTAIN_STEPS or k.grad_norm <= 0.01 * config.grad_tol
        escaped = bool(not converged and floor is not None and k.action < floor)
        if converged or escaped:
            break
    return CriticalSearch(state=x if steps == 0 else _at(x.loop, x.frame, k.state),
                          converged=converged, escaped=escaped, steps=steps, time=t,
                          grad_norm=k.grad_norm, action=k.action,
                          budget_exhausted=not (converged or escaped))


def representation_defects(traj):
    """The defects K(t_k) = p(t_k) - a(t_k) j*qdot(0) - b(t_k) p(0), as an
    (N, D) array of frame coefficients, one row per state."""
    x0 = traj.x0
    jq0 = x0.frame.weights(traj.s - 1.0) * traj.velocities[0]
    return traj.fibers - traj.ab[:, :1] * jq0 - traj.ab[:, 1:] * x0.fiber.coefficients


def representation_coefficients(traj):
    """Per-state rows (a, b, K-residual), an (N, 3) array: the flowed fiber
    against the hyperbolic combination of the initial data, residual in
    the (1-s)-norm."""
    return np.column_stack([traj.ab, traj.x0.frame.norm(1.0 - traj.s,
                                                        representation_defects(traj))])


@dataclass(frozen=True, eq=False)
class PSReport:
    """Per-state Palais-Smale quantities along a trajectory, with a
    growth flag on the quadratic fiber ratio."""

    vertical_defect: np.ndarray   # ||j*(qdot - p)||_{1-s}
    quadratic_ratio: np.ndarray   # ||p||_{L2}^2 / (1 + ||p||_{1-s})
    derivative_norm: np.ndarray   # ||nabla p||_{-s}
    kernel_parallel: np.ndarray   # L2 norm of the kernel part of p
    kernel_residual: np.ndarray   # (1-s)-norm of the complement
    growth_flag: bool

    def bounds(self):
        return {"vertical_defect": float(self.vertical_defect.max()),
                "quadratic_ratio": float(self.quadratic_ratio.max()),
                "derivative_norm": float(self.derivative_norm.max()),
                "kernel_parallel": float(self.kernel_parallel.max()),
                "kernel_residual": float(self.kernel_residual.max()),
                "growth_flag": self.growth_flag}


def ps_diagnostics(traj, spec, config):
    """The four bounded-quantity diagnostics mirroring the PS argument.

    (i) the (1-s)-norm of j*(qdot - p); (ii) the ratio
    ||p||^2/(1 + ||p||_{1-s}); (iii) ||nabla p||_{-s}; (iv) the kernel
    split of p.  The growth flag trips when (ii) keeps climbing over
    the second half of the trajectory, the signature of a diverging
    fiber that the compactness argument excludes.  (i) reads the loop
    velocities the trajectory recorded, with no loop data built.
    """
    frame, s, n = traj.x0.frame, spec.s, traj.x0.frame.n
    p, qd = traj.fibers, traj.velocities
    tail = p.copy()
    tail[:, :n] = 0.0
    v2 = np.sum(p ** 2, axis=1) / (1.0 + frame.norm(1.0 - s, p))
    mid = len(v2) // 2
    growth = bool(len(v2) >= 4 and v2[-1] > v2[0] + 1e-9
                  and v2[-1] > 1.5 * v2[mid] + 1e-9)
    return PSReport(vertical_defect=frame.norm(s - 1.0, qd - p), quadratic_ratio=v2,
                    derivative_norm=frame.norm(-s, derivative_coefficients(frame, p)),
                    kernel_parallel=np.sqrt(np.sum(p[:, :n] ** 2, axis=1)),
                    kernel_residual=frame.norm(1.0 - s, tail), growth_flag=growth)


def divergent_fixture(spec, config):
    """A synthetic Palais-Smale-violating trajectory of 24 states on the
    straight (1, 0) loop of the flat 2-torus.

    The fiber is the smoothed velocity scaled by a linearly growing
    factor, -0.35 (1 + k) at state k, against the pairing sign: the
    sequence that a flow with the radial cutoff disabled can emit.
    Actions still decrease while the fiber norm runs away, so the Step 2
    ratio grows without bound and ps_diagnostics must flag it.
    """
    steps, scale = 24, 0.35
    loop = straight_loop(flat_torus(2), (1, 0), modes=spec.J)
    frame = frame_of(loop, spec.J)
    plan = gradient_plan(frame, spec.s)
    qd = velocity_coefficients(loop, frame)
    fibers = (-(1.0 + np.arange(steps)) * scale)[:, None] * qd
    velocities = [_velocity(plan, np.stack((qd, c)), spec, config) for c in fibers]
    return _trajectory(PhasePoint(loop=loop, fiber=FiberField(frame, fibers[0])),
                       config.dt * np.arange(steps), np.tile(qd, (steps, 1)),
                       fibers, [(k.grad_norm, k.phi_tilde, k.action) for k in velocities], spec.s)
