"""The truncated normalized negative gradient flow and its diagnostics.

The flow field is

    V_r(q, p) = -cut(|p|_{1-s}) * grad A_r(q, p) / sqrt(1 + |grad A_r|^2),

a bounded field (norm <= 1): the normalization caps the speed and the
radial cutoff freezes states whose fiber norm reaches gamma''.  Steps
are classical RK4 with step-halving whenever a step would raise the
action by more than the per-step tolerance; since the field is bounded,
explicit stepping is stable at fixed dt.  The action reads a state only
through its velocity and fiber coefficients, so the inner RK4 stages
are evaluated on those arrays and only the state a step returns is
built as a PhasePoint.  The evaluation that accepts a step is the next
step's k1: an accepted step costs four evaluations (k2-k4 and the new
state).  One stepping driver serves both flow, which records every
state, and flow_to_critical, which stops at the first state that
converges or falls below its floor.

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
the quadratic ratio, computed over the (N, D) stack of a trajectory's
fiber coefficients.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .action import (PhasePoint, derivative_coefficients, evaluate, perturb,
                     require_finite, velocity_coefficients)
from .geometry import flat_torus, straight_loop
from .hamiltonian import alpha_bound, smoothstep
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
    the spec's: the flow reads them from its states and their frame.
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
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"flow {f.name} must be finite, got {getattr(self, f.name)!r}")
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
        if not math.isfinite(epsilon):
            raise ValueError(f"flow epsilon must be finite, got {epsilon!r}")
        if epsilon <= 0.0:
            raise ValueError("epsilon and dt must be positive")
        gamma_prime = gamma + alpha_bound(spec, 1.0) / epsilon ** 2 + 1.0
        return FlowConfig(gamma=gamma, gamma_prime=gamma_prime, gamma_dprime=gamma_prime + margin,
                          epsilon=epsilon, dt=dt, grad_tol=grad_tol, t_max=t_max)

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json(data):
        return FlowConfig(**{f.name: float(data[f.name]) for f in fields(FlowConfig)})


def speed_cutoff(config, fiber_norm):
    """The radial speed cutoff: 1 through gamma'+1, 0 from gamma'' on."""
    lo = config.gamma_prime + 1.0
    hi = config.gamma_dprime
    if fiber_norm <= lo:
        return 1.0
    if fiber_norm >= hi:
        return 0.0
    s, _, _, _ = smoothstep((fiber_norm - lo) / (hi - lo))
    return float(1.0 - s)


class Velocity(NamedTuple):
    """V_r at a state as frame coefficient arrays, with the gradient norm,
    phi~ and the action found on the way, and the velocity coefficients
    of the state's loop, which the RK4 step from that state reuses."""

    horizontal: np.ndarray
    vertical: np.ndarray
    grad_norm: float
    phi_tilde: float
    action: float
    loop_velocity: np.ndarray


def flow_velocity(x, spec, config, qd=None, c=None):
    """V_r at x from one evaluation, as a Velocity.

    qd and c, when given, are the velocity and fiber coefficients of a
    state in x's frame that stand in for x's own (an RK4 stage).  phi~ =
    cut/sqrt(1 + |grad|^2) is the normalized speed weight whose time
    integral drives the representation coefficients.
    """
    frame = x.frame
    qd = velocity_coefficients(x.loop, frame) if qd is None else qd
    c = x.fiber.coefficients if c is None else c
    a, gh, gv = evaluate(x, spec, qd, c)
    gn = math.sqrt(frame.norm(x.s, gh) ** 2 + frame.norm(1.0 - x.s, gv) ** 2)
    phi_tilde = speed_cutoff(config, frame.norm(1.0 - x.s, c)) / math.sqrt(1.0 + gn * gn)
    return Velocity(-phi_tilde * gh, -phi_tilde * gv, gn, phi_tilde, a, qd)


def _rk4(x, spec, config, dt, k1):
    """The RK4 step of size dt from x, whose velocity k1 is given.

    The stages k2-k4 are evaluated at velocity coefficients
    qd + h d/dt(k.horizontal) and fiber coefficients c + h k.vertical,
    the coefficients of perturb(x, h, k) up to roundoff; qd is x's loop
    velocity as k1 carries it, and perturb builds only the state returned.
    """
    frame = x.frame
    qd = k1.loop_velocity
    c = x.fiber.coefficients

    def stage(h, k):
        return flow_velocity(x, spec, config, qd + h * derivative_coefficients(frame, k.horizontal),
                             c + h * k.vertical)

    k2 = stage(0.5 * dt, k1)
    k3 = stage(0.5 * dt, k2)
    k4 = stage(dt, k3)
    ch, cv = ((u1 + 2.0 * u2 + 2.0 * u3 + u4) / 6.0
              for u1, u2, u3, u4 in zip(k1[:2], k2[:2], k3[:2], k4[:2]))
    return perturb(x, dt, xi=FiberField(frame, ch), eta=FiberField(frame, cv))


def _step(x, spec, config, dt, k1):
    """One accepted step from x, whose velocity is k1: halve dt until the
    action does not increase.  Returns (new state, dt used, its velocity)."""
    for _ in range(MAX_HALVINGS):
        xn = _rk4(x, spec, config, dt, k1)
        kn = flow_velocity(xn, spec, config)
        if kn.action <= k1.action + DESCENT_TOL:
            return xn, dt, kn
        dt *= 0.5
    raise ArithmeticError(f"flow step rejected after {MAX_HALVINGS} halvings (dt={dt:.3e})")


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """A recorded flow run: states with per-state diagnostics.

    ab holds the representation pair (a(t), b(t)); phi_tilde the
    normalized speed weights the pair integrates.
    """

    times: np.ndarray
    states: list
    actions: np.ndarray
    gradient_norms: np.ndarray
    phi_tilde: np.ndarray
    ab: np.ndarray
    budget_exhausted: bool = False

    @property
    def final(self):
        return self.states[-1]


def _trajectory(times, states, records, budget_exhausted=False):
    """The FlowTrajectory of states whose records are the three scalars
    (grad_norm, phi~, action) of their Velocities; (a, b) come from the
    trapezoidal integral of phi~."""
    times = np.asarray(times)
    grad_norms, phi_tilde, actions = np.array(records, dtype=float).reshape(-1, 3).T
    integral = np.concatenate([[0.0], np.cumsum(np.diff(times) * 0.5 * (phi_tilde[1:] + phi_tilde[:-1]))])
    return FlowTrajectory(times=times, states=states, actions=actions,
                          gradient_norms=grad_norms, phi_tilde=phi_tilde,
                          ab=np.column_stack([-np.sinh(integral), np.cosh(integral)]),
                          budget_exhausted=budget_exhausted)


def step_budget(config, T):
    """The most steps a flow over time T may take: 16 per nominal step
    of size dt, plus 16, leaving room for step halving."""
    return 16 * int(math.ceil(T / config.dt)) + 16


def _march(x, spec, config, T):
    """The flow from x toward time T, one accepted step at a time.

    Yields (t, steps, state, velocity) at x and after each step; stops
    once t reaches T (to 1e-12) or the steps reach step_budget(config, T).
    A step shrinks to T - t only when that is short of dt by more than
    the same 1e-12, so a flow to a time that earlier steps summed to
    retraces those steps.
    """
    k = flow_velocity(x, spec, config)
    t, steps = 0.0, 0
    max_steps = step_budget(config, T)
    yield t, steps, x, k
    while t < T - 1e-12 and steps < max_steps:
        dt = config.dt if T - t >= config.dt - 1e-12 else T - t
        x, dt_used, k = _step(x, spec, config, dt, k)
        t += dt_used
        steps += 1
        yield t, steps, x, k


def flow(x0, spec, config, T):
    """Run the flow for time T, recording the trajectory.

    T must not exceed the configured budget t_max; if step-halving eats
    the step budget before reaching T, the partial trajectory comes
    back flagged.
    """
    if T > config.t_max + 1e-12:
        raise ValueError("flow horizon exceeds the configured t_max budget")
    require_finite("flow start state", x0.loop, x0.fiber.coefficients)
    times, states, records = [], [], []
    for t, _, x, k in _march(x0, spec, config, T):
        times.append(t)
        states.append(x)
        records.append((k.grad_norm, k.phi_tilde, k.action))
    return _trajectory(times, states, records, budget_exhausted=bool(times[-1] < T - 1e-12))


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
    for t, steps, x, k in _march(x, spec, config, config.t_max):
        consec = consec + 1 if k.grad_norm < config.grad_tol else 0
        converged = consec >= SUSTAIN_STEPS or k.grad_norm <= 0.01 * config.grad_tol
        escaped = bool(not converged and floor is not None and k.action < floor)
        if converged or escaped:
            break
    return CriticalSearch(state=x, converged=converged, escaped=escaped, steps=steps, time=t,
                          grad_norm=k.grad_norm, action=k.action,
                          budget_exhausted=not (converged or escaped))


def representation_defects(traj):
    """The defects K(t_k) = p(t_k) - a(t_k) j*qdot(0) - b(t_k) p(0), as an
    (N, D) array of frame coefficients, one row per state."""
    x0 = traj.states[0]
    frame = x0.frame
    jq0 = frame.weights(x0.s - 1.0) * velocity_coefficients(x0.loop, frame)
    fibers = np.stack([x.fiber.coefficients for x in traj.states])
    return fibers - traj.ab[:, :1] * jq0 - traj.ab[:, 1:] * x0.fiber.coefficients


def representation_coefficients(traj):
    """Per-state rows (a, b, K-residual), an (N, 3) array: the flowed fiber
    against the hyperbolic combination of the initial data, residual in
    the (1-s)-norm."""
    x0 = traj.states[0]
    return np.column_stack([traj.ab, x0.frame.norm(1.0 - x0.s, representation_defects(traj))])


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
    fiber that the compactness argument excludes.
    """
    x0 = traj.states[0]
    frame, s, n = x0.frame, x0.s, x0.frame.n
    p = np.stack([x.fiber.coefficients for x in traj.states])
    qd = np.stack([velocity_coefficients(x.loop, frame) for x in traj.states])
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


def divergent_fixture(spec, config, steps=24, scale=0.35, winding=(1, 0)):
    """A synthetic Palais-Smale-violating trajectory.

    The fiber is the smoothed velocity scaled by a linearly growing
    factor against the pairing sign, the sequence that a flow with the
    radial cutoff disabled can emit: actions still decrease while the
    fiber norm runs away, so the Step 2 ratio grows without bound and
    ps_diagnostics must flag it.
    """
    loop = straight_loop(flat_torus(len(winding)), tuple(winding), modes=spec.J)
    frame = frame_of(loop, spec.J)
    qd = velocity_coefficients(loop, frame)
    states = [PhasePoint(loop=loop, fiber=FiberField(frame, -(1.0 + k) * scale * qd), s=spec.s)
              for k in range(steps)]
    velocities = [flow_velocity(x, spec, config) for x in states]
    return _trajectory(config.dt * np.arange(steps), states,
                       [(k.grad_norm, k.phi_tilde, k.action) for k in velocities])
