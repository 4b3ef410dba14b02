"""The truncated normalized negative gradient flow and its diagnostics.

The flow field is

    V_r(q, p) = -cut(|p|_{1-s}) * grad A_r(q, p) / sqrt(1 + |grad A_r|^2),

a bounded field (norm <= 1): the normalization caps the speed and the
radial cutoff freezes states whose fiber norm reaches gamma''.  Steps
are classical RK4 with step-halving whenever a step would raise the
action by more than the per-step tolerance; since the field is bounded,
explicit stepping is stable at fixed dt.  One evaluation of the action
and its gradient (action.evaluate) gives the velocity at a state
together with its action, so the evaluation that accepts a step also
supplies the next step's RK4 stage k1: an accepted step costs four
evaluations (stages k2-k4 and the new state).

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
the quadratic ratio.
"""

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fourier
from .action import (PhasePoint, derivative_coefficients, evaluate, perturb,
                     require_finite, velocity_coefficients)
from .hamiltonian import alpha_bound, smoothstep
from .spectral import FiberField, adjoint_inclusion, project

DESCENT_TOL = 1e-8   # allowed per-step action increase before halving
MAX_HALVINGS = 30


@dataclass(frozen=True)
class FlowConfig:
    """Flow parameters: radii, margins, integrator knobs.

    gamma < gamma' < gamma'' with gamma'' > gamma' + 1 (the cutoff
    plateau must have room to fall); when derived from a Hamiltonian
    spec, gamma' = gamma + alpha/epsilon^2 + 1 with alpha the fiber
    action bound of the family.
    """

    s: float
    J: int
    gamma: float
    gamma_prime: float
    gamma_dprime: float
    epsilon: float
    t0: float
    dt: float
    grad_tol: float
    t_max: float

    def __post_init__(self):
        if not 0.5 < self.s < 1.0:
            raise ValueError("regularity s must lie in (1/2, 1)")
        if not 0.0 < self.gamma < self.gamma_prime < self.gamma_dprime:
            raise ValueError("need 0 < gamma < gamma' < gamma''")
        if not self.gamma_dprime > self.gamma_prime + 1.0:
            raise ValueError("need gamma'' > gamma' + 1")
        if self.epsilon <= 0.0 or self.dt <= 0.0 or self.t0 <= 0.0:
            raise ValueError("epsilon, t0, dt must be positive")
        if self.grad_tol <= 0.0 or self.t_max <= 0.0:
            raise ValueError("grad_tol and t_max must be positive")

    @staticmethod
    def auto(spec, speed=1.0, gamma=2.5, epsilon=0.5, dt=1e-2,
             grad_tol=1e-6, t_max=50.0, margin=2.0):
        """Derive the radii from the spec's fiber action bound."""
        alpha = alpha_bound(spec, speed)
        gamma_prime = gamma + alpha / epsilon ** 2 + 1.0
        return FlowConfig(s=spec.s, J=spec.J, gamma=gamma, gamma_prime=gamma_prime,
                          gamma_dprime=gamma_prime + margin, epsilon=epsilon,
                          t0=alpha / epsilon ** 2 + 1.0, dt=dt,
                          grad_tol=grad_tol, t_max=t_max)

    def to_json(self):
        return {"s": self.s, "J": self.J, "gamma": self.gamma,
                "gamma_prime": self.gamma_prime, "gamma_dprime": self.gamma_dprime,
                "epsilon": self.epsilon, "t0": self.t0, "dt": self.dt,
                "grad_tol": self.grad_tol, "t_max": self.t_max}

    @staticmethod
    def from_json(data):
        return FlowConfig(s=float(data["s"]), J=int(data["J"]), gamma=float(data["gamma"]),
                          gamma_prime=float(data["gamma_prime"]),
                          gamma_dprime=float(data["gamma_dprime"]),
                          epsilon=float(data["epsilon"]), t0=float(data["t0"]),
                          dt=float(data["dt"]), grad_tol=float(data["grad_tol"]),
                          t_max=float(data["t_max"]))


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
    """V_r at a state, with the action and gradient norm found on the way."""

    horizontal: FiberField
    vertical: FiberField
    grad_norm: float
    phi_tilde: float
    action: float


def flow_velocity(x, spec, config):
    """V_r at x from one evaluation, as a Velocity.

    phi~ = cut/sqrt(1 + |grad|^2) is the normalized speed weight whose
    time integral drives the representation coefficients.
    """
    a, gh, gv = evaluate(x, spec)
    grad_h = FiberField(x.frame, gh)
    grad_v = FiberField(x.frame, gv)
    gn = math.sqrt(grad_h.norm_r(x.s) ** 2 + grad_v.norm_r(1.0 - x.s) ** 2)
    cut = speed_cutoff(config, x.fiber.norm_r(1.0 - x.s))
    phi_tilde = cut / math.sqrt(1.0 + gn * gn)
    return Velocity(-phi_tilde * grad_h, -phi_tilde * grad_v, gn, phi_tilde, a)


def _rk4(x, spec, config, dt, k1):
    """The RK4 step of size dt from x, whose velocity k1 is given."""
    x2 = perturb(x, 0.5 * dt, xi=k1.horizontal, eta=k1.vertical)
    k2 = flow_velocity(x2, spec, config)
    x3 = perturb(x, 0.5 * dt, xi=k2.horizontal, eta=k2.vertical)
    k3 = flow_velocity(x3, spec, config)
    x4 = perturb(x, dt, xi=k3.horizontal, eta=k3.vertical)
    k4 = flow_velocity(x4, spec, config)
    ch = (k1.horizontal.coefficients + 2.0 * k2.horizontal.coefficients
          + 2.0 * k3.horizontal.coefficients + k4.horizontal.coefficients) / 6.0
    cv = (k1.vertical.coefficients + 2.0 * k2.vertical.coefficients
          + 2.0 * k3.vertical.coefficients + k4.vertical.coefficients) / 6.0
    frame = x.frame
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


def flow_step(x, spec, config, dt=None):
    """One integrator step of V_r (public form of _step)."""
    dt = config.dt if dt is None else dt
    xn, _, _ = _step(x, spec, config, dt, flow_velocity(x, spec, config))
    return xn


@dataclass(frozen=True)
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


def _ab_from_speed(times, phi_tilde):
    integral = np.concatenate([[0.0], np.cumsum(np.diff(times) * 0.5 * (phi_tilde[1:] + phi_tilde[:-1]))])
    return np.column_stack([-np.sinh(integral), np.cosh(integral)])


def flow(x0, spec, config, T):
    """Run the flow for time T, recording the trajectory.

    T must not exceed the configured budget t_max; if step-halving eats
    the step budget before reaching T, the partial trajectory comes
    back flagged.
    """
    if T > config.t_max + 1e-12:
        raise ValueError("flow horizon exceeds the configured t_max budget")
    require_finite("flow start state", x0.loop, x0.fiber.coefficients)
    k = flow_velocity(x0, spec, config)
    times = [0.0]
    states = [x0]
    actions = [k.action]
    grad_norms = [k.grad_norm]
    speeds = [k.phi_tilde]
    max_steps = 16 * int(math.ceil(T / config.dt)) + 16
    t = 0.0
    x = x0
    steps = 0
    while t < T - 1e-12 and steps < max_steps:
        dt = min(config.dt, T - t)
        x, dt_used, k = _step(x, spec, config, dt, k)
        t += dt_used
        steps += 1
        times.append(t)
        states.append(x)
        actions.append(k.action)
        grad_norms.append(k.grad_norm)
        speeds.append(k.phi_tilde)
    times = np.asarray(times)
    phi_tilde = np.asarray(speeds)
    return FlowTrajectory(times=times, states=states, actions=np.asarray(actions),
                          gradient_norms=np.asarray(grad_norms), phi_tilde=phi_tilde,
                          ab=_ab_from_speed(times, phi_tilde),
                          budget_exhausted=bool(t < T - 1e-12))


@dataclass(frozen=True)
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


def flow_to_critical(x, spec, config, floor=None, sustain=10):
    """Flow until the gradient norm stays below grad_tol for `sustain` steps.

    A state already two orders below the tolerance is accepted at once:
    critical points of interest are saddles of the descent flow, whose
    unstable rate would blow such an exact landing past the tolerance
    before any sustained window could close.  An optional action floor
    stops trajectories that have fallen irrecoverably low (they can no
    longer carry a minimax level).
    """
    require_finite("flow_to_critical start state", x.loop, x.fiber.coefficients)
    t = 0.0
    steps = 0
    consec = 0
    max_steps = 16 * int(math.ceil(config.t_max / config.dt)) + 16
    k = flow_velocity(x, spec, config)
    while True:
        gn, a = k.grad_norm, k.action
        if gn < config.grad_tol:
            consec += 1
            if consec >= sustain or gn <= 0.01 * config.grad_tol:
                return CriticalSearch(state=x, converged=True, escaped=False, steps=steps,
                                      time=t, grad_norm=gn, action=a)
        else:
            consec = 0
        if floor is not None and a < floor:
            return CriticalSearch(state=x, converged=False, escaped=True, steps=steps,
                                  time=t, grad_norm=gn, action=a)
        if t >= config.t_max or steps >= max_steps:
            return CriticalSearch(state=x, converged=False, escaped=False, steps=steps,
                                  time=t, grad_norm=gn, action=a, budget_exhausted=True)
        x, dt_used, k = _step(x, spec, config, min(config.dt, config.t_max - t), k)
        t += dt_used
        steps += 1


def representation_coefficients(traj):
    """Per-state (a, b, K-residual): the flowed fiber against the
    hyperbolic combination of the initial data, residual in the
    (1-s)-norm."""
    x0 = traj.states[0]
    frame0 = x0.frame
    m = fourier.default_samples(frame0.cutoff)
    qd0 = project(frame0, x0.loop.velocity_samples(m))
    jq0 = adjoint_inclusion(frame0, x0.s, qd0)
    lam = frame0.eigenvalues
    w = (1.0 + lam) ** (1.0 - x0.s)
    out = []
    for k, xk in enumerate(traj.states):
        a_k, b_k = float(traj.ab[k, 0]), float(traj.ab[k, 1])
        defect = xk.fiber.coefficients - a_k * jq0.coefficients - b_k * x0.fiber.coefficients
        out.append((a_k, b_k, float(np.sqrt(np.sum(w * defect ** 2)))))
    return out


def representation_defects(traj):
    """The K defect fields themselves (coefficients in the shared frame)."""
    x0 = traj.states[0]
    frame0 = x0.frame
    m = fourier.default_samples(frame0.cutoff)
    qd0 = project(frame0, x0.loop.velocity_samples(m))
    jq0 = adjoint_inclusion(frame0, x0.s, qd0)
    return [xk.fiber.coefficients - float(traj.ab[k, 0]) * jq0.coefficients
            - float(traj.ab[k, 1]) * x0.fiber.coefficients
            for k, xk in enumerate(traj.states)]


def kolmogorov_width_proxy(frame, s, defect_coefficients, max_mode=None):
    """Width proxy: worst (1-s)-norm of the tail beyond each mode cutoff.

    For a genuinely compact defect family the tail widths decay in the
    cutoff; returns the array w[J'] for J' = 0..max_mode.
    """
    n = frame.n
    J = frame.cutoff
    max_mode = J if max_mode is None else min(max_mode, J)
    lam = frame.eigenvalues
    w = (1.0 + lam) ** (1.0 - s)
    mode_index = np.concatenate([np.zeros(n, dtype=int),
                                 np.repeat(np.arange(1, J + 1), 2 * n)])
    widths = np.empty(max_mode + 1)
    for jp in range(max_mode + 1):
        tail = mode_index > jp
        worst = 0.0
        for c in defect_coefficients:
            worst = max(worst, float(np.sqrt(np.sum(w[tail] * np.asarray(c)[tail] ** 2))))
        widths[jp] = worst
    return widths


@dataclass(frozen=True)
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
    v1, v2, v3, kpar, ktil = [], [], [], [], []
    for xk in traj.states:
        frame = xk.frame
        n = xk.loop.manifold.dim
        lam = frame.eigenvalues
        qd = velocity_coefficients(xk.loop, frame)
        pc = xk.fiber.coefficients
        diff = qd - pc
        v1.append(np.sqrt(np.sum((1.0 + lam) ** (xk.s - 1.0) * diff ** 2)))
        p_l2 = float(np.sum(pc ** 2))
        v2.append(p_l2 / (1.0 + xk.fiber.norm_r(1.0 - xk.s)))
        pdot = derivative_coefficients(frame, pc)
        v3.append(np.sqrt(np.sum((1.0 + lam) ** (-xk.s) * pdot ** 2)))
        kpar.append(np.sqrt(np.sum(pc[:n] ** 2)))
        tail = pc.copy()
        tail[:n] = 0.0
        ktil.append(np.sqrt(np.sum((1.0 + lam) ** (1.0 - xk.s) * tail ** 2)))
    v2 = np.asarray(v2, dtype=float)
    mid = len(v2) // 2
    growth = bool(len(v2) >= 4 and v2[-1] > v2[0] + 1e-9
                  and v2[-1] > 1.5 * v2[mid] + 1e-9)
    return PSReport(vertical_defect=np.asarray(v1), quadratic_ratio=v2,
                    derivative_norm=np.asarray(v3), kernel_parallel=np.asarray(kpar),
                    kernel_residual=np.asarray(ktil), growth_flag=growth)


def divergent_fixture(spec, config, steps=24, scale=0.35, winding=(1, 0)):
    """A synthetic Palais-Smale-violating trajectory.

    The fiber is the smoothed velocity scaled by a linearly growing
    factor against the pairing sign, the sequence that a flow with the
    radial cutoff disabled can emit: actions still decrease while the
    fiber norm runs away, so the Step 2 ratio grows without bound and
    ps_diagnostics must flag it.
    """
    from .geometry import flat_torus, straight_loop
    from .spectral import FiberField, frame_of
    loop = straight_loop(flat_torus(len(winding)), tuple(winding), modes=spec.J)
    frame = frame_of(loop, spec.J)
    qd = velocity_coefficients(loop, frame)
    states = []
    for k in range(steps):
        c = -(1.0 + k) * scale * qd
        states.append(PhasePoint(loop=loop, fiber=FiberField(frame, c), s=spec.s))
    times = config.dt * np.arange(steps)
    actions = np.empty(steps)
    grads = np.empty(steps)
    speeds = np.empty(steps)
    for k, x in enumerate(states):
        vel = flow_velocity(x, spec, config)
        actions[k], grads[k], speeds[k] = vel.action, vel.grad_norm, vel.phi_tilde
    return FlowTrajectory(times=times, states=states, actions=actions,
                          gradient_norms=grads, phi_tilde=speeds,
                          ab=_ab_from_speed(times, speeds), budget_exhausted=False)


def deformation_report(starts, spec, config, level, eps, horizon=None):
    """Empirical deformation check around an isolated critical value.

    Flows each start (assumed to satisfy A <= level + eps and to sit
    outside the critical neighborhood) and reports the first time its
    action falls to level - eps, plus whether all starts made it within
    the horizon (default t0)."""
    horizon = config.t0 if horizon is None else horizon
    times = []
    for x in starts:
        traj = flow(x, spec, config, horizon)
        hit = np.nonzero(traj.actions <= level - eps)[0]
        times.append(float(traj.times[hit[0]]) if hit.size else math.inf)
    times = np.asarray(times)
    return {"eps": eps, "horizon": horizon, "times": times,
            "all_reached": bool(np.all(np.isfinite(times)))}


def config_to_json(config):
    return json.dumps(config.to_json(), sort_keys=True)
