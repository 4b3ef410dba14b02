"""Reference forms of loopflow quantities that the package itself never runs.

Each function here is a former loopflow definition, moved with its
arithmetic unchanged: the package and its benchmark do not call it, and
the tests compare the package against it or use it to state a property
(the anchoring of a loop, the Hamilton equations at a critical point,
the closed-form levels of c07).  A former method takes its owner as the
first argument.  Unlike tests/oracles.py, which shares no code with the
package, these read loopflow's own primitives.
"""

import numpy as np

from loopflow import minimax
from loopflow.action import (_certified_energy, derivative_coefficients, fiber_evaluation,
                             fiber_samples, gradient_plan, velocity_coefficients)
from loopflow.flow import _at, _start
from loopflow.hamiltonian import phi, radial_H
from loopflow.spectral import SQ2


def differentiate(a0, a, b):
    """Coefficients of d/dt of the series (exact on the truncation);
    a and b may carry a leading batch axis."""
    J = np.asarray(a).shape[-2]
    w = 2.0 * np.pi * np.arange(1, J + 1)[:, None]
    return np.zeros_like(np.atleast_1d(a0)), w * b, -w * a


def wrap(manifold, q):
    """Canonical coordinate representative in [0, L_k) on the manifold."""
    return np.mod(np.asarray(q, dtype=float), np.asarray(manifold.periods))


def coordinates(loop, t):
    """Unwrapped coordinates q(t) of the loop, shape (len(t), n)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    ang = 2.0 * np.pi * np.outer(t, np.arange(1, loop.modes + 1))
    # anchored: cos - 1 and sin vanish at t = 0 exactly, so coordinates(0) == base
    per = (np.cos(ang) - 1.0) @ loop.cos_coeffs + np.sin(ang) @ loop.sin_coeffs
    return np.asarray(loop.base)[None, :] + np.outer(t, loop.drift) + per


def layout(frame, a0, a, b):
    """Frame coefficients (..., D) of the trig series (a0, a, b).

    The inverse of frame_series; a and b may hold fewer than J modes, the
    missing ones being zero, and all three may carry a leading batch
    axis.
    """
    n = frame.n
    lead = np.shape(a0)[:-1]
    c = np.zeros(lead + (frame.dim,))
    c[..., :n] = a0
    block = c[..., n:].reshape(lead + (frame.cutoff, 2, n))  # per mode: cos row then sin row
    k = np.shape(a)[-2]
    block[..., :k, 0, :] = a
    block[..., :k, 1, :] = b
    block[..., :k, :, :] /= SQ2
    return c


def frame_series(frame, coefficients):
    """Inverse layout map: (..., D) frame coefficients -> trig series (a0, a, b)."""
    n = frame.n
    J = frame.cutoff
    c = np.asarray(coefficients, dtype=float)
    block = c[..., n:].reshape(c.shape[:-1] + (J, 2 * n))
    return c[..., :n].copy(), block[..., :n] * SQ2, block[..., n:] * SQ2


def quadratic_zone_energy(plan, c, rho1):
    """|c|^2 when the coefficients alone put every radius of the fiber c
    in the quadratic zone 2 rho1 <= rho <= QUADRATIC_TOP, else None: the
    certificate (_certified_energy) of c's block energies, the one
    metric_gradient reads."""
    return _certified_energy(np.add.reduceat(c * c, plan.blocks), rho1)


def hamilton_residual(x, spec):
    """L^2 defect of the Hamilton equations at x.

    On the flat models the equations are qdot = dH/dp and nabla p = 0;
    the residual is the sum of the two L^2 norms.
    """
    frame = x.frame
    qd = velocity_coefficients(x.loop, frame)
    c = x.fiber.coefficients
    _, _, dpH = fiber_evaluation(frame, qd, c, spec, fiber_samples(frame, c))
    diff = frame.samples(qd) - dpH
    res_q = float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1))))
    pdot = derivative_coefficients(frame, c)
    return res_q + float(np.linalg.norm(pdot))


def final_state(traj):
    """The trajectory's last state as a PhasePoint: x0 itself for a
    one-state trajectory, else built from the last rows of its stacks,
    anchored on x0 (flow._at)."""
    if len(traj.times) == 1:
        return traj.x0
    return _at(traj.x0.loop, traj.x0.frame, (traj.velocities[-1], traj.fibers[-1]))


def fake_geodesic_action(spec, p0):
    """Closed-form action of a fake closed geodesic with |p(0)| = p0."""
    scalar = np.ndim(p0) == 0
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if np.any(p0 <= spec.rho1):
        raise ValueError("no fake geodesics at or below rho1")
    out = phi(spec, p0, order=1) * p0 - phi(spec, p0) - spec.r
    return float(out[0]) if scalar else out


def perturbation_sup_diff(spec_a, spec_b):
    """sup_rho |H_{r_a} - H_{r_b}| for two specs sharing their profiles,
    over 4001 uniform radii in [0, 3 rho1]."""
    top = 3.0 * max(spec_a.rho1, spec_b.rho1)
    rho = np.linspace(0.0, top, 4001)
    return float(np.max(np.abs(radial_H(spec_a, rho) - radial_H(spec_b, rho))))


def composite_descent(x, spec, config):
    """The envelope descent (minimax._envelope_descent) from x's state to
    a gradient norm two orders below grad_tol.  Returns (state,
    converged), the state built from the descent's z anchored on x
    (flow._at); a descent that does not converge within
    minimax.DESCENT_ROUNDS returns the state its last round stepped to.
    Both are read through the module, so a test that patches them there
    patches this descent too.
    """
    rounds, k = minimax._envelope_descent(gradient_plan(x.frame, spec.s), _start(x), spec,
                                          config, 0.01 * config.grad_tol)
    return _at(x.loop, x.frame, k.state), rounds < minimax.DESCENT_ROUNDS
