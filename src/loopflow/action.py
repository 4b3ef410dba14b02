"""The Hamiltonian action functional on the mixed-regularity loop bundle.

A phase point is a loop q together with a fiber field p expressed in
the loop's spectral frame; the action is

    A(q, p) = <qdot, p>_{L^2} - integral of H_r(|p(t)|) dt.

Both terms are evaluated from the same data: the pairing exactly in
frame coefficients, the H integral by the 4J+1-node uniform quadrature
(exact for trig polynomials of degree <= 4J, spectrally accurate
otherwise).  The gradient returned here is the exact derivative of that
discrete functional with respect to the coefficients, organized as a
(horizontal, vertical) pair and measured in the mixed metric: the
horizontal part lives in the s-metric, the vertical part in the
(1-s)-metric.  Tangents, the gradient among them, are pairs of (D,)
frame coefficient arrays; FiberField holds only a state's fiber.
Because the quadrature pairing and the frame analysis use identical
weights, finite differences of the discrete action reproduce this
gradient to roundoff, not merely to truncation order.

The action, the vertical gradient and the gradient norm come from one
evaluation, metric_gradient, on the arrays of a GradientPlan made once
per frame and s; action, gradient_norm, the flow's stage kernel and the
polish's residual all read it.  The horizontal gradient is linear in the
fiber (horizontal_gradient, a gather times a gain), so metric_gradient
reads its norm off the fiber and the callers that need the vector gather
it.  Where the coefficients alone certify every radius in the quadratic
zone rho >= 2 rho1 (quadratic_zone_energy), the action and the plain
gradient come in closed form (quadratic_zone_terms) with no transform.
Every other call is one fiber_evaluation: one irfft of the fiber, then
that closed form, or one H pass and one rfft of dH/dp, bit for bit the
trig-series route through fourier.synthesize and fourier.analyze.
Velocity coefficients are read off the loop's series, with no sampling.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fourier
from .geometry import LoopPath, flat_torus, random_loop, straight_loop
from .spectral import SQ2, FiberField, SpectralFrame, frame_of
from .hamiltonian import TIE_BAND, radial_H_jet, tail_jet

# top of the quadratic zone of fiber_evaluation and of metric_gradient's
# certificate: from about 1.34e154 on, rho ** 2 overflows and the tail
# jet's dH/drho is inf * 0 = NaN, which the zone's closed form would not
# reproduce
QUADRATIC_TOP = 1e150


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point (q, p) of the bundle: a loop and its fiber field.  The
    regularity s is not the state's; (x, spec) functions read spec.s."""

    loop: LoopPath
    fiber: FiberField

    def __post_init__(self):
        frame = self.fiber.frame
        if frame.n != self.loop.manifold.dim or frame.cutoff < self.loop.modes:
            raise ValueError(f"fiber frame (n={frame.n}, J={frame.cutoff}) does not fit a loop "
                             f"with n={self.loop.manifold.dim} and {self.loop.modes} modes")

    @property
    def frame(self):
        return self.fiber.frame


def require_finite(label, loop=None, fiber=None):
    """Reject a non-finite loop or fiber where a state enters the flow or
    the ascent; PhasePoint does not check, so an overflowing RK4 stage
    still reaches the step-halving guard."""
    if loop is not None and not all(np.isfinite(a).all()
                                    for a in (loop.base, loop.cos_coeffs, loop.sin_coeffs)):
        raise ValueError(f"{label} has non-finite loop coefficients")
    if fiber is not None and not np.isfinite(fiber).all():
        raise ValueError(f"{label} has non-finite fiber coefficients")


def straight_orbit(manifold, winding, spec, momentum=None):
    """The straight phase orbit: linear loop from the origin, constant fiber field.

    momentum defaults to the loop's own velocity (the kinetic case
    p = qdot); a constant field has only kernel-mode coefficients.
    """
    loop = straight_loop(manifold, tuple(winding), modes=spec.J)
    frame = frame_of(loop, spec.J)
    v = loop.drift if momentum is None else np.asarray(momentum, dtype=float)
    c = np.zeros(frame.dim)
    c[: manifold.dim] = v
    return PhasePoint(loop=loop, fiber=FiberField(frame, c))


def loop_energy(loop):
    """E(q) = 1/2 integral |qdot|^2, exactly by Parseval: the drift, and
    2 pi j times the sin and cos coefficients of each mode j."""
    w = 2.0 * np.pi * np.arange(1, loop.modes + 1)[:, None]
    return float(0.5 * (np.sum(loop.drift ** 2) + 0.5 * np.sum((w * loop.sin_coeffs) ** 2)
                        + 0.5 * np.sum((w * loop.cos_coeffs) ** 2)))


def derivative_coefficients(frame, c):
    """Frame coefficients of the t-derivative of the field with
    coefficients c, of shape (D,) or (S, D): one gather of each cos/sin
    partner and one multiply by the signed frequencies
    (SpectralFrame._derivative_map); the kernel entries are +0.0."""
    partner, frequency = frame._derivative_map
    out = np.take(c, partner, axis=-1) * frequency
    out[..., :frame.n] = 0.0
    return out


def velocity_coefficients(loop, frame):
    """Frame coefficients of the loop velocity: series_velocity of its
    series padded to the frame's J.

    Exact: the velocity of a loop with at most J modes lies in the
    frame's span, so no synthesis or analysis is needed.  The sin slots
    of modes the loop does not carry read -0.0, their cos slots +0.0.
    """
    return series_velocity(frame, loop.drift, loop.series(frame.cutoff))


def series_velocity(frame, drift, series):
    """Frame coefficients of loop velocities from their drift (n,) and
    their loops' data (..., D) laid out as LoopPath.series: each cos/sin
    partner gathered times its signed frequency, over sqrt(2), and the
    drift in the kernel."""
    partner, frequency = frame._derivative_map
    out = np.take(series, partner, axis=-1) * frequency / SQ2
    out[..., :frame.n] = drift
    return out


def move_series(frame, L, eps, xi):
    """Loop data L (LoopPath.series) moved by eps along the frame tangent
    xi (D,), exact in coefficients: the cos/sin rows by eps sqrt(2) xi,
    and the base by eps times (xi's kernel plus the sum of its cos rows),
    which is xi(0), so that the moved loop stays anchored.  A fresh array.
    """
    n = frame.n
    xs = xi * SQ2
    out = L + eps * xs
    out[:n] = L[:n] + eps * (xi[:n] + xs[n:].reshape(-1, 2 * n)[:, :n].sum(axis=0))
    return out


def quadratic_zone_terms(qd, c, energy, spec):
    """(action, plain gradient) at velocity coefficients qd of a fiber c
    with every radius in the quadratic zone and energy |c|^2: H_r = r +
    rho^2/2 at every node, whose mean is r + |c|^2/2 by Parseval on the
    4J+1 nodes, and dH/dp = p has coefficients c.  Exact in exact
    arithmetic; the sampled route's FFTs differ from it at roundoff."""
    return float(c @ qd) - (spec.r + 0.5 * energy), qd - c


def fiber_evaluation(frame, qd, c, spec):
    """The action at fiber coefficients c and its plain fiber gradient.

    qd holds the frame coefficients of the loop velocity.  Returns
    (action, qd - coefficients of dH/dp, dH/dp samples) for the (D,)
    fiber c, from one frame.samples of the fiber (one irfft).  The
    gradient is C-contiguous; the (m, n) dH/dp samples are
    coordinate-major, as frame.samples returns them.  The sampled radii
    choose the rest:

    * all in the quadratic zone 2 rho1 <= rho <= QUADRATIC_TOP:
      quadratic_zone_terms, and dH/dp is p itself, with no rfft.  2 rho1
      is exact and rounding is monotone, so u = (rho - rho1)/rho1 >= 1
      there, where the tail's smoothstep is exactly 1.0 and its
      derivative exactly 0.0.
    * all above rho1: tail_jet on the whole array and dH/dp = (dH/drho /
      rho) p with no guard, the bits of the branch below; one rfft.
    * otherwise: radial_H_jet's branch gather, dH/drho / rho set to 0 at
      rho = 0, and one rfft.

    A NaN radius fails every comparison and takes the last branch; an
    overflowing one exceeds QUADRATIC_TOP, and the tail jet's dH/drho is
    NaN there.
    """
    p_samp = frame.samples(c)
    rho = np.sqrt((p_samp * p_samp).sum(axis=-1))
    lo = rho.min()
    if lo >= 2.0 * spec.rho1 and rho.max() <= QUADRATIC_TOP:
        return (*quadratic_zone_terms(qd, c, float(c @ c), spec), p_samp)
    if lo > spec.rho1:
        h0, h1 = tail_jet(spec, rho, 1, spec.r)
        dpH = (h1 / rho)[:, None] * p_samp
    else:
        h0, h1 = radial_H_jet(spec, rho, order=1)
        dpH = np.divide(h1, rho, out=np.zeros_like(rho), where=rho > 0.0)[:, None] * p_samp
    a = np.vecdot(c, qd) - h0.sum() / rho.size
    return float(a), qd - frame.coefficients(dpH), dpH


class GradientPlan(NamedTuple):
    """The arrays of the metric gradient at one frame and regularity s,
    made once by gradient_plan and read by metric_gradient.

    The horizontal gradient -(1+lam)^{-s} (dp/dt coefficients) is one
    gather of the cos/sin partners times gain = -(1+lam)^{-s} (+-2 pi j),
    +-0.0 in the kernel (horizontal_gradient).  Its own t-derivative is
    diagonal: rate * c, with rate = -(1+lam)^{-s} lam, since d^2/dt^2 is
    -lam outside the kernel.  Its squared s-norm is c . (norm_h * c) with
    norm_h = (1+lam)^s gain^2: partner keeps the mode, and gain and the
    weight depend on the mode alone.  weight_v and scale_v are
    (1+lam)^{1-s} and (1+lam)^{s-1}: the weights of the (1-s)-norm and of
    the vertical gradient.  blocks holds the starts of the kernel block
    and of each mode's 2n cos/sin block, for the quadratic-zone
    certificate (quadratic_zone_energy).
    """

    frame: SpectralFrame
    partner: np.ndarray
    gain: np.ndarray
    rate: np.ndarray
    norm_h: np.ndarray
    weight_v: np.ndarray
    scale_v: np.ndarray
    blocks: np.ndarray


def gradient_plan(frame, s):
    """The GradientPlan of the frame at regularity s."""
    partner, frequency = frame._derivative_map
    w = frame.weights(-s)
    gain = -w * frequency
    return GradientPlan(frame, partner, gain, -w * frame.eigenvalues,
                        frame.weights(s) * gain ** 2, frame.weights(1.0 - s),
                        frame.weights(s - 1.0),
                        np.maximum(np.arange(-frame.n, frame.dim, 2 * frame.n), 0))


def horizontal_gradient(plan, c):
    """The horizontal gradient at fiber coefficients c, the s-metric
    representative -(1+lam)^{-s} (dp/dt coefficients) of xi -> <xi_dot,
    p>: one gather of c's cos/sin partners times the plan's gain."""
    return c[plan.partner] * plan.gain


def quadratic_zone_energy(plan, c, rho1):
    """|c|^2 when the coefficients alone put every radius of the fiber c
    in the quadratic zone 2 rho1 <= rho <= QUADRATIC_TOP, else None.

    The fiber is p(t) = c0 + sqrt(2) sum_j (u_j cos 2 pi j t + v_j sin
    2 pi j t) with c0, u_j, v_j in R^n, and |u cos + v sin| <= |(u, v)|,
    so every radius, at any t, lies within sqrt(2) sum_j |(u_j, v_j)| of
    |c0|.  The block energies |c0|^2 and |(u_j, v_j)|^2 are one reduceat
    of c^2 over plan.blocks, and they sum to |c|^2.  The lower end must
    clear 2 rho1 by a relative 1e-12, so that sampled radii, which carry
    roundoff, clear it too; the upper end keeps overflowing fibers, whose
    closed form would read -inf, on the jet path, where they turn NaN.  A
    NaN coefficient fails both tests.
    """
    energy = np.add.reduceat(c * c, plan.blocks)
    kernel = math.sqrt(energy[0])
    spread = SQ2 * float(np.add.reduce(np.sqrt(energy[1:])))
    if kernel - spread >= 2.0 * rho1 * (1.0 + 1e-12) and kernel + spread <= QUADRATIC_TOP:
        return float(np.add.reduce(energy))
    return None


def metric_gradient(plan, qd, c, spec):
    """(action, grad_v, grad_norm) at velocity coefficients qd and fiber
    coefficients c.

    Where quadratic_zone_energy certifies every radius of c in the
    quadratic zone, the action and plain gradient are
    quadratic_zone_terms of the certificate's |c|^2, with no transform;
    every other call is one fiber_evaluation.  grad_v is (1+lam)^{s-1}
    times the plain gradient, the (1-s)-metric representative of the
    coefficients of qdot - dH/dp.  The horizontal gradient is not formed:
    its squared s-norm is c . (norm_h * c), and the mixed-metric norm adds
    the weighted dot product of grad_v.  This is the one gradient formula:
    action, gradient, gradient_norm, the flow's velocity and the polish's
    residual all read it.
    """
    energy = quadratic_zone_energy(plan, c, spec.rho1)
    if energy is None:
        a, dv, _ = fiber_evaluation(plan.frame, qd, c, spec)
    else:
        a, dv = quadratic_zone_terms(qd, c, energy, spec)
    grad_v = plan.scale_v * dv
    return a, grad_v, math.sqrt(c @ (plan.norm_h * c) + grad_v @ (plan.weight_v * grad_v))


def _state_gradient(x, spec):
    """(plan, metric_gradient at the state x), on a plan made for this call."""
    frame = x.frame
    plan = gradient_plan(frame, spec.s)
    return plan, metric_gradient(plan, velocity_coefficients(x.loop, frame),
                                 x.fiber.coefficients, spec)


def action(x, spec):
    """The discrete action A(q,p) at the frame's native quadrature."""
    return _state_gradient(x, spec)[1][0]


def gradient(x, spec):
    """The metric gradient of the discrete action, as a (horizontal,
    vertical) pair of frame coefficient arrays: horizontal_gradient of the
    fiber and metric_gradient's grad_v."""
    plan, (_, grad_v, _) = _state_gradient(x, spec)
    return horizontal_gradient(plan, x.fiber.coefficients), grad_v


def gradient_norm(x, spec):
    """Norm of the gradient in the mixed (s, 1-s) metric (metric_gradient)."""
    return _state_gradient(x, spec)[1][2]


def metric_pairing(x, spec, pair_a, pair_b):
    """The mixed metric on tangent pairs (arrays): <.h,.h>_s + <.v,.v>_{1-s}."""
    ah, av = pair_a
    bh, bv = pair_b
    hs = np.sum(x.frame.weights(spec.s) * ah * bh)
    vs = np.sum(x.frame.weights(1.0 - spec.s) * av * bv)
    return float(hs + vs)


def perturb(x, eps, xi=None, eta=None):
    """The phase point (q + eps xi, p + eps eta), exact in coefficients.

    xi and eta are (D,) coefficient arrays in x's frame; any other shape
    raises ValueError.  The loop moves by move_series, which keeps the
    anchoring convention and pads it to the frame's J modes; the winding
    class never changes.
    """
    loop = x.loop
    frame = x.frame
    if any(v is not None and np.shape(v) != (frame.dim,) for v in (xi, eta)):
        raise ValueError(f"tangents need shape ({frame.dim},), got {np.shape(xi)}, {np.shape(eta)}")
    if xi is not None:
        loop = loop.with_series(move_series(frame, loop.series(frame.cutoff), eps, xi))
    coeffs = x.fiber.coefficients if eta is None else x.fiber.coefficients + eps * eta
    coeffs.flags.writeable = False
    return PhasePoint(loop=loop, fiber=FiberField(frame, coeffs))


def hamilton_residual(x, spec):
    """L^2 defect of the Hamilton equations at x.

    On the flat models the equations are qdot = dH/dp and nabla p = 0;
    the residual is the sum of the two L^2 norms.
    """
    frame = x.frame
    qd = velocity_coefficients(x.loop, frame)
    _, _, dpH = fiber_evaluation(frame, qd, x.fiber.coefficients, spec)
    diff = frame.samples(qd) - dpH
    res_q = float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1))))
    pdot = derivative_coefficients(frame, x.fiber.coefficients)
    return res_q + float(np.linalg.norm(pdot))


@dataclass(frozen=True)
class CriticalClass:
    kind: str          # constant | closed-geodesic | fake-geodesic | on-hypersurface | unclassified
    sigma: float = None

    def __str__(self):
        if self.kind == "on-hypersurface":
            return f"on-hypersurface(sigma={self.sigma:.6f})"
        return self.kind


def classify_critical(x, spec):
    """Classify a critical point by the H_r branch containing its image.

    Assumes the gradient norm at x is already below tol.  Boundaries
    carry the standard tie-band; orbits straddling branches beyond the
    tolerance come back unclassified.
    """
    tol = 1e-6
    frame = x.frame
    m = fourier.default_samples(frame.cutoff)
    rho = np.linalg.norm(frame.samples(x.fiber.coefficients, m), axis=1)
    # the RMS speed, by Parseval
    if math.sqrt(2.0 * loop_energy(x.loop)) <= tol:
        return CriticalClass("constant")
    lo, hi = float(rho.min()), float(rho.max())
    sig_lo = spec.rho_star * np.exp(-spec.delta)
    sig_hi = spec.rho_star * np.exp(spec.delta)
    if lo >= 2.0 * spec.rho1 - TIE_BAND:
        gap = abs(action(x, spec) - (loop_energy(x.loop) - spec.r))
        return CriticalClass("closed-geodesic") if gap <= tol else CriticalClass("unclassified")
    if lo > spec.rho1 + TIE_BAND and hi < 2.0 * spec.rho1 + TIE_BAND:
        return CriticalClass("fake-geodesic")
    if sig_lo - TIE_BAND < lo and hi < sig_hi + TIE_BAND and hi - lo <= tol:
        sigma = float(np.log(np.mean(rho) / spec.rho_star))
        return CriticalClass("on-hypersurface", sigma=sigma)
    return CriticalClass("unclassified")


def random_phase_point(spec, rng):
    """A generic phase point on the flat 2-torus: a random loop of
    winding (1, 0) and amplitude 0.05, and a kinetic-biased random fiber.

    The fiber gets the loop's drift plus decaying random mode content of
    amplitude 0.3, so samples land near the interesting radii without
    fine-tuning.
    """
    loop = random_loop(flat_torus(2), (1, 0), spec.J, rng)
    frame = frame_of(loop, spec.J)
    c = 0.3 * rng.standard_normal(frame.dim) / frame.weights(0.75)
    c[:2] += loop.drift
    return PhasePoint(loop=loop, fiber=FiberField(frame, c))


def random_direction(x, spec, rng):
    """A tangent direction (xi, eta) of arrays, of unit mixed-metric norm at x."""
    frame = x.frame
    xi = rng.standard_normal(frame.dim) / frame.weights(0.75)
    eta = rng.standard_normal(frame.dim) / frame.weights(0.75)
    scale = np.sqrt(metric_pairing(x, spec, (xi, eta), (xi, eta)))
    return (1.0 / scale) * xi, (1.0 / scale) * eta


def directional_derivative_check(x, spec, xi, eta, step=1e-5):
    """(central FD slope, exact pairing) of the action along (xi, eta)."""
    a_plus = action(perturb(x, step, xi=xi, eta=eta), spec)
    a_minus = action(perturb(x, -step, xi=xi, eta=eta), spec)
    fd = (a_plus - a_minus) / (2.0 * step)
    grad_h, grad_v = gradient(x, spec)
    return fd, metric_pairing(x, spec, (grad_h, grad_v), (xi, eta))
