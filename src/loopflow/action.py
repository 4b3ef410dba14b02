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
(1-s)-metric.  Because the quadrature pairing and the frame analysis
use identical weights, finite differences of the discrete action
reproduce this gradient to roundoff, not merely to truncation order.

The action and both gradient parts come from one evaluation
(fiber_evaluation, wrapped by evaluate): the velocity coefficients are
read off the loop's velocity series, with no sampling; the fiber is
sampled once (SpectralFrame.samples, one irfft of the coefficients
written straight into their spectrum slots); one radial_H_jet pass
gives H and dH/drho; the dH/dp samples are analyzed once
(SpectralFrame.coefficients, one rfft read straight off its slots);
and the t-derivative of the fiber is one gather and one multiply
(derivative_coefficients).  Each step keeps the arithmetic of the
trig-series route through fourier.synthesize and fourier.analyze, so
the results equal it bit for bit with far fewer numpy calls.  action,
gradient and hamilton_residual are thin callers of it.  The same
evaluation takes a batch of fibers over one loop, as the fiber ascent
does, with every row equal bit for bit to that fiber evaluated alone.
"""

from dataclasses import dataclass

import numpy as np

from . import fourier
from .geometry import LoopPath, flat_torus, random_loop, straight_loop
from .spectral import FiberField, frame_of
from .hamiltonian import TIE_BAND, radial_H_jet


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point (q, p) of the bundle, with its regularity parameter."""

    loop: LoopPath
    fiber: FiberField
    s: float

    def __post_init__(self):
        if not 0.5 < self.s < 1.0:
            raise ValueError("regularity s must lie strictly in (1/2, 1)")
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


def straight_orbit(manifold, winding, spec, momentum=None, base=None):
    """The straight phase orbit: linear loop, constant fiber field.

    momentum defaults to the loop's own velocity (the kinetic case
    p = qdot); a constant field has only kernel-mode coefficients.
    """
    loop = straight_loop(manifold, tuple(winding), base=base, modes=spec.J)
    frame = frame_of(loop, spec.J)
    v = loop.drift if momentum is None else np.asarray(momentum, dtype=float)
    c = np.zeros(frame.dim)
    c[: manifold.dim] = v
    return PhasePoint(loop=loop, fiber=FiberField(frame, c), s=spec.s)


def loop_energy(loop):
    """E(q) = 1/2 integral |qdot|^2, exactly from the velocity series."""
    a0, a, b = loop.velocity_series()
    return float(0.5 * (np.sum(a0 ** 2) + 0.5 * np.sum(a ** 2) + 0.5 * np.sum(b ** 2)))


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
    """Frame coefficients of the loop velocity, read off its series.

    Exact: the velocity of a loop with at most J modes lies in the
    frame's span, so no synthesis or analysis is needed.
    """
    return frame.layout(*loop.velocity_series())


def fiber_evaluation(frame, qd, c, spec, r=None):
    """The action at fiber coefficients c and its plain fiber gradient.

    qd holds the frame coefficients of the loop velocity.  One
    frame.samples of the fiber (one irfft), one radial_H_jet pass and
    one frame.coefficients of dH/dp (one rfft), each through the
    spectrum slots the frame keeps per grid size; returns (action,
    qd - coefficients of dH/dp, dH/dp samples), all C-contiguous.
    c may be one state (D,) or a batch (S, D) over the same loop; a batch
    gives (S,) actions, (S, D) gradients and (S, m, n) samples, each row
    bit-identical to the call on that row alone.  r, an (S, 1) column of
    energies, evaluates each row of a batch at its own r (radial_H_jet);
    each row then equals the call at spec.with_r of its r bit for bit.
    """
    p_samp = frame.samples(c)
    rho = np.sqrt((p_samp * p_samp).sum(axis=-1))
    h0, h1 = radial_H_jet(spec, rho, order=1, r=r)
    scale = np.divide(h1, rho, out=np.zeros_like(rho), where=rho > 0.0)
    dpH = scale[..., None] * p_samp
    # vecdot runs the BLAS dot of qd @ c on each row, so a batch row
    # equals the single call bit for bit
    a = np.vecdot(c, qd) - h0.sum(axis=-1) / rho.shape[-1]
    return (float(a) if a.ndim == 0 else a), qd - frame.coefficients(dpH), dpH


def evaluate(x, spec, qd=None, c=None):
    """The discrete action at x and its metric gradient, in one evaluation.

    Returns (action, horizontal, vertical) with the gradient parts as
    frame coefficient arrays: horizontal = -(1+lam)^{-s} (dp/dt)
    coefficients (the s-metric representative of xi -> <xi_dot, p>),
    vertical = (1+lam)^{s-1} times the coefficients of qdot - dH/dp
    (the (1-s)-metric representative).  qd and c, when given, replace x's
    velocity and fiber coefficients: a state evaluated without its loop.
    """
    frame = x.frame
    qd = velocity_coefficients(x.loop, frame) if qd is None else qd
    c = x.fiber.coefficients if c is None else c
    a, dv, _ = fiber_evaluation(frame, qd, c, spec)
    grad_h = -frame.weights(-x.s) * derivative_coefficients(frame, c)
    return a, grad_h, frame.weights(x.s - 1.0) * dv


def action(x, spec):
    """The discrete action A(q,p) at the frame's native quadrature."""
    return evaluate(x, spec)[0]


def gradient(x, spec):
    """The metric gradient of the discrete action, as (horizontal, vertical)
    FiberFields; see evaluate."""
    _, grad_h, grad_v = evaluate(x, spec)
    return FiberField(x.frame, grad_h), FiberField(x.frame, grad_v)


def gradient_norm(x, spec):
    """Norm of the gradient in the mixed (s, 1-s) metric."""
    _, grad_h, grad_v = evaluate(x, spec)
    frame = x.frame
    return float(np.sqrt(frame.norm(x.s, grad_h) ** 2 + frame.norm(1.0 - x.s, grad_v) ** 2))


def metric_pairing(x, pair_a, pair_b):
    """The mixed metric on tangent pairs: <.h,.h>_s + <.v,.v>_{1-s}."""
    ah, av = pair_a
    bh, bv = pair_b
    hs = np.sum(x.frame.weights(x.s) * ah.coefficients * bh.coefficients)
    vs = np.sum(x.frame.weights(1.0 - x.s) * av.coefficients * bv.coefficients)
    return float(hs + vs)


def perturb(x, eps, xi=None, eta=None):
    """The phase point (q + eps xi, p + eps eta), exact in coefficients.

    xi and eta are FiberFields in x's frame; the loop's stored base
    moves by eps xi(0) so the anchoring convention is preserved.  The
    winding class never changes.
    """
    loop = x.loop
    frame = x.frame
    J = frame.cutoff
    n = loop.manifold.dim
    if xi is not None:
        xa0, xa, xb = frame.series(xi.coefficients)
        pad = np.zeros((J - loop.modes, n))
        new_cos = np.vstack([loop.cos_coeffs, pad]) + eps * xa
        new_sin = np.vstack([loop.sin_coeffs, pad]) + eps * xb
        new_base = np.asarray(loop.base) + eps * (xa0 + xa.sum(axis=0))
        loop = LoopPath(manifold=loop.manifold, winding=loop.winding,
                        base=tuple(new_base), cos_coeffs=new_cos, sin_coeffs=new_sin)
    coeffs = x.fiber.coefficients if eta is None else x.fiber.coefficients + eps * eta.coefficients
    return PhasePoint(loop=loop, fiber=FiberField(frame, coeffs), s=x.s)


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


def classify_critical(x, spec, tol=1e-6):
    """Classify a critical point by the H_r branch containing its image.

    Assumes the gradient norm at x is already below tol.  Boundaries
    carry the standard tie-band; orbits straddling branches beyond the
    tolerance come back unclassified.
    """
    frame = x.frame
    m = fourier.default_samples(frame.cutoff)
    p_samp = frame.samples(x.fiber.coefficients, m)
    rho = np.linalg.norm(p_samp, axis=1)
    speed = float(np.sqrt(np.mean(np.sum(x.loop.velocity_samples(m) ** 2, axis=1))))
    if speed <= tol:
        return CriticalClass("constant")
    lo, hi = float(rho.min()), float(rho.max())
    sig_lo = spec.rho_star * np.exp(-spec.delta)
    sig_hi = spec.rho_star * np.exp(spec.delta)
    if lo >= 2.0 * spec.rho1 - TIE_BAND:
        gap = abs(action(x, spec) - (loop_energy(x.loop) - spec.r))
        return CriticalClass("closed-geodesic") if gap <= tol else CriticalClass("unclassified")
    if lo > spec.rho1 + TIE_BAND and hi < 2.0 * spec.rho1 + TIE_BAND:
        return CriticalClass("fake-geodesic")
    if sig_lo - TIE_BAND < lo and hi < sig_hi + TIE_BAND and hi - lo <= max(tol, 1e-7):
        sigma = float(np.log(np.mean(rho) / spec.rho_star))
        return CriticalClass("on-hypersurface", sigma=sigma)
    return CriticalClass("unclassified")


def pack_coefficients(x):
    """Flatten the free coordinates (loop cos/sin, fiber) into one vector."""
    J = x.frame.cutoff
    n = x.loop.manifold.dim
    pad = np.zeros((J - x.loop.modes, n))
    cos = np.vstack([x.loop.cos_coeffs, pad])
    sin = np.vstack([x.loop.sin_coeffs, pad])
    return np.concatenate([cos.reshape(-1), sin.reshape(-1), x.fiber.coefficients])


def unpack_coefficients(x, vec):
    """Rebuild a PhasePoint from pack_coefficients output (base, winding kept)."""
    J = x.frame.cutoff
    n = x.loop.manifold.dim
    k = J * n
    cos = vec[:k].reshape(J, n)
    sin = vec[k:2 * k].reshape(J, n)
    loop = LoopPath(manifold=x.loop.manifold, winding=x.loop.winding, base=x.loop.base,
                    cos_coeffs=cos, sin_coeffs=sin)
    return PhasePoint(loop=loop, fiber=FiberField(x.frame, vec[2 * k:].copy()), s=x.s)


def random_phase_point(spec, rng, manifold=None, winding=(1, 0),
                       loop_amplitude=0.05, fiber_amplitude=0.3):
    """A generic phase point: random loop, kinetic-biased random fiber.

    The fiber gets the loop's drift plus decaying random mode content,
    so samples land near the interesting radii without fine-tuning.
    """
    manifold = flat_torus(len(winding)) if manifold is None else manifold
    loop = random_loop(manifold, tuple(winding), spec.J, rng, amplitude=loop_amplitude)
    frame = frame_of(loop, spec.J)
    c = fiber_amplitude * rng.standard_normal(frame.dim) / frame.weights(0.75)
    c[:manifold.dim] += loop.drift
    return PhasePoint(loop=loop, fiber=FiberField(frame, c), s=spec.s)


def random_direction(x, rng):
    """A tangent direction (xi, eta) of unit mixed-metric norm at x."""
    frame = x.frame
    xi = FiberField(frame, rng.standard_normal(frame.dim) / frame.weights(0.75))
    eta = FiberField(frame, rng.standard_normal(frame.dim) / frame.weights(0.75))
    scale = np.sqrt(metric_pairing(x, (xi, eta), (xi, eta)))
    return (FiberField(frame, (1.0 / scale) * xi.coefficients),
            FiberField(frame, (1.0 / scale) * eta.coefficients))


def directional_derivative_check(x, spec, xi, eta, step=1e-5):
    """(central FD slope, exact pairing) of the action along (xi, eta)."""
    a_plus = action(perturb(x, step, xi=xi, eta=eta), spec)
    a_minus = action(perturb(x, -step, xi=xi, eta=eta), spec)
    fd = (a_plus - a_minus) / (2.0 * step)
    grad_h, grad_v = gradient(x, spec)
    return fd, metric_pairing(x, (grad_h, grad_v), (xi, eta))
