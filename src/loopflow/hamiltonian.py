"""The radial Hamiltonian family H_r on the model cotangent bundles.

H_r is assembled from two quintic-smoothstep profiles and depends on a
phase point only through the fiber radius rho = |p|_q:

    H_r(rho) = 0                     rho <= rho* e^{-delta}
             = chi(sigma) r          sigma = ln(rho/rho*) in [-delta, delta]
             = r                     rho* e^{delta} < rho <= rho1
             = phi(rho) + r          rho > rho1

chi steps 0 -> 1 across [-delta, delta]; phi vanishes up to rho1,
equals rho^2/2 from 2 rho1 on, and is strictly increasing between.  All
joins are C^2 because the quintic smoothstep has two flat derivatives
at its ends.  The hypersurface Sigma = {rho = rho*} sits inside the
annulus rho0 < rho < rho1 and is thickened radially by
Psi(sigma, (q,p)) = (q, e^sigma p) for |sigma| < a,
a = min(ln(rho1/rho*), ln(rho*/rho0)).

Everything here is a scalar closed form plus its derivatives; the
module also carries the closed-form critical-point bookkeeping that
depends only on the profiles (fake-geodesic action, the exclusion
threshold r0, the perturbation envelope beta).
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

# largest mode cutoff J: fiber_sup's dense (D, m, n) eigenfield basis
# reaches about 67 MB here and grows as J^2
MAX_MODES = 512


def smoothstep(u):
    """Quintic smoothstep and its first three derivatives, clamped.

    s = 6u^5 - 15u^4 + 10u^3 on [0,1], constant outside; s', s'' vanish
    at both ends (C^2 joins), s''' does not.
    """
    u = np.asarray(u, dtype=float)
    uc = np.minimum(np.maximum(u, 0.0), 1.0)
    inside = (u > 0.0) & (u < 1.0)
    s = uc ** 3 * (10.0 + uc * (-15.0 + 6.0 * uc))
    s1 = np.where(inside, 30.0 * uc ** 2 * (uc - 1.0) ** 2, 0.0)
    s2 = np.where(inside, 60.0 * uc * (2.0 * uc - 1.0) * (uc - 1.0), 0.0)
    s3 = np.where(inside, 60.0 * (6.0 * uc ** 2 - 6.0 * uc + 1.0), 0.0)
    return s, s1, s2, s3


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parameters of H_r plus the discretization they are used with.

    rho0 < rho* e^{-delta} and rho* e^{delta} < rho1 keep the thickened
    hypersurface inside the annulus; delta must stay below the
    thickening half-width a.  J is the working mode cutoff and s the
    base regularity, carried here because every consumer needs the
    triple (profiles, cutoff, regularity) together.
    """

    rho0: float
    rho1: float
    rho_star: float
    delta: float
    r: float
    J: int
    s: float

    def __post_init__(self):
        if not 0.0 < self.rho0 < self.rho1:
            raise ValueError("need 0 < rho0 < rho1")
        if not self.rho0 < self.rho_star < self.rho1:
            raise ValueError("rho_star must lie in the annulus")
        if self.r <= 0.0:
            raise ValueError("energy parameter r must be positive")
        if not 0.5 < self.s < 1.0:
            raise ValueError("regularity s must lie in (1/2, 1)")
        if not 1 <= self.J <= MAX_MODES:
            raise ValueError(f"mode cutoff J must lie in [1, {MAX_MODES}], got {self.J}")
        a = self.thickening_halfwidth
        if not 0.0 < self.delta < a:
            raise ValueError(f"delta must lie in (0, {a:.6g})")
        # redundant with delta < a but kept as the stated invariant
        if not (self.rho0 < self.rho_star * math.exp(-self.delta)
                and self.rho_star * math.exp(self.delta) < self.rho1):
            raise ValueError("thickened hypersurface leaves the annulus")

    @property
    def thickening_halfwidth(self):
        return min(math.log(self.rho1 / self.rho_star), math.log(self.rho_star / self.rho0))

    def with_r(self, r):
        return replace(self, r=float(r))

    def to_json(self):
        return {"rho0": self.rho0, "rho1": self.rho1, "rho_star": self.rho_star,
                "delta": self.delta, "r": self.r, "J": self.J, "s": self.s}

    @staticmethod
    def from_json(data):
        return HamiltonianSpec(rho0=float(data["rho0"]), rho1=float(data["rho1"]),
                               rho_star=float(data["rho_star"]), delta=float(data["delta"]),
                               r=float(data["r"]), J=int(data["J"]), s=float(data["s"]))


def default_spec(**overrides):
    base = dict(rho0=0.2, rho1=0.4, rho_star=0.3, delta=0.2, r=1.0, J=32, s=0.75)
    base.update(overrides)
    return HamiltonianSpec(**base)


def chi(spec, sigma, order=0):
    """The sigma-cutoff: 0 below -delta, 1 above delta; order = 0..3."""
    vals = smoothstep((np.asarray(sigma, dtype=float) + spec.delta) / (2.0 * spec.delta))
    return vals[order] / (2.0 * spec.delta) ** order


def phi(spec, rho, order=0):
    """The radial profile phi and derivatives, any real rho; order = 0..3."""
    rho = np.asarray(rho, dtype=float)
    r1 = spec.rho1
    s, s1, s2, s3 = smoothstep((rho - r1) / r1)
    s1, s2, s3 = s1 / r1, s2 / r1 ** 2, s3 / r1 ** 3
    if order == 0:
        return 0.5 * rho ** 2 * s
    if order == 1:
        return rho * s + 0.5 * rho ** 2 * s1
    if order == 2:
        return s + 2.0 * rho * s1 + 0.5 * rho ** 2 * s2
    if order == 3:
        return 3.0 * s1 + 3.0 * rho * s2 + 0.5 * rho ** 2 * s3
    raise ValueError("order must be 0..3")


TIE_BAND = 1e-9  # branch boundaries get this much slack before rejecting


def radial_H_jet(spec, rho):
    """H_r and its first two rho-derivatives at the radii rho, one pass.

    One smoothstep per populated branch (the chi band and the phi
    tail) serves all three orders; the arithmetic is that of chi and
    phi, so every entry equals the per-order value bit for bit.
    Returns three arrays shaped like rho (at least 1-d).
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    h0, h1, h2 = np.zeros((3,) + rho.shape)
    mid = (rho >= lo) & (rho <= hi)  # lo > 0, so rho > 0 here
    if mid.any():
        rm = rho[mid]
        width = 2.0 * spec.delta
        s, s1, s2, _ = smoothstep((np.log(rm / spec.rho_star) + spec.delta) / width)
        c1 = s1 / width
        h0[mid] = spec.r * s
        h1[mid] = spec.r * c1 / rm
        h2[mid] = spec.r * (s2 / width ** 2 - c1) / rm ** 2
    h0[rho > hi] = spec.r
    top = rho > spec.rho1
    if top.any():
        rt = rho[top]
        r1 = spec.rho1
        s, s1, s2, _ = smoothstep((rt - r1) / r1)
        s1, s2 = s1 / r1, s2 / r1 ** 2
        h0[top] = spec.r + 0.5 * rt ** 2 * s
        h1[top] = rt * s + 0.5 * rt ** 2 * s1
        h2[top] = s + 2.0 * rt * s1 + 0.5 * rt ** 2 * s2
    return h0, h1, h2


def radial_H(spec, rho, order=0):
    """H_r as a function of the fiber radius; order 0, 1, or 2 (d/drho).

    Vectorized; the branches agree on their overlaps so the tie-band
    only matters for the thickening-domain rejection in evaluate_H.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    out = radial_H_jet(spec, rho)[order]
    return float(out[0]) if np.ndim(rho) == 0 else out


def thickening_sigma(spec, rho):
    """The radial thickening coordinate sigma = ln(rho/rho*)."""
    return np.log(np.asarray(rho, dtype=float) / spec.rho_star)


def evaluate_H(spec, q, p):
    """H_r at a single phase point of the model bundle.

    q is accepted for signature compatibility; the family is radial, so
    only |p| enters on the flat models.  Points of the annulus whose
    thickening coordinate falls outside (-a, a) are not classifiable by
    the construction and are rejected.
    """
    p = np.asarray(p, dtype=float)
    rho = float(np.linalg.norm(p))
    if spec.rho0 < rho < spec.rho1:
        sigma = abs(math.log(rho / spec.rho_star))
        if sigma > spec.thickening_halfwidth + TIE_BAND:
            raise ValueError("thickening coordinate outside (-a, a) inside the annulus")
    return radial_H(spec, rho)


def hamiltonian_vector_field(spec, q, p):
    """X_H in coordinates: (dH/drho * p/rho, 0) on the flat models."""
    p = np.asarray(p, dtype=float)
    rho = float(np.linalg.norm(p))
    qdot = np.zeros_like(p)
    if rho > 0.0:
        qdot = radial_H(spec, rho, order=1) / rho * p
    return qdot, np.zeros_like(p)


@dataclass(frozen=True)
class Trajectory:
    """An integrated phase trajectory on [0, T], uniform steps."""

    times: np.ndarray
    positions: np.ndarray  # (N+1, n) coordinates, unwrapped
    momenta: np.ndarray    # (N+1, n)

    @property
    def period(self):
        return float(self.times[-1])


def integrate_hamiltonian(spec, q0, p0, T=1.0, steps=256):
    """Classical RK4 integration of X_H from (q0, p0) over [0, T].

    On the flat models p is conserved exactly by the field (pdot = 0),
    so the energy drift of the integrator is zero to roundoff; the
    integrator is still run in full generality.
    """
    q = np.asarray(q0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    qs = np.empty((steps + 1, q.size))
    ps = np.empty((steps + 1, p.size))
    qs[0], ps[0] = q, p
    for i in range(steps):
        k1q, k1p = hamiltonian_vector_field(spec, q, p)
        k2q, k2p = hamiltonian_vector_field(spec, q + 0.5 * h * k1q, p + 0.5 * h * k1p)
        k3q, k3p = hamiltonian_vector_field(spec, q + 0.5 * h * k2q, p + 0.5 * h * k2p)
        k4q, k4p = hamiltonian_vector_field(spec, q + h * k3q, p + h * k3p)
        q = q + h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        qs[i + 1], ps[i + 1] = q, p
    return Trajectory(times=times, positions=qs, momenta=ps)


def fake_geodesic_action(spec, p0):
    """Closed-form action of a fake closed geodesic with |p(0)| = p0."""
    scalar = np.ndim(p0) == 0
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if np.any(p0 <= spec.rho1):
        raise ValueError("no fake geodesics at or below rho1")
    out = phi(spec, p0, order=1) * p0 - phi(spec, p0) - spec.r
    return float(out[0]) if scalar else out


def _geodesic_defect(spec, rho):
    # g(rho) = phi'(rho) rho - phi(rho); r0 = 1 + max g over [0, 2 rho1]
    return phi(spec, rho, order=1) * rho - phi(spec, rho)


def r0_threshold(spec, grid=10000):
    """The fake-geodesic exclusion threshold r0 = 1 + max g, g = phi' rho - phi.

    Dense grid search over [0, 2 rho1] followed by one Newton step on
    g' = phi'' rho at the best interior node; the boundary value 2 rho1^2
    is kept if it wins.  g >= 0 there, so the absolute value is moot.
    """
    hi = 2.0 * spec.rho1
    rho = np.linspace(0.0, hi, grid)
    g = _geodesic_defect(spec, rho)
    k = int(np.argmax(g))
    best_rho, best = float(rho[k]), float(g[k])
    if 0 < k < grid - 1:
        g1 = float(phi(spec, best_rho, order=2) * best_rho)
        g2 = float(phi(spec, best_rho, order=3) * best_rho + phi(spec, best_rho, order=2))
        if g2 < 0.0:  # genuine interior max
            cand = best_rho - g1 / g2
            if 0.0 < cand < hi:
                val = float(_geodesic_defect(spec, cand))
                if val > best:
                    best_rho, best = cand, val
    boundary = float(_geodesic_defect(spec, hi))
    return 1.0 + max(best, boundary)


def envelope_beta(spec, grid=10000):
    """beta = sup_rho (rho^2/2 - phi_ext), the r-free perturbation envelope.

    phi_ext is the phi-part of H_r (zero through rho1); beyond 2 rho1
    the sup argument is identically zero, so the search stops there.
    """
    rho = np.linspace(0.0, 2.0 * spec.rho1, grid)
    vals = 0.5 * rho ** 2 - phi(spec, rho)
    k = int(np.argmax(vals))
    best_rho, best = float(rho[k]), float(vals[k])
    if 0 < k < grid - 1:
        # one Newton step on the derivative rho - phi'
        d1 = best_rho - float(phi(spec, best_rho, order=1))
        d2 = 1.0 - float(phi(spec, best_rho, order=2))
        if d2 < 0.0:
            cand = best_rho - d1 / d2
            if 0.0 < cand < 2.0 * spec.rho1:
                best = max(best, float(0.5 * cand ** 2 - phi(spec, cand)))
    return best


def alpha_bound(spec, speed):
    """alpha = sup_rho (c rho - rho^2/2 + beta) = c^2/2 + beta."""
    return 0.5 * float(speed) ** 2 + envelope_beta(spec)


def plateau_weight(spec, rho):
    """dH_r/dr: 0 in the bounded region, chi(sigma) across, 1 beyond."""
    rho = np.asarray(rho, dtype=float)
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    out = np.zeros_like(rho)
    mid = (rho >= lo) & (rho <= hi)
    if np.any(mid):
        out[mid] = chi(spec, np.log(rho[mid] / spec.rho_star))
    out[rho > hi] = 1.0
    return out


def perturbation_sup_diff(spec_a, spec_b, grid=4001):
    """sup_rho |H_{r_a} - H_{r_b}| for two specs sharing their profiles."""
    top = 3.0 * max(spec_a.rho1, spec_b.rho1)
    rho = np.linspace(0.0, top, grid)
    return float(np.max(np.abs(radial_H(spec_a, rho) - radial_H(spec_b, rho))))


def spec_to_json(spec):
    return json.dumps(spec.to_json(), sort_keys=True)
