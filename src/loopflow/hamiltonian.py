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
depends only on the profiles and that the minimax level reads (the
exclusion threshold r0, the perturbation envelope beta).
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

# largest mode cutoff J: embedded_metric's dense (D, D) ambient form grows
# as J^2 and reaches about 33.6 MB here at n = 2
MAX_MODES = 512


def smoothstep(u, order=3):
    """Quintic smoothstep and its derivatives up to order (at most 3), clamped.

    s = 6u^5 - 15u^4 + 10u^3 on [0,1], constant outside; s', s'' vanish
    at both ends (C^2 joins), s''' does not.  Returns order + 1 arrays.
    Only s''' is masked to the open band 0 < u < 1: at the clamps uc = 0
    and uc = 1 the polynomials of s' and s'' are exactly +0.0 for every
    finite u, so they need no mask (a NaN u gives NaN in both).
    """
    u = np.asarray(u, dtype=float)
    uc = np.minimum(np.maximum(u, 0.0), 1.0)
    jet = [uc ** 3 * (10.0 + uc * (-15.0 + 6.0 * uc))]
    if order >= 1:
        jet.append(30.0 * uc ** 2 * (uc - 1.0) ** 2)
    if order >= 2:
        jet.append(60.0 * uc * (2.0 * uc - 1.0) * (uc - 1.0))
    if order >= 3:
        jet.append(np.where((u > 0.0) & (u < 1.0), 60.0 * (6.0 * uc ** 2 - 6.0 * uc + 1.0), 0.0))
    return tuple(jet)


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
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"spec {f.name} must be finite, got {getattr(self, f.name)!r}")
        # no bool and no float (the frame code repeats lists J times); JSON needs an int
        if isinstance(self.J, bool) or not isinstance(self.J, (int, np.integer)):
            raise ValueError(f"mode cutoff J must be an integer, got {self.J!r}")
        object.__setattr__(self, "J", int(self.J))
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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json(data):
        # J is passed as read, so that a non-integral J is refused, not truncated
        return HamiltonianSpec(**{f.name: data[f.name] if f.type is int else f.type(data[f.name])
                                  for f in fields(HamiltonianSpec)})


def default_spec(**overrides):
    base = dict(rho0=0.2, rho1=0.4, rho_star=0.3, delta=0.2, r=1.0, J=32, s=0.75)
    base.update(overrides)
    return HamiltonianSpec(**base)


def chi(spec, sigma, order=0):
    """The sigma-cutoff: 0 below -delta, 1 above delta; order = 0..3."""
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0..3")
    vals = smoothstep((np.asarray(sigma, dtype=float) + spec.delta) / (2.0 * spec.delta))
    return vals[order] / (2.0 * spec.delta) ** order


def phi(spec, rho, order=0):
    """The radial profile phi and derivatives, any real rho; order = 0..3:
    the tail jet of H_r at r = 0.0 (tail_jet), whose addition moves no bit."""
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0..3")
    return tail_jet(spec, np.asarray(rho, dtype=float), max(order, 1), 0.0)[order]


TIE_BAND = 1e-9  # branch boundaries get this much slack when classifying


def _band_jet(spec, rho, order, r):
    # the chi band lo <= rho <= hi (lo > 0, so rho > 0 here)
    width = 2.0 * spec.delta
    s, s1, *s2 = smoothstep((np.log(rho / spec.rho_star) + spec.delta) / width, order)
    c1 = s1 / width
    jet = [r * s, r * c1 / rho]
    if order == 2:
        jet.append(r * (s2[0] / width ** 2 - c1) / rho ** 2)
    return jet


def tail_jet(spec, rho, order, r):
    """r + phi and its rho-derivatives up to order (1..3) on the whole
    array rho, with no branch dispatch: H_r's jet where every radius lies
    on the phi tail rho > rho1, and phi's at r = 0 for any real rho."""
    r1 = spec.rho1
    s, s1, *high = smoothstep((rho - r1) / r1, order)
    s1 = s1 / r1
    half_sq = 0.5 * rho ** 2
    jet = [r + half_sq * s, rho * s + half_sq * s1]
    if order >= 2:
        s2 = high[0] / r1 ** 2
        jet.append(s + 2.0 * rho * s1 + half_sq * s2)
    if order == 3:
        jet.append(3.0 * s1 + 3.0 * rho * s2 + half_sq * (high[1] / r1 ** 3))
    return jet


def radial_H_jet(spec, rho, order=2):
    """H_r and its rho-derivatives up to order (1 or 2) at the radii rho,
    one pass.

    One smoothstep per populated branch (the chi band and the phi
    tail) serves all orders; the band's arithmetic is that of chi, and
    the tail's jet is the one phi reads at r = 0, so every entry equals
    the per-order value bit for bit.  When every radius lies on the phi
    tail, the tail is computed on the whole array; otherwise each
    populated branch is gathered and scattered.
    Returns order + 1 C-contiguous arrays shaped like rho (at least
    1-d); the action and its gradient need order 1, the fiber Hessian
    order 2.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    r = spec.r
    top = rho > spec.rho1
    ntop = np.count_nonzero(top)
    if ntop == rho.size:
        return tuple(tail_jet(spec, rho, order, r))
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    jet = np.zeros((order + 1,) + rho.shape)
    mid = (rho >= lo) & (rho <= hi)
    if np.count_nonzero(mid):
        for row, value in zip(jet, _band_jet(spec, rho[mid], order, r)):
            row[mid] = value
    np.copyto(jet[0], r, where=rho > hi)
    if ntop:
        for row, value in zip(jet, tail_jet(spec, rho[top], order, r)):
            row[top] = value
    return tuple(jet)


def radial_H(spec, rho, order=0):
    """H_r as a function of the fiber radius; order 0, 1, or 2 (d/drho).

    Vectorized; the branches agree on their overlaps.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    out = radial_H_jet(spec, rho)[order]
    return float(out[0]) if np.ndim(rho) == 0 else out


def _grid_max(f, df, d2f, hi, grid):
    """max f over [0, hi]: the best of grid uniform nodes, hi among them.

    When the best node is interior and f'' < 0 there, one Newton step on
    f' gives a candidate that replaces it if f is larger there.
    """
    rho = np.linspace(0.0, hi, grid)
    vals = f(rho)
    k = int(np.argmax(vals))
    best = float(vals[k])
    if 0 < k < grid - 1:
        node = float(rho[k])
        curvature = float(d2f(node))
        if curvature < 0.0:
            cand = node - float(df(node)) / curvature
            if 0.0 < cand < hi:
                best = max(best, float(f(cand)))
    return best


def r0_threshold(spec, grid=10000):
    """The fake-geodesic exclusion threshold r0 = 1 + max g, g = phi' rho - phi.

    The search runs over [0, 2 rho1] with g' = phi'' rho and
    g'' = phi''' rho + phi''.  g >= 0 there, so the absolute value is moot.
    """
    return 1.0 + _grid_max(lambda rho: phi(spec, rho, order=1) * rho - phi(spec, rho),
                           lambda rho: phi(spec, rho, order=2) * rho,
                           lambda rho: phi(spec, rho, order=3) * rho + phi(spec, rho, order=2),
                           2.0 * spec.rho1, grid)


def envelope_beta(spec, grid=10000):
    """beta = sup_rho (rho^2/2 - phi_ext), the r-free perturbation envelope.

    phi_ext is the phi-part of H_r (zero through rho1); beyond 2 rho1
    the sup argument is identically zero, so the search stops there.
    """
    return _grid_max(lambda rho: 0.5 * rho ** 2 - phi(spec, rho),
                     lambda rho: rho - phi(spec, rho, order=1),
                     lambda rho: 1.0 - phi(spec, rho, order=2),
                     2.0 * spec.rho1, grid)


def alpha_bound(spec, speed):
    """alpha = sup_rho (c rho - rho^2/2 + beta) = c^2/2 + beta."""
    return 0.5 * float(speed) ** 2 + envelope_beta(spec)
