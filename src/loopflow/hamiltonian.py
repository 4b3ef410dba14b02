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
exclusion threshold r0, the perturbation envelope beta), each read at
its closed-form maximizer: with u = (rho - rho1)/rho1,
phi = rho1^2 (1 + u)^2 s(u) / 2, so both maximands are rho1^2 times
functions of u alone.
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


def finite_float(label, value):
    """value as a float, refused unless it is a finite real number: a bool
    would pass as 1.0 and be written back as JSON true."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{label} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")
    return float(value)


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
            if f.type is float:
                value = finite_float(f"spec {f.name}", getattr(self, f.name))
                object.__setattr__(self, f.name, value)
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
        return replace(self, r=r)

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json(data):
        # passed as read, so that a non-integral J or a true is refused, not converted
        return HamiltonianSpec(**{f.name: data[f.name] for f in fields(HamiltonianSpec)})


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


# phi'' at rho = rho1 (1 + u), u in [0, 1], is u Q(u) with the quartic
# Q(u) = 126u^4 - 45u^3 - 140u^2 + 30u + 30, whatever rho1: the annulus's
# H_r' peaks and dips at Q's two roots in (0, 1), rounded to doubles here
# (no eigensolver runs at import)
_ANNULUS_TURNS = (0.656911493155239, 0.9912927268932786)
# rho^2/2 - phi = rho1^2 (1 + u)^2 (1 - s(u)) / 2 at rho = rho1 (1 + u), and
# d/du [(1 + u)^2 (1 - s(u))] = (1 + u) P(u) with the quintic
# P(u) = 2 - 30u^2 + 10u^3 + 60u^4 - 42u^5, whose one root in (0, 1) is
# where it peaks, whatever rho1; rounded to a double here
_ENVELOPE_PEAK = 0.295621845806456
CONJUGATE_ITERS = 60     # safeguarded Newton iterations of one legendre_conjugate
CONJUGATE_TOL = 1e-13    # value error, times 1 + r, at which a root is taken


def _rising_pieces(spec):
    """(2, 3) starts and ends of the radius intervals on which H_r'
    rises: the chi band up to its peak, the annulus from rho1 up to its
    peak, and from the annulus's dip up to 2 rho1, past which H_r' = rho
    rises for good.  H_r' is flat or falls everywhere else.  In the band,
    H_r' = r chi'(sigma) / rho with u = (sigma + delta) / (2 delta) peaks
    where u^2 - u (1 + 2/delta) + 1/delta = 0, at the smaller root."""
    d, r1 = spec.delta, spec.rho1
    u = 0.5 * (1.0 + 2.0 / d - math.sqrt(1.0 + 4.0 / d ** 2))
    return np.array([[spec.rho_star * math.exp(-d), r1, r1 * (1.0 + _ANNULUS_TURNS[1])],
                     [spec.rho_star * math.exp(d * (2.0 * u - 1.0)),
                      r1 * (1.0 + _ANNULUS_TURNS[0]), 2.0 * r1]])


def legendre_conjugate(spec, speeds):
    """H_r*(v) = sup over rho >= 0 of rho v - H_r(rho) at each speed
    v >= 0 of the 1-d array speeds: the Legendre-Fenchel conjugate of
    the radial profile (Rockafellar, Convex Analysis, section 12).

    f = rho v - H_r has f' = v - H_r'.  Between the rising pieces of
    _rising_pieces H_r' is flat or falls, so f is linear or convex there,
    and the sup is f(0) = 0 or the largest of f's maxima over the pieces.
    On a piece f is largest where H_r' crosses v: at the piece's start
    when v is at most H_r' there, at its end when v is at least H_r'
    there, at rho = v on the tail when v >= 2 rho1, and otherwise at the
    root of H_r' = v, found by Newton's method safeguarded by bisection in
    the piece.  With g = H_r' - v and [lo, hi] the bracket kept, f at the
    root exceeds f at x by at most |g(x)| (hi - lo), since H_r' rises on
    the bracket; the iteration stops when that is at most CONJUGATE_TOL
    (1 + r) for every root.  A speed whose root has not settled after
    CONJUGATE_ITERS iterations, and a NaN speed, give NaN.
    """
    v = np.asarray(speeds, dtype=float)
    ends = _rising_pieces(spec)[:, :, None]
    slopes = radial_H_jet(spec, ends, order=1)[1]
    x = np.where(v >= slopes[1], ends[1], ends[0])
    x[2] = np.where(v >= 2.0 * spec.rho1, v, x[2])
    inside = (v > slopes[0]) & (v < slopes[1])
    lo, hi = (np.broadcast_to(end, x.shape)[inside] for end in ends)
    target = np.broadcast_to(v, x.shape)[inside]
    root = 0.5 * (lo + hi)
    tol = CONJUGATE_TOL * (1.0 + spec.r)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(CONJUGATE_ITERS):
            _, h1, h2 = radial_H_jet(spec, root)
            g = h1 - target
            lo, hi = np.where(g < 0.0, root, lo), np.where(g > 0.0, root, hi)
            settled = np.abs(g) * (hi - lo) <= tol
            if settled.all():
                break
            newton = root - g / h2
            step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
            root = np.where(settled, root, step)
        x[inside] = np.where(settled, root, math.nan)
        return np.maximum((x * v - radial_H_jet(spec, x, order=1)[0]).max(axis=0), 0.0)


def r0_threshold(spec):
    """The fake-geodesic exclusion threshold r0 = 1 + max g over [0, 2 rho1],
    g = phi' rho - phi (g >= 0, so the absolute value is moot).

    g is rho1^2 times a function of u alone, vanishes through rho1 and has
    g' = phi'' rho, so it peaks where H_r' does, at rho1 (1 +
    _ANNULUS_TURNS[0]): 4.530 rho1^2 there, against 2 rho1^2 at 2 rho1.
    """
    rho = spec.rho1 * (1.0 + _ANNULUS_TURNS[0])
    phi0, phi1 = tail_jet(spec, rho, 1, 0.0)
    return 1.0 + float(phi1 * rho - phi0)


def envelope_beta(spec):
    """beta = sup_rho (rho^2/2 - phi_ext), the r-free perturbation envelope.

    phi_ext, the phi-part of H_r, vanishes through rho1, and the sup
    argument vanishes from 2 rho1 on; between, it is rho1^2 times a
    function of u alone, which peaks at rho1 (1 + _ENVELOPE_PEAK).
    """
    rho = spec.rho1 * (1.0 + _ENVELOPE_PEAK)
    return float(0.5 * rho ** 2 - phi(spec, rho))


def alpha_bound(spec, speed):
    """alpha = sup_rho (c rho - rho^2/2 + beta) = c^2/2 + beta."""
    return 0.5 * float(speed) ** 2 + envelope_beta(spec)
