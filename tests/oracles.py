"""Independent oracles for the derived constants used across the tests.

Everything here is written from the closed-form definitions with plain
numpy/scipy primitives and deliberately imports nothing from loopflow,
so the frozen literals in the test modules can be regenerated and
audited against an implementation that shares no code with the package.
Run as a script to print the frozen table.
"""

import math

import numpy as np
from scipy.optimize import brentq, minimize_scalar

RHO0 = 0.2
RHO1 = 0.4
RHO_STAR = 0.3
DELTA = 0.2
HALFWIDTH = math.log(RHO1 / RHO_STAR)  # = ln(rho*/rho0) here as well


def quintic(u):
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)


def quintic_d1(u):
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    uc = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * uc ** 2 * (1.0 - uc) ** 2, 0.0)


def phi_oracle(rho):
    return 0.5 * np.asarray(rho, dtype=float) ** 2 * quintic((np.asarray(rho) - RHO1) / RHO1)


def phi_d1_oracle(rho):
    rho = np.asarray(rho, dtype=float)
    u = (rho - RHO1) / RHO1
    return rho * quintic(u) + 0.5 * rho ** 2 * quintic_d1(u) / RHO1


def chi_oracle(sigma):
    return quintic((np.asarray(sigma, dtype=float) + DELTA) / (2.0 * DELTA))


def chi_d1_oracle(sigma):
    return quintic_d1((np.asarray(sigma, dtype=float) + DELTA) / (2.0 * DELTA)) / (2.0 * DELTA)


def radial_H_oracle(r, rho):
    """The radial Hamiltonian profile, assembled branch by branch."""
    rho = np.asarray(rho, dtype=float)
    lo = RHO_STAR * math.exp(-DELTA)
    hi = RHO_STAR * math.exp(DELTA)
    out = np.zeros_like(rho)
    band = (rho >= lo) & (rho <= hi)
    out[band] = r * chi_oracle(np.log(rho[band] / RHO_STAR))
    out[rho > hi] = r
    top = rho > RHO1
    out[top] = r + phi_oracle(rho[top])
    return out


def fake_radii():
    """Both roots of phi'(rho) = 1 in (rho1, 2 rho1): the fake closed
    geodesic radius (up-crossing) and the basin boundary (down-crossing)."""
    f = lambda rho: phi_d1_oracle(rho) - 1.0
    up = brentq(f, RHO1 + 1e-12, 0.65, xtol=1e-14)
    down = brentq(f, 0.65, 2.0 * RHO1 - 1e-12, xtol=1e-14)
    return float(up), float(down)


def fake_value(r):
    """Action of the dominant unit-speed fake closed geodesic."""
    rho, _ = fake_radii()
    return float(rho - phi_oracle(rho) - r)


def threshold_r0():
    """r0 = 1 + max over [0, 2 rho1] of phi' rho - phi."""
    g = lambda rho: -(phi_d1_oracle(rho) * rho - phi_oracle(rho))
    res = minimize_scalar(g, bounds=(RHO1, 2.0 * RHO1), method="bounded",
                          options={"xatol": 1e-13})
    interior = -float(res.fun)
    boundary = float(phi_d1_oracle(2.0 * RHO1) * 2.0 * RHO1 - phi_oracle(2.0 * RHO1))
    return 1.0 + max(interior, boundary)


def beta_envelope():
    """beta = sup of rho^2/2 - phi over the support of the difference."""
    g = lambda rho: -(0.5 * rho ** 2 - phi_oracle(rho))
    res = minimize_scalar(g, bounds=(0.0, 2.0 * RHO1), method="bounded",
                          options={"xatol": 1e-13})
    return -float(res.fun)


def alpha_oracle(speed=1.0):
    return 0.5 * speed ** 2 + beta_envelope()


def sigma_landing(r):
    """The thickening coordinate of the shelf maximizer: the up-crossing
    of r chi'(sigma) = rho* e^sigma in (-delta, 0)."""
    f = lambda s: r * chi_d1_oracle(s) - RHO_STAR * math.exp(s)
    return float(brentq(f, -DELTA + 1e-12, 0.0, xtol=1e-14))


def shelf_value(r):
    """V_Sigma(r): the unit-speed action at the shelf maximizer."""
    s = sigma_landing(r)
    return float(RHO_STAR * math.exp(s) - r * chi_oracle(s))


def crossover_r():
    """The r where the fake value hands over to the shelf value."""
    f = lambda r: fake_value(r) - shelf_value(r)
    return float(brentq(f, 0.1, 0.4, xtol=1e-14))


def shelf_lands(r):
    """Whether the shelf has a maximizer: r chi'(0) > rho*, so that the
    bracket (-delta, 0) of sigma_landing holds the up-crossing.  It fails
    for r <= rho* / chi'(0) = 0.064, where shelf_value raises."""
    return r * float(chi_d1_oracle(0.0)) > RHO_STAR


def theta_oracle(r):
    """theta(r) of the unit-speed straight family: the largest of the
    fake value, the shelf value where the shelf lands, and 0."""
    return max(fake_value(r), shelf_value(r) if shelf_lands(r) else 0.0, 0.0)


def legendre_branches(r, speed):
    """(value, classification kind) of every fiber maximizer over a
    straight loop of constant speed, plus the zero level.

    On such a loop a fiber of constant direction qdot/|qdot| and radius
    rho has action rho v - H_r(rho), so the maximizers are the roots of
    H_r'(rho) = v where H_r' rises through v, one per branch of H_r: the
    shelf band, the fake annulus (rho1, 2 rho1) and the kinetic tail
    rho = v >= 2 rho1, where H_r = r + rho^2/2.  Each up-crossing lies
    between the branch's left end and the peak of H_r' on the branch.
    """
    def upcrossing(slope, lo, hi):
        peak = minimize_scalar(lambda u: -slope(u), bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-13}).x
        if slope(peak) <= speed:
            return None
        return float(brentq(lambda u: slope(u) - speed, lo + 1e-12, peak, xtol=1e-14))

    levels = [(0.0, "constant")]
    # the band in sigma = ln(rho / rho*): H_r' = r chi'(sigma) / rho
    sigma = upcrossing(lambda u: r * float(chi_d1_oracle(u)) / (RHO_STAR * math.exp(u)),
                       -DELTA, DELTA)
    if sigma is not None:
        levels.append((RHO_STAR * math.exp(sigma) * speed - r * float(chi_oracle(sigma)),
                       "on-hypersurface"))
    rho = upcrossing(lambda u: float(phi_d1_oracle(u)), RHO1, 2.0 * RHO1)
    if rho is not None:
        levels.append((rho * speed - r - float(phi_oracle(rho)), "fake-geodesic"))
    if speed >= 2.0 * RHO1:
        levels.append((0.5 * speed ** 2 - r, "closed-geodesic"))
    return levels


def theta_oracle_at(r, speed):
    """theta(r) of the straight loop of the given speed: the largest
    Legendre branch value, and 0 if every branch is negative."""
    return max(value for value, _ in legendre_branches(r, speed))


def fd_laplace_eigenvalues(m):
    """Eigenvalues of 1 - d^2/dt^2 by dense central differences on the
    m-point periodic grid; second-order accurate, fully independent of
    any trig identity."""
    h = 1.0 / m
    mat = np.zeros((m, m))
    idx = np.arange(m)
    mat[idx, idx] = 1.0 + 2.0 / h ** 2
    mat[idx, (idx + 1) % m] = -1.0 / h ** 2
    mat[idx, (idx - 1) % m] = -1.0 / h ** 2
    return np.sort(np.linalg.eigvalsh(mat))


if __name__ == "__main__":
    up, down = fake_radii()
    print("rho_f1 (fake radius)     %.12f" % up)
    print("rho_f2 (basin boundary)  %.12f" % down)
    print("fake_value(r) + r        %.12f" % (fake_value(0.0)))
    print("r0                       %.12f" % threshold_r0())
    print("beta                     %.12f" % beta_envelope())
    print("alpha(speed 1)           %.12f" % alpha_oracle())
    print("sigma_landing(1.0)       %.12f" % sigma_landing(1.0))
    print("V_Sigma(1.0)             %.12f" % shelf_value(1.0))
    print("V_Sigma(0.5)             %.12f" % shelf_value(0.5))
    print("crossover R*             %.12f" % crossover_r())
