"""Model manifolds and free loops on them.

Two model families are supported, both flat:

* the flat torus T^n = R^n / Z^n with the standard metric, embedded
  isometrically in R^{2n} coordinate-circle by coordinate-circle;
* the unit circle in R^2, treated as the 1-torus of circumference 2 pi
  in its arc-length coordinate.

Both are quotients prod_k R/(L_k Z) with Euclidean coordinate metric, so
the Levi-Civita connection along any loop reduces to the plain parameter
derivative of coordinate components, Christoffel symbols and curvature
vanish identically, and the exponential map is coordinate addition.  All
geometric operations below are exact on the spectral truncation except
where stated.

A loop is stored as a free-homotopy winding vector plus truncated
Fourier coefficients of the periodic part, anchored so that the stored
base point is exactly the position at parameter 0:

    q(t) = base + winding * L * t
           + sum_j a_j (cos(2 pi j t) - 1) + b_j sin(2 pi j t).

Fields along a loop are not held here: on these models the coordinate
components of a tangent field are a complete, metric-orthonormal
description, so a field is its coefficient array in the spectral frame
(spectral.FiberField for a state's fiber), and its covariant derivative
is the parameter derivative of those coefficients
(action.derivative_coefficients).
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import fourier


@dataclass(frozen=True)
class ModelManifold:
    """A flat model manifold: product of circles with coordinate periods.

    kind is "flat-torus" or "embedded-circle"; periods holds the
    coordinate period L_k of each factor (1 for the torus, 2 pi for the
    circle).  The isometric embedding sends coordinate k to a circle of
    radius L_k / (2 pi) in its own R^2 plane.
    """

    kind: str
    periods: tuple

    @property
    def dim(self):
        return len(self.periods)

    # Embedding circle curvatures 1/R_k = 2 pi / L_k; these control the
    # normal part of ambient derivatives of embedded fields.
    @property
    def embedding_curvatures(self):
        return 2.0 * np.pi / np.asarray(self.periods)

    def wrap(self, q):
        """Canonical coordinate representative in [0, L_k)."""
        return np.mod(np.asarray(q, dtype=float), np.asarray(self.periods))


def flat_torus(n):
    """The flat torus T^n = R^n / Z^n (unit periods)."""
    if n < 1:
        raise ValueError("torus dimension must be positive")
    return ModelManifold(kind="flat-torus", periods=(1.0,) * n)


def embedded_circle():
    """The unit circle in R^2, as the arc-length 1-torus of period 2 pi."""
    return ModelManifold(kind="embedded-circle", periods=(2.0 * np.pi,))


def read_only(a):
    """a itself when it is read-only and owns its data, as the fiber
    arrays that action.perturb hands a state are; otherwise a read-only
    copy, so that no array a caller can still write ends up in a state."""
    if a.flags.writeable or a.base is not None:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LoopPath:
    """A free loop: winding class plus anchored truncated Fourier data.

    cos_coeffs and sin_coeffs have shape (J, n), mode-major, and are
    stored read-only (read_only).  The anchoring convention makes
    coordinates(0) == base exactly, with no constraint on the
    coefficients.
    """

    manifold: ModelManifold
    winding: tuple
    base: tuple
    cos_coeffs: np.ndarray = field(default=None)
    sin_coeffs: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.manifold.dim
        if len(self.winding) != n or len(self.base) != n:
            raise ValueError("winding/base dimension mismatch with manifold")
        a = np.zeros((0, n)) if self.cos_coeffs is None else np.asarray(self.cos_coeffs, dtype=float)
        b = np.zeros((0, n)) if self.sin_coeffs is None else np.asarray(self.sin_coeffs, dtype=float)
        if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape or a.shape[1] != n:
            raise ValueError("coefficient arrays must both have shape (J, n)")
        a, b = read_only(a), read_only(b)
        for name, kind in (("winding", int), ("base", float)):
            values = getattr(self, name)   # converted once: a tuple of ints (floats) is kept
            if type(values) is not tuple or any(type(v) is not kind for v in values):
                if kind is int and not all(float(w).is_integer() for w in values):
                    # int() would truncate 1.5 to 1 (and fail on inf or NaN)
                    raise ValueError(f"loop winding must be integral, got {values!r}")
                object.__setattr__(self, name, tuple(map(kind, values)))
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    def __reduce__(self):
        # unpickle through the constructor, which makes the arrays read-only
        return LoopPath, (self.manifold, self.winding, self.base, self.cos_coeffs,
                          self.sin_coeffs)

    @property
    def modes(self):
        return self.cos_coeffs.shape[0]

    @property
    def drift(self):
        """Coordinate displacement over one period: winding * L."""
        return np.asarray(self.winding, dtype=float) * np.asarray(self.manifold.periods)

    def coordinates(self, t):
        """Unwrapped coordinates q(t), shape (len(t), n)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ang = 2.0 * np.pi * np.outer(t, np.arange(1, self.modes + 1))
        # anchored: cos - 1 and sin vanish at t = 0 exactly, so coordinates(0) == base
        per = (np.cos(ang) - 1.0) @ self.cos_coeffs + np.sin(ang) @ self.sin_coeffs
        return np.asarray(self.base)[None, :] + np.outer(t, self.drift) + per

    def velocity_samples(self, m):
        """Coordinate velocity dq/dt on the uniform m-grid (exact)."""
        _, da, db = fourier.differentiate(np.zeros(self.manifold.dim), self.cos_coeffs, self.sin_coeffs)
        return self.drift[None, :] + fourier.synthesize(np.zeros(self.manifold.dim), da, db, m=m)

    def velocity_series(self):
        """Trig coefficients (a0, a, b) of the velocity field."""
        _, da, db = fourier.differentiate(np.zeros(self.manifold.dim), self.cos_coeffs, self.sin_coeffs)
        return self.drift.copy(), da, db

    def series(self, J):
        """The loop's data as one (n(2J+1),) array in a spectral frame's
        slot order: base, then per mode the cos row a_j and the sin row
        b_j, unscaled, and +0.0 past the loop's modes."""
        pad = np.zeros(2 * self.manifold.dim * (J - self.modes))
        return np.concatenate([self.base, np.hstack([self.cos_coeffs, self.sin_coeffs]).ravel(), pad])

    def with_series(self, series):
        """The loop of this winding whose data is series (LoopPath.series)."""
        n = self.manifold.dim
        block = series[n:].reshape(-1, 2, n)
        return LoopPath(self.manifold, self.winding, tuple(series[:n].tolist()), block[:, 0],
                        block[:, 1])

    def content_key(self):
        """Stable byte digest of the loop data."""
        h = hashlib.sha256()
        h.update(self.manifold.kind.encode())
        h.update(np.asarray(self.manifold.periods, dtype=float).tobytes())
        h.update(np.asarray(self.winding, dtype=np.int64).tobytes())
        h.update(np.asarray(self.base, dtype=float).tobytes())
        h.update(self.cos_coeffs.tobytes())
        h.update(self.sin_coeffs.tobytes())
        return h.hexdigest()

    def to_json(self):
        """The interchange dict {winding, base, cos, sin}, mode-major."""
        return {
            "winding": [int(w) for w in self.winding],
            "base": [float(x) for x in self.base],
            "cos": [[float(x) for x in row] for row in self.cos_coeffs],
            "sin": [[float(x) for x in row] for row in self.sin_coeffs],
        }

    @staticmethod
    def from_json(data, manifold):
        n = manifold.dim
        a = np.asarray(data.get("cos", []), dtype=float).reshape(-1, n)
        b = np.asarray(data.get("sin", []), dtype=float).reshape(-1, n)
        return LoopPath(manifold=manifold, winding=data["winding"], base=data["base"],
                        cos_coeffs=a, sin_coeffs=b)


def straight_loop(manifold, winding, base=None, modes=0):
    """The straight representative of a winding class (zero periodic part)."""
    n = manifold.dim
    base = np.zeros(n) if base is None else np.asarray(base, dtype=float)
    z = np.zeros((modes, n))
    return LoopPath(manifold=manifold, winding=tuple(winding), base=tuple(base), cos_coeffs=z, sin_coeffs=z.copy())


def random_loop(manifold, winding, J, rng, amplitude=0.05):
    """A smooth random loop: coefficients decaying like 1/j^2, and a
    uniform random base point."""
    n = manifold.dim
    j = np.arange(1, J + 1, dtype=float)[:, None]
    scale = amplitude / j ** 2.0
    a = scale * rng.standard_normal((J, n))
    b = scale * rng.standard_normal((J, n))
    base = rng.uniform(0.0, 1.0, size=n) * np.asarray(manifold.periods)
    return LoopPath(manifold=manifold, winding=tuple(winding), base=tuple(base), cos_coeffs=a, sin_coeffs=b)
