"""Model manifolds, free loops, and vector fields along loops.

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

Fields along a loop are held as coordinate components on a uniform
parameter grid (TangentFieldSamples); on these models the coordinate
components of a tangent field are a complete, metric-orthonormal
description, and tangency of the embedded samples is automatic.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import fourier


class AliasingError(ValueError):
    """Raised when a sample set is too coarse for the requested modes."""


@dataclass(frozen=True)
class ModelManifold:
    """A flat model manifold: product of circles with coordinate periods.

    kind is "flat-torus" or "embedded-circle"; periods holds the
    coordinate period L_k of each factor (1 for the torus, 2 pi for the
    circle).  The isometric embedding sends coordinate k to a circle of
    radius L_k / (2 pi) in its own R^2 plane, so embedding_dim = 2n.
    """

    kind: str
    periods: tuple

    @property
    def dim(self):
        return len(self.periods)

    @property
    def embedding_dim(self):
        return 2 * len(self.periods)

    # Embedding circle curvatures 1/R_k = 2 pi / L_k; these control the
    # normal part of ambient derivatives of embedded fields.
    @property
    def embedding_curvatures(self):
        return 2.0 * np.pi / np.asarray(self.periods)

    def wrap(self, q):
        """Canonical coordinate representative in [0, L_k)."""
        return np.mod(np.asarray(q, dtype=float), np.asarray(self.periods))

    def metric(self, q):
        """Metric matrix at a point (identity in coordinates)."""
        return np.eye(self.dim)

    def christoffel(self, q):
        """Christoffel symbols at a point (zero: flat models)."""
        return np.zeros((self.dim, self.dim, self.dim))

    def curvature(self, q, x, y, z):
        """Riemann curvature R(x, y)z at q (zero: flat models)."""
        return np.zeros(self.dim)

    def embed_point(self, q):
        """Isometric embedding of coordinate points into R^{2n}.

        q has shape (..., n); result has shape (..., 2n) with the
        (cos, sin) pair of coordinate k in slots (2k, 2k+1).
        """
        q = np.asarray(q, dtype=float)
        ang = 2.0 * np.pi * q / np.asarray(self.periods)
        radii = np.asarray(self.periods) / (2.0 * np.pi)
        out = np.empty(q.shape[:-1] + (2 * self.dim,))
        out[..., 0::2] = radii * np.cos(ang)
        out[..., 1::2] = radii * np.sin(ang)
        return out

    def embed_tangent(self, q, v):
        """Pushforward of tangent coordinate components through the embedding.

        Norm-preserving pointwise: the image of the unit coordinate
        vector e_k is the unit tangent of the k-th embedding circle.
        """
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        ang = 2.0 * np.pi * q / np.asarray(self.periods)
        out = np.empty(v.shape[:-1] + (2 * self.dim,))
        out[..., 0::2] = -np.sin(ang) * v
        out[..., 1::2] = np.cos(ang) * v
        return out


def flat_torus(n):
    """The flat torus T^n = R^n / Z^n (unit periods)."""
    if n < 1:
        raise ValueError("torus dimension must be positive")
    return ModelManifold(kind="flat-torus", periods=(1.0,) * n)


def embedded_circle():
    """The unit circle in R^2, as the arc-length 1-torus of period 2 pi."""
    return ModelManifold(kind="embedded-circle", periods=(2.0 * np.pi,))


@dataclass(frozen=True)
class LoopPath:
    """A free loop: winding class plus anchored truncated Fourier data.

    cos_coeffs and sin_coeffs have shape (J, n), mode-major.  The
    anchoring convention makes position(0) == base exactly, with no
    constraint on the coefficients.
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
        a = a.copy()
        b = b.copy()
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "winding", tuple(int(w) for w in self.winding))
        object.__setattr__(self, "base", tuple(float(x) for x in self.base))
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

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
        base = np.asarray(self.base)
        per = fourier.synthesize(np.zeros(self.manifold.dim), self.cos_coeffs, self.sin_coeffs, t=t)
        # anchored: subtract the periodic part's value at t = 0
        anchor = self.cos_coeffs.sum(axis=0)
        return base[None, :] + np.outer(t, self.drift) + per - anchor[None, :]

    def coordinate_samples(self, m):
        """Unwrapped coordinates on the uniform m-grid (FFT path)."""
        per = fourier.synthesize(np.zeros(self.manifold.dim), self.cos_coeffs, self.sin_coeffs, m=m)
        anchor = self.cos_coeffs.sum(axis=0)
        return np.asarray(self.base)[None, :] + np.outer(fourier.grid(m), self.drift) + per - anchor[None, :]

    def velocity_samples(self, m):
        """Coordinate velocity dq/dt on the uniform m-grid (exact)."""
        _, da, db = fourier.differentiate(np.zeros(self.manifold.dim), self.cos_coeffs, self.sin_coeffs)
        return self.drift[None, :] + fourier.synthesize(np.zeros(self.manifold.dim), da, db, m=m)

    def velocity_series(self):
        """Trig coefficients (a0, a, b) of the velocity field."""
        _, da, db = fourier.differentiate(np.zeros(self.manifold.dim), self.cos_coeffs, self.sin_coeffs)
        return self.drift.copy(), da, db

    def content_key(self):
        """Stable byte digest of the loop data (frame-cache key)."""
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


def random_loop(manifold, winding, J, rng, amplitude=0.05, decay=2.0, base=None):
    """A smooth random loop: coefficients decaying like 1/j^decay."""
    n = manifold.dim
    j = np.arange(1, J + 1, dtype=float)[:, None]
    scale = amplitude / j ** decay
    a = scale * rng.standard_normal((J, n))
    b = scale * rng.standard_normal((J, n))
    if base is None:
        base = rng.uniform(0.0, 1.0, size=n) * np.asarray(manifold.periods)
    return LoopPath(manifold=manifold, winding=tuple(winding), base=tuple(base), cos_coeffs=a, sin_coeffs=b)


@dataclass(frozen=True)
class TangentFieldSamples:
    """A tangent field along a loop: coordinate components on a uniform grid.

    samples has shape (m, n), row i holding the components at t = i/m.
    On the flat models coordinate components are exactly the
    metric-orthonormal description of the field, so pointwise norms are
    Euclidean row norms.
    """

    loop: LoopPath
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != self.loop.manifold.dim:
            raise ValueError("samples must have shape (m, n)")
        if arr.shape[0] < 2 * self.loop.modes + 1:
            raise AliasingError(
                f"need at least {2 * self.loop.modes + 1} samples along this loop, got {arr.shape[0]}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def count(self):
        return self.samples.shape[0]

    def pointwise_norms(self):
        return np.linalg.norm(self.samples, axis=1)

    def l2_norm(self):
        """L^2([0,1]) norm by the exact uniform quadrature."""
        return float(np.sqrt(np.mean(self.pointwise_norms() ** 2)))


def field_from_function(loop, fn, m=None):
    """Sample a coordinate-component function t -> R^n along the loop."""
    m = fourier.default_samples(loop.modes) if m is None else m
    t = fourier.grid(m)
    vals = np.asarray([fn(ti) for ti in t], dtype=float)
    return TangentFieldSamples(loop=loop, samples=vals)


def evaluate_loop(loop, t):
    """The loop position at parameter t, as a manifold point.

    Flat torus: canonical coordinate representative in [0,1)^n.
    Embedded circle: the ambient point on the unit circle.
    At t = 0 this is exactly the stored base point (anchoring).
    """
    coords = loop.coordinates(t)
    if loop.manifold.kind == "embedded-circle":
        pts = loop.manifold.embed_point(coords)
        return pts[0] if np.isscalar(t) else pts
    wrapped = loop.manifold.wrap(coords)
    return wrapped[0] if np.isscalar(t) else wrapped


def covariant_derivative(loop, field, cutoff=None):
    """The connection derivative of a field along its loop.

    On the flat models (equivalently: tangential projection of the
    ambient derivative of the embedded field) this is the parameter
    derivative of the coordinate components, computed spectrally on the
    field's own grid.  Rejects sample sets too coarse for the requested
    mode content.
    """
    if field.loop is not loop and field.loop.content_key() != loop.content_key():
        raise ValueError("field is not defined along the given loop")
    J = loop.modes if cutoff is None else int(cutoff)
    if field.count < 2 * J + 1:
        raise AliasingError(
            f"{field.count} samples cannot resolve derivative content up to mode {J}")
    half = (field.count - 1) // 2
    a0, a, b = fourier.analyze(field.samples, half)
    _, da, db = fourier.differentiate(a0, a, b)
    out = fourier.synthesize(np.zeros_like(a0), da, db, m=field.count)
    return TangentFieldSamples(loop=loop, samples=out)


def loop_json_roundtrip(loop):
    """Serialize and re-parse a loop (identity up to float formatting)."""
    return LoopPath.from_json(json.loads(json.dumps(loop.to_json())), loop.manifold)
