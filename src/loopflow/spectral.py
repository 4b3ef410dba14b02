"""Spectral frames and fractional Sobolev calculus along loops.

The frame is the eigendecomposition of 1 + nabla* nabla acting on
fields in the truncated trigonometric space (modes 0..J per coordinate,
dimension D = n(2J+1)).  On the flat models every loop shares the
analytic frame

    eigenvalue 0       (x n)   constant coordinate fields,
    eigenvalue (2 pi j)^2 (x 2n)  sqrt(2) cos / sqrt(2) sin per coordinate,

and frames are stored in that canonical ordering: index k < n is the
constant field of coordinate k, then per mode j the n cosine fields
followed by the n sine fields.  A frame is therefore a value of the
coordinate dimension n, the cutoff J and the method alone: it carries
no loop, frame_of keeps one frame per (n, J, method), and fields over
different loops of the same dimension share it.  A dense collocation
eigensolve of the same operator is available as an independent path
and is used to cross-validate the shortcut.

A field along a loop is its frame coefficients (FiberField); sampled
field data enter only through SpectralFrame.coefficients / project.
Fractional powers are exact diagonal scalings on the truncated
spectrum.  Two metric families are provided:

* inner_r: the covariant family, diagonal in the frame with weights
  (1 + lambda_j)^r; the frame owns them, computing each exponent's
  weights once (SpectralFrame.weights) and the weighted norm of a
  coefficient stack (SpectralFrame.norm);
* inner_r_emb: the ambient family, the functional calculus of the
  first-order ambient Sobolev form of the embedded fields compressed to
  the truncated field space.  Per coordinate circle this form is
  (1 - d^2/dt^2) plus multiplication by (kappa_k qdot_k(t))^2, the
  normal-curvature correction of the embedding; its matrix is assembled
  exactly by quadrature and powered through a dense symmetric
  eigendecomposition.

The compressed-form route (rather than a literal diagonal scaling of
ambient Fourier modes) keeps the ambient family a genuine operator
power, so the order relation against the covariant family holds at the
matrix level for every loop and every r in [0,1].
"""

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .geometry import LoopPath

ZERO_SNAP = 1e-9
SQ2 = np.sqrt(2.0)


def laplacian_eigenvalues(J):
    """Per-mode eigenvalues of -d^2/dt^2: [0, (2 pi)^2, ..., (2 pi J)^2]."""
    return (2.0 * np.pi * np.arange(J + 1)) ** 2


def _flat_eigenvalues(n, J, per_mode=None):
    """Canonically ordered (D,) eigenvalue array from per-mode values."""
    per_mode = laplacian_eigenvalues(J) if per_mode is None else np.asarray(per_mode, dtype=float)
    lam = np.empty(n * (2 * J + 1))
    lam[:n] = per_mode[0]
    lam[n:] = np.repeat(per_mode[1:], 2 * n)
    return lam


def _field_samples(samples):
    # (m, n) samples from an (m,) / (m, n) array; a batch (S, m, n) passes through
    arr = np.asarray(samples, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


@dataclass(frozen=True)
class SpectralFrame:
    """Eigendata of 1 + nabla* nabla on n-dimensional fields, canonically ordered."""

    n: int
    cutoff: int
    eigenvalues: np.ndarray = field(compare=False)   # fixed by (n, cutoff, method)
    method: str = "analytic"

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float).copy()
        lam[np.abs(lam) < ZERO_SNAP] = 0.0
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def dim(self):
        return self.n * (2 * self.cutoff + 1)

    @property
    def kernel_dim(self):
        return int(np.count_nonzero(self.eigenvalues == 0.0))

    def coefficients(self, samples):
        """L^2-orthonormal frame coefficients of sampled field data: (D,)
        from (m,) or (m, n) samples, (S, D) from a batch (S, m, n)."""
        return self.layout(*fourier.analyze(_field_samples(samples), self.cutoff))

    def layout(self, a0, a, b):
        """Frame coefficients (..., D) of the trig series (a0, a, b).

        The inverse of series; a and b may hold fewer than J modes, the
        missing ones being zero, and all three may carry a leading batch
        axis.
        """
        n = self.n
        lead = np.shape(a0)[:-1]
        c = np.zeros(lead + (self.dim,))
        c[..., :n] = a0
        block = c[..., n:].reshape(lead + (self.cutoff, 2, n))  # per mode: cos row then sin row
        k = np.shape(a)[-2]
        block[..., :k, 0, :] = a
        block[..., :k, 1, :] = b
        block[..., :k, :, :] /= SQ2
        return c

    def series(self, coefficients):
        """Inverse layout map: (..., D) -> trig series (a0, a, b)."""
        n = self.n
        J = self.cutoff
        c = np.asarray(coefficients, dtype=float)
        block = c[..., n:].reshape(c.shape[:-1] + (J, 2 * n))
        return c[..., :n].copy(), block[..., :n] * SQ2, block[..., n:] * SQ2

    def samples(self, coefficients, m=None):
        """Field samples (m, n) on the uniform m-grid from frame
        coefficients (D,); (S, m, n) from a batch (S, D)."""
        m = fourier.default_samples(self.cutoff) if m is None else m
        a0, a, b = self.series(coefficients)
        return fourier.synthesize(a0, a, b, m=m)

    def basis_samples(self, m=None):
        """All D eigenfields sampled: array (D, m, n)."""
        n = self.n
        J = self.cutoff
        m = fourier.default_samples(J) if m is None else m
        t = fourier.grid(m)
        out = np.zeros((self.dim, m, n))
        for k in range(n):
            out[k, :, k] = 1.0
        for j in range(1, J + 1):
            c = SQ2 * np.cos(2.0 * np.pi * j * t)
            s = SQ2 * np.sin(2.0 * np.pi * j * t)
            for k in range(n):
                out[n + (j - 1) * 2 * n + k, :, k] = c
                out[n + (j - 1) * 2 * n + n + k, :, k] = s
        return out

    @functools.cached_property
    def basis(self):
        """basis_samples() on the default grid, built on first use and
        kept with the frame; pickling drops it."""
        return self.basis_samples()

    def weights(self, r):
        """The metric weights (1 + lambda)^r of the r-norm, computed once
        per exponent and kept read-only with the frame; pickling drops them."""
        cache = self.__dict__.setdefault("_weights", {})
        w = cache.get(r)
        if w is None:
            w = (1.0 + self.eigenvalues) ** r
            w.flags.writeable = False
            w = cache.setdefault(r, w)
        return w

    def norm(self, r, c):
        """The r-norm of coefficients c, row by row for a stack (..., D)."""
        return np.sqrt(np.sum(self.weights(r) * c ** 2, axis=-1))

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("basis", None)
        state.pop("_weights", None)
        return state

    def sup_norms(self):
        """Sup norm of each eigenfield: 1 for kernel fields, sqrt(2) above."""
        out = np.full(self.dim, SQ2)
        out[: self.n] = 1.0
        return out


@dataclass(frozen=True, eq=False)
class FiberField:
    """A field along a loop, stored by its frame coefficients."""

    frame: SpectralFrame
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float).copy()
        if c.shape != (self.frame.dim,):
            raise ValueError(f"expected {self.frame.dim} coefficients, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    def norm_r(self, r):
        return float(self.frame.norm(r, self.coefficients))

    def samples(self, m=None):
        return self.frame.samples(self.coefficients, m=m)

    def __add__(self, other):
        _check_aligned(self.frame, other.frame)
        return FiberField(self.frame, self.coefficients + other.coefficients)

    def __sub__(self, other):
        _check_aligned(self.frame, other.frame)
        return FiberField(self.frame, self.coefficients - other.coefficients)

    def __mul__(self, scalar):
        return FiberField(self.frame, self.coefficients * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return FiberField(self.frame, -self.coefficients)


def _check_aligned(fa, fb):
    if fa != fb:
        raise ValueError("fields live in different frames")


def _collocation_derivative_matrix(J):
    # trig collocation d/dt on 2J+1 uniform nodes of the unit period
    m = 2 * J + 1
    idx = np.arange(m)
    diff = idx[:, None] - idx[None, :]
    sign = np.where(diff % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        D = np.where(diff == 0, 0.0, np.pi * sign / np.sin(np.pi * diff / m))
    return D


def dense_mode_eigenvalues(J):
    """Eigenvalues of -d^2/dt^2 from a dense collocation eigensolve.

    Independent of the analytic shortcut: builds the collocation
    derivative matrix on 2J+1 nodes, forms the symmetric operator, and
    eigendecomposes it.  Returns one value per mode j = 0..J (degenerate
    pairs averaged), zero-snapped.  Raises ArithmeticError with the
    residual if the eigensolve fails its own consistency check.
    """
    D = _collocation_derivative_matrix(J)
    K = D.T @ D
    vals, vecs = np.linalg.eigh(K)
    res = np.linalg.norm(K @ vecs - vecs * vals[None, :], axis=0) / (1.0 + np.abs(vals))
    if res.max() > 1e-8:
        raise ArithmeticError(f"collocation eigensolve residual {res.max():.3e} exceeds 1e-8")
    vals = np.where(np.abs(vals) < ZERO_SNAP, 0.0, vals)
    per_mode = np.empty(J + 1)
    per_mode[0] = vals[0]
    if J > 0:
        per_mode[1:] = 0.5 * (vals[1::2] + vals[2::2])
    return per_mode


def eigendecompose(n, cutoff, method="analytic"):
    """Spectral frame of 1 + nabla* nabla on n-dimensional fields, modes 0..J.

    method "analytic" uses the flat-model shortcut; "dense" recomputes
    the spectrum by collocation eigensolve and cross-checks it against
    the shortcut before building the frame.
    """
    if method == "analytic":
        lam = _flat_eigenvalues(n, cutoff)
    elif method == "dense":
        per_mode = dense_mode_eigenvalues(cutoff)
        exact = laplacian_eigenvalues(cutoff)
        gap = np.abs(per_mode - exact) / (1.0 + exact)
        if gap.max() > 1e-8:
            raise ArithmeticError(f"dense spectrum deviates from analytic by {gap.max():.3e}")
        lam = _flat_eigenvalues(n, cutoff, per_mode=per_mode)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SpectralFrame(n=n, cutoff=cutoff, eigenvalues=lam, method=method)


_FRAME_CACHE = {}
_CACHE_LOCK = threading.Lock()


def frame_of(loop, cutoff, method="analytic"):
    """The frame for fields along the loop, shared by every loop of its
    dimension (concurrent reads, exclusive insertion)."""
    if cutoff < loop.modes:
        raise ValueError(f"frame cutoff {cutoff} below loop mode content {loop.modes}")
    key = (loop.manifold.dim, cutoff, method)
    frame = _FRAME_CACHE.get(key)
    if frame is None:
        frame = eigendecompose(loop.manifold.dim, cutoff, method=method)
        with _CACHE_LOCK:
            frame = _FRAME_CACHE.setdefault(key, frame)
    return frame


def project(frame, samples):
    """L^2-orthogonal projection of sampled data onto the frame's span."""
    return FiberField(frame, frame.coefficients(samples))


def fractional_apply(frame, r, field):
    """A^r field, A = (1 + nabla* nabla)^{1/2}: coefficients times (1+lambda)^{r/2}."""
    return FiberField(frame, frame.weights(0.5 * r) * field.coefficients)


def inner_r(frame, r, xi, zeta):
    """The covariant r-inner-product: sum (1+lambda_j)^r xi_j zeta_j."""
    cx = xi.coefficients if isinstance(xi, FiberField) else frame.coefficients(xi)
    cz = zeta.coefficients if isinstance(zeta, FiberField) else frame.coefficients(zeta)
    return float(np.sum(frame.weights(r) * cx * cz))


def norm_r(frame, r, xi):
    return float(np.sqrt(max(inner_r(frame, r, xi, xi), 0.0)))


@dataclass(frozen=True, eq=False)
class EmbeddedMetric:
    """Per-coordinate eigendata of the compressed ambient Sobolev form."""

    loop: LoopPath
    cutoff: int
    mu: np.ndarray      # (n, 2J+1) eigenvalues, all >= 1 up to roundoff
    vectors: np.ndarray  # (n, 2J+1, 2J+1) orthonormal columns

    def apply_power(self, r, series_matrix):
        """E^r applied to per-coordinate series vectors, shape (2J+1, n)."""
        out = np.empty_like(series_matrix)
        for k in range(series_matrix.shape[1]):
            V = self.vectors[k]
            out[:, k] = V @ (self.mu[k] ** r * (V.T @ series_matrix[:, k]))
        return out

    def inner(self, r, xi, zeta):
        """The ambient r-inner-product of two sampled fields along the
        loop, through the r-th power of this form; r in [-1, 1]."""
        if not -1.0 <= r <= 1.0:
            raise ValueError("ambient metric exponent must lie in [-1, 1]")
        cx = _series_matrix(_field_samples(xi), self.cutoff)
        cz = _series_matrix(_field_samples(zeta), self.cutoff)
        return float(np.sum(cx * self.apply_power(r, cz)))


def _series_matrix(samples, J):
    # per-coordinate canonical coefficients: rows [a0; a/sqrt2; b/sqrt2]
    a0, a, b = fourier.analyze(samples, J)
    return np.concatenate([a0[None, :], a / SQ2, b / SQ2], axis=0)


def embedded_metric(loop, cutoff):
    """Assemble and diagonalize the compressed ambient form, per coordinate.

    The form is diag(1 + lambda) plus the Gram matrix of multiplication
    by (kappa_k qdot_k)^2; with 4J+1 quadrature nodes every entry is an
    exact integral because the integrand is a trig polynomial of degree
    at most 4J.
    """
    if cutoff < loop.modes:
        raise ValueError(f"embedded-metric cutoff {cutoff} below loop mode content {loop.modes}")
    n = loop.manifold.dim
    J = cutoff
    m = fourier.default_samples(J)
    t = fourier.grid(m)
    qdot = loop.velocity_samples(m)
    weight = (loop.manifold.embedding_curvatures[None, :] * qdot) ** 2
    jj = np.arange(1, J + 1)
    lam = (2.0 * np.pi * jj) ** 2
    diag_l = np.concatenate([[1.0], 1.0 + lam, 1.0 + lam])
    B = np.empty((m, 2 * J + 1))
    B[:, 0] = 1.0
    B[:, 1:J + 1] = SQ2 * np.cos(2.0 * np.pi * np.outer(t, jj))
    B[:, J + 1:] = SQ2 * np.sin(2.0 * np.pi * np.outer(t, jj))
    mu = np.empty((n, 2 * J + 1))
    vecs = np.empty((n, 2 * J + 1, 2 * J + 1))
    for k in range(n):
        E = np.diag(diag_l) + B.T @ (weight[:, k:k + 1] * B) / m
        vals, V = np.linalg.eigh(E)
        if vals.min() <= 0.0:
            raise ArithmeticError("compressed ambient form lost positivity")
        mu[k] = vals
        vecs[k] = V
    return EmbeddedMetric(loop=loop, cutoff=J, mu=mu, vectors=vecs)


def inner_r_emb(loop, r, xi, zeta, cutoff=None):
    """The ambient r-inner-product of two fields along the loop.

    Fields are pushed to the embedding, paired through the r-th power of
    the ambient first-order Sobolev form, and the result read back on
    the loop; everything happens in the compressed truncated space.
    This builds and diagonalizes the form on every call; to pair many
    fields or exponents along one loop, build embedded_metric once and
    call its inner.
    """
    xs, zs = _field_samples(xi), _field_samples(zeta)
    if cutoff is None:
        cutoff = max((min(xs.shape[0], zs.shape[0]) - 1) // 2, loop.modes, 1)
    return embedded_metric(loop, cutoff).inner(r, xs, zs)


def norm_r_emb(loop, r, xi, cutoff=None):
    return float(np.sqrt(max(inner_r_emb(loop, r, xi, xi, cutoff=cutoff), 0.0)))


def spectra_rows(frame):
    """Rows (j, lambda_j, sup_norm_xi_j) for CSV export."""
    sup = frame.sup_norms()
    return [(j, float(frame.eigenvalues[j]), float(sup[j])) for j in range(frame.dim)]


def fit_spectrum_bounds(frame):
    """Fit (c, C, d) so that c(j^2 - d) <= lambda_j <= C(j^2 + d) per mode.

    On the flat models the curvature correction vanishes, so d = 0 and
    c, C are the extreme ratios lambda_j / j^2 over the nonzero modes.
    """
    n = frame.n
    J = frame.cutoff
    if J == 0:
        return 4.0 * np.pi ** 2, 4.0 * np.pi ** 2, 0.0
    jj = np.arange(1, J + 1, dtype=float)
    per_mode = frame.eigenvalues[n::2 * n]
    ratios = per_mode / jj ** 2
    return float(ratios.min()), float(ratios.max()), 0.0
