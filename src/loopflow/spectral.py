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
coordinate dimension n and the cutoff J alone: it carries no loop,
frame_of keeps one frame per (n, J), and fields over different loops of
the same dimension share it.  A dense collocation eigensolve of the
same operator (dense_mode_eigenvalues) is an independent reference that
cross-validates the shortcut.

A field along a loop is its (D,) frame coefficient array; FiberField
binds a state's fiber to its frame, read-only and shape-checked, and
tangent vectors stay plain arrays.  Sampled field data enter only
through SpectralFrame.coefficients.  It and
SpectralFrame.samples move one field at a time straight between its
(D,) frame coefficients and its rfft spectrum, through per-grid slot and
scale vectors the frame keeps (SpectralFrame._spectrum), with the
arithmetic of the trig-series route (series, fourier.synthesize /
fourier.analyze, layout); neither takes a stack of fields.  Sampled
fields are held coordinate-major: an (m, n) array of samples is a view
of (n, m) memory, so both transforms run along the contiguous axis,
which pocketfft does faster than along the interleaved one and with the
same bits.  Fractional powers are exact diagonal scalings on the
truncated spectrum.  Two metric families are provided:

* the covariant family, diagonal in the frame with weights
  (1 + lambda_j)^r; the frame owns them, computing each exponent's
  weights once (SpectralFrame.weights) and the weighted norm of a
  coefficient stack (SpectralFrame.norm);
* the ambient family (embedded_metric), the functional calculus of the
  first-order ambient Sobolev form of the embedded fields compressed to
  the truncated field space.  Per coordinate circle this form is
  (1 - d^2/dt^2) plus multiplication by (kappa_k qdot_k(t))^2, the
  normal-curvature correction of the embedding; its matrix in frame
  coefficients is assembled exactly by quadrature on the frame's
  eigenfields and powered through a dense symmetric eigendecomposition,
  and EmbeddedMetric.norm measures the coefficients SpectralFrame.norm does.

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
from .geometry import read_only

ZERO_SNAP = 1e-9
SQ2 = np.sqrt(2.0)


def laplacian_eigenvalues(J):
    """Per-mode eigenvalues of -d^2/dt^2: [0, (2 pi)^2, ..., (2 pi J)^2]."""
    return (2.0 * np.pi * np.arange(J + 1)) ** 2


def _flat_eigenvalues(n, J, per_mode=None):
    """Canonically ordered (D,) eigenvalue array from per-mode values."""
    per_mode = laplacian_eigenvalues(J) if per_mode is None else np.asarray(per_mode, dtype=float)
    return np.repeat(per_mode, [n] + [2 * n] * J)


@dataclass(frozen=True)
class SpectralFrame:
    """Eigendata of 1 + nabla* nabla on n-dimensional fields, canonically ordered."""

    n: int
    cutoff: int
    eigenvalues: np.ndarray = field(init=False, compare=False, repr=False)  # fixed by (n, cutoff)

    def __post_init__(self):
        lam = _flat_eigenvalues(self.n, self.cutoff)
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def dim(self):
        return self.n * (2 * self.cutoff + 1)

    def coefficients(self, samples):
        """L^2-orthonormal frame coefficients (D,) of one field's (m, n)
        samples.

        One rfft along the last axis of the samples' (n, m) transpose,
        contiguous when the samples are coordinate-major as samples()
        returns them, written into a fresh C-ordered (n, m//2 + 1)
        spectrum whatever the samples' layout.  Each coefficient is then
        read off the flat real view of the spectrum at its slot and scaled
        as (F / gain) / root: F/m in the kernel and (F/(+-m/2))/sqrt(2)
        above it, which equals the ((+-2F)/m)/sqrt(2) of fourier.analyze
        followed by layout bit for bit, since doubling F and halving m are
        exact.  The slot and scale vectors come from _spectrum: built on
        the first call for each m, kept read-only with the frame, dropped
        by pickling.  The samples are read as given, with no conversion.
        Raises ValueError when m < 2J+1 or the samples are not an (m, n)
        array.
        """
        if samples.ndim != 2 or samples.shape[1] != self.n:
            raise ValueError(f"expected (m, {self.n}) samples, got shape {samples.shape}")
        m = len(samples)
        slots, root, gain = self._spectrum(m)
        # C-ordered: rfft of the transposed view would allocate it F-ordered
        F = np.empty((self.n, m // 2 + 1), dtype=complex)
        np.fft.rfft(samples.T, axis=-1, out=F)
        return F.view(float).reshape(-1)[slots] / gain / root

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
        """Samples (m, n) on the uniform m-grid of one field's frame
        coefficients (D,).

        The coefficients, scaled as (c sqrt(2)) (m/2) (c m in the kernel)
        like series followed by fourier.synthesize, are written straight
        into their slots of the flat real view of an (n, m//2 + 1) rfft
        spectrum, and one irfft along its last axis samples it.  The
        result is the (m, n) transpose of that C-ordered (n, m) array, a
        view with no copy: its memory is coordinate-major.  Elementwise
        arithmetic on it keeps that layout, so the rfft of coefficients()
        on a field computed from it runs along contiguous memory too.  The
        slot and scale vectors come from _spectrum: built on the first
        call for each m, kept read-only with the frame, dropped by
        pickling.  Raises ValueError when m < 2J+1 or the coefficients are
        not a (D,) array.
        """
        m = fourier.default_samples(self.cutoff) if m is None else m
        slots, root, gain = self._spectrum(m)
        if coefficients.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got shape {coefficients.shape}")
        F = np.zeros(2 * self.n * (m // 2 + 1))
        F[slots] = coefficients * root * gain
        return np.fft.irfft(F.view(complex).reshape(self.n, -1), n=m).T

    @functools.cached_property
    def _modes(self):
        # per coefficient: its mode j and its part, 0 in the kernel, +1 for
        # cos and -1 for sin
        n, J = self.n, self.cutoff
        mode = np.repeat(np.arange(J + 1), [n] + [2 * n] * J)
        part = np.concatenate([np.zeros(n, dtype=int), np.tile(np.repeat([1, -1], n), J)])
        return mode, part

    def _spectrum(self, m):
        """(slots, root, gain) of the m-point grid, computed once per m and
        kept read-only with the frame; pickling drops them.

        The rfft spectrum of the coordinate-major samples, (n, m//2 + 1)
        complex, viewed as 2n(m//2 + 1) reals, holds coefficient k, of
        coordinate k % n and mode j, at slots[k] =
        (k % n) 2(m//2 + 1) + 2j + (part < 0): the real part of mode j in
        the kernel and for cos, the imaginary part for sin.
        root is 1 in the kernel and sqrt(2) above, gain is m in the
        kernel, m/2 for cos and -m/2 for sin.
        """
        cache = self.__dict__.setdefault("_spectra", {})
        plan = cache.get(m)
        if plan is None:
            if m < 2 * self.cutoff + 1:
                raise ValueError(f"grid of {m} points aliases mode {self.cutoff}")
            mode, part = self._modes
            coord = np.arange(self.dim) % self.n
            slots = 2 * (coord * (m // 2 + 1) + mode) + (part < 0)
            root = np.where(part == 0, 1.0, SQ2)
            gain = np.where(part == 0, float(m), part * (0.5 * m))
            for v in (slots, root, gain):
                v.flags.writeable = False
            plan = cache.setdefault(m, (slots, root, gain))
        return plan

    @functools.cached_property
    def _derivative_map(self):
        """(partner, frequency): the t-derivative of coefficients c is
        c[..., partner] * frequency outside the kernel, where it is zero.
        partner swaps each cos coefficient with the sin one of its mode
        and coordinate; frequency is 2 pi j for cos and -2 pi j for sin.
        Kept read-only with the frame; pickling drops it."""
        mode, part = self._modes
        partner = np.arange(self.dim) + part * self.n
        frequency = part * (2.0 * np.pi * mode)
        partner.flags.writeable = False
        frequency.flags.writeable = False
        return partner, frequency

    def _waves(self, m):
        """The 2J+1 scalar waves on the m-point grid, (2J+1, m): 1, then
        per mode j = 1..J sqrt(2) cos and sqrt(2) sin of 2 pi j t, the
        canonical order, so eigenfield k is wave k // n in coordinate
        k % n."""
        angle = 2.0 * np.pi * np.arange(self.cutoff + 1)[:, None] * fourier.grid(m)
        waves = np.empty((2 * self.cutoff + 1, m))
        waves[0] = 1.0
        waves[1::2] = SQ2 * np.cos(angle[1:])
        waves[2::2] = SQ2 * np.sin(angle[1:])
        return waves

    def basis_samples(self, m=None):
        """All D eigenfields sampled: array (D, m, n).  Eigenfield k lives
        in coordinate k % n, where it is wave k // n of _waves."""
        m = fourier.default_samples(self.cutoff) if m is None else m
        k = np.arange(self.dim)
        out = np.zeros((self.dim, m, self.n))
        out[k, :, k % self.n] = self._waves(m)[k // self.n]
        return out

    def compress(self, weight):
        """The (D, D) quadrature compression (1/m) sum_t e_k(t)^T W(t) e_l(t)
        onto the eigenfields e_k of a diagonal pointwise multiplier W(t) =
        diag(weight(t)), weight given as (m, n) samples on the m-point grid.
        Eigenfields of different coordinates do not meet, so only the n
        diagonal blocks, rows and columns a::n, are nonzero: the Gram
        matrix of _waves weighted by weight[:, a]."""
        m, n = len(weight), self.n
        waves = self._waves(m)
        out = np.zeros((self.dim, self.dim))
        for a in range(n):
            out[a::n, a::n] = (waves * weight[:, a]) @ waves.T / m
        return out

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
        return np.sqrt((self.weights(r) * c ** 2).sum(axis=-1))

    def __reduce__(self):
        # a value of (n, cutoff): unpickling rebuilds the read-only
        # eigenvalues and drops the cached weights, spectrum slots, modes
        # and derivative map
        return SpectralFrame, (self.n, self.cutoff)

    def sup_norms(self):
        """Sup norm of each eigenfield: 1 for kernel fields, sqrt(2) above."""
        return np.where(self._modes[1] == 0, 1.0, SQ2)


@dataclass(frozen=True, eq=False)
class FiberField:
    """A state's fiber field, stored by its frame coefficients (read-only
    through geometry.read_only, shape-checked); tangent vectors are plain
    coefficient arrays."""

    frame: SpectralFrame
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.frame.dim,):
            raise ValueError(f"expected {self.frame.dim} coefficients, got shape {c.shape}")
        object.__setattr__(self, "coefficients", read_only(c))

    def __reduce__(self):
        # unpickle through the constructor, which makes the array read-only
        return FiberField, (self.frame, self.coefficients)


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


def dense_eigenvalues(n, cutoff):
    """The canonically ordered (D,) eigenvalue array of the dense
    collocation reference, after checking it against the analytic
    spectrum: raises ArithmeticError on a relative gap above 1e-8."""
    per_mode = dense_mode_eigenvalues(cutoff)
    exact = laplacian_eigenvalues(cutoff)
    gap = np.abs(per_mode - exact) / (1.0 + exact)
    if gap.max() > 1e-8:
        raise ArithmeticError(f"dense spectrum deviates from analytic by {gap.max():.3e}")
    return _flat_eigenvalues(n, cutoff, per_mode=per_mode)


_FRAME_CACHE = {}
_CACHE_LOCK = threading.Lock()


def frame_of(loop, cutoff):
    """The frame for fields along the loop, shared by every loop of its
    dimension (concurrent reads, exclusive insertion)."""
    if cutoff < loop.modes:
        raise ValueError(f"frame cutoff {cutoff} below loop mode content {loop.modes}")
    key = (loop.manifold.dim, cutoff)
    frame = _FRAME_CACHE.get(key)
    if frame is None:
        frame = SpectralFrame(n=loop.manifold.dim, cutoff=cutoff)
        with _CACHE_LOCK:
            frame = _FRAME_CACHE.setdefault(key, frame)
    return frame


@dataclass(frozen=True, eq=False)
class EmbeddedMetric:
    """Eigendata of the compressed ambient Sobolev form in frame coefficients."""

    mu: np.ndarray       # (D,) eigenvalues, all >= 1 up to roundoff
    vectors: np.ndarray  # (D, D) orthonormal columns

    def norm(self, r, c):
        """The ambient r-norm of frame coefficients c, row by row for a
        stack (..., D), through the r-th power of this form; r in [-1, 1]."""
        if not -1.0 <= r <= 1.0:
            raise ValueError("ambient metric exponent must lie in [-1, 1]")
        return np.sqrt(np.sum(self.mu ** r * (c @ self.vectors) ** 2, axis=-1))


def embedded_metric(loop, cutoff):
    """Assemble and diagonalize the compressed ambient form in the frame.

    The form is diag(1 + lambda) plus the Gram matrix of multiplication
    by (kappa_k qdot_k)^2 on the frame's eigenfields, the frame's
    compression (SpectralFrame.compress) of that diagonal multiplier;
    on the frame's 4J+1 nodes every entry is an exact integral because
    the integrand is a trig polynomial of degree at most 4J.  It is
    block diagonal by coordinate, so one eigensolve of the whole form is
    exact.
    """
    frame = frame_of(loop, cutoff)
    m = fourier.default_samples(cutoff)
    weight = (loop.manifold.embedding_curvatures * loop.velocity_samples(m)) ** 2
    form = frame.compress(weight)
    form[np.diag_indices(frame.dim)] += 1.0 + frame.eigenvalues
    mu, vectors = np.linalg.eigh(form)
    if mu.min() <= 0.0:
        raise ArithmeticError("compressed ambient form lost positivity")
    return EmbeddedMetric(mu=mu, vectors=vectors)


def spectra_rows(eigenvalues, sup_norms):
    """Rows (j, lambda_j, sup_norm_xi_j) for CSV export."""
    return [(j, float(lam), float(sup)) for j, (lam, sup) in enumerate(zip(eigenvalues, sup_norms))]


def fit_spectrum_bounds(eigenvalues, n):
    """Fit (c, C, d) so that c(j^2 - d) <= lambda_j <= C(j^2 + d) per mode,
    from a canonically ordered eigenvalue array of n-dimensional fields.

    On the flat models the curvature correction vanishes, so d = 0 and
    c, C are the extreme ratios lambda_j / j^2 over the nonzero modes.
    """
    J = (len(eigenvalues) // n - 1) // 2
    if J == 0:
        return 4.0 * np.pi ** 2, 4.0 * np.pi ** 2, 0.0
    jj = np.arange(1, J + 1, dtype=float)
    per_mode = eigenvalues[n::2 * n]
    ratios = per_mode / jj ** 2
    return float(ratios.min()), float(ratios.max()), 0.0
