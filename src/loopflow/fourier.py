"""Real trigonometric series on the unit-period parameter circle.

All loop and field data in this package is spectral: a truncated series

    f(t) = a0 + sum_{j=1..J} a_j cos(2 pi j t) + b_j sin(2 pi j t)

sampled, when needed, on the uniform grid t_i = i/m.  With m >= 2J+1 the
grid determines the coefficients exactly, and products of two degree-J
series are integrated exactly by the plain sample mean once m >= 4J+1.
"""

import numpy as np


def grid(m):
    """Uniform parameter grid t_i = i/m, i = 0..m-1."""
    return np.arange(m) / m


def default_samples(J):
    """De-aliased sample count for degree-J data (odd, >= 4J+1)."""
    return 4 * J + 1


def analyze(samples, J):
    """Trig coefficients (a0, a, b) of uniformly sampled periodic data.

    samples has shape (m,), (m, n) or (S, m, n) with m >= 2J+1; returns
    a0 with shape (n,), and a, b with shape (J, n), each with the
    leading batch axis S of a 3-d input.  The FFT runs along the sample
    axis.  Content above mode J is discarded (the caller is responsible
    for sampling densely enough that there is none).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float).T).T  # (m, n) or (S, m, n)
    m = samples.shape[-2]
    if m < 2 * J + 1:
        raise ValueError(f"need at least {2*J+1} samples to resolve mode {J}, got {m}")
    F = np.fft.rfft(samples, axis=-2)
    a0 = F[..., 0, :].real / m
    a = 2.0 * F[..., 1:J + 1, :].real / m
    b = -2.0 * F[..., 1:J + 1, :].imag / m
    return a0, a, b


def synthesize(a0, a, b, m=None):
    """Sample the series a0 + sum a_j cos + b_j sin on the uniform m-grid,
    via FFT along the sample axis.  Returns shape (m, n), or (S, m, n)
    for a batch of S series with a0 of shape (S, n) and a, b of shape
    (S, J, n).
    """
    a0 = np.atleast_1d(np.asarray(a0, dtype=float))
    lead, n = a0.shape[:-1], a0.shape[-1]
    a = np.asarray(a, dtype=float).reshape(lead + (-1, n))
    b = np.asarray(b, dtype=float).reshape(lead + (-1, n))
    J = a.shape[-2]
    if m is None:
        m = default_samples(J)
    if m < 2 * J + 1:
        raise ValueError(f"grid of {m} points aliases mode {J}")
    F = np.zeros(lead + (m // 2 + 1, n), dtype=complex)
    F[..., 0, :] = m * a0
    F[..., 1:J + 1, :] = 0.5 * m * (a - 1j * b)
    return np.fft.irfft(F, n=m, axis=-2)


def differentiate(a0, a, b):
    """Coefficients of d/dt of the series (exact on the truncation);
    a and b may carry a leading batch axis."""
    J = np.asarray(a).shape[-2]
    w = 2.0 * np.pi * np.arange(1, J + 1)[:, None]
    return np.zeros_like(np.atleast_1d(a0)), w * b, -w * a
