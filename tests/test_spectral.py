import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from loopflow import spectral
from loopflow.fourier import default_samples
from loopflow.geometry import embedded_circle, flat_torus, random_loop, straight_loop
from loopflow.spectral import (SpectralFrame, dense_eigenvalues, dense_mode_eigenvalues,
                               embedded_metric, fit_spectrum_bounds, frame_of,
                               laplacian_eigenvalues, spectra_rows)


def test_frame_layout_and_eigenvalues():
    J, n = 6, 2
    frame = frame_of(straight_loop(flat_torus(n), (1, 0)), J)
    assert frame.dim == n * (2 * J + 1)
    lam = frame.eigenvalues
    assert np.count_nonzero(lam == 0.0) == n
    np.testing.assert_allclose(lam[:n], 0.0)
    jj = np.repeat(np.arange(1, J + 1), 2 * n)
    np.testing.assert_allclose(lam[n:], (2.0 * np.pi * jj) ** 2, rtol=1e-13)


def test_analytic_spectrum_against_dense_collocation():
    J = 8
    per_mode = dense_mode_eigenvalues(J)
    np.testing.assert_allclose(per_mode, laplacian_eigenvalues(J), rtol=1e-10, atol=1e-8)
    np.testing.assert_allclose(dense_eigenvalues(2, J), SpectralFrame(2, J).eigenvalues,
                               rtol=1e-10, atol=1e-8)


def test_dense_eigenvalues_reject_a_gap_to_the_analytic_spectrum(monkeypatch):
    J = 4
    off = laplacian_eigenvalues(J)
    off[2] *= 1.0 + 2e-8
    monkeypatch.setattr(spectral, "dense_mode_eigenvalues", lambda cutoff: off)
    with pytest.raises(ArithmeticError, match="deviates from analytic"):
        dense_eigenvalues(2, J)


def test_spectrum_against_finite_differences():
    # second-order FD eigensolve of 1 - d^2/dt^2; fully independent path
    J, m = 8, 1024
    fd = oracles.fd_laplace_eigenvalues(m)
    exact = 1.0 + laplacian_eigenvalues(J)
    # FD brings each pair doubled; compare mode by mode
    # (kernel value carries O(m^2 eps) eigensolve roundoff)
    np.testing.assert_allclose(fd[0], exact[0], rtol=1e-8)
    pair = 0.5 * (fd[1:2 * J + 1:2] + fd[2:2 * J + 1:2])
    np.testing.assert_allclose(pair, exact[1:], rtol=1e-3)


def test_coefficient_roundtrip_and_orthonormality(rng):
    J = 5
    loop = random_loop(flat_torus(2), (1, 1), J, rng)
    frame = frame_of(loop, J)
    c = rng.standard_normal(frame.dim)
    m = default_samples(J)
    np.testing.assert_allclose(frame.coefficients(frame.samples(c, m)), c, atol=1e-12)
    basis = frame.basis_samples(m)  # (D, m, n)
    gram = np.einsum("ati,bti->ab", basis, basis) / m
    np.testing.assert_allclose(gram, np.eye(frame.dim), atol=1e-12)


def test_sup_norms():
    frame = frame_of(straight_loop(flat_torus(2), (1, 0)), 4)
    sup = frame.sup_norms()
    np.testing.assert_allclose(sup[:2], 1.0)
    np.testing.assert_allclose(sup[2:], np.sqrt(2.0))


def test_norm_r_single_mode():
    J = 4
    frame = frame_of(straight_loop(flat_torus(2), (1, 0)), J)
    c = np.zeros(frame.dim)
    c[2] = 1.0  # cos mode 1, coordinate 0
    lam = frame.eigenvalues[2]
    back = frame.coefficients(frame.samples(c, default_samples(J)))
    for r in (0.0, 0.3, 1.0, -0.5):
        np.testing.assert_allclose(frame.norm(r, back), (1.0 + lam) ** (0.5 * r), rtol=1e-12)


def test_frame_weights_are_computed_once_and_read_only():
    frame = SpectralFrame(2, 6)
    for r in (0.75, 0.25, -0.75, 0.5, -0.375):
        w = frame.weights(r)
        assert np.array_equal(w, (1.0 + frame.eigenvalues) ** r)
        assert frame.weights(r) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 2.0


def test_frame_pickle_drops_cached_weights_and_basis():
    frame = SpectralFrame(2, 4)
    w = frame.weights(0.25)
    _ = frame.basis
    again = pickle.loads(pickle.dumps(frame))
    assert "_weights" not in again.__dict__ and "basis" not in again.__dict__
    assert (again.n, again.cutoff) == (frame.n, frame.cutoff)
    assert np.array_equal(again.eigenvalues, frame.eigenvalues)
    assert not again.eigenvalues.flags.writeable
    assert np.array_equal(again.weights(0.25), w)
    assert again == frame and hash(again) == hash(frame)
    for other in (SpectralFrame(1, 4), SpectralFrame(2, 5)):
        assert other != frame


def test_frame_cache_by_dimension_and_cutoff(rng):
    # fields over different loops of one dimension share a frame
    J = 4
    a = frame_of(straight_loop(flat_torus(2), (1, 0)), J)
    b = frame_of(random_loop(flat_torus(2), (1, -1), J, rng), J)
    assert a is b and spectral._FRAME_CACHE[(2, J)] is a
    assert a == SpectralFrame(2, J)
    assert frame_of(straight_loop(flat_torus(3), (1, 0, 0)), J) is not a
    assert frame_of(straight_loop(flat_torus(2), (1, 0)), J + 1) is not a


def test_frame_of_rejects_cutoff_below_loop_modes(rng):
    loop = random_loop(flat_torus(2), (1, 0), 5, rng)
    with pytest.raises(ValueError):
        frame_of(loop, 4)
    assert frame_of(loop, 5).cutoff == 5


def test_embedded_form_on_circle_modes():
    # constant unit field over the n-fold circle: form value (1 + (2 pi n)^2)^r
    J = 16
    m = default_samples(J)
    ones = np.ones((m, 1))
    for n in (1, 3, 5):
        loop = straight_loop(embedded_circle(), (n,))
        frame = frame_of(loop, J)
        np.testing.assert_allclose(frame.norm(0.7, frame.coefficients(ones)), 1.0, atol=1e-12)
        ambient = embedded_metric(loop, J)
        for r in (0.25, 1.0):
            np.testing.assert_allclose(ambient.inner(r, ones, ones),
                                       (1.0 + (2.0 * np.pi * n) ** 2) ** r, rtol=1e-9)
    with pytest.raises(ValueError):
        ambient.inner(1.5, ones, ones)


def test_embedded_metric_positive_and_above_covariant(rng):
    # E >= A^2 pushes negative powers the other way (Loewner-Heinz)
    J = 8
    m = default_samples(J)
    loop = random_loop(embedded_circle(), (1,), J, rng, amplitude=0.1)
    frame = frame_of(loop, J)
    op = embedded_metric(loop, J)
    assert op.mu.min() >= 1.0 - 1e-10
    for _ in range(20):
        v = rng.standard_normal((m, 1))
        r = rng.uniform(0.0, 1.0)
        emb = math.sqrt(op.inner(-r, v, v))
        cov = frame.norm(-r, frame.coefficients(v))
        assert emb <= cov + 1e-10


def test_fit_spectrum_bounds_flat(rng):
    J = 8
    loop = random_loop(flat_torus(2), (1, -1), J, rng)
    frame = frame_of(loop, J)
    c, cap, d = fit_spectrum_bounds(frame.eigenvalues, frame.n)
    np.testing.assert_allclose([c, cap], 4.0 * np.pi ** 2, rtol=1e-12)
    assert d == 0.0


def test_spectra_rows_shape():
    J = 3
    frame = frame_of(straight_loop(flat_torus(2), (1, 0)), J)
    rows = spectra_rows(frame.eigenvalues, frame.sup_norms())
    assert len(rows) == frame.dim
    assert rows[0] == (0, 0.0, 1.0)


# Property tests over frames of every small (n, J); the hypothesis
# profile in conftest.py derandomizes them and keeps the example count small.

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def frames(draw, max_cutoff=12):
    return SpectralFrame(draw(st.integers(1, 3)), draw(st.integers(0, max_cutoff)))


@st.composite
def frame_stacks(draw):
    frame = draw(frames())
    rows = draw(st.integers(1, 6))
    return frame, draw(arrays(np.float64, (rows, frame.dim), elements=finite))


@given(frame_stacks())
def test_coefficient_roundtrip(case):
    # one field and a batch of fields, through samples and back
    frame, stack = case
    atol = 1e-12 * max(1.0, float(np.abs(stack).max()))
    np.testing.assert_allclose(frame.coefficients(frame.samples(stack)), stack, rtol=0.0,
                               atol=atol)
    np.testing.assert_allclose(frame.coefficients(frame.samples(stack[0])), stack[0],
                               rtol=0.0, atol=atol)


@given(frame_stacks(), st.floats(-1.0, 1.0))
def test_frame_norm_of_a_stack_equals_row_norms(case, r):
    frame, stack = case
    rows = [np.sqrt(np.sum((1.0 + frame.eigenvalues) ** r * c ** 2)) for c in stack]
    assert np.array_equal(frame.norm(r, stack), rows)
    assert all(frame.norm(r, c) == row for c, row in zip(stack, rows))


@given(frames(max_cutoff=32), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_weights_compose(frame, a, b):
    # the fractional powers A^a A^b = A^(a+b) of the frame are its weights
    np.testing.assert_allclose(frame.weights(a) * frame.weights(b), frame.weights(a + b),
                               rtol=1e-12, atol=0.0)


@given(st.integers(0, 16))
def test_dense_reference_matches_the_analytic_spectrum(J):
    exact = laplacian_eigenvalues(J)
    assert np.all(np.abs(dense_mode_eigenvalues(J) - exact) / (1.0 + exact) <= 1e-8)
