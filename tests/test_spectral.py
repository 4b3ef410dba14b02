import pickle

import numpy as np
import pytest

import oracles
from loopflow.fourier import default_samples, grid
from loopflow.geometry import embedded_circle, flat_torus, random_loop, straight_loop
from loopflow.spectral import (FiberField, dense_mode_eigenvalues,
                               eigendecompose, embedded_metric, fit_spectrum_bounds,
                               fractional_apply, frame_of, inner_r_emb,
                               laplacian_eigenvalues, norm_r, norm_r_emb, project,
                               spectra_rows)


def test_frame_layout_and_eigenvalues():
    J, n = 6, 2
    frame = frame_of(straight_loop(flat_torus(n), (1, 0)), J)
    assert frame.dim == n * (2 * J + 1)
    assert frame.kernel_dim == n
    lam = frame.eigenvalues
    np.testing.assert_allclose(lam[:n], 0.0)
    jj = np.repeat(np.arange(1, J + 1), 2 * n)
    np.testing.assert_allclose(lam[n:], (2.0 * np.pi * jj) ** 2, rtol=1e-13)


def test_analytic_spectrum_against_dense_collocation():
    J = 8
    per_mode = dense_mode_eigenvalues(J)
    np.testing.assert_allclose(per_mode, laplacian_eigenvalues(J), rtol=1e-10, atol=1e-8)
    dense = eigendecompose(2, J, method="dense")
    analytic = eigendecompose(2, J, method="analytic")
    np.testing.assert_allclose(dense.eigenvalues, analytic.eigenvalues, rtol=1e-10, atol=1e-8)


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
    fld = project(frame, frame.samples(c, default_samples(J)))
    for r in (0.0, 0.3, 1.0, -0.5):
        np.testing.assert_allclose(norm_r(frame, r, fld), (1.0 + lam) ** (0.5 * r),
                                   rtol=1e-12)


def test_frame_weights_are_computed_once_and_read_only():
    frame = eigendecompose(2, 6)
    for r in (0.75, 0.25, -0.75, 0.5, -0.375):
        w = frame.weights(r)
        assert np.array_equal(w, (1.0 + frame.eigenvalues) ** r)
        assert frame.weights(r) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 2.0


def test_frame_pickle_drops_cached_weights_and_basis():
    frame = eigendecompose(2, 4)
    w = frame.weights(0.25)
    _ = frame.basis
    again = pickle.loads(pickle.dumps(frame))
    assert "_weights" not in again.__dict__ and "basis" not in again.__dict__
    assert (again.n, again.cutoff, again.method) == (frame.n, frame.cutoff, frame.method)
    assert np.array_equal(again.eigenvalues, frame.eigenvalues)
    assert np.array_equal(again.weights(0.25), w)
    assert again == frame and hash(again) == hash(frame)
    for other in (eigendecompose(1, 4), eigendecompose(2, 5), eigendecompose(2, 4, "dense")):
        assert other != frame


def test_frame_norm_of_a_stack_equals_row_norms(rng):
    frame = eigendecompose(2, 5)
    stack = rng.standard_normal((7, frame.dim))
    for r in (0.25, -0.75, 1.0):
        rows = [np.sqrt(np.sum((1.0 + frame.eigenvalues) ** r * c ** 2)) for c in stack]
        assert np.array_equal(frame.norm(r, stack), rows)
        assert frame.norm(r, stack[3]) == rows[3]
        assert FiberField(frame, stack[3]).norm_r(r) == rows[3]


def test_fractional_apply_composes(rng):
    J = 6
    frame = frame_of(straight_loop(flat_torus(2), (1, 0)), J)
    from loopflow.spectral import FiberField
    v = FiberField(frame, rng.standard_normal(frame.dim))
    w = fractional_apply(frame, 0.4, fractional_apply(frame, 0.35, v))
    direct = fractional_apply(frame, 0.75, v)
    np.testing.assert_allclose(w.coefficients, direct.coefficients, rtol=1e-12)
    ident = fractional_apply(frame, 0.0, v)
    np.testing.assert_allclose(ident.coefficients, v.coefficients)


def test_field_algebra_rejects_mismatched_frames(rng):
    # fields over different loops share a frame and combine; fields of
    # another cutoff or another dimension do not
    J = 3
    from loopflow.spectral import FiberField

    def field(n, winding, cutoff):
        frame = frame_of(straight_loop(flat_torus(n), winding), cutoff)
        return FiberField(frame, rng.standard_normal(frame.dim))

    va = field(2, (1, 0), J)
    vb = field(2, (0, 1), J)
    np.testing.assert_array_equal((va + vb).coefficients, va.coefficients + vb.coefficients)
    for other in (field(2, (1, 0), J + 1), field(3, (1, 0, 0), J)):
        with pytest.raises(ValueError):
            _ = va + other
        with pytest.raises(ValueError):
            _ = va - other


def test_frame_cache_by_dimension_cutoff_method(rng):
    J = 4
    a = frame_of(straight_loop(flat_torus(2), (1, 0)), J)
    b = frame_of(random_loop(flat_torus(2), (1, -1), J, rng), J)
    assert a is b
    assert (a.n, a.cutoff, a.method) == (2, J, "analytic")
    assert frame_of(straight_loop(flat_torus(3), (1, 0, 0)), J) is not a
    assert frame_of(straight_loop(flat_torus(2), (1, 0)), J, method="dense") is not a


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
        fld = project(frame, ones)
        np.testing.assert_allclose(norm_r(frame, 0.7, fld), 1.0, atol=1e-12)
        for r in (0.25, 1.0):
            form = inner_r_emb(loop, r, ones, ones, cutoff=J)
            np.testing.assert_allclose(form, (1.0 + (2.0 * np.pi * n) ** 2) ** r,
                                       rtol=1e-9)
    with pytest.raises(ValueError):
        inner_r_emb(loop, 1.5, ones, ones, cutoff=J)


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
        emb = norm_r_emb(loop, -r, v, cutoff=J)
        cov = norm_r(frame, -r, project(frame, v))
        assert emb <= cov + 1e-10


def test_fit_spectrum_bounds_flat(rng):
    J = 8
    loop = random_loop(flat_torus(2), (1, -1), J, rng)
    c, cap, d = fit_spectrum_bounds(frame_of(loop, J))
    np.testing.assert_allclose([c, cap], 4.0 * np.pi ** 2, rtol=1e-12)
    assert d == 0.0


def test_spectra_rows_shape():
    J = 3
    frame = frame_of(straight_loop(flat_torus(2), (1, 0)), J)
    rows = spectra_rows(frame)
    assert len(rows) == frame.dim
    assert rows[0] == (0, 0.0, 1.0)
