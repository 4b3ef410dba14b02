import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from loopflow import spectral
from loopflow.fourier import analyze, default_samples, grid, synthesize
from loopflow.geometry import embedded_circle, flat_torus, random_loop, straight_loop
from loopflow.spectral import (SpectralFrame, dense_eigenvalues, dense_mode_eigenvalues,
                               embedded_metric, fit_spectrum_bounds, frame_of,
                               laplacian_eigenvalues, spectra_rows)
from references import frame_series, layout


def filled_eigenvalues(n, J, per_mode):
    # the (D,) eigenvalue fill as it was: the kernel, then each mode 2n times
    lam = np.empty(n * (2 * J + 1))
    lam[:n] = per_mode[0]
    lam[n:] = np.repeat(per_mode[1:], 2 * n)
    return lam


def test_frame_layout_and_eigenvalues():
    J, n = 6, 2
    frame = frame_of(straight_loop(flat_torus(n), (1, 0)), J)
    assert frame.dim == n * (2 * J + 1)
    lam = frame.eigenvalues
    assert np.count_nonzero(lam == 0.0) == n
    np.testing.assert_allclose(lam[:n], 0.0)
    jj = np.repeat(np.arange(1, J + 1), 2 * n)
    np.testing.assert_allclose(lam[n:], (2.0 * np.pi * jj) ** 2, rtol=1e-13)
    for n in (1, 2, 3):
        for J in (1, 8, 32):
            exact = laplacian_eigenvalues(J)
            assert SpectralFrame(n, J).eigenvalues.tobytes() == \
                filled_eigenvalues(n, J, exact).tobytes()


def test_analytic_spectrum_against_dense_collocation():
    J = 8
    per_mode = dense_mode_eigenvalues(J)
    np.testing.assert_allclose(per_mode, laplacian_eigenvalues(J), rtol=1e-10, atol=1e-8)
    np.testing.assert_allclose(dense_eigenvalues(2, J), SpectralFrame(2, J).eigenvalues,
                               rtol=1e-10, atol=1e-8)
    for J in (1, 8, 32):
        dense = dense_mode_eigenvalues(J)
        for n in (1, 2, 3):
            assert dense_eigenvalues(n, J).tobytes() == filled_eigenvalues(n, J, dense).tobytes()


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


def _basis_samples_by_mode(frame, m):
    # the per-(mode, coordinate) loop over the canonical ordering that
    # basis_samples replaced with whole-array indexing
    n, J = frame.n, frame.cutoff
    t = grid(m)
    out = np.zeros((frame.dim, m, n))
    for k in range(n):
        out[k, :, k] = 1.0
    for j in range(1, J + 1):
        c = spectral.SQ2 * np.cos(2.0 * np.pi * j * t)
        s = spectral.SQ2 * np.sin(2.0 * np.pi * j * t)
        for k in range(n):
            out[n + (j - 1) * 2 * n + k, :, k] = c
            out[n + (j - 1) * 2 * n + n + k, :, k] = s
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("J", [1, 8, 32, 64])
def test_basis_samples_and_sup_norms_match_the_mode_loop_bytes(n, J):
    frame = SpectralFrame(n, J)
    for m in (4 * J + 1, 2 * J + 2):
        assert frame.basis_samples(m).tobytes() == _basis_samples_by_mode(frame, m).tobytes()
    sup = np.full(frame.dim, np.sqrt(2.0))
    sup[:n] = 1.0
    assert frame.sup_norms().tobytes() == sup.tobytes()


def dense_ambient_form(loop, cutoff):
    # the compressed ambient form as embedded_metric once assembled it:
    # one BLAS product of the weighted and plain (D, m n) eigenfield samples
    frame = frame_of(loop, cutoff)
    basis = frame.basis_samples()
    D, m, _ = basis.shape
    weight = (loop.manifold.embedding_curvatures * loop.velocity_samples(m)) ** 2
    form = (basis * weight).reshape(D, -1) @ basis.reshape(D, -1).T / m
    form[np.diag_indices(D)] += 1.0 + frame.eigenvalues
    return form


def test_embedded_metric_form_matches_the_dense_basis_product(monkeypatch):
    # the form embedded_metric diagonalizes, caught at its eigensolve
    forms = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: forms.append(a) or eigh(a))
    J = 8
    loops = [straight_loop(embedded_circle(), (k,)) for k in range(1, 9)]
    loops.append(random_loop(flat_torus(2), (1, 0), J, np.random.default_rng(3), amplitude=0.05))
    for loop in loops:
        embedded_metric(loop, J)
        ref = dense_ambient_form(loop, J)
        assert forms[-1].shape == ref.shape
        assert np.max(np.abs(forms[-1] - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def test_frame_pickle_drops_cached_weights():
    frame = SpectralFrame(2, 4)
    w = frame.weights(0.25)
    c = np.arange(frame.dim, dtype=float)
    samples = frame.samples(c)
    _ = frame.coefficients(samples), frame._derivative_map
    cached = ("_weights", "_spectra", "_modes", "_derivative_map")
    assert all(name in frame.__dict__ for name in cached)
    again = pickle.loads(pickle.dumps(frame))
    assert not any(name in again.__dict__ for name in cached)
    assert again.samples(c).tobytes() == samples.tobytes()
    assert (again.n, again.cutoff) == (frame.n, frame.cutoff)
    assert np.array_equal(again.eigenvalues, frame.eigenvalues)
    assert not again.eigenvalues.flags.writeable
    assert np.array_equal(again.weights(0.25), w)
    assert again == frame and hash(again) == hash(frame)
    for other in (SpectralFrame(1, 4), SpectralFrame(2, 5)):
        assert other != frame


# samples and coefficients index the rfft spectrum directly, one field
# at a time; the references are the trig-series route through
# fourier.synthesize and fourier.analyze, which must agree bit for bit
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("J", [1, 8, 32, 64])
def test_frame_transforms_equal_the_series_route_bit_for_bit(n, J):
    frame = SpectralFrame(n, J)
    rng = np.random.default_rng([n, J])
    for m in (default_samples(J), 2 * J + 2):
        stack = []
        for _ in range(6):
            c = rng.standard_normal(frame.dim)
            got = frame.samples(c, m)
            assert got.tobytes() == synthesize(*frame_series(frame, c), m=m).tobytes()
            assert got.shape == (m, n) and got.T.flags.c_contiguous
            samples = rng.standard_normal((m, n))
            got = frame.coefficients(samples)
            assert got.tobytes() == layout(frame, *analyze(samples, J)).tobytes()
            assert got.shape == (frame.dim,) and got.flags.c_contiguous
            stack.append(got)
        # the norm of a stack of fields is each field's norm
        for r in (0.25, -0.75):
            rows = [frame.norm(r, row) for row in stack]
            assert frame.norm(r, np.stack(stack)).tobytes() == np.array(rows).tobytes()
    for bad in (lambda: frame.samples(np.zeros(frame.dim), 2 * J),
                lambda: frame.samples(np.zeros(frame.dim - 1)),
                lambda: frame.samples(np.zeros(1)),
                lambda: frame.samples(np.zeros((2, frame.dim))),
                lambda: frame.coefficients(np.zeros((2 * J, n))),
                lambda: frame.coefficients(np.zeros((4 * J + 1, n + 1))),
                lambda: frame.coefficients(np.zeros(4 * J + 1)),
                lambda: frame.coefficients(np.zeros((2, 4 * J + 1, n)))):
        with pytest.raises(ValueError):
            bad()


# samples are held coordinate-major, (n, m) in memory behind an (m, n)
# view, so both transforms run along contiguous memory; the coefficients
# do not depend on the layout of the samples they are given
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("J", [1, 8, 32, 64])
def test_frame_transforms_run_along_the_coordinate_major_layout(n, J):
    frame = SpectralFrame(n, J)
    rng = np.random.default_rng([n, J, 2])
    for m in (default_samples(J), 2 * J + 2):
        for _ in range(6):
            c = rng.standard_normal(frame.dim)
            got = frame.samples(c, m)
            assert got.tobytes() == synthesize(*frame_series(frame, c), m=m).tobytes()
            assert got.shape == (m, n) and got.T.flags.c_contiguous
            values = rng.standard_normal((m, n))
            held = np.ascontiguousarray(values.T).T
            assert np.array_equal(held, values) and held.T.flags.c_contiguous
            want = frame.coefficients(values)
            assert want.tobytes() == layout(frame, *analyze(values, J)).tobytes()
            got = frame.coefficients(held)
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and want.flags.c_contiguous


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
    ones = np.ones((default_samples(J), 1))
    for n in (1, 3, 5):
        loop = straight_loop(embedded_circle(), (n,))
        frame = frame_of(loop, J)
        c = frame.coefficients(ones)
        np.testing.assert_allclose(frame.norm(0.7, c), 1.0, atol=1e-12)
        ambient = embedded_metric(loop, J)
        for r in (0.25, 1.0):
            np.testing.assert_allclose(ambient.norm(r, c) ** 2,
                                       (1.0 + (2.0 * np.pi * n) ** 2) ** r, rtol=1e-9)
    with pytest.raises(ValueError):
        ambient.norm(1.5, c)


def test_embedded_metric_positive_and_above_covariant(rng):
    # E >= A^2 pushes negative powers the other way (Loewner-Heinz)
    J = 8
    m = default_samples(J)
    loop = random_loop(embedded_circle(), (1,), J, rng, amplitude=0.1)
    frame = frame_of(loop, J)
    op = embedded_metric(loop, J)
    assert op.mu.min() >= 1.0 - 1e-10
    for _ in range(20):
        c = frame.coefficients(rng.standard_normal((m, 1)))
        r = rng.uniform(0.0, 1.0)
        assert op.norm(-r, c) <= frame.norm(-r, c) + 1e-10


def test_embedded_metric_rejects_cutoff_below_loop_modes(rng):
    loop = random_loop(embedded_circle(), (1,), 5, rng)
    with pytest.raises(ValueError):
        embedded_metric(loop, 4)


def _reference_ambient_form(loop, J, r, xi):
    # the former per-coordinate assembly: its own coefficient rows
    # [a0; a/sqrt2; b/sqrt2], a hand-built cos/sin sample matrix and one
    # eigensolve per coordinate; returns the r-form of the sampled field xi
    n = loop.manifold.dim
    m = default_samples(J)
    t = grid(m)
    weight = (loop.manifold.embedding_curvatures[None, :] * loop.velocity_samples(m)) ** 2
    jj = np.arange(1, J + 1)
    lam = (2.0 * np.pi * jj) ** 2
    diag_l = np.concatenate([[1.0], 1.0 + lam, 1.0 + lam])
    B = np.empty((m, 2 * J + 1))
    B[:, 0] = 1.0
    B[:, 1:J + 1] = np.sqrt(2.0) * np.cos(2.0 * np.pi * np.outer(t, jj))
    B[:, J + 1:] = np.sqrt(2.0) * np.sin(2.0 * np.pi * np.outer(t, jj))
    a0, a, b = analyze(xi, J)
    cx = np.concatenate([a0[None, :], a / np.sqrt(2.0), b / np.sqrt(2.0)], axis=0)
    form = 0.0
    for k in range(n):
        vals, V = np.linalg.eigh(np.diag(diag_l) + B.T @ (weight[:, k:k + 1] * B) / m)
        y = V.T @ cx[:, k]
        form += float(np.sum(vals ** r * y ** 2))
    return form


def test_ambient_norm_matches_the_per_coordinate_reference():
    # straight circle loops of winding 1..8, perturbed circle loops and a
    # perturbed 2-torus loop; a stack of fields measured at once
    J = 16
    m = default_samples(J)
    loops = [straight_loop(embedded_circle(), (w,)) for w in range(1, 9)]
    loops += [random_loop(embedded_circle(), (1,), J, np.random.default_rng([15, k]),
                          amplitude=0.1) for k in range(3)]
    loops.append(random_loop(flat_torus(2), (1, -1), J, np.random.default_rng(15)))
    for k, loop in enumerate(loops):
        frame = frame_of(loop, J)
        ambient = embedded_metric(loop, J)
        fields = np.random.default_rng([16, k]).standard_normal((3, m, frame.n))
        c = np.stack([frame.coefficients(xi) for xi in fields])
        for r in (-1.0, -0.5, 0.0, 0.5, 1.0):
            ref = [_reference_ambient_form(loop, J, r, xi) for xi in fields]
            np.testing.assert_allclose(ambient.norm(r, c) ** 2, ref, rtol=1e-12, atol=0.0)


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
    # each field of a stack, through samples and back
    frame, stack = case
    atol = 1e-12 * max(1.0, float(np.abs(stack).max()))
    for c in stack:
        np.testing.assert_allclose(frame.coefficients(frame.samples(c)), c, rtol=0.0, atol=atol)


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
