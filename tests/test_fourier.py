import numpy as np
import pytest

from loopflow.fourier import analyze, default_samples, grid, synthesize
from references import differentiate


def test_grid_and_default_samples():
    t = grid(5)
    np.testing.assert_allclose(t, [0.0, 0.2, 0.4, 0.6, 0.8])
    assert default_samples(8) == 33
    assert default_samples(0) == 1


def test_analyze_recovers_known_series():
    J = 4
    t = grid(default_samples(J))
    f = 0.7 + 1.5 * np.cos(2.0 * np.pi * 3 * t) - 0.25 * np.sin(2.0 * np.pi * t)
    a0, a, b = analyze(f, J)
    np.testing.assert_allclose(a0, [0.7], atol=1e-14)
    expect_a = np.zeros((J, 1))
    expect_a[2, 0] = 1.5
    expect_b = np.zeros((J, 1))
    expect_b[0, 0] = -0.25
    np.testing.assert_allclose(a, expect_a, atol=1e-14)
    np.testing.assert_allclose(b, expect_b, atol=1e-14)


def test_roundtrip_random_coefficients(rng):
    J, n = 6, 3
    a0 = rng.standard_normal(n)
    a = rng.standard_normal((J, n))
    b = rng.standard_normal((J, n))
    for m in (2 * J + 1, 4 * J + 1, 64):
        samples = synthesize(a0, a, b, m=m)
        a0r, ar, br = analyze(samples, J)
        np.testing.assert_allclose(a0r, a0, atol=1e-12)
        np.testing.assert_allclose(ar, a, atol=1e-12)
        np.testing.assert_allclose(br, b, atol=1e-12)


def test_analyze_rejects_coarse_grid():
    with pytest.raises(ValueError):
        analyze(np.zeros(8), 4)
    with pytest.raises(ValueError):
        synthesize(np.zeros(1), np.zeros((4, 1)), np.zeros((4, 1)), m=7)


def test_differentiate_is_exact():
    J = 3
    a0 = np.array([2.0])
    a = np.zeros((J, 1))
    b = np.zeros((J, 1))
    a[1, 0] = 1.0  # cos(4 pi t)
    d0, da, db = differentiate(a0, a, b)
    # d/dt cos(2 pi j t) = -2 pi j sin(2 pi j t)
    np.testing.assert_allclose(d0, [0.0])
    np.testing.assert_allclose(da, np.zeros((J, 1)))
    expect = np.zeros((J, 1))
    expect[1, 0] = -4.0 * np.pi
    np.testing.assert_allclose(db, expect)


def test_mean_quadrature_exact_for_products(rng):
    # products of degree-J series integrate exactly on 4J+1 nodes
    J = 4
    a0 = rng.standard_normal(1)
    a = rng.standard_normal((J, 1))
    b = rng.standard_normal((J, 1))
    f = synthesize(a0, a, b, m=default_samples(J))[:, 0]
    mean_sq = float(np.mean(f ** 2))
    parseval = float(a0[0] ** 2 + 0.5 * np.sum(a ** 2) + 0.5 * np.sum(b ** 2))
    np.testing.assert_allclose(mean_sq, parseval, rtol=1e-13)
