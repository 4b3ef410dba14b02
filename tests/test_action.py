import pickle
from dataclasses import replace

import numpy as np
import pytest

import oracles
from loopflow.action import (PhasePoint, action, classify_critical,
                             directional_derivative_check, gradient, gradient_norm, hamilton_residual, loop_energy,
                             metric_pairing, pack_coefficients, perturb,
                             random_direction, random_phase_point,
                             straight_orbit, unpack_coefficients)
from loopflow.geometry import flat_torus, random_loop, straight_loop
from loopflow.hamiltonian import radial_H
from loopflow.spectral import FiberField, SpectralFrame, frame_of


def kinetic_orbit(spec, winding=(1, 0)):
    return straight_orbit(flat_torus(len(winding)), winding, spec)


def constant_momentum_orbit(spec, rho, winding=(1, 0)):
    n = len(winding)
    v = np.asarray(winding, dtype=float)
    v = rho * v / np.linalg.norm(v)
    return straight_orbit(flat_torus(n), winding, spec, momentum=v)


def test_loop_energy():
    np.testing.assert_allclose(loop_energy(straight_loop(flat_torus(2), (1, 0))), 0.5)
    np.testing.assert_allclose(loop_energy(straight_loop(flat_torus(2), (1, 1))), 1.0)


def test_geodesic_action(spec):
    # p = qdot on the straight unit loop: A = |v|^2/2 - r
    x = kinetic_orbit(spec)
    np.testing.assert_allclose(action(x, spec), 0.5 - spec.r, atol=1e-12)
    x2 = kinetic_orbit(spec, winding=(1, 1))
    np.testing.assert_allclose(action(x2, spec), 1.0 - spec.r, atol=1e-12)


def test_radial_profile_of_action(spec):
    # constant fiber of radius rho over the unit loop: A = rho - H_r(rho)
    for rho in (0.1, 0.3, 0.55, 1.0, 1.4):
        x = constant_momentum_orbit(spec, rho)
        np.testing.assert_allclose(action(x, spec), rho - radial_H(spec, rho), atol=1e-12)


def test_geodesic_is_critical(spec):
    x = kinetic_orbit(spec)
    assert gradient_norm(x, spec) <= 1e-10
    assert hamilton_residual(x, spec) <= 1e-10


def test_fake_geodesic_is_vertically_critical(spec):
    rho_f1, _ = oracles.fake_radii()
    x = constant_momentum_orbit(spec, rho_f1)
    _, grad_v = gradient(x, spec)
    assert x.frame.norm(1.0 - spec.s, grad_v.coefficients) <= 1e-9
    np.testing.assert_allclose(action(x, spec), oracles.fake_value(spec.r), atol=1e-10)


def test_directional_derivative_matches_gradient(spec, rng):
    worst = 0.0
    for _ in range(10):
        x = random_phase_point(spec, rng)
        xi, eta = random_direction(x, rng)
        fd, exact = directional_derivative_check(x, spec, xi, eta)
        worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    assert worst <= 1e-7


def test_metric_pairing_properties(spec, rng):
    x = random_phase_point(spec, rng)
    da = random_direction(x, rng)
    db = random_direction(x, rng)
    np.testing.assert_allclose(metric_pairing(x, da, da), 1.0, rtol=1e-12)
    np.testing.assert_allclose(metric_pairing(x, da, db), metric_pairing(x, db, da),
                               rtol=1e-12)


def test_perturb_moves_non_kernel_modes(spec, rng):
    x = random_phase_point(spec, rng)
    xi, eta = random_direction(x, rng)
    y = perturb(x, 0.0, xi=xi, eta=eta)
    np.testing.assert_allclose(y.fiber.coefficients, x.fiber.coefficients)
    np.testing.assert_allclose(y.loop.cos_coeffs[: x.loop.modes], x.loop.cos_coeffs)
    z = perturb(x, 1e-3, xi=xi, eta=eta)
    assert z.loop.winding == x.loop.winding
    # anchoring survives the base shift
    np.testing.assert_allclose(z.loop.coordinates(0.0)[0], z.loop.base, atol=1e-12)


def test_classify_constant(spec):
    loop = straight_loop(flat_torus(2), (0, 0), modes=spec.J)
    frame = frame_of(loop, spec.J)
    from loopflow.action import PhasePoint
    x = PhasePoint(loop=loop, fiber=FiberField(frame, np.zeros(frame.dim)), s=spec.s)
    assert classify_critical(x, spec).kind == "constant"


def test_classify_closed_geodesic(spec):
    cls = classify_critical(kinetic_orbit(spec), spec)
    assert cls.kind == "closed-geodesic"
    assert str(cls) == "closed-geodesic"


def test_classify_fake_geodesic(spec):
    rho_f1, _ = oracles.fake_radii()
    cls = classify_critical(constant_momentum_orbit(spec, rho_f1), spec)
    assert cls.kind == "fake-geodesic"


def test_classify_on_hypersurface(spec):
    x = constant_momentum_orbit(spec, spec.rho_star)
    cls = classify_critical(x, spec)
    assert cls.kind == "on-hypersurface"
    np.testing.assert_allclose(cls.sigma, 0.0, atol=1e-12)
    assert "sigma" in str(cls)


def test_classify_straddling_is_unclassified(spec, rng):
    # fiber radius swings across several branches
    loop = straight_loop(flat_torus(2), (1, 0), modes=spec.J)
    frame = frame_of(loop, spec.J)
    c = np.zeros(frame.dim)
    c[0] = 0.45
    c[2] = 0.3  # cos mode 1: rho(t) varies in [0.15, 0.75] roughly
    from loopflow.action import PhasePoint
    x = PhasePoint(loop=loop, fiber=FiberField(frame, c), s=spec.s)
    assert classify_critical(x, spec).kind == "unclassified"


def test_pack_unpack_roundtrip(spec, rng):
    x = random_phase_point(spec, rng)
    vec = pack_coefficients(x)
    y = unpack_coefficients(x, vec)
    np.testing.assert_allclose(pack_coefficients(y), vec)
    np.testing.assert_allclose(action(y, spec), action(x, spec), rtol=1e-12)


def test_phase_point_rejects_frames_that_do_not_fit_the_loop(rng):
    loop = random_loop(flat_torus(2), (1, 0), 4, rng)
    for frame in (SpectralFrame(3, 4), SpectralFrame(2, 3)):
        with pytest.raises(ValueError):
            PhasePoint(loop=loop, fiber=FiberField(frame, np.zeros(frame.dim)), s=0.75)
    frame = SpectralFrame(2, 6)
    x = PhasePoint(loop=loop, fiber=FiberField(frame, np.zeros(frame.dim)), s=0.75)
    assert x.frame is frame


def test_states_compare_by_identity(spec, rng):
    # equal-valued copies of array-holding objects are distinct, and
    # comparing them answers instead of raising
    x = random_phase_point(spec, rng)
    for obj in (x.loop, x.fiber, x):
        copy = replace(obj)
        assert obj == obj and hash(obj) == hash(obj)
        assert (obj == copy) is False and obj != copy
        again = pickle.loads(pickle.dumps(obj))
        assert type(again) is type(obj) and again != obj
    again = pickle.loads(pickle.dumps(x))
    np.testing.assert_array_equal(again.fiber.coefficients, x.fiber.coefficients)
    assert again.loop.content_key() == x.loop.content_key()


def test_pickled_states_keep_their_arrays_read_only(spec, rng):
    # a state unpickles through the constructors, which lock their copies
    x = random_phase_point(spec, rng)
    again = pickle.loads(pickle.dumps(x))
    for old, new in ((x.fiber.coefficients, again.fiber.coefficients),
                     (x.loop.cos_coeffs, again.loop.cos_coeffs),
                     (x.loop.sin_coeffs, again.loop.sin_coeffs)):
        np.testing.assert_array_equal(new, old)
        assert not new.flags.writeable
        with pytest.raises(ValueError):
            new[0] = 1.0
