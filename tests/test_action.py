import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from loopflow.action import (PhasePoint, action, classify_critical,
                             derivative_coefficients, directional_derivative_check,
                             fiber_evaluation, gradient, gradient_norm, gradient_plan,
                             horizontal_gradient, loop_energy, metric_pairing, perturb,
                             random_direction, move_series, random_phase_point, series_velocity,
                             straight_orbit, velocity_coefficients)
from loopflow.flow import flow_velocity
from loopflow.geometry import LoopPath, embedded_circle, flat_torus, random_loop, straight_loop
from loopflow.hamiltonian import radial_H
from loopflow.spectral import FiberField, SpectralFrame, frame_of
from references import coordinates, frame_series, hamilton_residual, layout


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
    assert x.frame.norm(1.0 - spec.s, grad_v) <= 1e-9
    np.testing.assert_allclose(action(x, spec), oracles.fake_value(spec.r), atol=1e-10)


def test_directional_derivative_matches_gradient(spec, rng):
    worst = 0.0
    for _ in range(10):
        x = random_phase_point(spec, rng)
        xi, eta = random_direction(x, spec, rng)
        fd, exact = directional_derivative_check(x, spec, xi, eta)
        worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    assert worst <= 1e-7


@given(st.integers(0, 2 ** 32 - 1))
def test_directional_derivative_matches_gradient_on_random_states(spec, seed):
    # the bound of test_directional_derivative_matches_gradient, over
    # states and directions drawn from hypothesis-chosen seeds
    rng = np.random.default_rng(seed)
    x = random_phase_point(spec, rng)
    xi, eta = random_direction(x, spec, rng)
    fd, exact = directional_derivative_check(x, spec, xi, eta)
    assert abs(fd - exact) / max(1.0, abs(exact)) <= 1e-7


def test_metric_pairing_properties(spec, rng):
    x = random_phase_point(spec, rng)
    da = random_direction(x, spec, rng)
    db = random_direction(x, spec, rng)
    np.testing.assert_allclose(metric_pairing(x, spec, da, da), 1.0, rtol=1e-12)
    np.testing.assert_allclose(metric_pairing(x, spec, da, db), metric_pairing(x, spec, db, da),
                               rtol=1e-12)


def test_perturb_moves_non_kernel_modes(spec, rng):
    x = random_phase_point(spec, rng)
    xi, eta = random_direction(x, spec, rng)
    y = perturb(x, 0.0, xi=xi, eta=eta)
    np.testing.assert_allclose(y.fiber.coefficients, x.fiber.coefficients)
    np.testing.assert_allclose(y.loop.cos_coeffs[: x.loop.modes], x.loop.cos_coeffs)
    z = perturb(x, 1e-3, xi=xi, eta=eta)
    assert z.loop.winding == x.loop.winding
    # anchoring survives the base shift
    np.testing.assert_allclose(coordinates(z.loop, 0.0)[0], z.loop.base, atol=1e-12)


@pytest.mark.parametrize("modes", ["none", "half", "all"])
def test_perturb_output_is_the_padded_route_byte_for_byte(modes, spec, rng):
    # perturb pads the loop's rows with +0.0 to J modes; the result must
    # equal perturbing the loop padded beforehand, for every mode count
    J = spec.J
    k = {"none": 0, "half": J // 2, "all": J}[modes]
    loop = random_loop(flat_torus(2), (1, 0), k, rng, amplitude=0.05)
    frame = frame_of(loop, J)
    x = PhasePoint(loop=loop, fiber=FiberField(frame, rng.standard_normal(frame.dim)))
    xi, eta = random_direction(x, spec, rng)
    got = perturb(x, 0.3, xi=xi, eta=eta)
    # perturb's series arithmetic as it was before move_series: frame_series
    # of the tangent, and the base moved by eps (xa0 + sum xa)
    xa0, xa, xb = frame_series(frame, xi)
    cos, sin = (np.pad(a, ((0, J - k), (0, 0))) for a in (loop.cos_coeffs, loop.sin_coeffs))
    assert got.loop.cos_coeffs.tobytes() == (cos + 0.3 * xa).tobytes()
    assert got.loop.sin_coeffs.tobytes() == (sin + 0.3 * xb).tobytes()
    assert got.loop.base == tuple((np.asarray(loop.base) + 0.3 * (xa0 + xa.sum(axis=0))).tolist())
    assert got.loop.modes == J
    assert move_series(frame, loop.series(J), 0.3, xi).tobytes() == got.loop.series(J).tobytes()
    want = perturb(PhasePoint(loop=replace(loop, cos_coeffs=cos, sin_coeffs=sin),
                              fiber=x.fiber), 0.3, xi=xi, eta=eta)
    assert got.loop.base == want.loop.base
    assert got.loop.content_key() == want.loop.content_key()
    assert got.fiber.coefficients.tobytes() == want.fiber.coefficients.tobytes()


def test_perturb_rejects_tangents_of_another_shape(spec, rng):
    # a (1,) eta would broadcast over every fiber coefficient
    x = random_phase_point(spec, rng)
    xi, eta = random_direction(x, spec, rng)
    for bad in ({"eta": np.ones(1)}, {"xi": np.ones(1), "eta": eta}, {"xi": xi[:-1]},
                {"eta": np.stack([eta, eta])}, {"xi": x.fiber}):
        with pytest.raises(ValueError, match="tangents need shape"):
            perturb(x, 1e-3, **bad)


def test_the_metric_exponent_is_the_spec_s(spec, config, rng):
    # a state carries no regularity: evaluated at a spec with another s,
    # the gradient, its norm and the flow velocity use that spec's weights
    x = random_phase_point(spec, rng)
    other = replace(spec, s=0.6)
    frame, c = x.frame, x.fiber.coefficients
    gh, _ = gradient(x, spec)
    gh6, gv6 = gradient(x, other)
    assert action(x, other) == action(x, spec)
    # the horizontal gradient is the plan's gather times gain at s = 0.6,
    # the dp/dt formula -(1+lam)^{-0.6} (dp/dt coefficients) up to roundoff
    plan6 = gradient_plan(frame, 0.6)
    assert gh6.tobytes() == (c[plan6.partner] * plan6.gain).tobytes()
    np.testing.assert_allclose(gh6, -frame.weights(-0.6) * derivative_coefficients(frame, c),
                               rtol=1e-15, atol=0.0)
    _, dv, _ = fiber_evaluation(frame, velocity_coefficients(x.loop, frame), c, spec)
    np.testing.assert_array_equal(gv6, frame.weights(0.6 - 1.0) * dv)
    assert not np.allclose(gh6, gh)
    # the one gradient-norm formula (metric_gradient), written out at s = 0.6:
    # the s-norm of grad_h read off the block energies of c through the
    # plan's block_h, the vertical part as grad_v . dv, and the same norm
    # through grad_h itself up to roundoff
    energy = np.add.reduceat(c * c, plan6.blocks)
    norm6 = math.sqrt(energy @ (frame.weights(0.6) * plan6.gain ** 2)[plan6.blocks] + gv6 @ dv)
    assert gradient_norm(x, other) == norm6 != gradient_norm(x, spec)
    assert norm6 == pytest.approx(math.sqrt(gh6 @ (frame.weights(0.6) * gh6)
                                            + gv6 @ (frame.weights(0.4) * gv6)), rel=1e-15)
    k6 = flow_velocity(x, other, config)
    assert k6.grad_norm == gradient_norm(x, other)
    np.testing.assert_array_equal(-k6.direction[1], gv6)
    np.testing.assert_array_equal(horizontal_gradient(plan6, k6.state[1]), gh6)
    xi, eta = random_direction(x, other, rng)
    assert metric_pairing(x, other, (xi, eta), (xi, eta)) == pytest.approx(1.0, rel=1e-12)
    assert metric_pairing(x, spec, (xi, eta), (xi, eta)) != pytest.approx(1.0, rel=1e-3)


def test_classify_constant(spec):
    loop = straight_loop(flat_torus(2), (0, 0), modes=spec.J)
    frame = frame_of(loop, spec.J)
    from loopflow.action import PhasePoint
    x = PhasePoint(loop=loop, fiber=FiberField(frame, np.zeros(frame.dim)))
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
    x = PhasePoint(loop=loop, fiber=FiberField(frame, c))
    assert classify_critical(x, spec).kind == "unclassified"


def test_phase_point_rejects_frames_that_do_not_fit_the_loop(rng):
    loop = random_loop(flat_torus(2), (1, 0), 4, rng)
    for frame in (SpectralFrame(3, 4), SpectralFrame(2, 3)):
        with pytest.raises(ValueError):
            PhasePoint(loop=loop, fiber=FiberField(frame, np.zeros(frame.dim)))
    frame = SpectralFrame(2, 6)
    x = PhasePoint(loop=loop, fiber=FiberField(frame, np.zeros(frame.dim)))
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


def test_states_copy_what_a_caller_can_still_write(spec, rng):
    # a writeable array, or a read-only view of one, is copied and locked;
    # a read-only array that owns its data, as perturb's new arrays are, is
    # kept as it is.  Either way the shapes are checked.
    x = random_phase_point(spec, rng)
    frame, loop = x.frame, x.loop

    def fiber(c):
        return FiberField(frame, c).coefficients

    def loop_cos(a):
        return LoopPath(manifold=loop.manifold, winding=loop.winding, base=loop.base,
                        cos_coeffs=a, sin_coeffs=np.zeros(a.shape)).cos_coeffs

    for build, shape, bad in ((fiber, (frame.dim,), (frame.dim - 1,)),
                              (loop_cos, (spec.J, 2), (spec.J, 3))):
        owned = np.ones(shape)
        owned.flags.writeable = False
        assert build(owned) is owned
        writeable = np.ones(shape)
        view = writeable[:]
        view.flags.writeable = False
        for given in (writeable, view):
            stored = build(given)
            assert stored is not given and not stored.flags.writeable
            writeable.flat[0] = 7.0
            assert stored.flat[0] == 1.0
            writeable.flat[0] = 1.0
        sealed_bad = np.ones(bad)
        sealed_bad.flags.writeable = False
        with pytest.raises(ValueError):
            build(sealed_bad)
    xi = rng.standard_normal(frame.dim)
    moved = perturb(x, 0.01, xi=xi, eta=xi)
    for arr in (moved.fiber.coefficients, moved.loop.cos_coeffs, moved.loop.sin_coeffs):
        assert not arr.flags.writeable and arr.base is None


# velocity_coefficients as it was before it read series_velocity: the
# frame layout of the series w sin and -w cos, with w = 2 pi j as
# references.differentiate builds it, and +0.0 in the slots of modes the
# loop does not carry

def layout_velocity(loop, frame):
    w = 2.0 * np.pi * np.arange(1, frame.cutoff + 1)[:, None]
    w = w[:loop.modes]
    return layout(frame, loop.drift, w * loop.sin_coeffs, -w * loop.cos_coeffs)


@pytest.mark.parametrize("modes", [0, 4, 8])
def test_series_velocity_has_the_bits_of_the_layout_formula(modes, small_spec, rng):
    # velocity_coefficients, series_velocity of the padded series, equals
    # the layout formula by value, and by bytes that of the loop padded to
    # J = 8 modes (its padded sin slots read -0.0, the unpadded layout's
    # +0.0); row by row for a stack
    J, k = small_spec.J, modes
    for manifold, winding in ((flat_torus(2), (1, 1)), (embedded_circle(), (1,))):
        loop = random_loop(manifold, winding, k, rng)
        frame = frame_of(loop, J)
        n = frame.n
        got = velocity_coefficients(loop, frame)
        want = layout_velocity(loop, frame)
        assert np.array_equal(got, want)
        padded = loop.with_series(loop.series(J))
        assert got.tobytes() == layout_velocity(padded, frame).tobytes()
        # the one difference: the sign of zero in the padded sin slots
        pad = got[n:].reshape(J, 2, n)[k:]
        assert np.signbit(pad[:, 1]).all() and not np.signbit(pad[:, 0]).any()
        assert not np.signbit(want[n:].reshape(J, 2, n)[k:]).any()
        stack = series_velocity(frame, loop.drift, np.stack([padded.series(J), loop.series(J)]))
        assert stack[0].tobytes() == stack[1].tobytes() == got.tobytes()
