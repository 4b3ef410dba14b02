"""The fused action-and-gradient evaluation against the separate formulas.

The reference functions below are the straightforward per-quantity
formulas: the action from sampled velocity and one radial_H call per
derivative order, the vertical gradient from the analysis of the
sampled defect qdot - dH/dp.  The evaluation (metric_gradient) must
agree with them to roundoff on random phase points, and its single H
pass must agree with the per-order chi/phi formulas bit for bit.
action, gradient and gradient_norm are the parts of one metric_gradient
call, byte for byte.  Where every sampled radius lies in the quadratic
zone, fiber_evaluation's closed form must agree with the evaluation that
sends every radius through radial_H_jet to roundoff, and where every
radius lies on the phi tail it must equal that evaluation byte for byte.
metric_gradient certifies the zone from the coefficients alone and then
makes no transform: what it certifies must lie in the zone, and its
closed form must agree with the jet path to roundoff.  The evaluation as
it was before the stage kernel went lean (former_fiber_evaluation,
former_metric_gradient and the flow kernel around them) is kept as a
reference, and the lean stage must agree with it on every branch, on
flows and on the work the flows do.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loopflow.action as action_mod
import loopflow.flow as flow_mod
from loopflow import fourier, spectral
from loopflow.action import (QUADRATIC_TOP, PhasePoint, action, derivative_coefficients,
                             fiber_evaluation, gradient, gradient_norm, gradient_plan,
                             hamilton_residual, horizontal_gradient, loop_energy,
                             metric_gradient, move_series, quadratic_zone_energy,
                             random_phase_point, velocity_coefficients)
from loopflow.flow import FlowConfig, flow, speed_cutoff
from loopflow.geometry import embedded_circle, flat_torus, random_loop, straight_loop
from loopflow.hamiltonian import chi, default_spec, phi, radial_H, radial_H_jet
from loopflow.spectral import SQ2, FiberField, SpectralFrame, frame_of


def reference_radial_H(spec, rho, order):
    # one branch formula per derivative order, straight from chi and phi
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    out = np.zeros_like(rho)
    mid = (rho >= lo) & (rho <= hi) & (rho > 0.0)
    top = rho > spec.rho1
    sig = np.log(rho[mid] / spec.rho_star)
    if order == 0:
        out[mid] = spec.r * chi(spec, sig)
        out[rho > hi] = spec.r
        out[top] = spec.r + phi(spec, rho[top])
    elif order == 1:
        out[mid] = spec.r * chi(spec, sig, order=1) / rho[mid]
        out[top] = phi(spec, rho[top], order=1)
    else:
        out[mid] = spec.r * (chi(spec, sig, order=2) - chi(spec, sig, order=1)) / rho[mid] ** 2
        out[top] = phi(spec, rho[top], order=2)
    return out


def reference_terms(x, spec):
    # (action, vertical gradient) from sampled velocity and fiber
    frame = x.frame
    m = fourier.default_samples(frame.cutoff)
    qdot = x.loop.velocity_samples(m)
    p = frame.samples(x.fiber.coefficients, m)
    rho = np.linalg.norm(p, axis=1)
    a = frame.coefficients(qdot) @ x.fiber.coefficients - np.mean(reference_radial_H(spec, rho, 0))
    scale = np.divide(reference_radial_H(spec, rho, 1), rho, out=np.zeros_like(rho),
                      where=rho > 0.0)
    dpH = scale[:, None] * p
    lam = frame.eigenvalues
    return a, (1.0 + lam) ** (spec.s - 1.0) * frame.coefficients(qdot - dpH)


def reference_derivative(frame, c):
    # the per-mode block formula: cos_j <- 2 pi j sin_j, sin_j <- -2 pi j cos_j
    n = frame.n
    J = frame.cutoff
    out = np.zeros_like(c)
    if J == 0:
        return out
    shape = c.shape[:-1] + (J, 2, n)
    block = c[..., n:].reshape(shape)
    w = 2.0 * np.pi * np.arange(1, J + 1)[:, None]
    oblock = out[..., n:].reshape(shape)
    oblock[..., 0, :] = w * block[..., 1, :]
    oblock[..., 1, :] = -w * block[..., 0, :]
    return out


def random_point(spec, manifold, winding, modes, rng):
    loop = random_loop(manifold, winding, modes, rng, amplitude=0.05)
    frame = frame_of(loop, spec.J)
    c = 0.3 * rng.standard_normal(frame.dim) / (1.0 + frame.eigenvalues) ** 0.75
    c[:manifold.dim] += loop.drift / np.linalg.norm(loop.drift) * rng.uniform(0.1, 1.0)
    return PhasePoint(loop=loop, fiber=FiberField(frame, c))


MODELS = [(flat_torus(2), (1, 0)), (flat_torus(2), (1, 1)), (embedded_circle(), (1,))]


@pytest.mark.parametrize("J", [1, 8, 32])
@pytest.mark.parametrize("model", range(len(MODELS)))
def test_evaluator_matches_separate_formulas(J, model):
    spec = default_spec(J=J)
    manifold, winding = MODELS[model]
    rng = np.random.default_rng([J, model])
    for modes in sorted({0, J // 2, J}):
        for _ in range(3):
            x = random_point(spec, manifold, winding, modes, rng)
            a_ref, gv_ref = reference_terms(x, spec)
            frame, c = x.frame, x.fiber.coefficients
            plan = gradient_plan(frame, spec.s)
            a, gv, _ = metric_gradient(plan, velocity_coefficients(x.loop, frame), c, spec)
            gh = horizontal_gradient(plan, c)
            scale = 1.0 + np.max(np.abs(c)) + np.max(np.abs(x.loop.drift))
            assert abs(a - a_ref) <= 1e-13 * scale
            np.testing.assert_allclose(gv, gv_ref, rtol=0.0, atol=1e-13 * scale)
            # the horizontal gradient is the plan's gather times gain, the
            # dp/dt formula -(1+lam)^{-s} (dp/dt coefficients) up to roundoff
            assert gh.tobytes() == (c[plan.partner] * plan.gain).tobytes()
            np.testing.assert_allclose(
                gh, -((1.0 + frame.eigenvalues) ** (-spec.s)) * derivative_coefficients(frame, c),
                rtol=1e-15, atol=0.0)
            # the callers read the same evaluation
            assert action(x, spec) == a
            grad_h, grad_v = gradient(x, spec)
            np.testing.assert_array_equal(grad_h, gh)
            np.testing.assert_array_equal(grad_v, gv)


def test_action_gradient_and_norm_are_one_metric_gradient(monkeypatch, rng):
    # on an uncertified state and on one whose fiber the certificate puts
    # in the quadratic zone, action, gradient and gradient_norm each make
    # one metric_gradient call and return its parts, byte for byte
    spec = default_spec()
    x = random_phase_point(spec, np.random.default_rng(5))
    frame = x.frame
    plan = gradient_plan(frame, spec.s)
    states = []
    for kernel in ((0.5, 0.1), (3.0, 1.0)):
        c = x.fiber.coefficients.copy()
        c[:2] = kernel
        states.append(PhasePoint(loop=x.loop, fiber=FiberField(frame, c)))
    for state, certified in zip(states, (False, True)):
        c = state.fiber.coefficients
        assert (quadratic_zone_energy(plan, c, spec.rho1) is not None) is certified
        a, gv, gn = metric_gradient(plan, velocity_coefficients(state.loop, frame), c, spec)
        gh = horizontal_gradient(plan, c)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(action_mod, "metric_gradient",
                      lambda *args: calls.append(1) or metric_gradient(*args))
            got_a = action(state, spec)
            assert len(calls) == 1
            got_h, got_v = gradient(state, spec)
            assert len(calls) == 2
            got_n = gradient_norm(state, spec)
            assert len(calls) == 3
        assert type(got_a) is float and got_a == a
        assert got_h.tobytes() == gh.tobytes() and got_v.tobytes() == gv.tobytes()
        assert got_n == gn
    # loop_energy, the kinetic energy by Parseval, is half the grid mean of
    # |qdot|^2: over 4J+1 nodes that mean is exact for the degree-2J square
    nodes = fourier.default_samples(8)
    loops = [straight_loop(flat_torus(2), (0, 0)), straight_loop(flat_torus(2), (2, -1))]
    for manifold, winding in MODELS:
        loops += [random_loop(manifold, winding, modes, rng) for modes in (1, 3, 8)]
    for loop in loops:
        want = 0.5 * np.mean(np.sum(loop.velocity_samples(nodes) ** 2, axis=1))
        assert abs(loop_energy(loop) - want) <= 1e-14 * want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("J", [0, 1, 8, 32])
def test_derivative_coefficients_equal_the_block_formula(n, J):
    frame = SpectralFrame(n, J)
    rng = np.random.default_rng([n, J, 2])
    for c in (rng.standard_normal(frame.dim), rng.standard_normal((4, frame.dim)),
              np.eye(frame.dim)):
        got = derivative_coefficients(frame, c)
        assert got.tobytes() == reference_derivative(frame, c).tobytes()
        assert got.flags.c_contiguous
        # the kernel entries are +0.0, whatever the sign of what is gathered there
        assert not np.signbit(got[..., :n]).any()


def test_velocity_coefficients_are_the_analyzed_samples(rng):
    spec = default_spec(J=8)
    for manifold, winding in MODELS:
        for modes in (0, 3, 8):
            loop = random_loop(manifold, winding, modes, rng)
            frame = frame_of(loop, spec.J)
            m = fourier.default_samples(spec.J)
            np.testing.assert_allclose(velocity_coefficients(loop, frame),
                                       frame.coefficients(loop.velocity_samples(m)),
                                       rtol=0.0, atol=1e-13)


def test_hamilton_residual_matches_sampled_defect(spec, rng):
    x = random_point(spec, flat_torus(2), (1, 0), 5, rng)
    m = fourier.default_samples(spec.J)
    p = x.frame.samples(x.fiber.coefficients, m)
    rho = np.linalg.norm(p, axis=1)
    dpH = (reference_radial_H(spec, rho, 1) / rho)[:, None] * p
    res_q = math.sqrt(np.mean(np.sum((x.loop.velocity_samples(m) - dpH) ** 2, axis=1)))
    pdot = derivative_coefficients(x.frame, x.fiber.coefficients)
    np.testing.assert_allclose(hamilton_residual(x, spec), res_q + np.linalg.norm(pdot),
                               rtol=1e-13)


def test_single_H_pass_is_exact_on_every_branch(spec):
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    r1 = spec.rho1
    branches = {
        "zero": np.array([0.0, 1e-3, 0.5 * lo, np.nextafter(lo, 0.0)]),
        "band": np.concatenate([[lo, hi], np.linspace(lo, hi, 17)[1:-1]]),
        "plateau": np.array([np.nextafter(hi, 1.0), 0.5 * (hi + r1), r1]),
        "transition": np.concatenate([[np.nextafter(r1, 1.0)], np.linspace(r1, 2 * r1, 9)[1:]]),
        "quadratic": np.array([2.0 * r1 + 1e-9, 1.0, 3.0, 10.0]),
    }
    for rho in [*branches.values(), np.concatenate(list(branches.values()))]:
        jet = radial_H_jet(spec, rho)
        for order in (0, 1, 2):
            np.testing.assert_array_equal(jet[order], reference_radial_H(spec, rho, order))
            np.testing.assert_array_equal(radial_H(spec, rho, order), jet[order])
    for value in (0.1, spec.rho_star, 0.35, 0.6, 1.2):
        for order in (0, 1, 2):
            out = radial_H(spec, value, order)
            assert isinstance(out, float)
            assert out == reference_radial_H(spec, np.array([value]), order)[0]
    with pytest.raises(ValueError):
        radial_H(spec, np.array([0.3]), order=3)


def test_H_jet_of_whole_branch_batches(spec):
    # an all-tail batch is computed on the whole array, the others by
    # gather and scatter; both equal the per-order formulas
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    rng = np.random.default_rng(11)
    batches = {
        "top": rng.uniform(np.nextafter(spec.rho1, 1.0), 3.0, (4, 33)),
        "band": rng.uniform(lo, hi, (4, 33)),
        "zero": np.zeros((4, 33)),
        "mixed": np.stack([rng.uniform(0.0, 3.0, 33), rng.uniform(lo, hi, 33),
                           np.full(33, 2.0), np.zeros(33)]),
    }
    for rho in batches.values():
        for order in (1, 2):
            jet = radial_H_jet(spec, rho, order=order)
            assert len(jet) == order + 1
            for k, values in enumerate(jet):
                assert values.shape == rho.shape and values.flags.c_contiguous
                np.testing.assert_array_equal(values, reference_radial_H(spec, rho, k))


def reference_fiber_evaluation(frame, qd, c, spec):
    # fiber_evaluation without its quadratic zone and its tail branch:
    # every radius goes through radial_H_jet
    p_samp = frame.samples(c)
    rho = np.sqrt((p_samp * p_samp).sum(axis=-1))
    h0, h1 = radial_H_jet(spec, rho, order=1)
    scale = np.divide(h1, rho, out=np.zeros_like(rho), where=rho > 0.0)
    dpH = scale[:, None] * p_samp
    a = np.vecdot(c, qd) - h0.sum() / rho.size
    return float(a), qd - frame.coefficients(dpH), dpH


def former_fiber_evaluation(frame, qd, c, spec):
    # fiber_evaluation as it was before the lean stage kernel: in the
    # sampled quadratic zone H = r + rho^2/2 at every node and dH/dp = p,
    # analyzed by an rfft; every other fiber through radial_H_jet
    p_samp = frame.samples(c)
    rho = np.sqrt((p_samp * p_samp).sum(axis=-1))
    if rho.min() >= 2.0 * spec.rho1 and rho.max() <= QUADRATIC_TOP:
        h0 = spec.r + 0.5 * rho ** 2
        dpH = p_samp
    else:
        h0, h1 = radial_H_jet(spec, rho, order=1)
        scale = np.divide(h1, rho, out=np.zeros_like(rho), where=rho > 0.0)
        dpH = scale[:, None] * p_samp
    a = np.vecdot(c, qd) - h0.sum() / rho.size
    return float(a), qd - frame.coefficients(dpH), dpH


def formed_gradient(plan, spec, a, c, dv):
    # (action, grad_h, grad_v, grad_norm) as metric_gradient returned them
    # before the lean stage kernel: grad_h formed, the norm measured on it
    grad_h = c[plan.partner] * plan.gain
    grad_v = plan.scale_v * dv
    weight_h = plan.frame.weights(spec.s)
    return a, grad_h, grad_v, math.sqrt(grad_h @ (weight_h * grad_h)
                                        + grad_v @ (plan.weight_v * grad_v))


def former_metric_gradient(plan, qd, c, spec):
    # metric_gradient as it was before the lean stage kernel: the
    # certificate's closed form, else former_fiber_evaluation
    energy = quadratic_zone_energy(plan, c, spec.rho1)
    if energy is None:
        a, dv, _ = former_fiber_evaluation(plan.frame, qd, c, spec)
    else:
        a, dv = float(c @ qd) - (spec.r + 0.5 * energy), qd - c
    return formed_gradient(plan, spec, a, c, dv)


def reference_metric_gradient(plan, qd, c, spec):
    # metric_gradient with no certificate: every call samples the fiber
    # and sends every radius through radial_H_jet
    a, dv, _ = reference_fiber_evaluation(plan.frame, qd, c, spec)
    return formed_gradient(plan, spec, a, c, dv)


def sampled_radii(frame, c, m=None):
    p = frame.samples(c, m)
    return np.sqrt((p * p).sum(axis=-1))


def with_smallest_radius(frame, c, target):
    """c rescaled so that its smallest sampled radius is near target, then
    its second kernel coefficient moved an ulp at a time until that
    radius is exactly target."""
    c = c * (target / sampled_radii(frame, c).min())
    for _ in range(400):
        lo = sampled_radii(frame, c).min()
        if lo == target:
            return c
        c[1] = np.nextafter(c[1], np.inf if lo < target else -np.inf)
    raise AssertionError(f"no fiber with smallest radius {target!r}")


def zone_cases():
    """The frame and loop velocity of one state, and the cases over them:
    (name, fiber coefficients, r or None for the default spec's, the
    branch of fiber_evaluation its sampled radii choose: "zone", "tail"
    or "jet")."""
    spec = default_spec()
    x = random_phase_point(spec, np.random.default_rng(3))
    frame = x.frame
    # a kernel-dominated fiber: its radius varies a little along the loop
    c = x.fiber.coefficients.copy()
    c[:2] = (0.7, 0.3)
    c[2:] *= 0.05
    two = 2.0 * spec.rho1
    nan = c.copy()
    nan[5] = np.nan
    return frame, velocity_coefficients(x.loop, frame), [
        ("one state", with_smallest_radius(frame, c, 1.0), None, "zone"),
        ("a node at 3 with r = 0.05", with_smallest_radius(frame, c, 3.0), 0.05, "zone"),
        ("a node at 2 rho1", with_smallest_radius(frame, c, two), None, "zone"),
        ("a node an ulp below 2 rho1", with_smallest_radius(frame, c, np.nextafter(two, 0.0)),
         None, "tail"),
        ("phi transition", with_smallest_radius(frame, c, 1.5 * spec.rho1), None, "tail"),
        ("a node at 0.6 with r = 2", with_smallest_radius(frame, c, 0.6), 2.0, "tail"),
        ("a NaN coefficient", nan, None, "jet"),
        ("radii whose squares overflow", 1e200 * c, None, "tail"),
        ("a node in the chi band", with_smallest_radius(frame, c, spec.rho_star), None, "jet"),
    ]


def assert_close(got, want, tol=1e-13):
    # within tol of the largest magnitude in want (at least 1)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol * scale)


def zone_scale(spec, qd, c):
    # the magnitudes of the closed form's terms, |c.qd| + r + |c|^2/2
    return abs(c @ qd) + spec.r + 0.5 * (c @ c)


@pytest.mark.parametrize("case", range(9))
def test_quadratic_zone_equals_the_jet_path_byte_for_byte(case, monkeypatch):
    # byte for byte where the sampled radii leave the zone: on the phi
    # tail through tail_jet with no radial_H_jet call, elsewhere through
    # radial_H_jet.  In the zone the closed form (quadratic_zone_terms)
    # moves the action and the gradient at roundoff, within 1e-14 of the
    # magnitudes of their terms, and the dH/dp samples are p's bytes
    frame, qd, cases = zone_cases()
    name, c, r, branch = cases[case]
    spec = default_spec() if r is None else default_spec(r=r)
    with np.errstate(over="ignore"):
        rho = sampled_radii(frame, c)
    # the case sits where its name says
    assert branch == ("zone" if rho.min() >= 2.0 * spec.rho1 and rho.max() <= 1e150
                      else "tail" if rho.min() > spec.rho1 else "jet")
    jets = []
    monkeypatch.setattr(action_mod, "radial_H_jet",
                        lambda *args, **kw: jets.append(1) or radial_H_jet(*args, **kw))
    with np.errstate(over="ignore", invalid="ignore"):
        got = fiber_evaluation(frame, qd, c, spec)
        want = reference_fiber_evaluation(frame, qd, c, spec)
    assert bool(jets) is (branch == "jet"), name
    assert type(got[0]) is type(want[0])
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
    if branch == "zone":
        assert abs(got[0] - want[0]) <= 1e-14 * zone_scale(spec, qd, c), name
        assert_close(got[1], want[1], 1e-14)
        assert got[2].tobytes() == want[2].tobytes()
    else:
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), name
    assert got[1].flags.c_contiguous and got[2].T.flags.c_contiguous


@pytest.mark.parametrize("case", range(9))
def test_lean_stage_agrees_with_the_former_evaluation(case):
    # one fiber of each branch, certified by the coefficients or not:
    # metric_gradient and horizontal_gradient against the evaluation as it
    # was.  grad_h has the former bytes, and the norm, read through the
    # plan's norm_h, agrees within 1e-14.  The action and grad_v have the
    # former bytes, except on a fiber that only its samples put in the
    # zone, where the closed form moves them at roundoff (1e-14)
    frame, qd, cases = zone_cases()
    name, c, r, branch = cases[case]
    spec = default_spec() if r is None else default_spec(r=r)
    plan = gradient_plan(frame, spec.s)
    with np.errstate(over="ignore", invalid="ignore"):
        a, gv, gn = metric_gradient(plan, qd, c, spec)
        gh = horizontal_gradient(plan, c)
        want = former_metric_gradient(plan, qd, c, spec)
    assert type(a) is float
    assert gh.tobytes() == want[1].tobytes()
    assert_close(gn, want[3], 1e-14)
    if branch == "zone" and quadratic_zone_energy(plan, c, spec.rho1) is None:
        assert abs(a - want[0]) <= 1e-14 * zone_scale(spec, qd, c), name
        assert_close(gv, want[2], 1e-14)
    else:
        assert np.float64(a).tobytes() == np.float64(want[0]).tobytes(), name
        assert gv.tobytes() == want[2].tobytes(), name


def test_stage_kernel_work_on_every_branch(monkeypatch):
    # the transforms of one stage, counted through spectral's namespace: a
    # certified stage runs none, a fiber its samples put in the zone one
    # irfft, an all-tail fiber an irfft and an rfft with no radial_H_jet
    # call, and a fiber with a radius in the chi band both around
    # radial_H_jet.  No stage gathers grad_h: the plan holds no partner or
    # gain, so a gather would raise; the step gathers it once
    frame, qd, cases = zone_cases()
    spec = default_spec()
    config = FlowConfig.auto(spec)
    plan = gradient_plan(frame, spec.s)
    lean = plan._replace(partner=None, gain=None)
    calls = []
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(spectral.np.fft, name, lambda *a, name=name,
                            f=getattr(spectral.np.fft, name), **kw: calls.append(name) or f(*a, **kw))
    monkeypatch.setattr(action_mod, "radial_H_jet", lambda *a, **kw: calls.append("jet")
                        or radial_H_jet(*a, **kw))
    work = {"one state": [], "a node at 2 rho1": ["irfft"], "phi transition": ["irfft", "rfft"],
            "a node in the chi band": ["irfft", "jet", "rfft"]}
    fibers = {name: c for name, c, _, _ in cases}
    for name, want in work.items():
        c = fibers[name]
        assert (quadratic_zone_energy(plan, c, spec.rho1) is not None) is (name == "one state")
        calls.clear()
        flow_mod._velocity(lean, qd, c, spec, config)
        assert calls == want, name
    gathers = []
    monkeypatch.setattr(flow_mod, "horizontal_gradient",
                        lambda *a: gathers.append(1) or horizontal_gradient(*a))
    x = random_phase_point(spec, np.random.default_rng([1, 0]))
    k1 = flow_mod.flow_velocity(x, spec, config, lean)
    steps = []
    monkeypatch.setattr(flow_mod, "_rk4", lambda *a, f=flow_mod._rk4: steps.append(1) or
                        f(*a[:-1], plan))
    flow_mod._step(x.loop.series(spec.J), spec, config, config.dt, k1, lean)
    assert len(gathers) == len(steps) == 1


class FormerVelocity(NamedTuple):
    # flow.Velocity as it was before the lean stage kernel: it carried grad_h
    grad_h: np.ndarray
    grad_v: np.ndarray
    grad_norm: float
    phi_tilde: float
    action: float
    loop_velocity: np.ndarray
    fiber: np.ndarray


def former_kernel(metric):
    """flow's (_velocity, _rk4) as they were before the lean stage kernel,
    on the metric gradient given: every stage formed grad_h, and the step
    combined the four stages' grad_h.  The stages call flow._velocity, so
    that a patched one sees them."""

    def velocity(plan, qd, c, spec, config):
        a, gh, gv, gn = metric(plan, qd, c, spec)
        phi_tilde = (speed_cutoff(config, math.sqrt(c @ (plan.weight_v * c)))
                     / math.sqrt(1.0 + gn * gn))
        return FormerVelocity(gh, gv, gn, phi_tilde, a, qd, c)

    def rk4(L, spec, config, dt, k1, plan):
        qd, c = k1.loop_velocity, k1.fiber

        def stage(h, k):
            hp = h * k.phi_tilde
            return flow_mod._velocity(plan, qd + hp * (plan.rate * k.fiber), c - hp * k.grad_v,
                                      spec, config)

        k2 = stage(0.5 * dt, k1)
        k3 = stage(0.5 * dt, k2)
        k4 = stage(dt, k3)
        ch, cv = ((k1.phi_tilde * g1 + (2.0 * k2.phi_tilde) * g2 + (2.0 * k3.phi_tilde) * g3
                   + k4.phi_tilde * g4) / -6.0
                  for g1, g2, g3, g4 in zip(k1[:2], k2[:2], k3[:2], k4[:2]))
        return move_series(plan.frame, L, dt, ch), c + dt * cv

    return velocity, rk4


def flows_and_work(monkeypatch, starts, kernel):
    """The default spec's flows over time 1 from starts with the stage
    kernel (velocity, rk4), and their work: (stage kernel calls, RK4
    tries, fiber samplings)."""
    spec = default_spec()
    config = FlowConfig.auto(spec)
    kernels, tries, sampled = [], [], []
    velocity, rk4 = kernel

    def counted(fn, calls):
        return lambda *args, **kw: calls.append(1) or fn(*args, **kw)

    with monkeypatch.context() as m:
        m.setattr(flow_mod, "_velocity", counted(velocity, kernels))
        m.setattr(flow_mod, "_rk4", counted(rk4, tries))
        m.setattr(spectral.SpectralFrame, "samples",
                  counted(spectral.SpectralFrame.samples, sampled))
        trajectories = [flow(x, spec, config, 1.0) for x in starts]
    return trajectories, (len(kernels), len(tries), len(sampled))


def assert_flows_close(fast, slow):
    # the same times, and states and records within 1e-13
    for got, want in zip(fast, slow):
        assert got.times.tobytes() == want.times.tobytes()
        assert len(got.states) == len(want.states)
        for xg, xw in zip(got.states, want.states):
            for a, b in ((xg.fiber.coefficients, xw.fiber.coefficients),
                         (xg.loop.cos_coeffs, xw.loop.cos_coeffs),
                         (xg.loop.sin_coeffs, xw.loop.sin_coeffs), (xg.loop.base, xw.loop.base)):
                assert_close(a, b)
        for name in ("actions", "gradient_norms", "phi_tilde", "ab"):
            assert_close(getattr(got, name), getattr(want, name))


def benchmark_starts(count):
    # the benchmark's flow starts: the default spec, seeds [1, k]
    return [random_phase_point(default_spec(), np.random.default_rng([1, k]))
            for k in range(count)]


def test_quadratic_zone_leaves_flows_and_their_work_unchanged(monkeypatch):
    # Certified stages and fibers whose samples lie in the zone read the
    # action and plain gradient in closed form, which moves them at
    # roundoff against the jet path, so the flows must agree with flows
    # whose every stage takes the jet path within the 1e-13 of the
    # fused-march tests, with the same times and the same RK4 tries
    starts = benchmark_starts(2)
    lean, (kernels, tries, sampled) = flows_and_work(monkeypatch, starts,
                                                     (flow_mod._velocity, flow_mod._rk4))
    # 100 steps, none halved: the start, then four kernel calls per step
    assert [len(traj.times) for traj in lean] == [101, 101]
    assert kernels == 2 * 401 and tries == 2 * 100
    # the certificate served some stages, not all
    assert 0 < sampled < kernels
    jet, work = flows_and_work(monkeypatch, starts, former_kernel(reference_metric_gradient))
    assert work == (2 * 401, 2 * 100, 2 * 401)
    assert_flows_close(lean, jet)


def test_lean_stage_flows_match_the_former_kernel(monkeypatch):
    # the benchmark's first three flows: the lean kernel and the kernel as
    # it was take the same steps, make the same number of stage
    # evaluations and sample the same stages, and their trajectories
    # agree within 1e-13
    starts = benchmark_starts(3)
    lean, work = flows_and_work(monkeypatch, starts, (flow_mod._velocity, flow_mod._rk4))
    former, former_work = flows_and_work(monkeypatch, starts,
                                         former_kernel(former_metric_gradient))
    assert work == former_work and work[:2] == (3 * 401, 3 * 100)
    assert_flows_close(lean, former)


# The certificate of the quadratic zone (quadratic_zone_energy) reads
# only the coefficients.  Whatever it certifies must have every radius
# in the zone, on the evaluation grid and between its nodes, and the
# closed form it enables must agree with the jet path to roundoff.

@st.composite
def kernel_dominated(draw):
    """(frame, velocity coefficients, fiber coefficients): a random tail
    decaying like (1 + lam)^{-3/4}, and a kernel part whose norm clears
    the certificate's lower bound 2 rho1 (1 + 1e-12) + sqrt(2) sum_j
    |block_j| by the relative slack drawn."""
    n = draw(st.sampled_from([1, 2, 3]))
    J = draw(st.sampled_from([0, 1, 8, 32]))
    tail = draw(st.floats(0.0, 2.0))
    slack = draw(st.sampled_from([1e-12, 1e-9, 1e-3, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    frame = SpectralFrame(n, J)
    c = tail * rng.standard_normal(frame.dim) / frame.weights(0.75)
    spread = SQ2 * np.linalg.norm(c[n:].reshape(J, 2 * n), axis=1).sum()
    u = rng.standard_normal(n)
    c[:n] = u / np.linalg.norm(u) * (2.0 * default_spec().rho1 * (1.0 + 1e-12) + spread) * (1.0 + slack)
    qd = rng.standard_normal(frame.dim) / frame.weights(0.75)
    return frame, qd, c


@given(kernel_dominated())
def test_certified_fibers_have_every_radius_in_the_zone(case):
    frame, _, c = case
    spec = default_spec()
    assert quadratic_zone_energy(gradient_plan(frame, spec.s), c, spec.rho1) is not None
    m = fourier.default_samples(frame.cutoff)
    for grid in (m, 16 * m):
        assert sampled_radii(frame, c, grid).min() >= 2.0 * spec.rho1


@pytest.mark.parametrize("J", [1, 8, 32])
def test_certificate_holds_where_its_bound_is_attained(J):
    # p(t) = c0 + sqrt(2) c1 cos 2 pi t with c1 < 0 has its smallest radius
    # c0 + sqrt(2) c1, the certificate's bound, at the node t = 0.  With
    # that radius swept across 2 rho1 in steps of 1e-13, the sampled
    # radius falls an ulp short of 2 rho1 where the bound claims it; the
    # certificate's relative margin of 1e-12 refuses those fibers
    spec = default_spec()
    two = 2.0 * spec.rho1
    frame = SpectralFrame(1, J)
    plan = gradient_plan(frame, spec.s)
    m = fourier.default_samples(J)
    certified = 0
    for c0 in (1.0, 1.7, 3.0, 5.0, 11.0):
        for step in range(-30, 31):
            c = np.zeros(frame.dim)
            c[0] = c0
            c[1] = -(c0 - two * (1.0 + step * 1e-13)) / SQ2
            if quadratic_zone_energy(plan, c, spec.rho1) is not None:
                certified += 1
                for grid in (m, 16 * m):
                    assert sampled_radii(frame, c, grid).min() >= two
    assert certified > 0


@given(kernel_dominated())
def test_certified_call_agrees_with_the_jet_path(case):
    # the bound: the action within 1e-14 (|c.qd| + r + |c|^2/2), the sum
    # of the magnitudes of its terms, and the gradient parts and norm
    # within 1e-14 of the largest magnitude each holds (at least 1)
    frame, qd, c = case
    spec = default_spec()
    plan = gradient_plan(frame, spec.s)
    a, gv, gn = metric_gradient(plan, qd, c, spec)
    want = reference_metric_gradient(plan, qd, c, spec)
    assert abs(a - want[0]) <= 1e-14 * zone_scale(spec, qd, c)
    assert horizontal_gradient(plan, c).tobytes() == want[1].tobytes()
    for g, w in zip((gv, gn), want[2:]):
        assert_close(g, w, 1e-14)


def test_certificate_refuses_what_it_cannot_vouch_for():
    frame, qd, cases = zone_cases()
    spec = default_spec()
    plan = gradient_plan(frame, spec.s)
    fibers = {name: c for name, c, _, _ in cases}
    # a state well inside the zone is certified; the same fiber scaled past
    # QUADRATIC_TOP is not, though its lower bound clears 2 rho1
    assert quadratic_zone_energy(plan, fibers["one state"], spec.rho1) is not None
    refused = {**fibers, "radii above QUADRATIC_TOP": 1e152 * fibers["one state"]}
    with np.errstate(over="ignore", invalid="ignore"):
        for name in ("a node at 2 rho1", "a node an ulp below 2 rho1", "phi transition",
                     "a NaN coefficient", "radii whose squares overflow",
                     "radii above QUADRATIC_TOP"):
            assert quadratic_zone_energy(plan, refused[name], spec.rho1) is None, name
