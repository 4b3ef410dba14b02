"""The fused action-and-gradient evaluation against the separate formulas.

The reference functions below are the straightforward per-quantity
formulas: the action from sampled velocity and one radial_H call per
derivative order, the vertical gradient from the analysis of the
sampled defect qdot - dH/dp.  The evaluator must agree with them to
roundoff on random phase points, and its single H pass must agree with
the per-order chi/phi formulas bit for bit.  A batch of fibers over one
loop must give, row by row, exactly what each fiber gives alone.  Where
every radius lies in the quadratic zone, the evaluation must equal,
byte for byte, the one that sends every radius through radial_H_jet.
The flow's kernel (metric_gradient) certifies that zone from the
coefficients alone and then makes no transform: what it certifies must
lie in the zone, and its closed form must agree with the jet path to
roundoff.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loopflow.action as action_mod
import loopflow.flow as flow_mod
from loopflow import fourier
from loopflow.action import (PhasePoint, action, derivative_coefficients, evaluate,
                             fiber_evaluation, gradient, gradient_plan, hamilton_residual,
                             metric_gradient, quadratic_zone_energy, random_phase_point,
                             velocity_coefficients)
from loopflow.flow import FlowConfig, flow
from loopflow.geometry import embedded_circle, flat_torus, random_loop
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
            a, gh, gv = evaluate(x, spec)
            lam = x.frame.eigenvalues
            gh_ref = -((1.0 + lam) ** (-spec.s)) * derivative_coefficients(
                x.frame, x.fiber.coefficients)
            scale = 1.0 + np.max(np.abs(x.fiber.coefficients)) + np.max(np.abs(x.loop.drift))
            assert abs(a - a_ref) <= 1e-13 * scale
            np.testing.assert_allclose(gv, gv_ref, rtol=0.0, atol=1e-13 * scale)
            np.testing.assert_array_equal(gh, gh_ref)
            # the thin callers read the same evaluation
            assert action(x, spec) == a
            grad_h, grad_v = gradient(x, spec)
            np.testing.assert_array_equal(grad_h, gh)
            np.testing.assert_array_equal(grad_v, gv)


@pytest.mark.parametrize("J", [1, 8, 32])
@pytest.mark.parametrize("model", range(len(MODELS)))
def test_batched_rows_equal_single_evaluations(J, model):
    spec = default_spec(J=J)
    manifold, winding = MODELS[model]
    rng = np.random.default_rng([J, model, 1])
    x = random_point(spec, manifold, winding, J // 2, rng)
    frame = x.frame
    qd = velocity_coefficients(x.loop, frame)
    # scalings reach the zero branch, the band, the plateau and the tail
    batch = np.array([k * x.fiber.coefficients for k in (0.0, 0.3, 1.0, 1.5, 4.0)])
    a, dv, dpH = fiber_evaluation(frame, qd, batch, spec)
    assert a.shape == (5,) and dv.shape == batch.shape
    for k, c in enumerate(batch):
        a_k, dv_k, dpH_k = fiber_evaluation(frame, qd, c, spec)
        assert isinstance(a_k, float) and a[k] == a_k
        np.testing.assert_array_equal(dv[k], dv_k)
        np.testing.assert_array_equal(dpH[k], dpH_k)


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
    # fiber_evaluation without its quadratic zone: every radius goes
    # through radial_H_jet
    p_samp = frame.samples(c)
    rho = np.sqrt((p_samp * p_samp).sum(axis=-1))
    h0, h1 = radial_H_jet(spec, rho, order=1)
    scale = np.divide(h1, rho, out=np.zeros_like(rho), where=rho > 0.0)
    dpH = scale[..., None] * p_samp
    a = np.vecdot(c, qd) - h0.sum(axis=-1) / rho.shape[-1]
    return (float(a) if a.ndim == 0 else a), qd - frame.coefficients(dpH), dpH


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
    (name, fiber coefficients, r or None for the default spec's, whether
    the zone serves the case)."""
    spec = default_spec()
    x = random_phase_point(spec, np.random.default_rng(3))
    frame = x.frame
    # a kernel-dominated fiber: its radius varies a little along the loop
    c = x.fiber.coefficients.copy()
    c[:2] = (0.7, 0.3)
    c[2:] *= 0.05
    two = 2.0 * spec.rho1
    batch = np.stack([with_smallest_radius(frame, c, rho) for rho in (two, 1.0, 3.0, 10.0)])
    nan = c.copy()
    nan[5] = np.nan
    return frame, velocity_coefficients(x.loop, frame), [
        ("one state", with_smallest_radius(frame, c, 1.0), None, True),
        ("batch at r = 0.05", batch, 0.05, True),
        ("a node at 2 rho1", with_smallest_radius(frame, c, two), None, True),
        ("a node an ulp below 2 rho1", with_smallest_radius(frame, c, np.nextafter(two, 0.0)),
         None, False),
        ("phi transition", with_smallest_radius(frame, c, 1.5 * spec.rho1), None, False),
        ("one batch row below", np.concatenate([batch, with_smallest_radius(frame, c, 0.6)[None]]),
         2.0, False),
        ("a NaN coefficient", nan, None, False),
        ("radii whose squares overflow", 1e200 * c, None, False),
    ]


@pytest.mark.parametrize("case", range(8))
def test_quadratic_zone_equals_the_jet_path_byte_for_byte(case, monkeypatch):
    frame, qd, cases = zone_cases()
    name, c, r, zone = cases[case]
    spec = default_spec() if r is None else default_spec(r=r)
    with np.errstate(over="ignore"):
        rho = sampled_radii(frame, c)
    # the case sits where its name says
    assert bool(rho.min() >= 2.0 * spec.rho1 and rho.max() <= 1e150) is zone
    jets = []
    monkeypatch.setattr(action_mod, "radial_H_jet",
                        lambda *args, **kw: jets.append(1) or radial_H_jet(*args, **kw))
    with np.errstate(over="ignore", invalid="ignore"):
        got = fiber_evaluation(frame, qd, c, spec)
        want = reference_fiber_evaluation(frame, qd, c, spec)
    assert (not jets) is zone, name
    assert type(got[0]) is type(want[0])
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), name
    assert got[1].flags.c_contiguous and np.swapaxes(got[2], -1, -2).flags.c_contiguous


def reference_metric_gradient(plan, qd, c, spec):
    # metric_gradient with no certificate: every call samples the fiber
    # and sends every radius through radial_H_jet
    a, dv, _ = reference_fiber_evaluation(plan.frame, qd, c, spec)
    grad_h = c[plan.partner] * plan.gain
    grad_v = plan.scale_v * dv
    return a, grad_h, grad_v, math.sqrt(grad_h @ (plan.weight_h * grad_h)
                                        + grad_v @ (plan.weight_v * grad_v))


def assert_close(got, want, tol=1e-13):
    # within tol of the largest magnitude in want (at least 1)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol * scale)


def test_quadratic_zone_leaves_flows_and_their_work_unchanged(monkeypatch):
    # the benchmark's flow starts: the default spec, seeds [1, k], horizon 1.
    # Certified stages read the action and plain gradient in closed form,
    # which moves them at roundoff against the jet path, so the flows must
    # agree within the 1e-13 of the fused-march tests, with the same times
    # and the same RK4 tries
    spec = default_spec()
    config = FlowConfig.auto(spec)
    starts = [random_phase_point(spec, np.random.default_rng([1, k])) for k in range(2)]
    kernels, evaluations, tries = [], [], []
    rk4 = flow_mod._rk4

    def counted(fn, calls):
        return lambda *args, **kw: calls.append(1) or fn(*args, **kw)

    monkeypatch.setattr(flow_mod, "_rk4", counted(rk4, tries))
    monkeypatch.setattr(flow_mod, "metric_gradient", counted(metric_gradient, kernels))
    monkeypatch.setattr(action_mod, "fiber_evaluation",
                        counted(action_mod.fiber_evaluation, evaluations))
    fast = [flow(x, spec, config, 1.0) for x in starts]
    # 100 steps, none halved: the start, then four kernel calls per step
    assert [len(traj.times) for traj in fast] == [101, 101]
    assert len(kernels) == 2 * 401 and len(tries) == 2 * 100
    # the certificate served some stages, not all
    assert 0 < len(evaluations) < len(kernels)
    kernels.clear()
    tries.clear()
    monkeypatch.setattr(flow_mod, "metric_gradient", counted(reference_metric_gradient, kernels))
    slow = [flow(x, spec, config, 1.0) for x in starts]
    assert len(kernels) == 2 * 401 and len(tries) == 2 * 100
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
    got = metric_gradient(plan, qd, c, spec)
    want = reference_metric_gradient(plan, qd, c, spec)
    scale = abs(c @ qd) + spec.r + 0.5 * (c @ c)
    assert abs(got[0] - want[0]) <= 1e-14 * scale
    assert got[1].tobytes() == want[1].tobytes()
    for g, w in zip(got[2:], want[2:]):
        assert_close(g, w, 1e-14)


def test_certificate_refuses_what_it_cannot_vouch_for():
    frame, qd, cases = zone_cases()
    spec = default_spec()
    plan = gradient_plan(frame, spec.s)
    fibers = {name: c for name, c, _, _ in cases if c.ndim == 1}
    # a state well inside the zone is certified; the same fiber scaled past
    # QUADRATIC_TOP is not, though its lower bound clears 2 rho1
    assert quadratic_zone_energy(plan, fibers["one state"], spec.rho1) is not None
    refused = {**fibers, "radii above QUADRATIC_TOP": 1e152 * fibers["one state"]}
    with np.errstate(over="ignore", invalid="ignore"):
        for name in ("a node at 2 rho1", "a node an ulp below 2 rho1", "phi transition",
                     "a NaN coefficient", "radii whose squares overflow",
                     "radii above QUADRATIC_TOP"):
            assert quadratic_zone_energy(plan, refused[name], spec.rho1) is None, name
