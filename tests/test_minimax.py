import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

import oracles
import loopflow.action as action_mod
import loopflow.flow as flow_mod
from loopflow import fourier, minimax
from loopflow.action import (PhasePoint, action, derivative_coefficients, gradient,
                             gradient_norm, gradient_plan, perturb, random_direction,
                             random_phase_point, straight_orbit, velocity_coefficients)
from loopflow.flow import FlowConfig, flow_velocity
from loopflow.geometry import LoopPath, flat_torus, random_loop, straight_loop
from loopflow.hamiltonian import default_spec, radial_H
from loopflow.minimax import (ASCENT_TOL, composite_descent, default_family, fiber_sup,
                              minimax_theta, orbit_sweep, pool_size, refine_critical,
                              symplectic_action)
from loopflow.spectral import FiberField, SpectralFrame, embedded_metric, frame_of


def reference_ascent(frame, qd, spec, c0, radius, iters, tol):
    # one seed at a time, as fiber_sup ascended before its seeds were
    # batched; returns (coefficients, action, converged, grad_norm) and
    # what the line search did: how it stopped, its rejected tries and
    # its accepted steps that the ball clipped
    lam = frame.eigenvalues
    to_vertical = (1.0 + lam) ** (spec.s - 1.0)
    precond = (1.0 + lam) ** (1.0 - spec.s)

    def evaluate_at(c):
        a, dv, _ = minimax.fiber_evaluation(frame, qd, c, spec)
        g = to_vertical * dv
        return a, g, math.sqrt(float(np.sum(precond * g ** 2)))

    def project(c):
        nrm = math.sqrt(float(np.sum(precond * c ** 2)))
        return (c * (radius / nrm), True) if nrm > radius else (c, False)

    c, _ = project(np.asarray(c0, dtype=float))
    a, g, gn = evaluate_at(c)
    eta = 0.5
    converged = False
    trace = {"stop": "iters cap", "rejected": 0, "clipped": 0}
    for step in range(iters):
        if gn <= tol:
            converged = True
            trace["stop"] = "converged at start" if step == 0 else "converged"
            break
        accepted = False
        for _ in range(40):
            cand, clipped = project(c + eta * precond * g)
            a_new, g_new, gn_new = evaluate_at(cand)
            if a_new >= a - 1e-14:
                c, a, g, gn = cand, a_new, g_new, gn_new
                accepted = True
                trace["clipped"] += clipped
                if not clipped:
                    eta = min(eta * 1.3, 2.0)
                break
            eta *= 0.5
            trace["rejected"] += 1
        if not accepted:
            trace["stop"] = "40 halvings"
            break
    if not converged and gn <= 1e-2:
        trace["stop"] += ", Newton"
        c, a, gn = minimax._vertical_newton(frame, evaluate_at, c, a, g, gn, spec, radius)
        converged = gn <= tol
    return (c, a, converged, gn), trace


MARK = 0.4375  # last fiber coefficient of the seed whose gradient is flipped


@pytest.fixture()
def evaluated(monkeypatch):
    """Every fiber row that fiber_sup (or the reference) evaluates, as
    (r, row bytes), with the gradient negated on rows ending in MARK:
    every try of such a seed loses action, so its line search halves 40
    times in place.  The ascent's energy column (or the Newton endgame's
    one r) is passed through."""
    rows = []
    evaluation = minimax.fiber_evaluation

    def patched(frame, qd, c, spec, r=None):
        batch = np.atleast_2d(c)
        energies = np.broadcast_to(spec.r if r is None else r, (len(batch), 1))[:, 0].tolist()
        rows.extend((e, row.tobytes()) for e, row in zip(energies, batch))
        a, dv, dpH = evaluation(frame, qd, c, spec, r)
        return a, np.where((c[..., -1] == MARK)[..., None], -dv, dv), dpH

    monkeypatch.setattr(minimax, "fiber_evaluation", patched)
    return rows


def batched_against_reference(loop, spec, config, seeds, iters, evaluated):
    # the batched results must equal the per-seed ones bit for bit, and
    # the batch must evaluate exactly the fibers the seeds evaluate alone
    frame = frame_of(loop, spec.J)
    qd = velocity_coefficients(loop, frame)
    evaluated.clear()
    refs = [reference_ascent(frame, qd, spec, c0, config.gamma_dprime, iters, ASCENT_TOL)
            for c0 in seeds]
    alone = Counter(evaluated)
    evaluated.clear()
    results = fiber_sup(loop, spec, config, seeds=seeds, iters=iters)
    assert Counter(evaluated) == alone
    ordered = sorted((out for out, _ in refs), key=lambda out: out[1], reverse=True)
    assert len(results) == len(ordered)
    for res, (c, a, converged, gn) in zip(results, ordered):
        np.testing.assert_array_equal(res.field.coefficients, c)
        assert (res.action, res.converged, res.grad_norm) == (a, converged, gn)
    return [trace for _, trace in refs]


SWEEP_GRID = (0.05, 0.35789473684210527, 1.0, 2.0)


def batched_across_r(loop, spec, config, grid, evaluated, **ascent):
    # the ascent across the r grid must give each r the results of
    # fiber_sup at that r bit for bit, and evaluate exactly the fiber
    # rows, each at its r, that the per-r calls evaluate
    evaluated.clear()
    per_r = [fiber_sup(loop, spec.with_r(r), config, **ascent) for r in grid]
    alone = Counter(evaluated)
    evaluated.clear()
    batched = minimax._fiber_sups(loop, spec, grid, config, **ascent)
    assert Counter(evaluated) == alone
    assert len(batched) == len(per_r)
    for results, single in zip(batched, per_r):
        assert len(results) == len(single)
        for res, ref in zip(results, single):
            np.testing.assert_array_equal(res.field.coefficients, ref.field.coefficients)
            assert (res.action, res.converged, res.grad_norm) == (
                ref.action, ref.converged, ref.grad_norm)


def test_symplectic_action_closed_forms(spec):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    np.testing.assert_allclose(symplectic_action(x), 1.0, atol=1e-12)
    y = straight_orbit(flat_torus(2), (1, 0), spec, momentum=(0.3, 0.0))
    np.testing.assert_allclose(symplectic_action(y), 0.3, atol=1e-12)
    z = straight_orbit(flat_torus(2), (2, 1), spec, momentum=(0.1, 0.4))
    np.testing.assert_allclose(symplectic_action(z), 0.6, atol=1e-12)


def test_fiber_sup_finds_the_shelf_maximizer(spec, config):
    loop = straight_loop(flat_torus(2), (1, 0))
    results = fiber_sup(loop, spec, config)
    best = results[0]
    assert best.converged
    # oracle: tests/oracles.py::shelf_value / sigma_landing
    np.testing.assert_allclose(best.action, 0.249619705159, atol=1e-6)
    x = PhasePoint(loop=loop, fiber=best.field)
    from loopflow.action import classify_critical
    cls = classify_critical(x, spec)
    assert cls.kind == "on-hypersurface"
    np.testing.assert_allclose(cls.sigma, -0.175299472533, atol=1e-6)
    # the constrained leaf action is the landing radius rho* e^sigma
    np.testing.assert_allclose(symplectic_action(x),
                               spec.rho_star * math.exp(-0.175299472533), atol=1e-6)


def test_fiber_sup_below_crossover_prefers_fake_branch(config):
    from loopflow.hamiltonian import default_spec
    spec_low = default_spec(r=0.25)
    cfg = FlowConfig.auto(spec_low)
    loop = straight_loop(flat_torus(2), (1, 0))
    best = fiber_sup(loop, spec_low, cfg)[0]
    assert best.converged
    # oracle: tests/oracles.py::fake_value (crossover R* sits near 0.2574)
    np.testing.assert_allclose(best.action, oracles.fake_value(0.25), atol=1e-6)


def test_fiber_sup_rejects_non_finite_loop_and_seed(small_spec, small_config):
    x = straight_orbit(flat_torus(2), (1, 0), small_spec)
    bad = x.fiber.coefficients.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError, match="fiber_sup seed 1 has non-finite fiber"):
        fiber_sup(x.loop, small_spec, small_config, seeds=[x.fiber.coefficients, bad])
    loop = straight_loop(flat_torus(2), (1, 0), base=(np.nan, 0.0))
    with pytest.raises(ValueError, match="fiber_sup loop has non-finite loop"):
        fiber_sup(loop, small_spec, small_config)


def test_fiber_sup_local_seed_stays_in_quadratic_zone(spec, config):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    res = fiber_sup(x.loop, spec, config, seeds=[x.fiber.coefficients])
    assert len(res) == 1
    assert res[0].converged
    np.testing.assert_allclose(res[0].action, 0.5 - spec.r, atol=1e-10)
    np.testing.assert_allclose(res[0].field.coefficients, x.fiber.coefficients,
                               atol=1e-8)


def test_fiber_sup_respects_the_ball(spec, config):
    loop = straight_loop(flat_torus(2), (1, 0))
    for res in fiber_sup(loop, spec, config, iters=60):
        assert res.field.frame.norm(1.0 - spec.s, res.field.coefficients) <= config.gamma_dprime + 1e-9


def test_batched_ascent_matches_per_seed_reference(small_spec, small_config, evaluated):
    x = straight_orbit(flat_torus(2), (1, 0), small_spec)
    frame = x.frame
    lam = frame.eigenvalues
    smooth = (1.0 + lam) ** (small_spec.s - 1.0) * velocity_coefficients(x.loop, frame)
    noise = 0.05 * np.cos(np.arange(frame.dim)) / (1.0 + lam) ** 0.5
    radius = small_config.gamma_dprime
    capped = np.zeros(frame.dim)
    capped[[0, 10]] = 2.0 * radius * math.cos(0.1), 2.0 * radius * math.sin(0.1)
    marked = 0.3 * smooth
    marked[-1] = MARK
    exact = x.fiber.coefficients
    seeds = [capped, exact + 1e-7 * np.cos(np.arange(frame.dim)), marked, exact,
             0.3 * smooth + noise, 0.6 * smooth + noise]
    traces = batched_against_reference(x.loop, small_spec, small_config, seeds, 30, evaluated)
    assert [trace["stop"] for trace in traces[:4]] == [
        "iters cap, Newton", "converged", "40 halvings", "converged at start"]
    assert all(trace["rejected"] > 0 for trace in traces[4:])
    # one seed at a time: the all-accepted and all-rejected rounds
    for seed in seeds:
        batched_against_reference(x.loop, small_spec, small_config, [seed], 30, evaluated)
    # more than 40 rejected tries in all: the halving count restarts per step
    traces = batched_against_reference(x.loop, small_spec, small_config, seeds[4:], 200, evaluated)
    traces += [batched_against_reference(x.loop, small_spec, small_config, [seed], 200,
                                         evaluated)[0] for seed in seeds[4:]]
    assert all(trace["rejected"] > 40 for trace in traces)
    # the same seeds across an r grid: every line-search outcome above,
    # each row at its own r
    batched_across_r(x.loop, small_spec, small_config, SWEEP_GRID, evaluated, seeds=seeds,
                     iters=30)


@pytest.mark.parametrize("amplitude", [0.0, 0.02])
def test_ascent_across_r_matches_fiber_sup_at_each_r(small_spec, small_config, evaluated,
                                                      monkeypatch, amplitude):
    # the default seeds across the sweep grid: at r = 0.05 rows ascend
    # through the chi band, and five or six of each r's six rows stop
    # short of tol and take the Newton endgame at their own r
    newton = minimax._vertical_newton
    endgames = Counter()

    def counted(frame, evaluate_at, c, a, g, gn, spec, *args):
        endgames[spec.r] += 1
        return newton(frame, evaluate_at, c, a, g, gn, spec, *args)

    monkeypatch.setattr(minimax, "_vertical_newton", counted)
    loop = wiggled_loop(amplitude) if amplitude else straight_loop(flat_torus(2), (1, 0))
    batched_across_r(loop, small_spec, small_config, SWEEP_GRID, evaluated)
    # each row's endgame runs once alone and once in the batch
    assert set(endgames) == set(SWEEP_GRID)
    assert all(count >= 2 * 5 for count in endgames.values())


def test_batched_ascent_matches_reference_on_the_ball(small_spec, small_config, evaluated):
    # a ball just inside the maximizer p = qdot of a winding-2 loop: the
    # ascents take free steps first and clipped ones on the sphere
    config = replace(small_config, gamma=0.5, gamma_prime=0.9, gamma_dprime=1.98)
    x = straight_orbit(flat_torus(2), (2, 0), small_spec)
    frame = x.frame
    rng = np.random.default_rng(3)
    seeds = [k * x.fiber.coefficients
             + 0.3 * rng.standard_normal(frame.dim) / (1.0 + frame.eigenvalues) ** 0.5
             for k in (0.1, 0.2, 0.4)]
    traces = batched_against_reference(x.loop, small_spec, config, seeds, 40, evaluated)
    assert any(0 < trace["clipped"] < 40 for trace in traces)
    for seed in seeds:
        batched_against_reference(x.loop, small_spec, config, [seed], 40, evaluated)


def dense_jacobian(x, spec, vec):
    # the exact four-block Jacobian of _critical_system's residual at vec,
    # as the polish once formed it for a thin SVD.  The horizontal rows
    # -(1+lam)^{-s/2} (dp/dt coefficients) are linear in c alone, the
    # vertical rows (1+lam)^{(s-1)/2} (qd - dH/dp coefficients) are linear
    # in the loop through qd, and their c-block is -(1+lam)^{(s-1)/2}
    # times the compressed pointwise fiber Hessian
    frame = x.frame
    n, J, dim = frame.n, frame.cutoff, frame.dim
    k = 2 * J * n
    vertical = frame.weights(0.5 * (spec.s - 1.0))
    out = np.zeros((2 * dim, k + dim))
    out[:dim, k:] = derivative_coefficients(frame, np.eye(dim)).T
    out[:dim, k:] *= -frame.weights(-0.5 * spec.s)[:, None]
    unit = np.eye(k).reshape(k, J, 2, n)   # the unknowns' series order: per mode cos, then sin
    out[dim:, :k] = frame.layout(
        *fourier.differentiate(np.zeros((k, n)), unit[:, :, 0], unit[:, :, 1])).T
    out[dim:, :k] *= vertical[:, None]
    out[dim:, k:] = -vertical[:, None] * frame.compress(
        minimax._pointwise_hessian(frame, vec[k:], spec))
    return out


def unknowns(x):
    # the polish's unknowns at x: the loop's cos/sin rows in the series
    # layout (past its base), then the fiber coefficients
    return np.concatenate([x.loop.series(x.frame.cutoff)[x.frame.n:], x.fiber.coefficients])


def at_unknowns(x, vec):
    # the state of x's loop class and frame at the polish's unknowns vec
    k = vec.size - x.frame.dim
    return flow_mod._state(x, np.concatenate([x.loop.base, vec[:k]]), vec[k:])


def jacobian_states(spec):
    # a random phase point and a perturbed straight orbit
    xg = straight_orbit(flat_torus(2), (1, 0), spec)
    return (random_phase_point(spec, np.random.default_rng(8)),
            perturb(xg, 1e-3, eta=np.cos(np.arange(xg.frame.dim))))


def test_refine_critical_jacobian_matches_finite_differences():
    # the residual refine_critical polishes, against the dense Jacobian
    # reference, at the unknowns of two states
    spec = default_spec(J=8)
    for x in jacobian_states(spec):
        fun, _ = minimax._critical_system(x, spec)
        x0 = unknowns(x)
        exact = dense_jacobian(x, spec, x0)
        fd = approx_derivative(fun, x0, method="3-point")
        assert exact.shape == fd.shape == (2 * x.frame.dim, 2 * spec.J * 2 + x.frame.dim)
        assert np.max(np.abs(exact - fd)) <= 1e-8 * np.max(np.abs(fd))


@pytest.mark.parametrize("J", [8, 32, 64])
def test_structured_step_is_the_least_squares_step_of_the_dense_jacobian(J):
    spec = default_spec(J=J)
    for x in jacobian_states(spec):
        fun, step = minimax._critical_system(x, spec)
        x0 = unknowns(x)
        f = fun(x0)
        ref = np.linalg.lstsq(dense_jacobian(x, spec, x0), f, rcond=None)[0]
        got = step(x0, f)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


# constant fibers where H_r is flat, so that W(t) = 0 and the kernel block
# of the step is zero: the zero section (chi = phi = 0) and the plateau
# rho* e^delta < rho <= rho1 (H_r = r)
@pytest.mark.parametrize("rho", [0.1, 0.38])
@pytest.mark.parametrize("eps", [0.0, 1e-4])
def test_refine_critical_on_a_singular_kernel_block(spec, rho, eps):
    x = straight_orbit(flat_torus(2), (1, 0), spec, momentum=(rho, 0.0))
    wave = np.cos(np.arange(x.frame.dim)) / (1.0 + x.frame.eigenvalues)
    x = perturb(x, eps, xi=wave, eta=wave)
    assert not np.any(minimax._pointwise_hessian(x.frame, x.fiber.coefficients, spec))
    z = refine_critical(x, spec)
    assert gradient_norm(z, spec) <= gradient_norm(x, spec)


def test_refine_critical_forms_no_dense_matrix(monkeypatch):
    # the unpolished witness of the benchmark's J = 64, r = 1 level,
    # polished with no SVD and no dense fiber Hessian
    spec = default_spec(J=64, r=1.0)
    witnesses = []
    monkeypatch.setattr(minimax, "_polish", lambda x, x_spec, nfev: witnesses.append(x) or x)
    minimax_theta(default_family(spec), spec, FlowConfig.auto(spec))
    monkeypatch.undo()
    (x,) = witnesses
    assert_polish_matches_packed(x, spec, monkeypatch)   # the c11 J = 64 witness

    def refuse(*args, **kwargs):
        raise AssertionError("the polish formed a dense matrix")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(SpectralFrame, "compress", refuse)
    assert gradient_norm(x, spec) > 1e-13
    assert gradient_norm(refine_critical(x, spec), spec) <= 1e-13


def test_minimax_theta_polishes_through_refine_critical_once_per_converged_level(monkeypatch):
    # the level and its gradient norm are read at the state refine_critical
    # returns; a level whose descent did not converge is not polished
    spec8 = default_spec(J=8)
    config8 = FlowConfig.auto(spec8)
    returned = []
    polish = minimax.refine_critical
    monkeypatch.setattr(minimax, "refine_critical",
                        lambda *args: returned.append(polish(*args)) or returned[-1])
    rec = minimax_theta(default_family(spec8), spec8, config8)
    assert rec.converged and len(returned) == 1 and rec.witness is returned[0]
    k = flow_velocity(rec.witness, spec8, config8)
    assert (rec.theta, rec.grad_norm) == (k.action, k.grad_norm)
    returned.clear()
    records, _ = orbit_sweep(spec8, [0.05, 0.5, 1.0], config8)
    assert len(returned) == sum(r.converged for r in records) == 3
    assert all(r.witness is x for r, x in zip(records, returned))
    returned.clear()
    monkeypatch.setattr(minimax, "HANDOFF", -1.0)
    monkeypatch.setattr(minimax, "DESCENT_ROUNDS", 1)
    rec = minimax_theta(default_family(spec8), spec8, config8)
    assert not rec.converged and returned == []


def test_refine_critical_never_worsens(spec, rng):
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    xi, eta = random_direction(x, spec, rng)
    y = perturb(x, 1e-5, xi=xi, eta=eta)
    z = refine_critical(y, spec, max_nfev=200)
    assert gradient_norm(z, spec) <= gradient_norm(y, spec)


# The polish as it was before it stepped series arrays: its unknowns were
# packed as every cos row, then every sin row, then the fiber, and each
# residual evaluation built the state they stood for and called gradient.
# The polish must give the same bits.

def packed(x):
    block = x.loop.series(x.frame.cutoff)[x.frame.n:].reshape(-1, 2, x.frame.n)
    return np.concatenate([block[:, 0].reshape(-1), block[:, 1].reshape(-1), x.fiber.coefficients])


def unpacked(x, vec):
    J, n = x.frame.cutoff, x.frame.n
    k = J * n
    loop = LoopPath(manifold=x.loop.manifold, winding=x.loop.winding, base=x.loop.base,
                    cos_coeffs=vec[:k].reshape(J, n), sin_coeffs=vec[k:2 * k].reshape(J, n))
    return PhasePoint(loop=loop, fiber=FiberField(x.frame, vec[2 * k:].copy()))


def packed_polish(x, spec):
    """(state, residual evaluations) of minimax._polish on the packed
    unknowns."""
    max_nfev = minimax.POLISH_NFEV
    frame = x.frame
    n, J, dim = frame.n, frame.cutoff, frame.dim
    k = 2 * J * n
    scale_h = frame.weights(-0.5 * spec.s)
    scale_v = frame.weights(0.5 * (spec.s - 1.0))

    def fun(vec):
        grad_h, grad_v = gradient(unpacked(x, vec), spec)
        return np.concatenate([frame.weights(0.5 * spec.s) * grad_h,
                               frame.weights(0.5 * (1.0 - spec.s)) * grad_v])

    def antiderivative(v):
        out = derivative_coefficients(frame, v)
        out[n:] /= -frame.eigenvalues[n:]
        return out

    def step(vec, f):
        w = minimax._pointwise_hessian(frame, vec[k:], spec)

        def hess(v):
            return frame.coefficients(np.einsum("tij,tj->ti", w, frame.samples(v)))

        dc = antiderivative(-f[:dim] / scale_h)
        rhs = -f[dim:dim + n] / scale_v[:n] - hess(dc)[:n]
        dc[:n] = np.linalg.lstsq(w.mean(axis=0), rhs, rcond=1e-13)[0]
        _, da, db = frame.series(antiderivative(f[dim:] / scale_v + hess(dc)))
        return np.concatenate([da.reshape(-1), db.reshape(-1), dc])

    vec = packed(x)
    f = fun(vec)
    cost, nfev, small = f @ f, 1, False
    while nfev < max_nfev and not small:
        delta = step(vec, f)
        size, t = np.linalg.norm(delta), 1.0
        while nfev < max_nfev:
            trial = vec - t * delta
            f_trial = fun(trial)
            nfev += 1
            small = t * size <= 1e-15 * (1e-15 + np.linalg.norm(vec))
            if f_trial @ f_trial < cost:
                vec, f, cost = trial, f_trial, f_trial @ f_trial
                break
            if small:
                break
            t *= 0.5
    return unpacked(x, vec), nfev


def assert_polish_matches_packed(x, spec, monkeypatch):
    """minimax._polish at x against packed_polish: the same loop series
    and fiber bytes from the same number of residual evaluations, which
    it returns."""
    evaluations = []
    with monkeypatch.context() as m:
        m.setattr(minimax, "evaluate", lambda *a, f=minimax.evaluate: evaluations.append(1) or f(*a))
        ours = minimax._polish(x, spec, minimax.POLISH_NFEV)
    ref, nfev = packed_polish(x, spec)
    J = x.frame.cutoff
    assert ours.loop.winding == ref.loop.winding
    assert ours.loop.series(J).tobytes() == ref.loop.series(J).tobytes()
    assert ours.fiber.coefficients.tobytes() == ref.fiber.coefficients.tobytes()
    assert len(evaluations) == nfev
    return nfev


@pytest.mark.parametrize("J", [8, 32])
def test_polish_matches_the_packed_polish(J, monkeypatch):
    for x in jacobian_states(default_spec(J=J)):
        assert assert_polish_matches_packed(x, default_spec(J=J), monkeypatch) > 1


def test_polish_builds_one_state(monkeypatch):
    # the polish steps arrays: however many residuals it evaluates, it
    # builds only the state it returns, and calls neither gradient nor perturb
    spec8 = default_spec(J=8)
    built, evaluations = [], []
    for x in jacobian_states(spec8):
        with monkeypatch.context() as m:
            for cls in (LoopPath, FiberField, PhasePoint):
                m.setattr(cls, "__post_init__", lambda self, f=cls.__post_init__:
                          built.append(type(self).__name__) or f(self))
            for name in ("gradient", "perturb"):
                m.setattr(action_mod, name, lambda *a, name=name, **kw: built.append(name))
            m.setattr(minimax, "evaluate",
                      lambda *a, f=minimax.evaluate: evaluations.append(1) or f(*a))
            minimax._polish(x, spec8, minimax.POLISH_NFEV)
        assert len(evaluations) > 1
        assert sorted(built) == ["FiberField", "LoopPath", "PhasePoint"]
        built.clear()
        evaluations.clear()
    assert not any(hasattr(minimax, name) for name in ("gradient", "perturb"))


def trf_polish(x, spec):
    # the polish as scipy's trust-region reflective least squares ran it,
    # on the same residual and the dense Jacobian, with the same guard
    fun, _ = minimax._critical_system(x, spec)
    sol = least_squares(fun, unknowns(x), jac=lambda vec: dense_jacobian(x, spec, vec),
                        method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000)
    refined = at_unknowns(x, sol.x)
    return refined if gradient_norm(refined, spec) <= gradient_norm(x, spec) else x


def test_refine_critical_matches_the_trf_reference(spec, config, rng, monkeypatch):
    # the perturbed orbit of test_refine_critical_never_worsens, the
    # unpolished witnesses of the benchmark sweep's four r-points, and
    # those witnesses moved 1e-3 off: there the polish is nonlinear and
    # a single Gauss-Newton step stops at gradient norms of 1e-6 to 1e-3
    x = straight_orbit(flat_torus(2), (1, 0), spec)
    xi, eta = random_direction(x, spec, rng)
    states = [(perturb(x, 1e-5, xi=xi, eta=eta), spec)]
    witnesses = []
    monkeypatch.setattr(minimax, "_polish",
                        lambda x, x_spec, nfev: witnesses.append((x, x_spec)) or x)
    for r in np.linspace(0.05, 2.0, 4):
        r_spec = spec.with_r(float(r))
        minimax_theta(default_family(r_spec), r_spec, config)
    assert len(witnesses) == 4
    for x, x_spec in witnesses:
        xi, eta = random_direction(x, x_spec, rng)
        states += [(x, x_spec), (perturb(x, 1e-3, xi=xi, eta=eta), x_spec)]
    monkeypatch.undo()
    for x, x_spec in states:
        assert_polish_matches_packed(x, x_spec, monkeypatch)
        ours, ref = refine_critical(x, x_spec), trf_polish(x, x_spec)
        assert abs(action(ours, x_spec) - action(ref, x_spec)) <= 1e-12
        if gradient_norm(ref, x_spec) <= 1e-13:
            assert gradient_norm(ours, x_spec) <= 1e-13


def test_minimax_theta_default_family(spec, config):
    rec = minimax_theta(default_family(spec), spec, config)
    np.testing.assert_allclose(rec.theta, 0.249619705159, atol=1e-6)
    assert rec.classification.kind == "on-hypersurface"
    assert rec.confident
    assert rec.converged
    assert rec.theta >= 0.0
    np.testing.assert_allclose(rec.leaf_action, rec.symplectic)
    np.testing.assert_allclose(rec.leaf_action,
                               spec.rho_star * math.exp(rec.sigma), atol=1e-8)
    assert rec.grad_norm <= 1e-6
    # the level and gradient norm come from one evaluation of the witness
    assert (rec.theta, rec.grad_norm) == (action(rec.witness, spec),
                                          gradient_norm(rec.witness, spec))
    row = rec.to_row()
    assert row["r"] == spec.r and row["theta"] == rec.theta


def oracle_level(r):
    """(level, classification kind) of the straight unit-speed loop:
    max(fake, shelf, 0), where shelf_value raises below the shelf's
    first landing and the level is the fake value's."""
    levels = [(oracles.fake_value(r), "fake-geodesic"), (0.0, "constant")]
    try:
        levels.append((oracles.shelf_value(r), "on-hypersurface"))
    except ValueError:
        pass
    return max(levels, key=lambda level: level[0])


def test_legendre_oracle_at_unit_speed_is_the_closed_form():
    for r in np.linspace(0.05, 2.0, 20):
        assert abs(oracles.theta_oracle_at(r, 1.0) - oracles.theta_oracle(r)) <= 1e-12
        assert max(oracles.legendre_branches(r, 1.0))[1] == oracle_level(r)[1]


def test_theta_oracle_below_the_shelf_landing_is_the_fake_value():
    # r = 0.05, the first point of the default grid, is below the shelf's
    # first landing at r = rho* / chi'(0) = 0.064
    assert not oracles.shelf_lands(0.05) and oracles.shelf_lands(0.065)
    assert oracles.theta_oracle(0.05) == oracles.fake_value(0.05)
    with pytest.raises(ValueError):
        oracles.shelf_value(0.05)


# faster straight loops: the kinetic (closed-geodesic) branch wins at
# small r, the shelf at large r.  (1, 1) at r = 0.05 reaches the level
# but is not confident, so confident is not gated.
@pytest.mark.parametrize("winding", [(1, 1), (2, 0)])
@pytest.mark.parametrize("r", [0.05, 0.35789473684210527, 1.0, 2.0])
def test_minimax_theta_on_straight_loops_beyond_unit_speed(winding, r):
    spec = default_spec(J=32, r=r)
    rec = minimax_theta(default_family(spec, winding), spec, FlowConfig.auto(spec))
    level, kind = max(oracles.legendre_branches(r, math.hypot(*winding)))
    assert abs(rec.theta - level) <= 1e-9
    assert rec.classification.kind == kind


def wiggled_loop(amplitude):
    return random_loop(flat_torus(2), (1, 0), 8, np.random.default_rng(3), amplitude=amplitude)


# off the straight family the fiber maximizers are saddles of the plain
# flow; the envelope descent carries them back to the straight loop's
# critical level.  At J = 8, amplitude 0.02 and r = 0.05 the top maxima
# descend to the closed-geodesic level 0.45 and only a lower maximum
# reaches the fake level, so every maximizer down to the level counts.
@pytest.mark.parametrize("J, amplitude, r", [
    (32, amplitude, r) for amplitude in (0.005, 0.02)
    for r in (0.05, 0.35789473684210527, 1.0, 2.0)] + [(8, 0.02, 0.05)])
def test_minimax_theta_off_the_straight_family(J, amplitude, r):
    spec = default_spec(J=J, r=r)
    rec = minimax_theta([wiggled_loop(amplitude)], spec, FlowConfig.auto(spec))
    level, kind = oracle_level(r)
    assert abs(rec.theta - level) <= 1e-9
    assert rec.classification.kind == kind
    assert rec.converged and rec.steps > 0


# the perturbed (1, 1) loop descends to the straight (1, 1) geodesic, so
# its level is the oracle's at speed sqrt 2, not at the loop's top speed
# 1.4571 (which misses by 0.0615 at r = 0.05).  r = 0.05 reaches the
# level unconfident, so confident is not gated.
@pytest.mark.parametrize("r", [0.05, 0.35789473684210527, 1.0])
def test_minimax_theta_on_a_perturbed_winding_1_1_loop(r):
    spec = default_spec(J=32, r=r)
    loop = random_loop(flat_torus(2), (1, 1), 8, np.random.default_rng(3), amplitude=0.005)
    rec = minimax_theta([loop], spec, FlowConfig.auto(spec))
    level, kind = max(oracles.legendre_branches(r, math.sqrt(2.0)))
    assert abs(rec.theta - level) <= 1e-9
    assert rec.classification.kind == kind


# at amplitude 0.05 the fake level is reached only from the maximizer the
# 1.85 rho1 seed ascends to: without that seed, and with seeds at only
# the Legendre branches present at every t, the level is the
# closed-geodesic 0.45
def test_minimax_theta_reaches_the_fake_level_at_amplitude_0_05():
    spec = default_spec(J=32, r=0.05)
    rec = minimax_theta([wiggled_loop(0.05)], spec, FlowConfig.auto(spec))
    level, kind = oracle_level(0.05)
    assert abs(rec.theta - level) <= 1e-9
    assert rec.classification.kind == kind
    assert rec.converged


def test_minimax_theta_descends_once_on_the_straight_loop(spec, config, monkeypatch):
    # the maximizer copies share the top action and are skipped as the
    # same start; every other maximizer lies below the level reached
    ascents, starts = [], []
    sup, descent = minimax.fiber_sup, minimax._envelope_descent

    def ascend(*args, **kwargs):
        ascents.append(sup(*args, **kwargs))
        return ascents[-1]

    def descend(x, *args):
        starts.append(x.fiber.coefficients)
        return descent(x, *args)

    monkeypatch.setattr(minimax, "fiber_sup", ascend)
    monkeypatch.setattr(minimax, "_envelope_descent", descend)
    rec = minimax_theta(default_family(spec), spec, config)
    assert len(starts) == 1 and rec.steps == 0 and rec.converged
    # the pool's one ascent, then the descent's one re-ascent
    assert rec.confident and len(ascents) == 2
    results = ascents[0]
    top = results[0]
    assert starts[0] is top.field.coefficients
    copies = [res for res in results[1:] if res.field.frame.norm(
        1.0 - spec.s, res.field.coefficients - top.field.coefficients) <= minimax.SAME_MAXIMIZER]
    assert copies and all(res.action >= rec.theta for res in copies)
    assert len(copies) + 1 < len(results)
    assert all(res.action < rec.theta for res in results[len(copies) + 1:])


def perturbed_orbit(spec):
    xg = straight_orbit(flat_torus(2), (1, 0), spec)
    xi, eta = random_direction(xg, spec, np.random.default_rng(5))
    return perturb(xg, 0.1, xi=xi, eta=eta)


def test_composite_descent_reconverges(small_spec, small_config):
    # perturb the closed geodesic, then descend the fiber-sup envelope back
    xp = perturbed_orbit(small_spec)
    assert action(xp, small_spec) != pytest.approx(0.5 - small_spec.r, abs=1e-6)
    xc, ok = composite_descent(xp, small_spec, small_config)
    assert ok
    np.testing.assert_allclose(action(xc, small_spec), 0.5 - small_spec.r, atol=1e-6)
    assert gradient_norm(xc, small_spec) <= 0.01 * small_config.grad_tol


def test_empty_family_is_rejected_before_any_work(spec, config, monkeypatch):
    monkeypatch.setattr(minimax, "fiber_sup", None)   # any work would fail with TypeError
    with pytest.raises(ValueError, match="nonempty family"):
        minimax_theta([], spec, config)
    with pytest.raises(ValueError, match="nonempty family"):
        minimax_theta(iter([]), spec, config)
    with pytest.raises(ValueError, match="nonempty family"):
        orbit_sweep(spec, [0.5], config, family=[])


def test_orbit_sweep_serial_parallel_identical(config):
    from loopflow.hamiltonian import default_spec
    spec16 = default_spec(J=16)
    cfg = FlowConfig.auto(spec16)
    grid = [0.5, 1.0]
    rec_a, sum_a = orbit_sweep(spec16, grid, cfg, jobs=1)
    rec_b, sum_b = orbit_sweep(spec16, grid, cfg, jobs=2)
    assert len(rec_a) == len(rec_b) == 2
    for ra, rb in zip(rec_a, rec_b):
        assert ra.r == rb.r
        assert ra.theta == rb.theta
        assert ra.classification.kind == rb.classification.kind
        np.testing.assert_array_equal(ra.witness.fiber.coefficients,
                                      rb.witness.fiber.coefficients)
        # the pool's witnesses come back through pickle, still read-only
        for arr in (rb.witness.fiber.coefficients, rb.witness.loop.cos_coeffs,
                    rb.witness.loop.sin_coeffs):
            assert not arr.flags.writeable
    assert sum_a == sum_b
    assert sum_a.hit_found
    assert sum_a.first_hit_r == 0.5
    np.testing.assert_allclose(sum_a.leaf_bound,
                               2.0 * (oracles.alpha_oracle() + oracles.threshold_r0()),
                               atol=1e-8)
    assert sum_a.budget_flagged == ()
    # thetas decrease in r and match the oracle level
    assert rec_a[0].theta > rec_a[1].theta
    for rec in rec_a:
        np.testing.assert_allclose(rec.theta, oracles.theta_oracle(rec.r), atol=1e-6)


def test_orbit_sweep_records_equal_minimax_theta_at_each_r(monkeypatch):
    # one ascent across the grid, then each r-point's level: every field
    # of every record equals the single-r estimate, and the benchmark's
    # per-point hook, _sweep_task, runs once per r in grid order
    spec16 = default_spec(J=16)
    cfg = FlowConfig.auto(spec16)
    grid = [0.05, 0.35789473684210527, 1.0]
    task, points = minimax._sweep_task, []

    def counted(payload):
        points.append(payload[0].r)
        return task(payload)

    monkeypatch.setattr(minimax, "_sweep_task", counted)
    records, _ = orbit_sweep(spec16, grid, cfg, jobs=1)
    assert points == grid
    family = default_family(spec16)
    for r, rec in zip(grid, records):
        ref = minimax_theta(family, spec16.with_r(r), cfg)
        assert (rec.r, rec.theta, rec.grad_norm, rec.steps, rec.converged, rec.confident) == (
            ref.r, ref.theta, ref.grad_norm, ref.steps, ref.converged, ref.confident)
        assert (str(rec.classification), rec.sigma, rec.leaf_action, rec.symplectic) == (
            str(ref.classification), ref.sigma, ref.leaf_action, ref.symplectic)
        # the witness loop and fiber coefficients
        assert rec.witness.loop.base == ref.witness.loop.base
        np.testing.assert_array_equal(rec.witness.loop.series(16), ref.witness.loop.series(16))
        np.testing.assert_array_equal(rec.witness.fiber.coefficients,
                                      ref.witness.fiber.coefficients)


@pytest.mark.parametrize("J", [8, 32])
def test_fiber_hessian_matches_dense_einsum(J):
    spec = default_spec(J=J)
    rng = np.random.default_rng(J)
    loop = straight_loop(flat_torus(2), (1, 0))
    frame = frame_of(loop, J)
    m = 4 * J + 1
    basis = frame.basis_samples(m)
    for rho0 in (0.22, spec.rho_star, 0.6, 1.0):
        c = 0.02 * rng.standard_normal(frame.dim) / (1.0 + frame.eigenvalues) ** 0.5
        c[0] += rho0
        # reference: pointwise fiber Hessian from per-order radial_H, then
        # the dense three-operand einsum over the sampled eigenfields
        p = frame.samples(c, m)
        rho = np.sqrt(np.sum(p ** 2, axis=1))
        ratio = radial_H(spec, rho, order=1) / rho
        phat = p / rho[:, None]
        w = (ratio[:, None, None] * np.eye(2)[None, :, :]
             + (radial_H(spec, rho, order=2) - ratio)[:, None, None]
             * phat[:, :, None] * phat[:, None, :])
        ref = np.einsum("kti,tij,ltj->kl", basis, w, basis) / m
        hess = frame.compress(minimax._pointwise_hessian(frame, c, spec))
        assert np.max(np.abs(hess - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("J", [1, 8, 32])
def test_compress_matches_dense_einsum_for_a_random_symmetric_multiplier(n, J):
    # every (a, b) block of the strided writes, against the three-operand
    # einsum over the sampled eigenfields
    frame = SpectralFrame(n, J)
    rng = np.random.default_rng([n, J])
    for m in (4 * J + 1, 2 * J + 2):
        w = rng.standard_normal((m, n, n))
        w = w + np.swapaxes(w, 1, 2)
        basis = frame.basis_samples(m)
        ref = np.einsum("kti,tij,ltj->kl", basis, w, basis) / m
        assert np.max(np.abs(frame.compress(w) - ref)) <= 1e-12 * np.max(np.abs(ref))


def frame_arrays(frame):
    # every array the frame keeps: its attributes, and the values of its
    # dict caches and tuples, recursively
    stack, out = list(vars(frame).values()), []
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, tuple):
            stack.extend(value)
        elif isinstance(value, np.ndarray):
            out.append(value)
    return out


def test_a_frame_keeps_no_array_larger_than_its_dimension(monkeypatch):
    # after a J = 16 minimax_theta whose fiber ascents take the Newton
    # endgame, and after embedded_metric on a frame of the same shape
    spec = default_spec(J=16, r=1.0)
    newton, endgames = minimax._vertical_newton, []

    def counted(*args):
        endgames.append(args[0])
        return newton(*args)

    monkeypatch.setattr(minimax, "_vertical_newton", counted)
    family = default_family(spec)
    minimax_theta(family, spec, FlowConfig.auto(spec))
    frame = frame_of(family[0], spec.J)
    assert endgames and all(f is frame for f in endgames)
    assert {v.shape for v in frame_arrays(frame)} == {(frame.dim,)}
    embedded_metric(random_loop(flat_torus(2), (1, 1), 4, np.random.default_rng(2)), spec.J)
    assert {v.shape for v in frame_arrays(frame)} == {(frame.dim,)}


def test_pool_size_clamps_to_points_and_cpus():
    assert pool_size(4, 20, 2) == 2
    assert pool_size(8, 3, 16) == 3
    assert pool_size(1, 20, 8) == 1
    assert pool_size(1000, 20, 4) == 4
    assert pool_size(2, 0, 4) == 1
    assert pool_size(3, 5, 1) == 1


def test_orbit_sweep_sizes_its_pool_from_the_usable_cpus(monkeypatch):
    # under taskset -c 0 the machine may still count two CPUs: --jobs 2
    # must then run serially instead of starting two workers on one CPU
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a one-CPU sweep started a process pool")

    monkeypatch.setattr(minimax.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(minimax.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(minimax, "ProcessPoolExecutor", NoPool)
    spec4 = default_spec(J=4)
    records, _ = orbit_sweep(spec4, [0.5, 1.0], FlowConfig.auto(spec4), jobs=2)
    assert [rec.r for rec in records] == [0.5, 1.0]


@settings(max_examples=8)
@given(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3))
def test_serial_and_pool_sweeps_give_equal_records(grid):
    spec4 = default_spec(J=4)
    cfg = FlowConfig.auto(spec4)
    serial, _ = orbit_sweep(spec4, grid, cfg, jobs=1)
    pooled, _ = orbit_sweep(spec4, grid, cfg, jobs=2)
    assert len(serial) == len(pooled) == len(grid)
    for a, b in zip(serial, pooled):
        assert (a.r, a.theta, str(a.classification), a.grad_norm, a.steps) == (
            b.r, b.theta, str(b.classification), b.grad_norm, b.steps)
        assert a.witness.loop.base == b.witness.loop.base
        assert a.witness.loop.series(4).tobytes() == b.witness.loop.series(4).tobytes()
        assert a.witness.fiber.coefficients.tobytes() == b.witness.fiber.coefficients.tobytes()


def reference_composite_descent(x, spec, config):
    """composite_descent as it was: each round evaluated the state for
    its gradient norm and again for the step's k1."""
    tol = 0.01 * config.grad_tol
    for _ in range(minimax.DESCENT_ROUNDS):
        asc = fiber_sup(x.loop, spec, config, seeds=[x.fiber.coefficients])[0]
        x = PhasePoint(loop=x.loop, fiber=asc.field)
        if gradient_norm(x, spec) <= tol:
            return x, True
        L, _, k = flow_mod._step(x.loop.series(spec.J), spec, config, 5.0 * config.dt,
                                 flow_mod.flow_velocity(x, spec, config),
                                 gradient_plan(x.frame, spec.s))
        x = flow_mod._state(x, L, k.fiber)
    return x, False


def test_composite_descent_matches_reference(small_spec, small_config, monkeypatch):
    monkeypatch.setattr(minimax, "DESCENT_ROUNDS", 6)
    x = perturbed_orbit(small_spec)
    got, ok = composite_descent(x, small_spec, small_config)
    want, ref_ok = reference_composite_descent(x, small_spec, small_config)
    assert ok == ref_ok
    assert got.loop.content_key() == want.loop.content_key()
    assert got.fiber.coefficients.tobytes() == want.fiber.coefficients.tobytes()


def test_descent_round_evaluates_its_state_once(small_spec, small_config, monkeypatch):
    # per round after the ascent: one kernel call (metric_gradient) at the
    # ascended state, whose velocity is also the step's k1, then four per
    # RK4 try
    rounds = []

    def counted(fn, slot):
        def wrapped(*args, **kwargs):
            rounds[-1][slot] += 1
            return fn(*args, **kwargs)
        return wrapped

    def ascend(*args, **kwargs):
        rounds.append([0, 0])   # evaluations, RK4 tries
        return sup(*args, **kwargs)

    sup = minimax.fiber_sup
    monkeypatch.setattr(flow_mod, "metric_gradient", counted(flow_mod.metric_gradient, 0))
    monkeypatch.setattr(flow_mod, "_rk4", counted(flow_mod._rk4, 1))
    monkeypatch.setattr(minimax, "fiber_sup", ascend)
    monkeypatch.setattr(minimax, "DESCENT_ROUNDS", 4)
    composite_descent(perturbed_orbit(small_spec), small_spec, small_config)
    assert len(rounds) == 4
    assert all(evals == 1 + 4 * tries for evals, tries in rounds)
    assert [1, 5] in ([tries, evals] for evals, tries in rounds)
