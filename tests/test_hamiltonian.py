import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from loopflow.hamiltonian import (HamiltonianSpec, alpha_bound, chi, default_spec,
                                  envelope_beta, phi, r0_threshold, radial_H,
                                  radial_H_jet, smoothstep)
from references import fake_geodesic_action, perturbation_sup_diff


def test_smoothstep_values_and_joins():
    s, s1, s2, s3 = smoothstep(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
    np.testing.assert_allclose(s, [0.0, 0.0, 0.5, 1.0, 1.0])
    # C^2 joins: first and second derivatives vanish at both ends
    np.testing.assert_allclose(s1[[0, 1, 3, 4]], 0.0)
    np.testing.assert_allclose(s2[[0, 1, 3, 4]], 0.0)
    np.testing.assert_allclose(s1[2], 1.875)  # 30/16


def test_smoothstep_derivatives_need_no_mask_on_finite_input():
    # s' and s'' are their polynomials at the clamped u, with no mask: on
    # finite u, infinite u and both clamps they have the bits of the masked
    # formulas (+0.0 outside the open band 0 < u < 1); only the third
    # derivative keeps its mask
    rng = np.random.default_rng(4)
    u = np.concatenate([[-np.inf, -1e300, -1.0, -0.0, 0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0),
                         1.0, np.nextafter(1.0, 2.0), 2.0, 1e300, np.inf],
                        rng.uniform(-1.0, 2.0, 200)])
    uc = np.minimum(np.maximum(u, 0.0), 1.0)
    inside = (u > 0.0) & (u < 1.0)
    masked = (np.where(inside, 30.0 * uc ** 2 * (uc - 1.0) ** 2, 0.0),
              np.where(inside, 60.0 * uc * (2.0 * uc - 1.0) * (uc - 1.0), 0.0),
              np.where(inside, 60.0 * (6.0 * uc ** 2 - 6.0 * uc + 1.0), 0.0))
    for got, want in zip(smoothstep(u)[1:], masked):
        assert got.tobytes() == want.tobytes()
    at_nan = smoothstep(np.nan)
    assert all(np.isnan(v) for v in at_nan[:3]) and at_nan[3] == 0.0


def test_smoothstep_derivatives_by_fd():
    u = np.linspace(0.05, 0.95, 19)
    s, s1, s2, s3 = smoothstep(u)
    h = 1e-6
    sp, sm = smoothstep(u + h)[0], smoothstep(u - h)[0]
    np.testing.assert_allclose((sp - sm) / (2.0 * h), s1, atol=1e-8)
    # second differences need a larger step to stay above eps/h^2 noise
    h = 1e-4
    sp, sm = smoothstep(u + h)[0], smoothstep(u - h)[0]
    np.testing.assert_allclose((sp - 2.0 * s + sm) / h ** 2, s2, atol=1e-5)
    s1p, s1m = smoothstep(u + h)[1], smoothstep(u - h)[1]
    np.testing.assert_allclose((s1p - 2.0 * s1 + s1m) / h ** 2, s3, atol=1e-4)


def test_chi_against_oracle(spec):
    sigma = np.linspace(-0.4, 0.4, 81)
    np.testing.assert_allclose(chi(spec, sigma), oracles.chi_oracle(sigma), atol=1e-14)
    np.testing.assert_allclose(chi(spec, sigma, order=1), oracles.chi_d1_oracle(sigma),
                               atol=1e-12)
    assert float(chi(spec, -0.25)) == 0.0
    np.testing.assert_allclose(chi(spec, 0.0), 0.5)


@pytest.mark.parametrize("order", [-1, 4])
def test_chi_rejects_an_order_outside_0_to_3(spec, order):
    with pytest.raises(ValueError, match=r"order must be 0\.\.3"):
        chi(spec, 0.1, order=order)


def test_phi_against_oracle(spec):
    rho = np.linspace(0.0, 1.2, 241)
    np.testing.assert_allclose(phi(spec, rho), oracles.phi_oracle(rho), atol=1e-14)
    np.testing.assert_allclose(phi(spec, rho, order=1), oracles.phi_d1_oracle(rho),
                               atol=1e-12)
    # quadratic beyond 2 rho1, zero through rho1
    assert phi(spec, 0.35) == 0.0
    np.testing.assert_allclose(phi(spec, 0.9), 0.5 * 0.81)
    with pytest.raises(ValueError):
        phi(spec, rho, order=4)


def closed_form_phi(spec, rho, order):
    # phi as it was before it read the tail jet: one closed form per order
    rho = np.asarray(rho, dtype=float)
    r1 = spec.rho1
    s, s1, s2, s3 = smoothstep((rho - r1) / r1)
    s1, s2, s3 = s1 / r1, s2 / r1 ** 2, s3 / r1 ** 3
    return (0.5 * rho ** 2 * s, rho * s + 0.5 * rho ** 2 * s1,
            s + 2.0 * rho * s1 + 0.5 * rho ** 2 * s2,
            3.0 * s1 + 3.0 * rho * s2 + 0.5 * rho ** 2 * s3)[order]


@pytest.mark.parametrize("order", range(4))
def test_phi_has_the_bits_of_its_closed_forms(spec, order):
    # negative radii, 0, the joins rho1 and 2 rho1, far out, and a dense grid
    rho = np.concatenate([[-0.7, -1e-300, -0.0, 0.0, spec.rho1, 2.0 * spec.rho1, 1e10],
                          np.linspace(-1.0, 3.0, 4001)])
    assert phi(spec, rho, order).tobytes() == closed_form_phi(spec, rho, order).tobytes()
    for one in (-0.7, 0.0, spec.rho1, 0.5, 2.0 * spec.rho1, 1e10):
        got, want = phi(spec, one, order), closed_form_phi(spec, one, order)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_phi_higher_orders_by_fd(spec):
    rho = np.linspace(0.45, 0.75, 31)
    h = 1e-6
    d1 = (phi(spec, rho + h) - phi(spec, rho - h)) / (2.0 * h)
    np.testing.assert_allclose(d1, phi(spec, rho, order=1), atol=1e-7)
    d2 = (phi(spec, rho + h, order=1) - phi(spec, rho - h, order=1)) / (2.0 * h)
    np.testing.assert_allclose(d2, phi(spec, rho, order=2), atol=1e-5)
    d3 = (phi(spec, rho + h, order=2) - phi(spec, rho - h, order=2)) / (2.0 * h)
    np.testing.assert_allclose(d3, phi(spec, rho, order=3), atol=1e-3)


def test_radial_H_branches(spec):
    rho = np.linspace(0.0, 1.5, 601)
    np.testing.assert_allclose(radial_H(spec, rho), oracles.radial_H_oracle(spec.r, rho),
                               atol=1e-14)
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    assert radial_H(spec, 0.5 * lo) == 0.0
    np.testing.assert_allclose(radial_H(spec, 0.5 * (hi + spec.rho1)), spec.r)
    np.testing.assert_allclose(radial_H(spec, 1.0), spec.r + 0.5)
    with pytest.raises(ValueError):
        radial_H(spec, rho, order=3)


def test_radial_H_derivatives_by_fd(spec):
    # avoid the exact branch joins; central differences elsewhere
    rho = np.concatenate([np.linspace(0.25, 0.36, 12), np.linspace(0.41, 1.1, 30)])
    h = 1e-6
    d1 = (radial_H(spec, rho + h) - radial_H(spec, rho - h)) / (2.0 * h)
    np.testing.assert_allclose(d1, radial_H(spec, rho, order=1), atol=1e-6)
    d2 = (radial_H(spec, rho + h, order=1) - radial_H(spec, rho - h, order=1)) / (2.0 * h)
    np.testing.assert_allclose(d2, radial_H(spec, rho, order=2), atol=1e-4)


def test_radial_H_jet_on_a_batch_equals_each_rows_call(spec):
    # each row of (S, m) radii at each r: the zero branch, the chi band,
    # the shelf and the phi tail mixed in every row, and an all-tail
    # batch, which takes the whole-array path
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    mixed = np.array([0.0, 0.5 * lo, lo, spec.rho_star, hi, np.nextafter(hi, 1.0),
                      0.5 * (hi + spec.rho1), spec.rho1, 0.55, 0.8, 2.0])
    tail = np.linspace(np.nextafter(spec.rho1, 1.0), 3.0, 11)
    rows = np.array([0.05, 0.35789473684210527, 1.0, 2.0])
    for radii in (mixed, tail):
        rho = np.stack([np.roll(radii, k) for k in range(len(rows))])
        for order in (1, 2):
            for r in rows:
                jet = radial_H_jet(spec.with_r(r), rho, order)
                assert len(jet) == order + 1
                for k in range(len(rho)):
                    alone = radial_H_jet(spec.with_r(r), rho[k], order)
                    for values, expected in zip(jet, alone):
                        assert values.shape == rho.shape and values.flags.c_contiguous
                        np.testing.assert_array_equal(values[k], expected)


def test_spec_validation_and_json(spec):
    with pytest.raises(ValueError):
        default_spec(rho0=0.5)          # needs rho0 < rho_star
    with pytest.raises(ValueError):
        default_spec(s=0.5)             # regularity strictly inside (1/2, 1)
    with pytest.raises(ValueError):
        default_spec(delta=1.0)         # thickening must fit the annulus
    again = HamiltonianSpec.from_json(spec.to_json())
    assert again == spec
    assert "\"r\":" in json.dumps(spec.to_json(), sort_keys=True).replace(" ", "")
    assert spec.with_r(0.5).r == 0.5
    np.testing.assert_allclose(spec.thickening_halfwidth, math.log(4.0 / 3.0))


@pytest.mark.parametrize("J", [8.5, 8.0, True, "8", None])
def test_spec_rejects_a_non_integral_mode_cutoff(J):
    # J = 8.5 passed and failed later inside the frame code with a TypeError
    with pytest.raises(ValueError, match="mode cutoff J must be an integer"):
        default_spec(J=J)
    with pytest.raises(ValueError, match="mode cutoff J must be an integer"):
        HamiltonianSpec.from_json({**default_spec().to_json(), "J": J})


def test_spec_stores_a_numpy_integer_mode_cutoff_as_int():
    spec = default_spec(J=np.int64(8))
    assert type(spec.J) is int and spec == default_spec(J=8)
    assert json.loads(json.dumps(spec.to_json()))["J"] == 8
    assert HamiltonianSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("field", ["rho0", "rho1", "rho_star", "delta", "r", "s"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_values(field, value):
    # r = inf and rho1 = inf passed every order check before
    with pytest.raises(ValueError, match=f"spec {field} must be finite"):
        default_spec(**{field: value})


def test_fake_geodesic_action_against_oracle(spec):
    rho_f1, rho_f2 = oracles.fake_radii()
    np.testing.assert_allclose(fake_geodesic_action(spec, rho_f1),
                               oracles.fake_value(spec.r), atol=1e-12)
    grid = np.linspace(0.45, 0.79, 35)
    expect = oracles.phi_d1_oracle(grid) * grid - oracles.phi_oracle(grid) - spec.r
    np.testing.assert_allclose(fake_geodesic_action(spec, grid), expect, atol=1e-13)
    with pytest.raises(ValueError):
        fake_geodesic_action(spec, 0.4)


def test_thresholds_against_oracles(spec):
    # oracle: tests/oracles.py::threshold_r0 / beta_envelope / alpha_oracle
    np.testing.assert_allclose(r0_threshold(spec), 1.724856751089, atol=1e-9)
    np.testing.assert_allclose(r0_threshold(spec), oracles.threshold_r0(), atol=1e-9)
    np.testing.assert_allclose(envelope_beta(spec), oracles.beta_envelope(), atol=1e-10)
    np.testing.assert_allclose(alpha_bound(spec, 1.0), 0.613162058098, atol=1e-9)
    np.testing.assert_allclose(alpha_bound(spec, 2.0), 2.0 + envelope_beta(spec))


# r0_threshold and envelope_beta share one grid-then-Newton search; the
# references are the two separate searches they replaced.

def reference_r0_threshold(spec, grid=10000):
    def defect(rho):
        return phi(spec, rho, order=1) * rho - phi(spec, rho)

    hi = 2.0 * spec.rho1
    rho = np.linspace(0.0, hi, grid)
    g = defect(rho)
    k = int(np.argmax(g))
    best_rho, best = float(rho[k]), float(g[k])
    if 0 < k < grid - 1:
        g1 = float(phi(spec, best_rho, order=2) * best_rho)
        g2 = float(phi(spec, best_rho, order=3) * best_rho + phi(spec, best_rho, order=2))
        if g2 < 0.0:
            cand = best_rho - g1 / g2
            if 0.0 < cand < hi:
                val = float(defect(cand))
                if val > best:
                    best_rho, best = cand, val
    return 1.0 + max(best, float(defect(hi)))


def reference_envelope_beta(spec, grid=10000):
    rho = np.linspace(0.0, 2.0 * spec.rho1, grid)
    vals = 0.5 * rho ** 2 - phi(spec, rho)
    k = int(np.argmax(vals))
    best_rho, best = float(rho[k]), float(vals[k])
    if 0 < k < grid - 1:
        d1 = best_rho - float(phi(spec, best_rho, order=1))
        d2 = 1.0 - float(phi(spec, best_rho, order=2))
        if d2 < 0.0:
            cand = best_rho - d1 / d2
            if 0.0 < cand < 2.0 * spec.rho1:
                best = max(best, float(0.5 * cand ** 2 - phi(spec, cand)))
    return best


@pytest.mark.parametrize("overrides", [
    {},
    dict(rho0=0.1, rho1=0.5, rho_star=0.25, delta=0.3),
    dict(rho0=0.5, rho1=2.0, rho_star=1.0, delta=0.6),
    dict(rho0=0.01, rho1=0.03, rho_star=0.02, delta=0.1),
    dict(rho1=0.9, rho_star=0.35, delta=0.1),
])
@pytest.mark.parametrize("grid", [10000, 101, 7])
def test_thresholds_match_the_separate_searches(overrides, grid):
    spec = default_spec(**overrides)
    assert r0_threshold(spec, grid) == reference_r0_threshold(spec, grid)
    assert envelope_beta(spec, grid) == reference_envelope_beta(spec, grid)


def plateau_weight(spec, rho):
    """dH_r/dr: 0 in the bounded region, chi(sigma) across, 1 beyond."""
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    out = np.zeros_like(rho)
    mid = (rho >= lo) & (rho <= hi)
    out[mid] = chi(spec, np.log(rho[mid] / spec.rho_star))
    out[rho > hi] = 1.0
    return out


def test_plateau_weight(spec):
    lo = spec.rho_star * math.exp(-spec.delta)
    hi = spec.rho_star * math.exp(spec.delta)
    rho = np.array([0.5 * lo, spec.rho_star, hi + 0.01, 1.3])
    w = plateau_weight(spec, rho)
    np.testing.assert_allclose(w, [0.0, 0.5, 1.0, 1.0])
    # dH/dr by finite differences in r
    h = 1e-7
    grid = np.linspace(0.0, 1.2, 121)
    num = (radial_H(spec.with_r(spec.r + h), grid) - radial_H(spec.with_r(spec.r - h), grid)) / (2.0 * h)
    np.testing.assert_allclose(num, plateau_weight(spec, grid), atol=1e-7)


def test_perturbation_sup_diff(spec):
    other = spec.with_r(0.8)
    np.testing.assert_allclose(perturbation_sup_diff(spec, other), 0.2, atol=1e-12)
    assert perturbation_sup_diff(spec, spec) == 0.0


@st.composite
def valid_specs(draw):
    # rho0 < rho* < rho1 and delta below the thickening half-width
    rho0 = draw(st.floats(0.05, 1.0))
    rho1 = rho0 * draw(st.floats(1.2, 4.0))
    rho_star = rho0 * (rho1 / rho0) ** draw(st.floats(0.2, 0.8))
    a = min(math.log(rho1 / rho_star), math.log(rho_star / rho0))
    return HamiltonianSpec(rho0=rho0, rho1=rho1, rho_star=rho_star,
                           delta=a * draw(st.floats(0.1, 0.9)), r=draw(st.floats(0.05, 2.0)),
                           J=32, s=0.75)


@given(valid_specs())
def test_radial_H_branch_joins_are_C2(spec):
    # H, H' and H'' agree from both sides of every join: the jump across
    # a join shrinks at least linearly with the step (a jump of size g
    # would stay g), up to roundoff in the value at the join
    joins = (spec.rho_star * math.exp(-spec.delta), spec.rho_star * math.exp(spec.delta),
             spec.rho1, 2.0 * spec.rho1)
    steps = np.array([1e-5, 1e-5 / 8.0])
    for x in joins:
        for order in (0, 1, 2):
            jump = np.abs(radial_H(spec, x * (1.0 + steps), order)
                          - radial_H(spec, x * (1.0 - steps), order))
            roundoff = 1e-9 * (1.0 + abs(radial_H(spec, x, order)))
            assert jump[1] <= jump[0] / 4.0 + roundoff, (x, order)
