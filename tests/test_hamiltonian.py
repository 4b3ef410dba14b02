import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from loopflow.hamiltonian import (_ANNULUS_TURNS, _ENVELOPE_PEAK, HamiltonianSpec,
                                  _rising_pieces, alpha_bound, chi, default_spec, envelope_beta,
                                  legendre_conjugate, phi, r0_threshold, radial_H,
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


@pytest.mark.parametrize("field", ["rho0", "rho1", "rho_star", "delta", "r", "s"])
@pytest.mark.parametrize("value", [True, False, np.True_, "0.3", None])
def test_spec_refuses_a_bool_or_a_non_number(field, value):
    # default_spec(r=True) was accepted and kept True, to_json wrote
    # "r": true, and from_json read true as 1.0
    with pytest.raises(ValueError, match=f"spec {field} must be a real number"):
        default_spec(**{field: value})
    with pytest.raises(ValueError, match=f"spec {field} must be a real number"):
        HamiltonianSpec.from_json({**default_spec().to_json(), field: value})
    if field == "r":
        with pytest.raises(ValueError, match="spec r must be a real number"):
            default_spec().with_r(value)


def test_spec_stores_its_real_fields_as_floats():
    spec = default_spec(r=np.int64(1), delta=np.float64(0.2), s=0.75)
    assert spec == default_spec() and spec.to_json() == default_spec().to_json()
    assert all(type(getattr(spec, name)) is float
               for name in ("rho0", "rho1", "rho_star", "delta", "r", "s"))
    assert type(spec.with_r(1).r) is float
    assert json.dumps(default_spec(r=1).to_json()) == json.dumps(default_spec().to_json())


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
    np.testing.assert_allclose(r0_threshold(spec), oracles.threshold_r0(), atol=1e-12)
    np.testing.assert_allclose(envelope_beta(spec), oracles.beta_envelope(), atol=1e-12)
    np.testing.assert_allclose(alpha_bound(spec, 1.0), 0.613162058098, atol=1e-9)
    np.testing.assert_allclose(alpha_bound(spec, 2.0), 2.0 + envelope_beta(spec))


# r0_threshold and envelope_beta read their closed-form maximizers; the
# references are the two 10 000-node searches (plus one Newton step) that
# found them before.

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


THRESHOLD_SPECS = [
    {},
    dict(rho0=0.1, rho1=0.5, rho_star=0.25, delta=0.3),
    dict(rho0=0.5, rho1=2.0, rho_star=1.0, delta=0.6),
    dict(rho0=0.01, rho1=0.03, rho_star=0.02, delta=0.1),
    dict(rho1=0.9, rho_star=0.35, delta=0.1),
]


@pytest.mark.parametrize("overrides", THRESHOLD_SPECS)
@pytest.mark.parametrize("grid", [10000, 101, 7])
def test_thresholds_match_the_separate_searches(overrides, grid):
    # a search samples the maximand, so at any node count it lies below
    # the maximum up to roundoff; the 10 000-node one reaches it within 1e-15
    spec = default_spec(**overrides)
    for closed, search in ((r0_threshold(spec), reference_r0_threshold(spec, grid)),
                           (envelope_beta(spec), reference_envelope_beta(spec, grid))):
        assert search <= closed * (1.0 + 1e-15)
        if grid == 10000:
            assert closed <= search * (1.0 + 1e-15)


def test_thresholds_are_rho1_squared_times_constants():
    # g = phi' rho - phi and rho^2/2 - phi are rho1^2 times functions of
    # u = (rho - rho1)/rho1 alone, so r0 - 1 and beta over rho1^2 are the
    # same on every spec: the maxima over u, here to 20 digits (r0 is
    # compared whole, as r0 - 1 loses digits when rho1 is small)
    for overrides in THRESHOLD_SPECS:
        spec = default_spec(**overrides)
        np.testing.assert_allclose(r0_threshold(spec), 1.0 + 4.5303546943076209664 * spec.rho1 ** 2,
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(envelope_beta(spec), 0.70726286311456130096 * spec.rho1 ** 2,
                                   rtol=1e-15, atol=0)


def test_the_envelope_peak_is_the_root_of_the_quintic():
    # d/du [(1 + u)^2 (1 - s(u))] = (1 + u) P(u), P's coefficients exact in
    # doubles; P goes from + to - across _ENVELOPE_PEAK and nowhere else in
    # (0, 1) (its other root there is the double root u = 1)
    Poly = np.polynomial.Polynomial
    quintic = Poly([2.0, 0.0, -30.0, 10.0, 60.0, -42.0])
    s = Poly([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
    assert (Poly([1.0, 1.0]) ** 2 * (1.0 - s)).deriv() == Poly([1.0, 1.0]) * quintic
    assert _ENVELOPE_PEAK == float("0.29562184580645602224")
    assert quintic(_ENVELOPE_PEAK - 1e-12) > 0.0 > quintic(_ENVELOPE_PEAK + 1e-12)
    u = np.linspace(0.0, 1.0, 10001)[1:-1]
    assert np.array_equal(quintic(u) > 0.0, u < _ENVELOPE_PEAK)


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


CONJUGATE_RS = (0.05, 0.35789473684210527, 1.0, 2.0)


def conjugate_speeds(r):
    """Speeds at the ends of H_r's rising slopes (the band's peak 15.703 r,
    the annulus's peak 1.35066, its dip 0.79828 and 2 rho1 = 0.8), just
    inside and outside each, the dip window between 0.79828 and 0.8,
    unit speed and 4 pi."""
    ends = np.array([15.70322282 * r, 1.3506613, 0.79828441, 0.8])
    return np.concatenate([ends, ends * (1.0 - 1e-6), ends * (1.0 + 1e-6),
                           np.linspace(0.7983, 0.7999, 5), [0.3, 0.5, 1.0, 4.0 * np.pi]])


def brute_conjugate(r, speeds):
    """sup over rho of rho v - H_r(rho) on a dense rho grid, from the
    oracle's H_r: spacing 1e-6 up to 1 and 2e-5 beyond, to 1.1 times
    the largest speed.  The grid misses the sup by at most max|H_r''|/2
    times the squared half-spacing: below 2e-10 (|H_r''| <= 970 up to 1
    at r <= 2, and H_r'' = 1 on the tail)."""
    top = 1.1 * max(1.0, float(np.max(speeds)))
    rho = np.concatenate([np.linspace(0.0, 1.0, 1_000_001),
                          np.linspace(1.0, top, int((top - 1.0) / 2e-5) + 2)])
    H = oracles.radial_H_oracle(r, rho)
    return np.array([np.max(rho * v - H) for v in speeds])


@pytest.mark.parametrize("r", CONJUGATE_RS)
def test_legendre_conjugate_matches_the_oracle_and_a_dense_search(r):
    speeds = conjugate_speeds(r)
    ours = legendre_conjugate(default_spec(r=r), speeds)
    oracle = np.array([oracles.theta_oracle_at(r, v) for v in speeds])
    brute = brute_conjugate(r, speeds)
    np.testing.assert_allclose(ours, oracle, rtol=0.0, atol=1e-12)
    # the grid's values are f at grid radii, so at most the sup
    assert np.all(brute <= ours + 1e-14) and np.all(ours - brute <= 2e-10)


@pytest.mark.parametrize("r", CONJUGATE_RS)
def test_the_second_annulus_branch_leaves_the_oracle_level_unmoved(r):
    # speeds in the dip window have a second fake-annulus maximizer, past
    # the dip of phi'; it lies below the first, so theta_oracle_at, the
    # largest value, is that of the branches without it
    for v in np.linspace(0.7983, 0.7999, 9):
        levels = oracles.legendre_branches(r, v)
        fake = [value for value, kind in levels if kind == "fake-geodesic"]
        assert len(fake) == 2 and fake[1] < fake[0]
        without = [level for level in levels if level[1] != "fake-geodesic"] + [
            ("fake-geodesic", fake[0])[::-1]]
        assert oracles.theta_oracle_at(r, v) == max(value for value, _ in without)
    for v in (0.79, 0.8, 1.0):
        assert sum(kind == "fake-geodesic" for _, kind in oracles.legendre_branches(r, v)) <= 1


def test_legendre_conjugate_at_zero_and_at_non_finite_speeds(spec):
    # H_r >= 0 = H_r(0), so H_r*(0) = 0; a NaN or infinite speed gives NaN
    values = legendre_conjugate(spec, np.array([0.0, math.nan, math.inf, 1.0]))
    assert values[0] == 0.0 and np.isnan(values[1:3]).all()
    assert abs(values[3] - oracles.theta_oracle_at(1.0, 1.0)) <= 1e-15


def test_the_annulus_turns_are_the_roots_of_the_quartic():
    # phi'' = u Q(u) at rho = rho1 (1 + u): Q's roots in (0, 1), to the
    # double nearest each of their 20-digit values
    roots = np.roots([126.0, -45.0, -140.0, 30.0, 30.0])
    inside = np.sort(roots.real[(roots.real > 0.0) & (roots.real < 1.0)])
    np.testing.assert_allclose(inside, _ANNULUS_TURNS, rtol=1e-15)
    assert _ANNULUS_TURNS == (float("0.65691149315523903052"), float("0.99129272689327862962"))
    u = np.array(_ANNULUS_TURNS)
    assert np.all(np.abs(phi(default_spec(), 0.4 * (1.0 + u), order=2)) <= 1e-13)


@given(valid_specs())
def test_H_prime_rises_exactly_on_the_rising_pieces(spec):
    # on a dense grid H_r' increases inside the pieces (and past 2 rho1)
    # and nowhere else, away from the grid cells at the pieces' ends
    starts, ends = _rising_pieces(spec)
    rho = np.linspace(0.0, 3.0 * spec.rho1, 60001)
    h = 3.0 * spec.rho1 / 60000
    _, h1, h2 = radial_H_jet(spec, rho)
    rising = np.diff(h1) > 0.0
    mid = 0.5 * (rho[1:] + rho[:-1])
    inside = np.zeros_like(rising)
    near = np.zeros_like(rising)
    for lo, hi in zip(starts, ends):
        inside |= (mid > lo) & (mid < hi)
        near |= (np.abs(mid - lo) < 2.0 * h) | (np.abs(mid - hi) < 2.0 * h)
    inside |= mid > 2.0 * spec.rho1
    assert np.array_equal(rising[~near], inside[~near])
    # the pieces' ends where H_r' turns are zeros of H_r''
    turns = np.array([ends[0], ends[1], starts[2]])
    assert np.all(np.abs(radial_H_jet(spec, turns)[2]) <= 1e-12 * np.max(np.abs(h2)))
