import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopflow.action import derivative_coefficients
from loopflow.fourier import grid
from loopflow.geometry import LoopPath, embedded_circle, flat_torus, random_loop, straight_loop
from loopflow.spectral import frame_of
from references import coordinates, wrap


def test_flat_torus_basics():
    torus = flat_torus(2)
    assert torus.kind == "flat-torus"
    assert torus.dim == 2
    np.testing.assert_allclose(torus.periods, [1.0, 1.0])
    q = np.array([[1.3, -0.25]])
    np.testing.assert_allclose(wrap(torus, q), [[0.3, 0.75]], atol=1e-14)


def test_embedded_circle_basics():
    circle = embedded_circle()
    assert circle.dim == 1
    np.testing.assert_allclose(circle.periods, [2.0 * np.pi])
    np.testing.assert_allclose(circle.embedding_curvatures, [1.0])


def test_straight_loop_and_anchoring():
    loop = straight_loop(flat_torus(2), (1, 0), base=(0.25, 0.5))
    np.testing.assert_allclose(coordinates(loop, 0.0), [[0.25, 0.5]])
    np.testing.assert_allclose(loop.drift, [1.0, 0.0])
    v = loop.velocity_samples(9)
    np.testing.assert_allclose(v, np.tile([1.0, 0.0], (9, 1)))
    # wrapping the position lands in the fundamental domain
    pt = wrap(loop.manifold, coordinates(loop, 0.9))
    np.testing.assert_allclose(pt, [[0.25 + 0.9 - 1.0, 0.5]], atol=1e-14)


def test_loop_anchor_is_exact_with_modes(rng):
    loop = random_loop(flat_torus(3), (0, 1, 2), 5, rng)
    np.testing.assert_allclose(coordinates(loop, 0.0)[0], loop.base, atol=1e-13)


def test_coordinates_at_arbitrary_t(rng):
    # the anchored series base + t drift + f(t) - f(0), evaluated directly
    loop = random_loop(flat_torus(2), (1, -2), 5, rng)
    t = np.array([0.0, 0.137, 0.5, 0.93])
    ang = 2.0 * np.pi * np.outer(t, np.arange(1, 6))
    periodic = np.cos(ang) @ loop.cos_coeffs + np.sin(ang) @ loop.sin_coeffs
    direct = (np.asarray(loop.base) + np.outer(t, loop.drift) + periodic
              - loop.cos_coeffs.sum(axis=0))
    np.testing.assert_allclose(coordinates(loop, t), direct, atol=1e-13)


def test_loop_validation():
    torus = flat_torus(2)
    with pytest.raises(ValueError):
        LoopPath(manifold=torus, winding=(1,), base=(0.0, 0.0))
    with pytest.raises(ValueError):
        LoopPath(manifold=torus, winding=(1, 0), base=(0.0, 0.0),
                 cos_coeffs=np.zeros((2, 2)), sin_coeffs=np.zeros((3, 2)))


def test_content_key_and_json_roundtrip(rng):
    loop = random_loop(embedded_circle(), (1,), 4, rng)
    again = LoopPath.from_json(json.loads(json.dumps(loop.to_json())), loop.manifold)
    assert again.content_key() == loop.content_key()
    np.testing.assert_allclose(again.cos_coeffs, loop.cos_coeffs)
    m = 32
    t = grid(m)
    np.testing.assert_allclose(coordinates(again, t), coordinates(loop, t))


def test_covariant_derivative_exact():
    # on the flat models the covariant derivative along a loop is the
    # parameter derivative of the field's frame coefficients:
    # cos(2 pi t) e_1 goes to -2 pi sin(2 pi t) e_1
    frame = frame_of(straight_loop(flat_torus(2), (1, 0), modes=4), 4)
    m = 33
    t = grid(m)
    field = np.column_stack([np.cos(2.0 * np.pi * t), np.zeros(m)])
    d = derivative_coefficients(frame, frame.coefficients(field))
    expect = np.column_stack([-2.0 * np.pi * np.sin(2.0 * np.pi * t), np.zeros(m)])
    np.testing.assert_allclose(frame.samples(d, m), expect, atol=1e-11)


def test_aliasing_guards():
    loop = straight_loop(flat_torus(2), (1, 0), modes=6)
    # too few samples to carry the loop's own mode content
    with pytest.raises(ValueError):
        loop.velocity_samples(12)
    field = np.tile([1.0, 0.0], (13, 1))
    frame = frame_of(loop, 6)
    c = frame.coefficients(field)
    with pytest.raises(ValueError):
        frame.samples(c, 12)
    # a frame above the sampled content cannot read the field
    with pytest.raises(ValueError):
        frame_of(loop, 8).coefficients(field)


def test_field_norms():
    loop = straight_loop(flat_torus(2), (1, 0))
    frame = frame_of(loop, 4)
    c = frame.coefficients(np.tile([1.0, 0.0], (9, 1)))
    np.testing.assert_allclose(np.linalg.norm(frame.samples(c, 9), axis=1), np.ones(9))
    np.testing.assert_allclose(frame.norm(0.0, c), 1.0)


@st.composite
def random_loops(draw):
    manifold = draw(st.sampled_from([embedded_circle(), flat_torus(1), flat_torus(2),
                                     flat_torus(3)]))
    winding = draw(st.lists(st.integers(-3, 3), min_size=manifold.dim, max_size=manifold.dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_loop(manifold, winding, draw(st.integers(0, 24)), rng,
                       amplitude=draw(st.floats(0.0, 1.0)))


@given(random_loops())
def test_coordinates_at_zero_are_the_base_point(loop):
    assert np.array_equal(coordinates(loop, 0.0)[0], loop.base)


def test_series_lays_out_and_reads_back_a_loop(rng):
    # base, then each mode's cos row and sin row, unscaled, padded with +0.0
    # to J modes; with_series reads it back into a loop of the same winding
    loop = random_loop(flat_torus(2), (1, 0), 3, rng)
    L = loop.series(5)
    assert L.shape == (2 * 11,) and L[:2].tolist() == list(loop.base)
    block = L[2:].reshape(5, 2, 2)
    assert block[:3, 0].tobytes() == loop.cos_coeffs.tobytes()
    assert block[:3, 1].tobytes() == loop.sin_coeffs.tobytes()
    assert not block[3:].any() and not np.signbit(block[3:]).any()
    back = loop.with_series(L)
    assert back.modes == 5 and back.winding is loop.winding and back.base == loop.base
    assert back.cos_coeffs[:3].tobytes() == loop.cos_coeffs.tobytes()
    full = random_loop(embedded_circle(), (2,), 5, rng)
    assert full.with_series(full.series(5)).content_key() == full.content_key()


def test_loop_converts_winding_and_base_once():
    # a tuple of ints (floats) is kept as given; anything else is converted
    winding, base = (1, 0), (0.25, 0.5)
    loop = LoopPath(manifold=flat_torus(2), winding=winding, base=base)
    assert loop.winding is winding and loop.base is base
    for w, b in (((np.int64(1), 0), (np.float64(0.25), 0.5)), (np.array([1, 0]), [0.25, 0.5])):
        other = LoopPath(manifold=flat_torus(2), winding=w, base=b)
        assert other.winding == winding and other.base == base
        assert [type(v) for v in other.winding + other.base] == [int, int, float, float]


def test_loop_rejects_bools_and_strings_in_winding_and_base():
    # True would be read as winding 1 and "0.5" parsed as base 0.5
    cases = [("winding", (True, False), (0.0, 0.0)), ("winding", (1, np.bool_(False)), (0.0, 0.0)),
             ("winding", ("1", 0), (0.0, 0.0)), ("base", (1, 0), ("0.5", 0.0)),
             ("base", (1, 0), (0.5, True)), ("winding", (True, False), ("0.5", True))]
    for name, w, b in cases:
        with pytest.raises(ValueError, match=f"loop {name} must hold real numbers"):
            LoopPath(manifold=flat_torus(2), winding=w, base=b)


def test_loop_rejects_a_winding_that_is_not_integral():
    # int() would truncate it: (1.5, 0) once read as winding and drift (1, 0)
    for w in ((1.5, 0), (np.float64(2.7), 0), np.array([0.0, -0.5]), (math.inf, 0), (1, math.nan)):
        with pytest.raises(ValueError, match="winding must be integral") as info:
            LoopPath(manifold=flat_torus(2), winding=w, base=(0.0, 0.0))
        assert repr(w) in str(info.value)
    with pytest.raises(ValueError, match=r"got \(1\.5, 0\)"):
        straight_loop(flat_torus(2), (1.5, 0))
    # integral floats and numpy ints are windings, read as Python ints
    for w in ((1.0, -2.0), (np.int32(1), np.int64(-2)), np.array([1.0, -2.0])):
        loop = LoopPath(manifold=flat_torus(2), winding=w, base=(0.0, 0.0))
        assert loop.winding == (1, -2) and [type(v) for v in loop.winding] == [int, int]
        np.testing.assert_array_equal(loop.drift, [1.0, -2.0])
