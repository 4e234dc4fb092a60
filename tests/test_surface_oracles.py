"""The numeric surface against closed forms: the unit sphere and the
hyperbolic plane written as surfaces of revolution (``surface_oracles``).

Each check maps the surface's answer into the model by the isometry and
compares it with the model's closed form, on random points of
[-0.4, 0.4]^2 at the default step."""

import math

import numpy as np
import pytest

from geolens import GeodesicLine, ManifoldPoint, TangentVector, jacobi_radii
from geolens.radii import _first_zeros_batch
from surface_oracles import hyperbolic_surface, sphere_surface

ORACLES = [sphere_surface(), hyperbolic_surface()]


def _pairs(oracle, n, seed):
    """n random (point, point) rows and n tangents of length below 0.5 at
    the first points, all with |u| <= 0.9 at their ends."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.4, 0.4, (n, 2))
    q = rng.uniform(-0.4, 0.4, (n, 2))
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    lengths = rng.uniform(0.0, 0.5, n)
    v = np.array([ln * oracle.surface.unit_tangent(x, a) for x, a, ln in zip(p, angles, lengths)])
    return p, q, v


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_surface_distances_match_the_model(oracle):
    p, q, _ = _pairs(oracle, 200, 5)
    exact = oracle.model.dist_pairs(oracle.to_model(p), oracle.to_model(q))
    assert np.max(np.abs(oracle.surface.dist_pairs(p, q) - exact)) <= 1e-10


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_surface_exponential_matches_the_model(oracle):
    p, _, v = _pairs(oracle, 200, 6)
    ends = oracle.surface.exp_pairs(p, v)
    exact = oracle.model.exp_pairs(oracle.to_model(p), oracle.push(p, v))
    assert np.max(np.abs(oracle.to_model(ends) - exact)) <= 1e-14


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_surface_logarithm_matches_the_model(oracle):
    # one Newton shoot per pair: fewer pairs than the batched checks
    p, q, _ = _pairs(oracle, 20, 7)
    logs = np.array([oracle.surface.log_coords(a, b) for a, b in zip(p, q)])
    exact = [oracle.model.log_coords(a, b) for a, b in zip(oracle.to_model(p), oracle.to_model(q))]
    assert np.max(np.abs(oracle.push(p, logs) - np.array(exact))) <= 1e-10


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_surface_frames_match_the_model(oracle):
    # the first vector is the normalised primary; the second is fixed up to
    # the orientation, which the model's Gram-Schmidt picks per row
    p, _, v = _pairs(oracle, 200, 8)
    frames = oracle.surface.tangent_frames(p, v)
    exact = oracle.model.tangent_frames(oracle.to_model(p), oracle.push(p, v))
    assert np.max(np.abs(oracle.push(p, frames[:, 0]) - exact[:, 0])) <= 1e-13
    second = oracle.push(p, frames[:, 1])
    rows = np.arange(len(p))
    k = np.argmax(np.abs(exact[:, 1]), axis=1)
    sign = np.sign(second[rows, k] * exact[rows, 1, k])
    assert np.max(np.abs(second - sign[:, None] * exact[:, 1])) <= 1e-13


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
@pytest.mark.parametrize("base,angle", [((0.0, 0.0), 0.0), ((0.1, 0.0), 0.7)], ids=["meridian", "oblique"])
def test_surface_geodesic_line_matches_the_model(oracle, base, angle):
    surface, model = oracle.surface, oracle.model
    base = np.array(base)
    unit = surface.unit_tangent(base, angle)
    line = GeodesicLine(surface, ManifoldPoint(base), TangentVector(ManifoldPoint(base), unit))
    model_base = ManifoldPoint(oracle.to_model(base))
    model_unit = oracle.push(base[None], unit[None])[0]
    exact_line = GeodesicLine(model, model_base, TangentVector(model_base, model_unit))
    ts = np.linspace(-0.8, 0.8, 41)
    points, velocities = line.states_many(ts)
    exact_points, exact_velocities = exact_line.states_many(ts)
    assert np.max(np.abs(oracle.to_model(points) - exact_points)) <= 1e-14
    assert np.max(np.abs(oracle.push(points, velocities) - exact_velocities)) <= 1e-14


def test_sphere_surface_radii_are_pi_and_half_pi():
    # K = 1: along the equator u = 0 (and every direction that stays in the
    # chart) j = sin t, with its zero at pi and the zero of j' at pi / 2
    conjugate, focal = jacobi_radii(ORACLES[0].surface, directions=8)
    assert not conjugate.lower_bound_only and not focal.lower_bound_only
    assert abs(conjugate.value - math.pi) <= 1e-10
    assert abs(focal.value - 0.5 * math.pi) <= 1e-10


def test_hyperbolic_surface_radii_are_lower_bounds():
    # K = -1: j = sinh t has no zero, so along u = 0 the scan reaches its
    # horizon and every radius is a lower bound
    surface = ORACLES[1].surface
    j_zero, jp_zero, valid = _first_zeros_batch(
        surface, np.zeros(2), np.array([0.5 * math.pi]), surface.horizon
    )
    assert np.isnan(j_zero[0]) and np.isnan(jp_zero[0]) and valid[0] == surface.horizon
    conjugate, focal = jacobi_radii(surface, directions=8)
    assert conjugate.lower_bound_only and focal.lower_bound_only
