"""The exact Hausdorff gaps of two lenses (``lens.lens_gaps``) against every
point of dense polar clouds of both lenses."""

import math

import numpy as np
import pytest

from geolens import BallPair, Euclidean, Hyperbolic, Sphere, sample_intersection
from geolens._kernels import min_dist_to
from geolens.lens import BOUNDARY_TOL, _corners_at, lens_gaps
from lens_clouds import polar_lens_cloud

GAP_CASES = [
    (Euclidean(2), 2.0, 1.0),
    (Euclidean(3), 1.5, 0.7),
    (Sphere(2, 1.0), 1.2, 0.6),
    (Sphere(3, 4.0), 0.6, 0.3),
    (Hyperbolic(2, -1.0), 2.0, 1.0),
    (Hyperbolic(3, -0.3), 2.0, 1.0),
]


def _cosine(model, a, b, c):
    """The model's law of cosines, written here on its own: the cosine of the
    angle between sides a and b of a triangle whose third side is c."""
    if isinstance(model, Euclidean):
        return (a * a + b * b - c * c) / (2.0 * a * b)
    k = model.radius
    if isinstance(model, Sphere):
        return (np.cos(c / k) - np.cos(a / k) * np.cos(b / k)) / (np.sin(a / k) * np.sin(b / k))
    return (np.cosh(a / k) * np.cosh(b / k) - np.cosh(c / k)) / (np.sinh(a / k) * np.sinh(b / k))


def _distance_to_lens(bp, t, x):
    """d(x, L_t) for the rows x of a lens at another separation, in the
    axial plane: 0 inside the small ball; d(x, gamma(t)) - r where the
    radial projection onto the small circle stays in the big ball, which is
    where the angle at gamma(t) between gamma(0) and x is at most that of
    the corners; else the distance to the nearer corner."""
    m, R, r = bp.manifold, bp.R, bp.r
    if R + r - t < 1e-12 * (R + r):
        return m.dist_many(bp.line.coords_at(R), x)
    d = m.dist_many(bp.line.coords_at(t), x)
    found, corners = _corners_at(bp, [t])
    if not len(found):
        return np.maximum(d - r, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        beyond = _cosine(m, t, d, m.dist_many(bp.center_big(), x)) < _cosine(m, t, r, R)
    to_corner = np.minimum(m.dist_many(corners[0, 0], x), m.dist_many(corners[0, 1], x))
    return np.where((d > r) & beyond, to_corner, np.maximum(d - r, 0.0))


def _gap_pairs(R, r, seed):
    span = R + r
    rng = np.random.default_rng(seed)
    pairs = [tuple(p) for p in rng.uniform(0.0, span, size=(4, 2))]
    # a corner of the first lens whose projection leaves the big ball, the
    # touching lens, a lens with itself
    return pairs + [(0.95 * span, 0.967 * span), (0.3 * span, span), (0.5 * span, 0.5 * span)]


@pytest.mark.parametrize("model, R, r", GAP_CASES, ids=lambda v: getattr(v, "describe", lambda: v)())
def test_lens_gaps_are_the_largest_gaps_of_dense_clouds(model, R, r):
    bp = BallPair.create(model, R, r)
    pairs = _gap_pairs(R, r, 3 + model.dim)
    s, t = np.array(pairs).T
    gaps = lens_gaps(bp, s, t)
    for (a, b), gap in zip(pairs, gaps):
        xa = polar_lens_cloud(bp.with_separation(a), 20000, 5).points
        xb = polar_lens_cloud(bp.with_separation(b), 20000, 5).points
        dense = max(_distance_to_lens(bp, b, xa).max(), _distance_to_lens(bp, a, xb).max())
        assert abs(gap - dense) <= 1e-12, (a, b, gap, dense)
        # and the pointwise distances agree with a scan of the boundary of
        # the other lens, within its fill radius
        boundary = sample_intersection(bp.with_separation(b), 20000, 5)
        pick = np.random.default_rng(1).choice(len(xa), size=min(300, len(xa)), replace=False)
        exact = _distance_to_lens(bp, b, xa[pick])
        outside = exact > 0.0
        scanned = min_dist_to(xa[pick][outside], boundary.points, model)
        assert np.all(scanned >= exact[outside] - 1e-12)
        assert np.all(scanned <= exact[outside] + boundary.fill_radius + 1e-12)
    assert gaps[-1] <= 1e-12


@pytest.mark.parametrize("model, R, r", GAP_CASES, ids=lambda v: getattr(v, "describe", lambda: v)())
def test_lens_gaps_read_corners_inside_the_lenses(model, R, r):
    # the corners the gaps read are points of their lens
    bp = BallPair.create(model, R, r)
    ts = np.linspace(0.0, R + r, 41)
    found, corners = _corners_at(bp, ts)
    assert len(found) > 20
    for i, pair in zip(found, corners):
        assert np.all(bp.with_separation(ts[i]).margins(pair) >= -BOUNDARY_TOL)


def test_lens_gap_where_the_radial_projection_leaves_the_big_ball():
    # two small lenses near gamma(R): the upper corner x of L_s projects
    # radially onto the small circle about gamma(t) outside D_R, so the
    # nearest point of L_t is its upper corner, not the projection
    model, R, r, s, t = Euclidean(2), 2.0, 1.0, 2.85, 2.9
    bp = BallPair.create(model, R, r)
    (_, (xs,)), (_, (xt,)) = (_corners_at(bp, [u]) for u in (s, t))
    upper_s, upper_t = xs[0], xt[0]
    centre = bp.line.coords_at(t)
    d = model.dist_coords(centre, upper_s)
    projection = model.exp_many(centre, (r / d) * model.log_coords(centre, upper_s)[None, :])
    assert bp.with_separation(t).margins(projection)[0] < -1e-3
    assert R - model.dist_coords(bp.center_big(), projection[0]) < -1e-3
    assert bp.with_separation(t).margins(xt).min() >= -BOUNDARY_TOL
    corner_gap = model.dist_coords(upper_s, upper_t)
    assert corner_gap > d - r + 1e-3
    (gap,) = lens_gaps(bp, [s], [t])
    assert gap == pytest.approx(corner_gap, abs=1e-12)
    assert lens_gaps(bp, [t], [s])[0] == gap
    assert math.isclose(gap, _distance_to_lens(bp, t, xs[:1])[0], abs_tol=1e-12)
