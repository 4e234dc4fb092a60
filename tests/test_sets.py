"""Point-cloud Hausdorff distance, diameters, and monotone limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geolens import (
    BallPair,
    Euclidean,
    PointCloud,
    RevolutionProfile,
    Sphere,
    SurfaceOfRevolution,
    diameter,
    diameter_lipschitz_check,
    hausdorff,
)
from geolens import _kernels
from geolens.errors import ConfigError
from geolens.sets import diameter_with_witness
from lens_clouds import polar_lens_cloud


@pytest.fixture(scope="module")
def plane():
    return Euclidean(2)


def _circle(radius, n=720, center=(0.0, 0.0)):
    ang = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return np.column_stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)]
    )


def _random_cloud(plane, rng, n=40):
    pts = rng.normal(scale=1.5, size=(n, 2))
    return PointCloud(plane, pts, 0.0)


# ------------------------------------------------------------ hausdorff


def test_hausdorff_identical_clouds_zero(plane):
    y = PointCloud(plane, _circle(1.0), 0.01)
    assert hausdorff(y, y) == 0.0


def test_hausdorff_two_point_line(plane):
    y = PointCloud(plane, np.array([[0.0, 0.0]]), 0.0)
    z = PointCloud(plane, np.array([[0.0, 0.0], [1.0, 0.0]]), 0.0)
    assert hausdorff(y, z) == pytest.approx(1.0)


def test_hausdorff_concentric_circles(plane):
    # exact Hausdorff distance between circles of radius 1 and 2 is 1
    fill = 2.0 * math.pi * 2.0 / 2048 / 2
    y = PointCloud(plane, _circle(1.0, 2048), fill / 2)
    z = PointCloud(plane, _circle(2.0, 2048), fill)
    assert hausdorff(y, z) == pytest.approx(1.0, abs=2 * fill)


def test_hausdorff_empty_cloud_rejected(plane):
    with pytest.raises(ValueError):
        PointCloud(plane, np.empty((0, 2)), 0.0)


def test_hausdorff_symmetric_and_triangle(plane):
    rng = np.random.default_rng(41)
    clouds = [_random_cloud(plane, rng) for _ in range(6)]
    for y in clouds:
        for z in clouds:
            assert hausdorff(y, z) == hausdorff(z, y)
    for y in clouds:
        for z in clouds:
            for u in clouds:
                assert hausdorff(y, z) <= hausdorff(y, u) + hausdorff(u, z) + 1e-12


# ------------------------------------------------------------- diameter


def test_diameter_singleton_zero(plane):
    assert diameter(PointCloud(plane, np.array([[2.0, 3.0]]), 0.0)) == 0.0


def test_diameter_disk_sample(plane):
    rng = np.random.default_rng(43)
    ang = rng.uniform(0, 2 * math.pi, 4000)
    rad = 0.7 * np.sqrt(rng.uniform(0, 1, 4000))
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    pts = np.vstack([pts, _circle(0.7, 512)])
    cloud = PointCloud(plane, pts, 0.01)
    assert diameter(cloud) == pytest.approx(1.4, abs=0.02)


def test_diameter_hemisphere_cap_is_pi():
    # closed upper hemisphere: boundary great circle holds antipodal pairs
    s = Sphere(2, 1.0)
    rng = np.random.default_rng(47)
    pts = rng.normal(size=(3000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, 2] = np.abs(pts[:, 2])
    ang = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
    equator = np.column_stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)])
    cloud = PointCloud(s, np.vstack([pts, equator]), 0.05)
    assert diameter(cloud) == pytest.approx(math.pi, abs=0.01)


def test_diameter_union_dominates(plane):
    rng = np.random.default_rng(53)
    y = _random_cloud(plane, rng)
    z = _random_cloud(plane, rng)
    union = PointCloud(plane, np.vstack([y.points, z.points]), 0.0)
    assert diameter(union) >= max(diameter(y), diameter(z))


def test_diameter_is_scanned_once_per_cloud(plane, monkeypatch):
    rng = np.random.default_rng(59)
    y, z = _random_cloud(plane, rng), _random_cloud(plane, rng)
    scans = []
    scan = _kernels.pairwise_max

    def counted(points, manifold):
        scans.append(len(points))
        return scan(points, manifold)

    monkeypatch.setattr(_kernels, "pairwise_max", counted)
    first = [diameter(y), diameter(z)]
    for _ in range(3):
        assert [diameter(y), diameter(z)] == first
        assert diameter_lipschitz_check(y, z)
    assert diameter_with_witness(y) == (first[0], diameter_with_witness(y)[1])
    assert scans == [len(y), len(z)]


def test_cloud_points_are_a_read_only_copy(plane):
    # the memoised diameter stays sound: nothing can move the points
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    cloud = PointCloud(plane, pts, 0.0)
    before = diameter(cloud)
    pts[2] = [0.0, 9.0]
    assert cloud.points[2].tolist() == [0.0, 2.0]
    assert diameter(cloud) == before == math.sqrt(5.0)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0
    assert pts.flags.writeable


# ------------------------------------------------- diameter vs hausdorff


def test_lipschitz_trivial_cases(plane):
    y = PointCloud(plane, np.array([[0.0, 0.0]]), 0.0)
    z = PointCloud(
        plane, np.column_stack([np.linspace(0, 1, 50), np.zeros(50)]), 0.02
    )
    assert diameter_lipschitz_check(y, y)
    assert diameter_lipschitz_check(y, z)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_lipschitz_random_cloud_pairs(seed):
    plane = Euclidean(2)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        y = _random_cloud(plane, rng, n=int(rng.integers(3, 60)))
        z = _random_cloud(plane, rng, n=int(rng.integers(3, 60)))
        assert diameter_lipschitz_check(y, z)


def test_lipschitz_random_pairs_sphere():
    s = Sphere(2, 1.0)
    rng = np.random.default_rng(59)
    for _ in range(40):
        pts = rng.normal(size=(int(rng.integers(3, 50)), 3))
        y = PointCloud(s, pts / np.linalg.norm(pts, axis=1, keepdims=True), 0.0)
        pts = rng.normal(size=(int(rng.integers(3, 50)), 3))
        z = PointCloud(s, pts / np.linalg.norm(pts, axis=1, keepdims=True), 0.0)
        assert diameter_lipschitz_check(y, z)


# ------------------------------------------------------- monotone limits


def _ball_cloud(plane, radius, n_rings=20, n_ang=72):
    pts = [np.zeros((1, 2))]
    ang = np.linspace(0, 2 * math.pi, n_ang, endpoint=False)
    for i in range(1, n_rings + 1):
        rho = radius * i / n_rings
        pts.append(np.column_stack([rho * np.cos(ang), rho * np.sin(ang)]))
    fill = 0.5 * math.hypot(radius / n_rings, 2 * math.pi * radius / n_ang)
    return PointCloud(plane, np.vstack(pts), fill)


def _assert_nested(inner, outer, slack=1e-9):
    """Every sample of ``inner`` lies within the fill radius of ``outer``
    (plus ``slack``) of a sample of ``outer``."""
    gap = _kernels.min_dist_to(inner.points, outer.points, inner.manifold).max()
    assert gap <= outer.fill_radius + slack


def test_monotone_constant_sequence(plane):
    cloud = _ball_cloud(plane, 1.0)
    _assert_nested(cloud, cloud)
    assert hausdorff(cloud, cloud) == 0.0


def test_monotone_shrinking_balls_exact_gap(plane):
    # ideal shared-angle samples: gap to the limit is exactly 1/k
    limit = _ball_cloud(plane, 1.0)
    for k in (2, 4, 8):
        seq = [_ball_cloud(plane, 1.0 + 1.0 / j) for j in range(1, k + 1)]
        for outer, inner in zip(seq, seq[1:]):
            _assert_nested(inner, outer)
        assert hausdorff(seq[-1], limit) == pytest.approx(1.0 / k, abs=1e-12)


def test_monotone_growing_balls(plane):
    limit = _ball_cloud(plane, 1.0)
    seq = [_ball_cloud(plane, 1.0 - 0.2 / 2**j) for j in range(4)]
    for inner, outer in zip(seq, seq[1:]):
        _assert_nested(inner, outer)
    assert hausdorff(seq[-1], limit) == pytest.approx(0.2 / 8, abs=1e-12)


def test_monotone_shrinking_lens_clouds(plane):
    # lenses with small-ball radii r + delta_k shrink onto the limit lens;
    # their filled polar clouds nest, as boundary clouds do not
    R, r, t = 2.0, 1.0, 1.6

    def lens_cloud(radius):
        bp = BallPair.create(plane, R, radius, t)
        return polar_lens_cloud(bp, budget=4096, seed=9)

    limit = lens_cloud(r)
    deltas = [0.12 / 2**k for k in range(5)]
    seq = [lens_cloud(r + d) for d in deltas]
    gaps = [hausdorff(c, limit) for c in seq]
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    for outer, inner in zip(seq, seq[1:]):
        _assert_nested(inner, outer, slack=2.0 * limit.fill_radius)
    assert hausdorff(seq[-1], limit) <= deltas[-1] + 3.0 * limit.fill_radius


def test_numeric_manifold_pairwise_scan_fails_fast():
    # the one non-kernel scan (also behind lens_diameter on the surface)
    # refuses a cloud whose pairwise scan would shoot for hours
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    with pytest.raises(ConfigError):
        diameter(PointCloud(surface, np.zeros((501, 2)), 0.0))
