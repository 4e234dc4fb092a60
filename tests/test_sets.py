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
    monotone_limit_check,
    sample_intersection,
)
from geolens.errors import NestingError


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


def test_monotone_constant_sequence(plane):
    cloud = _ball_cloud(plane, 1.0)
    assert monotone_limit_check([cloud] * 4, "nested-decreasing", cloud) == 0.0


def test_monotone_shrinking_balls_exact_gap(plane):
    # ideal shared-angle samples: gap to the limit is exactly 1/k
    limit = _ball_cloud(plane, 1.0)
    for k in (2, 4, 8):
        seq = [_ball_cloud(plane, 1.0 + 1.0 / j) for j in range(1, k + 1)]
        gap = monotone_limit_check(seq, "nested-decreasing", limit)
        assert gap == pytest.approx(1.0 / k, abs=1e-12)


def test_monotone_growing_balls(plane):
    limit = _ball_cloud(plane, 1.0)
    seq = [_ball_cloud(plane, 1.0 - 0.2 / 2**j) for j in range(4)]
    gap = monotone_limit_check(seq, "nested-increasing", limit)
    assert gap == pytest.approx(0.2 / 8, abs=1e-12)


def test_monotone_nesting_violation_detected(plane):
    a = _ball_cloud(plane, 1.0)
    b = _ball_cloud(plane, 1.5)
    with pytest.raises(NestingError):
        monotone_limit_check([a, b], "nested-decreasing", b, slack=1e-9)


def test_monotone_shrinking_lens_clouds(plane):
    # lenses with small-ball radii r + delta_k shrink onto the limit lens
    R, r, t = 2.0, 1.0, 1.6

    def lens_cloud(radius):
        bp = BallPair.create(plane, R, radius, t)
        return sample_intersection(bp, budget=4096, seed=9)

    limit = lens_cloud(r)
    deltas = [0.12 / 2**k for k in range(5)]
    seq = [lens_cloud(r + d) for d in deltas]
    gaps = [hausdorff(c, limit) for c in seq]
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    final = monotone_limit_check(
        seq, "nested-decreasing", limit, slack=2.0 * limit.fill_radius
    )
    assert final <= deltas[-1] + 3.0 * limit.fill_radius


def test_numeric_manifold_pairwise_scan_fails_fast():
    # the one non-kernel scan (also behind lens_diameter on the surface)
    # refuses a cloud whose pairwise scan would shoot for hours
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    with pytest.raises(ValueError):
        diameter(PointCloud(surface, np.zeros((501, 2)), 0.0))
