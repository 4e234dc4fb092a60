"""Correctness of the distance scans against the models' own distances."""

import math

import numpy as np
import pytest

from geolens import _kernels
from geolens.errors import ConfigError
from geolens.manifolds import Euclidean, Hyperbolic, RevolutionProfile, Sphere, SurfaceOfRevolution

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _random_sphere_cloud(rng, n, radius=1.0, dim=2):
    pts = rng.normal(size=(n, dim + 1))
    return radius * pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _random_hyperboloid_cloud(rng, n, radius=1.0, dim=2):
    spatial = rng.normal(scale=0.8 * radius, size=(n, dim))
    x0 = np.sqrt(radius**2 + np.sum(spatial**2, axis=1))
    return np.column_stack([x0, spatial])


def test_euclidean_pairwise_max_matches_direct():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(150, 2))
    d, i, j = _kernels.pairwise_max(pts, Euclidean(2))
    full = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    assert d == pytest.approx(full.max(), abs=1e-12)
    assert full[i, j] == pytest.approx(d, abs=1e-12)


def test_sphere_kernel_distance_formula():
    rng = np.random.default_rng(1)
    pts = _random_sphere_cloud(rng, 60, radius=2.0)
    sphere = Sphere(2, 0.25)
    out = _kernels.min_dist_to(pts[:1], pts, sphere)
    assert out[0] == 0.0
    d, i, j = _kernels.pairwise_max(pts, sphere)
    expected = 2.0 * math.acos(np.clip(np.dot(pts[i], pts[j]) / 4.0, -1, 1))
    assert d == pytest.approx(expected, abs=1e-9)


def test_hyperboloid_kernel_distance_formula():
    rng = np.random.default_rng(2)
    pts = _random_hyperboloid_cloud(rng, 60)
    d, i, j = _kernels.pairwise_max(pts, Hyperbolic(2, -1.0))
    mink = np.dot(pts[i][1:], pts[j][1:]) - pts[i][0] * pts[j][0]
    expected = math.acosh(max(-mink, 1.0))
    assert d == pytest.approx(expected, abs=1e-9)


def _brute_force(model, points, targets):
    return np.array([model.dist_many(p, targets) for p in points])


def _random_cloud(model, rng, n):
    if isinstance(model, Sphere):
        return _random_sphere_cloud(rng, n, model.radius, model.dim)
    if isinstance(model, Hyperbolic):
        return _random_hyperboloid_cloud(rng, n, model.radius, model.dim)
    return rng.normal(size=(n, model.dim))


@pytest.mark.parametrize(
    "model",
    [Euclidean(2), Euclidean(3), Sphere(2, 2.5), Sphere(3, 2.5), Hyperbolic(2, -0.3), Hyperbolic(3, -0.3)],
    ids=lambda m: m.describe(),
)
def test_scans_match_dist_many(model):
    # 700 rows cross the 512-row chunk boundary of both scans
    rng = np.random.default_rng(4 + model.dim)
    a = _random_cloud(model, rng, 700)
    b = _random_cloud(model, rng, 90)
    assert max(model.point_violation(p) for p in np.vstack([a, b])) < 1e-9
    d, i, j = _kernels.pairwise_max(a, model)
    full = _brute_force(model, a, a)
    assert i < j
    assert d == pytest.approx(full.max(), abs=1e-12)
    assert full[i, j] == pytest.approx(d, abs=1e-12)
    np.testing.assert_allclose(
        _kernels.min_dist_to(a, b, model), _brute_force(model, a, b).min(axis=1), rtol=0, atol=1e-12
    )


def test_surface_scans_take_the_row_loop_and_match_dist_many():
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    rng = np.random.default_rng(6)
    # a small patch keeps every shoot at the minimum RK4 step count
    pts = np.column_stack([rng.uniform(-0.01, 0.01, 20), rng.uniform(-0.004, 0.004, 20)])
    full = _brute_force(surface, pts, pts)
    d, i, j = _kernels.pairwise_max(pts, surface)
    assert d == pytest.approx(full.max(), abs=1e-12)
    assert full[i, j] == pytest.approx(d, abs=1e-12)
    nearest = _kernels.min_dist_to(pts[:5], pts[10:], surface)
    np.testing.assert_allclose(nearest, full[:5, 10:].min(axis=1), rtol=0, atol=1e-12)


def _count_pair_batches(monkeypatch, surface):
    batches = []
    shoot = surface.dist_pairs

    def counted(sources, targets):
        batches.append(len(sources))
        return shoot(sources, targets)

    monkeypatch.setattr(surface, "dist_pairs", counted)
    return batches


def test_surface_scans_shoot_every_pair_in_one_batch(monkeypatch):
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(-0.2, 0.2, 20), rng.uniform(-0.1, 0.1, 20)])
    full = _brute_force(surface, pts, pts)
    batches = _count_pair_batches(monkeypatch, surface)
    d, i, j = _kernels.pairwise_max(pts, surface)
    assert batches == [190]
    # rows do not depend on their batch, so the scans give the row loop's bits
    upper = np.where(np.triu(np.ones_like(full), k=1) > 0, full, -1.0)
    assert (d, i, j) == (upper.max(), *divmod(int(np.argmax(upper)), 20))
    nearest = _kernels.min_dist_to(pts[:5], pts[10:], surface)
    assert batches == [190, 50]
    assert nearest.tobytes() == full[:5, 10:].min(axis=1).tobytes()
    # chunks of the batch leave every distance as it was
    monkeypatch.setattr(_kernels, "_SHOOT_CHUNK", 64)
    assert _kernels.pairwise_max(pts, surface) == (d, i, j)
    assert batches[2:] == [64, 64, 62]
    assert _kernels.pairwise_max(pts[:1], surface) == (0.0, 0, 0)
    assert _kernels.pairwise_max(np.zeros((3, 2)), surface) == (0.0, 0, 0)


def test_surface_scan_guard_fails_before_any_shoot(monkeypatch):
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    batches = _count_pair_batches(monkeypatch, surface)
    with pytest.raises(ConfigError):
        _kernels.pairwise_max(np.zeros((501, 2)), surface)
    with pytest.raises(ConfigError):
        _kernels.min_dist_to(np.zeros((501, 2)), np.zeros((500, 2)), surface)
    assert batches == []


CLOSED_FORM_MODELS = [
    Euclidean(2),
    Euclidean(3),
    Sphere(2, 2.5),
    Sphere(3, 2.5),
    Hyperbolic(2, -0.3),
    Hyperbolic(3, -0.3),
]


def _broadcast_scan_sq(model, a, b):
    """The squared pre-metric block in its broadcast form: the reference for
    the coordinate-by-coordinate one."""
    diff = a[:, None, :] - b[None, :, :]
    if isinstance(model, Hyperbolic):
        sq = np.einsum("ijk,ijk->ij", diff[:, :, 1:], diff[:, :, 1:]) - diff[:, :, 0] ** 2
        return np.clip(sq, 0.0, None)
    return np.einsum("ijk,ijk->ij", diff, diff)


@pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.describe())
def test_scan_sq_matches_the_broadcast_form_bit_for_bit(model):
    rng = np.random.default_rng(40 + model.dim)
    a = _random_cloud(model, rng, 300)
    b = _random_cloud(model, rng, 170)
    sq = model.scan_sq(a, b)
    assert sq.tobytes() == _broadcast_scan_sq(model, a, b).tobytes()
    # the symmetry that lets one block serve both Hausdorff directions
    assert model.scan_sq(b, a).tobytes() == np.ascontiguousarray(sq.T).tobytes()


@pytest.mark.parametrize(
    "model",
    [Euclidean(2), Sphere(2, 2.5), Hyperbolic(2, -0.3), Hyperbolic(3, -0.3)],
    ids=lambda m: m.describe(),
)
def test_min_dist_both_gives_the_bits_of_two_one_way_scans(model):
    # 700 x 530 crosses the 512 chunk boundary in both directions
    rng = np.random.default_rng(50 + model.dim)
    a = _random_cloud(model, rng, 700)
    b = _random_cloud(model, rng, 530)
    forward, backward = _kernels.min_dist_both(a, b, model)
    assert forward.tobytes() == _kernels.min_dist_to(a, b, model).tobytes()
    assert backward.tobytes() == _kernels.min_dist_to(b, a, model).tobytes()
    # and the one-way scan gives the bits of the unchunked broadcast block
    reference = model.scan_dist(_broadcast_scan_sq(model, a, b).min(axis=1))
    assert forward.tobytes() == reference.tobytes()


def test_surface_min_dist_both_shoots_each_direction(monkeypatch):
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(-0.01, 0.01, 12), rng.uniform(-0.004, 0.004, 12)])
    batches = _count_pair_batches(monkeypatch, surface)
    forward, backward = _kernels.min_dist_both(pts[:5], pts[5:], surface)
    assert batches == [35, 35]
    assert forward.tobytes() == _kernels.min_dist_to(pts[:5], pts[5:], surface).tobytes()
    assert backward.tobytes() == _kernels.min_dist_to(pts[5:], pts[:5], surface).tobytes()
