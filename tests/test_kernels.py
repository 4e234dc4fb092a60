"""Correctness of the distance scans against the models' own distances."""

import math

import numpy as np
import pytest

from geolens import _kernels
from geolens.errors import ConfigError
from geolens.manifolds import Euclidean, Hyperbolic, RevolutionProfile, Sphere, SurfaceOfRevolution
from geolens.sets import PointCloud, hausdorff
from lens_clouds import concentric_cloud, polar_lens_cloud

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
    # a small patch keeps every shoot at one DOP853 step
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
    # the symmetry that gives the nearest scans both ways the bits of one block
    assert model.scan_sq(b, a).tobytes() == np.ascontiguousarray(sq.T).tobytes()


@pytest.mark.parametrize(
    "model",
    [Euclidean(2), Sphere(2, 2.5), Hyperbolic(2, -0.3), Hyperbolic(3, -0.3)],
    ids=lambda m: m.describe(),
)
def test_nearest_scans_both_ways_give_the_bits_of_one_broadcast_block(model):
    # 700 x 530 crosses the 512 chunk boundary in both directions
    rng = np.random.default_rng(50 + model.dim)
    a = _random_cloud(model, rng, 700)
    b = _random_cloud(model, rng, 530)
    # then identical clouds (every nearest distance 0), duplicated rows and
    # single points
    for y, z in ((a, b), (a, a), (np.vstack([a, a[:200]]), a[100:400]), (a[:1], b), (a[:1], b[:1])):
        forward = _kernels.min_dist_to(y, z, model)
        backward = _kernels.min_dist_to(z, y, model)
        # the row and column minima of the unchunked broadcast block of y x z
        block = _broadcast_scan_sq(model, y, z)
        assert forward.tobytes() == model.scan_dist(block.min(axis=1)).tobytes()
        assert backward.tobytes() == model.scan_dist(block.min(axis=0)).tobytes()
        # hausdorff is the larger of the two largest nearest distances
        gap = hausdorff(PointCloud(model, y, 0.0), PointCloud(model, z, 0.0))
        assert gap == max(float(forward.max()), float(backward.max()))
    assert not np.any(_kernels.min_dist_to(a, a, model))
    assert hausdorff(PointCloud(model, a, 0.0), PointCloud(model, a, 0.0)) == 0.0


def test_surface_hausdorff_shoots_each_direction(monkeypatch):
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(-0.01, 0.01, 12), rng.uniform(-0.004, 0.004, 12)])
    forward = _kernels.min_dist_to(pts[:5], pts[5:], surface)
    backward = _kernels.min_dist_to(pts[5:], pts[:5], surface)
    batches = _count_pair_batches(monkeypatch, surface)
    gap = hausdorff(PointCloud(surface, pts[:5], 0.0), PointCloud(surface, pts[5:], 0.0))
    # shooting p -> q and q -> p agree only to the shooting tolerance
    assert batches == [35, 35]
    assert gap == max(float(forward.max()), float(backward.max()))


# -- the suite's concentric clouds ---------------------------------------------
# between shared-angle concentric clouds whole rings tie in exact arithmetic:
# which row holds the rounded maximum of a Hausdorff gap is decided in the
# last bits.


def _concentric_sequence(model, center, l_base=0.48, deltas=(0.072, 0.036, 0.018, 0.009, 0.0045)):
    """The shrinking concentric clouds of the suite's monotone claim and
    their limit, each with half its polar cell (16 rings, 64 angles) as fill
    radius."""
    frame = model.tangent_basis(center)

    def cloud(radius):
        fill = 0.5 * math.hypot(radius / 16, 2.0 * math.pi * radius / 64)
        return PointCloud(model, concentric_cloud(model, center, frame, radius), fill)

    return [cloud(l_base + d) for d in deltas], cloud(l_base), frame


def _assert_hausdorff_is_full(y, z):
    """hausdorff gives the bits of the largest entry of the broadcast blocks."""
    model = y.manifold
    forward = model.scan_dist(_broadcast_scan_sq(model, y.points, z.points).min(axis=1))
    backward = model.scan_dist(_broadcast_scan_sq(model, z.points, y.points).min(axis=1))
    full = max(float(forward.max()), float(backward.max()))
    assert hausdorff(y, z) == hausdorff(z, y) == full
    return full


@pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.describe())
def test_hausdorff_on_the_concentric_tie_clouds(model):
    seq, limit, _ = _concentric_sequence(model, model.basepoint().coords)
    for outer, inner in zip(seq[:-1], seq[1:]):
        _assert_hausdorff_is_full(inner, outer)
    _assert_hausdorff_is_full(seq[0], limit)
    # shared angles: the last gap is the last radius gap, along each ray
    gap = _assert_hausdorff_is_full(seq[-1], limit)
    assert gap == pytest.approx(0.0045, abs=1e-12)
    # each cloud lies within its predecessor's fill radius
    for outer, inner in zip(seq[:-1], seq[1:]):
        nearest = _kernels.min_dist_to(inner.points, outer.points, model)
        assert nearest.max() <= outer.fill_radius + 1e-9


@pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.describe())
def test_hausdorff_with_one_far_outlier(model):
    center = model.basepoint().coords
    seq, limit, frame = _concentric_sequence(model, center)
    # on the ray of angle 0, 1.5 from the centre (inside the cut locus of
    # the smallest sphere): by the triangle inequality the limit's nearest
    # row is that ray's outer ring point, 1.5 - 0.48 away
    outlier = model.exp_many(center, 1.5 * frame[:1])
    cloud = PointCloud(model, np.vstack([seq[2].points, outlier]), seq[2].fill_radius)
    assert _assert_hausdorff_is_full(cloud, limit) == pytest.approx(1.02, abs=1e-12)


# -- maxima against the full scans --------------------------------------------
# pairwise_max scans in chunked blocks; these tests hold it to the bits, and
# the witnesses, of references that scan every pair.  Lens clouds of over
# 512 rows, which cross a chunk, are the filled polar clouds of the test
# oracle.


def _full_pairwise_max(pts, model, chunk=512):
    """The farthest-pair loop over chunks of pair indices: every pair, the
    first maximum of the chunk order kept."""
    n = len(pts)
    best = -1.0
    bi = bj = 0
    for i0 in range(0, n, chunk):
        rows = np.arange(i0, min(n, i0 + chunk))
        for j0 in range(i0, n, chunk):
            i, j = np.meshgrid(rows, np.arange(j0, min(n, j0 + chunk)), indexing="ij")
            sq = np.where(j > i, model.scan_sq(pts[rows], pts[j0 : j0 + chunk]), 0.0)
            k = int(np.argmax(sq))
            if sq.flat[k] > best:
                best = float(sq.flat[k])
                bi, bj = int(i.flat[k]), int(j.flat[k])
    return float(model.scan_dist(np.asarray(best))), bi, bj


LENS_MODELS = [Euclidean(2), Euclidean(3), Sphere(2, 1.0), Sphere(3, 1.0), Hyperbolic(2, -1.0), Hyperbolic(3, -1.0)]


@pytest.mark.parametrize("model", LENS_MODELS, ids=lambda m: m.describe())
def test_pairwise_max_gives_the_value_and_witness_of_the_full_loop(model):
    from geolens import BallPair

    for R, r in ((1.2, 0.6), (1.0, 1.0)):
        bp = BallPair.create(model, R, r)
        for frac in (0.0, 0.3, 0.5, 0.7):
            pts = polar_lens_cloud(bp.with_separation(frac * (R + r)), 4096, 11).points
            assert len(pts) > 512
            assert _kernels.pairwise_max(pts, model) == _full_pairwise_max(pts, model)


@pytest.mark.parametrize("model", [Euclidean(2), Sphere(2, 1.0), Sphere(3, 1.0)], ids=lambda m: m.describe())
def test_pairwise_max_keeps_the_first_of_tied_antipodal_pairs(model):
    # a regular 1000-gon (on the sphere: the equator, where every farthest
    # pair is antipodal): the tied pairs (i, i + 500) sit in the first
    # diagonal block for i < 12 and straddle the 512 boundary after
    ang = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    pts = np.zeros((1000, model.ambient_dim))
    pts[:, 0], pts[:, 1] = np.cos(ang), np.sin(ang)
    for shift in (0, 5, 12, 300):
        rolled = np.roll(pts, shift, axis=0)
        assert _kernels.pairwise_max(rolled, model) == _full_pairwise_max(rolled, model)
    # and with duplicated rows, which tie bit for bit
    doubled = np.vstack([pts[::2], pts[::2]])
    assert _kernels.pairwise_max(doubled, model) == _full_pairwise_max(doubled, model)


@pytest.mark.parametrize("model", [Euclidean(2), Sphere(2, 1.0), Hyperbolic(2, -1.0)], ids=lambda m: m.describe())
def test_pairwise_max_keeps_the_first_of_exact_ties_across_chunks(model):
    # two farthest pairs with the same bits: (400, 450) in the first diagonal
    # block, scanned first, and (10, 700), whose row comes first but whose
    # column lies in the next chunk
    rng = np.random.default_rng(90)
    small = 0.05 * rng.normal(size=(1000, 2))
    if isinstance(model, Euclidean):
        pts, ends = small, 5.0 * np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    else:
        base = model.basepoint().coords
        frame = model.tangent_basis(base)
        pts = model.exp_many(base, small @ frame[:2])
        reach = 0.5 * math.pi if isinstance(model, Sphere) else 2.0
        ends = model.exp_many(base, reach * np.array([[-1, 0], [1, 0], [0, -1], [0, 1]]) @ frame[:2])
    pts[[400, 450, 10, 700]] = ends
    tie = model.scan_sq(pts[[400, 10]], pts[[450, 700]])
    assert tie[0, 0] == tie[1, 1]
    best = _full_pairwise_max(pts, model)
    assert best[1:] == (400, 450)
    assert _kernels.pairwise_max(pts, model) == best


def test_pairwise_max_on_the_antipodal_hemisphere_lens():
    # R = r = pi/2: the lens spans antipodal points, where arcsin's rounding
    # is about sqrt(eps)
    from geolens import BallPair

    sphere = Sphere(2, 1.0)
    bp = BallPair.create(sphere, math.pi / 2, math.pi / 2, convexity_bound=math.inf)
    for t in (0.0, 1e-9, 0.05, 0.3):
        for seed in (1, 2):
            pts = polar_lens_cloud(bp.with_separation(t), 1024, seed).points
            assert len(pts) > 512
            assert _kernels.pairwise_max(pts, sphere) == _full_pairwise_max(pts, sphere)


@pytest.mark.parametrize("model", LENS_MODELS[:4], ids=lambda m: m.describe())
def test_pairwise_max_of_degenerate_clouds(model):
    rng = np.random.default_rng(80 + model.dim)
    a = _random_cloud(model, rng, 600)
    same = np.repeat(a[:1], 600, axis=0)
    assert _kernels.pairwise_max(same, model) == _full_pairwise_max(same, model)
    assert _kernels.pairwise_max(a[:2], model) == _full_pairwise_max(a[:2], model)
    assert _kernels.pairwise_max(a, model) == _full_pairwise_max(a, model)
