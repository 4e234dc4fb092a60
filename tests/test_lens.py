"""Ball-pair overlap: membership, sampling, diameter, profile, thresholds."""

import math

import numpy as np
import pytest

from geolens import (
    BallPair,
    Euclidean,
    Hyperbolic,
    RevolutionProfile,
    Sphere,
    SurfaceOfRevolution,
    estimate_full_width_end,
    estimate_nesting_onset,
    lens_diameter,
    membership,
    sample_intersection,
    w_profile,
)
from geolens import lens as lens_module
from geolens.lens import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    _ascend_pair,
    _corner_points,
    _sampled_pair,
)

CONVEX_CASES = [
    # (model, (R, r) pairs below its convexity radius)
    (Euclidean(2), [(2.0, 1.0), (1.0, 1.0)]),
    (Euclidean(3), [(1.5, 0.7)]),
    (Sphere(2, 1.0), [(1.2, 0.6), (1.0, 1.0)]),
    (Sphere(3, 4.0), [(0.6, 0.3)]),
    (Hyperbolic(2, -1.0), [(2.0, 1.0), (1.0, 1.0)]),
    (Hyperbolic(3, -1.0), [(1.5, 0.7)]),
]


@pytest.fixture(scope="module")
def plane():
    return Euclidean(2)


def brute_force_lens_diameter(R, r, t, n=3000):
    """Independent oracle: the diameter of a planar lens is attained on its
    boundary, so scan dense samples of both boundary arcs plus the corners."""
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    big = np.column_stack([R * np.cos(ang), R * np.sin(ang)])
    small = np.column_stack([t + r * np.cos(ang), r * np.sin(ang)])
    pts = [
        big[np.hypot(big[:, 0] - t, big[:, 1]) <= r + 1e-12],
        small[np.hypot(small[:, 0], small[:, 1]) <= R + 1e-12],
    ]
    if abs(R - r) <= t <= R + r and t > 0:
        a = (t * t + R * R - r * r) / (2.0 * t)
        h2 = R * R - a * a
        if h2 >= 0:
            h = math.sqrt(h2)
            pts.append(np.array([[a, h], [a, -h]]))
    pts = np.vstack([p for p in pts if len(p)])
    if len(pts) == 0:
        return 0.0
    best = 0.0
    for i in range(len(pts) - 1):
        d = np.hypot(pts[i + 1 :, 0] - pts[i, 0], pts[i + 1 :, 1] - pts[i, 1])
        best = max(best, float(d.max()))
    return best


def euclid_closed_form_width(R, r, t):
    """Candidate closed form: 2r while the perpendicular diametral chord
    fits (t <= sqrt(R^2 - r^2)), then the corner chord."""
    if t <= R - r:
        return 2.0 * r
    if t >= R + r:
        return 0.0
    if t * t + r * r <= R * R:
        return 2.0 * r
    a = (t * t + R * R - r * r) / (2.0 * t)
    return 2.0 * math.sqrt(max(R * R - a * a, 0.0))


# ----------------------------------------------------------- membership


def test_membership_center_of_small_ball(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=0.5)
    label, margin = membership(bp, np.array([0.5, 0.0]))
    assert label == INSIDE
    assert margin == pytest.approx(min(2.0 - 0.5, 1.0), abs=1e-12)


def test_membership_tangency_point(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=3.0)
    label, margin = membership(bp, np.array([2.0, 0.0]))
    assert label == BOUNDARY
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_membership_corner_point_boundary(plane):
    R, r, t = 2.0, 1.0, 1.8
    a = (t * t + R * R - r * r) / (2 * t)
    corner = np.array([a, math.sqrt(R * R - a * a)])
    label, margin = membership(bp := BallPair.create(plane, R, r, t=t), corner)
    assert label == BOUNDARY
    assert abs(margin) < 1e-10


def test_membership_outside(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=1.0)
    label, margin = membership(bp, np.array([5.0, 5.0]))
    assert label == OUTSIDE and margin < 0


# ------------------------------------------------------------- sampling


def test_sample_concentric_covers_small_ball(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=0.0)
    cloud = sample_intersection(bp, budget=4096, seed=0)
    from geolens.sets import diameter

    assert diameter(cloud) == pytest.approx(2.0, abs=2 * cloud.fill_radius)


def test_sample_tangency_single_point(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=3.0)
    cloud = sample_intersection(bp, budget=512, seed=0)
    assert len(cloud) == 1
    np.testing.assert_allclose(cloud.points[0], [2.0, 0.0], atol=1e-12)


def test_sample_all_points_members(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=1.5)
    cloud = sample_intersection(bp, budget=4096, seed=3)
    assert np.all(bp.margins(cloud.points) >= -1e-9)


def test_sample_deterministic_given_seed(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=1.3)
    a = sample_intersection(bp, budget=2048, seed=7)
    b = sample_intersection(bp, budget=2048, seed=7)
    np.testing.assert_array_equal(a.points, b.points)
    c = sample_intersection(bp, budget=2048, seed=8)
    assert a.points.shape != c.points.shape or not np.array_equal(a.points, c.points)


# ------------------------------------------------------------- diameter


def test_lens_diameter_contained_ball(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=1.0)
    res = lens_diameter(bp, budget=4096, seed=1)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_lens_diameter_matches_brute_force_oracle(plane):
    R, r, t = 2.0, 1.0, 1.8
    oracle = brute_force_lens_diameter(R, r, t)
    # the oracle itself must agree with the corner-chord closed form
    assert oracle == pytest.approx(euclid_closed_form_width(R, r, t), abs=1e-5)
    res = lens_diameter(BallPair.create(plane, R, r, t=t), budget=4096, seed=1)
    assert res.value == pytest.approx(oracle, abs=1e-5)
    assert res.value == pytest.approx(euclid_closed_form_width(R, r, t), abs=1e-12)


def test_lens_diameter_sphere_counterexample_configuration(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].R)
        return _ascend_pair(*args, **kwargs)

    monkeypatch.setattr(lens_module, "_ascend_pair", counted)
    s = Sphere(2, 1.0)
    bp = BallPair.create(
        s, math.pi / 2, math.pi / 2, t=1.0, convexity_bound=math.inf, enforce_convexity=False
    )
    res = lens_diameter(bp, budget=4096, seed=1)
    assert res.value == pytest.approx(math.pi, abs=1e-9)
    # R at the convexity radius: the candidates are not known to be exact,
    # so the ascent still runs; below it, and with refine=False, it does not
    assert calls == [math.pi / 2]
    lens_diameter(bp, budget=512, seed=1, refine=False)
    lens_diameter(BallPair.create(s, 1.2, 0.6, t=0.9), budget=512, seed=1)
    assert calls == [math.pi / 2]


@pytest.mark.parametrize("model,pairs", CONVEX_CASES, ids=[m.describe() for m, _ in CONVEX_CASES])
def test_ascent_cross_check_never_beats_candidates(model, pairs):
    # lens_diameter skips the ascent below the convexity radius of a
    # closed-form model; started from the sampled seed pair it must never
    # find a wider pair than the candidates there
    for R, r in pairs:
        bp = BallPair.create(model, R, r)
        for t in np.linspace(0.0, R + r, 13)[1:-1]:
            lens = bp.with_separation(float(t))
            for seed in (0, 9):
                cloud = sample_intersection(lens, budget=512, seed=seed)
                value = lens_diameter(lens, cloud=cloud).value
                p, q = _sampled_pair(lens, cloud)
                _, _, ascended = _ascend_pair(lens, p.copy(), q.copy())
                assert ascended <= value, (R, r, t, seed, ascended - value)


@pytest.mark.parametrize("model", [m for m, _ in CONVEX_CASES], ids=lambda m: m.describe())
def test_corner_points_lie_on_both_circles(model):
    scale = min(1.0, 0.6 * model.convexity_radius())
    for R, r, t in [(1.2, 0.6, 1.0), (1.0, 1.0, 0.7), (0.9, 0.5, 0.6)]:
        R, r, t = scale * R, scale * r, scale * t
        bp = BallPair.create(model, R, r, t=t)
        corners = _corner_points(bp)
        assert corners is not None
        np.testing.assert_allclose(model.dist_many(bp.center_big(), corners), R, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.dist_many(bp.center_small(), corners), r, rtol=0, atol=1e-12)


def test_lens_diameter_witnesses_admissible(plane):
    for t in (0.3, 1.2, 1.9, 2.6):
        bp = BallPair.create(plane, 2.0, 1.0, t=t)
        res = lens_diameter(bp, budget=2048, seed=5)
        assert np.all(bp.margins(np.array([res.witness_a, res.witness_b])) >= -1e-9)
        assert res.value <= 2.0 * 1.0 + 1e-12


def test_surface_pair_samples_do_not_depend_on_history():
    # the numeric line is integrated once over the pair's span, so a second
    # call does not read a re-integrated (longer) trajectory
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bp = BallPair.create(surface, 0.05, 0.03, t=0.04, convexity_bound=1.0)
    first = sample_intersection(bp, budget=16, seed=0)
    second = sample_intersection(bp, budget=16, seed=0)
    np.testing.assert_array_equal(first.points, second.points)


# -------------------------------------------------------------- profile


def test_profile_unit_balls_matches_chord_closed_form(plane):
    # w(t) = 2 sqrt(r^2 - (t/2)^2) for R = r; cross-checked against the
    # brute-force oracle before being adopted as the grid reference
    R = r = 1.0
    for t in (0.3, 0.9, 1.5):
        chord = 2.0 * math.sqrt(r * r - (t / 2.0) ** 2)
        assert brute_force_lens_diameter(R, r, t) == pytest.approx(chord, abs=1e-5)
    bp = BallPair.create(plane, R, r)
    prof = w_profile(bp, grid=60, budget=2048, seed=2)
    expect = 2.0 * np.sqrt(np.clip(r * r - (prof.ts / 2.0) ** 2, 0.0, None))
    np.testing.assert_allclose(prof.w, expect, atol=1e-9)
    assert prof.w[0] == pytest.approx(2.0)
    assert prof.w[-1] == pytest.approx(0.0, abs=1e-12)
    diffs = np.diff(prof.w)
    assert np.all(diffs < 0)


def test_profile_value_at_radius_gap_is_full_width(plane):
    bp = BallPair.create(plane, 2.0, 1.0)
    prof = w_profile(bp, grid=61, budget=2048, seed=2)  # grid hits t = 1.0
    k = np.argmin(np.abs(prof.ts - 1.0))
    assert prof.ts[k] == pytest.approx(1.0, abs=1e-12)
    assert prof.w[k] == pytest.approx(2.0, abs=1e-12)


def test_profile_slack_bounds_width(plane):
    bp = BallPair.create(plane, 1.5, 0.7)
    prof = w_profile(bp, grid=40, budget=1024, seed=4)
    assert np.all(prof.w <= 2 * 0.7 + prof.slack + 1e-12)


def test_profile_symmetric_when_radii_equal(plane):
    # swapping the two centers relabels t -> t; the width must not care
    bp_fwd = BallPair.create(plane, 1.0, 1.0)
    base = plane.point(np.array([5.0, 5.0]))
    frame = plane.tangent_basis(base.coords)
    from geolens.manifolds import TangentVector

    bp_shift = BallPair.create(
        plane, 1.0, 1.0, base=base, direction=TangentVector(base, -frame[0])
    )
    p1 = w_profile(bp_fwd, grid=30, budget=1024, seed=6)
    p2 = w_profile(bp_shift, grid=30, budget=1024, seed=6)
    np.testing.assert_allclose(p1.w, p2.w, atol=1e-9)


# ------------------------------------------------------------ thresholds


def test_onset_zero_when_radii_equal(plane):
    bp = BallPair.create(plane, 1.0, 1.0)
    est = estimate_nesting_onset(bp, n_grid=301, budget=256, seed=0)
    assert est.value <= est.uncertainty


def test_onset_euclid_between_gap_and_big_radius(plane):
    bp = BallPair.create(plane, 2.0, 1.0)
    est = estimate_nesting_onset(bp, n_grid=601, budget=512, seed=0)
    assert 1.0 < est.value < 2.0
    # the exact onset here is sqrt(R^2 - r^2) = sqrt(3)
    assert est.value == pytest.approx(math.sqrt(3.0), abs=5e-3)


def test_nesting_consistency_after_onset(plane):
    bp = BallPair.create(plane, 2.0, 1.0)
    est = estimate_nesting_onset(bp, n_grid=301, budget=512, seed=0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        s, t = np.sort(rng.uniform(est.value + est.uncertainty, 3.0, size=2))
        cloud = sample_intersection(bp.with_separation(float(t)), 512, 0)
        d = plane.dist_many(bp.line.coords_at(float(s)), cloud.points)
        assert np.max(d) <= 1.0 + 1e-6


def test_full_width_end_equal_radii(plane):
    bp = BallPair.create(plane, 1.0, 1.0)
    prof = w_profile(bp, grid=100, budget=1024, seed=0)
    assert prof.full_width_end.value <= prof.ts[1] - prof.ts[0]


def test_full_width_end_euclid_sqrt3(plane):
    bp = BallPair.create(plane, 2.0, 1.0)
    prof = w_profile(bp, grid=200, budget=4096, seed=0)
    assert prof.full_width_end.value == pytest.approx(math.sqrt(3.0), abs=1e-3)


def test_thresholds_ordered_sphere():
    s = Sphere(2, 1.0)
    bp = BallPair.create(s, 1.2, 0.6)
    prof = w_profile(bp, grid=120, budget=2048, seed=0)
    h = prof.ts[1] - prof.ts[0]
    assert 1.2 - 0.6 - h <= prof.full_width_end.value
    assert prof.full_width_end.value <= prof.nesting_onset.value + h


# --------------------------------------------------------- preconditions


def test_radius_order_enforced(plane):
    with pytest.raises(ValueError):
        BallPair.create(plane, 1.0, 2.0)


def test_convexity_bound_enforced():
    s = Sphere(2, 1.0)
    with pytest.raises(ValueError):
        BallPair.create(s, math.pi / 2, 0.5)


def test_separation_range_enforced(plane):
    bp = BallPair.create(plane, 2.0, 1.0)
    with pytest.raises(ValueError):
        bp.with_separation(3.5)


def test_csv_roundtrip(tmp_path, plane):
    bp = BallPair.create(plane, 1.0, 1.0)
    prof = w_profile(bp, grid=12, budget=512, seed=0)
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0].split(",") == [
        "t",
        "w",
        "slack",
        "witness_a_0",
        "witness_a_1",
        "witness_b_0",
        "witness_b_1",
        "nested_after_T",
    ]
    assert len(rows) == 13
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(2.0)
