"""Ball-pair overlap: membership, sampling, diameter, profile, thresholds."""

import math
from dataclasses import replace

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
from geolens.errors import DefectError
from geolens.sets import diameter
from geolens.lens import (
    BOUNDARY,
    EXACT_SLACK,
    INSIDE,
    OUTSIDE,
    _ascend_pair,
    _axis_points,
    _corner_points,
    _nesting_scan,
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


def _per_ring_reference(bp, budget, seed):
    """The sampler as one model call per ring: the reference for the block.

    Same rings, arcs, extreme points, phase draws, filters and point order
    as ``sample_intersection``, built one circle at a time.
    """
    m, R, r, t = bp.manifold, bp.R, bp.r, bp.t
    if R + r - t < 1e-12 * (R + r):
        return bp.line.coords_at(R)[None, :], 0.0
    rng = np.random.default_rng([seed, budget])
    center_small, center_big = bp.center_small(), bp.center_big()
    frame_small = m.tangent_basis(center_small, primary=bp.line.velocity_at(t).components)
    frame_big = m.tangent_basis(center_big, primary=bp.line.velocity_at(0.0).components)
    pitch = math.sqrt(m.disk_area(r) / max(16, int(0.6 * budget)))
    n_rad = max(2, int(math.ceil(r / pitch)))
    drho = r / n_rad

    def circle(center, frame, rho, n):
        ang = rng.uniform(0.0, 2.0 * math.pi) + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        vecs = rho * (np.cos(ang)[:, None] * frame[0] + np.sin(ang)[:, None] * frame[1])
        return m.exp_many(center, vecs)

    chunks = [np.array([bp.line.coords_at(t - r), bp.line.coords_at(min(t + r, R))])]
    cos_phi = m.corner_cosine(R, r, t) if t >= 1e-12 else None
    if cos_phi is not None and -1.0 <= cos_phi <= 1.0:
        phi = math.acos(cos_phi)
        for sign in (1.0, -1.0):
            vec = R * (math.cos(phi) * frame_big[0] + sign * math.sin(phi) * frame_big[1])
            chunks.append(m.exp_many(center_big, vec[None, :]))
    chord = m.exp_many(center_small, np.array([r * frame_small[1], -r * frame_small[1]]))
    for i in range(n_rad + 1):
        if i == 0:
            ring = center_small[None, :]
        else:
            n_ang = max(6, int(math.ceil(m.circle_circumference(i * drho) / drho)))
            ring = circle(center_small, frame_small, i * drho, n_ang)
        chunks.append(ring[m.dist_many(center_big, ring) <= R + 1e-12])
    n_arc = max(64, int(math.ceil(m.circle_circumference(r) / drho)))
    arc = circle(center_small, frame_small, r, n_arc)
    chunks.append(arc[m.dist_many(center_big, arc) <= R + 1e-12])
    n_arc = max(64, int(math.ceil(m.circle_circumference(R) / drho)))
    arc = circle(center_big, frame_big, R, n_arc)
    chunks.append(arc[m.dist_many(center_small, arc) <= r + 1e-12])
    chunks.append(chord[bp.margins(chord) >= -1e-12])
    points = np.vstack(chunks)
    return points[bp.margins(points) >= -1e-9], 0.5 * math.hypot(drho, drho)


ORACLE_CASES = [
    (Euclidean(2), 2.0, 1.0),
    (Euclidean(3), 1.5, 0.7),
    (Sphere(2, 1.0), 1.2, 0.6),
    (Sphere(3, 4.0), 0.6, 0.3),
    (Hyperbolic(2, -1.0), 2.0, 1.0),
    (Hyperbolic(3, -1.0), 1.5, 0.7),
]


@pytest.mark.parametrize("model,R,r", ORACLE_CASES, ids=[m.describe() for m, _, _ in ORACLE_CASES])
def test_sample_block_matches_per_ring_reference(model, R, r):
    bp = BallPair.create(model, R, r)
    for t in (0.0, R - r, 0.5 * (R - r) + 0.25 * (R + r), 0.9 * (R + r), (R + r) * (1 - 1e-9)):
        lens = bp.with_separation(t)
        for budget in (256, 4096):
            for seed in (0, 5):
                cloud = sample_intersection(lens, budget, seed)
                points, fill = _per_ring_reference(lens, budget, seed)
                assert cloud.points.tobytes() == points.tobytes(), (t, budget, seed)
                assert cloud.fill_radius == fill


def test_surface_sample_block_matches_per_ring_reference():
    # r = 0.03 is below 16 RK4 steps, so the shared step count of the
    # block changes no point
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bp = BallPair.create(surface, 0.05, 0.03, t=0.04, convexity_bound=1.0)
    cloud = sample_intersection(bp, budget=16, seed=0)
    points, fill = _per_ring_reference(bp, 16, 0)
    assert cloud.points.tobytes() == points.tobytes()
    assert cloud.fill_radius == fill


def test_sample_makes_a_fixed_number_of_model_calls(monkeypatch):
    # one block about each center, the corners and the chord; the two frames
    sphere = Sphere(2, 1.0)
    pair = BallPair.create(sphere, 1.2, 0.6)
    lens = pair.with_separation(1.0)
    calls = {"exp_many": 0, "dist_many": 0, "tangent_basis": 0}
    for name in calls:
        method = getattr(sphere, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(sphere, name, counted)
    cloud = sample_intersection(lens, budget=4096, seed=0)
    assert len(cloud) > 1000
    assert calls["exp_many"] <= 4
    assert calls["tangent_basis"] <= 2
    assert calls["dist_many"] <= 6
    # the diameter reuses the sampled extremes: only the scan subset's
    # margins are new
    calls.update(dict.fromkeys(calls, 0))
    lens_diameter(pair.with_separation(1.0), budget=4096, seed=0)
    assert calls["exp_many"] <= 4
    assert calls["tangent_basis"] <= 2
    assert calls["dist_many"] <= 8


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


def test_exact_width_draws_no_cloud_and_matches_the_sampled_path(monkeypatch):
    # on exact pairs the width is the best candidate; the sampled path on the
    # same lens never beats it beyond rounding
    calls = []
    sample = lens_module.sample_intersection
    monkeypatch.setattr(
        lens_module, "sample_intersection", lambda *a, **k: calls.append(a) or sample(*a, **k)
    )
    for model, pairs in CONVEX_CASES:
        for R, r in pairs:
            bp = BallPair.create(model, R, r)
            assert bp.exact
            for t in np.linspace(0.0, R + r, 9)[1:-1]:
                lens = bp.with_separation(float(t))
                exact = lens_diameter(lens, budget=512, seed=0)
                assert exact.slack == EXACT_SLACK
                assert not calls
                cloud = sample(lens, 512, 0)
                sampled = diameter(cloud)
                assert sampled <= exact.value + EXACT_SLACK, (R, r, t)
                assert exact.value - sampled <= 2.0 * cloud.fill_radius, (R, r, t)
                assert lens_diameter(lens, cloud=cloud).value <= exact.value + EXACT_SLACK


def test_exact_profile_samples_nothing_but_the_other_paths_do(monkeypatch):
    calls = []
    sample = lens_module.sample_intersection

    def counted(bp, *args, **kwargs):
        calls.append(bp.manifold.kind)
        return sample(bp, *args, **kwargs)

    monkeypatch.setattr(lens_module, "sample_intersection", counted)
    for model, pairs in CONVEX_CASES:
        w_profile(BallPair.create(model, *pairs[0]), grid=30, budget=30000, seed=0)
    assert calls == []
    # the counterexample (R at the convexity radius) and the numeric surface
    # still sample: the width, and the nesting scan
    s = Sphere(2, 1.0)
    big = BallPair.create(
        s, math.pi / 2, math.pi / 2, t=1.0, convexity_bound=math.inf, enforce_convexity=False
    )
    assert not big.exact
    lens_diameter(big, budget=512, seed=0)
    assert calls == ["sphere"]
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bp = BallPair.create(surface, 0.05, 0.03, convexity_bound=1.0)
    assert not bp.exact
    _nesting_scan(bp, np.array([0.04]), 16, 0)
    assert calls == ["sphere", surface.kind]


def _cloud_nesting_scan(bp, ts, budget, seed):
    """The nesting scan over sampled clouds: the reference for the exact one."""
    blocks, owners = [], []
    for idx, t in enumerate(ts):
        cloud = sample_intersection(bp.with_separation(float(t)), budget, seed)
        blocks.append(cloud.points)
        owners.append(np.full(len(cloud), idx))
    return np.vstack(blocks), np.concatenate(owners)


@pytest.mark.parametrize("model,pairs", CONVEX_CASES, ids=[m.describe() for m, _ in CONVEX_CASES])
def test_exact_nesting_matches_the_cloud_scan(model, pairs, monkeypatch):
    # the farthest lens point from gamma(s) is an axis end or a corner, so
    # the exact scan decides the onset and the flags as the clouds do
    for R, r in pairs:
        bp = BallPair.create(model, R, r)
        exact = w_profile(bp, grid=80, budget=2048, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(lens_module, "_nesting_scan", _cloud_nesting_scan)
            sampled = w_profile(bp, grid=80, budget=2048, seed=3)
        assert exact.nesting_onset == sampled.nesting_onset, (R, r)
        assert exact.nested_after_onset.tobytes() == sampled.nested_after_onset.tobytes()


def _closed_form_plateau_end(model, R, r):
    """The separation S at which the perpendicular chord reaches the big
    circle: the Pythagorean theorem of the model."""
    k = model.curvature if model.kind != "euclidean" else 0.0
    if k == 0.0:
        return math.sqrt(R * R - r * r)
    if k > 0:
        a = math.sqrt(k)
        return math.acos(math.cos(a * R) / math.cos(a * r)) / a
    a = math.sqrt(-k)
    return math.acosh(math.cosh(a * R) / math.cosh(a * r)) / a


PLATEAU_CASES = [
    (model, R, r)
    for dim in (2, 3)
    for model, R, r in [
        (Euclidean(dim), 2.0, 1.0),
        (Euclidean(dim), 1.5, 0.7),
        (Sphere(dim, 0.25), 2.0, 1.0),
        (Sphere(dim, 1.0), 1.2, 0.6),
        (Sphere(dim, 4.0), 0.6, 0.3),
        (Hyperbolic(dim, -0.3), 2.0, 1.0),
        (Hyperbolic(dim, -1.0), 2.0, 1.0),
        (Hyperbolic(dim, -1.0), 1.2, 0.6),
    ]
]


@pytest.mark.parametrize(
    "model,R,r", PLATEAU_CASES, ids=[f"{m.describe()}-{R}-{r}" for m, R, r in PLATEAU_CASES]
)
def test_plateau_end_matches_the_closed_form(model, R, r):
    prof = w_profile(BallPair.create(model, R, r), grid=60, budget=512, seed=0)
    est = prof.full_width_end
    assert abs(est.value - _closed_form_plateau_end(model, R, r)) <= est.uncertainty


def test_witness_check_rejects_an_axis_end_outside_the_lens(monkeypatch):
    def pushed(bp):
        ends = _axis_points(bp)
        ends[0] = bp.line.coords_at(bp.t - bp.r - 1e-6)
        return ends

    bp = BallPair.create(Euclidean(2), 2.0, 1.0)
    w_profile(bp, grid=12, budget=512, seed=0)
    monkeypatch.setattr(lens_module, "_axis_points", pushed)
    with pytest.raises(DefectError, match="row 0"):
        w_profile(bp, grid=12, budget=512, seed=0)


def test_witness_check_rejects_an_inflated_width(monkeypatch):
    diameter = lens_module.lens_diameter

    def inflated(*args, **kwargs):
        res = diameter(*args, **kwargs)
        return replace(res, value=res.value + 1e-9)

    monkeypatch.setattr(lens_module, "lens_diameter", inflated)
    with pytest.raises(DefectError, match="row 0"):
        w_profile(BallPair.create(Sphere(2, 1.0), 1.2, 0.6), grid=12, budget=512, seed=0)


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


def test_onset_needs_two_grid_points(plane):
    bp = BallPair.create(plane, 2.0, 1.0)
    with pytest.raises(ValueError):
        estimate_nesting_onset(bp, n_grid=1)


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
