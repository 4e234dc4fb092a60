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
    estimate_nesting_onset,
    lens_diameter,
    sample_intersection,
    w_profile,
)
from geolens import lens as lens_module
from geolens.errors import ChartError, DefectError
from geolens._kernels import min_dist_to
from geolens.sets import diameter, diameter_with_witness, hausdorff
from geolens.lens import (
    BOUNDARY_TOL,
    EXACT_SLACK,
    NESTING_SLACK,
    ThresholdEstimate,
    _ascend_pair,
    _corners_at,
    _nesting_scan,
)
from lens_clouds import polar_lens_cloud
from lens_oracles import Plane, brute_width

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
# a point lies in the lens when its margin is at least -BOUNDARY_TOL


def test_membership_center_of_small_ball(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=0.5)
    margin = bp.margins(np.array([0.5, 0.0]))[0]
    assert margin == pytest.approx(min(2.0 - 0.5, 1.0), abs=1e-12)


def test_membership_tangency_point(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=3.0)
    margin = bp.margins(np.array([2.0, 0.0]))[0]
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_membership_corner_point_boundary(plane):
    R, r, t = 2.0, 1.0, 1.8
    a = (t * t + R * R - r * r) / (2 * t)
    corner = np.array([a, math.sqrt(R * R - a * a)])
    margin = BallPair.create(plane, R, r, t=t).margins(corner)[0]
    assert abs(margin) < 1e-10


def test_membership_outside(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=1.0)
    margin = bp.margins(np.array([5.0, 5.0]))[0]
    assert margin < -BOUNDARY_TOL


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
    """The sampler as one model call per ring, the small circle and the big
    one: the reference for the pass.

    Same spacing, arcs, extreme points, phase draws, filters and point
    order as ``sample_intersection``, built one circle at a time.
    """
    m, R, r, t = bp.manifold, bp.R, bp.r, bp.t
    if R + r - t < 1e-12 * (R + r):
        return bp.line.coords_at(R)[None, :], 0.0
    rng = np.random.default_rng([seed, budget])
    center_small, center_big = bp.center_small(), bp.center_big()
    frame_small = m.tangent_basis(center_small, primary=bp.line.velocity_at(t).components)
    frame_big = m.tangent_basis(center_big, primary=bp.line.velocity_at(0.0).components)
    pitch = math.sqrt(m.disk_area(r) / max(16, int(0.6 * budget)))
    drho = r / max(2, int(math.ceil(r / pitch)))

    def circle(center, frame, rho, n):
        ang = rng.uniform(0.0, 2.0 * math.pi) + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        vecs = rho * (np.cos(ang)[:, None] * frame[0] + np.sin(ang)[:, None] * frame[1])
        return m.exp_many(center, vecs)

    chunks = [np.array([bp.line.coords_at(t - r), bp.line.coords_at(min(t + r, R))])]
    cos_phi = m.corner_cosine(R, r, t) if t >= 1e-12 else None
    if cos_phi is not None and -1.0 <= cos_phi <= 1.0:
        phi = np.arccos(cos_phi)
        for sign in (1.0, -1.0):
            vec = R * (np.cos(phi) * frame_big[0] + sign * np.sin(phi) * frame_big[1])
            chunks.append(m.exp_many(center_big, vec[None, :]))
    chord = m.exp_many(center_small, np.array([r * frame_small[1], -r * frame_small[1]]))
    n_small = max(64, int(math.ceil(m.circle_circumference(r) / drho)))
    arc = circle(center_small, frame_small, r, n_small)
    chunks.append(arc[m.dist_many(center_big, arc) <= R + 1e-12])
    n_big = max(64, int(math.ceil(m.circle_circumference(R) / drho)))
    arc = circle(center_big, frame_big, R, n_big)
    chunks.append(arc[m.dist_many(center_small, arc) <= r + 1e-12])
    chunks.append(chord[bp.margins(chord) >= -1e-12])
    points = np.vstack(chunks)
    fill = 0.5 * max(m.circle_circumference(r) / n_small, m.circle_circumference(R) / n_big)
    return points[bp.margins(points) >= -1e-9], fill


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


SCAN_CASES = ORACLE_CASES + [(Sphere(2, 1.0), 2.0, 1.8)]  # beyond convexity, near the antipode


@pytest.mark.parametrize("model,R,r", SCAN_CASES, ids=[f"{m.describe()}-{R:g}" for m, R, _ in SCAN_CASES])
def test_scans_give_the_pair_distances_of_their_witnesses(model, R, r):
    # every scan value is the model's distance of its pair, bit for bit: the
    # diameter is dist_coords of its witnesses, and each nearest distance
    # the row minimum of dist_many
    bp = BallPair.create(model, R, r, convexity_bound=math.inf)
    clouds = [
        sample_intersection(bp.with_separation(float(t)), budget, seed)
        for t in np.linspace(0.0, R + r, 10)[:-1]
        for budget, seed in ((256, 0), (1024, 3), (4096, 5))
    ]
    for cloud, other in zip(clouds, clouds[3:] + clouds[:3]):
        d, (i, j) = diameter_with_witness(cloud)
        assert repr(d) == repr(model.dist_coords(cloud.points[i], cloud.points[j]))
        rows = np.array([np.min(model.dist_many(p, other.points)) for p in cloud.points])
        assert min_dist_to(cloud.points, other.points, model).tobytes() == rows.tobytes()


def test_surface_sample_block_matches_per_ring_reference():
    # r = 0.03 is below one DOP853 step (20 grid steps, 0.04), so every
    # row of the block takes the one step it takes alone
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bp = BallPair.create(surface, 0.05, 0.03, t=0.04, convexity_bound=1.0)
    cloud = sample_intersection(bp, budget=16, seed=0)
    points, fill = _per_ring_reference(bp, 16, 0)
    assert cloud.points.tobytes() == points.tobytes()
    assert cloud.fill_radius == fill


def _dense_boundary(lens, n=20000):
    """The lens boundary in its axial section at ``n`` angles per circle,
    each circle point kept where it lies in the other ball."""
    m = lens.manifold
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    circles = []
    for center, frame, rho in (
        (lens.center_small(), m.tangent_frames(*lens.line.states_many([lens.t]))[0], lens.r),
        (lens.center_big(), lens.frame_big(), lens.R),
    ):
        vecs = rho * (np.cos(ang)[:, None] * frame[0] + np.sin(ang)[:, None] * frame[1])
        circles.append(m.exp_many(center, vecs))
    points = np.vstack(circles)
    return points[lens.margins(points) >= 0.0]


@pytest.mark.parametrize("model,R,r", ORACLE_CASES, ids=[m.describe() for m, _, _ in ORACLE_CASES])
def test_sample_lies_on_the_boundary_within_its_fill_radius(model, R, r):
    # every sample lies on one of the two circles, and every boundary point
    # lies within the fill radius (half the larger arc spacing) of a sample
    bp = BallPair.create(model, R, r)
    for t in [*np.linspace(0.0, R + r, 7)[:-1], R - r, (R + r) * (1 - 1e-6)]:
        lens = bp.with_separation(float(t))
        dense = _dense_boundary(lens)
        for budget in (256, 4096):
            for seed in (0, 5):
                cloud = sample_intersection(lens, budget, seed)
                d_big = model.dist_many(lens.center_big(), cloud.points)
                d_small = model.dist_many(lens.center_small(), cloud.points)
                off = np.minimum(np.abs(d_big - R), np.abs(d_small - r))
                assert np.max(off) <= BOUNDARY_TOL, (t, budget, seed)
                gap = np.max(min_dist_to(dense, cloud.points, model))
                assert gap <= cloud.fill_radius, (t, budget, seed, gap / cloud.fill_radius)


def test_boundary_hausdorff_matches_the_polar_clouds():
    # the verify_s2 pairs at its probe budget: between nearby lenses the
    # Hausdorff distance of the boundary clouds lies within the polar
    # oracle clouds' fill radii of theirs
    sphere = Sphere(2, 1.0)
    for R, r in ((1.2, 0.6), (1.0, 1.0)):
        bp = BallPair.create(sphere, R, r)
        ts = np.linspace(0.0, R + r, 40)
        for seed in (1, 7):
            rng = np.random.default_rng([seed, 41])
            for _ in range(12):
                i = int(rng.integers(0, len(ts) - 1))
                j = min(len(ts) - 1, i + int(rng.integers(1, 6)))
                s, t = bp.with_separation(float(ts[i])), bp.with_separation(float(ts[j]))
                xs, xt = sample_intersection(s, 1024, seed), sample_intersection(t, 1024, seed)
                ys, yt = polar_lens_cloud(s, 1024, seed), polar_lens_cloud(t, 1024, seed)
                gap = abs(hausdorff(xs, xt) - hausdorff(ys, yt))
                assert gap <= ys.fill_radius + yt.fill_radius, (R, r, i, j)


PASS_CASES = [(model, *pairs[0]) for model, pairs in CONVEX_CASES] + [
    (Sphere(2, 1.0), math.pi / 2, math.pi / 2)  # the counterexample, beyond convexity
]


@pytest.mark.parametrize("model,R,r", PASS_CASES, ids=[m.describe() for m, _, _ in PASS_CASES])
def test_sample_pass_gives_each_lens_the_bits_of_its_one_row_case(model, R, r, monkeypatch):
    # no corners below R - r, a near-zero separation, the middle of the
    # range and a touching row, in one step and straddling step boundaries
    bp = BallPair.create(model, R, r, convexity_bound=math.inf)
    ts = [0.0, 1e-9, 0.5 * (R - r), 0.5 * (R + r), 0.8 * (R + r), R + r]
    alone = [sample_intersection(bp.with_separation(t), 512, 3) for t in ts]
    assert len(alone[-1]) == 1 and alone[-1].fill_radius == 0.0
    steps = []
    lens_points = lens_module._lens_points

    def spy(bp, ts, small_plan, arc):
        steps.append((len(ts), sum(small_plan[1]) + len(arc)))
        return lens_points(bp, ts, small_plan, arc)

    monkeypatch.setattr(lens_module, "_lens_points", spy)
    whole = lens_module._sample_lenses(bp, ts, 512, 3)
    [(lenses, rows)] = steps
    assert lenses == 5
    monkeypatch.setattr(lens_module, "_SAMPLE_ROWS", 2 * rows)
    steps.clear()
    chunked = lens_module._sample_lenses(bp, ts, 512, 3)
    assert [n for n, _ in steps] == [2, 2, 1]
    for clouds in (whole, chunked):
        for t, cloud, one in zip(ts, clouds, alone):
            assert cloud.points.tobytes() == one.points.tobytes(), t
            assert cloud.fill_radius == one.fill_radius


def test_surface_sample_pass_takes_the_lenses_in_one_step(monkeypatch):
    # the surface's exp_pairs and shots integrate each row in its own DOP853
    # steps, so the lenses share one step with the bits of each alone
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bp = BallPair.create(surface, 0.05, 0.03, convexity_bound=1.0)
    ts = [0.01, 0.04, 0.08]
    alone = [sample_intersection(bp.with_separation(t), 16, 0) for t in ts]
    steps = []
    lens_points = lens_module._lens_points
    monkeypatch.setattr(
        lens_module, "_lens_points", lambda bp, ts, *a: steps.append(len(ts)) or lens_points(bp, ts, *a)
    )
    clouds = lens_module._sample_lenses(bp, ts, 16, 0)
    assert steps == [2]  # R + r = 0.08 is the contact point
    for cloud, one in zip(clouds, alone):
        assert cloud.points.tobytes() == one.points.tobytes()
        assert cloud.fill_radius == one.fill_radius


def _four_query_lens_points(bp, ts, small_plan, arc):
    """``lens._lens_points`` with its distances as four queries, one Newton
    loop each on the surface: the candidates' two (``_candidates_at``), the
    small circles' ``dist_many`` about gamma(0) and the big circle's
    ``dist_pairs`` against the small centres."""
    m, R, r = bp.manifold, bp.R, bp.r
    n, d = len(ts), m.ambient_dim
    centres, velocity = bp.line.states_many(ts)
    frames = m.tangent_frames(centres, velocity)
    c = lens_module._candidates_at(bp, ts)
    vecs = lens_module._circle_vectors(frames, *small_plan)
    small = m.exp_pairs(np.repeat(centres, vecs.shape[1], axis=0), vecs.reshape(-1, d))
    small_owner = np.repeat(np.arange(n), vecs.shape[1])
    inner = m.dist_many(bp.center_big(), small) <= R + 1e-12
    arcs = np.tile(arc, (n, 1))
    arc_owner = np.repeat(np.arange(n), len(arc))
    outer = m.dist_pairs(centres[arc_owner], arcs) <= r + 1e-12
    near, near_owner = lens_module._far_points(c)
    chord_owner, chord_slot = np.nonzero(c.margins[:, 4:6] >= -BOUNDARY_TOL)
    owners = np.concatenate([near_owner, small_owner[inner], arc_owner[outer], chord_owner])
    points = np.concatenate([near, small[inner], arcs[outer], c.ends[chord_owner, chord_slot + 4]])
    order = np.argsort(owners, kind="stable")
    return np.split(points[order], np.cumsum(np.bincount(owners, minlength=n))[:-1])


def _counted_shots(monkeypatch):
    """The row counts of every ``SurfaceOfRevolution._shoot`` call, as they
    are made."""
    shots = []
    shoot = SurfaceOfRevolution._shoot

    def spy(self, p, q):
        shots.append(len(p))
        return shoot(self, p, q)

    monkeypatch.setattr(SurfaceOfRevolution, "_shoot", spy)
    return shots


def test_surface_sample_shoots_in_one_newton_loop(monkeypatch):
    # the candidates' margins and both circle rejections are one dist_pairs,
    # so one lockstep Newton loop; four separate queries take four
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bp = BallPair.create(surface, 0.05, 0.03, t=0.04, convexity_bound=0.5)
    shots = _counted_shots(monkeypatch)
    merged = sample_intersection(bp, 16, 1)
    assert shots == [6 + 6 + 64 + 64]
    shots.clear()
    monkeypatch.setattr(lens_module, "_lens_points", _four_query_lens_points)
    separate = sample_intersection(bp, 16, 1)
    assert shots == [6, 6, 64, 64]
    assert merged.points.tobytes() == separate.points.tobytes()


def test_surface_pair_and_sample_take_few_right_hand_sides(monkeypatch):
    # exp and shots step with DOP853 over at most SCAN_GRID_STEPS grid steps:
    # the pair and its sample take 240 right-hand sides, and the shots
    # converge in 3 Newton evaluations
    calls = {"rhs": 0, "residual": 0}

    def counted(name, method):
        def spy(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return spy

    for attr, name in (("jacobi_rhs", "rhs"), ("geodesic_rhs", "rhs"), ("_residual", "residual")):
        monkeypatch.setattr(SurfaceOfRevolution, attr, counted(name, getattr(SurfaceOfRevolution, attr)))
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bp = BallPair.create(surface, 0.05, 0.03, t=0.04, convexity_bound=0.5)
    sample_intersection(bp, 16, 1)
    assert calls["rhs"] <= 300
    assert calls["residual"] <= 3


def test_surface_sample_batch_gives_the_bits_of_four_queries(monkeypatch):
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bp = BallPair.create(surface, 0.05, 0.03, convexity_bound=0.5)
    cases = [(seed, t) for seed in (1, 3, 7) for t in (0.0, 0.02, 0.04, 0.07)]
    merged = [sample_intersection(bp.with_separation(t), 16, seed) for seed, t in cases]
    monkeypatch.setattr(lens_module, "_lens_points", _four_query_lens_points)
    for (seed, t), cloud in zip(cases, merged):
        separate = sample_intersection(bp.with_separation(t), 16, seed)
        assert cloud.points.tobytes() == separate.points.tobytes(), (seed, t)
        assert cloud.fill_radius == separate.fill_radius


def test_surface_pair_whose_line_leaves_the_chart_fails_at_creation():
    # on the bump (|u| <= 0.6) the line along the meridian reaches
    # u = R + r > 0.6: the pair fails when built, not mid-run
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    with pytest.raises(ChartError):
        BallPair.create(surface, 0.45, 0.4, convexity_bound=1.0)
    with pytest.raises(ChartError):
        BallPair.create(surface, 0.35, 0.3, t=0.1, convexity_bound=1.0)
    BallPair.create(surface, 0.3, 0.25, convexity_bound=1.0)


def test_sample_makes_a_fixed_number_of_model_calls(monkeypatch):
    # one circle about each center, the corners and the chord; the two frames
    sphere = Sphere(2, 1.0)
    pair = BallPair.create(sphere, 1.2, 0.6)
    lens = pair.with_separation(1.0)
    calls = {"exp_many": 0, "dist_many": 0, "tangent_basis": 0, "tangent_frames": 0}
    for name in calls:
        method = getattr(sphere, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(sphere, name, counted)
    cloud = sample_intersection(lens, budget=4096, seed=0)
    assert len(cloud) > 100
    assert calls["exp_many"] <= 4
    assert calls["tangent_basis"] <= 2
    assert calls["tangent_frames"] <= 2
    assert calls["dist_many"] <= 6
    # the exact diameter: the one-row grid pass of the candidates
    calls.update(dict.fromkeys(calls, 0))
    lens_diameter(pair.with_separation(1.0), budget=4096, seed=0)
    assert calls["exp_many"] <= 4
    assert calls["tangent_basis"] <= 2
    assert calls["tangent_frames"] <= 2
    assert calls["dist_many"] <= 8


def test_copies_at_other_separations_keep_the_memos_of_gamma_0(monkeypatch):
    # gamma'(0) and the frame at gamma(0) do not depend on t: every copy
    # carries them; gamma(t) is each copy's own
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    pair = BallPair.create(surface, 0.05, 0.03, t=0.04, convexity_bound=0.5)
    frame, center = pair.frame_big(), pair.center_small()
    calls = []
    evaluate = SurfaceOfRevolution.exp_velocity_coords

    def spy(self, *args):
        calls.append(1)
        return evaluate(self, *args)

    monkeypatch.setattr(SurfaceOfRevolution, "exp_velocity_coords", spy)
    copies = [pair.with_separation(t) for t in (0.0, 0.02, 0.07)]
    for copy in copies:
        assert copy.frame_big().tobytes() == frame.tobytes()
    assert not calls
    assert not np.array_equal(copies[2].center_small(), center)
    assert len(calls) == 1


# ------------------------------------------------------------- diameter


def test_lens_diameter_contained_ball(plane):
    bp = BallPair.create(plane, 2.0, 1.0, t=1.0)
    res = lens_diameter(bp, budget=4096, seed=1)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_lens_diameter_matches_brute_force_oracle(plane):
    R, r, t = 2.0, 1.0, 1.8
    oracle = brute_width(Plane(), R, r, t)
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
        s, math.pi / 2, math.pi / 2, t=1.0, convexity_bound=math.inf
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
                _, (i, j) = diameter_with_witness(cloud)
                p, q = cloud.points[i], cloud.points[j]
                _, _, ascended = _ascend_pair(lens, p.copy(), q.copy())
                assert ascended <= value, (R, r, t, seed, ascended - value)


@pytest.mark.parametrize("model", [m for m, _ in CONVEX_CASES], ids=lambda m: m.describe())
def test_corner_points_lie_on_both_circles(model):
    scale = min(1.0, 0.6 * model.convexity_radius())
    for R, r, t in [(1.2, 0.6, 1.0), (1.0, 1.0, 0.7), (0.9, 0.5, 0.6)]:
        R, r, t = scale * R, scale * r, scale * t
        bp = BallPair.create(model, R, r, t=t)
        found, corners = _corners_at(bp, [t])
        assert list(found) == [0]
        corners = corners[0]
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


CLOUD_CANDIDATE_CASES = [
    (model, R, r, 512, 3, math.inf) for model, pairs in CONVEX_CASES for R, r in pairs
] + [
    (Sphere(2, 1.0), math.pi / 2, math.pi / 2, 512, 3, math.inf),
    (Sphere(2, 1.0), 2.0, 1.8, 512, 3, math.inf),
    (SurfaceOfRevolution(RevolutionProfile.cosine_bump()), 0.05, 0.03, 16, 1, 0.5),
]


@pytest.mark.parametrize(
    "model,R,r,budget,seed,bound",
    CLOUD_CANDIDATE_CASES,
    ids=[f"{c[0].describe()}-{c[1]:g}-{c[2]:g}" for c in CLOUD_CANDIDATE_CASES],
)
def test_sampled_cloud_holds_every_admissible_candidate(model, R, r, budget, seed, bound):
    # lens_diameter reads a sampled width from the cloud alone: every axis
    # end and corner inside the lens and every chord end at margin >=
    # -BOUNDARY_TOL is a cloud row, so no admissible candidate pair is
    # farther apart than the cloud's farthest pair
    bp = BallPair.create(model, R, r, convexity_bound=bound)
    for t in np.linspace(0.0, R + r, 10)[:-1]:
        lens = bp.with_separation(float(t))
        cloud = sample_intersection(lens, budget, seed)
        rows = {row.tobytes() for row in cloud.points}
        c = lens_module._candidates_at(lens, [lens.t])
        far, _ = lens_module._far_points(c)
        chord = c.ends[0, lens_module._CHORD][c.margins[0, lens_module._CHORD] >= -BOUNDARY_TOL]
        for point in np.concatenate([far, chord]):
            assert point.tobytes() in rows, (R, r, t)
        pairs = lens_module._pair_distances(model, c.ends, c.margins)
        assert np.max(pairs) <= diameter(cloud), (R, r, t)


def test_sampled_profile_widths_are_the_per_lens_diameters():
    # the non-exact widths of w_profile come from one sampling pass, with
    # the bits of a lens_diameter call per grid separation
    bp = BallPair.create(Sphere(2, 1.0), math.pi / 2, math.pi / 2, convexity_bound=math.inf)
    profile = w_profile(bp, grid=7, budget=512, seed=3)
    rows = [lens_diameter(bp.with_separation(float(t)), 512, 3) for t in profile.ts]
    assert profile.w.tobytes() == np.array([res.value for res in rows]).tobytes()
    assert profile.slack.tobytes() == np.array([res.slack for res in rows]).tobytes()
    assert profile.witness_a.tobytes() == np.array([res.witness_a for res in rows]).tobytes()
    assert profile.witness_b.tobytes() == np.array([res.witness_b for res in rows]).tobytes()


def test_exact_profile_samples_nothing_but_the_other_paths_do(monkeypatch):
    # watches the sampling pass, which sample_intersection and the nesting
    # scan of a non-exact pair both run
    calls = []
    sample = lens_module._sample_lenses

    def counted(bp, *args, **kwargs):
        calls.append(bp.manifold.kind)
        return sample(bp, *args, **kwargs)

    monkeypatch.setattr(lens_module, "_sample_lenses", counted)
    for model, pairs in CONVEX_CASES:
        w_profile(BallPair.create(model, *pairs[0]), grid=30, budget=30000, seed=0)
    assert calls == []
    # the counterexample (R at the convexity radius) and the numeric surface
    # still sample: the width, and the nesting scan
    s = Sphere(2, 1.0)
    big = BallPair.create(
        s, math.pi / 2, math.pi / 2, t=1.0, convexity_bound=math.inf
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


def _per_lens_extremes(lens):
    """One lens's candidates built on their own, the reference for the grid
    pass: the axis ends, the corners from the law of cosines (one exp_many
    about gamma(0)) and the perpendicular chord (one exp_many about
    gamma(t)), stacked in that order, their margins and the number of axis
    and corner rows."""
    m, R, r, t, line = lens.manifold, lens.R, lens.r, lens.t, lens.line
    ends = [np.array([line.coords_at(t - r), line.coords_at(min(t + r, R))])]
    cos_phi = m.corner_cosine(R, r, t) if t >= 1e-12 else None
    if cos_phi is not None and -1.0 <= cos_phi <= 1.0:
        phi = np.arccos(cos_phi)
        frame = m.tangent_basis(line.coords_at(0.0), primary=line.velocity_at(0.0).components)
        vecs = [
            R * (np.cos(phi) * frame[0] + sign * np.sin(phi) * frame[1]) for sign in (1.0, -1.0)
        ]
        ends.append(m.exp_many(line.coords_at(0.0), np.array(vecs)))
    frame = m.tangent_basis(line.coords_at(t), primary=line.velocity_at(t).components)
    ends.append(m.exp_many(line.coords_at(t), np.array([r * frame[1], -r * frame[1]])))
    ends = np.vstack(ends)
    margins = np.minimum(
        R - m.dist_many(line.coords_at(0.0), ends), r - m.dist_many(line.coords_at(t), ends)
    )
    return ends, margins, len(ends) - 2


def _per_lens_far_points(bp, ts):
    """The exact nesting scan lens by lens, from each lens's extremes: the
    reference for the batched scan."""
    blocks, owners = [], []
    for idx, t in enumerate(ts):
        lens = bp.with_separation(float(t))
        if lens.touching:
            points = lens.line.coords_at(lens.R)[None, :]
        else:
            ends, margins, lead = _per_lens_extremes(lens)
            points = ends[:lead][margins[:lead] >= -BOUNDARY_TOL]
        blocks.append(points)
        owners.append(np.full(len(points), idx))
    return np.vstack(blocks), np.concatenate(owners)


def _sequential_onset(bp, ts, scan):
    """The nesting onset's step-by-step loops, one ``ok(s)`` per step with
    the grid fix-up: the reference for the lockstep rounds."""
    m = bp.manifold
    points, owners = scan
    h = ts[1] - ts[0]

    def ok(s):
        sel = ts[owners] > s + 1e-15
        if not np.any(sel):
            return True
        d = m.dist_many(bp.line.coords_at(s), points[sel])
        return bool(np.max(d) <= bp.r + NESTING_SLACK)

    lo_idx, hi_idx = 0, len(ts) - 1
    if ok(ts[0]):
        return ThresholdEstimate(0.0, h)
    while hi_idx - lo_idx > 1:
        mid = (lo_idx + hi_idx) // 2
        if ok(ts[mid]):
            hi_idx = mid
        else:
            lo_idx = mid
    while hi_idx > 1 and ok(ts[hi_idx - 1]):
        hi_idx -= 1
    lo, hi = ts[hi_idx - 1], ts[hi_idx]
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdEstimate(0.5 * (lo + hi), h)


def _sequential_full_width_end(ts, passing, full_width):
    """The plateau end's step-by-step bisection, one ``full_width(t)`` per
    step: the reference for the lockstep rounds."""
    h = ts[1] - ts[0]
    passing = np.flatnonzero(passing)
    if len(passing) == 0:
        return ThresholdEstimate(0.0, h)
    i = int(passing[-1])
    if i == len(ts) - 1:
        return ThresholdEstimate(float(ts[i]), h)
    lo, hi = ts[i], ts[i + 1]
    target = max(1e-4 * float(ts[-1]), 1e-12)
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        if full_width(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdEstimate(0.5 * (lo + hi), max(target, 0.5 * (hi - lo)))


def _reference_csv(ts, w, slack, wa, wb, flags):
    """The profile CSV body written row by row, one ``repr`` per value."""
    d = wa.shape[1]
    header = ["t", "w", "slack"] + [f"witness_a_{k}" for k in range(d)]
    header += [f"witness_b_{k}" for k in range(d)] + ["nested_after_T"]
    lines = [",".join(header)]
    for i in range(len(ts)):
        row = [ts[i], w[i], slack[i]] + list(wa[i]) + list(wb[i])
        lines.append(",".join(repr(float(x)) for x in row) + f",{int(flags[i])}")
    return "\n".join(lines) + "\n"


def _per_lens_profile(bp, grid):
    """The exact profile lens by lens, the reference for the grid pass: per
    lens the best admissible candidate by scalar distances, its witness
    check, the chord margin of the plateau test, one distance call per
    flagged row, and the two thresholds by step-by-step bisection.  Returns
    the arrays and estimates that ``w_profile`` reports, and the plateau's
    grid flags."""
    m, R, r = bp.manifold, bp.R, bp.r
    ts = np.linspace(0.0, R + r, grid)
    d = m.ambient_dim
    w, slack, wa, wb = np.empty(grid), np.empty(grid), np.empty((grid, d)), np.empty((grid, d))

    def chord_margin(lens):
        ends, _, lead = _per_lens_extremes(lens)
        return R - float(np.max(m.dist_many(lens.line.coords_at(0.0), ends[lead:])))

    for i, t in enumerate(ts):
        lens = bp.with_separation(float(t))
        if lens.touching:
            contact = lens.line.coords_at(R)
            w[i], slack[i], wa[i], wb[i] = 0.0, 0.0, contact, contact
        else:
            ends, margins, lead = _per_lens_extremes(lens)
            candidates = [ends[:2]]
            if lead > 2 and np.all(margins[2:lead] >= -BOUNDARY_TOL):
                candidates.append(ends[2:lead])
            if np.all(margins[lead:] >= -BOUNDARY_TOL):
                candidates.append(ends[lead:])
            best = -math.inf
            for a, b in candidates:
                dist = m.dist_coords(a, b)
                if dist > best:
                    best, wa[i], wb[i] = dist, a, b
            w[i], slack[i] = best, EXACT_SLACK
        check = lens.margins(np.array([wa[i], wb[i]]))
        assert np.all(check >= -BOUNDARY_TOL)
        assert abs(m.dist_coords(wa[i], wb[i]) - w[i]) <= EXACT_SLACK
    scan = _per_lens_far_points(bp, ts)
    onset = _sequential_onset(bp, ts, scan)
    passing = np.array([chord_margin(bp.with_separation(float(t))) >= 0.0 for t in ts])
    full_end = _sequential_full_width_end(
        ts, passing, lambda t: chord_margin(bp.with_separation(t)) >= 0.0
    )
    points, owners = scan
    flags = np.zeros(grid, dtype=int)
    anchor_idx = min(int(np.searchsorted(ts, onset.value - 1e-12)), grid - 1)
    anchor = bp.line.coords_at(ts[anchor_idx])
    for i in range(anchor_idx + 1, grid):
        dmax = float(np.max(m.dist_many(anchor, points[owners == i])))
        flags[i] = int(dmax <= r + NESTING_SLACK)
    return (w, slack, wa, wb, passing, flags), onset, full_end


@pytest.mark.parametrize("model,pairs", CONVEX_CASES, ids=[m.describe() for m, _ in CONVEX_CASES])
def test_grid_pass_gives_the_bits_of_the_per_lens_profile(model, pairs, monkeypatch, tmp_path):
    # the grids hold t = 0 and the touching end t = R + r; the pairs
    # include R = r
    seen = []
    plateau = lens_module.estimate_full_width_end

    def recorded(ts, passing, full_width, batch):
        seen.append(np.asarray(passing, dtype=bool))
        return plateau(ts, passing, full_width, batch)

    monkeypatch.setattr(lens_module, "estimate_full_width_end", recorded)
    for R, r in pairs:
        bp = BallPair.create(model, R, r)
        for grid in (2, 13, 41, 201):
            prof = w_profile(bp, grid=grid, budget=512, seed=0)
            arrays, onset, full_end = _per_lens_profile(bp, grid)
            got = (prof.w, prof.slack, prof.witness_a, prof.witness_b)
            got += (seen[-1], prof.nested_after_onset)
            for name, a, b in zip(("w", "slack", "wa", "wb", "passing", "flags"), got, arrays):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (R, r, grid, name)
            for got_est, ref in ((prof.nesting_onset, onset), (prof.full_width_end, full_end)):
                assert repr(float(got_est.value)) == repr(float(ref.value)), (R, r, grid)
                assert repr(float(got_est.uncertainty)) == repr(float(ref.uncertainty)), (R, r, grid)
            prof.to_csv(tmp_path / "profile.csv")
            w, slack, wa, wb, _, flags = arrays
            expected = _reference_csv(prof.ts, w, slack, wa, wb, flags)
            assert (tmp_path / "profile.csv").read_text() == expected, (R, r, grid)


@pytest.mark.parametrize("model,pairs", CONVEX_CASES, ids=[m.describe() for m, _ in CONVEX_CASES])
def test_batched_exact_scan_gives_the_bits_of_the_per_lens_scan(model, pairs):
    for R, r in pairs:
        bp = BallPair.create(model, R, r)
        # the grids hold t = 0, t = R + r and, for R > r, a stretch of
        # separations without corners (the small ball inside the big one)
        for n in (2, 13, 777, 1001):
            ts = np.linspace(0.0, R + r, n)
            points, owners = _nesting_scan(bp, ts, 256, 0)
            ref_points, ref_owners = _per_lens_far_points(bp, ts)
            assert points.tobytes() == ref_points.tobytes(), (R, r, n)
            assert owners.dtype == ref_owners.dtype
            assert owners.tobytes() == ref_owners.tobytes(), (R, r, n)
        found = _corners_at(bp, ts)[0]
        assert len(found) and found[0] != 0
        assert bp.with_separation(float(ts[-1])).touching


def test_exact_onset_makes_a_fixed_number_of_frames_and_exps(monkeypatch):
    # the batched scan pushes every corner through one exp_many about
    # gamma(0) with one frame; the line points are closed forms
    sphere = Sphere(2, 1.0)
    calls = {"exp_many": 0, "tangent_basis": 0, "tangent_frames": 0}
    for name in calls:
        method = getattr(sphere, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(sphere, name, counted)
    counts = []
    for n_grid in (11, 101, 1001):
        calls.update(dict.fromkeys(calls, 0))
        estimate_nesting_onset(BallPair.create(sphere, 1.2, 0.6), n_grid=n_grid)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == counts[2]
    assert counts[2]["exp_many"] <= 1
    assert counts[2]["tangent_basis"] <= 2
    assert counts[2]["tangent_frames"] <= 2


ONSET_CASES = [
    (Sphere(2, 1.0), 1.2, 0.6, 1001),  # the fine onsets of geolens verify
    (Sphere(2, 1.0), 1.0, 1.0, 1001),
    (Hyperbolic(2, -1.0), 2.0, 1.0, 1001),
    (Sphere(2, 1.0), math.pi / 2, math.pi / 2, 13),  # sampled clouds
    (Sphere(2, 1.0), math.pi / 2, math.pi / 2, 41),
    # numeric shooting distances, from (k, 1, 2) against (n, 2) blocks
    (SurfaceOfRevolution(RevolutionProfile.cosine_bump()), 0.05, 0.03, 13),
]


@pytest.mark.parametrize(
    "model,R,r,grid", ONSET_CASES, ids=[f"{m.describe()}-{R:.3g}-{g}" for m, R, _, g in ONSET_CASES]
)
def test_onset_rounds_give_the_sequential_estimate(model, R, r, grid):
    bp = BallPair.create(model, R, r, convexity_bound=math.inf)
    ts = np.linspace(0.0, R + r, grid)
    scan = _nesting_scan(bp, ts, 256, 0)
    est = estimate_nesting_onset(bp, n_grid=grid, scan=scan)
    ref = _sequential_onset(bp, ts, scan)
    assert repr(float(est.value)) == repr(float(ref.value))
    assert repr(float(est.uncertainty)) == repr(float(ref.uncertainty))


@pytest.mark.parametrize("model,R,r", [(Sphere(2, 1.0), 1.2, 0.6), (Hyperbolic(2, -1.0), 2.0, 1.0)])
def test_bisection_rounds_do_not_grow_with_the_grid(model, R, r, monkeypatch):
    # a round is one batched test: of the onset at grid separations (t = 0,
    # then the grid phase) or between two of them (its 30 continuous
    # steps), or of the plateau (one chord pass); the step-by-step loops
    # made one test per step
    tests = []
    for name in ("_later_distances", "_chord_margins"):
        fn = getattr(lens_module, name)

        def counted(bp, s, *args, _fn=fn, _name=name):
            tests.append((_name, np.array(s)))
            return _fn(bp, s, *args)

        monkeypatch.setattr(lens_module, name, counted)
    per_grid = {}
    for grid in (11, 41, 201, 1001):
        ts = np.linspace(0.0, R + r, grid)
        tests.clear()
        w_profile(BallPair.create(model, R, r), grid=grid, budget=512, seed=0)
        on_grid = [bool(np.isin(s, ts).all()) for name, s in tests if name == "_later_distances"]
        plateau = sum(name == "_chord_margins" for name, _ in tests)
        per_grid[grid] = (sum(on_grid), len(on_grid) - sum(on_grid), plateau)
    # the grid phase takes at most its log2(grid) steps; the 30 continuous
    # steps and the plateau's steps stay under round counts that do not
    # depend on the grid
    for grid, (grid_phase, continuous, plateau) in per_grid.items():
        assert grid_phase <= 1 + (grid - 2).bit_length(), per_grid
        assert continuous <= 8, per_grid
        assert plateau <= 2, per_grid


def test_exact_profile_makes_a_fixed_number_of_exps_and_distance_calls(monkeypatch):
    # one grid pass: outside the two bisections, the exp_many and dist_many
    # calls of a profile do not grow with its grid
    sphere = Sphere(2, 1.0)
    calls = {"exp_many": 0, "dist_many": 0}
    bisecting = []
    for name in calls:
        method = getattr(sphere, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            if not bisecting:
                calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(sphere, name, counted)
    for name in ("estimate_nesting_onset", "estimate_full_width_end"):
        stage = getattr(lens_module, name)

        def apart(*args, _stage=stage, **kwargs):
            bisecting.append(True)
            try:
                return _stage(*args, **kwargs)
            finally:
                bisecting.pop()

        monkeypatch.setattr(lens_module, name, apart)
    counts = []
    for grid in (11, 41, 201):
        calls.update(dict.fromkeys(calls, 0))
        w_profile(BallPair.create(sphere, 1.2, 0.6), grid=grid, budget=512, seed=0)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == counts[2]
    assert counts[2]["exp_many"] <= 1
    assert counts[2]["dist_many"] <= 3


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
    candidates = lens_module._candidates_at

    def pushed(bp, ts, *args, **kwargs):
        c = candidates(bp, ts, *args, **kwargs)
        c.ends[0, 0] = bp.line.coords_at(float(c.ts[0]) - bp.r - 1e-6)
        return c

    bp = BallPair.create(Euclidean(2), 2.0, 1.0)
    w_profile(bp, grid=12, budget=512, seed=0)
    monkeypatch.setattr(lens_module, "_candidates_at", pushed)
    with pytest.raises(DefectError, match="row 0"):
        w_profile(bp, grid=12, budget=512, seed=0)


def test_witness_check_rejects_an_inflated_width(monkeypatch):
    widths = lens_module._exact_widths

    def inflated(*args, **kwargs):
        w, slack, wa, wb = widths(*args, **kwargs)
        return w + 1e-9, slack, wa, wb

    monkeypatch.setattr(lens_module, "_exact_widths", inflated)
    with pytest.raises(DefectError, match="row 0"):
        w_profile(BallPair.create(Sphere(2, 1.0), 1.2, 0.6), grid=12, budget=512, seed=0)


@pytest.mark.parametrize("R,r,grid", [(2.0, 1.8, 8), (1.9, 1.7, 8), (1.9, 1.7, 12), (1.6, 1.6, 12)])
def test_witness_check_near_the_antipode(R, r, grid):
    # beyond the convexity radius the witnesses come close to antipodal; the
    # check recomputes d(a, b) with dist_pairs, as the widths are computed,
    # where np.arcsin of a chord one ulp off would miss by about sqrt(eps)
    bp = BallPair.create(Sphere(2, 1.0), R, r, convexity_bound=math.inf)
    prof = w_profile(bp, grid=grid, budget=2048, seed=9)
    assert np.max(prof.w) > 3.0


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
        assert brute_width(Plane(), R, r, t) == pytest.approx(chord, abs=1e-5)
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
