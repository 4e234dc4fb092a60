"""Verification-suite orchestration: registry, gating, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from geolens import Euclidean, Hyperbolic, RevolutionProfile, Sphere, SurfaceOfRevolution
from geolens import lens as lens_module
from geolens import suite as suite_module
from geolens.config import ManifoldSpec, RunConfig
from geolens.errors import ConfigError, DefectError
from geolens.lens import BallPair
from geolens.suite import (
    CLAIM_REGISTRY,
    REPORT_ONLY,
    _concentric_limit,
    run_verification_suite,
)
from lens_clouds import concentric_cloud


@pytest.fixture(scope="module")
def euclid_report():
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="euclidean"),
        pairs=((1.0, 1.0), (2.0, 1.0)),
        grid=80,
        budget=1024,
        seed=9,
    )
    return cfg, run_verification_suite(cfg)


def test_registry_complete_and_unique(euclid_report):
    _, report = euclid_report
    ids = [e.claim_id for e in report.entries]
    assert sorted(ids) == sorted(CLAIM_REGISTRY)


def test_euclidean_matrix_passes(euclid_report):
    _, report = euclid_report
    assert report.passed
    for entry in report.entries:
        if entry.claim_id in REPORT_ONLY or entry.claim_id == "counterexample_large_balls":
            assert entry.status == "report"
        else:
            assert entry.status == "pass", entry.render()


def test_report_runs_are_deterministic(euclid_report):
    cfg, report = euclid_report
    again = run_verification_suite(cfg)
    assert report.to_text() == again.to_text()


def test_sphere_pair_passes():
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=((1.2, 0.6),),
        grid=80,
        budget=1024,
        seed=9,
    )
    report = run_verification_suite(cfg)
    assert report.passed


def test_nesting_claim_draws_above_onset_band():
    # verify_s2's pair at seed 204: the grid onset sits on a grid point 8e-3
    # below the fine onset, and a separation drawn just above it put the
    # lens corner 1.5e-5 outside D_r(gamma(s))
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=((1.2, 0.6),),
        grid=40,
        budget=4096,
        seed=204,
    )
    entry = {e.claim_id: e for e in run_verification_suite(cfg).entries}
    assert entry["nested_after_onset"].status == "pass", entry["nested_after_onset"].render()


SPHERE_PAIR = RunConfig(
    manifold=ManifoldSpec(kind="sphere", curvature=1.0),
    pairs=((1.2, 0.6),),
    grid=40,
    budget=1024,
    seed=9,
)


def test_cross_check_fails_on_a_deflated_exact_width(monkeypatch):
    # the clouds contain the candidates, so their sampled diameter exceeds a
    # width 1e-6 below the exact one
    entry = {e.claim_id: e for e in run_verification_suite(SPHERE_PAIR).entries}
    assert entry["sampled_width_matches_exact"].status == "pass"
    profile = suite_module.w_profile

    def deflated(*args, **kwargs):
        prof = profile(*args, **kwargs)
        return replace(prof, w=prof.w - 1e-6)

    monkeypatch.setattr(suite_module, "w_profile", deflated)
    entry = {e.claim_id: e for e in run_verification_suite(SPHERE_PAIR).entries}
    assert entry["sampled_width_matches_exact"].status == "fail"


def test_cross_check_reports_no_data_without_exact_widths(monkeypatch):
    monkeypatch.setattr(lens_module.BallPair, "exact", property(lambda self: False))
    cfg = replace(SPHERE_PAIR, grid=12, budget=256)
    entry = {e.claim_id: e for e in run_verification_suite(cfg).entries}
    for claim in ("sampled_width_matches_exact", "thresholds_match_leg"):
        cross = entry[claim]
        assert (cross.status, cross.summary) == ("report", "no admissible data")


def test_leg_claim_fails_on_a_plateau_end_shifted_by_twice_its_uncertainty(monkeypatch):
    entry = {e.claim_id: e for e in run_verification_suite(SPHERE_PAIR).entries}
    assert entry["thresholds_match_leg"].status == "pass"
    bisected = suite_module.bisected_thresholds

    def shifted(*args, **kwargs):
        onset, end = bisected(*args, **kwargs)
        return onset, replace(end, value=end.value + 2.0 * end.uncertainty)

    monkeypatch.setattr(suite_module, "bisected_thresholds", shifted)
    entry = {e.claim_id: e for e in run_verification_suite(SPHERE_PAIR).entries}
    assert entry["thresholds_match_leg"].status == "fail"


def test_every_gating_claim_gates(monkeypatch):
    # a claim that reads -1 fails the run unless it is report-only or the
    # counterexample, which a standard run marks not exercised
    for claim in list(CLAIM_REGISTRY):
        monkeypatch.setitem(CLAIM_REGISTRY, claim, lambda *args: -1.0)
    report = run_verification_suite(replace(SPHERE_PAIR, grid=12, budget=256))
    failed = {e.claim_id for e in report.entries if e.status == "fail"}
    assert failed == set(CLAIM_REGISTRY) - REPORT_ONLY - {"counterexample_large_balls"}
    assert not report.passed


def test_counterexample_checks_its_witnesses(monkeypatch):
    diameter = suite_module.lens_diameter

    def inflated(*args, **kwargs):
        res = diameter(*args, **kwargs)
        return replace(res, value=res.value + 1e-9)

    monkeypatch.setattr(suite_module, "lens_diameter", inflated)
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=((math.pi / 2, math.pi / 2),),
        budget=512,
        seed=9,
        expect_counterexample=True,
    )
    with pytest.raises(DefectError, match="pair"):
        run_verification_suite(cfg)


def test_radius_at_convexity_rejected():
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=((math.pi / 2, 0.5),),
        grid=40,
        budget=512,
        seed=9,
    )
    with pytest.raises(ConfigError):
        run_verification_suite(cfg)


def test_counterexample_passes_at_half_pi():
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=((math.pi / 2, math.pi / 2), (2.0, 1.8)),
        budget=2048,
        seed=9,
        expect_counterexample=True,
    )
    report = run_verification_suite(cfg)
    assert report.passed
    entry = {e.claim_id: e for e in report.entries}["counterexample_large_balls"]
    assert entry.status == "pass"
    assert all(abs(v - math.pi) <= 0.05 for v in entry.data.values())


@pytest.mark.parametrize(
    "pairs,budget", [(((1.9, 1.7), (1.6, 1.6)), 2048), (((1.8, 1.8), (1.7, 1.6)), 1024)]
)
def test_counterexample_witnesses_near_the_antipode(pairs, budget):
    # near pi the slope of arcsin reads a one-ulp chord difference as about
    # sqrt(eps): when the widths and the witness check took the chord from
    # two formulas, this raised a false DefectError
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=pairs,
        budget=budget,
        seed=9,
        expect_counterexample=True,
    )
    assert run_verification_suite(cfg).passed


def test_counterexample_requires_large_radii():
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=((1.0, 1.0),),
        budget=512,
        seed=9,
        expect_counterexample=True,
    )
    with pytest.raises(ConfigError):
        run_verification_suite(cfg)


@pytest.mark.parametrize(
    "spec",
    [
        ManifoldSpec(kind="euclidean"),
        ManifoldSpec(kind="hyperbolic", curvature=-1.0),
        ManifoldSpec(kind="surface_of_revolution"),
    ],
    ids=lambda spec: spec.kind,
)
def test_counterexample_needs_a_model_of_finite_convexity_radius(spec):
    # the scenario asks the model, not its class: neither a closed-form model
    # with an infinite convexity radius nor the numeric surface qualifies
    cfg = RunConfig(manifold=spec, pairs=((0.4, 0.3),), budget=512, seed=9, expect_counterexample=True)
    with pytest.raises(ConfigError, match="runs on a sphere model"):
        run_verification_suite(cfg)


def test_small_radii_pass_standard_suite_instead():
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=((1.0, 1.0),),
        grid=60,
        budget=1024,
        seed=9,
    )
    assert run_verification_suite(cfg).passed


def test_speculation_probe_is_report_only():
    # the probes run inside verify and never gate its result
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="euclidean"),
        pairs=((2.0, 1.0),),
        grid=60,
        budget=1024,
        seed=9,
    )
    report = run_verification_suite(cfg)
    assert report.passed
    probes = {e.claim_id: e for e in report.entries if e.claim_id in REPORT_ONLY}
    assert set(probes) == REPORT_ONLY
    assert all(e.status == "report" for e in probes.values())
    # the plateau-end probe became the gating leg claim
    gate = {e.claim_id: e for e in report.entries}["thresholds_match_leg"]
    assert gate.status == "pass" and gate.margin >= 0


SPHERE_PAIRS = RunConfig(
    manifold=ManifoldSpec(kind="sphere", curvature=1.0),
    pairs=((1.2, 0.6), (1.0, 1.0)),
    grid=8,
    budget=1024,
    seed=7,
)


def test_probe_entries_carry_every_pair_margin():
    # each probe reports the smallest margin over the pairs and keeps
    # every pair's own margin in its data
    entries = {e.claim_id: e for e in run_verification_suite(SPHERE_PAIRS).entries}
    for claim in REPORT_ONLY:
        entry = entries[claim]
        assert set(entry.data) == {"R=1.2,r=0.6", "R=1,r=1"}, claim
        assert entry.margin == min(entry.data.values())
        for key, value in entry.data.items():
            assert f"{key}:{value:.4g}" in entry.summary


def _per_ring_concentric_cloud(manifold, center, frame, radius, n_rings=16, n_ang=64):
    """The concentric cloud ring by ring, one ``exp_many`` per ring."""
    angles = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
    ca, sa = np.cos(angles)[:, None], np.sin(angles)[:, None]
    chunks = [center[None, :]]
    for i in range(1, n_rings + 1):
        rho = radius * i / n_rings
        chunks.append(manifold.exp_many(center, rho * (ca * frame[0] + sa * frame[1])))
    return np.vstack(chunks)


@pytest.mark.parametrize(
    "model",
    [
        Euclidean(2),
        Euclidean(3),
        Sphere(2, 1.0),
        Sphere(3, 2.0),
        Hyperbolic(2, -1.0),
        Hyperbolic(3, -0.5),
    ],
    ids=lambda m: m.describe(),
)
def test_concentric_cloud_has_the_bits_of_the_per_ring_cloud(model):
    center = model.basepoint().coords
    frame = model.tangent_basis(center)
    for radius in (0.48, 0.552, 0.9):
        cloud = concentric_cloud(model, center, frame, radius)
        reference = _per_ring_concentric_cloud(model, center, frame, radius)
        assert cloud.tobytes() == reference.tobytes()


# -- the monotone claim on the bounding circles ---------------------------------
# monotone_set_limits reads each ball on its bounding circle; the reference
# reads each ball over its whole polar cloud, the centre and all 16 rings


def _full_cloud_limit(manifold, center, frame, r):
    """The claim's margin and final gap over the full polar clouds."""
    l_base = 0.8 * r
    radii = [l_base + 0.12 * r / (2**k) for k in range(5)]
    clouds = [concentric_cloud(manifold, center, frame, radius) for radius in radii]
    gaps = [max(0.0, float(np.max(manifold.dist_many(center, c))) - l_base) for c in clouds]
    return float(1e-2 * max(1.0, r) - gaps[-1]), gaps[-1]


class _RowCounter:
    """A model whose ``exp_many`` and ``dist_many`` calls record their rows."""

    def __init__(self, model):
        self.model, self.exp_rows, self.dist_rows = model, [], []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def exp_many(self, base, tangents):
        self.exp_rows.append(len(tangents))
        return self.model.exp_many(base, tangents)

    def dist_many(self, x, points):
        self.dist_rows.append(len(points))
        return self.model.dist_many(x, points)


MONOTONE_PAIRS = [
    (Euclidean(2), 2.0, 1.0),
    (Sphere(2, 1.0), 1.2, 0.6),
    (Sphere(2, 1.0), 1.0, 1.0),
    (Sphere(3, 4.0), 0.6, 0.3),
    (Hyperbolic(2, -1.0), 2.0, 1.0),
    (Hyperbolic(3, -0.3), 2.0, 1.0),
    (SurfaceOfRevolution(RevolutionProfile.cosine_bump()), 0.05, 0.03),
]


@pytest.mark.parametrize(
    "model, R, r", MONOTONE_PAIRS, ids=[f"{m.describe()}-{R}-{r}" for m, R, r in MONOTONE_PAIRS]
)
def test_monotone_claim_has_the_bits_of_the_full_clouds(model, R, r):
    bp = BallPair.create(model, R, r, convexity_bound=math.inf)
    center, frame = bp.center_big(), bp.frame_big()
    counter = _RowCounter(model)
    margin, gap = _concentric_limit(counter, center, frame, r)
    ref_margin, ref_gap = _full_cloud_limit(model, center, frame, r)
    assert (repr(margin), repr(gap)) == (repr(ref_margin), repr(ref_gap))
    assert f"{gap:.4g}" == f"{ref_gap:.4g}"  # the note
    # five balls of 64 circle points, in one call each
    assert (counter.exp_rows, counter.dist_rows) == ([5 * 64], [5 * 64])


def test_suite_monotone_entry_is_the_full_cloud_reading(euclid_report):
    cfg, report = euclid_report
    entry = next(e for e in report.entries if e.claim_id == "monotone_set_limits")
    model = cfg.manifold.build()
    for R, r in cfg.pairs:
        bp = BallPair.create(model, R, r)
        margin, gap = _full_cloud_limit(model, bp.center_big(), bp.frame_big(), r)
        key = f"R={R:g},r={r:g}"
        assert repr(entry.data[key]) == repr(margin)
        assert f"{key}: final Hausdorff gap {gap:.4g}" in entry.summary
