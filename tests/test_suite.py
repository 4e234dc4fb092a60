"""Verification-suite orchestration: registry, gating, determinism."""

import math
from dataclasses import replace

import pytest

from geolens import lens as lens_module
from geolens import suite as suite_module
from geolens.config import ManifoldSpec, RunConfig
from geolens.errors import ConfigError, DefectError
from geolens.suite import (
    CLAIM_REGISTRY,
    REPORT_ONLY,
    run_counterexample,
    run_speculation_probe,
    run_verification_suite,
)


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
    cross = entry["sampled_width_matches_exact"]
    assert (cross.status, cross.summary) == ("report", "no admissible data")


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
        run_counterexample(cfg)


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
    report = run_counterexample(cfg)
    assert report.passed
    entry = {e.claim_id: e for e in report.entries}["counterexample_large_balls"]
    assert entry.status == "pass"
    assert all(abs(v - math.pi) <= 0.05 for v in entry.data.values())


def test_counterexample_requires_large_radii():
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=((1.0, 1.0),),
        budget=512,
        seed=9,
        expect_counterexample=True,
    )
    with pytest.raises(ConfigError):
        run_counterexample(cfg)


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
    cfg = RunConfig(
        manifold=ManifoldSpec(kind="euclidean"),
        pairs=((2.0, 1.0),),
        grid=60,
        budget=1024,
        seed=9,
    )
    report = run_speculation_probe(cfg)
    assert report.passed
    assert all(e.status == "report" for e in report.entries)
    probe = {e.claim_id: e for e in report.entries}["probe_plateau_end_matches_onset"]
    assert probe.margin is not None and probe.margin >= 0


def test_probe_rejects_numeric_manifold():
    cfg = RunConfig(
        manifold=ManifoldSpec(
            kind="surface_of_revolution", injectivity_bound=1.0
        ),
        pairs=((0.3, 0.2),),
        seed=9,
    )
    with pytest.raises(ConfigError):
        run_speculation_probe(cfg)
