"""Acceptance suite: one test per criterion, at pinned tolerances.

Profiles are computed once per configuration and shared across criteria.
Every configuration here is a convex closed-form pair, so its widths are
exact (slack ``EXACT_SLACK``, far below the 0.02 that criterion 1 allows a
sampled width); the budget still sets the clouds of the sampled
cross-checks.  Each test prints a one-line pass summary (visible with
pytest -s; the -v test line itself is the per-criterion pass/fail record).
"""

import math

import numpy as np
import pytest

from geolens import (
    BallPair,
    Euclidean,
    Hyperbolic,
    Sphere,
    closed_form_radii,
    conjugate_radius,
    focal_radius,
    lens_diameter,
    sample_intersection,
    w_profile,
)
from geolens.cli import main
from geolens.config import ManifoldSpec, RunConfig
from geolens.lens import estimate_nesting_onset
from geolens.sets import hausdorff
from geolens.suite import REPORT_ONLY, run_counterexample, run_speculation_probe

GRID = 200
PROFILE_BUDGET = 30000
SEED = 2024

CONFIGS = [
    ("euclidean", 1.0, 1.0),
    ("euclidean", 2.0, 1.0),
    ("euclidean", 1.2, 0.6),
    ("sphere", 1.0, 1.0),
    ("sphere", 1.2, 0.6),  # (2, 1) is inadmissible: R >= Conv = pi/2
    ("hyperbolic", 1.0, 1.0),
    ("hyperbolic", 2.0, 1.0),
    ("hyperbolic", 1.2, 0.6),
]


def _manifold(kind):
    if kind == "euclidean":
        return Euclidean(2)
    if kind == "sphere":
        return Sphere(2, 1.0)
    return Hyperbolic(2, -1.0)


@pytest.fixture(scope="module")
def profiles():
    out = {}
    for kind, R, r in CONFIGS:
        bp = BallPair.create(_manifold(kind), R, r)
        out[(kind, R, r)] = (bp, w_profile(bp, grid=GRID, budget=PROFILE_BUDGET, seed=SEED))
    return out


@pytest.fixture(scope="module")
def fine_onsets():
    out = {}
    for kind, R, r in CONFIGS:
        bp = BallPair.create(_manifold(kind), R, r)
        span = R + r
        n_grid = int(round(span / (1e-3 * span))) + 1
        out[(kind, R, r)] = estimate_nesting_onset(
            bp, n_grid=n_grid, budget=512, seed=SEED
        )
    return out


def test_criterion_01_full_width_plateau(profiles):
    worst = 0.0
    for (kind, R, r), (bp, prof) in profiles.items():
        plateau = prof.ts <= R - r + 1e-12
        slack = prof.slack[plateau]
        assert np.all(slack <= 0.02), f"{kind} ({R},{r}): slack {slack.max():.4f} > 0.02"
        dev = np.abs(prof.w[plateau] - 2 * r)
        assert np.all(dev <= slack), f"{kind} ({R},{r}): plateau deviation {dev.max():.2e}"
        worst = max(worst, float(dev.max()))
    print(f"[PASS] criterion 1: plateau width = 2r within <=0.02 slack "
          f"(worst deviation {worst:.2e})")


def test_criterion_02_onset_bounds(fine_onsets):
    for (kind, R, r), est in fine_onsets.items():
        h = est.uncertainty
        assert h == pytest.approx(1e-3 * (R + r), rel=1e-6)
        if R == r:
            assert est.value <= h, f"{kind} ({R},{r}): T_est {est.value:.4f} > h"
        else:
            assert R - r - h <= est.value, f"{kind} ({R},{r}): T_est below R-r-h"
        assert est.value <= R, f"{kind} ({R},{r}): T_est {est.value:.4f} above R"
    print("[PASS] criterion 2: R - r - h <= T_est <= R on all configurations "
          "(T_est <= h when R = r)")


def test_criterion_03_width_exceeds_axis_chord(profiles):
    worst_strict = math.inf
    for (kind, R, r), (bp, prof) in profiles.items():
        span = R + r
        inside = (prof.ts > R - r + 1e-12) & (prof.ts < span - 1e-12)
        excess = prof.w[inside] - (span - prof.ts[inside])
        assert np.all(excess >= -prof.slack[inside]), f"{kind} ({R},{r})"
        interior = inside & (span - prof.ts >= 0.1)
        strict = prof.w[interior] - (span - prof.ts[interior])
        assert np.all(strict > 0), f"{kind} ({R},{r}): no strict margin"
        worst_strict = min(worst_strict, float(strict.min()))
    print(f"[PASS] criterion 3: w(t) > R + r - t on the open range "
          f"(smallest strict margin {worst_strict:.4f})")


def test_criterion_04_monotone_and_continuity(profiles):
    rng = np.random.default_rng(SEED)
    for (kind, R, r), (bp, prof) in profiles.items():
        span = R + r
        ts, w = prof.ts, prof.w
        h = ts[1] - ts[0]
        tail = np.where(ts >= prof.nesting_onset.value + h - 1e-12)[0]
        diffs = np.diff(w[tail])
        assert np.all(diffs <= 1e-7), f"{kind} ({R},{r}): increase {diffs.max():.2e}"
        gap = max(1, int(round(0.05 * span / h)))
        strict = [w[i] - w[i + gap] for i in tail if i + gap < len(ts)]
        assert min(strict) > 0, f"{kind} ({R},{r}): no strict decrease at 0.05 span"
        # continuity modulus against the sampled Hausdorff distance
        for _ in range(50):
            i, j = sorted(rng.integers(0, GRID, size=2))
            if i == j:
                continue
            cs = sample_intersection(bp.with_separation(float(ts[i])), 1024, SEED)
            ct = sample_intersection(bp.with_separation(float(ts[j])), 1024, SEED)
            bound = 2.0 * hausdorff(cs, ct) + 4.0 * (cs.fill_radius + ct.fill_radius)
            assert abs(w[i] - w[j]) <= bound, f"{kind} ({R},{r}) at ({ts[i]:.3f},{ts[j]:.3f})"
    print("[PASS] criterion 4: w strictly decreasing past the onset; "
          "|w(s)-w(t)| <= 2 H(lens(s),lens(t)) + slack on 50 random pairs per config")


def _brute_force_width(R, r, t, n=3000):
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    big = np.column_stack([R * np.cos(ang), R * np.sin(ang)])
    small = np.column_stack([t + r * np.cos(ang), r * np.sin(ang)])
    pts = [
        big[np.hypot(big[:, 0] - t, big[:, 1]) <= r + 1e-12],
        small[np.hypot(small[:, 0], small[:, 1]) <= R + 1e-12],
    ]
    if abs(R - r) <= t <= R + r and t > 0:
        a = (t * t + R * R - r * r) / (2.0 * t)
        if R * R >= a * a:
            h = math.sqrt(R * R - a * a)
            pts.append(np.array([[a, h], [a, -h]]))
    pts = np.vstack([p for p in pts if len(p)])
    if len(pts) < 2:
        return 0.0
    best = 0.0
    for i in range(len(pts) - 1):
        d = np.hypot(pts[i + 1 :, 0] - pts[i, 0], pts[i + 1 :, 1] - pts[i, 1])
        best = max(best, float(d.max()))
    return best


def test_criterion_05_euclidean_closed_form_oracle(profiles):
    R, r = 2.0, 1.0
    _, prof = profiles[("euclidean", R, r)]
    s_break = math.sqrt(R * R - r * r)
    worst = 0.0
    for t, w in zip(prof.ts, prof.w):
        oracle = _brute_force_width(R, r, float(t))
        assert abs(w - oracle) <= 5e-3, f"t={t:.4f}: w={w:.6f} oracle={oracle:.6f}"
        worst = max(worst, abs(w - oracle))
        if t <= s_break:
            closed = 2.0 * r
        elif t < R + r:
            a = (t * t + R * R - r * r) / (2.0 * t)
            closed = 2.0 * math.sqrt(max(R * R - a * a, 0.0))
        else:
            closed = 0.0
        if abs(oracle - closed) <= 1e-4:  # oracle confirms the candidate form
            assert abs(w - closed) <= 1e-9
    assert prof.full_width_end.value == pytest.approx(s_break, abs=1e-3)
    print(f"[PASS] criterion 5: 200-point grid matches the brute-force oracle "
          f"(worst {worst:.2e}); S_est = sqrt(3) +- 1e-3")


def test_criterion_06_counterexample_diameter_pi():
    config = RunConfig(
        manifold=ManifoldSpec(kind="sphere", curvature=1.0),
        pairs=((math.pi / 2, math.pi / 2), (2.0, 1.8)),
        budget=6000,
        seed=SEED,
        expect_counterexample=True,
    )
    report = run_counterexample(config)
    entry = {e.claim_id: e for e in report.entries}["counterexample_large_balls"]
    assert entry.status == "pass"
    assert all(abs(v - math.pi) <= 0.05 for v in entry.data.values())
    # the spec example separation for the (2.0, 1.8) pair
    s = Sphere(2, 1.0)
    bp = BallPair.create(s, 2.0, 1.8, t=1.0, convexity_bound=math.inf, enforce_convexity=False)
    res = lens_diameter(bp, budget=6000, seed=SEED)
    assert res.value == pytest.approx(math.pi, abs=0.05)
    print("[PASS] criterion 6: large-ball sphere overlaps have diameter pi +- 0.05 "
          "at every tested separation")


def test_criterion_07_radii_identities():
    for model in [Euclidean(2), Sphere(2, 1.0), Hyperbolic(2, -1.0)]:
        report = closed_form_radii(model)
        for name, res in report.identity_residuals().items():
            assert not math.isnan(res) and res <= 1e-6, f"{model.kind} {name}"
    foc = focal_radius(Sphere(2, 1.0), directions=1)
    conj = conjugate_radius(Sphere(2, 1.0), directions=1)
    assert foc.value == pytest.approx(math.pi / 2, abs=1e-6)
    assert conj.value == pytest.approx(math.pi, abs=1e-6)
    print(f"[PASS] criterion 7: radii identities hold to 1e-6; unit-sphere Jacobi "
          f"focal {foc.value:.9f}, conjugate {conj.value:.9f}")


def test_criterion_08_nesting_after_onset(profiles, fine_onsets):
    for (kind, R, r), (bp, prof) in profiles.items():
        onset = fine_onsets[(kind, R, r)].value
        span = R + r
        rng = np.random.default_rng(SEED + 1)
        for _ in range(20):
            s, t = np.sort(rng.uniform(onset, span, size=2))
            if t - s < 1e-9:
                continue
            cloud = sample_intersection(bp.with_separation(float(t)), 1024, SEED)
            d = bp.manifold.dist_many(bp.line.coords_at(float(s)), cloud.points)
            margin = r - float(np.max(d))
            assert margin >= -1e-6, f"{kind} ({R},{r}): margin {margin:.2e}"
    print("[PASS] criterion 8: lens(t) samples stay in the r-ball at every "
          "earlier separation past the onset (margin >= -1e-6, 20 pairs/config)")


def test_criterion_09_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[manifold]\nkind = sphere\ncurvature = 1.0\n\n"
        "[lens]\nR = 1.2\nr = 0.6\n\n"
        "[run]\ngrid = 60\nbudget = 2048\nseed = 31\n"
    )
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["profile", "--config", str(cfg), "--out", out1]) == 0
    assert main(["profile", "--config", str(cfg), "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    print("[PASS] criterion 9: identical config and seed give byte-identical CSV")


def test_criterion_10_speculation_probe(profiles):
    for (kind, R, r), (bp, prof) in profiles.items():
        span = R + r
        h = prof.ts[1] - prof.ts[0]
        assert abs(prof.full_width_end.value - prof.nesting_onset.value) <= 2 * h, (
            f"{kind} ({R},{r})"
        )
        sel = np.where(prof.ts >= prof.nesting_onset.value - 1e-12)[0]
        w = prof.w[sel]
        second = w[2:] - 2 * w[1:-1] + w[:-2]
        assert np.all(second <= 1e-5 * span), f"{kind} ({R},{r}): {second.max():.2e}"
    config = RunConfig(
        manifold=ManifoldSpec(kind="euclidean"),
        pairs=((2.0, 1.0),),
        grid=60,
        budget=1024,
        seed=SEED,
    )
    report = run_speculation_probe(config)
    assert report.passed  # report-only entries can never gate
    assert all(e.status == "report" for e in report.entries)
    assert {e.claim_id for e in report.entries} >= REPORT_ONLY
    print("[PASS] criterion 10: |S_est - T_est| <= 2h and concave second "
          "differences on all constant-curvature configs; probe is report-only")
