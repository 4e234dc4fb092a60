"""Orchestrated verification runs binding each width-profile property to a
pass/fail/report entry with observed margins.

Entries with status "report" never gate a run: they cover the exploratory
probes (plateau-end versus nesting-onset agreement, discrete concavity,
derivative continuity) and, in standard runs, the large-ball counterexample
scenario, which has its own runner.

Three claims test the paper's continuity argument, |w(s) - w(t)| <=
2 H(L_s, L_t) for the lenses at separations s and t: on 25 grid pairs
ending at a random anchor (``width_left_continuous``), 25 starting at one
(``width_right_continuous``) and 15 random ones, as pass or fail
(``diameter_hausdorff_lipschitz``).  On an exact pair (``BallPair.exact``)
all three read the exact w and H (``lens.lens_gaps``).  Elsewhere the two
continuity claims read H on sampled lens clouds, with a fill-radius slack,
and the random pairs test the inequality on the clouds' own diameters
(``sets.diameter_lipschitz_check``).  ``monotone_set_limits`` reads the gap
of each of five shrinking concentric balls to their limit on the ball's
bounding circle: the gap is the largest distance to the centre less the
limit's radius, and that maximum lies on the ball's boundary.

``sampled_width_matches_exact`` is the labelled cross-check of the exact
widths of convex closed-form pairs against the diameters of sampled clouds,
the only clouds an exact pair draws; where no width is exact it reports no
admissible data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from geolens.config import RunConfig, convexity_bound_for
from geolens.errors import ConfigError, NestingError
from geolens.lens import (
    EXACT_SLACK,
    BallPair,
    _circles,
    _nesting_scan,
    _sample_lenses,
    check_witnesses,
    estimate_nesting_onset,
    lens_diameter,
    lens_gaps,
    w_profile,
)
from geolens.radii import jacobi_radii, radii_report
from geolens.sets import diameter, diameter_lipschitz_check, hausdorff

# worst residual of the radii identities and of the Jacobi scans against
# the closed forms that the radii claim admits
RADII_TOL = 1e-6
# rise between consecutive grid widths that still counts as a decrease
MONOTONE_SLACK = 1e-7
# grid of the fine nesting-onset estimate that bounds the onset claims: a
# step of 1e-3 of the span R + r
FINE_ONSET_GRID = 1001

PASS = "pass"
FAIL = "fail"
REPORT = "report"

CLAIM_REGISTRY = [
    "full_width_plateau",
    "onset_not_before_gap",
    "onset_before_big_radius",
    "width_above_axis_chord",
    "width_left_continuous",
    "width_right_continuous",
    "width_strictly_decreasing",
    "nested_after_onset",
    "diameter_hausdorff_lipschitz",
    "sampled_width_matches_exact",
    "monotone_set_limits",
    "convexity_radius_identity",
    "counterexample_large_balls",
    "probe_plateau_end_matches_onset",
    "probe_concavity",
    "probe_derivative_continuity",
]

REPORT_ONLY = {
    "probe_plateau_end_matches_onset",
    "probe_concavity",
    "probe_derivative_continuity",
}


@dataclass
class ClaimResult:
    claim_id: str
    status: str
    margin: float | None = None
    summary: str = ""
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        margin = "" if self.margin is None else f" margin={self.margin:.6g}"
        return f"[{self.status.upper():6s}] {self.claim_id}{margin}  {self.summary}"


@dataclass
class VerificationReport:
    manifold_label: str
    config_lines: list
    entries: list

    def __post_init__(self):
        ids = [e.claim_id for e in self.entries]
        missing = [c for c in CLAIM_REGISTRY if c not in ids]
        extra = [c for c in ids if c not in CLAIM_REGISTRY]
        if missing or extra or len(ids) != len(set(ids)):
            raise ValueError(f"claim registry mismatch (missing={missing}, extra={extra})")

    @property
    def passed(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    def to_text(self) -> str:
        lines = [f"verification report for {self.manifold_label}"]
        lines += [f"  {line}" for line in self.config_lines]
        lines.append("")
        order = {c: i for i, c in enumerate(CLAIM_REGISTRY)}
        for entry in sorted(self.entries, key=lambda e: order[e.claim_id]):
            lines.append(entry.render())
        lines.append("")
        lines.append("RESULT: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        out = []
        order = {c: i for i, c in enumerate(CLAIM_REGISTRY)}
        for entry in sorted(self.entries, key=lambda e: order[e.claim_id]):
            rec = {
                "claim": entry.claim_id,
                "status": entry.status,
                "margin": "" if entry.margin is None else f"{entry.margin:.12g}",
                "summary": entry.summary,
            }
            out.append(rec)
        return out


def _pair_key(R, r):
    return f"R={R:g},r={r:g}"


def _concentric_limit(manifold, center, frame, r):
    """Margin and final gap of ``monotone_set_limits``: the balls
    D_{l + delta_k}(center), delta_k = 0.12 r / 2^k for k < 5, shrink to
    D_l, l = 0.8 r; a gap that grows (a ball reaching past its predecessor)
    raises ``NestingError``.

    In a geodesic space d(x, D_l(c)) = max(0, d(x, c) - l), so a ball's gap
    is its largest d(x, c) less l, which lies on its bounding circle: on
    the polar cloud of the tests' reference (16 rings of these 64 angles)
    the next ring in sits radius/16 lower, far more than any rounding.  All
    five circles go through one ``_circles`` call and one ``dist_many``.
    """
    n_balls, n_ang = 5, 64
    l_base = 0.8 * r
    radii = [l_base + 0.12 * r / (2**k) for k in range(n_balls)]
    rims = _circles(manifold, center, frame, radii, [n_ang] * n_balls, np.zeros(n_balls))
    far = manifold.dist_many(center, rims).reshape(n_balls, n_ang).max(axis=1)
    gaps = [max(0.0, float(d) - l_base) for d in far]
    if np.any(np.diff(gaps) > 1e-9):
        raise NestingError(f"concentric balls not nested: gaps {gaps} to radius {l_base:g}")
    return float(1e-2 * max(1.0, r) - gaps[-1]), gaps[-1]


def _claim_entry(claim: str, results: dict[str, float], notes: list) -> ClaimResult:
    """One claim's entry: its smallest margin over the pairs, gating unless
    the claim is report-only, with the first notes and every pair's margin."""
    if not results:
        return ClaimResult(claim, REPORT, None, "no admissible data")
    margin = min(results.values())
    status = REPORT if claim in REPORT_ONLY else (PASS if margin >= 0 else FAIL)
    detail = "; ".join(notes[:3])
    per_pair = " ".join(f"{k}:{v:.4g}" for k, v in sorted(results.items()))
    summary = (detail + ("  " if detail else "") + per_pair).strip()
    return ClaimResult(claim, status, margin, summary, dict(results))


def run_verification_suite(config: RunConfig) -> VerificationReport:
    """Run every claim on the configured manifold and radius matrix.

    Per pair, the probe claims (the continuity moduli, nesting after the
    onset, the diameter-Hausdorff check and the exact-width cross-check)
    first draw every probe separation from their seeded rngs.  An exact
    pair reads the Lipschitz-type claims off one ``lens_gaps`` call and
    draws clouds for the cross-check rows alone; elsewhere the clouds of
    the Lipschitz-type rows come from one sampling pass (``_sample_lenses``)
    at the probe budget.  Nesting reads the points of ``_nesting_scan``:
    the far points of an exact pair, else the sampled clouds.
    """
    manifold = config.manifold.build()
    conv = convexity_bound_for(config, manifold)
    for R, r in config.pairs:
        if not (0 < r <= R < conv):
            raise ConfigError(
                f"pair ({R:g}, {r:g}) violates 0 < r <= R < convexity radius {conv:g}"
            )
    per_claim: dict[str, dict[str, float]] = {c: {} for c in CLAIM_REGISTRY}
    notes: dict[str, list] = {c: [] for c in CLAIM_REGISTRY}

    for R, r in config.pairs:
        key = _pair_key(R, r)
        bp = BallPair.create(manifold, R, r, convexity_bound=conv)
        profile = w_profile(bp, grid=config.grid, budget=config.budget, seed=config.seed)
        ts, w, slack = profile.ts, profile.w, profile.slack
        span = R + r
        h = ts[1] - ts[0]
        onset = profile.nesting_onset.value

        # plateau: w = 2r up to the radius gap
        plateau = ts <= R - r + 1e-12
        if np.any(plateau):
            dev = np.abs(w[plateau] - 2 * r)
            per_claim["full_width_plateau"][key] = float(np.min(slack[plateau] - dev))
        else:
            per_claim["full_width_plateau"][key] = 0.0

        # onset bounds
        fine = estimate_nesting_onset(
            bp,
            n_grid=FINE_ONSET_GRID,
            budget=max(256, config.budget // 8),
            seed=config.seed,
        )
        h_fine = fine.uncertainty
        if abs(R - r) < 1e-12:
            per_claim["onset_not_before_gap"][key] = float(h_fine - fine.value)
            notes["onset_not_before_gap"].append(f"{key}: equality regime, T_est={fine.value:.3g}")
        else:
            per_claim["onset_not_before_gap"][key] = float(fine.value - (R - r - h_fine))
        per_claim["onset_before_big_radius"][key] = float(R - fine.value)

        # width exceeds the leftover axis chord strictly inside the moving range
        inside = (ts > R - r + 1e-12) & (ts < span - 1e-12)
        if np.any(inside):
            excess = w[inside] - (span - ts[inside])
            per_claim["width_above_axis_chord"][key] = float(np.min(excess + slack[inside]))
            interior = inside & (span - ts >= 0.1)
            if np.any(interior):
                strict = float(np.min((w - (span - ts))[interior]))
                notes["width_above_axis_chord"].append(f"{key}: strict margin {strict:.4g}")
                per_claim["width_above_axis_chord"][key] = min(
                    per_claim["width_above_axis_chord"][key], strict
                )
        else:
            per_claim["width_above_axis_chord"][key] = 0.0

        # strict decrease past the onset
        tail = ts >= onset + h - 1e-12
        idx = np.where(tail)[0]
        mono = min(
            (w[i] - w[j] + MONOTONE_SLACK for i, j in zip(idx[:-1], idx[1:])),
            default=0.0,
        )
        gap = max(1, int(round(0.05 * span / h)))
        strict_pairs = [
            w[i] - w[i + gap] for i in idx if i + gap < len(ts)
        ]
        strict_min = min(strict_pairs) if strict_pairs else 0.0
        per_claim["width_strictly_decreasing"][key] = float(min(mono, strict_min))
        notes["width_strictly_decreasing"].append(
            f"{key}: min decrease over {gap * h:.3g}-separated pairs = {strict_min:.4g}"
        )

        # the probe separations of the claims below, each drawn from its own
        # rng; the clouds they read then come from one sampling pass
        probe_budget = max(512, config.budget // 4)
        n_mod = 25
        rng = np.random.default_rng([config.seed, 17])
        anchors = rng.integers(1, len(ts), size=n_mod)
        gaps = rng.integers(1, 6, size=n_mod)
        left_pairs = [(max(0, a - g), a) for a, g in zip(anchors, gaps)]
        anchors = rng.integers(0, len(ts) - 1, size=n_mod)
        gaps = rng.integers(1, 6, size=n_mod)
        right_pairs = [(a, min(len(ts) - 1, a + g)) for a, g in zip(anchors, gaps)]
        # the bisected onset lands on or below the first fully nesting grid
        # point, so it can sit up to its uncertainty below the true onset:
        # draw s from above that band
        nest_rng = np.random.default_rng([config.seed, 23])
        nest_lo = fine.value + fine.uncertainty
        nest_pairs = [np.sort(nest_rng.uniform(nest_lo, span, size=2)) for _ in range(20)]
        nest_pairs = [(s, t) for s, t in nest_pairs if t - s >= 1e-9]
        lip_rng = np.random.default_rng([config.seed, 29])
        lip_pairs = [lip_rng.integers(0, len(ts), size=2) for _ in range(15)]
        if bp.exact:
            cross_rng = np.random.default_rng([config.seed, 31])
            cross_rows = cross_rng.choice(len(ts), size=min(3, len(ts)), replace=False)
            rows = cross_rows
        else:
            rows = {int(i) for pairs in (left_pairs, right_pairs, lip_pairs) for p in pairs for i in p}
        probe_ts = sorted({float(ts[i]) for i in rows})
        clouds = dict(zip(probe_ts, _sample_lenses(bp, probe_ts, probe_budget, config.seed)))

        # the diameter is 2-Lipschitz in the Hausdorff distance: |w(s) - w(t)|
        # <= 2 H(L_s, L_t) + slack, exact on an exact pair; elsewhere H is
        # read on the boundary clouds, each cloud's fill radius bounding its
        # gaps, and the random pairs test the clouds' own diameters
        if bp.exact:
            i, j = np.array(left_pairs + right_pairs + lip_pairs).T
            lipschitz = 2.0 * lens_gaps(bp, ts[i], ts[j]) + slack[i] + slack[j] - np.abs(w[i] - w[j])
            left, right, lip = np.split(lipschitz, [n_mod, 2 * n_mod])
            lip_ok = bool(np.all(lip >= 0.0))
        else:
            i, j = np.array(left_pairs + right_pairs).T
            cs, ct = ([clouds[float(u)] for u in ts[k]] for k in (i, j))
            dh = np.array([hausdorff(a, b) for a, b in zip(cs, ct)])
            pair_slack = 4.0 * np.array([a.fill_radius + b.fill_radius for a, b in zip(cs, ct)])
            left, right = np.split(2.0 * dh + pair_slack - np.abs(w[i] - w[j]), [n_mod])
            lip_ok = all(diameter_lipschitz_check(*(clouds[float(ts[k])] for k in p)) for p in lip_pairs)
        per_claim["width_left_continuous"][key] = float(np.min(left))
        per_claim["width_right_continuous"][key] = float(np.min(right))
        per_claim["diameter_hausdorff_lipschitz"][key] = 1.0 if lip_ok else -1.0

        # definitional nesting after the onset: every point of the lens at t
        # within r of gamma(s), read on the points of the nesting scan (the
        # far points of an exact pair, else the sampled cloud)
        nest_s, nest_t = np.array(nest_pairs).reshape(-1, 2).T
        points, owners = _nesting_scan(bp, nest_t, probe_budget, config.seed)
        d = manifold.dist_pairs(bp.line.coords_many(nest_s)[owners], points)
        farthest = np.full(len(nest_t), -np.inf)
        np.maximum.at(farthest, owners, d)
        per_claim["nested_after_onset"][key] = float(np.min(r + 1e-6 - farthest, initial=math.inf))

        # labelled cross-check of the exact widths against sampled clouds:
        # sampled <= exact + EXACT_SLACK and exact - sampled <= 2 * fill
        if bp.exact:
            worst, excess = math.inf, -math.inf
            for i in cross_rows:
                cloud = clouds[float(ts[i])]
                sampled = diameter(cloud)
                excess = max(excess, sampled - w[i])
                worst = min(
                    worst,
                    w[i] + EXACT_SLACK - sampled,
                    2.0 * cloud.fill_radius - (w[i] - sampled),
                )
            per_claim["sampled_width_matches_exact"][key] = float(worst)
            notes["sampled_width_matches_exact"].append(
                f"{key}: largest sampled excess {excess:.3g}"
            )

        # shrinking concentric balls D_{l+delta_k} converge to D_l, each
        # ball's gap read on its bounding circle
        margin, gap_final = _concentric_limit(manifold, bp.center_big(), bp.frame_big(), r)
        per_claim["monotone_set_limits"][key] = margin
        notes["monotone_set_limits"].append(f"{key}: final Hausdorff gap {gap_final:.4g}")

        # the report-only probes, read off the profile alone: plateau end
        # against the onset, discrete concavity past the onset and the
        # one-sided slopes at it
        s_end = profile.full_width_end.value
        per_claim["probe_plateau_end_matches_onset"][key] = float(2 * h - abs(s_end - onset))
        ii = np.where((ts >= onset - 1e-12) & (ts <= span + 1e-12))[0]
        if len(ii) >= 3:
            second = w[ii][2:] - 2 * w[ii][1:-1] + w[ii][:-2]
            per_claim["probe_concavity"][key] = float(1e-4 - np.max(second))
            notes["probe_concavity"].append(f"{key}: max second difference {np.max(second):.3g}")
        else:
            per_claim["probe_concavity"][key] = 0.0
        k = int(np.searchsorted(ts, onset))
        if 1 <= k < len(ts) - 1:
            jump = abs((w[k + 1] - w[k]) / h - (w[k] - w[k - 1]) / h)
            per_claim["probe_derivative_continuity"][key] = float(-jump)
            notes["probe_derivative_continuity"].append(f"{key}: one-sided slope jump {jump:.4g}")
        else:
            per_claim["probe_derivative_continuity"][key] = 0.0

    # radii identity (manifold-level, not per-pair)
    report = radii_report(
        manifold,
        certified_injectivity=config.manifold.injectivity_bound,
        certified_loop_length=config.manifold.loop_length,
        base_points=4,
        directions=16,
    )
    residuals = [v for v in report.identity_residuals().values() if not math.isnan(v)]
    radii_margin = RADII_TOL - max(residuals) if residuals else RADII_TOL
    exact = (report.conjugate, report.focal)
    if manifold.closed_form and any(math.isfinite(e.value) for e in exact):
        # the Jacobi scans against the closed forms, where they are finite
        for found, e in zip(jacobi_radii(manifold, directions=1), exact):
            if math.isfinite(e.value):
                radii_margin = min(radii_margin, RADII_TOL - abs(found.value - e.value))
    per_claim["convexity_radius_identity"]["model"] = float(radii_margin)

    entries = []
    for claim in CLAIM_REGISTRY:
        if claim == "counterexample_large_balls":
            entries.append(
                ClaimResult(
                    claim,
                    REPORT,
                    None,
                    "hypothesis satisfied; scenario not exercised in this run",
                )
            )
            continue
        entries.append(_claim_entry(claim, per_claim[claim], notes[claim]))

    return VerificationReport(manifold.describe(), config.resolved_lines(), entries)


def run_counterexample(config: RunConfig) -> VerificationReport:
    """Large-ball scenario on the sphere: the overlap keeps full diameter.

    With both radii at or above the convexity radius, the sampled overlap
    diameter stays at the model diameter pi / sqrt(k) for every separation,
    so the width profile is not eventually decreasing.  Every width's
    witnesses are checked (``check_witnesses``).  Gates only on the
    counterexample entry; the standard claims are marked not-run.
    """
    manifold = config.manifold.build()
    conv = manifold.convexity_radius() if manifold.closed_form else math.inf
    if not math.isfinite(conv):
        raise ConfigError("the counterexample scenario runs on a sphere model")
    for R, r in config.pairs:
        if r < conv - 1e-12:
            raise ConfigError(
                f"counterexample needs both radii >= the convexity radius {conv:g}"
            )
    # the model diameter, twice the convexity radius (scaling by 2 is exact)
    target = 2.0 * conv
    worst = math.inf
    observed = []
    for R, r in config.pairs:
        bp = BallPair.create(manifold, R, r, convexity_bound=math.inf)
        t_hi = min(R + r, 0.8 * target)
        ts = np.linspace(0.25 * t_hi, t_hi, 4)
        rows = [lens_diameter(bp.with_separation(float(t)), config.budget, config.seed) for t in ts]
        check_witnesses(
            bp, ts, np.array([res.value for res in rows]),
            np.array([res.witness_a for res in rows]), np.array([res.witness_b for res in rows]),
            label=lambda i: f"pair ({R:g}, {r:g}) at t={ts[i]!r}",
        )
        for t, res in zip(ts, rows):
            observed.append((R, r, float(t), res.value))
            worst = min(worst, 0.05 - abs(res.value - target))
    spread = max(v for *_ , v in observed) - min(v for *_, v in observed)
    not_decreasing = 0.05 - spread
    margin = min(worst, not_decreasing)
    summary = (
        f"overlap diameter stays at {target:.4f} (max deviation "
        f"{max(abs(v - target) for *_, v in observed):.4g}); width profile is flat, "
        "not eventually decreasing"
    )
    entries = [
        ClaimResult(
            c,
            REPORT,
            None,
            "not run: convexity hypothesis deliberately violated",
        )
        for c in CLAIM_REGISTRY
        if c != "counterexample_large_balls"
    ]
    entries.append(
        ClaimResult(
            "counterexample_large_balls",
            PASS if margin >= 0 else FAIL,
            float(margin),
            summary,
            {f"{R:g},{r:g},t={t:.3g}": v for R, r, t, v in observed},
        )
    )
    return VerificationReport(manifold.describe(), config.resolved_lines(), entries)
