"""Orchestrated verification runs binding each width-profile property to a
pass/fail/report entry with observed margins.

Entries with status "report" never gate a run: they cover the exploratory
probes (plateau-end versus nesting-onset agreement, discrete concavity,
derivative continuity) and, in standard runs, the large-ball counterexample
scenario, which has its own runner.

``sampled_width_matches_exact`` is the labelled cross-check of the exact
widths of convex closed-form pairs against the diameters of sampled clouds;
where no width is exact it reports no admissible data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from geolens.config import RunConfig, convexity_bound_for
from geolens.errors import ConfigError
from geolens.lens import (
    EXACT_SLACK,
    BallPair,
    check_witnesses,
    estimate_nesting_onset,
    lens_diameter,
    sample_intersection,
    w_profile,
)
from geolens.radii import conjugate_radius, focal_radius, radii_report
from geolens.sets import (
    PointCloud,
    diameter,
    diameter_lipschitz_check,
    hausdorff,
    monotone_limit_check,
)

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


def _concentric_cloud(manifold, center, frame, radius, n_rings=16, n_ang=64):
    """Ideal polar cloud of a metric ball: shared angles across radii make
    the Hausdorff gap between two concentric clouds exactly their radius gap."""
    angles = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
    ca, sa = np.cos(angles)[:, None], np.sin(angles)[:, None]
    chunks = [center[None, :]]
    for i in range(1, n_rings + 1):
        rho = radius * i / n_rings
        vecs = rho * (ca * frame[0] + sa * frame[1])
        chunks.append(manifold.exp_many(center, vecs))
    cell = math.hypot(radius / n_rings, 2.0 * math.pi * radius / n_ang)
    return PointCloud(manifold, np.vstack(chunks), 0.5 * cell)


def _agg(results: dict[str, float]) -> float:
    return min(results.values())


def run_verification_suite(config: RunConfig) -> VerificationReport:
    """Run every claim on the configured manifold and radius matrix."""
    manifold = config.manifold.build()
    conv = convexity_bound_for(config, manifold)
    for R, r in config.all_pairs():
        if not (0 < r <= R < conv):
            raise ConfigError(
                f"pair ({R:g}, {r:g}) violates 0 < r <= R < convexity radius {conv:g}"
            )

    tol = config.tolerances
    per_claim: dict[str, dict[str, float]] = {c: {} for c in CLAIM_REGISTRY}
    notes: dict[str, list] = {c: [] for c in CLAIM_REGISTRY}

    for R, r in config.all_pairs():
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
            n_grid=max(2, int(round(span / (1e-3 * span))) + 1),
            budget=max(256, config.budget // 8),
            seed=config.seed,
            slack=tol.nesting,
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
            (w[i] - w[j] + tol.monotone_slack for i, j in zip(idx[:-1], idx[1:])),
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

        # the probe clouds of the claims below, drawn once per separation
        clouds: dict[tuple[float, int], PointCloud] = {}

        def cloud_at(t, budget):
            key = (float(t), budget)
            if key not in clouds:
                clouds[key] = sample_intersection(bp.with_separation(key[0]), budget, config.seed)
            return clouds[key]

        # continuity via the diameter-Hausdorff modulus:
        # |w(s) - w(t)| <= 2 H(lens(s), lens(t)) + sampling slack
        rng = np.random.default_rng([config.seed, 17])
        probe_budget = max(512, config.budget // 4)

        def modulus_margin(pairs):
            worst = math.inf
            for i, j in pairs:
                cs = cloud_at(ts[i], probe_budget)
                ct = cloud_at(ts[j], probe_budget)
                dh = hausdorff(cs, ct)
                slack_ij = 4.0 * (cs.fill_radius + ct.fill_radius)
                worst = min(worst, 2.0 * dh + slack_ij - abs(w[i] - w[j]))
            return worst

        n_mod = 25
        anchors = rng.integers(1, len(ts), size=n_mod)
        gaps = rng.integers(1, 6, size=n_mod)
        left_pairs = [(max(0, a - g), a) for a, g in zip(anchors, gaps)]
        anchors = rng.integers(0, len(ts) - 1, size=n_mod)
        gaps = rng.integers(1, 6, size=n_mod)
        right_pairs = [(a, min(len(ts) - 1, a + g)) for a, g in zip(anchors, gaps)]
        per_claim["width_left_continuous"][key] = float(modulus_margin(left_pairs))
        per_claim["width_right_continuous"][key] = float(modulus_margin(right_pairs))

        # definitional nesting after the onset.  The bisected onset lands on
        # or below the first fully nesting grid point, so it can sit up to its
        # uncertainty below the true onset: draw s from above that band.
        nest_rng = np.random.default_rng([config.seed, 23])
        nest_lo = fine.value + fine.uncertainty
        worst = math.inf
        for _ in range(20):
            s, t = np.sort(nest_rng.uniform(nest_lo, span, size=2))
            if t - s < 1e-9:
                continue
            cloud = cloud_at(t, probe_budget)
            d = manifold.dist_many(bp.line.coords_at(float(s)), cloud.points)
            worst = min(worst, float(r + 1e-6 - np.max(d)))
        per_claim["nested_after_onset"][key] = worst

        # diameter is 2-Lipschitz against the Hausdorff distance
        lip_rng = np.random.default_rng([config.seed, 29])
        lip_ok = True
        for _ in range(15):
            i, j = lip_rng.integers(0, len(ts), size=2)
            cs = cloud_at(ts[i], probe_budget)
            ct = cloud_at(ts[j], probe_budget)
            lip_ok &= diameter_lipschitz_check(cs, ct)
        per_claim["diameter_hausdorff_lipschitz"][key] = 1.0 if lip_ok else -1.0

        # labelled cross-check of the exact widths against sampled clouds:
        # sampled <= exact + EXACT_SLACK and exact - sampled <= 2 * fill
        if bp.exact:
            cross_rng = np.random.default_rng([config.seed, 31])
            worst, excess = math.inf, -math.inf
            for i in cross_rng.choice(len(ts), size=min(3, len(ts)), replace=False):
                cloud = cloud_at(ts[i], probe_budget)
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

        # shrinking concentric balls D_{l+delta_k} converge to D_l; on ideal
        # shared-angle clouds the sampled Hausdorff gap equals delta_k exactly
        l_base = 0.8 * r
        deltas = [0.12 * r / (2**k) for k in range(5)]
        center, frame = bp.center_big(), bp.frame_big()
        limit_cloud = _concentric_cloud(manifold, center, frame, l_base)
        seq = [
            _concentric_cloud(manifold, center, frame, l_base + dlt) for dlt in deltas
        ]
        gap_final = monotone_limit_check(
            seq, "nested-decreasing", limit_cloud, slack=1e-9
        )
        per_claim["monotone_set_limits"][key] = float(1e-2 * max(1.0, r) - gap_final)
        notes["monotone_set_limits"].append(f"{key}: final Hausdorff gap {gap_final:.4g}")

        # probes (report-only)
        s_end = profile.full_width_end.value
        per_claim["probe_plateau_end_matches_onset"][key] = float(
            2 * h - abs(s_end - onset)
        )
        inner = (ts >= onset - 1e-12) & (ts <= span + 1e-12)
        ii = np.where(inner)[0]
        if len(ii) >= 3:
            second = w[ii][2:] - 2 * w[ii][1:-1] + w[ii][:-2]
            per_claim["probe_concavity"][key] = float(1e-4 - np.max(second))
            notes["probe_concavity"].append(
                f"{key}: max second difference {np.max(second):.3g}"
            )
        else:
            per_claim["probe_concavity"][key] = 0.0
        k = int(np.searchsorted(ts, onset))
        if 1 <= k < len(ts) - 1:
            d_minus = (w[k] - w[k - 1]) / h
            d_plus = (w[k + 1] - w[k]) / h
            per_claim["probe_derivative_continuity"][key] = float(-abs(d_plus - d_minus))
            notes["probe_derivative_continuity"].append(
                f"{key}: one-sided slope jump {abs(d_plus - d_minus):.4g}"
            )
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
    radii_margin = tol.radii - max(residuals) if residuals else tol.radii
    if manifold.closed_form:
        # the Jacobi scans against the closed forms, where they are finite
        for scan, exact in ((focal_radius, report.focal), (conjugate_radius, report.conjugate)):
            if math.isfinite(exact.value):
                found = scan(manifold, directions=1).value
                radii_margin = min(radii_margin, tol.radii - abs(found - exact.value))
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
        results = per_claim[claim]
        if not results:
            entries.append(ClaimResult(claim, REPORT, None, "no admissible data"))
            continue
        margin = _agg(results)
        status = REPORT if claim in REPORT_ONLY else (PASS if margin >= 0 else FAIL)
        detail = "; ".join(notes[claim][:3])
        per_pair = " ".join(f"{k}:{v:.4g}" for k, v in sorted(results.items()))
        summary = (detail + ("  " if detail else "") + per_pair).strip()
        entries.append(ClaimResult(claim, status, margin, summary, dict(results)))

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
    if manifold.kind != "sphere":
        raise ConfigError("the counterexample scenario runs on a sphere model")
    conv = manifold.convexity_radius()
    pairs = [p for p in config.all_pairs()]
    for R, r in pairs:
        if r < conv - 1e-12:
            raise ConfigError(
                f"counterexample needs both radii >= the convexity radius {conv:g}"
            )
    a = manifold.radius
    target = math.pi * a
    worst = math.inf
    observed = []
    for R, r in pairs:
        bp = BallPair.create(
            manifold, R, r, convexity_bound=math.inf, enforce_convexity=False
        )
        t_hi = min(R + r, 0.8 * math.pi * a)
        for t in np.linspace(0.25 * t_hi, t_hi, 4):
            lens = bp.with_separation(float(t))
            res = lens_diameter(lens, config.budget, config.seed)
            check_witnesses(lens, res, f"pair ({R:g}, {r:g}) at t={t!r}")
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


def run_speculation_probe(config: RunConfig) -> VerificationReport:
    """Report-only probes of the extra regularity seen in constant curvature.

    Runs the standard suite machinery but reports only the three probe
    entries (plateau-end vs onset agreement, discrete concavity past the
    onset, one-sided derivative agreement); never fails.
    """
    manifold = config.manifold.build()
    if not manifold.closed_form:
        raise ConfigError("the probes are defined for constant-curvature models")
    report = run_verification_suite(config)
    entries = []
    for entry in report.entries:
        if entry.claim_id in REPORT_ONLY:
            entries.append(
                ClaimResult(entry.claim_id, REPORT, entry.margin, entry.summary, entry.data)
            )
        else:
            entries.append(
                ClaimResult(entry.claim_id, REPORT, None, "suppressed in probe-only run")
            )
    return VerificationReport(report.manifold_label, report.config_lines, entries)
