"""Orchestrated verification runs binding each width-profile property to a
pass/fail/report entry with observed margins.

Each claim is the function of its name in ``CLAIM_REGISTRY``.  A pair
claim maps one pair's :class:`PairContext` to a margin, a (margin, note)
pair or None (no admissible data); ``convexity_radius_identity`` and
``counterexample_large_balls`` map (config, model).  Entries with status
"report" never gate a run: the probes (discrete concavity, derivative
continuity) and the claims a run does not select.  ``expect_counterexample``
selects the large-ball counterexample alone, other runs every claim but it.

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
admissible data.  ``thresholds_match_leg`` is the same for the thresholds:
an exact profile reads T and S from the model's Pythagorean leg, and the
grid bisections (``lens.bisected_thresholds``: the onset on the fine grid,
the plateau end on the profile's) must each land within the sum of the two
uncertainties of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from geolens.config import RunConfig, convexity_bound_for, validate_config
from geolens.errors import ConfigError, NestingError
from geolens.lens import (
    EXACT_SLACK,
    BallPair,
    ThresholdEstimate,
    WProfile,
    _circles,
    _nesting_scan,
    _sample_lenses,
    bisected_thresholds,
    check_witnesses,
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

CLAIM_REGISTRY: dict = {}  # claim name -> its function, in report order
REPORT_ONLY: set = set()  # the claims that never gate
_MODEL_CLAIMS: set = set()  # the claims of (config, manifold), run once


def _claim(name=None, model=False, report_only=False):
    """Register the decorated function as the claim ``name``, by default
    the function's own name."""

    def register(fn):
        claim = name or fn.__name__
        CLAIM_REGISTRY[claim] = fn
        for flag, names in ((model, _MODEL_CLAIMS), (report_only, REPORT_ONLY)):
            if flag:
                names.add(claim)
        return fn

    return register


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

    @property
    def passed(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    def to_text(self) -> str:
        lines = [f"verification report for {self.manifold_label}"]
        lines += [f"  {line}" for line in self.config_lines] + [""]
        lines += [entry.render() for entry in self.entries] + [""]
        return "\n".join(lines + ["RESULT: " + ("PASS" if self.passed else "FAIL")])

    def to_records(self) -> list[dict]:
        return [
            {
                "claim": entry.claim_id,
                "status": entry.status,
                "margin": "" if entry.margin is None else f"{entry.margin:.12g}",
                "summary": entry.summary,
            }
            for entry in self.entries
        ]


@dataclass
class PairContext:
    """What the pair claims read of one pair (:func:`_pair_context`)."""

    key: str
    bp: BallPair
    profile: WProfile
    fine: ThresholdEstimate  # the nesting onset bisected on the fine grid
    bisected_end: ThresholdEstimate | None  # the plateau end, on an exact pair
    nest_pairs: list  # separations s < t drawn above the onset band
    clouds: dict  # separation -> sampled lens, at the probe budget
    cross_rows: np.ndarray | None  # grid rows of the exact-width cross-check
    left: np.ndarray  # 2 H(L_s, L_t) + slack - |w(s) - w(t)|, left pairs
    right: np.ndarray  # and right pairs
    lip_ok: bool  # the random pairs hold the inequality
    probe_budget: int
    seed: int


def _pair_context(config: RunConfig, bp: BallPair) -> PairContext:
    """One pair's context, each set of probe separations drawn from its own
    seeded rng.  An exact pair reads the continuity margins off one
    ``lens_gaps`` call and draws clouds for the cross-check rows alone;
    elsewhere the clouds of the continuity rows come from one sampling pass
    (``_sample_lenses``) and H is read on them, each cloud's fill radius
    bounding its gaps."""
    profile = w_profile(bp, grid=config.grid, budget=config.budget, seed=config.seed)
    ts, w, slack = profile.ts, profile.w, profile.slack
    fine, bisected_end = bisected_thresholds(
        bp, config.grid, FINE_ONSET_GRID, max(256, config.budget // 8), config.seed
    )
    n_mod = 25
    rng = np.random.default_rng([config.seed, 17])
    anchors, gaps = rng.integers(1, len(ts), size=n_mod), rng.integers(1, 6, size=n_mod)
    left_pairs = [(max(0, a - g), a) for a, g in zip(anchors, gaps)]
    anchors, gaps = rng.integers(0, len(ts) - 1, size=n_mod), rng.integers(1, 6, size=n_mod)
    right_pairs = [(a, min(len(ts) - 1, a + g)) for a, g in zip(anchors, gaps)]
    # the bisected onset lands on or below the first fully nesting grid
    # point, so it can sit up to its uncertainty below the true onset:
    # draw s from above that band
    nest_rng = np.random.default_rng([config.seed, 23])
    nest_lo = fine.value + fine.uncertainty
    nest_pairs = [np.sort(nest_rng.uniform(nest_lo, bp.R + bp.r, size=2)) for _ in range(20)]
    nest_pairs = [(s, t) for s, t in nest_pairs if t - s >= 1e-9]
    lip_rng = np.random.default_rng([config.seed, 29])
    lip_pairs = [lip_rng.integers(0, len(ts), size=2) for _ in range(15)]
    cross_rows = None
    if bp.exact:
        cross_rng = np.random.default_rng([config.seed, 31])
        rows = cross_rows = cross_rng.choice(len(ts), size=min(3, len(ts)), replace=False)
    else:
        rows = {int(i) for pairs in (left_pairs, right_pairs, lip_pairs) for p in pairs for i in p}
    probe_budget = max(512, config.budget // 4)
    probe_ts = sorted({float(ts[i]) for i in rows})
    clouds = dict(zip(probe_ts, _sample_lenses(bp, probe_ts, probe_budget, config.seed)))

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
        lip_ok = all(
            diameter_lipschitz_check(*(clouds[float(ts[k])] for k in p)) for p in lip_pairs
        )
    return PairContext(
        f"R={bp.R:g},r={bp.r:g}", bp, profile, fine, bisected_end, nest_pairs, clouds,
        cross_rows, left, right, lip_ok, probe_budget, config.seed,
    )


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


@_claim()
def full_width_plateau(ctx: PairContext):
    """w = 2r, within slack, up to the radius gap R - r."""
    p, r = ctx.profile, ctx.bp.r
    plateau = p.ts <= ctx.bp.R - r + 1e-12
    if not np.any(plateau):
        return 0.0
    return float(np.min(p.slack[plateau] - np.abs(p.w[plateau] - 2 * r)))


@_claim()
def onset_not_before_gap(ctx: PairContext):
    """The fine onset T is not below R - r, within its uncertainty."""
    R, r, fine = ctx.bp.R, ctx.bp.r, ctx.fine
    if abs(R - r) < 1e-12:
        note = f"{ctx.key}: equality regime, T_est={fine.value:.3g}"
        return float(fine.uncertainty - fine.value), note
    return float(fine.value - (R - r - fine.uncertainty))


_claim("onset_before_big_radius")(lambda ctx: float(ctx.bp.R - ctx.fine.value))


@_claim()
def thresholds_match_leg(ctx: PairContext):
    end, fine, p = ctx.bisected_end, ctx.fine, ctx.profile
    if end is None:
        return None
    checks = [(fine, p.nesting_onset), (end, p.full_width_end)]
    margin = min(float(a.uncertainty + b.uncertainty - abs(a.value - b.value)) for a, b in checks)
    leg = p.nesting_onset.value
    note = f"{ctx.key}: bisected T - leg {fine.value - leg:.3g}, S - leg {end.value - leg:.3g}"
    return margin, note


@_claim()
def width_above_axis_chord(ctx: PairContext):
    """Inside R - r < t < R + r, w exceeds the leftover axis chord R + r - t:
    within slack, and strictly where that chord is at least 0.1."""
    p, span = ctx.profile, ctx.bp.R + ctx.bp.r
    inside = (p.ts > ctx.bp.R - ctx.bp.r + 1e-12) & (p.ts < span - 1e-12)
    if not np.any(inside):
        return 0.0
    margin = float(np.min(p.w[inside] - (span - p.ts[inside]) + p.slack[inside]))
    interior = inside & (span - p.ts >= 0.1)
    if not np.any(interior):
        return margin
    strict = float(np.min((p.w - (span - p.ts))[interior]))
    return min(margin, strict), f"{ctx.key}: strict margin {strict:.4g}"


_claim("width_left_continuous")(lambda ctx: float(np.min(ctx.left)))
_claim("width_right_continuous")(lambda ctx: float(np.min(ctx.right)))


@_claim()
def width_strictly_decreasing(ctx: PairContext):
    """Past the onset no grid step rises by more than ``MONOTONE_SLACK``,
    and w falls between grid points 5% of the span apart."""
    ts, w = ctx.profile.ts, ctx.profile.w
    h = ts[1] - ts[0]
    idx = np.where(ts >= ctx.profile.nesting_onset.value + h - 1e-12)[0]
    mono = min((w[i] - w[j] + MONOTONE_SLACK for i, j in zip(idx[:-1], idx[1:])), default=0.0)
    gap = max(1, int(round(0.05 * (ctx.bp.R + ctx.bp.r) / h)))
    strict_min = min((w[i] - w[i + gap] for i in idx if i + gap < len(ts)), default=0.0)
    note = f"{ctx.key}: min decrease over {gap * h:.3g}-separated pairs = {strict_min:.4g}"
    return float(min(mono, strict_min)), note


@_claim()
def nested_after_onset(ctx: PairContext):
    """Past the onset the lens at t lies within r of gamma(s), s < t, read
    on the nesting scan (an exact pair's far points, else its cloud)."""
    bp = ctx.bp
    nest_s, nest_t = np.array(ctx.nest_pairs).reshape(-1, 2).T
    points, owners = _nesting_scan(bp, nest_t, ctx.probe_budget, ctx.seed)
    d = bp.manifold.dist_pairs(bp.line.coords_many(nest_s)[owners], points)
    farthest = np.full(len(nest_t), -np.inf)
    np.maximum.at(farthest, owners, d)
    return float(np.min(bp.r + 1e-6 - farthest, initial=math.inf))


_claim("diameter_hausdorff_lipschitz")(lambda ctx: 1.0 if ctx.lip_ok else -1.0)


@_claim()
def sampled_width_matches_exact(ctx: PairContext):
    """sampled <= exact + EXACT_SLACK and exact - sampled <= 2 * fill."""
    if ctx.cross_rows is None:
        return None
    ts, w = ctx.profile.ts, ctx.profile.w
    worst, excess = math.inf, -math.inf
    for i in ctx.cross_rows:
        cloud = ctx.clouds[float(ts[i])]
        sampled = diameter(cloud)
        excess = max(excess, sampled - w[i])
        worst = min(worst, w[i] + EXACT_SLACK - sampled, 2.0 * cloud.fill_radius - (w[i] - sampled))
    return float(worst), f"{ctx.key}: largest sampled excess {excess:.3g}"


@_claim()
def monotone_set_limits(ctx: PairContext):
    bp = ctx.bp
    margin, gap_final = _concentric_limit(bp.manifold, bp.center_big(), bp.frame_big(), bp.r)
    return margin, f"{ctx.key}: final Hausdorff gap {gap_final:.4g}"


@_claim(model=True)
def convexity_radius_identity(config: RunConfig, manifold):
    """The radii identities, and the Jacobi scans against the closed forms
    where they are finite."""
    spec = config.manifold
    report = radii_report(
        manifold, spec.injectivity_bound, spec.loop_length, base_points=4, directions=16
    )
    residuals = [v for v in report.identity_residuals().values() if not math.isnan(v)]
    radii_margin = RADII_TOL - max(residuals) if residuals else RADII_TOL
    exact = (report.conjugate, report.focal)
    if manifold.closed_form and any(math.isfinite(e.value) for e in exact):
        for found, e in zip(jacobi_radii(manifold, directions=1), exact):
            if math.isfinite(e.value):
                radii_margin = min(radii_margin, RADII_TOL - abs(found.value - e.value))
    return float(radii_margin)


@_claim(model=True)
def counterexample_large_balls(config: RunConfig, manifold) -> ClaimResult:
    """Large-ball scenario on the sphere: the overlap keeps full diameter.

    With both radii at or above the convexity radius, the sampled overlap
    diameter stays at the model diameter pi / sqrt(k) for every separation,
    so the width profile is not eventually decreasing.  Every width's
    witnesses are checked (``check_witnesses``).  A config that is not that
    scenario raises ``ConfigError`` before any work.
    """
    conv = manifold.convexity_radius() if manifold.closed_form else math.inf
    if not math.isfinite(conv):
        raise ConfigError("the counterexample scenario runs on a sphere model")
    if any(r < conv - 1e-12 for _, r in config.pairs):
        raise ConfigError(f"counterexample needs both radii >= the convexity radius {conv:g}")
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
    margin = min(worst, 0.05 - spread)
    summary = (
        f"overlap diameter stays at {target:.4f} (max deviation "
        f"{max(abs(v - target) for *_, v in observed):.4g}); width profile is flat, "
        "not eventually decreasing"
    )
    data = {f"{R:g},{r:g},t={t:.3g}": v for R, r, t, v in observed}
    status = PASS if margin >= 0 else FAIL
    return ClaimResult(counterexample_large_balls.__name__, status, float(margin), summary, data)


@_claim(report_only=True)
def probe_concavity(ctx: PairContext):
    ts, w, onset = ctx.profile.ts, ctx.profile.w, ctx.profile.nesting_onset.value
    ii = np.where((ts >= onset - 1e-12) & (ts <= ctx.bp.R + ctx.bp.r + 1e-12))[0]
    if len(ii) < 3:
        return 0.0
    second = w[ii][2:] - 2 * w[ii][1:-1] + w[ii][:-2]
    return float(1e-4 - np.max(second)), f"{ctx.key}: max second difference {np.max(second):.3g}"


@_claim(report_only=True)
def probe_derivative_continuity(ctx: PairContext):
    ts, w = ctx.profile.ts, ctx.profile.w
    h = ts[1] - ts[0]
    k = int(np.searchsorted(ts, ctx.profile.nesting_onset.value))
    if not 1 <= k < len(ts) - 1:
        return 0.0
    jump = abs((w[k + 1] - w[k]) / h - (w[k] - w[k - 1]) / h)
    return float(-jump), f"{ctx.key}: one-sided slope jump {jump:.4g}"


def _claim_entry(claim: str, values: list) -> ClaimResult:
    """One claim's entry from its (key, value) per pair: its smallest margin,
    gating unless the claim is report-only, with the first notes and every
    pair's margin.  A model claim may return its entry whole."""
    results, notes = {}, []
    for key, value in values:
        if isinstance(value, ClaimResult):
            return value
        if value is not None:
            results[key], note = value if isinstance(value, tuple) else (value, None)
            notes += [note] if note else []
    if not results:
        return ClaimResult(claim, REPORT, None, "no admissible data")
    margin = min(results.values())
    status = REPORT if claim in REPORT_ONLY else (PASS if margin >= 0 else FAIL)
    detail = "; ".join(notes[:3])
    per_pair = " ".join(f"{k}:{v:.4g}" for k, v in sorted(results.items()))
    summary = (detail + ("  " if detail else "") + per_pair).strip()
    return ClaimResult(claim, status, margin, summary, dict(results))


def run_verification_suite(config: RunConfig) -> VerificationReport:
    """Run the claims that the config selects, the pair claims pair by pair
    on one context at a time, and mark the others not run.  A standard run
    first checks the radius rule (``validate_config``); the counterexample
    claim checks its own hypothesis."""
    manifold = config.manifold.build()
    counterexample = counterexample_large_balls.__name__
    if config.expect_counterexample:
        selected = {counterexample}
        skipped = "not run: convexity hypothesis deliberately violated"
    else:
        validate_config(config)
        selected = set(CLAIM_REGISTRY) - {counterexample}
        skipped = "hypothesis satisfied; scenario not exercised in this run"
    values = {c: [] for c in selected}
    pair_claims = [c for c in CLAIM_REGISTRY if c in selected and c not in _MODEL_CLAIMS]
    if pair_claims:
        conv = convexity_bound_for(config, manifold)
        for R, r in config.pairs:
            ctx = _pair_context(config, BallPair.create(manifold, R, r, convexity_bound=conv))
            for c in pair_claims:
                values[c].append((ctx.key, CLAIM_REGISTRY[c](ctx)))

    entries = []
    for c, claim in CLAIM_REGISTRY.items():
        if c in selected and c in _MODEL_CLAIMS:
            values[c].append(("model", claim(config, manifold)))
        entries.append(
            _claim_entry(c, values[c]) if c in selected else ClaimResult(c, REPORT, None, skipped)
        )
    return VerificationReport(manifold.describe(), config.resolved_lines(), entries)
