"""Overlap of two geodesic balls whose centers separate along a geodesic.

A :class:`BallPair` holds a big ball of radius R about gamma(0) and a small
ball of radius r <= R about gamma(t) for an arclength geodesic gamma.  The
module classifies membership in the overlap ("lens"), samples it as a point
cloud, maximizes the diameter over it, profiles the width

    w(t) = diam( D_R(gamma(0)) ∩ D_r(gamma(t)) )

over a separation grid, and estimates two thresholds of that profile:

* ``nesting_onset`` (printed as T_est): the smallest separation after which
  further separation only shrinks the lens into the earlier one;
* ``full_width_end`` (printed as S_est): the largest separation at which the
  lens still achieves the full diameter 2r.

The diameter is the best of two sources.  A scan of a boundary-biased subset
of the sampled cloud gives the farthest sampled pair, and three
deterministic candidates are evaluated exactly: the axis extremes, the
boundary-circle corner pair and the perpendicular diametral chord.  The
circle, disk and corner formulas come from the model (``Manifold``).

On a model whose geodesics and formulas are exact (``Manifold.closed_form``)
with R below the convexity radius, both balls are convex and the candidates
attain the diameter in every configuration audited: over Euclidean,
spherical and hyperbolic lenses in dimensions 2 and 3 the ascent below
never beat them, and a test keeps that audit.  Elsewhere -- on the numeric surface, whose corner is
a leading-order flat estimate, and for balls at or beyond the convexity
radius (the sphere counterexample) -- a projected geodesic ascent polishes
the sampled pair first: each witness moves along the distance gradient and
is retracted into whichever ball it violates.

On the rotationally symmetric models every check is carried out in an axial
2-plane section, which contains witnesses for widths, Hausdorff gaps, and
nesting margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from geolens.errors import DefectError, InjectivityError, TangencyError
from geolens.geodesics import GeodesicLine, GeodesicSegment
from geolens.manifolds import Manifold, ManifoldPoint, TangentVector, basepoint_of
from geolens.sets import PointCloud, diameter_with_witness

DEFAULT_GRID = 200
DEFAULT_BUDGET = 4096
BOUNDARY_TOL = 1e-9
SCAN_CAP = 1600
ASCENT_IMPROVE_TOL = 1e-10

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


@dataclass(frozen=True, eq=False)
class BallPair:
    """The configuration (center gamma(0), R) and (center gamma(t), r)."""

    manifold: Manifold
    line: GeodesicLine
    R: float
    r: float
    t: float
    convexity_bound: float

    @classmethod
    def create(
        cls,
        manifold: Manifold,
        R: float,
        r: float,
        t: float = 0.0,
        base: ManifoldPoint | None = None,
        direction: TangentVector | None = None,
        convexity_bound: float | None = None,
        enforce_convexity: bool = True,
    ) -> "BallPair":
        """Validate radii against the convexity bound and anchor the geodesic.

        ``enforce_convexity=False`` admits configurations outside the convex
        regime (used by the large-ball counterexample scenario only).
        """
        if not (0 < r <= R):
            raise ValueError(f"radii must satisfy 0 < r <= R (got R={R}, r={r})")
        conv = (
            convexity_bound
            if convexity_bound is not None
            else manifold.convexity_radius()
        )
        if enforce_convexity and not R < conv:
            raise ValueError(
                f"R={R:g} must lie strictly below the convexity radius {conv:g}"
            )
        if not 0.0 <= t <= R + r:
            raise ValueError(f"separation t={t:g} outside [0, R+r]")
        if base is None:
            base = basepoint_of(manifold)
        if direction is None:
            frame = manifold.tangent_basis(base.coords)
            direction = TangentVector(base, frame[0])
        line = GeodesicLine(manifold, base, direction)
        # every separation in [0, R + r] and axis point down to -r then reads
        # one integration of a numeric line, whatever was evaluated before
        line.cover(-float(r), float(R) + float(r))
        return cls(manifold, line, float(R), float(r), float(t), float(conv))

    def with_separation(self, t: float) -> "BallPair":
        if not 0.0 <= t <= self.R + self.r + 1e-12:
            raise ValueError(f"separation t={t:g} outside [0, R+r]")
        return replace(self, t=float(min(t, self.R + self.r)))

    @property
    def gamma(self) -> GeodesicSegment:
        """The anchoring geodesic restricted to [0, R + r]."""
        return self.line.segment(self.R + self.r)

    def center_big(self) -> np.ndarray:
        cached = getattr(self, "_center_big", None)
        if cached is None:
            cached = self.line.coords_at(0.0)
            object.__setattr__(self, "_center_big", cached)
        return cached

    def center_small(self) -> np.ndarray:
        cached = getattr(self, "_center_small", None)
        if cached is None:
            cached = self.line.coords_at(self.t)
            object.__setattr__(self, "_center_small", cached)
        return cached

    def margins(self, points) -> np.ndarray:
        """min(R - d(gamma(0), x), r - d(gamma(t), x)) per row; >= 0 inside."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d_big = self.manifold.dist_many(self.center_big(), pts)
        d_small = self.manifold.dist_many(self.center_small(), pts)
        return np.minimum(self.R - d_big, self.r - d_small)


def membership(bp: BallPair, x, tol: float = BOUNDARY_TOL):
    """Classify a point against the lens; returns (label, margin)."""
    coords = x.coords if isinstance(x, ManifoldPoint) else np.asarray(x, dtype=np.float64)
    margin = float(bp.margins(coords[None, :])[0])
    if abs(margin) <= tol:
        return BOUNDARY, margin
    return (INSIDE if margin > 0 else OUTSIDE), margin


def _axis_points(bp: BallPair) -> np.ndarray:
    lo = bp.t - bp.r
    hi = min(bp.t + bp.r, bp.R)
    return np.array([bp.line.coords_at(lo), bp.line.coords_at(hi)])


def _corner_points(bp: BallPair) -> np.ndarray | None:
    """The two intersection points of the boundary circles, if they exist.

    Solved in the axial section through the law of cosines of the model; the
    corner sits at angle phi off the axis at distance R from the big center.
    """
    m, R, r, t = bp.manifold, bp.R, bp.r, bp.t
    if t < 1e-12:
        return None
    cos_phi = m.corner_cosine(R, r, t)
    if cos_phi is None or not -1.0 <= cos_phi <= 1.0:
        return None
    phi = math.acos(cos_phi)
    center = bp.center_big()
    axis = bp.line.velocity_at(0.0).components
    frame = m.tangent_basis(center, primary=axis)
    vec = bp.R * (math.cos(phi) * frame[0] + math.sin(phi) * frame[1])
    plus = m.exp_many(center, vec[None, :])[0]
    minus = m.exp_many(center, (bp.R * (math.cos(phi) * frame[0] - math.sin(phi) * frame[1]))[None, :])[0]
    return np.array([plus, minus])


def _perp_chord(bp: BallPair) -> np.ndarray:
    """Endpoints of the small ball's diametral chord perpendicular to the axis."""
    center = bp.center_small()
    axis = bp.line.velocity_at(bp.t).components
    frame = bp.manifold.tangent_basis(center, primary=axis)
    vecs = np.array([bp.r * frame[1], -bp.r * frame[1]])
    return bp.manifold.exp_many(center, vecs)


def sample_intersection(bp: BallPair, budget: int = DEFAULT_BUDGET, seed: int = 0) -> PointCloud:
    """Sample the lens as a point cloud with an estimated fill radius.

    Deterministic given (budget, seed): a polar rejection grid over the small
    ball (seeded per-ring phases), boundary arcs of both circles, and the
    deterministic extreme points (axis endpoints, corners, perpendicular
    chord) when they are admissible.  The fill radius is the half-diagonal of
    the interior grid cell; it is an estimate tied to the grid pitch, not a
    certificate near the corner cusps.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    m, R, r, t = bp.manifold, bp.R, bp.r, bp.t
    edge = R + r - t
    if edge < 1e-12 * (R + r):
        contact = bp.line.coords_at(R)
        return PointCloud(m, contact[None, :], 0.0)

    rng = np.random.default_rng([seed, budget])
    center_small = bp.center_small()
    center_big = bp.center_big()
    axis_small = bp.line.velocity_at(t).components
    frame_small = m.tangent_basis(center_small, primary=axis_small)
    axis_big = bp.line.velocity_at(0.0).components
    frame_big = m.tangent_basis(center_big, primary=axis_big)

    interior_budget = max(16, int(0.6 * budget))
    area = m.disk_area(r)
    pitch = math.sqrt(area / interior_budget)
    n_rad = max(2, int(math.ceil(r / pitch)))
    drho = r / n_rad

    chunks = [_axis_points(bp)]
    corners = _corner_points(bp)
    if corners is not None:
        chunks.append(corners)
    chord = _perp_chord(bp)

    # interior polar grid over the small ball, rejected against the big one
    for i in range(n_rad + 1):
        rho = i * drho
        if i == 0:
            ring = center_small[None, :]
        else:
            circ = m.circle_circumference(rho)
            n_ang = max(6, int(math.ceil(circ / drho)))
            phase = rng.uniform(0.0, 2.0 * math.pi)
            ang = phase + np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
            vecs = rho * (
                np.cos(ang)[:, None] * frame_small[0] + np.sin(ang)[:, None] * frame_small[1]
            )
            ring = m.exp_many(center_small, vecs)
        keep = m.dist_many(center_big, ring) <= R + 1e-12
        if np.any(keep):
            chunks.append(ring[keep])

    # boundary arcs: small circle inside the big ball, big circle inside the small
    n_arc = max(64, int(math.ceil(m.circle_circumference(r) / drho)))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    ang = phase + np.linspace(0.0, 2.0 * math.pi, n_arc, endpoint=False)
    vecs = r * (np.cos(ang)[:, None] * frame_small[0] + np.sin(ang)[:, None] * frame_small[1])
    small_circle = m.exp_many(center_small, vecs)
    keep = m.dist_many(center_big, small_circle) <= R + 1e-12
    chunks.append(small_circle[keep])

    n_arc_big = max(64, int(math.ceil(m.circle_circumference(R) / drho)))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    ang = phase + np.linspace(0.0, 2.0 * math.pi, n_arc_big, endpoint=False)
    vecs = R * (np.cos(ang)[:, None] * frame_big[0] + np.sin(ang)[:, None] * frame_big[1])
    big_circle = m.exp_many(center_big, vecs)
    keep = m.dist_many(center_small, big_circle) <= r + 1e-12
    chunks.append(big_circle[keep])

    keep = bp.margins(chord) >= -1e-12
    if np.any(keep):
        chunks.append(chord[keep])

    points = np.vstack(chunks)
    margins = bp.margins(points)
    inside = margins >= -BOUNDARY_TOL
    if not np.any(inside):
        if t <= R + r:
            raise TangencyError(
                "no lens samples found although t <= R + r; either a tangency "
                "or an integration defect"
            )
        raise DefectError("empty intersection sample")
    points = points[inside]
    fill = 0.5 * math.hypot(drho, drho)
    return PointCloud(m, points, fill)


def _project_into_lens(bp: BallPair, coords: np.ndarray):
    """Alternating geodesic retractions toward whichever center is violated.

    Returns (point, feasible).  Near-tangent configurations make alternating
    projections converge slowly; callers must discard infeasible results.
    """
    m = bp.manifold
    x = coords
    for _ in range(60):
        d_big = m.dist_coords(bp.center_big(), x)
        d_small = m.dist_coords(bp.center_small(), x)
        if d_big <= bp.R + 1e-13 and d_small <= bp.r + 1e-13:
            return x, True
        if d_big > bp.R:
            v = m.log_coords(bp.center_big(), x)
            x = m.exp_many(bp.center_big(), (bp.R / d_big) * v[None, :])[0]
        d_small = m.dist_coords(bp.center_small(), x)
        if d_small > bp.r:
            v = m.log_coords(bp.center_small(), x)
            x = m.exp_many(bp.center_small(), (bp.r / d_small) * v[None, :])[0]
    return x, bool(bp.margins(x[None, :])[0] >= -1e-12)


def _ascend_pair(bp: BallPair, p: np.ndarray, q: np.ndarray, max_iter: int = 400):
    """Projected geodesic ascent of d(p, q) within the lens.

    Each endpoint moves along the outward unit tangent of the connecting
    minimizing geodesic (the distance gradient), then is retracted into the
    lens; the step halves whenever no endpoint improves, and ascent stops at
    improvement below ``ASCENT_IMPROVE_TOL``.
    """
    m = bp.manifold
    if m.dist_coords(bp.center_big(), p) > bp.convexity_bound + 1e-6:
        raise DefectError("ascent witness left the convexity chart")
    d = m.dist_coords(p, q)
    step = 0.05 * bp.r
    cap = 0.25 * bp.r
    floor = 1e-7 * bp.r  # quadratic blocking makes smaller steps sub-1e-10 gains
    for _ in range(max_iter):
        if step < floor:
            break
        improved = False
        for _ in range(2):
            p, q = q, p  # alternate endpoints
            try:
                v = m.log_coords(p, q)
            except InjectivityError:
                return p, q, m.dist_coords(p, q)  # at the diameter of the model
            norm = math.sqrt(max(m.inner_coords(p, v, v), 0.0))
            if norm < 1e-15:
                continue
            cand = m.exp_many(p, (-step / norm) * v[None, :])[0]
            cand, feasible = _project_into_lens(bp, cand)
            if not feasible:
                continue
            d_new = m.dist_coords(cand, q)
            if d_new > d + ASCENT_IMPROVE_TOL:
                p, d = cand, d_new
                improved = True
        step = min(1.5 * step, cap) if improved else 0.5 * step
    return p, q, d


@dataclass(frozen=True)
class LensDiameter:
    """Result of the diameter maximization over one lens."""

    value: float
    witness_a: np.ndarray
    witness_b: np.ndarray
    fill_radius: float
    slack: float  # upper bound minus lower bound: 2 * fill_radius
    n_samples: int


def _sampled_pair(bp: BallPair, cloud: PointCloud):
    """Farthest pair over a boundary-biased subset of the cloud."""
    pts = cloud.points
    band = max(3.0 * cloud.fill_radius, 0.05 * bp.r)
    subset = pts[bp.margins(pts) <= band]
    if len(subset) < min(64, len(pts)):
        subset = pts
    if len(subset) > SCAN_CAP:
        stride = int(math.ceil(len(subset) / SCAN_CAP))
        subset = subset[::stride]
    _, (i, j) = diameter_with_witness(PointCloud(bp.manifold, subset, cloud.fill_radius))
    return subset[i], subset[j]


def lens_diameter(
    bp: BallPair,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    cloud: PointCloud | None = None,
    refine: bool = True,
) -> LensDiameter:
    """Lower-bound the lens diameter by a witness pair; slack = 2 * fill.

    The value is the best of the sampled farthest pair and the deterministic
    candidates (axis extremes, corners, perpendicular chord).  With
    ``refine`` the projected ascent first polishes the sampled pair, but only
    where the candidates are not known to attain the diameter: on a model
    without closed forms, or for R at or beyond the convexity radius.
    ``refine=False`` never runs the ascent and returns the sampled and
    candidate value alone, an independent cross-check of the refined one.
    A model without a scan kernel fails fast with ``ValueError`` on a
    subset too large for the pairwise scan of :mod:`geolens.sets`.
    """
    m = bp.manifold
    if bp.R + bp.r - bp.t < 1e-12 * (bp.R + bp.r):
        contact = bp.line.coords_at(bp.R)
        return LensDiameter(0.0, contact, contact, 0.0, 0.0, 1)
    if cloud is None:
        cloud = sample_intersection(bp, budget, seed)
    best_pair = _sampled_pair(bp, cloud)

    candidates = [_axis_points(bp)]
    corners = _corner_points(bp)
    if corners is not None and np.all(bp.margins(corners) >= -1e-9):
        candidates.append(corners)
    chord = _perp_chord(bp)
    if np.all(bp.margins(chord) >= -1e-9):
        candidates.append(chord)

    exact = m.closed_form and bp.R < m.convexity_radius()
    if refine and not exact:
        p, q, best_d = _ascend_pair(bp, best_pair[0].copy(), best_pair[1].copy())
        best_pair = (p, q)
    else:
        best_d = m.dist_coords(best_pair[0], best_pair[1])
    for pair in candidates:
        d = m.dist_coords(pair[0], pair[1])
        if d > best_d:
            best_d, best_pair = d, (pair[0], pair[1])
    return LensDiameter(
        value=float(best_d),
        witness_a=best_pair[0],
        witness_b=best_pair[1],
        fill_radius=cloud.fill_radius,
        slack=2.0 * cloud.fill_radius,
        n_samples=len(cloud),
    )


@dataclass(frozen=True)
class ThresholdEstimate:
    value: float
    uncertainty: float


@dataclass(frozen=True, eq=False)
class WProfile:
    """Sampled width profile with witnesses and threshold estimates."""

    manifold_label: str
    R: float
    r: float
    ts: np.ndarray
    w: np.ndarray
    slack: np.ndarray
    witness_a: np.ndarray  # (n, ambient_dim)
    witness_b: np.ndarray
    nested_after_onset: np.ndarray  # 0/1 per grid point
    nesting_onset: ThresholdEstimate
    full_width_end: ThresholdEstimate
    seed: int
    budget: int

    def summary(self) -> str:
        return (
            f"T_est={self.nesting_onset.value:.6f} (+-{self.nesting_onset.uncertainty:.1e}) "
            f"S_est={self.full_width_end.value:.6f} (+-{self.full_width_end.uncertainty:.1e})"
        )

    def to_csv(self, path, config_lines=None):
        from geolens.config import atomic_write

        d = self.witness_a.shape[1]
        header = (
            ["t", "w", "slack"]
            + [f"witness_a_{k}" for k in range(d)]
            + [f"witness_b_{k}" for k in range(d)]
            + ["nested_after_T"]
        )
        lines = [f"# {line}" for line in (config_lines or [])]
        lines.append(",".join(header))
        for i in range(len(self.ts)):
            row = (
                [self.ts[i], self.w[i], self.slack[i]]
                + list(self.witness_a[i])
                + list(self.witness_b[i])
            )
            lines.append(",".join(repr(float(x)) for x in row) + f",{int(self.nested_after_onset[i])}")
        atomic_write(path, "\n".join(lines) + "\n")


def _nesting_scan(bp: BallPair, ts: np.ndarray, budget: int, seed: int):
    """Sampled lens clouds over a separation grid, concatenated for scanning."""
    blocks, owners = [], []
    for idx, t in enumerate(ts):
        cloud = sample_intersection(bp.with_separation(float(t)), budget, seed)
        blocks.append(cloud.points)
        owners.append(np.full(len(cloud), idx))
    return np.vstack(blocks), np.concatenate(owners)


def estimate_nesting_onset(
    bp: BallPair,
    n_grid: int = 1001,
    budget: int = 512,
    seed: int = 0,
    slack: float = 1e-9,
    scan: tuple[np.ndarray, np.ndarray] | None = None,
) -> ThresholdEstimate:
    """Smallest separation s after which all later lenses nest into D_r(gamma(s)).

    Sampled form of the defining test: for every grid t >= s, every sample of
    the lens at t must lie within r + slack of gamma(s).  The flip index is
    located by bisection over the grid (the passing set is an interval up to
    sampling noise, which a local fix-up absorbs), then refined continuously
    between the last failing and first passing grid values.  Reported with
    the grid resolution as its uncertainty.  ``scan`` is the
    ``_nesting_scan`` of this grid, budget and seed, when the caller has it.
    """
    m = bp.manifold
    span = bp.R + bp.r
    ts = np.linspace(0.0, span, n_grid)
    h = ts[1] - ts[0]
    points, owners = _nesting_scan(bp, ts, budget, seed) if scan is None else scan

    def ok(s: float) -> bool:
        sel = ts[owners] > s + 1e-15
        if not np.any(sel):
            return True
        d = m.dist_many(bp.line.coords_at(s), points[sel])
        return bool(np.max(d) <= bp.r + slack)

    lo_idx, hi_idx = 0, n_grid - 1
    if ok(ts[0]):
        return ThresholdEstimate(0.0, h)
    while hi_idx - lo_idx > 1:
        mid = (lo_idx + hi_idx) // 2
        if ok(ts[mid]):
            hi_idx = mid
        else:
            lo_idx = mid
    while hi_idx > 1 and ok(ts[hi_idx - 1]):  # fix-up against non-monotone noise
        hi_idx -= 1
    lo, hi = ts[hi_idx - 1], ts[hi_idx]
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdEstimate(0.5 * (lo + hi), h)


def estimate_full_width_end(
    profile: WProfile,
    tol: float = 1e-7,
    evaluator=None,
    refine_to: float | None = None,
) -> ThresholdEstimate:
    """Largest separation with w >= 2r - tol, optionally bisection-refined.

    Works from the profile's refined width values (witness lower bounds);
    ``evaluator(t) -> w`` enables continuous bisection between grid points.
    """
    threshold = 2.0 * profile.r - tol
    passing = np.where(profile.w >= threshold)[0]
    if len(passing) == 0:
        return ThresholdEstimate(0.0, profile.ts[1] - profile.ts[0])
    i = int(passing[-1])
    h = profile.ts[1] - profile.ts[0]
    if i == len(profile.ts) - 1 or evaluator is None:
        return ThresholdEstimate(float(profile.ts[i]), h)
    lo, hi = profile.ts[i], profile.ts[i + 1]
    target = refine_to if refine_to is not None else max(1e-4 * (profile.R + profile.r), 1e-12)
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        if evaluator(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return ThresholdEstimate(0.5 * (lo + hi), max(target, 0.5 * (hi - lo)))


def w_profile(
    bp: BallPair,
    grid: int = DEFAULT_GRID,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> WProfile:
    """Profile the lens width over a uniform separation grid.

    Evaluates the refined diameter at each grid separation, estimates the
    nesting onset on the same grid (refined by continuous bisection), locates
    the end of the full-width plateau with bisection between grid points, and
    flags which grid points nest into the lens at the onset.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    m = bp.manifold
    span = bp.R + bp.r
    ts = np.linspace(0.0, span, grid)
    w = np.empty(grid)
    slack = np.empty(grid)
    d = m.ambient_dim
    wa = np.empty((grid, d))
    wb = np.empty((grid, d))
    for i, t in enumerate(ts):
        res = lens_diameter(bp.with_separation(float(t)), budget, seed)
        w[i] = res.value
        slack[i] = res.slack
        wa[i] = res.witness_a
        wb[i] = res.witness_b

    probe_budget = max(256, budget // 8)
    scan = _nesting_scan(bp, ts, probe_budget, seed)
    onset = estimate_nesting_onset(
        bp, n_grid=grid, budget=probe_budget, seed=seed, scan=scan
    )

    eval_budget = max(512, budget // 8)

    def evaluator(t):
        return lens_diameter(bp.with_separation(float(t)), eval_budget, seed).value

    stub = WProfile(
        manifold_label=m.describe(),
        R=bp.R,
        r=bp.r,
        ts=ts,
        w=w,
        slack=slack,
        witness_a=wa,
        witness_b=wb,
        nested_after_onset=np.zeros(grid, dtype=int),
        nesting_onset=onset,
        full_width_end=ThresholdEstimate(0.0, 0.0),
        seed=seed,
        budget=budget,
    )
    full_end = estimate_full_width_end(stub, evaluator=evaluator)

    # nesting flags against the first grid point at or after the onset, on
    # the clouds of the onset scan
    points, owners = scan
    flags = np.zeros(grid, dtype=int)
    anchor_idx = int(np.searchsorted(ts, onset.value - 1e-12))
    anchor_idx = min(anchor_idx, grid - 1)
    anchor = bp.line.coords_at(ts[anchor_idx])
    for i in range(anchor_idx + 1, grid):
        dmax = float(np.max(m.dist_many(anchor, points[owners == i])))
        flags[i] = int(dmax <= bp.r + 1e-9)
    return replace(stub, nested_after_onset=flags, full_width_end=full_end)
