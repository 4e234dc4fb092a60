"""Overlap of two geodesic balls whose centers separate along a geodesic.

A :class:`BallPair` holds a big ball of radius R about gamma(0) and a small
ball of radius r <= R about gamma(t) for an arclength geodesic gamma.  The
module classifies membership in the overlap ("lens"), measures its diameter,
profiles the width

    w(t) = diam( D_R(gamma(0)) ∩ D_r(gamma(t)) )

over a separation grid, and estimates two thresholds of that profile:

* ``nesting_onset`` (printed as T_est): the smallest separation after which
  further separation only shrinks the lens into the earlier one;
* ``full_width_end`` (printed as S_est): the largest separation at which the
  lens still achieves the full diameter 2r.

Three deterministic candidates carry the geometry: the axis ends, the
corners where the boundary circles meet and the ends of the small ball's
diametral chord perpendicular to the axis (:meth:`BallPair.extremes`).  The
circle, disk and corner formulas come from the model (``Manifold``).

On an *exact* pair -- a model whose geodesics and formulas are closed forms
(``Manifold.closed_form``) with R below its convexity radius -- both balls are
convex and the candidates are the answers:

* the width is the best admissible candidate, with slack ``EXACT_SLACK``;
* on a circle centred on the axis the distance to an axis point is monotone
  in the angle (law of cosines of the model), so the lens point farthest
  from gamma(s) is an axis end or a corner: the nesting onset and flags test
  those points only;
* the lens keeps the full width 2r exactly while the perpendicular chord
  lies in the big ball, so the plateau end bisects on that chord's margin
  (the Pythagorean theorem of the model at the end).

Elsewhere -- on the numeric surface, whose corner is a leading-order flat
estimate, and for balls at or beyond the convexity radius (the sphere
counterexample) -- the lens is sampled as a point cloud.  A cloud is a polar
grid over the small ball plus both boundary arcs, rejected against the other
ball; the center, the interior rings and the small arc form one tangent
block about gamma(t), pushed forward by a single ``exp_many``, and the big
arc is one more call about gamma(0).  The width is then the best of the
candidates and the farthest sampled pair, which a projected geodesic ascent
polishes first: each witness moves along the distance gradient and is
retracted into whichever ball it violates.  The sampled path stays as a
cross-check on exact pairs: tests and the verification suite compare it
with the candidates.

On the rotationally symmetric models every check is carried out in an axial
2-plane section, which contains witnesses for widths, Hausdorff gaps, and
nesting margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from geolens.errors import DefectError, InjectivityError, TangencyError
from geolens.geodesics import GeodesicLine
from geolens.manifolds import Manifold, ManifoldPoint, TangentVector
from geolens.sets import PointCloud, diameter_with_witness

DEFAULT_GRID = 200
DEFAULT_BUDGET = 4096
BOUNDARY_TOL = 1e-9
# upper minus lower bound of a width computed exactly, in floating point
EXACT_SLACK = 1e-12
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
            base = manifold.basepoint()
        if direction is None:
            frame = manifold.tangent_basis(base.coords)
            direction = TangentVector(base, frame[0])
        line = GeodesicLine(manifold, base, direction)
        # every separation in [0, R + r] and axis point down to -r then reads
        # one integration of a numeric line, whatever was evaluated before
        line.cover(-float(r), float(R) + float(r))
        return cls(manifold, line, float(R), float(r), float(t), float(conv))

    @property
    def exact(self) -> bool:
        """Closed-form model with R below its convexity radius: the
        candidates of :meth:`extremes` give the width, the nesting and the
        plateau end exactly."""
        return self.manifold.closed_form and self.R < self.manifold.convexity_radius()

    @property
    def touching(self) -> bool:
        """t = R + r up to rounding: the balls meet in the one point gamma(R)."""
        return self.R + self.r - self.t < 1e-12 * (self.R + self.r)

    def with_separation(self, t: float) -> "BallPair":
        if not 0.0 <= t <= self.R + self.r + 1e-12:
            raise ValueError(f"separation t={t:g} outside [0, R+r]")
        return replace(self, t=float(min(t, self.R + self.r)))

    def _memo(self, name, compute):
        value = self.__dict__.get(name)
        if value is None:
            value = compute()
            object.__setattr__(self, name, value)
        return value

    def center_big(self) -> np.ndarray:
        return self._memo("_center_big", lambda: self.line.coords_at(0.0))

    def center_small(self) -> np.ndarray:
        return self._memo("_center_small", lambda: self.line.coords_at(self.t))

    def frame_big(self) -> np.ndarray:
        """Orthonormal tangent frame at gamma(0) whose first vector is gamma'(0)."""
        return self._memo(
            "_frame_big",
            lambda: self.manifold.tangent_basis(
                self.center_big(), primary=self.line.velocity_at(0.0).components
            ),
        )

    def frame_small(self) -> np.ndarray:
        """Orthonormal tangent frame at gamma(t) whose first vector is gamma'(t)."""
        return self._memo(
            "_frame_small",
            lambda: self.manifold.tangent_basis(
                self.center_small(), primary=self.line.velocity_at(self.t).components
            ),
        )

    def extremes(self):
        """(ends, margins, lead): the axis ends, the corners of the boundary
        circles when they meet and the ends of the perpendicular chord,
        stacked in that order; their margins; and the number of axis and
        corner rows, which the two chord rows follow."""

        def compute():
            ends = [_axis_points(self)]
            corners = _corner_points(self)
            if corners is not None:
                ends.append(corners)
            ends.append(_perp_chord(self))
            ends = np.vstack(ends)
            return ends, self.margins(ends), len(ends) - 2

        return self._memo("_extremes", compute)

    def margins(self, points) -> np.ndarray:
        """min(R - d(gamma(0), x), r - d(gamma(t), x)) per row; >= 0 inside."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d_big = self.manifold.dist_many(self.center_big(), pts)
        d_small = self.manifold.dist_many(self.center_small(), pts)
        return np.minimum(self.R - d_big, self.r - d_small)

    def chord_margin(self) -> float:
        """R minus the distance from gamma(0) to the farther end of the
        perpendicular chord; on an exact pair the lens has width 2r exactly
        when this is >= 0."""
        d_big = self.manifold.dist_many(self.center_big(), _perp_chord(self))
        return self.R - float(np.max(d_big))


def check_witnesses(bp: BallPair, res: LensDiameter, row: str) -> None:
    """Raise ``DefectError`` naming ``row`` unless both witnesses lie in the
    lens (margin >= -``BOUNDARY_TOL``) and d(a, b) matches the width to
    ``EXACT_SLACK``."""
    margins = bp.margins(np.array([res.witness_a, res.witness_b]))
    gap = abs(bp.manifold.dist_coords(res.witness_a, res.witness_b) - res.value)
    if not (np.all(margins >= -BOUNDARY_TOL) and gap <= EXACT_SLACK):
        raise DefectError(
            f"{row}: witness margins {margins[0]:.3g}, {margins[1]:.3g}; "
            f"|d(a, b) - w| = {gap:.3g}"
        )


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
    frame = bp.frame_big()
    vecs = np.array(
        [
            R * (math.cos(phi) * frame[0] + math.sin(phi) * frame[1]),
            R * (math.cos(phi) * frame[0] - math.sin(phi) * frame[1]),
        ]
    )
    return m.exp_many(bp.center_big(), vecs)


def _perp_chord(bp: BallPair) -> np.ndarray:
    """Endpoints of the small ball's diametral chord perpendicular to the axis."""
    frame = bp.frame_small()
    vecs = np.array([bp.r * frame[1], -bp.r * frame[1]])
    return bp.manifold.exp_many(bp.center_small(), vecs)


def _circles(m: Manifold, center, frame, radii, counts, phases) -> np.ndarray:
    """exp at ``center`` of circles in the plane of ``frame[0], frame[1]``.

    Circle j has radius ``radii[j]`` and ``counts[j]`` equally spaced angles
    ``phases[j] + k * 2 pi / counts[j]`` (the values of ``phases[j] +
    np.linspace(0, 2 pi, counts[j], endpoint=False)``); all circles go
    through one ``exp_many`` call.
    """
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    k = np.arange(int(counts.sum()), dtype=np.float64) - np.repeat(starts, counts)
    ang = np.repeat(phases, counts) + k * np.repeat(2.0 * math.pi / counts, counts)
    vecs = np.cos(ang)[:, None] * frame[0]
    vecs += np.sin(ang)[:, None] * frame[1]
    vecs *= np.repeat(radii, counts)[:, None]
    return m.exp_many(center, vecs)


def sample_intersection(bp: BallPair, budget: int = DEFAULT_BUDGET, seed: int = 0) -> PointCloud:
    """Sample the lens as a point cloud with an estimated fill radius.

    Deterministic given (budget, seed): a polar rejection grid over the small
    ball (seeded per-ring phases), boundary arcs of both circles, and the
    deterministic extreme points (axis endpoints, corners, perpendicular
    chord) when they are admissible.  The fill radius is the half-diagonal of
    the interior grid cell; it is an estimate tied to the grid pitch, not a
    certificate near the corner cusps.

    The center, the interior rings and the small boundary circle form one
    tangent block about gamma(t), pushed forward by one ``exp_many`` call;
    the big boundary circle is a second call about gamma(0).  Each rejection
    test computes one distance per candidate, and the inside test then adds
    only the other distance of the kept points.  On the numeric surface
    ``exp_many`` takes its RK4 step count from the longest vector of the
    batch, so the inner rings integrate with the step count of the outer
    circle: the points are the same while r <= 16 steps, and move at the
    level of rounding beyond that.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    m, R, r, t = bp.manifold, bp.R, bp.r, bp.t
    if bp.touching:
        return PointCloud(m, bp.line.coords_at(R)[None, :], 0.0)

    rng = np.random.default_rng([seed, budget])
    center_small = bp.center_small()
    center_big = bp.center_big()

    interior_budget = max(16, int(0.6 * budget))
    area = m.disk_area(r)
    pitch = math.sqrt(area / interior_budget)
    n_rad = max(2, int(math.ceil(r / pitch)))
    drho = r / n_rad

    # one phase per ring, then the small circle's, then the big circle's
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_rad + 2)
    rhos = [i * drho for i in range(1, n_rad + 1)]
    counts = [max(6, int(math.ceil(m.circle_circumference(rho) / drho))) for rho in rhos]
    counts.append(max(64, int(math.ceil(m.circle_circumference(r) / drho))))
    n_arc_big = max(64, int(math.ceil(m.circle_circumference(R) / drho)))

    # the center (a zero vector, pinned exactly), the interior rings and the
    # small circle, rejected against the big ball
    block = _circles(
        m, center_small, bp.frame_small(), [0.0] + rhos + [r], [1] + counts,
        np.concatenate([[0.0], phases[:-1]]),
    )
    block[0] = center_small
    d_big = m.dist_many(center_big, block)
    keep = d_big <= R + 1e-12
    inner = block[keep]
    inner_margin = np.minimum(R - d_big[keep], r - m.dist_many(center_small, inner))

    # the big circle, rejected against the small ball
    arc = _circles(m, center_big, bp.frame_big(), [R], [n_arc_big], phases[-1:])
    d_small = m.dist_many(center_small, arc)
    keep = d_small <= r + 1e-12
    outer = arc[keep]
    outer_margin = np.minimum(R - m.dist_many(center_big, outer), r - d_small[keep])

    ends, end_margin, lead = bp.extremes()
    chord_keep = end_margin[lead:] >= -1e-12

    points = np.vstack([ends[:lead], inner, outer, ends[lead:][chord_keep]])
    margins = np.concatenate(
        [end_margin[:lead], inner_margin, outer_margin, end_margin[lead:][chord_keep]]
    )
    inside = margins >= -BOUNDARY_TOL
    if not np.any(inside):
        raise TangencyError(
            "no lens samples found although t <= R + r; either a tangency "
            "or an integration defect"
        )
    fill = 0.5 * math.hypot(drho, drho)
    return PointCloud(m, points[inside], fill)


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
    # upper bound minus lower bound: EXACT_SLACK on an exact pair, else
    # twice the fill radius of the sampled cloud
    slack: float


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
    """The lens diameter as a witness pair, with its slack.

    On an exact pair (:attr:`BallPair.exact`) with no ``cloud`` given, the
    value is the best admissible candidate (axis ends, corners,
    perpendicular chord) and its slack ``EXACT_SLACK``; no cloud is drawn.

    Otherwise the value is the best of the candidates and the farthest pair
    of the sampled cloud (``cloud``, or one drawn at ``budget`` and
    ``seed``), a lower bound with slack 2 * fill.  With ``refine`` the
    projected ascent first polishes the sampled pair where the candidates
    are not known to attain the diameter: on a model without closed forms,
    or for R at or beyond the convexity radius.  ``refine=False`` never
    runs the ascent and returns the sampled and candidate value alone, an
    independent cross-check of the refined one.  On a model without closed
    forms the farthest-pair scan of :mod:`geolens._kernels` shoots one
    geodesic per pair, so it fails fast with ``ValueError`` on a subset over
    ``SLOW_PAIR_LIMIT`` pairs.
    """
    m = bp.manifold
    if bp.touching:
        contact = bp.line.coords_at(bp.R)
        return LensDiameter(0.0, contact, contact, 0.0)
    if bp.exact and cloud is None:
        best_d, best_pair, slack = -math.inf, None, EXACT_SLACK
    else:
        if cloud is None:
            cloud = sample_intersection(bp, budget, seed)
        best_pair = _sampled_pair(bp, cloud)
        if refine and not bp.exact:
            p, q, best_d = _ascend_pair(bp, best_pair[0].copy(), best_pair[1].copy())
            best_pair = (p, q)
        else:
            best_d = m.dist_coords(best_pair[0], best_pair[1])
        slack = 2.0 * cloud.fill_radius

    ends, end_margin, lead = bp.extremes()
    candidates = [ends[:2]]
    if lead > 2 and np.all(end_margin[2:lead] >= -1e-9):
        candidates.append(ends[2:lead])
    if np.all(end_margin[lead:] >= -1e-9):
        candidates.append(ends[lead:])
    for pair in candidates:
        d = m.dist_coords(pair[0], pair[1])
        if d > best_d:
            best_d, best_pair = d, (pair[0], pair[1])
    return LensDiameter(float(best_d), best_pair[0], best_pair[1], slack)


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


def _far_points(bp: BallPair) -> np.ndarray:
    """The lens points that can be farthest from an axis point of an exact
    pair: the axis ends and corners inside the lens, or the contact point."""
    if bp.touching:
        return bp.line.coords_at(bp.R)[None, :]
    ends, margins, lead = bp.extremes()
    return ends[:lead][margins[:lead] >= -BOUNDARY_TOL]


def _nesting_scan(bp: BallPair, ts: np.ndarray, budget: int, seed: int):
    """Per grid separation, the lens points the nesting test reads,
    concatenated for scanning: the axis ends and corners of an exact pair,
    else the sampled cloud at ``budget`` and ``seed``."""
    blocks, owners = [], []
    for idx, t in enumerate(ts):
        lens = bp.with_separation(float(t))
        points = _far_points(lens) if bp.exact else sample_intersection(lens, budget, seed).points
        blocks.append(points)
        owners.append(np.full(len(points), idx))
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

    Grid form of the defining test: for every grid t >= s, the lens at t must
    lie within r + slack of gamma(s).  On an exact pair the test reads the
    axis ends and corners of each lens, where the distance to gamma(s) peaks;
    elsewhere every point of a cloud sampled at ``budget``.  The flip index is
    located by bisection over the grid (the passing set is an interval up to
    sampling noise, which a local fix-up absorbs), then refined continuously
    between the last failing and first passing grid values.  Reported with
    the grid resolution as its uncertainty.  ``scan`` is the
    ``_nesting_scan`` of this grid, budget and seed, when the caller has it.
    """
    if n_grid < 2:
        raise ValueError("n_grid must have at least 2 points")
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
    full_width=None,
) -> ThresholdEstimate:
    """Largest separation at which the lens keeps its full width 2r.

    ``full_width(t) -> bool`` decides full width at a separation; on an exact
    pair it is ``BallPair.chord_margin() >= 0``, which holds up to the
    model's Pythagorean end S.  It decides every grid point and every
    bisection step.  Without it the grid points pass where the profile's
    width is >= 2r - tol, and ``evaluator(t) -> w`` (if given) decides the
    bisection steps the same way.  Because w leaves 2r quadratically at S,
    that sampled test passes for about sqrt(tol / c) past S.  The last
    passing grid point and its successor bracket a bisection refined to
    ``refine_to`` (default 1e-4 (R + r)), reported as the uncertainty.
    """
    h = profile.ts[1] - profile.ts[0]
    if full_width is not None:
        passing = [full_width(float(t)) for t in profile.ts]
    else:
        threshold = 2.0 * profile.r - tol
        passing = profile.w >= threshold
        if evaluator is not None:

            def full_width(t):
                return evaluator(t) >= threshold

    passing = np.flatnonzero(passing)
    if len(passing) == 0:
        return ThresholdEstimate(0.0, h)
    i = int(passing[-1])
    if i == len(profile.ts) - 1 or full_width is None:
        return ThresholdEstimate(float(profile.ts[i]), h)
    lo, hi = profile.ts[i], profile.ts[i + 1]
    target = refine_to if refine_to is not None else max(1e-4 * (profile.R + profile.r), 1e-12)
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        if full_width(mid):
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

    Evaluates the diameter at each grid separation and checks its witnesses
    (``check_witnesses``), estimates the nesting onset on the same grid
    (refined by continuous bisection), locates the end of the full-width
    plateau with bisection between grid points, and flags which grid points
    nest into the lens at the onset.  An exact pair draws no cloud; elsewhere
    each width, the onset scan and the plateau bisection sample the lens.
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
        lens = bp.with_separation(float(t))
        res = lens_diameter(lens, budget, seed)
        check_witnesses(lens, res, f"row {i} (t={t!r})")
        w[i] = res.value
        slack[i] = res.slack
        wa[i] = res.witness_a
        wb[i] = res.witness_b

    probe_budget = max(256, budget // 8)
    scan = _nesting_scan(bp, ts, probe_budget, seed)
    onset = estimate_nesting_onset(
        bp, n_grid=grid, budget=probe_budget, seed=seed, scan=scan
    )

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
    if bp.exact:

        def full_width(t):
            return bp.with_separation(t).chord_margin() >= 0.0

        full_end = estimate_full_width_end(stub, full_width=full_width)
    else:
        eval_budget = max(512, budget // 8)

        def evaluator(t):
            return lens_diameter(bp.with_separation(float(t)), eval_budget, seed).value

        full_end = estimate_full_width_end(stub, evaluator=evaluator)

    # nesting flags against the first grid point at or after the onset, on
    # the points of the onset scan
    points, owners = scan
    flags = np.zeros(grid, dtype=int)
    anchor_idx = int(np.searchsorted(ts, onset.value - 1e-12))
    anchor_idx = min(anchor_idx, grid - 1)
    anchor = bp.line.coords_at(ts[anchor_idx])
    for i in range(anchor_idx + 1, grid):
        dmax = float(np.max(m.dist_many(anchor, points[owners == i])))
        flags[i] = int(dmax <= bp.r + 1e-9)
    return replace(stub, nested_after_onset=flags, full_width_end=full_end)
