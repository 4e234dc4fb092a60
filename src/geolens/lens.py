"""Overlap of two geodesic balls whose centers separate along a geodesic.

A :class:`BallPair` holds a big ball of radius R about gamma(0) and a small
ball of radius r <= R about gamma(t) for an arclength geodesic gamma.  The
module measures the diameter of their overlap (the "lens"), profiles the
width

    w(t) = diam( D_R(gamma(0)) ∩ D_r(gamma(t)) )

over a separation grid, and finds two thresholds of that profile:

* ``nesting_onset`` (printed as T_est): the smallest separation after which
  further separation only shrinks the lens into the earlier one;
* ``full_width_end`` (printed as S_est): the largest separation at which the
  lens still achieves the full diameter 2r.

On an exact pair (below) both are the model's Pythagorean leg
(``Manifold.pythagorean_leg``), up to its rounding bound; elsewhere they
are estimates, bisected on the grid.

Three deterministic candidates carry the geometry: the axis ends, the
corners where the boundary circles meet and the ends of the small ball's
diametral chord perpendicular to the axis (``_candidates_at``).  The
circle, disk and corner formulas come from the model (``Manifold``).

On an *exact* pair -- a model whose geodesics and formulas are closed forms
(``Manifold.closed_form``) with R below its convexity radius -- both balls are
convex and the candidates are the answers:

* the width is the best admissible candidate, with slack ``EXACT_SLACK``;
* on a circle centred on the axis the distance to an axis point is monotone
  in the angle (law of cosines of the model), so the lens point farthest
  from gamma(s) is an axis end or a corner: the nesting onset and flags test
  those points only;
* the Hausdorff distance of two lenses is the largest distance from a far
  point of one (an axis end or a corner) to the other lens
  (:func:`lens_gaps`);
* the lens keeps the full width 2r exactly while the perpendicular chord
  lies in the big ball, so the plateau ends at the model's Pythagorean leg
  S, where the chord reaches the big circle;
* the corner at angle phi(t) off the axis lies within r of gamma(s), s < t,
  exactly when cos phi(t) >= cos phi(s), and cos phi is smallest at S (the
  law of cosines of the model), while the axis ends nest once s >= R - r:
  so the nesting onset T is S too.  The grid bisections, the onset's on the
  far points and the plateau's on the chord's margin, run only as the
  labelled cross-check :func:`bisected_thresholds` of ``geolens verify``.

A profile builds the candidates of every grid separation in one pass
(``_candidates_at``: a few model calls for the whole grid, the tangent
frames of all separations from one ``tangent_frames``), and the widths and
the nesting scan both read it; a single lens is the one-row case.  Each
row's values do not depend on the others, so the numbers are those of a
lens-by-lens pass, and each width is the ``dist_coords`` of its pair.
Where they bisect, the nesting onset and the plateau end do so in lockstep
rounds (``_bisect``): each round tests the next levels of the bisection
tree in one batch and walks it, with the floats and tests of a
step-by-step loop.

Elsewhere -- on the numeric surface, whose corner is a leading-order flat
estimate, and for balls at or beyond the convexity radius (the sphere
counterexample) -- the lens is sampled as a point cloud of its boundary.
Inside the convexity chart d(., q) has a non-zero gradient away from q, so
the diameter of the lens and its farthest point from any gamma(s) lie on
the boundary: the small circle inside the big ball and the big circle
inside the small one.  A cloud holds both arcs at one spacing, which bounds
its fill radius, plus the candidates on them.  Everything but a lens's
tangent frame depends on (R, r, budget, seed) alone, so the clouds of many
separations come from one grid pass (``_sample_lenses``): the big arc about
gamma(0) is built once, the small circles of every lens go through one
``exp_pairs`` about their small centres, and the candidates' margins and
both circles' rejections are one ``dist_pairs`` (on the surface, one Newton
loop); a single cloud (``sample_intersection``) is the one-row case, with
the same bits on every model (the surface integrates each row of a batch
in its own steps).  A cloud holds every admissible candidate, so
its farthest pair is never below one.  The width is that pair, which a
projected geodesic ascent polishes: each witness moves along the distance
gradient and is retracted into whichever ball it violates.  The sampled
path stays as a cross-check on exact pairs: tests and the verification
suite compare it with the candidates.

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
# a point whose margin is below 0 by at most this still counts as in the lens
BOUNDARY_TOL = 1e-9
# upper minus lower bound of a width computed exactly, in floating point
EXACT_SLACK = 1e-12
ASCENT_IMPROVE_TOL = 1e-10
ASCENT_MAX_ITER = 400
# below 2r by at most this, a sampled width counts as full
FULL_WIDTH_TOL = 1e-7
# within r plus this of gamma(s), a lens point counts as nested at s
NESTING_SLACK = 1e-9


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
    ) -> "BallPair":
        """Validate radii against the convexity bound and anchor the geodesic.

        A given ``direction`` must be a unit tangent vector at ``base``
        (``ValueError`` otherwise).  ``convexity_bound=math.inf`` admits
        configurations outside the convex regime (the large-ball
        counterexample scenario).
        """
        if not (0 < r <= R):
            raise ValueError(f"radii must satisfy 0 < r <= R (got R={R}, r={r})")
        conv = (
            convexity_bound
            if convexity_bound is not None
            else manifold.convexity_radius()
        )
        if not R < conv:
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
        # a line that leaves the chart before -r or R + r fails here
        line.states_many([-float(r), float(R) + float(r)])
        return cls(manifold, line, float(R), float(r), float(t), float(conv))

    @property
    def exact(self) -> bool:
        """Closed-form model with R below its convexity radius: the
        candidates of :func:`_candidates_at` give the width, the nesting and
        the plateau end exactly."""
        return self.manifold.closed_form and self.R < self.manifold.convexity_radius()

    @property
    def touching(self) -> bool:
        """t = R + r up to rounding: the balls meet in the one point gamma(R)."""
        return self.R + self.r - self.t < 1e-12 * (self.R + self.r)

    def with_separation(self, t: float) -> "BallPair":
        """The pair at separation t.  It keeps the memos that do not depend
        on t, gamma'(0) and the frame at gamma(0); gamma(t) is its own."""
        if not 0.0 <= t <= self.R + self.r + 1e-12:
            raise ValueError(f"separation t={t:g} outside [0, R+r]")
        pair = replace(self, t=float(min(t, self.R + self.r)))
        for name in ("_start_velocity", "_frame_big"):
            if name in self.__dict__:
                object.__setattr__(pair, name, self.__dict__[name])
        return pair

    def _memo(self, name, compute):
        value = self.__dict__.get(name)
        if value is None:
            value = compute()
            object.__setattr__(self, name, value)
        return value

    def _start(self) -> TangentVector:
        """gamma'(0) at gamma(0), from one evaluation of the line."""
        return self._memo("_start_velocity", lambda: self.line.velocity_at(0.0))

    def center_big(self) -> np.ndarray:
        return self._start().base.coords

    def center_small(self) -> np.ndarray:
        return self._memo("_center_small", lambda: self.line.coords_at(self.t))

    def frame_big(self) -> np.ndarray:
        """Orthonormal tangent frame at gamma(0) whose first vector is gamma'(0)."""
        return self._memo(
            "_frame_big",
            lambda: self.manifold.tangent_basis(
                self.center_big(), primary=self._start().components
            ),
        )

    def margins(self, points) -> np.ndarray:
        """min(R - d(gamma(0), x), r - d(gamma(t), x)) per row; >= 0 inside."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d_big = self.manifold.dist_many(self.center_big(), pts)
        d_small = self.manifold.dist_many(self.center_small(), pts)
        return np.minimum(self.R - d_big, self.r - d_small)


def check_witnesses(bp: BallPair, ts, w, witness_a, witness_b, label=None) -> None:
    """Raise ``DefectError`` naming the first bad row unless, at every
    separation ``ts[i]``, both witnesses lie in the lens (margin >=
    -``BOUNDARY_TOL``) and d(a, b) matches the width ``w[i]`` to
    ``EXACT_SLACK``.

    One pass over the rows, independent of how the widths were found: the
    margins come from one ``dist_many`` about gamma(0) and one
    ``dist_pairs`` against the small centres, d(a, b) from one more
    ``dist_pairs``.  Every width path reads that same distance (the scans
    of :mod:`geolens._kernels` give each pair its ``dist_pairs`` bits), so
    near the antipode, where the slope of arcsin turns one ulp of the chord
    into about sqrt(eps), a width still matches its witnesses exactly.
    ``label(i)`` names row i in the error, by default ``row i (t=...)``.
    """
    m = bp.manifold
    ts = np.minimum(np.asarray(ts, dtype=np.float64), bp.R + bp.r)
    centres = bp.line.coords_many(ts)
    pts = np.concatenate([witness_a, witness_b])
    d_big = m.dist_many(bp.center_big(), pts)
    d_small = m.dist_pairs(np.concatenate([centres, centres]), pts)
    margins = np.minimum(bp.R - d_big, bp.r - d_small).reshape(2, len(ts))
    gap = np.abs(m.dist_pairs(witness_a, witness_b) - w)
    bad = ~(np.all(margins >= -BOUNDARY_TOL, axis=0) & (gap <= EXACT_SLACK))
    if np.any(bad):
        i = int(np.argmax(bad))
        row = label(i) if label is not None else f"row {i} (t={ts[i]!r})"
        raise DefectError(
            f"{row}: witness margins {margins[0, i]:.3g}, {margins[1, i]:.3g}; "
            f"|d(a, b) - w| = {gap[i]:.3g}"
        )


# slots of one separation's candidates: the axis ends, the corners where the
# boundary circles meet, the ends of the perpendicular chord
_AXIS, _CORNERS, _CHORD = slice(0, 2), slice(2, 4), slice(4, 6)
_SLOTS = 6


@dataclass(frozen=True, eq=False)
class _Candidates:
    """The candidates of each separation of a grid (see
    :func:`_candidates_at`); absent slots have margin -inf."""

    ts: np.ndarray  # (n,) separations, clamped to R + r
    ends: np.ndarray  # (n, _SLOTS, ambient_dim)
    present: np.ndarray  # (n, _SLOTS) bool
    margins: np.ndarray  # (n, _SLOTS)
    d_big: np.ndarray  # (n, _SLOTS) distances to gamma(0); nan where absent
    touching: np.ndarray  # (n,) bool: t = R + r up to rounding


def _candidates_at(bp: BallPair, ts, chords: bool = True) -> _Candidates:
    """The candidates of every separation of ``ts`` in one pass, with the
    bits of a lens-by-lens evaluation (each row's values do not depend on
    the others): the points of :func:`_candidate_points`, scored from one
    ``dist_many`` about gamma(0) and one ``dist_pairs`` against each row's
    small centre."""
    cands = _candidate_points(bp, ts, chords)
    _, ends, present, centres, _, _ = cands
    owners, slot = np.nonzero(present)
    m, x = bp.manifold, ends[owners, slot]
    return _scored(bp, cands, m.dist_many(bp.center_big(), x), m.dist_pairs(centres[owners], x))


def _candidate_points(bp: BallPair, ts, chords: bool = True):
    """(ts, ends, present, small centres, touching, frames) of the
    candidates of :func:`_candidates_at`, before their distances:

    * the axis ends, the small centres, their velocities and the contact
      point gamma(R) from one evaluation of the line;
    * the corners through one ``exp_many`` about gamma(0) (``_corners_at``);
    * with ``chords``, the tangent frames of the small centres, whose first
      vector is the velocity, from one ``tangent_frames`` (else frames is
      None), and the chord ends through one ``exp_pairs`` about the
      centres, along each frame's second vector.

    At a touching separation the contact point stands alone in the axis
    and corner slots.
    """
    m, R, r = bp.manifold, bp.R, bp.r
    ts = np.minimum(np.asarray(ts, dtype=np.float64), R + r)
    n, d = len(ts), m.ambient_dim
    on_line, velocity = bp.line.states_many(
        np.concatenate([ts - r, np.minimum(ts + r, R), ts, [R]])
    )
    lo, hi, centres = on_line[:-1].reshape(3, n, d)
    ends = np.empty((n, _SLOTS, d))
    present = np.zeros((n, _SLOTS), dtype=bool)
    ends[:, 0], ends[:, 1] = lo, hi
    present[:, _AXIS] = True
    found, corners = _corners_at(bp, ts)
    ends[found, _CORNERS] = corners
    present[found, _CORNERS] = True
    frames = None
    if chords:
        frames = m.tangent_frames(centres, velocity[2 * n : 3 * n])
        ends[:, _CHORD] = _chords_at(bp, centres, frames[:, 1])
        present[:, _CHORD] = True
    touching = R + r - ts < 1e-12 * (R + r)
    ends[touching, 0] = on_line[-1]
    present[touching, 1 : _CHORD.start] = False
    return ts, ends, present, centres, touching, frames


def _scored(bp: BallPair, cands, d_big, d_small) -> _Candidates:
    """The candidates of the :func:`_candidate_points` tuple ``cands``,
    given the distances of the present ends, in ``np.nonzero(present)``
    order, to gamma(0) and to their small centres."""
    ts, ends, present, _, touching, _ = cands
    owners, slot = np.nonzero(present)
    full_d_big = np.full(present.shape, np.nan)
    full_d_big[owners, slot] = d_big
    margins = np.full(present.shape, -np.inf)
    margins[owners, slot] = np.minimum(bp.R - d_big, bp.r - d_small)
    return _Candidates(ts, ends, present, margins, full_d_big, touching)


def _chords_at(bp: BallPair, centres, dirs) -> np.ndarray:
    """Ends of the small ball's diametral chords through the rows of
    ``centres`` along the rows of ``dirs``: an (n, 2, ambient_dim) block
    from one ``exp_pairs``."""
    m = bp.manifold
    vecs = np.stack([bp.r * dirs, -bp.r * dirs], axis=1).reshape(-1, m.ambient_dim)
    return m.exp_pairs(np.repeat(centres, 2, axis=0), vecs).reshape(len(centres), 2, -1)


def _chord_margins(bp: BallPair, ts) -> np.ndarray:
    """R minus the distance from gamma(0) to the farther end of the
    perpendicular chord, at each separation of ``ts``; on an exact pair the
    lens has width 2r exactly where this is >= 0.  One pass: the centres
    and their frames, one ``exp_pairs`` and one ``dist_many``, with the bits
    of :func:`_candidates_at`'s chords."""
    m = bp.manifold
    centres, velocity = bp.line.states_many(ts)
    chords = _chords_at(bp, centres, m.tangent_frames(centres, velocity)[:, 1])
    d_big = m.dist_many(bp.center_big(), chords.reshape(-1, m.ambient_dim))
    return bp.R - np.max(d_big.reshape(len(centres), 2), axis=1)


_CORNER_SIGNS = np.array([[1.0], [-1.0]])


def _corners_at(bp: BallPair, ts):
    """The two intersection points of the boundary circles at each
    separation of ``ts`` where they meet: (indices into ``ts``, a (k, 2,
    ambient_dim) block).  The corners of one separation do not depend on the
    others.

    Solved in the axial section through the law of cosines of the model; the
    corner sits at angle phi off the axis at distance R from the big center.
    One array pass of ufuncs, so every corner has the bits of a lens-by-lens
    evaluation.
    """
    m, R, r = bp.manifold, bp.R, bp.r
    ts = np.asarray(ts, dtype=np.float64)
    found = np.flatnonzero(ts >= 1e-12)
    cos_phi = m.corner_cosine(R, r, ts[found])
    meet = (cos_phi >= -1.0) & (cos_phi <= 1.0)
    found, cos_phi, d = found[meet], cos_phi[meet], m.ambient_dim
    if not len(found):
        return found, np.empty((0, 2, d))
    phi = np.arccos(cos_phi)
    frame = bp.frame_big()
    # R (cos phi e0 +- sin phi e1); negation is exact, so the lower corner
    # has the bits of R (cos phi e0 - sin phi e1)
    cos = np.cos(phi)[:, None, None]
    sin = np.sin(phi)[:, None, None] * _CORNER_SIGNS
    vecs = R * (cos * frame[0] + sin * frame[1])
    return found, m.exp_many(bp.center_big(), vecs.reshape(-1, d)).reshape(-1, 2, d)


def _pair_distances(m: Manifold, ends, margins) -> np.ndarray:
    """(n, 3) per separation of candidate ``ends`` and ``margins`` (as in
    :class:`_Candidates`): the distances of its axis, corner and chord pairs
    where they are width candidates, else -inf.  The axis ends always are;
    the corners and the chord when both ends lie in the lens.  One
    ``dist_pairs``, so each distance is the ``dist_coords`` of its pair in
    every pass."""
    admissible = np.ones((len(ends), 3), dtype=bool)
    admissible[:, 1] = np.all(margins[:, _CORNERS] >= -BOUNDARY_TOL, axis=1)
    admissible[:, 2] = np.all(margins[:, _CHORD] >= -BOUNDARY_TOL, axis=1)
    rows, pair = np.nonzero(admissible)
    d = m.dist_pairs(ends[rows, 2 * pair], ends[rows, 2 * pair + 1])
    out = np.full((len(ends), 3), -np.inf)
    # a nan distance never wins, as in a scan that keeps a strictly farther pair
    out[rows, pair] = np.where(np.isnan(d), -np.inf, d)
    return out


def _exact_widths(m: Manifold, c: _Candidates):
    """(w, slack, witness_a, witness_b) of every separation of the
    candidates ``c`` of an exact pair: the farthest candidate pair, the
    first in slot order on a tie, with slack ``EXACT_SLACK``; at a touching
    separation the contact point, width 0 and slack 0."""
    live = np.flatnonzero(~c.touching)
    d = _pair_distances(m, c.ends[live], c.margins[live])
    best = np.argmax(d, axis=1)
    w = np.zeros(len(c.ts))
    w[live] = d[np.arange(len(live)), best]
    slack = np.where(c.touching, 0.0, EXACT_SLACK)
    wa = c.ends[:, 0].copy()
    wb = wa.copy()
    wa[live] = c.ends[live, 2 * best]
    wb[live] = c.ends[live, 2 * best + 1]
    return w, slack, wa, wb


def _circle_vectors(frames, radii, counts, phases) -> np.ndarray:
    """Tangent vectors of circles in the plane of the first two vectors of
    a frame: a (k, ambient_dim) block for one (dim, ambient_dim) frame, or
    an (n, k, ambient_dim) block for a stack of n frames.

    Circle j has radius ``radii[j]`` and ``counts[j]`` equally spaced angles
    ``phases[j] + k * 2 pi / counts[j]`` (the values of ``phases[j] +
    np.linspace(0, 2 pi, counts[j], endpoint=False)``).  Each vector is
    (cos * e0 + sin * e1) * radius of its own frame, so a frame's rows have
    the same bits in a stack as alone.
    """
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    k = np.arange(int(counts.sum()), dtype=np.float64) - np.repeat(starts, counts)
    ang = np.repeat(phases, counts) + k * np.repeat(2.0 * math.pi / counts, counts)
    frames = np.asarray(frames)
    vecs = np.cos(ang)[:, None] * frames[..., 0, None, :]
    vecs += np.sin(ang)[:, None] * frames[..., 1, None, :]
    vecs *= np.repeat(radii, counts)[:, None]
    return vecs


def _circles(m: Manifold, center, frame, radii, counts, phases) -> np.ndarray:
    """exp at ``center`` of the circles of :func:`_circle_vectors` in the
    plane of ``frame[0], frame[1]``, through one ``exp_many`` call."""
    return m.exp_many(center, _circle_vectors(frame, radii, counts, phases))


# rows (small-circle and big-arc points) of the lenses one step of the
# sampling pass builds at once: bounds its temporaries
_SAMPLE_ROWS = 8192


def sample_intersection(bp: BallPair, budget: int = DEFAULT_BUDGET, seed: int = 0) -> PointCloud:
    """Sample the boundary of the lens as a point cloud whose fill radius
    bounds its gaps.

    Deterministic given (budget, seed): the small circle about gamma(t) kept
    where it lies in the big ball, the big circle about gamma(0) kept where
    it lies in the small ball, both at one spacing with one seeded phase
    each, and the candidates of :func:`_candidates_at` (the axis ends, the
    corners and the perpendicular chord's ends) at margin >=
    -``BOUNDARY_TOL``, the margin at which a candidate pair is admissible:
    so the cloud's farthest pair is never below an admissible candidate
    pair.  On the closed-form models every point of the boundary lies
    within ``fill_radius``, half the larger arc spacing in arc length, of a
    sample: along each kept arc the samples are at most one spacing apart,
    and the corners close the arcs.  (On the numeric surface
    the circumference is the flat estimate, and so is the fill radius.)
    Inside the convexity chart the boundary holds the diameter of the lens
    and its farthest point from any gamma(s), so every lens claim reads it.
    The one-row case of :func:`_sample_lenses`.
    """
    return _sample_lenses(bp, [bp.t], budget, seed)[0]


def _sample_lenses(bp: BallPair, ts, budget: int, seed: int) -> list[PointCloud]:
    """The cloud of :func:`sample_intersection` at every separation of
    ``ts``, in one pass over the grid, with the bits of a lens-by-lens
    evaluation (each row's values do not depend on the others).

    The spacing drho is the pitch of a polar grid of 0.6 * ``budget``
    points over the small disk.  Everything but a lens's frame depends only
    on (R, r, budget, seed): the two phases, the angles of the small circle
    and the whole big circle.  So the big circle is built once; the
    candidates are :func:`_candidate_points`, whose small centres and
    frames (one evaluation of the line) also carry the small circles
    through one ``exp_pairs``; and one ``dist_pairs`` gives the
    candidates' distances to both centres, the small circles' to gamma(0)
    (their rejection against the big ball) and the big circle's to each
    small centre (its rejection against each small ball), so the surface
    shoots them all in one Newton loop.  A circle point is tested against the other ball only: it lies
    on its own.
    A touching row is the contact point alone, with fill 0.  Lenses go in
    steps of at most ``_SAMPLE_ROWS`` rows.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    m, R, r = bp.manifold, bp.R, bp.r
    ts = np.minimum(np.asarray(ts, dtype=np.float64), R + r)
    touching = R + r - ts < 1e-12 * (R + r)
    clouds: list = [None] * len(ts)
    if np.any(touching):
        contact = bp.line.coords_at(R)[None, :]
        for i in np.flatnonzero(touching):
            clouds[i] = PointCloud(m, contact, 0.0)
    live = np.flatnonzero(~touching)
    if not len(live):
        return clouds

    rng = np.random.default_rng([seed, budget])
    pitch = math.sqrt(m.disk_area(r) / max(16, int(0.6 * budget)))
    drho = r / max(2, int(math.ceil(r / pitch)))
    # the small circle's phase, then the big circle's
    phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
    lengths = [m.circle_circumference(r), m.circle_circumference(R)]
    n_small, n_big = (max(64, int(math.ceil(length / drho))) for length in lengths)
    fill = 0.5 * max(lengths[0] / n_small, lengths[1] / n_big)
    small_plan = ([r], [n_small], phases[:1])
    arc = _circles(m, bp.center_big(), bp.frame_big(), [R], [n_big], phases[1:])

    step = max(1, _SAMPLE_ROWS // (n_small + n_big))
    for k in range(0, len(live), step):
        rows = live[k : k + step]
        for i, points in zip(rows, _lens_points(bp, ts[rows], small_plan, arc)):
            clouds[i] = PointCloud(m, points, fill)
    return clouds


def _lens_points(bp: BallPair, ts, small_plan, arc):
    """One step of :func:`_sample_lenses`: the boundary points of each
    (non-touching) lens of ``ts``, in the order axis ends and corners
    inside the lens (:func:`_far_points`), small circle, big circle, chord
    ends inside the lens."""
    m, R, r = bp.manifold, bp.R, bp.r
    n, d = len(ts), m.ambient_dim
    cands = _candidate_points(bp, ts)
    _, ends, present, centres, _, frames = cands
    vecs = _circle_vectors(frames, *small_plan)
    size = vecs.shape[1]
    small = m.exp_pairs(np.repeat(centres, size, axis=0), vecs.reshape(-1, d))
    small_owner = np.repeat(np.arange(n), size)
    arcs = np.tile(arc, (n, 1))
    arc_owner = np.repeat(np.arange(n), len(arc))
    # one dist_pairs: the candidates' distances to both centres, the small
    # circles' to the big centre (their rejection against the big ball) and
    # the big circle's to each small centre (against each small ball)
    cand_owner, slot = np.nonzero(present)
    x = ends[cand_owner, slot]
    big = bp.center_big()
    sources = np.concatenate([
        np.broadcast_to(big, x.shape),
        centres[cand_owner],
        np.broadcast_to(big, small.shape),
        centres[arc_owner],
    ])
    targets = np.concatenate([x, x, small, arcs])
    d_big, d_small, d_inner, d_outer = np.split(
        m.dist_pairs(sources, targets), np.cumsum([len(x), len(x), len(small)])
    )
    c = _scored(bp, cands, d_big, d_small)
    inner = d_inner <= R + 1e-12
    outer = d_outer <= r + 1e-12
    near, near_owner = _far_points(c)
    chord_owner, chord_slot = np.nonzero(c.margins[:, _CHORD] >= -BOUNDARY_TOL)
    chord_slot += _CHORD.start

    owners = np.concatenate([near_owner, small_owner[inner], arc_owner[outer], chord_owner])
    points = np.concatenate([near, small[inner], arcs[outer], c.ends[chord_owner, chord_slot]])
    order = np.argsort(owners, kind="stable")
    counts = np.bincount(owners, minlength=n)
    if not np.all(counts):
        raise TangencyError(
            "no lens samples found although t <= R + r; either a tangency "
            "or an integration defect"
        )
    return np.split(points[order], np.cumsum(counts)[:-1])


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


def _ascend_pair(bp: BallPair, p: np.ndarray, q: np.ndarray):
    """Projected geodesic ascent of d(p, q) within the lens.

    Each endpoint moves along the outward unit tangent of the connecting
    minimizing geodesic (the distance gradient), then is retracted into the
    lens; the step halves whenever no endpoint improves, and ascent stops at
    improvement below ``ASCENT_IMPROVE_TOL`` or after ``ASCENT_MAX_ITER``
    rounds.
    """
    m = bp.manifold
    if m.dist_coords(bp.center_big(), p) > bp.convexity_bound + 1e-6:
        raise DefectError("ascent witness left the convexity chart")
    d = m.dist_coords(p, q)
    step = 0.05 * bp.r
    cap = 0.25 * bp.r
    floor = 1e-7 * bp.r  # quadratic blocking makes smaller steps sub-1e-10 gains
    for _ in range(ASCENT_MAX_ITER):
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
    This is the one-row case of the grid pass of :func:`w_profile`
    (``_exact_widths`` over :func:`_candidates_at`).

    Otherwise the value is the farthest pair of the sampled cloud (the
    cloud's memoised ``diameter_with_witness``), a lower bound with slack
    2 * fill.  The cloud is ``cloud``, which must be a boundary cloud of
    :func:`_sample_lenses` (or :func:`sample_intersection`) for this lens,
    or one drawn at ``budget`` and ``seed``; such a cloud carries every
    admissible candidate, so its farthest pair is never below one.  With
    ``refine`` the projected ascent then polishes the pair where the
    candidates are not known to attain the diameter: on a model without
    closed forms, or for R at or beyond the convexity radius.  The ascent
    only keeps moves that lengthen the pair.  ``refine=False`` never runs
    the ascent and returns the sampled value alone, an independent
    cross-check of the refined one.  On a model without closed forms the
    farthest-pair scan of :mod:`geolens._kernels` shoots one geodesic per
    pair, so it fails fast with ``ConfigError`` on a cloud of n points with
    n * n over ``SLOW_PAIR_LIMIT``.
    """
    if bp.touching:
        contact = bp.line.coords_at(bp.R)
        return LensDiameter(0.0, contact, contact, 0.0)
    if bp.exact and cloud is None:
        w, slack, wa, wb = _exact_widths(bp.manifold, _candidates_at(bp, [bp.t]))
        return LensDiameter(float(w[0]), wa[0], wb[0], float(slack[0]))
    if cloud is None:
        cloud = sample_intersection(bp, budget, seed)
    d, (i, j) = diameter_with_witness(cloud)
    p, q = cloud.points[i], cloud.points[j]
    if refine and not bp.exact:
        p, q, d = _ascend_pair(bp, p.copy(), q.copy())
    return LensDiameter(float(d), p, q, 2.0 * cloud.fill_radius)


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
        """T_est and S_est with their uncertainties: a rounding bound on an
        exact pair, where both are the model's Pythagorean leg, else the
        resolution of the bisection."""
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
        table = np.column_stack([self.ts, self.w, self.slack, self.witness_a, self.witness_b])
        for row, flag in zip(table.tolist(), self.nested_after_onset.tolist()):
            lines.append(",".join(map(repr, row)) + f",{int(flag)}")
        atomic_write(path, "\n".join(lines) + "\n")


def _nesting_scan(bp: BallPair, ts: np.ndarray, budget: int, seed: int):
    """Per grid separation, the lens points the nesting test reads,
    concatenated for scanning with the index of their separation: on an
    exact pair the points that can be farthest from an axis point (the axis
    ends and corners inside the lens, or the contact point), else the
    sampled cloud at ``budget`` and ``seed``, all from one sampling pass
    (``_sample_lenses``)."""
    if bp.exact:
        return _far_points(_candidates_at(bp, ts, chords=False))
    clouds = _sample_lenses(bp, ts, budget, seed)
    owners = np.repeat(np.arange(len(ts)), [len(cloud) for cloud in clouds])
    return np.vstack([cloud.points for cloud in clouds]), owners


def _far_points(c: _Candidates):
    """The axis ends and corners inside each lens of the candidates ``c``,
    or the contact point of a touching one, in the order of a lens-by-lens
    scan, with their owners: the exact nesting scan of a grid, and the
    first rows of each sampled cloud (:func:`_lens_points`)."""
    near = slice(0, _CHORD.start)
    owners, slot = np.nonzero(c.present[:, near] & (c.margins[:, near] >= -BOUNDARY_TOL))
    return c.ends[owners, slot], owners


def lens_gaps(bp: BallPair, s, t) -> np.ndarray:
    """H(L_s, L_t) of the lenses at each pair ``s[i]``, ``t[i]`` of
    separations of an exact pair, read at the far points
    (:func:`_far_points`) of both lenses in one pass.

    Both lenses lie in A = D_R(gamma(0)), so the point y of L_t nearest to
    a point x of A outside L_t is never inside L_t's big arc: it is the
    radial projection of x onto the circle of L_t's small ball, at distance
    d(x, gamma(t)) - r, when that projection lies in A, else the corner of
    L_t on x's side of the axis, the nearer one.

    Why the far points suffice: off L_t, f = d(., L_t) is C^1 with a unit
    gradient pointing away from y.  So f peaks on the boundary of L_s, and
    at a point x inside an arc of centre c (gamma(0) or gamma(s)) the
    gradient is the arc's outward normal: c and y lie on the geodesic
    through x, behind it.  If y is a radial projection, gamma(t) lies there
    too; unless it is c (then f is constant along the arc) the geodesic is
    the axis, and x an axis end.  If y is a corner, strictly on x's side of
    the axis, it lies short of c, where the geodesic meets the axis:
    strictly inside the arc's disk.  A corner lies on the circle of D_R, so
    that is the small arc, and x the arc point nearest y; near x, f =
    d(., y) (x is off the geodesic from gamma(t) through y, which would be
    the axis), so f is smallest there along the arc, not largest.  So f
    peaks on L_s at an axis end or a corner.  A touching lens is its
    contact point.

    On the closed-form models the geodesic from y to x runs in the plane of
    y, x and the chart origin (a line in Euclidean space), so the first
    vector of the tangent frame at y along x - y points at x: the radial
    projections are one ``tangent_frames`` and one ``exp_pairs``.
    """
    m, r = bp.manifold, bp.r
    s, t = np.asarray(s, dtype=np.float64), np.asarray(t, dtype=np.float64)
    n = len(s)
    c = _candidates_at(bp, np.concatenate([s, t]), chords=False)
    x, owners = _far_points(c)
    other = (owners + n) % (2 * n)
    centres = bp.line.coords_many(c.ts)[other]
    gaps = np.maximum(m.dist_pairs(centres, x) - r, 0.0)
    corner = c.present[other, _CORNERS.start] & (gaps > 0.0)
    if np.any(corner):
        y = centres[corner]
        toward = m.tangent_frames(y, x[corner] - y)[:, 0]
        projection = m.exp_pairs(y, r * toward)
        corner[corner] = m.dist_many(bp.center_big(), projection) > bp.R
        ends = c.ends[other[corner], _CORNERS]
        gaps[corner] = np.minimum(
            m.dist_pairs(ends[:, 0], x[corner]), m.dist_pairs(ends[:, 1], x[corner])
        )
    touching = c.touching[other]
    gaps[touching] = m.dist_pairs(c.ends[other[touching], 0], x[touching])
    directed = np.zeros(2 * n)
    np.maximum.at(directed, owners, gaps)
    return np.maximum(directed[:n], directed[n:])


# (separation, point) rows that one round of a lockstep bisection tests at
# most: bounds its temporaries and the tests it makes off the loop's path
_BISECT_ROWS = 512
# levels one round lays out at most: a level doubles a round's tests and
# saves one step, and past 31 tests a step costs more (on 8 points, 2 vCPU:
# 9.7 us a step at 31 tests, 10.4 at 63, 11.8 at 127)
_BISECT_LEVELS = 5
# relative rounding of distances, far below any bracket's width, that the
# pruning of the onset's continuous phase allows for
_PRUNE_ROUNDING = 1e-9


def _levels(tests: int, depth: int) -> int:
    """Levels of the bisection tree per round for a bisection of about
    ``depth`` steps whose rounds make at most ``tests`` tests (a round of k
    levels makes 2**k - 1): as few rounds as that allows, of nearly equal
    sizes."""
    most = min(_BISECT_LEVELS, max(1, (max(1, tests) + 1).bit_length() - 1))
    depth = max(1, depth)
    rounds = -(-depth // most)
    return -(-depth // rounds)


def _bisect(lo, hi, midpoint, goes_low, levels: int, more=None, steps=math.inf):
    """The bracket [lo, hi] that the loop

        while more(lo, hi) and steps are left:
            mid = midpoint(lo, hi)
            lo, hi = (lo, mid) if goes_low(mid) else (mid, hi)

    ends with, run in lockstep rounds.  A round lays out the next
    ``levels`` levels of the loop's tree of brackets, calls ``goes_low``
    once on all their midpoints (an array in, a bool array out) and then
    walks the tree.  Each midpoint is the loop's number and each test the
    loop's, so the bracket is the loop's.  ``more`` (by default always
    true) and ``midpoint`` take arrays of brackets as well.
    """
    while steps > 0 and (more is None or more(lo, hi)):
        # level by level, the low children of a level's brackets and then
        # the high ones: bracket i of m has children i and i + m
        los, his = np.array([lo]), np.array([hi])
        tree = []
        for _ in range(int(min(levels, steps))):
            live = None if more is None else more(los, his)
            if live is not None and not live.any():
                break
            mids = midpoint(los, his)
            tree.append((mids, live))
            los, his = np.concatenate([los, mids]), np.concatenate([mids, his])
        low = goes_low(np.concatenate([mids for mids, _ in tree]))
        node = first = 0
        for mids, live in tree:
            if live is not None and not live[node]:
                break
            if low[first + node]:
                hi = mids[node]
            else:
                lo = mids[node]
                node += len(mids)
            first += len(mids)
            steps -= 1
    return lo, hi


def _halve(lo, hi):
    return 0.5 * (lo + hi)


def _later_distances(bp: BallPair, s, points, point_ts) -> np.ndarray:
    """(len(s), len(points)): the distance from gamma(s) to each scan point
    of a later lens (``point_ts > s + 1e-15``), -inf for the others.  One
    ``coords_many`` and one ``dist_pairs`` over every (separation, point)
    pair, each with the bits of a ``dist_many`` from gamma(s)."""
    d = bp.manifold.dist_pairs(bp.line.coords_many(s)[:, None, :], points)
    return np.where(point_ts > (s + 1e-15)[:, None], d, -np.inf)


def _nested(bp: BallPair, d) -> np.ndarray:
    """The nesting test of each row of :func:`_later_distances`: every
    point of a later lens lies within r + ``NESTING_SLACK`` of gamma(s);
    true where there is none."""
    return np.max(d, axis=1, initial=-np.inf) <= bp.r + NESTING_SLACK


def estimate_nesting_onset(
    bp: BallPair,
    n_grid: int = 1001,
    budget: int = 512,
    seed: int = 0,
    scan: tuple[np.ndarray, np.ndarray] | None = None,
) -> ThresholdEstimate:
    """Smallest separation s after which all later lenses nest into D_r(gamma(s)).

    :func:`w_profile` bisects it on the pairs that are not exact; on an
    exact pair it reads the model's Pythagorean leg, and this bisection is
    the cross-check :func:`bisected_thresholds`.

    Grid form of the defining test: for every grid t >= s, the lens at t must
    lie within r + ``NESTING_SLACK`` of gamma(s).  On an exact pair the test
    reads the axis ends and corners of each lens, where the distance to
    gamma(s) peaks; elsewhere every point of a cloud sampled at ``budget``.
    The flip index is located by bisection over the grid, then refined by
    30 continuous bisection steps between the last failing and first
    passing grid values.  Reported with the grid resolution as its
    uncertainty.  ``scan`` is the ``_nesting_scan`` of this grid, budget and
    seed (points sorted by owner), when the caller has it.

    Both bisections run in lockstep rounds (``_bisect``) of tests batched
    by ``_later_distances`` and sized by ``_BISECT_ROWS``, with the bits of
    the step-by-step loops.  In the continuous phase d(gamma(s), p) is
    1-Lipschitz in s: before each round, a point more than twice the
    bracket below the farthest point that every test reads, seen from the
    bracket's low end, can never be the farthest and is dropped.  So the
    rounds stay few however fine the grid.
    """
    if n_grid < 2:
        raise ValueError("n_grid must have at least 2 points")
    ts = np.linspace(0.0, bp.R + bp.r, n_grid)
    h = ts[1] - ts[0]
    points, owners = _nesting_scan(bp, ts, budget, seed) if scan is None else scan
    point_ts = ts[owners]

    def nested(s):
        # the scan is sorted by owner: only the points after the smallest s
        # can enter a test
        k = np.searchsorted(point_ts, np.min(s) + 1e-15, side="right")
        return _nested(bp, _later_distances(bp, s, points[k:], point_ts[k:]))

    if nested(ts[:1])[0]:
        return ThresholdEstimate(0.0, h)
    _, hi_idx = _bisect(
        0,
        n_grid - 1,
        lambda lo, hi: (lo + hi) // 2,
        lambda mids: nested(ts[mids]),
        _levels(_BISECT_ROWS // max(1, len(points)), (n_grid - 2).bit_length()),
        more=lambda lo, hi: hi - lo > 1,
    )
    lo, hi = ts[hi_idx - 1], ts[hi_idx]
    # every test of the 30 steps reads part of the points after lo, and all
    # of those after the last midpoint of the path that always goes high,
    # which is the largest midpoint of any path
    last = lo
    for _ in range(30):
        last = _halve(last, hi)
    later = point_ts > lo + 1e-15
    points, point_ts = points[later], point_ts[later]
    always = point_ts > last + 1e-15
    d_lo = bp.manifold.dist_many(bp.line.coords_at(lo), points)
    steps = 30
    while steps:
        if np.any(always):
            top = np.max(d_lo[always])
            keep = ~(d_lo < top - 2.0 * (hi - lo) - _PRUNE_ROUNDING * (1.0 + top))
            points, point_ts, always, d_lo = points[keep], point_ts[keep], always[keep], d_lo[keep]
        tested = {}

        def test(mids):
            d = _later_distances(bp, mids, points, point_ts)
            tested.update(zip(mids.tolist(), d))
            return _nested(bp, d)

        levels = _levels(_BISECT_ROWS // max(1, len(points)), steps)
        lo, hi = _bisect(lo, hi, _halve, test, levels, steps=levels)
        # the next round prunes from the distances of its low end, tested
        # in this round unless the low end stayed
        d_lo = tested.get(float(lo), d_lo)
        steps -= levels
    return ThresholdEstimate(0.5 * (lo + hi), h)


def estimate_full_width_end(ts: np.ndarray, passing, full_width, batch: int = 1) -> ThresholdEstimate:
    """Largest separation at which the lens keeps its full width 2r.

    :func:`w_profile` bisects it on sampled widths on the pairs that are
    not exact; on an exact pair it reads the model's Pythagorean leg, and
    the bisection on chord margins is the cross-check
    :func:`bisected_thresholds`.

    ``ts`` is the uniform grid over [0, R + r], ``passing`` says per grid
    point whether the lens has full width there, and ``full_width(mids) ->
    bools`` decides the bisection steps at an array of separations (it
    takes an array even when ``batch`` is 1).  The last passing grid point
    and its successor bracket a bisection refined to 1e-4 (R + r), reported
    as the uncertainty.  The bisection runs in lockstep rounds
    (``_bisect``) that call ``full_width`` on at most ``batch``
    separations; with ``batch`` 1 it is the step-by-step loop.
    """
    h = ts[1] - ts[0]
    passing = np.flatnonzero(passing)
    if len(passing) == 0:
        return ThresholdEstimate(0.0, h)
    i = int(passing[-1])
    if i == len(ts) - 1:
        return ThresholdEstimate(float(ts[i]), h)
    target = max(1e-4 * float(ts[-1]), 1e-12)
    depth = max(1, math.ceil(math.log2((ts[i + 1] - ts[i]) / target)))
    lo, hi = _bisect(
        ts[i],
        ts[i + 1],
        _halve,
        lambda mids: ~np.asarray(full_width(mids), dtype=bool),
        _levels(batch, depth),
        more=lambda lo, hi: hi - lo > target,
    )
    return ThresholdEstimate(0.5 * (lo + hi), max(target, 0.5 * (hi - lo)))


def w_profile(
    bp: BallPair,
    grid: int = DEFAULT_GRID,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> WProfile:
    """Profile the lens width over a uniform separation grid.

    Evaluates the diameter at each grid separation and checks the witnesses
    of every row at once (``check_witnesses``), finds the nesting onset and
    the end of the full-width plateau, and flags which grid points nest
    into the lens at the onset.

    An exact pair draws no cloud and runs one grid pass
    (``_candidates_at``): the candidates of every separation (their frames
    from one ``tangent_frames``), their margins and each row's best pair
    (one ``dist_pairs``) give the widths, and the axis ends and corners
    inside the lenses are the nesting scan.  Both thresholds are the
    model's Pythagorean leg (``Manifold.pythagorean_leg``), with its
    rounding bound as their uncertainty (see the module docstring); the
    grid bisections run there only as the cross-check
    :func:`bisected_thresholds`.  Elsewhere the width clouds are one
    sampling pass (``_sample_lenses``), as is the onset scan, the onset
    bisects on that scan and each plateau step samples its lens.  The
    flags read the scan's distances to the anchor in one call.  Every
    number has the bits of a lens-by-lens, step-by-step evaluation.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    m = bp.manifold
    ts = np.linspace(0.0, bp.R + bp.r, grid)
    if bp.exact:
        c = _candidates_at(bp, ts)
        w, slack, wa, wb = _exact_widths(m, c)
        check_witnesses(bp, ts, w, wa, wb)
        scan = _far_points(c)
        onset = full_end = ThresholdEstimate(*m.pythagorean_leg(bp.R, bp.r))
    else:
        clouds = _sample_lenses(bp, ts, budget, seed)
        rows = [
            lens_diameter(bp.with_separation(float(t)), cloud=cloud)
            for t, cloud in zip(ts, clouds)
        ]
        w = np.array([res.value for res in rows])
        slack = np.array([res.slack for res in rows])
        wa = np.array([res.witness_a for res in rows])
        wb = np.array([res.witness_b for res in rows])
        check_witnesses(bp, ts, w, wa, wb)
        probe_budget = max(256, budget // 8)
        scan = _nesting_scan(bp, ts, probe_budget, seed)
        onset = estimate_nesting_onset(
            bp, n_grid=grid, budget=probe_budget, seed=seed, scan=scan
        )
        # w leaves 2r quadratically at the end, so the sampled test passes
        # for about sqrt(FULL_WIDTH_TOL / c) past it
        eval_budget = max(512, budget // 8)

        def full_width(mids):
            width = [lens_diameter(bp.with_separation(float(t)), eval_budget, seed).value for t in mids]
            return np.array(width) >= 2.0 * bp.r - FULL_WIDTH_TOL

        full_end = estimate_full_width_end(ts, w >= 2.0 * bp.r - FULL_WIDTH_TOL, full_width)

    # nesting flags against the first grid point at or after the onset, on
    # the points of the onset scan: one distance call, then a max per owner
    points, owners = scan
    anchor_idx = int(np.searchsorted(ts, onset.value - 1e-12))
    anchor_idx = min(anchor_idx, grid - 1)
    later = owners > anchor_idx
    dmax = np.full(grid, -np.inf)
    if np.any(later):
        anchor = bp.line.coords_at(ts[anchor_idx])
        np.maximum.at(dmax, owners[later], m.dist_many(anchor, points[later]))
    flags = np.zeros(grid, dtype=int)
    flags[anchor_idx + 1 :] = dmax[anchor_idx + 1 :] <= bp.r + NESTING_SLACK
    return WProfile(
        manifold_label=m.describe(),
        R=bp.R,
        r=bp.r,
        ts=ts,
        w=w,
        slack=slack,
        witness_a=wa,
        witness_b=wb,
        nested_after_onset=flags,
        nesting_onset=onset,
        full_width_end=full_end,
        seed=seed,
        budget=budget,
    )


def bisected_thresholds(
    bp: BallPair, grid: int, fine_grid: int, budget: int = 512, seed: int = 0
) -> tuple[ThresholdEstimate, ThresholdEstimate | None]:
    """Labelled cross-check of the thresholds that an exact profile reads
    from the model's Pythagorean leg: (nesting onset, plateau end), each
    found by its grid bisection.

    The onset is :func:`estimate_nesting_onset` on a grid of ``fine_grid``
    points (its scan sampled at ``budget`` and ``seed`` where the pair is
    not exact).  On an exact pair the plateau end is
    :func:`estimate_full_width_end` on the chord margins
    (``_chord_margins``) of the profile's grid of ``grid`` points, with the
    bits that :func:`w_profile` reported before it read the leg; elsewhere
    it is None, since the chord test is exact only there and the profile
    bisects the plateau on sampled widths itself.  ``geolens verify`` runs
    this; :func:`w_profile` never does.
    """
    onset = estimate_nesting_onset(bp, n_grid=fine_grid, budget=budget, seed=seed)
    if not bp.exact:
        return onset, None
    ts = np.linspace(0.0, bp.R + bp.r, grid)
    full_end = estimate_full_width_end(
        ts,
        _chord_margins(bp, ts) >= 0.0,
        lambda mids: _chord_margins(bp, mids) >= 0.0,
        _BISECT_ROWS // 2,
    )
    return onset, full_end
