"""Model Riemannian manifolds with closed-form or integrated geodesic calculus.

Three constant-curvature models (Euclidean space, the round sphere, hyperbolic
space) carry closed-form exponential and logarithm maps.  A fourth, numeric
model is a two-dimensional surface of revolution with metric
``du^2 + f(u)^2 dv^2``; its geodesics are integrated and its logarithm map is
solved by shooting.

Representations avoid chart singularities: sphere points are ambient vectors
of norm ``1/sqrt(k)``, hyperbolic points live on a hyperboloid sheet in
Minkowski coordinates (time component first), surface points are ``(u, v)``
pairs on the profile's closed interval.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from geolens._ode import SCAN_GRID_STEPS, dop853_rows
from geolens.errors import (
    ChartError,
    InjectivityError,
    OffManifoldError,
    ShootingError,
)

ON_MANIFOLD_TOL = 1e-10
# Newton iterations a surface shoot may take before it raises ShootingError
SHOOT_ITERATIONS = 60
# relative rounding error of ``Manifold.pythagorean_leg`` per unit of its
# condition number: a few roundings of 2**-53 through sqrt and asin
LEG_ROUNDING = 8.0 * 2.0**-52
# the built-in profile f(u) = offset + cos u on [u_min, u_max]
BUMP_U_MIN, BUMP_U_MAX, BUMP_OFFSET = -0.6, 0.6, 2.0


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point given in the model's global chart."""

    coords: np.ndarray

    def __repr__(self):
        return f"ManifoldPoint({np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector attached to a base point, in chart components."""

    base: ManifoldPoint
    components: np.ndarray

    def __repr__(self):
        return f"TangentVector(base={self.base!r}, components={np.array2string(self.components, precision=6)})"


def _as_coords(x):
    if isinstance(x, ManifoldPoint):
        return x.coords
    return np.asarray(x, dtype=np.float64)


def _dot(a, b):
    """The dot product over the last axis, broadcast over the others.  An
    element has the same bits alone, in a row block or in a pair block."""
    return np.einsum("...k,...k->...", a, b)


def _degenerate_nan(num, denom):
    """num / denom, elementwise over arrays; nan where |denom| < 1e-300."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(denom) < 1e-300, np.nan, np.divide(num, denom))[()]


def _diff_block(a, b):
    """``a[:, None, :] - b[None, :, :]`` for row blocks a (m, d) and b (n, d),
    built one coordinate at a time: each outer subtraction is a contiguous
    (m, n) loop, and every value is the same."""
    diff = np.empty((a.shape[0], b.shape[0], a.shape[1]))
    for k in range(a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=diff[:, :, k])
    return diff


class Manifold(ABC):
    """Common surface for the model spaces.

    The sampling machinery runs on the coordinate layer: the pair batches
    ``exp_pairs`` and ``dist_pairs`` and their one-source forms ``exp_many``
    and ``dist_many``.  The typed single-point operations (``point``,
    ``exp``, ``exp_with_velocity``, ``log``, ``distance``) are one-point
    conveniences over the coordinate routines: ``exp`` is the one-row case
    of ``exp_many`` and ``distance`` one row of ``dist_pairs``, so they
    check nothing the batches do not.  No command reaches them.

    Every closed-form formula is written once, with NumPy ufuncs and
    ``einsum``, which give an element the same bits alone or at any place
    of any array: so a batch, its one-row case and a lens-by-lens pass
    agree bit for bit.
    """

    kind: str = ""

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("dimension must be at least two")
        self.dim = dim

    # -- chart -------------------------------------------------------------

    @property
    @abstractmethod
    def ambient_dim(self) -> int:
        """Length of the coordinate vectors in the global chart."""

    @abstractmethod
    def point_violation(self, coords) -> float:
        """How far coords are from satisfying the model constraint."""

    @abstractmethod
    def project_tangent(self, base_coords, components) -> np.ndarray:
        """Project raw components onto the tangent space at the base point,
        or each row of a block at the same row of a block of points."""

    def check_point(self, coords):
        v = self.point_violation(_as_coords(coords))
        if v > ON_MANIFOLD_TOL:
            raise OffManifoldError(f"point violates {self.kind} constraint by {v:.3e}")

    def point(self, *coords) -> ManifoldPoint:
        arr = np.asarray(coords if len(coords) > 1 else coords[0], dtype=np.float64)
        if arr.shape != (self.ambient_dim,):
            raise OffManifoldError(
                f"{self.kind} expects {self.ambient_dim} coordinates, got {arr.shape}"
            )
        self.check_point(arr)
        return ManifoldPoint(arr)

    # -- metric ------------------------------------------------------------

    def inner_coords(self, base_coords, a_components, b_components) -> float:
        """Riemannian inner product of two tangent component vectors: the
        one-row case of :meth:`_inner_rows`."""
        return float(self._inner_rows(np.asarray(a_components), np.asarray(b_components)))

    def metric_inner(self, a: TangentVector, b: TangentVector) -> float:
        if a.base.coords is not b.base.coords and not np.array_equal(
            a.base.coords, b.base.coords
        ):
            raise ValueError("tangent vectors have different base points")
        self.check_point(a.base.coords)
        return float(self.inner_coords(a.base.coords, a.components, b.components))

    def norm(self, v: TangentVector) -> float:
        return math.sqrt(max(self.metric_inner(v, v), 0.0))

    # -- geodesic calculus ---------------------------------------------------

    @abstractmethod
    def exp_pairs(self, bases, tangents) -> np.ndarray:
        """Exponential map at each row of ``bases`` of the same row of an
        (n, ambient_dim) block of tangents; a single base point
        (ambient_dim,) stands for every row."""

    def exp_many(self, base_coords, tangents) -> np.ndarray:
        """Exponential map at one point of each row of an (n, ambient_dim)
        block of tangents: the pair batch with ``base_coords`` broadcast."""
        return self.exp_pairs(np.asarray(base_coords, dtype=np.float64), tangents)

    @abstractmethod
    def exp_velocity_coords(self, base_coords, components, t: float):
        """Point and velocity at parameter ``t`` of the geodesic with the
        given initial velocity (not necessarily unit).  For a nonzero
        velocity ``t`` may also be an (n, 1) column of parameters, giving
        (n, ambient_dim) blocks whose rows have the bits of scalar calls."""

    @abstractmethod
    def log_coords(self, p_coords, q_coords) -> np.ndarray:
        ...

    def dist_coords(self, p_coords, q_coords) -> float:
        """The distance between two points: the one-row case of
        :meth:`dist_pairs`."""
        return float(self.dist_pairs(np.asarray(p_coords)[None], np.asarray(q_coords)[None])[0])

    def dist_pairs(self, sources, targets) -> np.ndarray:
        """Distance between matching rows of two (n, ambient_dim) blocks,
        which broadcast: a single point (ambient_dim,) stands for every row,
        and (k, 1, ambient_dim) against (n, ambient_dim) gives all k * n
        pairs.  On a closed-form model, the distance of the pre-metric of
        the chart difference (:meth:`pre_sq`, :meth:`scan_dist`): a row's
        value does not depend on the other rows, and is the value the scans
        of :mod:`geolens._kernels` give its pair."""
        diff = np.asarray(targets, dtype=np.float64) - np.asarray(sources, dtype=np.float64)
        return self.scan_dist(self.pre_sq(diff))

    def dist_many(self, x_coords, points) -> np.ndarray:
        """Distances from one point to each row of an (n, ambient_dim) block:
        the pair batch with ``x_coords`` broadcast over the rows."""
        return self.dist_pairs(np.asarray(x_coords, dtype=np.float64), points)

    @abstractmethod
    def geodesic_acceleration(self, pos, vel) -> np.ndarray:
        """Right-hand side of the geodesic equation in chart coordinates."""

    def geodesic_rhs(self, state) -> np.ndarray:
        """The geodesic equation as a first-order system, on a state
        (..., 2 * ambient_dim) of positions followed by velocities."""
        d = self.ambient_dim
        out = np.empty_like(state)
        out[..., :d] = state[..., d:]
        out[..., d:] = self.geodesic_acceleration(state[..., :d], state[..., d:])
        return out

    def exp(self, v: TangentVector) -> ManifoldPoint:
        return ManifoldPoint(self.exp_many(v.base.coords, v.components[None, :])[0])

    def exp_with_velocity(self, v: TangentVector, t: float = 1.0):
        pt, vel = self.exp_velocity_coords(v.base.coords, v.components, t)
        point = ManifoldPoint(pt)
        return point, TangentVector(point, vel)

    def log(self, p, q) -> TangentVector:
        pc, qc = _as_coords(p), _as_coords(q)
        comp = self.log_coords(pc, qc)
        return TangentVector(ManifoldPoint(pc), comp)

    def distance(self, p, q) -> float:
        return float(self.dist_coords(_as_coords(p), _as_coords(q)))

    # -- frames and invariants ----------------------------------------------

    def tangent_basis(self, base_coords, primary=None) -> np.ndarray:
        """(dim, ambient_dim) metric-orthonormal frame at a point, ``primary``
        first: the one-row case of :meth:`tangent_frames`."""
        base = np.asarray(base_coords, dtype=np.float64)[None]
        if primary is not None:
            primary = np.asarray(primary, dtype=np.float64)[None]
        return self.tangent_frames(base, primary)[0]

    def tangent_frames(self, bases, primaries=None) -> np.ndarray:
        """Metric-orthonormal frames at the rows of ``bases``: an (n, dim,
        ambient_dim) block whose row i starts along ``primaries[i]``.

        Metric Gram-Schmidt over all rows at once.  The candidates are the
        primary, then the chart axes (``_frame_axes``), each projected onto
        the tangent space.  A row skips a candidate whose remainder has norm
        1e-12 or less and stops at ``dim`` vectors.  Every inner product is
        a row of ``_inner_rows``, so a row's frame does not depend on the
        other rows.  While every row has taken the same candidates one count
        serves them all; from the first candidate that some rows skip and
        others take, each row keeps its own count.
        """
        bases = np.atleast_2d(np.asarray(bases, dtype=np.float64))
        dim = self.dim
        axes = list(self._frame_axes())
        candidates = axes if primaries is None else [primaries] + axes
        # unfilled slots stay zero, so that with counts per row every row can
        # take every step and np.where keeps the rows that skip it
        frames = np.zeros((len(bases), dim, self.ambient_dim))
        size = 0
        for v in candidates:
            w = np.broadcast_to(self.project_tangent(bases, v), bases.shape)
            per_row = not isinstance(size, int)
            for k in range(size.max() if per_row else size):
                e = frames[:, k]
                step = w - self._inner_rows(w, e)[:, None] * e
                w = np.where((size > k)[:, None], step, w) if per_row else step
            norm = np.sqrt(np.maximum(self._inner_rows(w, w), 0.0))
            take = norm > 1e-12
            if not per_row and take.all():
                frames[:, size] = w / norm[:, None]
                size += 1
                if size == dim:
                    return frames
            elif per_row or take.any():
                size = size if per_row else np.full(len(bases), size)
                take &= size < dim
                frames[take, size[take]] = w[take] / norm[take, None]
                size += take
                if size.min() == dim:
                    return frames
        raise ValueError("could not complete a tangent basis")

    def _frame_axes(self) -> np.ndarray:
        """The chart directions the frames try after the primary."""
        return np.eye(self.ambient_dim)

    def _inner_rows(self, a, b) -> np.ndarray:
        """The metric inner product of matching rows of two tangent blocks,
        which broadcast.  Here the dot product of the chart, the metric of
        the plane and the sphere; a model with another metric overrides this
        or :meth:`tangent_frames`."""
        return _dot(a, b)

    def basepoint(self) -> ManifoldPoint:
        """A canonical point usable as a default geodesic anchor."""
        return ManifoldPoint(np.zeros(self.ambient_dim))

    # Length of the Jacobi scans of geolens.radii when the caller gives none.
    horizon: float = 8.0
    # Grid step of the model's numeric integrations: the step of the float
    # RK4 Jacobi scan on the closed forms; on the surface, the grid of its
    # radii scan, whose DOP853 steps span SCAN_GRID_STEPS to twice that.
    step: float = 2e-3

    def convexity_radius(self) -> float:
        """Closed-form convexity radius; numeric models have none."""
        raise NotImplementedError(
            f"{self.kind} has no closed-form convexity radius; certify one via the radii module"
        )

    def curvature_at(self, coords) -> float:
        """Sectional (Gauss) curvature at a point, where defined as a scalar."""
        raise NotImplementedError

    # -- metric circles and the lens corner ------------------------------------
    # The base class holds the flat formulas.  They are exact on Euclidean
    # space, and the numeric surface uses them as leading-order estimates.

    # True where the exponential map, the distance and the three formulas
    # below are exact (the constant-curvature models).
    closed_form: bool = False

    def circle_circumference(self, rho: float) -> float:
        """Length of the metric circle of geodesic radius rho in a 2-plane."""
        return 2.0 * math.pi * rho

    def disk_area(self, rho: float) -> float:
        """Area of the geodesic disk of radius rho in a 2-plane."""
        return math.pi * rho * rho

    def corner_cosine(self, R: float, r: float, t):
        """Law of cosines: cos of the angle at a center of the circle of radius
        R between the line to the other center (at distance t > 0) and a point
        where the two circles, of radii R and r, meet; elementwise over an
        array of separations t, each with the bits of its scalar call.  A
        value outside [-1, 1] means the circles do not meet; nan means the
        formula degenerates."""
        return (t * t + R * R - r * r) / (2.0 * t * R)

    def pythagorean_leg(self, R: float, r: float) -> tuple[float, float]:
        """The leg S of a right triangle with hypotenuse R and other leg
        r <= R, and a bound on its rounding error: S = sqrt(R^2 - r^2) here,
        cos R = cos r cos S on the sphere and cosh R = cosh r cosh S on
        hyperbolic space.  About gamma(S) the perpendicular chord of the
        ball of radius r ends on the circle of radius R about gamma(0), so S
        is where the full-width plateau of a lens ends and where it starts
        to nest.  Written in forms that stay accurate as r -> R, where S is
        0.

        The bound is ``LEG_ROUNDING`` times S times 1 plus the condition
        number of the form: a factor f(x) of it (a sine, a cosine, ...)
        turns the relative rounding of its argument into x f'(x) / f(x)
        times as much.  Flat, the form has no such factor."""
        leg = math.sqrt((R - r) * (R + r))
        return leg, LEG_ROUNDING * leg

    # -- distance ------------------------------------------------------------
    # A closed-form distance is a monotone function (``scan_dist``) of a
    # squared pre-metric of the chart difference (``pre_sq``).  The scans of
    # geolens._kernels reduce the pre-metric and map only the reduced values
    # to distances; ``dist_pairs`` maps every value.  The base class holds
    # the flat pair; the scans use these only where ``closed_form`` is True.

    def pre_sq(self, diff) -> np.ndarray:
        """Squared pre-metric of chart differences on the last axis; the
        same bits for a difference and its negation."""
        return _dot(diff, diff)

    def scan_sq(self, a, b) -> np.ndarray:
        """Squared pre-metric between row blocks a (m, d) and b (n, d).
        ``scan_sq(a, b)[i, j] == scan_sq(b, a)[j, i]`` bit for bit."""
        return self.pre_sq(_diff_block(a, b))

    def scan_dist(self, sq):
        """Distance from the squared pre-metric (monotone increasing)."""
        return np.sqrt(sq)

    def describe(self) -> str:
        return f"{self.kind}(dim={self.dim})"


class Euclidean(Manifold):
    """Flat space R^n with the standard inner product."""

    kind = "euclidean"
    closed_form = True

    @property
    def ambient_dim(self):
        return self.dim

    def point_violation(self, coords):
        return 0.0

    def project_tangent(self, base_coords, components):
        return np.asarray(components, dtype=np.float64)

    def exp_pairs(self, bases, tangents):
        return np.asarray(bases) + np.asarray(tangents, dtype=np.float64)

    def exp_velocity_coords(self, base_coords, components, t):
        c = np.asarray(components, dtype=np.float64)
        pt = np.asarray(base_coords) + t * c
        vel = np.empty_like(pt)
        vel[...] = c
        return pt, vel

    def log_coords(self, p, q):
        return np.asarray(q, dtype=np.float64) - np.asarray(p, dtype=np.float64)

    def geodesic_acceleration(self, pos, vel):
        return np.zeros_like(np.asarray(vel, dtype=np.float64))

    def convexity_radius(self):
        return math.inf

    def curvature_at(self, coords):
        return 0.0


class Sphere(Manifold):
    """Round sphere of constant curvature k > 0, radius 1/sqrt(k), in R^(n+1)."""

    kind = "sphere"
    closed_form = True

    def __init__(self, dim: int, curvature: float = 1.0):
        super().__init__(dim)
        if curvature <= 0:
            raise ValueError("sphere curvature must be positive")
        self.curvature = float(curvature)
        self.radius = 1.0 / math.sqrt(curvature)
        # past the conjugate radius pi * a, so that the scans reach it
        self.horizon = 1.25 * math.pi * self.radius

    @property
    def ambient_dim(self):
        return self.dim + 1

    def basepoint(self) -> ManifoldPoint:
        c = np.zeros(self.ambient_dim)
        c[0] = self.radius
        return ManifoldPoint(c)

    def normalize(self, coords) -> np.ndarray:
        """Scale coords onto the sphere (a test helper for building points)."""
        c = np.asarray(coords, dtype=np.float64)
        return self.radius * c / np.linalg.norm(c)

    def point_violation(self, coords):
        return abs(np.linalg.norm(coords) - self.radius)

    def project_tangent(self, base_coords, components):
        b = np.asarray(base_coords)
        c = np.asarray(components, dtype=np.float64)
        return c - (_dot(c, b) / self.radius**2)[..., None] * b

    def exp_pairs(self, bases, tangents):
        """cos(theta) x + a sin(theta) v / |v|, theta = |v| / a, for every row
        at once; a zero tangent's row is its base, bit for bit."""
        tg = np.atleast_2d(np.asarray(tangents, dtype=np.float64))
        norms = np.sqrt(np.add.reduce(tg * tg, axis=1))
        theta = norms / self.radius
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = tg / norms[:, None]
            out = np.cos(theta)[:, None] * bases + self.radius * np.sin(theta)[:, None] * unit
        return np.where((norms < 1e-300)[:, None], bases, out)

    def exp_velocity_coords(self, base_coords, components, t):
        base = np.asarray(base_coords)
        c = np.asarray(components, dtype=np.float64)
        speed = np.linalg.norm(c)
        if speed < 1e-300:
            return base.copy(), c.copy()
        unit = c / speed
        theta = t * speed / self.radius
        cos, sin = np.cos(theta), np.sin(theta)
        pt = cos * base + self.radius * sin * unit
        vel = speed * (-sin * base / self.radius + cos * unit)
        return pt, vel

    def log_coords(self, p, q):
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        d = self.dist_coords(p, q)
        if d < 1e-14:
            return np.zeros_like(p)
        if math.pi * self.radius - d < 1e-9 * self.radius:
            raise InjectivityError("log undefined at or beyond the antipode")
        w = q - (np.dot(p, q) / self.radius**2) * p
        return (d / np.linalg.norm(w)) * w

    def geodesic_acceleration(self, pos, vel):
        pos = np.asarray(pos, dtype=np.float64)
        vel = np.asarray(vel, dtype=np.float64)
        speed_sq = np.sum(vel * vel, axis=-1, keepdims=True)
        return -(speed_sq / self.radius**2) * pos

    def convexity_radius(self):
        return 0.5 * math.pi * self.radius

    def curvature_at(self, coords):
        return self.curvature

    def circle_circumference(self, rho):
        return 2.0 * math.pi * (self.radius * math.sin(rho / self.radius))

    def disk_area(self, rho):
        k = self.curvature
        return 2.0 * math.pi * (1.0 - math.cos(rho * math.sqrt(k))) / k

    def corner_cosine(self, R, r, t):
        a = self.radius
        return _degenerate_nan(
            math.cos(r / a) - math.cos(R / a) * np.cos(t / a),
            math.sin(R / a) * np.sin(t / a),
        )

    def pythagorean_leg(self, R, r):
        # 1 - cos S = (cos r - cos R) / cos r, each side a product of sines;
        # x cot x <= 1 for the sines, and the cosine's x tan x grows without
        # bound as r nears the convexity radius
        a = self.radius
        half = math.sin((R - r) / (2.0 * a)) * math.sin((R + r) / (2.0 * a))
        leg = 2.0 * a * math.asin(math.sqrt(half / math.cos(r / a)))
        return leg, LEG_ROUNDING * leg * (1.0 + r / a * math.tan(r / a))

    def scan_dist(self, sq):
        # sq is a sum of squares, so only the upper clip can act
        return 2.0 * self.radius * np.arcsin(np.minimum(np.sqrt(sq) / (2.0 * self.radius), 1.0))

    def describe(self):
        return f"sphere(dim={self.dim}, curvature={self.curvature:g})"


class Hyperbolic(Manifold):
    """Hyperbolic space of constant curvature k < 0 on a hyperboloid sheet.

    Coordinates are Minkowski with the time component first:
    <x, y> = -x0*y0 + sum_i xi*yi, and the sheet is <x, x> = -1/|k|, x0 > 0.
    """

    kind = "hyperbolic"
    closed_form = True

    def __init__(self, dim: int, curvature: float = -1.0):
        super().__init__(dim)
        if curvature >= 0:
            raise ValueError("hyperbolic curvature must be negative")
        self.curvature = float(curvature)
        self.radius = 1.0 / math.sqrt(-curvature)

    @property
    def ambient_dim(self):
        return self.dim + 1

    def basepoint(self) -> ManifoldPoint:
        c = np.zeros(self.ambient_dim)
        c[0] = self.radius
        return ManifoldPoint(c)

    def minkowski(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return _dot(x[..., 1:], y[..., 1:]) - x[..., 0] * y[..., 0]

    def normalize(self, spatial) -> np.ndarray:
        """Lift spatial coordinates onto the sheet (a test helper for
        building points)."""
        s = np.asarray(spatial, dtype=np.float64)
        x0 = math.sqrt(self.radius**2 + float(np.dot(s, s)))
        return np.concatenate(([x0], s))

    def point_violation(self, coords):
        coords = np.asarray(coords)
        if coords[0] <= 0:
            return math.inf
        return abs(float(self.minkowski(coords, coords)) + self.radius**2) / self.radius**2

    def project_tangent(self, base_coords, components):
        b = np.asarray(base_coords, dtype=np.float64)
        c = np.asarray(components, dtype=np.float64)
        return c + (self._inner_rows(c, b) / self.radius**2)[..., None] * b

    def exp_pairs(self, bases, tangents):
        """cosh(theta) x + a sinh(theta) v / |v|, theta = |v| / a, for every
        row at once; a zero tangent's row is its base, bit for bit."""
        tg = np.atleast_2d(np.asarray(tangents, dtype=np.float64))
        norms = np.sqrt(np.maximum(self.minkowski(tg, tg), 0.0))
        theta = norms / self.radius
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = tg / norms[:, None]
            out = np.cosh(theta)[:, None] * bases + self.radius * np.sinh(theta)[:, None] * unit
        return np.where((norms < 1e-300)[:, None], bases, out)

    def exp_velocity_coords(self, base_coords, components, t):
        base = np.asarray(base_coords)
        c = np.asarray(components, dtype=np.float64)
        speed = math.sqrt(max(float(self.minkowski(c, c)), 0.0))
        if speed < 1e-300:
            return base.copy(), c.copy()
        unit = c / speed
        theta = t * speed / self.radius
        cosh, sinh = np.cosh(theta), np.sinh(theta)
        pt = cosh * base + self.radius * sinh * unit
        vel = speed * (sinh * base / self.radius + cosh * unit)
        return pt, vel

    def log_coords(self, p, q):
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        d = self.dist_coords(p, q)
        if d < 1e-14:
            return np.zeros_like(p)
        theta = d / self.radius
        w = q + (float(self.minkowski(p, q)) / self.radius**2) * p
        wnorm = self.radius * math.sinh(theta)
        return (d / wnorm) * w

    def geodesic_acceleration(self, pos, vel):
        pos = np.asarray(pos, dtype=np.float64)
        vel = np.asarray(vel, dtype=np.float64)
        speed_sq = self.minkowski(vel, vel)
        return (np.asarray(speed_sq)[..., None] / self.radius**2) * pos

    def _frame_axes(self):
        # the spatial axes: their projections span every tangent space
        return np.eye(self.ambient_dim)[1:]

    def _inner_rows(self, a, b):
        return self.minkowski(a, b)

    def convexity_radius(self):
        return math.inf

    def curvature_at(self, coords):
        return self.curvature

    def circle_circumference(self, rho):
        return 2.0 * math.pi * (self.radius * math.sinh(rho / self.radius))

    def disk_area(self, rho):
        k = -self.curvature
        return 2.0 * math.pi * (math.cosh(rho * math.sqrt(k)) - 1.0) / k

    def corner_cosine(self, R, r, t):
        a = self.radius
        return _degenerate_nan(
            math.cosh(R / a) * np.cosh(t / a) - math.cosh(r / a),
            math.sinh(R / a) * np.sinh(t / a),
        )

    def pythagorean_leg(self, R, r):
        # cosh S - 1 = (cosh R - cosh r) / cosh r, each side a product of
        # sinhs; x coth x <= 1 + x and x tanh x <= x sum to 2 + (R + r) / a
        a = self.radius
        half = math.sinh((R - r) / (2.0 * a)) * math.sinh((R + r) / (2.0 * a))
        leg = 2.0 * a * math.asinh(math.sqrt(half / math.cosh(r / a)))
        return leg, LEG_ROUNDING * leg * (1.0 + (R + r) / a)

    def pre_sq(self, diff):
        # the Minkowski square, clipped at 0: rounding can take it below
        return np.maximum(self.minkowski(diff, diff), 0.0)

    def scan_dist(self, sq):
        return 2.0 * self.radius * np.arcsinh(np.sqrt(sq) / (2.0 * self.radius))

    def describe(self):
        return f"hyperbolic(dim={self.dim}, curvature={self.curvature:g})"


@dataclass(frozen=True)
class RevolutionProfile:
    """Profile f > 0 of a surface of revolution, with first two derivatives.

    ``jet(u)`` evaluates the profile once: it takes a NumPy array (or a
    scalar) u and returns the three arrays (f(u), f'(u), f''(u)), each of
    u's shape.  :meth:`f`, :meth:`df` and :meth:`d2f` read one part of it,
    so each profile formula is written once.  ``check_domain`` raises
    :class:`ChartError` on queries outside [u_min, u_max].  A profile whose
    domain is empty, or whose f is not positive on it, raises ``ValueError``.
    """

    jet: Callable
    u_min: float
    u_max: float

    def __post_init__(self):
        if not self.u_min < self.u_max:
            raise ValueError(f"u_min = {self.u_min:g} must be below u_max = {self.u_max:g}")
        probe = np.linspace(self.u_min, self.u_max, 64)
        if np.any(np.asarray(self.f(probe)) <= 0):
            raise ValueError("profile must be positive on its domain")

    def f(self, u):
        return self.jet(u)[0]

    def df(self, u):
        return self.jet(u)[1]

    def d2f(self, u):
        return self.jet(u)[2]

    def check_domain(self, u):
        u = np.asarray(u)
        if np.any(u < self.u_min - 1e-12) or np.any(u > self.u_max + 1e-12):
            raise ChartError(
                f"u out of profile domain [{self.u_min:g}, {self.u_max:g}]"
            )

    def in_domain(self, u):
        u = np.asarray(u)
        return (u >= self.u_min - 1e-12) & (u <= self.u_max + 1e-12)

    @classmethod
    def from_table(cls, u, f_values, df_values=None, d2f_values=None):
        """Build the jet from a sampled table via cubic splines."""
        from scipy.interpolate import CubicSpline

        u = np.asarray(u, dtype=np.float64)
        f_values = np.asarray(f_values, dtype=np.float64)
        if np.any(f_values <= 0):
            raise ValueError("profile values must be strictly positive")
        spl = CubicSpline(u, f_values)
        df = CubicSpline(u, df_values) if df_values is not None else spl.derivative()
        d2f = (
            CubicSpline(u, d2f_values)
            if d2f_values is not None
            else spl.derivative(2)
        )
        return cls(
            jet=lambda x: (spl(x), df(x), d2f(x)), u_min=float(u[0]), u_max=float(u[-1])
        )

    @classmethod
    def cosine_bump(cls, u_min=BUMP_U_MIN, u_max=BUMP_U_MAX, offset=BUMP_OFFSET):
        """Built-in analytic profile f(u) = offset + cos(u)."""

        def jet(u):
            c = np.cos(u)
            return offset + c, -np.sin(u), -c

        return cls(jet=jet, u_min=float(u_min), u_max=float(u_max))


class SurfaceOfRevolution(Manifold):
    """Numeric 2D surface of revolution with metric du^2 + f(u)^2 dv^2.

    Gauss curvature is K(u) = -f''(u)/f(u).  The exponential map integrates the
    geodesic equations with fixed-step DOP853.  The logarithm map and every
    distance solve the two-point problem by Newton shooting on (direction
    angle, arclength L), many (source, target) rows in lockstep: each iteration
    integrates the joint geodesic + Jacobi system (:meth:`jacobi_rhs`) of every
    row once, at unit speed over [0, L], and reads the exact Newton Jacobian
    off the end state.  The derivative of the endpoint along the direction
    angle is the Jacobi field j(L) n(L) (n the unit normal), and along L the
    unit end velocity.  Every batch, of exponentials, line points or shots,
    integrates each row in the row's own ``_n_steps``
    (:func:`geolens._ode.dop853_rows`): a row has the same bits whichever batch
    it is in.

    The conjugate and focal radii come from the radii scan
    (``radii._first_zeros_batch``), which integrates the same joint system
    over whole horizons.  Every integration on the surface takes the one
    step of :mod:`geolens._ode`, order-8 DOP853
    (:func:`geolens._ode.dop853_step`).  Exponentials, line points and
    shots take fixed steps of at most :data:`geolens._ode.SCAN_GRID_STEPS`
    steps of the grid ``step``.  The radii scan sizes each row's steps,
    whole numbers of grid steps from that to twice that, from the embedded
    error estimate of the row's Jacobi field, and places its zeros and
    chart exits on the grid.
    """

    kind = "surface_of_revolution"

    def __init__(
        self, profile: RevolutionProfile, step: float = Manifold.step, horizon: float = 16.0
    ):
        super().__init__(2)
        if not (math.isfinite(step) and step > 0):
            raise ValueError(f"step = {step!r} must be finite and > 0")
        self.profile = profile
        self.step = float(step)
        self.horizon = float(horizon)

    @property
    def ambient_dim(self):
        return 2

    def basepoint(self) -> ManifoldPoint:
        u0 = 0.0
        if not (self.profile.u_min <= 0.0 <= self.profile.u_max):
            u0 = 0.5 * (self.profile.u_min + self.profile.u_max)
        return ManifoldPoint(np.array([u0, 0.0]))

    def point_violation(self, coords):
        u = np.asarray(coords)[0]
        if self.profile.in_domain(u):
            return 0.0
        return float(max(self.profile.u_min - u, u - self.profile.u_max))

    def project_tangent(self, base_coords, components):
        return np.asarray(components, dtype=np.float64)

    def inner_coords(self, base_coords, a, b):
        u = np.asarray(base_coords)[0]
        self.profile.check_domain(u)
        fu = float(self.profile.f(u))
        return float(a[0] * b[0] + fu * fu * a[1] * b[1])

    @staticmethod
    def _acceleration(f, fp, du, dv):
        """The geodesic acceleration (u'', v'') of velocity (du, dv), from f
        and f' at u: f f' dv dv and -2 (f'/f) du dv, each left to right."""
        return f * fp * dv * dv, fp / f * -2.0 * du * dv

    def geodesic_acceleration(self, pos, vel):
        pos = np.asarray(pos, dtype=np.float64)
        vel = np.asarray(vel, dtype=np.float64)
        f, fp, _ = self.profile.jet(pos[..., 0])
        acc = np.empty_like(vel)
        acc[..., 0], acc[..., 1] = self._acceleration(f, fp, vel[..., 0], vel[..., 1])
        return acc

    def jacobi_rhs(self, state):
        """The geodesic equation joined with the scalar Jacobi equation
        j'' = -K j, on a state (..., 6) of u, v, du, dv, j, j'.

        One profile jet at u gives both the geodesic acceleration and the
        Gauss curvature K = -f''/f, so j'' is written (f''/f) j.  u is
        clamped to the profile's domain, which leaves rows inside it
        unchanged; rows that leave it are the caller's to detect.  The
        derivative is a new array of the state's layout.
        """
        p = self.profile
        f, fp, fpp = p.jet(np.minimum(np.maximum(state[..., 0], p.u_min), p.u_max))
        out = np.empty_like(state)
        out[..., :2] = state[..., 2:4]
        out[..., 2], out[..., 3] = self._acceleration(f, fp, state[..., 2], state[..., 3])
        out[..., 4] = state[..., 5]
        out[..., 5] = fpp / f * state[..., 4]
        return out

    def _n_steps(self, span):
        """DOP853 steps over an arclength span, each at most
        ``SCAN_GRID_STEPS`` grid steps long; elementwise over arrays."""
        return np.maximum(1, np.ceil(np.abs(span) / (SCAN_GRID_STEPS * self.step)).astype(int))

    def exp_pairs(self, bases, tangents):
        """DOP853 integration of every row over [0, 1] in the ``_n_steps``
        of its tangent's length (:func:`dop853_rows`), so a row has the bits
        it has alone; a zero tangent takes no step."""
        base = np.asarray(bases, dtype=np.float64)
        tg = np.atleast_2d(np.asarray(tangents, dtype=np.float64))
        speeds = np.sqrt(
            tg[:, 0] ** 2 + np.asarray(self.profile.f(base[..., 0])) ** 2 * tg[:, 1] ** 2
        )
        span = float(np.max(speeds, initial=0.0))
        if span > self.horizon:
            raise ChartError(f"requested length {span:g} exceeds horizon {self.horizon:g}")
        n = np.where(speeds < 1e-300, 0, self._n_steps(speeds))
        state0 = np.concatenate([np.broadcast_to(base, tg.shape), tg], axis=1)
        end = dop853_rows(self.geodesic_rhs, state0, 1.0 / np.maximum(n, 1), n)
        self.profile.check_domain(end[:, 0])
        return end[:, :2]

    def exp_velocity_coords(self, base_coords, components, t):
        """DOP853 integration over [0, t] in ``_n_steps(|t| speed)`` steps;
        the rows of a column of ``t`` each take their own
        (:func:`dop853_rows`)."""
        base = np.asarray(base_coords, dtype=np.float64)
        c = np.asarray(components, dtype=np.float64)
        ts = np.reshape(np.asarray(t, dtype=np.float64), -1)
        state = np.tile(np.concatenate([base, c]), (len(ts), 1))
        speed = math.sqrt(self.inner_coords(base, c, c))
        if speed >= 1e-300:
            n = self._n_steps(np.abs(ts) * speed)
            state = dop853_rows(self.geodesic_rhs, state, ts / n, n)
            self.profile.check_domain(state[:, 0])
        if np.ndim(t) == 0:
            state = state[0]
        return state[..., :2], state[..., 2:]

    def unit_tangent(self, base_coords, angle: float) -> np.ndarray:
        """Unit tangent making the given angle with the u-axis."""
        u = np.asarray(base_coords)[0]
        fu = float(self.profile.f(u))
        return np.array([math.cos(angle), math.sin(angle) / fu])

    def _shoot_ends(self, p, angle, length):
        """End states (u, v, du, dv, j, j') of the unit-speed geodesics that
        leave the rows of p at the given angles, after arclength ``length``
        per row, with j(0) = 0 and j'(0) = 1.  Each row takes its own
        ``_n_steps(length)`` DOP853 steps (:func:`dop853_rows`), so its bits
        do not depend on the other rows of the batch."""
        state = np.zeros((len(p), 6))
        state[:, :2] = p
        state[:, 2] = np.cos(angle)
        state[:, 3] = np.sin(angle) / np.asarray(self.profile.f(p[:, 0]))
        state[:, 5] = 1.0
        n = self._n_steps(length)
        return dop853_rows(self.jacobi_rhs, state, length / n, n)

    def _residual(self, p, q, fbar, x):
        """Shooting residuals (u miss, v miss scaled by f at the mean u) of
        the (angle, length) rows x, and their (n, 2, 2) Jacobians."""
        end = self._shoot_ends(p, x[:, 0], x[:, 1])
        u, v, du, dv, j = end[:, 0], end[:, 1], end[:, 2], end[:, 3], end[:, 4]
        f = np.asarray(self.profile.f(u))
        res = np.column_stack([u - q[:, 0], (v - q[:, 1]) * fbar])
        # d end / d angle = j(L) n(L) with the unit normal n = (-f dv, du / f);
        # d end / d L = (du, dv), the unit end velocity
        jac = np.empty((len(x), 2, 2))
        jac[:, 0, 0] = -j * f * dv
        jac[:, 1, 0] = j * du / f * fbar
        jac[:, 0, 1] = du
        jac[:, 1, 1] = dv * fbar
        return res, jac

    def _shoot(self, p, q):
        """Newton shooting from each row of p to the same row of q, all rows
        in lockstep; a row leaves the batch once it converges.  Returns the
        (angle, length) rows of the initial unit direction and the arclength,
        (0, 0) where the points coincide."""
        p = np.asarray(p, dtype=np.float64).reshape(-1, 2)
        q = np.asarray(q, dtype=np.float64).reshape(-1, 2)
        fbar = np.asarray(self.profile.f(0.5 * (p[:, 0] + q[:, 0])), dtype=np.float64)
        du, dv = q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]
        length = np.hypot(du, fbar * dv)
        out = np.zeros((len(p), 2))
        rows = np.flatnonzero(length >= 1e-14)
        p, q, fbar = p[rows], q[rows], fbar[rows]
        x = np.column_stack([np.arctan2(fbar * dv[rows], du[rows]), length[rows]])
        tol = 1e-11 * np.maximum(1.0, length[rows])
        res, jac = self._residual(p, q, fbar, x)
        for _ in range(SHOOT_ITERATIONS):
            norm = np.linalg.norm(res, axis=1)
            done = norm < tol
            out[rows[done]] = x[done]
            live = ~done
            rows, p, q, fbar, tol, x, res, jac, norm = (
                a[live] for a in (rows, p, q, fbar, tol, x, res, jac, norm)
            )
            if not len(rows):
                return out
            try:
                delta = np.linalg.solve(jac, -res[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError as exc:
                bad = rows[np.argmin(np.abs(np.linalg.det(jac)))]
                raise ShootingError(f"singular shooting Jacobian in row {bad}") from exc
            # damp long steps; the chart is small and Newton overshoots hurt
            cap = 0.5 * np.maximum(0.2, x[:, 1])
            size = np.linalg.norm(delta, axis=1)
            long = size > cap
            delta[long] *= (cap[long] / size[long])[:, None]
            trial = x + delta
            trial[:, 1] = np.where(trial[:, 1] <= 0, 0.5 * x[:, 1], trial[:, 1])
            trial_res, trial_jac = self._residual(p, q, fbar, trial)
            # halve the step of each row that got worse, up to 8 times
            worse = np.flatnonzero(np.linalg.norm(trial_res, axis=1) > norm)
            for _ in range(8):
                if not len(worse):
                    break
                delta[worse] *= 0.5
                trial[worse] = x[worse] + delta[worse]
                trial_res[worse], trial_jac[worse] = self._residual(
                    p[worse], q[worse], fbar[worse], trial[worse]
                )
                worse = worse[np.linalg.norm(trial_res[worse], axis=1) > norm[worse]]
            x, res, jac = trial, trial_res, trial_jac
        raise ShootingError(
            f"no convergence in row {rows[0]} for endpoint {q[0]} "
            f"(residual {np.linalg.norm(res[0]):.3e})"
        )

    def log_coords(self, p, q):
        p = np.asarray(p, dtype=np.float64)
        angle, length = self._shoot(p, q)[0]
        return length * self.unit_tangent(p, angle)

    def dist_pairs(self, sources, targets):
        p, q = np.broadcast_arrays(
            np.asarray(sources, dtype=np.float64),
            np.atleast_2d(np.asarray(targets, dtype=np.float64)),
        )
        return np.abs(self._shoot(p, q)[:, 1]).reshape(p.shape[:-1])

    def tangent_frames(self, bases, primaries=None):
        """The frames in closed form: (du, dv) along the primary, normalised,
        then its rotation by a quarter turn; (1, 0), (0, 1/f) without one."""
        bases = np.atleast_2d(np.asarray(bases, dtype=np.float64))
        fu = np.asarray(self.profile.f(bases[:, 0]), dtype=np.float64)
        frames = np.zeros((len(bases), 2, 2))
        if primaries is None:
            frames[:, 0, 0] = 1.0
            frames[:, 1, 1] = 1.0 / fu
            return frames
        a, b = np.asarray(primaries, dtype=np.float64).T
        norm = np.sqrt(a * a + fu * fu * b * b)
        a, b = a / norm, b / norm
        frames[:, 0] = np.column_stack([a, b])
        frames[:, 1] = np.column_stack([-b * fu, a / fu])
        return frames

    def curvature_at(self, coords):
        return float(self.curvature_of_u(np.asarray(coords)[0]))

    def curvature_of_u(self, u):
        self.profile.check_domain(u)
        f, _, fpp = self.profile.jet(np.asarray(u))
        return -fpp / f

    def describe(self):
        return (
            f"surface_of_revolution(u in [{self.profile.u_min:g}, "
            f"{self.profile.u_max:g}], step={self.step:g})"
        )
