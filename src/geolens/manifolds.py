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

from geolens import _kernels
from geolens._ode import rk4_endpoint, rk4_trajectory
from geolens.errors import (
    ChartError,
    InjectivityError,
    OffManifoldError,
    ShootingError,
)

ON_MANIFOLD_TOL = 1e-10
ROUNDTRIP_TOL = 1e-8


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


def _gram_schmidt(vectors, inner, count):
    """Metric Gram-Schmidt; returns ``count`` orthonormal rows."""
    basis = []
    for v in vectors:
        w = np.array(v, dtype=np.float64)
        for b in basis:
            w = w - inner(w, b) * b
        norm = math.sqrt(max(inner(w, w), 0.0))
        if norm > 1e-12:
            basis.append(w / norm)
        if len(basis) == count:
            break
    if len(basis) != count:
        raise ValueError("could not complete a tangent basis")
    return np.array(basis)


class Manifold(ABC):
    """Common surface for the model spaces.

    Typed single-point operations (``exp``, ``log``, ``distance``, ...) wrap
    coordinate-level routines; the coordinate layer also exposes vectorized
    variants (``dist_many``, ``exp_many``) used by the sampling machinery.
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
        """Project raw components onto the tangent space at the base point."""

    def check_point(self, coords, tol=ON_MANIFOLD_TOL):
        v = self.point_violation(_as_coords(coords))
        if v > tol:
            raise OffManifoldError(f"point violates {self.kind} constraint by {v:.3e}")

    def point(self, *coords) -> ManifoldPoint:
        arr = np.asarray(coords if len(coords) > 1 else coords[0], dtype=np.float64)
        if arr.shape != (self.ambient_dim,):
            raise OffManifoldError(
                f"{self.kind} expects {self.ambient_dim} coordinates, got {arr.shape}"
            )
        self.check_point(arr)
        return ManifoldPoint(arr)

    def tangent(self, base, *components) -> TangentVector:
        base_pt = base if isinstance(base, ManifoldPoint) else self.point(base)
        arr = np.asarray(
            components if len(components) > 1 else components[0], dtype=np.float64
        )
        tangency = np.linalg.norm(arr - self.project_tangent(base_pt.coords, arr))
        if tangency > 1e-8 * max(1.0, np.linalg.norm(arr)):
            raise OffManifoldError(f"components not tangent (violation {tangency:.3e})")
        return TangentVector(base_pt, arr)

    # -- metric ------------------------------------------------------------

    @abstractmethod
    def inner_coords(self, base_coords, a_components, b_components) -> float:
        """Riemannian inner product of two tangent component vectors."""

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
    def exp_many(self, base_coords, tangents) -> np.ndarray:
        """Exponential map applied to an (n, ambient_dim) block of tangents."""

    @abstractmethod
    def exp_velocity_coords(self, base_coords, components, t: float):
        """Point and velocity at parameter ``t`` of the geodesic with the
        given initial velocity (not necessarily unit)."""

    @abstractmethod
    def log_coords(self, p_coords, q_coords) -> np.ndarray:
        ...

    @abstractmethod
    def dist_coords(self, p_coords, q_coords) -> float:
        ...

    @abstractmethod
    def dist_many(self, x_coords, points) -> np.ndarray:
        """Distances from one point to each row of an (n, ambient_dim) block."""

    @abstractmethod
    def geodesic_acceleration(self, pos, vel) -> np.ndarray:
        """Right-hand side of the geodesic equation in chart coordinates."""

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

    @abstractmethod
    def tangent_basis(self, base_coords, primary=None) -> np.ndarray:
        """(dim, ambient_dim) metric-orthonormal frame; ``primary`` first."""

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

    def corner_cosine(self, R: float, r: float, t: float) -> float | None:
        """Law of cosines: cos of the angle at a center of the circle of radius
        R between the line to the other center (at distance t > 0) and a point
        where the two circles, of radii R and r, meet.  A value outside [-1, 1]
        means the circles do not meet; None means the formula degenerates."""
        return (t * t + R * R - r * r) / (2.0 * t * R)

    # kernel routing: geometry code understood by the scan kernels, or None
    kernel_kind: int | None = None
    kernel_scale: float = 1.0

    def describe(self) -> str:
        return f"{self.kind}(dim={self.dim})"


class Euclidean(Manifold):
    """Flat space R^n with the standard inner product."""

    kind = "euclidean"
    kernel_kind = _kernels.EUCLIDEAN
    closed_form = True

    @property
    def ambient_dim(self):
        return self.dim

    def point_violation(self, coords):
        return 0.0

    def project_tangent(self, base_coords, components):
        return np.asarray(components, dtype=np.float64)

    def inner_coords(self, base_coords, a, b):
        return float(np.dot(a, b))

    def exp_many(self, base_coords, tangents):
        return np.asarray(base_coords) + np.asarray(tangents, dtype=np.float64)

    def exp_velocity_coords(self, base_coords, components, t):
        c = np.asarray(components, dtype=np.float64)
        return np.asarray(base_coords) + t * c, c.copy()

    def log_coords(self, p, q):
        return np.asarray(q, dtype=np.float64) - np.asarray(p, dtype=np.float64)

    def dist_coords(self, p, q):
        return float(np.linalg.norm(np.asarray(q) - np.asarray(p)))

    def dist_many(self, x, points):
        return np.linalg.norm(np.asarray(points) - np.asarray(x), axis=1)

    def geodesic_acceleration(self, pos, vel):
        return np.zeros_like(np.asarray(vel, dtype=np.float64))

    def tangent_basis(self, base_coords, primary=None):
        cands = []
        if primary is not None:
            cands.append(np.asarray(primary, dtype=np.float64))
        cands.extend(np.eye(self.dim))
        return _gram_schmidt(cands, lambda a, b: float(np.dot(a, b)), self.dim)

    def convexity_radius(self):
        return math.inf

    def curvature_at(self, coords):
        return 0.0

    def describe(self):
        return f"euclidean(dim={self.dim})"


class Sphere(Manifold):
    """Round sphere of constant curvature k > 0, radius 1/sqrt(k), in R^(n+1)."""

    kind = "sphere"
    kernel_kind = _kernels.SPHERE
    closed_form = True

    def __init__(self, dim: int, curvature: float = 1.0):
        super().__init__(dim)
        if curvature <= 0:
            raise ValueError("sphere curvature must be positive")
        self.curvature = float(curvature)
        self.radius = 1.0 / math.sqrt(curvature)
        self.kernel_scale = self.radius

    @property
    def ambient_dim(self):
        return self.dim + 1

    def basepoint(self) -> ManifoldPoint:
        c = np.zeros(self.ambient_dim)
        c[0] = self.radius
        return ManifoldPoint(c)

    def normalize(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=np.float64)
        return self.radius * c / np.linalg.norm(c)

    def point_violation(self, coords):
        return abs(np.linalg.norm(coords) - self.radius)

    def project_tangent(self, base_coords, components):
        b = np.asarray(base_coords)
        c = np.asarray(components, dtype=np.float64)
        return c - (np.dot(c, b) / self.radius**2) * b

    def inner_coords(self, base_coords, a, b):
        return float(np.dot(a, b))

    def exp_many(self, base_coords, tangents):
        base = np.asarray(base_coords)
        tg = np.atleast_2d(np.asarray(tangents, dtype=np.float64))
        norms = np.linalg.norm(tg, axis=1)
        theta = norms / self.radius
        out = np.empty_like(tg)
        small = norms < 1e-300
        safe = ~small
        out[small] = base
        if np.any(safe):
            unit = tg[safe] / norms[safe, None]
            out[safe] = (
                np.cos(theta[safe])[:, None] * base
                + self.radius * np.sin(theta[safe])[:, None] * unit
            )
        return out

    def exp_velocity_coords(self, base_coords, components, t):
        base = np.asarray(base_coords)
        c = np.asarray(components, dtype=np.float64)
        speed = np.linalg.norm(c)
        if speed < 1e-300:
            return base.copy(), c.copy()
        unit = c / speed
        theta = t * speed / self.radius
        pt = math.cos(theta) * base + self.radius * math.sin(theta) * unit
        vel = speed * (-math.sin(theta) * base / self.radius + math.cos(theta) * unit)
        return pt, vel

    def dist_coords(self, p, q):
        chord = np.linalg.norm(np.asarray(q) - np.asarray(p))
        return 2.0 * self.radius * math.asin(min(chord / (2.0 * self.radius), 1.0))

    def dist_many(self, x, points):
        chord = np.linalg.norm(np.asarray(points) - np.asarray(x), axis=1)
        return 2.0 * self.radius * np.arcsin(np.clip(chord / (2.0 * self.radius), 0.0, 1.0))

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

    def tangent_basis(self, base_coords, primary=None):
        base = np.asarray(base_coords)
        cands = []
        if primary is not None:
            cands.append(self.project_tangent(base, primary))
        for e in np.eye(self.ambient_dim):
            cands.append(self.project_tangent(base, e))
        return _gram_schmidt(cands, lambda a, b: float(np.dot(a, b)), self.dim)

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
        denom = math.sin(R / a) * math.sin(t / a)
        if abs(denom) < 1e-300:
            return None
        return (math.cos(r / a) - math.cos(R / a) * math.cos(t / a)) / denom

    def describe(self):
        return f"sphere(dim={self.dim}, curvature={self.curvature:g})"


class Hyperbolic(Manifold):
    """Hyperbolic space of constant curvature k < 0 on a hyperboloid sheet.

    Coordinates are Minkowski with the time component first:
    <x, y> = -x0*y0 + sum_i xi*yi, and the sheet is <x, x> = -1/|k|, x0 > 0.
    """

    kind = "hyperbolic"
    kernel_kind = _kernels.HYPERBOLOID
    closed_form = True

    def __init__(self, dim: int, curvature: float = -1.0):
        super().__init__(dim)
        if curvature >= 0:
            raise ValueError("hyperbolic curvature must be negative")
        self.curvature = float(curvature)
        self.radius = 1.0 / math.sqrt(-curvature)
        self.kernel_scale = self.radius

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
        return np.sum(x[..., 1:] * y[..., 1:], axis=-1) - x[..., 0] * y[..., 0]

    def normalize(self, spatial) -> np.ndarray:
        """Lift spatial coordinates onto the sheet."""
        s = np.asarray(spatial, dtype=np.float64)
        x0 = math.sqrt(self.radius**2 + float(np.dot(s, s)))
        return np.concatenate(([x0], s))

    def point_violation(self, coords):
        coords = np.asarray(coords)
        if coords[0] <= 0:
            return math.inf
        return abs(float(self.minkowski(coords, coords)) + self.radius**2) / self.radius**2

    def project_tangent(self, base_coords, components):
        b = np.asarray(base_coords)
        c = np.asarray(components, dtype=np.float64)
        return c + (float(self.minkowski(c, b)) / self.radius**2) * b

    def inner_coords(self, base_coords, a, b):
        return float(self.minkowski(a, b))

    def exp_many(self, base_coords, tangents):
        base = np.asarray(base_coords)
        tg = np.atleast_2d(np.asarray(tangents, dtype=np.float64))
        norms = np.sqrt(np.clip(self.minkowski(tg, tg), 0.0, None))
        theta = norms / self.radius
        out = np.empty_like(tg)
        small = norms < 1e-300
        safe = ~small
        out[small] = base
        if np.any(safe):
            unit = tg[safe] / norms[safe, None]
            out[safe] = (
                np.cosh(theta[safe])[:, None] * base
                + self.radius * np.sinh(theta[safe])[:, None] * unit
            )
        return out

    def exp_velocity_coords(self, base_coords, components, t):
        base = np.asarray(base_coords)
        c = np.asarray(components, dtype=np.float64)
        speed = math.sqrt(max(float(self.minkowski(c, c)), 0.0))
        if speed < 1e-300:
            return base.copy(), c.copy()
        unit = c / speed
        theta = t * speed / self.radius
        pt = math.cosh(theta) * base + self.radius * math.sinh(theta) * unit
        vel = speed * (math.sinh(theta) * base / self.radius + math.cosh(theta) * unit)
        return pt, vel

    def dist_coords(self, p, q):
        diff = np.asarray(q) - np.asarray(p)
        m = max(float(self.minkowski(diff, diff)), 0.0)
        return 2.0 * self.radius * math.asinh(math.sqrt(m) / (2.0 * self.radius))

    def dist_many(self, x, points):
        diff = np.asarray(points) - np.asarray(x)
        m = np.clip(self.minkowski(diff, diff), 0.0, None)
        return 2.0 * self.radius * np.arcsinh(np.sqrt(m) / (2.0 * self.radius))

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

    def tangent_basis(self, base_coords, primary=None):
        base = np.asarray(base_coords)
        cands = []
        if primary is not None:
            cands.append(self.project_tangent(base, primary))
        for e in np.eye(self.ambient_dim)[1:]:
            cands.append(self.project_tangent(base, e))

        def inner(a, b):
            return float(self.minkowski(a, b))

        return _gram_schmidt(cands, inner, self.dim)

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
        denom = math.sinh(R / a) * math.sinh(t / a)
        if abs(denom) < 1e-300:
            return None
        return (math.cosh(R / a) * math.cosh(t / a) - math.cosh(r / a)) / denom

    def describe(self):
        return f"hyperbolic(dim={self.dim}, curvature={self.curvature:g})"


@dataclass(frozen=True)
class RevolutionProfile:
    """Profile f > 0 of a surface of revolution, with first two derivatives.

    The evaluators must accept NumPy arrays.  Queries outside
    [u_min, u_max] raise :class:`ChartError`.
    """

    f: Callable
    df: Callable
    d2f: Callable
    u_min: float
    u_max: float

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
        """Build evaluators from a sampled table via cubic splines."""
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
        return cls(f=spl, df=df, d2f=d2f, u_min=float(u[0]), u_max=float(u[-1]))

    @classmethod
    def cosine_bump(cls, u_min=-0.6, u_max=0.6, offset=2.0):
        """Built-in analytic profile f(u) = offset + cos(u)."""
        return cls(
            f=lambda u: offset + np.cos(u),
            df=lambda u: -np.sin(u),
            d2f=lambda u: -np.cos(u),
            u_min=float(u_min),
            u_max=float(u_max),
        )


class SurfaceOfRevolution(Manifold):
    """Numeric 2D surface of revolution with metric du^2 + f(u)^2 dv^2.

    Gauss curvature is K(u) = -f''(u)/f(u).  The exponential map integrates
    the geodesic equations with fixed-step RK4; the logarithm map solves the
    two-point problem by Newton shooting on (direction angle, length).
    """

    kind = "surface_of_revolution"
    kernel_kind = None

    def __init__(self, profile: RevolutionProfile, step: float = 2e-3, horizon: float = 16.0):
        super().__init__(2)
        probe = np.linspace(profile.u_min, profile.u_max, 64)
        if np.any(np.asarray(profile.f(probe)) <= 0):
            raise ValueError("profile must be positive on its domain")
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

    def geodesic_acceleration(self, pos, vel):
        pos = np.asarray(pos, dtype=np.float64)
        vel = np.asarray(vel, dtype=np.float64)
        u = pos[..., 0]
        f = np.asarray(self.profile.f(u))
        fp = np.asarray(self.profile.df(u))
        du, dv = vel[..., 0], vel[..., 1]
        acc = np.empty_like(vel)
        acc[..., 0] = f * fp * dv * dv
        acc[..., 1] = -2.0 * (fp / f) * du * dv
        return acc

    def _rhs(self, state):
        # state (..., 4): u, v, du, dv
        pos, vel = state[..., :2], state[..., 2:]
        out = np.empty_like(state)
        out[..., :2] = vel
        out[..., 2:] = self.geodesic_acceleration(pos, vel)
        return out

    def _n_steps(self, span):
        return max(16, int(math.ceil(abs(span) / self.step)))

    def exp_many(self, base_coords, tangents):
        base = np.asarray(base_coords, dtype=np.float64)
        tg = np.atleast_2d(np.asarray(tangents, dtype=np.float64))
        speeds = np.sqrt(
            tg[:, 0] ** 2 + np.asarray(self.profile.f(base[0])) ** 2 * tg[:, 1] ** 2
        )
        span = float(np.max(speeds, initial=0.0))
        if span < 1e-300:
            return np.tile(base, (tg.shape[0], 1))
        if span > self.horizon:
            raise ChartError(f"requested length {span:g} exceeds horizon {self.horizon:g}")
        state0 = np.concatenate([np.tile(base, (tg.shape[0], 1)), tg], axis=1)
        _, ys = rk4_trajectory(self._rhs, state0, 1.0, self._n_steps(span))
        end = ys[-1]
        self.profile.check_domain(end[:, 0])
        return end[:, :2]

    def exp_velocity_coords(self, base_coords, components, t):
        base = np.asarray(base_coords, dtype=np.float64)
        c = np.asarray(components, dtype=np.float64)
        state0 = np.concatenate([base, c])
        speed = math.sqrt(self.inner_coords(base, c, c))
        if speed < 1e-300:
            return base.copy(), c.copy()
        end = rk4_endpoint(self._rhs, state0, t, self._n_steps(abs(t) * speed))
        self.profile.check_domain(end[0])
        return end[:2], end[2:]

    def unit_tangent(self, base_coords, angle: float) -> np.ndarray:
        """Unit tangent making the given angle with the u-axis."""
        u = np.asarray(base_coords)[0]
        fu = float(self.profile.f(u))
        return np.array([math.cos(angle), math.sin(angle) / fu])

    def log_coords(self, p, q):
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        du, dv = q[0] - p[0], q[1] - p[1]
        fbar = float(self.profile.f(0.5 * (p[0] + q[0])))
        length = math.hypot(du, fbar * dv)
        if length < 1e-14:
            return np.zeros(2)
        angle = math.atan2(fbar * dv, du)
        x = np.array([angle, length])
        scale = max(1.0, length)

        def residual(ang, ln):
            end = rk4_endpoint(
                self._rhs,
                np.concatenate([p, ln * self.unit_tangent(p, ang)]),
                1.0,
                self._n_steps(ln),
            )
            return np.array([end[0] - q[0], (end[1] - q[1]) * fbar])

        res = residual(x[0], x[1])
        for _ in range(60):
            if np.linalg.norm(res) < 1e-11 * scale:
                return x[1] * self.unit_tangent(p, x[0])
            h = 1e-7
            j0 = (residual(x[0] + h, x[1]) - res) / h
            j1 = (residual(x[0], x[1] + h) - res) / h
            jac = np.column_stack([j0, j1])
            try:
                delta = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError as exc:
                raise ShootingError("singular shooting Jacobian") from exc
            # damp long steps; the chart is small and Newton overshoots hurt
            step_cap = 0.5 * max(0.2, x[1])
            norm = np.linalg.norm(delta)
            if norm > step_cap:
                delta *= step_cap / norm
            trial = x + delta
            if trial[1] <= 0:
                trial[1] = 0.5 * x[1]
            trial_res = residual(trial[0], trial[1])
            shrink = 0
            while np.linalg.norm(trial_res) > np.linalg.norm(res) and shrink < 8:
                delta *= 0.5
                trial = x + delta
                trial_res = residual(trial[0], trial[1])
                shrink += 1
            x, res = trial, trial_res
        raise ShootingError(
            f"no convergence for endpoint {q} (residual {np.linalg.norm(res):.3e})"
        )

    def dist_coords(self, p, q):
        comp = self.log_coords(p, q)
        return math.sqrt(self.inner_coords(p, comp, comp))

    def dist_many(self, x, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.array([self.dist_coords(x, row) for row in pts])

    def tangent_basis(self, base_coords, primary=None):
        u = np.asarray(base_coords)[0]
        fu = float(self.profile.f(u))
        if primary is None:
            return np.array([[1.0, 0.0], [0.0, 1.0 / fu]])
        a, b = np.asarray(primary, dtype=np.float64)
        norm = math.sqrt(a * a + fu * fu * b * b)
        a, b = a / norm, b / norm
        return np.array([[a, b], [-b * fu, a / fu]])

    def curvature_at(self, coords):
        u = np.asarray(coords)[0]
        self.profile.check_domain(u)
        return float(-self.profile.d2f(u) / self.profile.f(u))

    def curvature_of_u(self, u):
        self.profile.check_domain(u)
        u = np.asarray(u)
        return -np.asarray(self.profile.d2f(u)) / np.asarray(self.profile.f(u))

    def describe(self):
        return (
            f"surface_of_revolution(u in [{self.profile.u_min:g}, "
            f"{self.profile.u_max:g}], step={self.step:g})"
        )


def basepoint_of(manifold: Manifold) -> ManifoldPoint:
    """A canonical point usable as a default geodesic anchor."""
    if hasattr(manifold, "basepoint"):
        return manifold.basepoint()
    return ManifoldPoint(np.zeros(manifold.ambient_dim))
