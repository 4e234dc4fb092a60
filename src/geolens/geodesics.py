"""Geodesic integration, energy and length functionals, and scalar Jacobi fields.

Geodesics integrate with fixed-step classical RK4 (order 4); the endpoint
error is estimated by Richardson comparison against a double-step run.
Jacobi machinery is scalar: on two-dimensional or constant-curvature models
every normal Jacobi field is j(t) times a parallel normal frame, and j solves
j'' + K(c(t)) j = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from geolens._ode import rk4_endpoint, rk4_trajectory
from geolens.errors import ChartError, DefectError
from geolens.manifolds import (
    Manifold,
    ManifoldPoint,
    SurfaceOfRevolution,
    TangentVector,
)

UNIT_SPEED_TOL = 1e-10
DEFAULT_STEP = 2e-3


def _hermite(t, t0, t1, p0, p1, v0, v1):
    """Cubic Hermite interpolation of position (and derivative) at t."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    pos = h00 * p0 + h10 * h * v0 + h01 * p1 + h11 * h * v1
    d00 = 6 * s * (s - 1) / h
    d10 = (1 - s) * (1 - 3 * s)
    d01 = -d00
    d11 = s * (3 * s - 2)
    vel = d00 * p0 + d10 * v0 + d01 * p1 + d11 * v1
    return pos, vel


@dataclass(frozen=True, eq=False)
class GeodesicSegment:
    """Arclength-parameterized geodesic segment on [0, length].

    Constant-curvature segments evaluate through closed-form exponentials and
    carry no samples; numeric segments store their integration trajectory and
    interpolate it (cubic Hermite, matching the integrator's order).
    """

    manifold: Manifold
    base: ManifoldPoint
    direction: TangentVector  # unit initial velocity
    length: float
    ts: np.ndarray | None = None
    points: np.ndarray | None = None
    velocities: np.ndarray | None = None
    endpoint_error: float | None = None

    @classmethod
    def from_exp(cls, manifold, base, direction, length):
        """Closed-form segment; valid for constant-curvature models."""
        speed = manifold.norm(direction)
        if abs(speed - 1.0) > UNIT_SPEED_TOL:
            raise ValueError(f"direction must be unit (speed {speed!r})")
        return cls(manifold=manifold, base=base, direction=direction, length=float(length))

    def point_at(self, t: float) -> ManifoldPoint:
        return ManifoldPoint(self._eval(t)[0])

    def velocity_at(self, t: float) -> TangentVector:
        pos, vel = self._eval(t)
        return TangentVector(ManifoldPoint(pos), vel)

    def _eval(self, t: float):
        if self.ts is None:
            return self.manifold.exp_velocity_coords(
                self.base.coords, self.direction.components, t
            )
        if t < self.ts[0] - 1e-12 or t > self.ts[-1] + 1e-12:
            raise ChartError(
                f"parameter {t:g} outside sampled range [{self.ts[0]:g}, {self.ts[-1]:g}]"
            )
        t = min(max(t, self.ts[0]), self.ts[-1])
        i = int(np.searchsorted(self.ts, t, side="right")) - 1
        i = min(max(i, 0), len(self.ts) - 2)
        pos, vel = _hermite(
            t,
            self.ts[i],
            self.ts[i + 1],
            self.points[i],
            self.points[i + 1],
            self.velocities[i],
            self.velocities[i + 1],
        )
        return pos, vel

    def endpoint(self) -> ManifoldPoint:
        return self.point_at(self.length)

    def as_curve(self, n: int = 129, domain=None) -> "SampledCurve":
        """Sample the segment as a curve, optionally affinely reparameterized.

        ``domain=(a, b)`` yields c(s) = segment(L * (s - a)/(b - a)).
        """
        a, b = (0.0, self.length) if domain is None else domain
        ss = np.linspace(a, b, n)
        rate = self.length / (b - a)
        pts, vels = [], []
        for s in ss:
            pos, vel = self._eval((s - a) * rate)
            pts.append(pos)
            vels.append(rate * vel)
        return SampledCurve(self.manifold, ss, np.array(pts), np.array(vels))


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """A (piecewise smooth) curve given by samples; velocities optional."""

    manifold: Manifold
    ts: np.ndarray
    points: np.ndarray
    velocities: np.ndarray | None = None

    def speeds(self) -> np.ndarray:
        if len(self.ts) < 2:
            raise ValueError("curve needs at least 2 samples")
        if self.velocities is not None:
            vels = self.velocities
        else:
            vels = np.gradient(self.points, self.ts, axis=0)
        out = np.empty(len(self.ts))
        for i, (p, v) in enumerate(zip(self.points, vels)):
            v = self.manifold.project_tangent(p, v)
            out[i] = math.sqrt(max(self.manifold.inner_coords(p, v, v), 0.0))
        return out


def energy(curve: SampledCurve | GeodesicSegment) -> float:
    """Integral of squared speed over the curve's parameter interval."""
    if isinstance(curve, GeodesicSegment):
        curve = curve.as_curve()
    sp = curve.speeds()
    return float(simpson(sp * sp, x=curve.ts))


def length(curve: SampledCurve | GeodesicSegment) -> float:
    """Integral of speed over the curve's parameter interval."""
    if isinstance(curve, GeodesicSegment):
        curve = curve.as_curve()
    return float(simpson(curve.speeds(), x=curve.ts))


def integrate_geodesic(
    manifold: Manifold,
    start: ManifoldPoint,
    direction: TangentVector,
    length: float,
    step: float = DEFAULT_STEP,
) -> GeodesicSegment:
    """Numerically integrate the geodesic equation and return a sampled segment.

    The initial velocity must be unit; samples land every ``step`` (the last
    step is shortened to hit ``length`` exactly).  ``endpoint_error`` holds a
    Richardson estimate from a double-step comparison run.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    speed = manifold.norm(direction)
    if abs(speed - 1.0) > UNIT_SPEED_TOL:
        raise ValueError(f"direction must be unit (speed {speed!r})")
    manifold.check_point(start.coords)
    n = max(2, int(math.ceil(length / step)))
    d = manifold.ambient_dim

    def rhs(state):
        pos, vel = state[:d], state[d:]
        return np.concatenate([vel, manifold.geodesic_acceleration(pos, vel)])

    state0 = np.concatenate([start.coords, direction.components])
    ts, ys = rk4_trajectory(rhs, state0, length, n)
    if isinstance(manifold, SurfaceOfRevolution):
        manifold.profile.check_domain(ys[:, 0])
    coarse = rk4_endpoint(rhs, state0, length, max(1, n // 2))
    err = float(np.linalg.norm(coarse[:d] - ys[-1, :d])) / 15.0
    return GeodesicSegment(
        manifold=manifold,
        base=start,
        direction=direction,
        length=float(length),
        ts=ts,
        points=ys[:, :d].copy(),
        velocities=ys[:, d:].copy(),
        endpoint_error=err,
    )


def first_variation_check(manifold: Manifold, family, fd_step: float = 1e-4) -> float:
    """Mismatch between dE/ds(0) and twice the endpoint inner product.

    ``family`` maps s to a tangent vector V(s) at one fixed point p, defining
    the geodesic variation f(t, s) = exp_p(t V(s)).  The s-derivative of the
    energy of f(., s) at s = 0 is evaluated by central differences and
    compared against 2 g(sigma'(0), c'(1)) where sigma(s) = f(1, s) and
    c = f(., 0).  Returns the absolute difference.
    """
    v0 = family(0.0)
    vp, vm = family(fd_step), family(-fd_step)
    # a geodesic's energy over [0,1] equals its squared initial speed
    lhs = (manifold.norm(vp) ** 2 - manifold.norm(vm) ** 2) / (2.0 * fd_step)
    end, end_vel = manifold.exp_with_velocity(v0, 1.0)
    sp = manifold.exp(vp).coords
    sm = manifold.exp(vm).coords
    sigma_dot = manifold.project_tangent(end.coords, (sp - sm) / (2.0 * fd_step))
    rhs = 2.0 * manifold.inner_coords(end.coords, sigma_dot, end_vel.components)
    return abs(lhs - rhs)


@dataclass(frozen=True, eq=False)
class JacobiSolution:
    """Scalar normal Jacobi data j(t) along a geodesic, with j(0)=0, j'(0)=1."""

    geodesic: GeodesicSegment
    ts: np.ndarray
    j: np.ndarray
    jp: np.ndarray
    curvature: np.ndarray  # K(c(t)) at the sample times

    def _refine_zero(self, i, values, derivs):
        """Zero of the cubic Hermite interpolant on [ts[i], ts[i+1]]."""
        t0, t1 = self.ts[i], self.ts[i + 1]
        lo, hi = t0, t1
        f_lo, _ = _hermite(lo, t0, t1, values[i], values[i + 1], derivs[i], derivs[i + 1])
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid, _ = _hermite(mid, t0, t1, values[i], values[i + 1], derivs[i], derivs[i + 1])
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def first_zero(self, of: str = "value") -> float | None:
        """First positive zero of j ("value") or of j' ("derivative")."""
        if of == "value":
            vals, ders = self.j, self.jp
        elif of == "derivative":
            vals, ders = self.jp, -self.curvature * self.j
        else:
            raise ValueError("of must be 'value' or 'derivative'")
        start = 1 if of == "value" else 0
        for i in range(start, len(self.ts) - 1):
            if vals[i] == 0.0 and self.ts[i] > 0:
                return float(self.ts[i])
            if vals[i] * vals[i + 1] < 0:
                return float(self._refine_zero(i, vals, ders))
        return None

    def residual_max(self) -> float:
        """Max residual of j'' + K j = 0 via second differences (order h^2)."""
        h = self.ts[1] - self.ts[0]
        jpp = (self.j[2:] - 2 * self.j[1:-1] + self.j[:-2]) / (h * h)
        return float(np.max(np.abs(jpp + self.curvature[1:-1] * self.j[1:-1])))


def integrate_jacobi(
    manifold: Manifold, geodesic: GeodesicSegment, step: float = DEFAULT_STEP
) -> JacobiSolution:
    """Integrate j'' + K j = 0 along the geodesic with j(0)=0, j'(0)=1.

    Constant-curvature models use their constant K in any dimension; the
    surface of revolution re-integrates the geodesic jointly with (j, j') so
    the curvature is evaluated exactly at the RK4 substeps.
    """
    n = max(2, int(math.ceil(geodesic.length / step)))
    if isinstance(manifold, SurfaceOfRevolution):
        base = geodesic.base.coords
        state0 = np.concatenate([base, geodesic.direction.components, [0.0, 1.0]])
        profile = manifold.profile

        def rhs(state):
            u, du, dv, j, jp = state[0], state[2], state[3], state[4], state[5]
            f = float(profile.f(u))
            fp = float(profile.df(u))
            k = -float(profile.d2f(u)) / f
            return np.array(
                [du, dv, f * fp * dv * dv, -2.0 * (fp / f) * du * dv, jp, -k * j]
            )

        ts, ys = rk4_trajectory(rhs, state0, geodesic.length, n)
        manifold.profile.check_domain(ys[:, 0])
        curv = np.asarray(manifold.curvature_of_u(ys[:, 0]))
        return JacobiSolution(geodesic, ts, ys[:, 4].copy(), ys[:, 5].copy(), curv)

    k = manifold.curvature_at(geodesic.base.coords)

    def rhs(state):
        return np.array([state[1], -k * state[0]])

    ts, ys = rk4_trajectory(rhs, np.array([0.0, 1.0]), geodesic.length, n)
    curv = np.full(len(ts), k)
    return JacobiSolution(geodesic, ts, ys[:, 0].copy(), ys[:, 1].copy(), curv)


class GeodesicLine:
    """A complete geodesic through a base point, evaluable at any parameter.

    Closed-form models evaluate directly; the numeric model lazily integrates
    and caches forward/backward segments out to the requested parameter.
    A request beyond the cached span re-integrates with another step count,
    which moves every sample; :meth:`cover` fixes the span up front.
    """

    def __init__(self, manifold: Manifold, base: ManifoldPoint, direction: TangentVector):
        speed = manifold.norm(direction)
        if abs(speed - 1.0) > UNIT_SPEED_TOL:
            raise ValueError(f"direction must be unit (speed {speed!r})")
        self.manifold = manifold
        self.base = base
        self.direction = direction
        self._fwd: GeodesicSegment | None = None
        self._bwd: GeodesicSegment | None = None

    def _extend(self, t: float):
        if t >= 0 and (self._fwd is None or self._fwd.length < t):
            self._fwd = integrate_geodesic(
                self.manifold, self.base, self.direction, max(t * 1.05, 1e-6)
            )
        if t < 0 and (self._bwd is None or self._bwd.length < -t):
            rev = TangentVector(self.base, -self.direction.components)
            self._bwd = integrate_geodesic(
                self.manifold, self.base, rev, max(-t * 1.05, 1e-6)
            )

    def cover(self, lo: float, hi: float):
        """Integrate the numeric line over [lo, hi] now, so that every later
        evaluation inside that span reads the same trajectory."""
        if not self.manifold.closed_form:
            self._extend(hi)
            self._extend(lo)

    def _eval(self, t: float):
        if self.manifold.closed_form:
            return self.manifold.exp_velocity_coords(
                self.base.coords, self.direction.components, t
            )
        self._extend(t)
        if t >= 0:
            return self._fwd._eval(t)
        pos, vel = self._bwd._eval(-t)
        return pos, -vel

    def point_at(self, t: float) -> ManifoldPoint:
        return ManifoldPoint(self._eval(t)[0])

    def velocity_at(self, t: float) -> TangentVector:
        pos, vel = self._eval(t)
        return TangentVector(ManifoldPoint(pos), vel)

    def coords_at(self, t: float) -> np.ndarray:
        return self._eval(t)[0]

    def segment(self, length: float) -> GeodesicSegment:
        """The restriction to [0, length] as a segment object."""
        if self.manifold.closed_form:
            return GeodesicSegment.from_exp(self.manifold, self.base, self.direction, length)
        seg = integrate_geodesic(self.manifold, self.base, self.direction, length)
        if seg.endpoint_error is not None and seg.endpoint_error > 1e-6:
            raise DefectError(
                f"geodesic integration error estimate {seg.endpoint_error:.2e} too large"
            )
        return seg
