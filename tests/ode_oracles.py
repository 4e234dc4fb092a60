"""ODE references for the tests: sampled RK4 trajectories of the geodesic
equation and of the surface's joint geodesic + Jacobi system.

No command runs these.  They step with :func:`geolens._ode.rk4_step`, one
state alone, or with :func:`geolens._ode.rk4_rows` where the rows are
independent (each row then has the bits it has alone), both looked up at
call time.  The models' closed-form exponential maps, the surface's
shooting and its batched Jacobi scan (``radii._first_zeros_batch``) are
compared with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geolens import _ode
from geolens.geodesics import JacobiSolution, _check_unit_direction
from geolens.manifolds import Manifold, ManifoldPoint, TangentVector


def rk4_trajectory(rhs, y0, span, n_steps):
    """Integrate y' = rhs(y) over [0, span] in ``n_steps`` equal steps and
    return (ts, ys); ``ys`` has shape (n_steps + 1,) + y0.shape."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    y = np.array(y0, dtype=np.float64)
    h = span / n_steps
    ts = np.linspace(0.0, span, n_steps + 1)
    ys = np.empty((n_steps + 1,) + y.shape)
    ys[0] = y
    for i in range(n_steps):
        y = _ode.rk4_step(rhs, y, h)
        ys[i + 1] = y
    return ts, ys


def rk4_endpoint(rhs, y0, span, n_steps):
    """The last state of :func:`rk4_trajectory`."""
    y = np.array(y0, dtype=np.float64)
    h = span / n_steps
    for _ in range(n_steps):
        y = _ode.rk4_step(rhs, y, h)
    return y


def _n_steps(length, step):
    """Equal steps of at most ``step`` over ``length``, at least two;
    elementwise over arrays."""
    return np.maximum(2, np.ceil(np.asarray(length) / step).astype(int))


@dataclass(frozen=True, eq=False)
class GeodesicSegment:
    """An arclength-parameterized geodesic segment on [0, length] and its
    RK4 samples: times, points and velocities."""

    manifold: Manifold
    base: ManifoldPoint
    direction: TangentVector  # unit initial velocity
    length: float
    ts: np.ndarray | None = None
    points: np.ndarray | None = None
    velocities: np.ndarray | None = None

    @classmethod
    def from_exp(cls, manifold, base, direction, length):
        """A segment without samples; the direction must be a unit tangent
        vector at ``base``."""
        _check_unit_direction(manifold, base, direction)
        return cls(manifold=manifold, base=base, direction=direction, length=float(length))


def integrate_geodesic(manifold, start, direction, length, step=None) -> GeodesicSegment:
    """The geodesic from ``start`` along the unit ``direction``, sampled by
    RK4 in equal steps of at most ``step`` (default: the model's)."""
    step = manifold.step if step is None else step
    if step <= 0:
        raise ValueError("step must be positive")
    _check_unit_direction(manifold, start, direction)
    d = manifold.ambient_dim
    state0 = np.concatenate([start.coords, direction.components])
    ts, ys = rk4_trajectory(manifold.geodesic_rhs, state0, length, int(_n_steps(length, step)))
    if not manifold.closed_form:
        manifold.profile.check_domain(ys[:, 0])
    return GeodesicSegment(
        manifold=manifold,
        base=start,
        direction=direction,
        length=float(length),
        ts=ts,
        points=ys[:, :d].copy(),
        velocities=ys[:, d:].copy(),
    )


def geodesic_endpoints(manifold, starts, directions, lengths, step=None):
    """End points of the geodesics from each row of ``starts`` along the
    unit row of ``directions`` over its ``lengths`` entry, as one batch of
    independent rows: each row has the steps and bits of its
    :func:`integrate_geodesic` end point."""
    step = manifold.step if step is None else step
    lengths = np.asarray(lengths, dtype=np.float64)
    n = _n_steps(lengths, step)
    state = np.concatenate([starts, directions], axis=1)
    return _ode.rk4_rows(manifold.geodesic_rhs, state, lengths / n, n)[:, : manifold.ambient_dim]


def surface_jacobi(surface, base, direction, length, step=None) -> JacobiSolution:
    """Scalar Jacobi field (j(0) = 0, j'(0) = 1) along the surface geodesic
    from ``base`` along the unit ``direction``, sampled over [0, length]:
    the surface's joint geodesic + Jacobi system (``jacobi_rhs``), so the
    curvature is evaluated exactly at the RK4 substeps."""
    step = surface.step if step is None else step
    state0 = np.concatenate([base.coords, direction.components, [0.0, 1.0]])
    n = int(_n_steps(length, step))
    ts, ys = rk4_trajectory(surface.jacobi_rhs, state0, length, n)
    surface.profile.check_domain(ys[:, 0])
    curvature = np.asarray(surface.curvature_of_u(ys[:, 0]))
    return JacobiSolution(ts, ys[:, 4].copy(), ys[:, 5].copy(), curvature)
