"""ODE references for the tests: sampled RK4 trajectories of the geodesic
equation and of the surface's joint geodesic + Jacobi system.

No command runs these.  They step with :func:`rk4_step`, the classical RK4
step as the textbook writes it, one state alone, or with :func:`rk4_rows`
where the rows are independent (each row then has the bits it has alone).
That step is the tests' own, independent of the DOP853 step geolens
integrates the surface with; ``geodesics.integrate_jacobi`` makes its
operations on floats, in the same order.  The models' closed-form
exponential maps, the surface's shooting and its batched Jacobi scan
(``radii._first_zeros_batch``) are compared with them; the scan also with
:func:`rk4_zeros_batch`, the batched RK4 scan that it was before it stepped
with DOP853.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from geolens.geodesics import JacobiSolution, _check_unit_direction, hermite_zero
from geolens.manifolds import Manifold, ManifoldPoint, TangentVector


def rk4_step(rhs, y, h):
    """The classical RK4 step of y' = rhs(y) as written in the textbook, one
    new array per operation; ``h`` is a number or broadcasts against y."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_rows(rhs, y, h, n):
    """Integrate each row of an (m, k) block of states over its own ``n[i]``
    steps of ``h[i]`` and return the end states: the rows with steps left
    step together, so each has the bits it has alone."""
    state = np.array(y, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)[:, None]
    n = np.asarray(n)
    for i in range(int(n.max(initial=0))):
        live = n > i
        state[live] = rk4_step(rhs, state[live], h[live])
    return state


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
        y = rk4_step(rhs, y, h)
        ys[i + 1] = y
    return ts, ys


def rk4_endpoint(rhs, y0, span, n_steps):
    """The last state of :func:`rk4_trajectory`."""
    y = np.array(y0, dtype=np.float64)
    h = span / n_steps
    for _ in range(n_steps):
        y = rk4_step(rhs, y, h)
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
    return rk4_rows(manifold.geodesic_rhs, state, lengths / n, n)[:, : manifold.ambient_dim]


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


def rk4_zeros_batch(
    manifold, base_coords, angles, horizon, step=None, _of=("value", "derivative"), cap=None
):
    """The surface's batched radii scan in RK4 steps on its grid, as
    ``radii._first_zeros_batch`` ran before it took DOP853 steps: the same
    arguments and (j_zero, jp_zero, valid_length) arrays, with the scan's
    exits, cap and zero rules at every grid step.

    The state is one Fortran-ordered (rows, 6) block.  A sign change keeps
    its bracket (step, row, column, both end values and both end derivatives
    from :meth:`jacobi_rhs`), and after the loop one :func:`hermite_zero`
    call places every zero inside its step, as ``JacobiSolution.first_zero``
    does on :func:`surface_jacobi`.
    """
    profile = manifold.profile
    step = manifold.step if step is None else step
    base = np.asarray(base_coords, dtype=np.float64)
    shape = base.shape[:-1] + (len(angles),)
    base = base.reshape(-1, 2)
    state = np.zeros((len(base), len(angles), 6))
    state[..., 0] = base[:, None, 0]
    state[..., 1] = base[:, None, 1]
    state[..., 2] = np.cos(angles)
    state[..., 3] = np.sin(angles) / np.asarray(profile.f(base[:, 0]))[:, None]
    state[..., 5] = 1.0
    state = np.asfortranarray(state.reshape(-1, 6))

    # the searched columns first:last of the zeros (j, j')
    first = 0 if "value" in _of else 1
    last = 2 if "derivative" in _of else 1
    searched = slice(4 + first, 4 + last)
    n = max(2, int(math.ceil(horizon / step)))
    ts = np.linspace(0.0, horizon, n + 1)
    h = horizon / n
    valid_length = np.full(len(state), horizon)
    zeros = np.full((len(state), 2), np.nan)  # columns: j, j'
    live = np.arange(len(state))  # rows in the chart with a zero to find
    brackets = []
    # the step at whose start the capped search may be decided (n: never)
    decide = n if cap is None else int(np.searchsorted(ts, cap))
    for i in range(n):
        if not len(live):
            break
        if i == decide and len(live) == len(zeros) and np.isnan(zeros).all():
            valid_length[:] = ts[i]
            break
        new = rk4_step(manifold.jacobi_rhs, state, h)
        u = new[:, 0]
        before, after = state[:, searched], new[:, searched]
        product = before * after
        if u.min() >= profile.u_min and u.max() <= profile.u_max and product.min() > 0:
            state = new
            continue
        exited = (u < profile.u_min) | (u > profile.u_max)
        valid_length[live[exited]] = ts[i]
        found = zeros[live, first:last]
        pending = ~exited[:, None] & np.isnan(found)
        at_start = pending & (before == 0.0) & (ts[i] > 0)
        found[at_start] = ts[i]
        rows, cols = np.nonzero(pending & ~at_start & (product < 0))
        if len(rows):
            # the derivatives of (j, j') are columns 4 and 5 of the system
            at = np.arange(len(rows)), 4 + first + cols
            d0 = manifold.jacobi_rhs(state[rows])[at]
            d1 = manifold.jacobi_rhs(new[rows])[at]
            bracket = (np.full(len(rows), i), live[rows], first + cols)
            brackets.append(bracket + (before[rows, cols], after[rows, cols], d0, d1))
            found[rows, cols] = np.inf  # placed after the loop
        zeros[live, first:last] = found
        keep = ~exited & np.isnan(found).any(axis=1)
        live, state = live[keep], np.asfortranarray(new[keep])
    if brackets:
        steps, rows, cols, v0, v1, d0, d1 = (np.concatenate(part) for part in zip(*brackets))
        zeros[rows, cols] = hermite_zero(ts[steps], ts[steps + 1], v0, v1, d0, d1)
    return (
        zeros[:, 0].reshape(shape),
        zeros[:, 1].reshape(shape),
        valid_length.reshape(shape),
    )
