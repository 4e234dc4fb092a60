"""Geodesic lines and scalar Jacobi fields.

A :class:`GeodesicLine` is the model's exponential map along one unit
direction.  Jacobi machinery is scalar: on two-dimensional or
constant-curvature models every normal Jacobi field is j(t) times a parallel
normal frame, and j solves j'' + K(c(t)) j = 0.  :func:`integrate_jacobi`
solves it on the constant-curvature models, where K is one number; the
numeric surface integrates it jointly with its geodesics in
``radii._first_zeros_batch``.  The sampled geodesic and surface Jacobi
integrations that the tests compare these with live in
``tests/ode_oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from geolens.errors import OffManifoldError
from geolens.manifolds import ON_MANIFOLD_TOL, Manifold, ManifoldPoint, TangentVector

UNIT_SPEED_TOL = 1e-10


def _check_unit_direction(manifold: Manifold, base: ManifoldPoint, direction: TangentVector) -> None:
    """Raise ``ValueError`` unless ``direction`` is a unit tangent vector at
    ``base``: attached to a point with the coordinates of ``base`` (the rule
    of :meth:`Manifold.metric_inner`), ``base`` on the model, components
    that ``project_tangent`` moves by at most ``ON_MANIFOLD_TOL``, and speed
    1 to ``UNIT_SPEED_TOL``."""
    if not np.array_equal(direction.base.coords, base.coords):
        raise ValueError("direction is not attached to the base point")
    try:
        manifold.check_point(base.coords)
    except OffManifoldError as exc:
        raise ValueError(f"base point off the model: {exc}") from None
    c = np.asarray(direction.components, dtype=np.float64)
    moved = np.max(np.abs(manifold.project_tangent(base.coords, c) - c))
    if moved > ON_MANIFOLD_TOL:
        raise ValueError(f"direction is not tangent at the base point (off by {moved:.3e})")
    speed = manifold.norm(direction)
    if abs(speed - 1.0) > UNIT_SPEED_TOL:
        raise ValueError(f"direction must be unit (speed {speed!r})")


def _hermite(t, t0, t1, p0, p1, v0, v1):
    """Cubic Hermite interpolant at t of values p and derivatives v at the
    ends of [t0, t1]."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * p0 + h10 * h * v0 + h01 * p1 + h11 * h * v1


def hermite_zero(t0, t1, v0, v1, d0, d1):
    """Zero in [t0, t1], t0 < t1, of the cubic Hermite interpolant of values
    v and derivatives d, by 80 bisection steps; elementwise over arrays.
    The values at the ends must have opposite signs.

    A step is a function of the brackets alone, so once one leaves every
    (lo, hi) as it was, so would all the rest: the loop stops there, with
    the bits of all 80 steps.  When every argument is a scalar (the
    closed-form brackets of :meth:`JacobiSolution.first_zero`) the steps run
    on Python floats, whose operations are the NumPy scalars', and the zero
    comes back as an ``np.float64``."""
    if all(np.ndim(a) == 0 for a in (t0, t1, v0, v1, d0, d1)):
        t0, t1, v0, v1, d0, d1 = map(float, (t0, t1, v0, v1, d0, d1))
        lo, hi, lo_positive = t0, t1, v0 > 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            same = (_hermite(mid, t0, t1, v0, v1, d0, d1) > 0) == lo_positive
            next_lo, next_hi = (mid, hi) if same else (lo, mid)
            if next_lo == lo and next_hi == hi:
                break
            lo, hi = next_lo, next_hi
        return np.float64(0.5 * (lo + hi))
    lo, hi = np.asarray(t0, dtype=np.float64), np.asarray(t1, dtype=np.float64)
    lo_positive = np.asarray(v0) > 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = _hermite(mid, t0, t1, v0, v1, d0, d1)
        same = (f_mid > 0) == lo_positive
        next_lo, next_hi = np.where(same, mid, lo), np.where(same, hi, mid)
        if np.array_equal(next_lo, lo) and np.array_equal(next_hi, hi):
            break
        lo, hi = next_lo, next_hi
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class JacobiSolution:
    """Scalar normal Jacobi data j(t) along a geodesic, with j(0)=0, j'(0)=1."""

    ts: np.ndarray
    j: np.ndarray
    jp: np.ndarray
    curvature: np.ndarray  # K(c(t)) at the sample times

    def first_zero(self, of: str = "value") -> float | None:
        """First positive zero of j ("value") or of j' ("derivative").

        One pass finds the first step [t_i, t_i+1] whose start is an exact
        zero at t_i > 0 or whose ends change sign (j(0) = 0 is skipped); an
        exact zero is returned as is, a sign change is placed with
        :func:`hermite_zero`.  The closed-form radii scans read their zeros
        here.  The surface's scans batch the search in
        ``radii._first_zeros_batch``, and the tests read this one on the
        surface's reference integration as its reference."""
        if of == "value":
            vals, ders = self.j, self.jp
        elif of == "derivative":
            vals, ders = self.jp, -self.curvature * self.j
        else:
            raise ValueError("of must be 'value' or 'derivative'")
        start = 1 if of == "value" else 0
        head, tail = vals[start:-1], vals[start + 1 :]
        hits = np.flatnonzero(((head == 0.0) & (self.ts[start:-1] > 0)) | (head * tail < 0))
        if not len(hits):
            return None
        i = start + int(hits[0])
        if vals[i] == 0.0:
            return float(self.ts[i])
        return float(
            hermite_zero(self.ts[i], self.ts[i + 1], vals[i], vals[i + 1], ders[i], ders[i + 1])
        )


def integrate_jacobi(
    manifold: Manifold, length: float, step: float | None = None, _of=()
) -> JacobiSolution:
    """Integrate j'' + K j = 0 over [0, length] with j(0)=0, j'(0)=1, in
    equal steps of at most ``step`` (default: the model's), on a
    constant-curvature model in any dimension; the radii scans of those
    models run this.

    The state is two floats, and a NumPy call on a 2-vector costs about a
    microsecond, so the steps run on Python floats: each makes the
    operations of the textbook RK4 step (``rk4_step`` of
    ``tests/ode_oracles.py``) on (j', -K j) in the same order, and so gives
    its bits.  A model without closed forms raises ``ValueError``: its
    curvature varies along each geodesic, and its radii scans integrate the
    joint system in ``radii._first_zeros_batch``.

    ``_of`` names the zeros a radii scan reads, "value" (j) and
    "derivative" (j'), as in :meth:`JacobiSolution.first_zero`.  The grid
    stays that of ``length``, but the solution ends one step after each
    named zero's step: the first sign change, or an exact zero at t > 0.
    Its first zeros are those of the whole integration.
    """
    if not manifold.closed_form:
        raise ValueError(f"{manifold.describe()} has no constant curvature to integrate with")
    step = manifold.step if step is None else step
    n = max(2, int(math.ceil(length / step)))
    k = manifold.curvature_at(manifold.basepoint().coords)
    h = length / n
    a, b, mk = 0.5 * h, h / 6.0, -k
    j, jp = 0.0, 1.0
    js, jps = np.empty(n + 1), np.empty(n + 1)
    js[0], jps[0] = j, jp
    # the zeros still to bracket; the start j(0) = 0 is no zero
    watch_j, watch_jp = "value" in _of, "derivative" in _of
    stop, last = False, n  # last: the last grid index of the solution
    for i in range(1, n + 1):
        # the stages of RK4: j' at the substeps (jp, p2, p3, p4) for j,
        # and -K j there (q1 to q4) for j'
        q1 = mk * j
        p2 = jp + a * q1
        q2 = mk * (j + a * jp)
        p3 = jp + a * q2
        q3 = mk * (j + a * p2)
        p4 = jp + h * q3
        q4 = mk * (j + h * p3)
        j_next = j + b * (jp + 2.0 * p2 + 2.0 * p3 + p4)
        jp_next = jp + b * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        js[i], jps[i] = j_next, jp_next
        # a product <= 0 is rare: only then is the bracket test made
        if watch_j and j * j_next <= 0.0 and (j * j_next < 0.0 or (j == 0.0 and i > 1)):
            watch_j = False
            stop = not watch_jp
        if watch_jp and jp * jp_next <= 0.0 and (jp * jp_next < 0.0 or (jp == 0.0 and i > 1)):
            watch_jp = False
            stop = not watch_j
        if stop:
            last = i
            break
        j, jp = j_next, jp_next
    ts = np.linspace(0.0, length, n + 1)[: last + 1]
    return JacobiSolution(ts, js[: last + 1], jps[: last + 1], np.full(last + 1, k))


class GeodesicLine:
    """A complete geodesic through a base point, evaluable at any parameter:
    the model's ``exp_velocity_coords`` of the unit direction.  The line
    keeps no state, so a parameter has the same bits whatever was evaluated
    before.  The direction must be a unit tangent vector at the base."""

    def __init__(self, manifold: Manifold, base: ManifoldPoint, direction: TangentVector):
        _check_unit_direction(manifold, base, direction)
        self.manifold = manifold
        self.base = base
        self.direction = direction

    def _eval(self, t):
        return self.manifold.exp_velocity_coords(self.base.coords, self.direction.components, t)

    def velocity_at(self, t: float) -> TangentVector:
        pos, vel = self._eval(t)
        return TangentVector(ManifoldPoint(pos), vel)

    def coords_at(self, t: float) -> np.ndarray:
        return self._eval(t)[0]

    def states_many(self, ts):
        """Points and velocities at each parameter in ``ts`` as two (n,
        ambient_dim) blocks, in one call, with the bits of ``coords_at`` and
        ``velocity_at``."""
        return self._eval(np.asarray(ts, dtype=np.float64)[:, None])

    def coords_many(self, ts) -> np.ndarray:
        """``coords_at`` of each parameter in ``ts`` as one (n, ambient_dim)
        block, with the same bits."""
        return self.states_many(ts)[0]
