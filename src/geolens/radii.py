"""Convexity, injectivity, conjugate, focal, and loop radii of the models.

Constant-curvature models have closed forms; their Jacobi scans
(``jacobi_radii``) integrate the one scalar equation on Python floats in
RK4 steps (``geodesics.integrate_jacobi``).  Numeric surfaces get conjugate
and focal radii from one batched integration of the joint geodesic + Jacobi
system over sampled directions (:func:`_first_zeros_batch`).  It steps with
the surface's one integrator, order-8 DOP853 at 12 right-hand sides, each
row in steps sized from the error estimate of its own Jacobi field, and
places zeros and exits on the grid after the loop.  Its one-direction
reference and the RK4 scan it replaced are in ``tests/ode_oracles.py``.
A surface's injectivity radius is never estimated, it must be certified by
the user (e.g. in the run configuration), and its convexity radius is
assembled from the identity conv = min(focal, injectivity / 2).  A caller
that needs only that minimum passes injectivity / 2 as the ``cap`` of
:func:`focal_radius`, whose scan then stops at the cap when no direction
has a zero or has left the chart.

Horizon-limited searches report a lower bound, never a fabricated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from geolens._ode import DOP853_WORK, SCAN_GRID_STEPS, dop853_step
from geolens.errors import ConfigError
from geolens.geodesics import hermite_zero, integrate_jacobi
from geolens.manifolds import Manifold

CLOSED_FORM = "closed-form"
NUMERIC = "numeric-estimate"
CERTIFIED = "user-certified"

DEFAULT_DIRECTIONS = 64
DEFAULT_BASE_POINTS = 16
# the surface's radii scan steps SCAN_GRID_STEPS to SCAN_MAX_GRID_STEPS
# grid steps; a step longer than SCAN_GRID_STEPS is accepted when the
# embedded error estimate of its Jacobi field (j, j') is at most
# SCAN_TOLERANCE, about one rounding unit of a unit-size state
SCAN_TOLERANCE = 1e-16
SCAN_MAX_GRID_STEPS = 2 * SCAN_GRID_STEPS
# the columns of (j, j') in a state of the joint geodesic + Jacobi system
_JACOBI = slice(4, 6)


@dataclass(frozen=True)
class RadiusValue:
    """A radius with provenance; ``lower_bound_only`` marks ">= value"."""

    value: float
    provenance: str
    lower_bound_only: bool = False

    def __float__(self):
        return self.value

    def render(self) -> str:
        if math.isinf(self.value):
            return "inf"
        prefix = ">=" if self.lower_bound_only else ""
        return f"{prefix}{self.value:.9g}"


@dataclass(frozen=True)
class RadiiReport:
    """The five radii of one model, each with provenance.  A numeric
    surface's report also carries ``jacobi_error``, the largest embedded
    error estimate of (j, j') of any accepted row-step of its Jacobi scan
    (:class:`ScanZeros`); it is None for the closed forms, and no command
    prints it."""

    manifold_label: str
    injectivity: RadiusValue
    conjugate: RadiusValue
    focal: RadiusValue
    loop_length: RadiusValue
    convexity: RadiusValue
    jacobi_error: float | None = None

    def fields(self):
        return [
            ("injectivity", self.injectivity),
            ("conjugate", self.conjugate),
            ("focal", self.focal),
            ("loop_length", self.loop_length),
            ("convexity", self.convexity),
        ]

    def identity_residuals(self) -> dict[str, float]:
        """Residuals of the three structural identities (0 when they hold).

        * convexity = min(focal, injectivity/2)
        * injectivity/2 = min(conjugate/2, loop_length/4)  (all finite only)
        * focal <= conjugate/2  (one-sided; negative slack clipped to 0)

        Identities involving a lower-bound-only radius are skipped (nan),
        except that focal <= conjugate/2 still reads a lower-bound conjugate.
        """
        out = {}
        foc, inj = self.focal, self.injectivity
        if foc.lower_bound_only and foc.value < inj.value / 2:
            out["convexity_min"] = math.nan
        else:
            target = min(foc.value, inj.value / 2)
            out["convexity_min"] = _residual(self.convexity.value, target)
        conj, loop = self.conjugate, self.loop_length
        if conj.lower_bound_only or loop.lower_bound_only:
            out["injectivity_min"] = math.nan
        else:
            target = min(conj.value / 2, loop.value / 4)
            out["injectivity_min"] = _residual(inj.value / 2, target)
        out["focal_vs_conjugate"] = (
            math.nan if foc.lower_bound_only else max(0.0, foc.value - conj.value / 2)
        )
        return out


def _residual(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b)


def closed_form_radii(manifold: Manifold) -> RadiiReport:
    """Exact radii of a constant-curvature model, from its convexity radius c.

    Focal and convexity radii are c; injectivity and conjugate radii are 2c
    and the shortest geodesic loop is 4c (all infinite when c is).  Scaling
    by powers of two is exact, so on the sphere of radius a these are the
    floating-point values of pi*a/2, pi*a and 2*pi*a.
    """
    label = manifold.describe()
    if not manifold.closed_form:
        raise ConfigError(f"no closed-form radii for {label}")
    c = manifold.convexity_radius()
    return RadiiReport(
        label,
        injectivity=RadiusValue(2.0 * c, CLOSED_FORM),
        conjugate=RadiusValue(2.0 * c, CLOSED_FORM),
        focal=RadiusValue(c, CLOSED_FORM),
        loop_length=RadiusValue(4.0 * c, CLOSED_FORM),
        convexity=RadiusValue(c, CLOSED_FORM),
    )


class ScanZeros(tuple):
    """The (j_zero, jp_zero, valid_length) arrays of a surface radii scan,
    with ``error``: the largest embedded error estimate of (j, j') of any
    of its accepted row-steps that stayed in the chart."""

    def __new__(cls, arrays, error):
        zeros = super().__new__(cls, arrays)
        zeros.error = error
        return zeros


def _first_zeros_batch(
    manifold, base_coords, angles, horizon, step=None, _of=("value", "derivative"), cap=None
):
    """First zeros of j and j' along geodesics in the given directions from
    one base point (2,) or from each of a block of them (..., 2), on a grid
    of steps of at most ``step`` (default: the model's).

    Returns (j_zero, jp_zero, valid_length) arrays of shape
    ``base_coords.shape[:-1] + (len(angles),)``, with nan for "no zero
    found", as a :class:`ScanZeros`; valid_length is where a direction left
    the chart before its zeros were found (else horizon).  Integrates the
    surface's joint geodesic + Jacobi system over every base point and
    direction at once.  A row stops once it leaves the chart or has the
    zeros it needs, so its results do not depend on the other rows.
    ``_of`` names the zeros needed, "value" (j) and "derivative" (j'); a
    zero not named stays nan.

    The scan steps with :func:`dop853_step`, the step of every integration
    on the surface.  Each row has its own grid index and takes its own
    steps, whole numbers of grid steps, all rows in one call per loop step
    (a column of steps).  A row starts with :data:`SCAN_GRID_STEPS` grid
    steps.  A step whose embedded estimate exceeds :data:`SCAN_TOLERANCE`
    is retried with fewer grid steps, unless it has no more than
    :data:`SCAN_GRID_STEPS` (the shortest step, shorter only at the
    horizon); otherwise it is accepted.  Either way the order-8 controller
    (:func:`_next_grid_steps`) sizes the row's next step, at most
    :data:`SCAN_MAX_GRID_STEPS`.  A lower floor buys nothing at this
    tolerance, where rounding, not truncation, limits the result: with a
    floor of one grid step the H^2 oracle, whose j grows like sinh t past
    any absolute tolerance, took almost three times the loop steps.

    The estimate is that of (j, j') alone, the columns whose zeros the
    scan reports; the geodesic columns enter them only through K.  Where K
    is constant they do not enter at all, so every direction takes the
    same steps and has the same zeros: on the unit sphere, pi and pi/2
    exactly.  An estimate over all six columns, which differ between
    directions, scattered the sphere's zeros by 2 ulp.  The ceiling bounds
    the steps, and so the error, of the geodesic columns, which the
    estimate leaves out.

    Chart exits and sign changes of j and j' are detected at the ends of
    the accepted steps; an excursion out of the chart and back within one
    step, of at most :data:`SCAN_MAX_GRID_STEPS` grid steps, goes unseen.
    The grid stays the resolution of what it reports: after the loop,
    :func:`_place_events` finds the grid step of every exit and zero from
    the start index and grid steps of its step.  The RK4 scan on the grid
    itself (``rk4_zeros_batch`` of ``tests/ode_oracles.py``) is the
    reference: it takes 80 right-hand sides per 20 grid steps, where this
    takes 12 or fewer, and its zeros are further from those of a finer
    grid.  :class:`ScanZeros` reports the largest estimate of (j, j') of
    any accepted row-step.

    ``cap`` is for a caller that reads only the smallest zero capped at
    ``cap``.  While no row has a searched zero and none has left the chart,
    a row that reaches a grid time at or past ``cap`` waits there; once
    every row waits, the scan stops with each row's valid length its own
    time: any later zero or exit would be capped to ``cap`` as well.  Once
    a row has a zero or leaves, the waiting rows step on, and the scan runs
    as without ``cap``; a row's steps do not depend on the wait.

    The state is one (rows, 6) block in Fortran order, component-contiguous:
    each ``state[:, k]`` that :meth:`jacobi_rhs` reads and writes is one
    contiguous run.  Each step writes the new state into a second block and
    its stages into :data:`DOP853_WORK` more, which every step reuses; a
    row whose step is retried or that waits has its old state copied back.
    The blocks swap roles after a step and are allocated anew only when
    rows leave.  Most steps change nothing but the state: every new u is
    inside [u_min, u_max], no searched column of a live row crosses or
    touches zero (one ``min``/``max`` each, which a nan fails) and no row
    reaches the horizon.  Only the other steps keep their events: the row,
    what happened (a sign change of j or j', or an exit), the step's start
    index and grid steps, and the states at both ends of the step.
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
    h = horizon / n

    def times(i):
        """The times of grid indices i: i h, and the horizon at n."""
        return np.where(i < n, i * h, horizon)

    valid_length = np.full(len(state), horizon)
    zeros = np.full((len(state), 2), np.nan)  # columns: j, j'
    live = np.arange(len(state))  # rows in the chart with a zero to find
    index = np.zeros(len(state), int)  # each live row's grid index
    grid_steps = np.full(len(state), SCAN_GRID_STEPS)  # each live row's next step
    events, error = [], 0.0
    new, *work = (np.empty_like(state) for _ in range(1 + DOP853_WORK))
    while len(live):
        held = np.False_  # the rows that wait at the cap
        if cap is not None:
            if len(live) < len(zeros) or not np.isnan(zeros).all():
                cap = None  # not decided at the cap: the scan runs on without it
            else:
                held = times(index) >= cap
                if held.all():
                    valid_length[:] = times(index)
                    break
        span = np.minimum(grid_steps, n - index)
        _, estimate = dop853_step(
            manifold.jacobi_rhs, state, (span * h)[:, None], out=new, work=work, estimate=_JACOBI
        )
        accepted = ((estimate <= SCAN_TOLERANCE) | (span <= SCAN_GRID_STEPS)) & ~held
        grid_steps = np.where(held, grid_steps, _next_grid_steps(span, estimate))
        if not accepted.all():
            np.copyto(new, state, where=~accepted[:, None])
        start, index = index, index + np.where(accepted, span, 0)
        u = new[:, 0]
        before, after = state[:, searched], new[:, searched]
        product = before * after
        if (
            u.min() >= profile.u_min
            and u.max() <= profile.u_max
            and product.min() > 0
            and index.max() < n
        ):
            error = max(error, estimate.max(initial=0.0, where=accepted))
            state, new = new, state
            continue
        # a row that did not step has its state again: no event
        exited = (u < profile.u_min) | (u > profile.u_max)
        error = max(error, estimate.max(initial=0.0, where=accepted & ~exited))
        found = zeros[live, first:last]
        # a zero at the step's end counts; one at its start was counted before
        crossed = np.isnan(found) & (product <= 0) & (before != 0)
        rows, cols = np.nonzero(crossed)
        rows = np.concatenate([rows, np.flatnonzero(exited)])
        if len(rows):
            # what happened: the column of j or j' that changed sign, or u
            what = np.concatenate([4 + first + cols, np.zeros(len(rows) - len(cols), int)])
            events.append((start[rows], span[rows], live[rows], what, state[rows], new[rows]))
            found[crossed] = np.inf  # placed after the loop
        zeros[live, first:last] = found
        keep = ~exited & np.isnan(found).any(axis=1) & (index < n)
        if not keep.all():
            # rows left: the buffers are made anew for the rows still live
            # (cut views of them would step more slowly, not contiguous)
            live, new = live[keep], np.asfortranarray(new[keep])
            index, grid_steps = index[keep], grid_steps[keep]
            del state, work
            state, *work = (np.empty_like(new) for _ in range(1 + DOP853_WORK))
        state, new = new, state
    del new, work  # placing the events needs none of the step's buffers
    if events:
        events = [np.concatenate(part) for part in zip(*events)]
        _place_events(manifold, events, times, h, zeros, valid_length)
    arrays = (zeros[:, 0], zeros[:, 1], valid_length)
    return ScanZeros(tuple(a.reshape(shape) for a in arrays), float(error))


def _next_grid_steps(grid_steps, estimate):
    """The next step of each row, in grid steps, after a step of
    ``grid_steps`` with embedded ``estimate``: the order-8 controller
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4) scales the step
    by 0.9 (SCAN_TOLERANCE / estimate)^(1/8), kept within [1/3, 6] (a nan
    estimate takes 1/3), and floors it to whole grid steps, from
    :data:`SCAN_GRID_STEPS` to :data:`SCAN_MAX_GRID_STEPS`."""
    scale = 0.9 * (SCAN_TOLERANCE / np.maximum(estimate, np.finfo(np.float64).tiny)) ** 0.125
    scale = np.fmin(np.fmax(scale, 1.0 / 3.0), 6.0)
    steps = np.floor(grid_steps * scale).astype(int)
    return np.clip(steps, SCAN_GRID_STEPS, SCAN_MAX_GRID_STEPS)


def _place_events(manifold, events, times, h, zeros, valid_length):
    """Place the events of a radii scan on its grid of steps h, whose grid
    index i is at ``times(i)``, in ``zeros`` and ``valid_length``.

    ``events`` are the arrays (start index, grid steps, row, what, start
    state, end state) of the scan steps in which a row's u left the chart
    (what = 0) or its j or j' changed sign (what = 4 or 5, the column).
    All of them bisect in lockstep on the grid of their step: a state at a
    grid time is one :func:`dop853_step` from the step's start state, so
    ceil(log2 of the grid steps) batched steps find the grid step in which
    each event happens.  An exit at the end of grid step i gives the valid
    length t_i, as a row that leaves in that step has no zero there or
    later.  A zero in an earlier grid step is placed, all of them by one
    :func:`hermite_zero` call, with the cubic Hermite interpolant of the
    states at the ends of its grid step and their derivatives from
    :meth:`jacobi_rhs`, as ``JacobiSolution.first_zero`` does.
    """
    profile = manifold.profile
    start_index, grid_steps, rows, what, start, end = events
    at = np.arange(len(rows)), what
    v0 = start[at]

    def reached(x):
        v = x[at]
        return np.where(what == 0, (v < profile.u_min) | (v > profile.u_max), v * v0 <= 0)

    # the event happens between the grid times lo and hi of the step, whose
    # states are x_lo and x_hi
    lo, hi = np.zeros_like(grid_steps), grid_steps
    x_lo, x_hi = start.copy(), end
    x, *work = (np.empty_like(start) for _ in range(1 + DOP853_WORK))
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        dop853_step(
            manifold.jacobi_rhs, start, (mid * h)[:, None], out=x, work=work, estimate=None
        )
        now = reached(x)
        lo, hi = np.where(now, lo, mid), np.where(now, mid, hi)
        x_lo[~now], x_hi[now] = x[~now], x[now]
    del x, work
    grid_step = start_index + hi - 1
    exits = what == 0
    exit_step = np.full(len(zeros), np.iinfo(grid_step.dtype).max)
    exit_step[rows[exits]] = grid_step[exits]
    valid_length[rows[exits]] = times(grid_step[exits])
    placed = ~exits & (grid_step < exit_step[rows])
    lost = ~exits & ~placed
    zeros[rows[lost], what[lost] - 4] = np.nan
    if placed.any():
        col, i = what[placed], grid_step[placed]
        ends = np.concatenate([x_lo[placed], x_hi[placed]])
        at = np.arange(len(ends)), np.tile(col, 2)
        # the derivatives of (j, j') are columns 4 and 5 of the system
        d0, d1 = np.split(manifold.jacobi_rhs(ends)[at], 2)
        v0, v1 = np.split(ends[at], 2)
        zeros[rows[placed], col - 4] = hermite_zero(times(i), times(i + 1), v0, v1, d0, d1)


def _smallest_zero(zeros, valid) -> RadiusValue:
    """The smallest zero found, else the shortest valid length as a bound."""
    if np.all(np.isnan(zeros)):
        return RadiusValue(float(np.min(valid)), NUMERIC, lower_bound_only=True)
    return RadiusValue(float(np.nanmin(zeros)), NUMERIC)


def _jacobi_zeros(manifold, directions, horizon, of, cap=None) -> tuple[RadiusValue, ...]:
    """The first zeros named by ``of`` ("value": j, "derivative": j'), with
    j(0)=0 and j'(0)=1, each minimized over sampled directions from the
    model's base point; one Jacobi integration serves them all.  ``cap`` is
    that of :func:`_first_zeros_batch`; the closed-form scan ignores it,
    and its integration ends one step after the last zero it reads."""
    if directions < 1:
        raise ValueError("directions must be >= 1")
    horizon = horizon if horizon is not None else manifold.horizon
    if manifold.closed_form:
        # constant curvature: the scalar equation is direction-independent
        solution = integrate_jacobi(manifold, horizon, _of=of)
        zeros = [solution.first_zero(of=name) for name in of]
        return tuple(
            RadiusValue(horizon, NUMERIC, lower_bound_only=True)
            if zero is None
            else RadiusValue(float(zero), NUMERIC)
            for zero in zeros
        )

    angles = np.linspace(0.0, 2.0 * math.pi, directions, endpoint=False)
    base = manifold.basepoint().coords
    j_zero, jp_zero, valid = _first_zeros_batch(
        manifold, base, angles, horizon, _of=of, cap=cap
    )
    columns = {"value": j_zero, "derivative": jp_zero}
    return tuple(_smallest_zero(columns[name], valid) for name in of)


def jacobi_radii(
    manifold: Manifold,
    directions: int = DEFAULT_DIRECTIONS,
    horizon: float | None = None,
) -> tuple[RadiusValue, RadiusValue]:
    """(conjugate radius, focal radius), both read off one Jacobi integration:
    the first zeros of j(t) and of j'(t) (j(0)=0, j'(0)=1), minimized over
    sampled directions from the model's base point."""
    return _jacobi_zeros(manifold, directions, horizon, ("value", "derivative"))


def conjugate_radius(
    manifold: Manifold,
    directions: int = DEFAULT_DIRECTIONS,
    horizon: float | None = None,
) -> RadiusValue:
    """First zero of j(t) (j(0)=0, j'(0)=1), minimized over sampled directions.

    The commands read both radii off one ``jacobi_radii`` scan; the tests
    call this half of it alone."""
    return jacobi_radii(manifold, directions, horizon)[0]


def focal_radius(
    manifold: Manifold,
    directions: int = DEFAULT_DIRECTIONS,
    horizon: float | None = None,
    cap: float | None = None,
) -> RadiusValue:
    """First zero of j'(t), minimized over sampled directions.

    Its scan drops each direction once j' has its zero, so it stops before
    the conjugate zero that ``jacobi_radii`` waits for; both give the same
    focal radius.  A caller that reads only min(focal, cap) passes ``cap``:
    once the scan reaches ``cap`` with no zero and no direction out of the
    chart, the surface scan stops and returns a lower bound >= cap, which
    gives that minimum the bits of the full scan's."""
    return _jacobi_zeros(manifold, directions, horizon, ("derivative",), cap)[0]


def convexity_from(focal: RadiusValue, injectivity: RadiusValue) -> RadiusValue:
    """conv = min(focal, injectivity/2), with provenance from the argmin."""
    half_inj = injectivity.value / 2.0
    if focal.lower_bound_only and focal.value < half_inj:
        raise ConfigError(
            "focal radius is only a lower bound below injectivity/2; "
            "raise the search horizon"
        )
    if focal.value <= half_inj:
        return RadiusValue(focal.value, focal.provenance)
    return RadiusValue(half_inj, injectivity.provenance)


def radii_report(
    manifold: Manifold,
    certified_injectivity: float | None = None,
    certified_loop_length: float | None = None,
    base_points: int = DEFAULT_BASE_POINTS,
    directions: int = DEFAULT_DIRECTIONS,
    horizon: float | None = None,
) -> RadiiReport:
    """Assemble the radii of a model.

    Constant-curvature models are closed-form.  The numeric surface samples
    ``base_points`` points along its u-interval (rotational symmetry makes v
    irrelevant), integrates the Jacobi equation along ``directions``
    directions at every one of them in a single batch (base points times
    directions rows), takes the minima, and requires a certified injectivity
    bound from the caller.
    """
    if manifold.closed_form:
        return closed_form_radii(manifold)
    if certified_injectivity is None:
        raise ConfigError(
            "numeric manifolds need a certified injectivity bound (config key "
            "injectivity_bound); it is never estimated"
        )
    horizon = horizon if horizon is not None else manifold.horizon
    lo, hi = manifold.profile.u_min, manifold.profile.u_max
    us = lo + (hi - lo) * (np.arange(base_points) + 1.0) / (base_points + 1.0)
    angles = np.linspace(0.0, 2.0 * math.pi, directions, endpoint=False)
    bases = np.column_stack([us, np.zeros(base_points)])
    # one batched integration serves both scans at every base point
    scan = _first_zeros_batch(manifold, bases, angles, horizon)
    j_zero, jp_zero, valid = scan
    conj_best: RadiusValue | None = None
    foc_best: RadiusValue | None = None
    for j_row, jp_row, valid_row in zip(j_zero, jp_zero, valid):
        conj_best = _merge_min(conj_best, _smallest_zero(j_row, valid_row))
        foc_best = _merge_min(foc_best, _smallest_zero(jp_row, valid_row))
    inj = RadiusValue(float(certified_injectivity), CERTIFIED)
    loop = (
        RadiusValue(float(certified_loop_length), CERTIFIED)
        if certified_loop_length is not None
        else RadiusValue(horizon * 2.0, CERTIFIED, lower_bound_only=True)
    )
    conv = convexity_from(foc_best, inj)
    return RadiiReport(manifold.describe(), inj, conj_best, foc_best, loop, conv, scan.error)


def _merge_min(acc: RadiusValue | None, new: RadiusValue) -> RadiusValue:
    if acc is None:
        return new
    if new.lower_bound_only and acc.lower_bound_only:
        return RadiusValue(min(acc.value, new.value), NUMERIC, lower_bound_only=True)
    if new.lower_bound_only:
        return acc if acc.value <= new.value else RadiusValue(
            new.value, NUMERIC, lower_bound_only=True
        )
    if acc.lower_bound_only:
        return new if new.value <= acc.value else RadiusValue(
            acc.value, NUMERIC, lower_bound_only=True
        )
    return acc if acc.value <= new.value else new
