"""Convexity, injectivity, conjugate, focal, and loop radii of the models.

Constant-curvature models have closed forms; their Jacobi scans
(``jacobi_radii``) integrate the one scalar equation on Python floats
(``geodesics.integrate_jacobi``).  Numeric surfaces get conjugate and focal
radii from one batched integration of the joint geodesic + Jacobi system
over sampled directions (:func:`_first_zeros_batch`, whose one-direction
reference is in ``tests/ode_oracles.py``); their injectivity radius is never
estimated, it must be certified by the user (e.g. in the run configuration),
and the convexity radius is assembled from the identity
conv = min(focal, injectivity / 2).  A caller that needs only that minimum
passes injectivity / 2 as the ``cap`` of :func:`focal_radius`, whose scan
then stops at the cap when no direction has a zero or has left the chart.

Horizon-limited searches report a lower bound, never a fabricated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from geolens._ode import rk4_step
from geolens.errors import ConfigError
from geolens.geodesics import hermite_zero, integrate_jacobi
from geolens.manifolds import Manifold

CLOSED_FORM = "closed-form"
NUMERIC = "numeric-estimate"
CERTIFIED = "user-certified"

DEFAULT_DIRECTIONS = 64
DEFAULT_BASE_POINTS = 16


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
    """The five radii of one model, each with provenance."""

    manifold_label: str
    injectivity: RadiusValue
    conjugate: RadiusValue
    focal: RadiusValue
    loop_length: RadiusValue
    convexity: RadiusValue

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


def _first_zeros_batch(
    manifold, base_coords, angles, horizon, step=None, _of=("value", "derivative"), cap=None
):
    """First zeros of j and j' along geodesics in the given directions from
    one base point (2,) or from each of a block of them (..., 2), in steps of
    at most ``step`` (default: the model's).

    Returns (j_zero, jp_zero, valid_length) arrays of shape
    ``base_coords.shape[:-1] + (len(angles),)``, with nan for "no zero
    found"; valid_length is where a direction left the chart before its
    zeros were found (else horizon).  Integrates the surface's joint geodesic
    + Jacobi system over every base point and direction at once, on the grid
    :func:`integrate_jacobi` uses.  A row stops once it leaves the chart or
    has the zeros it needs, so its results do not depend on the other rows.
    ``_of`` names the zeros needed, "value" (j) and "derivative" (j'); a
    zero not named stays nan.

    ``cap`` is for a caller that reads only the smallest zero capped at
    ``cap``.  At the first grid time t >= cap, if no row has a searched zero
    and none has left the chart, the scan stops there with every valid
    length t: any later zero or exit would be capped to ``cap`` as well.
    Otherwise it runs on as without ``cap``.

    The state is one (rows, 6) block in Fortran order, component-contiguous:
    each ``state[:, k]`` that :meth:`jacobi_rhs` reads and writes is one
    contiguous run, and the block keeps the (..., 6) layout of every other
    caller.  Each step goes through :func:`rk4_step` with ``out=`` and
    ``work=``: the new state lands in a second block and the stages in
    three more, which every step reuses, in the operations of the
    allocating step.  The blocks swap roles after a step and are allocated
    anew only when rows leave.

    Most steps change nothing but the state: every new u is inside
    [u_min, u_max] and no searched column of a live row crosses or touches
    zero (one ``min``/``max`` each, which a nan fails).  Only the other
    steps run the exit and zero bookkeeping.  A sign change keeps its
    bracket (step, row, column, both end values and both end derivatives
    from :meth:`jacobi_rhs`), and after the loop one :func:`hermite_zero`
    call places every zero inside its step with the cubic Hermite
    interpolant of the RK4 states, as ``JacobiSolution.first_zero`` does.
    Its reference is one direction at a time: ``surface_jacobi`` of
    ``tests/ode_oracles.py``, a sampled RK4 trajectory of the same system,
    read by ``first_zero``.
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
    new, *work = (np.empty_like(state) for _ in range(4))
    for i in range(n):
        if not len(live):
            break
        if i == decide and len(live) == len(zeros) and np.isnan(zeros).all():
            valid_length[:] = ts[i]
            break
        rk4_step(manifold.jacobi_rhs, state, h, out=new, work=work)
        u = new[:, 0]
        before, after = state[:, searched], new[:, searched]
        product = before * after
        if u.min() >= profile.u_min and u.max() <= profile.u_max and product.min() > 0:
            state, new = new, state
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
        if keep.all():
            state, new = new, state
        else:
            # rows left: the buffers shrink to the rows still live
            live, state = live[keep], np.asfortranarray(new[keep])
            new, *work = (np.empty_like(state) for _ in range(4))
    if brackets:
        steps, rows, cols, v0, v1, d0, d1 = (np.concatenate(part) for part in zip(*brackets))
        zeros[rows, cols] = hermite_zero(ts[steps], ts[steps + 1], v0, v1, d0, d1)
    return (
        zeros[:, 0].reshape(shape),
        zeros[:, 1].reshape(shape),
        valid_length.reshape(shape),
    )


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
    once the grid reaches ``cap`` with no zero and no direction out of the
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
    j_zero, jp_zero, valid = _first_zeros_batch(manifold, bases, angles, horizon)
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
    return RadiiReport(manifold.describe(), inj, conj_best, foc_best, loop, conv)


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
