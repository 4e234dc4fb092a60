"""Geodesic integration, first variation, Jacobi fields.

The first-variation identity, the Jacobi residual and the sampled RK4
integrations of ``ode_oracles`` are test oracles: no command runs them."""

import math

import numpy as np
import pytest

import geolens._ode as ode_module
import geolens.geodesics as geodesics_module
from geolens import (
    BallPair,
    Euclidean,
    GeodesicLine,
    Hyperbolic,
    JacobiSolution,
    RevolutionProfile,
    Sphere,
    SurfaceOfRevolution,
    integrate_jacobi,
    jacobi_radii,
)
from geolens import radii as radii_module
from geolens.config import ManifoldSpec
from geolens.geodesics import hermite_zero
from geolens.manifolds import ManifoldPoint, TangentVector
from geolens.suite import RADII_TOL
from ode_oracles import GeodesicSegment, integrate_geodesic, rk4_trajectory, surface_jacobi


@pytest.fixture(scope="module")
def sphere():
    return Sphere(2, 1.0)


@pytest.fixture(scope="module")
def surface():
    return SurfaceOfRevolution(RevolutionProfile.cosine_bump())


# ---------------------------------------------------------- integration


@pytest.mark.parametrize(
    "model",
    [
        Euclidean(3),
        Sphere(2, 1.0),
        Hyperbolic(3, -0.5),
        SurfaceOfRevolution(RevolutionProfile.cosine_bump()),
    ],
    ids=lambda m: m.kind,
)
def test_geodesic_rhs_gives_the_bits_of_the_per_call_closure(model):
    # Manifold.geodesic_rhs replaced a closure of integrate_geodesic (and a
    # copy on the surface); the integration must not move by a bit
    d = model.ambient_dim

    def closure(state):
        pos, vel = state[:d], state[d:]
        return np.concatenate([vel, model.geodesic_acceleration(pos, vel)])

    base = model.basepoint()
    frame = model.tangent_basis(base.coords)
    direction = TangentVector(base, 0.6 * frame[0] + 0.8 * frame[1])
    seg = integrate_geodesic(model, base, direction, 0.4)
    state0 = np.concatenate([base.coords, direction.components])
    _, ys = rk4_trajectory(closure, state0, 0.4, len(seg.ts) - 1)
    assert seg.points.tobytes() == ys[:, :d].tobytes()
    assert seg.velocities.tobytes() == ys[:, d:].tobytes()
    block = np.vstack([ys[::50], ys[-1:]])
    rows = np.array([closure(row) for row in block])
    assert model.geodesic_rhs(block).tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "model",
    [Euclidean(3), Sphere(2, 1.0), Sphere(3, 2.5), Hyperbolic(2, -1.0), Hyperbolic(3, -0.5)],
    ids=lambda m: m.describe(),
)
def test_line_blocks_give_the_bits_of_scalar_calls(model):
    # a column of parameters evaluates the closed forms at once, calling
    # libm per element: NumPy's cosh and sinh would move some points by a bit
    base = model.basepoint()
    frame = model.tangent_basis(base.coords)
    direction = TangentVector(base, 0.6 * frame[0] + 0.8 * frame[1])
    line = GeodesicLine(model, base, direction)
    ts = np.concatenate([np.linspace(-3.0, 3.0, 2001), np.random.default_rng(7).uniform(0, 2, 500)])
    points = np.array([line.coords_at(float(t)) for t in ts])
    assert line.coords_many(ts).tobytes() == points.tobytes()
    pts, vels = model.exp_velocity_coords(base.coords, 1.5 * direction.components, ts[:, None])
    scalar = [model.exp_velocity_coords(base.coords, 1.5 * direction.components, t) for t in ts]
    assert pts.tobytes() == np.array([p for p, _ in scalar]).tobytes()
    assert vels.tobytes() == np.array([v for _, v in scalar]).tobytes()


def test_numeric_line_blocks_read_the_integrated_trajectory(surface):
    base = surface.basepoint()
    line = GeodesicLine(surface, base, TangentVector(base, surface.unit_tangent(base.coords, 0.3)))
    ts = np.linspace(-0.2, 0.3, 7)
    points = np.array([line.coords_at(float(t)) for t in ts])
    assert line.coords_many(ts).tobytes() == points.tobytes()


def test_numeric_line_points_do_not_depend_on_earlier_evaluations(surface):
    # the line keeps no trajectory: a point has the same bits before and
    # after a farther one is evaluated, and in any block
    base = surface.basepoint()
    direction = TangentVector(base, surface.unit_tangent(base.coords, 0.3))
    line = GeodesicLine(surface, base, direction)
    first = line.coords_at(0.1).tobytes()
    line.coords_at(0.5)
    assert line.coords_at(0.1).tobytes() == first
    assert line.coords_many([0.5, -0.3, 0.1])[2].tobytes() == first
    fresh = GeodesicLine(surface, base, direction)
    assert fresh.coords_at(0.1).tobytes() == first


def test_euclidean_integration_is_exact_line():
    e = Euclidean(2)
    p = e.point(1.0, -2.0)
    v = TangentVector(p, np.array([0.6, 0.8]))
    seg = integrate_geodesic(e, p, v, 2.5, step=0.05)
    expect = p.coords[None, :] + seg.ts[:, None] * v.components
    np.testing.assert_allclose(seg.points, expect, atol=1e-12)


def test_sphere_integration_matches_great_circle(sphere):
    north = sphere.point(0.0, 0.0, 1.0)
    v = TangentVector(north, np.array([1.0, 0.0, 0.0]))
    seg = integrate_geodesic(sphere, north, v, math.pi / 2, step=1e-3)
    worst = 0.0
    for t, pt in zip(seg.ts[::50], seg.points[::50]):
        closed, _ = sphere.exp_velocity_coords(north.coords, v.components, t)
        worst = max(worst, np.linalg.norm(pt - closed))
    assert worst < 1e-9


def test_surface_clairaut_constant_conserved(surface):
    p = surface.point(0.1, 0.0)
    v = TangentVector(p, surface.unit_tangent(p.coords, 1.35))
    seg = integrate_geodesic(surface, p, v, 2.0, step=2e-3)
    f = np.asarray(surface.profile.f(seg.points[:, 0]))
    clairaut = f**2 * seg.velocities[:, 1]
    assert np.max(np.abs(clairaut - clairaut[0])) < 1e-9


def test_unit_speed_preserved(sphere, surface):
    for model, base, comp in [
        (sphere, sphere.point(1.0, 0.0, 0.0), np.array([0.0, 1.0, 0.0])),
        (surface, surface.point(0.0, 0.0), surface.unit_tangent([0.0, 0.0], 1.2)),
    ]:
        seg = integrate_geodesic(model, base, TangentVector(base, comp), 1.5, step=2e-3)
        speeds = [
            math.sqrt(model.inner_coords(pt, vel, vel))
            for pt, vel in zip(seg.points[::37], seg.velocities[::37])
        ]
        assert max(abs(s - 1.0) for s in speeds) < 1e-9


def test_integrator_is_fourth_order(sphere):
    north = sphere.point(0.0, 0.0, 1.0)
    v = TangentVector(north, np.array([1.0, 0.0, 0.0]))
    end_exact, _ = sphere.exp_velocity_coords(north.coords, v.components, 1.0)
    errs = []
    for step in (0.02, 0.01):
        seg = integrate_geodesic(sphere, north, v, 1.0, step=step)
        errs.append(np.linalg.norm(seg.points[-1] - end_exact))
    assert errs[0] / errs[1] >= 8.0


def test_configured_step_reaches_the_line_and_the_jacobi_integration(monkeypatch):
    # [manifold] step sets the grid of every surface integration: the
    # geodesic line of a ball pair, whose DOP853 steps each span
    # SCAN_GRID_STEPS of it, and the reference Jacobi field left at its
    # default
    surface = ManifoldSpec(kind="surface_of_revolution", step=1e-3).build()
    steps = []
    dop853_step = ode_module.dop853_step

    def spy(rhs, y, h, **kwargs):
        steps.append(np.max(np.abs(h)))
        return dop853_step(rhs, y, h, **kwargs)

    monkeypatch.setattr(ode_module, "dop853_step", spy)
    bp = BallPair.create(surface, 0.3, 0.2, convexity_bound=0.5)
    bp.line.states_many([-0.2, 0.1, 0.5])
    assert steps and max(steps) <= ode_module.SCAN_GRID_STEPS * 1e-3 * (1 + 1e-12)
    base = surface.basepoint()
    d = TangentVector(base, surface.unit_tangent(base.coords, 1.3))
    sol = surface_jacobi(surface, base, d, 0.5)
    assert np.max(np.diff(sol.ts)) <= 1e-3 * (1 + 1e-12)


def test_non_unit_direction_rejected():
    e = Euclidean(2)
    p = e.point(0.0, 0.0)
    with pytest.raises(ValueError):
        integrate_geodesic(e, p, TangentVector(p, np.array([2.0, 0.0])), 1.0)


def _assert_every_constructor_rejects(model, base, direction):
    with pytest.raises(ValueError):
        GeodesicLine(model, base, direction)
    with pytest.raises(ValueError):
        GeodesicSegment.from_exp(model, base, direction, 1.0)
    with pytest.raises(ValueError):
        integrate_geodesic(model, base, direction, 1.0)


def test_sphere_line_rejects_a_direction_that_is_not_tangent_at_its_base(sphere):
    # each direction below has unit norm at its own base point; only the
    # base it must be attached to, or its tangent space there, tells
    base = sphere.point(1.0, 0.0, 0.0)
    elsewhere = TangentVector(sphere.point(0.0, 1.0, 0.0), np.array([1.0, 0.0, 0.0]))
    off = ManifoldPoint(np.array([2.0, 0.0, 0.0]))
    for b, direction in [
        (base, elsewhere),
        (base, TangentVector(base, np.array([1.0, 0.0, 0.0]))),  # the normal
        (base, TangentVector(base, np.array([0.6, 0.8, 0.0]))),
        (off, TangentVector(off, np.array([0.0, 1.0, 0.0]))),
    ]:
        _assert_every_constructor_rejects(sphere, b, direction)
    with pytest.raises(ValueError):
        BallPair.create(sphere, 1.0, 0.5, t=0.3, base=base, direction=elsewhere)
    # an equal copy of the base point is the same base
    copy = ManifoldPoint(base.coords.copy())
    GeodesicLine(sphere, base, TangentVector(copy, np.array([0.0, 0.6, 0.8])))


def test_hyperboloid_line_rejects_a_direction_that_is_not_tangent_at_its_base():
    h = Hyperbolic(2, -1.0)
    base = h.basepoint()
    other = h.point(math.cosh(1.0), math.sinh(1.0), 0.0)
    # Minkowski norm 1.25^2 - 0.75^2 = 1, but not orthogonal to the base
    slanted = TangentVector(base, np.array([0.75, 1.25, 0.0]))
    assert abs(h.norm(slanted) - 1.0) < 1e-15
    _assert_every_constructor_rejects(h, base, slanted)
    _assert_every_constructor_rejects(h, base, TangentVector(other, np.array([0.0, 0.0, 1.0])))
    with pytest.raises(ValueError):
        BallPair.create(h, 1.0, 0.5, t=0.3, base=base, direction=slanted)
    along = TangentVector(base, np.array([0.0, 0.0, 1.0]))
    BallPair.create(h, 1.0, 0.5, t=0.3, base=base, direction=along)


# ------------------------------------------------------ first variation


def first_variation_check(manifold, family, fd_step: float = 1e-4) -> float:
    """Mismatch between dE/ds(0) and twice the endpoint inner product.

    ``family`` maps s to a tangent vector V(s) at one fixed point p, defining
    the geodesic variation f(t, s) = exp_p(t V(s)).  The s-derivative of the
    energy of f(., s) at s = 0 is evaluated by central differences and
    compared against 2 g(sigma'(0), c'(1)) where sigma(s) = f(1, s) and
    c = f(., 0).  Returns the absolute difference: an invariant check of
    ``exp`` and ``exp_with_velocity``.
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


def test_first_variation_constant_family_vanishes(sphere):
    north = sphere.point(0.0, 0.0, 1.0)

    def family(s):
        return TangentVector(north, np.array([0.7, 0.0, 0.0]))

    assert first_variation_check(sphere, family) < 1e-12


def test_first_variation_euclidean_explicit():
    e = Euclidean(2)
    origin = e.point(0.0, 0.0)

    def family(s):
        return TangentVector(origin, np.array([1.0 + s, 0.0]))

    # dE/ds(0) = 2 and 2 g(sigma'(0), c'(1)) = 2
    assert first_variation_check(e, family) < 1e-10


def test_first_variation_sphere_random_families(sphere):
    rng = np.random.default_rng(31)
    north = sphere.point(0.0, 0.0, 1.0)
    basis = sphere.tangent_basis(north.coords)
    for _ in range(5):
        a = rng.normal(scale=0.5, size=2)
        b = rng.normal(scale=0.3, size=2)

        def family(s):
            comp = (a[0] + s * b[0]) * basis[0] + (a[1] + s * b[1]) * basis[1]
            return TangentVector(north, comp)

        assert first_variation_check(sphere, family, fd_step=1e-4) < 1e-5


def test_surface_velocity_exp_matches_the_point_batch(surface):
    # exp_velocity_coords integrates one vector alone; its point has the
    # bits of the same vector's row of exp_many
    rng = np.random.default_rng(41)
    base = surface.basepoint()
    for v in rng.uniform(-0.4, 0.4, size=(40, 2)):
        point, _ = surface.exp_velocity_coords(base.coords, v, 1.0)
        assert point.tobytes() == surface.exp_many(base.coords, v[None, :])[0].tobytes()


def test_first_variation_surface_family(surface):
    base = surface.point(0.1, 0.0)
    a, b = np.array([0.3, 0.1]), np.array([-0.2, 0.15])

    def family(s):
        return TangentVector(base, a + s * b)

    assert first_variation_check(surface, family) < 1e-7


# ------------------------------------------------------------- jacobi


def residual_max(sol) -> float:
    """Max residual of j'' + K j = 0 via second differences (order h^2)."""
    h = sol.ts[1] - sol.ts[0]
    jpp = (sol.j[2:] - 2 * sol.j[1:-1] + sol.j[:-2]) / (h * h)
    return float(np.max(np.abs(jpp + sol.curvature[1:-1] * sol.j[1:-1])))


def _numpy_jacobi(model, length, step):
    """(j, j') of the constant-curvature scan through ``rk4_trajectory`` and
    a NumPy right-hand side: the integration before it ran on floats."""
    k = model.curvature_at(model.basepoint().coords)

    def rhs(state):
        return np.array([state[1], -k * state[0]])

    n = max(2, int(math.ceil(length / step)))
    ts, ys = rk4_trajectory(rhs, np.array([0.0, 1.0]), length, n)
    return ts, ys[:, 0].copy(), ys[:, 1].copy()


def _loop_first_zero(sol, of):
    """``JacobiSolution.first_zero`` as a loop over the steps."""
    vals, ders = (sol.j, sol.jp) if of == "value" else (sol.jp, -sol.curvature * sol.j)
    for i in range(1 if of == "value" else 0, len(sol.ts) - 1):
        if vals[i] == 0.0 and sol.ts[i] > 0:
            return float(sol.ts[i])
        if vals[i] * vals[i + 1] < 0:
            return float(
                hermite_zero(sol.ts[i], sol.ts[i + 1], vals[i], vals[i + 1], ders[i], ders[i + 1])
            )
    return None


@pytest.mark.parametrize("step", [None, 1e-3], ids=["default", "1e-3"])
@pytest.mark.parametrize(
    "model",
    [Sphere(2, 1.0), Sphere(3, 4.0), Euclidean(2), Hyperbolic(2, -0.3)],
    ids=lambda m: m.describe(),
)
def test_float_jacobi_gives_the_bits_of_the_numpy_trajectory(model, step):
    # the constant-curvature scan steps on floats; its samples and zeros
    # must be those of rk4_trajectory and of the loop over the steps
    sol = integrate_jacobi(model, model.horizon, step=step)
    ts, j, jp = _numpy_jacobi(model, model.horizon, model.step if step is None else step)
    assert sol.ts.tobytes() == ts.tobytes()
    assert sol.j.tobytes() == j.tobytes()
    assert sol.jp.tobytes() == jp.tobytes()
    for of in ("value", "derivative"):
        assert repr(sol.first_zero(of)) == repr(_loop_first_zero(sol, of))


@pytest.mark.parametrize(
    "of, vals, bracket",
    [
        ("value", [0.0, 0.5, 0.0, -0.5, 0.2], (0.5, 0.5)),  # exact zero at a sample
        ("value", [0.0, -0.5, -1.0, -0.5, -0.2], None),  # j(0) = 0 is skipped
        ("derivative", [1.0, 0.5, 0.0, -0.5, -1.0], (0.5, 0.5)),
        ("derivative", [0.0, 0.5, 0.7, 0.8, 0.9], None),  # t = 0 is not positive
        ("value", [0.0, 0.5, 0.7, 0.8, -0.1], (0.75, 1.0)),  # sign change in the last step
        ("derivative", [1.0, 0.5, 0.4, 0.3, 0.2], None),  # no zero
    ],
)
def test_first_zero_gives_the_loop_answer_on_hand_built_arrays(of, vals, bracket):
    ts = np.linspace(0.0, 1.0, 5)
    vals = np.array(vals)
    other = np.array([0.0, 1.0, -1.0, 2.0, 0.5])
    j, jp = (vals, other) if of == "value" else (other, vals)
    sol = JacobiSolution(ts, j, jp, np.full(5, 2.0))
    got = sol.first_zero(of)
    assert repr(got) == repr(_loop_first_zero(sol, of))
    if bracket is None:
        assert got is None
    else:
        assert bracket[0] <= got <= bracket[1]


def test_constant_curvature_radii_take_no_numpy_trajectory(monkeypatch):
    # the per-step NumPy integration must not come back on the radii scan:
    # no binding of dop853_step is called
    def refuse(*args, **kwargs):
        raise AssertionError("a NumPy step called")

    for module, name in (
        (ode_module, "dop853_step"),
        (radii_module, "dop853_step"),
    ):
        monkeypatch.setattr(module, name, refuse)
    conjugate, focal = jacobi_radii(Sphere(2, 1.0), directions=1)
    assert abs(conjugate.value - math.pi) < RADII_TOL
    assert abs(focal.value - math.pi / 2) < RADII_TOL


def test_integrate_jacobi_refuses_the_surface(surface):
    # the surface's curvature varies along each geodesic: its scans
    # integrate the joint system, and surface_jacobi is their reference
    with pytest.raises(ValueError, match="no constant curvature"):
        integrate_jacobi(surface, 1.0)


def test_jacobi_euclidean_linear():
    sol = integrate_jacobi(Euclidean(2), 3.0, step=1e-3)
    np.testing.assert_allclose(sol.j, sol.ts, atol=1e-10)
    assert sol.first_zero("value") is None
    assert sol.first_zero("derivative") is None


def test_jacobi_sphere_sine(sphere):
    sol = integrate_jacobi(sphere, math.pi, step=1e-3)
    assert np.max(np.abs(sol.j - np.sin(sol.ts))) < 1e-9


def test_jacobi_hyperbolic_sinh():
    sol = integrate_jacobi(Hyperbolic(2, -1.0), 3.0, step=1e-3)
    assert np.max(np.abs(sol.j - np.sinh(sol.ts))) < 1e-9


def test_jacobi_residual_on_surface(surface):
    base = surface.point(0.0, 0.0)
    d = TangentVector(base, surface.unit_tangent(base.coords, math.pi / 2))
    sol = surface_jacobi(surface, base, d, 4.0, step=2e-3)
    assert sol.j[0] == 0.0 and sol.jp[0] == 1.0
    assert residual_max(sol) < 1e-5


def test_surface_jacobi_matches_the_scalar_system(surface):
    # the shape-generic right-hand side against a scalar copy of the joint
    # geodesic + Jacobi system, bit for bit
    profile = surface.profile

    def rhs(state):
        u, du, dv, j, jp = state[0], state[2], state[3], state[4], state[5]
        f = float(profile.f(u))
        fp = float(profile.df(u))
        k = -float(profile.d2f(u)) / f
        return np.array([du, dv, f * fp * dv * dv, -2.0 * (fp / f) * du * dv, jp, -k * j])

    base = surface.point(0.1, 0.0)
    for angle in (1.4, 1.6, 1.8):
        d = TangentVector(base, surface.unit_tangent(base.coords, angle))
        sol = surface_jacobi(surface, base, d, 3.0, step=2e-3)
        state0 = np.concatenate([base.coords, d.components, [0.0, 1.0]])
        _, ys = rk4_trajectory(rhs, state0, 3.0, len(sol.ts) - 1)
        assert sol.j.tobytes() == ys[:, 4].tobytes()
        assert sol.jp.tobytes() == ys[:, 5].tobytes()


def test_jacobi_comparison_bounds_first_zero(surface):
    # oscillating geodesics near the bulge see K in [K(u_range), K(0)] > 0;
    # their first Jacobi zero must lie between the constant-curvature answers
    base = surface.point(0.0, 0.0)
    for delta in (-0.18, -0.08, 0.0, 0.08, 0.18):
        d = TangentVector(base, surface.unit_tangent(base.coords, math.pi / 2 + delta))
        seg = integrate_geodesic(surface, base, d, 6.4, step=2e-3)
        u_abs = float(np.max(np.abs(seg.points[:, 0])))
        k_min = float(surface.curvature_of_u(u_abs))
        k_max = float(surface.curvature_of_u(0.0))
        sol = surface_jacobi(surface, base, d, 6.4, step=2e-3)
        zero = sol.first_zero("value")
        assert zero is not None
        assert math.pi / math.sqrt(k_max) - 1e-9 <= zero <= math.pi / math.sqrt(k_min) + 1e-9


def _eighty_step_hermite_zero(t0, t1, v0, v1, d0, d1):
    """``hermite_zero`` with all of its 80 bisection steps."""
    lo, hi = np.asarray(t0, dtype=np.float64), np.asarray(t1, dtype=np.float64)
    lo_positive = np.asarray(v0) > 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        same = (geodesics_module._hermite(mid, t0, t1, v0, v1, d0, d1) > 0) == lo_positive
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _recorded_brackets(monkeypatch, module, run):
    """The arguments of every ``hermite_zero`` call that ``run()`` makes
    through ``module``, with the bisection steps each call took."""
    calls, steps = [], []
    hermite, solve = geodesics_module._hermite, module.hermite_zero

    def counted(*args):
        steps[-1] += 1
        return hermite(*args)

    def spy(*args):
        calls.append(args)
        steps.append(0)
        return solve(*args)

    monkeypatch.setattr(geodesics_module, "_hermite", counted)
    monkeypatch.setattr(module, "hermite_zero", spy)
    run()
    monkeypatch.undo()
    return calls, steps


def test_hermite_zero_stops_at_its_fixed_point_with_the_bits_of_eighty_steps(monkeypatch):
    # 0-d brackets: the sphere's closed-form Jacobi scans
    sphere = Sphere(2, 1.0)
    calls, steps = _recorded_brackets(
        monkeypatch, geodesics_module, lambda: jacobi_radii(sphere, directions=4)
    )
    assert calls and all(np.ndim(args[0]) == 0 for args in calls)
    assert max(steps) < 80
    for args in calls:
        assert hermite_zero(*args).tobytes() == _eighty_step_hermite_zero(*args).tobytes()
    # a batched bracket set of the surface's Jacobi scan
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bases = np.column_stack([np.linspace(-0.5, 0.5, 5), np.zeros(5)])
    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    calls, steps = _recorded_brackets(
        monkeypatch, radii_module, lambda: radii_module._first_zeros_batch(surface, bases, angles, 7.0)
    )
    ((args,), (taken,)) = calls, steps
    assert len(args[0]) > 1 and taken < 80
    assert hermite_zero(*args).tobytes() == _eighty_step_hermite_zero(*args).tobytes()
    # brackets that never settle (nan) take all 80 steps
    assert np.isnan(hermite_zero(0.0, np.nan, 1.0, -1.0, 0.0, 0.0))


def test_scalar_hermite_zero_has_the_bits_of_eighty_steps():
    rng = np.random.default_rng(24)
    brackets = []
    for _ in range(1000):
        t0 = rng.uniform(0.0, 6.0)
        t1 = t0 + 10.0 ** rng.uniform(-4.0, 0.5)
        v0 = rng.normal() * 10.0 ** rng.integers(-6, 2)
        v1 = -math.copysign(abs(rng.normal()), v0)
        d0, d1 = rng.normal(scale=3.0, size=2)
        brackets.append((t0, t1, v0, v1, d0, d1))
    # NumPy scalars and 0-d arrays, as the closed-form scans pass them
    brackets += [tuple(np.float64(a) for a in b) for b in brackets[:50]]
    brackets += [tuple(np.asarray(a) for a in b) for b in brackets[:50]]
    # an exact zero at either end, and brackets of nan
    brackets += [(0.5, 0.7, 0.0, -1.0, 2.0, 1.0), (0.5, 0.7, 1.0, 0.0, -1.0, 3.0)]
    brackets += [(0.0, math.nan, 1.0, -1.0, 0.0, 0.0), (0.0, 1.0, math.nan, -1.0, 0.0, 0.0)]
    for args in brackets:
        got = hermite_zero(*args)
        assert type(got) is np.float64
        assert got.tobytes() == _eighty_step_hermite_zero(*args).tobytes(), args
