"""Model manifolds: metric, exponential/logarithm maps, distance axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geolens import (
    Euclidean,
    Hyperbolic,
    RevolutionProfile,
    Sphere,
    SurfaceOfRevolution,
)
from geolens.errors import ChartError, InjectivityError, OffManifoldError
from geolens.manifolds import ManifoldPoint, TangentVector


@pytest.fixture(scope="module")
def models():
    return {
        "euclidean": Euclidean(2),
        "sphere": Sphere(2, 1.0),
        "hyperbolic": Hyperbolic(2, -1.0),
        "surface": SurfaceOfRevolution(RevolutionProfile.cosine_bump()),
    }


def _random_point(model, rng, spread=0.8):
    if model.kind == "euclidean":
        return ManifoldPoint(rng.normal(scale=spread, size=model.dim))
    if model.kind == "sphere":
        v = rng.normal(size=model.ambient_dim)
        return ManifoldPoint(model.normalize(v))
    if model.kind == "hyperbolic":
        return ManifoldPoint(model.normalize(rng.normal(scale=spread, size=model.dim)))
    u = rng.uniform(-0.4, 0.4)
    v = rng.uniform(-1.0, 1.0)
    return ManifoldPoint(np.array([u, v]))


def _random_tangent(model, point, rng, scale=1.0):
    raw = rng.normal(size=model.ambient_dim)
    comp = model.project_tangent(point.coords, raw)
    norm = math.sqrt(model.inner_coords(point.coords, comp, comp))
    return TangentVector(point, (scale / norm) * comp)


# ---------------------------------------------------------------- metric


def test_euclidean_orthonormal_frame():
    e = Euclidean(2)
    origin = e.point(0.0, 0.0)
    a = TangentVector(origin, np.array([1.0, 0.0]))
    b = TangentVector(origin, np.array([0.0, 1.0]))
    assert e.metric_inner(a, b) == 0.0


def test_metric_positive_definite(models):
    rng = np.random.default_rng(5)
    for model in models.values():
        p = _random_point(model, rng)
        v = _random_tangent(model, p, rng)
        assert model.metric_inner(v, v) > 0
        zero = TangentVector(p, np.zeros(model.ambient_dim))
        assert model.metric_inner(zero, zero) == 0.0


def test_surface_metric_table_value():
    # metric du^2 + f(u)^2 dv^2 with f(u) = 2 + cos(u): f(0)^2 = 9
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    p = sor.point(0.0, 0.0)
    dv = TangentVector(p, np.array([0.0, 1.0]))
    assert sor.metric_inner(dv, dv) == pytest.approx(9.0, abs=1e-15)


def test_metric_mismatched_base_points_rejected():
    e = Euclidean(2)
    a = TangentVector(e.point(0.0, 0.0), np.array([1.0, 0.0]))
    b = TangentVector(e.point(1.0, 0.0), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        e.metric_inner(a, b)


def test_off_manifold_point_rejected():
    s = Sphere(2, 1.0)
    with pytest.raises(OffManifoldError):
        s.point(1.1, 0.0, 0.0)


# ---------------------------------------------------------------- exp map


def test_euclidean_exp_is_translation():
    e = Euclidean(2)
    p = e.point(0.0, 0.0)
    v = TangentVector(p, np.array([3.0, 4.0]))
    np.testing.assert_allclose(e.exp(v).coords, [3.0, 4.0])


def test_sphere_exp_half_great_circle_hits_antipode():
    s = Sphere(2, 1.0)
    north = s.point(0.0, 0.0, 1.0)
    v = TangentVector(north, math.pi * np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(s.exp(v).coords, [0.0, 0.0, -1.0], atol=1e-12)


def test_hyperbolic_exp_log_roundtrip_unit_distance():
    h = Hyperbolic(2, -1.0)
    b = h.basepoint()
    v = TangentVector(b, np.array([0.0, 1.0, 0.0]))
    q = h.exp(v)
    assert h.distance(b, q) == pytest.approx(1.0, abs=1e-12)
    back = h.log(b, q)
    np.testing.assert_allclose(back.components, v.components, atol=1e-10)


def test_surface_exp_beyond_horizon_rejected():
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump(), horizon=2.0)
    p = sor.point(0.0, 0.0)
    long_v = 3.0 * sor.unit_tangent(p.coords, math.pi / 2)
    with pytest.raises(ChartError):
        sor.exp(TangentVector(p, long_v))


# ---------------------------------------------------------------- log map


def test_euclidean_log_is_difference():
    e = Euclidean(2)
    v = e.log(e.point(1.0, 2.0), e.point(4.0, 6.0))
    np.testing.assert_allclose(v.components, [3.0, 4.0])


def test_sphere_equator_log_quarter_turn():
    s = Sphere(2, 1.0)
    p = s.point(1.0, 0.0, 0.0)
    q = s.point(0.0, 1.0, 0.0)
    v = s.log(p, q)
    assert s.norm(v) == pytest.approx(math.pi / 2, abs=1e-12)
    np.testing.assert_allclose(
        v.components, (math.pi / 2) * np.array([0.0, 1.0, 0.0]), atol=1e-12
    )


def test_sphere_log_at_antipode_rejected():
    s = Sphere(2, 1.0)
    with pytest.raises(InjectivityError):
        s.log(s.point(1.0, 0.0, 0.0), s.point(-1.0, 0.0, 0.0))


def test_surface_log_roundtrip_random():
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    rng = np.random.default_rng(11)
    p = sor.point(0.05, -0.3)
    for _ in range(10):
        ang = rng.uniform(0, 2 * math.pi)
        ln = rng.uniform(0.02, 0.35)
        q = sor.exp_many(p.coords, (ln * sor.unit_tangent(p.coords, ang))[None, :])[0]
        v = sor.log_coords(p.coords, q)
        back = sor.exp_many(p.coords, v[None, :])[0]
        assert np.linalg.norm(back - q) < 1e-8


# ---------------------------------------------------------------- distance


def test_distance_identical_points_zero(models):
    rng = np.random.default_rng(13)
    for model in models.values():
        p = _random_point(model, rng)
        assert model.distance(p, p) == 0.0


def test_sphere_antipodal_distance():
    s = Sphere(2, 1.0)
    assert s.distance(s.point(0, 0, 1.0), s.point(0, 0, -1.0)) == pytest.approx(
        math.pi, abs=1e-12
    )


def _shoot_hyperbolic(h, p, q):
    """Independent distance oracle: Gauss-Newton shooting through the
    geodesic ODE integrator (never touches the closed-form log)."""
    from geolens.geodesics import integrate_geodesic

    guess = h.project_tangent(p.coords, q.coords - p.coords)
    norm = math.sqrt(max(h.inner_coords(p.coords, guess, guess), 1e-16))
    v = guess / norm * min(norm, 1.0)
    for _ in range(40):
        speed = math.sqrt(h.inner_coords(p.coords, v, v))
        direction = TangentVector(p, v / speed)
        seg = integrate_geodesic(h, p, direction, speed, step=2e-3)
        res = seg.points[-1] - q.coords
        if np.linalg.norm(res) < 1e-10:
            return speed
        basis = h.tangent_basis(p.coords)
        jac = np.empty((h.ambient_dim, h.dim))
        eps = 1e-6
        for k in range(h.dim):
            v_k = v + eps * basis[k]
            speed_k = math.sqrt(h.inner_coords(p.coords, v_k, v_k))
            seg_k = integrate_geodesic(
                h, p, TangentVector(p, v_k / speed_k), speed_k, step=2e-3
            )
            jac[:, k] = (seg_k.points[-1] - q.coords - res) / eps
        delta, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        v = v + basis.T @ delta
    raise AssertionError("shooting oracle failed to converge")


def test_hyperbolic_distance_against_ode_oracle():
    h = Hyperbolic(2, -1.0)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        p = _random_point(h, rng, spread=0.5)
        q = _random_point(h, rng, spread=0.5)
        if h.distance(p, q) < 1e-3:
            continue
        oracle = _shoot_hyperbolic(h, p, q)
        worst = max(worst, abs(oracle - h.distance(p, q)))
    assert worst < 1e-8


# ------------------------------------------------- invariants & properties


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_triangle_inequality_all_models(seed):
    rng = np.random.default_rng(seed)
    for model in [Euclidean(2), Sphere(2, 1.0), Hyperbolic(2, -1.0)]:
        a, b, c = (_random_point(model, rng) for _ in range(3))
        lhs = model.distance(a, b)
        rhs = model.distance(a, c) + model.distance(c, b)
        assert lhs <= rhs + 1e-9


def test_strict_triangle_inequality_off_geodesic():
    rng = np.random.default_rng(19)
    for model in [Euclidean(2), Sphere(2, 1.0), Hyperbolic(2, -1.0)]:
        for _ in range(25):
            a = _random_point(model, rng, spread=0.4)
            b = _random_point(model, rng, spread=0.4)
            if model.distance(a.coords, b.coords) < 0.1:
                continue
            mid_v = model.log(a, b)
            mid = model.exp(TangentVector(a, 0.5 * mid_v.components))
            frame = model.tangent_basis(mid.coords, primary=mid_v.components)
            off = model.exp_many(mid.coords, (1e-3 * frame[1])[None, :])[0]
            gap = (
                model.distance(a.coords, off)
                + model.distance(off, b.coords)
                - model.distance(a.coords, b.coords)
            )
            assert gap > 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_exp_log_roundtrip_below_injectivity(seed):
    rng = np.random.default_rng(seed)
    for model in [Euclidean(3), Sphere(2, 1.0), Hyperbolic(2, -1.0)]:
        p = _random_point(model, rng)
        scale = rng.uniform(0.05, 2.0)
        if model.kind == "sphere":
            scale = rng.uniform(0.05, 0.95 * math.pi)
        v = _random_tangent(model, p, rng, scale=scale)
        q = model.exp(v)
        back = model.log(p, q)
        assert np.linalg.norm(back.components - v.components) < 1e-8


def test_exp_is_arclength_minimizing(models):
    # d(exp(s * v), p) = s below the injectivity bound
    rng = np.random.default_rng(23)
    for model in models.values():
        p = _random_point(model, rng)
        v = _random_tangent(model, p, rng)
        top = 0.45 if model.kind == "surface_of_revolution" else 1.5
        if model.kind == "surface_of_revolution":
            p = ManifoldPoint(np.array([0.0, 0.0]))
            v = TangentVector(p, model.unit_tangent(p.coords, math.pi / 2))
        for s in np.linspace(0.1, top, 5):
            q = model.exp_many(p.coords, (s * v.components)[None, :])[0]
            assert model.dist_coords(p.coords, q) == pytest.approx(s, abs=1e-8)


def test_dimension_below_two_rejected():
    with pytest.raises(ValueError):
        Euclidean(1)


# ------------------------------------------------- circle and disk formulas


def test_disk_area_and_circumference_known_values():
    for k in (1.0, 4.0):
        # the disk of radius pi/(2 sqrt k) is a hemisphere
        assert Sphere(2, k).disk_area(0.5 * math.pi / math.sqrt(k)) == pytest.approx(
            2.0 * math.pi / k, rel=1e-14
        )
        assert Sphere(3, k).circle_circumference(
            0.5 * math.pi / math.sqrt(k)
        ) == pytest.approx(2.0 * math.pi / math.sqrt(k), rel=1e-14)
    h = Hyperbolic(2, -1.0)
    for rho in (0.1, 1.0, 2.5):
        assert h.circle_circumference(rho) == pytest.approx(2.0 * math.pi * math.sinh(rho), rel=1e-14)
        assert h.disk_area(rho) == pytest.approx(2.0 * math.pi * (math.cosh(rho) - 1.0), rel=1e-14)
    e = Euclidean(3)
    assert e.disk_area(1.5) == math.pi * 1.5 * 1.5
    assert e.circle_circumference(1.5) == 2.0 * math.pi * 1.5


@pytest.mark.parametrize(
    "model",
    [Euclidean(2), Sphere(2, 1.0), Sphere(3, 4.0), Hyperbolic(2, -1.0), Hyperbolic(3, -0.25)],
    ids=lambda m: m.describe(),
)
def test_disk_formulas_flat_limit_and_area_derivative(model):
    rho = 1e-4
    assert model.disk_area(rho) / (math.pi * rho * rho) == pytest.approx(1.0, abs=1e-6)
    assert model.circle_circumference(rho) / (2.0 * math.pi * rho) == pytest.approx(1.0, abs=1e-7)
    # the circumference is the derivative of the area in the radius
    h = 1e-5
    for rho in (0.3, 0.7):
        slope = (model.disk_area(rho + h) - model.disk_area(rho - h)) / (2.0 * h)
        assert slope == pytest.approx(model.circle_circumference(rho), rel=1e-8)


def test_surface_uses_flat_formulas():
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    flat = Euclidean(2)
    assert not sor.closed_form
    assert all(m.closed_form for m in (flat, Sphere(2, 1.0), Hyperbolic(2, -1.0)))
    assert sor.disk_area(0.2) == flat.disk_area(0.2)
    assert sor.circle_circumference(0.2) == flat.circle_circumference(0.2)
    assert sor.corner_cosine(0.3, 0.2, 0.25) == flat.corner_cosine(0.3, 0.2, 0.25)
