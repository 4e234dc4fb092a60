"""Model manifolds: metric, exponential/logarithm maps, distance axioms."""

import math
import warnings

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
from geolens import _ode
from geolens import manifolds as manifolds_module
from geolens.errors import ChartError, InjectivityError, OffManifoldError, ShootingError
from geolens.manifolds import ManifoldPoint, TangentVector
from ode_oracles import geodesic_endpoints, rk4_endpoint


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


def _shoot_hyperbolic(h, pairs, eps=1e-6):
    """Independent distance oracle: Gauss-Newton shooting through the
    geodesic ODE integrator (never touches the closed-form log), for every
    (p, q) pair.  Each iteration shoots every live pair and its ``h.dim``
    perturbations as one batch of independent rows, each row with the bits
    of its own one-row integration at step 2e-3."""
    vs = []
    for p, q in pairs:
        guess = h.project_tangent(p.coords, q.coords - p.coords)
        norm = math.sqrt(max(h.inner_coords(p.coords, guess, guess), 1e-16))
        vs.append(guess / norm * min(norm, 1.0))
    found = [None] * len(pairs)
    live = list(range(len(pairs)))
    for _ in range(40):
        starts, directions, speeds = [], [], []
        for i in live:
            p, v = pairs[i][0], vs[i]
            for w in [v] + [v + eps * e for e in h.tangent_basis(p.coords)]:
                speed = math.sqrt(h.inner_coords(p.coords, w, w))
                starts.append(p.coords)
                directions.append(w / speed)
                speeds.append(speed)
        ends = geodesic_endpoints(h, np.array(starts), np.array(directions), speeds, step=2e-3)
        ends = ends.reshape(len(live), h.dim + 1, h.ambient_dim)
        still = []
        for i, end, speed in zip(live, ends, speeds[:: h.dim + 1]):
            p, q = pairs[i]
            res = end[0] - q.coords
            if np.linalg.norm(res) < 1e-10:
                found[i] = speed
                continue
            jac = ((end[1:] - q.coords - res) / eps).T
            delta, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            vs[i] = vs[i] + h.tangent_basis(p.coords).T @ delta
            still.append(i)
        live = still
        if not live:
            return found
    raise AssertionError("shooting oracle failed to converge")


def test_hyperbolic_distance_against_ode_oracle():
    h = Hyperbolic(2, -1.0)
    rng = np.random.default_rng(17)
    pairs = []
    for _ in range(100):
        p = _random_point(h, rng, spread=0.5)
        q = _random_point(h, rng, spread=0.5)
        if h.distance(p, q) >= 1e-3:
            pairs.append((p, q))
    oracles = _shoot_hyperbolic(h, pairs)
    worst = max(abs(oracle - h.distance(p, q)) for oracle, (p, q) in zip(oracles, pairs))
    assert worst < 1e-8


def test_dist_many_is_the_pair_batch_with_the_point_tiled(models):
    # dist_many broadcasts its point over dist_pairs: the bits of the
    # explicitly tiled batch, on every model; each row is the pair distance.
    # (k, 1, d) sources against the block give the (k, n) block of the
    # sources' dist_many rows
    rng = np.random.default_rng(61)
    for name, model in models.items():
        x = _random_point(model, rng).coords
        if name == "surface":
            points = x + rng.uniform(-0.1, 0.1, size=(5, 2))
        else:
            points = np.array([_random_point(model, rng).coords for _ in range(40)])
        many = model.dist_many(x, points)
        assert many.tobytes() == model.dist_pairs(np.tile(x, (len(points), 1)), points).tobytes()
        for q, d in zip(points, many):
            assert d == pytest.approx(model.dist_coords(x, q), rel=0, abs=1e-12), name
        sources = np.vstack([x, points[:2]])
        for k in (1, 3):
            block = model.dist_pairs(sources[:k, None, :], points)
            rows = np.array([model.dist_many(s, points) for s in sources[:k]])
            assert block.shape == rows.shape and block.tobytes() == rows.tobytes(), (name, k)


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


# ------------------------------------------------------- surface shooting


def _finite_difference_log(sor, p, q):
    """The scalar shooter the lockstep one replaced, kept as its reference:
    one Newton shoot per target over [0, 1] with velocity length * unit
    tangent, and a forward-difference Jacobian (three RK4 runs a step)."""

    def n_steps(span):
        return max(16, int(math.ceil(abs(span) / sor.step)))

    du, dv = q[0] - p[0], q[1] - p[1]
    fbar = float(sor.profile.f(0.5 * (p[0] + q[0])))
    length = math.hypot(du, fbar * dv)
    if length < 1e-14:
        return np.zeros(2)
    x = np.array([math.atan2(fbar * dv, du), length])
    scale = max(1.0, length)

    def residual(ang, ln):
        state = np.concatenate([p, ln * sor.unit_tangent(p, ang)])
        end = rk4_endpoint(sor.geodesic_rhs, state, 1.0, n_steps(ln))
        return np.array([end[0] - q[0], (end[1] - q[1]) * fbar])

    res = residual(x[0], x[1])
    for _ in range(60):
        if np.linalg.norm(res) < 1e-11 * scale:
            return x[1] * sor.unit_tangent(p, x[0])
        h = 1e-7
        j0 = (residual(x[0] + h, x[1]) - res) / h
        j1 = (residual(x[0], x[1] + h) - res) / h
        delta = np.linalg.solve(np.column_stack([j0, j1]), -res)
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
    raise AssertionError("reference shooter did not converge")


# off the equator u = 0 too; every target within 0.5 stays in u in [-0.6, 0.6]
SHOOT_SOURCES = [(0.0, 0.0), (0.08, -0.2), (-0.06, 0.4)]
SHOOT_LENGTHS = [1e-6, 1e-4, 1e-2, 0.05, 0.1, 0.2, 0.35, 0.5]


def _targets(sor, p, lengths, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, len(lengths))
    tangents = np.array([ln * sor.unit_tangent(p, a) for ln, a in zip(lengths, angles)])
    return np.array([sor.exp_many(p, v[None, :])[0] for v in tangents])


def test_surface_batched_distances_match_the_finite_difference_shooter():
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    for k, source in enumerate(SHOOT_SOURCES):
        p = np.array(source)
        targets = _targets(sor, p, SHOOT_LENGTHS, seed=k)
        batch = sor.dist_many(p, targets)
        for q, d in zip(targets, batch):
            v = _finite_difference_log(sor, p, q)
            assert abs(d - math.sqrt(sor.inner_coords(p, v, v))) <= 1e-9
        np.testing.assert_allclose(batch, SHOOT_LENGTHS, rtol=1e-9, atol=1e-12)


def test_surface_exp_rows_do_not_depend_on_their_batch():
    # each row integrates in the step count of its own tangent: a batch of
    # mixed lengths (and zero tangents) gives every row its one-row bits
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    rng = np.random.default_rng(23)
    for source in SHOOT_SOURCES:
        p = np.array(source)
        scale = np.array([1e-6, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.0])
        angles = rng.uniform(0.0, 2.0 * math.pi, len(scale))
        tangents = np.array([ln * sor.unit_tangent(p, a) for ln, a in zip(scale, angles)])
        batch = sor.exp_many(p, tangents)
        alone = np.array([sor.exp_many(p, v[None, :])[0] for v in tangents])
        assert batch.tobytes() == alone.tobytes()
        assert batch[-1].tobytes() == p.tobytes()
        bases = np.tile(p, (len(scale), 1))
        assert sor.exp_pairs(bases, tangents).tobytes() == batch.tobytes()


def test_surface_distance_rows_do_not_depend_on_their_batch():
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    rng = np.random.default_rng(21)
    for k, source in enumerate(SHOOT_SOURCES):
        p = np.array(source)
        targets = _targets(sor, p, SHOOT_LENGTHS, seed=10 + k)
        batch = sor.dist_many(p, targets)
        alone = np.array([sor.dist_coords(p, q) for q in targets])
        assert batch.tobytes() == alone.tobytes()
        perm = rng.permutation(len(targets))
        assert sor.dist_many(p, targets[perm]).tobytes() == batch[perm].tobytes()
        pairs = sor.dist_pairs(np.tile(p, (len(targets), 1)), targets)
        assert pairs.tobytes() == batch.tobytes()
        for q, d in zip(targets, batch):
            v = sor.log_coords(p, q)
            assert math.sqrt(sor.inner_coords(p, v, v)) == pytest.approx(d, rel=1e-14, abs=0)


def test_surface_shots_keep_clairauts_relation():
    # f(u)^2 dv is constant along a geodesic (Clairaut).  On the integrated
    # shot it drifts by the integration error: no more than the Richardson
    # estimate of the endpoint error (a half-step rerun of the order-8
    # step), carried into the constant by its gradient (2 f f' dv, 0, 0,
    # f^2).  A coarse step puts that error well above rounding on the shots
    # of length 0.3 and more; the shorter ones are at rounding.
    profile = RevolutionProfile.cosine_bump()
    sor = SurfaceOfRevolution(profile, step=0.05)
    lengths = [0.1, 0.2, 0.3, 0.4, 0.5]
    checked = long_shots = 0
    for k, source in enumerate(SHOOT_SOURCES):
        p = np.array(source)
        targets = _targets(sor, p, lengths, seed=30 + k)
        for q in targets:
            v = sor.log_coords(p, q)
            f0 = float(profile.f(p[0]))
            angle, length = math.atan2(f0 * v[1], v[0]), math.hypot(v[0], f0 * v[1])
            shot = sor._shoot_ends(p[None, :], np.array([angle]), np.array([length]))[0]
            assert np.linalg.norm(shot[:2] - q) < 1e-9
            state0 = np.array([p[0], p[1], math.cos(angle), math.sin(angle) / f0, 0.0, 1.0])
            n = 2 * sor._n_steps(np.array([length]))
            fine = _ode.dop853_rows(sor.jacobi_rhs, state0[None, :], length / n, n)[0]
            error = np.linalg.norm(shot[:4] - fine[:4]) * 256.0 / 255.0
            u, dv = shot[0], shot[3]
            f, fp = float(profile.f(u)), float(profile.df(u))
            drift = abs(f * f * dv - f0 * math.sin(angle))
            if length > 0.25:
                assert error > 1e-14
                long_shots += 1
            assert drift <= math.hypot(2.0 * f * fp * dv, f * f) * error
            checked += 1
    assert (checked, long_shots) == (15, 9)


def test_surface_shooting_failure_names_the_row(monkeypatch):
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    p = np.array([0.1, 0.0])
    # along a meridian (a geodesic) the first guess is already the answer;
    # the off-axis target needs Newton steps the patched cap does not allow
    targets = np.array([[0.3, 0.0], [0.2, 0.15], [0.1, 0.0]])
    monkeypatch.setattr(manifolds_module, "SHOOT_ITERATIONS", 1)
    with pytest.raises(ShootingError, match=r"row 1 for endpoint \[0\.2 +0\.15\]"):
        sor.dist_many(p, targets)
    assert sor.dist_coords(p, targets[0]) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ShootingError, match="row 0"):
        sor.log_coords(p, targets[1])


def test_bump_profile_parts_give_the_bits_of_their_formulas():
    profile = RevolutionProfile.cosine_bump()
    u = np.concatenate([np.linspace(-0.7, 0.7, 101), [0.0, -0.0, np.nan]])
    assert profile.f(u).tobytes() == (2.0 + np.cos(u)).tobytes()
    assert profile.df(u).tobytes() == (-np.sin(u)).tobytes()
    assert profile.d2f(u).tobytes() == (-np.cos(u)).tobytes()


def _jacobi_rhs_oracle(surface, state):
    """The joint geodesic + Jacobi right-hand side from separate profile
    parts: K = -f''/f, the geodesic acceleration from f and f', and u
    clamped by np.clip."""
    p = surface.profile
    u = np.clip(state[..., 0], p.u_min, p.u_max)
    k = -np.asarray(p.d2f(u)) / np.asarray(p.f(u))
    out = np.empty_like(state)
    out[..., :2] = state[..., 2:4]
    out[..., 2:4] = surface.geodesic_acceleration(u[..., None], state[..., 2:4])
    out[..., 4] = state[..., 5]
    out[..., 5] = -k * state[..., 4]
    return out


@pytest.mark.parametrize("kind", ["bump", "table"])
def test_fused_jacobi_rhs_gives_the_bits_of_the_separate_formulas(kind):
    if kind == "bump":
        profile = RevolutionProfile.cosine_bump()
    else:
        us = np.linspace(-0.5, 0.7, 31)
        profile = RevolutionProfile.from_table(us, 2.0 + np.cos(us) + 0.1 * us**3)
        inner = us[3:-3]
        assert profile.df(inner) == pytest.approx(-np.sin(inner) + 0.3 * inner**2, abs=1e-4)
        assert profile.d2f(inner) == pytest.approx(-np.cos(inner) + 0.6 * inner, abs=1e-2)
    surface = SurfaceOfRevolution(profile)
    rng = np.random.default_rng(5)
    state = rng.normal(size=(64, 6))
    lo, hi = profile.u_min, profile.u_max
    state[:, 0] = rng.uniform(lo, hi, 64)  # inside
    state[:4, 0] = [lo, hi, lo, hi]  # on the ends
    state[4:8, 0] = [lo - 0.3, hi + 0.3, lo - 1e-12, hi + 1e-12]  # outside
    state[8] = np.nan
    state[9, 0] = np.nan
    for block in (state, state[:1], state[11], state.reshape(8, 8, 6)):
        expected = _jacobi_rhs_oracle(surface, block)
        assert surface.jacobi_rhs(block).tobytes() == expected.tobytes()
    # the radii scan's layout: a Fortran-ordered block, written into a
    # reused buffer, gives the bytes of the C-ordered call
    expected = surface.jacobi_rhs(state).tobytes()
    block = np.asfortranarray(state)
    out = np.full_like(block, np.inf)
    for _ in range(2):
        assert surface.jacobi_rhs(block, out=out) is out
        assert np.ascontiguousarray(out).tobytes() == expected
    assert np.ascontiguousarray(surface.jacobi_rhs(block)).tobytes() == expected
    assert surface.jacobi_rhs(block).flags.f_contiguous


def test_dop853_step_in_buffers_gives_the_bits_of_the_allocating_step():
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    rng = np.random.default_rng(3)
    state = rng.normal(scale=0.2, size=(40, 6))
    expected, error = _ode.dop853_step(surface.jacobi_rhs, state, 0.04)
    # the radii scan: a Fortran-ordered block into reused buffers
    block = np.asfortranarray(state)
    out, *work = (np.empty_like(block) for _ in range(1 + _ode.DOP853_WORK))
    for _ in range(2):
        _, again = _ode.dop853_step(surface.jacobi_rhs, block, 0.04, out=out, work=work)
        assert np.ascontiguousarray(out).tobytes() == expected.tobytes()
        assert again.tobytes() == error.tobytes()
    # a column of steps, one per row: each row has the bits it has alone
    h = rng.uniform(1e-3, 4e-2, size=(40, 1))
    rows, errors = _ode.dop853_step(surface.jacobi_rhs, state, h)
    for i in (0, 17, 39):
        alone, alone_error = _ode.dop853_step(surface.jacobi_rhs, state[i : i + 1], h[i : i + 1])
        assert alone.tobytes() == rows[i : i + 1].tobytes()
        assert alone_error.tobytes() == errors[i : i + 1].tobytes()


def test_dop853_coefficients_are_the_published_table():
    table = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    a = np.zeros((13, 12))
    for i, terms in enumerate(_ode._DOP853_A, start=1):
        for j, coefficient in terms:
            a[i, j] = coefficient
    assert np.array_equal(a[:12], table.A[:12, :12])
    assert np.array_equal(a[12], table.B)
    for weights, expected in ((_ode._DOP853_E5, table.E5), (_ode._DOP853_E3, table.E3)):
        e = np.zeros(13)
        for j, coefficient in weights:
            e[j] = coefficient
        assert np.array_equal(e, expected)


def _oscillator(y, out):
    out[..., 0] = y[..., 1]
    np.negative(y[..., 0], out=out[..., 1])
    return out


def test_dop853_step_and_its_error_estimate_have_order_eight():
    # y'' = -y from (0, 1) over [0, 2]: half the step, about 2^-8 the error
    errors, estimates = [], []
    for n in (5, 10):
        y, estimate = np.array([0.0, 1.0]), 0.0
        for _ in range(n):
            y, step_estimate = _ode.dop853_step(_oscillator, y, 2.0 / n)
            estimate = max(estimate, step_estimate)
        errors.append(abs(y[0] - math.sin(2.0)))
        estimates.append(estimate)
    assert errors[0] / errors[1] >= 128.0
    assert estimates[0] / estimates[1] >= 128.0


def _two_oscillators(y, out):
    _oscillator(y[..., :2], out[..., :2])
    _oscillator(y[..., 2:], out[..., 2:])
    return out


def test_dop853_step_estimates_the_components_it_is_given():
    # two uncoupled oscillators: the estimate of the second one's components
    # is that of the second one alone, and with no estimate the new state
    # has the same bits
    y = np.array([[0.3, -1.2, 0.0, 1.0], [2.0, 0.5, -0.7, 0.1]])
    new, error = _ode.dop853_step(_two_oscillators, y, 0.3, estimate=slice(2, 4))
    alone, alone_error = _ode.dop853_step(_oscillator, y[:, 2:], 0.3)
    assert new[:, 2:].tobytes() == alone.tobytes()
    assert error.tobytes() == alone_error.tobytes()
    bare, none = _ode.dop853_step(_two_oscillators, y, 0.3, estimate=None)
    assert none is None
    assert bare.tobytes() == new.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_minkowski_of_vectors_gives_the_bits_of_the_einsum_form(dim):
    model = Hyperbolic(dim, -1.0)
    rng = np.random.default_rng(dim)
    vectors = list(rng.normal(size=(200, dim + 1)) * 10.0 ** rng.integers(-8, 8, size=(200, 1)))
    # signed zeros
    vectors += [np.zeros(dim + 1), -np.zeros(dim + 1), np.array([0.0] + [-0.0] * dim)]
    for x in vectors:
        for y in vectors[::7] + vectors[-3:]:
            expected = np.einsum("k,k->", x[1:], y[1:]) - x[0] * y[0]
            got = model.minkowski(x, y)
            assert np.array(got).tobytes() == np.array(expected).tobytes()
    # a row of a block has the bits of the row alone
    block = np.array(vectors)
    rows = model.minkowski(block, block[::-1])
    assert rows.tobytes() == np.array([model.minkowski(a, b) for a, b in zip(block, block[::-1])]).tobytes()


# ------------------------------------------------------- batched frames


def _scalar_frame(model, base, primary):
    """The frame one point at a time, as the models built it before the
    batch: metric Gram-Schmidt on the primary and then the chart axes
    (the spatial ones on the hyperboloid), projected onto the tangent
    space; the surface's frame in closed form."""
    base = np.asarray(base)
    if model.kind == "surface_of_revolution":
        fu = float(model.profile.f(base[0]))
        if primary is None:
            return np.array([[1.0, 0.0], [0.0, 1.0 / fu]])
        a, b = np.asarray(primary, dtype=np.float64)
        norm = math.sqrt(a * a + fu * fu * b * b)
        a, b = a / norm, b / norm
        return np.array([[a, b], [-b * fu, a / fu]])
    if model.kind == "hyperbolic":

        def inner(a, b):
            return float(model.minkowski(a, b))

        def project(c):
            return c + (float(model.minkowski(c, base)) / model.radius**2) * base

        axes = np.eye(model.ambient_dim)[1:]
    else:

        def inner(a, b):
            return float(np.einsum("k,k->", a, b))

        if model.kind == "sphere":

            def project(c):
                return c - (np.einsum("k,k->", c, base) / model.radius**2) * base

        else:

            def project(c):
                return c

        axes = np.eye(model.ambient_dim)
    candidates = ([] if primary is None else [project(np.asarray(primary, dtype=np.float64))])
    candidates += [project(e) for e in axes]
    basis = []
    for v in candidates:
        w = np.array(v, dtype=np.float64)
        for b in basis:
            w = w - inner(w, b) * b
        norm = math.sqrt(max(inner(w, w), 0.0))
        if norm > 1e-12:
            basis.append(w / norm)
        if len(basis) == model.dim:
            break
    return np.array(basis)


FRAME_MODELS = [
    Euclidean(2),
    Euclidean(3),
    Sphere(2, 1.0),
    Sphere(3, 4.0),
    Hyperbolic(2, -1.0),
    Hyperbolic(3, -0.3),
    Hyperbolic(9, -1.0),
    SurfaceOfRevolution(RevolutionProfile.cosine_bump()),
]


@pytest.mark.parametrize("model", FRAME_MODELS, ids=lambda m: m.describe())
def test_frame_rows_give_the_bits_of_the_one_point_frame(model):
    rng = np.random.default_rng(model.ambient_dim)
    bases = np.array([_random_point(model, rng, spread=1.5).coords for _ in range(300)])
    primaries = rng.normal(size=bases.shape) * 10.0 ** rng.integers(-3, 3, size=(len(bases), 1))
    # rows whose primary leaves the first tried axis no remainder, so the
    # Gram-Schmidt skips it: on the sphere the first axis is normal at the
    # basepoint, on the plane and the hyperboloid the primary lies along it
    first = 0 if model.kind in ("euclidean", "sphere") else 1
    bases[::7] = model.basepoint().coords
    primaries[::7] = 3.0 * np.eye(model.ambient_dim)[first]
    if model.kind == "sphere":
        primaries[::7] = np.eye(model.ambient_dim)[1]
    frames = model.tangent_frames(bases, primaries)
    for i, (x, v) in enumerate(zip(bases, primaries)):
        assert frames[i].tobytes() == model.tangent_basis(x, v).tobytes(), i
        assert frames[i].tobytes() == _scalar_frame(model, x, v).tobytes(), i
    for x in bases[:20]:
        assert model.tangent_basis(x).tobytes() == _scalar_frame(model, x, None).tobytes()
    if model.describe() == "sphere(dim=2, curvature=1)":
        # points of the equator with primary = velocity: every row takes the
        # primary, skips both equatorial axes and takes the pole, so one
        # count serves every row
        s = np.linspace(0.0, 2.0 * math.pi, 97)
        bases = np.column_stack([np.cos(s), np.sin(s), np.zeros_like(s)])
        primaries = np.column_stack([-np.sin(s), np.cos(s), np.zeros_like(s)])
        frames = model.tangent_frames(bases, primaries)
        for i, (x, v) in enumerate(zip(bases, primaries)):
            assert frames[i].tobytes() == _scalar_frame(model, x, v).tobytes(), i


DIST_MODELS = [Euclidean(2), Euclidean(3), Sphere(2, 1.0), Sphere(3, 4.0), Hyperbolic(2, -1.0), Hyperbolic(3, -0.3)]


def _scalar_distance(model, p, q):
    """The closed-form distance of one pair in scalar form: the squared
    norm or Minkowski square of the difference as an ``einsum`` of one
    vector, and the NumPy ufuncs of one value."""
    d = q - p
    if model.kind == "euclidean":
        return float(np.sqrt(np.einsum("k,k->", d, d)))
    if model.kind == "sphere":
        chord = np.sqrt(np.einsum("k,k->", d, d))
        return float(2.0 * model.radius * np.arcsin(min(chord / (2.0 * model.radius), 1.0)))
    m = max(float(np.einsum("k,k->", d[1:], d[1:]) - d[0] ** 2), 0.0)
    return float(2.0 * model.radius * np.arcsinh(np.sqrt(m) / (2.0 * model.radius)))


@pytest.mark.parametrize("model", DIST_MODELS, ids=lambda m: m.describe())
def test_distance_rows_give_the_bits_of_the_scalar_distance(model):
    # dist_pairs and its one-row case dist_coords against the scalar formulas
    rng = np.random.default_rng(model.ambient_dim + 7)
    p = np.array([_random_point(model, rng, spread=1.5).coords for _ in range(400)])
    q = np.array([_random_point(model, rng, spread=1.5).coords for _ in range(400)])
    q[::9] = p[::9]  # coincident points
    if model.kind == "sphere":
        q[1::9] = -p[1::9]  # antipodes, where the chord may round past the diameter
    expected = np.array([_scalar_distance(model, a, b) for a, b in zip(p, q)])
    assert model.dist_pairs(p, q).tobytes() == expected.tobytes()
    alone = np.array([model.dist_coords(a, b) for a, b in zip(p, q)])
    assert alone.tobytes() == expected.tobytes()
    assert all(type(model.dist_coords(a, b)) is float for a, b in zip(p[:3], q[:3]))


@pytest.mark.parametrize("model", DIST_MODELS, ids=lambda m: m.describe())
def test_corner_cosines_of_an_array_give_the_bits_of_the_scalar_law(model):
    R, r = 0.6 * min(1.0, model.convexity_radius()), 0.35 * min(1.0, model.convexity_radius())
    ts = np.linspace(1e-9, R + r, 97)
    got = model.corner_cosine(R, r, ts)
    for t, value in zip(ts.tolist(), got):
        if model.kind == "euclidean":
            expected = (t * t + R * R - r * r) / (2.0 * t * R)
        elif model.kind == "sphere":
            a = model.radius
            expected = (math.cos(r / a) - math.cos(R / a) * math.cos(t / a)) / (
                math.sin(R / a) * math.sin(t / a)
            )
        else:
            a = model.radius
            expected = (math.cosh(R / a) * np.cosh(t / a) - math.cosh(r / a)) / (
                math.sinh(R / a) * np.sinh(t / a)
            )
        assert repr(float(value)) == repr(float(expected)), t
        assert repr(float(model.corner_cosine(R, r, t))) == repr(float(expected)), t


EXP_MODELS = [Sphere(2, 1.0), Sphere(3, 4.0), Hyperbolic(2, -1.0), Hyperbolic(3, -0.3)]


@pytest.mark.parametrize("model", EXP_MODELS, ids=lambda m: m.describe())
def test_exp_rows_give_the_bits_of_the_one_row_exp(model):
    rng = np.random.default_rng(model.ambient_dim + 24)
    bases = np.array([_random_point(model, rng, spread=1.5).coords for _ in range(60)])
    bases[0] = model.basepoint().coords
    bases[0, 1] = -0.0
    scales = rng.uniform(0.1, 2.0, size=len(bases))
    tangents = np.array(
        [_random_tangent(model, ManifoldPoint(x), rng, a).components for x, a in zip(bases, scales)]
    )
    zero = np.zeros(len(bases), dtype=bool)
    zero[::3] = True
    tangents[zero] = 0.0
    tangents[3] = -0.0
    # squares that underflow: a nonzero tangent of norm 0 maps to its base
    tangents[6] = 1e-200 * model.project_tangent(bases[6], np.ones(model.ambient_dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = model.exp_pairs(bases, tangents)
        many = model.exp_many(bases[0], tangents)
    for i, (x, v) in enumerate(zip(bases, tangents)):
        assert block[i].tobytes() == model.exp_pairs(x, v[None])[0].tobytes(), i
        assert many[i].tobytes() == model.exp_pairs(bases[0], v[None])[0].tobytes(), i
    assert block[zero].tobytes() == bases[zero].tobytes()
    assert many[zero].tobytes() == np.tile(bases[0], (zero.sum(), 1)).tobytes()
    assert np.signbit(block[0, 1]) and np.signbit(many[3, 1])
