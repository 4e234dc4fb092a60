"""Conjugate/focal/convexity radii and their structural identities."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from geolens import (
    BallPair,
    Euclidean,
    Hyperbolic,
    RevolutionProfile,
    Sphere,
    SurfaceOfRevolution,
    closed_form_radii,
    conjugate_radius,
    convexity_from,
    focal_radius,
    jacobi_radii,
    radii_report,
    sample_intersection,
)
from geolens import radii as radii_module
from geolens.config import ManifoldSpec, _surface_convexity_bound
from geolens.errors import ConfigError
from geolens.geodesics import integrate_jacobi
from geolens.manifolds import ManifoldPoint, TangentVector
from geolens.radii import (
    CERTIFIED,
    CLOSED_FORM,
    NUMERIC,
    RadiiReport,
    RadiusValue,
    _first_zeros_batch,
    _merge_min,
)
from ode_oracles import rk4_zeros_batch, surface_jacobi
from surface_oracles import sphere_surface


def test_conjugate_radius_euclidean_is_lower_bound():
    val = conjugate_radius(Euclidean(2), directions=4, horizon=6.0)
    assert val.lower_bound_only
    assert val.value == pytest.approx(6.0)


def test_conjugate_radius_unit_sphere():
    val = conjugate_radius(Sphere(2, 1.0), directions=4)
    assert not val.lower_bound_only
    assert val.value == pytest.approx(math.pi, abs=1e-6)


def test_conjugate_radius_hyperbolic_never_found():
    val = conjugate_radius(Hyperbolic(2, -1.0), directions=4, horizon=5.0)
    assert val.lower_bound_only
    assert val.value == pytest.approx(5.0)


def test_focal_radius_unit_sphere():
    val = focal_radius(Sphere(2, 1.0), directions=4)
    assert val.value == pytest.approx(math.pi / 2, abs=1e-6)


def test_focal_radius_euclidean_infinite():
    val = focal_radius(Euclidean(2), directions=4, horizon=6.0)
    assert val.lower_bound_only


@pytest.mark.parametrize("k", [0.25, 1.0, 4.0])
def test_focal_radius_scales_with_curvature(k):
    # oracle: j(t) = sin(sqrt(k) t)/sqrt(k), first zero of j' at pi/(2 sqrt(k))
    val = focal_radius(Sphere(2, k), directions=2)
    assert val.value == pytest.approx(math.pi / (2 * math.sqrt(k)), abs=1e-6)


def test_focal_radius_monotone_in_curvature():
    values = [focal_radius(Sphere(2, k), directions=1).value for k in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_convexity_unit_sphere_closed_form():
    report = closed_form_radii(Sphere(2, 1.0))
    assert report.convexity.value == pytest.approx(math.pi / 2, abs=1e-12)
    assert report.convexity.provenance == CLOSED_FORM


def test_convexity_euclidean_infinite():
    report = closed_form_radii(Euclidean(2))
    assert math.isinf(report.convexity.value)
    residuals = report.identity_residuals()
    assert all(r == 0.0 for r in residuals.values())


@pytest.mark.parametrize("k", [0.25, 1.0, 2.0, 4.0])
def test_closed_form_sphere_radii_are_the_textbook_floats(k):
    sphere = Sphere(2, k)
    a = sphere.radius
    report = closed_form_radii(sphere)
    assert report.focal.value == report.convexity.value == 0.5 * math.pi * a
    assert report.injectivity.value == report.conjugate.value == math.pi * a
    assert report.loop_length.value == 2.0 * math.pi * a


@pytest.mark.parametrize("model", [Euclidean(2), Hyperbolic(2, -1.0), Hyperbolic(3, -0.5)])
def test_closed_form_radii_infinite_without_positive_curvature(model):
    report = closed_form_radii(model)
    assert all(math.isinf(value.value) for _, value in report.fields())


@pytest.mark.parametrize(
    "model",
    [Euclidean(3), Sphere(2, 1.0), Sphere(3, 2.0), Hyperbolic(2, -1.0), Hyperbolic(2, -0.5)],
)
def test_identities_hold_closed_form(model):
    report = closed_form_radii(model)
    for name, res in report.identity_residuals().items():
        assert not math.isnan(res)
        assert res <= 1e-6, name


def _report(conjugate, focal):
    inj = RadiusValue(1.0, CERTIFIED)
    loop = RadiusValue(8.0, CERTIFIED, lower_bound_only=True)
    return RadiiReport("test", inj, conjugate, focal, loop, convexity_from(focal, inj))


def test_focal_vs_conjugate_reads_a_lower_bound_conjugate():
    # conjugate >= 1.5 still bounds a found focal radius: 1.0 - 1.5 / 2
    found = _report(RadiusValue(1.5, NUMERIC, lower_bound_only=True), RadiusValue(1.0, NUMERIC))
    assert found.identity_residuals()["focal_vs_conjugate"] == 0.25
    within = _report(RadiusValue(3.0, NUMERIC, lower_bound_only=True), RadiusValue(1.0, NUMERIC))
    assert within.identity_residuals()["focal_vs_conjugate"] == 0.0
    bound = _report(RadiusValue(3.0, NUMERIC), RadiusValue(2.0, NUMERIC, lower_bound_only=True))
    assert math.isnan(bound.identity_residuals()["focal_vs_conjugate"])


@pytest.mark.parametrize(
    "acc, new, merged",
    [
        # both lower bounds: the smaller bound
        ((0.7, True), (0.5, True), (0.5, True)),
        ((0.5, True), (0.7, True), (0.5, True)),
        # a found value below a new lower bound stands, else the bound does
        ((0.4, False), (0.5, True), (0.4, False)),
        ((0.6, False), (0.5, True), (0.5, True)),
        # a lower bound above a new found value gives way, else it stays
        ((0.5, True), (0.4, False), (0.4, False)),
        ((0.5, True), (0.6, False), (0.5, True)),
    ],
)
def test_merge_min_with_lower_bounds(acc, new, merged):
    result = _merge_min(
        RadiusValue(acc[0], NUMERIC, lower_bound_only=acc[1]),
        RadiusValue(new[0], NUMERIC, lower_bound_only=new[1]),
    )
    assert result == RadiusValue(merged[0], NUMERIC, lower_bound_only=merged[1])


def test_numeric_sphere_radii_match_closed_form():
    conj = conjugate_radius(Sphere(2, 1.0), directions=1)
    foc = focal_radius(Sphere(2, 1.0), directions=1)
    assert conj.value == pytest.approx(math.pi, abs=1e-6)
    assert foc.value == pytest.approx(math.pi / 2, abs=1e-6)
    assert conj.provenance == NUMERIC


def test_surface_report_mixed_provenance():
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    report = radii_report(
        sor, certified_injectivity=1.0, base_points=3, directions=8, horizon=7.0
    )
    assert report.injectivity.provenance == CERTIFIED
    assert report.conjugate.provenance == NUMERIC
    assert report.focal.provenance == NUMERIC
    # conv = min(focal, inj/2) = inj/2 = 0.5 here
    assert report.convexity.value == pytest.approx(0.5)
    res = report.identity_residuals()
    assert res["convexity_min"] <= 1e-9
    assert math.isnan(res["injectivity_min"])  # loop length only lower-bounded
    assert res["focal_vs_conjugate"] <= 1e-6


def test_surface_equator_conjugate_value():
    # the equatorial orbit has constant K = 1/3: first zero at pi * sqrt(3)
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    report = radii_report(
        sor, certified_injectivity=1.0, base_points=1, directions=4, horizon=7.0
    )
    assert report.conjugate.value <= math.pi * math.sqrt(3) + 1e-5


@pytest.mark.parametrize("u", [-0.3, 0.0, 0.25])
def test_batch_zeros_match_scalar_jacobi_integration(u):
    # each direction of the batched scan against its own surface_jacobi
    # over the length it stayed in the chart; the directions near the
    # v-axis are the ones that stay in it past their zeros
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    base = ManifoldPoint(np.array([u, 0.0]))
    angles = np.append(
        np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False),
        0.5 * math.pi + np.array([-0.2, -0.1, 0.1, 0.2]),
    )
    j_zero, jp_zero, valid = _first_zeros_batch(sor, base.coords, angles, 6.5, 2e-3)
    found = 0
    for angle, zeros, span in zip(angles, zip(j_zero, jp_zero), valid):
        direction = TangentVector(base, sor.unit_tangent(base.coords, angle))
        sol = surface_jacobi(sor, base, direction, span, step=2e-3)
        for zero, of in zip(zeros, ("value", "derivative")):
            expected = sol.first_zero(of)
            if expected is None:
                assert np.isnan(zero)
            else:
                assert abs(zero - expected) <= 1e-9
                found += 1
    assert found == 12


@pytest.mark.parametrize("base_points", [3, 16])
def test_zeros_of_all_base_points_match_one_base_point_at_a_time(base_points):
    # radii_report integrates every base point in one batch; each row stops
    # on its own, so every base point gets the bits of its own batch
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    us = np.linspace(-0.5, 0.5, base_points)
    bases = np.column_stack([us, np.zeros(base_points)])
    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    j_zero, jp_zero, valid = _first_zeros_batch(sor, bases, angles, 6.0, 2e-3)
    assert j_zero.shape == jp_zero.shape == valid.shape == (base_points, 16)
    for k, base in enumerate(bases):
        one = _first_zeros_batch(sor, base, angles, 6.0, 2e-3)
        assert j_zero[k].tobytes() == one[0].tobytes()
        assert jp_zero[k].tobytes() == one[1].tobytes()
        assert valid[k].tobytes() == one[2].tobytes()
    assert np.any(~np.isnan(j_zero)) and np.any(~np.isnan(jp_zero))


def test_back_to_back_scans_each_give_the_bits_they_give_alone():
    # every scan makes its own arrays: nothing of one scan reaches the next
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bases = np.column_stack([[-0.3, 0.0, 0.3], np.zeros(3)])
    wide = bases, np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False), 16.0
    narrow = bases[1], np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False), 16.0

    def scan(case, cap=None):
        base, angles, horizon = case
        return b"".join(a.tobytes() for a in _first_zeros_batch(sor, base, angles, horizon, cap=cap))

    alone_wide = scan(wide)
    alone_narrow = scan(narrow, cap=0.5)
    assert scan(wide) == alone_wide
    assert scan(narrow, cap=0.5) == alone_narrow
    assert scan(narrow, cap=0.5) == alone_narrow
    assert scan(wide) == alone_wide


@pytest.mark.parametrize(
    "of,steps", [(("value", "derivative"), 1572), (("derivative",), 786)]
)
def test_closed_form_scan_stops_one_step_past_its_zeros(of, steps, monkeypatch):
    # on Sphere(2, 1) the horizon 1.25 pi takes 1964 steps; the conjugate
    # zero pi is bracketed at step 1571 and the focal zero pi/2 at 785
    sphere = Sphere(2, 1.0)
    full = integrate_jacobi(sphere, sphere.horizon)
    assert len(full.ts) == 1965
    solutions = []

    def spy(*args, **kwargs):
        solutions.append(integrate_jacobi(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(radii_module, "integrate_jacobi", spy)
    radii = radii_module._jacobi_zeros(sphere, 1, None, of)
    [solution] = solutions
    assert len(solution.ts) - 1 == steps
    for name in ("ts", "j", "jp", "curvature"):
        assert getattr(solution, name).tobytes() == getattr(full, name)[: steps + 1].tobytes()
    expected = {"value": "3.1415926535902106", "derivative": "1.5707963267951057"}
    for name, radius in zip(of, radii):
        assert repr(radius.value) == expected[name] == repr(full.first_zero(name))
        assert not radius.lower_bound_only


def _record_phase(monkeypatch):
    """A one-item list that holds the phase of the surface radii scans as
    they run: "place" while ``_place_events`` runs, "scan" otherwise."""
    phase = ["scan"]
    place_events = radii_module._place_events

    def placing(*args):
        phase[0] = "place"
        try:
            return place_events(*args)
        finally:
            phase[0] = "scan"

    monkeypatch.setattr(radii_module, "_place_events", placing)
    return phase


def _record_scan_steps(monkeypatch):
    """The steps of every ``dop853_step`` call of the surface radii scans,
    recorded as they run: ("scan", h) for a step of the scan's loop and
    ("place", h) for a round of ``_place_events``, h the column of the
    steps of the rows in the call."""
    steps, phase = [], _record_phase(monkeypatch)
    dop853_step = radii_module.dop853_step

    def spy(rhs, y, h, **kwargs):
        steps.append((phase[0], np.ravel(h)))
        return dop853_step(rhs, y, h, **kwargs)

    monkeypatch.setattr(radii_module, "dop853_step", spy)
    return steps


def _scan_steps(steps):
    """The step columns of the scan's loop among recorded ``steps``."""
    return [h for phase, h in steps if phase == "scan"]


def test_configured_step_reaches_the_batched_radii_scan(monkeypatch):
    # the grid is the configured step's: every step of the scan and of its
    # event placement is a whole number of its grid steps, and no step of
    # the scan is longer than SCAN_MAX_GRID_STEPS of them
    steps = _record_scan_steps(monkeypatch)
    surface = ManifoldSpec(kind="surface_of_revolution", step=1e-3).build()
    # the focal zero near 2.72 is an event to place
    jacobi_radii(surface, directions=4, horizon=3.0)
    assert {phase for phase, _ in steps} == {"scan", "place"}
    grid_steps = np.concatenate([h for _, h in steps]) / 1e-3
    assert np.all(np.abs(grid_steps - np.rint(grid_steps)) <= 1e-9 * grid_steps)
    assert grid_steps.min() >= 1
    longest = np.concatenate(_scan_steps(steps)).max() / 1e-3
    assert round(longest) == radii_module.SCAN_MAX_GRID_STEPS


def test_surface_requires_certified_injectivity():
    sor = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    with pytest.raises(ConfigError):
        radii_report(sor)


def test_convexity_from_rejects_uninformative_bound():
    with pytest.raises(ConfigError):
        convexity_from(
            RadiusValue(0.3, NUMERIC, lower_bound_only=True),
            RadiusValue(2.0, CERTIFIED),
        )


def test_directions_precondition():
    with pytest.raises(ValueError):
        conjugate_radius(Sphere(2, 1.0), directions=0)


@pytest.mark.parametrize(
    "model",
    [Sphere(2, 1.0), Sphere(3, 4.0), Euclidean(2), Hyperbolic(2, -1.0)],
    ids=lambda m: m.describe(),
)
def test_jacobi_radii_reads_both_zeros_off_one_integration(model, monkeypatch):
    import geolens.radii

    horizon = 6.0
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_jacobi(*args, **kwargs)

    monkeypatch.setattr(geolens.radii, "integrate_jacobi", counted)
    conj, foc = jacobi_radii(model, directions=1, horizon=horizon)
    assert len(calls) == 1
    # the zeros of one solution integrated here
    solution = integrate_jacobi(model, horizon)
    for value, of in ((conj, "value"), (foc, "derivative")):
        zero = solution.first_zero(of=of)
        if zero is None:
            assert value == RadiusValue(horizon, NUMERIC, lower_bound_only=True)
        else:
            assert value == RadiusValue(zero, NUMERIC)
    assert (conj, foc) == (
        conjugate_radius(model, directions=1, horizon=horizon),
        focal_radius(model, directions=1, horizon=horizon),
    )


def test_jacobi_radii_on_the_surface_match_the_single_scans():
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    both = jacobi_radii(surface, directions=8, horizon=4.0)
    assert both == (
        conjugate_radius(surface, directions=8, horizon=4.0),
        focal_radius(surface, directions=8, horizon=4.0),
    )


def test_surface_radii_keep_the_bits_of_the_benchmark_fingerprint():
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    report = radii_report(surface, certified_injectivity=1.0, base_points=3, directions=64)
    assert repr(report.conjugate.value) == "5.441398092702654"
    assert repr(report.focal.value) == "2.720699046351327"
    # at the default horizon the joint scan runs on to the conjugate zero
    # pi * sqrt(3) that the focal scan stops before
    focal = focal_radius(surface, directions=16)
    assert focal == jacobi_radii(surface, directions=16)[1]
    assert repr(focal.value) == "2.720699046351327"


def test_surface_sample_keeps_the_bits_of_the_benchmark_fingerprint(monkeypatch):
    # the seed-1 cloud_sha256 of the surface_bump benchmark workload
    calls = []
    evaluate = SurfaceOfRevolution.exp_velocity_coords

    def spy(self, *args):
        calls.append(1)
        return evaluate(self, *args)

    monkeypatch.setattr(SurfaceOfRevolution, "exp_velocity_coords", spy)
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bp = BallPair.create(surface, 0.05, 0.03, t=0.04, convexity_bound=0.5)
    cloud = sample_intersection(bp, 16, 1)
    assert hashlib.sha256(cloud.points.tobytes()).hexdigest() == (
        "083e0e85902bff9b7b5a41d80d9af92cd212e61560dd06bb0dc2b383b671ac0c"
    )
    # the line is evaluated once to check the chart, once at gamma(0) and
    # once for the candidates, whose centres and frames the circles share
    assert len(calls) <= 3


def test_one_root_solve_places_every_zero_of_a_batch(monkeypatch):
    solves = []
    hermite_zero = radii_module.hermite_zero

    def spy(t0, t1, v0, v1, d0, d1):
        solves.append(len(v0))
        return hermite_zero(t0, t1, v0, v1, d0, d1)

    monkeypatch.setattr(radii_module, "hermite_zero", spy)
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    bases = np.column_stack([np.linspace(-0.5, 0.5, 5), np.zeros(5)])
    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    j_zero, jp_zero, _ = _first_zeros_batch(surface, bases, angles, 7.0)
    found = np.count_nonzero(~np.isnan(j_zero)) + np.count_nonzero(~np.isnan(jp_zero))
    assert found > 1
    assert solves == [found]


def test_the_focal_scan_stops_at_its_zeros(monkeypatch):
    # each loop step's longest row step, summed: no row of the scan got
    # further than that
    steps = _record_scan_steps(monkeypatch)
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    focal_radius(surface, directions=16)
    focal_span = sum(h.max() for h in _scan_steps(steps))
    steps.clear()
    conj, _ = jacobi_radii(surface, directions=16)
    assert focal_span < sum(h.max() for h in _scan_steps(steps))
    # no direction of the focal scan integrates on to the conjugate zero
    assert focal_span < conj.value


def _bump_spec(**settings):
    return ManifoldSpec(kind="surface_of_revolution", profile="bump", **settings)


# surfaces of the bump profile, the loop steps of the focal scan of their
# convexity bound (each row's sized from its own estimate), and the
# bound: the bump itself, decided
# at inj/2; a chart that directions leave before inj/2; and a zone of the
# unit sphere (f = cos u), whose focal zero pi/2 comes before inj/2
CAPPED_SCANS = {
    "bump": (_bump_spec(injectivity_bound=1.0), 9, 0.5),
    "narrow_chart": (_bump_spec(u_min=-0.2, u_max=0.2, injectivity_bound=1.0), 35, 0.5),
    "sphere_zone": (
        _bump_spec(offset=0.0, u_min=-1.2, u_max=1.2, injectivity_bound=4.0),
        29,
        1.5707963267948966,
    ),
}


@pytest.mark.parametrize("name", sorted(CAPPED_SCANS))
def test_convexity_bound_has_the_bits_of_the_full_scan(name):
    spec, _, expected = CAPPED_SCANS[name]
    half_inj = spec.injectivity_bound / 2
    foc = focal_radius(spec.build(), directions=16)
    if foc.lower_bound_only and foc.value < half_inj:
        full = foc.value
    else:
        full = min(foc.value, half_inj)
    bound = _surface_convexity_bound.__wrapped__(spec)
    assert repr(bound) == repr(full) == repr(expected)


@pytest.mark.parametrize("name", sorted(CAPPED_SCANS))
def test_convexity_bound_scan_stops_once_decided(name, monkeypatch):
    spec, expected_steps, _ = CAPPED_SCANS[name]
    steps = _record_scan_steps(monkeypatch)
    _surface_convexity_bound.__wrapped__(spec)
    assert len(_scan_steps(steps)) == expected_steps


def test_sphere_surface_radii_are_as_close_to_pi_as_the_rk4_scans():
    # K = 1: the zeros of j and j' are pi and pi / 2 in every direction that
    # stays in the chart
    surface = sphere_surface().surface
    conj, foc = jacobi_radii(surface, directions=8)
    angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    j_zero, jp_zero, _ = rk4_zeros_batch(surface, surface.basepoint().coords, angles, 16.0)
    assert abs(conj.value - math.pi) <= abs(np.nanmin(j_zero) - math.pi)
    assert abs(foc.value - 0.5 * math.pi) <= abs(np.nanmin(jp_zero) - 0.5 * math.pi)


def test_sphere_surface_radii_are_exactly_pi_and_half_pi():
    # f''/f = -1 exactly: (j, j') and their error estimate are the same in
    # every direction, which therefore takes the steps of every other, and
    # each direction that stays in the chart has its zeros at pi and pi / 2
    surface = sphere_surface().surface
    assert jacobi_radii(surface, directions=64) == (
        RadiusValue(math.pi, NUMERIC),
        RadiusValue(0.5 * math.pi, NUMERIC),
    )
    angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    j_zero, jp_zero, _ = _first_zeros_batch(
        surface, surface.basepoint().coords, angles, surface.horizon
    )
    assert set(j_zero[~np.isnan(j_zero)]) == {math.pi}
    assert set(jp_zero[~np.isnan(jp_zero)]) == {0.5 * math.pi}


def _benchmark_scan(**kwargs):
    """The scan of the surface_bump benchmark's radii report, 3 base points
    times 64 directions, as (surface, arguments, result)."""
    surface = SurfaceOfRevolution(RevolutionProfile.cosine_bump())
    lo, hi = surface.profile.u_min, surface.profile.u_max
    us = lo + (hi - lo) * (np.arange(3) + 1.0) / 4.0
    args = (np.column_stack([us, np.zeros(3)]), np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    return surface, args, _first_zeros_batch(surface, *args, surface.horizon, **kwargs)


def test_benchmark_rows_match_the_rk4_scans():
    surface, args, scan = _benchmark_scan()
    # the RK4 scan on the same grid exits and finds zeros on the same rows
    rk4 = rk4_zeros_batch(surface, *args, surface.horizon)
    for new, old in zip(scan, rk4):
        assert np.array_equal(np.isnan(new), np.isnan(old))
    assert scan[2].tobytes() == rk4[2].tobytes()
    # each zero lies within 2e-14 of the RK4 scan on a grid eight times finer
    fine = rk4_zeros_batch(surface, *args, surface.horizon, step=surface.step / 8)
    for new, ref in zip(scan[:2], fine[:2]):
        assert np.array_equal(np.isnan(new), np.isnan(ref))
        assert np.nanmax(np.abs(new - ref)) <= 2e-14
        assert np.count_nonzero(~np.isnan(new)) > 0


def test_the_scan_error_estimate_is_reported_and_grows_with_the_step(monkeypatch):
    surface, _, scan = _benchmark_scan()
    assert 0.0 < scan.error <= radii_module.SCAN_TOLERANCE
    # twice the grid step: steps of SCAN_GRID_STEPS grid steps, the
    # shortest the scan takes, are twice as long and exceed the tolerance
    assert _benchmark_scan(step=2.0 * surface.step)[2].error > scan.error
    # K = 1 on the sphere oracle, at most 1/3 on the bump: shorter steps
    steps = _record_scan_steps(monkeypatch)
    median_step = []
    for model in (sphere_surface().surface, surface):
        steps.clear()
        jacobi_radii(model, directions=64)
        median_step.append(np.median(np.concatenate(_scan_steps(steps))))
    assert median_step[0] < median_step[1]
    report = radii_report(surface, certified_injectivity=1.0, base_points=3, directions=64)
    assert report.jacobi_error == scan.error
    assert [name for name, _ in report.fields()] == [
        "injectivity", "conjugate", "focal", "loop_length", "convexity"
    ]
    assert closed_form_radii(Sphere(2, 1.0)).jacobi_error is None


def test_the_scan_loop_steps_fortran_ordered_blocks(monkeypatch):
    # each column that the right-hand side reads is one contiguous run, also
    # in the blocks made when rows leave
    blocks, phase = [], _record_phase(monkeypatch)
    rhs = SurfaceOfRevolution.jacobi_rhs

    def spy(self, state):
        if phase[0] == "scan":
            blocks.append((len(state), state.flags.f_contiguous))
        return rhs(self, state)

    monkeypatch.setattr(SurfaceOfRevolution, "jacobi_rhs", spy)
    _benchmark_scan()
    rows = [n for n, _ in blocks]
    assert rows[0] == 3 * 64 and len(set(rows)) > 2
    assert all(f_contiguous for _, f_contiguous in blocks)


def test_benchmark_radii_report_takes_few_right_hand_sides_in_little_memory(monkeypatch):
    # the RK4 scan took 11320 right-hand sides and peaked at 0.17 MB, the
    # DOP853 scan in fixed steps of SCAN_GRID_STEPS grid steps 1765
    surface, args, _ = _benchmark_scan()
    calls = []
    rhs = SurfaceOfRevolution.jacobi_rhs

    def counted(self, *a, **kw):
        calls.append(1)
        return rhs(self, *a, **kw)

    monkeypatch.setattr(SurfaceOfRevolution, "jacobi_rhs", counted)
    radii_report(surface, certified_injectivity=1.0, base_points=3, directions=64)
    assert len(calls) <= 973
    monkeypatch.undo()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        _first_zeros_batch(surface, *args, surface.horizon)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 0.3e6

