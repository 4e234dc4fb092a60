"""The three benchmark workloads: inputs, body, fingerprint and oracles.

Every geolens entry point is looked up on its module at call time (for
example ``lens.w_profile``), so the traced run sees the wrapped bindings.

* ``profile_h21``: ``w_profile`` on Hyperbolic(2, -1), R=2, r=1 at the
  acceptance budget 30000, then ``WProfile.to_csv``.  Few, large lenses:
  capped pairwise scans, the ascent and the nesting onset; no Hausdorff
  scans and no shooting.
* ``verify_s2``: ``geolens verify`` in process on Sphere(2, 1) with pairs
  (1.2, 0.6) and (1.0, 1.0).  Many small clouds, two 1001-point fine
  nesting-onset grids per pair, nearest-distance Hausdorff scans and clouds
  resampled with identical (t, budget, seed).
* ``surface_bump``: the numeric surface f(u) = 2 + cos u.  Set-up runs the
  focal scan of ``load_config``; the body is a radii report (batched Jacobi
  integration) and one lens sample, each point a Newton shoot over RK4.
  No kernel and no ascent run here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os

import numpy as np

from geolens import cli, config, lens, radii
from geolens.config import convexity_bound_for

HERE = os.path.dirname(os.path.abspath(__file__))


def _config_path(name):
    return os.path.join(HERE, "configs", f"{name}.ini")


def _sha256_file(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Workload:
    """One set of inputs; ``smoke`` swaps in tiny sizes for a quick check.

    Subclasses define ``body()`` (the timed work), ``fingerprint(result)``
    (a dict that must repeat exactly) and ``oracles(result)``, which yields
    (check name, passed, detail) per check.
    """

    name = ""
    smoke_overrides: dict = {}

    def __init__(self, seed: int, out_dir: str, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.out = os.path.join(out_dir, f"{self.name}-{os.getpid()}.csv")

    def setup(self):
        """Load, validate and build the config, manifold and ball pair."""
        overrides = {"seed": self.seed, "out": self.out}
        if self.smoke:
            overrides.update(self.smoke_overrides)
        self.config = config.load_config(_config_path(self.name), overrides)
        self.manifold = self.config.manifold.build()
        self.convexity_bound = convexity_bound_for(self.config, self.manifold)
        self.bp = self.ball_pair()

    def ball_pair(self, t=0.0):
        R, r = self.config.all_pairs()[0]
        return lens.BallPair.create(
            self.manifold, R, r, t=t, convexity_bound=self.convexity_bound
        )


# -- hyperboloid geometry written independently of geolens ----------------


def _mink(x, y):
    return np.sum(x[..., 1:] * y[..., 1:], axis=-1) - x[..., 0] * y[..., 0]


def _hdist(a, x, y):
    # chord form: stays accurate for short distances, unlike arccosh(-<x, y>)
    diff = np.asarray(x) - np.asarray(y)
    return 2.0 * a * np.arcsinh(np.sqrt(np.maximum(_mink(diff, diff), 0.0)) / (2.0 * a))


def _on_axis(a, base, unit, t):
    """Point and unit velocity at arclength t along the geodesic from base."""
    ch, sh = math.cosh(t / a), math.sinh(t / a)
    return ch * base + a * sh * unit, sh * base / a + ch * unit


def _circle(a, center, e1, rho, angles):
    """Metric circle of radius rho about ``center`` (unit tangent e1, 2D)."""
    e2 = np.cross(center, e1) * np.array([-1.0, 1.0, 1.0])
    e2 /= math.sqrt(_mink(e2, e2))
    dirs = np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2
    return math.cosh(rho / a) * center + a * math.sinh(rho / a) * dirs


def _brute_width(a, base, unit, R, r, t, n=2048):
    """Lens diameter from dense boundary arcs plus the two corners."""
    if t >= R + r:
        return 0.0  # tangent balls: the lens is one point
    c0, e0 = _on_axis(a, base, unit, 0.0)
    ct, et = _on_axis(a, base, unit, t)
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    small = _circle(a, ct, et, r, angles)
    big = _circle(a, c0, e0, R, angles)
    chunks = [small[_hdist(a, c0, small) <= R + 1e-12], big[_hdist(a, ct, big) <= r + 1e-12]]
    if t > 0:
        # hyperbolic law of cosines for the corner angle at the big center
        A, B, C = R / a, t / a, r / a
        cos_phi = (math.cosh(A) * math.cosh(B) - math.cosh(C)) / (math.sinh(A) * math.sinh(B))
        if -1.0 <= cos_phi <= 1.0:
            phi = math.acos(cos_phi)
            chunks.append(_circle(a, c0, e0, R, np.array([phi, -phi])))
    pts = np.vstack(chunks)
    if len(pts) < 2:
        return 0.0
    return max(float(np.max(_hdist(a, pts[i : i + 128, None, :], pts[None, :, :])))
               for i in range(0, len(pts), 128))


class ProfileH21(Workload):
    name = "profile_h21"
    smoke_overrides = {"grid": 4, "budget": 512}
    brute_points = 3  # grid points checked against the brute force

    def body(self):
        cfg = self.config
        profile = lens.w_profile(self.bp, grid=cfg.grid, budget=cfg.budget, seed=cfg.seed)
        profile.to_csv(self.out, config_lines=cfg.resolved_lines())
        return profile, _sha256_file(self.out)

    def fingerprint(self, result):
        profile, digest = result
        return {
            "csv_sha256": digest,
            "sum_w": repr(float(np.sum(profile.w))),
            "T_est": repr(float(profile.nesting_onset.value)),
            "S_est": repr(float(profile.full_width_end.value)),
        }

    def oracles(self, result):
        profile, _ = result
        bp = self.bp
        a = self.manifold.radius
        base = np.asarray(bp.line.base.coords, dtype=float)
        unit = np.asarray(bp.line.direction.components, dtype=float)
        unit = unit / math.sqrt(_mink(unit, unit))
        tol = 1e-9
        c0, _ = _on_axis(a, base, unit, 0.0)
        for i, t in enumerate(profile.ts):
            ct, _ = _on_axis(a, base, unit, float(t))
            wa, wb = profile.witness_a[i], profile.witness_b[i]
            worst = max(
                float(np.max(_hdist(a, c0, np.array([wa, wb])))) - bp.R,
                float(np.max(_hdist(a, ct, np.array([wa, wb])))) - bp.r,
                abs(float(_hdist(a, wa, wb)) - profile.w[i]),
            )
            yield f"witnesses[t={t:.6g}]", worst <= tol, f"excess {worst:.3g}"
        rng = np.random.default_rng([self.seed, 101])
        picks = rng.choice(len(profile.ts), size=min(self.brute_points, len(profile.ts)), replace=False)
        for i in sorted(int(k) for k in picks):
            t = float(profile.ts[i])
            brute = _brute_width(a, base, unit, bp.R, bp.r, t)
            gap = abs(profile.w[i] - brute)
            yield f"brute_width[t={t:.6g}]", gap <= profile.slack[i], (
                f"|w - brute| = {gap:.3g}, slack {profile.slack[i]:.3g}"
            )


class VerifyS2(Workload):
    name = "verify_s2"
    smoke_overrides = {"grid": 8, "budget": 1024}

    def body(self):
        argv = ["verify", "--config", _config_path(self.name), "--seed", str(self.seed)]
        argv += ["--out", self.out]
        if self.smoke:
            for key, value in self.smoke_overrides.items():
                argv += [f"--{key}", str(value)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(self.out, newline="") as handle:
            records = list(csv.DictReader(handle))
        return code, records, _sha256_file(self.out)

    def fingerprint(self, result):
        return {"records_sha256": result[2]}

    def oracles(self, result):
        code, records, _ = result
        yield "exit_code", code == 0, f"exit code {code}"
        for rec in records:
            if rec["status"] != "report":
                yield f"claim[{rec['claim']}]", rec["status"] == "pass", (
                    f"{rec['status']} margin {rec['margin']}"
                )


class SurfaceBump(Workload):
    name = "surface_bump"
    t = 0.04  # separation of the sampled lens
    sample_budget = 16
    margin_points = 6  # seeded subset of the cloud re-checked by margins

    @property
    def radii_kwargs(self):
        # an odd number of base points puts one on the geodesic u = 0, and
        # a multiple of 4 directions contains the direction along it
        if self.smoke:
            return {"base_points": 1, "directions": 4}
        return {"base_points": 3, "directions": 64}

    def body(self):
        report = radii.radii_report(
            self.manifold,
            certified_injectivity=self.config.manifold.injectivity_bound,
            **self.radii_kwargs,
        )
        # A fresh pair per repeat: the numeric geodesic line caches its
        # integration and re-integrates when asked for a longer span, so a
        # reused pair gives other bits on the second call.
        bp = self.ball_pair(self.t)
        cloud = lens.sample_intersection(bp, self.sample_budget, self.seed)
        return report, bp, cloud

    def fingerprint(self, result):
        report, _, cloud = result
        fields = {name: repr(value.value) for name, value in report.fields()}
        fields["cloud_sha256"] = hashlib.sha256(cloud.points.tobytes()).hexdigest()
        return fields

    def oracles(self, result):
        report, bp, cloud = result
        # K(u) = cos u / (2 + cos u) <= 1/3 with equality on u = 0, so by
        # Rauch comparison the conjugate radius is pi * sqrt(3), attained
        # along that geodesic; the focal radius is half of it.
        conj = math.pi * math.sqrt(3.0)
        for name, value, target in [
            ("conjugate", report.conjugate, conj),
            ("focal", report.focal, 0.5 * conj),
        ]:
            err = abs(value.value - target)
            yield f"radii[{name}]", err <= 1e-6 and not value.lower_bound_only, (
                f"{value.render()} vs {target:.9g}"
            )
        rng = np.random.default_rng([self.seed, 103])
        rows = rng.choice(len(cloud), size=min(self.margin_points, len(cloud)), replace=False)
        margins = bp.margins(cloud.points[np.sort(rows)])
        for row, margin in zip(np.sort(rows), margins):
            yield f"margin[{int(row)}]", margin >= -1e-9, f"margin {margin:.3g}"


WORKLOADS = {w.name: w for w in (ProfileH21, VerifyS2, SurfaceBump)}
