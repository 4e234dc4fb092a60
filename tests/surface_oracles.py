"""The unit sphere and the hyperbolic plane as surfaces of revolution.

The metric du^2 + cos^2 u dv^2 is the unit sphere, with u the latitude, and
du^2 + cosh^2 u dv^2 is the hyperbolic plane in Fermi coordinates along the
geodesic u = 0.  Their Gauss curvature K = -f''/f is +1 and -1 everywhere.
Each :class:`OracleSurface` pairs the numeric surface (a test-local profile
jet on [-1, 1]) with the closed-form model and the isometry between them:

* sphere: (u, v) -> (cos u cos v, cos u sin v, sin u) on ``Sphere(2)``;
* H^2: (u, v) -> (cosh u cosh v, cosh u sinh v, sinh u) on
  ``Hyperbolic(2)``, time component first.

The surface's axis (d/du at (0, 0)) maps to a geodesic of the model, so
every distance, exponential, logarithm and frame of the surface has an exact
value from the model.
"""

from dataclasses import dataclass

import numpy as np

from geolens import Hyperbolic, RevolutionProfile, Sphere, SurfaceOfRevolution

U_MAX = 1.0


def _sphere_jet(u):
    c = np.cos(u)
    return c, -np.sin(u), -c


def _hyperbolic_jet(u):
    c = np.cosh(u)
    return c, np.sinh(u), c


@dataclass(frozen=True)
class OracleSurface:
    name: str
    surface: SurfaceOfRevolution
    model: object
    sign: float  # +1: cos and sin of v (sphere); -1: cosh and sinh (H^2)

    def _trig(self, x):
        if self.sign > 0:
            return np.cos(x), np.sin(x)
        return np.cosh(x), np.sinh(x)

    def to_model(self, coords):
        """The model point of each surface row (u, v)."""
        coords = np.asarray(coords, dtype=np.float64)
        (cu, su), (cv, sv) = self._trig(coords[..., 0]), self._trig(coords[..., 1])
        return np.stack([cu * cv, cu * sv, su], axis=-1)

    def push(self, coords, tangents):
        """The model tangent of each surface tangent (du, dv) at the same
        row of ``coords``: the differential of :meth:`to_model`."""
        coords = np.asarray(coords, dtype=np.float64)
        a, b = np.asarray(tangents, dtype=np.float64).T
        (cu, su), (cv, sv) = self._trig(coords[..., 0]), self._trig(coords[..., 1])
        s = self.sign
        d_u = np.stack([-s * su * cv, -s * su * sv, cu], axis=-1)
        d_v = np.stack([-s * cu * sv, cu * cv, np.zeros_like(cu)], axis=-1)
        return a[:, None] * d_u + b[:, None] * d_v


def sphere_surface() -> OracleSurface:
    profile = RevolutionProfile(jet=_sphere_jet, u_min=-U_MAX, u_max=U_MAX)
    return OracleSurface("sphere", SurfaceOfRevolution(profile), Sphere(2, 1.0), 1.0)


def hyperbolic_surface() -> OracleSurface:
    profile = RevolutionProfile(jet=_hyperbolic_jet, u_min=-U_MAX, u_max=U_MAX)
    return OracleSurface("H2", SurfaceOfRevolution(profile), Hyperbolic(2, -1.0), -1.0)
