"""geolens: geodesic-ball overlap widths on model Riemannian manifolds.

The package computes, at desk scale, how the diameter of the intersection of
two closed geodesic balls behaves as their centers separate along a geodesic,
together with the supporting geometry: exponential/logarithm maps, geodesic
lines, Jacobi-field integration, convexity/injectivity/conjugate/focal
radii, and Hausdorff-distance machinery for finite samples of compact sets.
"""

from geolens.geodesics import GeodesicLine, JacobiSolution, integrate_jacobi
from geolens.lens import (
    BallPair,
    LensDiameter,
    WProfile,
    estimate_full_width_end,
    estimate_nesting_onset,
    lens_diameter,
    sample_intersection,
    w_profile,
)
from geolens.manifolds import (
    Euclidean,
    Hyperbolic,
    Manifold,
    ManifoldPoint,
    RevolutionProfile,
    Sphere,
    SurfaceOfRevolution,
    TangentVector,
)
from geolens.radii import (
    RadiiReport,
    RadiusValue,
    closed_form_radii,
    conjugate_radius,
    convexity_from,
    focal_radius,
    jacobi_radii,
    radii_report,
)
from geolens.sets import (
    PointCloud,
    diameter,
    diameter_lipschitz_check,
    hausdorff,
)

__version__ = "0.1.0"

# The distance scans are NumPy; run reports record this name.
kernel_backend = "numpy"

__all__ = [
    "kernel_backend",
    "Manifold",
    "ManifoldPoint",
    "TangentVector",
    "Euclidean",
    "Sphere",
    "Hyperbolic",
    "SurfaceOfRevolution",
    "RevolutionProfile",
    "GeodesicLine",
    "JacobiSolution",
    "integrate_jacobi",
    "RadiusValue",
    "RadiiReport",
    "closed_form_radii",
    "conjugate_radius",
    "focal_radius",
    "jacobi_radii",
    "convexity_from",
    "radii_report",
    "PointCloud",
    "hausdorff",
    "diameter",
    "diameter_lipschitz_check",
    "BallPair",
    "LensDiameter",
    "WProfile",
    "sample_intersection",
    "lens_diameter",
    "w_profile",
    "estimate_nesting_onset",
    "estimate_full_width_end",
]
