"""Finite-sample compact-set machinery: Hausdorff distance and diameters.

Compact sets are represented by nonempty finite point clouds carrying an
explicit fill radius: every point of the represented set lies within
``fill_radius`` of some sample.  Set-level statements then hold up to
quantified slack.  A lens cloud (``lens.sample_intersection``) represents
the boundary of the lens in its axial section, and its fill radius, half
the larger arc spacing in arc length, bounds the gaps along both arcs on
the closed-form models (on the numeric surface it is an estimate).  The
boundary has the lens's diameter, and the diameter is 2-Lipschitz in the
Hausdorff distance of any compact sets, so the width claims hold of the
boundary clouds as they do of the lenses.

Every distance comes from the scans of :mod:`geolens._kernels`.  A
Hausdorff distance is the larger of two largest nearest distances, each
read off one full ``min_dist_to`` scan: on the closed-form models its value
has the bits of the model's ``dist_pairs`` of the pair that holds it, and
the numeric surface shoots every pair of each direction.  A cloud's points
are read-only, so its diameter is scanned once and memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from geolens import _kernels
from geolens.manifolds import Manifold

# rounding slack of diameter_lipschitz_check
LIPSCHITZ_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite sample of a compact set with a certified-coverage estimate."""

    manifold: Manifold
    points: np.ndarray  # (n, ambient_dim)
    fill_radius: float

    def __post_init__(self):
        # an own read-only copy: the memoised diameter stays the points'
        pts = np.array(self.points, dtype=np.float64, order="C")
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("cloud must be a nonempty (n, d) array")
        if self.fill_radius < 0:
            raise ValueError("fill_radius must be >= 0")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    @cached_property
    def _diameter(self):
        d, i, j = _kernels.pairwise_max(self.points, self.manifold)
        return float(d), (i, j)


def _same_manifold(y: PointCloud, z: PointCloud):
    if y.manifold is not z.manifold:
        raise ValueError("clouds live on different manifolds")


def diameter_with_witness(cloud: PointCloud):
    """(max pairwise distance, index pair); exact on the samples, and
    scanned once per cloud."""
    return cloud._diameter


def diameter(cloud: PointCloud) -> float:
    """Max pairwise distance over samples; the true diameter of the
    represented set exceeds this by at most 2 * fill_radius."""
    return diameter_with_witness(cloud)[0]


def hausdorff(y: PointCloud, z: PointCloud) -> float:
    """Hausdorff distance of the samples (max of the two sup-inf scans).

    The Hausdorff distance of the represented sets differs from this by at
    most y.fill_radius + z.fill_radius.
    """
    _same_manifold(y, z)
    forward = _kernels.min_dist_to(y.points, z.points, y.manifold)
    backward = _kernels.min_dist_to(z.points, y.points, y.manifold)
    return max(float(forward.max()), float(backward.max()))


def diameter_lipschitz_check(y: PointCloud, z: PointCloud) -> bool:
    """|diam(Y) - diam(Z)| <= 2 H(Y, Z) + slack on the sampled quantities.

    The slack 4 * (fill_Y + fill_Z) covers both the diameter and the
    Hausdorff sampling errors relative to the represented sets, and
    ``LIPSCHITZ_SLACK`` the rounding.
    """
    _same_manifold(y, z)
    lhs = abs(diameter(y) - diameter(z))
    rhs = 2.0 * hausdorff(y, z) + 4.0 * (y.fill_radius + z.fill_radius) + LIPSCHITZ_SLACK
    return lhs <= rhs

