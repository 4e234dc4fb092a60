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
Hausdorff distance and a nesting gap are largest nearest distances, read
off full block scans: on the closed-form models their values have the bits
of the model's ``dist_pairs`` of the pair that holds them, and the numeric
surface shoots every pair.  A cloud's points are read-only, so its diameter
is scanned once and memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from geolens import _kernels
from geolens.errors import NestingError
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
    forward, backward = _kernels.min_dist_both(y.points, z.points, y.manifold)
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


def monotone_limit_check(
    clouds: list[PointCloud],
    direction: str,
    limit: PointCloud,
    slack: float = 1e-9,
) -> float:
    """Verify sample-wise nesting of a cloud sequence, then measure the gap
    between its last element and the limit candidate.

    ``direction`` is "nested-decreasing" (each cloud inside its predecessor)
    or "nested-increasing".  A point counts as inside another cloud when it
    is within that cloud's fill radius plus ``slack`` of some sample.
    Returns hausdorff(clouds[-1], limit).
    """
    if direction not in ("nested-decreasing", "nested-increasing"):
        raise ValueError("direction must be 'nested-decreasing' or 'nested-increasing'")
    if not clouds:
        raise ValueError("empty sequence")
    for c in clouds:
        _same_manifold(c, limit)
    for i in range(len(clouds) - 1):
        inner, outer = (
            (clouds[i + 1], clouds[i])
            if direction == "nested-decreasing"
            else (clouds[i], clouds[i + 1])
        )
        gap = float(_kernels.min_dist_to(inner.points, outer.points, inner.manifold).max())
        if gap > outer.fill_radius + slack:
            raise NestingError(
                f"nesting violated between elements {i} and {i + 1}: "
                f"gap {gap:.3e} > fill {outer.fill_radius:.3e} + slack"
            )
    return hausdorff(clouds[-1], limit)
