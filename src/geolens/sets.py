"""Finite-sample compact-set machinery: Hausdorff distance and diameters.

Compact sets are represented by nonempty finite point clouds carrying an
explicit fill radius: every point of the represented set lies within
``fill_radius`` of some sample.  Set-level statements then hold up to
quantified slack.  Scans are brute force O(|Y| * |Z|) through the kernel
layer; desk-scale clouds make clarity worth more than an index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geolens import _kernels
from geolens.errors import NestingError
from geolens.manifolds import Manifold

SLOW_PAIR_LIMIT = 250_000


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite sample of a compact set with a certified-coverage estimate."""

    manifold: Manifold
    points: np.ndarray  # (n, ambient_dim)
    fill_radius: float

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("cloud must be a nonempty (n, d) array")
        if self.fill_radius < 0:
            raise ValueError("fill_radius must be >= 0")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    @classmethod
    def from_points(cls, manifold, points, fill_radius=0.0, validate=True):
        cloud = cls(manifold, np.asarray(points, dtype=np.float64), float(fill_radius))
        if validate:
            worst = max(manifold.point_violation(p) for p in cloud.points)
            if worst > 1e-8:
                raise ValueError(f"cloud contains off-manifold points ({worst:.2e})")
        return cloud


def _same_manifold(y: PointCloud, z: PointCloud):
    if y.manifold is not z.manifold:
        raise ValueError("clouds live on different manifolds")


def _pairwise_max_slow(manifold, pts):
    n = len(pts)
    if n * n > SLOW_PAIR_LIMIT:
        raise ValueError("cloud too large for the numeric-manifold pairwise scan")
    best, bi, bj = 0.0, 0, 0
    for i in range(n - 1):
        d = manifold.dist_many(pts[i], pts[i + 1 :])
        j = int(np.argmax(d))
        if d[j] > best:
            best, bi, bj = float(d[j]), i, i + 1 + j
    return best, bi, bj


def _min_dist_slow(manifold, pts, targets):
    if len(pts) * len(targets) > SLOW_PAIR_LIMIT:
        raise ValueError("clouds too large for the numeric-manifold scan")
    return np.array([np.min(manifold.dist_many(p, targets)) for p in pts])


def diameter_with_witness(cloud: PointCloud):
    """(max pairwise distance, index pair); exact on the samples."""
    if len(cloud) == 1:
        return 0.0, (0, 0)
    m = cloud.manifold
    if m.kernel_kind is None:
        best, bi, bj = _pairwise_max_slow(m, cloud.points)
        return best, (bi, bj)
    d, i, j = _kernels.pairwise_max(cloud.points, m.kernel_kind, m.kernel_scale)
    return float(d), (i, j)


def diameter(cloud: PointCloud) -> float:
    """Max pairwise distance over samples; the true diameter of the
    represented set exceeds this by at most 2 * fill_radius."""
    return diameter_with_witness(cloud)[0]


def min_distances(cloud: PointCloud, target: PointCloud) -> np.ndarray:
    m = cloud.manifold
    if m.kernel_kind is None:
        return _min_dist_slow(m, cloud.points, target.points)
    return _kernels.min_dist_to(
        cloud.points, target.points, m.kernel_kind, m.kernel_scale
    )


def hausdorff(y: PointCloud, z: PointCloud) -> float:
    """Hausdorff distance of the samples (max of the two sup-inf scans).

    The Hausdorff distance of the represented sets differs from this by at
    most y.fill_radius + z.fill_radius.
    """
    _same_manifold(y, z)
    forward = float(min_distances(y, z).max())
    backward = float(min_distances(z, y).max())
    return max(forward, backward)


def diameter_lipschitz_check(y: PointCloud, z: PointCloud, extra_slack: float = 1e-12) -> bool:
    """|diam(Y) - diam(Z)| <= 2 H(Y, Z) + slack on the sampled quantities.

    The slack 4 * (fill_Y + fill_Z) covers both the diameter and the
    Hausdorff sampling errors relative to the represented sets.
    """
    _same_manifold(y, z)
    lhs = abs(diameter(y) - diameter(z))
    rhs = 2.0 * hausdorff(y, z) + 4.0 * (y.fill_radius + z.fill_radius) + extra_slack
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
        gap = float(min_distances(inner, outer).max())
        if gap > outer.fill_radius + slack:
            raise NestingError(
                f"nesting violated between elements {i} and {i + 1}: "
                f"gap {gap:.3e} > fill {outer.fill_radius:.3e} + slack"
            )
    return hausdorff(clouds[-1], limit)
