"""The distance scans behind every sampled width, Hausdorff gap and nesting
margin.

``pairwise_max`` finds the farthest pair of one cloud and ``min_dist_to``
the distance from each point of a cloud to its nearest target; a largest
nearest distance (a one-way Hausdorff gap) is the maximum of the latter.
On a model with closed forms the scans work on row blocks of the model's
squared pre-metric (:meth:`Manifold.scan_sq`), which is monotone in the
distance, and map only the reduced values to distances
(:meth:`Manifold.scan_dist`).  The model's distance is those two formulas
(:meth:`Manifold.dist_pairs`), and a pre-metric element has the same bits
in a block as alone, so every value a scan reports is the ``dist_pairs``
value of its pair.  Blocks are chunked to bound memory.  Every scan reads
every pair: a lens cloud holds the lens boundary alone, a few hundred
points, and on exact pairs the verification suite reads its Hausdorff gaps
in closed form (``lens.lens_gaps``) instead of scanning clouds.

A model without closed forms (the numeric surface) has no pre-metric: there
every pair of the scan is shot in one lockstep Newton batch
(:meth:`Manifold.dist_pairs`), chunked by ``_SHOOT_CHUNK`` pairs to bound
the integration state.  A scan raises ``ConfigError`` before any shoot,
instead of running for hours, when the product of its cloud sizes exceeds
``SLOW_PAIR_LIMIT``: n * n for the farthest pair of n points (though it
shoots only the n(n - 1)/2 distinct pairs), so that scan takes at most 500
points.
"""

import numpy as np

from geolens.errors import ConfigError

SLOW_PAIR_LIMIT = 250_000

_CHUNK = 512
_SHOOT_CHUNK = 4096


def pairwise_max(points, manifold):
    """Largest pairwise distance in one cloud; returns (dist, i, j)."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if not manifold.closed_form:
        return _pairwise_max_shot(pts, manifold)
    n = pts.shape[0]
    best = -1.0
    bi = bj = 0
    for i0 in range(0, n, _CHUNK):
        a = pts[i0 : i0 + _CHUNK]
        for j0 in range(i0, n, _CHUNK):
            sq = manifold.scan_sq(a, pts[j0 : j0 + _CHUNK])
            if j0 == i0:
                sq = np.triu(sq, k=1)
            k = int(np.argmax(sq))
            i, j = divmod(k, sq.shape[1])
            if sq[i, j] > best:
                best = float(sq[i, j])
                bi, bj = i0 + i, j0 + j
    return float(manifold.scan_dist(np.asarray(best))), bi, bj


def min_dist_to(points, targets, manifold):
    """For each row of ``points``, the distance to its nearest row of ``targets``."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    tgt = np.ascontiguousarray(targets, dtype=np.float64)
    if not manifold.closed_form:
        return _min_dist_shot(pts, tgt, manifold)
    nearest = np.full(pts.shape[0], np.inf)
    for i0 in range(0, pts.shape[0], _CHUNK):
        rows = nearest[i0 : i0 + _CHUNK]
        for j0 in range(0, tgt.shape[0], _CHUNK):
            sq = manifold.scan_sq(pts[i0 : i0 + _CHUNK], tgt[j0 : j0 + _CHUNK])
            np.minimum(rows, sq.min(axis=1), out=rows)
    return manifold.scan_dist(nearest)


def _shoot_pairs(sources, targets, manifold):
    out = np.empty(len(sources))
    for k in range(0, len(sources), _SHOOT_CHUNK):
        chunk = slice(k, k + _SHOOT_CHUNK)
        out[chunk] = manifold.dist_pairs(sources[chunk], targets[chunk])
    return out


def _pairwise_max_shot(pts, manifold):
    n = len(pts)
    if n * n > SLOW_PAIR_LIMIT:
        raise ConfigError("cloud too large for the numeric-manifold pairwise scan")
    if n < 2:
        return 0.0, 0, 0
    i, j = np.triu_indices(n, k=1)  # row-major, so argmax keeps the first farthest pair
    d = _shoot_pairs(pts[i], pts[j], manifold)
    k = int(np.argmax(d))
    if not d[k] > 0.0:
        return 0.0, 0, 0
    return float(d[k]), int(i[k]), int(j[k])


def _min_dist_shot(pts, targets, manifold):
    if len(pts) * len(targets) > SLOW_PAIR_LIMIT:
        raise ConfigError("clouds too large for the numeric-manifold scan")
    sources = np.repeat(pts, len(targets), axis=0)
    ends = np.tile(targets, (len(pts), 1))
    d = _shoot_pairs(sources, ends, manifold)
    return d.reshape(len(pts), len(targets)).min(axis=1)
