"""The distance scans behind every width, Hausdorff gap and nesting margin.

``pairwise_max`` finds the farthest pair of one cloud, ``max_nearest`` the
largest nearest distance (sup over p of inf over q of d(p, q)) one or both
ways, ``min_dist_to`` the distance from each point of a cloud to its nearest
target and ``min_dist_both`` those distances both ways.  On a model with
closed forms the scans work on row blocks of the model's squared pre-metric
(:meth:`Manifold.scan_sq`), which is monotone in the distance, and map only
the reduced values to distances (:meth:`Manifold.scan_dist`).  The model's
distance is those two formulas (:meth:`Manifold.dist_pairs`), and a
pre-metric element has the same bits in a block as alone, so every value a
scan reports is the ``dist_pairs`` value of its pair.  Blocks are
chunked to bound memory.  One block scan serves both directions: its row
minima are the nearest targets of the points and its column minima the
nearest points of the targets, with the bits of a scan the other way because
``scan_sq(a, b)[i, j] == scan_sq(b, a)[j, i]``.

``pairwise_max`` scans every pair: a lens cloud holds the lens boundary
alone, a few hundred points.  Few rows decide a
largest nearest distance, so ``max_nearest`` first finds the rows that can
hold it and then scans only those rows exactly (after Taha & Hanbury, *An
efficient algorithm for calculating the exact Hausdorff distance*, 2015),
where ``scan_sq`` is the squared ambient Euclidean distance
(``uses_trees``): a k-d tree (``kd_tree``) gives every row's nearest
distance to a few ulps, and only the rows within a relative ``_TREE_RTOL``
of the largest are rescored against every target.  The reported value
still comes from ``scan_sq`` blocks, whose element bits do not depend on the
block's shape, so it has the bits of the full scan.  A caller that holds
the trees of its clouds hands them in; otherwise each call builds its own.
Elsewhere (the hyperboloid's Minkowski form) it reduces the one-block
two-way scan.

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

# The tree's distances agree with sqrt(scan_sq) to a few ulps; a row more
# than this far below the largest cannot hold the exact maximum.  (When
# every distance is 0, every row is kept.)
_TREE_RTOL = 1e-9


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


def uses_trees(manifold):
    """Whether ``max_nearest`` ranks rows with k-d trees on this model:
    where ``scan_sq`` is the squared ambient Euclidean distance."""
    return manifold.closed_form and manifold.euclidean_scan


def kd_tree(points):
    """scipy's ``cKDTree`` of the rows of ``points``."""
    from scipy.spatial import cKDTree  # only here: keeps scipy off start-up

    return cKDTree(points)


def max_nearest(points, targets, manifold, both=True, trees=None):
    """``(max(min_dist_to(points, targets)), max(min_dist_to(targets,
    points)))`` with their bits; only the first with ``both=False``.

    Where ``uses_trees`` holds, ``trees`` may give the k-d trees of
    ``points`` and ``targets`` (``kd_tree``); a missing one is built here.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    tgt = np.ascontiguousarray(targets, dtype=np.float64)
    if uses_trees(manifold):
        point_tree, target_tree = trees or (None, None)
        out = (_tree_max_nearest(pts, tgt, target_tree, manifold),)
        if both:
            out += (_tree_max_nearest(tgt, pts, point_tree, manifold),)
        return out
    if both:
        forward, backward = min_dist_both(pts, tgt, manifold)
        return float(forward.max()), float(backward.max())
    return (float(min_dist_to(pts, tgt, manifold).max()),)


def _tree_max_nearest(pts, tgt, tree, manifold):
    """Largest nearest distance from pts to tgt: candidates from the k-d
    tree of tgt (built when ``tree`` is None), then the exact ``scan_sq``
    rows of those that can hold the maximum."""
    if tree is None:
        tree = kd_tree(tgt)
    near = tree.query(pts, k=1)[0]
    rows = pts[near >= (1.0 - _TREE_RTOL) * near.max()]
    return float(manifold.scan_dist(_nearest_sq(rows, tgt, manifold)[0]).max())


def min_dist_to(points, targets, manifold):
    """For each row of ``points``, the distance to its nearest row of ``targets``."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    tgt = np.ascontiguousarray(targets, dtype=np.float64)
    if not manifold.closed_form:
        return _min_dist_shot(pts, tgt, manifold)
    return manifold.scan_dist(_nearest_sq(pts, tgt, manifold)[0])


def min_dist_both(points, targets, manifold):
    """``(min_dist_to(points, targets), min_dist_to(targets, points))``, with
    their bits, from one block scan on a closed-form model."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    tgt = np.ascontiguousarray(targets, dtype=np.float64)
    if not manifold.closed_form:
        # shooting p -> q and q -> p agree only to the shooting tolerance
        return _min_dist_shot(pts, tgt, manifold), _min_dist_shot(tgt, pts, manifold)
    row_min, col_min = _nearest_sq(pts, tgt, manifold)
    return manifold.scan_dist(row_min), manifold.scan_dist(col_min)


def _nearest_sq(pts, tgt, manifold):
    """Row and column minima of the squared pre-metric block of pts x tgt."""
    row_min = np.full(pts.shape[0], np.inf)
    col_min = np.full(tgt.shape[0], np.inf)
    for i0 in range(0, pts.shape[0], _CHUNK):
        rows = row_min[i0 : i0 + _CHUNK]
        for j0 in range(0, tgt.shape[0], _CHUNK):
            sq = manifold.scan_sq(pts[i0 : i0 + _CHUNK], tgt[j0 : j0 + _CHUNK])
            np.minimum(rows, sq.min(axis=1), out=rows)
            cols = col_min[j0 : j0 + _CHUNK]
            np.minimum(cols, sq.min(axis=0), out=cols)
    return row_min, col_min


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
