"""Brute-force lens widths and witness checks written independently of geolens.

The diameter of a lens in a 2-dimensional model is attained on its boundary,
so :func:`brute_width` scans dense samples of both boundary circles, each
kept where it lies in the other ball (to 1e-12), plus the corners where the
circles meet, and returns the farthest pair.  The circles hold ``n`` equally
spaced angles from the axis, so for ``n`` divisible by 4 they contain the
axis ends and the ends of the perpendicular chord.

Each model is placed by its base point and unit axis direction, by default
where geolens puts its line:

* :class:`Plane`: R^2, the axis along the first coordinate from the origin;
* :class:`Sphere2`: the sphere of radius ``a`` in R^3;
* :class:`Hyperboloid2`: the hyperboloid sheet <x, x> = -a^2 in Minkowski
  R^(1,2), time component first (the formulas of ``perfbench``'s
  ``_brute_width``).
"""

import math

import numpy as np


def _sq_parts(x, y, k):
    """(x - y)^2 in coordinate k, one coordinate at a time so that a pair
    block is a contiguous broadcast."""
    diff = np.asarray(x)[..., k] - np.asarray(y)[..., k]
    return diff * diff


def farthest(model, points, chunk=256) -> float:
    """The largest distance between two rows of ``points``: the largest
    pre-metric ``model.sq`` over blocks of ``chunk`` rows against the rows
    from the block's first one on, mapped to a distance once."""
    if len(points) < 2:
        return 0.0
    sq = max(
        float(np.max(model.sq(points[i : i + chunk, None, :], points[None, i:, :])))
        for i in range(0, len(points), chunk)
    )
    return float(model.from_sq(sq))


class Plane:
    """R^2 with the axis along the first coordinate from the origin."""

    base = np.zeros(2)
    unit = np.array([1.0, 0.0])

    def sq(self, x, y):
        return _sq_parts(x, y, 0) + _sq_parts(x, y, 1)

    def from_sq(self, sq):
        return np.sqrt(sq)

    def on_axis(self, t):
        return self.base + t * self.unit, self.unit

    def circle(self, center, e1, rho, angles):
        e2 = np.array([-e1[1], e1[0]])
        return center + rho * (np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2)

    def corners(self, R, r, t):
        if not (abs(R - r) <= t <= R + r and t > 0):
            return np.empty((0, 2))
        a = (t * t + R * R - r * r) / (2.0 * t)
        if R * R < a * a:
            return np.empty((0, 2))
        h = math.sqrt(R * R - a * a)
        return np.array([[a, h], [a, -h]])


class Sphere2:
    def __init__(self, a, base=None, unit=(0.0, 1.0, 0.0)):
        self.a = a
        self.base = np.array([a, 0.0, 0.0]) if base is None else np.asarray(base, dtype=float)
        self.unit = np.asarray(unit, dtype=float)

    def sq(self, x, y):
        # squared chord in R^3
        return _sq_parts(x, y, 0) + _sq_parts(x, y, 1) + _sq_parts(x, y, 2)

    def from_sq(self, sq):
        return 2.0 * self.a * np.arcsin(np.minimum(np.sqrt(sq) / (2.0 * self.a), 1.0))

    def on_axis(self, t):
        c, s = math.cos(t / self.a), math.sin(t / self.a)
        return c * self.base + self.a * s * self.unit, -s * self.base / self.a + c * self.unit

    def circle(self, center, e1, rho, angles):
        e2 = np.cross(center, e1) / self.a
        dirs = np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2
        return math.cos(rho / self.a) * center + self.a * math.sin(rho / self.a) * dirs

    def corner_cosine(self, R, r, t):
        A, B, C = R / self.a, t / self.a, r / self.a
        return (math.cos(C) - math.cos(A) * math.cos(B)) / (math.sin(A) * math.sin(B))

    def corners(self, R, r, t):
        return _law_of_cosines_corners(self, R, r, t)


def _mink(x, y):
    return np.sum(x[..., 1:] * y[..., 1:], axis=-1) - x[..., 0] * y[..., 0]


class Hyperboloid2:
    def __init__(self, a, base=None, unit=(0.0, 1.0, 0.0)):
        self.a = a
        self.base = np.array([a, 0.0, 0.0]) if base is None else np.asarray(base, dtype=float)
        self.unit = np.asarray(unit, dtype=float)

    def sq(self, x, y):
        # squared Minkowski chord: the distance from it stays accurate for
        # short distances, unlike arccosh(-<x, y>)
        return np.maximum(_sq_parts(x, y, 1) + _sq_parts(x, y, 2) - _sq_parts(x, y, 0), 0.0)

    def from_sq(self, sq):
        return 2.0 * self.a * np.arcsinh(np.sqrt(sq) / (2.0 * self.a))

    def on_axis(self, t):
        ch, sh = math.cosh(t / self.a), math.sinh(t / self.a)
        return ch * self.base + self.a * sh * self.unit, sh * self.base / self.a + ch * self.unit

    def circle(self, center, e1, rho, angles):
        e2 = np.cross(center, e1) * np.array([-1.0, 1.0, 1.0])
        e2 /= math.sqrt(_mink(e2, e2))
        dirs = np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2
        return math.cosh(rho / self.a) * center + self.a * math.sinh(rho / self.a) * dirs

    def corner_cosine(self, R, r, t):
        A, B, C = R / self.a, t / self.a, r / self.a
        return (math.cosh(A) * math.cosh(B) - math.cosh(C)) / (math.sinh(A) * math.sinh(B))

    def corners(self, R, r, t):
        return _law_of_cosines_corners(self, R, r, t)


def dist(model, x, y):
    """Distance between matching (broadcast) rows of x and y."""
    return model.from_sq(model.sq(x, y))


def _law_of_cosines_corners(model, R, r, t):
    """The corners at angle +-phi off the axis on the big circle."""
    if t <= 0:
        return np.empty((0, len(model.base)))
    cos_phi = model.corner_cosine(R, r, t)
    if not -1.0 <= cos_phi <= 1.0:
        return np.empty((0, len(model.base)))
    phi = math.acos(cos_phi)
    c0, e0 = model.on_axis(0.0)
    return model.circle(c0, e0, R, np.array([phi, -phi]))


def brute_width(model, R, r, t, n=3000) -> float:
    """Lens diameter from dense boundary arcs plus the two corners; 0 for
    tangent balls, whose lens is one point."""
    if t >= R + r:
        return 0.0
    c0, e0 = model.on_axis(0.0)
    ct, et = model.on_axis(t)
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    big = model.circle(c0, e0, R, angles)
    small = model.circle(ct, et, r, angles)
    points = np.vstack([
        big[dist(model, ct, big) <= r + 1e-12],
        small[dist(model, c0, small) <= R + 1e-12],
        model.corners(R, r, t),
    ])
    return farthest(model, points)


def witness_excess(model, R, r, t, w, witness_a, witness_b) -> float:
    """How far the witnesses of width ``w`` at separation ``t`` lie outside
    either ball, or their distance misses ``w``: <= 0 up to rounding when
    the width is backed by its witnesses."""
    c0, _ = model.on_axis(0.0)
    ct, _ = model.on_axis(t)
    pair = np.array([witness_a, witness_b])
    return max(
        float(np.max(dist(model, c0, pair))) - R,
        float(np.max(dist(model, ct, pair))) - r,
        abs(float(dist(model, witness_a, witness_b)) - w),
    )
