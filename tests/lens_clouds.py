"""The 2-D polar lens cloud: a labelled oracle for the tests that need a
lens's interior or a lens cloud of more than a few hundred points.

``geolens.lens.sample_intersection`` samples the lens boundary alone.  This
is a filled cloud of the same lens, built one model call per circle: the
small center, a polar rejection grid of rings over the small ball (one
seeded phase per ring), both boundary arcs and the candidates on them, each
kept where it lies in the lens.  Its fill radius, the half-diagonal of a
grid cell, is an estimate tied to the grid pitch, not a bound near the
corners.

``concentric_cloud`` is the ideal polar cloud of a metric ball, the
reference reading of the suite's ``monotone_set_limits`` claim.
"""

import math

import numpy as np

from geolens.lens import _circles
from geolens.sets import PointCloud


def concentric_cloud(manifold, center, frame, radius):
    """Ideal polar cloud of a metric ball, as points: the centre and 16
    rings of 64 shared angles, the outer ring on the ball's sphere, through
    one ``_circles`` call."""
    n_rings, n_ang = 16, 64
    rhos = [0.0] + [radius * i / n_rings for i in range(1, n_rings + 1)]
    points = _circles(
        manifold, center, frame, rhos, [1] + [n_ang] * n_rings, np.zeros(n_rings + 1)
    )
    points[0] = center  # the zero vector, pinned exactly
    return points


def polar_lens_cloud(bp, budget, seed) -> PointCloud:
    """The filled cloud of the lens of ``bp`` at ``budget`` and ``seed``:
    about 0.6 * ``budget`` grid points over the small ball plus both arcs."""
    m, R, r, t = bp.manifold, bp.R, bp.r, bp.t
    if R + r - t < 1e-12 * (R + r):
        return PointCloud(m, bp.line.coords_at(R)[None, :], 0.0)
    rng = np.random.default_rng([seed, budget])
    center_small, center_big = bp.center_small(), bp.center_big()
    frame_small = m.tangent_basis(center_small, primary=bp.line.velocity_at(t).components)
    frame_big = m.tangent_basis(center_big, primary=bp.line.velocity_at(0.0).components)
    pitch = math.sqrt(m.disk_area(r) / max(16, int(0.6 * budget)))
    n_rad = max(2, int(math.ceil(r / pitch)))
    drho = r / n_rad

    def circle(center, frame, rho, n):
        ang = rng.uniform(0.0, 2.0 * math.pi) + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        vecs = rho * (np.cos(ang)[:, None] * frame[0] + np.sin(ang)[:, None] * frame[1])
        return m.exp_many(center, vecs)

    chunks = [np.array([bp.line.coords_at(t - r), bp.line.coords_at(min(t + r, R))])]
    cos_phi = m.corner_cosine(R, r, t) if t >= 1e-12 else None
    if cos_phi is not None and -1.0 <= cos_phi <= 1.0:
        phi = math.acos(cos_phi)
        for sign in (1.0, -1.0):
            vec = R * (math.cos(phi) * frame_big[0] + sign * math.sin(phi) * frame_big[1])
            chunks.append(m.exp_many(center_big, vec[None, :]))
    chord = m.exp_many(center_small, np.array([r * frame_small[1], -r * frame_small[1]]))
    for i in range(n_rad + 1):
        if i == 0:
            ring = center_small[None, :]
        else:
            n_ang = max(6, int(math.ceil(m.circle_circumference(i * drho) / drho)))
            ring = circle(center_small, frame_small, i * drho, n_ang)
        chunks.append(ring[m.dist_many(center_big, ring) <= R + 1e-12])
    n_arc = max(64, int(math.ceil(m.circle_circumference(r) / drho)))
    arc = circle(center_small, frame_small, r, n_arc)
    chunks.append(arc[m.dist_many(center_big, arc) <= R + 1e-12])
    n_arc = max(64, int(math.ceil(m.circle_circumference(R) / drho)))
    arc = circle(center_big, frame_big, R, n_arc)
    chunks.append(arc[m.dist_many(center_small, arc) <= r + 1e-12])
    chunks.append(chord[bp.margins(chord) >= -1e-12])
    points = np.vstack(chunks)
    return PointCloud(m, points[bp.margins(points) >= -1e-9], 0.5 * math.hypot(drho, drho))
