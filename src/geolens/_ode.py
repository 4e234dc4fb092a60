"""Fixed-step classical Runge-Kutta integration for autonomous systems.

Fixed steps keep runs reproducible; accuracy is controlled by the step size
and checked by the tests against closed forms, invariants and finer-step
runs.  The numeric surface integrates its batches with :func:`rk4_rows`,
whose rows each take their own steps, so a row has the bits it has alone,
and its radii scan (``radii._first_zeros_batch``) steps with
:func:`rk4_step`.  The constant-curvature Jacobi scan
(``geodesics.integrate_jacobi``) writes :func:`rk4_step`'s operations out on
two Python floats, in the same order, so any change to the order here must
be made there too.  The sampled trajectories that the tests compare these
with are loops of :func:`rk4_step` in ``tests/ode_oracles.py``.
"""

import numpy as np


def rk4_step(rhs, y, h):
    """One classical RK4 step of y' = rhs(y) with step h."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_rows(rhs, y, h, n):
    """Integrate each row of an (m, k) block of states over its own
    ``n[i]`` steps of ``h[i]`` and return the end states, in row order.

    The rows step in lockstep, sorted by step count, longest first; a row
    leaves the batch after its last step.  With an ``rhs`` that treats the
    rows independently, each row gets the bits it has alone.
    """
    n = np.asarray(n)
    order = np.argsort(-n, kind="stable")
    n = n[order]
    state = np.asarray(y, dtype=np.float64)[order]
    h = np.asarray(h, dtype=np.float64)[order][:, None]
    rows = len(n)
    for i in range(n[0] if rows else 0):
        while n[rows - 1] <= i:
            rows -= 1
        state[:rows] = rk4_step(rhs, state[:rows], h[:rows])
    out = np.empty_like(state)
    out[order] = state
    return out
