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

Buffers follow NumPy's ``out=`` convention.  A right-hand side that the
batched loops call takes ``out=``: it writes y' into that array, one
component at a time with ``out=`` ufuncs, and returns it.  Given ``out``
and ``work``, :func:`rk4_step` makes its stages in those arrays, so a loop
that passes the same arrays at every step allocates nothing per step.  The
operations and their order are those of the allocating call, so both give
the same bits.  The surface's radii scan keeps its (rows, 6) states
component-contiguous (Fortran order): each component ``state[:, k]`` that
its right-hand side reads or writes is one contiguous run.
"""

import numpy as np


def rk4_step(rhs, y, h, out=None, work=None):
    """One classical RK4 step of y' = rhs(y) with step h.

    Without ``work`` every stage is a new array and ``rhs`` is called with
    the state alone.  With ``work``, three arrays of y's shape, ``rhs`` is
    called as ``rhs(x, out=k)`` and the stages are written into ``work``;
    the new state goes into ``out`` (a new array if None), which may be
    ``y`` itself.
    """
    k, acc, stage = (None, None, None) if work is None else work

    def slope(x, buf):
        return rhs(x) if buf is None else rhs(x, out=buf)

    half, sixth = 0.5 * h, h / 6.0
    k1 = slope(y, acc)
    k2 = slope(np.add(y, np.multiply(half, k1, out=stage), out=stage), k)
    y3 = np.add(y, np.multiply(half, k2, out=stage), out=stage)
    # the sum k1 + 2 k2 + 2 k3 + k4 builds up in k1's array, in that order
    total = np.add(k1, np.multiply(2.0, k2, out=k), out=acc)
    k3 = slope(y3, k)
    y4 = np.add(y, np.multiply(h, k3, out=stage), out=stage)
    total = np.add(total, np.multiply(2.0, k3, out=k), out=acc)
    total = np.add(total, slope(y4, k), out=acc)
    return np.add(y, np.multiply(sixth, total, out=acc), out=out)


def rk4_rows(rhs, y, h, n):
    """Integrate each row of an (m, k) block of states over its own
    ``n[i]`` steps of ``h[i]`` and return the end states, in row order.

    The rows step in lockstep, sorted by step count, longest first; a row
    leaves the batch after its last step.  With an ``rhs`` that treats the
    rows independently, each row gets the bits it has alone.  ``rhs`` takes
    ``out=``: the rows step in place, through stage buffers that every step
    reuses.
    """
    n = np.asarray(n)
    order = np.argsort(-n, kind="stable")
    n = n[order]
    state = np.asarray(y, dtype=np.float64)[order]
    h = np.asarray(h, dtype=np.float64)[order][:, None]
    work = [np.empty_like(state) for _ in range(3)]
    rows = len(n)
    for i in range(n[0] if rows else 0):
        while n[rows - 1] <= i:
            rows -= 1
        live = state[:rows]
        rk4_step(rhs, live, h[:rows], out=live, work=[w[:rows] for w in work])
    out = np.empty_like(state)
    out[order] = state
    return out
