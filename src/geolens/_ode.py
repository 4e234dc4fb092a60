"""Explicit Runge-Kutta integration for autonomous systems.

The numeric surface has one integrator, :func:`dop853_step`, the order-8
step of Dormand and Prince at twelve right-hand sides, whose embedded pair
estimates its error.  The exponential maps, line points and Newton shots
integrate their batches with :func:`dop853_rows` in fixed equal steps of at
most :data:`SCAN_GRID_STEPS` steps of the model's grid (``manifold.step``);
the tests check their accuracy against closed forms, invariants and
finer-step runs.  The radii scan (``radii._first_zeros_batch``) sizes each
row's steps, whole numbers of grid steps from :data:`SCAN_GRID_STEPS` to
twice that, from the error estimate of that row's Jacobi field, and places
zeros and exits on the grid.  In both, every row takes its own steps, so a
row has the bits it has alone.

The constant-curvature Jacobi scan (``geodesics.integrate_jacobi``) is two
Python floats stepped by classical RK4.  The sampled trajectories that the
tests compare these with, and the RK4 radii scan that :func:`dop853_step`
replaced, are in ``tests/ode_oracles.py``, with their own RK4 step.

Buffers follow NumPy's ``out=`` convention.  A right-hand side that the
batched loops call takes ``out=``: it writes y' into that array, one
component at a time with ``out=`` ufuncs, and returns it.  Given ``out``
and ``work``, the step makes its stages in those arrays, so a loop that
passes the same arrays at every step allocates nothing per step.  The
operations and their order are those of the allocating call, so both give
the same bits, and every operation is elementwise, so each row of a block
has the bits it has alone.  The surface's radii scan keeps its (rows, 6)
states component-contiguous (Fortran order): each component ``state[:, k]``
that its right-hand side reads or writes is one contiguous run.
"""

import numpy as np

# grid steps of ``manifold.step`` per step of the numeric surface's
# exponential maps, line points and shots, and the shortest step of its
# radii scan, whose longest is twice this
SCAN_GRID_STEPS = 20


# DOP853, the explicit Runge-Kutta pair of order 8 of Dormand and Prince
# with embedded estimates of orders 5 and 3 (Hairer, Norsett & Wanner,
# Solving Ordinary Differential Equations I, sec. II.10), in the digits of
# its published table.  Entry i lists the nonzero (j, a_ij) of stage i + 2,
# the last the weights b of the order-8 solution; the system is autonomous,
# so the nodes c are not needed.
_DOP853_A = (
    (  # stage 2
        (0, 5.26001519587677318785587544488e-2),
    ),
    (  # stage 3
        (0, 1.97250569845378994544595329183e-2),
        (1, 5.91751709536136983633785987549e-2),
    ),
    (  # stage 4
        (0, 2.95875854768068491816892993775e-2),
        (2, 8.87627564304205475450678981324e-2),
    ),
    (  # stage 5
        (0, 2.41365134159266685502369798665e-1),
        (2, -8.84549479328286085344864962717e-1),
        (3, 9.24834003261792003115737966543e-1),
    ),
    (  # stage 6
        (0, 3.7037037037037037037037037037e-2),
        (3, 1.70828608729473871279604482173e-1),
        (4, 1.25467687566822425016691814123e-1),
    ),
    (  # stage 7
        (0, 3.7109375e-2),
        (3, 1.70252211019544039314978060272e-1),
        (4, 6.02165389804559606850219397283e-2),
        (5, -1.7578125e-2),
    ),
    (  # stage 8
        (0, 3.70920001185047927108779319836e-2),
        (3, 1.70383925712239993810214054705e-1),
        (4, 1.07262030446373284651809199168e-1),
        (5, -1.53194377486244017527936158236e-2),
        (6, 8.27378916381402288758473766002e-3),
    ),
    (  # stage 9
        (0, 6.24110958716075717114429577812e-1),
        (3, -3.36089262944694129406857109825),
        (4, -8.68219346841726006818189891453e-1),
        (5, 2.75920996994467083049415600797e1),
        (6, 2.01540675504778934086186788979e1),
        (7, -4.34898841810699588477366255144e1),
    ),
    (  # stage 10
        (0, 4.77662536438264365890433908527e-1),
        (3, -2.48811461997166764192642586468),
        (4, -5.90290826836842996371446475743e-1),
        (5, 2.12300514481811942347288949897e1),
        (6, 1.52792336328824235832596922938e1),
        (7, -3.32882109689848629194453265587e1),
        (8, -2.03312017085086261358222928593e-2),
    ),
    (  # stage 11
        (0, -9.3714243008598732571704021658e-1),
        (3, 5.18637242884406370830023853209),
        (4, 1.09143734899672957818500254654),
        (5, -8.14978701074692612513997267357),
        (6, -1.85200656599969598641566180701e1),
        (7, 2.27394870993505042818970056734e1),
        (8, 2.49360555267965238987089396762),
        (9, -3.0467644718982195003823669022),
    ),
    (  # stage 12
        (0, 2.27331014751653820792359768449),
        (3, -1.05344954667372501984066689879e1),
        (4, -2.00087205822486249909675718444),
        (5, -1.79589318631187989172765950534e1),
        (6, 2.79488845294199600508499808837e1),
        (7, -2.85899827713502369474065508674),
        (8, -8.87285693353062954433549289258),
        (9, 1.23605671757943030647266201528e1),
        (10, 6.43392746015763530355970484046e-1),
    ),
    (  # the weights b
        (0, 5.42937341165687622380535766363e-2),
        (5, 4.45031289275240888144113950566),
        (6, 1.89151789931450038304281599044),
        (7, -5.8012039600105847814672114227),
        (8, 3.1116436695781989440891606237e-1),
        (9, -1.52160949662516078556178806805e-1),
        (10, 2.01365400804030348374776537501e-1),
        (11, 4.47106157277725905176885569043e-2),
    ),
)
_DOP853_B = _DOP853_A[-1]
# b less the weights of the order-5 solution
_DOP853_E5 = (
    (0, 0.1312004499419488073250102996e-1),
    (5, -0.1225156446376204440720569753e1),
    (6, -0.4957589496572501915214079952),
    (7, 0.1664377182454986536961530415e1),
    (8, -0.3503288487499736816886487290),
    (9, 0.3341791187130174790297318841),
    (10, 0.8192320648511571246570742613e-1),
    (11, -0.2235530786388629525884427845e-1),
)
# b less the weights of the order-3 solution, which differ from b in three
_BHH = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
_DOP853_E3 = tuple((j, b - _BHH.get(j, 0.0)) for j, b in _DOP853_B)
DOP853_WORK = 14  # the arrays of a step's ``work``: twelve stages and two sums


def _weighted_sum(terms, k, out, term):
    """The sum of a k[j] over the (j, a) of ``terms``, built up left to
    right in ``out``, each product made in ``term``."""
    (j, a), *rest = terms
    np.multiply(a, k[j], out=out)
    for j, a in rest:
        np.add(out, np.multiply(a, k[j], out=term), out=out)
    return out


def dop853_step(rhs, y, h, out=None, work=None, estimate=slice(None)):
    """One DOP853 step of y' = rhs(y) with step h, and its error estimate.

    ``rhs`` is called as ``rhs(x, out=k)``.  ``h`` is a number, or an array
    that broadcasts against ``y`` (a column gives each row its own step).
    The stages are written into ``work``, :data:`DOP853_WORK` arrays of y's
    shape (new ones if None), and the new state into ``out`` (a new array
    if None), which may be ``y`` itself.  Every stage sum is a chain of
    multiply-adds in a fixed order, with no dot product, so each element
    has the bits it has alone, whatever else the block holds.

    Returns (new state, error), where the error of each state along the
    last axis of ``y`` combines the max norms e5 and e3 of h times the
    order-8 less the order-5 and order-3 solutions as DOP853 does,
    e5^2 / sqrt(e5^2 + 0.01 e3^2): an estimate of order 8 in h.  The
    norms are taken over the components in the slice ``estimate`` of that
    axis, all of them by default; with ``estimate`` None the error is not
    computed and is None.  The new state has the same bits either way.
    """
    if work is None:
        work = [np.empty_like(y, dtype=np.float64) for _ in range(DOP853_WORK)]
    *k, acc, term = work
    rhs(y, out=k[0])
    for i, terms in enumerate(_DOP853_A[:-1], start=1):
        _weighted_sum(terms, k, acc, term)
        rhs(np.add(y, np.multiply(h, acc, out=acc), out=acc), out=k[i])
    error = None
    if estimate is not None:
        # the stage sums of the estimated components alone
        k_est, a, t = [x[..., estimate] for x in k], acc[..., estimate], term[..., estimate]
        e5, e3 = (
            np.abs(np.multiply(h, _weighted_sum(w, k_est, a, t), out=a), out=a).max(axis=-1)
            for w in (_DOP853_E5, _DOP853_E3)
        )
        error = e5 * e5 / np.maximum(np.hypot(e5, 0.1 * e3), np.finfo(np.float64).tiny)
    _weighted_sum(_DOP853_B, k, acc, term)
    return np.add(y, np.multiply(h, acc, out=acc), out=out), error


def dop853_rows(rhs, y, h, n):
    """Integrate each row of an (m, k) block of states over its own
    ``n[i]`` steps of ``h[i]`` and return the end states, in row order.

    The rows step in lockstep, sorted by step count, longest first; a row
    leaves the batch after its last step.  With an ``rhs`` that treats the
    rows independently, each row gets the bits it has alone.  ``rhs`` takes
    ``out=``: the rows step in place, through stage buffers that every step
    reuses.  The steps are fixed, so no error estimate is computed.
    """
    n = np.asarray(n)
    order = np.argsort(-n, kind="stable")
    n = n[order]
    state = np.asarray(y, dtype=np.float64)[order]
    h = np.asarray(h, dtype=np.float64)[order][:, None]
    work = [np.empty_like(state) for _ in range(DOP853_WORK)]
    rows = len(n)
    for i in range(n[0] if rows else 0):
        while n[rows - 1] <= i:
            rows -= 1
        live = state[:rows]
        dop853_step(rhs, live, h[:rows], out=live, work=[w[:rows] for w in work], estimate=None)
    out = np.empty_like(state)
    out[order] = state
    return out
