"""The tridiagonal solver as it stood before its test points moved off the bit midpoint.

``bisect_extremes`` tests every bracket at the midpoint of its bit patterns.  With a
monotone Sturm count the bisection's result does not depend on which points inside the
bracket it tests, so ``simulate._tridiagonal_extremes`` must return these doubles bit for
bit; ``tests/test_mc_sim.py`` holds it to them.
"""

import numpy as np


def bisect_extremes(diag, offsq):
    """(lambda_min, lambda_max) of each positive semi-definite tridiagonal T, one per row
    of ``diag`` (K entries) and ``offsq`` (its K - 1 squared off-diagonal entries).

    Sturm-count bisection, as LAPACK ``dstebz``: the pivots of T - s I count the
    eigenvalues below s, a pivot smaller than ``pivmin`` in magnitude counts as
    ``-pivmin`` (so a zero pivot counts as negative and the next one stays finite), and
    the search starts from Gershgorin's interval widened by ``dstebz``'s fudge (its lower
    end held at 0).  Both extremes of every row bisect together on the bit patterns of
    non-negative doubles until each interval is two adjacent doubles, a fixed point of
    the step, so a row's result does not depend on the other rows.
    """
    K = diag.shape[1]
    a, e2 = diag.T[:, None, :], offsq.T[:, None, :]  # K x 1 x C, against 2 x C brackets
    e, radius = np.sqrt(e2), np.zeros_like(a)
    radius[:-1] += e
    radius[1:] += e
    lo, hi = np.min(a - radius, axis=0), np.max(a + radius, axis=0)
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(e2, axis=0))
    fudge = 2.1 * np.finfo(float).eps * K * np.maximum(np.abs(lo), hi)
    lo = np.maximum(lo - fudge - 4.2 * pivmin, 0.0).repeat(2, axis=0).view(np.uint64)
    hi = (hi + fudge + 2.1 * pivmin).repeat(2, axis=0).view(np.uint64)

    q, ratio = np.empty((K,) + lo.shape), np.empty(lo.shape)
    rows = list(zip(q[1:], q[:-1], e2))

    def sweep(s, guard):
        """The pivots of T - s I into q, with or without the pivmin guard."""
        np.subtract(a, s, out=q)
        for q_i, q_prev, e2_prev in rows:
            if guard:
                np.copyto(q_prev, -pivmin, where=np.abs(q_prev) < pivmin)
            np.divide(e2_prev, q_prev, out=ratio)
            np.subtract(q_i, ratio, out=q_i)
        if guard:
            np.copyto(q[-1], -pivmin, where=np.abs(q[-1]) < pivmin)

    below = np.empty(lo.shape, dtype=bool)
    pivmax = pivmin.max()
    with np.errstate(all="ignore"):
        while (hi - lo > 1).any():
            mid = (lo + hi) >> np.uint64(1)
            sweep(mid.view(float), guard=False)
            # the unguarded sweep is the guarded one unless some pivot needed the guard
            if not np.abs(q).min() >= pivmax:
                sweep(mid.view(float), guard=True)
            # a negative pivot per eigenvalue below mid: any for lambda_min, all for lambda_max
            np.less(q[:, 0].min(axis=0), 0.0, out=below[0])
            np.less(q[:, 1].max(axis=0), 0.0, out=below[1])
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
    return lo.view(float)
